//! The benchmark's own span recorder: spans around calls into each layer,
//! kept in memory and written out when the run ends.

use crate::report::json_str;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: layer name, request id, parent span (index into the
/// same recorder), and start/end in nanoseconds since the recorder's epoch.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one thread. Disabled recorders drop everything.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id for children.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Appends another thread's spans, rebasing their parent ids.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (µs) of every span named `name`: its duration minus the
    /// time its direct children cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i]) as f64
                    / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80 + header.len() + 64);
        let _ = write!(
            out,
            "{{\"schema\": \"knnta.perfbench.spans.v1\", {header}, \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": {}, \"req\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(s.name),
                s.req,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
