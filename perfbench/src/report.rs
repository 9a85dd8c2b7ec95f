//! Result bookkeeping: percentiles, the metric list, provenance and the
//! final JSON line.

use std::fmt::Write as _;

/// Percentile `p` (0–100) of `sorted` by nearest rank; 0 when empty.
pub fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A duration in microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    pct(&v, 50.0)
}

/// The highest of the standard percentiles that leaves at least ten
/// samples beyond it in a sample of `n`.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Samples per slice of a timed level: the tail of a level is the median
/// over its slices of each slice's tail percentile, so one host stall
/// moves one slice, not the reported tail. 200 samples put each slice's
/// tail at p95.
pub const SLICE: usize = 200;

/// The tail of `in_order` (samples in due order): the median over
/// consecutive slices of [`SLICE`] samples of each slice's tail percentile,
/// or the whole sample's tail when it holds fewer than two slices.
/// Returns `(value, percentile, slices)`.
pub fn sliced_tail(in_order: &[f64]) -> (f64, f64, usize) {
    let slices = in_order.len() / SLICE;
    if slices < 2 {
        let l = Latencies::new(in_order.to_vec());
        return (l.tail(), l.tail_p(), 1);
    }
    let tails: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                in_order.len()
            } else {
                (i + 1) * SLICE
            };
            Latencies::new(in_order[i * SLICE..end].to_vec()).tail()
        })
        .collect();
    (median(&tails), tail_percentile(SLICE), slices)
}

/// Sorted copy of a latency sample plus its tail percentile.
pub struct Latencies {
    pub sorted: Vec<f64>,
}

impl Latencies {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Latencies { sorted: values }
    }

    pub fn p50(&self) -> f64 {
        pct(&self.sorted, 50.0)
    }

    pub fn tail_p(&self) -> f64 {
        tail_percentile(self.sorted.len())
    }

    pub fn tail(&self) -> f64 {
        pct(&self.sorted, self.tail_p())
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// `p50 / p<tail> / max` in microseconds, with the sample count.
    pub fn describe(&self) -> String {
        format!(
            "p50 {:.1} us, p{} {:.1} us, max {:.1} us (n={})",
            self.p50(),
            self.tail_p(),
            self.tail(),
            self.max(),
            self.sorted.len()
        )
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The end-to-end metric (and workload) a per-layer number should move.
    pub targets: &'static str,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub mismatches: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, targets: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            targets,
        });
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Prints the metric table, then the result object as the last line.
    pub fn print(&self, trace: bool) {
        println!(
            "answers: {} mismatches; {} of {} queries failed (fail_frac {:.6})",
            self.mismatches,
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("{:<34} {:>14} {:<6} targets", "metric", "value", "unit");
        for m in &self.metrics {
            println!(
                "{:<34} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.targets
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let names: &[&str] = if trace { PER_LAYER } else { END_TO_END };
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The end-to-end metrics every untraced run reports in its result object
/// (BENCHMARK.json). `tail_us`, `tail_us.peak` and `throughput` are printed
/// in the table but not gated: their run-to-run spread on a shared two-vCPU
/// host exceeds any usable bound (see README.md).
pub const END_TO_END: &[&str] = &["setup_s", "p50_us", "p50_us.peak", "rss_mb"];

/// The per-layer metrics every traced run reports (BENCHMARK.json).
/// Layers a workload does not exercise report 0.
pub const PER_LAYER: &[&str] = &[
    "client.lateness_us.nominal",
    "client.lateness_us.peak",
    "service.admit_us.p50",
    "service.queue_us.p50",
    "service.queue_us.tail",
    "service.scatter_us.p50",
    "service.merge_us.p50",
    "service.queries_per_flush",
    "service.flush_full_frac",
    "service.shard_imbalance",
    "service.retries",
    "service.failures",
    "service.qps_sat",
    "plan.us_per_call.p50",
    "plan.us_per_call.tail",
    "search.us.k1",
    "search.us.k10",
    "search.us.k100",
    "search.nodes_per_query",
    "search.leaves_per_query",
    "search.heap_pops_per_query",
    "search.epochs_scanned_per_query",
    "collective.us_per_query",
    "collective.vs_search",
    "agg_cache.hit_frac",
    "merge_ranked.us_per_query",
    "live.ingest_eps",
    "live.record_ns",
    "live.seal_ms",
    "live.merge_ms",
    "live.snapshot_us",
    "live.snap_query_us.p50",
    "live.snap_query_us.tail",
    "live.snap_nodes_per_query",
    "live.quiesced_us.p50",
    "live.overlay_query_us.p50",
    "live.overlay_nodes_per_query",
    "setup.generate_s",
    "setup.build_s",
    "setup.warmup_s",
    "index.packed_bytes_per_poi",
    "trace.overhead",
    "trace.layer_gap_frac",
];

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minimal JSON string escaping for the trace file.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
