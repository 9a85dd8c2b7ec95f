//! The `live_ingest` workload: one writer records check-ins into a
//! `LiveIndex` while the main thread sends open-loop snapshot reads.
//!
//! The timed reads ask about the digested history: power-law points, k=10,
//! power-of-two intervals that end where ingestion starts. Reads whose
//! interval reaches the ingested epochs meet the delta overlay and scan
//! every node; the traced run times those separately (`live.overlay_*`).
//!
//! Every round starts from the same state (epochs 0–12 digested) and runs
//! the same writer schedule: record epoch `e`'s unit check-ins flat out,
//! `seal_epoch` at the boundary, `merge_sealed` after every second seal.
//! The schedule goes by count, so a snapshot's watermark fixes exactly which
//! epochs it must contain, and sampled reads are checked after timing
//! against one `ingest_epoch` replay walked forward epoch by epoch.

use crate::data::{answer_digest, hotspot_queries, Dataset};
use crate::layers;
use crate::report::{median, peak_rss_mb, sliced_tail, us, Latencies, Outcome};
use crate::serve::{SetupTimes, TIMEOUT};
use crate::spans::Spans;
use knnta::core::{
    IndexConfig, KnntaQuery, LiveIndex, LiveOptions, Poi, SnapshotBackend, TarIndex,
};
use knnta::util::rng::{Rng, StdRng};
use knnta::{AggregateSeries, CheckIn, PoiId, TimeInterval, Timestamp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Epochs `0..FIRST_OPEN` are digested before ingestion starts.
const FIRST_OPEN: usize = 13;
/// The writer merges after this many seals.
const MERGE_EVERY: usize = 2;
/// Fixed nominal read rate, about 10% of the seed's read capacity during
/// ingestion: one reader thread sustains about 40k history reads/s while
/// the writer merges on the other core.
pub const NOMINAL_QPS: f64 = 4000.0;
/// Fixed peak read rate, about 60% of the seed's read capacity.
pub const PEAK_QPS: f64 = 24000.0;
/// Rate of the traced run's overlay reads, about 10% of what one reader
/// sustains when every read scans the overlay (about 1,000/s).
const OVERLAY_QPS: f64 = 100.0;
/// Every `SAMPLE_EVERY`-th read of a round is answer-checked.
const SAMPLE_EVERY: usize = 8;
const READ_SALT: u64 = 0x5245_4144;
const EVENT_SALT: u64 = 0x4556_4E54;

/// The generated inputs of one run.
pub struct Inputs {
    pub ds: Dataset,
    /// Every POI with its series cut to the digested epochs.
    base: Vec<(Poi, AggregateSeries)>,
    /// Unit check-ins of epochs `FIRST_OPEN..`, one list per epoch.
    epochs: Vec<Vec<CheckIn>>,
    /// The timed read stream: intervals within the digested history.
    reads: Vec<KnntaQuery>,
    /// The same points with intervals from a day of the digested history to
    /// the end of the horizon, so every read covers the ingested epochs.
    overlay_reads: Vec<KnntaQuery>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let ds = Dataset::generate(seed);
        let grid = &ds.data.grid;
        let base = ds
            .pois
            .iter()
            .map(|(p, s)| {
                let digested = s.iter().filter(|&(e, _)| (e as usize) < FIRST_OPEN);
                (*p, AggregateSeries::from_pairs(digested))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ EVENT_SALT);
        let epochs = (FIRST_OPEN..grid.len())
            .map(|e| {
                let span = grid.epoch(e);
                let len = (span.end - span.start).max(1);
                let mut events = Vec::new();
                for (p, s) in &ds.pois {
                    for _ in 0..s.get(e as u32) {
                        let t = span.start + rng.gen_range(0..len);
                        events.push(CheckIn::with_value(p.id, t, 1));
                    }
                }
                rng.shuffle(&mut events);
                events
            })
            .collect();
        let first_open_day = grid.epoch(FIRST_OPEN).start.days();
        let points = hotspot_queries(&ds.data, 8192, seed ^ READ_SALT);
        let reads = points
            .iter()
            .map(|q| {
                let len = q.interval.end().days() - q.interval.start().days();
                let from = (first_open_day - len).max(0);
                KnntaQuery {
                    interval: TimeInterval::days(from, first_open_day),
                    ..*q
                }
            })
            .collect();
        let overlay_reads = points
            .iter()
            .map(|q| KnntaQuery {
                interval: TimeInterval::new(
                    Timestamp::from_days(rng.gen_range(0..=first_open_day)),
                    grid.tc(),
                ),
                ..*q
            })
            .collect();
        Inputs {
            ds,
            base,
            epochs,
            reads,
            overlay_reads,
        }
    }

    fn stream(&self, stream: Stream) -> &[KnntaQuery] {
        match stream {
            Stream::History => &self.reads,
            Stream::Overlay => &self.overlay_reads,
        }
    }

    fn events(&self) -> u64 {
        self.epochs.iter().map(|e| e.len() as u64).sum()
    }

    fn base_index(&self) -> TarIndex {
        TarIndex::build(
            IndexConfig::default(),
            self.ds.data.grid.clone(),
            self.ds.bounds(),
            self.base.iter().cloned(),
        )
    }

    /// A fresh live index at the starting state, warmed with snapshot reads.
    fn live(&self) -> LiveIndex {
        self.live_timed().0
    }

    /// [`Inputs::live`] with its build and warm-up times in seconds.
    fn live_timed(&self) -> (LiveIndex, f64, f64) {
        let t0 = Instant::now();
        let opts = LiveOptions {
            serve_packed: true,
            ..LiveOptions::default()
        };
        let live = LiveIndex::with_options(self.base_index(), FIRST_OPEN, opts);
        let t1 = Instant::now();
        let snap = live.snapshot();
        for q in &self.reads[..64] {
            std::hint::black_box(snap.query_on(q, SnapshotBackend::Packed));
        }
        drop(snap);
        let build = (t1 - t0).as_secs_f64();
        (live, build, t1.elapsed().as_secs_f64())
    }
}

/// Which read stream a round takes its queries from.
#[derive(Clone, Copy)]
enum Stream {
    History,
    Overlay,
}

/// One snapshot read.
struct Read {
    query: usize,
    latency_us: f64,
    snapshot_us: f64,
    query_us: f64,
    nodes: u64,
    open_epoch: usize,
    /// Answer digest of a sampled read.
    digest: Option<u64>,
}

/// The writer's side of one round.
#[derive(Default)]
struct Writer {
    events: u64,
    elapsed: Duration,
    record_ns: Vec<f64>,
    seal_ms: Vec<f64>,
    merge_ms: Vec<f64>,
}

struct Round {
    stream: Stream,
    reads: Vec<Read>,
    lateness_us: Vec<f64>,
    failed: u64,
    writer: Writer,
    conserved: bool,
}

/// Runs the writer schedule on a scoped thread while this thread reads at
/// `rate` until the writer is done, taking reads from `stream` in order
/// from position `first`.
fn round(
    live: &LiveIndex,
    inputs: &Inputs,
    stream: Stream,
    rate: f64,
    first: usize,
    spans: &mut Spans,
    round_id: u64,
) -> Round {
    let done = AtomicBool::new(false);
    let queries = inputs.stream(stream);
    let mut reads = Vec::new();
    let mut lateness_us = Vec::new();
    let mut failed = 0u64;
    let (writer, writer_spans) = std::thread::scope(|s| {
        let done = &done;
        let mut wspans = Spans::new(spans.epoch(), spans.enabled());
        let handle = s.spawn(move || {
            let mut w = Writer::default();
            let start = Instant::now();
            for (j, events) in inputs.epochs.iter().enumerate() {
                let a = Instant::now();
                for e in events {
                    live.record(*e);
                }
                let b = Instant::now();
                live.seal_epoch();
                let c = Instant::now();
                let epoch = wspans.record("live.epoch", round_id, None, a, c);
                wspans.record("live.record", round_id, epoch, a, b);
                wspans.record("live.seal", round_id, epoch, b, c);
                w.record_ns
                    .push((b - a).as_nanos() as f64 / events.len().max(1) as f64);
                w.seal_ms.push((c - b).as_secs_f64() * 1e3);
                if (j + 1).is_multiple_of(MERGE_EVERY) {
                    live.merge_sealed();
                    let d = Instant::now();
                    wspans.record("live.merge", round_id, None, c, d);
                    w.merge_ms.push((d - c).as_secs_f64() * 1e3);
                }
                w.events += events.len() as u64;
            }
            w.elapsed = start.elapsed();
            done.store(true, Ordering::SeqCst);
            (w, wspans)
        });
        let start = Instant::now();
        let mut i = 0usize;
        while !done.load(Ordering::SeqCst) {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                continue;
            }
            let qi = (first + i) % queries.len();
            let q = queries[qi];
            let a = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let snap = live.snapshot();
                let b = Instant::now();
                let nodes0 = snap.index().stats().snapshot().node_accesses;
                let hits = snap.query_on(&q, SnapshotBackend::Packed);
                let nodes = snap.index().stats().snapshot().node_accesses - nodes0;
                (b, snap.watermark().open_epoch, nodes, hits)
            }));
            let c = Instant::now();
            lateness_us.push(us(a.saturating_duration_since(due)));
            match outcome {
                Ok((b, open_epoch, nodes, hits)) if c - due < TIMEOUT => {
                    let root = spans.record("read", i as u64, None, due, c);
                    spans.record("client.lateness", i as u64, root, due, a);
                    spans.record("live.snapshot", i as u64, root, a, b);
                    spans.record("live.snap_query", i as u64, root, b, c);
                    reads.push(Read {
                        query: qi,
                        latency_us: us(c - due),
                        snapshot_us: us(b - a),
                        query_us: us(c - b),
                        nodes,
                        open_epoch,
                        digest: i.is_multiple_of(SAMPLE_EVERY).then(|| answer_digest(&hits)),
                    });
                }
                _ => failed += 1,
            }
            i += 1;
        }
        handle.join().expect("writer thread")
    });
    spans.absorb(writer_spans);
    let conserved = live.pending() + live.sealed_events() + live.dropped() == live.recorded()
        && live.recorded() == inputs.events();
    Round {
        stream,
        reads,
        lateness_us,
        failed,
        writer,
        conserved,
    }
}

/// A sampled read awaiting the answer check.
struct Sampled {
    stream: Stream,
    query: usize,
    digest: u64,
}

/// Checks the sampled reads of every round against one replay walked
/// forward: the base index, then `ingest_epoch` of each sealed epoch in
/// order. Returns `(checked, mismatches)`.
fn check_samples(inputs: &Inputs, rounds: &[&Round]) -> (u64, u64) {
    let mut by_epoch: BTreeMap<usize, Vec<Sampled>> = BTreeMap::new();
    for r in rounds {
        for read in &r.reads {
            if let Some(digest) = read.digest {
                by_epoch.entry(read.open_epoch).or_default().push(Sampled {
                    stream: r.stream,
                    query: read.query,
                    digest,
                });
            }
        }
    }
    let mut replay = inputs.base_index();
    let (mut checked, mut mismatches) = (0u64, 0u64);
    for open in FIRST_OPEN..=inputs.ds.data.grid.len() {
        for read in by_epoch.remove(&open).unwrap_or_default() {
            let q = &inputs.stream(read.stream)[read.query];
            checked += 1;
            if answer_digest(&replay.query(q)) != read.digest {
                if mismatches < 5 {
                    eprintln!("snapshot answer mismatch at open epoch {open} for {q:?}");
                }
                mismatches += 1;
            }
        }
        if open < inputs.ds.data.grid.len() {
            let updates: Vec<(PoiId, u64)> = inputs
                .ds
                .pois
                .iter()
                .map(|(p, s)| (p.id, s.get(open as u32)))
                .filter(|&(_, v)| v > 0)
                .collect();
            replay.ingest_epoch(open, &updates);
        }
    }
    // A watermark outside the schedule is itself a wrong answer.
    let stray: u64 = by_epoch.values().map(|v| v.len() as u64).sum();
    (checked + stray, mismatches + stray)
}

fn print_round(r: &Round, rate: f64) {
    let lat = Latencies::new(r.reads.iter().map(|x| x.latency_us).collect());
    println!(
        "round at {rate} reads/s: {} events in {:.3} s = {:.0} eps, seals p50 {:.2} ms, merges p50 {:.1} ms; reads {}; lateness {}",
        r.writer.events,
        r.writer.elapsed.as_secs_f64(),
        r.writer.events as f64 / r.writer.elapsed.as_secs_f64(),
        median(&r.writer.seal_ms),
        median(&r.writer.merge_ms),
        lat.describe(),
        Latencies::new(r.lateness_us.clone()).describe()
    );
}

fn pooled(rounds: &[&Round], f: impl Fn(&Read) -> f64) -> Latencies {
    Latencies::new(rounds.iter().flat_map(|r| r.reads.iter().map(&f)).collect())
}

/// A warm-up round at the nominal rate (no reads kept), then rounds alternating
/// nominal and peak read rates until `seconds` elapse (at least one of
/// each). Returns the rounds, each round's set-up time, the warm-up time
/// and the peak RSS over the warm-up round: one whole ingest schedule with
/// its merges, before the timed rounds' own bookkeeping (a few MiB per
/// second at these read rates) adds to it.
fn rounds(
    inputs: &Inputs,
    seconds: f64,
    spans: &mut Spans,
) -> (Vec<(f64, Round)>, Vec<f64>, f64, f64) {
    let t = Instant::now();
    let mut off = Spans::new(spans.epoch(), false);
    round(
        &inputs.live(),
        inputs,
        Stream::History,
        NOMINAL_QPS,
        0,
        &mut off,
        0,
    );
    let warmup = t.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    let mut setups = Vec::new();
    // Each level walks the read stream on from where its last round ended,
    // so a run's reads cover the stream rather than its first round's worth.
    let (mut nominal_next, mut peak_next) = (0usize, 0usize);
    while out.len() < 2 || Instant::now() < stop {
        let (rate, next) = if out.len() % 2 == 0 {
            (NOMINAL_QPS, &mut nominal_next)
        } else {
            (PEAK_QPS, &mut peak_next)
        };
        let t = Instant::now();
        let live = inputs.live();
        setups.push(t.elapsed().as_secs_f64());
        let r = round(
            &live,
            inputs,
            Stream::History,
            rate,
            *next,
            spans,
            out.len() as u64,
        );
        *next += r.lateness_us.len();
        print_round(&r, rate);
        out.push((rate, r));
    }
    (out, setups, warmup, rss)
}

fn outcome_of(inputs: &Inputs, rounds: &[&Round]) -> Outcome {
    let (checked, mismatches) = check_samples(inputs, rounds);
    let unconserved = rounds.iter().filter(|r| !r.conserved).count() as u64;
    if unconserved > 0 {
        eprintln!("{unconserved} rounds broke pending + sealed_events + dropped == recorded");
    }
    println!(
        "answer check: {checked} sampled snapshot reads against the ingest_epoch replay; event conservation held in {} of {} rounds",
        rounds.len() as u64 - unconserved,
        rounds.len()
    );
    Outcome {
        mismatches: mismatches + unconserved,
        attempted: rounds.iter().map(|r| r.reads.len() as u64 + r.failed).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        ..Outcome::default()
    }
}

fn at(rounds: &[(f64, Round)], rate: f64) -> Vec<&Round> {
    rounds
        .iter()
        .filter(|(r, _)| *r == rate)
        .map(|(_, x)| x)
        .collect()
}

/// The timed (untraced) run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let t = Instant::now();
    let inputs = Inputs::generate(seed);
    let generate = t.elapsed().as_secs_f64();
    let mut spans = Spans::new(Instant::now(), false);
    let (rounds, setups, warmup, rss) = rounds(&inputs, seconds, &mut spans);
    let all: Vec<&Round> = rounds.iter().map(|(_, r)| r).collect();
    let mut out = outcome_of(&inputs, &all);
    let nominal = pooled(&at(&rounds, NOMINAL_QPS), |r| r.latency_us);
    let peak = pooled(&at(&rounds, PEAK_QPS), |r| r.latency_us);
    let in_order = |rate| -> Vec<f64> {
        at(&rounds, rate)
            .iter()
            .flat_map(|r| r.reads.iter().map(|x| x.latency_us))
            .collect()
    };
    let (n_tail, n_p, n_slices) = sliced_tail(&in_order(NOMINAL_QPS));
    let (p_tail, p_p, p_slices) = sliced_tail(&in_order(PEAK_QPS));
    println!("tail_us: median over {n_slices} slices of p{n_p}; tail_us.peak: median over {p_slices} slices of p{p_p}");
    let eps: Vec<f64> = all
        .iter()
        .map(|r| r.writer.events as f64 / r.writer.elapsed.as_secs_f64())
        .collect();
    out.push("setup_s", generate + warmup + median(&setups), "s", "");
    out.push("p50_us", nominal.p50(), "us", "");
    out.push("tail_us", n_tail, "us", "reported, not gated");
    out.push("p50_us.peak", peak.p50(), "us", "");
    out.push("tail_us.peak", p_tail, "us", "reported, not gated");
    out.push(
        "throughput",
        median(&eps),
        "1/s",
        "ingest_eps: writer check-ins/s incl. seal and merge (reported, not gated)",
    );
    out.push("rss_mb", rss, "MiB", "");
    out
}

/// The traced run: an untimed warm-up round, one traced and one untraced
/// round at the nominal rate, one round at the peak rate (for its
/// lateness), one round of overlay reads, then reads on the quiesced
/// index. Only the traced round records spans.
pub fn run_traced(seed: u64, seconds: f64, spans: &mut Spans) -> Outcome {
    let t = Instant::now();
    let inputs = Inputs::generate(seed);
    let generate = t.elapsed().as_secs_f64();
    let mut off = Spans::new(spans.epoch(), false);

    let (live, build, warmup) = inputs.live_timed();
    round(&live, &inputs, Stream::History, NOMINAL_QPS, 0, &mut off, 0);
    drop(live);
    let live = inputs.live();
    let plain = round(&live, &inputs, Stream::History, NOMINAL_QPS, 0, &mut off, 1);
    print_round(&plain, NOMINAL_QPS);
    drop(live);
    let live = inputs.live();
    let peak = round(&live, &inputs, Stream::History, PEAK_QPS, 0, &mut off, 2);
    print_round(&peak, PEAK_QPS);
    drop(live);
    let live = inputs.live();
    let overlay = round(&live, &inputs, Stream::Overlay, OVERLAY_QPS, 0, &mut off, 3);
    print_round(&overlay, OVERLAY_QPS);
    drop(live);
    let live = inputs.live();
    let traced = round(&live, &inputs, Stream::History, NOMINAL_QPS, 0, spans, 4);
    print_round(&traced, NOMINAL_QPS);

    // The same reads once the last epoch is sealed and merged.
    live.seal_epoch();
    live.merge_sealed();
    let snap = live.snapshot();
    let quiesced: Vec<f64> = traced
        .reads
        .iter()
        .map(|r| {
            let t = Instant::now();
            std::hint::black_box(snap.query_on(&inputs.reads[r.query], SnapshotBackend::Packed));
            us(t.elapsed())
        })
        .collect();
    drop(snap);
    drop(live);

    let mut out = outcome_of(&inputs, &[&plain, &peak, &overlay, &traced]);
    let rate_note = "ingest_eps (throughput) on live_ingest";
    let read_note = "p50_us and tail_us on live_ingest";
    let w = &traced.writer;
    out.push(
        "client.lateness_us.nominal",
        Latencies::new(traced.lateness_us.clone()).tail(),
        "us",
        "tail_us (generator, not service)",
    );
    out.push(
        "client.lateness_us.peak",
        Latencies::new(peak.lateness_us.clone()).tail(),
        "us",
        "tail_us.peak (generator, not service)",
    );
    let eps: Vec<f64> = [&plain, &peak, &traced]
        .iter()
        .map(|r| r.writer.events as f64 / r.writer.elapsed.as_secs_f64())
        .collect();
    out.push(
        "live.ingest_eps",
        median(&eps),
        "1/s",
        "throughput on live_ingest",
    );
    out.push("live.record_ns", median(&w.record_ns), "ns", rate_note);
    out.push("live.seal_ms", median(&w.seal_ms), "ms", rate_note);
    out.push("live.merge_ms", median(&w.merge_ms), "ms", rate_note);
    let snapshot = pooled(&[&traced], |r| r.snapshot_us);
    let query = pooled(&[&traced], |r| r.query_us);
    out.push("live.snapshot_us", snapshot.p50(), "us", read_note);
    out.push("live.snap_query_us.p50", query.p50(), "us", read_note);
    out.push("live.snap_query_us.tail", query.tail(), "us", read_note);
    let nodes_per_query = |r: &Round| {
        r.reads.iter().map(|x| x.nodes as f64).sum::<f64>() / r.reads.len().max(1) as f64
    };
    out.push(
        "live.snap_nodes_per_query",
        nodes_per_query(&traced),
        "count",
        read_note,
    );
    let overlay_note = "read latency once reads reach the ingested epochs (not in the timed mix)";
    out.push(
        "live.overlay_query_us.p50",
        pooled(&[&overlay], |r| r.query_us).p50(),
        "us",
        overlay_note,
    );
    out.push(
        "live.overlay_nodes_per_query",
        nodes_per_query(&overlay),
        "count",
        overlay_note,
    );
    out.push(
        "live.quiesced_us.p50",
        Latencies::new(quiesced).p50(),
        "us",
        read_note,
    );
    layers::push_service_absent(&mut out);
    let reads: Vec<KnntaQuery> = traced.reads.iter().map(|r| inputs.reads[r.query]).collect();
    layers::search_layers(
        &mut out,
        inputs.ds.reference_index(),
        &reads,
        seconds * 0.15,
    );
    layers::push_setup(
        &mut out,
        SetupTimes {
            generate,
            build,
            warmup,
        },
    );

    // Blocking path of a read: lateness, snapshot, snapshot query.
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let rows = [
        (
            "client.lateness",
            mean(spans.self_times_us("client.lateness")),
        ),
        ("live.snapshot", mean(spans.self_times_us("live.snapshot"))),
        (
            "live.snap_query",
            mean(spans.self_times_us("live.snap_query")),
        ),
    ];
    let e2e_mean = mean(traced.reads.iter().map(|r| r.latency_us).collect());
    layers::push_ledger(
        &mut out,
        &rows,
        e2e_mean,
        pooled(&[&traced], |r| r.latency_us).p50(),
        pooled(&[&plain], |r| r.latency_us).p50(),
    );
    out
}
