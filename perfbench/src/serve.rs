//! The two service workloads: `serve_hotspot` and `serve_mixed`.
//!
//! Each timed run sets the service up several times (reporting the median
//! set-up), then drives one service through three levels: open loop at a
//! fixed nominal rate, open loop at a fixed peak rate, and a closed loop
//! with 64 tickets outstanding. Open-loop latency is timed from each
//! query's due instant, so generator lateness counts against the service.
//! Every answer is checked against the unsharded tree after timing ends.

use crate::data::{answer_digest, hotspot_queries, mixed_queries, AnswerCheck, Dataset};
use crate::layers;
use crate::report::{median, pct, peak_rss_mb, sliced_tail, us, Latencies, Outcome};
use crate::spans::Spans;
use knnta::core::{KnntaQuery, Obs};
use knnta::lbsn::LbsnDataset;
use knnta::service::{Service, ServiceConfig, TelemetryConfig, Ticket};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A ticket not answered this long after its due instant counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(5);
/// Tickets the closed loop keeps outstanding.
const WINDOW: usize = 64;
/// Set-ups per timed run (the median is reported).
const SETUPS: usize = 5;

/// One service workload.
pub struct ServeSpec {
    pub queries: fn(&LbsnDataset, usize, u64) -> Vec<KnntaQuery>,
    /// Fixed nominal open-loop rate, about 10% of the seed's capacity.
    pub nominal_qps: f64,
    /// Fixed peak open-loop rate, about 60% of the seed's capacity.
    pub peak_qps: f64,
    /// Shares of `--seconds` spent at the nominal rate, the peak rate and
    /// in the closed loop.
    pub shares: [f64; 3],
}

/// Capacity here is the highest open-loop rate the seed sustains without
/// a growing backlog on two cores: about 20k qps.
pub const HOTSPOT: ServeSpec = ServeSpec {
    queries: hotspot_queries,
    nominal_qps: 2000.0,
    peak_qps: 12000.0,
    shares: [0.3, 0.3, 0.3],
};

/// Every query is its own planner key, so every flush pays one power-law
/// fit: the seed sustains about 28 qps open loop. The nominal rate sits a
/// little above 10% so the level still holds ~60 samples.
pub const MIXED: ServeSpec = ServeSpec {
    queries: mixed_queries,
    nominal_qps: 4.0,
    peak_qps: 17.0,
    shares: [0.5, 0.3, 0.2],
};

/// The production shape: one shard per core on two cores, telemetry on.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        workers: 1,
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        telemetry: TelemetryConfig::default(),
        ..ServiceConfig::default()
    }
}

/// Stream salts, so every level and the warm-up draw distinct queries.
const WARM_SALT: u64 = 0x5741_524D;
const NOMINAL_SALT: u64 = 0x4E4F_4D49;
const PEAK_SALT: u64 = 0x5045_414B;
const CLOSED_SALT: u64 = 0x434C_4F53;

/// Set-up phase timings in seconds.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    pub generate: f64,
    pub build: f64,
    pub warmup: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.build + self.warmup
    }
}

/// Generates the dataset, starts the service and warms every shard's
/// planner and caches with a burst plus single queries.
pub fn setup(
    spec: &ServeSpec,
    seed: u64,
    config: ServiceConfig,
    obs: Obs,
) -> (Dataset, Service, SetupTimes) {
    let t0 = Instant::now();
    let ds = Dataset::generate(seed);
    let t1 = Instant::now();
    let service = Service::start(
        config,
        ds.data.grid.clone(),
        ds.bounds(),
        ds.pois.clone(),
        obs,
    );
    let t2 = Instant::now();
    let warm = (spec.queries)(&ds.data, WINDOW + 16, seed ^ WARM_SALT);
    let tickets: Vec<Ticket> = warm[..WINDOW].iter().map(|q| service.submit(*q)).collect();
    for t in tickets {
        t.wait();
    }
    for q in &warm[WINDOW..] {
        service.submit(*q).wait();
    }
    let t3 = Instant::now();
    let times = SetupTimes {
        generate: (t1 - t0).as_secs_f64(),
        build: (t2 - t1).as_secs_f64(),
        warmup: (t3 - t2).as_secs_f64(),
    };
    (ds, service, times)
}

/// Waits for a ticket until `deadline`; a timeout or a propagated shard
/// panic is a failure, never fatal.
fn wait_until(ticket: Ticket, deadline: Instant) -> Option<(u64, Duration)> {
    let left = deadline.saturating_duration_since(Instant::now());
    match catch_unwind(AssertUnwindSafe(move || ticket.wait_timeout(left))) {
        Ok(Ok((hits, latency))) => Some((answer_digest(&hits), latency)),
        Ok(Err(_)) | Err(_) => None,
    }
}

/// What one load level observed.
#[derive(Default)]
pub struct Level {
    /// Queries in submission order.
    pub queries: Vec<KnntaQuery>,
    /// `(query index, answer digest)` of every answered query.
    pub answers: Vec<(usize, u64)>,
    /// Due-to-answer latency of every answered query, µs.
    pub latency_us: Vec<f64>,
    /// Due-to-submit lateness of the generator, µs.
    pub lateness_us: Vec<f64>,
    /// When each answer was observed (closed loop only).
    pub observed: Vec<Instant>,
    pub failed: u64,
    pub elapsed: Duration,
}

impl Level {
    pub fn latencies(&self) -> Latencies {
        Latencies::new(self.latency_us.clone())
    }

    pub fn lateness(&self) -> Latencies {
        Latencies::new(self.lateness_us.clone())
    }

    /// Appends another block of the same level.
    pub fn absorb(&mut self, other: Level) {
        let base = self.queries.len();
        self.queries.extend(other.queries);
        self.answers
            .extend(other.answers.into_iter().map(|(i, d)| (i + base, d)));
        self.latency_us.extend(other.latency_us);
        self.lateness_us.extend(other.lateness_us);
        self.observed.extend(other.observed);
        self.failed += other.failed;
        self.elapsed += other.elapsed;
    }

    pub fn check(&self, check: &mut AnswerCheck<'_>) {
        for &(i, digest) in &self.answers {
            check.check(&self.queries[i], digest);
        }
    }
}

/// Open loop: query `i` is due at `start + i / rate`; the generator sleeps
/// until the next due instant and submits everything already due. A
/// collector thread resolves tickets in submission order. With `spans`,
/// each query's lateness and service time are recorded as spans.
pub fn open_loop(
    service: &Service,
    queries: Vec<KnntaQuery>,
    rate: f64,
    spans: Option<&mut Spans>,
) -> Level {
    let n = queries.len();
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Ticket)>();
    let start = Instant::now() + Duration::from_millis(1);
    let mut lateness_us = Vec::with_capacity(n);
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut answers = Vec::with_capacity(n);
            let mut latency_us = Vec::with_capacity(n);
            let mut times = Vec::with_capacity(n);
            let mut failed = 0u64;
            for (i, due, sent, ticket) in rx {
                match wait_until(ticket, due + TIMEOUT) {
                    Some((digest, service_time)) => {
                        let total = sent.saturating_duration_since(due) + service_time;
                        latency_us.push(us(total));
                        answers.push((i, digest));
                        times.push((i, due, sent, sent + service_time));
                    }
                    None => failed += 1,
                }
            }
            (answers, latency_us, times, failed)
        });
        for (i, q) in queries.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            lateness_us.push(us(sent.saturating_duration_since(due)));
            let ticket = service.submit(*q);
            if tx.send((i, due, sent, ticket)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let (answers, latency_us, times, failed) = collected;
    if let Some(spans) = spans {
        for (i, due, sent, done) in times {
            let root = spans.record("query", i as u64, None, due, done);
            spans.record("client.lateness", i as u64, root, due, sent);
            spans.record("service", i as u64, root, sent, done);
        }
    }
    Level {
        queries,
        answers,
        latency_us,
        lateness_us,
        observed: Vec::new(),
        failed,
        elapsed: start.elapsed(),
    }
}

/// Closed loop from one thread with [`WINDOW`] tickets outstanding, for
/// `seconds`; then drains. Returns the level (latencies unused).
pub fn closed_loop(service: &Service, stream: &[KnntaQuery], seconds: f64) -> Level {
    let mut queries = Vec::new();
    let mut answers = Vec::new();
    let mut observed = Vec::new();
    let mut failed = 0u64;
    let mut outstanding: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let submit = |queries: &mut Vec<KnntaQuery>, out: &mut VecDeque<(usize, Instant, Ticket)>| {
        let q = stream[queries.len() % stream.len()];
        queries.push(q);
        out.push_back((queries.len() - 1, Instant::now(), service.submit(q)));
    };
    for _ in 0..WINDOW {
        submit(&mut queries, &mut outstanding);
    }
    while let Some((i, sent, ticket)) = outstanding.pop_front() {
        match wait_until(ticket, sent + TIMEOUT) {
            Some((digest, _)) => {
                answers.push((i, digest));
                observed.push(Instant::now());
            }
            None => failed += 1,
        }
        if Instant::now() < stop {
            submit(&mut queries, &mut outstanding);
        }
    }
    Level {
        queries,
        answers,
        latency_us: Vec::new(),
        lateness_us: Vec::new(),
        observed,
        failed,
        elapsed: start.elapsed(),
    }
}

/// Closed-loop throughput samples of one block: answers observed per
/// second in each of up to 10 equal windows of the loop holding at least
/// [`PER_WINDOW`] answers each (the drain after the loop stops is
/// excluded), or the block's answers over its whole time when fewer than
/// three such windows fit.
fn window_rates(level: &Level, seconds: f64) -> Vec<f64> {
    let windows = (level.answers.len() / PER_WINDOW).min(10);
    let Some(&first) = level.observed.first() else {
        return vec![0.0];
    };
    if windows < 3 {
        return vec![level.answers.len() as f64 / level.elapsed.as_secs_f64()];
    }
    let width = seconds / windows as f64;
    let mut counts = vec![0u64; windows];
    for t in &level.observed {
        let w = (t.saturating_duration_since(first).as_secs_f64() / width) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Fewest answers a closed-loop rate window is sized for.
const PER_WINDOW: usize = 500;

fn stream(spec: &ServeSpec, ds: &Dataset, rate: f64, seconds: f64, seed: u64) -> Vec<KnntaQuery> {
    let n = ((rate * seconds).round() as usize).max(1);
    (spec.queries)(&ds.data, n, seed)
}

fn print_level(label: &str, level: &Level) {
    println!(
        "{label}: {} answered, {} failed in {:.2} s; latency from due {}; generator lateness {}",
        level.answers.len(),
        level.failed,
        level.elapsed.as_secs_f64(),
        level.latencies().describe(),
        level.lateness().describe()
    );
}

/// The timed (untraced) run: end-to-end metrics only.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (ds, service, times) = setup(spec, seed, service_config(), Obs::disabled());
        setups.push(times.total());
        kept = Some((ds, service));
    }
    let (ds, mut service) = kept.expect("at least one set-up");
    // Memory of the serving state once set up. Under load the peak also
    // holds queued tickets and allocator slack that track host stalls, so
    // it is printed but not reported.
    let rss_mb = peak_rss_mb();

    // The levels take turns in CYCLES blocks each, so a burst of host noise
    // lands on every level alike instead of on one.
    let [nominal_s, peak_s, closed_s] = spec.shares.map(|share| seconds * share / CYCLES as f64);
    let closed_stream = (spec.queries)(&ds.data, 4096, seed ^ CLOSED_SALT);
    let (mut nominal, mut peak, mut closed) =
        (Level::default(), Level::default(), Level::default());
    let mut rates = Vec::new();
    for c in 0..CYCLES as u64 {
        let salt = c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        nominal.absorb(open_loop(
            &service,
            stream(
                spec,
                &ds,
                spec.nominal_qps,
                nominal_s,
                seed ^ NOMINAL_SALT ^ salt,
            ),
            spec.nominal_qps,
            None,
        ));
        peak.absorb(open_loop(
            &service,
            stream(spec, &ds, spec.peak_qps, peak_s, seed ^ PEAK_SALT ^ salt),
            spec.peak_qps,
            None,
        ));
        let block = closed_loop(&service, &closed_stream, closed_s);
        rates.extend(window_rates(&block, closed_s));
        closed.absorb(block);
    }
    let rss_loaded = peak_rss_mb();
    service.shutdown();

    print_level(&format!("nominal {} qps", spec.nominal_qps), &nominal);
    print_level(&format!("peak {} qps", spec.peak_qps), &peak);
    let qps_sat = median(&rates);
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "closed loop ({WINDOW} outstanding): {} answered, {} failed in {:.2} s; rate over {} windows p10 {:.0}, p50 {qps_sat:.0}, p90 {:.0} qps",
        closed.answers.len(),
        closed.failed,
        closed.elapsed.as_secs_f64(),
        rates.len(),
        pct(&sorted, 10.0),
        pct(&sorted, 90.0),
    );
    println!("peak RSS: {rss_mb:.1} MiB after set-up, {rss_loaded:.1} MiB after the timed levels");

    let reference = ds.reference_index();
    let mut check = AnswerCheck::new(&reference);
    for level in [&nominal, &peak, &closed] {
        level.check(&mut check);
    }

    let (n, p) = (nominal.latencies(), peak.latencies());
    let (n_tail, n_p, n_slices) = sliced_tail(&nominal.latency_us);
    let (p_tail, p_p, p_slices) = sliced_tail(&peak.latency_us);
    println!("tail_us: median over {n_slices} slices of p{n_p}; tail_us.peak: median over {p_slices} slices of p{p_p}");
    let mut out = Outcome {
        mismatches: check.mismatches,
        attempted: [&nominal, &peak, &closed]
            .iter()
            .map(|l| l.queries.len() as u64)
            .sum(),
        failed: nominal.failed + peak.failed + closed.failed,
        ..Outcome::default()
    };
    out.push("setup_s", median(&setups), "s", "");
    out.push("p50_us", n.p50(), "us", "");
    out.push("tail_us", n_tail, "us", "reported, not gated");
    out.push("p50_us.peak", p.p50(), "us", "");
    out.push("tail_us.peak", p_tail, "us", "reported, not gated");
    out.push(
        "throughput",
        qps_sat,
        "1/s",
        "qps_sat: closed loop, 64 outstanding (reported, not gated)",
    );
    out.push("rss_mb", rss_mb, "MiB", "");
    out
}

/// Blocks per level in a timed run.
const CYCLES: usize = 4;

/// The traced run: per-layer metrics, the tracing overhead and the layer
/// ledger along the blocking path.
pub fn run_traced(spec: &ServeSpec, seed: u64, seconds: f64, spans: &mut Spans) -> Outcome {
    let (ds, mut service, times) = setup(spec, seed, service_config(), Obs::disabled());
    let plain = open_loop(
        &service,
        stream(
            spec,
            &ds,
            spec.nominal_qps,
            seconds * 0.15,
            seed ^ NOMINAL_SALT,
        ),
        spec.nominal_qps,
        None,
    );
    let peak = open_loop(
        &service,
        stream(spec, &ds, spec.peak_qps, seconds * 0.1, seed ^ PEAK_SALT),
        spec.peak_qps,
        None,
    );
    let closed_stream = (spec.queries)(&ds.data, 4096, seed ^ CLOSED_SALT);
    let closed = closed_loop(&service, &closed_stream, seconds * 0.1);
    let qps_sat = median(&window_rates(&closed, seconds * 0.1));
    service.shutdown();
    drop(service);

    // The traced level: the benchmark's own spans, and a telemetry window
    // that never rotates, so its histograms cover the whole level. The
    // service's opt-in Obs tracing stays off: it records every query and
    // would measure the tracer, not the service.
    let mut config = service_config();
    config.telemetry.advance_every_flushes = u64::MAX;
    let (_, mut traced_service, _) = setup(spec, seed, config, Obs::disabled());
    let before = traced_service.telemetry().snapshot();
    let traced = open_loop(
        &traced_service,
        stream(
            spec,
            &ds,
            spec.nominal_qps,
            seconds * 0.25,
            seed ^ NOMINAL_SALT,
        ),
        spec.nominal_qps,
        Some(spans),
    );
    let after = traced_service.telemetry().snapshot();
    traced_service.shutdown();
    drop(traced_service);

    print_level("untraced nominal", &plain);
    print_level("untraced peak", &peak);
    print_level("traced nominal", &traced);

    let reference = ds.reference_index();
    let mut check = AnswerCheck::new(&reference);
    for level in [&plain, &peak, &closed, &traced] {
        level.check(&mut check);
    }
    let mut out = Outcome {
        mismatches: check.mismatches,
        attempted: [&plain, &peak, &closed, &traced]
            .iter()
            .map(|l| l.queries.len() as u64)
            .sum(),
        failed: plain.failed + peak.failed + closed.failed + traced.failed,
        ..Outcome::default()
    };
    out.push(
        "service.qps_sat",
        qps_sat,
        "1/s",
        "throughput on the serve workloads",
    );
    drop(check);
    let service_stats = layers::service_layer(&before, &after);
    layers::push_client(&mut out, &plain, &peak);
    let tiles = (spec.queries)(&ds.data, 4096, seed ^ CLOSED_SALT);
    let ledger = layers::shard_layers(
        &mut out,
        &ds,
        &tiles,
        &traced.queries,
        service_stats.queries_per_flush,
        seconds * 0.25,
        spans,
    );
    layers::push_service(&mut out, &service_stats);
    layers::search_layers(&mut out, reference, &traced.queries, seconds * 0.15);
    layers::push_live_absent(&mut out);
    layers::push_setup(&mut out, times);
    layers::push_service_ledger(&mut out, &plain, &traced, &service_stats, &ledger);
    out
}
