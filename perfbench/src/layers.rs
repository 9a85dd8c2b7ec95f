//! Per-layer measurements for the traced run. Every number here is either
//! timed around a call into a layer's public functions from this file, or
//! read from the service's own telemetry and counters (service internals
//! cannot be timed from outside).

use crate::data::Dataset;
use crate::report::{tail_percentile, us, Latencies, Outcome};
use crate::serve::{Level, SetupTimes};
use crate::spans::Spans;
use knnta::core::{
    merge_ranked, partition_pois, BatchOptions, Executor, IndexConfig, KnntaQuery, Obs,
    PackedTarTree, Planner, Poi, QueryHit, StorageBackend, TarIndex,
};
use knnta::obs::live::quantile_from;
use knnta::obs::{LiveWindows, SnapshotDoc};
use knnta::service::telemetry::{W_FAILURES, W_FLUSH_FULL};
use knnta::service::{
    G_IMBALANCE_X1000, W_ADMIT_US, W_ANSWERED, W_E2E_US, W_FLUSHES, W_MERGE_US, W_QUEUE_US,
    W_SCATTER_US,
};
use knnta::AggregateSeries;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SERVE_P50: &str = "p50_us on serve_hotspot and serve_mixed";

/// The service's own segment quantiles and counters over one level.
pub struct ServiceStats {
    /// Per-query means of the service's four segments, which add up to its
    /// end-to-end mean exactly (the window quantiles are bucket bounds and
    /// do not add up).
    pub means: [f64; 4],
    pub e2e_mean: f64,
    pub e2e_p50: f64,
    pub admit_p50: f64,
    pub queue_p50: f64,
    pub queue_tail: f64,
    pub scatter_p50: f64,
    pub merge_p50: f64,
    pub queries_per_flush: f64,
    pub flush_full_frac: f64,
    pub imbalance: f64,
    pub retries: f64,
    pub failures: f64,
}

/// Quantile of the histogram `name` over the interval between two
/// snapshots of a window that did not rotate.
fn window_quantile(before: &SnapshotDoc, after: &SnapshotDoc, name: &str, q: f64) -> (f64, u64) {
    let Some(a) = after.histogram(name) else {
        return (0.0, 0);
    };
    let buckets: Vec<u64> = match before.histogram(name) {
        Some(b) => a
            .buckets
            .iter()
            .zip(&b.buckets)
            .map(|(x, y)| x - y)
            .collect(),
        None => a.buckets.clone(),
    };
    let n = buckets.iter().sum();
    (quantile_from(&a.bounds, &buckets, a.max, q) as f64, n)
}

/// Mean of the histogram `name` over the interval between two snapshots.
fn window_mean(before: &SnapshotDoc, after: &SnapshotDoc, name: &str) -> f64 {
    let Some(a) = after.histogram(name) else {
        return 0.0;
    };
    let (sum, count) = match before.histogram(name) {
        Some(b) => (a.sum - b.sum, a.count - b.count),
        None => (a.sum, a.count),
    };
    sum as f64 / count.max(1) as f64
}

/// Lifetime change of every telemetry counter whose name starts with
/// `prefix` and ends with `suffix`.
fn counter_delta(before: &SnapshotDoc, after: &SnapshotDoc, prefix: &str, suffix: &str) -> f64 {
    let total = |doc: &SnapshotDoc| -> u64 {
        doc.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix) && c.name.ends_with(suffix))
            .map(|c| c.lifetime)
            .sum()
    };
    (total(after) - total(before)) as f64
}

/// The service layer over one level, from two telemetry snapshots taken
/// around it (the window must not rotate in between).
pub fn service_layer(before: &SnapshotDoc, after: &SnapshotDoc) -> ServiceStats {
    let q50 = |name| window_quantile(before, after, name, 0.5).0;
    let (_, n) = window_quantile(before, after, W_QUEUE_US, 0.5);
    let queue_tail_p = tail_percentile(n as usize);
    let delta = |name| counter_delta(before, after, name, "");
    let flushes = delta(W_FLUSHES).max(1.0);
    let mean = |name| window_mean(before, after, name);
    ServiceStats {
        means: [W_ADMIT_US, W_QUEUE_US, W_SCATTER_US, W_MERGE_US].map(mean),
        e2e_mean: mean(W_E2E_US),
        e2e_p50: q50(W_E2E_US),
        admit_p50: q50(W_ADMIT_US),
        queue_p50: q50(W_QUEUE_US),
        queue_tail: window_quantile(before, after, W_QUEUE_US, queue_tail_p / 100.0).0,
        scatter_p50: q50(W_SCATTER_US),
        merge_p50: q50(W_MERGE_US),
        queries_per_flush: delta(W_ANSWERED) / flushes,
        flush_full_frac: delta(W_FLUSH_FULL) / flushes,
        imbalance: after.gauge(G_IMBALANCE_X1000).unwrap_or(0) as f64 / 1000.0,
        retries: counter_delta(before, after, "knnta.service.shard", ".retries"),
        failures: delta(W_FAILURES),
    }
}

pub fn push_service(out: &mut Outcome, s: &ServiceStats) {
    out.push(
        "service.admit_us.p50",
        s.admit_p50,
        "us",
        "p50_us on serve_hotspot",
    );
    out.push(
        "service.queue_us.p50",
        s.queue_p50,
        "us",
        "*.peak and throughput on serve_hotspot",
    );
    out.push(
        "service.queue_us.tail",
        s.queue_tail,
        "us",
        "*.peak and throughput on serve_hotspot",
    );
    out.push("service.scatter_us.p50", s.scatter_p50, "us", SERVE_P50);
    out.push("service.merge_us.p50", s.merge_p50, "us", SERVE_P50);
    out.push(
        "service.queries_per_flush",
        s.queries_per_flush,
        "count",
        "throughput and tail_us.peak",
    );
    out.push(
        "service.flush_full_frac",
        s.flush_full_frac,
        "ratio",
        "throughput and tail_us.peak",
    );
    out.push(
        "service.shard_imbalance",
        s.imbalance,
        "ratio",
        "throughput and tail_us.peak",
    );
    out.push("service.retries", s.retries, "count", "failed/attempted");
    out.push("service.failures", s.failures, "count", "failed/attempted");
}

/// Generator lateness per level, at the level's tail percentile.
pub fn push_client(out: &mut Outcome, nominal: &Level, peak: &Level) {
    out.push(
        "client.lateness_us.nominal",
        nominal.lateness().tail(),
        "us",
        "tail_us (generator, not service)",
    );
    out.push(
        "client.lateness_us.peak",
        peak.lateness().tail(),
        "us",
        "tail_us.peak (generator, not service)",
    );
}

/// Per-flush plan and search times replayed on the shard executors, plus
/// the per-query `merge_ranked` cost.
pub struct Ledger {
    pub plan_mean: f64,
    pub search_mean: f64,
    pub merge_ranked_us: f64,
    pub flush_size: usize,
}

/// One service shard rebuilt as `Service::start` builds it: the shard's
/// POIs under the global grid and bounds, packed.
struct Shard {
    index: TarIndex,
    packed: PackedTarTree,
}

fn build_shards(ds: &Dataset, shards: usize) -> (Vec<Shard>, AggregateSeries) {
    let positions: Vec<Poi> = ds.pois.iter().map(|(p, _)| *p).collect();
    let parts = partition_pois(&positions, &ds.bounds(), shards);
    let root_max = AggregateSeries::max_of(ds.pois.iter().map(|(_, s)| s));
    let shards = parts
        .iter()
        .map(|part| {
            let index = TarIndex::build(
                IndexConfig::default(),
                ds.data.grid.clone(),
                ds.bounds(),
                part.iter().map(|&i| ds.pois[i].clone()),
            );
            let packed = index.pack();
            Shard { index, packed }
        })
        .collect();
    (shards, root_max)
}

fn executor<'a>(
    shard: &'a Shard,
    root_max: &'a AggregateSeries,
    windows: &LiveWindows,
) -> Executor<'a> {
    Executor::new(&shard.index)
        .with_packed(&shard.packed)
        .with_root_max(root_max)
        .with_planner(Planner::default())
        .with_windows(windows)
}

/// `plan`, the shard replay ledger and `merge_ranked`.
pub fn shard_layers(
    out: &mut Outcome,
    ds: &Dataset,
    tiles: &[KnntaQuery],
    traced: &[KnntaQuery],
    queries_per_flush: f64,
    budget_s: f64,
    spans: &mut Spans,
) -> Ledger {
    let (shards, root_max) = build_shards(ds, 2);

    // Planner cost on max_batch-sized arrival-order tiles.
    let windows = LiveWindows::new(8);
    let mut execs: Vec<Executor<'_>> = shards
        .iter()
        .map(|s| executor(s, &root_max, &windows))
        .collect();
    let stop = Instant::now() + Duration::from_secs_f64(budget_s * 0.4);
    let mut plan_us = Vec::new();
    for tile in tiles.chunks(64) {
        for exec in &mut execs {
            let t = Instant::now();
            black_box(exec.plan_batch(tile));
            plan_us.push(us(t.elapsed()));
        }
        if Instant::now() > stop {
            break;
        }
    }
    let plan = Latencies::new(plan_us);
    println!("plan_batch on 64-query tiles: {}", plan.describe());
    out.push(
        "plan.us_per_call.p50",
        plan.p50(),
        "us",
        "p50_us and throughput on serve_mixed (none on serve_hotspot)",
    );
    out.push(
        "plan.us_per_call.tail",
        plan.tail(),
        "us",
        "p50_us and throughput on serve_mixed (none on serve_hotspot)",
    );

    // Replay of the traced level in arrival order, cut into flushes of the
    // observed mean size, on fresh shard executors: each flush plans then
    // executes on every shard (the service runs shards in parallel, so a
    // flush's blocking cost is the slowest shard).
    let flush_size = (queries_per_flush.round() as usize).max(1);
    let windows = LiveWindows::new(8);
    let mut execs: Vec<Executor<'_>> = shards
        .iter()
        .map(|s| executor(s, &root_max, &windows))
        .collect();
    let stop = Instant::now() + Duration::from_secs_f64(budget_s * 0.6);
    let (mut plan_flush, mut search_flush, mut merge_us) = (Vec::new(), Vec::new(), Vec::new());
    for (f, flush) in traced.chunks(flush_size).enumerate() {
        let t0 = Instant::now();
        let mut lists: Vec<Vec<Vec<QueryHit>>> = Vec::with_capacity(execs.len());
        let (mut plan_max, mut search_max) = (0.0f64, 0.0f64);
        let mut children = Vec::new();
        for exec in &mut execs {
            let a = Instant::now();
            black_box(exec.plan_batch(flush));
            let b = Instant::now();
            let result = if flush.len() == 1 {
                vec![exec.query(&flush[0])]
            } else {
                exec.query_batch(flush)
            };
            let c = Instant::now();
            plan_max = plan_max.max(us(b - a));
            search_max = search_max.max(us(c - b));
            children.push(("plan", a, b));
            children.push(("search", b, c));
            lists.push(result);
        }
        let m0 = Instant::now();
        for (i, q) in flush.iter().enumerate() {
            let per_shard: Vec<Vec<QueryHit>> = lists.iter().map(|l| l[i].clone()).collect();
            let t = Instant::now();
            black_box(merge_ranked(&per_shard, q.k));
            merge_us.push(us(t.elapsed()));
        }
        let m1 = Instant::now();
        let root = spans.record("replay.flush", f as u64, None, t0, m1);
        for (name, a, b) in children {
            spans.record(name, f as u64, root, a, b);
        }
        spans.record("merge_ranked", f as u64, root, m0, m1);
        plan_flush.push(plan_max);
        search_flush.push(search_max);
        if Instant::now() > stop {
            break;
        }
    }
    let merge_ranked_us = merge_us.iter().sum::<f64>() / merge_us.len().max(1) as f64;
    out.push(
        "merge_ranked.us_per_query",
        merge_ranked_us,
        "us",
        SERVE_P50,
    );
    let (plan_flush, search_flush) = (Latencies::new(plan_flush), Latencies::new(search_flush));
    println!(
        "shard replay, flushes of {flush_size}: plan {}; search {}",
        plan_flush.describe(),
        search_flush.describe()
    );
    let mean = |l: &Latencies| l.sorted.iter().sum::<f64>() / l.sorted.len().max(1) as f64;
    Ledger {
        plan_mean: mean(&plan_flush),
        search_mean: mean(&search_flush),
        merge_ranked_us,
        flush_size,
    }
}

fn time_each(queries: &[KnntaQuery], mut f: impl FnMut(&KnntaQuery)) -> Vec<f64> {
    queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            f(q);
            us(t.elapsed())
        })
        .collect()
}

/// `search` (single queries on the packed image), `collective` and the agg
/// cache, on the unsharded tree with the workload's own queries.
pub fn search_layers(
    out: &mut Outcome,
    mut index: TarIndex,
    queries: &[KnntaQuery],
    budget_s: f64,
) {
    let packed = index.pack();
    let backend = StorageBackend::Packed(&packed);
    let stop = Instant::now() + Duration::from_secs_f64(budget_s);
    let n = queries.len().min(512);
    let sample = &queries[..n];

    for (name, k) in [
        ("search.us.k1", 1),
        ("search.us.k10", 10),
        ("search.us.k100", 100),
    ] {
        let mut times = Vec::new();
        for chunk in sample.chunks(64) {
            times.extend(time_each(chunk, |q| {
                black_box(index.query_on(&q.with_k(k), backend));
            }));
            if Instant::now() > stop {
                break;
            }
        }
        out.push(
            name,
            Latencies::new(times).p50(),
            "us",
            "p50_us on serve_mixed and live_ingest",
        );
    }

    // Collective tiles against the same queries one at a time.
    let opts = BatchOptions {
        agg_cache: true,
        tile: 64,
        ..BatchOptions::default()
    };
    let (mut single, mut collective, mut count) = (0.0, 0.0, 0usize);
    for tile in sample.chunks(64) {
        single += time_each(tile, |q| {
            black_box(index.query_on(q, backend));
        })
        .iter()
        .sum::<f64>();
        let t = Instant::now();
        black_box(index.query_batch_collective_on(tile, &opts, backend));
        collective += us(t.elapsed());
        count += tile.len();
    }
    let (single, collective) = (single / count as f64, collective / count as f64);
    println!(
        "collective: {collective:.2} us/query on 64-query tiles vs {single:.2} us/query one at a time (base: search.us at the workload's own k)"
    );
    out.push(
        "collective.us_per_query",
        collective,
        "us",
        "throughput on serve_hotspot",
    );
    out.push(
        "collective.vs_search",
        collective / single,
        "ratio",
        "throughput on serve_hotspot",
    );

    // Exact counts, with the index's counters on (untimed).
    let obs = Obs::enabled();
    index.set_obs(obs.clone());
    let before = index.stats().snapshot();
    for q in sample {
        black_box(index.query_on(q, backend));
    }
    let after = index.stats().snapshot();
    let m = obs.metrics_snapshot();
    let per = |v: u64| v as f64 / n as f64;
    let counts = "p50_us on serve_mixed and live_ingest";
    out.push(
        "search.nodes_per_query",
        per(after.node_accesses - before.node_accesses),
        "count",
        counts,
    );
    out.push(
        "search.leaves_per_query",
        per(after.leaf_node_accesses - before.leaf_node_accesses),
        "count",
        counts,
    );
    out.push(
        "search.heap_pops_per_query",
        per(m.counter("knnta.core.search.heap_pops").unwrap_or(0)),
        "count",
        counts,
    );
    out.push(
        "search.epochs_scanned_per_query",
        per(m
            .counter("knnta.tempora.series.epochs_scanned")
            .unwrap_or(0)),
        "count",
        counts,
    );
    for tile in sample.chunks(64) {
        black_box(index.query_batch_collective_on(tile, &opts, backend));
    }
    let m = obs.metrics_snapshot();
    let hits = m.counter("knnta.core.agg_cache.hits").unwrap_or(0) as f64;
    let misses = m.counter("knnta.core.agg_cache.misses").unwrap_or(0) as f64;
    out.push(
        "agg_cache.hit_frac",
        hits / (hits + misses).max(1.0),
        "ratio",
        "throughput on serve_hotspot",
    );
    out.push(
        "index.packed_bytes_per_poi",
        packed.byte_len() as f64 / index.len().max(1) as f64,
        "bytes",
        "setup_s and rss_mb",
    );
}

pub fn push_setup(out: &mut Outcome, times: SetupTimes) {
    out.push("setup.generate_s", times.generate, "s", "setup_s");
    out.push("setup.build_s", times.build, "s", "setup_s and rss_mb");
    out.push("setup.warmup_s", times.warmup, "s", "setup_s");
}

/// Zeros for the layers a service workload does not exercise.
pub fn push_live_absent(out: &mut Outcome) {
    for name in [
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
    ] {
        out.push(name, 0.0, unit_of(name), "not exercised by this workload");
    }
}

/// Zeros for the service layers the live workload does not exercise.
pub fn push_service_absent(out: &mut Outcome) {
    for name in [
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
        "merge_ranked.us_per_query",
    ] {
        out.push(name, 0.0, unit_of(name), "not exercised by this workload");
    }
}

fn unit_of(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_eps") || n.ends_with("qps_sat") => "1/s",
        n if n.ends_with("_ns") => "ns",
        n if n.ends_with("_ms") => "ms",
        n if n.contains("_us") || n.contains(".us") => "us",
        n if n.ends_with("_frac") || n.ends_with("imbalance") => "ratio",
        _ => "count",
    }
}

/// Prints a blocking-path ledger: per-query mean self time of each layer,
/// their sum against the mean end-to-end latency, and pushes the tracing
/// overhead (traced over untraced `p50_us`) and the ledger's gap. Means are
/// used because they add up; medians of parts do not sum to a median.
pub fn push_ledger(
    out: &mut Outcome,
    rows: &[(&str, f64)],
    e2e_mean: f64,
    traced_p50: f64,
    plain_p50: f64,
) {
    let sum: f64 = rows
        .iter()
        .filter(|(name, _)| !name.starts_with("  "))
        .map(|(_, v)| v)
        .sum();
    println!("blocking-path self time, mean per query (us):");
    for (name, v) in rows {
        println!("  {name:<34} {v:>10.1}");
    }
    println!("  {:<34} {sum:>10.1}", "sum");
    println!("  {:<34} {e2e_mean:>10.1}", "end-to-end mean from due");
    println!("  traced p50_us {traced_p50:.1}, untraced p50_us {plain_p50:.1}");
    out.push(
        "trace.overhead",
        traced_p50 / plain_p50.max(f64::MIN_POSITIVE),
        "ratio",
        "traced p50_us / untraced p50_us",
    );
    out.push(
        "trace.layer_gap_frac",
        (e2e_mean - sum) / e2e_mean.max(f64::MIN_POSITIVE),
        "ratio",
        "(mean e2e - sum of layer means) / mean e2e",
    );
}

/// The service's blocking path: generator lateness, then the admit /
/// queue / scatter / merge segments, with scatter split by the shard replay
/// into plan, search and the rest.
pub fn push_service_ledger(
    out: &mut Outcome,
    plain: &Level,
    traced: &Level,
    s: &ServiceStats,
    ledger: &Ledger,
) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let [admit, queue, scatter, merge] = s.means;
    let rows = [
        ("client.lateness", mean(&traced.lateness_us)),
        ("service.admit", admit),
        ("service.queue", queue),
        ("service.scatter", scatter),
        ("  plan (replayed per flush)", ledger.plan_mean),
        ("  search (replayed per flush)", ledger.search_mean),
        ("service.merge", merge),
        ("  merge_ranked (per query)", ledger.merge_ranked_us),
    ];
    println!(
        "service window: e2e mean {:.1} us, p50 {:.0} us (bucket bound); replay flush size {}",
        s.e2e_mean, s.e2e_p50, ledger.flush_size
    );
    push_ledger(
        out,
        &rows,
        mean(&traced.latency_us),
        traced.latencies().p50(),
        plain.latencies().p50(),
    );
}
