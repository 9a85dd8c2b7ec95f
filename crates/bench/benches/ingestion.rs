//! Live-ingestion micro-benchmarks: concurrent check-in throughput at 1, 4
//! and 8 write shards, snapshot-query latency while writers are hammering
//! the tier vs after it has quiesced, and the cost of merging two sealed
//! epochs into the base (`merge_sealed`) against building the same index
//! from scratch (`rebuild`).
//!
//! The `checkins/shards8` result backs the throughput gate in
//! `scripts/verify.sh`: one iteration records [`EVENTS_PER_ITER`] check-ins
//! from `shards` writer threads, so a median at or below
//! `EVENTS_PER_ITER × 1000 ns` means the tier sustains at least one million
//! check-ins per second on this node. The `merge_sealed` / `rebuild` pair
//! backs the merge gate there: a merge folds deltas into a copy of the base
//! tree, so it must stay several times cheaper than a rebuild.

use knnta_bench::{load, BenchConfig, BenchData};
use knnta_core::{Grouping, IndexConfig, LiveIndex, LiveOptions, Poi, TarIndex};
use knnta_util::bench::{Group, Harness};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use tempora::{AggregateSeries, CheckIn, Timestamp};

/// Check-ins recorded per timed iteration.
const EVENTS_PER_ITER: usize = 200_000;

fn bench_config() -> BenchConfig {
    BenchConfig {
        scale: 0.01,
        queries: 16,
        ..Default::default()
    }
}

/// A live tier over the dataset's POIs with nothing digested yet.
fn live_of(data: &BenchData, shards: usize) -> LiveIndex {
    let index = TarIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        data.dataset.grid.clone(),
        data.bounds(),
        data.snapshot
            .iter()
            .map(|(id, pos, _)| (Poi { id: *id, pos: *pos }, AggregateSeries::new())),
    );
    LiveIndex::with_options(
        index,
        0,
        LiveOptions {
            shards,
            ..LiveOptions::default()
        },
    )
}

/// Exactly [`EVENTS_PER_ITER`] valued check-ins cycling over the dataset's
/// per-(POI, epoch) totals, timestamps jittered by a fixed-seed LCG.
fn synth_events(data: &BenchData) -> Vec<CheckIn> {
    let grid = &data.dataset.grid;
    let mut events = Vec::with_capacity(EVENTS_PER_ITER);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    'outer: loop {
        for epoch in 0..grid.len() {
            let start = grid.epoch(epoch).start;
            for (id, _, series) in &data.snapshot {
                let v = series.get(epoch as u32);
                if v == 0 {
                    continue;
                }
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let offset = ((x >> 33) as i64) % (7 * Timestamp::DAY);
                events.push(CheckIn::with_value(*id, start + offset, v as u32));
                if events.len() == EVENTS_PER_ITER {
                    break 'outer;
                }
            }
        }
    }
    events
}

/// One valued check-in per non-zero `(POI, epoch)` total of `epoch`.
fn epoch_events(data: &BenchData, epoch: usize) -> Vec<CheckIn> {
    let start = data.dataset.grid.epoch(epoch).start;
    data.snapshot
        .iter()
        .filter_map(|(id, _, series)| {
            let v = series.get(epoch as u32);
            (v > 0).then(|| CheckIn::with_value(*id, start + 60, v as u32))
        })
        .collect()
}

/// `merge_sealed` of two sealed epochs, against `TarIndex::build` over the
/// same POIs. Each merge sample first records and seals the next two epochs
/// of the dataset (untimed); once the open epoch saturates at the end of
/// the grid those arrive as late events and still seal into two batches.
fn merge_vs_rebuild(group: &mut Group<'_>, data: &BenchData) {
    let live = live_of(data, 8);
    let epochs = data.dataset.grid.len();
    let by_epoch: Vec<Vec<CheckIn>> = (0..epochs).map(|e| epoch_events(data, e)).collect();
    let mut next = 0usize;
    group.bench("merge_sealed", |b| {
        b.iter_batched(
            || {
                for _ in 0..2 {
                    for e in &by_epoch[next % epochs] {
                        live.record(e.clone());
                    }
                    live.seal_epoch();
                    next += 1;
                }
            },
            |()| live.merge_sealed(),
        )
    });

    let pois = live.snapshot().index().export_pois();
    let config = IndexConfig::with_grouping(Grouping::TarIntegral);
    group.bench("rebuild", |b| {
        b.iter_batched(
            || pois.clone(),
            |pois| TarIndex::build(config, data.dataset.grid.clone(), data.bounds(), pois),
        )
    });
}

fn ingestion(h: &mut Harness) {
    let config = bench_config();
    let data = load(&lbsn::gs(), &config);
    let events = synth_events(&data);
    let mut group = h.group("ingestion");
    group.sample_size(10);

    // Write-path throughput: `shards` writer threads splitting the batch
    // round-robin. No sealing in the timed path — this is the hot-path cost
    // of `record` alone (roll read-lock + shard mutex + hash upsert).
    for shards in [1usize, 4, 8] {
        let live = live_of(&data, shards);
        group.bench(format!("checkins/shards{shards}"), |b| {
            b.counters(vec![("events_per_iter".to_string(), EVENTS_PER_ITER as u64)]);
            b.iter(|| {
                std::thread::scope(|s| {
                    for w in 0..shards {
                        let live = &live;
                        let events = &events;
                        s.spawn(move || {
                            for e in events.iter().skip(w).step_by(shards) {
                                live.record(e.clone());
                            }
                        });
                    }
                });
            })
        });
    }

    // Snapshot-query latency while 4 writers + a sealer churn the tier,
    // vs the same tier quiesced (everything sealed and merged). Queries
    // cycle through a fixed workload; each iteration takes a fresh
    // snapshot, which is the serving pattern.
    let live = live_of(&data, 8);
    let queries = data.queries(config.queries, 10, 0.3, config.seed);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..4 {
            let live = &live;
            let events = &events;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for e in events.iter().skip(w).step_by(4) {
                        live.record(e.clone());
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                }
            });
        }
        {
            let live = &live;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    live.seal_epoch();
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            });
        }
        let mut qi = 0usize;
        group.bench("snapshot_query/during_ingest", |b| {
            b.iter(|| {
                let q = &queries[qi % queries.len()];
                qi += 1;
                black_box(live.snapshot().query(q))
            })
        });
        stop.store(true, Ordering::Relaxed);
    });

    while live.current_epoch() < live.grid().len() {
        live.seal_epoch();
    }
    live.seal_epoch();
    live.merge_sealed();
    let mut qi = 0usize;
    group.bench("snapshot_query/quiesced", |b| {
        b.iter(|| {
            let q = &queries[qi % queries.len()];
            qi += 1;
            black_box(live.snapshot().query(q))
        })
    });
    merge_vs_rebuild(&mut group, &data);
    group.finish();
}

fn main() {
    let mut h = Harness::new("ingestion");
    ingestion(&mut h);
    h.finish().expect("write BENCH_ingestion.json");
}
