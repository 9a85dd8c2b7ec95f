//! Property tests for the concurrent live-ingestion tier ([`LiveIndex`]):
//! late / out-of-order arrivals under concurrent sealing, future-epoch
//! auto-rolls racing `record`, and event-counter conservation
//! (`pending + sealed + dropped == recorded`) under randomized
//! interleavings. Each case is deliberately tiny — the soak lane replays
//! these properties thousands of times.
//!
//! The deep *query-level* equivalence lives in `tests/snapshot_oracle.rs`;
//! here the ground truth is the cumulative per-(epoch, POI) delta map
//! itself, which [`SnapshotView::cumulative_deltas`] must reproduce exactly
//! no matter how writers, sealers and mergers interleave.
//!
//! A merge folds the sealed deltas into a copy of the base tree instead of
//! rebuilding it; `merged_packed_image_equals_a_rebuilds` pins that the
//! packed serving image still comes out word for word as a rebuild's.

use knnta_core::{Grouping, IndexConfig, LiveIndex, LiveOptions, Poi, TarIndex};
use knnta_util::prop::{check, Gen};
use std::collections::{BTreeMap, HashMap};
use tempora::{AggregateSeries, CheckIn, EpochGrid, PoiId, Timestamp};

const EPOCHS: usize = 6;
const POIS: u32 = 8;

fn tiny_index() -> (EpochGrid, TarIndex) {
    let grid = EpochGrid::fixed_days(1, EPOCHS);
    let bounds = rtree::Rect::new([0.0, 0.0], [100.0, 100.0]);
    let pois = (0..POIS).map(|i| {
        (
            Poi::new(i, (i % 4) as f64 * 25.0 + 5.0, (i / 4) as f64 * 40.0 + 10.0),
            AggregateSeries::new(),
        )
    });
    let index = TarIndex::build(
        IndexConfig::with_grouping(Grouping::TarIntegral),
        grid.clone(),
        bounds,
        pois,
    );
    (grid, index)
}

/// One drawn event: an in-grid check-in, or one the tier must drop.
#[derive(Clone, Copy)]
enum Ev {
    /// `(poi, epoch, value)` — value may be 0 (counted, never visible).
    In(u32, usize, u64),
    /// Unknown POI (in-grid timestamp).
    UnknownPoi,
    /// Timestamp past the grid end.
    OutOfGrid,
}

fn draw_events(g: &mut Gen, allow_bad: bool) -> Vec<Ev> {
    g.vec(1, 60, |g| {
        let arm = if allow_bad {
            g.weighted(&[12, 1, 1])
        } else {
            0
        };
        match arm {
            0 => Ev::In(
                g.u32_in(0..POIS),
                g.usize_in(0..EPOCHS),
                g.u64_in(0..5), // includes zero-valued check-ins
            ),
            1 => Ev::UnknownPoi,
            _ => Ev::OutOfGrid,
        }
    })
}

fn checkin_of(grid: &EpochGrid, g: &mut Gen, ev: Ev) -> CheckIn {
    match ev {
        Ev::In(poi, epoch, v) => {
            let t = grid.epoch(epoch).start + g.i64_in(0..Timestamp::DAY);
            CheckIn::with_value(PoiId(poi), t, v as u32)
        }
        Ev::UnknownPoi => CheckIn::with_value(PoiId(0xDEAD_BEEF), grid.epoch(0).start + 1, 3),
        Ev::OutOfGrid => CheckIn::with_value(PoiId(0), grid.tc() + Timestamp::DAY, 3),
    }
}

/// The per-(epoch, POI) totals the tier must end up with: zero-valued and
/// dropped events contribute nothing.
fn ground_truth(events: &[Ev]) -> BTreeMap<(usize, PoiId), u64> {
    let mut truth = BTreeMap::new();
    for ev in events {
        if let Ev::In(poi, epoch, v) = *ev {
            if v > 0 {
                *truth.entry((epoch, PoiId(poi))).or_insert(0) += v;
            }
        }
    }
    truth
}

fn bad_count(events: &[Ev]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, Ev::UnknownPoi | Ev::OutOfGrid))
        .count() as u64
}

/// Streams `checkins` from `writers` round-robin threads while a sealer
/// issues `seals` concurrent seal operations (and optional merges), then
/// quiesces and returns the tier for inspection.
fn run_interleaved(
    live: &LiveIndex,
    checkins: &[CheckIn],
    writers: usize,
    seals: usize,
    merge: bool,
) {
    std::thread::scope(|s| {
        for w in 0..writers {
            s.spawn(move || {
                for c in checkins.iter().skip(w).step_by(writers) {
                    live.record(c.clone());
                }
            });
        }
        s.spawn(move || {
            for i in 0..seals {
                live.seal_epoch();
                if merge && i % 2 == 1 {
                    live.merge_sealed();
                }
                std::thread::yield_now();
            }
        });
    });
    // Quiesce: seal every remaining epoch plus one saturated drain.
    while live.current_epoch() < live.grid().len() {
        live.seal_epoch();
    }
    live.seal_epoch();
}

#[test]
fn late_and_out_of_order_events_survive_concurrent_sealing() {
    // Events arrive in arbitrary epoch order while a sealer races them, so
    // many land as late arrivals for already-sealed epochs (including at
    // grid saturation). Every accepted event must still be attributed to
    // its own epoch: the final cumulative delta map equals the ground
    // truth computed from the event list alone.
    check("live_late_events_concurrent_sealing", 64, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::with_options(
            index,
            0,
            LiveOptions {
                shards: 1 << g.u32_in(0..3),
                ..LiveOptions::default()
            },
        );
        let events = draw_events(g, true);
        let checkins: Vec<CheckIn> = events.iter().map(|&e| checkin_of(&grid, g, e)).collect();
        let writers = g.usize_in(1..4);
        let seals = g.usize_in(0..2 * EPOCHS);
        let merge = g.bool();
        run_interleaved(&live, &checkins, writers, seals, merge);

        let got: BTreeMap<(usize, PoiId), u64> = live
            .snapshot()
            .cumulative_deltas()
            .into_iter()
            .map(|(epoch, poi, v)| ((epoch, poi), v))
            .collect();
        assert_eq!(got, ground_truth(&events), "attribution is interleaving-independent");
        assert_eq!(live.dropped(), bad_count(&events));
    });
}

#[test]
fn future_epoch_arrivals_race_the_roll() {
    // One writer streams epochs ascending, another descending: the
    // ascending stream keeps triggering the automatic roll-forward while
    // the descending one turns into late arrivals mid-roll. The open epoch
    // must end at least at the maximum epoch observed, and attribution
    // must again match the ground truth exactly.
    check("live_future_epoch_roll_race", 64, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::new(index, 0);
        let events: Vec<Ev> = g.vec(2, 40, |g| {
            Ev::In(g.u32_in(0..POIS), g.usize_in(0..EPOCHS), g.u64_in(1..4))
        });
        let mut ascending: Vec<CheckIn> = events.iter().map(|&e| checkin_of(&grid, g, e)).collect();
        ascending.sort_by_key(|c| c.time);
        let descending: Vec<CheckIn> = ascending.iter().rev().cloned().collect();
        let max_epoch = events
            .iter()
            .map(|e| match e {
                Ev::In(_, epoch, _) => *epoch,
                _ => 0,
            })
            .max()
            .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for c in &ascending {
                    live.record(c.clone());
                }
            });
            s.spawn(|| {
                for c in &descending {
                    live.record(c.clone());
                }
            });
        });
        assert!(
            live.current_epoch() >= max_epoch,
            "auto-roll reached epoch {} of {max_epoch}",
            live.current_epoch()
        );
        while live.current_epoch() < grid.len() {
            live.seal_epoch();
        }
        live.seal_epoch();
        let mut truth = ground_truth(&events);
        // Both streams carry every event once, so totals double.
        truth.values_mut().for_each(|v| *v *= 2);
        let got: BTreeMap<(usize, PoiId), u64> = live
            .snapshot()
            .cumulative_deltas()
            .into_iter()
            .map(|(epoch, poi, v)| ((epoch, poi), v))
            .collect();
        assert_eq!(got, truth, "rolls never misattribute epochs");
    });
}

#[test]
fn event_counters_conserve_under_any_interleaving() {
    // `pending + sealed + dropped == recorded` must hold whenever the
    // writers are at rest — regardless of how many seals (including zero)
    // and merges ran concurrently — and quiescing must empty `pending`
    // without losing a single event.
    check("live_counter_conservation", 64, |g| {
        let (grid, index) = tiny_index();
        let live = LiveIndex::with_options(
            index,
            0,
            LiveOptions {
                shards: 1 << g.u32_in(0..4),
                ..LiveOptions::default()
            },
        );
        let events = draw_events(g, true);
        let checkins: Vec<CheckIn> = events.iter().map(|&e| checkin_of(&grid, g, e)).collect();
        let writers = g.usize_in(1..5);
        let seals = g.usize_in(0..EPOCHS);
        {
            let live = &live;
            std::thread::scope(|s| {
                for w in 0..writers {
                    let checkins = &checkins;
                    s.spawn(move || {
                        for c in checkins.iter().skip(w).step_by(writers) {
                            live.record(c.clone());
                        }
                    });
                }
                s.spawn(move || {
                    for _ in 0..seals {
                        live.seal_epoch();
                        std::thread::yield_now();
                    }
                });
            });
        }
        assert_eq!(live.recorded(), checkins.len() as u64);
        assert_eq!(live.dropped(), bad_count(&events));
        assert_eq!(
            live.pending() + live.sealed_events() + live.dropped(),
            live.recorded(),
            "conservation at writer rest"
        );
        while live.current_epoch() < grid.len() {
            live.seal_epoch();
        }
        live.seal_epoch();
        assert_eq!(live.pending(), 0, "quiescing drains every shard");
        assert_eq!(
            live.sealed_events() + live.dropped(),
            live.recorded(),
            "no event lost or double-counted"
        );
    });
}

/// `meta1` of the packed header (`docs/FORMAT.md` §1): the source index's
/// content epoch, the one word a fold and a rebuild may disagree on.
const META1_BYTES: std::ops::Range<usize> = 15 * 8..16 * 8;

#[test]
fn merged_packed_image_equals_a_rebuilds() {
    // A merge folds two sealed epochs into a copy of the base's arena. Its
    // `max λ̂` and leaf `z` are recomputed as `build` would, and the image
    // orders leaves by Hilbert key, not arena position: so `pack()` of the
    // merged base must equal `pack()` of `TarIndex::build` over the merged
    // series word for word, except the content-epoch word — for every
    // grouping, with trees deep enough to have internal levels.
    check("live_merge_image_equals_rebuild", 12, |g| {
        let epochs = 6;
        let grid = EpochGrid::fixed_days(1, epochs);
        let bounds = rtree::Rect::new([0.0, 0.0], [100.0, 100.0]);
        let n = g.u32_in(60..400);
        let pois: Vec<(Poi, AggregateSeries)> = (0..n)
            .map(|i| {
                let series = AggregateSeries::from_pairs(
                    (0..2u32).filter_map(|e| g.bool().then(|| (e, g.u64_in(1..20)))),
                );
                (Poi::new(i, g.f64_in(0.0..100.0), g.f64_in(0.0..100.0)), series)
            })
            .collect();
        let mut events: Vec<(u32, usize, u32)> = g.vec(1, 300, |g| {
            (g.u32_in(0..n), g.usize_in(2..4), g.u32_in(1..40))
        });
        // In epoch order: the first epoch-3 event rolls epoch 2 sealed.
        events.sort_by_key(|&(_, epoch, _)| epoch);
        for grouping in [Grouping::TarIntegral, Grouping::IndSpa, Grouping::IndAgg] {
            let config = IndexConfig::with_grouping(grouping);
            let index = TarIndex::build(config, grid.clone(), bounds, pois.clone());
            let live = LiveIndex::with_options(
                index,
                2,
                LiveOptions {
                    serve_packed: true,
                    ..LiveOptions::default()
                },
            );
            for &(poi, epoch, v) in &events {
                let t = grid.epoch(epoch).start + 60;
                live.record(CheckIn::with_value(PoiId(poi), t, v));
            }
            while live.current_epoch() < 4 {
                live.seal_epoch();
            }
            assert!(live.merge_sealed() > 0, "sealed epochs fold");
            live.validate();

            let mut merged: HashMap<PoiId, AggregateSeries> =
                pois.iter().map(|(p, s)| (p.id, s.clone())).collect();
            for (epoch, poi, v) in live.snapshot().cumulative_deltas() {
                merged.get_mut(&poi).unwrap().add(epoch as u32, v);
            }
            let rebuilt = TarIndex::build(
                config,
                grid.clone(),
                bounds,
                pois.iter().map(|(p, _)| (*p, merged[&p.id].clone())),
            );
            let mut got = live.snapshot().index().pack().to_bytes();
            let mut want = rebuilt.pack().to_bytes();
            assert_eq!(got.len(), want.len(), "{grouping}: image sizes differ");
            got[META1_BYTES].fill(0);
            want[META1_BYTES].fill(0);
            if let Some(at) = got.iter().zip(&want).position(|(a, b)| a != b) {
                panic!("{grouping}: images differ at byte {at} (word {})", at / 8);
            }
        }
    });
}
