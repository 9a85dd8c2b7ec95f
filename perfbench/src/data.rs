//! Seeded inputs: the GS ×0.05 dataset, the query streams, and the answer
//! check against the unsharded in-memory tree.

use knnta::core::{IndexConfig, KnntaQuery, Poi, QueryHit, TarIndex};
use knnta::lbsn::{self, IntervalAnchor, LbsnDataset, Workload};
use knnta::rtree::Rect;
use knnta::service::client::{powerlaw_queries, ClientConfig};
use knnta::util::rng::{Rng, StdRng};
use knnta::AggregateSeries;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Dataset scale: GS ×0.05 is 9,148 POIs over 26 weekly epochs.
pub const SCALE: f64 = 0.05;
/// Epoch length in days (the paper's default).
pub const EPOCH_DAYS: i64 = 7;

/// A generated dataset and the POI list every index is built from.
pub struct Dataset {
    pub data: LbsnDataset,
    pub pois: Vec<(Poi, AggregateSeries)>,
}

impl Dataset {
    pub fn generate(seed: u64) -> Dataset {
        let data = lbsn::gs().generate(SCALE, EPOCH_DAYS, seed);
        let pois = data
            .snapshot(data.grid.len())
            .into_iter()
            .map(|(id, pos, series)| (Poi { id, pos }, series))
            .collect();
        Dataset { data, pois }
    }

    pub fn bounds(&self) -> Rect<2> {
        Rect::new(self.data.bounds.0, self.data.bounds.1)
    }

    /// The unsharded tree every answer is checked against.
    pub fn reference_index(&self) -> TarIndex {
        TarIndex::build(
            IndexConfig::default(),
            self.data.grid.clone(),
            self.bounds(),
            self.pois.iter().cloned(),
        )
    }
}

/// Power-law hot-spot points, power-of-two recent intervals, k=10, α0=0.3.
pub fn hotspot_queries(data: &LbsnDataset, n: usize, seed: u64) -> Vec<KnntaQuery> {
    powerlaw_queries(
        data,
        &ClientConfig {
            queries: n,
            k: 10,
            alpha0: 0.3,
            beta: 2.2,
            seed,
            ..ClientConfig::default()
        },
    )
}

/// The paper's §8 mix: uniform points and random intervals from
/// `lbsn::Workload`; every query draws k from {1, 10, 100} and α0
/// uniformly from [0.1, 0.9].
pub fn mixed_queries(data: &LbsnDataset, n: usize, seed: u64) -> Vec<KnntaQuery> {
    let workload = Workload::generate(data, n, IntervalAnchor::Random, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D49_5845_4421);
    workload
        .queries
        .iter()
        .map(|&(point, interval)| {
            let k = [1, 10, 100][rng.gen_range(0..3usize)];
            let alpha0 = 0.1 + 0.8 * rng.next_f64();
            KnntaQuery::new(point, interval)
                .with_k(k)
                .with_alpha0(alpha0)
        })
        .collect()
}

type QueryKey = (u64, u64, i64, i64, usize, u64);

fn key(q: &KnntaQuery) -> QueryKey {
    (
        q.point[0].to_bits(),
        q.point[1].to_bits(),
        q.interval.start().seconds(),
        q.interval.end().seconds(),
        q.k,
        q.alpha0.to_bits(),
    )
}

/// A 64-bit digest of an answer under the `(score, PoiId)` order: the
/// POIs in rank order with their bit-exact scores and aggregates. Timed
/// runs keep one word per answer instead of the hit lists.
pub fn answer_digest(hits: &[QueryHit]) -> u64 {
    let mut h = DefaultHasher::new();
    hits.len().hash(&mut h);
    for hit in hits {
        (hit.poi.0, hit.score.to_bits(), hit.aggregate).hash(&mut h);
    }
    h.finish()
}

/// Checks answer digests against `TarIndex::query` on the unsharded
/// in-memory tree, computing each distinct query's reference answer once.
pub struct AnswerCheck<'a> {
    reference: &'a TarIndex,
    memo: HashMap<QueryKey, u64>,
    pub checked: u64,
    pub mismatches: u64,
}

impl<'a> AnswerCheck<'a> {
    pub fn new(reference: &'a TarIndex) -> Self {
        AnswerCheck {
            reference,
            memo: HashMap::new(),
            checked: 0,
            mismatches: 0,
        }
    }

    pub fn check(&mut self, query: &KnntaQuery, got: u64) {
        let reference = self.reference;
        let want = *self
            .memo
            .entry(key(query))
            .or_insert_with(|| answer_digest(&reference.query(query)));
        self.checked += 1;
        if got != want {
            if self.mismatches < 5 {
                eprintln!("answer mismatch for {query:?}");
            }
            self.mismatches += 1;
        }
    }
}
