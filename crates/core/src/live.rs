//! Concurrent live check-in ingestion with epoch-snapshot reads.
//!
//! Section 4.2: "When an epoch ends, we compute the aggregate of each POI by
//! the check-ins (in this epoch), and then insert the non-zero aggregates in
//! a batch fashion." [`LiveIndex`] turns that loop into a concurrent tier:
//!
//! * **Sharded write path** — [`LiveIndex::record`] hashes each event's POI
//!   onto one of `shards` lock-striped accumulators, so independent writer
//!   threads almost never contend. Per event the hot path is one uncontended
//!   reader-writer acquisition (the epoch roll), one shard mutex and one
//!   hash-map upsert.
//! * **Epoch-snapshot read path** — [`LiveIndex::snapshot`] hands out an
//!   immutable [`SnapshotView`]: the current base TAR-tree plus a frozen
//!   *delta overlay* of sealed-but-unmerged epochs, tagged with an
//!   [`EpochWatermark`]. Snapshot queries never block writers (the snapshot
//!   is two `Arc` clones under a briefly-held read lock) and writers never
//!   block snapshot readers. Every query a snapshot answers is bit-identical
//!   to the same query on an index that had the snapshot's deltas digested
//!   via [`TarIndex::ingest_epoch`] — `tests/snapshot_oracle.rs` is the
//!   differential proof.
//! * **Background merge** — [`LiveIndex::merge_sealed`] folds sealed deltas
//!   into a *copy* of the base tree's node arena off the hot path: the
//!   leaf TIAs take the deltas and every internal box and TIA is refreshed
//!   in one bottom-up pass, as the paper's epoch-end update does; the tree
//!   is never rebuilt. The copy keeps the base's shape, but recomputes
//!   `max λ̂` and every leaf's `z` as a build would, so the packed serving
//!   image equals a rebuild's word for word (bar its content-epoch word).
//!   The paged / packed images are re-materialised when [`LiveOptions`]
//!   asks for them. In-flight snapshots keep their old `Arc`s; answers
//!   before and after a merge are bit-identical because the ranking's
//!   `(score, PoiId)` total order makes results independent of tree shape.
//!   The trade-off: in-memory snapshot queries
//!   ([`SnapshotBackend::InMemory`]) run on the base's build-time grouping,
//!   which fits the ingested aggregates less well as they drift, so they
//!   open more nodes than on a fresh build; packed queries are unaffected.
//! * **Publishing and reclamation** — seals and merges build the next
//!   overlay or base from `Arc` clones taken under the read lock, take the
//!   write lock only to swap pointers, and recompute against the newer
//!   state if the other side published in between. Replaced states are
//!   parked on a retired list and freed by a later seal or merge once no
//!   snapshot holds them, so a reader never pays for freeing a tree.
//!
//! Sealing an epoch ([`LiveIndex::seal_epoch`] or the automatic roll when an
//! event from a future epoch arrives) drains every shard into a
//! `DeltaOverlay`; *late* events for already-sealed epochs are attributed
//! to their own epoch and become visible at the next seal — including at the
//! end of the grid, where the open epoch saturates at `grid.len()` and seals
//! keep draining without advancing (and without misattributing anything to
//! the final epoch).
//!
//! The exactness argument for overlay reads lives with the data: leaf
//! aggregates are `base + delta` (exact in `u64`); internal entries use
//! `base + Σdelta`, an admissible upper bound that never changes answers;
//! and the `gmax` normaliser comes from the snapshot's overlay-adjusted root
//! maximum, which equals the merged index's root maximum epoch by epoch
//! because per-POI cumulative deltas are monotone. See `DESIGN.md` §13.

use crate::collective::BatchOptions;
use crate::index::TarIndex;
use crate::observe;
use crate::poi::{KnntaQuery, QueryHit};
use knnta_obs::Obs;
use knnta_util::sync::{Mutex, RwLock};
use pagestore::BufferPoolConfig;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tempora::{AggregateSeries, CheckIn, EpochGrid, EpochWatermark, PoiId, TimeInterval};

/// Configuration of a [`LiveIndex`]'s ingestion and serving tiers.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Number of lock-striped write shards (floored at 1). More shards mean
    /// less writer contention; 8 sustains >1M check-ins/sec on one node.
    pub shards: usize,
    /// When set, every base state additionally materialises a paged node
    /// snapshot (`(page_size, pool_config)`) so snapshots can serve
    /// [`SnapshotBackend::Paged`] queries.
    pub serve_paged: Option<(usize, BufferPoolConfig)>,
    /// When `true`, every base state additionally packs an immutable serving
    /// image so snapshots can serve [`SnapshotBackend::Packed`] queries.
    pub serve_packed: bool,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            shards: 8,
            serve_paged: None,
            serve_packed: false,
        }
    }
}

/// One lock stripe of the write path: per-POI aggregates of the open epoch,
/// late aggregates keyed by their own (sealed) epoch, and the event count
/// backing [`LiveIndex::pending`].
#[derive(Default)]
struct ShardBuf {
    open: HashMap<PoiId, u64>,
    late: HashMap<(usize, PoiId), u64>,
    events: u64,
}

/// The epoch roll. `record` holds the read side while classifying an event
/// against `open_epoch` *and* inserting it into a shard, so a concurrent
/// seal (which takes the write side) can never observe a half-classified
/// event.
struct Roll {
    /// The open (not yet sealed) epoch; saturates at `grid.len()`.
    open_epoch: usize,
}

/// The deltas drained by one seal, keyed by `(epoch, poi)`. Retained until
/// a merge folds them into the base tree.
struct SealBatch {
    deltas: HashMap<(usize, PoiId), u64>,
}

/// A frozen overlay of every sealed-but-unmerged delta, shared immutably by
/// snapshots.
struct DeltaOverlay {
    /// Cumulative per-POI delta series (exact leaf adjustments).
    per_poi: HashMap<PoiId, AggregateSeries>,
    /// Per-epoch sum of all deltas — the admissible upper-bound adjustment
    /// applied to internal entries.
    total: AggregateSeries,
    /// Per epoch, the max of the base's root maximum and of
    /// `base[poi] + delta[poi]` over the delta'd POIs — bit-equal to the
    /// merged index's root maximum series, so a snapshot's `gmax` matches
    /// a replay.
    root_max: AggregateSeries,
    /// Seal counter + open epoch at freeze time.
    watermark: EpochWatermark,
}

impl DeltaOverlay {
    /// The overlay of the cumulative deltas `per_poi` over `base`: a pure
    /// function of the two, so its bounds never depend on seal history.
    fn over(
        base: &BaseState,
        per_poi: HashMap<PoiId, AggregateSeries>,
        watermark: EpochWatermark,
    ) -> Self {
        let mut total = AggregateSeries::new();
        let mut root_max = base.root_max.clone();
        for (poi, delta) in &per_poi {
            let series = base.series.get(poi);
            for (epoch, v) in delta.iter() {
                total.add(epoch, v);
                root_max.raise_to(epoch, series.map_or(0, |s| s.get(epoch)) + v);
            }
        }
        DeltaOverlay {
            per_poi,
            total,
            root_max,
            watermark,
        }
    }
}

/// Adds sealed batches into cumulative per-POI delta series. HashMap
/// iteration order is irrelevant: every fold is a commutative sum over
/// distinct `(epoch, poi)` keys.
fn add_batches<'a>(
    per_poi: &mut HashMap<PoiId, AggregateSeries>,
    batches: impl IntoIterator<Item = &'a SealBatch>,
) {
    for batch in batches {
        for (&(e, poi), &v) in &batch.deltas {
            per_poi
                .entry(poi)
                .or_insert_with(AggregateSeries::new)
                .add(e as u32, v);
        }
    }
}

/// An immutable base the snapshots read: the TAR-tree plus everything the
/// overlay algebra and the differential oracle need to know about it.
struct BaseState {
    index: TarIndex,
    /// Per-POI base series (the tree's leaf TIAs), for the overlay's root
    /// maximum.
    series: HashMap<PoiId, AggregateSeries>,
    /// The base tree's root maximum series, computed once.
    root_max: AggregateSeries,
    /// Cumulative deltas folded into this base by merges since the
    /// [`LiveIndex`] was constructed (for [`SnapshotView::cumulative_deltas`]).
    merged: HashMap<PoiId, AggregateSeries>,
    /// Paged node snapshot, when [`LiveOptions::serve_paged`] asks for one.
    paged: Option<crate::storage::PagedNodes>,
    /// Packed serving image, when [`LiveOptions::serve_packed`] asks for one.
    packed: Option<crate::packed::PackedTarTree>,
}

impl BaseState {
    fn materialise(
        index: TarIndex,
        merged: HashMap<PoiId, AggregateSeries>,
        opts: &LiveOptions,
    ) -> Self {
        let series: HashMap<PoiId, AggregateSeries> = index
            .export_pois()
            .into_iter()
            .map(|(p, s)| (p.id, s))
            .collect();
        let root_max = index.root_max_series();
        let paged = opts
            .serve_paged
            .map(|(page_size, config)| index.materialize_paged_nodes(page_size, config));
        let packed = opts.serve_packed.then(|| index.pack());
        BaseState {
            index,
            series,
            root_max,
            merged,
            paged,
            packed,
        }
    }
}

/// A published `Arc` a later publish replaced, parked until no snapshot
/// holds it (see `LiveIndex::retire`).
enum Retired {
    Base(Arc<BaseState>),
    Overlay(Arc<DeltaOverlay>),
}

impl Retired {
    /// Whether anything besides the retired list still holds the state.
    fn in_use(&self) -> bool {
        match self {
            Retired::Base(a) => Arc::strong_count(a) > 1,
            Retired::Overlay(a) => Arc::strong_count(a) > 1,
        }
    }
}

/// What snapshots see, swapped atomically under one lock so no reader can
/// observe a new base with a stale overlay (or vice versa).
struct Published {
    base: Arc<BaseState>,
    overlay: Arc<DeltaOverlay>,
    /// Sealed batches not yet folded into `base`, oldest first.
    batches: Vec<Arc<SealBatch>>,
}

/// A [`TarIndex`] fed by a concurrent live check-in stream.
///
/// All methods take `&self`; the index is `Sync` and meant to be shared by
/// writer and reader threads (e.g. via `std::thread::scope`). See the
/// module docs for the write / snapshot / merge architecture.
pub struct LiveIndex {
    grid: EpochGrid,
    /// POIs known to the index. Events for unknown POIs are dropped *at
    /// record time* — an unknown-POI overlay entry would inflate the
    /// snapshot's root maximum relative to a merged index (where
    /// `ingest_epoch` silently ignores unknown POIs) and break bit-identity.
    members: HashSet<PoiId>,
    shards: Vec<Mutex<ShardBuf>>,
    roll: RwLock<Roll>,
    state: RwLock<Published>,
    /// Serialises merges (never held while a query or `record` runs).
    merge_lock: Mutex<()>,
    /// Replaced states some snapshot still held when they were replaced;
    /// freed by the first publish after their last snapshot is gone.
    retired: Mutex<Vec<Retired>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
    sealed_events: AtomicU64,
    opts: LiveOptions,
    obs: Obs,
}

impl LiveIndex {
    /// Wraps an index whose epochs `0..first_open_epoch` are already
    /// digested; ingestion starts with `first_open_epoch` open. Uses
    /// [`LiveOptions::default`].
    ///
    /// # Panics
    ///
    /// Panics if `first_open_epoch > grid.len()`.
    pub fn new(index: TarIndex, first_open_epoch: usize) -> Self {
        Self::with_options(index, first_open_epoch, LiveOptions::default())
    }

    /// [`LiveIndex::new`] with explicit [`LiveOptions`].
    ///
    /// # Panics
    ///
    /// Panics if `first_open_epoch > grid.len()`.
    pub fn with_options(index: TarIndex, first_open_epoch: usize, opts: LiveOptions) -> Self {
        assert!(
            first_open_epoch <= index.grid().len(),
            "open epoch outside the grid"
        );
        let grid = index.grid().clone();
        let obs = index.obs().clone();
        let base = BaseState::materialise(index, HashMap::new(), &opts);
        let members = base.series.keys().copied().collect();
        let overlay =
            DeltaOverlay::over(&base, HashMap::new(), EpochWatermark::initial(first_open_epoch));
        let shard_count = opts.shards.max(1);
        LiveIndex {
            grid,
            members,
            shards: (0..shard_count).map(|_| Mutex::new(ShardBuf::default())).collect(),
            roll: RwLock::new(Roll {
                open_epoch: first_open_epoch,
            }),
            state: RwLock::new(Published {
                overlay: Arc::new(overlay),
                base: Arc::new(base),
                batches: Vec::new(),
            }),
            merge_lock: Mutex::new(()),
            retired: Mutex::new(Vec::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sealed_events: AtomicU64::new(0),
            opts,
            obs,
        }
    }

    /// The epoch grid shared by the index and its stream.
    pub fn grid(&self) -> &EpochGrid {
        &self.grid
    }

    /// The open epoch's position (== `grid.len()` once time has run past the
    /// grid).
    pub fn current_epoch(&self) -> usize {
        self.roll.read().open_epoch
    }

    /// Events recorded so far (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events buffered in the shards, not yet drained by a seal.
    ///
    /// At quiescence `pending() + sealed_events() + dropped() == recorded()`.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().events).sum()
    }

    /// Events drained into sealed batches so far.
    pub fn sealed_events(&self) -> u64 {
        self.sealed_events.load(Ordering::Relaxed)
    }

    /// Events dropped because their POI or timestamp was unknown.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn shard_of(&self, poi: PoiId) -> usize {
        let h = (poi.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Records one check-in. Safe to call from any number of threads.
    ///
    /// * In the open epoch: buffered in a shard until the next seal.
    /// * In a *sealed* epoch (late event): buffered against its own epoch,
    ///   visible at the next seal.
    /// * In a *future* epoch: the intervening epochs are sealed first (time
    ///   moved on), then the event is buffered.
    /// * Outside the grid, or for a POI the index does not know: counted as
    ///   dropped.
    pub fn record(&self, checkin: CheckIn) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.obs.counter(observe::M_LIVE_RECORDED).add(1);
        let Some(epoch) = self.grid.epoch_of(checkin.time) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.obs.counter(observe::M_LIVE_DROPPED).add(1);
            return;
        };
        if !self.members.contains(&checkin.poi) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.obs.counter(observe::M_LIVE_DROPPED).add(1);
            return;
        }
        let value = checkin.value as u64;
        loop {
            let roll = self.roll.read();
            let open = roll.open_epoch;
            if epoch.index > open {
                drop(roll);
                self.roll_to(epoch.index);
                continue;
            }
            // Holding the roll read lock across the shard insert keeps the
            // open/late classification consistent with any concurrent seal.
            let mut shard = self.shards[self.shard_of(checkin.poi)].lock();
            if value != 0 {
                if epoch.index == open {
                    *shard.open.entry(checkin.poi).or_insert(0) += value;
                } else {
                    *shard.late.entry((epoch.index, checkin.poi)).or_insert(0) += value;
                }
            }
            shard.events += 1;
            return;
        }
    }

    /// Seals epochs until `target` is the open epoch. Racing rollers are
    /// fine: whoever wins the write lock seals, the rest see the new epoch.
    fn roll_to(&self, target: usize) {
        let mut old = Vec::new();
        {
            let mut roll = self.roll.write();
            while roll.open_epoch < target {
                old.push(self.seal_locked(&mut roll).1);
            }
        }
        self.retire(old);
    }

    /// Seals the open epoch: drains every shard (the open epoch's
    /// aggregates plus all buffered late aggregates, each attributed to its
    /// own epoch) into a frozen delta overlay and advances the open
    /// epoch, saturating at `grid.len()`. Once saturated, further seals
    /// keep draining late events without advancing.
    ///
    /// Returns the number of distinct POIs whose deltas were drained.
    pub fn seal_epoch(&self) -> usize {
        let (changed, old) = {
            let mut roll = self.roll.write();
            self.seal_locked(&mut roll)
        };
        self.retire([old]);
        changed
    }

    /// One seal under the roll's write lock; returns the number of changed
    /// POIs and the overlay the seal replaced, for the caller to retire
    /// once the roll is released.
    fn seal_locked(&self, roll: &mut Roll) -> (usize, Retired) {
        let open = roll.open_epoch;
        let mut deltas: HashMap<(usize, PoiId), u64> = HashMap::new();
        let mut events = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            for (poi, v) in s.open.drain() {
                *deltas.entry((open, poi)).or_insert(0) += v;
            }
            for ((e, poi), v) in s.late.drain() {
                *deltas.entry((e, poi)).or_insert(0) += v;
            }
            events += s.events;
            s.events = 0;
        }
        roll.open_epoch = (open + 1).min(self.grid.len());
        let changed = {
            let mut pois: Vec<PoiId> = deltas.keys().map(|&(_, p)| p).collect();
            pois.sort_unstable();
            pois.dedup();
            pois.len()
        };

        let batch = (!deltas.is_empty()).then(|| Arc::new(SealBatch { deltas }));
        // Build the next overlay from the published state without blocking
        // snapshot readers; publish it only if no merge published in
        // between, else recompute it against the merge's state.
        let old = loop {
            let (base, prev) = {
                let st = self.state.read();
                (Arc::clone(&st.base), Arc::clone(&st.overlay))
            };
            let mut per_poi = prev.per_poi.clone();
            add_batches(&mut per_poi, batch.as_deref());
            let watermark = prev.watermark.sealed(roll.open_epoch);
            let next = Arc::new(DeltaOverlay::over(&base, per_poi, watermark));
            let mut st = self.state.write();
            if Arc::ptr_eq(&st.base, &base) && Arc::ptr_eq(&st.overlay, &prev) {
                st.batches.extend(batch);
                break std::mem::replace(&mut st.overlay, next);
            }
        };

        self.sealed_events.fetch_add(events, Ordering::Relaxed);
        self.obs.counter(observe::M_LIVE_SEALS).add(1);
        self.obs.counter(observe::M_LIVE_SEALED).add(events);
        (changed, Retired::Overlay(old))
    }

    /// Parks the states a publish replaced, then frees every parked state
    /// no snapshot holds any more. Frees happen here, on the sealing or
    /// merging thread: a reader dropping the last snapshot of a replaced
    /// state only leaves it for the next publish to free, so no query pays
    /// for dropping a tree.
    fn retire(&self, old: impl IntoIterator<Item = Retired>) {
        let mut retired = self.retired.lock();
        retired.extend(old);
        retired.retain(Retired::in_use);
    }

    /// Takes an immutable snapshot of everything sealed so far: the base
    /// tree plus the frozen delta overlay, tagged with the watermark at
    /// which it was taken. Two `Arc` clones under a briefly-held read lock —
    /// writers are never blocked by however long the snapshot is queried.
    pub fn snapshot(&self) -> SnapshotView {
        let st = self.state.read();
        let view = SnapshotView {
            base: Arc::clone(&st.base),
            overlay: Arc::clone(&st.overlay),
        };
        drop(st);
        self.obs.counter(observe::M_LIVE_SNAPSHOTS).add(1);
        view
    }

    /// Folds every currently-sealed batch into a new base and publishes it
    /// (re-materialising the paged / packed serving images per
    /// [`LiveOptions`]). No lock readers or writers wait on is held while
    /// the base is built: writers keep streaming and in-flight snapshots
    /// keep their old state.
    ///
    /// The new base is a copy of the old tree's node arena with the
    /// deltas added to its leaf TIAs and every internal box and TIA
    /// refreshed in one bottom-up pass — the paper's epoch-end update
    /// (Section 4.2), not a rebuild. The copy keeps the old tree's shape;
    /// `max λ̂` and every leaf's `z` are recomputed as a build would, so
    /// the packed serving image equals a rebuild's word for word apart
    /// from its content-epoch word. Answers are unaffected either way: the
    /// `(score, PoiId)` total order makes them independent of tree shape.
    ///
    /// Returns the number of sealed batches folded (0 when there was
    /// nothing to merge). Concurrent callers are serialised.
    pub fn merge_sealed(&self) -> usize {
        let _guard = self.merge_lock.lock();
        let (base, batches) = {
            let st = self.state.read();
            (Arc::clone(&st.base), st.batches.clone())
        };
        if batches.is_empty() {
            return 0;
        }
        let folded_n = batches.len();
        let mut folded = HashMap::new();
        add_batches(&mut folded, batches.iter().map(Arc::as_ref));
        let index = base.index.folded(&folded);
        let mut merged = base.merged.clone();
        add_batches(&mut merged, batches.iter().map(Arc::as_ref));
        drop(base);
        let fresh = Arc::new(BaseState::materialise(index, merged, &self.opts));

        // Seals that ran while the base was built appended to `batches`;
        // keep those as the new overlay, recomputed against the new base.
        // Publish only if no seal published in between, else recompute.
        let old = loop {
            let (prev, remaining) = {
                let st = self.state.read();
                (Arc::clone(&st.overlay), st.batches[folded_n..].to_vec())
            };
            let mut per_poi = HashMap::new();
            add_batches(&mut per_poi, remaining.iter().map(Arc::as_ref));
            let next = Arc::new(DeltaOverlay::over(&fresh, per_poi, prev.watermark));
            let mut st = self.state.write();
            if Arc::ptr_eq(&st.overlay, &prev) {
                st.batches.drain(..folded_n);
                let old_base = std::mem::replace(&mut st.base, Arc::clone(&fresh));
                let old_overlay = std::mem::replace(&mut st.overlay, next);
                break [Retired::Base(old_base), Retired::Overlay(old_overlay)];
            }
        };
        self.retire(old);

        self.obs.counter(observe::M_LIVE_MERGES).add(1);
        folded_n
    }

    /// Answers a query over the sealed epochs (shorthand for
    /// `snapshot().query(query)`; the open epoch's shard buffers are not
    /// yet visible, exactly as before the concurrent tier existed).
    pub fn query(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        self.snapshot().query(query)
    }

    /// Checks every structural and TIA-summary invariant of the current
    /// base tree (test helper).
    pub fn validate(&self) {
        let st = self.state.read();
        st.base.index.validate();
    }
}

/// Which serving materialisation a [`SnapshotView`] query runs against.
///
/// Unlike [`crate::StorageBackend`] this is a plain selector: the paged and
/// packed images are owned by the snapshot's base state (built per
/// [`LiveOptions`]), not passed in by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotBackend {
    /// The base tree's in-memory node arena.
    InMemory,
    /// The paged node snapshot ([`LiveOptions::serve_paged`]).
    Paged,
    /// The packed serving image ([`LiveOptions::serve_packed`]).
    Packed,
}

/// An immutable epoch snapshot of a [`LiveIndex`]: a base TAR-tree plus the
/// frozen delta overlay of sealed-but-unmerged epochs.
///
/// Every query entry point answers **bit-identically** to the same query on
/// an index holding the merged state (base + [`SnapshotView::cumulative_deltas`]
/// digested via [`TarIndex::ingest_epoch`]) — at every thread count, on
/// every backend. The view is cheap to clone and keeps its state alive
/// independently of subsequent seals and merges.
#[derive(Clone)]
pub struct SnapshotView {
    base: Arc<BaseState>,
    overlay: Arc<DeltaOverlay>,
}

impl SnapshotView {
    /// The watermark at which this snapshot was taken.
    pub fn watermark(&self) -> EpochWatermark {
        self.overlay.watermark
    }

    /// The epoch grid.
    pub fn grid(&self) -> &EpochGrid {
        self.base.index.grid()
    }

    /// The snapshot's base [`TarIndex`] — sealed-and-**merged** state only;
    /// the frozen overlay's deltas are *not* reflected in its TIAs. Call
    /// [`LiveIndex::merge_sealed`] before snapshotting when base-level
    /// extensions (skyline, persistence, MWA) need the full stream.
    pub fn index(&self) -> &TarIndex {
        &self.base.index
    }

    /// Whether a paged materialisation is available
    /// ([`SnapshotBackend::Paged`]).
    pub fn serves_paged(&self) -> bool {
        self.base.paged.is_some()
    }

    /// Whether a packed materialisation is available
    /// ([`SnapshotBackend::Packed`]).
    pub fn serves_packed(&self) -> bool {
        self.base.packed.is_some()
    }

    /// Every delta this snapshot carries on top of the index the
    /// [`LiveIndex`] was constructed with — merged batches plus the frozen
    /// overlay — as `(epoch, poi, delta)` triples sorted by `(epoch, poi)`.
    ///
    /// Replaying these through [`TarIndex::ingest_epoch`] on a copy of the
    /// construction-time index reproduces this snapshot's answers bit for
    /// bit; the differential oracle in `tests/snapshot_oracle.rs` does
    /// exactly that.
    pub fn cumulative_deltas(&self) -> Vec<(usize, PoiId, u64)> {
        let mut map: HashMap<(usize, PoiId), u64> = HashMap::new();
        for (poi, s) in &self.base.merged {
            for (e, v) in s.iter() {
                *map.entry((e as usize, *poi)).or_insert(0) += v;
            }
        }
        for (poi, s) in &self.overlay.per_poi {
            for (e, v) in s.iter() {
                *map.entry((e as usize, *poi)).or_insert(0) += v;
            }
        }
        let mut out: Vec<(usize, PoiId, u64)> = map
            .into_iter()
            .map(|((e, p), v)| (e, p, v))
            .collect();
        out.sort_unstable_by_key(|&(e, p, _)| (e, p));
        out
    }

    /// The `gmax` normaliser for a query interval, from the
    /// overlay-adjusted root maximum (bit-equal to
    /// [`TarIndex::aggregate_normalizer`] on the merged index).
    pub fn normalizer(&self, iq: TimeInterval) -> f64 {
        (self.overlay.root_max.aggregate_over(self.base.index.grid(), iq) as f64).max(1.0)
    }

    /// The unified executor's environment for this snapshot: the frozen
    /// overlay stacked on every node source, the overlay-adjusted `gmax`
    /// source, and no staleness checks (the snapshot owns its images).
    fn exec_env(&self) -> crate::plan::ExecEnv<'_> {
        crate::plan::ExecEnv {
            index: &self.base.index,
            overlay: Some(crate::plan::OverlayRef {
                per_poi: &self.overlay.per_poi,
                total: &self.overlay.total,
            }),
            root_max: Some(&self.overlay.root_max),
            check_fresh: false,
        }
    }

    /// Resolves a serving-backend selector to the owned materialisation.
    ///
    /// # Panics
    ///
    /// Panics if the requested materialisation was not enabled in
    /// [`LiveOptions`].
    fn storage_backend(&self, backend: SnapshotBackend) -> crate::StorageBackend<'_> {
        match backend {
            SnapshotBackend::InMemory => crate::StorageBackend::InMemory,
            SnapshotBackend::Paged => crate::StorageBackend::Paged(self.paged()),
            SnapshotBackend::Packed => crate::StorageBackend::Packed(self.packed()),
        }
    }

    fn paged(&self) -> &crate::storage::PagedNodes {
        self.base
            .paged
            .as_ref()
            .expect("snapshot serves no paged image; set LiveOptions::serve_paged")
    }

    fn packed(&self) -> &crate::packed::PackedTarTree {
        self.base
            .packed
            .as_ref()
            .expect("snapshot serves no packed image; set LiveOptions::serve_packed")
    }

    /// Answers a kNNTA query against the snapshot (sequential best-first
    /// search over the in-memory base with the overlay applied).
    pub fn query(&self, query: &KnntaQuery) -> Vec<QueryHit> {
        self.query_on(query, SnapshotBackend::InMemory)
    }

    /// [`SnapshotView::query`] against an explicit serving backend.
    ///
    /// # Panics
    ///
    /// Panics if the requested materialisation was not enabled in
    /// [`LiveOptions`].
    pub fn query_on(&self, query: &KnntaQuery, backend: SnapshotBackend) -> Vec<QueryHit> {
        crate::plan::run_query(
            &self.exec_env(),
            self.storage_backend(backend),
            crate::plan::ExecMode::Seq,
            query,
        )
    }

    /// Answers a query with the work-stealing parallel traversal —
    /// bit-identical to [`SnapshotView::query`] for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn query_parallel(&self, query: &KnntaQuery, threads: usize) -> Vec<QueryHit> {
        self.query_parallel_on(query, threads, SnapshotBackend::InMemory)
    }

    /// [`SnapshotView::query_parallel`] against an explicit serving backend.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the requested materialisation was not
    /// enabled in [`LiveOptions`].
    pub fn query_parallel_on(
        &self,
        query: &KnntaQuery,
        threads: usize,
        backend: SnapshotBackend,
    ) -> Vec<QueryHit> {
        assert!(threads > 0, "at least one worker thread");
        crate::plan::run_query(
            &self.exec_env(),
            self.storage_backend(backend),
            crate::plan::ExecMode::Par(threads),
            query,
        )
    }

    /// Processes a query batch collectively against the snapshot with the
    /// default [`BatchOptions`]; each result list is bit-identical to
    /// [`SnapshotView::query`]'s answer for that query.
    pub fn query_batch_collective(&self, queries: &[KnntaQuery]) -> Vec<Vec<QueryHit>> {
        self.query_batch_collective_on(queries, &BatchOptions::default(), SnapshotBackend::InMemory)
    }

    /// [`SnapshotView::query_batch_collective`] with explicit options and
    /// serving backend.
    ///
    /// # Panics
    ///
    /// Panics if the requested materialisation was not enabled in
    /// [`LiveOptions`].
    pub fn query_batch_collective_on(
        &self,
        queries: &[KnntaQuery],
        opts: &BatchOptions,
        backend: SnapshotBackend,
    ) -> Vec<Vec<QueryHit>> {
        crate::plan::run_batch(&self.exec_env(), self.storage_backend(backend), queries, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::tests::paper_example;
    use crate::index::IndexConfig;
    use crate::poi::Poi;
    use tempora::{Timestamp};

    /// An empty-history index over the example POIs.
    fn empty_index() -> (LiveIndex, Vec<(Poi, AggregateSeries)>) {
        let (grid, bounds, pois) = paper_example();
        let empty = pois
            .iter()
            .map(|(p, _)| (*p, AggregateSeries::new()))
            .collect::<Vec<_>>();
        let index = TarIndex::build(IndexConfig::default(), grid, bounds, empty);
        (LiveIndex::new(index, 0), pois)
    }

    /// Streams every check-in implied by the example's Table 1 and checks
    /// the final snapshot answers the paper's example query.
    #[test]
    fn streaming_reproduces_the_example() {
        let (live, pois) = empty_index();
        for (poi, series) in &pois {
            for (epoch, count) in series.iter() {
                for i in 0..count {
                    // Spread events inside the epoch day.
                    let t = Timestamp::from_days(epoch as i64) + (i as i64 % 86_000);
                    live.record(CheckIn::at(poi.id, t));
                }
            }
        }
        // Events arrived interleaved across epochs; the auto-roll sealed
        // epochs 0 and 1, later (now late) events are still buffered.
        assert!(live.pending() > 0);
        live.seal_epoch();
        assert_eq!(live.pending(), 0);
        assert_eq!(
            live.pending() + live.sealed_events() + live.dropped(),
            live.recorded()
        );
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(1)
            .with_alpha0(0.3);
        let hits = live.query(&q);
        assert_eq!(hits[0].poi, PoiId(5), "f wins, as in Section 3.2");
        assert_eq!(hits[0].aggregate, 12);
        live.validate();
    }

    #[test]
    fn late_events_become_visible_at_the_next_seal() {
        let (live, pois) = empty_index();
        // Seal two empty epochs, then send an event for epoch 0.
        live.seal_epoch();
        live.seal_epoch();
        assert_eq!(live.current_epoch(), 2);
        live.record(CheckIn::at(pois[3].0.id, Timestamp::from_hours(5)));
        let q = KnntaQuery::new(pois[3].0.pos, TimeInterval::days(0, 1))
            .with_k(1)
            .with_alpha0(0.3);
        // Buffered, not yet visible.
        assert_eq!(live.pending(), 1);
        assert_eq!(live.query(&q)[0].aggregate, 0);
        // The next seal drains it into its own epoch without advancing past
        // the open epoch's normal roll.
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.query(&q)[0].poi, pois[3].0.id);
        assert_eq!(live.query(&q)[0].aggregate, 1);
    }

    #[test]
    fn out_of_grid_and_unknown_poi_events_dropped() {
        let (live, pois) = empty_index();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::from_days(99)));
        live.record(CheckIn::at(pois[0].0.id, Timestamp(-5)));
        live.record(CheckIn::at(PoiId(9_999), Timestamp::from_hours(1)));
        assert_eq!(live.dropped(), 3);
        assert_eq!(live.pending(), 0);
        assert_eq!(live.recorded(), 3);
    }

    #[test]
    fn future_event_rolls_epochs_forward() {
        let (live, pois) = empty_index();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::ZERO));
        assert_eq!(live.current_epoch(), 0);
        live.record(CheckIn::at(pois[1].0.id, Timestamp::from_days(2)));
        assert_eq!(live.current_epoch(), 2, "epochs 0 and 1 sealed");
        // The epoch-0 event became visible when its epoch sealed.
        let q = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(0, 1))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&q)[0].aggregate, 1);
    }

    #[test]
    fn valued_checkins_sum_and_pending_counts_events() {
        let (live, pois) = empty_index();
        live.record(CheckIn::with_value(pois[2].0.id, Timestamp::from_hours(1), 7));
        live.record(CheckIn::with_value(pois[2].0.id, Timestamp::from_hours(2), 5));
        // `pending` counts events, not value sums.
        assert_eq!(live.pending(), 2);
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.sealed_events(), 2);
        let q = KnntaQuery::new(pois[2].0.pos, TimeInterval::days(0, 1))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&q)[0].aggregate, 12);
    }

    /// Regression for the seal saturation bug: once the open epoch reaches
    /// `grid.len()`, in-grid events must stay accepted, attributed to their
    /// own epoch (never silently digested into the final epoch), and seals
    /// must keep draining without advancing.
    #[test]
    fn saturated_grid_keeps_late_events_in_their_own_epoch() {
        let (live, pois) = empty_index();
        let len = live.grid().len();
        for _ in 0..len {
            live.seal_epoch();
        }
        assert_eq!(live.current_epoch(), len, "open epoch saturated");
        // In-grid event for epoch 1 after saturation: accepted, pending.
        live.record(CheckIn::at(pois[0].0.id, Timestamp::from_days(1)));
        assert_eq!(live.dropped(), 0);
        assert_eq!(live.pending(), 1);
        // Sealing at saturation drains without advancing.
        assert_eq!(live.seal_epoch(), 1);
        assert_eq!(live.current_epoch(), len);
        assert_eq!(live.pending(), 0);
        // Visible in epoch 1 …
        let q1 = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(1, 2))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&q1)[0].aggregate, 1);
        // … and NOT misattributed to the final epoch.
        let qlast = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(len as i64 - 1, len as i64))
            .with_k(1)
            .with_alpha0(0.3);
        assert_eq!(live.query(&qlast)[0].aggregate, 0);
        // Out-of-grid still drops.
        live.record(CheckIn::at(pois[0].0.id, Timestamp::from_days(99)));
        assert_eq!(live.dropped(), 1);
    }

    /// A snapshot is isolated from everything recorded and sealed after it
    /// was taken.
    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let (live, pois) = empty_index();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::ZERO));
        live.seal_epoch();
        let snap = live.snapshot();
        let wm = snap.watermark();
        let q = KnntaQuery::new(pois[0].0.pos, TimeInterval::days(0, 3))
            .with_k(2)
            .with_alpha0(0.3);
        let before: Vec<_> = snap.query(&q);
        // Keep writing and merging under the old snapshot's feet.
        for _ in 0..10 {
            live.record(CheckIn::at(pois[0].0.id, Timestamp::from_hours(30)));
        }
        live.seal_epoch();
        live.merge_sealed();
        let after = snap.query(&q);
        assert_eq!(snap.watermark(), wm);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "snapshot answers changed under later writes"
            );
        }
        // The fresh snapshot sees the new events.
        let fresh = live.snapshot().query(&q);
        assert_eq!(fresh[0].aggregate, 11);
    }

    /// Merging folds the overlay into the base without changing answers.
    #[test]
    fn merge_preserves_answers_bit_for_bit() {
        let (live, pois) = empty_index();
        for (i, (poi, _)) in pois.iter().enumerate() {
            for j in 0..=(i as i64) {
                live.record(CheckIn::at(poi.id, Timestamp::from_days(j % 3)));
            }
        }
        live.seal_epoch();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(3)
            .with_alpha0(0.5);
        let snap = live.snapshot();
        let before = snap.query(&q);
        let deltas_before = snap.cumulative_deltas();
        assert!(live.merge_sealed() > 0, "there were sealed batches");
        assert_eq!(live.merge_sealed(), 0, "nothing left to merge");
        let snap2 = live.snapshot();
        let after = snap2.query(&q);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "merge changed answers"
            );
        }
        // Cumulative deltas are preserved across the merge boundary.
        assert_eq!(deltas_before, snap2.cumulative_deltas());
        live.validate();
    }

    /// Replaced states are freed by the publishing writer: at once when no
    /// snapshot holds them, else at the first publish after the last
    /// snapshot holding them is dropped. A held snapshot keeps answering
    /// bit-identically meanwhile.
    #[test]
    fn retired_state_is_freed_at_the_first_publish_it_is_unreferenced() {
        let (live, pois) = empty_index();
        let parked = |live: &LiveIndex| live.retired.lock().len();
        live.record(CheckIn::at(pois[0].0.id, Timestamp::ZERO));
        live.seal_epoch();
        assert_eq!(parked(&live), 0, "no snapshot held: a seal frees what it replaced");
        live.merge_sealed();
        assert_eq!(parked(&live), 0, "no snapshot held: a merge frees what it replaced");

        live.record(CheckIn::at(pois[1].0.id, Timestamp::from_days(1)));
        live.seal_epoch();
        let snap = live.snapshot();
        let q = KnntaQuery::new(pois[1].0.pos, TimeInterval::days(0, 3))
            .with_k(3)
            .with_alpha0(0.3);
        let before = snap.query(&q);
        live.record(CheckIn::at(pois[1].0.id, Timestamp::from_days(2)));
        live.seal_epoch();
        assert_eq!(parked(&live), 1, "the snapshot's overlay stays parked");
        live.merge_sealed();
        assert_eq!(parked(&live), 2, "the snapshot's base joins it");
        let after = snap.query(&q);
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "a held snapshot's answers changed"
            );
        }

        let base = Arc::downgrade(&snap.base);
        let overlay = Arc::downgrade(&snap.overlay);
        drop(snap);
        assert!(
            base.upgrade().is_some() && overlay.upgrade().is_some(),
            "dropping the snapshot frees nothing on the reader"
        );
        live.seal_epoch();
        assert!(base.upgrade().is_none() && overlay.upgrade().is_none());
        assert_eq!(parked(&live), 0);
    }

    /// Parallel and batch entry points agree with the sequential snapshot
    /// answer at every thread count.
    #[test]
    fn snapshot_entry_points_agree() {
        let (live, pois) = empty_index();
        for (poi, series) in &pois {
            for (epoch, count) in series.iter() {
                live.record(CheckIn::with_value(
                    poi.id,
                    Timestamp::from_days(epoch as i64),
                    count as u32,
                ));
            }
        }
        live.seal_epoch();
        let snap = live.snapshot();
        let q = KnntaQuery::new([4.0, 4.5], TimeInterval::days(0, 3))
            .with_k(4)
            .with_alpha0(0.3);
        let want = snap.query(&q);
        for threads in [1, 2, 4] {
            let got = snap.query_parallel(&q, threads);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(
                    (a.poi, a.score.to_bits(), a.aggregate),
                    (b.poi, b.score.to_bits(), b.aggregate),
                    "parallel snapshot diverged at {threads} threads"
                );
            }
        }
        let batch = snap.query_batch_collective(&[q]);
        for (a, b) in want.iter().zip(&batch[0]) {
            assert_eq!(
                (a.poi, a.score.to_bits(), a.aggregate),
                (b.poi, b.score.to_bits(), b.aggregate),
                "collective snapshot diverged"
            );
        }
    }
}
