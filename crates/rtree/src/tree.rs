//! The R*-tree with pluggable grouping and node augmentation.

use crate::geom::Rect;
use crate::node::{Arena, Entry, EntryPayload, Node, NodeId};
use crate::params::RTreeParams;
use crate::strategy::{EntryView, GroupingStrategy};
use pagestore::AccessStats;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Per-node augmented values maintained by the tree.
///
/// The TAR-tree's TIAs are an augmentation: every leaf entry carries its
/// POI's aggregate series and every internal entry the per-epoch **max** of
/// its child node's series (Section 4.1). The tree keeps these values
/// consistent through inserts, splits, reinserts and deletes.
pub trait Augmentation<T> {
    /// The augmented value type.
    type Value: Clone;

    /// The value of a leaf (data) entry.
    fn leaf_value(&self, item: &T) -> Self::Value;

    /// The identity for [`Augmentation::merge`].
    fn empty(&self) -> Self::Value;

    /// Folds a child value into an accumulator (per-epoch max for TIAs).
    fn merge(&self, acc: &mut Self::Value, child: &Self::Value);
}

/// The trivial augmentation: no per-node value.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAug;

impl<T> Augmentation<T> for NoAug {
    type Value = ();

    fn leaf_value(&self, _item: &T) {}

    fn empty(&self) {}

    fn merge(&self, _acc: &mut (), _child: &()) {}
}

/// An R\*-tree over `D`-dimensional boxes with data items `T`, per-node
/// augmentation `A` and entry grouping strategy `S`.
///
/// * `D = 2`, [`crate::RStarGrouping`] → the paper's IND-spa baseline;
/// * `D = 3`, [`crate::RStarGrouping`] → the TAR-tree's integral grouping;
/// * `D = 2`, an aggregate-distance strategy → the IND-agg baseline.
///
/// The arena-backed nodes are "in memory" exactly as in the paper's setup,
/// while logical node accesses during queries are counted in the shared
/// [`AccessStats`].
///
/// ```
/// use rtree::{NoAug, RStarGrouping, RStarTree, RTreeParams, Rect};
/// use pagestore::AccessStats;
///
/// let mut tree: RStarTree<2, &str, NoAug, RStarGrouping> = RStarTree::new(
///     RTreeParams::with_max_entries(8),
///     NoAug,
///     RStarGrouping,
///     AccessStats::new(),
/// );
/// tree.insert(Rect::point([1.0, 1.0]), "home");
/// tree.insert(Rect::point([5.0, 5.0]), "office");
/// tree.insert(Rect::point([9.0, 9.0]), "gym");
/// let nearest = tree.nearest(&[4.0, 4.0], 1);
/// assert_eq!(*nearest[0].1, "office");
/// ```
///
/// Cloning copies the node arena; the clone shares the original's
/// [`AccessStats`] until [`RStarTree::set_stats`] gives it its own.
#[derive(Debug, Clone)]
pub struct RStarTree<const D: usize, T, A, S>
where
    A: Augmentation<T>,
    S: GroupingStrategy<D, A::Value>,
{
    arena: Arena<D, T, A::Value>,
    root: NodeId,
    params: RTreeParams,
    stats: AccessStats,
    aug: A,
    strategy: S,
    len: usize,
}

impl<const D: usize, T, A, S> RStarTree<D, T, A, S>
where
    A: Augmentation<T>,
    S: GroupingStrategy<D, A::Value>,
{
    /// An empty tree.
    pub fn new(params: RTreeParams, aug: A, strategy: S, stats: AccessStats) -> Self {
        let mut arena = Arena::new();
        let root = arena.alloc(Node::new(0));
        RStarTree {
            arena,
            root,
            params,
            stats,
            aug,
            strategy,
            len: 0,
        }
    }

    /// Number of data items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (root level; 0 for a leaf root).
    pub fn height(&self) -> u32 {
        self.arena.get(self.root).level
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// The structural parameters.
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// The shared access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Replaces the access statistics queries on this tree count into.
    pub fn set_stats(&mut self, stats: AccessStats) {
        self.stats = stats;
    }

    /// The root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Reads a node *without* counting a node access (maintenance paths).
    pub fn node(&self, id: NodeId) -> &Node<D, T, A::Value> {
        self.arena.get(id)
    }

    /// Reads a node and counts one logical node access (query paths); leaf
    /// accesses are additionally counted separately (the Section 6.3 cost
    /// analysis estimates leaf accesses only).
    pub fn access_node(&self, id: NodeId) -> &Node<D, T, A::Value> {
        self.stats.record_node_access();
        let node = self.arena.get(id);
        if node.is_leaf() {
            self.stats.record_leaf_access();
        }
        node
    }

    /// Inserts `item` with bounding box `rect`.
    pub fn insert(&mut self, rect: Rect<D>, item: T) {
        let aug = self.aug.leaf_value(&item);
        self.insert_with_aug(rect, item, aug);
    }

    /// Inserts `item` with an explicit leaf augmentation value (for
    /// augmentations whose leaf values are external state, like the
    /// TAR-tree's per-POI aggregate series).
    pub fn insert_with_aug(&mut self, rect: Rect<D>, item: T, aug: A::Value) {
        self.len += 1;
        let entry = Entry {
            rect,
            aug,
            payload: EntryPayload::Data(item),
        };
        let mut reinserted = HashSet::new();
        self.insert_entry(entry, 0, &mut reinserted);
    }

    /// Removes one item matching `pred` whose box intersects `search`.
    /// Returns the removed item.
    pub fn remove<F>(&mut self, search: &Rect<D>, pred: F) -> Option<T>
    where
        F: Fn(&T) -> bool,
    {
        let path = self.find_leaf(self.root, search, &pred, &mut Vec::new())?;
        let (leaf_id, entry_idx) = *path.last().expect("non-empty path");
        let entry = self.arena.get_mut(leaf_id).entries.remove(entry_idx);
        let EntryPayload::Data(item) = entry.payload else {
            unreachable!("find_leaf returns data entries")
        };
        self.len -= 1;
        self.condense(&path[..path.len() - 1], leaf_id);
        Some(item)
    }

    /// All items whose boxes intersect `query` (counts node accesses).
    pub fn range_query(&self, query: &Rect<D>) -> Vec<&T> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.access_node(id);
            for e in &node.entries {
                if e.rect.intersects(query) {
                    match &e.payload {
                        EntryPayload::Data(t) => out.push(t),
                        EntryPayload::Child(c) => stack.push(*c),
                    }
                }
            }
        }
        out
    }

    /// The `k` items nearest to `point` by Euclidean distance, closest
    /// first (best-first search; counts node accesses).
    pub fn nearest(&self, point: &[f64; D], k: usize) -> Vec<(f64, &T)> {
        enum Cand<'a, T> {
            Node(NodeId),
            Item(&'a T),
        }
        struct Pq<'a, T> {
            dist2: f64,
            cand: Cand<'a, T>,
        }
        impl<T> PartialEq for Pq<'_, T> {
            fn eq(&self, o: &Self) -> bool {
                self.dist2 == o.dist2
            }
        }
        impl<T> Eq for Pq<'_, T> {}
        impl<T> PartialOrd for Pq<'_, T> {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl<T> Ord for Pq<'_, T> {
            fn cmp(&self, o: &Self) -> Ordering {
                // Reverse for a min-heap.
                o.dist2.partial_cmp(&self.dist2).unwrap_or(Ordering::Equal)
            }
        }
        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let mut heap = BinaryHeap::new();
        heap.push(Pq {
            dist2: 0.0,
            cand: Cand::Node(self.root),
        });
        while let Some(Pq { dist2, cand }) = heap.pop() {
            match cand {
                Cand::Item(t) => {
                    out.push((dist2.sqrt(), t));
                    if out.len() == k {
                        break;
                    }
                }
                Cand::Node(id) => {
                    let node = self.access_node(id);
                    for e in &node.entries {
                        let d2 = e.rect.min_dist2(point);
                        let cand = match &e.payload {
                            EntryPayload::Data(t) => Cand::Item(t),
                            EntryPayload::Child(c) => Cand::Node(*c),
                        };
                        heap.push(Pq { dist2: d2, cand });
                    }
                }
            }
        }
        out
    }

    /// All live node ids, root first (maintenance order, no access
    /// counting).
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for e in &self.arena.get(id).entries {
                if let EntryPayload::Child(c) = e.payload {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Iterates over all `(rect, item)` pairs (maintenance order, no access
    /// counting).
    pub fn items(&self) -> Vec<(&Rect<D>, &T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            for e in &self.arena.get(id).entries {
                match &e.payload {
                    EntryPayload::Data(t) => out.push((&e.rect, t)),
                    EntryPayload::Child(c) => stack.push(*c),
                }
            }
        }
        out
    }

    /// Applies `f` to every data entry whose subtree box passes `filter`;
    /// `f` returns `Some(new_aug)` to replace an entry's augmented value.
    /// Augmentations along changed paths are recomputed bottom-up. Returns
    /// the number of changed leaf entries.
    ///
    /// This is the paper's check-in digestion (Section 4.2): descend only
    /// into entries that contain an updated POI, store the new aggregate at
    /// the leaf, and refresh the per-epoch max on the way back up.
    pub fn update_leaf_augs<Filter, F>(&mut self, filter: &Filter, f: &mut F) -> usize
    where
        Filter: Fn(&Rect<D>) -> bool,
        F: FnMut(&T, &A::Value) -> Option<A::Value>,
    {
        self.update_augs_rec(self.root, filter, f)
    }

    fn update_augs_rec<Filter, F>(&mut self, id: NodeId, filter: &Filter, f: &mut F) -> usize
    where
        Filter: Fn(&Rect<D>) -> bool,
        F: FnMut(&T, &A::Value) -> Option<A::Value>,
    {
        let node = self.arena.get(id);
        let mut changed = 0;
        if node.is_leaf() {
            let node = self.arena.get_mut(id);
            for e in &mut node.entries {
                if !filter(&e.rect) {
                    continue;
                }
                if let EntryPayload::Data(t) = &e.payload {
                    if let Some(new) = f(t, &e.aug) {
                        e.aug = new;
                        changed += 1;
                    }
                }
            }
        } else {
            let children: Vec<(usize, NodeId)> = node
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| filter(&e.rect))
                .filter_map(|(i, e)| e.child_id().map(|c| (i, c)))
                .collect();
            for (i, child) in children {
                let child_changed = self.update_augs_rec(child, filter, f);
                if child_changed > 0 {
                    let new_aug = self.summarize_aug(child);
                    self.arena.get_mut(id).entries[i].aug = new_aug;
                    changed += child_changed;
                }
            }
        }
        changed
    }

    /// Lets `f` rewrite every leaf entry's box and augmented value, then
    /// recomputes every internal entry's box and augmentation bottom-up.
    /// One pass over the whole tree, O(n); the shape (which entries share a
    /// node) is left as it is.
    ///
    /// This is [`RStarTree::update_leaf_augs`] for updates that touch most
    /// leaves at once — e.g. a change of normaliser that moves every
    /// entry's box — where per-path refreshes would revisit internal nodes
    /// many times over.
    pub fn rewrite_leaves<F>(&mut self, mut f: F)
    where
        F: FnMut(&T, &mut Rect<D>, &mut A::Value),
    {
        self.rewrite_rec(self.root, &mut f);
    }

    fn rewrite_rec<F>(&mut self, id: NodeId, f: &mut F)
    where
        F: FnMut(&T, &mut Rect<D>, &mut A::Value),
    {
        if self.arena.get(id).is_leaf() {
            for e in &mut self.arena.get_mut(id).entries {
                if let EntryPayload::Data(t) = &e.payload {
                    f(t, &mut e.rect, &mut e.aug);
                }
            }
            return;
        }
        for i in 0..self.arena.get(id).len() {
            let child = self.arena.get(id).entries[i]
                .child_id()
                .expect("internal nodes hold child entries");
            self.rewrite_rec(child, f);
            let refreshed = self.child_entry(child);
            self.arena.get_mut(id).entries[i] = refreshed;
        }
    }

    /// Checks every structural invariant; panics with a description on the
    /// first violation. Intended for tests.
    pub fn validate(&self)
    where
        A::Value: PartialEq + std::fmt::Debug,
    {
        let mut item_count = 0;
        self.validate_rec(self.root, true, &mut item_count);
        assert_eq!(item_count, self.len, "len() matches stored items");
    }

    fn validate_rec(&self, id: NodeId, is_root: bool, item_count: &mut usize) {
        let node = self.arena.get(id);
        assert!(
            node.len() <= self.params.max_entries,
            "{id} exceeds max entries"
        );
        if !is_root {
            assert!(
                node.len() >= self.params.min_entries,
                "{id} under min entries: {} < {}",
                node.len(),
                self.params.min_entries
            );
        }
        for e in &node.entries {
            match &e.payload {
                EntryPayload::Data(_) => {
                    assert!(node.is_leaf(), "data entry in internal {id}");
                    *item_count += 1;
                }
                EntryPayload::Child(c) => {
                    assert!(!node.is_leaf(), "child entry in leaf {id}");
                    let child = self.arena.get(*c);
                    assert_eq!(child.level + 1, node.level, "level gap at {id}");
                    let rect = child.bounding_rect();
                    assert_eq!(e.rect, rect, "stale rect for child {c} of {id}");
                    self.validate_rec(*c, false, item_count);
                }
            }
        }
    }

    /// Recomputed augmentation summary of a node (merge over its entries).
    fn summarize_aug(&self, id: NodeId) -> A::Value {
        let node = self.arena.get(id);
        let mut acc = self.aug.empty();
        for e in &node.entries {
            self.aug.merge(&mut acc, &e.aug);
        }
        acc
    }

    /// Checks augmentation consistency everywhere (test helper).
    pub fn validate_augs(&self)
    where
        A::Value: PartialEq + std::fmt::Debug,
    {
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            for e in &self.arena.get(id).entries {
                if let EntryPayload::Child(c) = e.payload {
                    let expect = self.summarize_aug(c);
                    assert!(e.aug == expect, "stale aug for child {c} of {id}");
                    stack.push(c);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk-load support (see bulk.rs)
    // ------------------------------------------------------------------

    pub(crate) fn alloc_node(&mut self, node: Node<D, T, A::Value>) -> NodeId {
        self.arena.alloc(node)
    }

    pub(crate) fn child_entry_public(&self, id: NodeId) -> Entry<D, T, A::Value> {
        self.child_entry(id)
    }

    pub(crate) fn replace_root_for_bulk(&mut self, root: NodeId, len: usize) {
        debug_assert!(self.arena.get(self.root).is_empty());
        self.arena.free(self.root);
        self.root = root;
        self.len = len;
    }

    // ------------------------------------------------------------------
    // Insertion machinery
    // ------------------------------------------------------------------

    fn insert_entry(
        &mut self,
        entry: Entry<D, T, A::Value>,
        target_level: u32,
        reinserted: &mut HashSet<u32>,
    ) {
        // Descend to a node at target_level, recording the path.
        let mut path: Vec<(NodeId, usize)> = Vec::new();
        let mut cur = self.root;
        while self.arena.get(cur).level > target_level {
            let node = self.arena.get(cur);
            let views: Vec<EntryView<'_, D, A::Value>> = node
                .entries
                .iter()
                .map(|e| EntryView {
                    rect: &e.rect,
                    aug: &e.aug,
                })
                .collect();
            let new_view = EntryView {
                rect: &entry.rect,
                aug: &entry.aug,
            };
            let idx = self
                .strategy
                .choose_subtree(&views, &new_view, node.level == 1);
            let child = node.entries[idx]
                .child_id()
                .expect("internal nodes hold child entries");
            path.push((cur, idx));
            cur = child;
        }
        self.arena.get_mut(cur).entries.push(entry);
        self.fixup(path, cur, reinserted);
    }

    /// Resolves overflow from `cur` upward and refreshes summaries along the
    /// remaining path.
    fn fixup(
        &mut self,
        mut path: Vec<(NodeId, usize)>,
        mut cur: NodeId,
        reinserted: &mut HashSet<u32>,
    ) {
        loop {
            if self.arena.get(cur).len() <= self.params.max_entries {
                self.refresh_path(&path);
                return;
            }
            let level = self.arena.get(cur).level;
            let can_reinsert = self.params.forced_reinsert
                && cur != self.root
                && !reinserted.contains(&level);
            if can_reinsert {
                reinserted.insert(level);
                let removed = self.extract_reinsert_candidates(cur);
                // Bring every summary up to date before reinserting: the
                // reinsertion descends from the root.
                self.refresh_path(&path);
                if removed.is_empty() {
                    // Strategy declined; fall through to a split next round.
                    reinserted.insert(level);
                    continue;
                }
                for e in removed {
                    self.insert_entry(e, level, reinserted);
                }
                return;
            }
            // Split `cur`.
            let new_id = self.split_node(cur);
            if cur == self.root {
                let mut root = Node::new(level + 1);
                root.entries.push(self.child_entry(cur));
                root.entries.push(self.child_entry(new_id));
                self.root = self.arena.alloc(root);
                return;
            }
            let (parent, idx) = path.pop().expect("non-root node has a parent");
            let refreshed = self.child_entry(cur);
            self.arena.get_mut(parent).entries[idx] = refreshed;
            let sibling = self.child_entry(new_id);
            self.arena.get_mut(parent).entries.push(sibling);
            cur = parent;
        }
    }

    /// A parent entry summarising node `id`.
    fn child_entry(&self, id: NodeId) -> Entry<D, T, A::Value> {
        let node = self.arena.get(id);
        Entry {
            rect: node.bounding_rect(),
            aug: self.summarize_aug(id),
            payload: EntryPayload::Child(id),
        }
    }

    /// Recomputes rect/aug summaries along a root-to-node path, deepest
    /// first.
    fn refresh_path(&mut self, path: &[(NodeId, usize)]) {
        for &(node_id, idx) in path.iter().rev() {
            let child = self.arena.get(node_id).entries[idx]
                .child_id()
                .expect("path entries are child entries");
            let refreshed = self.child_entry(child);
            self.arena.get_mut(node_id).entries[idx] = refreshed;
        }
    }

    /// Removes the strategy's reinsert candidates from `id` and returns them
    /// in reinsertion order.
    fn extract_reinsert_candidates(&mut self, id: NodeId) -> Vec<Entry<D, T, A::Value>> {
        let node = self.arena.get(id);
        let views: Vec<EntryView<'_, D, A::Value>> = node
            .entries
            .iter()
            .map(|e| EntryView {
                rect: &e.rect,
                aug: &e.aug,
            })
            .collect();
        let order = self
            .strategy
            .reinsert_candidates(&views, self.params.reinsert_count.min(node.len() - 1));
        debug_assert!(order.iter().collect::<HashSet<_>>().len() == order.len());
        // Extract preserving the strategy's reinsertion order.
        let node = self.arena.get_mut(id);
        let mut marked: Vec<Option<Entry<D, T, A::Value>>> =
            node.entries.iter().map(|_| None).collect();
        let keep_mask: HashSet<usize> = order.iter().copied().collect();
        let mut kept = Vec::with_capacity(node.entries.len());
        for (i, e) in node.entries.drain(..).enumerate() {
            if keep_mask.contains(&i) {
                marked[i] = Some(e);
            } else {
                kept.push(e);
            }
        }
        node.entries = kept;
        order
            .into_iter()
            .map(|i| marked[i].take().expect("candidate extracted once"))
            .collect()
    }

    /// Splits node `id` in place; returns the new sibling's id.
    fn split_node(&mut self, id: NodeId) -> NodeId {
        let node = self.arena.get(id);
        let level = node.level;
        let views: Vec<EntryView<'_, D, A::Value>> = node
            .entries
            .iter()
            .map(|e| EntryView {
                rect: &e.rect,
                aug: &e.aug,
            })
            .collect();
        let mask = self.strategy.split(&views, self.params.min_entries);
        debug_assert_eq!(mask.len(), views.len());
        let node = self.arena.get_mut(id);
        let mut group_a = Vec::new();
        let mut group_b = Vec::new();
        for (e, to_b) in node.entries.drain(..).zip(mask) {
            if to_b {
                group_b.push(e);
            } else {
                group_a.push(e);
            }
        }
        debug_assert!(!group_a.is_empty() && !group_b.is_empty());
        node.entries = group_a;
        let mut sibling = Node::new(level);
        sibling.entries = group_b;
        self.arena.alloc(sibling)
    }

    // ------------------------------------------------------------------
    // Deletion machinery
    // ------------------------------------------------------------------

    /// Finds a leaf data entry matching `pred` within `search`; returns the
    /// path of `(node, entry index)` ending at the leaf.
    fn find_leaf<F>(
        &self,
        id: NodeId,
        search: &Rect<D>,
        pred: &F,
        path: &mut Vec<(NodeId, usize)>,
    ) -> Option<Vec<(NodeId, usize)>>
    where
        F: Fn(&T) -> bool,
    {
        let node = self.arena.get(id);
        for (i, e) in node.entries.iter().enumerate() {
            if !e.rect.intersects(search) {
                continue;
            }
            match &e.payload {
                EntryPayload::Data(t) => {
                    if pred(t) {
                        let mut full = path.clone();
                        full.push((id, i));
                        return Some(full);
                    }
                }
                EntryPayload::Child(c) => {
                    path.push((id, i));
                    if let Some(found) = self.find_leaf(*c, search, pred, path) {
                        return Some(found);
                    }
                    path.pop();
                }
            }
        }
        None
    }

    /// R-tree CondenseTree: dissolve underfull nodes along the path and
    /// reinsert their entries; shrink the root if needed.
    fn condense(&mut self, path: &[(NodeId, usize)], leaf: NodeId) {
        let mut orphans: Vec<(u32, Entry<D, T, A::Value>)> = Vec::new();
        let mut cur = leaf;
        for &(parent, idx) in path.iter().rev() {
            let underfull = self.arena.get(cur).len() < self.params.min_entries;
            if underfull {
                let level = self.arena.get(cur).level;
                let entries = std::mem::take(&mut self.arena.get_mut(cur).entries);
                orphans.extend(entries.into_iter().map(|e| (level, e)));
                self.arena.get_mut(parent).entries.remove(idx);
                self.arena.free(cur);
                // Removing by index shifts later siblings, but `idx` values
                // on the path refer to ancestors, which are untouched.
            } else {
                let refreshed = self.child_entry(cur);
                self.arena.get_mut(parent).entries[idx] = refreshed;
            }
            cur = parent;
        }
        // Shrink the root while it is an internal node with a single child.
        while !self.arena.get(self.root).is_leaf() && self.arena.get(self.root).len() == 1 {
            let child = self.arena.get(self.root).entries[0]
                .child_id()
                .expect("internal entry");
            self.arena.free(self.root);
            self.root = child;
        }
        // An empty internal root can appear when everything was orphaned.
        if !self.arena.get(self.root).is_leaf() && self.arena.get(self.root).is_empty() {
            self.arena.free(self.root);
            let mut arena_root = Node::new(0);
            arena_root.entries = Vec::new();
            self.root = self.arena.alloc(arena_root);
        }
        // Reinsert orphaned entries at their original levels, deepest first.
        orphans.sort_by_key(|&(level, _)| level);
        let mut reinserted = HashSet::new();
        for (level, entry) in orphans {
            // If the tree shrank below the entry's level, demote to re-adding
            // the subtree's items one by one.
            if level > self.arena.get(self.root).level {
                self.readd_subtree(entry, &mut reinserted);
            } else {
                self.insert_entry(entry, level, &mut reinserted);
            }
        }
    }

    /// Fallback for orphans above the current root level: re-add every data
    /// item contained in the orphaned subtree.
    fn readd_subtree(&mut self, entry: Entry<D, T, A::Value>, reinserted: &mut HashSet<u32>) {
        match entry.payload {
            EntryPayload::Data(_) => self.insert_entry(entry, 0, reinserted),
            EntryPayload::Child(c) => {
                let entries = std::mem::take(&mut self.arena.get_mut(c).entries);
                self.arena.free(c);
                for e in entries {
                    self.readd_subtree(e, reinserted);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::RStarGrouping;

    type Tree = RStarTree<2, u32, NoAug, RStarGrouping>;

    fn small_tree(max_entries: usize) -> Tree {
        RStarTree::new(
            RTreeParams::with_max_entries(max_entries),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        )
    }

    fn grid_points(n: usize) -> Vec<([f64; 2], u32)> {
        // Deterministic scattered points via a simple LCG.
        let mut x = 12345u64;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((x >> 16) % 10_000) as f64 / 10.0;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = ((x >> 16) % 10_000) as f64 / 10.0;
                ([a, b], i as u32)
            })
            .collect()
    }

    #[test]
    fn insert_and_validate_structure() {
        let mut t = small_tree(8);
        for (p, id) in grid_points(500) {
            t.insert(Rect::point(p), id);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2);
        t.validate();
        t.validate_augs();
    }

    #[test]
    fn range_query_matches_scan() {
        let mut t = small_tree(10);
        let pts = grid_points(800);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        let q = Rect::new([100.0, 100.0], [400.0, 350.0]);
        let mut got: Vec<u32> = t.range_query(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pts
            .iter()
            .filter(|(p, _)| q.contains_point(p))
            .map(|&(_, id)| id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "query window should not be empty");
    }

    #[test]
    fn nearest_matches_scan() {
        let mut t = small_tree(10);
        let pts = grid_points(600);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        for q in [[0.0, 0.0], [500.0, 500.0], [999.0, 1.0]] {
            let got: Vec<u32> = t.nearest(&q, 10).into_iter().map(|(_, &id)| id).collect();
            let mut by_dist: Vec<(f64, u32)> = pts
                .iter()
                .map(|&(p, id)| (crate::geom::dist(&p, &q), id))
                .collect();
            by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let want: Vec<u32> = by_dist.iter().take(10).map(|&(_, id)| id).collect();
            assert_eq!(got, want, "query at {q:?}");
        }
    }

    #[test]
    fn nearest_distances_are_sorted() {
        let mut t = small_tree(6);
        for (p, id) in grid_points(300) {
            t.insert(Rect::point(p), id);
        }
        let res = t.nearest(&[250.0, 250.0], 25);
        assert_eq!(res.len(), 25);
        assert!(res.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn queries_count_node_accesses() {
        let mut t = small_tree(8);
        for (p, id) in grid_points(400) {
            t.insert(Rect::point(p), id);
        }
        t.stats().reset();
        let _ = t.nearest(&[10.0, 10.0], 5);
        let bfs_accesses = t.stats().node_accesses();
        assert!(bfs_accesses > 0);
        t.stats().reset();
        let _ = t.range_query(&Rect::new([0.0, 0.0], [1000.0, 1000.0]));
        assert!(t.stats().node_accesses() as usize >= t.node_count());
    }

    #[test]
    fn bfs_beats_full_scan_on_node_accesses() {
        let mut t = small_tree(16);
        for (p, id) in grid_points(3000) {
            t.insert(Rect::point(p), id);
        }
        t.stats().reset();
        let _ = t.nearest(&[500.0, 500.0], 3);
        let accesses = t.stats().node_accesses() as usize;
        assert!(
            accesses * 4 < t.node_count(),
            "best-first search should touch a small fraction of {} nodes, touched {}",
            t.node_count(),
            accesses
        );
    }

    #[test]
    fn remove_items() {
        let mut t = small_tree(8);
        let pts = grid_points(400);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        // Remove every item with odd id.
        for (p, id) in &pts {
            if id % 2 == 1 {
                let got = t.remove(&Rect::point(*p), |&x| x == *id);
                assert_eq!(got, Some(*id));
            }
        }
        assert_eq!(t.len(), 200);
        t.validate();
        // Removed items are gone; kept items remain findable.
        for (p, id) in &pts {
            let found = t
                .range_query(&Rect::point(*p))
                .into_iter()
                .any(|&x| x == *id);
            assert_eq!(found, id % 2 == 0, "item {id}");
        }
    }

    #[test]
    fn remove_everything_then_reuse() {
        let mut t = small_tree(6);
        let pts = grid_points(150);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        for (p, id) in &pts {
            assert_eq!(t.remove(&Rect::point(*p), |&x| x == *id), Some(*id));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        for (p, id) in pts.iter().take(50) {
            t.insert(Rect::point(*p), *id);
        }
        assert_eq!(t.len(), 50);
        t.validate();
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = small_tree(8);
        t.insert(Rect::point([1.0, 1.0]), 1);
        assert_eq!(t.remove(&Rect::point([9.0, 9.0]), |_| true), None);
        assert_eq!(t.remove(&Rect::point([1.0, 1.0]), |&x| x == 2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn no_reinsert_mode_still_correct() {
        let mut t: Tree = RStarTree::new(
            RTreeParams::with_max_entries(8).without_reinsert(),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        let pts = grid_points(500);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        t.validate();
        let got: Vec<u32> = t
            .nearest(&[111.0, 222.0], 5)
            .into_iter()
            .map(|(_, &id)| id)
            .collect();
        let mut by_dist: Vec<(f64, u32)> = pts
            .iter()
            .map(|&(p, id)| (crate::geom::dist(&p, &[111.0, 222.0]), id))
            .collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(got, by_dist[..5].iter().map(|&(_, id)| id).collect::<Vec<_>>());
    }

    #[test]
    fn rect_items_supported() {
        let mut t = small_tree(8);
        for i in 0..100u32 {
            let x = (i % 10) as f64 * 10.0;
            let y = (i / 10) as f64 * 10.0;
            t.insert(Rect::new([x, y], [x + 5.0, y + 5.0]), i);
        }
        t.validate();
        let hits = t.range_query(&Rect::new([12.0, 12.0], [13.0, 13.0])); // inside item 11's box
        assert!(hits.contains(&&11));
    }

    #[test]
    fn items_returns_everything() {
        let mut t = small_tree(8);
        let pts = grid_points(250);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), *id);
        }
        let mut ids: Vec<u32> = t.items().into_iter().map(|(_, &id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..250).collect::<Vec<u32>>());
    }

    #[test]
    fn three_dimensional_tree_works() {
        let mut t: RStarTree<3, u32, NoAug, RStarGrouping> = RStarTree::new(
            RTreeParams::with_max_entries(8),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        let mut x = 99u64;
        let mut pts = Vec::new();
        for i in 0..400u32 {
            let mut c = [0.0; 3];
            for v in c.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = ((x >> 16) % 1000) as f64 / 1000.0;
            }
            pts.push((c, i));
            t.insert(Rect::point(c), i);
        }
        t.validate();
        let q = [0.5, 0.5, 0.5];
        let got: Vec<u32> = t.nearest(&q, 7).into_iter().map(|(_, &id)| id).collect();
        let mut by_dist: Vec<(f64, u32)> = pts
            .iter()
            .map(|&(p, id)| (crate::geom::dist(&p, &q), id))
            .collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(got, by_dist[..7].iter().map(|&(_, id)| id).collect::<Vec<_>>());
    }

    /// Sums item weights per subtree.
    struct SumAug;
    impl Augmentation<(u32, u64)> for SumAug {
        type Value = u64;
        fn leaf_value(&self, item: &(u32, u64)) -> u64 {
            item.1
        }
        fn empty(&self) -> u64 {
            0
        }
        fn merge(&self, acc: &mut u64, child: &u64) {
            *acc += child;
        }
    }

    #[test]
    fn update_leaf_augs_with_sum_augmentation() {
        let mut t: RStarTree<2, (u32, u64), SumAug, RStarGrouping> = RStarTree::new(
            RTreeParams::with_max_entries(6),
            SumAug,
            RStarGrouping,
            AccessStats::new(),
        );
        for (p, id) in grid_points(200) {
            t.insert(Rect::point(p), (id, 1));
        }
        t.validate_augs();
        // Root total equals item count.
        let root_total: u64 = t
            .node(t.root_id())
            .entries
            .iter()
            .map(|e| e.aug)
            .sum();
        assert_eq!(root_total, 200);
        // Bump the weight of items with id < 50 by 9.
        let changed = t.update_leaf_augs(&|_| true, &mut |item: &(u32, u64), aug: &u64| {
            (item.0 < 50).then_some(aug + 9)
        });
        assert_eq!(changed, 50);
        t.validate_augs();
        let root_total: u64 = t.node(t.root_id()).entries.iter().map(|e| e.aug).sum();
        assert_eq!(root_total, 200 + 50 * 9);
    }

    #[test]
    fn rewrite_leaves_keeps_shape_and_refreshes_summaries() {
        let mut t: RStarTree<2, (u32, u64), SumAug, RStarGrouping> = RStarTree::new(
            RTreeParams::with_max_entries(8),
            SumAug,
            RStarGrouping,
            AccessStats::new(),
        );
        let pts = grid_points(600);
        for (p, id) in &pts {
            t.insert(Rect::point(*p), (*id, 1));
        }
        let nodes = t.node_count();
        let height = t.height();
        // Mirror every box across x = 500 and weight each item by its id:
        // every leaf box and every summary changes.
        t.rewrite_leaves(|item, rect, aug| {
            *rect = Rect::point([1000.0 - rect.min[0], rect.min[1]]);
            *aug = u64::from(item.0);
        });
        t.validate();
        t.validate_augs();
        assert_eq!((t.node_count(), t.height()), (nodes, height), "shape unchanged");
        let root_total: u64 = t.node(t.root_id()).entries.iter().map(|e| e.aug).sum();
        assert_eq!(root_total, (0..600u64).sum::<u64>());
        // Range queries see the moved boxes.
        let q = Rect::new([100.0, 100.0], [400.0, 350.0]);
        let mut got: Vec<u32> = t.range_query(&q).into_iter().map(|it| it.0).collect();
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .filter(|(p, _)| q.contains_point(&[1000.0 - p[0], p[1]]))
            .map(|&(_, id)| id)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    #[test]
    fn clone_is_independent_of_the_original() {
        let mut t = small_tree(8);
        for (p, id) in grid_points(200) {
            t.insert(Rect::point(p), id);
        }
        let mut copy = t.clone();
        copy.set_stats(AccessStats::new());
        copy.rewrite_leaves(|_, rect, _| *rect = Rect::point([rect.min[0] + 5000.0, rect.min[1]]));
        copy.validate();
        t.validate();
        assert!(copy.range_query(&Rect::new([0.0, 0.0], [1000.0, 1000.0])).is_empty());
        assert_eq!(t.stats().node_accesses(), 0, "the copy counts into its own stats");
        assert_eq!(t.range_query(&Rect::new([0.0, 0.0], [1000.0, 1000.0])).len(), 200);
    }
}
