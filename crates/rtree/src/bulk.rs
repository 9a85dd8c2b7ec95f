//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a TAR-tree by repeated insertion is `O(n log n)` with large
//! constants (choose-subtree, forced reinserts, splits). When the dataset is
//! known up front — every experiment in the paper builds the index over a
//! snapshot — STR packing (Leutenegger et al., ICDE 1997) produces a
//! near-fully-packed tree in one pass per level: sort by the first
//! grouping-space coordinate, tile into slabs, recurse on the remaining
//! coordinates, and emit runs of `max_entries` as nodes. A slab whose size
//! is not a multiple of `max_entries` ends in a short run; each run below
//! `min_entries` is rebalanced with its neighbour, so a bulk-loaded tree
//! meets every invariant an insert-built one does.
//!
//! The packing operates in the same grouping space as the incremental
//! insertion path (2-D for IND-spa, 3-D with the normalised aggregate for
//! the TAR-tree), so bulk-loaded trees exhibit the same pruning behaviour;
//! the `ablation` benchmarks compare both construction paths.

use crate::geom::Rect;
use crate::node::{Entry, EntryPayload, Node};
use crate::strategy::GroupingStrategy;
use crate::tree::{Augmentation, RStarTree};

impl<const D: usize, T, A, S> RStarTree<D, T, A, S>
where
    A: Augmentation<T>,
    S: GroupingStrategy<D, A::Value>,
{
    /// Bulk-loads `items` into this tree with STR packing.
    ///
    /// # Panics
    ///
    /// Panics unless the tree is empty.
    pub fn bulk_load(&mut self, items: Vec<(Rect<D>, T, A::Value)>) {
        assert!(self.is_empty(), "bulk_load requires an empty tree");
        if items.is_empty() {
            return;
        }
        let (min, cap) = (self.params().min_entries, self.params().max_entries);
        let n = items.len();

        // Pack the data entries into leaves.
        let entries: Vec<Entry<D, T, A::Value>> = items
            .into_iter()
            .map(|(rect, item, aug)| Entry {
                rect,
                aug,
                payload: EntryPayload::Data(item),
            })
            .collect();
        let mut level = 0u32;
        let mut nodes: Vec<crate::node::NodeId> = str_tiles::<D, _>(entries, min, cap)
            .into_iter()
            .map(|chunk| {
                let mut node = Node::new(0);
                node.entries = chunk;
                self.alloc_node(node)
            })
            .collect();

        // Pack upper levels until a single root remains.
        while nodes.len() > 1 {
            level += 1;
            let child_entries: Vec<Entry<D, T, A::Value>> = nodes
                .iter()
                .map(|&id| self.child_entry_public(id))
                .collect();
            nodes = str_tiles::<D, _>(child_entries, min, cap)
                .into_iter()
                .map(|chunk| {
                    let mut node = Node::new(level);
                    node.entries = chunk;
                    self.alloc_node(node)
                })
                .collect();
        }
        let root = nodes[0];
        self.replace_root_for_bulk(root, n);
    }
}

/// Recursive STR tiling: partitions `entries` into chunks of `min..=cap`
/// entries (a lone chunk may hold fewer), spatially coherent in all `D`
/// dimensions of their box centres.
fn str_tiles<const D: usize, E>(entries: Vec<E>, min: usize, cap: usize) -> Vec<Vec<E>>
where
    E: HasRect<D>,
{
    let mut out = Vec::new();
    tile_rec(entries, cap, 0, &mut out);
    rebalance(&mut out, min, cap);
    out
}

/// Merges every chunk shorter than `min` with its predecessor in tiling
/// order (its successor, for the first chunk) and re-splits the pair into
/// two halves when it overflows `cap`. Both halves then hold at least
/// `min`, because R\* parameters keep `2 · min ≤ cap + 1`.
fn rebalance<E>(chunks: &mut Vec<Vec<E>>, min: usize, cap: usize) {
    let mut i = 0;
    while i < chunks.len() {
        if chunks.len() == 1 || chunks[i].len() >= min {
            i += 1;
            continue;
        }
        let at = i.saturating_sub(1);
        let second = chunks.remove(at + 1);
        let pair = &mut chunks[at];
        pair.extend(second);
        if pair.len() > cap {
            let upper = pair.split_off(pair.len().div_ceil(2));
            chunks.insert(at + 1, upper);
        }
        i = at;
    }
}

/// One tiling step along dimension `dim`.
fn tile_rec<const D: usize, E>(mut entries: Vec<E>, cap: usize, dim: usize, out: &mut Vec<Vec<E>>)
where
    E: HasRect<D>,
{
    let n = entries.len();
    if n <= cap {
        if n > 0 {
            out.push(entries);
        }
        return;
    }
    if dim + 1 == D {
        // Last dimension: sort and emit runs of `cap`.
        entries.sort_by(|a, b| {
            a.center(dim)
                .partial_cmp(&b.center(dim))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        while !entries.is_empty() {
            let take = entries.len().min(cap);
            let rest = entries.split_off(take);
            out.push(entries);
            entries = rest;
        }
        return;
    }
    // Tile into ceil(pages^(1/dims_left)) slabs along this dimension.
    let pages = n.div_ceil(cap);
    let dims_left = (D - dim) as f64;
    let slabs = (pages as f64).powf(1.0 / dims_left).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    entries.sort_by(|a, b| {
        a.center(dim)
            .partial_cmp(&b.center(dim))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    while !entries.is_empty() {
        let take = entries.len().min(slab_size);
        let rest = entries.split_off(take);
        tile_rec(entries, cap, dim + 1, out);
        entries = rest;
    }
}

/// Anything with a box centre (entries of any payload type).
trait HasRect<const D: usize> {
    fn center(&self, dim: usize) -> f64;
}

impl<const D: usize, T, V> HasRect<D> for Entry<D, T, V> {
    fn center(&self, dim: usize) -> f64 {
        0.5 * (self.rect.min[dim] + self.rect.max[dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoAug, RStarGrouping, RTreeParams};
    use pagestore::AccessStats;

    type Tree = RStarTree<2, u32, NoAug, RStarGrouping>;

    fn points(n: usize) -> Vec<(Rect<2>, u32, ())> {
        let mut x = 42u64;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = ((x >> 16) % 10_000) as f64 / 10.0;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = ((x >> 16) % 10_000) as f64 / 10.0;
                (Rect::point([a, b]), i as u32, ())
            })
            .collect()
    }

    fn bulk_tree(n: usize, cap: usize) -> (Tree, Vec<(Rect<2>, u32, ())>) {
        let items = points(n);
        let mut t = Tree::new(
            RTreeParams::with_max_entries(cap),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        t.bulk_load(items.clone());
        (t, items)
    }

    #[test]
    fn bulk_load_structure_and_content() {
        for n in [1usize, 7, 8, 9, 10, 11, 17, 100, 1000, 3001] {
            let (t, items) = bulk_tree(n, 8);
            assert_eq!(t.len(), n, "n={n}");
            t.validate();
            t.validate_augs();
            let mut got: Vec<u32> = t.items().into_iter().map(|(_, &id)| id).collect();
            got.sort_unstable();
            let want: Vec<u32> = (0..n as u32).collect();
            assert_eq!(got, want, "n={n}");
            let _ = items;
        }
    }

    #[test]
    fn bulk_load_queries_match_scan() {
        let (t, items) = bulk_tree(600, 10);
        let q = [333.0, 444.0];
        let got: Vec<u32> = t.nearest(&q, 12).into_iter().map(|(_, &id)| id).collect();
        let mut by_dist: Vec<(f64, u32)> = items
            .iter()
            .map(|(r, id, _)| (crate::geom::dist(&r.center(), &q), *id))
            .collect();
        by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let want: Vec<u32> = by_dist[..12].iter().map(|&(_, id)| id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_packs_tightly() {
        let (t, _) = bulk_tree(1000, 10);
        // STR should produce close to n/cap leaves (within ~30%).
        let min_nodes = 1000usize.div_ceil(10);
        assert!(
            t.node_count() <= min_nodes * 2,
            "{} nodes for {} minimum",
            t.node_count(),
            min_nodes
        );
    }

    #[test]
    fn bulk_then_insert_and_remove() {
        let (mut t, items) = bulk_tree(300, 8);
        t.insert(Rect::point([5.0, 5.0]), 10_000);
        assert_eq!(t.len(), 301);
        let removed = t.remove(&items[7].0, |&id| id == 7);
        assert_eq!(removed, Some(7));
        t.validate();
        t.validate_augs();
        assert_eq!(t.len(), 300);
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn bulk_into_non_empty_rejected() {
        let (mut t, _) = bulk_tree(10, 8);
        t.bulk_load(points(5));
    }

    #[test]
    fn bulk_load_empty_is_noop() {
        let mut t = Tree::new(
            RTreeParams::with_max_entries(8),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        t.bulk_load(Vec::new());
        assert!(t.is_empty());
    }

    #[test]
    fn three_d_bulk_load() {
        let mut t: RStarTree<3, u32, NoAug, RStarGrouping> = RStarTree::new(
            RTreeParams::with_max_entries(9),
            NoAug,
            RStarGrouping,
            AccessStats::new(),
        );
        let mut x = 9u64;
        let items: Vec<(Rect<3>, u32, ())> = (0..500)
            .map(|i| {
                let mut c = [0.0; 3];
                for v in c.iter_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    *v = ((x >> 16) % 1000) as f64 / 1000.0;
                }
                (Rect::point(c), i, ())
            })
            .collect();
        t.bulk_load(items);
        assert_eq!(t.len(), 500);
        t.validate();
        t.validate_augs();
    }
}
