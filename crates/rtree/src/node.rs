//! Arena-backed node storage.

use crate::geom::Rect;

/// Index of a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// What an entry points at.
#[derive(Debug, Clone)]
pub enum EntryPayload<T> {
    /// An internal entry pointing at a child node.
    Child(NodeId),
    /// A leaf entry holding a data item.
    Data(T),
}

/// One slot of a node: bounding box, augmented value, payload.
///
/// For internal entries, `rect` is the union of the child's entry rects and
/// `aug` the merge of the child's entry augmentations — the TAR-tree stores
/// its per-entry TIA summary (per-epoch max series) in `aug`.
#[derive(Debug, Clone)]
pub struct Entry<const D: usize, T, V> {
    /// Bounding box in grouping space.
    pub rect: Rect<D>,
    /// Augmented value (e.g. the entry's aggregate series).
    pub aug: V,
    /// Child pointer or data item.
    pub payload: EntryPayload<T>,
}

impl<const D: usize, T, V> Entry<D, T, V> {
    /// The child node id, if this is an internal entry.
    pub fn child_id(&self) -> Option<NodeId> {
        match self.payload {
            EntryPayload::Child(id) => Some(id),
            EntryPayload::Data(_) => None,
        }
    }

    /// The data item, if this is a leaf entry.
    pub fn data(&self) -> Option<&T> {
        match &self.payload {
            EntryPayload::Data(t) => Some(t),
            EntryPayload::Child(_) => None,
        }
    }
}

/// One R-tree node.
#[derive(Debug, Clone)]
pub struct Node<const D: usize, T, V> {
    /// Height above the leaves: 0 for leaf nodes.
    pub level: u32,
    /// The node's entries.
    pub entries: Vec<Entry<D, T, V>>,
}

impl<const D: usize, T, V> Node<D, T, V> {
    pub(crate) fn new(level: u32) -> Self {
        Node {
            level,
            entries: Vec::new(),
        }
    }

    /// Whether this node is at leaf level.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Union of the entry rects.
    pub fn bounding_rect(&self) -> Rect<D> {
        self.entries
            .iter()
            .fold(Rect::empty(), |acc, e| acc.union(&e.rect))
    }
}

/// A slab arena of nodes with a free list.
#[derive(Debug, Clone)]
pub(crate) struct Arena<const D: usize, T, V> {
    slots: Vec<Option<Node<D, T, V>>>,
    free: Vec<NodeId>,
}

impl<const D: usize, T, V> Arena<D, T, V> {
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    pub fn alloc(&mut self, node: Node<D, T, V>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.slots[id.index()] = Some(node);
            id
        } else {
            let id = NodeId(self.slots.len() as u32);
            self.slots.push(Some(node));
            id
        }
    }

    pub fn free(&mut self, id: NodeId) {
        assert!(
            self.slots[id.index()].take().is_some(),
            "double free of {id}"
        );
        self.free.push(id);
    }

    pub fn get(&self, id: NodeId) -> &Node<D, T, V> {
        self.slots[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("access to freed {id}"))
    }

    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<D, T, V> {
        self.slots[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("access to freed {id}"))
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type N = Node<2, u32, ()>;

    fn leaf_entry(x: f64, item: u32) -> Entry<2, u32, ()> {
        Entry {
            rect: Rect::point([x, 0.0]),
            aug: (),
            payload: EntryPayload::Data(item),
        }
    }

    #[test]
    fn node_basics() {
        let mut n = N::new(0);
        assert!(n.is_leaf());
        assert!(n.is_empty());
        n.entries.push(leaf_entry(1.0, 7));
        n.entries.push(leaf_entry(3.0, 8));
        assert_eq!(n.len(), 2);
        let r = n.bounding_rect();
        assert_eq!(r.min, [1.0, 0.0]);
        assert_eq!(r.max, [3.0, 0.0]);
        assert_eq!(n.entries[0].data(), Some(&7));
        assert_eq!(n.entries[0].child_id(), None);
    }

    #[test]
    fn arena_alloc_free_reuse() {
        let mut a: Arena<2, u32, ()> = Arena::new();
        let n1 = a.alloc(N::new(0));
        let n2 = a.alloc(N::new(1));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(n2).level, 1);
        a.free(n1);
        assert_eq!(a.len(), 1);
        let n3 = a.alloc(N::new(2));
        assert_eq!(n3, n1, "slot reused");
        assert_eq!(a.get(n3).level, 2);
        a.get_mut(n3).level = 5;
        assert_eq!(a.get(n3).level, 5);
    }

    #[test]
    #[should_panic(expected = "freed")]
    fn access_after_free_panics() {
        let mut a: Arena<2, u32, ()> = Arena::new();
        let n = a.alloc(N::new(0));
        a.free(n);
        let _ = a.get(n);
    }
}
