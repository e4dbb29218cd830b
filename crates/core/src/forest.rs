//! Hash-consed forests of binarized trees: every distinct subtree of a
//! set of trees, stored once (DESIGN.md §13).
//!
//! A node's **class** is `(label, class of its left child, class of its
//! right child)`, an absent child being a class of its own. Two nodes of
//! one class root identical subtrees, and the Tree-LSTM cell of a node is
//! a function of exactly those three inputs, so the encoder evaluates
//! each class once and every node of the class gets the same bits.
//! Firmware images ship the same libraries, so the trees of one index
//! build share most of their subtrees.

use std::collections::HashMap;
use std::ops::Range;

use crate::binarize::BinTree;

/// The child class of an absent child.
pub(crate) const ABSENT: u32 = u32::MAX;

/// A DAG of binarized trees in which each distinct subtree appears once.
///
/// Classes are numbered in first-seen order as trees are added, children
/// before parents, so the numbering depends only on the trees and the
/// order they were added in.
///
/// # Examples
///
/// ```
/// use asteria_core::{binarize, AstTree, Forest, NodeType};
///
/// let mut t = AstTree::with_root(NodeType::Block);
/// let r = t.root();
/// t.add(r, NodeType::Return);
/// let tree = binarize(&t);
///
/// let mut forest = Forest::new();
/// assert_eq!(forest.add(&tree), 0);
/// assert_eq!(forest.add(&tree), 1);
/// assert_eq!(forest.cells(), 4); // two trees of two nodes…
/// assert_eq!(forest.classes(), 2); // …holding two distinct subtrees
/// ```
#[derive(Debug, Default)]
pub struct Forest {
    /// Per class: `(label, left class, right class)`.
    nodes: Vec<(u16, u32, u32)>,
    /// Per class: the height of its subtree, a leaf being 1.
    heights: Vec<u32>,
    ids: HashMap<(u16, u32, u32), u32>,
    /// Per tree, in the order added: the class of its root.
    roots: Vec<u32>,
    /// Nodes of every tree added, shared or not.
    cells: usize,
}

impl Forest {
    /// An empty forest.
    pub fn new() -> Forest {
        Forest::default()
    }

    /// Adds a tree and returns its position among the trees added.
    ///
    /// Only the nodes reachable from the root take part; a tree cut by
    /// [`binarize_truncated`](crate::binarize_truncated) adds just the
    /// part the encoder would have visited.
    pub fn add(&mut self, tree: &BinTree) -> usize {
        let mut class = vec![ABSENT; tree.size()];
        for n in tree.postorder() {
            let child = |c: Option<u32>| c.map_or(ABSENT, |c| class[c as usize]);
            class[n as usize] =
                self.intern((tree.label(n), child(tree.left(n)), child(tree.right(n))));
        }
        self.roots.push(class[tree.root() as usize]);
        self.cells += tree.size();
        self.roots.len() - 1
    }

    /// The class of `key`, created if new. Children are interned before
    /// their parents, so a new class's height follows from theirs.
    fn intern(&mut self, key: (u16, u32, u32)) -> u32 {
        let next = self.nodes.len() as u32;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            let height = |c: u32| {
                if c == ABSENT {
                    0
                } else {
                    self.heights[c as usize]
                }
            };
            let h = 1 + height(key.1).max(height(key.2));
            self.nodes.push(key);
            self.heights.push(h);
        }
        id
    }

    /// Number of trees added.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when no tree was added.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of distinct subtrees: the Tree-LSTM cells an encoding of
    /// the forest evaluates.
    pub fn classes(&self) -> usize {
        self.nodes.len()
    }

    /// Total nodes of the trees added (their [`BinTree::size`]s): the
    /// cells encoding them one at a time would evaluate.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// `(label, left class, right class)` of a class, [`ABSENT`] marking
    /// a missing child.
    pub(crate) fn node(&self, class: u32) -> (u16, u32, u32) {
        self.nodes[class as usize]
    }

    /// The root class of every tree, in the order added.
    pub(crate) fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Every class's label.
    pub(crate) fn labels(&self) -> impl Iterator<Item = u16> + '_ {
        self.nodes.iter().map(|n| n.0)
    }

    /// The classes grouped by height: `order[levels[k]]` are the classes
    /// of height `k + 1`, ascending. Every child of a class is in an
    /// earlier level, and the classes of one level are independent.
    pub(crate) fn levels(&self) -> (Vec<u32>, Vec<Range<usize>>) {
        let top = self.heights.iter().copied().max().unwrap_or(0) as usize;
        let mut starts = vec![0usize; top + 1];
        for &h in &self.heights {
            starts[h as usize] += 1;
        }
        // Counting sort: `starts[h]` becomes the first slot of height h.
        let mut next = 0;
        for s in &mut starts {
            let count = *s;
            *s = next;
            next += count;
        }
        let mut order = vec![0u32; self.heights.len()];
        let mut cursor = starts.clone();
        for (class, &h) in self.heights.iter().enumerate() {
            order[cursor[h as usize]] = class as u32;
            cursor[h as usize] += 1;
        }
        let levels = (1..=top)
            .map(|h| starts[h]..starts.get(h + 1).copied().unwrap_or(order.len()))
            .collect();
        (order, levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::binarize;
    use crate::nodes::{AstTree, NodeType};

    fn chain(kinds: &[NodeType]) -> BinTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        for &k in kinds {
            t.add(r, k);
        }
        binarize(&t)
    }

    #[test]
    fn shared_suffixes_are_stored_once() {
        // LCRS turns each child list into a right-leaning chain, so two
        // blocks ending in the same statements share that tail.
        let mut forest = Forest::new();
        forest.add(&chain(&[NodeType::If, NodeType::Return, NodeType::Break]));
        let before = forest.classes();
        forest.add(&chain(&[
            NodeType::While,
            NodeType::Return,
            NodeType::Break,
        ]));
        // New: the `While` node heading the shared tail, and a new root.
        assert_eq!(forest.classes(), before + 2);
        assert_eq!(forest.cells(), 8);
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn child_side_and_label_are_part_of_the_class() {
        let mut left = AstTree::with_root(NodeType::Block);
        let r = left.root();
        left.add(r, NodeType::Return);
        // Same labels, but `Return` is a right child (a sibling) here.
        let mut forest = Forest::new();
        forest.add(&binarize(&left));
        let right = {
            let mut t = AstTree::with_root(NodeType::Num);
            let r = t.root();
            t.add(r, NodeType::Block);
            t.add(r, NodeType::Return);
            binarize(&t)
        };
        forest.add(&right);
        // The first tree's two classes, then the second's Return leaf
        // (shared), Block-with-right-Return (new, unlike Block-with-left-
        // Return) and the Num root.
        assert_eq!(forest.classes(), 4);
        forest.add(&chain(&[NodeType::Break]));
        assert_eq!(forest.classes(), 6, "a new leaf label and its parent");
    }

    #[test]
    fn levels_put_children_first() {
        let mut forest = Forest::new();
        forest.add(&chain(&[NodeType::If, NodeType::Return, NodeType::Break]));
        forest.add(&chain(&[NodeType::Return]));
        let (order, levels) = forest.levels();
        assert_eq!(order.len(), forest.classes());
        let mut seen = vec![false; forest.classes()];
        for level in &levels {
            for &c in &order[level.clone()] {
                let (_, l, r) = forest.node(c);
                for child in [l, r] {
                    assert!(child == ABSENT || seen[child as usize]);
                }
            }
            for &c in &order[level.clone()] {
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_forest_has_no_levels() {
        let forest = Forest::new();
        assert!(forest.is_empty());
        let (order, levels) = forest.levels();
        assert!(order.is_empty() && levels.is_empty());
    }
}
