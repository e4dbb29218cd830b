//! Left-child right-sibling binarization (Fig. 3 step 2, second half).
//!
//! The Binary Tree-LSTM consumes binary trees, so the digitalized n-ary
//! AST is converted with the classic LCRS transform: a node's first child
//! becomes its left child, and its next sibling becomes its right child.

use crate::nodes::AstTree;

/// A binary tree over the same label space as [`AstTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinTree {
    labels: Vec<u16>,
    left: Vec<Option<u32>>,
    right: Vec<Option<u32>>,
    root: u32,
}

impl BinTree {
    /// Number of nodes (identical to the source AST's size).
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// Root node index.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Label of a node.
    pub fn label(&self, n: u32) -> u16 {
        self.labels[n as usize]
    }

    /// Left child (first child in the n-ary tree).
    pub fn left(&self, n: u32) -> Option<u32> {
        self.left[n as usize]
    }

    /// Right child (next sibling in the n-ary tree).
    pub fn right(&self, n: u32) -> Option<u32> {
        self.right[n as usize]
    }

    /// Maximum depth (root = 1): the longest chain of cells the encoder
    /// evaluates one after another, since a node waits for both children.
    pub fn depth(&self) -> usize {
        // Iterative post-order to avoid stack overflow on long sibling
        // chains (LCRS turns wide trees into deep ones).
        let mut depth = vec![0usize; self.labels.len()];
        let order = self.postorder();
        for &n in &order {
            let l = self.left(n).map_or(0, |c| depth[c as usize]);
            let r = self.right(n).map_or(0, |c| depth[c as usize]);
            depth[n as usize] = 1 + l.max(r);
        }
        depth[self.root as usize]
    }

    /// Nodes in post-order (children before parents) — the evaluation
    /// order of the bottom-up Tree-LSTM.
    pub fn postorder(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.labels.len());
        let mut stack: Vec<(u32, u8)> = vec![(self.root, 0)];
        while let Some((n, phase)) = stack.pop() {
            match phase {
                0 => {
                    stack.push((n, 1));
                    if let Some(l) = self.left(n) {
                        stack.push((l, 0));
                    }
                }
                1 => {
                    stack.push((n, 2));
                    if let Some(r) = self.right(n) {
                        stack.push((r, 0));
                    }
                }
                _ => out.push(n),
            }
        }
        out
    }
}

/// Converts an n-ary digitalized AST to left-child right-sibling form.
///
/// # Examples
///
/// ```
/// use asteria_core::{digitalize, binarize, NodeType};
/// use asteria_core::nodes::AstTree;
///
/// let mut t = AstTree::with_root(NodeType::Block);
/// let r = t.root();
/// t.add(r, NodeType::Return);
/// t.add(r, NodeType::Break);
/// let b = binarize(&t);
/// assert_eq!(b.size(), 3);
/// // First child of the root becomes its left child…
/// let ret = b.left(b.root()).unwrap();
/// assert_eq!(b.label(ret), NodeType::Return.label());
/// // …and the sibling hangs off the right of that child.
/// assert_eq!(b.label(b.right(ret).unwrap()), NodeType::Break.label());
/// ```
pub fn binarize(t: &AstTree) -> BinTree {
    let n = t.size();
    let mut out = BinTree {
        labels: vec![0; n],
        left: vec![None; n],
        right: vec![None; n],
        root: t.root(),
    };
    // Node ids are preserved 1:1; only the edges change.
    let mut stack = vec![t.root()];
    while let Some(node) = stack.pop() {
        out.labels[node as usize] = t.label(node);
        let kids = t.children(node);
        if let Some(first) = kids.first() {
            out.left[node as usize] = Some(*first);
        }
        for w in kids.windows(2) {
            out.right[w[0] as usize] = Some(w[1]);
        }
        for k in kids {
            stack.push(*k);
        }
    }
    out
}

/// Alternative binarization for the DESIGN.md ablation: keeps only each
/// node's first two children (truncation) instead of the LCRS transform.
/// Lossy by construction — sibling statements beyond the second disappear —
/// which is exactly what the ablation demonstrates.
pub fn binarize_truncated(t: &AstTree) -> BinTree {
    let n = t.size();
    let mut out = BinTree {
        labels: vec![0; n],
        left: vec![None; n],
        right: vec![None; n],
        root: t.root(),
    };
    let mut stack = vec![t.root()];
    while let Some(node) = stack.pop() {
        out.labels[node as usize] = t.label(node);
        let kids = t.children(node);
        if let Some(first) = kids.first() {
            out.left[node as usize] = Some(*first);
            stack.push(*first);
        }
        if let Some(second) = kids.get(1) {
            out.right[node as usize] = Some(*second);
            stack.push(*second);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::{AstTree, NodeType};

    fn wide_tree(n_children: usize) -> AstTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        for _ in 0..n_children {
            t.add(r, NodeType::Num);
        }
        t
    }

    #[test]
    fn preserves_node_count_and_labels() {
        let t = wide_tree(10);
        let b = binarize(&t);
        assert_eq!(b.size(), t.size());
        let mut labels: Vec<u16> = (0..b.size() as u32).map(|i| b.label(i)).collect();
        labels.sort_unstable();
        let mut expected: Vec<u16> = (0..t.size() as u32).map(|i| t.label(i)).collect();
        expected.sort_unstable();
        assert_eq!(labels, expected);
    }

    #[test]
    fn wide_becomes_deep() {
        let t = wide_tree(10);
        assert_eq!(t.depth(), 2);
        let b = binarize(&t);
        // Sibling chain: root → c1 → c2 → … → c10 along right edges.
        assert_eq!(b.depth(), 11);
    }

    #[test]
    fn sibling_chain_follows_source_order() {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        t.add(r, NodeType::If);
        t.add(r, NodeType::While);
        t.add(r, NodeType::Return);
        let b = binarize(&t);
        let c1 = b.left(b.root()).unwrap();
        let c2 = b.right(c1).unwrap();
        let c3 = b.right(c2).unwrap();
        assert_eq!(b.label(c1), NodeType::If.label());
        assert_eq!(b.label(c2), NodeType::While.label());
        assert_eq!(b.label(c3), NodeType::Return.label());
        assert_eq!(b.right(c3), None);
    }

    #[test]
    fn postorder_visits_children_first() {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        let ifn = t.add(r, NodeType::If);
        t.add(ifn, NodeType::Var);
        let b = binarize(&t);
        let order = b.postorder();
        assert_eq!(order.len(), 3);
        assert_eq!(*order.last().unwrap(), b.root());
        // Every child appears before its parent.
        let pos = |n: u32| order.iter().position(|x| *x == n).expect("node in order");
        for n in 0..b.size() as u32 {
            if let Some(l) = b.left(n) {
                assert!(pos(l) < pos(n));
            }
            if let Some(rr) = b.right(n) {
                assert!(pos(rr) < pos(n));
            }
        }
    }

    #[test]
    fn single_node_tree() {
        let t = AstTree::with_root(NodeType::Block);
        let b = binarize(&t);
        assert_eq!(b.size(), 1);
        assert_eq!(b.depth(), 1);
        assert_eq!(b.left(0), None);
        assert_eq!(b.right(0), None);
    }

    #[test]
    fn truncated_binarization_drops_extra_children() {
        let t = wide_tree(5);
        let full = binarize(&t);
        let trunc = binarize_truncated(&t);
        assert_eq!(full.size(), 6);
        // Truncated tree reaches only root + 2 children via edges.
        let reachable = trunc.postorder().len();
        assert_eq!(reachable, 3);
    }

    #[test]
    fn deep_tree_does_not_overflow() {
        // 20k-node sibling chain: recursion here would blow the stack.
        let t = wide_tree(20_000);
        let b = binarize(&t);
        assert_eq!(b.depth(), 20_001);
        assert_eq!(b.postorder().len(), 20_001);
    }
}
