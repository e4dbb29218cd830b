//! The Diaphora baseline: prime-product AST hashing.
//!
//! Diaphora maps every AST node type to a prime and hashes the AST as the
//! product of those primes (a multiset hash that ignores tree structure).
//! Comparing two hashes means factoring them back into prime multisets —
//! arbitrary-precision work that is exactly why the paper measures
//! Diaphora's online phase in milliseconds (Fig. 10c).

use asteria_bignum::{first_primes, BigUint};
use asteria_core::{AstTree, NodeType};

/// A Diaphora AST hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiaphoraHash {
    product: BigUint,
    node_count: usize,
}

impl DiaphoraHash {
    /// Bits in the underlying product (size diagnostic).
    pub fn bits(&self) -> usize {
        self.product.bits()
    }

    /// Number of nodes hashed.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

/// The per-label prime table.
pub(crate) fn prime_table() -> Vec<u64> {
    first_primes(NodeType::VOCAB)
}

/// Hashes a digitalized AST as the product of per-node primes (the
/// offline phase, "D-H" in Fig. 10b).
pub fn hash_ast(tree: &AstTree) -> DiaphoraHash {
    let primes = prime_table();
    let mut product = BigUint::one();
    for (label, count) in tree.label_histogram().iter().enumerate() {
        for _ in 0..*count {
            product.mul_u64(primes[label]);
        }
    }
    DiaphoraHash {
        product,
        node_count: tree.size(),
    }
}

/// Similarity of two hashes: the multiset Dice coefficient of their prime
/// factorizations, `2·|A ∩ B| / (|A| + |B|)` with multiplicity. Requires
/// factoring both products over the prime table — the deliberately slow
/// online phase.
pub fn similarity(a: &DiaphoraHash, b: &DiaphoraHash) -> f64 {
    let primes = prime_table();
    let (ea, ca) = a.product.factor_over(&primes);
    let (eb, cb) = b.product.factor_over(&primes);
    debug_assert!(ca && cb, "hash contains foreign factors");
    let mut shared = 0u64;
    let mut total = 0u64;
    for (x, y) in ea.iter().zip(eb.iter()) {
        shared += (*x).min(*y) as u64;
        total += (*x as u64) + (*y as u64);
    }
    if total == 0 {
        return 1.0;
    }
    2.0 * shared as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use asteria_core::nodes::AstTree;

    fn tree(kinds: &[NodeType]) -> AstTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        for k in kinds {
            t.add(r, *k);
        }
        t
    }

    #[test]
    fn identical_trees_have_similarity_one() {
        let a = hash_ast(&tree(&[NodeType::If, NodeType::Return]));
        let b = hash_ast(&tree(&[NodeType::If, NodeType::Return]));
        assert_eq!(a, b);
        assert_eq!(similarity(&a, &b), 1.0);
    }

    #[test]
    fn node_order_is_ignored() {
        // A known weakness of the multiset hash (and part of why Diaphora
        // underperforms in the paper).
        let a = hash_ast(&tree(&[NodeType::If, NodeType::Return]));
        let b = hash_ast(&tree(&[NodeType::Return, NodeType::If]));
        assert_eq!(similarity(&a, &b), 1.0);
    }

    #[test]
    fn disjoint_trees_have_low_similarity() {
        let a = hash_ast(&tree(&[NodeType::If, NodeType::If, NodeType::If]));
        let b = hash_ast(&tree(&[NodeType::Call, NodeType::Num, NodeType::Var]));
        let s = similarity(&a, &b);
        // Only the shared Block root overlaps: 2·1/8.
        assert!((s - 0.25).abs() < 1e-12, "{s}");
    }

    #[test]
    fn partial_overlap_is_fractional() {
        let a = hash_ast(&tree(&[NodeType::If, NodeType::Return, NodeType::Var]));
        let b = hash_ast(&tree(&[NodeType::If, NodeType::Return, NodeType::Num]));
        let s = similarity(&a, &b);
        // Shared: block, if, return = 3 of 4 each → 6/8.
        assert!((s - 0.75).abs() < 1e-12, "{s}");
    }

    #[test]
    fn hash_grows_with_tree_size() {
        let small = hash_ast(&tree(&[NodeType::If]));
        let kinds: Vec<NodeType> = (0..200).map(|_| NodeType::Call).collect();
        let big = hash_ast(&tree(&kinds));
        assert!(big.bits() > small.bits());
        assert_eq!(big.node_count(), 201);
        // 200 nodes of one prime comfortably exceeds u128.
        assert!(big.bits() > 128);
    }

    #[test]
    fn real_function_hashes_compare_across_arch() {
        use asteria_compiler::{compile_program, Arch};
        use asteria_core::digitalize;
        use asteria_decompiler::decompile_function;
        let p = asteria_lang::parse(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += ext(i); } return s; }",
        )
        .unwrap();
        let hx = {
            let b = compile_program(&p, Arch::X86).unwrap();
            hash_ast(&digitalize(&decompile_function(&b, 0).unwrap()))
        };
        let ha = {
            let b = compile_program(&p, Arch::Arm).unwrap();
            hash_ast(&digitalize(&decompile_function(&b, 0).unwrap()))
        };
        let s = similarity(&hx, &ha);
        assert!(s > 0.5, "homologous similarity too low: {s}");
    }
}
