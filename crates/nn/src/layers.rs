//! Reusable layers: the embedding table.

use rand::Rng;

use crate::graph::{Graph, NodeId};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// A learned lookup table mapping token ids to dense vectors, equivalent to
/// PyTorch's `nn.Embedding` as used by the paper (§IV-A).
///
/// # Examples
///
/// ```
/// use asteria_nn::{Embedding, Graph, ParamStore};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut store = ParamStore::new();
/// let mut rng = StdRng::seed_from_u64(0);
/// let emb = Embedding::new(&mut store, "emb", 44, 16, &mut rng);
/// let mut g = Graph::new();
/// let v = emb.lookup(&mut g, &store, 10);
/// assert_eq!(g.value(v).shape(), (16, 1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    weight: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `(vocab, dim)` embedding table initialized uniformly in
    /// `[-0.1, 0.1]`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let weight = store.add(name, Tensor::uniform(vocab, dim, 0.1, rng));
        Embedding { weight, vocab, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Underlying parameter id.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Looks up token `index`, returning a `(dim, 1)` node.
    ///
    /// # Panics
    ///
    /// Panics if `index >= vocab`.
    pub fn lookup(&self, g: &mut Graph, store: &ParamStore, index: usize) -> NodeId {
        assert!(
            index < self.vocab,
            "embedding index {index} out of range {}",
            self.vocab
        );
        g.embed_row(store, self.weight, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embedding_lookup_returns_rows() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut g = Graph::new();
        let v = emb.lookup(&mut g, &store, 3);
        assert_eq!(g.value(v).shape(), (4, 1));
        assert_eq!(g.value(v), &store.value(emb.weight()).row_vector(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn embedding_rejects_out_of_range() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut g = Graph::new();
        emb.lookup(&mut g, &store, 10);
    }
}
