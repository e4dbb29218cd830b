//! The complete Asteria model: shared Tree-LSTM towers + Siamese head +
//! callee-count calibration (paper §III, eq. 9–10).

use std::io::{self, Read, Write};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use asteria_nn::{AdaGrad, Graph, Optimizer, ParamStore, Tensor};

use crate::binarize::BinTree;
use crate::encoder::{LeafInit, TreeLstm, TreeLstmKernel};
use crate::forest::Forest;
use crate::nodes::NodeType;
use crate::siamese::{SiameseHead, SiameseKind};
use crate::slab::QueryScorer;

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Node-embedding dimension (paper default: 16).
    pub embed_dim: usize,
    /// Tree-LSTM hidden/encoding dimension.
    pub hidden_dim: usize,
    /// Leaf child-state initialization (Fig. 9 ablation).
    pub leaf_init: LeafInit,
    /// Siamese head flavour (Fig. 9 ablation).
    pub head: SiameseKind,
    /// Embedding vocabulary (Table I label count).
    pub vocab: usize,
    /// Weight-initialization seed.
    pub seed: u64,
    /// AdaGrad learning rate (the paper's optimizer, §IV-A).
    pub learning_rate: f32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 16,
            hidden_dim: 32,
            leaf_init: LeafInit::Zeros,
            head: SiameseKind::Classification,
            vocab: NodeType::VOCAB,
            seed: 0xA57E51A,
            learning_rate: 0.05,
        }
    }
}

/// The trainable Asteria model 𝓜(T₁, T₂).
///
/// # Examples
///
/// ```
/// use asteria_core::{AsteriaModel, ModelConfig};
/// use asteria_core::nodes::{AstTree, NodeType};
/// use asteria_core::binarize::binarize;
///
/// let model = AsteriaModel::new(ModelConfig::default());
/// let tree = binarize(&AstTree::with_root(NodeType::Block));
/// let sim = model.similarity(&tree, &tree);
/// assert!((0.0..=1.0).contains(&sim));
/// ```
pub struct AsteriaModel {
    config: ModelConfig,
    store: ParamStore,
    tree_lstm: TreeLstm,
    head: SiameseHead,
    optimizer: AdaGrad,
    /// Inference kernel for the current weights: built on the first
    /// encode, dropped by every weight update.
    kernel: OnceLock<TreeLstmKernel>,
    /// [`AsteriaModel::weights_digest`] of the current weights: computed
    /// on first use, dropped with the kernel.
    digest: OnceLock<u64>,
}

impl std::fmt::Debug for AsteriaModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AsteriaModel(embed={}, hidden={}, {:?}, {} weights)",
            self.config.embed_dim,
            self.config.hidden_dim,
            self.head.kind(),
            self.store.num_weights()
        )
    }
}

impl AsteriaModel {
    /// Builds a model with freshly initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tree_lstm = TreeLstm::new(
            &mut store,
            config.vocab,
            config.embed_dim,
            config.hidden_dim,
            config.leaf_init,
            &mut rng,
        );
        let head = SiameseHead::new(&mut store, config.head, config.hidden_dim, &mut rng);
        let optimizer = AdaGrad::new(config.learning_rate);
        AsteriaModel {
            config,
            store,
            tree_lstm,
            head,
            optimizer,
            kernel: OnceLock::new(),
            digest: OnceLock::new(),
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Encodes an AST into its semantic vector (the offline phase): a
    /// one-tree [`AsteriaModel::encode_forest`] on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if a node label is outside the model's vocabulary.
    pub fn encode(&self, tree: &BinTree) -> Vec<f32> {
        self.tree_lstm.encode_to_vec(self.kernel(), tree)
    }

    /// Encodes every tree of `forest`, each distinct subtree once, over
    /// up to `threads` workers (`0` = auto). Returns the encodings in the
    /// order the trees were added, each bit-identical to
    /// [`AsteriaModel::encode`] on that tree, at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if a node label is outside the model's vocabulary.
    pub fn encode_forest(&self, forest: &Forest, threads: usize) -> Vec<Vec<f32>> {
        self.tree_lstm.encode_forest(self.kernel(), forest, threads)
    }

    /// The inference kernel for the current weights. The first call after
    /// construction or a weight update builds it; concurrent callers
    /// share it.
    fn kernel(&self) -> &TreeLstmKernel {
        self.kernel
            .get_or_init(|| self.tree_lstm.kernel(&self.store))
    }

    /// Full-pipeline similarity 𝓜(T₁, T₂) of two ASTs: both encodings,
    /// then the Siamese head with the same arithmetic as training.
    pub fn similarity(&self, t1: &BinTree, t2: &BinTree) -> f32 {
        let mut g = Graph::new();
        let h1 = g.input(Tensor::column(&self.encode(t1)));
        let h2 = g.input(Tensor::column(&self.encode(t2)));
        let out = self.head.forward(&mut g, &self.store, h1, h2);
        self.head.similarity(&g, out)
    }

    /// Online-phase similarity from two cached encodings (Fig. 10c).
    pub fn similarity_from_encodings(&self, a: &[f32], b: &[f32]) -> f32 {
        self.head.similarity_from_vecs(&self.store, a, b)
    }

    /// Prepares a query encoding for the tiled online phase: scoring it
    /// against an [`EncodingSlab`](crate::EncodingSlab) gives the bits of
    /// [`AsteriaModel::similarity_from_encodings`] with the query as `a`.
    ///
    /// # Panics
    ///
    /// Panics if `query` does not have `hidden_dim` components.
    pub fn query_scorer(&self, query: &[f32]) -> QueryScorer {
        self.head.query_scorer(&self.store, query)
    }

    /// One SGD step on a labelled AST pair; returns the loss.
    ///
    /// Both towers share one parameter set (the Siamese property), so the
    /// backward pass accumulates gradients from both trees automatically.
    pub fn train_pair(&mut self, t1: &BinTree, t2: &BinTree, homologous: bool) -> f32 {
        self.weights_changed();
        self.store.zero_grads();
        let mut g = Graph::new();
        let h1 = self.tree_lstm.encode(&mut g, &self.store, t1);
        let h2 = self.tree_lstm.encode(&mut g, &self.store, t2);
        let out = self.head.forward(&mut g, &self.store, h1, h2);
        let loss = self.head.loss(&mut g, out, homologous);
        let loss_value = g.value(loss).item();
        g.backward(loss, &mut self.store);
        self.store.clip_grad_norm(5.0);
        self.optimizer.step(&mut self.store);
        loss_value
    }

    /// Serializes the weights.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save<W: Write>(&self, w: W) -> io::Result<()> {
        self.store.save(w)
    }

    /// Restores weights previously written by [`AsteriaModel::save`] into a
    /// model of identical configuration.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when shapes or names do not match.
    pub fn load<R: Read>(&mut self, r: R) -> io::Result<()> {
        // A failed load may still have replaced some weights.
        self.weights_changed();
        self.store.load(r)
    }

    /// Drops everything derived from the weights.
    fn weights_changed(&mut self) {
        self.kernel.take();
        self.digest.take();
    }

    /// Snapshot of the weights as bytes (for best-epoch checkpointing).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.save(&mut buf).expect("in-memory save cannot fail");
        buf
    }

    /// Restores a snapshot created by [`AsteriaModel::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the snapshot does not match the model
    /// configuration (wrong encoder shapes, unknown parameter names) —
    /// weights loaded from disk are untrusted input, so a mismatch must
    /// surface as a typed error, never a panic.
    pub fn restore(&mut self, snapshot: &[u8]) -> io::Result<()> {
        self.load(snapshot)
    }

    /// Content digest of the current weights (names, shapes, exact f32
    /// bits). Any training step, reconfiguration, or weight edit changes
    /// it, so it is the invalidation key for persisted artifacts derived
    /// from this model — notably the on-disk embedding index.
    ///
    /// The first call after construction or a weight update hashes every
    /// weight; later calls return the memo.
    pub fn weights_digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.store.digest())
    }
}

/// The calibration function 𝒮(C₁, C₂) = e^(−|C₁−C₂|) (paper eq. 9).
pub fn callee_similarity(c1: usize, c2: usize) -> f64 {
    let d = c1.abs_diff(c2) as f64;
    (-d).exp()
}

/// The final function similarity ℱ = 𝓜(T₁,T₂) × 𝒮(C₁,C₂) (paper eq. 10).
pub fn calibrated_similarity(ast_similarity: f64, c1: usize, c2: usize) -> f64 {
    ast_similarity * callee_similarity(c1, c2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::binarize;
    use crate::nodes::{AstTree, NodeType};

    fn tree(kinds: &[NodeType]) -> BinTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        for k in kinds {
            t.add(r, *k);
        }
        binarize(&t)
    }

    #[test]
    fn similarity_in_unit_interval() {
        let m = AsteriaModel::new(ModelConfig::default());
        let a = tree(&[NodeType::If, NodeType::Return]);
        let b = tree(&[NodeType::While, NodeType::Break]);
        let s = m.similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s), "{s}");
    }

    #[test]
    fn training_separates_pairs() {
        let mut config = ModelConfig {
            hidden_dim: 16,
            embed_dim: 8,
            ..Default::default()
        };
        config.learning_rate = 0.1;
        let mut m = AsteriaModel::new(config);
        let a1 = tree(&[NodeType::If, NodeType::Return, NodeType::While]);
        let a2 = tree(&[NodeType::If, NodeType::Return, NodeType::While]);
        let b = tree(&[
            NodeType::Switch,
            NodeType::Goto,
            NodeType::Num,
            NodeType::Call,
        ]);
        for _ in 0..40 {
            m.train_pair(&a1, &a2, true);
            m.train_pair(&a1, &b, false);
        }
        let sim_pos = m.similarity(&a1, &a2);
        let sim_neg = m.similarity(&a1, &b);
        assert!(
            sim_pos > sim_neg + 0.3,
            "training failed to separate: pos={sim_pos} neg={sim_neg}"
        );
    }

    #[test]
    fn encodings_reproduce_full_similarity() {
        let m = AsteriaModel::new(ModelConfig::default());
        let a = tree(&[NodeType::If, NodeType::Return]);
        let b = tree(&[NodeType::While]);
        let full = m.similarity(&a, &b);
        let fast = m.similarity_from_encodings(&m.encode(&a), &m.encode(&b));
        assert!((full - fast).abs() < 1e-5);
    }

    #[test]
    fn save_load_roundtrip_preserves_outputs() {
        let mut m1 = AsteriaModel::new(ModelConfig::default());
        let a = tree(&[NodeType::If]);
        let b = tree(&[NodeType::While]);
        m1.train_pair(&a, &b, false);
        let snapshot = m1.snapshot();
        let mut m2 = AsteriaModel::new(ModelConfig::default());
        m2.restore(&snapshot).unwrap();
        assert_eq!(m1.similarity(&a, &b), m2.similarity(&a, &b));
        assert_eq!(m1.weights_digest(), m2.weights_digest());
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        // A snapshot from a differently-shaped encoder is a typed error,
        // not a panic: on-disk weights are untrusted input.
        let small = AsteriaModel::new(ModelConfig {
            hidden_dim: 8,
            embed_dim: 4,
            ..Default::default()
        });
        let mut big = AsteriaModel::new(ModelConfig::default());
        let err = big.restore(&small.snapshot()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn weights_digest_tracks_training() {
        let mut m = AsteriaModel::new(ModelConfig {
            hidden_dim: 8,
            embed_dim: 4,
            ..Default::default()
        });
        let d0 = m.weights_digest();
        assert_eq!(d0, m.weights_digest());
        let a = tree(&[NodeType::If]);
        let b = tree(&[NodeType::While]);
        m.train_pair(&a, &b, false);
        assert_ne!(
            d0,
            m.weights_digest(),
            "a train step must change the digest"
        );
    }

    #[test]
    fn weights_digest_memo_follows_every_weight_write() {
        let config = ModelConfig {
            hidden_dim: 8,
            embed_dim: 4,
            ..Default::default()
        };
        // The digest of `m`'s weights, computed by a model that has never
        // memoized anything else.
        let fresh_digest = |m: &AsteriaModel| {
            let mut fresh = AsteriaModel::new(config);
            fresh.load(m.snapshot().as_slice()).unwrap();
            fresh.weights_digest()
        };
        let other = AsteriaModel::new(ModelConfig { seed: 7, ..config });
        let other_snapshot = other.snapshot();
        let mut m = AsteriaModel::new(config);
        let a = tree(&[NodeType::If]);
        let b = tree(&[NodeType::While]);

        let before = m.weights_digest();
        m.train_pair(&a, &b, false);
        assert_ne!(m.weights_digest(), before, "train_pair");
        assert_eq!(m.weights_digest(), fresh_digest(&m), "train_pair");

        let before = m.weights_digest();
        m.load(other_snapshot.as_slice()).unwrap();
        assert_ne!(m.weights_digest(), before, "load");
        assert_eq!(m.weights_digest(), other.weights_digest(), "load");
        assert_eq!(m.weights_digest(), fresh_digest(&m), "load");

        m.train_pair(&a, &b, true);
        let before = m.weights_digest();
        let truncated = &other_snapshot[..other_snapshot.len() / 2];
        assert!(m.load(truncated).is_err());
        assert_ne!(
            m.weights_digest(),
            before,
            "the failed load replaced no weight"
        );
        assert_eq!(m.weights_digest(), fresh_digest(&m), "failed load");

        let trained = m.snapshot();
        m.train_pair(&a, &b, false);
        let before = m.weights_digest();
        m.restore(&trained).unwrap();
        assert_ne!(m.weights_digest(), before, "restore");
        assert_eq!(m.weights_digest(), fresh_digest(&m), "restore");
    }

    #[test]
    fn calibration_matches_paper_equation() {
        assert!((callee_similarity(3, 3) - 1.0).abs() < 1e-12);
        assert!((callee_similarity(3, 4) - (-1.0f64).exp()).abs() < 1e-12);
        assert!((callee_similarity(0, 5) - (-5.0f64).exp()).abs() < 1e-12);
        let f = calibrated_similarity(0.9, 2, 4);
        assert!((f - 0.9 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn regression_head_also_trains() {
        let config = ModelConfig {
            head: SiameseKind::Regression,
            hidden_dim: 16,
            embed_dim: 8,
            learning_rate: 0.1,
            ..Default::default()
        };
        let mut m = AsteriaModel::new(config);
        let a = tree(&[NodeType::If, NodeType::Return]);
        let b = tree(&[NodeType::Switch, NodeType::Num]);
        let mut last = f32::INFINITY;
        for _ in 0..20 {
            last = m.train_pair(&a, &b, false);
        }
        assert!(last < 0.5, "regression loss did not drop: {last}");
    }
}
