//! The Gemini baseline (Xu et al., CCS'17): a structure2vec graph
//! embedding network over ACFGs, trained as a Siamese network with cosine
//! similarity — reimplemented on `asteria-nn`.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use asteria_nn::{Adam, ColMajor, Graph, NodeId, Optimizer, ParamId, ParamStore, Tensor};

use crate::acfg::{Acfg, ACFG_FEATURES};

/// Gemini hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GeminiConfig {
    /// Embedding dimension p (64, as in the Gemini paper).
    pub embed_dim: usize,
    /// Message-passing iterations T.
    pub iterations: usize,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for GeminiConfig {
    fn default() -> Self {
        GeminiConfig {
            embed_dim: 64,
            iterations: 3,
            seed: 0x6E311,
            learning_rate: 0.01,
        }
    }
}

/// The Gemini model.
pub struct GeminiModel {
    config: GeminiConfig,
    store: ParamStore,
    w1: ParamId,
    p1: ParamId,
    p2: ParamId,
    w2: ParamId,
    optimizer: Adam,
    /// Column-major copies of `[w1, p1, p2, w2]` for [`GeminiModel::embed`]:
    /// built on the first embed, dropped by every weight update.
    inference: OnceLock<[ColMajor; 4]>,
}

impl std::fmt::Debug for GeminiModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GeminiModel(p={}, T={})",
            self.config.embed_dim, self.config.iterations
        )
    }
}

impl GeminiModel {
    /// Builds a model with fresh weights.
    pub fn new(config: GeminiConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let p = config.embed_dim;
        let w1 = store.add("gemini.w1", Tensor::xavier(p, ACFG_FEATURES, &mut rng));
        let p1 = store.add("gemini.p1", Tensor::xavier(p, p, &mut rng));
        let p2 = store.add("gemini.p2", Tensor::xavier(p, p, &mut rng));
        let w2 = store.add("gemini.w2", Tensor::xavier(p, p, &mut rng));
        let optimizer = Adam::new(config.learning_rate);
        GeminiModel {
            config,
            store,
            w1,
            p1,
            p2,
            w2,
            optimizer,
            inference: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GeminiConfig {
        &self.config
    }

    /// Builds the graph-embedding computation on the tape, returning the
    /// embedding node.
    fn embed_on(&self, g: &mut Graph, acfg: &Acfg) -> NodeId {
        let p = self.config.embed_dim;
        let w1 = g.param(&self.store, self.w1);
        let p1 = g.param(&self.store, self.p1);
        let p2 = g.param(&self.store, self.p2);
        let w2 = g.param(&self.store, self.w2);
        let neighbors = acfg.neighbors();
        // Per-node transformed features (computed once).
        let wx: Vec<NodeId> = acfg
            .features
            .iter()
            .map(|f| {
                let x = g.input(Tensor::column(&f.map(|v| v as f32)));
                g.matvec(w1, x)
            })
            .collect();
        let zero = g.input(Tensor::zeros(p, 1));
        let mut mu: Vec<NodeId> = vec![zero; acfg.len()];
        for _ in 0..self.config.iterations {
            let mut next = Vec::with_capacity(acfg.len());
            for v in 0..acfg.len() {
                let agg = if neighbors[v].is_empty() {
                    zero
                } else {
                    let terms: Vec<NodeId> = neighbors[v].iter().map(|u| mu[*u]).collect();
                    g.sum(&terms)
                };
                // Two-layer relu MLP σ(·), as in the Gemini paper.
                let l1 = g.matvec(p1, agg);
                let l1 = g.relu(l1);
                let l2 = g.matvec(p2, l1);
                let l2 = g.relu(l2);
                let s = g.add(wx[v], l2);
                next.push(g.tanh(s));
            }
            mu = next;
        }
        let total = g.sum(&mu);
        g.matvec(w2, total)
    }

    /// Embeds an ACFG into a vector (the offline phase).
    ///
    /// Evaluates the training tape's forward pass without a tape, over
    /// cached column-major weight copies and one set of scratch buffers.
    /// Every sum keeps the tape's order, so the result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics on an ACFG without blocks (extraction never yields one).
    pub fn embed(&self, acfg: &Acfg) -> Vec<f32> {
        assert!(!acfg.is_empty(), "cannot embed an empty ACFG");
        let p = self.config.embed_dim;
        let n = acfg.len();
        let [w1, p1, p2, w2] = self.inference.get_or_init(|| {
            [self.w1, self.p1, self.p2, self.w2].map(|id| ColMajor::stack(&[self.store.value(id)]))
        });
        // `Graph::sum`: the first term, then each later one added in order.
        let sum_into = |mu: &[f32], terms: &[usize], out: &mut [f32]| match terms.split_first() {
            None => out.fill(0.0),
            Some((&first, rest)) => {
                out.copy_from_slice(&mu[first * p..][..p]);
                for &u in rest {
                    for (o, &m) in out.iter_mut().zip(&mu[u * p..][..p]) {
                        *o += m;
                    }
                }
            }
        };
        let relu = |v: &mut [f32]| v.iter_mut().for_each(|x| *x = x.max(0.0));

        let mut wx = vec![0.0f32; n * p];
        for (f, out) in acfg.features.iter().zip(wx.chunks_exact_mut(p)) {
            w1.matvec_into(&f.map(|v| v as f32), out);
        }
        let neighbors = acfg.neighbors();
        let mut mu = vec![0.0f32; n * p];
        let mut next = vec![0.0f32; n * p];
        let (mut agg, mut l1, mut l2) = (vec![0.0; p], vec![0.0; p], vec![0.0; p]);
        for _ in 0..self.config.iterations {
            for (v, out) in next.chunks_exact_mut(p).enumerate() {
                sum_into(&mu, &neighbors[v], &mut agg);
                // Two-layer relu MLP σ(·), as in the Gemini paper.
                p1.matvec_into(&agg, &mut l1);
                relu(&mut l1);
                p2.matvec_into(&l1, &mut l2);
                relu(&mut l2);
                for ((o, &x), &y) in out.iter_mut().zip(&wx[v * p..][..p]).zip(&l2) {
                    *o = (x + y).tanh();
                }
            }
            std::mem::swap(&mut mu, &mut next);
        }
        let all: Vec<usize> = (0..n).collect();
        sum_into(&mu, &all, &mut agg);
        let mut out = vec![0.0; p];
        w2.matvec_into(&agg, &mut out);
        out
    }

    /// Cosine similarity of two ACFGs (full forward pass).
    pub fn similarity(&self, a: &Acfg, b: &Acfg) -> f32 {
        let mut g = Graph::new();
        let ea = self.embed_on(&mut g, a);
        let eb = self.embed_on(&mut g, b);
        let cos = g.cosine(ea, eb);
        g.value(cos).item()
    }

    /// Online-phase similarity from cached embeddings: plain cosine,
    /// mapped to `[0, 1]` for ROC comparability.
    pub fn similarity_from_embeddings(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        let cos = dot / (na * nb).max(1e-7);
        0.5 * (cos + 1.0)
    }

    /// One Siamese training step toward cosine ±1; returns the loss.
    pub fn train_pair(&mut self, a: &Acfg, b: &Acfg, homologous: bool) -> f32 {
        self.inference.take();
        self.store.zero_grads();
        let mut g = Graph::new();
        let ea = self.embed_on(&mut g, a);
        let eb = self.embed_on(&mut g, b);
        let cos = g.cosine(ea, eb);
        let target = Tensor::scalar(if homologous { 1.0 } else { -1.0 });
        let loss = g.mse_loss(cos, target);
        let lv = g.value(loss).item();
        g.backward(loss, &mut self.store);
        self.store.clip_grad_norm(5.0);
        self.optimizer.step(&mut self.store);
        lv
    }

    /// One epoch over shuffled labelled pairs; returns the mean loss.
    pub fn train_epoch(&mut self, pairs: &[(Acfg, Acfg, bool)], rng: &mut StdRng) -> f32 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0f64;
        for i in order {
            let (a, b, label) = &pairs[i];
            total += self.train_pair(a, b, *label) as f64;
        }
        (total / pairs.len().max(1) as f64) as f32
    }
}

/// Trains for `epochs` epochs with the model's optimizer, keeping the
/// best-validation weights when a validator is supplied.
pub fn train_gemini(
    model: &mut GeminiModel,
    pairs: &[(Acfg, Acfg, bool)],
    epochs: usize,
    seed: u64,
    mut validate: Option<&mut dyn FnMut(&GeminiModel) -> f64>,
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut losses = Vec::with_capacity(epochs);
    let mut best = f64::NEG_INFINITY;
    let mut best_weights: Option<Vec<u8>> = None;
    for _ in 0..epochs {
        losses.push(model.train_epoch(pairs, &mut rng));
        if let Some(v) = validate.as_deref_mut() {
            let score = v(model);
            if score > best {
                best = score;
                let mut buf = Vec::new();
                model.store.save(&mut buf).expect("in-memory save");
                best_weights = Some(buf);
            }
        }
    }
    if let Some(w) = best_weights {
        model.inference.take();
        model.store.load(w.as_slice()).expect("snapshot matches");
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Deterministic synthetic ACFG.
    fn synthetic_acfg(blocks: usize, seed: u64) -> Acfg {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::with_capacity(blocks);
        let mut succs = vec![Vec::new(); blocks];
        for (i, s) in succs.iter_mut().enumerate() {
            let mut f = [0.0f64; ACFG_FEATURES];
            for v in f.iter_mut() {
                *v = rng.gen_range(0.0..8.0f64).round();
            }
            features.push(f);
            if i + 1 < blocks {
                s.push(i + 1);
            }
            if i > 1 && rng.gen_bool(0.3) {
                let t = rng.gen_range(0..i);
                s.push(t);
            }
        }
        Acfg { features, succs }
    }

    fn tiny() -> GeminiModel {
        GeminiModel::new(GeminiConfig {
            embed_dim: 8,
            iterations: 2,
            ..Default::default()
        })
    }

    #[test]
    fn embedding_has_configured_dim() {
        let m = tiny();
        let a = synthetic_acfg(5, 1);
        let e = m.embed(&a);
        assert_eq!(e.len(), 8);
        assert!(e.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tape_free_embedding_matches_the_tape_bit_for_bit() {
        for m in [tiny(), GeminiModel::new(GeminiConfig::default())] {
            for (blocks, seed) in [(1, 0), (2, 1), (5, 2), (9, 3), (30, 4)] {
                let a = synthetic_acfg(blocks, seed);
                let mut g = Graph::new();
                let e = m.embed_on(&mut g, &a);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&m.embed(&a)),
                    bits(g.value(e).as_slice()),
                    "{m:?}, {blocks} blocks"
                );
            }
        }
    }

    #[test]
    fn cached_weights_follow_training() {
        let mut m = tiny();
        let (a, b) = (synthetic_acfg(6, 5), synthetic_acfg(9, 6));
        let before = m.embed(&a);
        m.train_pair(&a, &b, false);
        let mut g = Graph::new();
        let e = m.embed_on(&mut g, &a);
        assert_eq!(m.embed(&a), g.value(e).as_slice());
        assert_ne!(m.embed(&a), before, "a train step must move the embedding");
    }

    #[test]
    fn identical_graphs_have_similarity_one() {
        let m = tiny();
        let a = synthetic_acfg(6, 2);
        assert!((m.similarity(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn online_similarity_matches_full_path() {
        let m = tiny();
        let a = synthetic_acfg(5, 3);
        let b = synthetic_acfg(7, 4);
        let full = m.similarity(&a, &b);
        let fast = GeminiModel::similarity_from_embeddings(&m.embed(&a), &m.embed(&b));
        assert!(((0.5 * (full + 1.0)) - fast).abs() < 1e-5);
    }

    #[test]
    fn training_separates_structures() {
        let mut m = tiny();
        let a1 = synthetic_acfg(4, 10);
        let a2 = synthetic_acfg(4, 10); // identical
        let b = synthetic_acfg(12, 99);
        let pairs = vec![
            (a1.clone(), a2.clone(), true),
            (a1.clone(), b.clone(), false),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..60 {
            m.train_epoch(&pairs, &mut rng);
        }
        let pos = m.similarity(&a1, &a2);
        let neg = m.similarity(&a1, &b);
        assert!(pos > neg + 0.3, "pos={pos} neg={neg}");
    }

    #[test]
    fn best_weights_restored_by_validator() {
        let mut m = tiny();
        let pairs = vec![(synthetic_acfg(3, 1), synthetic_acfg(3, 1), true)];
        let mut scores = vec![0.9, 0.1, 0.1].into_iter();
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let mut validate = |m: &GeminiModel| {
            let mut buf = Vec::new();
            m.store.save(&mut buf).unwrap();
            snaps.push(buf);
            scores.next().unwrap_or(0.0)
        };
        train_gemini(&mut m, &pairs, 3, 5, Some(&mut validate));
        let mut cur = Vec::new();
        m.store.save(&mut cur).unwrap();
        assert_eq!(cur, snaps[0], "epoch-1 weights should be restored");
    }

    #[test]
    fn synthetic_acfg_is_deterministic() {
        assert_eq!(synthetic_acfg(6, 7), synthetic_acfg(6, 7));
    }
}
