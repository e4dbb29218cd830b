//! The Siamese similarity head (paper §III-B, eq. 8) and the regression
//! (cosine) variant used in the Fig. 9 ablation.

use rand::Rng;

use asteria_nn::{Graph, NodeId, ParamId, ParamStore, Tensor};

use crate::slab::QueryScorer;

/// Which similarity head the Siamese network uses — the paper's Fig. 9
/// "Classification vs Regression" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiameseKind {
    /// Eq. 8: `softmax(σ(cat(|h1−h2|, h1⊙h2) × W))`, trained with BCE
    /// against `[dissimilar, similar]` one-hot targets. The paper's choice.
    Classification,
    /// Cosine-distance regression trained with MSE toward ±1.
    Regression,
}

/// The trainable part of the Siamese network above the two (shared)
/// Tree-LSTM towers.
#[derive(Debug, Clone, Copy)]
pub struct SiameseHead {
    kind: SiameseKind,
    /// `2 × 2h` weight (classification only).
    w: Option<ParamId>,
    hidden: usize,
}

impl SiameseHead {
    /// Registers head parameters.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        kind: SiameseKind,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = match kind {
            SiameseKind::Classification => {
                Some(store.add("siamese.w", Tensor::xavier(2, 2 * hidden_dim, rng)))
            }
            SiameseKind::Regression => None,
        };
        SiameseHead {
            kind,
            w,
            hidden: hidden_dim,
        }
    }

    /// Head flavour.
    pub fn kind(&self) -> SiameseKind {
        self.kind
    }

    /// Builds the similarity output on the tape.
    ///
    /// Returns a node holding `[dissimilarity, similarity]` (classification)
    /// or a 1×1 similarity in `[0, 1]` (regression).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, h1: NodeId, h2: NodeId) -> NodeId {
        match self.kind {
            SiameseKind::Classification => {
                // Eq. 8 without the inner sigmoid: the paper's formula as
                // written would cap the similarity at e/(e+1) ≈ 0.73,
                // contradicting §V where confirmed matches score exactly 1.
                // Softmax over raw logits matches the evaluation semantics
                // (deviation recorded in DESIGN.md).
                let d = g.sub(h1, h2);
                let ad = g.abs(d);
                let m = g.hadamard(h1, h2);
                let cat = g.concat(ad, m);
                let w = g.param(store, self.w.expect("classification head"));
                let logits = g.matvec(w, cat);
                g.softmax(logits)
            }
            SiameseKind::Regression => {
                let cos = g.cosine(h1, h2);
                // Map [-1, 1] → [0, 1].
                let half = g.scalar_mul(cos, 0.5);
                let bias = g.input(Tensor::scalar(0.5));
                g.add(half, bias)
            }
        }
    }

    /// Loss for a labelled pair; `homologous` selects the target.
    pub fn loss(&self, g: &mut Graph, output: NodeId, homologous: bool) -> NodeId {
        match self.kind {
            SiameseKind::Classification => {
                // Label vectors per the paper: [0,1] homologous, [1,0] not.
                let target = if homologous {
                    Tensor::column(&[0.0, 1.0])
                } else {
                    Tensor::column(&[1.0, 0.0])
                };
                g.bce_loss(output, target)
            }
            SiameseKind::Regression => {
                let target = Tensor::scalar(if homologous { 1.0 } else { 0.0 });
                g.mse_loss(output, target)
            }
        }
    }

    /// Extracts the scalar similarity from [`SiameseHead::forward`] output.
    pub fn similarity(&self, g: &Graph, output: NodeId) -> f32 {
        match self.kind {
            SiameseKind::Classification => g.value(output).as_slice()[1],
            SiameseKind::Regression => g.value(output).item(),
        }
    }

    /// Tape-free similarity from two cached encoding vectors — the online
    /// phase the paper measures at ~10⁻⁹ s/pair (Fig. 10c). For the
    /// classification head this is `softmax(σ(W·cat(|a−b|, a⊙b)))[1]`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the configured hidden size.
    pub fn similarity_from_vecs(&self, store: &ParamStore, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), self.hidden, "encoding size mismatch");
        assert_eq!(b.len(), self.hidden, "encoding size mismatch");
        match self.kind {
            SiameseKind::Classification => {
                let w = store.value(self.w.expect("classification head"));
                let ws = w.as_slice();
                let h = self.hidden;
                // logits = W · cat(|a-b|, a⊙b) without materializing cat;
                // slice iteration keeps this in the nanosecond regime the
                // paper reports for its online phase.
                let mut logits = [0.0f32; 2];
                for (r, logit) in logits.iter_mut().enumerate() {
                    let (wa, wm) = ws[r * 2 * h..(r + 1) * 2 * h].split_at(h);
                    let mut acc = 0.0f32;
                    for i in 0..h {
                        acc += wa[i] * (a[i] - b[i]).abs() + wm[i] * a[i] * b[i];
                    }
                    *logit = acc;
                }
                softmax_similarity(logits[0], logits[1])
            }
            SiameseKind::Regression => {
                let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
                let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
                cosine_similarity(dot, na, nb)
            }
        }
    }

    /// Prepares `query` for scoring many cached encodings at once with
    /// [`QueryScorer::score_tile`], bit-identical to
    /// [`SiameseHead::similarity_from_vecs`] with `query` as `a`.
    ///
    /// # Panics
    ///
    /// Panics if `query` does not match the configured hidden size.
    pub fn query_scorer(&self, store: &ParamStore, query: &[f32]) -> QueryScorer {
        assert_eq!(query.len(), self.hidden, "encoding size mismatch");
        match self.kind {
            SiameseKind::Classification => {
                let w = store.value(self.w.expect("classification head"));
                QueryScorer::classification(w.as_slice(), query)
            }
            SiameseKind::Regression => QueryScorer::regression(query),
        }
    }
}

/// The classification head's softmax over its two logits, `[1]`: the
/// similarity share. Shared by the per-pair and the tiled path.
///
/// The larger logit's term is `exp(0)`, which is exactly `1` (IEEE 754
/// and C Annex F require `exp(±0) = 1`), so it skips the call.
pub(crate) fn softmax_similarity(l0: f32, l1: f32) -> f32 {
    let m = l0.max(l1);
    let exp = |x: f32| if x == 0.0 { 1.0 } else { x.exp() };
    let e0 = exp(l0 - m);
    let e1 = exp(l1 - m);
    e1 / (e0 + e1)
}

/// The regression head's cosine mapped to `[0, 1]`, from the dot product
/// and the two norms. Shared by the per-pair and the tiled path.
pub(crate) fn cosine_similarity(dot: f32, na: f32, nb: f32) -> f32 {
    let cos = dot / (na * nb).max(1e-7);
    0.5 * cos + 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: SiameseKind) -> (ParamStore, SiameseHead) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let head = SiameseHead::new(&mut store, kind, 6, &mut rng);
        (store, head)
    }

    #[test]
    fn classification_outputs_probability_pair() {
        let (store, head) = setup(SiameseKind::Classification);
        let mut g = Graph::new();
        let a = g.input(Tensor::column(&[0.1, -0.2, 0.3, 0.0, 0.5, -0.4]));
        let b = g.input(Tensor::column(&[0.1, -0.2, 0.3, 0.0, 0.5, -0.4]));
        let out = head.forward(&mut g, &store, a, b);
        let v = g.value(out).as_slice().to_vec();
        assert_eq!(v.len(), 2);
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
        let sim = head.similarity(&g, out);
        assert!((0.0..=1.0).contains(&sim));
    }

    #[test]
    fn regression_is_cosine_based() {
        let (store, head) = setup(SiameseKind::Regression);
        let mut g = Graph::new();
        let a = g.input(Tensor::column(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        let b = g.input(Tensor::column(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        let out = head.forward(&mut g, &store, a, b);
        assert!((head.similarity(&g, out) - 1.0).abs() < 1e-5);

        let mut g2 = Graph::new();
        let a2 = g2.input(Tensor::column(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        let b2 = g2.input(Tensor::column(&[-1.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        let out2 = head.forward(&mut g2, &store, a2, b2);
        assert!(head.similarity(&g2, out2) < 1e-5);
    }

    #[test]
    fn fast_path_matches_tape_path() {
        for kind in [SiameseKind::Classification, SiameseKind::Regression] {
            let (store, head) = setup(kind);
            let va = [0.3f32, -0.1, 0.7, 0.2, -0.5, 0.9];
            let vb = [0.1f32, 0.4, -0.2, 0.6, 0.0, -0.3];
            let mut g = Graph::new();
            let a = g.input(Tensor::column(&va));
            let b = g.input(Tensor::column(&vb));
            let out = head.forward(&mut g, &store, a, b);
            let slow = head.similarity(&g, out);
            let fast = head.similarity_from_vecs(&store, &va, &vb);
            assert!((slow - fast).abs() < 1e-5, "{kind:?}: {slow} vs {fast}");
        }
    }

    #[test]
    fn bce_loss_decreases_with_training_direction() {
        let (mut store, head) = setup(SiameseKind::Classification);
        let va = [0.3f32, -0.1, 0.7, 0.2, -0.5, 0.9];
        let vb = [0.1f32, 0.4, -0.2, 0.6, 0.0, -0.3];
        let mut loss_before = 0.0;
        let mut opt = asteria_nn::AdaGrad::new(0.1);
        use asteria_nn::Optimizer;
        for step in 0..30 {
            store.zero_grads();
            let mut g = Graph::new();
            let a = g.input(Tensor::column(&va));
            let b = g.input(Tensor::column(&vb));
            let out = head.forward(&mut g, &store, a, b);
            let loss = head.loss(&mut g, out, true);
            let lv = g.value(loss).item();
            if step == 0 {
                loss_before = lv;
            }
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let fast = head.similarity_from_vecs(&store, &va, &vb);
        assert!(
            fast > 0.8,
            "similarity after training toward homologous: {fast}"
        );
        assert!(loss_before > 0.0);
    }

    #[test]
    fn exp_of_zero_is_exactly_one() {
        // `softmax_similarity` relies on this instead of calling `exp`.
        // `black_box` keeps the calls at run time, in the platform libm.
        for zero in [0.0f32, -0.0] {
            let e = std::hint::black_box(zero).exp();
            assert_eq!(e.to_bits(), 1.0f32.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "encoding size mismatch")]
    fn fast_path_checks_dims() {
        let (store, head) = setup(SiameseKind::Classification);
        head.similarity_from_vecs(&store, &[0.0; 3], &[0.0; 6]);
    }
}
