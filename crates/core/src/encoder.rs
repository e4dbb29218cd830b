//! The Binary Tree-LSTM AST encoder (paper §III-B, equations 1–7).

use std::sync::atomic::{AtomicU32, Ordering};

use rand::Rng;

use asteria_nn::{ColMajor, Embedding, Graph, NodeId, ParamId, ParamStore, Tensor};

use crate::binarize::BinTree;
use crate::forest::{Forest, ABSENT};

/// Initialization of the (absent) child states of leaf nodes — the paper's
/// Fig. 9 "Leaf-0 vs Leaf-1" ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafInit {
    /// All-zeros hidden/cell states (the paper's default, and winner).
    Zeros,
    /// All-ones hidden/cell states.
    Ones,
}

/// The Binary Tree-LSTM network 𝒩(·).
///
/// One set of weights encodes any tree bottom-up: for every node the two
/// forget gates (eq. 1–2), input and output gates (eq. 3–4) and the cached
/// state (eq. 5) combine the node's embedding with its children's hidden
/// states; the cell and hidden states (eq. 6–7) then propagate upward. The
/// hidden state of the root is the encoding of the AST.
#[derive(Debug, Clone, Copy)]
pub struct TreeLstm {
    emb: Embedding,
    // Forget gates (shared W and bias, four U matrices — eq. 1–2).
    w_f: ParamId,
    u_f_ll: ParamId,
    u_f_lr: ParamId,
    u_f_rl: ParamId,
    u_f_rr: ParamId,
    b_f: ParamId,
    // Input gate (eq. 3).
    w_i: ParamId,
    u_i_l: ParamId,
    u_i_r: ParamId,
    b_i: ParamId,
    // Output gate (eq. 4).
    w_o: ParamId,
    u_o_l: ParamId,
    u_o_r: ParamId,
    b_o: ParamId,
    // Cached state (eq. 5).
    w_u: ParamId,
    u_u_l: ParamId,
    u_u_r: ParamId,
    b_u: ParamId,
    hidden: usize,
    leaf_init: LeafInit,
}

impl TreeLstm {
    /// Registers all Tree-LSTM parameters in `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        vocab: usize,
        embed_dim: usize,
        hidden_dim: usize,
        leaf_init: LeafInit,
        rng: &mut R,
    ) -> Self {
        let emb = Embedding::new(store, "tlstm.emb", vocab, embed_dim, rng);
        let w = |store: &mut ParamStore, name: &str, rng: &mut R| {
            store.add(name, Tensor::xavier(hidden_dim, embed_dim, rng))
        };
        let u = |store: &mut ParamStore, name: &str, rng: &mut R| {
            store.add(name, Tensor::xavier(hidden_dim, hidden_dim, rng))
        };
        let b = |store: &mut ParamStore, name: &str| store.add(name, Tensor::zeros(hidden_dim, 1));
        TreeLstm {
            emb,
            w_f: w(store, "tlstm.w_f", rng),
            u_f_ll: u(store, "tlstm.u_f_ll", rng),
            u_f_lr: u(store, "tlstm.u_f_lr", rng),
            u_f_rl: u(store, "tlstm.u_f_rl", rng),
            u_f_rr: u(store, "tlstm.u_f_rr", rng),
            b_f: b(store, "tlstm.b_f"),
            w_i: w(store, "tlstm.w_i", rng),
            u_i_l: u(store, "tlstm.u_i_l", rng),
            u_i_r: u(store, "tlstm.u_i_r", rng),
            b_i: b(store, "tlstm.b_i"),
            w_o: w(store, "tlstm.w_o", rng),
            u_o_l: u(store, "tlstm.u_o_l", rng),
            u_o_r: u(store, "tlstm.u_o_r", rng),
            b_o: b(store, "tlstm.b_o"),
            w_u: w(store, "tlstm.w_u", rng),
            u_u_l: u(store, "tlstm.u_u_l", rng),
            u_u_r: u(store, "tlstm.u_u_r", rng),
            b_u: b(store, "tlstm.b_u"),
            hidden: hidden_dim,
            leaf_init,
        }
    }

    /// Hidden (encoding) dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Embedding dimension.
    pub fn embed_dim(&self) -> usize {
        self.emb.dim()
    }

    /// Encodes a binarized AST on the tape, returning the root's
    /// hidden-state node — the differentiable form that training and the
    /// gradient checks use. Inference goes through
    /// [`TreeLstm::encode_to_vec`], which computes the same bits without a
    /// tape.
    ///
    /// Evaluation is an explicit post-order loop (batch size is inherently
    /// 1, as the paper notes — the computation shape follows the tree).
    pub fn encode(&self, g: &mut Graph, store: &ParamStore, tree: &BinTree) -> NodeId {
        // Hoist parameter reads so each weight appears once on the tape.
        let w_f = g.param(store, self.w_f);
        let u_f_ll = g.param(store, self.u_f_ll);
        let u_f_lr = g.param(store, self.u_f_lr);
        let u_f_rl = g.param(store, self.u_f_rl);
        let u_f_rr = g.param(store, self.u_f_rr);
        let b_f = g.param(store, self.b_f);
        let w_i = g.param(store, self.w_i);
        let u_i_l = g.param(store, self.u_i_l);
        let u_i_r = g.param(store, self.u_i_r);
        let b_i = g.param(store, self.b_i);
        let w_o = g.param(store, self.w_o);
        let u_o_l = g.param(store, self.u_o_l);
        let u_o_r = g.param(store, self.u_o_r);
        let b_o = g.param(store, self.b_o);
        let w_u = g.param(store, self.w_u);
        let u_u_l = g.param(store, self.u_u_l);
        let u_u_r = g.param(store, self.u_u_r);
        let b_u = g.param(store, self.b_u);

        let init = match self.leaf_init {
            LeafInit::Zeros => g.input(Tensor::zeros(self.hidden, 1)),
            LeafInit::Ones => g.input(Tensor::ones(self.hidden, 1)),
        };

        let mut states: Vec<Option<(NodeId, NodeId)>> = vec![None; tree.size()];
        for k in tree.postorder() {
            let (h_l, c_l) = tree
                .left(k)
                .map(|c| states[c as usize].expect("postorder"))
                .unwrap_or((init, init));
            let (h_r, c_r) = tree
                .right(k)
                .map(|c| states[c as usize].expect("postorder"))
                .unwrap_or((init, init));
            let e_k = self.emb.lookup(g, store, tree.label(k) as usize);

            // Shared affine pieces.
            let wf_e = g.matvec(w_f, e_k);
            // f_kl = σ(W^f e + U_ll h_l + U_lr h_r + b)      (eq. 1)
            let f_l = {
                let t1 = g.matvec(u_f_ll, h_l);
                let t2 = g.matvec(u_f_lr, h_r);
                let s = g.add3(wf_e, t1, t2);
                let s = g.add(s, b_f);
                g.sigmoid(s)
            };
            // f_kr = σ(W^f e + U_rl h_l + U_rr h_r + b)      (eq. 2)
            let f_r = {
                let t1 = g.matvec(u_f_rl, h_l);
                let t2 = g.matvec(u_f_rr, h_r);
                let s = g.add3(wf_e, t1, t2);
                let s = g.add(s, b_f);
                g.sigmoid(s)
            };
            // i_k (eq. 3)
            let i_k = {
                let we = g.matvec(w_i, e_k);
                let t1 = g.matvec(u_i_l, h_l);
                let t2 = g.matvec(u_i_r, h_r);
                let s = g.add3(we, t1, t2);
                let s = g.add(s, b_i);
                g.sigmoid(s)
            };
            // o_k (eq. 4)
            let o_k = {
                let we = g.matvec(w_o, e_k);
                let t1 = g.matvec(u_o_l, h_l);
                let t2 = g.matvec(u_o_r, h_r);
                let s = g.add3(we, t1, t2);
                let s = g.add(s, b_o);
                g.sigmoid(s)
            };
            // u_k (eq. 5) — tanh to retain signed information.
            let u_k = {
                let we = g.matvec(w_u, e_k);
                let t1 = g.matvec(u_u_l, h_l);
                let t2 = g.matvec(u_u_r, h_r);
                let s = g.add3(we, t1, t2);
                let s = g.add(s, b_u);
                g.tanh(s)
            };
            // c_k = i⊙u + c_l⊙f_l + c_r⊙f_r (eq. 6)
            let c_k = {
                let a = g.hadamard(i_k, u_k);
                let bterm = g.hadamard(c_l, f_l);
                let cterm = g.hadamard(c_r, f_r);
                g.add3(a, bterm, cterm)
            };
            // h_k = o ⊙ tanh(c) (eq. 7)
            let h_k = {
                let t = g.tanh(c_k);
                g.hadamard(o_k, t)
            };
            states[k as usize] = Some((h_k, c_k));
        }
        states[tree.root() as usize].expect("root encoded").0
    }

    /// Precomputes the inference-only [`TreeLstmKernel`] for the current
    /// weights in `store`.
    ///
    /// The kernel is a snapshot: it must be rebuilt whenever the weights
    /// change. [`crate::AsteriaModel`] caches one per model and drops it
    /// on every training step and load.
    pub fn kernel(&self, store: &ParamStore) -> TreeLstmKernel {
        TreeLstmKernel::new(self, store)
    }

    /// Encodes a tree and returns the root's hidden state as a plain
    /// vector — the paper's offline embedding step for one function.
    ///
    /// A one-tree [`TreeLstm::encode_forest`] evaluated on the caller's
    /// thread, so the result is bit-identical to the root value of
    /// [`TreeLstm::encode`].
    ///
    /// # Panics
    ///
    /// Panics if a node label is outside the embedding vocabulary.
    pub fn encode_to_vec(&self, kernel: &TreeLstmKernel, tree: &BinTree) -> Vec<f32> {
        let mut forest = Forest::new();
        forest.add(tree);
        self.encode_forest(kernel, &forest, 1)
            .pop()
            .expect("a one-tree forest encodes one tree")
    }

    /// Encodes every tree of `forest` and returns the root hidden states
    /// in the order the trees were added — the only inference entry
    /// point.
    ///
    /// Runs on `kernel`, which must come from [`TreeLstm::kernel`] over
    /// the current weights. No tape is built. Each distinct subtree is
    /// evaluated once, level by level, a level's subtrees spread over up
    /// to `threads` workers (`0` = auto); every result is bit-identical
    /// to the root value of [`TreeLstm::encode`] on that tree alone, at
    /// every thread count. Only this path is instrumented; the tape used
    /// by training stays bare.
    ///
    /// # Panics
    ///
    /// Panics if a node label is outside the embedding vocabulary.
    pub fn encode_forest(
        &self,
        kernel: &TreeLstmKernel,
        forest: &Forest,
        threads: usize,
    ) -> Vec<Vec<f32>> {
        debug_assert_eq!(kernel.hidden, self.hidden, "kernel of another encoder");
        let timer = asteria_obs::timer();
        let out = kernel.encode_forest(forest, threads);
        timer.observe_seconds("asteria_encode_seconds", &[]);
        asteria_obs::counter_add("asteria_treelstm_cells_total", &[], forest.cells() as u64);
        asteria_obs::counter_add(
            "asteria_treelstm_cells_evaluated_total",
            &[],
            forest.classes() as u64,
        );
        out
    }
}

/// Gate blocks per node, each `hidden` rows: the two forget gates, the
/// input and output gates, and the cached state, in that order.
const GATES: usize = 5;

/// One worker's buffers for evaluating cells.
struct CellScratch {
    left: ChildScratch,
    right: ChildScratch,
    gates: Vec<f32>,
    /// The cell's output `[h; c]`.
    state: Vec<f32>,
}

/// What one child side of a cell reads and computes.
struct ChildScratch {
    /// The child's `[h; c]`, copied out of the shared buffer.
    state: Vec<f32>,
    /// Its `U·h` gate terms.
    u: Vec<f32>,
}

impl CellScratch {
    fn new(h: usize) -> CellScratch {
        let child = || ChildScratch {
            state: vec![0.0; 2 * h],
            u: vec![0.0; GATES * h],
        };
        CellScratch {
            left: child(),
            right: child(),
            gates: vec![0.0; GATES * h],
            state: vec![0.0; 2 * h],
        }
    }
}

/// Copies `out.len()` floats out of `states`, starting at `at`.
fn load(states: &[AtomicU32], at: usize, out: &mut [f32]) {
    for (o, bits) in out.iter_mut().zip(&states[at..]) {
        *o = f32::from_bits(bits.load(Ordering::Relaxed));
    }
}

/// Copies `values` into `states`, starting at `at`.
fn store(states: &[AtomicU32], at: usize, values: &[f32]) {
    for (bits, v) in states[at..].iter().zip(values) {
        bits.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// Inference-only form of a [`TreeLstm`]: the function of
/// [`TreeLstm::encode`], evaluated without a tape and bit for bit equal,
/// once per distinct subtree of a [`Forest`].
///
/// Built once per set of weights by [`TreeLstm::kernel`], it holds
///
/// - the ten `U` matrices, stacked per child side into two column-major
///   `5h × h` blocks, so one matrix–vector product serves all five gates
///   and vectorizes across output rows;
/// - a per-label table of the gates' `W·e` terms, since the embedding `e`
///   depends only on the node label;
/// - the constant `U·init` terms of an absent child;
/// - a per-label table of the `(h, c)` state of a node with neither a
///   left child nor a right sibling.
///
/// Every value is computed in the tape's operation order: each dot
/// product starts from `+0.0` and adds its terms in ascending column
/// order, and gate and cell sums keep the tape's association. The tables
/// live outside the [`ParamStore`], so they never enter
/// [`ParamStore::digest`].
#[derive(Debug, Clone)]
pub struct TreeLstmKernel {
    hidden: usize,
    vocab: usize,
    /// `[U_f_ll; U_f_rl; U_i_l; U_o_l; U_u_l]`: the gate terms in the left
    /// child's hidden state.
    u_left: ColMajor,
    /// `[U_f_lr; U_f_rr; U_i_r; U_o_r; U_u_r]`: the gate terms in the
    /// right child's hidden state.
    u_right: ColMajor,
    /// `u_left · init`, the left-side terms of an absent left child.
    u_left_init: Vec<f32>,
    /// `u_right · init`, the right-side terms of an absent right child.
    u_right_init: Vec<f32>,
    /// `[b_f; b_f; b_i; b_o; b_u]`.
    bias: Vec<f32>,
    /// Per label, `[W_f e; W_f e; W_i e; W_o e; W_u e]`.
    label_we: Vec<f32>,
    /// Per label, the `[h; c]` state of a node without children.
    leaf: Vec<f32>,
    /// Hidden and cell state of an absent child.
    init: Vec<f32>,
}

impl TreeLstmKernel {
    fn new(t: &TreeLstm, store: &ParamStore) -> TreeLstmKernel {
        let h = t.hidden;
        let stack = |ids: [ParamId; GATES]| ColMajor::stack(&ids.map(|id| store.value(id)));
        let u_left = stack([t.u_f_ll, t.u_f_rl, t.u_i_l, t.u_o_l, t.u_u_l]);
        let u_right = stack([t.u_f_lr, t.u_f_rr, t.u_i_r, t.u_o_r, t.u_u_r]);
        let init = match t.leaf_init {
            LeafInit::Zeros => vec![0.0; h],
            LeafInit::Ones => vec![1.0; h],
        };
        let mut u_left_init = vec![0.0; GATES * h];
        u_left.matvec_into(&init, &mut u_left_init);
        let mut u_right_init = vec![0.0; GATES * h];
        u_right.matvec_into(&init, &mut u_right_init);
        let bias = [t.b_f, t.b_f, t.b_i, t.b_o, t.b_u]
            .iter()
            .flat_map(|&id| store.value(id).as_slice().iter().copied())
            .collect();

        // The table holds the tape's own `W·e` products: only the lookup
        // is new, not the arithmetic.
        let vocab = t.emb.vocab();
        let emb = store.value(t.emb.weight());
        let mut label_we = Vec::with_capacity(vocab * GATES * h);
        for label in 0..vocab {
            let e = emb.row_vector(label);
            for id in [t.w_f, t.w_f, t.w_i, t.w_o, t.w_u] {
                label_we.extend_from_slice(store.value(id).matvec(&e).as_slice());
            }
        }

        let mut kernel = TreeLstmKernel {
            hidden: h,
            vocab,
            u_left,
            u_right,
            u_left_init,
            u_right_init,
            bias,
            label_we,
            leaf: Vec::new(),
            init,
        };
        let mut leaf = vec![0.0; vocab * 2 * h];
        let mut gates = vec![0.0; GATES * h];
        for (label, state) in leaf.chunks_exact_mut(2 * h).enumerate() {
            let k = &kernel;
            k.cell(
                label,
                (&k.u_left_init, &k.init),
                (&k.u_right_init, &k.init),
                &mut gates,
                state,
            );
        }
        kernel.leaf = leaf;
        kernel
    }

    /// Evaluates every class of `forest` once, level by level, and
    /// returns the root hidden state of each tree.
    ///
    /// Class states live in one shared buffer of `f32` bits. A class is
    /// written by exactly one worker, and read only by classes of later
    /// levels, after [`asteria_exec::par_levels`]'s barrier has made the
    /// write visible; relaxed atomics keep that sharing safe without
    /// ordering anything themselves.
    ///
    /// # Panics
    ///
    /// Panics if a node label is outside the embedding vocabulary.
    fn encode_forest(&self, forest: &Forest, threads: usize) -> Vec<Vec<f32>> {
        // Checked up front, on the caller's thread, so that no worker
        // panics halfway through a level.
        for label in forest.labels() {
            assert!(
                (label as usize) < self.vocab,
                "embedding index {label} out of range {}",
                self.vocab
            );
        }
        let h = self.hidden;
        let states: Vec<AtomicU32> = (0..forest.classes() * 2 * h)
            .map(|_| AtomicU32::new(0))
            .collect();
        let (order, levels) = forest.levels();
        asteria_exec::par_levels(
            threads,
            &levels,
            || CellScratch::new(h),
            |scratch, i| self.eval_class(forest, order[i], &states, scratch),
        );
        forest
            .roots()
            .iter()
            .map(|&root| {
                let mut out = vec![0.0; h];
                load(&states, root as usize * 2 * h, &mut out);
                out
            })
            .collect()
    }

    /// Evaluates one class from its children's stored states and stores
    /// its `[h; c]`.
    fn eval_class(&self, forest: &Forest, class: u32, states: &[AtomicU32], s: &mut CellScratch) {
        let h = self.hidden;
        let (label, left, right) = forest.node(class);
        let label = label as usize;
        let dst = class as usize * 2 * h;
        if left == ABSENT && right == ABSENT {
            store(states, dst, &self.leaf[label * 2 * h..][..2 * h]);
            return;
        }
        let CellScratch {
            left: left_buf,
            right: right_buf,
            gates,
            state,
        } = s;
        let l = self.child(left, states, &self.u_left, &self.u_left_init, left_buf);
        let r = self.child(right, states, &self.u_right, &self.u_right_init, right_buf);
        self.cell(label, l, r, gates, state);
        store(states, dst, state);
    }

    /// What one child side feeds its parent's cell: its `U·h` gate terms
    /// and its cell state. An absent child contributes the precomputed
    /// `U·init` terms, never nothing: adding a `+0.0` term can change the
    /// sign of a zero.
    fn child<'a>(
        &'a self,
        child: u32,
        states: &[AtomicU32],
        u: &ColMajor,
        u_init: &'a [f32],
        buf: &'a mut ChildScratch,
    ) -> (&'a [f32], &'a [f32]) {
        if child == ABSENT {
            return (u_init, &self.init);
        }
        load(states, child as usize * 2 * self.hidden, &mut buf.state);
        let (h_child, c_child) = buf.state.split_at(self.hidden);
        u.matvec_into(h_child, &mut buf.u);
        (&buf.u, c_child)
    }

    /// One Tree-LSTM cell (eq. 1–7): combines the label's `W·e` terms with
    /// both child sides' `(U·h, c)` and writes `[h; c]` into `state`.
    fn cell(
        &self,
        label: usize,
        (u_l, c_l): (&[f32], &[f32]),
        (u_r, c_r): (&[f32], &[f32]),
        gates: &mut [f32],
        state: &mut [f32],
    ) {
        let h = self.hidden;
        let we = &self.label_we[label * GATES * h..(label + 1) * GATES * h];
        for ((((g, &w), &l), &r), &b) in gates.iter_mut().zip(we).zip(u_l).zip(u_r).zip(&self.bias)
        {
            *g = ((w + l) + r) + b;
        }
        let (sigmoid_gates, cached) = gates.split_at_mut(4 * h);
        for x in sigmoid_gates {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        for x in cached {
            *x = x.tanh();
        }
        let (f_l, rest) = gates.split_at(h);
        let (f_r, rest) = rest.split_at(h);
        let (i, rest) = rest.split_at(h);
        let (o, u) = rest.split_at(h);
        let (h_out, c_out) = state.split_at_mut(h);
        for j in 0..h {
            let c = ((i[j] * u[j]) + (c_l[j] * f_l[j])) + (c_r[j] * f_r[j]);
            c_out[j] = c;
            h_out[j] = o[j] * c.tanh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::binarize;
    use crate::nodes::{AstTree, NodeType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(leaf: LeafInit) -> (ParamStore, TreeLstm) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let t = TreeLstm::new(&mut store, NodeType::VOCAB, 8, 12, leaf, &mut rng);
        (store, t)
    }

    fn small_tree() -> BinTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        let i = t.add(r, NodeType::If);
        t.add(i, NodeType::CmpGt);
        t.add(i, NodeType::Block);
        t.add(r, NodeType::Return);
        binarize(&t)
    }

    #[test]
    fn encoding_has_hidden_dim() {
        let (store, tl) = setup(LeafInit::Zeros);
        let v = tl.encode_to_vec(&tl.kernel(&store), &small_tree());
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn encoding_is_deterministic() {
        let (store, tl) = setup(LeafInit::Zeros);
        let a = tl.encode_to_vec(&tl.kernel(&store), &small_tree());
        let b = tl.encode_to_vec(&tl.kernel(&store), &small_tree());
        assert_eq!(a, b);
    }

    #[test]
    fn different_trees_encode_differently() {
        let (store, tl) = setup(LeafInit::Zeros);
        let a = tl.encode_to_vec(&tl.kernel(&store), &small_tree());
        let mut t2 = AstTree::with_root(NodeType::Block);
        let r = t2.root();
        t2.add(r, NodeType::While);
        let b = tl.encode_to_vec(&tl.kernel(&store), &binarize(&t2));
        assert_ne!(a, b);
    }

    #[test]
    fn leaf_init_changes_encoding() {
        let (store_z, tl_z) = setup(LeafInit::Zeros);
        let (store_o, tl_o) = setup(LeafInit::Ones);
        // Same seed → same weights; only the leaf init differs.
        let a = tl_z.encode_to_vec(&tl_z.kernel(&store_z), &small_tree());
        let b = tl_o.encode_to_vec(&tl_o.kernel(&store_o), &small_tree());
        assert_ne!(a, b);
    }

    #[test]
    fn node_order_matters() {
        // Binary Tree-LSTM (unlike Child-Sum) distinguishes child order —
        // the reason the paper picks it (§II-C).
        let mut t1 = AstTree::with_root(NodeType::Block);
        let r1 = t1.root();
        t1.add(r1, NodeType::If);
        t1.add(r1, NodeType::Return);
        let mut t2 = AstTree::with_root(NodeType::Block);
        let r2 = t2.root();
        t2.add(r2, NodeType::Return);
        t2.add(r2, NodeType::If);
        let (store, tl) = setup(LeafInit::Zeros);
        let a = tl.encode_to_vec(&tl.kernel(&store), &binarize(&t1));
        let b = tl.encode_to_vec(&tl.kernel(&store), &binarize(&t2));
        assert_ne!(a, b, "sibling order must affect the encoding");
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let (mut store, tl) = setup(LeafInit::Zeros);
        let tree = small_tree();
        let mut g = Graph::new();
        let h = tl.encode(&mut g, &store, &tree);
        let loss = g.mse_loss(h, Tensor::zeros(12, 1));
        g.backward(loss, &mut store);
        let mut nonzero = 0;
        for id in store.ids().collect::<Vec<_>>() {
            if store.grad(id).as_slice().iter().any(|v| *v != 0.0) {
                nonzero += 1;
            }
        }
        // Every Tree-LSTM parameter should receive gradient (the embedding
        // table only at used rows, still nonzero overall).
        assert!(nonzero >= 18, "only {nonzero} params got gradients");
    }

    #[test]
    fn gradcheck_on_tiny_tree() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let tl = TreeLstm::new(&mut store, 6, 3, 4, LeafInit::Zeros, &mut rng);
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        t.add(r, NodeType::If);
        let tree = binarize(&t);
        asteria_nn::gradcheck::check_gradients(&mut store, 1e-2, 5e-2, |store, g| {
            let h = tl.encode(g, store, &tree);
            g.mse_loss(h, Tensor::full(4, 1, 0.3))
        });
    }
}
