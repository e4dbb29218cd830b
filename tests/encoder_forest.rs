//! Forest encoding — each distinct subtree of many trees evaluated once —
//! must be **bit-identical** to the autograd tape run on each tree
//! alone: on forests whose trees share grafted subtrees, on twin trees
//! that differ only in a child's side or in one label, on repeated and
//! one-node trees, under both leaf initializations, at every thread
//! count, and on every tree of the default firmware corpus.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asteria::core::{
    binarize, extract_binary, AstTree, AsteriaModel, BinTree, Forest, LeafInit, ModelConfig,
    NodeType, SiameseHead, TreeLstm, DEFAULT_INLINE_BETA,
};
use asteria::nn::{Graph, ParamStore};
use asteria::vulnsearch::{build_firmware_corpus, vulnerability_library, FirmwareConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The root hidden state computed on the autograd tape.
fn tape(tl: &TreeLstm, store: &ParamStore, tree: &BinTree) -> Vec<u32> {
    let mut g = Graph::new();
    let h = tl.encode(&mut g, store, tree);
    bits(g.value(h).as_slice())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An n-ary tree to build ASTs from: grafting clones a subtree.
#[derive(Debug, Clone)]
struct Nary {
    kind: NodeType,
    kids: Vec<Nary>,
}

impl Nary {
    fn leaf(kind: NodeType) -> Nary {
        Nary {
            kind,
            kids: Vec::new(),
        }
    }

    fn node(kind: NodeType, kids: Vec<Nary>) -> Nary {
        Nary { kind, kids }
    }

    fn binarize(&self) -> BinTree {
        let mut t = AstTree::with_root(self.kind);
        let mut stack = vec![(t.root(), self)];
        while let Some((id, n)) = stack.pop() {
            for kid in &n.kids {
                stack.push((t.add(id, kid.kind), kid));
            }
        }
        binarize(&t)
    }

    fn size(&self) -> usize {
        1 + self.kids.iter().map(Nary::size).sum::<usize>()
    }

    /// The `k`-th node in pre-order, mutably.
    fn nth_mut(&mut self, k: usize) -> &mut Nary {
        let mut stack = vec![self];
        let mut seen = 0;
        while let Some(n) = stack.pop() {
            if seen == k {
                return n;
            }
            seen += 1;
            stack.extend(n.kids.iter_mut().rev());
        }
        panic!("tree has fewer than {k} nodes");
    }
}

fn random_kind(rng: &mut StdRng) -> NodeType {
    let all = NodeType::all();
    all[rng.gen_range(0..all.len())]
}

/// A random n-ary tree of about `size` nodes.
fn random_nary(rng: &mut StdRng, size: usize) -> Nary {
    let mut t = Nary::leaf(random_kind(rng));
    for n in 1..size {
        let kind = random_kind(rng);
        t.nth_mut(rng.gen_range(0..n)).kids.push(Nary::leaf(kind));
    }
    t
}

/// Trees that share subtrees the way firmware functions share library
/// code: each is a random trunk with copies of a few pool subtrees
/// grafted under random nodes, at random child positions.
fn grafted_trees(rng: &mut StdRng, trees: usize) -> Vec<BinTree> {
    let pool: Vec<Nary> = (0..6)
        .map(|_| {
            let size = rng.gen_range(1..25);
            random_nary(rng, size)
        })
        .collect();
    (0..trees)
        .map(|_| {
            let trunk_size = rng.gen_range(1..30);
            let mut t = random_nary(rng, trunk_size);
            for _ in 0..rng.gen_range(0..5) {
                let at = rng.gen_range(0..t.size());
                let graft = pool[rng.gen_range(0..pool.len())].clone();
                let host = t.nth_mut(at);
                let pos = rng.gen_range(0..=host.kids.len());
                host.kids.insert(pos, graft);
            }
            t.binarize()
        })
        .collect()
}

/// A fresh encoder over `leaf` at small dimensions.
fn encoder(leaf: LeafInit, seed: u64) -> (ParamStore, TreeLstm) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let tl = TreeLstm::new(&mut store, NodeType::VOCAB, 8, 12, leaf, &mut rng);
    (store, tl)
}

/// Encodes `trees` as one forest at every thread count and compares
/// each root with the tape, under both leaf initializations.
fn assert_forest_matches_tape(trees: &[BinTree], what: &str) {
    for leaf in [LeafInit::Zeros, LeafInit::Ones] {
        let (store, tl) = encoder(leaf, 0xF0 + trees.len() as u64);
        let kernel = tl.kernel(&store);
        let mut forest = Forest::new();
        for (i, t) in trees.iter().enumerate() {
            assert_eq!(forest.add(t), i);
        }
        let want: Vec<Vec<u32>> = trees.iter().map(|t| tape(&tl, &store, t)).collect();
        for threads in THREAD_COUNTS {
            let got: Vec<Vec<u32>> = tl
                .encode_forest(&kernel, &forest, threads)
                .iter()
                .map(|v| bits(v))
                .collect();
            assert_eq!(got.len(), trees.len(), "{what}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{what}: tree {i}, {leaf:?}, {threads} threads");
            }
        }
    }
}

#[test]
fn grafted_random_forests_match_the_tape() {
    let mut rng = StdRng::seed_from_u64(0xF02E57);
    for case in 0..12 {
        let trees = grafted_trees(&mut rng, 1 + case * 4);
        let mut forest = Forest::new();
        for t in &trees {
            forest.add(t);
        }
        if trees.len() > 8 {
            assert!(
                forest.classes() < forest.cells(),
                "case {case}: grafts must share subtrees"
            );
        }
        assert_forest_matches_tape(&trees, &format!("grafted case {case}"));
    }
}

#[test]
fn twins_differing_by_child_side_or_one_label_match_the_tape() {
    use NodeType::{Asg, Block, Call, If, Num, Return, Var};
    let sub = |k| Nary::node(k, vec![Nary::leaf(Var), Nary::leaf(Num)]);
    let twins = [
        // `Return` as the left child of `If` (its first child) …
        Nary::node(Block, vec![Nary::node(If, vec![Nary::leaf(Return)])]),
        // … and as its right child (its next sibling).
        Nary::node(Block, vec![Nary::leaf(If), Nary::leaf(Return)]),
        // Two subtrees swapping sides under one node.
        Nary::node(Block, vec![Nary::node(If, vec![sub(Call)]), sub(Asg)]),
        Nary::node(Block, vec![Nary::node(If, vec![sub(Asg)]), sub(Call)]),
        // One label apart: a leaf, then an inner node.
        Nary::node(Block, vec![sub(Call), Nary::leaf(Num)]),
        Nary::node(Block, vec![sub(Call), Nary::leaf(Var)]),
        Nary::node(Block, vec![sub(Asg), Nary::leaf(Var)]),
    ];
    let trees: Vec<BinTree> = twins.iter().map(Nary::binarize).collect();
    // Every pair of twins must encode differently, or the test could
    // not tell them apart.
    let (store, tl) = encoder(LeafInit::Zeros, 1);
    let kernel = tl.kernel(&store);
    for pair in trees.windows(2) {
        assert_ne!(
            tl.encode_to_vec(&kernel, &pair[0]),
            tl.encode_to_vec(&kernel, &pair[1])
        );
    }
    assert_forest_matches_tape(&trees, "twins");
}

#[test]
fn repeated_trees_one_node_trees_and_the_empty_forest() {
    let mut rng = StdRng::seed_from_u64(77);
    let big = random_nary(&mut rng, 60).binarize();
    let one = |k| Nary::leaf(k).binarize();
    let trees = vec![
        big.clone(),
        one(NodeType::Return),
        big.clone(),
        one(NodeType::Return),
        one(NodeType::Num),
        big,
    ];
    assert_forest_matches_tape(&trees, "repeats");
    assert_forest_matches_tape(&[one(NodeType::Block)], "a single one-node tree");

    let (store, tl) = encoder(LeafInit::Zeros, 2);
    let kernel = tl.kernel(&store);
    for threads in THREAD_COUNTS {
        assert!(tl
            .encode_forest(&kernel, &Forest::new(), threads)
            .is_empty());
    }
}

/// A store laid out exactly like `AsteriaModel::new(config)`'s — the
/// encoder's parameters, then the head's — holding `model`'s weights.
fn mirror(model: &AsteriaModel) -> (ParamStore, TreeLstm) {
    let config = model.config();
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tl = TreeLstm::new(
        &mut store,
        config.vocab,
        config.embed_dim,
        config.hidden_dim,
        config.leaf_init,
        &mut rng,
    );
    SiameseHead::new(&mut store, config.head, config.hidden_dim, &mut rng);
    store
        .load(model.snapshot().as_slice())
        .expect("same layout");
    (store, tl)
}

#[test]
fn the_default_corpus_as_one_forest_matches_the_tape() {
    let firmware = build_firmware_corpus(&FirmwareConfig::default(), &vulnerability_library());
    let trees: Vec<BinTree> = firmware
        .iter()
        .flat_map(|image| &image.binaries)
        .flat_map(|b| extract_binary(b, DEFAULT_INLINE_BETA).into_functions())
        .map(|f| f.tree)
        .collect();
    assert!(trees.len() > 100, "corpus too small: {}", trees.len());
    let model = AsteriaModel::new(ModelConfig::default());
    let (store, tl) = mirror(&model);
    let want: Vec<Vec<u32>> = trees.iter().map(|t| tape(&tl, &store, t)).collect();
    let mut forest = Forest::new();
    for t in &trees {
        forest.add(t);
    }
    assert!(forest.classes() * 2 < forest.cells(), "corpus trees share");
    for threads in THREAD_COUNTS {
        let got = model.encode_forest(&forest, threads);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(&bits(g), w, "corpus tree {i} at {threads} threads");
        }
    }
}
