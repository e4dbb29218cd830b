//! The tape-free Tree-LSTM inference kernel must be **bit-identical** to
//! the autograd tape it replaces: on random trees of every shape, on
//! every tree the firmware corpus yields at any thread count, and after
//! the weights change under a cached kernel (a training step, a restore).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asteria::core::{
    binarize, extract_binary, AstTree, AsteriaModel, BinTree, LeafInit, ModelConfig, NodeType,
    SiameseHead, TreeLstm, DEFAULT_INLINE_BETA,
};
use asteria::nn::{Graph, ParamStore};
use asteria::vulnsearch::{build_firmware_corpus, vulnerability_library, FirmwareConfig};

/// The root hidden state computed on the autograd tape.
fn tape(tl: &TreeLstm, store: &ParamStore, tree: &BinTree) -> Vec<f32> {
    let mut g = Graph::new();
    let h = tl.encode(&mut g, store, tree);
    g.value(h).as_slice().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random n-ary AST of `size` nodes over the whole label space: every
/// node hangs off a uniformly chosen earlier node, so the trees range
/// from long sibling chains to deep spines.
fn random_tree(rng: &mut StdRng, size: usize) -> BinTree {
    let labels = NodeType::all();
    let mut t = AstTree::with_root(labels[rng.gen_range(0..labels.len())]);
    for n in 1..size {
        let parent = rng.gen_range(0..n) as u32;
        t.add(parent, labels[rng.gen_range(0..labels.len())]);
    }
    binarize(&t)
}

/// Every tree extracted from the default firmware corpus.
fn corpus_trees() -> Vec<BinTree> {
    let firmware = build_firmware_corpus(&FirmwareConfig::default(), &vulnerability_library());
    firmware
        .iter()
        .flat_map(|image| &image.binaries)
        .flat_map(|b| extract_binary(b, DEFAULT_INLINE_BETA).into_functions())
        .map(|f| f.tree)
        .collect()
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
    assert_eq!(store.digest(), model.weights_digest(), "mirror diverged");
    (store, tl)
}

/// Kernel and tape agree on `model`'s current weights for every tree.
fn assert_model_matches_tape(model: &AsteriaModel, trees: &[BinTree], when: &str) {
    let (store, tl) = mirror(model);
    for (i, t) in trees.iter().enumerate() {
        assert_eq!(
            bits(&model.encode(t)),
            bits(&tape(&tl, &store, t)),
            "tree {i} {when}"
        );
    }
}

#[test]
fn random_trees_match_the_tape_bit_for_bit() {
    for (embed, hidden) in [(3, 4), (8, 12), (16, 32)] {
        for leaf in [LeafInit::Zeros, LeafInit::Ones] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(0x7EE5 + hidden as u64);
            let tl = TreeLstm::new(&mut store, NodeType::VOCAB, embed, hidden, leaf, &mut rng);
            let kernel = tl.kernel(&store);
            for case in 0..60 {
                let tree = random_tree(&mut rng, 1 + case * 199 / 59);
                assert_eq!(
                    bits(&tl.encode_to_vec(&kernel, &tree)),
                    bits(&tape(&tl, &store, &tree)),
                    "dims ({embed},{hidden}) {leaf:?} tree of {} nodes",
                    tree.size()
                );
            }
        }
    }
}

#[test]
fn saturated_weights_match_the_tape_bit_for_bit() {
    // Scaled-up weights drive the gates into saturation, where sigmoid
    // outputs hit exact 0/1 and products produce signed zeros.
    for leaf in [LeafInit::Zeros, LeafInit::Ones] {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(99);
        let tl = TreeLstm::new(&mut store, NodeType::VOCAB, 8, 12, leaf, &mut rng);
        for id in store.ids().collect::<Vec<_>>() {
            let scaled = store.value(id).map(|w| w * 40.0);
            *store.value_mut(id) = scaled;
        }
        let kernel = tl.kernel(&store);
        for size in [1, 2, 3, 17, 120] {
            let tree = random_tree(&mut rng, size);
            assert_eq!(
                bits(&tl.encode_to_vec(&kernel, &tree)),
                bits(&tape(&tl, &store, &tree)),
                "{leaf:?} tree of {size} nodes"
            );
        }
    }
}

#[test]
fn corpus_trees_match_the_tape_at_every_thread_count() {
    let model = AsteriaModel::new(ModelConfig::default());
    let trees = corpus_trees();
    assert!(trees.len() > 100, "corpus too small: {}", trees.len());
    let (store, tl) = mirror(&model);
    let reference: Vec<Vec<u32>> = trees.iter().map(|t| bits(&tape(&tl, &store, t))).collect();
    for threads in [1, 2, 8] {
        let encoded = asteria::exec::par_map_threads(threads, &trees, |t| bits(&model.encode(t)));
        for (i, (k, r)) in encoded.iter().zip(&reference).enumerate() {
            assert_eq!(k, r, "corpus tree {i} at {threads} threads");
        }
    }
}

#[test]
fn cached_kernel_follows_training_and_restore() {
    let mut rng = StdRng::seed_from_u64(5);
    let trees: Vec<BinTree> = (0..12).map(|i| random_tree(&mut rng, 1 + 9 * i)).collect();
    let mut model = AsteriaModel::new(ModelConfig {
        embed_dim: 8,
        hidden_dim: 12,
        ..Default::default()
    });
    let before = model.snapshot();
    assert_model_matches_tape(&model, &trees, "on fresh weights");

    // The kernel built above is now stale; the next encode must not
    // reuse it.
    model.train_pair(&trees[3], &trees[7], false);
    assert_model_matches_tape(&model, &trees, "after a train step");

    model.restore(&before).expect("own snapshot");
    assert_model_matches_tape(&model, &trees, "after a restore");
    let fresh = AsteriaModel::new(*model.config());
    for t in &trees {
        assert_eq!(bits(&model.encode(t)), bits(&fresh.encode(t)));
    }
}
