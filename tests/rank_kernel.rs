//! The rank slab against the per-pair reference path, bit for bit.
//!
//! The reference scores every index entry with `function_similarity`
//! and stable-sorts by descending score, NaN last, then cuts to `top_k`.
//! `SearchSession::rank` and `SearchSession::rank_top_k` must return the
//! same entries in the same order with the same score bits, for every
//! cutoff, at 1/2/8 threads, under both similarity heads. Indexes span
//! the slab's tile edges, callee counts across the `exp` underflow
//! (e^(−d) rounds to `+0.0` from d = 746 on), NaN and ±∞ vectors, and
//! heavily replicated entries.
//!
//! A NaN score matches any NaN: Rust leaves the sign and payload of a
//! NaN result unspecified, and the compiler may swap the operands of an
//! addition, which changes which input NaN an x86 SSE instruction passes
//! through. Every other score is compared by its exact bits.

use std::cmp::Ordering;
use std::sync::Arc;

use asteria::core::{
    function_similarity, AsteriaModel, EncodingSlab, ExtractionReport, FunctionEncoding,
    ModelConfig, SiameseKind, SLAB_TILE,
};
use asteria::vulnsearch::{IndexedFunction, SearchIndex, SearchSession};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const HIDDEN: usize = 6;

fn model(head: SiameseKind, seed: u64) -> Arc<AsteriaModel> {
    Arc::new(AsteriaModel::new(ModelConfig {
        hidden_dim: HIDDEN,
        embed_dim: 4,
        head,
        seed,
        ..Default::default()
    }))
}

/// The documented ranking rule: descending score, NaN last.
fn rank_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.total_cmp(&a),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// A score's bits, with every NaN mapped to one key.
fn key(score: f64) -> u64 {
    if score.is_nan() {
        f64::NAN.to_bits()
    } else {
        score.to_bits()
    }
}

/// `(index, score key)` of the reference ranking's first `top_k`.
fn reference(
    model: &AsteriaModel,
    index: &SearchIndex,
    query: &FunctionEncoding,
    top_k: usize,
) -> Vec<(usize, u64)> {
    let mut hits: Vec<(usize, f64)> = index
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (i, function_similarity(model, query, &f.encoding)))
        .collect();
    hits.sort_by(|a, b| rank_order(a.1, b.1));
    if top_k > 0 {
        hits.truncate(top_k);
    }
    hits.into_iter().map(|(i, s)| (i, key(s))).collect()
}

/// xorshift64: every input of a case follows from its seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A component: mostly in [-2, 2), sometimes one of the values that
    /// break arithmetic (`special` in 1024 of the time).
    fn component(&mut self, special: u64) -> f32 {
        if self.below(1024) < special {
            [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0][self.below(5) as usize]
        } else {
            (self.below(1 << 20) as f32 / (1 << 18) as f32) - 2.0
        }
    }

    fn vector(&mut self, special: u64) -> Vec<f32> {
        (0..HIDDEN).map(|_| self.component(special)).collect()
    }
}

fn encoding(name: String, vector: Vec<f32>, callee_count: usize) -> FunctionEncoding {
    FunctionEncoding {
        name,
        vector,
        callee_count,
    }
}

fn index_of(encodings: Vec<FunctionEncoding>) -> SearchIndex {
    SearchIndex {
        functions: encodings
            .into_iter()
            .enumerate()
            .map(|(i, encoding)| IndexedFunction {
                image: 0,
                binary: i,
                name: encoding.name.clone(),
                encoding,
                ground_truth: None,
            })
            .collect(),
        extraction: ExtractionReport::default(),
    }
}

/// A seeded index of `n` entries: callee counts from a narrow range
/// (few, large buckets), a wide one (0..2000, past the underflow), or a
/// mix; optionally `n` entries that replicate a small base.
fn random_index(g: &mut Gen, n: usize, special: u64) -> SearchIndex {
    let callee_range = [4, 40, 2000][g.below(3) as usize];
    let base = if g.below(3) == 0 {
        1 + g.below(5) as usize
    } else {
        n.max(1)
    };
    let pool: Vec<(Vec<f32>, usize)> = (0..base)
        .map(|_| (g.vector(special), g.below(callee_range) as usize))
        .collect();
    index_of(
        (0..n)
            .map(|i| {
                let (v, c) = pool[i % base].clone();
                encoding(format!("f{i}"), v, c)
            })
            .collect(),
    )
}

/// Checks `rank` and `rank_top_k` against the reference for every
/// cutoff and thread count.
fn check(model: &Arc<AsteriaModel>, index: SearchIndex, query: &FunctionEncoding) {
    let n = index.len();
    let cutoffs = [0, 1, 10, n.saturating_sub(1), n, n + 7];
    let want: Vec<Vec<(usize, u64)>> = cutoffs
        .iter()
        .map(|&k| reference(model, &index, query, k))
        .collect();
    let mut session = SearchSession::new(Arc::clone(model), index);
    for threads in THREAD_COUNTS {
        session = session.threads(threads);
        let bits = |hits: Vec<asteria::vulnsearch::SearchHit>| -> Vec<(usize, u64)> {
            hits.into_iter()
                .map(|h| (h.function, key(h.score)))
                .collect()
        };
        assert_eq!(
            bits(session.rank(query)),
            want[0],
            "full rank, n = {n}, {threads} threads"
        );
        for (&k, want) in cutoffs.iter().zip(&want) {
            assert_eq!(
                bits(session.rank_top_k(query, k)),
                *want,
                "top_k = {k}, n = {n}, {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random indexes around the tile edges and beyond, both heads.
    #[test]
    fn slab_ranking_matches_the_reference(
        seed in 1u64..u64::MAX,
        size in 0usize..9,
        special in 0u64..3,
    ) {
        let n = [0, 1, 5, SLAB_TILE - 1, SLAB_TILE, SLAB_TILE + 1, 3 * SLAB_TILE + 1, 150, 400][size];
        let mut g = Gen(seed);
        // `special` = 0: finite vectors only; 1–2: some NaN, ±∞ and ±0.
        let special = [0, 40, 200][special as usize];
        let index = random_index(&mut g, n, special);
        let query_callees = match index.functions.get(g.below(n.max(1) as u64) as usize) {
            Some(f) if g.below(2) == 0 => f.encoding.callee_count,
            _ => g.below(2100) as usize,
        };
        let query = encoding("q".into(), g.vector(special), query_callees);
        for head in [SiameseKind::Classification, SiameseKind::Regression] {
            check(&model(head, seed % 7), index.clone(), &query);
        }
    }
}

#[test]
fn slabs_ranked_over_several_workers_match_the_reference() {
    // Smaller slabs are ranked on the calling thread alone; from 1,024
    // panels on, the panels are split between workers.
    let n = 1100 * SLAB_TILE + 3;
    for seed in [5, 6] {
        let mut g = Gen(seed);
        let index = random_index(&mut g, n, 40);
        let query_callees = index.functions[g.below(n as u64) as usize]
            .encoding
            .callee_count;
        let query = encoding("q".into(), g.vector(0), query_callees);
        for head in [SiameseKind::Classification, SiameseKind::Regression] {
            check(&model(head, seed), index.clone(), &query);
        }
    }
}

#[test]
fn callee_factor_underflow_and_zero_ties() {
    // Distances 0, 745, 746, 747 and 2000 from the query: the last three
    // have a factor of exactly +0.0, so their scores tie at zero and must
    // keep index order behind every positive score.
    let mut g = Gen(0x5EED);
    let counts = [0usize, 745, 746, 747, 2000, 746, 0, 2000, 745, 1];
    let index = index_of(
        (0..40)
            .map(|i| encoding(format!("f{i}"), g.vector(0), counts[i % counts.len()]))
            .collect(),
    );
    for callees in [0, 746, 2000, 5000] {
        let query = encoding("q".into(), g.vector(0), callees);
        for head in [SiameseKind::Classification, SiameseKind::Regression] {
            check(&model(head, 3), index.clone(), &query);
        }
    }
}

#[test]
fn nan_query_and_nan_entries_rank_last_in_index_order() {
    let mut g = Gen(77);
    let mut encodings: Vec<FunctionEncoding> = (0..3 * SLAB_TILE + 3)
        .map(|i| encoding(format!("f{i}"), g.vector(0), i % 3))
        .collect();
    for i in [2, SLAB_TILE, 2 * SLAB_TILE + 1] {
        encodings[i].vector = vec![f32::NAN; HIDDEN];
    }
    let index = index_of(encodings);
    for head in [SiameseKind::Classification, SiameseKind::Regression] {
        let model = model(head, 1);
        check(&model, index.clone(), &encoding("q".into(), g.vector(0), 1));
        // Every score NaN: the cutoff keeps the lowest indexes.
        check(
            &model,
            index.clone(),
            &encoding("q".into(), vec![f32::NAN; HIDDEN], 1),
        );
    }
}

#[test]
fn replicated_index_ties_keep_index_order() {
    // The shape of the benchmark's large index: a small base copied back
    // to back, so every score repeats once per copy.
    let mut g = Gen(4242);
    let base: Vec<FunctionEncoding> = (0..7)
        .map(|i| encoding(format!("f{i}"), g.vector(0), i % 3))
        .collect();
    let index = index_of((0..300).map(|i| base[i % base.len()].clone()).collect());
    for callees in [0, 1, 2, 9] {
        let query = encoding("q".into(), g.vector(0), callees);
        check(
            &model(SiameseKind::Classification, 2),
            index.clone(),
            &query,
        );
    }
}

#[test]
fn regression_head_is_never_pruned() {
    // The regression head has no bound of 1: with a query whose squares
    // underflow and an entry whose squares overflow, `na * nb` is NaN,
    // the `1e-7` floor takes over and the cosine explodes. That entry,
    // one callee away from the query and in a panel of its own, must
    // still rank first, ahead of the distance-0 entries that fill the
    // top k before it is reached.
    let mut g = Gen(31337);
    let mut encodings: Vec<FunctionEncoding> = (0..2 * SLAB_TILE)
        .map(|i| encoding(format!("f{i}"), g.vector(0), 0))
        .collect();
    encodings.push(encoding("huge".into(), vec![1e30; HIDDEN], 1));
    let query = encoding("q".into(), vec![1e-23; HIDDEN], 0);
    let model = model(SiameseKind::Regression, 4);
    let index = index_of(encodings);
    let top = reference(&model, &index, &query, 1);
    assert_eq!(top[0].0, 2 * SLAB_TILE, "the degenerate entry must win");
    check(&model, index, &query);
}

#[test]
fn tile_kernel_matches_per_pair_similarity_bits() {
    let mut g = Gen(99);
    for head in [SiameseKind::Classification, SiameseKind::Regression] {
        let model = model(head, 5);
        let entries: Vec<Vec<f32>> = (0..2 * SLAB_TILE + 5).map(|_| g.vector(100)).collect();
        let slab = EncodingSlab::new(HIDDEN, entries.iter().map(Vec::as_slice));
        for _ in 0..20 {
            let q = g.vector(100);
            let scorer = model.query_scorer(&q);
            for tile in 0..slab.tiles() {
                let got = scorer.score_tile(&slab, tile);
                for (lane, &m) in got.iter().enumerate() {
                    let Some(b) = entries.get(tile * SLAB_TILE + lane) else {
                        break;
                    };
                    let want = model.similarity_from_encodings(&q, b);
                    assert_eq!(
                        key(m.into()),
                        key(want.into()),
                        "{head:?} tile {tile} lane {lane}"
                    );
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "encoding size mismatch")]
fn session_rejects_a_wrong_dimension_index() {
    let mut g = Gen(1);
    let mut encodings: Vec<FunctionEncoding> = (0..3)
        .map(|i| encoding(format!("f{i}"), g.vector(0), 0))
        .collect();
    encodings[1].vector.pop();
    SearchSession::new(model(SiameseKind::Classification, 0), index_of(encodings));
}
