//! Function-pair construction and train/test splitting (paper §IV-B).
//!
//! Homologous pairs are cross-architecture variants of the same
//! `(package, function)` identity; non-homologous pairs mix different
//! identities. The six architecture combinations of Table III are all
//! supported, both for the pair-wise experiments (Fig. 7) and the mixed
//! experiment (Fig. 6).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use asteria_compiler::Arch;

use crate::corpus::Corpus;

/// A labelled function pair (indices into [`Corpus::instances`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// First instance index.
    pub a: usize,
    /// Second instance index.
    pub b: usize,
    /// Ground truth: +1 (homologous) or −1 in the paper's notation.
    pub homologous: bool,
}

/// The six cross-architecture combinations of Table III.
pub const ARCH_COMBINATIONS: [(Arch, Arch); 6] = [
    (Arch::X86, Arch::Arm),
    (Arch::X86, Arch::Ppc),
    (Arch::X86, Arch::X64),
    (Arch::Arm, Arch::Ppc),
    (Arch::Arm, Arch::X64),
    (Arch::Ppc, Arch::X64),
];

/// Pair-sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct PairConfig {
    /// Homologous pairs to sample per architecture combination.
    pub positives_per_combination: usize,
    /// Non-homologous pairs per architecture combination.
    pub negatives_per_combination: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for PairConfig {
    fn default() -> Self {
        PairConfig {
            positives_per_combination: 50,
            negatives_per_combination: 50,
            seed: 3,
        }
    }
}

/// A labelled pair set with provenance.
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    /// The pairs.
    pub pairs: Vec<Pair>,
}

impl PairSet {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pairs restricted to one architecture combination (order-free).
    pub fn for_combination(&self, corpus: &Corpus, a: Arch, b: Arch) -> PairSet {
        let pairs = self
            .pairs
            .iter()
            .filter(|p| {
                let (x, y) = (corpus.instances[p.a].arch, corpus.instances[p.b].arch);
                (x == a && y == b) || (x == b && y == a)
            })
            .copied()
            .collect();
        PairSet { pairs }
    }

    /// Splits into train/test by ratio (the paper uses 8:2), shuffled.
    pub fn split(&self, train_ratio: f64, seed: u64) -> (PairSet, PairSet) {
        let mut pairs = self.pairs.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        pairs.shuffle(&mut rng);
        let cut = ((pairs.len() as f64) * train_ratio).round() as usize;
        let test = pairs.split_off(cut.min(pairs.len()));
        (PairSet { pairs }, PairSet { pairs: test })
    }
}

/// Samples labelled cross-architecture pairs from a corpus.
///
/// For every one of the six architecture combinations: homologous pairs
/// are drawn by picking an identity present on both architectures;
/// non-homologous pairs pick two *different* identities. Sampling without
/// replacement where possible.
pub fn build_pairs(corpus: &Corpus, config: &PairConfig) -> PairSet {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    for (arch_a, arch_b) in ARCH_COMBINATIONS {
        let xs = corpus.instances_for(arch_a);
        let ys = corpus.instances_for(arch_b);
        if xs.is_empty() || ys.is_empty() {
            continue;
        }
        // Positive pairs: identities present on both sides.
        let mut positives: Vec<(usize, usize)> = Vec::new();
        for &x in &xs {
            let idx = corpus.instances[x].identity();
            if let Some(&y) = ys.iter().find(|&&y| corpus.instances[y].identity() == idx) {
                positives.push((x, y));
            }
        }
        positives.shuffle(&mut rng);
        positives.truncate(config.positives_per_combination);
        for (a, b) in &positives {
            out.push(Pair {
                a: *a,
                b: *b,
                homologous: true,
            });
        }
        // Negative pairs: different identities, sampled randomly.
        let mut negatives = 0usize;
        let mut guard = 0usize;
        while negatives < config.negatives_per_combination && guard < 100_000 {
            guard += 1;
            let x = xs[rng.gen_range(0..xs.len())];
            let y = ys[rng.gen_range(0..ys.len())];
            if corpus.instances[x].identity() == corpus.instances[y].identity() {
                continue;
            }
            out.push(Pair {
                a: x,
                b: y,
                homologous: false,
            });
            negatives += 1;
        }
    }
    PairSet { pairs: out }
}

/// Converts pairs into the core crate's training examples.
pub fn to_train_pairs(corpus: &Corpus, set: &PairSet) -> Vec<asteria_core::TrainPair> {
    set.pairs
        .iter()
        .map(|p| asteria_core::TrainPair {
            a: corpus.instances[p.a].extracted.tree.clone(),
            b: corpus.instances[p.b].extracted.tree.clone(),
            homologous: p.homologous,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build_corpus, CorpusConfig};

    fn fixture() -> (Corpus, PairSet) {
        let corpus = build_corpus(&CorpusConfig {
            packages: 3,
            functions_per_package: 5,
            seed: 11,
            ..Default::default()
        });
        let pairs = build_pairs(
            &corpus,
            &PairConfig {
                positives_per_combination: 10,
                negatives_per_combination: 10,
                seed: 1,
            },
        );
        (corpus, pairs)
    }

    #[test]
    fn pairs_cover_all_combinations() {
        let (corpus, pairs) = fixture();
        for (a, b) in ARCH_COMBINATIONS {
            let n = pairs.for_combination(&corpus, a, b).len();
            assert!(n >= 10, "{a}-{b}: only {n} pairs");
        }
    }

    #[test]
    fn labels_match_identity() {
        let (corpus, pairs) = fixture();
        for p in &pairs.pairs {
            let same = corpus.instances[p.a].identity() == corpus.instances[p.b].identity();
            assert_eq!(same, p.homologous);
            assert_ne!(corpus.instances[p.a].arch, corpus.instances[p.b].arch);
        }
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let (_, pairs) = fixture();
        let (train, test) = pairs.split(0.8, 5);
        assert_eq!(train.len() + test.len(), pairs.len());
        let ratio = train.len() as f64 / pairs.len() as f64;
        assert!((ratio - 0.8).abs() < 0.05, "{ratio}");
    }

    #[test]
    fn split_is_deterministic() {
        let (_, pairs) = fixture();
        let (t1, _) = pairs.split(0.8, 5);
        let (t2, _) = pairs.split(0.8, 5);
        assert_eq!(t1.pairs, t2.pairs);
    }

    #[test]
    fn combination_filter_selects_arches() {
        let (corpus, pairs) = fixture();
        let sub = pairs.for_combination(&corpus, Arch::X86, Arch::Arm);
        assert!(!sub.is_empty());
        for p in &sub.pairs {
            let (x, y) = (corpus.instances[p.a].arch, corpus.instances[p.b].arch);
            assert!((x == Arch::X86 && y == Arch::Arm) || (x == Arch::Arm && y == Arch::X86));
        }
    }

    #[test]
    fn to_train_pairs_preserves_labels() {
        let (corpus, pairs) = fixture();
        let tps = to_train_pairs(&corpus, &pairs);
        assert_eq!(tps.len(), pairs.len());
        for (tp, p) in tps.iter().zip(&pairs.pairs) {
            assert_eq!(tp.homologous, p.homologous);
        }
    }
}
