//! Training loop for the Siamese Tree-LSTM (paper §IV-A).
//!
//! The paper trains with BCELoss + AdaGrad at batch size 1 (tree-shaped
//! computation cannot batch), for 60 epochs, keeping the weights of the
//! best-performing epoch. This module reproduces that protocol with
//! configurable scale.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::binarize::BinTree;
use crate::model::AsteriaModel;

/// One labelled training example: two ASTs and whether they are
/// homologous.
#[derive(Debug, Clone)]
pub struct TrainPair {
    /// First AST.
    pub a: BinTree,
    /// Second AST.
    pub b: BinTree,
    /// Ground-truth label (+1 homologous / −1 non-homologous in the
    /// paper's notation).
    pub homologous: bool,
}

/// Training options.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of passes over the training pairs.
    pub epochs: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// When true, logs each epoch's mean loss (and validation score, if
    /// a validator is supplied) to stderr.
    pub verbose: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 10,
            seed: 7,
            verbose: false,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean pair loss.
    pub mean_loss: f32,
}

/// Runs one epoch over (shuffled) pairs; returns the mean loss.
pub fn train_epoch(model: &mut AsteriaModel, pairs: &[TrainPair], rng: &mut StdRng) -> f32 {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.shuffle(rng);
    let mut total = 0.0f64;
    for idx in order {
        let p = &pairs[idx];
        total += model.train_pair(&p.a, &p.b, p.homologous) as f64;
    }
    (total / pairs.len().max(1) as f64) as f32
}

/// Trains a model, optionally validating after each epoch and restoring
/// the best-validation weights at the end (the paper's "optimal model
/// weights" protocol, §IV-B).
///
/// `validate` maps the current model to a score where larger is better
/// (typically AUC on a held-out split). Pass `None` to keep final-epoch
/// weights.
pub fn train(
    model: &mut AsteriaModel,
    pairs: &[TrainPair],
    options: &TrainOptions,
    mut validate: Option<&mut dyn FnMut(&AsteriaModel) -> f64>,
) -> Vec<EpochStats> {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut stats = Vec::with_capacity(options.epochs);
    let mut best_score = f64::NEG_INFINITY;
    let mut best_weights: Option<Vec<u8>> = None;
    for epoch in 0..options.epochs {
        let mean_loss = train_epoch(model, pairs, &mut rng);
        asteria_obs::gauge_set("asteria_train_epoch", &[], epoch as f64);
        asteria_obs::gauge_set("asteria_train_loss", &[], mean_loss as f64);
        if options.verbose {
            asteria_obs::info!("epoch {epoch}: loss {mean_loss:.4}");
        }
        if let Some(validate) = validate.as_deref_mut() {
            let score = validate(model);
            asteria_obs::gauge_set("asteria_train_validation", &[], score);
            if options.verbose {
                asteria_obs::info!("epoch {epoch}: validation {score:.4}");
            }
            if score > best_score {
                best_score = score;
                best_weights = Some(model.snapshot());
            }
        }
        stats.push(EpochStats { epoch, mean_loss });
    }
    if let Some(w) = best_weights {
        // This snapshot came from the same model instance, so a mismatch
        // is impossible (unlike weights loaded from disk).
        model.restore(&w).expect("own snapshot matches");
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::binarize;
    use crate::model::ModelConfig;
    use crate::nodes::{AstTree, NodeType};

    fn tree(kinds: &[NodeType]) -> BinTree {
        let mut t = AstTree::with_root(NodeType::Block);
        let r = t.root();
        for k in kinds {
            let n = t.add(r, *k);
            t.add(n, NodeType::Var);
        }
        binarize(&t)
    }

    fn toy_pairs() -> Vec<TrainPair> {
        let family_a = [
            tree(&[NodeType::If, NodeType::Return]),
            tree(&[NodeType::If, NodeType::Return]),
        ];
        let family_b = [
            tree(&[NodeType::While, NodeType::AsgAdd, NodeType::Call]),
            tree(&[NodeType::While, NodeType::AsgAdd, NodeType::Call]),
        ];
        vec![
            TrainPair {
                a: family_a[0].clone(),
                b: family_a[1].clone(),
                homologous: true,
            },
            TrainPair {
                a: family_b[0].clone(),
                b: family_b[1].clone(),
                homologous: true,
            },
            TrainPair {
                a: family_a[0].clone(),
                b: family_b[0].clone(),
                homologous: false,
            },
            TrainPair {
                a: family_a[1].clone(),
                b: family_b[1].clone(),
                homologous: false,
            },
        ]
    }

    fn small_model() -> AsteriaModel {
        AsteriaModel::new(ModelConfig {
            embed_dim: 8,
            hidden_dim: 12,
            learning_rate: 0.1,
            ..Default::default()
        })
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut m = small_model();
        let pairs = toy_pairs();
        let stats = train(
            &mut m,
            &pairs,
            &TrainOptions {
                epochs: 25,
                ..Default::default()
            },
            None,
        );
        assert_eq!(stats.len(), 25);
        let first = stats.first().unwrap().mean_loss;
        let last = stats.last().unwrap().mean_loss;
        assert!(last < first * 0.7, "loss did not drop: {first} → {last}");
    }

    #[test]
    fn best_weights_are_restored() {
        let mut m = small_model();
        let pairs = toy_pairs();
        // A validation score that peaks at epoch 2 and then degrades
        // forces restoration of the epoch-2 snapshot.
        let mut call = 0usize;
        let mut scores = vec![0.1, 0.5, 0.9, 0.2, 0.1].into_iter();
        let mut snapshots: Vec<Vec<u8>> = Vec::new();
        let mut validate = |m: &AsteriaModel| -> f64 {
            call += 1;
            snapshots.push(m.snapshot());
            scores.next().unwrap_or(0.0)
        };
        train(
            &mut m,
            &pairs,
            &TrainOptions {
                epochs: 5,
                ..Default::default()
            },
            Some(&mut validate),
        );
        assert_eq!(call, 5);
        // Final weights must equal the epoch-3 (index 2) snapshot.
        assert_eq!(m.snapshot(), snapshots[2]);
    }

    #[test]
    fn trained_model_classifies_families() {
        let mut m = small_model();
        let pairs = toy_pairs();
        train(
            &mut m,
            &pairs,
            &TrainOptions {
                epochs: 40,
                ..Default::default()
            },
            None,
        );
        let pos = m.similarity(&pairs[0].a, &pairs[0].b);
        let neg = m.similarity(&pairs[2].a, &pairs[2].b);
        assert!(pos > neg, "pos={pos} neg={neg}");
    }
}
