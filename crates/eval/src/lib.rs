//! `asteria-eval` — evaluation metrics and summary statistics.
//!
//! Implements the paper's §IV-D measurement machinery: ROC curves from
//! scored pairs, AUC via the Mann–Whitney formulation, TPR at a fixed FPR
//! (the paper quotes TPR at 5% FPR), the Youden index J = TPR − FPR used
//! to pick the vulnerability-search threshold (§V), and CDF construction
//! for the Fig. 10(a) AST-size study. The Fig. 10(b)/(c) timings come
//! from `asteria-obs` span records in the bench harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod stats;

pub use metrics::{auc, roc_curve, tpr_at_fpr, youden_threshold, RocPoint, ScoredPair};
pub use stats::{cdf_points, percentile, Summary};
