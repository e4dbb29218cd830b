//! `asteria-core` — the paper's contribution: deep learning-based
//! AST-encoding for cross-platform binary code similarity detection.
//!
//! The pipeline follows the paper's Fig. 3 exactly:
//!
//! 1. **AST extraction** — [`pipeline::extract_function`] decompiles a
//!    binary function (via `asteria-decompiler`) into an AST;
//! 2. **preprocessing** — [`digitalize`] maps each node to its Table I
//!    label and [`binarize()`] applies the left-child right-sibling
//!    transform;
//! 3. **encoding** — the Binary [`TreeLstm`] (eq. 1–7) encodes the tree
//!    bottom-up into a semantic vector; a [`Forest`] lets a whole index
//!    build evaluate each distinct subtree once;
//! 4. **similarity** — the [`SiameseHead`] (eq. 8) turns two encodings
//!    into a similarity score;
//! 5. **calibration** — [`calibrated_similarity`] (eq. 9–10) multiplies in
//!    the callee-count feature.
//!
//! Training ([`train()`]) uses BCELoss + AdaGrad at batch size 1, keeping
//! the best-validation weights of an optional per-epoch callback, as in
//! §IV-A.
//!
//! # Examples
//!
//! ```
//! use asteria_compiler::{compile_program, Arch};
//! use asteria_core::{extract_function, AsteriaModel, ModelConfig, DEFAULT_INLINE_BETA};
//!
//! let program = asteria_lang::parse(
//!     "int f(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }",
//! )?;
//! let model = AsteriaModel::new(ModelConfig::default());
//! let arm = compile_program(&program, Arch::Arm)?;
//! let x86 = compile_program(&program, Arch::X86)?;
//! let fa = extract_function(&arm, 0, DEFAULT_INLINE_BETA)?;
//! let fx = extract_function(&x86, 0, DEFAULT_INLINE_BETA)?;
//! let sim = model.similarity(&fa.tree, &fx.tree);
//! assert!((0.0..=1.0).contains(&sim));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binarize;
pub mod encoder;
pub mod forest;
pub mod model;
pub mod nodes;
pub mod pipeline;
pub mod siamese;
pub mod slab;
pub mod train;

pub use binarize::{binarize, binarize_truncated, BinTree};
pub use encoder::{LeafInit, TreeLstm, TreeLstmKernel};
pub use forest::Forest;
pub use model::{calibrated_similarity, callee_similarity, AsteriaModel, ModelConfig};
pub use nodes::{digitalize, AstTree, NodeType};
pub use pipeline::{
    encode_function, encode_functions, extract_binary, extract_function, function_similarity,
    ExtractedFunction, ExtractionReport, FunctionEncoding, FunctionOutcome, ResilientExtraction,
    DEFAULT_INLINE_BETA,
};
pub use siamese::{SiameseHead, SiameseKind};
pub use slab::{EncodingSlab, QueryScorer, SLAB_TILE};
pub use train::{train, train_epoch, EpochStats, TrainOptions, TrainPair};
