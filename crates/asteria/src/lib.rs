//! **Asteria** — a complete Rust reproduction of *"Asteria: Deep
//! Learning-based AST-Encoding for Cross-platform Binary Code Similarity
//! Detection"* (Yang et al., DSN 2021).
//!
//! This facade crate re-exports the whole system:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`exec`] | `asteria-exec` | deterministic scoped worker pool driving the parallel offline/online phases |
//! | [`obs`] | `asteria-obs` | unified tracing and metrics layer (spans, counters, Prometheus/JSONL sinks) |
//! | [`nn`] | `asteria-nn` | tensors, autograd, embedding layer, AdaGrad/Adam (PyTorch substitute) |
//! | [`lang`] | `asteria-lang` | MiniC frontend + reference interpreter |
//! | [`compiler`] | `asteria-compiler` | four synthetic ISAs, SBF binaries, VM (gcc/buildroot substitute) |
//! | [`decompiler`] | `asteria-decompiler` | disassembly, lifting, structuring (IDA Pro substitute) |
//! | [`bignum`] | `asteria-bignum` | big integers for Diaphora's prime products |
//! | [`core`] | `asteria-core` | the paper's contribution: Tree-LSTM AST encoding + Siamese similarity + calibration |
//! | [`baselines`] | `asteria-baselines` | Gemini (structure2vec over ACFGs) and Diaphora |
//! | [`datasets`] | `asteria-datasets` | seeded corpora, cross-arch pair construction |
//! | [`eval`] | `asteria-eval` | ROC/AUC/Youden metrics, CDFs, timing |
//! | [`vulnsearch`] | `asteria-vulnsearch` | §V firmware vulnerability search |
//! | [`serve`] | `asteria-serve` | online similarity-query server (batching, backpressure, graceful drain) |
//!
//! # Quickstart
//!
//! ```
//! use asteria::core::{extract_function, AsteriaModel, ModelConfig, DEFAULT_INLINE_BETA};
//! use asteria::compiler::{compile_program, Arch};
//!
//! let src = "int checksum(int n) { int h = 17; \
//!            for (int i = 0; i < n % 16; i++) { h = h * 31 + i; } return h; }";
//! let program = asteria::lang::parse(src)?;
//! let model = AsteriaModel::new(ModelConfig::default());
//! let arm = compile_program(&program, Arch::Arm)?;
//! let ppc = compile_program(&program, Arch::Ppc)?;
//! let fa = extract_function(&arm, 0, DEFAULT_INLINE_BETA)?;
//! let fp = extract_function(&ppc, 0, DEFAULT_INLINE_BETA)?;
//! let similarity = model.similarity(&fa.tree, &fp.tree);
//! assert!((0.0..=1.0).contains(&similarity));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;

pub use asteria_baselines as baselines;
pub use asteria_bignum as bignum;
pub use asteria_compiler as compiler;
pub use asteria_core as core;
pub use asteria_datasets as datasets;
pub use asteria_decompiler as decompiler;
pub use asteria_eval as eval;
pub use asteria_exec as exec;
pub use asteria_lang as lang;
pub use asteria_nn as nn;
pub use asteria_obs as obs;
pub use asteria_serve as serve;
pub use asteria_vulnsearch as vulnsearch;
