//! `asteria-datasets` — reproducible corpora for training and evaluation.
//!
//! The paper builds three datasets (§IV-B): **Buildroot** (260 packages
//! cross-compiled for four ISAs; training + testing), **OpenSSL**
//! (comparative evaluation) and **Firmware** (5,979 vendor images;
//! vulnerability search). All three are gated inputs — vendor firmware and
//! a buildroot toolchain cannot ship with this reproduction — so this
//! crate substitutes seeded synthetic corpora with the same ground-truth
//! structure:
//!
//! - [`gen`] grows MiniC packages from idiom templates + random structured
//!   code (deterministic per seed);
//! - [`corpus`] cross-compiles each package for the four ISAs of
//!   `asteria-compiler` and extracts every function's AST, applying the
//!   paper's "AST size ≥ 5" filter;
//! - [`pairs`] samples labelled homologous / non-homologous pairs over the
//!   six architecture combinations of Table III and splits 8:2.
//!
//! # Examples
//!
//! ```
//! use asteria_datasets::{build_corpus, build_pairs, CorpusConfig, PairConfig};
//!
//! let corpus = build_corpus(&CorpusConfig { packages: 2, functions_per_package: 3,
//!     ..Default::default() });
//! let pairs = build_pairs(&corpus, &PairConfig::default());
//! assert!(!pairs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod pairs;

pub use corpus::{
    build_corpus, build_corpus_with_extra, Corpus, CorpusBinary, CorpusConfig, FunctionInstance,
};
pub use gen::{generate_package, GenConfig};
pub use pairs::{build_pairs, to_train_pairs, Pair, PairConfig, PairSet, ARCH_COMBINATIONS};
