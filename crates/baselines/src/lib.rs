//! `asteria-baselines` — the two comparison systems of the paper's
//! evaluation, built from scratch:
//!
//! - **Gemini** (Xu et al., CCS'17): [`acfg`] extraction (discovRE/Genius
//!   statistical block features + betweenness centrality) and a
//!   structure2vec Siamese [`gemini::GeminiModel`] trained with cosine/MSE
//!   on the same pair corpus as Asteria;
//! - **Diaphora**: [`diaphora`] prime-product AST hashing with multiset
//!   Dice similarity over big-integer factorizations.
//!
//! Both expose offline (feature extraction / embedding) and online
//! (similarity) phases so the Fig. 10 timing studies can measure them
//! separately.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acfg;
pub mod diaphora;
pub mod gemini;

pub use acfg::{extract_acfg, Acfg, ACFG_FEATURES};
pub use diaphora::{hash_ast, similarity as diaphora_similarity, DiaphoraHash};
pub use gemini::{train_gemini, GeminiConfig, GeminiModel};
