//! `asteria-vulnsearch` — the paper's §V application: IoT-firmware
//! vulnerability search.
//!
//! The paper encodes 5,979 vendor firmware images offline, then ranks all
//! firmware functions against seven CVE queries by calibrated similarity,
//! thresholding at the Youden-index operating point. Vendor firmware
//! cannot ship here, so:
//!
//! - [`library`] supplies seven CVE-like MiniC vulnerable functions (with
//!   patched variants, the way fixed firmware versions differ);
//! - [`firmware`] builds a stripped, ARM-heavy synthetic firmware corpus
//!   with those functions planted under recorded ground truth;
//! - [`session`] reproduces the pipeline end to end: offline encoding of
//!   the corpus ([`IndexBuilder`]), then per-CVE ranking and Table IV
//!   scoring ([`SearchSession`]);
//! - [`search`] holds the index and result types plus the top-k accuracy
//!   metric of the Asteria-vs-Gemini end-to-end comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod firmware;
pub mod index_io;
pub mod library;
mod rank;
pub mod report;
pub mod search;
pub mod session;

pub use firmware::{build_firmware_corpus, FirmwareConfig, FirmwareImage, PlantedFunction};
pub use index_io::{CacheStats, CachedBinary, IndexCache, IndexError, ASIX_MAGIC, ASIX_VERSION};
pub use library::{vulnerability_library, CveEntry};
pub use report::render_report;
pub use search::{
    top_k_accuracy, CveSearchResult, IndexedFunction, QueryError, QueryErrorKind, SearchHit,
    SearchIndex,
};
pub use session::{
    FunctionQuery, IndexBuild, IndexBuilder, QueryOutcome, SearchSession, DEFAULT_TOP_K,
};
