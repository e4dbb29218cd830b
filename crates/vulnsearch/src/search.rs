//! The vulnerability search's data types (paper §V) and the top-k
//! accuracy metric.
//!
//! The pipeline itself lives in [`crate::session`]: [`IndexBuilder`] is
//! the offline phase, [`SearchSession`] the online phase.
//!
//! [`IndexBuilder`]: crate::session::IndexBuilder
//! [`SearchSession`]: crate::session::SearchSession

use std::fmt;

use asteria_compiler::CompileError;
use asteria_core::{ExtractionReport, FunctionEncoding};
use asteria_decompiler::DecompileError;
use asteria_lang::ParseError;

/// One firmware function in the search index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedFunction {
    /// Image index in the corpus.
    pub image: usize,
    /// Binary index within the image.
    pub binary: usize,
    /// Stripped display name.
    pub name: String,
    /// Cached offline encoding.
    pub encoding: FunctionEncoding,
    /// Ground truth: `Some((cve_index, vulnerable))` for planted library
    /// functions, `None` for filler code. Used only for scoring.
    pub ground_truth: Option<(usize, bool)>,
}

/// The offline product: every firmware function encoded once. Equality
/// compares encodings bit for bit (see [`FunctionEncoding`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchIndex {
    /// All indexed functions.
    pub functions: Vec<IndexedFunction>,
    /// Aggregated extraction outcome across the whole corpus: how many
    /// functions were encoded and how many were skipped (and why).
    pub extraction: ExtractionReport,
}

impl SearchIndex {
    /// Number of indexed functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

/// Why a query could not be encoded: the analyst-supplied source failed
/// one of the four pipeline stages. Unlike corpus-side extraction
/// failures (skipped and counted), a failing *query* makes the whole
/// search meaningless, so it surfaces as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryErrorKind {
    /// The vulnerable source failed to parse.
    Parse(ParseError),
    /// The vulnerable source failed to compile for the query arch.
    Compile(CompileError),
    /// The named function is absent from the compiled binary.
    MissingFunction,
    /// Decompiling the reference build failed.
    Extract(DecompileError),
}

/// A typed query-encoding failure, naming the query (CVE id or caller
/// label) and function it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryError {
    /// Label of the failing query (a CVE identifier in the Table IV
    /// experiment; any caller-chosen label for ad-hoc queries).
    pub cve: String,
    /// The vulnerable function name.
    pub function: String,
    /// The failing stage.
    pub kind: QueryErrorKind,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query {} ({}): ", self.cve, self.function)?;
        match &self.kind {
            QueryErrorKind::Parse(e) => write!(f, "library source does not parse: {e}"),
            QueryErrorKind::Compile(e) => write!(f, "library source does not compile: {e}"),
            QueryErrorKind::MissingFunction => write!(f, "function not found in compiled library"),
            QueryErrorKind::Extract(e) => write!(f, "reference build does not decompile: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Index into [`SearchIndex::functions`].
    pub function: usize,
    /// Calibrated similarity score ℱ.
    pub score: f64,
}

/// Table IV-style per-CVE result.
#[derive(Debug, Clone, PartialEq)]
pub struct CveSearchResult {
    /// CVE identifier.
    pub cve: String,
    /// Host software.
    pub software: String,
    /// Vulnerable function name.
    pub function: String,
    /// Candidates scoring at or above the threshold.
    pub candidates: usize,
    /// Confirmed vulnerable functions among the candidates (ground truth).
    pub confirmed: usize,
    /// Vulnerable plants that exist in the corpus (recall denominator).
    pub total_vulnerable: usize,
    /// Affected `vendor model` strings, deduplicated.
    pub affected_models: Vec<String>,
    /// Per-rank ground truth of the top-10 ranked results: `top_hits[r]`
    /// is true iff the function at rank `r` is a planted vulnerable copy
    /// of this CVE. Lets top-k accuracy count hits strictly within the
    /// top k for any k ≤ 10.
    pub top_hits: Vec<bool>,
}

/// Top-k accuracy across CVEs: the fraction of top-k slots filled with
/// true vulnerable functions, capped by availability (the §V end-to-end
/// comparison metric between Asteria and Gemini). A hit only counts
/// toward ranks `< k` — a hit at rank 8 contributes to top-10 but not
/// top-1.
pub fn top_k_accuracy(results: &[CveSearchResult], k: usize) -> f64 {
    let mut hit = 0usize;
    let mut possible = 0usize;
    for r in results {
        hit += r.top_hits.iter().take(k).filter(|h| **h).count();
        possible += r.total_vulnerable.min(k);
    }
    if possible == 0 {
        return 0.0;
    }
    hit as f64 / possible as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::{build_firmware_corpus, FirmwareConfig, FirmwareImage};
    use crate::library::vulnerability_library;
    use crate::session::{IndexBuilder, SearchSession};
    use asteria_compiler::Arch;
    use asteria_core::{AsteriaModel, ModelConfig};

    fn fixture() -> (AsteriaModel, Vec<FirmwareImage>, SearchIndex) {
        let model = AsteriaModel::new(ModelConfig {
            hidden_dim: 12,
            embed_dim: 8,
            ..Default::default()
        });
        let firmware = build_firmware_corpus(
            &FirmwareConfig {
                images: 5,
                ..Default::default()
            },
            &vulnerability_library(),
        );
        let index = IndexBuilder::new(&model)
            .build(&firmware)
            .expect("in-memory build")
            .index;
        (model, firmware, index)
    }

    #[test]
    fn top_k_accuracy_bounds() {
        let (model, firmware, index) = fixture();
        let lib = vulnerability_library();
        let session = SearchSession::new(model, index);
        let results = session
            .run(&firmware, &lib, 0.0, Arch::X86)
            .expect("queries encode");
        let acc = top_k_accuracy(&results, 10);
        assert!((0.0..=1.0).contains(&acc), "{acc}");
    }

    #[test]
    fn top_k_accuracy_counts_strictly_within_k() {
        // One CVE, one planted copy, found at rank 8 (0-based): it must
        // count toward top-10 but NOT toward top-1 — the bug the old
        // `.min(k)` clamp had.
        let mut top_hits = vec![false; 10];
        top_hits[8] = true;
        let r = CveSearchResult {
            cve: "CVE-X".into(),
            software: "s".into(),
            function: "f".into(),
            candidates: 1,
            confirmed: 1,
            total_vulnerable: 1,
            affected_models: vec![],
            top_hits,
        };
        assert_eq!(top_k_accuracy(std::slice::from_ref(&r), 10), 1.0);
        assert_eq!(top_k_accuracy(std::slice::from_ref(&r), 5), 0.0);
        assert_eq!(top_k_accuracy(&[r], 1), 0.0);
    }
}
