//! Report rendering: turns search results into the markdown table shape
//! of the paper's Table IV.

use std::fmt::Write;

use asteria_core::ExtractionReport;

use crate::index_io::CacheStats;
use crate::search::CveSearchResult;

/// Renders Table IV-style markdown from per-CVE search results.
///
/// # Examples
///
/// ```
/// use asteria_vulnsearch::{render_report, CveSearchResult};
///
/// let results = vec![CveSearchResult {
///     cve: "CVE-2016-2105".into(),
///     software: "openssl".into(),
///     function: "evp_encode_update".into(),
///     candidates: 11,
///     confirmed: 5,
///     total_vulnerable: 5,
///     affected_models: vec!["netguard R8".into()],
///     top_hits: vec![true, true, true, true, true, false, false, false, false, false],
///     top10_hits: 5,
/// }];
/// let md = render_report(&results, 0.62);
/// assert!(md.contains("CVE-2016-2105"));
/// assert!(md.contains("| 5 |"));
/// ```
pub fn render_report(results: &[CveSearchResult], threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Vulnerability search report (threshold {threshold:.2})"
    );
    out.push('\n');
    out.push_str(
        "| # | CVE | software | function | candidates | confirmed | planted | affected models |\n",
    );
    out.push_str(
        "|---|-----|----------|----------|------------|-----------|---------|------------------|\n",
    );
    let mut total_confirmed = 0;
    let mut total_planted = 0;
    for (i, r) in results.iter().enumerate() {
        let models = if r.affected_models.is_empty() {
            "—".to_string()
        } else {
            r.affected_models.join(", ")
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            i + 1,
            r.cve,
            r.software,
            r.function,
            r.candidates,
            r.confirmed,
            r.total_vulnerable,
            models
        );
        total_confirmed += r.confirmed;
        total_planted += r.total_vulnerable;
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "confirmed {total_confirmed} of {total_planted} planted vulnerable functions"
    );
    out
}

/// Renders the full report including the corpus extraction outcome: the
/// Table IV body plus a coverage section stating how many firmware
/// functions were skipped during offline encoding (and why).
///
/// # Examples
///
/// ```
/// use asteria_core::ExtractionReport;
/// use asteria_vulnsearch::render_report_with_extraction;
///
/// let extraction = ExtractionReport {
///     total: 10,
///     extracted: 9,
///     skipped: 1,
///     decode_errors: 1,
///     ..Default::default()
/// };
/// let md = render_report_with_extraction(&[], 0.5, &extraction);
/// assert!(md.contains("## Corpus coverage"));
/// assert!(md.contains("1 skipped"));
/// ```
pub fn render_report_with_extraction(
    results: &[CveSearchResult],
    threshold: f64,
    extraction: &ExtractionReport,
) -> String {
    let mut out = render_report(results, threshold);
    out.push('\n');
    out.push_str("## Corpus coverage\n\n");
    let _ = writeln!(out, "{extraction}");
    out
}

/// Renders the full report including the corpus extraction outcome
/// *and* the embedding-cache accounting of an incremental
/// [`IndexBuilder`](crate::IndexBuilder) build: how many binaries were served warm from the ASIX cache, how
/// many were encoded cold, and how many stale entries were evicted.
///
/// # Examples
///
/// ```
/// use asteria_core::ExtractionReport;
/// use asteria_vulnsearch::{render_report_with_cache, CacheStats};
///
/// let extraction = ExtractionReport { total: 10, extracted: 10, ..Default::default() };
/// let stats = CacheStats { hits: 3, misses: 1, evicted: 2 };
/// let md = render_report_with_cache(&[], 0.5, &extraction, &stats);
/// assert!(md.contains("3 hits, 1 misses, 2 evicted"));
/// ```
pub fn render_report_with_cache(
    results: &[CveSearchResult],
    threshold: f64,
    extraction: &ExtractionReport,
    cache: &CacheStats,
) -> String {
    let mut out = render_report_with_extraction(results, threshold, extraction);
    let _ = writeln!(out, "embedding cache: {cache}");
    out
}

/// Per-CVE recall line summary (compact log form).
pub fn render_summary_lines(results: &[CveSearchResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            format!(
                "{}: {}/{} confirmed ({} candidates, top10 {})",
                r.cve, r.confirmed, r.total_vulnerable, r.candidates, r.top10_hits
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<CveSearchResult> {
        vec![
            CveSearchResult {
                cve: "CVE-A".into(),
                software: "s1".into(),
                function: "f1".into(),
                candidates: 3,
                confirmed: 2,
                total_vulnerable: 2,
                affected_models: vec!["v m1".into(), "v m2".into()],
                top_hits: vec![true, true, false],
                top10_hits: 2,
            },
            CveSearchResult {
                cve: "CVE-B".into(),
                software: "s2".into(),
                function: "f2".into(),
                candidates: 0,
                confirmed: 0,
                total_vulnerable: 1,
                affected_models: vec![],
                top_hits: vec![false, false],
                top10_hits: 0,
            },
        ]
    }

    #[test]
    fn report_contains_all_rows_and_totals() {
        let md = render_report(&sample(), 0.5);
        assert!(md.contains("CVE-A"));
        assert!(md.contains("CVE-B"));
        assert!(md.contains("v m1, v m2"));
        assert!(md.contains("| — |"));
        assert!(md.contains("confirmed 2 of 3"));
    }

    #[test]
    fn cache_stats_render_into_the_coverage_section() {
        let extraction = ExtractionReport {
            total: 4,
            extracted: 4,
            ..Default::default()
        };
        let stats = CacheStats {
            hits: 2,
            misses: 2,
            evicted: 1,
        };
        let md = render_report_with_cache(&sample(), 0.5, &extraction, &stats);
        assert!(md.contains("## Corpus coverage"), "{md}");
        assert!(
            md.contains("embedding cache: 2 hits, 2 misses, 1 evicted"),
            "{md}"
        );
    }

    #[test]
    fn summary_lines_are_one_per_cve() {
        let lines = render_summary_lines(&sample());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("2/2 confirmed"));
        assert!(lines[1].contains("0/1 confirmed"));
    }
}
