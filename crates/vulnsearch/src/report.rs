//! Report rendering: turns search results into the markdown table shape
//! of the paper's Table IV.

use std::fmt::Write;

use crate::search::CveSearchResult;

/// Renders the Table IV markdown table of per-CVE search results: a
/// header, a separator and one numbered row per CVE, with `—` when no
/// firmware model was confirmed affected. Titles and totals are left to
/// the caller.
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
/// }];
/// let md = render_report(&results);
/// assert!(md.contains("| 1 | CVE-2016-2105 | openssl | evp_encode_update | 11 | 5 | 5 | netguard R8 |"));
/// ```
pub fn render_report(results: &[CveSearchResult]) -> String {
    let mut out = String::from(
        "| # | CVE | software | function | candidates | confirmed | planted | affected models |\n\
         |---|-----|----------|----------|------------|-----------|---------|-----------------|\n",
    );
    for (i, r) in results.iter().enumerate() {
        let models = if r.affected_models.is_empty() {
            "—".to_string()
        } else {
            r.affected_models.join(", ")
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {models} |",
            i + 1,
            r.cve,
            r.software,
            r.function,
            r.candidates,
            r.confirmed,
            r.total_vulnerable,
        );
    }
    out
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
            },
        ]
    }

    #[test]
    fn report_has_a_header_and_one_row_per_cve() {
        let md = render_report(&sample());
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4, "{md}");
        assert!(lines[0].starts_with("| # | CVE |"), "{md}");
        assert_eq!(lines[2], "| 1 | CVE-A | s1 | f1 | 3 | 2 | 2 | v m1, v m2 |");
        assert_eq!(lines[3], "| 2 | CVE-B | s2 | f2 | 0 | 0 | 1 | — |");
    }
}
