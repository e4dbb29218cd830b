//! Sinks: render the collector's state as a human-readable summary
//! tree, Prometheus text exposition, or a JSONL trace log.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricKey;
use crate::Collector;

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitizes a metric or label name to the Prometheus charset
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
fn prom_name(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", prom_name(k), prom_escape(v));
    }
    out.push('}');
    out
}

fn prom_labels_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut out = String::from("{");
    for (k, v) in labels {
        let _ = write!(out, "{}=\"{}\",", prom_name(k), prom_escape(v));
    }
    let _ = write!(out, "le=\"{le}\"");
    out.push('}');
    out
}

/// Formats an f64 the way Prometheus expects (`+Inf`, no exponent for
/// common magnitudes, shortest round-trip otherwise).
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Prometheus text exposition: all counters, gauges, and histograms,
/// plus per-path span duration aggregates.
pub(crate) fn render_prometheus(c: &Collector) -> String {
    let m = c.merged_metrics();
    let mut out = String::new();

    // Group series by sanitized name so each name gets one # TYPE line.
    let mut counters: BTreeMap<String, Vec<(&MetricKey, u64)>> = BTreeMap::new();
    for (k, v) in m.counters.iter() {
        counters
            .entry(prom_name(&k.name))
            .or_default()
            .push((k, *v));
    }
    for (name, series) in &counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (k, v) in series {
            let _ = writeln!(out, "{name}{} {v}", prom_labels(&k.labels));
        }
    }

    let mut gauges: BTreeMap<String, Vec<(&MetricKey, f64)>> = BTreeMap::new();
    for (k, v) in m.gauges.iter() {
        gauges.entry(prom_name(&k.name)).or_default().push((k, *v));
    }
    for (name, series) in &gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (k, v) in series {
            let _ = writeln!(out, "{name}{} {}", prom_labels(&k.labels), prom_f64(*v));
        }
    }

    let mut hists: BTreeMap<String, Vec<(&MetricKey, &crate::Histogram)>> = BTreeMap::new();
    for (k, v) in m.histograms.iter() {
        hists.entry(prom_name(&k.name)).or_default().push((k, v));
    }
    for (name, series) in &hists {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (k, h) in series {
            let mut cum = 0u64;
            for (i, count) in h.counts.iter().enumerate() {
                cum += count;
                let le = match h.bounds.get(i) {
                    Some(b) => prom_f64(*b),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cum}",
                    prom_labels_with_le(&k.labels, &le)
                );
            }
            let _ = writeln!(
                out,
                "{name}_sum{} {}",
                prom_labels(&k.labels),
                prom_f64(h.sum)
            );
            let _ = writeln!(out, "{name}_count{} {}", prom_labels(&k.labels), h.count);
        }
    }
    drop(m);

    // Span aggregates: total duration + count per span path, so a
    // Prometheus file alone still carries the stage cost breakdown.
    let spans = c.finished_spans();
    if !spans.is_empty() {
        let mut agg: BTreeMap<&str, (f64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = agg.entry(s.path.as_str()).or_insert((0.0, 0, 0));
            e.0 += s.dur_us as f64 / 1e6;
            e.1 += 1;
            e.2 += s.items;
        }
        let _ = writeln!(out, "# TYPE asteria_span_duration_seconds_sum gauge");
        for (path, (sum, _, _)) in &agg {
            let _ = writeln!(
                out,
                "asteria_span_duration_seconds_sum{{path=\"{}\"}} {}",
                prom_escape(path),
                prom_f64(*sum)
            );
        }
        let _ = writeln!(out, "# TYPE asteria_span_count counter");
        for (path, (_, count, _)) in &agg {
            let _ = writeln!(
                out,
                "asteria_span_count{{path=\"{}\"}} {count}",
                prom_escape(path)
            );
        }
        let _ = writeln!(out, "# TYPE asteria_span_items_total counter");
        for (path, (_, _, items)) in &agg {
            let _ = writeln!(
                out,
                "asteria_span_items_total{{path=\"{}\"}} {items}",
                prom_escape(path)
            );
        }
    }
    out
}

/// JSONL trace: one `span` line per finished span (deterministic
/// merge order) followed by one `event` line per recorded event.
pub(crate) fn render_trace_jsonl(c: &Collector) -> String {
    let mut out = String::new();
    for s in c.finished_spans() {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"path\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"items\":{},\"thread\":{},\"seq\":{}}}",
            json_escape(&s.path),
            json_escape(s.name()),
            s.start_us,
            s.dur_us,
            s.items,
            s.thread,
            s.seq
        );
    }
    for e in c.events() {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"level\":\"{}\",\"t_us\":{},\"msg\":\"{}\"}}",
            e.level.label(),
            e.t_us,
            json_escape(&e.msg)
        );
    }
    out
}

/// Aggregate of one span path for the summary tree.
struct PathAgg {
    total_s: f64,
    count: u64,
    items: u64,
}

/// Human-readable summary: span tree (indented by depth, with count,
/// total time, and items/sec), then counters, gauges, and histogram
/// percentiles.
pub(crate) fn render_summary(c: &Collector) -> String {
    let mut out = String::new();
    let spans = c.finished_spans();
    if !spans.is_empty() {
        out.push_str("spans:\n");
        let mut agg: BTreeMap<String, PathAgg> = BTreeMap::new();
        for s in &spans {
            let e = agg.entry(s.path.clone()).or_insert(PathAgg {
                total_s: 0.0,
                count: 0,
                items: 0,
            });
            e.total_s += s.dur_us as f64 / 1e6;
            e.count += 1;
            e.items += s.items;
        }
        // BTreeMap path-prefix order gives parent-before-child, which
        // is deterministic and readable.
        for (path, a) in agg.iter() {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let indent = "  ".repeat(depth + 1);
            let _ = write!(out, "{indent}{name}: {:.3}s", a.total_s);
            if a.count > 1 {
                let _ = write!(out, " ({} calls)", a.count);
            }
            if a.items > 0 {
                let rate = if a.total_s > 0.0 {
                    a.items as f64 / a.total_s
                } else {
                    0.0
                };
                let _ = write!(out, " [{} items, {:.1}/s]", a.items, rate);
            }
            out.push('\n');
        }
    }

    let m = c.merged_metrics();
    if !m.counters.is_empty() {
        out.push_str("counters:\n");
        for (k, v) in m.counters.iter() {
            let _ = writeln!(out, "  {} = {v}", k.render());
        }
    }
    if !m.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (k, v) in m.gauges.iter() {
            let _ = writeln!(out, "  {} = {v}", k.render());
        }
    }
    if !m.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (k, h) in m.histograms.iter() {
            let p50 = h.quantile(0.5).unwrap_or(0.0);
            let p95 = h.quantile(0.95).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {}: count {} sum {:.6} p50<= {} p95<= {}",
                k.render(),
                h.count,
                h.sum,
                prom_f64(p50),
                prom_f64(p95)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(prom_escape("x\"y\\z\nw"), "x\\\"y\\\\z\\nw");
        assert_eq!(prom_name("asteria.lift-seconds"), "asteria_lift_seconds");
        assert_eq!(prom_name("9lead"), "_9lead");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(0.001), "0.001");
    }

    #[test]
    fn prometheus_renders_every_time_bucket() {
        let c = crate::Collector::new();
        for seconds in [160e-6, 705e-6, 30.0] {
            crate::relock(c.metrics.lock()).observe(
                "encode_seconds",
                &[],
                seconds,
                crate::TIME_BUCKETS_SECONDS,
            );
        }
        let prom = render_prometheus(&c);
        let buckets: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("encode_seconds_bucket"))
            .collect();
        assert_eq!(buckets.len(), crate::TIME_BUCKETS_SECONDS.len() + 1);
        for line in [
            "encode_seconds_bucket{le=\"0.0001\"} 0",
            "encode_seconds_bucket{le=\"0.0002\"} 1",
            "encode_seconds_bucket{le=\"0.0005\"} 1",
            "encode_seconds_bucket{le=\"0.001\"} 2",
            "encode_seconds_bucket{le=\"10\"} 2",
            "encode_seconds_bucket{le=\"+Inf\"} 3",
            "encode_seconds_count 3",
        ] {
            assert!(prom.contains(line), "missing {line}: {prom}");
        }
    }
}
