//! Typed metrics: counters, gauges, and fixed-boundary histograms.
//!
//! Every series is keyed by name plus a sorted label set. Recording finds
//! its series through a hash index without allocating; iteration is in
//! key order, so every sink rendering is deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default histogram boundaries for wall-time observations, in seconds
/// (an implicit `+Inf` bucket is always appended): 1-2-5 steps per
/// decade from 10 µs to 10 s. The span covers everything from one cached
/// similarity to a whole-corpus stage; the steps keep adjacent bounds
/// within 2.5× so quantiles tell, say, a 160 µs encode from a 700 µs one.
pub const TIME_BUCKETS_SECONDS: &[f64] = &[
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0,
    2.0, 5.0, 10.0,
];

/// A metric series identity: name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style `snake_case`).
    pub name: String,
    /// Label pairs, sorted by key then value.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{k="v",…}` (bare `name` when label-free).
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}=\"{v}\"");
            }
            out.push('}');
        }
        out
    }

    /// True when this is the series `(name, labels)`, labels sorted.
    fn is(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (pk, pv))| k == pk && v == pv)
    }
}

/// FNV-1a over a series identity; `0xff`, which never occurs in UTF-8,
/// separates the parts.
fn series_hash(name: &str, labels: &[(&str, &str)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(name.as_bytes());
    for (k, v) in labels {
        feed(&[0xff]);
        feed(k.as_bytes());
        feed(&[0xff]);
        feed(v.as_bytes());
    }
    h
}

/// The live series of one metric kind.
///
/// Recording sits on every hot path, between stages whose working sets
/// evict the metric store from cache, so a lookup must touch little
/// memory: it hashes the borrowed `(name, labels)`, binary-searches a
/// compact hash index and verifies the one candidate key. Only a new
/// series allocates. Iteration is in key order.
#[derive(Debug, Clone)]
pub(crate) struct SeriesMap<V> {
    /// `(hash, slot)` pairs sorted by hash.
    index: Vec<(u64, usize)>,
    keys: Vec<MetricKey>,
    values: Vec<V>,
}

impl<V> Default for SeriesMap<V> {
    fn default() -> Self {
        SeriesMap {
            index: Vec::new(),
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> SeriesMap<V> {
    /// The series `(name, labels)`, created by `init` on first use.
    fn series(&mut self, name: &str, labels: &[(&str, &str)], init: impl FnOnce() -> V) -> &mut V {
        if !labels.is_sorted() {
            let key = MetricKey::new(name, labels);
            let sorted: Vec<(&str, &str)> = key
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            return self.series(&key.name, &sorted, init);
        }
        let hash = series_hash(name, labels);
        let start = self.index.partition_point(|&(h, _)| h < hash);
        let found = self.index[start..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .map(|&(_, slot)| slot)
            .find(|&slot| self.keys[slot].is(name, labels));
        let slot = found.unwrap_or_else(|| {
            self.keys.push(MetricKey::new(name, labels));
            self.values.push(init());
            self.index.insert(start, (hash, self.keys.len() - 1));
            self.keys.len() - 1
        });
        &mut self.values[slot]
    }

    /// Every series, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricKey, &V)> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
        order.into_iter().map(|i| (&self.keys[i], &self.values[i]))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Folds every series of `other` into this map with `merge`.
    fn absorb(&mut self, other: SeriesMap<V>, merge: impl Fn(&mut V, V))
    where
        V: Default,
    {
        for (key, value) in other.keys.into_iter().zip(other.values) {
            let labels: Vec<(&str, &str)> = key
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            merge(self.series(&key.name, &labels, V::default), value);
        }
    }
}

/// A histogram with fixed bucket boundaries (plus an implicit `+Inf`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Ascending finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts[bounds.len()]` is `+Inf`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1): the
    /// boundary of the first bucket whose cumulative count reaches
    /// `q × count`. Returns `None` for an empty histogram; the `+Inf`
    /// bucket reports the largest finite boundary.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(match self.bounds.get(i) {
                    Some(b) => *b,
                    None => *self.bounds.last().unwrap_or(&f64::INFINITY),
                });
            }
        }
        None
    }

    /// Mean observed value (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Adds `other`'s observations, which share this histogram's bounds
    /// (a series' bounds are fixed by its first observation). An empty
    /// histogram takes `other`'s bounds.
    fn absorb(&mut self, other: Histogram) {
        if self.counts.is_empty() {
            *self = other;
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A metric store: the collector's own, or one thread's shard of it.
#[derive(Debug, Default, Clone)]
pub(crate) struct Metrics {
    pub(crate) counters: SeriesMap<u64>,
    pub(crate) gauges: SeriesMap<f64>,
    pub(crate) histograms: SeriesMap<Histogram>,
}

impl Metrics {
    pub(crate) fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.counters.series(name, labels, || 0) += delta;
    }

    pub(crate) fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        *self.gauges.series(name, labels, || 0.0) = value;
    }

    pub(crate) fn observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: f64,
        bounds: &[f64],
    ) {
        self.histograms
            .series(name, labels, || Histogram::new(bounds))
            .observe(value);
    }

    /// Folds `other` into this store: counters and histograms add up,
    /// gauges take `other`'s value.
    pub(crate) fn absorb(&mut self, other: Metrics) {
        self.counters.absorb(other.counters, |a, b| *a += b);
        self.gauges.absorb(other.gauges, |a, b| *a = b);
        self.histograms.absorb(other.histograms, Histogram::absorb);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.render(), *v))
                .collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.render(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.render(), v.clone()))
                .collect(),
        }
    }
}

/// A deterministic, cloneable view of every metric, keyed by the
/// rendered series name (`name{k="v"}`), for tests and reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_keys_sort_labels_and_render() {
        let a = MetricKey::new("hits", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("hits", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "hits{a=\"1\",b=\"2\"}");
        assert_eq!(MetricKey::new("bare", &[]).render(), "bare");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[0.001, 0.01, 0.1]);
        assert_eq!(h.quantile(0.5), None);
        for v in [0.0005, 0.002, 0.003, 0.05, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert!((h.sum - 5.0555).abs() < 1e-9);
        // p20 → first bucket, p50 → second, p100 → +Inf reported as the
        // largest finite bound.
        assert_eq!(h.quantile(0.2), Some(0.001));
        assert_eq!(h.quantile(0.5), Some(0.01));
        assert_eq!(h.quantile(1.0), Some(0.1));
        assert!((h.mean().unwrap() - 1.0111).abs() < 1e-9);
    }

    #[test]
    fn time_buckets_step_1_2_5_per_decade() {
        let b = TIME_BUCKETS_SECONDS;
        assert_eq!((b[0], b[b.len() - 1]), (1e-5, 10.0));
        assert_eq!(b.len(), 3 * 6 + 1, "three bounds per decade");
        for (i, w) in b.windows(2).enumerate() {
            let ratio = w[1] / w[0];
            let expected = [2.0, 2.5, 2.0][i % 3];
            assert!((ratio - expected).abs() < 1e-9, "{} → {}", w[0], w[1]);
        }
        // A 160 µs and a 705 µs encode land in different buckets.
        let mut h = Histogram::new(b);
        h.observe(160e-6);
        h.observe(705e-6);
        assert_eq!(h.quantile(0.5), Some(2e-4));
        assert_eq!(h.quantile(1.0), Some(1e-3));
    }

    #[test]
    fn boundary_values_land_in_the_le_bucket() {
        // Prometheus buckets are `le` (≤), so an exact boundary counts
        // in its own bucket.
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0);
        h.observe(2.0);
        h.observe(2.0000001);
        assert_eq!(h.counts, vec![1, 1, 1]);
    }

    #[test]
    fn series_are_found_by_any_label_order_and_iterate_in_key_order() {
        let mut m = Metrics::default();
        for (name, labels) in [
            ("z", vec![]),
            ("c", vec![("b", "2"), ("a", "1")]),
            ("c", vec![("a", "1")]),
            ("a", vec![("k", "v")]),
            ("c", vec![("a", "1"), ("b", "2")]),
            ("a", vec![]),
        ] {
            m.counter_add(name, &labels, 1);
        }
        let keys: Vec<String> = m.counters.iter().map(|(k, _)| k.render()).collect();
        assert_eq!(
            keys,
            ["a", "a{k=\"v\"}", "c{a=\"1\"}", "c{a=\"1\",b=\"2\"}", "z"]
        );
        let counts: Vec<u64> = m.counters.iter().map(|(_, v)| *v).collect();
        assert_eq!(counts, [1, 1, 1, 2, 1], "both label orders hit one series");
        assert!(m.gauges.is_empty());
    }

    #[test]
    fn absorbing_a_store_adds_counters_and_histograms() {
        let mut a = Metrics::default();
        a.counter_add("c", &[("k", "v")], 2);
        a.observe("h", &[], 0.5, &[1.0]);
        a.gauge_set("g", &[], 1.0);
        let mut b = Metrics::default();
        b.counter_add("c", &[("k", "v")], 3);
        b.counter_add("d", &[], 1);
        b.observe("h", &[], 2.0, &[1.0]);
        b.gauge_set("g", &[], 2.0);
        a.absorb(b);
        let snap = a.snapshot();
        assert_eq!(snap.counters["c{k=\"v\"}"], 5);
        assert_eq!(snap.counters["d"], 1);
        assert_eq!(snap.histograms["h"].counts, vec![1, 1]);
        assert_eq!(snap.histograms["h"].sum, 2.5);
        assert_eq!(snap.gauges["g"], 2.0);
    }

    #[test]
    fn metrics_store_accumulates_deterministically() {
        let mut m = Metrics::default();
        m.counter_add("c", &[("k", "b")], 1);
        m.counter_add("c", &[("k", "a")], 2);
        m.counter_add("c", &[("k", "b")], 10);
        m.gauge_set("g", &[], 1.5);
        m.gauge_set("g", &[], 2.5);
        m.observe("h", &[], 0.5, &[1.0]);
        let snap = m.snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(keys, vec!["c{k=\"a\"}", "c{k=\"b\"}"]);
        assert_eq!(snap.counters["c{k=\"b\"}"], 11);
        assert_eq!(snap.gauges["g"], 2.5, "gauges keep the last value");
        assert_eq!(snap.histograms["h"].count, 1);
    }
}
