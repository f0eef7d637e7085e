//! Measurement collection: counters and streaming histograms.
//!
//! Models register named statistics with the engine's [`StatsRegistry`] and
//! bump them during event handling; harness code reads them out after a run.
//! The histogram keeps raw samples (simulation runs here are small enough)
//! so exact quantiles and standard deviations are available — the paper's
//! Fig. 5 reports stddev error bars.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// A monotonically increasing named counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A sample collection with exact summary statistics.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a raw sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Record a [`SimTime`] sample in nanoseconds.
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_ns_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Population standard deviation, or `None` when empty.
    pub fn stddev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|s| (s - mean) * (s - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        Some(var.sqrt())
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Exact quantile by nearest-rank (q in `[0,1]`), or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        Some(self.samples[idx])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The raw samples in recorded order (post-quantile calls the order is
    /// sorted; both are deterministic). The parity suite compares these
    /// bit-for-bit across thread counts.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Named statistics owned by an [`crate::Engine`].
#[derive(Debug, Default)]
pub struct StatsRegistry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter, created on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_owned(), Counter::default());
        }
        self.counters.get_mut(name).expect("just inserted")
    }

    /// The named histogram, created on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_owned(), Histogram::new());
        }
        self.histograms.get_mut(name).expect("just inserted")
    }

    /// Read a counter's value (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map(Counter::get).unwrap_or(0)
    }

    /// Read-only access to a histogram, if it exists.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counter names in lexicographic order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All histogram names in lexicographic order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Fold another registry into this one: counters add, histogram samples
    /// append in `other`'s recorded order. The engine merges shard
    /// registries in shard-id order, which keeps the merged sample sequence
    /// (and therefore f64 summation order in `mean`/`stddev`) bit-identical
    /// regardless of worker thread count.
    pub fn merge_from(&mut self, other: &StatsRegistry) {
        for (name, c) in &other.counters {
            self.counter(name).add(c.get());
        }
        for (name, h) in &other.histograms {
            let mine = self.histogram(name);
            for &v in h.samples() {
                mine.record(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        let sd = h.stddev().unwrap();
        assert!((sd - 1.118033988749895).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.stddev(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new();
        // Insert shuffled; quantile must sort internally.
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.median(), Some(3.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
        // Further records invalidate the sort and still work.
        h.record(0.0);
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn record_time_in_ns() {
        let mut h = Histogram::new();
        h.record_time(SimTime::from_us(2));
        assert_eq!(h.mean(), Some(2000.0));
    }

    #[test]
    fn registry_creates_and_reads() {
        let mut r = StatsRegistry::new();
        r.counter("pkts").add(3);
        r.histogram("lat").record(7.0);
        assert_eq!(r.counter_value("pkts"), 3);
        assert_eq!(r.counter_value("missing"), 0);
        assert_eq!(r.get_histogram("lat").unwrap().count(), 1);
        assert!(r.get_histogram("missing").is_none());
        assert_eq!(r.counter_names().collect::<Vec<_>>(), vec!["pkts"]);
        assert_eq!(r.histogram_names().collect::<Vec<_>>(), vec!["lat"]);
    }
}
