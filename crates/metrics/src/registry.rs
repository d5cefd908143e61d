//! The metric registry: names are registered once up front, then the hot
//! paths record through small integer ids — no hashing, no allocation.
//! Name lookups (`counter_value`, `add_counter`, `set_gauge`, and the
//! scrape path) go through an O(1) name→id hash index; determinism is
//! unaffected because snapshots iterate the registration-order `Vec`s, the
//! index is never iterated.

use crate::histogram::Histogram;
use crate::snapshot::MetricsSnapshot;
use std::collections::HashMap;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Registered metrics for one run. A run without metrics carries no
/// registry at all (its `Option<&mut Telemetry>` is `None`), so every
/// registry records.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    by_name: HashMap<String, (Kind, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register (or look up) a monotone counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&(Kind::Counter, i)) = self.by_name.get(name) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push((name.to_string(), 0));
        self.by_name.insert(name.to_string(), (Kind::Counter, i));
        CounterId(i)
    }

    /// Register (or look up) a gauge (last value wins within a run; merges
    /// across runs keep the maximum).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&(Kind::Gauge, i)) = self.by_name.get(name) {
            return GaugeId(i);
        }
        let i = self.gauges.len();
        self.gauges.push((name.to_string(), 0.0));
        self.by_name.insert(name.to_string(), (Kind::Gauge, i));
        GaugeId(i)
    }

    /// Register (or look up) a log₂-bucketed histogram.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(&(Kind::Histogram, i)) = self.by_name.get(name) {
            return HistogramId(i);
        }
        let i = self.histograms.len();
        self.histograms.push((name.to_string(), Histogram::new()));
        self.by_name.insert(name.to_string(), (Kind::Histogram, i));
        HistogramId(i)
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        self.histograms[id.0].1.observe(v);
    }

    /// Register-and-add in one call, for cold paths that fold in totals at
    /// the end of a run (e.g. absorbing `/proc/vmstat`-style counters).
    pub fn add_counter(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.counters[id.0].1 += n;
    }

    /// Register-and-set in one call (cold paths).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let id = self.gauge(name);
        self.gauges[id.0].1 = v;
    }

    /// Current value of a counter by name (None when absent).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.by_name.get(name) {
            Some(&(Kind::Counter, i)) => Some(self.counters[i].1),
            _ => None,
        }
    }

    /// Current value of a gauge by name (None when absent).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.by_name.get(name) {
            Some(&(Kind::Gauge, i)) => Some(self.gauges[i].1),
            _ => None,
        }
    }

    /// Snapshot every metric into a serializable, name-sorted form.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), *v))
                .collect(),
            gauges: self.gauges.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_records_and_snapshots() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("kernel.pgscan_kswapd");
        let g = r.gauge("mem.pss_peak_mib");
        let h = r.histogram("video.decode_us");
        r.inc(c, 3);
        r.inc(c, 2);
        r.set(g, 141.5);
        r.observe(h, 900.0);
        let s = r.snapshot();
        assert_eq!(s.counters.get("kernel.pgscan_kswapd"), Some(&5));
        assert_eq!(s.gauges.get("mem.pss_peak_mib"), Some(&141.5));
        assert_eq!(s.histograms.get("video.decode_us").unwrap().count, 1);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a, 1);
        r.inc(b, 1);
        assert_eq!(r.counter_value("x"), Some(2));
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn ids_are_stable_under_interleaved_registration() {
        // The name index may reorganise internally, but the id handed out
        // at first registration must survive arbitrary later churn: the
        // scrape path and long-lived services cache ids across threads.
        let mut r = MetricsRegistry::new();
        let ids: Vec<CounterId> = (0..64).map(|i| r.counter(&format!("c{i}"))).collect();
        for i in 0..64 {
            r.gauge(&format!("g{i}"));
            r.histogram(&format!("h{i}"));
            assert_eq!(
                r.counter(&format!("c{i}")),
                ids[i],
                "re-registration must return the original id"
            );
        }
        for (i, id) in ids.iter().enumerate() {
            r.inc(*id, i as u64);
        }
        for i in 0..64 {
            assert_eq!(r.counter_value(&format!("c{i}")), Some(i as u64));
        }
        r.set_gauge("g7", 7.5);
        assert_eq!(r.gauge_value("g7"), Some(7.5));
    }

    #[test]
    fn same_name_different_kind_gets_its_own_slot() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("dual");
        let g = r.gauge("dual");
        r.inc(c, 1);
        r.set(g, 2.0);
        // Last registration of a name wins the lookup table, but both slots
        // record; snapshot keys are per-kind maps so neither is lost.
        let s = r.snapshot();
        assert_eq!(s.counters.get("dual"), Some(&1));
        assert_eq!(s.gauges.get("dual"), Some(&2.0));
    }
}
