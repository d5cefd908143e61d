//! Serializable metric snapshots and their deterministic merge.

use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A histogram frozen for serialization: summary stats plus the non-empty
/// log₂ buckets as `(inclusive_upper_bound, count)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Non-empty buckets: `(upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate quantile `q` from the bucket layout, like
    /// [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(upper, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return upper as f64;
            }
        }
        self.max
    }

    /// Merge another snapshot into this one, bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(upper, c) in &other.buckets {
            *merged.entry(upper).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

impl From<&Histogram> for HistogramSnapshot {
    fn from(h: &Histogram) -> Self {
        h.snapshot()
    }
}

/// Every metric of one run (or of several merged runs), keyed by name.
/// `BTreeMap`s keep serialization order stable, so the same run always
/// produces the same bytes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (merges keep the maximum across runs).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold another run's snapshot into this one: counters and histograms
    /// add, gauges keep the maximum. Addition and max are associative and
    /// commutative, so merging per-repetition snapshots in repetition order
    /// yields the same bytes at any worker count.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(*v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Merge a sequence of snapshots (e.g. one per repetition of a cell).
    pub fn merged(snaps: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in snaps {
            out.merge(s);
        }
        out
    }
}

/// The `.metrics.json` sidecar: per-cell snapshots keyed by experiment id.
pub type MetricsSidecar = BTreeMap<String, Vec<MetricsSnapshot>>;

/// Check a metrics sidecar: at least one experiment, each with at least one
/// snapshot, and every histogram's bucket counts summing to its `count`.
/// Returns a one-line summary.
pub fn validate_sidecar(sidecar: &MetricsSidecar) -> Result<String, String> {
    if sidecar.is_empty() {
        return Err("no experiments recorded".into());
    }
    for (exp, snaps) in sidecar {
        if snaps.is_empty() {
            return Err(format!("{exp}: no snapshots"));
        }
        for (i, snap) in snaps.iter().enumerate() {
            for (name, h) in &snap.histograms {
                let bucket_sum: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                if bucket_sum != h.count {
                    return Err(format!(
                        "{exp}[{i}].{name}: bucket sum {bucket_sum} != count {}",
                        h.count
                    ));
                }
            }
        }
    }
    let snapshots: usize = sidecar.values().map(Vec::len).sum();
    Ok(format!(
        "{} experiment(s), {snapshots} snapshot(s)",
        sidecar.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counter: u64, gauge: f64, obs: &[f64]) -> MetricsSnapshot {
        let mut h = Histogram::new();
        for &v in obs {
            h.observe(v);
        }
        let mut s = MetricsSnapshot::default();
        s.counters.insert("c".into(), counter);
        s.gauges.insert("g".into(), gauge);
        s.histograms.insert("h".into(), h.snapshot());
        s
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = snap(3, 1.0, &[4.0]);
        a.merge(&snap(7, 9.5, &[100.0]));
        assert_eq!(a.counters["c"], 10);
        assert_eq!(a.gauges["g"], 9.5);
        assert_eq!(a.histograms["h"].count, 2);
        assert_eq!(a.histograms["h"].max, 100.0);
    }

    #[test]
    fn merged_is_commutative() {
        let a = snap(1, 2.0, &[1.0, 8.0]);
        let b = snap(5, 1.0, &[300.0]);
        let ab = MetricsSnapshot::merged(&[a.clone(), b.clone()]);
        let ba = MetricsSnapshot::merged(&[b, a]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let s = snap(42, 3.25, &[1.0, 17.0, 900.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
