//! Streaming accumulators over a device's 1 Hz sample stream.
//!
//! `SignalCapturer` logs days of second-granularity data per device; we
//! fold the stream into bounded histograms and counters from which every
//! §3 statistic (median utilization, signals/hour, time-in-state,
//! available-memory spread, transition matrix, dwell times) is recovered.

use mvqoe_kernel::TrimLevel;
use mvqoe_sim::stats;
use mvqoe_workload::fleet::FleetSample;
use mvqoe_workload::UsagePattern;
use serde::{Deserialize, Serialize};

const HOUR: f64 = 3600.0;

/// A fixed-width histogram with clamped edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hist {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Hist {
    /// Create a histogram over `[lo, hi)` with `bins` buckets.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Hist {
        let mut hist = Hist::blank();
        hist.reset(lo, hi, bins);
        hist
    }

    /// A histogram without buckets, for [`Hist::reset`] to lay out.
    fn blank() -> Hist {
        Hist {
            lo: 0.0,
            hi: 0.0,
            counts: Vec::new(),
        }
    }

    /// Empty the histogram and lay it out over `[lo, hi)` with `bins`
    /// buckets, keeping the bucket buffer: afterwards it equals
    /// `Hist::new(lo, hi, bins)`.
    pub fn reset(&mut self, lo: f64, hi: f64, bins: usize) {
        assert!(bins > 0 && hi > lo);
        self.lo = lo;
        self.hi = hi;
        self.counts.clear();
        self.counts.resize(bins, 0);
    }

    /// Add one sample (clamped into the edge buckets).
    pub fn add(&mut self, x: f64) {
        self.add_n(x, 1);
    }

    /// Add `n` samples of value `x`: the same as `n` calls of
    /// [`Hist::add`], for one bucket division.
    pub fn add_n(&mut self, x: f64, n: u64) {
        let bins = self.counts.len() as f64;
        let idx = (((x - self.lo) / (self.hi - self.lo) * bins).floor() as i64)
            .clamp(0, self.counts.len() as i64 - 1) as usize;
        self.counts[idx] += n;
    }

    /// Total samples.
    pub fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Approximate quantile (bucket-midpoint interpolation).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).round().max(1.0) as u64;
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.lo + width * (i as f64 + 0.5);
            }
        }
        self.hi
    }

    /// Approximate mean.
    pub fn mean(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (self.lo + width * (i as f64 + 0.5)))
            .sum();
        sum / n as f64
    }
}

/// Everything observed about one device over its logging period.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceObservation {
    /// Device name.
    pub name: String,
    /// Manufacturer.
    pub manufacturer: String,
    /// RAM in MiB.
    pub ram_mib: u64,
    /// The user's survey answers (Fig. 1).
    pub pattern: UsagePattern,
    /// Total logged hours.
    pub total_hours: f64,
    /// Hours with the screen on.
    pub interactive_hours: f64,
    /// Utilization histogram over interactive samples (%).
    pub util_hist: Hist,
    /// Transitions *into* each level (index = severity 0–3); pressure
    /// signals are indices 1–3.
    pub signals: [u64; 4],
    /// Seconds spent in each level.
    pub state_seconds: [u64; 4],
    /// Available-memory (MiB) histogram per level (Fig. 5).
    pub avail_by_state: Vec<Hist>,
    /// Transition counts `[from][to]` (Fig. 6 top).
    pub transitions: [[u64; 4]; 4],
    /// Dwell durations (s) per state before a transition (Fig. 6 bottom).
    pub dwells: [Vec<f64>; 4],
    last_level: TrimLevel,
    dwell_started_s: u64,
    samples_seen: u64,
}

impl DeviceObservation {
    /// Start observing a device.
    pub fn new(
        name: &str,
        manufacturer: &str,
        ram_mib: u64,
        pattern: UsagePattern,
    ) -> DeviceObservation {
        // Placeholders only: `reset` sets every field.
        let mut obs = DeviceObservation {
            name: String::new(),
            manufacturer: String::new(),
            ram_mib,
            pattern,
            total_hours: 0.0,
            interactive_hours: 0.0,
            util_hist: Hist::blank(),
            signals: [0; 4],
            state_seconds: [0; 4],
            avail_by_state: Vec::new(),
            transitions: [[0; 4]; 4],
            dwells: Default::default(),
            last_level: TrimLevel::Normal,
            dwell_started_s: 0,
            samples_seen: 0,
        };
        obs.reset(name, manufacturer, ram_mib, pattern);
        obs
    }

    /// Start observing another device in this observation's buffers:
    /// afterwards it equals `DeviceObservation::new` with the same
    /// arguments, and a warm observation resets without allocating.
    pub fn reset(&mut self, name: &str, manufacturer: &str, ram_mib: u64, pattern: UsagePattern) {
        self.name.clear();
        self.name.push_str(name);
        self.manufacturer.clear();
        self.manufacturer.push_str(manufacturer);
        self.ram_mib = ram_mib;
        self.pattern = pattern;
        self.total_hours = 0.0;
        self.interactive_hours = 0.0;
        self.util_hist.reset(0.0, 100.0, 200);
        self.signals = [0; 4];
        self.state_seconds = [0; 4];
        self.avail_by_state.resize_with(4, Hist::blank);
        for hist in &mut self.avail_by_state {
            hist.reset(0.0, ram_mib as f64, 128);
        }
        self.transitions = [[0; 4]; 4];
        for dwells in &mut self.dwells {
            dwells.clear();
        }
        self.last_level = TrimLevel::Normal;
        self.dwell_started_s = 0;
        self.samples_seen = 0;
    }

    /// Fold in one 1 Hz sample.
    pub fn record(&mut self, s: &FleetSample) {
        self.total_hours += 1.0 / HOUR;
        if s.interactive {
            self.interactive_hours += 1.0 / HOUR;
            self.util_hist.add(s.utilization_pct);
        }
        let sev = s.trim.severity();
        self.state_seconds[sev] += 1;
        self.avail_by_state[sev].add(s.available_mib);

        if s.trim != self.last_level {
            let from = self.last_level.severity();
            self.transitions[from][sev] += 1;
            let dwell = (self.samples_seen - self.dwell_started_s) as f64;
            if self.dwells[from].len() < 100_000 {
                self.dwells[from].push(dwell);
            }
            self.dwell_started_s = self.samples_seen;
            if s.trim.is_pressure() {
                self.signals[sev] += 1;
            }
            self.last_level = s.trim;
        }
        self.samples_seen += 1;
    }

    /// Fold in `n` consecutive seconds of `s`'s state: bit for bit the same
    /// as `n` calls of [`DeviceObservation::record`] with `s`. Only the
    /// first second can be a transition; the rest land in their buckets
    /// at once. The hour sums still add one second at a time, so their
    /// `f64` rounding is the per-second path's.
    pub fn record_run(&mut self, s: &FleetSample, n: u64) {
        let Some(rest) = n.checked_sub(1) else {
            return;
        };
        self.record(s);
        for _ in 0..rest {
            self.total_hours += 1.0 / HOUR;
            if s.interactive {
                self.interactive_hours += 1.0 / HOUR;
            }
        }
        if s.interactive {
            self.util_hist.add_n(s.utilization_pct, rest);
        }
        let sev = s.trim.severity();
        self.state_seconds[sev] += rest;
        self.avail_by_state[sev].add_n(s.available_mib, rest);
        self.samples_seen += rest;
    }

    /// Median RAM utilization over interactive samples (Fig. 2's variable).
    pub fn median_utilization(&self) -> f64 {
        self.util_hist.quantile(0.5)
    }

    /// Signals of `level` per logged hour (Fig. 3's y-axis).
    pub fn signals_per_hour(&self, level: TrimLevel) -> f64 {
        if self.total_hours <= 0.0 {
            return 0.0;
        }
        self.signals[level.severity()] as f64 / self.total_hours
    }

    /// All pressure signals per hour.
    pub fn total_signals_per_hour(&self) -> f64 {
        if self.total_hours <= 0.0 {
            return 0.0;
        }
        (self.signals[1] + self.signals[2] + self.signals[3]) as f64 / self.total_hours
    }

    /// Fraction of logged time spent in `level` (Fig. 4's y-axis).
    pub fn time_fraction(&self, level: TrimLevel) -> f64 {
        let total: u64 = self.state_seconds.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.state_seconds[level.severity()] as f64 / total as f64
    }

    /// Fraction of time out of Normal.
    pub fn pressure_time_fraction(&self) -> f64 {
        1.0 - self.time_fraction(TrimLevel::Normal)
    }

    /// Probability of moving to `to` given a departure from `from`
    /// (Fig. 6's bars).
    pub fn transition_prob(&self, from: TrimLevel, to: TrimLevel) -> f64 {
        let row = &self.transitions[from.severity()];
        let total: u64 = row.iter().sum();
        if total == 0 {
            return 0.0;
        }
        row[to.severity()] as f64 / total as f64
    }

    /// Dwell-time percentile (s) in `state` before any transition.
    pub fn dwell_percentile(&self, state: TrimLevel, p: f64) -> f64 {
        stats::percentile(&self.dwells[state.severity()], p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_sim::{SimRng, SimTime};
    use proptest::prelude::*;

    fn sample(at_s: u64, trim: TrimLevel, util: f64, interactive: bool) -> FleetSample {
        FleetSample {
            at: SimTime::from_secs(at_s),
            available_mib: 400.0,
            utilization_pct: util,
            trim,
            interactive,
            n_services: 8,
        }
    }

    fn pattern() -> UsagePattern {
        UsagePattern::sample(&mut SimRng::new(1))
    }

    #[test]
    fn hist_quantiles() {
        let mut h = Hist::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.add(i as f64);
        }
        assert!((h.quantile(0.5) - 50.0).abs() < 2.0);
        assert!((h.mean() - 49.5).abs() < 1.0);
        assert_eq!(h.n(), 100);
    }

    #[test]
    fn records_time_and_utilization() {
        let mut obs = DeviceObservation::new("d", "X", 2048, pattern());
        for s in 0..7200 {
            obs.record(&sample(s, TrimLevel::Normal, 65.0, s % 2 == 0));
        }
        assert!((obs.total_hours - 2.0).abs() < 1e-6);
        assert!((obs.interactive_hours - 1.0).abs() < 1e-6);
        assert!((obs.median_utilization() - 65.0).abs() < 1.0);
    }

    #[test]
    fn counts_signals_and_transitions() {
        let mut obs = DeviceObservation::new("d", "X", 1024, pattern());
        // Normal 10 s → Moderate 5 s → Critical 3 s → Normal.
        let mut t = 0;
        for _ in 0..10 {
            obs.record(&sample(t, TrimLevel::Normal, 70.0, true));
            t += 1;
        }
        for _ in 0..5 {
            obs.record(&sample(t, TrimLevel::Moderate, 80.0, true));
            t += 1;
        }
        for _ in 0..3 {
            obs.record(&sample(t, TrimLevel::Critical, 90.0, true));
            t += 1;
        }
        obs.record(&sample(t, TrimLevel::Normal, 70.0, true));

        assert_eq!(obs.signals[TrimLevel::Moderate.severity()], 1);
        assert_eq!(obs.signals[TrimLevel::Critical.severity()], 1);
        assert_eq!(obs.signals[TrimLevel::Normal.severity()], 0);
        assert_eq!(
            obs.transition_prob(TrimLevel::Moderate, TrimLevel::Critical),
            1.0
        );
        assert_eq!(
            obs.transition_prob(TrimLevel::Critical, TrimLevel::Normal),
            1.0
        );
        // Dwell in Moderate was 5 s.
        assert_eq!(obs.dwell_percentile(TrimLevel::Moderate, 50.0), 5.0);
        assert_eq!(obs.state_seconds[TrimLevel::Moderate.severity()], 5);
        assert!(obs.pressure_time_fraction() > 0.3);
    }

    #[test]
    fn reset_after_recording_equals_new() {
        let mut obs = DeviceObservation::new("Xiaomi fleet-12", "Xiaomi", 4096, pattern());
        for (t, trim) in [TrimLevel::Normal, TrimLevel::Moderate, TrimLevel::Critical]
            .into_iter()
            .cycle()
            .take(90)
            .enumerate()
        {
            obs.record(&sample(t as u64, trim, 80.0, t % 3 == 0));
        }
        let other = UsagePattern::sample(&mut SimRng::new(2));
        obs.reset("d", "X", 1024, other);
        assert_eq!(
            serde_json::to_string(&obs).unwrap(),
            serde_json::to_string(&DeviceObservation::new("d", "X", 1024, other)).unwrap()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A random sample stream cut into runs folds to the same bytes
        /// through `record_run` as through one `record` per second. Few
        /// distinct values make runs of equal samples sit side by side,
        /// and the edge values land in the histograms' clamped buckets.
        #[test]
        fn record_run_equals_per_second_records(
            runs in prop::collection::vec((0usize..4, any::<bool>(), 0usize..3, 0u64..400), 0..60)
        ) {
            const UTIL: [f64; 3] = [12.5, 61.2, 150.0];
            const AVAIL: [f64; 3] = [-5.0, 700.3, 4096.0];
            let mut per_second = DeviceObservation::new("d", "X", 2048, pattern());
            let mut in_runs = per_second.clone();
            let mut t = 0;
            for (trim, interactive, value, n) in runs {
                let mut s = sample(t, TrimLevel::ALL[trim], UTIL[value], interactive);
                s.available_mib = AVAIL[value];
                for _ in 0..n {
                    per_second.record(&s);
                }
                in_runs.record_run(&s, n);
                t += n;
            }
            prop_assert_eq!(
                serde_json::to_string(&in_runs).unwrap(),
                serde_json::to_string(&per_second).unwrap()
            );
        }
    }

    #[test]
    fn signals_per_hour_scales() {
        let mut obs = DeviceObservation::new("d", "X", 1024, pattern());
        let mut t = 0;
        // One Moderate signal per 6 minutes for one hour → 10/hour.
        for cycle in 0..10 {
            for _ in 0..300 {
                obs.record(&sample(t, TrimLevel::Normal, 70.0, true));
                t += 1;
            }
            for _ in 0..60 {
                obs.record(&sample(t, TrimLevel::Moderate, 85.0, true));
                t += 1;
            }
            let _ = cycle;
        }
        let rate = obs.signals_per_hour(TrimLevel::Moderate);
        assert!((rate - 10.0).abs() < 0.5, "rate {rate}");
        assert!((obs.total_signals_per_hour() - 10.0).abs() < 0.5);
    }
}
