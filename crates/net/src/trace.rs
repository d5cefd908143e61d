//! Time-varying link traces: typed change-points plus cellular presets.
//!
//! A [`LinkTrace`] is a sorted list of [`TracePoint`]s, each optionally
//! overriding the link's rate, latency, or loss probability from that time
//! on. Fields left `None` keep whatever value was in effect before the
//! point (ultimately the static [`LinkParams`](crate::LinkParams) base
//! values). An empty trace reproduces the static link exactly.
//!
//! The presets model the three joint-pressure network regimes used by the
//! arena experiment: an LTE walk with handover drops, a congested-WiFi
//! sawtooth, and a train ride through tunnels. All three are generated
//! from a caller-supplied seed (derive it from experiment coordinates for
//! byte-identical artifacts at any `--jobs` count) and cover a fixed
//! horizon so the pattern keeps varying however late the video phase
//! starts after the pressure ramp.

use mvqoe_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One typed change-point. Fields left `None` keep their previous value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Time this point takes effect.
    pub at: SimTime,
    /// New link rate in Mbit/s, if it changes here.
    pub rate_mbps: Option<f64>,
    /// New one-way latency, if it changes here.
    pub latency: Option<SimDuration>,
    /// New per-transfer loss probability, if it changes here.
    pub loss_prob: Option<f64>,
}

impl TracePoint {
    /// A point that changes nothing (useful as a builder seed).
    pub fn at(at: SimTime) -> TracePoint {
        TracePoint {
            at,
            rate_mbps: None,
            latency: None,
            loss_prob: None,
        }
    }
}

/// A time-varying link trace: typed change-points, kept sorted by time.
///
/// Built either point by point with the chainable [`rate`](Self::rate) /
/// [`latency`](Self::latency) / [`loss`](Self::loss) builder methods
/// (points at the same timestamp merge), or wholesale with one of the
/// preset constructors.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkTrace {
    points: Vec<TracePoint>,
}

impl LinkTrace {
    /// An empty trace: the link keeps its static parameters throughout.
    pub fn new() -> LinkTrace {
        LinkTrace { points: Vec::new() }
    }

    /// True when the trace has no change-points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of change-points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// The change-points, sorted by time.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Merge a change-point in, keeping points sorted. A point at an
    /// already-present timestamp merges field-wise (later wins).
    pub fn point(mut self, p: TracePoint) -> LinkTrace {
        let idx = self.points.partition_point(|q| q.at < p.at);
        match self.points.get_mut(idx) {
            Some(q) if q.at == p.at => {
                q.rate_mbps = p.rate_mbps.or(q.rate_mbps);
                q.latency = p.latency.or(q.latency);
                q.loss_prob = p.loss_prob.or(q.loss_prob);
            }
            _ => self.points.insert(idx, p),
        }
        self
    }

    /// Add a rate change-point.
    pub fn rate(self, at: SimTime, mbps: f64) -> LinkTrace {
        self.point(TracePoint {
            rate_mbps: Some(mbps),
            ..TracePoint::at(at)
        })
    }

    /// Add a latency change-point.
    pub fn latency(self, at: SimTime, latency: SimDuration) -> LinkTrace {
        self.point(TracePoint {
            latency: Some(latency),
            ..TracePoint::at(at)
        })
    }

    /// Add a loss change-point.
    pub fn loss(self, at: SimTime, loss_prob: f64) -> LinkTrace {
        self.point(TracePoint {
            loss_prob: Some(loss_prob),
            ..TracePoint::at(at)
        })
    }

    /// Rate in effect at `t`, given the static base rate.
    pub fn rate_at(&self, base: f64, t: SimTime) -> f64 {
        let cut = self.points.partition_point(|p| p.at <= t);
        self.points[..cut]
            .iter()
            .rev()
            .find_map(|p| p.rate_mbps)
            .unwrap_or(base)
    }

    /// Latency in effect at `t`, given the static base latency.
    pub fn latency_at(&self, base: SimDuration, t: SimTime) -> SimDuration {
        let cut = self.points.partition_point(|p| p.at <= t);
        self.points[..cut]
            .iter()
            .rev()
            .find_map(|p| p.latency)
            .unwrap_or(base)
    }

    /// Loss probability in effect at `t`, given the static base loss.
    pub fn loss_at(&self, base: f64, t: SimTime) -> f64 {
        let cut = self.points.partition_point(|p| p.at <= t);
        self.points[..cut]
            .iter()
            .rev()
            .find_map(|p| p.loss_prob)
            .unwrap_or(base)
    }

    /// First change-point strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.points
            .get(self.points.partition_point(|p| p.at <= t))
            .map(|p| p.at)
    }

    /// LTE while walking: a log-space random walk of the rate with
    /// periodic handovers — a ~1 s collapse to sub-Mbit rates with a
    /// latency spike and loss, then recovery to the walk.
    pub fn lte_walk(seed: u64, horizon_secs: f64) -> LinkTrace {
        let mut rng = SimRng::new(seed).split("lte-walk");
        let mut tr = LinkTrace::new();
        let mut rate = rng.uniform(10.0, 25.0);
        let mut t = 0.0;
        let mut next_handover = rng.uniform(18.0, 32.0);
        tr = tr
            .rate(SimTime::ZERO, rate)
            .latency(SimTime::ZERO, SimDuration::from_millis(45))
            .loss(SimTime::ZERO, 0.0);
        while t < horizon_secs {
            if t >= next_handover {
                let dip_secs = rng.uniform(0.8, 1.6);
                let dip_rate = rng.uniform(0.3, 1.0);
                tr = tr.point(TracePoint {
                    at: SimTime::from_secs_f64(t),
                    rate_mbps: Some(dip_rate),
                    latency: Some(SimDuration::from_millis(150)),
                    loss_prob: Some(0.05),
                });
                t += dip_secs;
                tr = tr.point(TracePoint {
                    at: SimTime::from_secs_f64(t),
                    rate_mbps: Some(rate),
                    latency: Some(SimDuration::from_millis(45)),
                    loss_prob: Some(0.0),
                });
                next_handover = t + rng.uniform(18.0, 32.0);
            }
            // Walk step every 2 s; multiplicative so the rate stays positive
            // and spends time at both ends of the LTE range.
            rate = (rate * rng.normal(0.0, 0.25).exp()).clamp(2.5, 45.0);
            tr = tr.rate(SimTime::from_secs_f64(t), rate);
            if rng.chance(0.3) {
                let jitter = rng.uniform(30.0, 80.0);
                tr = tr.latency(
                    SimTime::from_secs_f64(t),
                    SimDuration::from_micros((jitter * 1_000.0) as u64),
                );
            }
            t += 2.0;
        }
        tr
    }

    /// Congested WiFi: a sawtooth. Contention builds — the rate decays
    /// multiplicatively while latency and loss climb — until the cell
    /// resets (users leave) and the cycle restarts from a fresh peak.
    pub fn congested_wifi(seed: u64, horizon_secs: f64) -> LinkTrace {
        let mut rng = SimRng::new(seed).split("wifi-sawtooth");
        let mut tr = LinkTrace::new();
        let mut t = 0.0;
        while t < horizon_secs {
            let peak = rng.uniform(18.0, 26.0);
            let decay = rng.uniform(0.55, 0.70);
            let mut rate = peak;
            let mut step = 0u32;
            while rate > 3.0 && t < horizon_secs {
                let congestion = f64::from(step);
                tr = tr.point(TracePoint {
                    at: SimTime::from_secs_f64(t),
                    rate_mbps: Some(rate),
                    latency: Some(SimDuration::from_micros(
                        (15_000.0 + congestion * 9_000.0) as u64,
                    )),
                    loss_prob: Some((congestion * 0.008).min(0.03)),
                });
                rate *= decay;
                step += 1;
                t += 3.0;
            }
        }
        tr
    }

    /// A train ride: good LTE punctuated by tunnels. Each 45–75 s window
    /// holds one near-outage (rate collapses to ~50 kbit/s with heavy
    /// loss) lasting 5–9 s, then service is restored.
    pub fn train_tunnel(seed: u64, horizon_secs: f64) -> LinkTrace {
        let mut rng = SimRng::new(seed).split("train-tunnel");
        let mut tr = LinkTrace::new();
        let mut t = 0.0;
        tr = tr
            .rate(SimTime::ZERO, rng.uniform(20.0, 30.0))
            .latency(SimTime::ZERO, SimDuration::from_millis(50))
            .loss(SimTime::ZERO, 0.0);
        while t < horizon_secs {
            let window = rng.uniform(45.0, 75.0);
            let tunnel_at = t + rng.uniform(8.0, (window - 12.0).max(9.0));
            let tunnel_secs = rng.uniform(5.0, 9.0);
            tr = tr.point(TracePoint {
                at: SimTime::from_secs_f64(tunnel_at),
                rate_mbps: Some(0.05),
                latency: Some(SimDuration::from_millis(250)),
                loss_prob: Some(0.25),
            });
            tr = tr.point(TracePoint {
                at: SimTime::from_secs_f64(tunnel_at + tunnel_secs),
                rate_mbps: Some(rng.uniform(20.0, 30.0)),
                latency: Some(SimDuration::from_millis(50)),
                loss_prob: Some(0.0),
            });
            t += window;
        }
        tr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_keeps_base_values() {
        let tr = LinkTrace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.rate_at(8.0, SimTime::from_secs(5)), 8.0);
        assert_eq!(
            tr.latency_at(SimDuration::from_millis(4), SimTime::ZERO),
            SimDuration::from_millis(4)
        );
        assert_eq!(tr.loss_at(0.0, SimTime::MAX), 0.0);
        assert_eq!(tr.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn points_merge_and_sort() {
        let tr = LinkTrace::new()
            .rate(SimTime::from_secs(10), 4.0)
            .rate(SimTime::from_secs(2), 16.0)
            .latency(SimTime::from_secs(10), SimDuration::from_millis(90));
        assert_eq!(tr.len(), 2); // the two t=10 points merged
        assert_eq!(tr.points()[0].at, SimTime::from_secs(2));
        assert_eq!(tr.rate_at(8.0, SimTime::from_secs(1)), 8.0);
        assert_eq!(tr.rate_at(8.0, SimTime::from_secs(2)), 16.0);
        assert_eq!(tr.rate_at(8.0, SimTime::from_secs(11)), 4.0);
        // Latency only changes at t=10; before that the base holds.
        assert_eq!(
            tr.latency_at(SimDuration::from_millis(4), SimTime::from_secs(5)),
            SimDuration::from_millis(4)
        );
        assert_eq!(
            tr.latency_at(SimDuration::from_millis(4), SimTime::from_secs(10)),
            SimDuration::from_millis(90)
        );
    }

    #[test]
    fn none_fields_inherit_from_earlier_points() {
        let tr = LinkTrace::new()
            .rate(SimTime::from_secs(1), 20.0)
            .loss(SimTime::from_secs(5), 0.1);
        // The t=5 point sets only loss; rate carries over from t=1.
        assert_eq!(tr.rate_at(8.0, SimTime::from_secs(6)), 20.0);
        assert_eq!(tr.loss_at(0.0, SimTime::from_secs(6)), 0.1);
        assert_eq!(tr.loss_at(0.0, SimTime::from_secs(4)), 0.0);
    }

    #[test]
    fn next_change_walks_the_points() {
        let tr = LinkTrace::new()
            .rate(SimTime::from_secs(1), 1.0)
            .rate(SimTime::from_secs(3), 2.0);
        assert_eq!(tr.next_change_after(SimTime::ZERO), Some(SimTime::from_secs(1)));
        assert_eq!(
            tr.next_change_after(SimTime::from_secs(1)),
            Some(SimTime::from_secs(3))
        );
        assert_eq!(tr.next_change_after(SimTime::from_secs(3)), None);
    }

    #[test]
    fn presets_are_deterministic_and_distinct() {
        for preset in [
            LinkTrace::lte_walk as fn(u64, f64) -> LinkTrace,
            LinkTrace::congested_wifi,
            LinkTrace::train_tunnel,
        ] {
            let a = preset(7, 300.0);
            let b = preset(7, 300.0);
            let c = preset(8, 300.0);
            assert_eq!(a, b, "same seed must reproduce the same trace");
            assert_ne!(a, c, "different seeds must vary the trace");
            assert!(!a.is_empty());
            // Sorted by time.
            assert!(a.points().windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn presets_cover_the_horizon() {
        for preset in [
            LinkTrace::lte_walk as fn(u64, f64) -> LinkTrace,
            LinkTrace::congested_wifi,
            LinkTrace::train_tunnel,
        ] {
            let tr = preset(42, 600.0);
            let last = tr.points().last().unwrap().at;
            assert!(
                last >= SimTime::from_secs(500),
                "trace should keep varying near the horizon, last point at {last}"
            );
        }
    }

    #[test]
    fn lte_walk_has_handover_outages() {
        let tr = LinkTrace::lte_walk(3, 300.0);
        let dips = tr
            .points()
            .iter()
            .filter(|p| p.rate_mbps.is_some_and(|r| r < 1.5))
            .count();
        assert!(dips >= 3, "expected several handover dips, got {dips}");
    }

    #[test]
    fn trace_round_trips_through_serde() {
        let tr = LinkTrace::train_tunnel(5, 200.0);
        let v = serde::to_value(&tr);
        let back = serde::from_value::<LinkTrace>(&v).unwrap();
        assert_eq!(tr, back);
    }
}
