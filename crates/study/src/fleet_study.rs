//! The §3 fleet study: run a simulated user population and aggregate.
//!
//! The study streams: each user is simulated and immediately folded into a
//! [`FleetAggregate`], so memory stays bounded by the aggregate's caps
//! rather than by fleet size. Every path steps a user the same way, one
//! [`FleetUser::step_1s`] per simulated second, and no user's samples
//! depend on another's. Shards of the user-index range fold
//! independently and [`FleetAggregate::absorb`] back together with
//! byte-identical results — the million-device path in
//! `mvqoe-experiments` is just `simulate_range` over contiguous index
//! ranges fanned across workers.

use crate::fleet_aggregate::FleetAggregate;
use crate::observation::DeviceObservation;
use mvqoe_sim::{SimRng, SimTime};
use mvqoe_workload::FleetUser;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Fleet-study parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Users recruited (the paper: 80).
    pub n_users: u32,
    /// Root seed.
    pub seed: u64,
    /// Median observation length in hours (the paper's range is 1–18 days,
    /// ≈ 124 h mean).
    pub median_hours: f64,
    /// Cleaning rule: minimum interactive hours to keep a device (the
    /// paper: 10 h, keeping 48 of 80).
    pub min_interactive_hours: f64,
    /// Shortest observation (the paper's 1 day).
    pub hours_lo: f64,
    /// Longest observation (the paper's 18 days).
    pub hours_hi: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_users: 80,
            seed: 2022,
            median_hours: 100.0,
            min_interactive_hours: 10.0,
            hours_lo: 24.0,
            hours_hi: 432.0,
        }
    }
}

impl FleetConfig {
    /// A config whose observation-length clamp scales with the median:
    /// the paper's literal 1–18 day band whenever the median is at paper
    /// scale (≥ 16 h, which covers both the full and the quick protocol,
    /// keeping their outputs bit-identical to the pre-streaming engine),
    /// proportional below it so million-user smoke fleets with
    /// second-scale medians aren't all clamped up to a day of simulation
    /// each.
    pub fn scaled(
        n_users: u32,
        seed: u64,
        median_hours: f64,
        min_interactive_hours: f64,
    ) -> FleetConfig {
        let (hours_lo, hours_hi) = if median_hours >= 16.0 {
            (24.0, 432.0)
        } else {
            (median_hours * 0.24, median_hours * 4.32)
        };
        FleetConfig {
            n_users,
            seed,
            median_hours,
            min_interactive_hours,
            hours_lo,
            hours_hi,
        }
    }
}

/// Simulate one fleet user. Every draw comes from streams split off the
/// root seed by the user's index, so users are independent of each other
/// and of the order they are simulated in — callers may fan users out over
/// threads and assemble with [`assemble_fleet`] or fold shard aggregates
/// from [`simulate_range`] together.
pub fn simulate_user(cfg: &FleetConfig, i: u32) -> (DeviceObservation, f64) {
    let mut st = start_user(cfg, i);
    let mut obs = st.observation();
    for s in 0..st.seconds() {
        let sample = st.user.step_1s(SimTime::from_secs(s));
        obs.record(&sample);
    }
    (obs, st.hours)
}

/// A fleet user mid-observation: the handle load generators drive one
/// second at a time, uploading each [`mvqoe_workload::FleetSample`] instead
/// of folding it locally. [`DeviceObservation::record`] is a pure function
/// of the sample stream, so a receiver replaying the uploaded samples
/// reconstructs exactly the observation [`simulate_user`] would have built.
pub struct UserStream {
    /// User index within the fleet.
    pub idx: u32,
    /// The simulated user (device profile + workload pattern).
    pub user: FleetUser,
    /// Observation length in hours.
    pub hours: f64,
}

/// Number of 1 Hz samples an observation of `hours` spans.
pub fn observation_seconds(hours: f64) -> u64 {
    (hours * 3600.0) as u64
}

impl UserStream {
    /// Number of 1 Hz samples this observation spans.
    pub fn seconds(&self) -> u64 {
        observation_seconds(self.hours)
    }

    /// A fresh observation for this user's device and pattern.
    pub fn observation(&self) -> DeviceObservation {
        observation_of(&self.user)
    }
}

/// A fresh observation for `user`'s device and pattern.
fn observation_of(user: &FleetUser) -> DeviceObservation {
    let d = &user.device;
    DeviceObservation::new(&d.name, &d.manufacturer, d.ram_mib, user.pattern)
}

/// Start simulating one fleet user without folding anything. Draws happen
/// in exactly [`simulate_user`]'s order — observation hours from the
/// `hours-{i}` stream first, then the device/pattern streams inside
/// [`FleetUser::new`] — so driving the returned stream to completion
/// yields the observation [`simulate_user`] and [`simulate_range`] fold.
pub fn start_user(cfg: &FleetConfig, i: u32) -> UserStream {
    let root = SimRng::new(cfg.seed);
    let hours = observation_hours(cfg, &root, i);
    let user = FleetUser::new(i, &root);
    UserStream {
        idx: i,
        user,
        hours,
    }
}

/// User `i`'s observation length in hours, drawn from its own `hours-{i}`
/// stream of the fleet's root RNG: heavy-tailed, 1–18 days at paper scale.
fn observation_hours(cfg: &FleetConfig, root: &SimRng, i: u32) -> f64 {
    root.split_u32("hours-", i)
        .lognormal(cfg.median_hours, 0.9)
        .clamp(cfg.hours_lo, cfg.hours_hi)
}

/// Simulate a contiguous shard of the user-index range, folding each user
/// into an aggregate as soon as it finishes — O(aggregate) memory, not
/// O(shard size).
///
/// Each user steps to the end of its observation before the next one
/// begins. One user and one observation serve the whole shard: each user
/// renews them in place ([`FleetUser::renew`], [`DeviceObservation::reset`]),
/// which builds exactly what [`start_user`] and [`UserStream::observation`]
/// would without allocating them again.
pub fn simulate_range(cfg: &FleetConfig, users: Range<u32>) -> FleetAggregate {
    let mut agg = FleetAggregate::new();
    let root = SimRng::new(cfg.seed);
    let mut live: Option<(FleetUser, DeviceObservation)> = None;
    for i in users {
        let hours = observation_hours(cfg, &root, i);
        let (user, obs) = match &mut live {
            Some((user, obs)) => {
                user.renew(i, &root);
                let d = &user.device;
                obs.reset(&d.name, &d.manufacturer, d.ram_mib, user.pattern);
                (user, obs)
            }
            None => {
                let user = FleetUser::new(i, &root);
                let obs = observation_of(&user);
                let (user, obs) = live.insert((user, obs));
                (user, obs)
            }
        };
        for s in 0..observation_seconds(hours) {
            obs.record(&user.step_1s(SimTime::from_secs(s)));
        }
        agg.fold(cfg, i, obs, hours);
    }
    agg
}

/// Apply the cleaning rule and aggregate per-user observations (in
/// user-index order) into one aggregate. Tests hold the streaming paths,
/// which never build the `Vec`, to this materialized reference.
pub fn assemble_fleet(cfg: &FleetConfig, users: Vec<(DeviceObservation, f64)>) -> FleetAggregate {
    let mut aggregate = FleetAggregate::new();
    for (i, (obs, hours)) in users.iter().enumerate() {
        aggregate.fold(cfg, i as u32, obs, *hours);
    }
    aggregate
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            n_users: 8,
            seed: 7,
            median_hours: 14.0,
            min_interactive_hours: 2.0,
            ..FleetConfig::default()
        }
    }

    /// One shared small fleet run (running it per-test would dominate the
    /// suite's wall time).
    fn small_fleet() -> &'static FleetAggregate {
        static FLEET: OnceLock<FleetAggregate> = OnceLock::new();
        FLEET.get_or_init(|| {
            let cfg = small_cfg();
            simulate_range(&cfg, 0..cfg.n_users)
        })
    }

    #[test]
    fn fleet_runs_and_cleans() {
        let r = small_fleet();
        assert_eq!(r.recruited, 8);
        assert!(r.kept > 0, "some devices must pass cleaning");
        assert!(r.kept <= 8);
        assert!(r.total_hours() > 8.0 * 14.0);
        assert!(r.digests_complete());
        for d in &r.digests {
            assert!(d.interactive_hours > 2.0);
        }
    }

    #[test]
    fn utilization_medians_are_plausible() {
        let r = small_fleet();
        let utils: Vec<f64> = r.digests.iter().map(|d| d.median_utilization).collect();
        assert!(utils.iter().all(|&u| (0.0..=100.0).contains(&u)));
        // Phones under active use run well above half-empty.
        let med = mvqoe_sim::stats::median(&utils);
        assert!(med > 40.0, "fleet median utilization {med:.1}%");
    }

    #[test]
    fn some_devices_see_pressure() {
        let r = small_fleet();
        assert!(
            r.digests.iter().any(|d| d.total_signals_per_hour > 0.0),
            "at least one device must observe a pressure signal"
        );
    }

    #[test]
    fn top_pressure_selection_is_sorted() {
        let r = small_fleet();
        for w in r.top.windows(2) {
            assert!(w[0].pressure_time_fraction >= w[1].pressure_time_fraction);
        }
    }

    #[test]
    fn sharded_range_simulation_merges_to_the_serial_run() {
        let cfg = small_cfg();
        let serial = small_fleet();
        let mut merged = simulate_range(&cfg, 0..3);
        merged.absorb(simulate_range(&cfg, 3..7));
        merged.absorb(simulate_range(&cfg, 7..8));
        let merged_json = serde_json::to_string(&merged).unwrap();
        let serial_json = serde_json::to_string(serial).unwrap();
        assert_eq!(merged_json, serial_json, "shard merge must be exact");
    }

    #[test]
    fn unordered_fold_matches_the_ascending_fold() {
        // The ingest service folds users in network-arrival order; any
        // interleaving must land byte-identical to the ascending fold.
        let cfg = small_cfg();
        let users: Vec<_> = (0..cfg.n_users).map(|i| simulate_user(&cfg, i)).collect();
        let serial_json = serde_json::to_string(small_fleet()).unwrap();
        for order in [[5u32, 0, 7, 2, 6, 1, 4, 3], [7, 6, 5, 4, 3, 2, 1, 0]] {
            let mut agg = FleetAggregate::new();
            for &i in &order {
                let (obs, hours) = &users[i as usize];
                agg.fold_unordered(&cfg, i, obs, *hours);
            }
            assert_eq!(
                serde_json::to_string(&agg).unwrap(),
                serial_json,
                "arrival order {order:?} must not change the aggregate"
            );
        }
    }

    #[test]
    #[should_panic(expected = "folded twice")]
    fn unordered_fold_rejects_duplicate_users() {
        let cfg = small_cfg();
        let (obs, hours) = simulate_user(&cfg, 1);
        let mut agg = FleetAggregate::new();
        agg.fold_unordered(&cfg, 1, &obs, hours);
        agg.fold_unordered(&cfg, 0, &obs, hours);
        agg.fold_unordered(&cfg, 1, &obs, hours);
    }

    #[test]
    fn simulate_range_folds_like_simulate_user() {
        // Renewing one user and one observation for every user of a shard
        // is a pure buffer reuse: the shard must fold to the same bytes as
        // users built fresh by `simulate_user`. The million-user shape
        // renews across 85 users with second-scale observations.
        let million = FleetConfig::scaled(1000, 11, 0.008, 0.0008);
        for (cfg, users) in [(small_cfg(), 0..8u32), (million, 5..90)] {
            let mut reference = FleetAggregate::new();
            for i in users.clone() {
                let (obs, hours) = simulate_user(&cfg, i);
                reference.fold(&cfg, i, &obs, hours);
            }
            assert_eq!(
                serde_json::to_string(&simulate_range(&cfg, users.clone())).unwrap(),
                serde_json::to_string(&reference).unwrap(),
                "users {users:?} must fold byte-identically"
            );
        }
    }

    #[test]
    fn user_stream_replay_matches_simulate_user() {
        // The load-generator path: emit samples, replay them through a
        // fresh observation elsewhere. Must be byte-identical to
        // `simulate_user` for the same user.
        let cfg = small_cfg();
        for i in [0u32, 3, 7] {
            let (expected_obs, expected_hours) = simulate_user(&cfg, i);
            let mut st = start_user(&cfg, i);
            assert_eq!(st.idx, i);
            assert_eq!(st.hours, expected_hours);
            let mut replayed = st.observation();
            for s in 0..st.seconds() {
                // The "upload": the sample crosses a serialization
                // boundary in the real service; serde_json round-trips
                // f64 exactly, so folding the struct directly is the
                // same computation.
                let sample = st.user.step_1s(SimTime::from_secs(s));
                replayed.record(&sample);
            }
            assert_eq!(
                serde_json::to_string(&replayed).unwrap(),
                serde_json::to_string(&expected_obs).unwrap(),
                "user {i}: replayed observation must match simulate_user's"
            );
        }
    }

    #[test]
    fn assemble_matches_streaming() {
        let cfg = small_cfg();
        let users: Vec<_> = (0..cfg.n_users).map(|i| simulate_user(&cfg, i)).collect();
        let assembled = assemble_fleet(&cfg, users);
        assert_eq!(
            serde_json::to_string(&assembled).unwrap(),
            serde_json::to_string(small_fleet()).unwrap()
        );
    }

    #[test]
    fn scaled_config_keeps_paper_bounds_at_paper_scale() {
        let full = FleetConfig::scaled(80, 2064, 100.0, 10.0);
        assert_eq!((full.hours_lo, full.hours_hi), (24.0, 432.0));
        let quick = FleetConfig::scaled(14, 2064, 16.0, 1.6);
        assert_eq!((quick.hours_lo, quick.hours_hi), (24.0, 432.0));
        // A million-user fleet divides the hours budget; the clamp follows.
        let huge = FleetConfig::scaled(1_000_000, 2064, 0.008, 0.0008);
        assert!(huge.hours_hi < 1.0, "clamp must scale down with the median");
        assert!(huge.hours_lo < huge.hours_hi);
    }
}
