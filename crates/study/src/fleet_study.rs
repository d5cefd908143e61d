//! The §3 fleet study: run a simulated user population and aggregate.
//!
//! The study streams: each user is simulated and immediately folded into a
//! [`FleetAggregate`], so memory stays bounded by the aggregate's caps
//! rather than by fleet size. Shards of the user-index range fold
//! independently and [`FleetAggregate::merge`] back together with
//! byte-identical results — the million-device path in
//! `mvqoe-experiments` is just `simulate_range` over contiguous index
//! ranges fanned across workers.

use crate::fleet_aggregate::FleetAggregate;
use crate::observation::DeviceObservation;
use mvqoe_sim::{SimRng, SimTime};
use mvqoe_workload::{FleetBatch, FleetUser};
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
        let device = &self.user.device;
        DeviceObservation::new(
            &device.name,
            &device.manufacturer,
            device.ram_mib,
            self.user.pattern,
        )
    }
}

/// Start simulating one fleet user without folding anything. Draws happen
/// in exactly [`simulate_user`]'s order — observation hours from the
/// `hours-{i}` stream first, then the device/pattern streams inside
/// [`FleetUser::new`] — so driving the returned stream to completion is
/// byte-identical to the batch path.
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

/// How many users [`simulate_range`] steps in lockstep per chunk.
/// Large enough to amortize the batch's per-second lane sweep, small
/// enough that a chunk's live memory managers fit in cache — sweeping 16
/// managers (~50 KiB of hot state) measures ~10% faster than 64 on the
/// fleet bench, and the curve is flat below that. Any value folds
/// byte-identically (users are independent); [`simulate_range_chunked`]
/// exposes the knob for the layout-equivalence tests.
pub const BATCH_CHUNK: u32 = 16;

/// Simulate a contiguous shard of the user-index range, folding each user
/// into an aggregate as soon as it finishes — O(aggregate) memory, not
/// O(shard size).
pub fn simulate_range(cfg: &FleetConfig, users: Range<u32>) -> FleetAggregate {
    simulate_range_chunked(cfg, users, BATCH_CHUNK)
}

/// [`simulate_range`] with an explicit lockstep chunk size. Users in a
/// chunk advance together one simulated second at a time through a
/// [`FleetBatch`], whose struct-of-arrays quiescence lanes let the common
/// all-calm second touch one cache line per few dozen users instead of one
/// `MemoryManager` per user. Each user's draws still come only from its own
/// split RNG streams and its own memory manager, so the per-user sample
/// sequence — and therefore every fold — is byte-identical at any `chunk`.
///
/// One batch and one list of observations serve every chunk: each chunk
/// renews the users and resets the observations in place
/// ([`FleetBatch::renew`], [`DeviceObservation::reset`]), which builds
/// exactly what [`start_user`] and [`UserStream::observation`] would
/// without allocating them again.
pub fn simulate_range_chunked(cfg: &FleetConfig, users: Range<u32>, chunk: u32) -> FleetAggregate {
    let mut agg = FleetAggregate::new();
    let chunk = chunk.max(1);
    let root = SimRng::new(cfg.seed);
    let mut batch = FleetBatch::new(Vec::new());
    let mut observations: Vec<DeviceObservation> = Vec::new();
    let mut hours: Vec<f64> = Vec::new();
    let mut secs: Vec<u64> = Vec::new();
    let mut start = users.start;
    while start < users.end {
        let end = users.end.min(start.saturating_add(chunk));
        batch.renew(start..end, &root);
        hours.clear();
        hours.extend((start..end).map(|i| observation_hours(cfg, &root, i)));
        secs.clear();
        secs.extend(hours.iter().map(|&h| observation_seconds(h)));
        observations.truncate(batch.len());
        for (j, user) in batch.users().iter().enumerate() {
            let d = &user.device;
            match observations.get_mut(j) {
                Some(obs) => obs.reset(&d.name, &d.manufacturer, d.ram_mib, user.pattern),
                None => observations.push(DeviceObservation::new(
                    &d.name,
                    &d.manufacturer,
                    d.ram_mib,
                    user.pattern,
                )),
            }
        }
        let max_secs = secs.iter().copied().max().unwrap_or(0);
        for s in 0..max_secs {
            let now = SimTime::from_secs(s);
            for j in 0..batch.len() {
                if s < secs[j] {
                    let sample = batch.step_1s(j, now);
                    observations[j].record(&sample);
                }
            }
        }
        for (j, obs) in observations.iter().enumerate() {
            agg.fold(cfg, start + j as u32, obs, hours[j]);
        }
        start = end;
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
        merged.merge(&simulate_range(&cfg, 3..7));
        merged.merge(&simulate_range(&cfg, 7..8));
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
    fn chunk_size_does_not_change_the_aggregate() {
        // The lockstep batch is a pure layout change, and renewing users
        // and observations across chunks a pure buffer reuse: any chunk
        // size must fold to the same bytes as per-user simulation. The
        // million-user shape's 85 users end in a partial chunk at 3, 16
        // and 64.
        let million = FleetConfig::scaled(1000, 11, 0.008, 0.0008);
        for (cfg, users) in [(small_cfg(), 0..8u32), (million, 5..90)] {
            let mut reference = FleetAggregate::new();
            for i in users.clone() {
                let (obs, hours) = simulate_user(&cfg, i);
                reference.fold(&cfg, i, &obs, hours);
            }
            let reference = serde_json::to_string(&reference).unwrap();
            for chunk in [1u32, 3, BATCH_CHUNK, 64] {
                let agg = simulate_range_chunked(&cfg, users.clone(), chunk);
                assert_eq!(
                    serde_json::to_string(&agg).unwrap(),
                    reference,
                    "chunk {chunk} over {users:?} must fold byte-identically"
                );
            }
        }
    }

    #[test]
    fn user_stream_replay_matches_simulate_user() {
        // The load-generator path: emit samples, replay them through a
        // fresh observation elsewhere. Must be byte-identical to the
        // batch path for the same user.
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
                "user {i}: replayed observation must match the batch path"
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
