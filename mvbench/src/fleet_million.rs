//! `fleet-million`: the per-user shape of `exp-fleet --fleet-users
//! 1000000`, where the §3 study's 8,000 user-hours spread over a million
//! users (a median of 28.8 s of device time each). One operation is one
//! fleet of [`USERS`] such users through `run_fleet_sharded`, one worker
//! per core, no checkpoint directory; every operation has its own seed.
//!
//! The session layers ride along untimed: every run ends with the what-if
//! and paper-grid checks, and the traced run adds their per-layer metrics
//! ([`crate::whatif_fork`], [`crate::paper_grid`]).

use crate::harness::{OpRecord, RunConfig, Workload, PROBE_OP};
use crate::host;
use crate::report::Layers;
use crate::spans::{Ctx, Tracer};
use crate::stats::median;
use mvqoe_core::parallel_map;
use mvqoe_experiments::fleet_figs::{run_fleet_sharded, shard_count, shard_range};
use mvqoe_experiments::scale::Scale;
use mvqoe_metrics::selfprof;
use mvqoe_sim::{derive_seed, SimTime};
use mvqoe_study::{simulate_range, start_user, FleetAggregate, FleetConfig};
use mvqoe_workload::FleetSample;
use std::time::Instant;

/// Experiment id the fleet seeds derive from.
pub const EXPERIMENT: &str = "mvbench/fleet-million";
/// Users per fleet.
pub const USERS: u32 = 8192;
const QUICK_USERS: u32 = 256;
/// The million-user shape: the paper's 80 users × 100 h spread over 1e6.
const MEDIAN_HOURS: f64 = 80.0 * 100.0 / 1e6;
/// Warm-up fleets per set-up.
const WARMUP_FLEETS: u64 = 5;
/// Seed of the warm-up fleets: set-up is the same work in every run.
const WARMUP_SEED: u64 = 0x5e7u64;
/// Users whose samples are stepped one by one for the repeat share.
const REPEAT_USERS: u32 = 64;

/// The fleet of operation `op` under run seed `seed`.
pub fn fleet_cfg(seed: u64, op: u64, users: u32) -> FleetConfig {
    FleetConfig::scaled(
        users,
        derive_seed(seed, EXPERIMENT, op, 0),
        MEDIAN_HOURS,
        (MEDIAN_HOURS * 0.1).min(10.0),
    )
}

/// Simulated device-seconds a fleet stepped.
pub fn device_seconds(agg: &FleetAggregate) -> u64 {
    agg.hours.iter().map(|&(_, h)| (h * 3600.0) as u64).sum()
}

/// Every operation: the whole fleet was recruited and cleaning kept at
/// most that many.
pub fn check_counts(agg: &FleetAggregate, users: u32) -> Result<(), String> {
    if agg.recruited != users || agg.kept > u64::from(agg.recruited) {
        return Err(format!(
            "recruited {} kept {} of a {users}-user fleet",
            agg.recruited, agg.kept
        ));
    }
    Ok(())
}

/// The aggregate's `(user, hours)` list equals the one `start_user`
/// gives directly.
pub fn check_hours(agg: &FleetAggregate, cfg: &FleetConfig) -> Result<(), String> {
    let direct: Vec<(u32, f64)> = (0..cfg.n_users)
        .map(|i| (i, start_user(cfg, i).hours))
        .collect();
    if agg.hours == direct {
        Ok(())
    } else {
        Err("aggregate hours differ from start_user's".into())
    }
}

/// Two aggregates serialize byte-identically.
pub fn check_same_aggregate(
    a: &FleetAggregate,
    b: &FleetAggregate,
    what: &str,
) -> Result<(), String> {
    let ja = serde_json::to_string(a).map_err(|e| e.to_string())?;
    let jb = serde_json::to_string(b).map_err(|e| e.to_string())?;
    if ja == jb {
        Ok(())
    } else {
        Err(format!("{what}: aggregates differ"))
    }
}

/// Whether two samples are equal apart from their timestamp.
pub fn repeats(a: &FleetSample, b: &FleetSample) -> bool {
    a.available_mib.to_bits() == b.available_mib.to_bits()
        && a.utilization_pct.to_bits() == b.utilization_pct.to_bits()
        && a.trim == b.trim
        && a.interactive == b.interactive
        && a.n_services == b.n_services
}

/// `(repeated, total)` samples of users `users` stepped one by one.
pub fn repeat_counts(cfg: &FleetConfig, users: std::ops::Range<u32>) -> (u64, u64) {
    let (mut rep, mut total) = (0, 0);
    for i in users {
        let mut st = start_user(cfg, i);
        let mut prev: Option<FleetSample> = None;
        for s in 0..st.seconds() {
            let sample = st.user.step_1s(SimTime::from_secs(s));
            rep += u64::from(prev.as_ref().is_some_and(|p| repeats(p, &sample)));
            total += 1;
            prev = Some(sample);
        }
    }
    (rep, total)
}

/// The fleet-million workload.
pub struct FleetMillion {
    seed: u64,
    users: u32,
    scale: Scale,
}

impl FleetMillion {
    fn fleet(&self, seed: u64, op: u64) -> FleetAggregate {
        let cfg = fleet_cfg(seed, op, self.users);
        run_fleet_sharded(&cfg, shard_count(self.users), &self.scale, None).aggregate
    }

    /// The same fleet shard by shard, one span per `simulate_range` and per
    /// `absorb`.
    fn traced_fleet(&self, t: &Tracer, ctx: Ctx, op: u64) -> FleetAggregate {
        let cfg = fleet_cfg(self.seed, op, self.users);
        let shards: Vec<u32> = (0..shard_count(self.users)).collect();
        let parts = parallel_map(&shards, self.scale.jobs, |&s| {
            let range = shard_range(self.users, shards.len() as u32, s);
            host::track_wait(|| t.span(ctx, "study.shard", |_| simulate_range(&cfg, range)))
        });
        let mut parts = parts.into_iter();
        let mut agg = parts.next().expect("at least one shard");
        for part in parts {
            t.span(ctx, "study.absorb", |_| agg.absorb(part));
        }
        agg
    }
}

impl Workload for FleetMillion {
    fn setup(cfg: &RunConfig) -> Self {
        let mut scale = Scale::full();
        scale.jobs = host::nproc();
        let w = FleetMillion {
            seed: cfg.seed,
            users: if cfg.quick { QUICK_USERS } else { USERS },
            scale,
        };
        for k in 0..if cfg.quick { 1 } else { WARMUP_FLEETS } {
            std::hint::black_box(w.fleet(WARMUP_SEED, k));
            crate::harness::settle();
        }
        w
    }

    fn round_ops(&self) -> usize {
        1
    }

    fn round(&mut self, round: u64, t: Option<&Tracer>) -> Vec<OpRecord> {
        let started = Instant::now();
        let agg = match t {
            None => self.fleet(self.seed, round),
            Some(t) => t.span(
                Ctx {
                    op: round,
                    parent: 0,
                },
                "op",
                |c| self.traced_fleet(t, c, round),
            ),
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        vec![OpRecord {
            ms,
            sim_s: device_seconds(&agg) as f64,
            ok: check_counts(&agg, self.users).is_ok(),
        }]
    }

    fn layers(&mut self, t: &Tracer, layers: &mut Layers) {
        // Probe, traced, with the program's self-profiling on: fleet 0
        // again, profiled on its own, then the session layers' probes (four
        // what-if regimes and one paper-grid pass), profiled apart.
        selfprof::reset();
        selfprof::set_enabled(true);
        let agg = t.span(
            Ctx {
                op: PROBE_OP,
                parent: 0,
            },
            "op",
            |c| self.traced_fleet(t, c, 0),
        );
        let fleet_prof = selfprof::snapshot();
        selfprof::reset();
        crate::whatif_fork::probe_layers(self.seed, t, layers);
        let grid = Ctx {
            op: PROBE_OP + crate::whatif_fork::REGIMES,
            parent: 0,
        };
        crate::paper_grid::probe_layers(self.seed, self.scale.jobs, t, grid, layers);
        selfprof::set_enabled(false);
        let session_prof = selfprof::snapshot();
        let phase = |prof: &[selfprof::PhaseProfile], name: &str| {
            let p = prof
                .iter()
                .find(|p| p.phase == name)
                .expect("selfprof phase");
            (p.calls as f64, p.total_ns as f64 / 1e6)
        };
        let cfg = fleet_cfg(self.seed, 0, self.users);
        let mut start_us = Vec::with_capacity(self.users as usize);
        for i in 0..self.users {
            let started = Instant::now();
            std::hint::black_box(start_user(&cfg, i));
            start_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let (rep, total) = repeat_counts(&cfg, 0..REPEAT_USERS.min(self.users));

        layers.set("study.shard_ms", median(&t.durations_ms("study.shard")));
        layers.set(
            "study.absorb_us",
            median(&t.durations_ms("study.absorb")) * 1e3,
        );
        layers.set("workload.start_user_us", median(&start_us));
        let (calls, ms) = phase(&fleet_prof, "kernel.reclaim");
        layers.set("kernel.reclaim_calls", calls);
        layers.set("kernel.reclaim_ms", ms);
        let (calls, ms) = phase(&session_prof, "sched.select_slow");
        layers.set("sched.select_slow_calls", calls);
        layers.set("sched.select_slow_ms", ms);
        let (slow, ms) = phase(&fleet_prof, "fleet.slow_step");
        layers.set("workload.slow_steps", slow);
        layers.set("workload.slow_step_ms", ms);
        let (calls, ms) = phase(&fleet_prof, "kernel.coarse_step");
        layers.set("kernel.coarse_steps", calls);
        layers.set("kernel.coarse_step_ms", ms);
        layers.set(
            "workload.fast_path_share",
            1.0 - slow / device_seconds(&agg).max(1) as f64,
        );
        let kib = serde_json::to_string(&agg)
            .expect("aggregate serializes")
            .len() as f64
            / 1024.0;
        layers.set("study.aggregate_kib", kib);
        layers.set(
            "workload.sample_repeat_share",
            rep as f64 / total.max(1) as f64,
        );
    }

    fn finish(self) -> Result<(), String> {
        // One fleet per run: its hours match start_user, and one shard
        // folds to the same bytes as the sharded run. Then the session
        // layers' checks: one what-if group and the paper grid.
        let cfg = fleet_cfg(self.seed, 0, self.users);
        let sharded = self.fleet(self.seed, 0);
        check_counts(&sharded, self.users)?;
        check_hours(&sharded, &cfg)?;
        check_same_aggregate(
            &simulate_range(&cfg, 0..self.users),
            &sharded,
            "one shard vs sharded",
        )?;
        crate::whatif_fork::check(self.seed)?;
        crate::paper_grid::check(self.seed, self.scale.jobs)
    }
}
