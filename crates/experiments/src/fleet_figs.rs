//! The §3 user-study figures (Figs. 1–6), from one fleet run.
//!
//! The fleet streams: users are simulated in contiguous index shards, each
//! shard folds into a [`FleetAggregate`] (bounded memory, no per-device
//! `Vec`), and shards fan out over `--jobs` workers through the same
//! worker pool as every other experiment. Shards are absorbed in order as
//! they finish, so the run holds only the few that finished ahead of an
//! earlier one, never every shard's aggregate. Large fleets
//! (≥ [`CHECKPOINT_MIN_USERS`] users) checkpoint each finished shard to
//! `results/fleet-shards/`, so a killed million-user run resumes from the
//! finished shards and redoes at most its in-flight ones (≤ `--jobs`).

use crate::report;
use crate::scale::Scale;
use mvqoe_kernel::TrimLevel;
use mvqoe_metrics::MetricsSnapshot;
use mvqoe_sim::stats;
use mvqoe_study::{simulate_range, FleetAggregate, FleetConfig, FleetResults};
use serde::{Deserialize, Serialize, Serializer};
use std::path::{Path, PathBuf};

/// Everything the §3 figures need, extracted from a fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetFigures {
    /// Users recruited / kept after cleaning.
    pub recruited: u32,
    /// Devices kept.
    pub kept: usize,
    /// Total logged hours.
    pub total_hours: f64,
    /// Fig. 1: rating histograms (1–5) for games/music/videos and
    /// multitask >1 / >2.
    pub fig1: Fig1,
    /// Fig. 2: CDF of median utilization + headline fractions.
    pub fig2: Fig2,
    /// Fig. 3: per-device signal rates.
    pub fig3: Fig3,
    /// Fig. 4: per-device time-in-state fractions.
    pub fig4: Fig4,
    /// Fig. 5: available-memory spread per state for the top-5 devices.
    pub fig5: Fig5,
    /// Fig. 6: pooled transitions + dwells.
    pub fig6: Fig6,
}

/// Fig. 1 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1 {
    /// Histograms (ratings 1–5 per activity).
    pub activities: Vec<(String, [u32; 5])>,
}

/// Fig. 2 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// Median utilization per device.
    pub medians: Vec<f64>,
    /// Fraction of devices with median ≥ 60% (paper: 80%).
    pub frac_ge_60: f64,
    /// Fraction with median > 75% (paper: 20%).
    pub frac_gt_75: f64,
}

/// Fig. 3 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    /// `(ram_mib, moderate/h, low/h, critical/h)` per device.
    pub rates: Vec<(u64, f64, f64, f64)>,
    /// Fraction of devices with ≥ 1 signal/hour (paper: 63%).
    pub frac_any_per_hour: f64,
    /// Fraction with > 10 Critical signals/hour (paper: 19%).
    pub frac_crit_gt10: f64,
    /// Fraction with > 70 signals/hour (paper: 6.3%).
    pub frac_total_gt70: f64,
}

/// Fig. 4 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// `(ram_mib, moderate%, low%, critical%)` time fractions per device.
    pub fractions: Vec<(u64, f64, f64, f64)>,
    /// Devices spending ≥ 2% of time in Moderate (paper: 27%).
    pub frac_moderate_ge2pct: f64,
    /// Devices spending > 4% in Critical (paper: 10%).
    pub frac_critical_gt4pct: f64,
    /// Devices spending ≥ 2% out of Normal (paper Table 1: 35%).
    pub frac_pressure_ge2pct: f64,
}

/// Fig. 5 data: per state, per top-device, (mean, p25, p50, p75) MiB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5 {
    /// `(device, ram_mib, state, mean, p25, p50, p75)`.
    pub spreads: Vec<(String, u64, String, f64, f64, f64, f64)>,
}

/// Fig. 6 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6 {
    /// Devices pooled (out of Normal > threshold).
    pub pooled_devices: usize,
    /// Pressure-time threshold used for pooling.
    pub pool_threshold: f64,
    /// `P(to | leaving from)` rows: from, [to Normal, Moderate, Low, Critical].
    pub transition_probs: Vec<(String, [f64; 4])>,
    /// 75th-percentile dwell (s) per state before a transition.
    pub dwell_p75: [f64; 4],
}

/// Fleets at least this large checkpoint finished shards to
/// `results/fleet-shards/` and resume from them after an interruption.
pub const CHECKPOINT_MIN_USERS: u32 = 100_000;

/// Target users per shard for large fleets (bounds checkpoint file count
/// and size), with a floor of 32 shards so small fleets still fan out over
/// workers.
const SHARD_TARGET_USERS: u32 = 4096;

/// The fleet config this scale asks for.
pub fn fleet_config(scale: &Scale) -> FleetConfig {
    FleetConfig::scaled(
        scale.fleet_users,
        scale.seed.wrapping_add(2022),
        scale.fleet_hours,
        (scale.fleet_hours * 0.1).min(10.0),
    )
}

/// Shard count for a fleet: a function of the fleet size only — never of
/// the worker count — so checkpoints written by an interrupted run stay
/// valid whatever `--jobs` the resuming run uses, and so the shard merge
/// (exact by construction) has a fixed shape per fleet size.
pub fn shard_count(n_users: u32) -> u32 {
    n_users.div_ceil(SHARD_TARGET_USERS).max(32).min(n_users).max(1)
}

/// How a sharded fleet run went.
#[derive(Debug)]
pub struct ShardedRun {
    /// The merged fleet state.
    pub aggregate: FleetAggregate,
    /// Shards the run was split into.
    pub shards: u32,
    /// Finished shards loaded from checkpoints instead of simulated.
    pub loaded: u32,
}

/// Checkpoint layout version. v3 stores finished shards only (v2 also
/// held mid-shard partials); checkpoints from other versions are rejected
/// and recomputed, exactly like mismatched fingerprints.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

/// One finished shard's checkpoint on disk, written through
/// [`CheckpointOut`], which borrows the aggregate.
#[derive(Debug, Deserialize)]
struct ShardCheckpoint {
    /// Layout version; loads reject other versions.
    version: u32,
    /// Serialized `(FleetConfig, shard count)` — a resumed run must match
    /// it exactly or the shard is recomputed.
    fingerprint: String,
    /// Shard index.
    shard: u32,
    /// The shard's folded state.
    aggregate: FleetAggregate,
}

/// A [`ShardCheckpoint`] as written: the same fields in the same order,
/// with the aggregate borrowed from the finished shard instead of cloned.
struct CheckpointOut<'a> {
    fingerprint: &'a str,
    shard: u32,
    aggregate: &'a FleetAggregate,
}

impl Serialize for CheckpointOut<'_> {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        s.begin_map(4);
        s.entry("version", &CHECKPOINT_FORMAT_VERSION);
        s.entry("fingerprint", self.fingerprint);
        s.entry("shard", &self.shard);
        s.entry("aggregate", self.aggregate);
        s.end_map();
    }
}

fn fingerprint(cfg: &FleetConfig, shards: u32) -> String {
    serde_json::to_string(&(cfg, shards)).expect("config serializes")
}

fn shard_path(dir: &Path, shard: u32, shards: u32) -> PathBuf {
    dir.join(format!("shard-{shard:05}-of-{shards:05}.json"))
}

/// Load shard `shard`'s checkpoint, if one exists and was written for
/// exactly this config, shard layout, and checkpoint version.
pub fn load_shard(
    dir: &Path,
    cfg: &FleetConfig,
    shards: u32,
    shard: u32,
) -> Option<FleetAggregate> {
    let print = fingerprint(cfg, shards);
    let text = std::fs::read_to_string(shard_path(dir, shard, shards)).ok()?;
    let ckpt: ShardCheckpoint = serde_json::from_str(&text).ok()?;
    (ckpt.version == CHECKPOINT_FORMAT_VERSION
        && ckpt.fingerprint == print
        && ckpt.shard == shard)
        .then_some(ckpt.aggregate)
}

/// Persist one finished shard's aggregate so an interrupted run can
/// resume from it. Best-effort: checkpoint failures never fail the run.
pub fn store_shard(dir: &Path, cfg: &FleetConfig, shards: u32, shard: u32, agg: &FleetAggregate) {
    let ckpt = CheckpointOut {
        fingerprint: &fingerprint(cfg, shards),
        shard,
        aggregate: agg,
    };
    let mut text = String::new();
    serde_json::to_string_into(&mut text, &ckpt);
    // Write-then-rename so a kill mid-write never leaves a torn
    // checkpoint for the resuming run to trip over.
    let tmp = dir.join(format!("shard-{shard:05}.tmp"));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, shard_path(dir, shard, shards));
    }
}

/// The contiguous user range of `shard` when `n_users` split into
/// `shards` near-equal pieces (earlier shards take the remainder).
pub fn shard_range(n_users: u32, shards: u32, shard: u32) -> std::ops::Range<u32> {
    let base = n_users / shards;
    let extra = n_users % shards;
    let start = shard * base + shard.min(extra);
    let len = base + u32::from(shard < extra);
    start..start + len
}

/// Run the fleet in `shards` contiguous index shards over `scale.jobs`
/// workers, folding each shard into a bounded aggregate and absorbing the
/// shards in order as they finish. With a checkpoint directory, finished
/// shards persist there and matching checkpoints are loaded instead of
/// resimulated; the directory's shard files are removed once the merged
/// run completes.
pub fn run_fleet_sharded(
    cfg: &FleetConfig,
    shards: u32,
    scale: &Scale,
    checkpoint_dir: Option<&Path>,
) -> ShardedRun {
    let dir = checkpoint_dir.filter(|d| std::fs::create_dir_all(d).is_ok());
    let indices: Vec<u32> = (0..shards).collect();
    // The empty aggregate is the merge identity, so absorbing every shard
    // into it gives exactly the shards' merge.
    let mut aggregate = FleetAggregate::new();
    let mut loaded = 0;
    // Fleet telemetry: per-shard counters summed into one metrics
    // snapshot, stashed for the .metrics.json sidecar.
    let mut metrics = scale.metrics.then(MetricsSnapshot::default);
    let shard = |&s: &u32| {
        if let Some(agg) = dir.and_then(|d| load_shard(d, cfg, shards, s)) {
            return (agg, true);
        }
        let agg = simulate_range(cfg, shard_range(cfg.n_users, shards, s));
        if let Some(d) = dir {
            store_shard(d, cfg, shards, s, &agg);
        }
        (agg, false)
    };
    crate::runner::fold(scale, &indices, shard, |(agg, was_loaded)| {
        loaded += u32::from(was_loaded);
        if let Some(m) = &mut metrics {
            for (name, n) in [
                ("fleet.users_simulated", u64::from(agg.recruited)),
                ("fleet.devices_kept", agg.kept),
                ("fleet.shards_loaded", u64::from(was_loaded)),
            ] {
                *m.counters.entry(name.into()).or_insert(0) += n;
            }
        }
        aggregate.absorb(agg);
    });

    if let Some(mut merged) = metrics {
        if let Some(rss) = mvqoe_core::peak_rss_mib() {
            merged.gauges.insert("fleet.peak_rss_mib".into(), rss);
        }
        crate::runner::stash_snapshot("fleet_figs1-6", merged);
    }

    if let Some(d) = dir {
        for s in 0..shards {
            let _ = std::fs::remove_file(shard_path(d, s, shards));
        }
        let _ = std::fs::remove_dir(d); // only if now empty
    }

    ShardedRun {
        aggregate,
        shards,
        loaded,
    }
}

/// Run the fleet and extract every figure. Shards are independently
/// seeded contiguous index ranges, so they fan out over `scale.jobs`
/// workers — and merge — with results identical to the serial
/// [`mvqoe_study::run_fleet`] path at any worker or shard count.
pub fn run(scale: &Scale) -> FleetFigures {
    let cfg = fleet_config(scale);
    let ckpt_dir = (cfg.n_users >= CHECKPOINT_MIN_USERS)
        .then(|| report::results_dir().join("fleet-shards"));
    let t0 = std::time::Instant::now();
    let sharded = run_fleet_sharded(&cfg, shard_count(cfg.n_users), scale, ckpt_dir.as_deref());
    let secs = t0.elapsed().as_secs_f64();
    if sharded.loaded > 0 || cfg.n_users >= CHECKPOINT_MIN_USERS {
        let rss = mvqoe_core::peak_rss_mib()
            .map_or(String::new(), |m| format!(", peak RSS {m:.0} MiB"));
        println!(
            "fleet engine: {} users over {} shards ({} resumed from checkpoints) in {secs:.1}s \
             ({:.0} users/s{rss})",
            cfg.n_users,
            sharded.shards,
            sharded.loaded,
            cfg.n_users as f64 / secs.max(1e-9),
        );
    }
    let fleet = FleetResults {
        aggregate: sharded.aggregate,
    };
    extract(&fleet)
}

/// Extract the §3 figures from streamed fleet state. Per-device series
/// read the digest list (complete up to the aggregate's cap — far beyond
/// figure scale); headline fractions come from exact counters; Figs. 5–6
/// read the bounded top-K and pooling-ladder state.
pub fn extract(fleet: &FleetResults) -> FleetFigures {
    let agg = &fleet.aggregate;
    let kept = agg.kept;
    let frac = |count: u64| {
        if kept == 0 {
            0.0
        } else {
            count as f64 / kept as f64
        }
    };

    // Fig. 1.
    const ACTIVITIES: [&str; 5] = [
        "playing games",
        "listening to music",
        "streaming videos",
        "multitask >1 app",
        "multitask >2 apps",
    ];
    let fig1 = Fig1 {
        activities: ACTIVITIES
            .iter()
            .zip(&agg.fig1)
            .map(|(name, hist)| (name.to_string(), *hist))
            .collect(),
    };

    // Fig. 2.
    let fig2 = Fig2 {
        frac_ge_60: frac(agg.counters.util_ge_60),
        frac_gt_75: frac(agg.counters.util_gt_75),
        medians: fleet.median_utilizations(),
    };

    // Fig. 3.
    let rates: Vec<(u64, f64, f64, f64)> = agg
        .digests
        .iter()
        .map(|d| {
            (
                d.ram_mib,
                d.signals_per_hour[TrimLevel::Moderate.severity()],
                d.signals_per_hour[TrimLevel::Low.severity()],
                d.signals_per_hour[TrimLevel::Critical.severity()],
            )
        })
        .collect();
    let fig3 = Fig3 {
        frac_any_per_hour: frac(agg.counters.signals_ge_1),
        frac_crit_gt10: frac(agg.counters.crit_gt_10),
        frac_total_gt70: frac(agg.counters.total_gt_70),
        rates,
    };

    // Fig. 4.
    let fractions: Vec<(u64, f64, f64, f64)> = agg
        .digests
        .iter()
        .map(|d| {
            (
                d.ram_mib,
                d.time_fractions[TrimLevel::Moderate.severity()] * 100.0,
                d.time_fractions[TrimLevel::Low.severity()] * 100.0,
                d.time_fractions[TrimLevel::Critical.severity()] * 100.0,
            )
        })
        .collect();
    let fig4 = Fig4 {
        frac_moderate_ge2pct: frac(agg.counters.moderate_ge_2pct),
        frac_critical_gt4pct: frac(agg.counters.critical_gt_4pct),
        frac_pressure_ge2pct: frac(agg.counters.pressure_ge_2pct),
        fractions,
    };

    // Fig. 5.
    let mut spreads = Vec::new();
    for d in fleet.top_pressure_devices(5) {
        for level in TrimLevel::ALL {
            let h = &d.avail_by_state[level.severity()];
            if h.n() == 0 {
                continue;
            }
            spreads.push((
                d.name.clone(),
                d.ram_mib,
                level.to_string(),
                h.mean(),
                h.quantile(0.25),
                h.quantile(0.5),
                h.quantile(0.75),
            ));
        }
    }
    let fig5 = Fig5 { spreads };

    // Fig. 6: pool devices spending > 30% out of Normal; the aggregate's
    // threshold ladder relaxes exactly like the original halving loop if
    // the fleet is too healthy for any to qualify.
    let pool = fleet.fig6_pool();
    let mut transition_probs = Vec::new();
    for from in TrimLevel::ALL {
        let mut row = [0.0f64; 4];
        for to in TrimLevel::ALL {
            row[to.severity()] = pool.transition_prob(from, to) * 100.0;
        }
        transition_probs.push((from.to_string(), row));
    }
    let dwell_p75 = [
        pool.dwell_percentile(TrimLevel::Normal, 75.0),
        pool.dwell_percentile(TrimLevel::Moderate, 75.0),
        pool.dwell_percentile(TrimLevel::Low, 75.0),
        pool.dwell_percentile(TrimLevel::Critical, 75.0),
    ];
    let fig6 = Fig6 {
        pooled_devices: pool.devices as usize,
        pool_threshold: pool.threshold,
        transition_probs,
        dwell_p75,
    };

    FleetFigures {
        recruited: fleet.recruited(),
        kept: kept as usize,
        total_hours: fleet.total_hours(),
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
    }
}

impl FleetFigures {
    /// Print all §3 figures.
    pub fn print(&self) {
        println!(
            "fleet: {} recruited, {} kept after the ≥10 h-interactive rule, {:.0} h logged \
             (paper: 80 recruited, 48 kept, ≈9950 h)",
            self.recruited, self.kept, self.total_hours
        );

        report::banner("Fig 1", "usage-frequency heatmaps (ratings 1–5)");
        let rows: Vec<Vec<String>> = self
            .fig1
            .activities
            .iter()
            .map(|(name, h)| {
                let mut row = vec![name.clone()];
                row.extend(h.iter().map(|c| c.to_string()));
                row
            })
            .collect();
        report::print_table(&["activity", "1", "2", "3", "4", "5"], &rows);

        report::banner("Fig 2", "CDF of median RAM utilization");
        let cdf = stats::cdf_points(&self.fig2.medians);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let v = stats::percentile(&self.fig2.medians, q * 100.0);
            println!("  p{:>2.0}: {v:.1}%", q * 100.0);
        }
        let _ = cdf;
        println!(
            "devices with median ≥ 60%: {:.0}% (paper 80%); > 75%: {:.0}% (paper 20%)",
            self.fig2.frac_ge_60 * 100.0,
            self.fig2.frac_gt_75 * 100.0
        );

        report::banner("Fig 3", "memory-pressure signal frequency");
        println!(
            "≥1 signal/hour: {:.0}% (paper 63%); >10 Critical/hour: {:.0}% (paper 19%); \
             >70 signals/hour: {:.1}% (paper 6.3%)",
            self.fig3.frac_any_per_hour * 100.0,
            self.fig3.frac_crit_gt10 * 100.0,
            self.fig3.frac_total_gt70 * 100.0
        );

        report::banner("Fig 4", "time spent in pressure states");
        println!(
            "≥2% of time in Moderate: {:.0}% (paper 27%); >4% in Critical: {:.0}% (paper 10%); \
             ≥2% out of Normal: {:.0}% (paper 35%)",
            self.fig4.frac_moderate_ge2pct * 100.0,
            self.fig4.frac_critical_gt4pct * 100.0,
            self.fig4.frac_pressure_ge2pct * 100.0
        );

        report::banner("Fig 5", "available memory by state (top-5 pressure devices)");
        let rows: Vec<Vec<String>> = self
            .fig5
            .spreads
            .iter()
            .map(|(name, ram, state, mean, p25, p50, p75)| {
                vec![
                    name.clone(),
                    format!("{} MiB", ram),
                    state.clone(),
                    format!("{mean:.0}"),
                    format!("{p25:.0}"),
                    format!("{p50:.0}"),
                    format!("{p75:.0}"),
                ]
            })
            .collect();
        report::print_table(
            &["device", "RAM", "state", "mean", "p25", "p50", "p75"],
            &rows,
        );

        report::banner("Fig 6", "state transitions and dwell times");
        println!(
            "pooled {} devices (> {:.1}% of time out of Normal)",
            self.fig6.pooled_devices,
            self.fig6.pool_threshold * 100.0
        );
        let rows: Vec<Vec<String>> = self
            .fig6
            .transition_probs
            .iter()
            .map(|(from, row)| {
                let mut r = vec![from.clone()];
                r.extend(row.iter().map(|p| format!("{p:.1}")));
                r
            })
            .collect();
        report::print_table(
            &["from \\ to (%)", "Normal", "Moderate", "Low", "Critical"],
            &rows,
        );
        println!(
            "p75 dwell (s): Normal {:.1}, Moderate {:.1}, Low {:.1}, Critical {:.1} \
             (paper: Critical→Low 67.2% with 12.8 s p75 dwell; Critical→Normal only 13.6%)",
            self.fig6.dwell_p75[0],
            self.fig6.dwell_p75[1],
            self.fig6.dwell_p75[2],
            self.fig6.dwell_p75[3]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_fleet() {
        for (n, shards) in [(80u32, 32u32), (14, 14), (100_000, 25), (7, 3)] {
            let mut next = 0;
            for s in 0..shards {
                let r = shard_range(n, shards, s);
                assert_eq!(r.start, next, "shard {s} of {shards} over {n}");
                next = r.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn shard_count_ignores_workers_and_scales_with_users() {
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(14), 14);
        assert_eq!(shard_count(80), 32);
        assert_eq!(shard_count(200_000), 200_000u32.div_ceil(4096));
        assert_eq!(shard_count(1_000_000), 1_000_000u32.div_ceil(4096));
    }

    #[test]
    fn fleet_config_preserves_paper_parameters() {
        let cfg = fleet_config(&Scale::full());
        assert_eq!(cfg.n_users, 80);
        assert_eq!(cfg.seed, 42u64.wrapping_add(2022));
        assert_eq!(cfg.median_hours, 100.0);
        assert_eq!(cfg.min_interactive_hours, 10.0);
        assert_eq!((cfg.hours_lo, cfg.hours_hi), (24.0, 432.0));
    }
}
