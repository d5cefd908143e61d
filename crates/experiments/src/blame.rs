//! `mvqoe blame`: the causal attribution report across the arena's regimes.
//!
//! Re-runs the arena's sixteen {device} × {network} × {memory} regimes
//! under one network-only policy with the attribution engine switched on,
//! then folds every session's blame ledger into a per-regime table:
//! exactly how many rebuffer microseconds and dropped frames each kernel
//! or network cause is charged with. The integer vectors are exact sums
//! over repetitions, so the artifact is byte-identical at any `--jobs`
//! count; the shares are derived from them and sum to 1 per regime.
//!
//! The headline claim [`Blame::validate`] checks (via `mvqoe lint`): on
//! the paper's dedicated LAN under Moderate synthetic pressure, the
//! memory-caused share of rebuffer time strictly dominates the
//! network-caused share — the paper's §4 setup really does isolate memory
//! as the cause of QoE collapse, and the engine can see it.

use crate::arena;
use crate::report;
use crate::runner;
use crate::scale::Scale;
use mvqoe_core::{run_session, Cause, PressureMode, NCAUSES};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use serde::{Deserialize, Serialize};

/// The single policy blamed sessions run under: network-only adaptation,
/// blind to the device, so memory-pressure falters are not masked by a
/// memory-aware controller backing off first.
pub const POLICY: &str = "buffer-based";

/// Sample cause records kept per regime (from the first repetition).
const SAMPLES_PER_REGIME: usize = 3;

/// One retained cause record, flattened for artifact readers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleRecord {
    /// What faltered (`rebuffer_start`, `drop_streak`, ...).
    pub effect: String,
    /// The blamed cause's label.
    pub cause: String,
    /// Session time of the falter (s).
    pub at_s: f64,
    /// Falter time minus blamed-fact time (ms).
    pub lag_ms: f64,
    /// The blamed fact's evidence string.
    pub evidence: String,
}

/// One regime's blame ledger, summed over repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlameRegime {
    /// Device under test.
    pub device: String,
    /// Network regime name.
    pub network: String,
    /// Memory regime label (`Normal` / `Moderate`).
    pub memory: String,
    /// Rebuffer microseconds charged per cause ([`Cause::ALL`] order).
    pub rebuffer_us: Vec<u64>,
    /// Dropped frames charged per cause.
    pub drops: Vec<u64>,
    /// The sessions' own total rebuffer microseconds — the conservation
    /// check: `sum(rebuffer_us) == stats_rebuffer_us`, always.
    pub stats_rebuffer_us: u64,
    /// The sessions' own total dropped frames; `sum(drops)` equals it.
    pub stats_drops: u64,
    /// Per-cause share of rebuffer time (sums to 1 when any rebuffer).
    pub rebuffer_share: Vec<f64>,
    /// Share of rebuffer time blamed on memory-pressure causes.
    pub memory_rebuffer_share: f64,
    /// Share of rebuffer time blamed on network causes.
    pub network_rebuffer_share: f64,
    /// Structured cause records emitted across repetitions.
    pub records: u64,
    /// A few example records from the first repetition.
    pub samples: Vec<SampleRecord>,
}

/// The `mvqoe blame` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Blame {
    /// The policy every session ran under.
    pub policy: String,
    /// Cause labels, in vector-index order.
    pub causes: Vec<String>,
    /// One ledger per regime, arena grid order.
    pub regimes: Vec<BlameRegime>,
}

/// One (regime cell, repetition) job.
struct Job {
    cell: u64,
    device: DeviceProfile,
    network: &'static str,
    memory: PressureMode,
    rep: u64,
}

/// One repetition's fold-ready outputs.
struct RepOut {
    rebuffer_us: Vec<u64>,
    drops: Vec<u64>,
    stats_rebuffer_us: u64,
    stats_drops: u64,
    records: u64,
    samples: Vec<SampleRecord>,
}

fn run_rep(scale: &Scale, job: &Job) -> RepOut {
    let mut cfg = arena::session_cfg(
        scale,
        job.cell,
        job.rep,
        "blame",
        job.device.clone(),
        job.memory,
        job.network,
    );
    cfg.attribution = true;
    let mut abr = arena::make_abr(POLICY);
    let out = run_session(&cfg, abr.as_mut());
    let rep = out.attribution.expect("attribution was enabled");
    let samples = rep
        .records
        .iter()
        .take(SAMPLES_PER_REGIME)
        .map(|r| SampleRecord {
            effect: r.effect.label().to_string(),
            cause: r.cause.label().to_string(),
            at_s: r.at.as_secs_f64(),
            lag_ms: r.lag_us as f64 / 1000.0,
            evidence: r.evidence.clone(),
        })
        .collect();
    RepOut {
        stats_rebuffer_us: out.stats.rebuffer_time.as_micros(),
        stats_drops: out.stats.frames_dropped,
        records: rep.records.len() as u64 + rep.records_dropped,
        rebuffer_us: rep.rebuffer_us,
        drops: rep.drops,
        samples,
    }
}

fn add(acc: &mut [u64], v: &[u64]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a += b;
    }
}

/// Run the blame grid at this scale.
pub fn run(scale: &Scale) -> Blame {
    let mut cells = Vec::new();
    let mut jobs = Vec::new();
    for device in arena::devices() {
        for network in arena::NETWORKS {
            for memory in arena::memories() {
                let cell = cells.len() as u64;
                cells.push((device.clone(), network, memory));
                for rep in 0..scale.runs {
                    jobs.push(Job {
                        cell,
                        device: device.clone(),
                        network,
                        memory,
                        rep,
                    });
                }
            }
        }
    }
    let per_rep: Vec<RepOut> = runner::map(scale, &jobs, |job| run_rep(scale, job));

    let mut regimes = Vec::new();
    for (ci, (device, network, memory)) in cells.iter().enumerate() {
        let mut rebuffer_us = vec![0u64; NCAUSES];
        let mut drops = vec![0u64; NCAUSES];
        let mut stats_rebuffer_us = 0u64;
        let mut stats_drops = 0u64;
        let mut records = 0u64;
        let mut samples = Vec::new();
        for (job, rep) in jobs.iter().zip(&per_rep).filter(|(j, _)| j.cell == ci as u64) {
            add(&mut rebuffer_us, &rep.rebuffer_us);
            add(&mut drops, &rep.drops);
            stats_rebuffer_us += rep.stats_rebuffer_us;
            stats_drops += rep.stats_drops;
            records += rep.records;
            if job.rep == 0 {
                samples = rep.samples.clone();
            }
        }
        let total: u64 = rebuffer_us.iter().sum();
        let share_of = |us: u64| if total > 0 { us as f64 / total as f64 } else { 0.0 };
        let class_share = |pred: fn(Cause) -> bool| {
            share_of(
                Cause::ALL
                    .iter()
                    .filter(|c| pred(**c))
                    .map(|c| rebuffer_us[c.index()])
                    .sum(),
            )
        };
        regimes.push(BlameRegime {
            device: device.name.to_string(),
            network: network.to_string(),
            memory: memory.label(),
            rebuffer_share: rebuffer_us.iter().map(|&us| share_of(us)).collect(),
            memory_rebuffer_share: class_share(Cause::is_memory),
            network_rebuffer_share: class_share(Cause::is_network),
            rebuffer_us,
            drops,
            stats_rebuffer_us,
            stats_drops,
            records,
            samples,
        });
    }

    Blame {
        policy: POLICY.to_string(),
        causes: Cause::ALL.iter().map(|c| c.label().to_string()).collect(),
        regimes,
    }
}

impl Blame {
    /// Check the artifact: the causes are the engine's, every regime's
    /// per-cause vectors sum exactly to its sessions' own totals and its
    /// shares to 1, samples name declared causes, and in every Moderate
    /// paper-lan regime that rebuffered (at least one must) the
    /// memory-caused share strictly dominates the network-caused share.
    /// Returns a one-line summary.
    pub fn validate(&self) -> Result<String, String> {
        let labels: Vec<&str> = Cause::ALL.iter().map(|c| c.label()).collect();
        if self.causes != labels {
            return Err(format!("causes {:?} are not {labels:?}", self.causes));
        }
        if self.regimes.is_empty() {
            return Err("regimes is empty".into());
        }
        let moderate = PressureMode::Synthetic(TrimLevel::Moderate).label();
        let mut dominance_checked = 0u64;
        for (i, r) in self.regimes.iter().enumerate() {
            for (key, per_cause) in [("rebuffer_us", &r.rebuffer_us), ("drops", &r.drops)] {
                if per_cause.len() != NCAUSES {
                    let n = per_cause.len();
                    return Err(format!(
                        "regime {i}: {key} has {n} entries for {NCAUSES} causes"
                    ));
                }
            }
            // Conservation: every rebuffer microsecond and dropped frame is
            // charged to exactly one cause, so the integer vectors sum to
            // the sessions' own totals exactly.
            let total = r.stats_rebuffer_us;
            if r.rebuffer_us.iter().sum::<u64>() != total {
                return Err(format!(
                    "regime {i}: per-cause rebuffer sum != session total {total}"
                ));
            }
            if r.drops.iter().sum::<u64>() != r.stats_drops {
                let total = r.stats_drops;
                return Err(format!(
                    "regime {i}: per-cause drop sum != session total {total}"
                ));
            }
            let shares: f64 = r.rebuffer_share.iter().sum();
            if total > 0 && (shares - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "regime {i}: rebuffer shares sum to {shares}, not 1"
                ));
            }
            for (j, s) in r.samples.iter().enumerate() {
                if !self.causes.contains(&s.cause) {
                    let cause = &s.cause;
                    return Err(format!(
                        "regime {i} sample {j}: cause {cause:?} not in causes"
                    ));
                }
            }
            // The headline claim: on the dedicated LAN under Moderate
            // pressure, memory causes strictly dominate network causes.
            if r.network == "paper-lan" && r.memory == moderate && total > 0 {
                let (mem, net) = (r.memory_rebuffer_share, r.network_rebuffer_share);
                if mem <= net {
                    return Err(format!(
                        "regime {i} ({}/paper-lan/Moderate): memory share {mem} does not \
                         dominate network share {net}",
                        r.device
                    ));
                }
                dominance_checked += 1;
            }
        }
        if dominance_checked == 0 {
            return Err(
                "no Moderate paper-lan regime rebuffered; the dominance claim was never exercised"
                    .into(),
            );
        }
        Ok(format!(
            "{} regime(s) x {NCAUSES} causes, shares sum to 1, memory dominance held in \
             {dominance_checked} Moderate paper-lan regime(s)",
            self.regimes.len()
        ))
    }

    /// Print the per-regime blame table.
    pub fn print(&self) {
        report::banner(
            "blame",
            "causal attribution: every rebuffer second and dropped frame charged to a cause",
        );
        let rows: Vec<Vec<String>> = self
            .regimes
            .iter()
            .map(|r| {
                let top = Cause::ALL
                    .iter()
                    .max_by_key(|c| r.rebuffer_us[c.index()])
                    .expect("eight causes");
                vec![
                    r.device.clone(),
                    r.network.clone(),
                    r.memory.clone(),
                    format!("{:.1}", r.stats_rebuffer_us as f64 / 1e6),
                    r.stats_drops.to_string(),
                    if r.stats_rebuffer_us > 0 { top.label().to_string() } else { "-".into() },
                    format!("{:.0}", r.memory_rebuffer_share * 100.0),
                    format!("{:.0}", r.network_rebuffer_share * 100.0),
                    r.records.to_string(),
                ]
            })
            .collect();
        report::print_table(
            &[
                "device", "network", "memory", "rebuf s", "drops", "top cause", "mem %",
                "net %", "records",
            ],
            &rows,
        );
        println!(
            "policy: {} (network-only) — conservation holds by construction: per-cause \
             vectors sum to the sessions' own rebuffer/drop totals",
            self.policy
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-identical at any worker count; conservation exact per regime;
    /// paper-lan regimes have zero network-caused rebuffer by design.
    #[test]
    fn artifact_is_byte_identical_and_conservative() {
        let scale = Scale::quick().runs(1).video_secs(24.0);
        let serial = serde_json::to_string(&run(&scale.clone().jobs(1))).unwrap();
        for jobs in [2, 8] {
            let parallel = serde_json::to_string(&run(&scale.clone().jobs(jobs))).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs} must not change the artifact");
        }
        let data = run(&scale);
        assert_eq!(data.regimes.len(), 16);
        assert_eq!(data.causes.len(), NCAUSES);
        for r in &data.regimes {
            assert_eq!(r.rebuffer_us.iter().sum::<u64>(), r.stats_rebuffer_us);
            assert_eq!(r.drops.iter().sum::<u64>(), r.stats_drops);
            if r.stats_rebuffer_us > 0 {
                let sum: f64 = r.rebuffer_share.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1, got {sum}");
            }
            if r.network == "paper-lan" {
                let net = Cause::NetworkDip.index();
                assert_eq!(
                    r.rebuffer_us[net], 0,
                    "the dedicated LAN never dips, so nothing can be blamed on it"
                );
            }
        }
    }
}
