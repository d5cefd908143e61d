//! `whatif-fork`: the counterfactual, arena, blame and Perfetto path. One
//! analysis covers one arena regime — {Nokia 1, Nexus 5} × {paper-lan,
//! lte-walk, congested-wifi, train-tunnel} × {Normal, Moderate}:
//!
//! 1. start a session with attribution and trace recording on;
//! 2. run a shared prefix under the throughput policy to 25% of the
//!    video and snapshot it;
//! 3. restore the arena's six policies from the snapshot and run each to
//!    the end with `Telemetry` enabled;
//! 4. export the baseline branch's trace with `chrome_trace_json` and run
//!    the §5 preemption analysis on it.
//!
//! It rides inside the `fleet-million` workload rather than being timed on
//! its own: its timings swung with the host's speed states by more than the
//! largest bound allows (see the README). Every `fleet-million` run checks
//! one regime at its end, and its traced run takes these layers' metrics
//! from four regimes.

use crate::harness::PROBE_OP;
use crate::report::Layers;
use crate::spans::{span, Ctx, Tracer};
use crate::stats::median;
use mvqoe_abr::{Abr, AbrContext, Bola, BufferBased, Hybrid, MemoryAware, Mpc, ThroughputBased};
use mvqoe_core::{AttributionReport, PressureMode, Session, SessionConfig, SessionOutcome};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_metrics::Telemetry;
use mvqoe_net::{LinkParams, LinkTrace};
use mvqoe_sched::ThreadId;
use mvqoe_sim::{derive_seed, SimTime};
use mvqoe_trace::analysis::preemption_stats;
use mvqoe_trace::chrome_trace::chrome_trace_json;
use mvqoe_video::{Fps, Manifest, Representation, Resolution, SessionStats};
use std::time::Instant;

/// Experiment id the session seeds derive from.
pub const EXPERIMENT: &str = "mvbench/whatif-fork";
const VIDEO_SECS: f64 = 120.0;
/// Share of the video the branches have in common.
const FORK_FRAC: f64 = 0.25;

/// The arena's six policies; the first is the prefix's and the baseline.
pub const POLICIES: [&str; 6] = [
    "throughput",
    "buffer-based",
    "bola",
    "mpc",
    "memory-aware",
    "hybrid",
];
const NETWORKS: [&str; 4] = ["paper-lan", "lte-walk", "congested-wifi", "train-tunnel"];
/// Arena regimes: {device} × {network} × {memory}.
pub const REGIMES: u64 = 16;
/// Regimes the traced run's probe analyses.
const PROBE_REGIMES: [u64; 4] = [0, 5, 10, 15];

fn make_abr(name: &str) -> Box<dyn Abr> {
    match name {
        "throughput" => Box::new(ThroughputBased::new(Fps::F60)),
        "buffer-based" => Box::new(BufferBased::new(Fps::F60)),
        "bola" => Box::new(Bola::new(Fps::F60)),
        "mpc" => Box::new(Mpc::new(Fps::F60)),
        "memory-aware" => Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
        "hybrid" => Box::new(Hybrid::new(Fps::F60)),
        other => panic!("unknown policy {other}"),
    }
}

fn link_for(network: &str, trace_seed: u64, horizon_secs: f64) -> LinkParams {
    match network {
        "paper-lan" => LinkParams::paper_lan(),
        "lte-walk" => {
            LinkParams::constrained(15.0).with_trace(LinkTrace::lte_walk(trace_seed, horizon_secs))
        }
        "congested-wifi" => LinkParams::constrained(20.0)
            .with_trace(LinkTrace::congested_wifi(trace_seed, horizon_secs)),
        "train-tunnel" => LinkParams::constrained(25.0)
            .with_trace(LinkTrace::train_tunnel(trace_seed, horizon_secs)),
        other => panic!("unknown network {other}"),
    }
}

/// The session configuration of regime `regime` in round `round`.
pub fn regime_cfg(seed: u64, round: u64, regime: u64) -> SessionConfig {
    let device = [DeviceProfile::nokia1(), DeviceProfile::nexus5()][(regime / 8) as usize].clone();
    let network = NETWORKS[(regime / 2 % 4) as usize];
    let memory = [
        PressureMode::None,
        PressureMode::Synthetic(TrimLevel::Moderate),
    ][(regime % 2) as usize];
    let mut cfg =
        SessionConfig::paper_default(device, memory, derive_seed(seed, EXPERIMENT, round, regime));
    cfg.video_secs = VIDEO_SECS;
    let trace_seed = derive_seed(seed, "mvbench/whatif-fork.trace", round, regime);
    cfg.link = link_for(network, trace_seed, 300.0 + VIDEO_SECS * 2.5 + 60.0);
    cfg.attribution = true;
    cfg.record_trace = true;
    cfg
}

/// An ABR decision must be a representation on the manifest's ladder
/// within the device's screen cap.
pub fn check_decision(
    rep: Representation,
    manifest: &Manifest,
    cap: Resolution,
) -> Result<(), String> {
    if !manifest.representations.contains(&rep) {
        return Err(format!("decision {rep} is not on the ladder"));
    }
    if rep.resolution > cap {
        return Err(format!("decision {rep} exceeds the screen cap {cap}"));
    }
    Ok(())
}

/// Per-cause rebuffer microseconds and dropped frames must sum exactly to
/// the session's own totals.
pub fn check_conservation(rep: &AttributionReport, stats: &SessionStats) -> Result<(), String> {
    let rebuffer = stats.rebuffer_time.as_micros();
    if rep.total_rebuffer_us() != rebuffer || rep.total_drops() != stats.frames_dropped {
        return Err(format!(
            "attribution {} us / {} drops against session {} us / {} drops",
            rep.total_rebuffer_us(),
            rep.total_drops(),
            rebuffer,
            stats.frames_dropped
        ));
    }
    Ok(())
}

/// Two sessions finished identically: QoE stats, streamed representations
/// and attribution.
pub fn check_same_outcome(a: &SessionOutcome, b: &SessionOutcome) -> Result<(), String> {
    let key = |o: &SessionOutcome| {
        serde_json::to_string(&(&o.stats, &o.rep_history, &o.attribution, o.machine.now()))
            .map_err(|e| e.to_string())
    };
    if key(a)? == key(b)? {
        Ok(())
    } else {
        Err(
            "the restored throughput branch differs from the parent continued without a fork"
                .into(),
        )
    }
}

/// An exported trace parses as JSON and carries complete slices on the
/// client's threads. Returns its event count.
pub fn check_trace_parsed(json: &str, client: &[ThreadId]) -> Result<u64, String> {
    let v: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("trace JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_seq())
        .ok_or("no traceEvents array")?;
    let on_client = events.iter().any(|e| {
        e.get("ph").and_then(|p| p.as_str()) == Some("X")
            && e.get("tid")
                .and_then(|t| t.as_u64())
                .is_some_and(|t| client.iter().any(|c| u64::from(c.0) == t))
    });
    if on_client {
        Ok(events.len() as u64)
    } else {
        Err("parsed trace has no events on the client's threads".into())
    }
}

/// An ABR policy wrapped to check, count and time every decision. It keeps
/// the policy's name and state, so a snapshot restores into it exactly as
/// into the bare policy.
pub struct CheckedAbr {
    inner: Box<dyn Abr>,
    /// Host ns of each decision.
    pub choose_ns: Vec<u64>,
    /// Decisions made.
    pub decisions: u64,
    /// First decision that failed [`check_decision`].
    pub bad: Option<String>,
}

impl CheckedAbr {
    fn new(name: &str) -> CheckedAbr {
        CheckedAbr {
            inner: make_abr(name),
            choose_ns: Vec::new(),
            decisions: 0,
            bad: None,
        }
    }
}

impl Abr for CheckedAbr {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let started = Instant::now();
        let rep = self.inner.choose(ctx);
        self.choose_ns.push(started.elapsed().as_nanos() as u64);
        self.decisions += 1;
        if self.bad.is_none() {
            self.bad = check_decision(rep, ctx.manifest, ctx.screen_cap).err();
        }
        rep
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn state_value(&self) -> serde::Value {
        self.inner.state_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        self.inner.restore_state(state)
    }
}

/// What one regime analysis produced.
#[derive(Default)]
pub struct Analysis {
    /// Simulated seconds completed: prefix plus every branch from the fork.
    pub sim_s: f64,
    /// ABR decisions across prefix and branches.
    pub decisions: u64,
    /// Decision costs, ns.
    pub choose_ns: Vec<u64>,
    /// Snapshot size, bytes.
    pub snapshot_bytes: usize,
    /// Exported trace size, bytes.
    pub export_bytes: usize,
    /// Events in the exported trace.
    pub trace_events: u64,
    /// Attribution records (kept and over the cap) across branches.
    pub attribution_records: u64,
    /// Baseline branch's exported trace (kept on request).
    pub trace_json: Option<String>,
    /// Client threads of the baseline branch.
    pub client: Vec<ThreadId>,
    /// Baseline branch and the parent continued without a fork (on request).
    pub continued: Option<(SessionOutcome, SessionOutcome)>,
}

/// Analyse one regime. `keep` retains the trace and continues the parent
/// for the end-of-run checks.
pub fn analyse(
    cfg: SessionConfig,
    t: Option<&Tracer>,
    ctx: Ctx,
    keep: bool,
) -> Result<Analysis, String> {
    let mut a = Analysis::default();
    let video_secs = cfg.video_secs;
    let mut base = CheckedAbr::new(POLICIES[0]);
    let (mut parent, started_at) = span(t, ctx, "core.prefix", |_| {
        let mut s = Session::start(cfg);
        let started_at = s.now();
        let fork_at = SimTime::from_secs_f64(started_at.as_secs_f64() + FORK_FRAC * video_secs);
        s.run_until(&mut base, fork_at);
        (s, started_at)
    });
    let snap = span(t, ctx, "core.snapshot", |_| parent.snapshot(&base));
    a.snapshot_bytes = serde_json::to_string(&snap)
        .map_err(|e| e.to_string())?
        .len();
    a.sim_s += snap.at.saturating_since(started_at).as_secs_f64();
    let mut baseline = None;
    let mut abrs = vec![base];
    for policy in POLICIES {
        let mut abr = CheckedAbr::new(policy);
        let mut s = span(t, ctx, "core.restore", |_| {
            Session::restore(&snap, &mut abr)
        })
        .map_err(|e| format!("restore {policy}: {e}"))?;
        let mut tele = Telemetry::enabled();
        let out = span(t, ctx, "core.branch", |_| {
            s.run_until_with(&mut abr, SimTime::MAX, Some(&mut tele));
            s.finish(Some(&mut tele))
        });
        std::hint::black_box(span(t, ctx, "metrics.snapshot", |_| tele.snapshot()));
        let rep = out
            .attribution
            .as_ref()
            .ok_or("attribution was on but produced no report")?;
        check_conservation(rep, &out.stats).map_err(|e| format!("{policy}: {e}"))?;
        a.attribution_records += rep.records.len() as u64 + rep.records_dropped;
        a.sim_s += out.stats.ended_at.saturating_since(snap.at).as_secs_f64();
        abrs.push(abr);
        if baseline.is_none() {
            baseline = Some(out);
        }
    }
    let baseline = baseline.expect("six branches ran");
    let json = span(t, ctx, "trace.export", |_| {
        chrome_trace_json(&baseline.machine.trace)
    });
    let mmcqd = baseline.machine.mmcqd_thread();
    let client = baseline.client_threads.to_vec();
    std::hint::black_box(span(t, ctx, "trace.analysis", |_| {
        preemption_stats(&baseline.machine.trace, mmcqd, &client)
    }));
    a.trace_events = check_trace_parsed(&json, &client)?;
    a.export_bytes = json.len();
    for abr in &mut abrs {
        if let Some(e) = abr.bad.take() {
            return Err(format!("{}: {e}", abr.name()));
        }
        a.decisions += abr.decisions;
        a.choose_ns.append(&mut abr.choose_ns);
    }
    if keep {
        a.trace_json = Some(json);
        a.client = client;
        let mut base = abrs.swap_remove(0);
        parent.run_until(&mut base, SimTime::MAX);
        a.continued = Some((baseline, parent.finish(None)));
    }
    Ok(a)
}

/// Traced run: four regimes of round 0 (both devices, every network, both
/// memory states) analysed one after another with every call in a span.
/// Counts and sizes are functions of the seed alone.
pub fn probe_layers(seed: u64, t: &Tracer, layers: &mut Layers) {
    let mut decisions = 0;
    let mut records = 0;
    let mut events = 0;
    let mut snapshot_kib = Vec::new();
    let mut export_kib = Vec::new();
    let mut choose_us = Vec::new();
    for r in PROBE_REGIMES {
        let ctx = Ctx {
            op: PROBE_OP + r,
            parent: 0,
        };
        let a = t
            .span(ctx, "op", |c| {
                analyse(regime_cfg(seed, 0, r), Some(t), c, false)
            })
            .expect("probe regime analyses cleanly");
        decisions += a.decisions;
        records += a.attribution_records;
        events += a.trace_events;
        snapshot_kib.push(a.snapshot_bytes as f64 / 1024.0);
        export_kib.push(a.export_bytes as f64 / 1024.0);
        choose_us.extend(a.choose_ns.iter().map(|&n| n as f64 / 1e3));
    }
    let med = |name: &str| median(&t.durations_ms(name));
    layers.set("core.prefix_ms", med("core.prefix"));
    layers.set("core.snapshot_ms", med("core.snapshot"));
    layers.set("core.snapshot_kib", median(&snapshot_kib));
    layers.set("core.restore_ms", med("core.restore"));
    layers.set("core.branch_ms", med("core.branch"));
    layers.set("abr.choose_us", median(&choose_us));
    layers.set("abr.decisions", decisions as f64);
    layers.set("trace.export_ms", med("trace.export"));
    layers.set("trace.export_kib", median(&export_kib));
    layers.set("trace.events", events as f64);
    layers.set("trace.analysis_ms", med("trace.analysis"));
    layers.set("metrics.snapshot_us", med("metrics.snapshot") * 1e3);
    layers.set("core.attribution_records", records as f64);
}

/// The end-of-run check on one group (regime 0 of round 0): every check of
/// [`analyse`], and the restored throughput branch finishing like the
/// parent continued without a fork.
pub fn check(seed: u64) -> Result<(), String> {
    let a = analyse(regime_cfg(seed, 0, 0), None, Ctx { op: 0, parent: 0 }, true)?;
    let (branch, parent) = a.continued.as_ref().ok_or("parent not continued")?;
    check_same_outcome(branch, parent)
}
