//! The run loop every workload shares.
//!
//! A run sets its workload up [`SETUP_REPEATS`] times (reporting the median
//! as `setup_s` and keeping the last), then attempts whole rounds of
//! operations until `--seconds` have passed. An untraced run reports the
//! end-to-end metrics. A traced run alternates untraced and traced rounds
//! (so both see the same host states), reports the tracing overhead from
//! the two, and adds the workload's per-layer metrics.

use crate::host;
use crate::report::{self, Layers, Rows};
use crate::spans::Tracer;
use crate::stats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Pause after every round and warm-up operation, outside the timed work.
/// The program's parallel engines spawn fresh worker threads per call;
/// without a pause, the next call's workers can start before the last
/// call's have handed their malloc arenas back, glibc then creates extra
/// arenas, and `VmHWM` jumps by several MiB in some runs and not in others.
pub fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(2));
}

/// Operations whose spans go into the trace file (all stay in memory).
pub const TRACE_FILE_OPS: u64 = 8;

/// First operation id of the traced run's fixed probe work, far above any
/// timed operation.
pub const PROBE_OP: u64 = 1 << 40;

/// How a run was asked to go.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// One set-up and one round (two when traced) at reduced size, to check
    /// the workload end to end in seconds.
    pub quick: bool,
}

/// One finished operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Host time of the operation, ms.
    pub ms: f64,
    /// Simulated seconds it completed.
    pub sim_s: f64,
    /// False if a call returned an error or an output check failed.
    pub ok: bool,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Generate the inputs, start what the program keeps running, warm up.
    fn setup(cfg: &RunConfig) -> Self;
    /// Stop what [`Workload::setup`] started, for a set-up not kept.
    fn discard(self) {}
    /// Operations per round.
    fn round_ops(&self) -> usize;
    /// Run round `round`; traced when `tracer` is given.
    fn round(&mut self, round: u64, tracer: Option<&Tracer>) -> Vec<OpRecord>;
    /// `peak_rss_mib` of an untraced run, read after its timed phase.
    fn peak_rss_mib(&self) -> f64 {
        host::peak_rss_mib()
    }
    /// Traced run only, after the timed phase: run the fixed probe work
    /// (counts that repeat exactly for a seed) and turn the spans into
    /// per-layer metrics.
    fn layers(&mut self, tracer: &Tracer, layers: &mut Layers);
    /// End-of-run output checks; stops everything the workload started.
    fn finish(self) -> Result<(), String>;
}

/// What a run measured.
pub struct RunResult {
    /// End-of-run checks held.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in output order.
    pub rows: Rows,
    /// Per-layer metrics the workload measured (traced runs).
    pub measured: Vec<&'static str>,
    /// Human-readable notes (check failures, tail percentile, trace file).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

fn run_round<W: Workload>(w: &mut W, round: u64, tracer: Option<&Tracer>) -> Vec<OpRecord> {
    let n = w.round_ops();
    match catch_unwind(AssertUnwindSafe(|| w.round(round, tracer))) {
        Ok(ops) => ops,
        Err(_) => vec![
            OpRecord {
                ms: f64::NAN,
                sim_s: 0.0,
                ok: false
            };
            n
        ],
    }
}

/// Run workload `W` as `cfg` asks.
pub fn run<W: Workload>(cfg: &RunConfig) -> RunResult {
    let run_start = Instant::now();
    let setup_repeats = if cfg.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..setup_repeats {
        let t = Instant::now();
        let fresh = host::track_wait(|| W::setup(cfg));
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = w.replace(fresh) {
            old.discard();
        }
    }
    let mut w = w.expect("at least one set-up");

    let tracer = cfg.trace.then(Tracer::new);
    let mut ops: Vec<OpRecord> = Vec::new();
    // (traced, wall seconds, simulated seconds) per round.
    let mut rounds: Vec<(bool, f64, f64)> = Vec::new();
    let timed = Instant::now();
    let min_rounds = if cfg.trace { 2 } else { 1 };
    let mut round = 0u64;
    while round < min_rounds || (!cfg.quick && timed.elapsed().as_secs_f64() < cfg.seconds) {
        let traced = cfg.trace && round % 2 == 1;
        let t = Instant::now();
        let done =
            host::track_wait(|| run_round(&mut w, round, tracer.as_ref().filter(|_| traced)));
        let sim: f64 = done.iter().map(|o| o.sim_s).sum();
        rounds.push((traced, t.elapsed().as_secs_f64(), sim));
        ops.extend(done);
        round += 1;
        settle();
    }
    let timed_s: f64 = rounds.iter().map(|r| r.1).sum();

    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|o| !o.ok).count() as u64;
    let times: Vec<f64> = ops.iter().map(|o| o.ms).filter(|m| m.is_finite()).collect();
    let mut notes = vec![format!(
        "set-ups took {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    )];
    let (tail_p, tail_ms) = stats::tail(&times);
    notes.push(format!(
        "{} ops in {timed_s:.2} s; op_tail_ms is p{tail_p} of {} timed ops",
        attempted,
        times.len()
    ));

    let mut measured = Vec::new();
    let rows = match &tracer {
        None => {
            let sim: f64 = ops.iter().map(|o| o.sim_s).sum();
            vec![
                ("sim_s_per_s", sim / timed_s, "s/s"),
                ("op_p50_ms", stats::median(&times), "ms"),
                ("op_tail_ms", tail_ms, "ms"),
                ("peak_rss_mib", w.peak_rss_mib(), "MiB"),
                ("setup_s", stats::median(&setups), "s"),
            ]
        }
        Some(t) => {
            let rate = |traced: bool| {
                let (wall, sim) = rounds
                    .iter()
                    .filter(|r| r.0 == traced)
                    .fold((0.0, 0.0), |(w, s), r| (w + r.1, s + r.2));
                sim / wall
            };
            let mut layers = Layers::default();
            layers.set(
                "harness.trace_overhead_pct",
                (rate(false) / rate(true) - 1.0) * 100.0,
            );
            w.layers(t, &mut layers);
            layers.set("host.runqueue_wait_ms", host::driving_wait_ms());
            measured.extend(layers.names());
            report::layer_rows(&layers)
        }
    };
    let correct = match catch_unwind(AssertUnwindSafe(|| w.finish())) {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            notes.push(format!("check failed: {e}"));
            false
        }
        Err(_) => {
            notes.push("end-of-run checks panicked".into());
            false
        }
    };
    notes.push(format!(
        "run took {:.2} s",
        run_start.elapsed().as_secs_f64()
    ));
    RunResult {
        correct,
        attempted,
        failed,
        rows,
        measured,
        notes,
        tracer,
    }
}
