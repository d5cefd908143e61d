//! Bridge between [`Scale`] and the parallel experiment engine.
//!
//! Experiment modules describe their grids as [`CellSpec`] lists (or plain
//! job slices) and hand them to this module, which fans the work out over
//! `scale.jobs` worker threads via [`mvqoe_core::run_cells_parallel`] /
//! [`mvqoe_core::parallel_fold`]. Results come back in input order, and every
//! session is seeded by its grid coordinates through
//! [`mvqoe_sim::derive_seed`], so the outputs are identical at any worker
//! count — `--jobs` only changes wall-clock time.
//!
//! When `scale.metrics` is set, every grid run also collects a per-cell
//! [`MetricsSnapshot`] into a process-wide stash, which
//! [`crate::registry::run_one`] drains into a
//! `results/<name>.metrics.json` sidecar. Worker utilization
//! ([`WorkerStat`]) is stashed unconditionally — it only feeds the meta
//! sidecar, never the data JSON.

use crate::scale::Scale;
use mvqoe_core::{parallel_fold, run_cells_parallel_metrics, CellResult, CellSpec, WorkerStat};
use mvqoe_metrics::{MetricsSidecar, MetricsSnapshot};
use std::sync::Mutex;

/// Everything the runner observed since the last [`drain_stash`]: per-cell
/// metrics snapshots keyed by experiment id, plus aggregated worker
/// utilization.
#[derive(Debug, Default)]
pub struct TelemetryStash {
    /// Per-cell metrics snapshots, in grid order, keyed by experiment id.
    pub metrics: MetricsSidecar,
    /// Worker utilization summed over every engine invocation.
    pub workers: Vec<WorkerStat>,
}

impl TelemetryStash {
    fn absorb_workers(&mut self, stats: &[WorkerStat]) {
        if self.workers.len() < stats.len() {
            self.workers.resize(stats.len(), WorkerStat::default());
        }
        for (mine, s) in self.workers.iter_mut().zip(stats) {
            mine.jobs += s.jobs;
            mine.busy_secs += s.busy_secs;
        }
    }
}

static STASH: Mutex<Option<TelemetryStash>> = Mutex::new(None);

fn with_stash(f: impl FnOnce(&mut TelemetryStash)) {
    let mut guard = STASH.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(TelemetryStash::default));
}

/// Take everything stashed since the previous drain. Each experiment run
/// drains once per `results/<name>.json` write, so the stash holds exactly
/// one experiment's telemetry at a time.
pub fn drain_stash() -> TelemetryStash {
    let mut guard = STASH.lock().unwrap_or_else(|e| e.into_inner());
    guard.take().unwrap_or_default()
}

/// Run an experiment's cells with `scale.jobs` workers. `experiment` names
/// the grid for seed derivation: two experiments with the same base seed
/// but different names draw from unrelated random streams.
pub fn run_cells(experiment: &str, specs: &[CellSpec<'_>], scale: &Scale) -> Vec<CellResult> {
    let (cells, snapshots, stats) =
        run_cells_parallel_metrics(experiment, specs, scale.jobs, scale.metrics);
    with_stash(|stash| {
        stash.absorb_workers(&stats);
        if let Some(snapshots) = snapshots {
            stash.metrics.insert(experiment.to_string(), snapshots);
        }
    });
    cells
}

/// Stash one out-of-band metrics snapshot (e.g. the Perfetto showcase
/// session) under an experiment id.
pub fn stash_snapshot(experiment: &str, snapshot: MetricsSnapshot) {
    with_stash(|stash| {
        stash
            .metrics
            .entry(experiment.to_string())
            .or_default()
            .push(snapshot);
    });
}

/// Map `f` over `items` with `scale.jobs` workers, returning results in
/// input order. For experiment stages that run whole sessions (or other
/// independent jobs) outside the cell/repetition shape.
pub fn map<T, R, F>(scale: &Scale, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    fold(scale, items, f, |r| out.push(r));
    out
}

/// Map `f` over `items` with `scale.jobs` workers and hand each result to
/// `sink` in input order as soon as every earlier one is in, so a caller
/// that folds results never holds more than the few that finished early.
pub fn fold<T, R, F, S>(scale: &Scale, items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
    S: FnMut(R),
{
    let stats = parallel_fold(items, scale.jobs, f, sink);
    with_stash(|stash| stash.absorb_workers(&stats));
}

/// The session seed for coordinates `(experiment, cell, rep)` under this
/// scale's base seed. Single-session figures use this directly so that their
/// seeds live in the same derived-coordinate space as engine-run cells.
pub fn seed_at(scale: &Scale, experiment: &str, cell: u64, rep: u64) -> u64 {
    mvqoe_sim::derive_seed(scale.seed, experiment, cell, rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stash is process-global; tests that touch it must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn jobs_scale(jobs: usize) -> Scale {
        Scale::quick().jobs(jobs)
    }

    #[test]
    fn map_is_order_stable_at_any_worker_count() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..40).collect();
        let serial = map(&jobs_scale(1), &items, |&x| x * x);
        for jobs in [2, 3, 8] {
            assert_eq!(map(&jobs_scale(jobs), &items, |&x| x * x), serial);
        }
    }

    #[test]
    fn seed_at_depends_on_all_coordinates() {
        let s = jobs_scale(1);
        let base = seed_at(&s, "exp", 0, 0);
        assert_ne!(base, seed_at(&s, "exp", 1, 0));
        assert_ne!(base, seed_at(&s, "exp", 0, 1));
        assert_ne!(base, seed_at(&s, "other", 0, 0));
    }

    #[test]
    fn map_stashes_worker_utilization() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drain_stash();
        let items: Vec<u64> = (0..12).collect();
        map(&jobs_scale(3), &items, |&x| x + 1);
        let stash = drain_stash();
        assert_eq!(stash.workers.len(), 3);
        assert_eq!(stash.workers.iter().map(|w| w.jobs).sum::<u64>(), 12);
        // Drained means gone.
        assert!(drain_stash().workers.is_empty());
    }

    #[test]
    fn stash_snapshot_accumulates_under_experiment_id() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drain_stash();
        stash_snapshot("telemetry/unit", MetricsSnapshot::default());
        stash_snapshot("telemetry/unit", MetricsSnapshot::default());
        let stash = drain_stash();
        assert_eq!(stash.metrics["telemetry/unit"].len(), 2);
    }
}
