//! Parallel experiment engine.
//!
//! Experiments are grids of independent cells (device × pressure ×
//! representation × player × repetition). This module expands a list of
//! [`CellSpec`]s into a flat list of session jobs, fans them out over a
//! fixed-size worker pool, and reassembles the results in stable input
//! order.
//!
//! **Determinism.** Each session's seed comes from
//! [`mvqoe_sim::derive_seed`]`(base, experiment, cell_index, rep)` — a pure
//! function of the session's grid coordinates. Workers pull jobs from a
//! shared queue in whatever order the OS schedules them, but because no
//! session's randomness depends on *when* or *where* it runs, the output of
//! [`run_cells_parallel`] is bit-identical to running every cell serially
//! with [`run_cell_at`], at any worker count.

use crate::qoe::{aggregate_runs, CellResult, RunDigest};
use crate::session::{run_session_with, SessionConfig};
use mvqoe_abr::Abr;
use mvqoe_metrics::{MetricsSnapshot, Telemetry};
use mvqoe_sim::derive_seed;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// What one worker thread did during a parallel run: how many jobs it
/// claimed and how long it spent inside them. Never affects results — this
/// is sidecar metadata for the `meta.json` the experiment runner writes.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct WorkerStat {
    /// Jobs (cells × repetitions, or map items) this worker executed.
    pub jobs: u64,
    /// Wall-clock seconds spent executing them.
    pub busy_secs: f64,
}

impl WorkerStat {
    /// Run one job, counting it and its wall-clock time.
    fn time<R>(&mut self, job: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let result = job();
        self.jobs += 1;
        self.busy_secs += t0.elapsed().as_secs_f64();
        result
    }
}

/// Factory producing a fresh ABR controller per session. Shared across
/// worker threads, so it must be callable concurrently.
pub type AbrFactory<'a> = Arc<dyn Fn() -> Box<dyn Abr> + Send + Sync + 'a>;

/// One cell of an experiment grid: a session configuration to repeat
/// `n_runs` times. `cfg.seed` is the *base* seed; each repetition's actual
/// seed is derived from (base, experiment, cell index, rep).
pub struct CellSpec<'a> {
    /// Session configuration (its `seed` field is the base seed).
    pub cfg: SessionConfig,
    /// Number of repetitions.
    pub n_runs: u64,
    /// Fresh-ABR factory, invoked once per repetition.
    pub make_abr: AbrFactory<'a>,
}

impl<'a> CellSpec<'a> {
    /// Convenience constructor.
    pub fn new(
        cfg: SessionConfig,
        n_runs: u64,
        make_abr: impl Fn() -> Box<dyn Abr> + Send + Sync + 'a,
    ) -> Self {
        CellSpec { cfg, n_runs, make_abr: Arc::new(make_abr) }
    }
}

/// Run one repetition of one cell and digest its metrics. The session seed
/// depends only on the coordinates, so this is safe to call from any thread
/// in any order.
pub fn run_rep(
    experiment: &str,
    cell_index: u64,
    rep: u64,
    cfg: &SessionConfig,
    abr: &mut dyn Abr,
) -> RunDigest {
    run_rep_with(experiment, cell_index, rep, cfg, abr, None)
}

/// [`run_rep`] with an optional metrics handle threaded into the session.
pub fn run_rep_with(
    experiment: &str,
    cell_index: u64,
    rep: u64,
    cfg: &SessionConfig,
    abr: &mut dyn Abr,
    telemetry: Option<&mut Telemetry>,
) -> RunDigest {
    let mut run_cfg = cfg.clone();
    run_cfg.seed = derive_seed(cfg.seed, experiment, cell_index, rep);
    let out = run_session_with(&run_cfg, abr, telemetry);
    let crashed = out.stats.crashed();
    RunDigest {
        seed: run_cfg.seed,
        drop_pct: if crashed { 100.0 } else { out.stats.drop_pct() },
        crashed,
        mean_pss_mib: out.stats.mean_pss_mib(),
        mean_fps: out.stats.mean_fps(),
        frames_total: out.stats.frames_total(),
    }
}

/// Serial reference implementation: run one cell's repetitions in order.
/// Produces exactly what [`run_cells_parallel`] produces for the same
/// coordinates — the equivalence the test suite pins down.
pub fn run_cell_at(
    experiment: &str,
    cell_index: u64,
    cfg: &SessionConfig,
    n_runs: u64,
    make_abr: &mut dyn FnMut() -> Box<dyn Abr>,
) -> CellResult {
    let runs: Vec<RunDigest> = (0..n_runs)
        .map(|rep| {
            let mut abr = make_abr();
            run_rep(experiment, cell_index, rep, cfg, abr.as_mut())
        })
        .collect();
    aggregate_runs(runs)
}

/// Run every cell of an experiment, fanning individual repetitions out over
/// `workers` threads. Results are returned in the input order of `specs`,
/// with each cell's repetitions in repetition order, regardless of how the
/// pool interleaved the work.
pub fn run_cells_parallel(
    experiment: &str,
    specs: &[CellSpec<'_>],
    workers: usize,
) -> Vec<CellResult> {
    run_cells_parallel_metrics(experiment, specs, workers, false).0
}

/// [`run_cells_parallel`], optionally collecting one merged
/// [`MetricsSnapshot`] per cell (repetition snapshots merged in repetition
/// order, so the output is identical at any worker count). Also returns
/// per-worker job counts and busy time for the runner's meta sidecar.
pub fn run_cells_parallel_metrics(
    experiment: &str,
    specs: &[CellSpec<'_>],
    workers: usize,
    collect_metrics: bool,
) -> (Vec<CellResult>, Option<Vec<MetricsSnapshot>>, Vec<WorkerStat>) {
    // Expand the grid to a flat job list: (cell, rep) in lexicographic
    // order. The fold hands results back in this order, so each cell's
    // digests arrive already in repetition order.
    let jobs: Vec<(u64, u64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(cell, spec)| (0..spec.n_runs).map(move |rep| (cell as u64, rep)))
        .collect();

    let mut per_cell: Vec<Vec<RunDigest>> = specs
        .iter()
        .map(|spec| Vec::with_capacity(spec.n_runs as usize))
        .collect();
    let mut metrics_per_cell: Vec<MetricsSnapshot> =
        vec![MetricsSnapshot::default(); specs.len()];
    let job = |&(cell, rep): &(u64, u64)| {
        let spec = &specs[cell as usize];
        let mut abr = (spec.make_abr)();
        if collect_metrics {
            let mut tele = Telemetry::enabled();
            let digest =
                run_rep_with(experiment, cell, rep, &spec.cfg, abr.as_mut(), Some(&mut tele));
            (cell, digest, Some(tele.snapshot()))
        } else {
            let digest = run_rep(experiment, cell, rep, &spec.cfg, abr.as_mut());
            (cell, digest, None)
        }
    };
    let stats = parallel_fold(&jobs, workers, job, |(cell, digest, snap)| {
        per_cell[cell as usize].push(digest);
        if let Some(snap) = snap {
            metrics_per_cell[cell as usize].merge(&snap);
        }
    });
    let cells = per_cell.into_iter().map(aggregate_runs).collect();
    let metrics = collect_metrics.then_some(metrics_per_cell);
    (cells, metrics, stats)
}

/// Map `f` over `items` with a fixed-size worker pool, returning results in
/// input order: a [`parallel_fold`] that pushes into a `Vec`.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    parallel_fold(items, workers, f, |r| out.push(r));
    out
}

/// Map `f` over `items` with a fixed-size worker pool and hand each result
/// to `sink` in input order, as soon as every earlier result is in.
/// Workers claim indices from a shared atomic cursor and send
/// `(index, result)` pairs back over a channel; the calling thread runs
/// `sink` and holds only the results that finished ahead of an earlier
/// one. Returns what each worker did (job count and busy seconds). With
/// `workers <= 1` (or one item) this degenerates to a plain serial loop on
/// the calling thread, which reports itself as one worker.
pub fn parallel_fold<T, R, F, S>(items: &[T], workers: usize, f: F, mut sink: S) -> Vec<WorkerStat>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
    S: FnMut(R),
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        let mut stat = WorkerStat::default();
        for item in items {
            sink(stat.time(|| f(item)));
        }
        return vec![stat];
    }

    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut mine = WorkerStat::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = mine.time(|| f(&items[i]));
                        // A send failure means the receiver is gone, which
                        // only happens if the sink below panicked; stop
                        // quietly.
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        drop(tx);
        let mut ahead = BTreeMap::new();
        let mut next = 0;
        for (i, result) in rx {
            ahead.insert(i, result);
            while let Some(result) = ahead.remove(&next) {
                sink(result);
                next += 1;
            }
        }
        // Join every worker before returning. The scope's own join wakes
        // as soon as a worker's closure returns, before its OS thread has
        // exited and handed its malloc arena back; the next call's workers
        // could then start beside the old arenas and lift peak RSS.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::PressureMode;
    use mvqoe_device::DeviceProfile;
    use mvqoe_video::{Fps, Genre, Manifest, Resolution};
    use std::time::Duration;

    fn quick_cfg(seed: u64) -> SessionConfig {
        let mut cfg =
            SessionConfig::paper_default(DeviceProfile::nexus5(), PressureMode::None, seed);
        cfg.video_secs = 8.0;
        cfg
    }

    fn fixed_factory() -> AbrFactory<'static> {
        Arc::new(|| {
            let manifest = Manifest::full_ladder(Genre::Travel, 8.0);
            let rep = manifest.representation(Resolution::R480p, Fps::F30).unwrap();
            Box::new(mvqoe_abr::FixedAbr::new(rep))
        })
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_reference() {
        let specs: Vec<CellSpec> = (0..3)
            .map(|_| CellSpec {
                cfg: quick_cfg(7),
                n_runs: 2,
                make_abr: fixed_factory(),
            })
            .collect();
        let parallel = run_cells_parallel("unit-test", &specs, 4);
        for (cell_index, (spec, got)) in specs.iter().zip(&parallel).enumerate() {
            let serial = run_cell_at(
                "unit-test",
                cell_index as u64,
                &spec.cfg,
                spec.n_runs,
                &mut || (spec.make_abr)(),
            );
            assert_eq!(
                format!("{serial:?}"),
                format!("{got:?}"),
                "cell {cell_index} differs"
            );
        }
    }

    #[test]
    fn parallel_fold_streams_results_in_input_order() {
        // Item 1 waits until the sink has seen item 0, so a fold that hands
        // results over only once every job is done fails here (after the
        // timeout) instead of hanging.
        let (seen_tx, seen_rx) = mpsc::channel::<()>();
        let seen_rx = std::sync::Mutex::new(seen_rx);
        let mut streamed = Vec::new();
        parallel_fold(
            &[0u32, 1],
            2,
            |&i| {
                let wait = Duration::from_secs(10);
                i == 0 || seen_rx.lock().unwrap().recv_timeout(wait).is_ok()
            },
            |saw_item_0| {
                streamed.push(saw_item_0);
                let _ = seen_tx.send(());
            },
        );
        assert_eq!(streamed, [true, true], "the sink saw item 0 too late");

        // Later items finish first, yet reach the sink in input order.
        let items: Vec<u64> = (0..24).collect();
        for workers in [1, 2, 8] {
            let mut got = Vec::new();
            parallel_fold(
                &items,
                workers,
                |&i| {
                    std::thread::sleep(Duration::from_micros(200 * (24 - i)));
                    i
                },
                |i| got.push(i),
            );
            assert_eq!(got, items, "{workers} workers");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let items: Vec<u32> = (0..8).collect();
            let caught = std::panic::catch_unwind(|| {
                parallel_fold(
                    &items,
                    2,
                    |&i| if i == 3 { panic!("item 3 failed") } else { i },
                    |_| {},
                )
            });
            let payload = caught.err().and_then(|p| p.downcast_ref::<&str>().copied());
            let _ = done_tx.send(payload);
        });
        let payload = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the fold must return, not hang");
        assert_eq!(payload, Some("item 3 failed"));
    }

    #[test]
    fn worker_stats_account_for_every_job() {
        let items: Vec<u64> = (0..37).collect();
        let mut out = Vec::new();
        let stats = parallel_fold(&items, 4, |&x| x + 1, |r| out.push(r));
        assert_eq!(out.len(), 37);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 37);
        // Serial path reports itself as one worker.
        let serial = parallel_fold(&items, 1, |&x| x + 1, |_| {});
        assert_eq!(serial.len(), 1);
        assert_eq!(serial[0].jobs, 37);
    }

    #[test]
    fn metrics_snapshots_are_identical_at_any_worker_count() {
        let specs: Vec<CellSpec> = (0..2)
            .map(|_| CellSpec {
                cfg: quick_cfg(7),
                n_runs: 2,
                make_abr: fixed_factory(),
            })
            .collect();
        let (cells1, m1, _) = run_cells_parallel_metrics("unit-test", &specs, 1, true);
        let (cells4, m4, _) = run_cells_parallel_metrics("unit-test", &specs, 4, true);
        assert_eq!(format!("{cells1:?}"), format!("{cells4:?}"));
        let (m1, m4) = (m1.unwrap(), m4.unwrap());
        assert_eq!(m1, m4, "per-cell metrics must not depend on worker count");
        // The sessions really were instrumented.
        assert!(m1[0].counters.get("video.frames_rendered").copied().unwrap_or(0) > 0);
        assert!(m1[0].counters.contains_key("sched.ctx_switches"));
        assert!(m1[0].histograms.get("video.decode_us").unwrap().count > 0);
    }

    #[test]
    fn telemetry_does_not_change_results() {
        let specs: Vec<CellSpec> = vec![CellSpec {
            cfg: quick_cfg(3),
            n_runs: 2,
            make_abr: fixed_factory(),
        }];
        let plain = run_cells_parallel("unit-test", &specs, 1);
        let (with_metrics, _, _) = run_cells_parallel_metrics("unit-test", &specs, 1, true);
        assert_eq!(
            format!("{plain:?}"),
            format!("{with_metrics:?}"),
            "recording metrics must never perturb the simulation"
        );
    }

    #[test]
    fn distinct_cells_get_distinct_seeds() {
        let specs: Vec<CellSpec> =
            (0..2).map(|_| CellSpec { cfg: quick_cfg(7), n_runs: 2, make_abr: fixed_factory() }).collect();
        let results = run_cells_parallel("unit-test", &specs, 2);
        let all_seeds: std::collections::BTreeSet<u64> = results
            .iter()
            .flat_map(|c| c.runs.iter().map(|r| r.seed))
            .collect();
        assert_eq!(all_seeds.len(), 4, "4 sessions must get 4 distinct seeds");
    }
}
