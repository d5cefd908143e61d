//! The paper grid: the §4.3 controlled protocol as `exp-fig9`, `exp-fig11`
//! and `exp-6p` run it — {Nokia 1, Nexus 5, Nexus 6P} × {Normal,
//! Moderate, Critical} × {480p30, 720p60, 1080p60}, Firefox, the travel
//! video, 120 s of playback, a fixed ABR, observability off. One pass runs
//! the 27 cells through `run_cells_parallel`, one worker per core.
//!
//! The grid rides inside the `fleet-million` workload instead of being a
//! timed workload of its own: timed passes of this bare session loop swung
//! with the host's speed states by more than the largest bound allows (see
//! the README). Every `fleet-million` run checks [`CHECK_PASSES`] passes at
//! its end, and its traced run takes the session loop's per-layer metrics
//! from one traced pass.

use crate::host;
use crate::report::Layers;
use crate::spans::{Ctx, Tracer};
use crate::stats::median;
use mvqoe_abr::FixedAbr;
use mvqoe_core::pressure::PressureDriver;
use mvqoe_core::qoe::RunDigest;
use mvqoe_core::{
    parallel_map, run_cells_parallel, CellSpec, PressureMode, Session, SessionConfig,
    SessionOutcome,
};
use mvqoe_device::{DeviceProfile, Machine};
use mvqoe_kernel::TrimLevel;
use mvqoe_sim::{derive_seed, SimDuration, SimRng};
use mvqoe_video::{Fps, Genre, Manifest, Representation, Resolution};
use std::sync::Mutex;
use std::time::Instant;

/// Experiment id the session seeds derive from.
pub const EXPERIMENT: &str = "mvbench/paper-grid";
const VIDEO_SECS: f64 = 120.0;
/// Passes the end-of-run check runs.
pub const CHECK_PASSES: u64 = 4;

fn devices() -> [DeviceProfile; 3] {
    [
        DeviceProfile::nokia1(),
        DeviceProfile::nexus5(),
        DeviceProfile::nexus6p(),
    ]
}

/// Normal, Moderate, Critical.
pub const PRESSURES: [PressureMode; 3] = [
    PressureMode::None,
    PressureMode::Synthetic(TrimLevel::Moderate),
    PressureMode::Synthetic(TrimLevel::Critical),
];

const RENDITIONS: [(Resolution, Fps); 3] = [
    (Resolution::R480p, Fps::F30),
    (Resolution::R720p, Fps::F60),
    (Resolution::R1080p, Fps::F60),
];

/// One cell of a pass: `cfg.seed` is the pass's base seed.
#[derive(Clone)]
pub struct Cell {
    /// Session configuration.
    pub cfg: SessionConfig,
    /// The fixed representation streamed.
    pub rep: Representation,
    /// Index into [`devices`].
    pub device: usize,
    /// Index into [`PRESSURES`].
    pub pressure: usize,
}

/// The 27 cells of pass `pass` under run seed `seed`.
pub fn cells(seed: u64, pass: u64) -> Vec<Cell> {
    let base = derive_seed(seed, EXPERIMENT, pass, 0);
    let manifest = Manifest::full_ladder(Genre::Travel, VIDEO_SECS);
    let mut out = Vec::with_capacity(27);
    for (d, device) in devices().into_iter().enumerate() {
        for (p, &pressure) in PRESSURES.iter().enumerate() {
            for &(res, fps) in &RENDITIONS {
                let mut cfg = SessionConfig::paper_default(device.clone(), pressure, base);
                cfg.video_secs = VIDEO_SECS;
                let rep = manifest
                    .representation(res, fps)
                    .expect("ladder covers the grid");
                out.push(Cell {
                    cfg,
                    rep,
                    device: d,
                    pressure: p,
                });
            }
        }
    }
    out
}

/// The frame-accounting fault: a session that did not crash should have
/// rendered + dropped exactly video seconds × encoded frame rate.
pub fn frames_miscounted(d: &RunDigest, rep: Representation) -> bool {
    !d.crashed && d.frames_total != (VIDEO_SECS * f64::from(rep.fps.value())).round() as u64
}

/// Per-operation check: no session at Normal pressure crashes (Tables 2/3
/// have 0% crash rows at Normal).
pub fn check_normal_survives(cells: &[Cell], digests: &[RunDigest]) -> Result<(), String> {
    for (c, d) in cells.iter().zip(digests) {
        if c.pressure == 0 && d.crashed {
            return Err(format!(
                "{} crashed at Normal pressure (seed {})",
                c.cfg.device.name, d.seed
            ));
        }
    }
    Ok(())
}

/// Percentage points by which a device's Normal drop rate may exceed its
/// Moderate one. The Nexus 6P's two rates are both under 1% and their
/// order flips with the seed: Normal was higher on 4 of 61 seeds tried, by
/// up to 0.37 points.
pub const NORMAL_SLACK_PCT: f64 = 0.5;

/// Per-device running sums of drop percent (crash = 100) per pressure.
#[derive(Debug, Default, Clone)]
pub struct DropTally {
    sum: [[f64; 3]; 3],
    n: [[u64; 3]; 3],
}

impl DropTally {
    /// Add one pass.
    pub fn add(&mut self, cells: &[Cell], digests: &[RunDigest]) {
        for (c, d) in cells.iter().zip(digests) {
            self.sum[c.device][c.pressure] += d.drop_pct;
            self.n[c.device][c.pressure] += 1;
        }
    }

    /// The §4.3 ordering of mean drop rates on every device: Normal ≤
    /// Moderate (within [`NORMAL_SLACK_PCT`]) ≤ Critical.
    pub fn check_ordered(&self) -> Result<(), String> {
        for (d, (sum, count)) in self.sum.iter().zip(&self.n).enumerate() {
            let mean = |p: usize| sum[p] / count[p].max(1) as f64;
            let (n, m, c) = (mean(0), mean(1), mean(2));
            if count.contains(&0) || m > c || n > m + NORMAL_SLACK_PCT {
                return Err(format!("device {d}: drop means Normal {n:.3} Moderate {m:.3} Critical {c:.3} not ordered"));
            }
        }
        Ok(())
    }
}

fn digest_of(out: &SessionOutcome, seed: u64) -> RunDigest {
    let crashed = out.stats.crashed();
    RunDigest {
        seed,
        drop_pct: if crashed { 100.0 } else { out.stats.drop_pct() },
        crashed,
        mean_pss_mib: out.stats.mean_pss_mib(),
        mean_fps: out.stats.mean_fps(),
        frames_total: out.stats.frames_total(),
    }
}

/// Layer counts summed over the probe pass's sessions.
#[derive(Default)]
struct Counts {
    vm: [u64; 6],
    ctx_switches: u64,
    reads: u64,
    writes: u64,
    frames: u64,
    dropped: u64,
    segments: u64,
    crashed: u64,
    miscounted: u64,
}

impl Counts {
    fn add(&mut self, out: &SessionOutcome, d: &RunDigest, rep: Representation) {
        let vm = out.machine.mm.vmstat();
        for (slot, v) in self.vm.iter_mut().zip([
            vm.scanned(),
            vm.stolen(),
            vm.pgfault_zram,
            vm.pgfault_major,
            vm.direct_reclaims,
            vm.lmkd_kills,
        ]) {
            *slot += v;
        }
        self.ctx_switches += out.machine.sched.ctx_switches();
        self.reads += out.machine.disk.stats().reads;
        self.writes += out.machine.disk.stats().writes;
        self.frames += out.stats.frames_rendered;
        self.dropped += out.stats.frames_dropped;
        self.segments += out.stats.segments_downloaded;
        self.crashed += u64::from(d.crashed);
        self.miscounted += u64::from(frames_miscounted(d, rep));
    }
}

/// Host µs per simulated second of 1 s slices, per trim level in force.
type SliceRates = [Vec<f64>; 4];

/// Drive one cell's session through its public entry points, one span per
/// call, in 1-simulated-second slices.
fn traced_session(
    t: &Tracer,
    ctx: Ctx,
    cell: &Cell,
    index: u64,
    rates: &Mutex<SliceRates>,
) -> (SessionOutcome, RunDigest) {
    let mut cfg = cell.cfg.clone();
    cfg.seed = derive_seed(cell.cfg.seed, EXPERIMENT, index, 0);
    let seed = cfg.seed;
    let mut abr = FixedAbr::new(cell.rep);
    let mut s = t.span(ctx, "core.start", |_| Session::start(cfg));
    let mut local: SliceRates = Default::default();
    let out = t.span(ctx, "core.playback", |c| {
        loop {
            let trim = s.machine().mm.trim_level().severity();
            let from = s.now();
            let limit = from + SimDuration::from_secs(1);
            let started = Instant::now();
            let ended = t.span(c, "core.run_slice", |_| s.run_until(&mut abr, limit));
            let sim = s.now().saturating_since(from).as_secs_f64();
            if sim > 0.0 {
                local[trim].push(started.elapsed().as_secs_f64() * 1e6 / sim);
            }
            if ended || sim == 0.0 {
                break;
            }
        }
        t.span(c, "core.finish", |_| s.finish(None))
    });
    let mut all = rates.lock().expect("slice rates lock");
    for (dst, src) in all.iter_mut().zip(local) {
        dst.extend(src);
    }
    let d = digest_of(&out, seed);
    (out, d)
}

/// One pass through the program's parallel engine.
pub fn pass(seed: u64, pass: u64, workers: usize) -> (Vec<Cell>, Vec<RunDigest>) {
    let cells = cells(seed, pass);
    let specs: Vec<CellSpec<'static>> = cells
        .iter()
        .map(|c| {
            let rep = c.rep;
            CellSpec::new(c.cfg.clone(), 1, move || Box::new(FixedAbr::new(rep)))
        })
        .collect();
    let digests = run_cells_parallel(EXPERIMENT, &specs, workers)
        .into_iter()
        .map(|r| r.runs[0])
        .collect();
    (cells, digests)
}

/// The end-of-run check: no Normal session crashes in any of
/// [`CHECK_PASSES`] passes, per device their mean drop rate is ordered by
/// pressure, and pass 0 run again reproduces its digests exactly (results
/// do not depend on worker count or timing).
pub fn check(seed: u64, workers: usize) -> Result<(), String> {
    let mut tally = DropTally::default();
    let mut first = None;
    for p in 0..CHECK_PASSES {
        let (cells, digests) = pass(seed, p, workers);
        check_normal_survives(&cells, &digests)?;
        tally.add(&cells, &digests);
        first.get_or_insert(digests);
    }
    tally.check_ordered()?;
    let (_, again) = pass(seed, 0, workers);
    check_same_digests(first.as_ref().expect("at least one pass"), &again)
}

/// Traced run: pass 0 driven call by call, one span per call under `ctx`.
/// Its counts are a function of the seed alone.
pub fn probe_layers(seed: u64, workers: usize, t: &Tracer, ctx: Ctx, layers: &mut Layers) {
    let cells = cells(seed, 0);
    let rates: Mutex<SliceRates> = Mutex::default();
    let indices: Vec<usize> = (0..cells.len()).collect();
    let outs = t.span(ctx, "op", |c| {
        parallel_map(&indices, workers, |&i| {
            host::track_wait(|| traced_session(t, c, &cells[i], i as u64, &rates))
        })
    });
    let mut counts = Counts::default();
    for (c, (out, d)) in cells.iter().zip(&outs) {
        counts.add(out, d, c.rep);
    }
    drop(outs);
    // Machine construction and pressure induction, called apart on the
    // probe's configurations.
    let mut machine_ms = Vec::new();
    let mut pressure_ms = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let rng = SimRng::new(derive_seed(c.cfg.seed, EXPERIMENT, i as u64, 0));
        let started = Instant::now();
        let mut m = Machine::new(c.cfg.device.clone(), &mut rng.split("machine"));
        machine_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        std::hint::black_box(PressureDriver::apply(c.cfg.pressure, &mut m, &rng, false));
        pressure_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    let med = |name: &str| median(&t.durations_ms(name));
    layers.set("core.start_ms", med("core.start"));
    layers.set("device.machine_new_ms", median(&machine_ms));
    layers.set("workload.pressure_apply_ms", median(&pressure_ms));
    layers.set("core.playback_ms", med("core.playback"));
    let rates = rates.into_inner().expect("slice rates lock");
    for (name, r) in [
        "core.host_us_per_sim_s.normal",
        "core.host_us_per_sim_s.moderate",
        "core.host_us_per_sim_s.low",
        "core.host_us_per_sim_s.critical",
    ]
    .into_iter()
    .zip(rates.iter())
    {
        layers.set(name, median(r));
    }
    for (name, v) in [
        "kernel.pgscan",
        "kernel.pgsteal",
        "kernel.zram_faults",
        "kernel.major_faults",
        "kernel.direct_reclaims",
        "kernel.lmkd_kills",
    ]
    .into_iter()
    .zip(counts.vm)
    {
        layers.set(name, v as f64);
    }
    layers.set("sched.ctx_switches", counts.ctx_switches as f64);
    layers.set("storage.reads", counts.reads as f64);
    layers.set("storage.writes", counts.writes as f64);
    layers.set("video.frames", counts.frames as f64);
    layers.set("video.frames_dropped", counts.dropped as f64);
    layers.set("video.segments", counts.segments as f64);
    layers.set("core.sessions_crashed", counts.crashed as f64);
    layers.set("video.frames_miscounted", counts.miscounted as f64);
}

/// Two runs of one pass must agree to the bit.
pub fn check_same_digests(a: &[RunDigest], b: &[RunDigest]) -> Result<(), String> {
    let ja = serde_json::to_string(a).map_err(|e| e.to_string())?;
    let jb = serde_json::to_string(b).map_err(|e| e.to_string())?;
    if ja == jb {
        Ok(())
    } else {
        Err("repeating pass 0 changed its digests".into())
    }
}
