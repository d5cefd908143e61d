//! The per-tick hot path: dense vs event-driven stepping cost.
//!
//! Measures ns per simulated 1 ms tick in four regimes — idle and loaded,
//! dense and skipped — plus the wall-clock for a full Fig. 8 grid with the
//! skip on and off, and writes `BENCH_hotpath.json` at the workspace root.
//! Acts as its own regression guard: on an idle machine the event-driven
//! engine must cover ticks at least 3× faster than dense stepping, the
//! whole Fig. 8 grid must regenerate at least 1.3× faster, and the loaded
//! dense tick — the path the skip can never rescue — must stay under
//! 63 ns (the pre-optimization baseline; the lazy scheduler accounting
//! and running-set tick hold it well below); if any guard trips the bench
//! exits non-zero.

use criterion::{black_box, Criterion};
use mvqoe_abr::FixedAbr;
use mvqoe_core::{run_cells_parallel, CellSpec, PressureMode, SessionConfig};
use mvqoe_device::{DeviceProfile, Machine, StepOutputs};
use mvqoe_kernel::{Pages, ProcKind};
use mvqoe_sched::SchedClass;
use mvqoe_sim::{SimDuration, SimRng};
use mvqoe_video::{Fps, Genre, Manifest, Resolution};
use std::time::Instant;

/// A machine with recording off, as the bulk experiment grid runs it.
fn machine() -> Machine {
    let mut rng = SimRng::new(9);
    let mut m = Machine::new(DeviceProfile::nexus5(), &mut rng);
    m.sched.set_record_events(false);
    m
}

/// ns per simulated tick for an *idle* machine (only daemon cadences run).
fn idle_ns_per_tick(dense: bool, secs: u64) -> f64 {
    let mut m = machine();
    let warm = SimDuration::from_secs(1);
    let span = SimDuration::from_secs(secs);
    if dense {
        m.run_idle_dense(warm);
        let start = Instant::now();
        m.run_idle_dense(span);
        start.elapsed().as_nanos() as f64 / (secs * 1000) as f64
    } else {
        m.run_idle(warm);
        let start = Instant::now();
        m.run_idle(span);
        start.elapsed().as_nanos() as f64 / (secs * 1000) as f64
    }
}

/// ns per tick for a *loaded* machine (a thread with unbounded CPU work);
/// the skip can never engage, so this measures pure per-step overhead.
fn loaded_ns_per_tick(skip_enabled: bool, ticks: u64) -> f64 {
    let mut m = machine();
    let (pid, _) = m.add_process(
        "hog",
        ProcKind::Foreground,
        Pages::from_mib(64),
        Pages::from_mib(32),
        Pages::from_mib(16),
        0.45,
    );
    let tid = m.add_thread(pid, "hog", SchedClass::NORMAL);
    m.push_work(tid, 1e12, 0); // never runs out during the measurement
    let mut out = StepOutputs::default();
    for _ in 0..1000 {
        m.step_into(&mut out); // warm every buffer
    }
    let end = m.now() + SimDuration::from_millis(ticks);
    let start = Instant::now();
    while m.now() < end {
        if skip_enabled {
            m.advance_until(end); // provably refuses: the hog wants CPU
        }
        m.step_into(&mut out);
    }
    start.elapsed().as_nanos() as f64 / ticks as f64
}

/// Wall-clock seconds for the ten Fig. 8 sessions (Nexus 5, no pressure,
/// 100 s of video, one repetition, one worker), configured as `mvqoe fig8
/// --quick` runs them, stepping densely or with the event-driven skip.
fn fig8_secs(dense: bool) -> f64 {
    let video_secs = 100.0;
    let manifest = Manifest::full_ladder(Genre::Travel, video_secs);
    let mut specs = Vec::new();
    for fps in [Fps::F30, Fps::F60] {
        for res in [
            Resolution::R240p,
            Resolution::R360p,
            Resolution::R480p,
            Resolution::R720p,
            Resolution::R1080p,
        ] {
            let mut cfg =
                SessionConfig::paper_default(DeviceProfile::nexus5(), PressureMode::None, 42);
            cfg.video_secs = video_secs;
            cfg.dense_ticks = dense;
            let rep = manifest
                .representation(res, fps)
                .expect("ladder covers every Fig. 8 cell");
            specs.push(CellSpec::new(cfg, 1, move || Box::new(FixedAbr::new(rep))));
        }
    }
    let start = Instant::now();
    black_box(run_cells_parallel("fig8", &specs, 1));
    start.elapsed().as_secs_f64()
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let idle_secs = if test_mode { 2 } else { 20 };
    let loaded_ticks = if test_mode { 2_000 } else { 50_000 };

    // Criterion-shaped reporting for the per-step paths.
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    g.bench_function("idle_step_dense", |b| {
        let mut m = machine();
        m.run_idle_dense(SimDuration::from_secs(1));
        b.iter(|| m.run_idle_dense(SimDuration::from_millis(100)))
    });
    g.bench_function("idle_step_skipped", |b| {
        let mut m = machine();
        m.run_idle(SimDuration::from_secs(1));
        b.iter(|| m.run_idle(SimDuration::from_millis(100)))
    });
    g.finish();

    let dense_idle = idle_ns_per_tick(true, idle_secs);
    let skip_idle = idle_ns_per_tick(false, idle_secs);
    let dense_loaded = loaded_ns_per_tick(false, loaded_ticks);
    let skip_loaded = loaded_ns_per_tick(true, loaded_ticks);
    let idle_speedup = dense_idle / skip_idle.max(1e-9);
    let loaded_overhead = skip_loaded / dense_loaded.max(1e-9);

    let fig8_dense = fig8_secs(true);
    let fig8_skip = fig8_secs(false);
    let fig8_speedup = fig8_dense / fig8_skip.max(1e-9);

    println!("idle:   dense {dense_idle:.0} ns/tick, skipped {skip_idle:.0} ns/tick -> {idle_speedup:.1}x");
    println!("loaded: dense {dense_loaded:.0} ns/tick, skipped {skip_loaded:.0} ns/tick -> {loaded_overhead:.2}x overhead");
    println!("fig8:   dense {fig8_dense:.2} s, skipped {fig8_skip:.2} s -> {fig8_speedup:.2}x");

    if !test_mode {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
        let json = format!(
            "{{\n  \"bench\": \"hotpath_dense_vs_skipped\",\n  \
             \"idle_dense_ns_per_tick\": {dense_idle:.1},\n  \
             \"idle_skipped_ns_per_tick\": {skip_idle:.1},\n  \
             \"idle_speedup\": {idle_speedup:.2},\n  \
             \"loaded_dense_ns_per_tick\": {dense_loaded:.1},\n  \
             \"loaded_skipped_ns_per_tick\": {skip_loaded:.1},\n  \
             \"loaded_overhead\": {loaded_overhead:.3},\n  \
             \"fig8_dense_secs\": {fig8_dense:.3},\n  \
             \"fig8_skipped_secs\": {fig8_skip:.3},\n  \
             \"fig8_speedup\": {fig8_speedup:.3}\n}}\n"
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("[json] {path}"),
            Err(e) => eprintln!("[json] failed to write {path}: {e}"),
        }
    }

    // Regression guards: the whole point of the event-driven engine.
    let mut failed = false;
    if idle_speedup < 3.0 {
        eprintln!("REGRESSION: idle skip speedup {idle_speedup:.2}x < 3x");
        failed = true;
    }
    if !test_mode && fig8_speedup < 1.3 {
        eprintln!("REGRESSION: fig8 grid skip speedup {fig8_speedup:.2}x < 1.3x");
        failed = true;
    }
    if !test_mode && dense_loaded >= 63.0 {
        eprintln!(
            "REGRESSION: loaded dense tick {dense_loaded:.1} ns at or above the 63 ns \
             pre-optimization baseline"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
