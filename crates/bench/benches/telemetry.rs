//! Telemetry overhead: how much does the metrics registry cost a session?
//!
//! Runs the same 12 s Nexus 5 Moderate-pressure session three ways — no
//! telemetry handle at all (`run_session`, the path every golden-output
//! run takes), a recording registry, and the causal attribution engine
//! switched on — then writes the measured overheads to
//! `BENCH_telemetry.json` at the workspace root. Attribution, whose fact
//! harvesting and blame matching run on every step of a pressured
//! session, must stay in the noise (< 2%). Attribution *disabled* is the
//! baseline itself (`SessionConfig::attribution` defaults to `false` and
//! every engine entry point is behind one branch), so its zero overhead
//! is enforced stronger than a timing bound: the committed golden
//! `results/*.json` must stay byte-identical.

use criterion::{black_box, Criterion};
use mvqoe_abr::FixedAbr;
use mvqoe_core::{run_session, run_session_with, PressureMode, SessionConfig};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_metrics::Telemetry;
use mvqoe_video::{Fps, Genre, Manifest, Resolution};
use std::time::Instant;

fn cfg() -> SessionConfig {
    let mut cfg = SessionConfig::paper_default(
        DeviceProfile::nexus5(),
        PressureMode::Synthetic(TrimLevel::Moderate),
        42,
    );
    cfg.video_secs = 12.0;
    cfg
}

fn abr() -> FixedAbr {
    let m = Manifest::full_ladder(Genre::Travel, 12.0);
    FixedAbr::new(m.representation(Resolution::R480p, Fps::F60).unwrap())
}

#[derive(Clone, Copy)]
enum Mode {
    Off,
    Enabled,
    Attribution,
}

fn run_once(mode: Mode) {
    let mut cfg = cfg();
    let mut abr = abr();
    match mode {
        Mode::Off => {
            black_box(run_session(&cfg, &mut abr));
        }
        Mode::Enabled => {
            let mut t = Telemetry::enabled();
            black_box(run_session_with(&cfg, &mut abr, Some(&mut t)));
        }
        Mode::Attribution => {
            cfg.attribution = true;
            black_box(run_session(&cfg, &mut abr));
        }
    }
}

/// Sessions per timing sample: one session is a few milliseconds of wall
/// clock, far too little to time individually, so each sample runs a batch.
const BATCH: usize = 25;

fn time_batch(mode: Mode) -> f64 {
    let start = Instant::now();
    for _ in 0..BATCH {
        run_once(mode);
    }
    start.elapsed().as_secs_f64()
}

/// Best-of-`samples` batch wall-clock for each mode, with the modes
/// interleaved round-robin so slow drift (frequency scaling, co-tenants)
/// hits all three equally. The minimum is the noise-robust statistic here:
/// interference only ever adds time.
fn time_modes(samples: usize) -> [f64; 3] {
    let mut best = [f64::INFINITY; 3];
    for _ in 0..samples {
        for (i, mode) in [Mode::Off, Mode::Enabled, Mode::Attribution]
            .into_iter()
            .enumerate()
        {
            best[i] = best[i].min(time_batch(mode));
        }
    }
    best
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 1 } else { 15 };

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(samples);
    g.bench_function("session_telemetry_off", |b| b.iter(|| run_once(Mode::Off)));
    g.bench_function("session_telemetry_enabled", |b| {
        b.iter(|| run_once(Mode::Enabled))
    });
    g.bench_function("session_attribution_enabled", |b| {
        b.iter(|| run_once(Mode::Attribution))
    });
    g.finish();

    run_once(Mode::Off); // warm-up
    let [off_secs, enabled_secs, attribution_secs] = time_modes(samples);
    let pct = |s: f64| (s / off_secs.max(1e-9) - 1.0) * 100.0;
    let enabled_overhead_pct = pct(enabled_secs);
    let attribution_overhead_pct = pct(attribution_secs);
    println!(
        "telemetry overhead vs off ({off_secs:.4} s): enabled {enabled_overhead_pct:+.2}%, \
         attribution {attribution_overhead_pct:+.2}%"
    );

    if !test_mode {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
        let json = format!(
            "{{\n  \"bench\": \"session_telemetry_overhead\",\n  \"off_secs\": {off_secs:.4},\n  \
             \"enabled_secs\": {enabled_secs:.4},\n  \
             \"attribution_secs\": {attribution_secs:.4},\n  \
             \"enabled_overhead_pct\": {enabled_overhead_pct:.2},\n  \
             \"attribution_overhead_pct\": {attribution_overhead_pct:.2}\n}}\n"
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("[json] {path}"),
            Err(e) => eprintln!("[json] failed to write {path}: {e}"),
        }
    }

    // Regression guard: the attribution engine rides the hot per-step path
    // (fact harvesting, stall open/close, drop counting), so it must stay
    // inside a < 2% budget. Skipped in --test mode, where debug codegen
    // makes wall-clock meaningless.
    if !test_mode && attribution_overhead_pct > 2.0 {
        eprintln!(
            "REGRESSION: attribution engine adds {attribution_overhead_pct:.2}% to a pressured \
             session (limit 2%)"
        );
        std::process::exit(1);
    }
}
