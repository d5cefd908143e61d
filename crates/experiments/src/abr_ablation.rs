//! §6/§7 ablation: memory-aware adaptation vs network-only baselines.
//!
//! The paper's "opportunities" section demonstrates that reacting to
//! `onTrimMemory` signals by reducing the encoded frame rate (then the
//! resolution) rescues playback. This ablation runs the full controller
//! ([`mvqoe_abr::MemoryAware`]) against fixed-quality and classic
//! network-driven ABR baselines on a pressured entry-level device, plus a
//! no-pressure control column.

use crate::report;
use crate::runner;
use crate::scale::Scale;
use mvqoe_abr::{Abr, Bola, BufferBased, FixedAbr, MemoryAware, ThroughputBased};
use mvqoe_core::{CellSpec, PressureMode, SessionConfig};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Genre, Manifest, Resolution};
use serde::{Deserialize, Serialize};

/// One algorithm's outcome under one pressure mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Pressure label.
    pub pressure: String,
    /// Mean drop percent (crashes = 100).
    pub drop_mean: f64,
    /// 95% CI.
    pub drop_ci95: f64,
    /// Crash rate %.
    pub crash_pct: f64,
    /// Mean rendered FPS.
    pub mean_fps: f64,
}

/// The ablation table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// Device used.
    pub device: String,
    /// All rows.
    pub rows: Vec<AblationRow>,
}

fn make_abr(name: &str, manifest: &Manifest) -> Box<dyn Abr> {
    let rep_1080p60 = manifest
        .representation(Resolution::R1080p, Fps::F60)
        .unwrap();
    match name {
        "fixed-1080p60" => Box::new(FixedAbr::new(rep_1080p60)),
        "buffer-based" => Box::new(BufferBased::new(Fps::F60)),
        "throughput" => Box::new(ThroughputBased::new(Fps::F60)),
        "bola" => Box::new(Bola::new(Fps::F60)),
        "memory-aware" => Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
        other => panic!("unknown algorithm {other}"),
    }
}

/// Algorithms compared.
pub const ALGORITHMS: [&str; 5] = [
    "fixed-1080p60",
    "buffer-based",
    "throughput",
    "bola",
    "memory-aware",
];

/// Run the ablation on a device: every (pressure, algorithm) cell is one
/// engine cell of the `abr-ablation/<device>` grid.
pub fn run_on(device: DeviceProfile, scale: &Scale) -> Ablation {
    let manifest = Manifest::full_ladder(Genre::Travel, scale.video_secs);
    let mut coords = Vec::new();
    for pressure in [
        PressureMode::None,
        PressureMode::Synthetic(TrimLevel::Moderate),
    ] {
        for &alg in &ALGORITHMS {
            coords.push((pressure, alg));
        }
    }
    let specs: Vec<CellSpec> = coords
        .iter()
        .map(|&(pressure, alg)| {
            let mut cfg = SessionConfig::paper_default(device.clone(), pressure, scale.seed);
            cfg.video_secs = scale.video_secs;
            let manifest = &manifest;
            CellSpec::new(cfg, scale.runs, move || make_abr(alg, manifest))
        })
        .collect();
    let experiment = format!("abr-ablation/{}", device.name);
    let cells = runner::run_cells(&experiment, &specs, scale);
    let rows = coords
        .iter()
        .zip(cells)
        .map(|(&(pressure, alg), cell)| {
            let mean_fps = mvqoe_sim::stats::mean(
                &cell.runs.iter().map(|r| r.mean_fps).collect::<Vec<_>>(),
            );
            AblationRow {
                algorithm: alg.into(),
                pressure: pressure.label(),
                drop_mean: cell.drop_pct.mean,
                drop_ci95: cell.drop_pct.ci95,
                crash_pct: cell.crash_pct,
                mean_fps,
            }
        })
        .collect();
    Ablation {
        device: device.name.clone(),
        rows,
    }
}

/// Run on the paper's entry-level device.
pub fn run(scale: &Scale) -> Ablation {
    run_on(DeviceProfile::nokia1(), scale)
}

impl Ablation {
    /// Print the table.
    pub fn print(&self) {
        report::banner(
            "§6/§7",
            &format!("ABR ablation on the {} (60 FPS-preferring policies)", self.device),
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.pressure.clone(),
                    r.algorithm.clone(),
                    report::pm(r.drop_mean, r.drop_ci95),
                    format!("{:.0}", r.crash_pct),
                    format!("{:.1}", r.mean_fps),
                ]
            })
            .collect();
        report::print_table(
            &["pressure", "algorithm", "drop %", "crash %", "rendered fps"],
            &rows,
        );
        println!("expected shape: under Moderate, memory-aware ≪ every network-only policy on drops/crashes");
    }
}
