//! The experiment core: streaming video on a simulated phone under memory
//! pressure.
//!
//! This crate assembles every substrate in the workspace into the paper's
//! experimental pipeline (§4.1, Fig. 7):
//!
//! 1. build a [`mvqoe_device::Machine`] for one of the paper's devices;
//! 2. apply memory pressure — synthetically with the MP Simulator until a
//!    target `onTrimMemory` level is reached, or organically by opening
//!    background apps ([`pressure`]);
//! 3. stream a DASH video through a simulated client (downloader →
//!    60 s playback buffer → decoder → vsync-paced renderer), with every
//!    CPU cost scheduled against the kernel daemons and every byte
//!    allocated through the memory manager ([`session`]);
//! 4. collect the paper's metrics — frame-drop rate, crash occurrence,
//!    PSS, instantaneous FPS, daemon interference statistics ([`qoe`]).
//!
//! Frame drops are *emergent*: they happen when the decode/render pipeline
//! misses vsync deadlines because of decode cost, zRAM swap-in CPU, major-
//! fault stalls behind `mmcqd`, or preemption — the causal chain §5 of the
//! paper establishes.

pub mod attribution;
pub mod parallel;
pub mod pressure;
pub mod qoe;
pub mod session;
pub mod snapshot;

pub use attribution::{
    AttributionEngine, AttributionReport, Cause, CauseRecord, Effect, NCAUSES,
};
pub use parallel::{
    parallel_fold, parallel_map, run_cell_at, run_cells_parallel,
    run_cells_parallel_metrics, run_rep_with, AbrFactory, CellSpec, WorkerStat,
};
pub use pressure::PressureMode;
pub use qoe::{aggregate_runs, run_cell, CellResult};
pub use session::{
    run_session, run_session_with, QoeReport, Session, SessionConfig, SessionOutcome,
};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION};

/// Peak resident-set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. The
/// memory-bounded fleet engine reports this and enforces
/// `--rss-limit-mib` against it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib / 1024.0);
        }
    }
    None
}
