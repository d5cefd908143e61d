//! The observability showcase: one fully traced session per experiment.
//!
//! When an experiment runs with `--perfetto <dir>` (and/or
//! `--metrics`), it tacks one extra session onto the run: the paper's §5
//! scenario (480p @ 60 FPS under Moderate synthetic pressure) on the
//! experiment's device, with full event recording on. The scheduler trace
//! is exported as Chrome trace-event JSON — load it at
//! <https://ui.perfetto.dev> to see the kswapd0/mmcqd/lmkd daemon tracks
//! interleaving with the video pipeline, the lmkd-kill and major-fault
//! instants, and the fps/lmkd-CPU/free-memory counter tracks.
//!
//! The showcase session is seeded in its own `telemetry/<name>` coordinate
//! space, so it never perturbs the experiment's own random streams, and the
//! experiment's data JSON stays byte-identical whether or not a trace is
//! exported.

use crate::runner;
use crate::scale::Scale;
use mvqoe_abr::FixedAbr;
use mvqoe_core::{run_session_with, PressureMode, SessionConfig};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_metrics::Telemetry;
use mvqoe_trace::write_chrome_trace;
use mvqoe_video::{Fps, Genre, Manifest, PlayerKind, Resolution};
use std::path::Path;

/// Cap the showcase session: traces grow linearly with video length, and a
/// minute of playback already shows every §5 phenomenon.
const SHOWCASE_MAX_SECS: f64 = 60.0;

/// Run the showcase session for experiment `name` on `device` and export
/// whatever `scale` asked for (`--perfetto` trace, `--metrics` snapshot).
/// A no-op unless telemetry was requested. The error names the trace path
/// that could not be created or written.
pub fn showcase(name: &str, device: &DeviceProfile, scale: &Scale) -> Result<(), String> {
    if !scale.telemetry_requested() {
        return Ok(());
    }
    let experiment = format!("telemetry/{name}");
    let mut cfg = SessionConfig::paper_default(
        device.clone(),
        PressureMode::Synthetic(TrimLevel::Moderate),
        runner::seed_at(scale, &experiment, 0, 0),
    );
    cfg.video_secs = scale.video_secs.min(SHOWCASE_MAX_SECS);
    cfg.record_trace = true;
    cfg.player = PlayerKind::Firefox;
    cfg.genre = Genre::Travel;
    let manifest = Manifest::full_ladder(cfg.genre, cfg.video_secs);
    let rep = manifest
        .representation(Resolution::R480p, Fps::F60)
        .expect("ladder covers 480p60");
    let mut abr = FixedAbr::new(rep);

    let mut telemetry = Telemetry::enabled();
    let out = run_session_with(&cfg, &mut abr, Some(&mut telemetry));

    if let Some(dir) = &scale.perfetto {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.trace.json"));
        write_chrome_trace(&out.machine.trace, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("[perfetto] {}", path.display());
    }
    if scale.metrics {
        runner::stash_snapshot(&experiment, telemetry.snapshot());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn showcase_is_a_noop_without_flags() {
        // Telemetry off: must return immediately (sub-second) without
        // touching the stash or the filesystem.
        let scale = Scale::quick();
        showcase("unit-test-noop", &DeviceProfile::nexus5(), &scale).unwrap();
    }

    #[test]
    fn showcase_names_the_trace_path_it_cannot_create() {
        let blocker =
            std::env::temp_dir().join(format!("mvqoe-showcase-blocked-{}", std::process::id()));
        std::fs::write(&blocker, "a regular file").unwrap();
        let dir = blocker.join("traces");
        let scale = Scale::quick()
            .video_secs(4.0)
            .perfetto(Some(dir.display().to_string()));
        let err = showcase("unit-test-blocked", &DeviceProfile::nexus5(), &scale).unwrap_err();
        assert!(err.contains(&dir.display().to_string()), "{err}");
        let _ = std::fs::remove_file(&blocker);
    }
}
