//! Frame-drop and crash-rate grids: Figs. 9/11/12, Tables 2/3, the
//! Nexus 6P summary, and Appendix B's ExoPlayer/Chrome runs.

use crate::report;
use crate::runner;
use crate::scale::Scale;
use mvqoe_abr::FixedAbr;
use mvqoe_core::{CellSpec, PressureMode, SessionConfig};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Genre, Manifest, PlayerKind, Resolution};
use serde::{Deserialize, Serialize};

/// The three pressure states of the controlled experiments (§4.3).
pub const PRESSURES: [PressureMode; 3] = [
    PressureMode::None,
    PressureMode::Synthetic(TrimLevel::Moderate),
    PressureMode::Synthetic(TrimLevel::Critical),
];

/// One grid cell result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridCell {
    /// Resolution label.
    pub resolution: String,
    /// Encoded FPS.
    pub fps: u32,
    /// Pressure label.
    pub pressure: String,
    /// Genre.
    pub genre: String,
    /// Mean drop percent (crashed runs count as 100).
    pub drop_mean: f64,
    /// 95% CI half-width on the drop percent.
    pub drop_ci95: f64,
    /// Crash rate in percent.
    pub crash_pct: f64,
    /// Mean PSS (MiB) while alive.
    pub pss_mean: f64,
}

/// A full drop/crash grid for one device/player/genre.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DropGrid {
    /// Device name.
    pub device: String,
    /// Player used.
    pub player: String,
    /// All cells.
    pub cells: Vec<GridCell>,
}

/// The experiment id under which a device/player/genre grid derives its
/// session seeds. Stable across callers so `mvqoe fig9` and `mvqoe all` write
/// identical artifacts.
pub fn grid_experiment_id(device: &DeviceProfile, player: PlayerKind, genre: Genre) -> String {
    format!("framedrops/{}/{player}/{genre}", device.name)
}

/// Run an explicit list of `(resolution, fps, pressure)` cells of one
/// device/player/genre grid through the parallel engine, in input order.
pub fn run_cells(
    device: &DeviceProfile,
    player: PlayerKind,
    genre: Genre,
    cells: &[(Resolution, Fps, PressureMode)],
    experiment: &str,
    scale: &Scale,
) -> Vec<GridCell> {
    let specs: Vec<CellSpec> = cells
        .iter()
        .map(|&(res, fps, pressure)| {
            let mut cfg = SessionConfig::paper_default(device.clone(), pressure, scale.seed);
            cfg.player = player;
            cfg.genre = genre;
            cfg.video_secs = scale.video_secs;
            let manifest = Manifest::full_ladder(genre, cfg.video_secs);
            let rep = manifest
                .representation(res, fps)
                .expect("ladder covers all cells");
            CellSpec::new(cfg, scale.runs, move || Box::new(FixedAbr::new(rep)))
        })
        .collect();
    let results = runner::run_cells(experiment, &specs, scale);
    cells
        .iter()
        .zip(results)
        .map(|(&(res, fps, pressure), cell)| GridCell {
            resolution: res.to_string(),
            fps: fps.value(),
            pressure: pressure.label(),
            genre: genre.to_string(),
            drop_mean: cell.drop_pct.mean,
            drop_ci95: cell.drop_pct.ci95,
            crash_pct: cell.crash_pct,
            pss_mean: cell.pss_mib.mean,
        })
        .collect()
}

/// Run the drop/crash grid for a device.
pub fn run_grid(
    device: &DeviceProfile,
    player: PlayerKind,
    genre: Genre,
    resolutions: &[Resolution],
    fps_list: &[Fps],
    pressures: &[PressureMode],
    scale: &Scale,
) -> DropGrid {
    let mut coords = Vec::new();
    for &fps in fps_list {
        for &res in resolutions {
            for &pressure in pressures {
                coords.push((res, fps, pressure));
            }
        }
    }
    let experiment = grid_experiment_id(device, player, genre);
    let cells = run_cells(device, player, genre, &coords, &experiment, scale);
    DropGrid {
        device: device.name.clone(),
        player: player.to_string(),
        cells,
    }
}

/// Run one (device, player, genre, rep, pressure) cell on its own. The cell
/// is seeded as a single-cell grid named by its full coordinates, so the
/// result does not depend on what else the caller runs.
pub fn run_one_cell(
    device: &DeviceProfile,
    player: PlayerKind,
    genre: Genre,
    res: Resolution,
    fps: Fps,
    pressure: PressureMode,
    scale: &Scale,
) -> GridCell {
    let experiment = format!(
        "{}/{res}@{}/{}",
        grid_experiment_id(device, player, genre),
        fps.value(),
        pressure.label()
    );
    let mut cells = run_cells(device, player, genre, &[(res, fps, pressure)], &experiment, scale);
    cells.remove(0)
}

impl DropGrid {
    /// Print in the paper's Fig. 9/11 layout: rows = res × fps, columns =
    /// pressure states.
    pub fn print_drops(&self, pressures: &[&str]) {
        let mut headers = vec!["res", "fps"];
        headers.extend(pressures.iter().map(|p| *p));
        let mut rows = Vec::new();
        let mut keys: Vec<(String, u32)> = self
            .cells
            .iter()
            .map(|c| (c.resolution.clone(), c.fps))
            .collect();
        keys.dedup();
        for (res, fps) in keys {
            let mut row = vec![res.clone(), fps.to_string()];
            for &p in pressures {
                if let Some(c) = self
                    .cells
                    .iter()
                    .find(|c| c.resolution == res && c.fps == fps && c.pressure == p)
                {
                    row.push(report::pm(c.drop_mean, c.drop_ci95));
                }
            }
            rows.push(row);
        }
        report::print_table(&headers, &rows);
    }

    /// Print in the paper's Table 2/3 layout: crash rate per pressure state
    /// for selected (fps, res) columns.
    pub fn print_crash_table(&self, columns: &[(u32, &str)], pressures: &[&str]) {
        let mut headers: Vec<String> = vec!["Crash rate".into()];
        headers.extend(columns.iter().map(|(f, r)| format!("{f}FPS, {r}")));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut rows = Vec::new();
        for &p in pressures {
            let mut row = vec![format!("{p} (%)")];
            for &(fps, res) in columns {
                let val = self
                    .cells
                    .iter()
                    .find(|c| c.fps == fps && c.resolution == res && c.pressure == p)
                    .map(|c| format!("{:.0}", c.crash_pct))
                    .unwrap_or_else(|| "-".into());
                row.push(val);
            }
            rows.push(row);
        }
        report::print_table(&header_refs, &rows);
    }

    /// Look up one cell.
    pub fn cell(&self, res: &str, fps: u32, pressure: &str) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.resolution == res && c.fps == fps && c.pressure == pressure)
    }
}

/// Fig. 9 + Table 2: the Nokia 1 grid.
pub fn nokia1_grid(scale: &Scale) -> DropGrid {
    run_grid(
        &DeviceProfile::nokia1(),
        PlayerKind::Firefox,
        Genre::Travel,
        &[
            Resolution::R240p,
            Resolution::R360p,
            Resolution::R480p,
            Resolution::R720p,
            Resolution::R1080p,
        ],
        &[Fps::F30, Fps::F60],
        &PRESSURES,
        scale,
    )
}

/// Fig. 11 + Table 3: the Nexus 5 grid.
pub fn nexus5_grid(scale: &Scale) -> DropGrid {
    run_grid(
        &DeviceProfile::nexus5(),
        PlayerKind::Firefox,
        Genre::Travel,
        &[
            Resolution::R240p,
            Resolution::R360p,
            Resolution::R480p,
            Resolution::R720p,
            Resolution::R1080p,
        ],
        &[Fps::F30, Fps::F60],
        &PRESSURES,
        scale,
    )
}

/// §4.3's Nexus 6P summary grid.
pub fn nexus6p_grid(scale: &Scale) -> DropGrid {
    run_grid(
        &DeviceProfile::nexus6p(),
        PlayerKind::Firefox,
        Genre::Travel,
        &[Resolution::R480p, Resolution::R720p, Resolution::R1080p],
        &[Fps::F30, Fps::F60],
        &PRESSURES,
        scale,
    )
}

/// Fig. 12: the five genres on the Nexus 5.
pub fn genre_grids(scale: &Scale) -> Vec<DropGrid> {
    Genre::ALL
        .iter()
        .map(|&genre| {
            run_grid(
                &DeviceProfile::nexus5(),
                PlayerKind::Firefox,
                genre,
                &[Resolution::R480p, Resolution::R720p, Resolution::R1080p],
                &[Fps::F30, Fps::F60],
                &PRESSURES,
                scale,
            )
        })
        .collect()
}

/// Figs. 18/19: ExoPlayer and Chrome on the Nexus 5.
pub fn appendix_grid(player: PlayerKind, scale: &Scale) -> DropGrid {
    run_grid(
        &DeviceProfile::nexus5(),
        player,
        Genre::Travel,
        &[Resolution::R480p, Resolution::R720p, Resolution::R1080p],
        &[Fps::F30, Fps::F60],
        &PRESSURES,
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale::quick()
            .runs(1)
            .video_secs(16.0)
            .fleet_users(2)
            .fleet_hours(2.0)
    }

    #[test]
    fn grid_covers_all_cells() {
        let grid = run_grid(
            &DeviceProfile::nexus5(),
            PlayerKind::Firefox,
            Genre::Travel,
            &[Resolution::R480p],
            &[Fps::F30, Fps::F60],
            &[PressureMode::None],
            &tiny_scale(),
        );
        assert_eq!(grid.cells.len(), 2);
        assert!(grid.cell("480p", 30, "Normal").is_some());
        assert!(grid.cell("480p", 60, "Normal").is_some());
        assert!(grid.cell("480p", 30, "Critical").is_none());
    }

    #[test]
    fn normal_480p_is_clean_on_nexus5() {
        let cell = run_one_cell(
            &DeviceProfile::nexus5(),
            PlayerKind::Firefox,
            Genre::Travel,
            Resolution::R480p,
            Fps::F30,
            PressureMode::None,
            &tiny_scale(),
        );
        assert!(cell.drop_mean < 3.0, "{}", cell.drop_mean);
        assert_eq!(cell.crash_pct, 0.0);
        assert!(cell.pss_mean > 100.0);
    }
}
