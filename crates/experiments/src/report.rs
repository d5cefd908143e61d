//! Output helpers: aligned tables on stdout, JSON in `results/`.

use mvqoe_core::WorkerStat;
use mvqoe_metrics::selfprof::{self, PhaseProfile};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Print a header banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Render rows as an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(line.trim_end().len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Print an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(headers, rows));
}

/// Location of the JSON results directory (workspace `results/`).
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    // Walk up to the workspace root (where Cargo.toml with [workspace] is).
    for _ in 0..4 {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            break;
        }
        if let Some(parent) = dir.parent() {
            dir = parent.to_path_buf();
        }
    }
    dir.join("results")
}

/// The pretty-printed JSON text of an artifact or sidecar.
pub fn pretty_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("the JSON writer cannot fail")
}

/// Write an experiment's machine-readable result, `json` text, as
/// `results/<name>.json`.
pub fn write_json(name: &str, json: &str) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, json).is_ok() {
        println!("[json] {}", path.display());
    }
}

/// Run metadata written next to an experiment's data JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeta {
    /// Worker threads used by the parallel engine.
    pub jobs: usize,
    /// Wall-clock seconds from timer start to the write.
    pub wall_secs: f64,
    /// Repetitions per cell at this scale.
    pub runs_per_cell: u64,
    /// Base seed.
    pub seed: u64,
    /// Per-worker jobs completed and busy seconds for this experiment's
    /// engine invocations.
    pub workers: Vec<WorkerStat>,
    /// Hot-path self-profiling totals (`--profile` runs only): one entry
    /// per instrumented phase, in `selfprof::PHASES` order. `None` when
    /// profiling was off.
    pub profile: Option<Vec<PhaseProfile>>,
}

impl RunMeta {
    /// Check the sidecar: positive `wall_secs`, at least one job, and, when
    /// the run was profiled (or `require_profile` asks for it), a profile
    /// listing every instrumented phase once, in order, with at least one
    /// recorded call. Returns a one-line summary.
    pub fn validate(&self, require_profile: bool) -> Result<String, String> {
        if self.wall_secs <= 0.0 {
            return Err(format!("wall_secs {} is not positive", self.wall_secs));
        }
        if self.jobs < 1 {
            return Err("jobs must be at least 1".into());
        }
        let Some(profile) = &self.profile else {
            return if require_profile {
                Err("profile block required but missing/null".into())
            } else {
                Ok("sidecar valid (unprofiled run)".into())
            };
        };
        let expected: Vec<&str> = selfprof::PHASES.iter().map(|p| p.name()).collect();
        let got: Vec<&str> = profile.iter().map(|p| p.phase.as_str()).collect();
        if got != expected {
            return Err(format!("profile phases {got:?} != expected {expected:?}"));
        }
        let calls: u64 = profile.iter().map(|p| p.calls).sum();
        if calls == 0 {
            return Err("profile recorded zero calls across all phases".into());
        }
        Ok(format!("profile block valid ({calls} span(s) recorded)"))
    }
}

/// Format a mean ± CI pair.
pub fn pm(mean: f64, ci: f64) -> String {
    format!("{mean:.1} ± {ci:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("longer"));
        // Right-aligned: the short name is padded.
        assert!(lines[2].starts_with("     a"));
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(12.345, 0.67), "12.3 ± 0.7");
    }
}
