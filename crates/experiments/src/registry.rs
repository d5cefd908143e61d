//! The experiment registry: one name → runner table for every figure and
//! table in the paper's evaluation, and the `mvqoe` command line over it.
//!
//! Each experiment is an [`Experiment`] entry whose runner runs at a
//! [`Scale`], prints its report (banners, paper anchors, telemetry
//! showcase) and returns its artifact's JSON text, serialized straight
//! from the typed result. [`cli`]
//! dispatches on its first argument: `mvqoe <experiment>` runs one entry,
//! `mvqoe all` runs every entry marked for the full pass, `mvqoe list`
//! prints the table, and `mvqoe lint <file>...` checks written artifacts.
//! Every run shares the same flags (`--quick`, `--jobs`, `--fleet-users`,
//! `--fleet-hours`, `--rss-limit-mib`, `--perfetto`, `--metrics`,
//! `--dense-ticks`, `--profile`, `--list`) and the same artifact plumbing
//! (`results/<artifact>.json` + `.meta.json` / `.metrics.json` sidecars).
//!
//! An entry's `check` parses its artifact back into the struct that wrote
//! it and runs that struct's `validate()`, where the artifact's rules live;
//! [`lint_file`] finds a data file's check by its artifact stem.

use crate::scale::Scale;
use crate::{
    abr_ablation, arena, blame, counterfactual, fig10, fig8, fleet_figs, framedrops, organic_check,
    os_ablation, report, runner, serve, session_figs, table1, telemetry, trace_exp,
};
use mvqoe_device::DeviceProfile;
use mvqoe_metrics::selfprof;
use mvqoe_video::PlayerKind;
use serde::Deserialize;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// An artifact check: parse the JSON text and run the artifact's rules,
/// returning a one-line summary or the first broken rule.
pub type Check = fn(&str) -> Result<String, String>;

/// One experiment the repository can regenerate.
pub struct Experiment {
    /// Registry / CLI name (`mvqoe <name>` and the `mvqoe list` table).
    pub name: &'static str,
    /// One-line description of what the experiment reproduces.
    pub description: &'static str,
    /// Stem of the data artifact, `results/<artifact>.json`.
    pub artifact: &'static str,
    /// Whether `mvqoe all` includes this experiment (Table 1 digests the
    /// others' outputs, so it runs standalone only).
    pub in_all: bool,
    /// The artifact's check; `None` when the artifact has no rules.
    pub check: Option<Check>,
    /// Run at a scale, print the report, and return the artifact's JSON
    /// text.
    pub run: fn(&Scale) -> String,
}

/// Print an experiment's result and return its artifact text.
macro_rules! printed {
    ($result:expr) => {{
        let result = $result;
        result.print();
        report::pretty_json(&result)
    }};
}

/// Every registered experiment, in `mvqoe all` execution order.
pub static ALL: &[Experiment] = &[
    Experiment {
        name: "fleet",
        description: "Figs. 1-6: the §3 user study (streamed fleet run)",
        artifact: "fleet_figs1-6",
        in_all: true,
        check: None,
        run: |scale| printed!(fleet_figs::run(scale)),
    },
    Experiment {
        name: "fig8",
        description: "Fig. 8: client PSS vs resolution x frame rate",
        artifact: "fig8",
        in_all: true,
        check: None,
        run: |scale| {
            let f = fig8::run(scale);
            f.print();
            telemetry::showcase("fig8", &DeviceProfile::nexus5(), scale);
            report::pretty_json(&f)
        },
    },
    Experiment {
        name: "fig9",
        description: "Fig. 9 + Table 2: frame drops and crash rates on the Nokia 1",
        artifact: "fig9_table2",
        in_all: true,
        check: None,
        run: |scale| {
            let grid = framedrops::nokia1_grid(scale);
            report::banner("Fig 9", "frame drops on the Nokia 1 (mean ± 95% CI)");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            println!("paper anchors: 1080p30 = 19% Normal / 53% Moderate / ~100% Critical");
            report::banner("Table 2", "crash rates on the Nokia 1");
            grid.print_crash_table(
                &[(30, "480p"), (30, "720p"), (60, "480p"), (60, "720p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!("paper: Normal 0/0/0/0; Moderate 40/100/40/100; Critical 100/100/100/100");
            telemetry::showcase("fig9_table2", &DeviceProfile::nokia1(), scale);
            report::pretty_json(&grid)
        },
    },
    Experiment {
        name: "fig10",
        description: "Fig. 10: the DMOS survey",
        artifact: "fig10",
        in_all: true,
        check: None,
        run: |scale| printed!(fig10::run(scale)),
    },
    Experiment {
        name: "fig11",
        description: "Fig. 11 + Table 3: frame drops and crash rates on the Nexus 5",
        artifact: "fig11_table3",
        in_all: true,
        check: None,
        run: |scale| {
            let grid = framedrops::nexus5_grid(scale);
            report::banner("Fig 11", "frame drops on the Nexus 5 (mean ± 95% CI)");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            println!("paper anchors: no drops ≤480p30; 17% at 1080p60 under Critical; up to 25%");
            report::banner("Table 3", "crash rates on the Nexus 5");
            grid.print_crash_table(
                &[(30, "720p"), (30, "1080p"), (60, "480p"), (60, "720p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!("paper: Normal 0/0/0/0; Moderate 10/100/0/100; Critical 100/100/70/100");
            telemetry::showcase("fig11_table3", &DeviceProfile::nexus5(), scale);
            report::pretty_json(&grid)
        },
    },
    Experiment {
        name: "nexus6p",
        description: "§4.3: the Nexus 6P summary grid",
        artifact: "nexus6p",
        in_all: true,
        check: None,
        run: |scale| {
            let grid = framedrops::nexus6p_grid(scale);
            report::banner("§4.3", "frame drops on the Nexus 6P");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            println!("paper: drops only at ≥720p; highest ≈9% at 1080p60");
            telemetry::showcase("nexus6p", &DeviceProfile::nexus6p(), scale);
            report::pretty_json(&grid)
        },
    },
    Experiment {
        name: "fig12",
        description: "Fig. 12: the five genres on the Nexus 5",
        artifact: "fig12_genres",
        in_all: true,
        check: None,
        run: |scale| {
            let grids = framedrops::genre_grids(scale);
            for grid in &grids {
                let genre = grid.cells.first().map(|c| c.genre.clone()).unwrap_or_default();
                report::banner("Fig 12", &format!("genre: {genre} (Nexus 5)"));
                grid.print_drops(&["Normal", "Moderate", "Critical"]);
            }
            println!(
                "paper: same trend across genres — low drops at 30 FPS, significant at 60 FPS, \
                 rising with pressure/resolution"
            );
            report::pretty_json(&grids)
        },
    },
    Experiment {
        name: "table4",
        description: "Tables 4/5 + Fig. 13: the §5 trace analysis",
        artifact: "table4_table5_fig13",
        in_all: true,
        check: None,
        run: |scale| {
            let t = trace_exp::run(scale);
            t.print();
            telemetry::showcase("table4_table5_fig13", &DeviceProfile::nokia1(), scale);
            report::pretty_json(&t)
        },
    },
    Experiment {
        name: "fig14",
        description: "Fig. 14: FPS + lmkd CPU in a crashing session",
        artifact: "fig14",
        in_all: true,
        check: None,
        run: |scale| printed!(session_figs::fig14(scale)),
    },
    Experiment {
        name: "fig15",
        description: "Fig. 15: FPS + processes killed under organic pressure",
        artifact: "fig15",
        in_all: true,
        check: None,
        run: |scale| printed!(session_figs::fig15(scale)),
    },
    Experiment {
        name: "fig16",
        description: "Fig. 16: encoded frame-rate sweep across resolutions",
        artifact: "fig16",
        in_all: true,
        check: None,
        run: |scale| printed!(session_figs::fig16(scale)),
    },
    Experiment {
        name: "fig17",
        description: "Fig. 17: mid-session frame-rate switching under pressure",
        artifact: "fig17",
        in_all: true,
        check: None,
        run: |scale| printed!(session_figs::fig17(scale)),
    },
    Experiment {
        name: "fig18",
        description: "Fig. 18: ExoPlayer on the Nexus 5 (Appendix B.1)",
        artifact: "fig18_exoplayer",
        in_all: true,
        check: None,
        run: |scale| {
            let grid = framedrops::appendix_grid(PlayerKind::ExoPlayer, scale);
            report::banner("Fig 18", "ExoPlayer on the Nexus 5");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            grid.print_crash_table(
                &[(30, "720p"), (30, "1080p"), (60, "720p"), (60, "1080p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!(
                "paper: far fewer drops than Firefox, but still significant crashes at high pressure"
            );
            report::pretty_json(&grid)
        },
    },
    Experiment {
        name: "fig19",
        description: "Fig. 19: Chrome on the Nexus 5 (Appendix B.2)",
        artifact: "fig19_chrome",
        in_all: true,
        check: None,
        run: |scale| {
            let grid = framedrops::appendix_grid(PlayerKind::Chrome, scale);
            report::banner("Fig 19", "Chrome on the Nexus 5");
            grid.print_drops(&["Normal", "Moderate", "Critical"]);
            grid.print_crash_table(
                &[(30, "720p"), (30, "1080p"), (60, "720p"), (60, "1080p")],
                &["Normal", "Moderate", "Critical"],
            );
            println!("paper: fewer drops than Firefox (smaller footprint), but crashes persist");
            report::pretty_json(&grid)
        },
    },
    Experiment {
        name: "organic",
        description: "§4.3: the organic-pressure spot check",
        artifact: "organic_check",
        in_all: true,
        check: None,
        run: |scale| printed!(organic_check::run(scale)),
    },
    Experiment {
        name: "abr-ablation",
        description: "§6/§7: memory-aware ABR vs network-only baselines",
        artifact: "abr_ablation",
        in_all: true,
        check: None,
        run: |scale| printed!(abr_ablation::run(scale)),
    },
    Experiment {
        name: "os-ablation",
        description: "§7 ablations: CPU resources and mmcqd scheduling class",
        artifact: "os_ablation",
        in_all: true,
        check: None,
        run: |scale| printed!(os_ablation::run(scale)),
    },
    Experiment {
        name: "counterfactual",
        description: "paired policy counterfactuals forked from one snapshotted prefix",
        artifact: "counterfactual",
        in_all: false,
        check: Some(|json| parse::<counterfactual::Counterfactual>(json)?.validate()),
        run: |scale| printed!(counterfactual::run(scale)),
    },
    Experiment {
        name: "arena",
        description: "joint network + memory pressure: six ABR policies raced per regime",
        artifact: "arena",
        in_all: false,
        check: Some(|json| parse::<arena::Arena>(json)?.validate()),
        run: |scale| printed!(arena::run(scale)),
    },
    Experiment {
        name: "blame",
        description: "causal attribution: every rebuffer second and dropped frame blamed on its cause",
        artifact: "attribution",
        in_all: false,
        check: Some(|json| parse::<blame::Blame>(json)?.validate()),
        run: |scale| printed!(blame::run(scale)),
    },
    Experiment {
        name: "serve",
        description: "live telemetry service: ingest the fleet over TCP, scrape, verify vs batch",
        artifact: "service",
        in_all: false,
        check: Some(|json| parse::<serve::ServeResults>(json)?.validate()),
        run: |scale| printed!(serve::run(scale)),
    },
    Experiment {
        name: "table1",
        description: "Table 1: the key-insight digest",
        artifact: "table1",
        in_all: false,
        check: None,
        run: |scale| printed!(table1::run(scale)),
    },
];

/// Look an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

/// Run one experiment at `scale` and write `<artifact>.json` plus its
/// sidecars: `<artifact>.meta.json` (wall clock, job count, per-worker
/// utilization and, under `--profile`, the self-profiling totals) and,
/// when the runner stashed per-cell snapshots (`--metrics`),
/// `<artifact>.metrics.json`. Only the sidecars vary run to run.
pub fn run_one(exp: &Experiment, scale: &Scale) {
    if scale.profile {
        selfprof::reset();
        selfprof::set_enabled(true);
    }
    let start = Instant::now();
    report::write_json(exp.artifact, &(exp.run)(scale));
    let stash = runner::drain_stash();
    let meta = report::RunMeta {
        jobs: scale.jobs,
        wall_secs: start.elapsed().as_secs_f64(),
        runs_per_cell: scale.runs,
        seed: scale.seed,
        workers: stash.workers,
        profile: scale.profile.then(selfprof::snapshot),
    };
    report::write_json(&format!("{}.meta", exp.artifact), &report::pretty_json(&meta));
    if !stash.metrics.is_empty() {
        let metrics = report::pretty_json(&stash.metrics);
        report::write_json(&format!("{}.metrics", exp.artifact), &metrics);
    }
}

/// Print the registry as a name → artifact table (`mvqoe list`).
pub fn print_list() {
    let rows: Vec<Vec<String>> = ALL
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                format!("results/{}.json", e.artifact),
                if e.in_all { "yes" } else { "no" }.to_string(),
                e.description.to_string(),
            ]
        })
        .collect();
    report::print_table(&["name", "artifact", "in all", "reproduces"], &rows);
}

/// Fail the run if it exceeded the `--rss-limit-mib` guard rail; report
/// peak RSS when a limit was requested.
fn enforce_rss_limit(scale: &Scale) -> ExitCode {
    let Some(limit) = scale.rss_limit_mib else {
        return ExitCode::SUCCESS;
    };
    match mvqoe_core::peak_rss_mib() {
        Some(peak) if peak > limit as f64 => {
            eprintln!("peak RSS {peak:.0} MiB exceeded the --rss-limit-mib {limit} MiB bound");
            return ExitCode::FAILURE;
        }
        Some(peak) => println!("peak RSS {peak:.0} MiB within the {limit} MiB bound"),
        None => eprintln!("--rss-limit-mib set but /proc/self/status is unavailable; not enforced"),
    }
    ExitCode::SUCCESS
}

fn parse<T: Deserialize>(json: &str) -> Result<T, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// Check one written artifact. `*.meta.json`, `*.metrics.json` and
/// `*.trace.json` files are told apart by suffix; any other `<stem>.json`
/// must be a registered experiment's artifact and runs that entry's
/// `check`. Returns the report line; the error names the file.
pub fn lint_file(path: &Path, require_profile: bool) -> Result<String, String> {
    let shown = path.display();
    let fail = |why: String| format!("{shown}: {why}");
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let json = std::fs::read_to_string(path).map_err(|e| fail(format!("unreadable: {e}")))?;
    let checked = if name.ends_with(".meta.json") {
        parse::<report::RunMeta>(&json).and_then(|meta| meta.validate(require_profile))
    } else if name.ends_with(".metrics.json") {
        parse(&json).and_then(|sidecar| mvqoe_metrics::snapshot::validate_sidecar(&sidecar))
    } else if name.ends_with(".trace.json") {
        parse(&json).and_then(|trace| mvqoe_trace::validate_chrome_trace(&trace))
    } else {
        let stem = name.strip_suffix(".json").unwrap_or(name);
        let exp = ALL
            .iter()
            .find(|e| e.artifact == stem)
            .ok_or_else(|| fail(format!("{name:?} is not a registered artifact or sidecar")))?;
        let Some(check) = exp.check else {
            return Ok(format!(
                "[--] {shown}: `{}` has no rules to check",
                exp.name
            ));
        };
        check(&json)
    };
    checked
        .map(|summary| format!("[ok] {shown}: {summary}"))
        .map_err(fail)
}

const USAGE: &str = "usage: mvqoe <experiment>|all [--quick] [--jobs N] [--fleet-users N] \
                     [--fleet-hours H] [--rss-limit-mib N] [--perfetto DIR] [--metrics] \
                     [--profile] [--dense-ticks]
       mvqoe list
       mvqoe lint [--require-profile] <file>...";

fn usage_error(why: &str) -> ExitCode {
    let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
    eprintln!("{why}\n{USAGE}\nexperiments: {}", names.join(", "));
    ExitCode::from(2)
}

/// `mvqoe lint [--require-profile] <file>...`: check each file with
/// [`lint_file`], stopping at the first failure.
fn lint_cli(args: &[String]) -> ExitCode {
    let (flags, paths): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with("--"));
    if let Some(flag) = flags.iter().find(|f| f.as_str() != "--require-profile") {
        return usage_error(&format!("unknown lint flag {flag}"));
    }
    if paths.is_empty() {
        return usage_error("lint needs at least one file");
    }
    for path in paths {
        match lint_file(Path::new(path), !flags.is_empty()) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("[lint] {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `mvqoe` command line (`args` without the program name): dispatch on
/// the first argument to one experiment, `all`, `list` or `lint`. Exits 2
/// on a usage error and 1 when a check or the RSS guard fails.
pub fn cli(args: &[String]) -> ExitCode {
    let command = args.first().map(String::as_str).unwrap_or("");
    if command == "list" || args.iter().any(|a| a == "--list") {
        print_list();
        return ExitCode::SUCCESS;
    }
    if command == "lint" {
        return lint_cli(&args[1..]);
    }
    if command.is_empty() {
        return usage_error("no experiment given");
    }
    let selected: Vec<&Experiment> = if command == "all" {
        ALL.iter().filter(|e| e.in_all).collect()
    } else if let Some(exp) = find(command) {
        vec![exp]
    } else {
        return usage_error(&format!("unknown experiment {command:?}"));
    };
    let scale = match Scale::from_args(args) {
        Ok(scale) => scale,
        Err(why) => return usage_error(&why),
    };
    mvqoe_core::set_dense_ticks(scale.dense_ticks);
    let t0 = Instant::now();
    for exp in selected {
        run_one(exp, &scale);
    }
    if command == "all" {
        println!(
            "\nall experiments regenerated in {:.1}s with {} worker thread(s)",
            t0.elapsed().as_secs_f64(),
            scale.jobs
        );
    }
    enforce_rss_limit(&scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_artifacts_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        let mut artifacts: Vec<&str> = ALL.iter().map(|e| e.artifact).collect();
        names.sort_unstable();
        artifacts.sort_unstable();
        assert_eq!(names.len(), 22);
        names.dedup();
        artifacts.dedup();
        assert_eq!(names.len(), 22, "registry names must be unique");
        assert_eq!(artifacts.len(), 22, "artifact stems must be unique");
    }

    #[test]
    fn lookup_finds_every_experiment() {
        for exp in ALL {
            let found = find(exp.name).expect("registered name resolves");
            assert_eq!(found.artifact, exp.artifact);
        }
        assert!(find("not-an-experiment").is_none());
    }

    #[test]
    fn all_keeps_its_execution_order() {
        // The full pass keeps its historical order; Table 1
        // digests the others' artifacts, so it stays out of the pass.
        let order: Vec<&str> = ALL.iter().filter(|e| e.in_all).map(|e| e.name).collect();
        assert_eq!(
            order,
            [
                "fleet", "fig8", "fig9", "fig10", "fig11", "nexus6p", "fig12", "table4",
                "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "organic",
                "abr-ablation", "os-ablation",
            ]
        );
        assert!(!find("table1").unwrap().in_all);
    }
}
