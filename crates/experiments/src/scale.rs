//! Experiment scale: full (paper protocol) vs quick (smoke pass).

use serde::{Deserialize, Serialize};

/// How big to run an experiment.
///
/// Construct with [`Scale::full`] / [`Scale::quick`] and chain builder
/// methods for overrides — `Scale::full().jobs(8).metrics(true)` — so new
/// knobs never ripple through struct literals again.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scale {
    /// Repetitions per cell (the paper uses 5).
    pub runs: u64,
    /// Video length in seconds.
    pub video_secs: f64,
    /// Fleet size for the §3 study.
    pub fleet_users: u32,
    /// Median fleet observation hours.
    pub fleet_hours: f64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the parallel experiment engine. Never affects
    /// results — sessions are seeded by grid coordinates — only wall-clock.
    pub jobs: usize,
    /// When set, export a Chrome/Perfetto trace of one showcase session per
    /// experiment into this directory (`--perfetto <dir>`). Observation
    /// only: the data JSONs stay byte-identical.
    pub perfetto: Option<String>,
    /// Collect cross-layer metrics snapshots per cell and write them to a
    /// `results/<name>.metrics.json` sidecar (`--metrics`). Observation
    /// only: the data JSONs stay byte-identical.
    pub metrics: bool,
    /// Disable the event-driven time skip and step every 1 ms tick
    /// (`--dense-ticks`). The outputs are byte-identical either way; this
    /// debug switch exists for bisecting suspected skip regressions.
    pub dense_ticks: bool,
    /// Fail the run (exit non-zero) if peak RSS exceeds this many MiB
    /// (`--rss-limit-mib N`) — the guard rail for memory-bounded
    /// million-user fleet runs.
    pub rss_limit_mib: Option<u64>,
    /// Record hot-path self-profiling spans (`--profile`) and write the
    /// per-phase call/nanosecond totals into the `.meta.json` sidecar.
    /// Observation only: the data JSONs stay byte-identical.
    pub profile: bool,
}

impl Scale {
    /// The paper's protocol.
    pub fn full() -> Scale {
        Scale {
            runs: 5,
            video_secs: 120.0,
            fleet_users: 80,
            fleet_hours: 100.0,
            seed: 42,
            jobs: 1,
            perfetto: None,
            metrics: false,
            dense_ticks: false,
            rss_limit_mib: None,
            profile: false,
        }
    }

    /// A reduced pass for CI / smoke testing.
    pub fn quick() -> Scale {
        Scale {
            runs: 2,
            video_secs: 48.0,
            fleet_users: 14,
            fleet_hours: 16.0,
            seed: 42,
            jobs: 1,
            perfetto: None,
            metrics: false,
            dense_ticks: false,
            rss_limit_mib: None,
            profile: false,
        }
    }

    /// Override repetitions per cell.
    pub fn runs(mut self, runs: u64) -> Scale {
        self.runs = runs;
        self
    }

    /// Override video length in seconds.
    pub fn video_secs(mut self, secs: f64) -> Scale {
        self.video_secs = secs;
        self
    }

    /// Override the fleet size, rescaling the per-user observation median
    /// so the total simulated user-hours budget stays what it was — a
    /// million-device fleet watches each device briefly instead of taking
    /// a thousand times the wall-clock. At the base fleet size this is the
    /// identity. Call [`Scale::fleet_hours`] *after* this to pin the
    /// median explicitly instead.
    pub fn fleet_users(mut self, users: u32) -> Scale {
        if users != self.fleet_users && users > 0 {
            self.fleet_hours = self.fleet_hours * self.fleet_users as f64 / users as f64;
        }
        self.fleet_users = users;
        self
    }

    /// Override the median fleet observation hours.
    pub fn fleet_hours(mut self, hours: f64) -> Scale {
        self.fleet_hours = hours;
        self
    }

    /// Override the base seed.
    pub fn seed(mut self, seed: u64) -> Scale {
        self.seed = seed;
        self
    }

    /// Override the worker-thread count (`0` means one per available CPU).
    pub fn jobs(mut self, jobs: usize) -> Scale {
        self.jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            jobs
        };
        self
    }

    /// Set the Perfetto showcase-trace output directory.
    pub fn perfetto(mut self, dir: Option<String>) -> Scale {
        self.perfetto = dir;
        self
    }

    /// Toggle per-cell metrics snapshot collection.
    pub fn metrics(mut self, on: bool) -> Scale {
        self.metrics = on;
        self
    }

    /// Toggle dense 1 ms stepping (disables the event-driven skip).
    pub fn dense_ticks(mut self, on: bool) -> Scale {
        self.dense_ticks = on;
        self
    }

    /// Set the peak-RSS guard rail in MiB.
    pub fn rss_limit_mib(mut self, limit: Option<u64>) -> Scale {
        self.rss_limit_mib = limit;
        self
    }

    /// Toggle hot-path self-profiling (per-phase totals in the sidecar).
    pub fn profile(mut self, on: bool) -> Scale {
        self.profile = on;
        self
    }

    /// Parse from CLI args: `--quick` selects the reduced pass, `--jobs N`
    /// (or `--jobs=N` / `-j N`) sets the worker-pool size (`--jobs 0` means
    /// one worker per available CPU), `--fleet-users N` scales the §3
    /// fleet (rescaling per-user hours to keep the user-hours budget
    /// unless `--fleet-hours H` pins them), `--rss-limit-mib N` makes the
    /// run fail if peak RSS exceeds the bound, `--perfetto <dir>` exports
    /// a showcase trace per experiment, `--metrics` writes per-cell
    /// metrics snapshot sidecars, `--dense-ticks` disables the
    /// event-driven time skip (byte-identical outputs, for bisecting), and
    /// `--profile` records hot-path self-profiling totals into the
    /// `.meta.json` sidecar.
    pub fn from_args(args: &[String]) -> Scale {
        let mut scale = if args.iter().any(|a| a == "--quick" || a == "-q") {
            Scale::quick()
        } else {
            Scale::full()
        };
        if let Some(users) = parse_value(args, &["--fleet-users"]) {
            scale = scale.fleet_users(users);
        }
        if let Some(hours) = parse_value(args, &["--fleet-hours"]) {
            scale = scale.fleet_hours(hours);
        }
        scale.rss_limit_mib = parse_value(args, &["--rss-limit-mib"]);
        if let Some(jobs) = parse_value(args, &["--jobs", "-j"]) {
            scale = scale.jobs(jobs);
        }
        scale.perfetto = parse_flag_value(args, "--perfetto");
        scale.metrics = args.iter().any(|a| a == "--metrics");
        scale.dense_ticks = args.iter().any(|a| a == "--dense-ticks");
        scale.profile = args.iter().any(|a| a == "--profile");
        mvqoe_core::set_dense_ticks(scale.dense_ticks);
        scale
    }

    /// Whether any observability output was requested.
    pub fn telemetry_requested(&self) -> bool {
        self.perfetto.is_some() || self.metrics
    }
}

/// Extract the string value of `--name <v>` / `--name=<v>` (last wins).
fn parse_flag_value(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    let mut out: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == name {
            out = iter.peek().map(|v| v.to_string());
        } else if let Some(value) = arg.strip_prefix(&prefix) {
            out = Some(value.to_string());
        }
    }
    out
}

/// Extract a parsed value for any spelling in `names` (`--flag N` or
/// `--flag=N`; the last occurrence of any spelling wins).
fn parse_value<T: std::str::FromStr>(args: &[String], names: &[&str]) -> Option<T> {
    let mut out: Option<T> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        for name in names {
            if arg == name {
                if let Some(v) = iter.peek().and_then(|v| v.parse().ok()) {
                    out = Some(v);
                }
            } else if let Some(raw) = arg.strip_prefix(&format!("{name}=")) {
                if let Ok(v) = raw.parse() {
                    out = Some(v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn full_matches_paper_protocol() {
        let s = Scale::full();
        assert_eq!(s.runs, 5);
        assert_eq!(s.fleet_users, 80);
    }

    #[test]
    fn quick_is_smaller() {
        let f = Scale::full();
        let q = Scale::quick();
        assert!(q.runs < f.runs);
        assert!(q.fleet_users < f.fleet_users);
        assert!(q.video_secs < f.video_secs);
    }

    #[test]
    fn jobs_flag_parses_in_every_form() {
        let jobs = |args: &[&str]| parse_value::<usize>(&to_args(args), &["--jobs", "-j"]);
        assert_eq!(jobs(&["exp", "--jobs", "4"]), Some(4));
        assert_eq!(jobs(&["exp", "--jobs=8", "--quick"]), Some(8));
        assert_eq!(jobs(&["exp", "-j", "2"]), Some(2));
        assert_eq!(jobs(&["exp", "--quick"]), None);
        // Later flags win.
        assert_eq!(jobs(&["exp", "-j", "2", "--jobs", "6"]), Some(6));
        // --jobs 0 expands to the CPU count (at least one) via the builder.
        assert!(Scale::quick().jobs(0).jobs >= 1);
    }

    #[test]
    fn perfetto_flag_parses_in_every_form() {
        assert_eq!(
            parse_flag_value(&to_args(&["exp", "--perfetto", "out"]), "--perfetto"),
            Some("out".into())
        );
        assert_eq!(
            parse_flag_value(&to_args(&["exp", "--perfetto=traces", "--quick"]), "--perfetto"),
            Some("traces".into())
        );
        assert_eq!(parse_flag_value(&to_args(&["exp", "--quick"]), "--perfetto"), None);
    }

    #[test]
    fn fleet_flags_parse() {
        let args = to_args(&["exp", "--fleet-users", "200000", "--rss-limit-mib=512"]);
        assert_eq!(parse_value::<u32>(&args, &["--fleet-users"]), Some(200_000));
        assert_eq!(parse_value::<u64>(&args, &["--rss-limit-mib"]), Some(512));
        assert_eq!(parse_value::<f64>(&args, &["--fleet-hours"]), None);
    }

    #[test]
    fn builder_chains_and_keeps_user_hours_budget() {
        let s = Scale::full().jobs(3).metrics(true).seed(7);
        assert_eq!((s.jobs, s.metrics, s.seed), (3, true, 7));

        // Scaling the fleet divides the per-user hours so users × hours is
        // constant; the default size is the identity.
        let base = Scale::full();
        let budget = base.fleet_users as f64 * base.fleet_hours;
        let scaled = Scale::full().fleet_users(1_000_000);
        assert_eq!(scaled.fleet_users, 1_000_000);
        let new_budget = scaled.fleet_users as f64 * scaled.fleet_hours;
        assert!((new_budget - budget).abs() < 1e-6);
        assert_eq!(Scale::full().fleet_users(80).fleet_hours, 100.0);

        // An explicit fleet_hours override afterwards pins the median.
        let pinned = Scale::full().fleet_users(1000).fleet_hours(2.0);
        assert_eq!(pinned.fleet_hours, 2.0);
    }

    #[test]
    fn dense_ticks_is_off_by_default() {
        // The event-driven skip is the production path; dense stepping is
        // opt-in (`--dense-ticks`) and must never be a default.
        assert!(!Scale::full().dense_ticks);
        assert!(!Scale::quick().dense_ticks);
    }

    #[test]
    fn telemetry_is_off_by_default() {
        let s = Scale::full();
        assert!(!s.telemetry_requested());
        assert!(Scale::quick().metrics(true).telemetry_requested());
        assert!(Scale::quick()
            .perfetto(Some("out".into()))
            .telemetry_requested());
    }
}
