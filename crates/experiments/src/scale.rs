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

    /// Parse from CLI args (the first is the command and is skipped):
    /// `--quick` selects the reduced pass, `--jobs N` (or `--jobs=N` /
    /// `-j N`) sets the worker-pool size (`--jobs 0` means one worker per
    /// available CPU), `--fleet-users N` scales the §3 fleet (rescaling
    /// per-user hours to keep the user-hours budget unless `--fleet-hours H`
    /// pins them), `--rss-limit-mib N` makes the run fail if peak RSS
    /// exceeds the bound, `--perfetto <dir>` exports a showcase trace per
    /// experiment, `--metrics` writes per-cell metrics snapshot sidecars,
    /// and `--profile` records hot-path self-profiling totals into the
    /// `.meta.json` sidecar. Every value flag takes `--flag v` or
    /// `--flag=v`, and the last occurrence wins. An unknown argument, a
    /// missing value or one that does not parse is an error naming the
    /// argument.
    pub fn from_args(args: &[String]) -> Result<Scale, String> {
        let (mut quick, mut metrics, mut profile) = (false, false, false);
        let (mut users, mut hours, mut rss, mut jobs, mut perfetto) =
            (None, None, None, None, None);
        let mut rest = args.iter().skip(1);
        while let Some(arg) = rest.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, v)) if name.starts_with('-') => (name, Some(v)),
                _ => (arg.as_str(), None),
            };
            let flag = |on: &mut bool| {
                if inline.is_some() {
                    return Err(format!("{name} takes no value: {arg}"));
                }
                *on = true;
                Ok(())
            };
            match name {
                "--quick" | "-q" => flag(&mut quick)?,
                "--metrics" => flag(&mut metrics)?,
                "--profile" => flag(&mut profile)?,
                "--jobs" | "-j" => jobs = Some(parse(name, &value(name, inline, &mut rest)?)?),
                "--fleet-users" => users = Some(parse(name, &value(name, inline, &mut rest)?)?),
                "--fleet-hours" => hours = Some(parse(name, &value(name, inline, &mut rest)?)?),
                "--rss-limit-mib" => rss = Some(parse(name, &value(name, inline, &mut rest)?)?),
                "--perfetto" => perfetto = Some(value(name, inline, &mut rest)?),
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        let mut scale = if quick { Scale::quick() } else { Scale::full() };
        if let Some(users) = users {
            scale = scale.fleet_users(users);
        }
        if let Some(hours) = hours {
            scale = scale.fleet_hours(hours);
        }
        if let Some(jobs) = jobs {
            scale = scale.jobs(jobs);
        }
        Ok(scale
            .rss_limit_mib(rss)
            .perfetto(perfetto)
            .metrics(metrics)
            .profile(profile))
    }

    /// Whether any observability output was requested.
    pub fn telemetry_requested(&self) -> bool {
        self.perfetto.is_some() || self.metrics
    }
}

/// Flag `name`'s value: the text after its `=`, else the next argument
/// unless that is another flag.
fn value<'a>(
    name: &str,
    inline: Option<&str>,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<String, String> {
    match inline {
        Some(v) => Ok(v.to_string()),
        None => rest
            .next()
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

/// Parse flag `name`'s value, naming both in the error.
fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for {name}: {value:?}"))
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

    fn parsed(list: &[&str]) -> Result<Scale, String> {
        Scale::from_args(&to_args(list))
    }

    #[test]
    fn jobs_flag_parses_in_every_form() {
        let jobs = |args: &[&str]| parsed(args).unwrap().jobs;
        assert_eq!(jobs(&["exp", "--jobs", "4"]), 4);
        assert_eq!(jobs(&["exp", "--jobs=8", "--quick"]), 8);
        assert_eq!(jobs(&["exp", "-j", "2"]), 2);
        assert_eq!(jobs(&["exp", "-j=3"]), 3);
        assert_eq!(jobs(&["exp", "--quick"]), 1);
        // Later flags win.
        assert_eq!(jobs(&["exp", "-j", "2", "--jobs", "6"]), 6);
        // --jobs 0 expands to the CPU count (at least one) via the builder.
        assert!(Scale::quick().jobs(0).jobs >= 1);
        assert!(jobs(&["exp", "--jobs", "0"]) >= 1);
    }

    #[test]
    fn perfetto_flag_parses_in_every_form() {
        let dir = |args: &[&str]| parsed(args).unwrap().perfetto;
        assert_eq!(dir(&["exp", "--perfetto", "out"]), Some("out".into()));
        assert_eq!(
            dir(&["exp", "--perfetto=traces", "--quick"]),
            Some("traces".into())
        );
        assert_eq!(dir(&["exp", "--quick"]), None);
    }

    #[test]
    fn fleet_flags_parse() {
        let s = parsed(&["exp", "--fleet-users", "200000", "--rss-limit-mib=512"]).unwrap();
        assert_eq!(s.fleet_users, 200_000);
        assert_eq!(s.rss_limit_mib, Some(512));
        assert_eq!(
            s.fleet_hours,
            Scale::full().fleet_users(200_000).fleet_hours
        );
        let pinned = parsed(&["exp", "--fleet-hours=2.5", "--fleet-users", "1000"]).unwrap();
        assert_eq!((pinned.fleet_users, pinned.fleet_hours), (1000, 2.5));
        let flags = parsed(&["all", "-q", "--metrics", "--profile"]).unwrap();
        assert!(flags.metrics && flags.profile);
        assert_eq!(flags.runs, Scale::quick().runs);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        let err = |args: &[&str]| parsed(args).unwrap_err();
        assert!(err(&["fig10", "--quik"]).contains("--quik"));
        assert!(err(&["fig10", "--jobs", "banana"]).contains("banana"));
        assert!(err(&["fig10", "--jobs=banana"]).contains("--jobs"));
        assert!(err(&["fig10", "--perfetto"]).contains("--perfetto needs a value"));
        assert!(err(&["fig10", "--perfetto", "--quick"]).contains("--perfetto needs a value"));
        assert!(err(&["fig10", "-j"]).contains("-j needs a value"));
        assert!(err(&["fig10", "--quick=yes"]).contains("takes no value"));
        assert!(err(&["fig10", "extra"]).contains("extra"));
        assert!(err(&["fig8", "--dense-ticks"]).contains("--dense-ticks"));
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
    fn telemetry_is_off_by_default() {
        let s = Scale::full();
        assert!(!s.telemetry_requested());
        assert!(Scale::quick().metrics(true).telemetry_requested());
        assert!(Scale::quick()
            .perfetto(Some("out".into()))
            .telemetry_requested());
    }
}
