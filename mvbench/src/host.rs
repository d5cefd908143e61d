//! What the host does to the numbers: a fingerprint printed with every run
//! (CPU count and model, kernel, load average, CPU time stolen by the
//! hypervisor during the run) and the run-queue wait of the threads that
//! drive the operations, read from procfs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Run-queue wait, in nanoseconds, summed over every [`track_wait`] scope.
static DRIVING_WAIT_NS: AtomicU64 = AtomicU64::new(0);

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Worker threads per core-bound stage: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn loadavg() -> [f64; 3] {
    let mut out = [0.0; 3];
    if let Some(s) = read("/proc/loadavg") {
        for (slot, v) in out.iter_mut().zip(s.split_whitespace()) {
            *slot = v.parse().unwrap_or(0.0);
        }
    }
    out
}

/// Milliseconds the hypervisor has run other guests on this machine's CPUs
/// (the `steal` column of `/proc/stat`, at 100 ticks per second).
fn steal_ms() -> u64 {
    read("/proc/stat")
        .and_then(|s| {
            let cpu = s
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()?;
            Some(cpu * 10)
        })
        .unwrap_or(0)
}

/// Nanoseconds the calling thread has waited on a run queue so far
/// (second field of `/proc/thread-self/schedstat`).
fn thread_wait_ns() -> u64 {
    read("/proc/thread-self/schedstat")
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Run `f` and add the calling thread's run-queue wait during it to the
/// driving threads' total.
pub fn track_wait<R>(f: impl FnOnce() -> R) -> R {
    let before = thread_wait_ns();
    let out = f();
    DRIVING_WAIT_NS.fetch_add(thread_wait_ns().saturating_sub(before), Ordering::Relaxed);
    out
}

/// Driving threads' run-queue wait so far, in milliseconds.
pub fn driving_wait_ms() -> f64 {
    DRIVING_WAIT_NS.load(Ordering::Relaxed) as f64 / 1e6
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, ...).
pub fn status_kib(key: &str) -> Option<u64> {
    read("/proc/self/status")?
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// The host at the start of a run.
pub struct Fingerprint {
    nproc: usize,
    cpu_model: String,
    kernel: String,
    loadavg: [f64; 3],
    steal_ms: u64,
}

impl Fingerprint {
    /// Read the fingerprint now.
    pub fn take() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            kernel: kernel(),
            loadavg: loadavg(),
            steal_ms: steal_ms(),
        }
    }

    /// One JSON object: the fingerprint, plus the CPU time stolen since it
    /// was taken and the driving threads' wait.
    pub fn json(&self) -> String {
        let fields = vec![
            (
                "nproc".to_string(),
                serde_json::Value::U64(self.nproc as u64),
            ),
            (
                "cpu_model".into(),
                serde_json::Value::Str(self.cpu_model.clone()),
            ),
            ("kernel".into(), serde_json::Value::Str(self.kernel.clone())),
            (
                "loadavg_start".into(),
                serde_json::Value::Seq(
                    self.loadavg
                        .iter()
                        .map(|&v| serde_json::Value::F64(v))
                        .collect(),
                ),
            ),
            (
                "steal_ms".into(),
                serde_json::Value::U64(steal_ms().saturating_sub(self.steal_ms)),
            ),
            (
                "runqueue_wait_ms".into(),
                serde_json::Value::F64(driving_wait_ms()),
            ),
        ];
        serde_json::to_string(&serde_json::Value::Map(fields)).expect("fingerprint serializes")
    }
}
