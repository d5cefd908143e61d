//! Cross-layer metrics for the simulator: deterministic counters, gauges,
//! and log-bucketed histograms.
//!
//! The paper's diagnosis (§5) and the KPI monitors it cites live on
//! per-layer time series and distributions, not just end-of-run aggregates.
//! This crate is the registry those numbers flow through: the kernel counts
//! reclaim passes and faults by class, the scheduler counts context
//! switches and preemptions, the video pipeline records decode-time
//! distributions and dropped/late frames, and the ABR counts quality
//! switches.
//!
//! **Determinism.** Metrics never feed back into the simulation: recording
//! draws no randomness and takes no locks, and a snapshot of the same run
//! is identical every time. A run without metrics passes no [`Telemetry`]
//! at all, so golden outputs stay byte-identical whether or not the
//! telemetry plumbing is compiled into a caller.

pub mod histogram;
pub mod prometheus;
pub mod registry;
pub mod selfprof;
pub mod snapshot;

pub use histogram::Histogram;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use snapshot::{HistogramSnapshot, MetricsSidecar, MetricsSnapshot};

use std::sync::{Arc, Mutex};

/// The telemetry handle a session carries: today just the metrics registry,
/// later the place tracing/export switches hang off.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The metrics registry for this run.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// A handle that records everything.
    pub fn enabled() -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::new(),
        }
    }

    /// Snapshot the current metric values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// A clonable, thread-shared registry handle for long-lived services: many
/// worker threads record into one registry, a scraper snapshots it.
///
/// Single-run simulation code keeps using the unsynchronised
/// [`MetricsRegistry`] directly — this wrapper exists for the telemetry
/// service, where ingest workers and HTTP handlers outlive any one run.
/// Lock poisoning is deliberately ignored: metrics are monotone counters
/// and gauges, always safe to keep recording into.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry(Arc<Mutex<MetricsRegistry>>);

impl SharedRegistry {
    /// A recording shared registry.
    pub fn new() -> SharedRegistry {
        SharedRegistry(Arc::new(Mutex::new(MetricsRegistry::new())))
    }

    /// Run `f` with the registry locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        let mut guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// Snapshot the current metric values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|r| r.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_registry_is_usable_across_threads() {
        let shared = SharedRegistry::new();
        let id = shared.with(|r| r.counter("svc.requests"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        shared.with(|r| r.inc(id, 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.snapshot().counters["svc.requests"], 400);
    }
}
