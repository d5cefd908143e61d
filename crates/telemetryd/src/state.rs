//! The service's shared state: a ring of mutex-guarded fleet-aggregate
//! shards keyed by device id, plus the metrics registry the service both
//! publishes and instruments itself with.
//!
//! Each shard holds the in-flight observations of its devices and a
//! [`FleetAggregate`] they fold into on `End`. The aggregate's merge
//! algebra is associative and order-insensitive over disjoint device
//! sets, so [`ServiceState::finalize`] — merging the shard aggregates in
//! ring order — is byte-identical to the batch engine's serial fold no
//! matter how connections interleaved or how many shards the ring has.
//!
//! A handler that panics while it holds a shard poisons that shard's
//! mutex. Every lock here recovers the guard instead of panicking in turn,
//! as [`SharedRegistry::with`] does. No report is known to panic under a
//! shard lock; if one did, that report might be half applied, but the
//! shard's other devices and every later request would still be served.

use crate::report::DeviceReport;
use mvqoe_metrics::{prometheus, CounterId, GaugeId, HistogramId, SharedRegistry};
use mvqoe_study::{
    observation_seconds, DeviceDigest, DeviceObservation, FleetAggregate, FleetConfig,
};
use mvqoe_workload::FleetSample;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// In-flight device observation: samples recorded, not yet folded.
struct Pending {
    obs: DeviceObservation,
    hours: f64,
    /// Samples the device may still send before its declared observation
    /// is full.
    remaining: u64,
}

#[derive(Default)]
struct Shard {
    agg: FleetAggregate,
    active: HashMap<u32, Pending>,
}

impl Shard {
    /// Lock `shard`, recovering the guard if a panicking holder poisoned it.
    fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `device` has already been folded into this shard.
    fn folded(&self, device: u32) -> bool {
        self.agg
            .hours
            .binary_search_by_key(&device, |&(i, _)| i)
            .is_ok()
    }
}

/// Pre-registered ids for the service's own health metrics.
struct ServiceIds {
    reports: CounterId,
    parse_failures: CounterId,
    connections: CounterId,
    devices_completed: CounterId,
    fold_us: HistogramId,
    queue_depth: GaugeId,
}

/// Shared state behind every connection handler.
pub struct ServiceState {
    /// The fleet protocol the ingested devices were generated under.
    pub cfg: FleetConfig,
    shards: Vec<Mutex<Shard>>,
    /// Observations open across all shards: the `queue_depth` an `End`
    /// publishes, kept without locking every shard.
    open: AtomicU64,
    /// The registry `GET /metrics` exposes: the service's own counters
    /// and the fleet headline gauges.
    pub registry: SharedRegistry,
    ids: ServiceIds,
}

/// The live `/query/headline` view: exact integer counts, plus a
/// total-hours sum taken shard-by-shard in ring order (the batch engine
/// sums in user order, so the two can differ in the last f64 bits while
/// devices are still arriving; [`ServiceState::finalize`] is exact).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Headline {
    /// Devices folded so far (recruited, before cleaning).
    pub recruited: u32,
    /// Devices that passed the cleaning rule.
    pub kept: u64,
    /// Logged hours across folded devices.
    pub total_hours: f64,
    /// Observations open right now.
    pub devices_in_flight: u64,
    /// Frames applied since startup: a `Run` of many seconds counts once.
    pub reports_total: u64,
    /// Lines rejected since startup.
    pub parse_failures_total: u64,
}

/// One `/query/topk` entry (the digest scalars, without Fig. 5's
/// histograms — those stay queryable per device).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopEntry {
    /// Device id.
    pub device: u32,
    /// Device model name.
    pub name: String,
    /// RAM in MiB.
    pub ram_mib: u64,
    /// Fraction of time out of Normal (the ranking key).
    pub pressure_time_fraction: f64,
}

/// The `/query/device/<id>` view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceStatus {
    /// Device id.
    pub device: u32,
    /// `"in-flight"`, `"kept"`, `"cleaned"`, `"truncated"`, or `"unknown"`.
    pub state: String,
    /// Hours recorded so far (in-flight devices only).
    pub hours_so_far: Option<f64>,
    /// The folded digest (kept devices under the digest cap).
    pub digest: Option<DeviceDigest>,
}

impl ServiceState {
    /// Build service state with `n_shards` aggregate shards.
    pub fn new(cfg: FleetConfig, n_shards: u32, registry: SharedRegistry) -> ServiceState {
        let ids = registry.with(|r| ServiceIds {
            reports: r.counter("telemetryd.reports_total"),
            parse_failures: r.counter("telemetryd.parse_failures_total"),
            connections: r.counter("telemetryd.connections_total"),
            devices_completed: r.counter("telemetryd.devices_completed_total"),
            fold_us: r.histogram("telemetryd.fold_latency_us"),
            queue_depth: r.gauge("telemetryd.queue_depth"),
        });
        ServiceState {
            cfg,
            shards: (0..n_shards.max(1)).map(|_| Mutex::new(Shard::default())).collect(),
            open: AtomicU64::new(0),
            registry,
            ids,
        }
    }

    fn shard(&self, device: u32) -> MutexGuard<'_, Shard> {
        Shard::lock(&self.shards[device as usize % self.shards.len()])
    }

    /// Apply one report. Returns `true` when the report completed a device
    /// (an `End` that folded). Protocol violations — samples for unknown
    /// devices, empty runs, samples past a device's declared observation,
    /// a `Begin` declaring more than the fleet's `hours_hi` or no RAM,
    /// duplicate `Begin`s, re-folding a folded device — come back as `Err`
    /// and count as parse failures at the connection layer.
    pub fn apply(&self, report: &DeviceReport) -> Result<bool, String> {
        match report {
            DeviceReport::Begin {
                device,
                name,
                manufacturer,
                ram_mib,
                pattern,
                hours,
            } => {
                // The fleet protocol never observes a device longer than
                // `hours_hi`; a longer (or non-finite) declaration would
                // lift the bound on the samples its runs may carry.
                if !(0.0..=self.cfg.hours_hi).contains(hours) {
                    return Err(format!(
                        "device {device} declares {hours} h, outside 0..={} h",
                        self.cfg.hours_hi
                    ));
                }
                // An observation bins available memory over `0..ram_mib`,
                // which must not be empty. Rejected before the shard lock,
                // so a bad `Begin` cannot poison the shard.
                if *ram_mib == 0 {
                    return Err(format!("device {device} declares 0 MiB of RAM"));
                }
                let mut shard = self.shard(*device);
                if shard.folded(*device) {
                    return Err(format!("device {device} already folded"));
                }
                if shard.active.contains_key(device) {
                    return Err(format!("device {device} already in flight"));
                }
                shard.active.insert(
                    *device,
                    Pending {
                        obs: DeviceObservation::new(name, manufacturer, *ram_mib, *pattern),
                        hours: *hours,
                        remaining: observation_seconds(*hours),
                    },
                );
                self.open.fetch_add(1, Ordering::Relaxed);
                Ok(false)
            }
            DeviceReport::Sample { device, sample } => self.record_run(*device, sample, 1),
            DeviceReport::Run {
                device,
                sample,
                count,
            } => self.record_run(*device, sample, *count),
            DeviceReport::End { device } => {
                let mut shard = self.shard(*device);
                let Pending { obs, hours, .. } = shard
                    .active
                    .remove(device)
                    .ok_or_else(|| format!("end for unknown device {device}"))?;
                let open = self.open.fetch_sub(1, Ordering::Relaxed) - 1;
                let start = std::time::Instant::now();
                shard.agg.fold_unordered(&self.cfg, *device, &obs, hours);
                let fold_us = start.elapsed().as_micros() as f64;
                drop(shard);
                self.registry.with(|r| {
                    r.inc(self.ids.devices_completed, 1);
                    r.observe(self.ids.fold_us, fold_us);
                    r.set(self.ids.queue_depth, open as f64);
                });
                Ok(true)
            }
        }
    }

    /// Record `count` seconds in `sample`'s state into `device`'s open
    /// observation in one step, under one shard lock. The bound on `count`
    /// is checked before anything is recorded, so a rejected frame leaves
    /// the observation as it was and no frame can ask for more work than
    /// its device's declared observation.
    fn record_run(&self, device: u32, sample: &FleetSample, count: u32) -> Result<bool, String> {
        if count == 0 {
            return Err(format!("empty run for device {device}"));
        }
        let mut shard = self.shard(device);
        let p = shard
            .active
            .get_mut(&device)
            .ok_or_else(|| format!("samples for unknown device {device}"))?;
        let count = u64::from(count);
        if count > p.remaining {
            return Err(format!(
                "{count} sample(s) for device {device}, which has {} left to send",
                p.remaining
            ));
        }
        p.remaining -= count;
        p.obs.record_run(sample, count);
        Ok(false)
    }

    /// Fold a connection's batched ingest tallies into the registry —
    /// called every flush interval, not per line, so the sample hot path
    /// touches only its shard lock.
    pub fn add_ingest(&self, reports: u64, parse_failures: u64) {
        if reports == 0 && parse_failures == 0 {
            return;
        }
        self.registry.with(|r| {
            r.inc(self.ids.reports, reports);
            r.inc(self.ids.parse_failures, parse_failures);
        });
    }

    /// Count one handled connection.
    pub fn add_connection(&self) {
        self.registry.with(|r| r.inc(self.ids.connections, 1));
    }

    /// Count one connection dropped because its peer stalled past the
    /// I/O timeout. The counter is registered on the first timeout, so a
    /// service that never drops a connection scrapes the same families.
    pub fn add_timeout(&self) {
        self.registry
            .with(|r| r.add_counter("telemetryd.connections_timed_out_total", 1));
    }

    /// The live headline view.
    pub fn headline(&self) -> Headline {
        let mut recruited = 0u32;
        let mut kept = 0u64;
        let mut total_hours = 0.0f64;
        let mut in_flight = 0u64;
        for shard in &self.shards {
            let shard = Shard::lock(shard);
            recruited += shard.agg.recruited;
            kept += shard.agg.kept;
            total_hours += shard.agg.total_hours();
            in_flight += shard.active.len() as u64;
        }
        let (reports_total, parse_failures_total) = self.registry.with(|r| {
            (
                r.counter_value("telemetryd.reports_total").unwrap_or(0),
                r.counter_value("telemetryd.parse_failures_total").unwrap_or(0),
            )
        });
        Headline {
            recruited,
            kept,
            total_hours,
            devices_in_flight: in_flight,
            reports_total,
            parse_failures_total,
        }
    }

    /// The `k` highest-pressure folded devices, highest fraction first,
    /// ties to the lower device id — the aggregate's own top-K order.
    pub fn topk(&self, k: usize) -> Vec<TopEntry> {
        let mut all: Vec<TopEntry> = Vec::new();
        for shard in &self.shards {
            let shard = Shard::lock(shard);
            all.extend(shard.agg.top.iter().map(|t| TopEntry {
                device: t.idx,
                name: t.name.clone(),
                ram_mib: t.ram_mib,
                pressure_time_fraction: t.pressure_time_fraction,
            }));
        }
        all.sort_by(|a, b| {
            b.pressure_time_fraction
                .partial_cmp(&a.pressure_time_fraction)
                .expect("NaN pressure fraction")
                .then(a.device.cmp(&b.device))
        });
        all.truncate(k);
        all
    }

    /// Live status of one device.
    pub fn device(&self, device: u32) -> DeviceStatus {
        let shard = self.shard(device);
        if let Some(p) = shard.active.get(&device) {
            return DeviceStatus {
                device,
                state: "in-flight".into(),
                hours_so_far: Some(p.obs.total_hours),
                digest: None,
            };
        }
        if !shard.folded(device) {
            return DeviceStatus {
                device,
                state: "unknown".into(),
                hours_so_far: None,
                digest: None,
            };
        }
        match shard.agg.digests.binary_search_by_key(&device, |d| d.idx) {
            Ok(i) => DeviceStatus {
                device,
                state: "kept".into(),
                hours_so_far: None,
                digest: Some(shard.agg.digests[i].clone()),
            },
            // Folded but digest-less: cleaned out by the interactivity
            // rule, or past the digest cap.
            Err(_) if shard.agg.digests_complete() => DeviceStatus {
                device,
                state: "cleaned".into(),
                hours_so_far: None,
                digest: None,
            },
            Err(_) => DeviceStatus {
                device,
                state: "truncated".into(),
                hours_so_far: None,
                digest: None,
            },
        }
    }

    /// Refresh scrape-time gauges and encode the full registry as
    /// Prometheus text exposition.
    pub fn scrape(&self) -> String {
        let h = self.headline();
        self.registry.with(|r| {
            r.set(self.ids.queue_depth, h.devices_in_flight as f64);
            r.set_gauge("fleet.recruited", h.recruited as f64);
            r.set_gauge("fleet.kept", h.kept as f64);
            r.set_gauge("fleet.logged_hours", h.total_hours);
        });
        prometheus::encode(&self.registry.snapshot())
    }

    /// Merge the shard aggregates (ring order) into the final fleet
    /// aggregate — byte-identical to the batch engine's serial fold over
    /// the same devices. Panics if observations are still in flight.
    pub fn finalize(&self) -> FleetAggregate {
        let mut out = FleetAggregate::new();
        for shard in &self.shards {
            let shard = Shard::lock(shard);
            assert!(
                shard.active.is_empty(),
                "finalize with {} observation(s) still in flight",
                shard.active.len()
            );
            out.merge(&shard.agg);
        }
        out
    }

    /// Number of shards in the ring.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_sim::SimTime;
    use mvqoe_study::start_user;

    #[test]
    fn a_poisoned_shard_keeps_serving_its_devices() {
        let cfg = FleetConfig::scaled(1, 2077, 0.05, 0.005);
        let state = ServiceState::new(cfg, 2, SharedRegistry::new());
        // A handler that panics while it holds shard 0, device 0's shard.
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = state.shards[0].lock().unwrap();
                panic!("a handler fails while holding its shard");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(state.shards[0].is_poisoned());

        let mut st = start_user(&cfg, 0);
        let begin = DeviceReport::Begin {
            device: 0,
            name: st.user.device.name.clone(),
            manufacturer: st.user.device.manufacturer.clone(),
            ram_mib: st.user.device.ram_mib,
            pattern: st.user.pattern,
            hours: st.hours,
        };
        assert_eq!(state.apply(&begin), Ok(false));
        assert_eq!(state.device(0).state, "in-flight");
        for s in 0..st.seconds() {
            let sample = st.user.step_1s(SimTime::from_secs(s));
            let run = DeviceReport::Run {
                device: 0,
                sample,
                count: 1,
            };
            assert_eq!(state.apply(&run), Ok(false));
        }
        assert_eq!(state.apply(&DeviceReport::End { device: 0 }), Ok(true));
        assert!(matches!(state.device(0).state.as_str(), "kept" | "cleaned"));
        assert_eq!(state.headline().recruited, 1);
        assert_eq!(state.finalize().hours, vec![(0, st.hours)]);
    }
}
