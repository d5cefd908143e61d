//! `fleet-ingest`: devices from the §3 usage model with equal one-hour
//! observations, each uploaded to an in-process `TelemetryServer` the way a
//! phone would. A device's round trip is `run_fleet_loadgen` over its own
//! connection, waiting for the ack, then `GET /query/device/<id>` to confirm
//! the device was folded. One operation is [`OP_DEVICES`] such round trips,
//! one after another, so that the tail percentile is taken over operations
//! long enough not to be one host hiccup each. `/metrics` is scraped after
//! every operation, outside its time. One driving thread: the load
//! generator and the server's connection worker keep both cores busy
//! between them.

use crate::harness::{OpRecord, RunConfig, Workload, PROBE_OP};
use crate::host;
use crate::report::Layers;
use crate::spans::{span, Ctx, Tracer};
use crate::stats::median;
use mvqoe_experiments::fleet_figs::{run_fleet_sharded, shard_count};
use mvqoe_experiments::scale::Scale;
use mvqoe_metrics::{prometheus, SharedRegistry};
use mvqoe_sim::{derive_seed, SimTime};
use mvqoe_study::{start_user, FleetAggregate, FleetConfig};
use mvqoe_telemetryd::{
    run_fleet_loadgen, DeviceReport, DeviceStatus, Headline, IngestAck, ServiceState,
    TelemetryServer,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

/// Experiment id the fleet seed derives from.
pub const EXPERIMENT: &str = "mvbench/fleet-ingest";
/// Device round trips per operation.
pub const OP_DEVICES: u32 = 40;
/// Devices the timed phase has uploaded when `peak_rss_mib` is read
/// (24 operations). The service keeps memory per connection (see the
/// README), so a peak read at the end of the run would grow with
/// throughput; read at a fixed device count it measures the memory cost of
/// a fixed amount of work. The slowest run seen on the reference host
/// uploaded about 1,150 devices in 20 s.
pub const PEAK_RSS_DEVICES: u32 = 960;
/// Hours every device observes.
const HOURS: f64 = 1.0;
/// Aggregate shards of the service.
const SHARDS: u32 = 32;
/// Warm-up devices per set-up.
const WARMUP_DEVICES: u32 = 48;
/// Devices the traced run's probe replays and uploads.
const PROBE_DEVICES: u32 = 16;

/// The ingest fleet under run seed `seed`, with `n_users` recruited.
pub fn ingest_cfg(seed: u64, n_users: u32) -> FleetConfig {
    FleetConfig {
        n_users,
        seed: derive_seed(seed, EXPERIMENT, 0, 0),
        median_hours: HOURS,
        min_interactive_hours: HOURS * 0.1,
        hours_lo: HOURS,
        hours_hi: HOURS,
    }
}

/// An upload's ack: the device folded, nothing failed to parse.
pub fn check_ack(ack: &IngestAck) -> Result<(), String> {
    if ack.folded == 1 && ack.parse_failures == 0 && ack.accepted > 0 {
        Ok(())
    } else {
        Err(format!("ack {ack:?}"))
    }
}

/// The read-back reports the device as folded (kept or cleaned).
pub fn check_readback(status: &DeviceStatus, device: u32) -> Result<(), String> {
    if status.device == device && matches!(status.state.as_str(), "kept" | "cleaned") {
        Ok(())
    } else {
        Err(format!(
            "device {device} reads back as {} {}",
            status.device, status.state
        ))
    }
}

/// `/query/headline` reports every device, none still in flight.
pub fn check_headline(h: &Headline, devices: u32) -> Result<(), String> {
    if h.recruited == devices && h.devices_in_flight == 0 && h.parse_failures_total == 0 {
        Ok(())
    } else {
        Err(format!("headline {h:?} for {devices} devices"))
    }
}

/// A scrape is valid Prometheus text exposition.
pub fn check_scrape(text: &str) -> Result<(), String> {
    prometheus::validate(text).map(|_| ())
}

/// One HTTP GET over a fresh connection; the body of a 200 response.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: mvbench\r\n\r\n").map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("incomplete response")?;
    if head.starts_with("HTTP/1.1 200") {
        Ok(body.to_string())
    } else {
        Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")))
    }
}

/// Forward one connection from `listener` to `upstream`, returning the
/// bytes the client sent before it half-closed. The server's reply (the
/// ingest ack) goes back once the client's side is drained.
fn counting_proxy(listener: &TcpListener, upstream: SocketAddr) -> std::io::Result<u64> {
    let (mut client, _) = listener.accept()?;
    let mut server = TcpStream::connect(upstream)?;
    let sent = std::io::copy(&mut client, &mut server)?;
    server.shutdown(Shutdown::Write)?;
    std::io::copy(&mut server, &mut client)?;
    Ok(sent)
}

/// Per-report host costs of one device replayed in process.
struct Replay {
    step_ns: f64,
    encode_ns: f64,
    parse_ns: f64,
    apply_ns: f64,
    repeated: u64,
    samples: u64,
}

/// Replay device `i` in process: the load generator's simulation, the wire
/// encoding, the server's parse and its apply, each timed over the whole
/// device and divided per report.
fn replay(cfg: &FleetConfig, state: &ServiceState, i: u32) -> Replay {
    let mut st = start_user(cfg, i);
    let n = st.seconds();
    let started = Instant::now();
    let samples: Vec<_> = (0..n)
        .map(|s| st.user.step_1s(SimTime::from_secs(s)))
        .collect();
    let step_ns = started.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let repeated = samples
        .windows(2)
        .filter(|w| crate::fleet_million::repeats(&w[0], &w[1]))
        .count() as u64;
    let mut reports = vec![DeviceReport::Begin {
        device: i,
        name: st.user.device.name.clone(),
        manufacturer: st.user.device.manufacturer.clone(),
        ram_mib: st.user.device.ram_mib,
        pattern: st.user.pattern,
        hours: st.hours,
    }];
    reports.extend(
        samples
            .into_iter()
            .map(|sample| DeviceReport::Sample { device: i, sample }),
    );
    reports.push(DeviceReport::End { device: i });
    let per = |t: Instant| t.elapsed().as_nanos() as f64 / reports.len() as f64;
    let started = Instant::now();
    let lines: Vec<String> = reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("report encodes"))
        .collect();
    let encode_ns = per(started);
    let started = Instant::now();
    let parsed: Vec<DeviceReport> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("report parses"))
        .collect();
    let parse_ns = per(started);
    let started = Instant::now();
    for r in &parsed {
        state.apply(r).expect("replayed report applies");
    }
    let apply_ns = per(started);
    Replay {
        step_ns,
        encode_ns,
        parse_ns,
        apply_ns,
        repeated,
        samples: n,
    }
}

/// The fleet-ingest workload.
pub struct FleetIngest {
    seed: u64,
    server: TelemetryServer,
    next_device: u32,
    /// Traced runs: the device ids the probe uploads, reserved at set-up so
    /// that the probe sends the same devices whatever the timed phase did.
    probe_ids: std::ops::Range<u32>,
    last_scrape: String,
    /// `VmRSS` (KiB) and connections when the timed phase starts.
    timed_start: (u64, u64),
    /// Devices uploaded in the timed phase.
    timed_devices: u32,
    /// `VmHWM` (MiB) once the timed phase reached [`PEAK_RSS_DEVICES`].
    peak_rss_mib: Option<f64>,
}

impl FleetIngest {
    fn cfg(&self) -> FleetConfig {
        ingest_cfg(self.seed, 0)
    }

    fn connections(&self) -> u64 {
        self.server
            .state()
            .registry
            .with(|r| r.counter_value("telemetryd.connections_total"))
            .unwrap_or(0)
    }

    /// The next fresh device's round trip.
    fn device(&mut self, t: Option<&Tracer>, ctx: Ctx) -> Result<IngestAck, String> {
        let id = self.next_device;
        self.next_device += 1;
        self.device_id(id, t, ctx)
    }

    /// Device `id`'s round trip.
    fn device_id(&self, id: u32, t: Option<&Tracer>, ctx: Ctx) -> Result<IngestAck, String> {
        let cfg = self.cfg();
        let addr = self.server.addr();
        let ack = span(t, ctx, "telemetryd.ingest", |_| {
            run_fleet_loadgen(addr, &cfg, id..id + 1)
        })
        .map_err(|e| e.to_string())?;
        check_ack(&ack)?;
        let body = span(t, ctx, "telemetryd.query_device", |_| {
            http_get(addr, &format!("/query/device/{id}"))
        })?;
        let status: DeviceStatus = serde_json::from_str(&body).map_err(|e| e.to_string())?;
        check_readback(&status, id)?;
        Ok(ack)
    }

    fn scrape(&mut self, t: Option<&Tracer>, ctx: Ctx) -> Result<(), String> {
        let addr = self.server.addr();
        self.last_scrape = span(t, ctx, "telemetryd.scrape", |_| http_get(addr, "/metrics"))?;
        Ok(())
    }
}

impl Workload for FleetIngest {
    fn setup(cfg: &RunConfig) -> Self {
        let state = ServiceState::new(ingest_cfg(cfg.seed, 0), SHARDS, SharedRegistry::new());
        let server = TelemetryServer::start(state, 0).expect("bind a loopback port");
        let mut w = FleetIngest {
            seed: cfg.seed,
            server,
            next_device: 0,
            probe_ids: 0..0,
            last_scrape: String::new(),
            timed_start: (0, 0),
            timed_devices: 0,
            peak_rss_mib: None,
        };
        let ctx = Ctx { op: 0, parent: 0 };
        for _ in 0..if cfg.quick { 2 } else { WARMUP_DEVICES } {
            w.device(None, ctx).expect("warm-up device uploads cleanly");
        }
        w.scrape(None, ctx).expect("warm-up scrape");
        if cfg.trace {
            let first = w.next_device;
            w.next_device += 2 * PROBE_DEVICES;
            w.probe_ids = first..w.next_device;
        }
        w.timed_start = (host::status_kib("VmRSS").unwrap_or(0), w.connections());
        w
    }

    fn discard(self) {
        self.server.shutdown();
    }

    fn round_ops(&self) -> usize {
        1
    }

    fn round(&mut self, round: u64, t: Option<&Tracer>) -> Vec<OpRecord> {
        let ctx = Ctx {
            op: round,
            parent: 0,
        };
        let started = Instant::now();
        let res = span(t, ctx, "op", |c| {
            (0..OP_DEVICES).try_for_each(|_| self.device(t, c).map(drop))
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let scraped = self.scrape(t, ctx).is_ok();
        self.timed_devices += OP_DEVICES;
        if self.peak_rss_mib.is_none() && self.timed_devices >= PEAK_RSS_DEVICES {
            self.peak_rss_mib = Some(host::peak_rss_mib());
        }
        vec![OpRecord {
            ms,
            sim_s: if res.is_ok() {
                f64::from(OP_DEVICES) * HOURS * 3600.0
            } else {
                0.0
            },
            ok: res.is_ok() && scraped,
        }]
    }

    fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_mib.unwrap_or_else(host::peak_rss_mib)
    }

    fn layers(&mut self, t: &Tracer, layers: &mut Layers) {
        let (rss0, conn0) = self.timed_start;
        let rss1 = host::status_kib("VmRSS").unwrap_or(0);
        let conn1 = self.connections();
        layers.set(
            "telemetryd.rss_kib_per_connection",
            rss1.saturating_sub(rss0) as f64 / conn1.saturating_sub(conn0).max(1) as f64,
        );
        let fold_us = self
            .server
            .state()
            .registry
            .snapshot()
            .histograms
            .get("telemetryd.fold_latency_us")
            .map_or(0.0, |h| h.quantile(0.5));
        layers.set("study.fold_us", fold_us);

        // Probe: upload a fixed set of fresh devices, counting connections;
        // upload as many again through a byte-counting proxy for the wire
        // cost; then replay the warm-up devices in process, call by call.
        let cfg = self.cfg();
        let conn_before = self.connections();
        let mut ids = self.probe_ids.clone();
        for (k, id) in ids.by_ref().take(PROBE_DEVICES as usize).enumerate() {
            t.span(
                Ctx {
                    op: PROBE_OP + k as u64,
                    parent: 0,
                },
                "op",
                |c| self.device_id(id, Some(t), c),
            )
            .expect("probe device uploads cleanly");
        }
        layers.set(
            "telemetryd.connections",
            self.connections().saturating_sub(conn_before) as f64,
        );
        let proxy = TcpListener::bind(("127.0.0.1", 0)).expect("bind the proxy port");
        let proxy_addr = proxy.local_addr().expect("proxy address");
        let upstream = self.server.addr();
        let (mut wire, mut accepted) = (0u64, 0u64);
        for id in ids {
            let (sent, ack) = std::thread::scope(|s| {
                let fwd = s.spawn(|| counting_proxy(&proxy, upstream));
                let ack = run_fleet_loadgen(proxy_addr, &cfg, id..id + 1);
                (fwd.join().expect("proxy thread"), ack)
            });
            let ack = ack.expect("proxied upload");
            check_ack(&ack).expect("proxied device folds");
            wire += sent.expect("proxy forwards");
            accepted += ack.accepted;
        }
        let device_s = f64::from(PROBE_DEVICES) * HOURS * 3600.0;
        layers.set("telemetryd.wire_bytes_per_sim_s", wire as f64 / device_s);
        layers.set("telemetryd.reports_per_sim_s", accepted as f64 / device_s);

        let local = ServiceState::new(cfg, SHARDS, SharedRegistry::new());
        let replays: Vec<Replay> = (0..PROBE_DEVICES)
            .map(|i| replay(&cfg, &local, i))
            .collect();
        let med = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
        layers.set("workload.step_ns", med(|r| r.step_ns));
        layers.set("telemetryd.encode_ns", med(|r| r.encode_ns));
        layers.set("telemetryd.parse_ns", med(|r| r.parse_ns));
        layers.set("telemetryd.apply_ns", med(|r| r.apply_ns));
        let (rep, total) = replays
            .iter()
            .fold((0, 0), |(a, b), r| (a + r.repeated, b + r.samples));
        layers.set(
            "workload.sample_repeat_share",
            rep as f64 / total.max(1) as f64,
        );
        layers.set(
            "telemetryd.query_device_ms",
            median(&t.durations_ms("telemetryd.query_device")),
        );
        layers.set(
            "telemetryd.scrape_ms",
            median(&t.durations_ms("telemetryd.scrape")),
        );
        layers.set(
            "telemetryd.scrape_kib",
            self.last_scrape.len() as f64 / 1024.0,
        );
    }

    fn finish(self) -> Result<(), String> {
        let devices = self.next_device;
        let checks = (|| {
            check_scrape(&self.last_scrape)?;
            let h: Headline =
                serde_json::from_str(&http_get(self.server.addr(), "/query/headline")?)
                    .map_err(|e| e.to_string())?;
            check_headline(&h, devices)
        })();
        let online: FleetAggregate = self.server.shutdown();
        checks?;
        // The service folded exactly what the batch engine folds for the
        // same devices.
        let cfg = ingest_cfg(self.seed, devices);
        let mut scale = Scale::full();
        scale.jobs = host::nproc();
        let batch = run_fleet_sharded(&cfg, shard_count(devices), &scale, None).aggregate;
        crate::fleet_million::check_same_aggregate(&online, &batch, "service vs batch")
    }
}
