//! The `serve` experiment: stand up the live telemetry service
//! (`mvqoe-telemetryd`), drive it with concurrent load-generator
//! connections replaying the §3 fleet protocol, scrape `/metrics`, and
//! check the service-folded aggregate byte-identical against the batch
//! engine's sharded run over the same coordinate-derived seeds.

use crate::fleet_figs::{fleet_config, run_fleet_sharded, shard_count};
use crate::report;
use crate::scale::Scale;
use mvqoe_metrics::{prometheus, SharedRegistry};
use mvqoe_study::{FleetAggregate, FleetConfig};
use mvqoe_telemetryd::{run_fleet_loadgen, Headline, IngestAck, ServiceState, TelemetryServer};
use serde::{Deserialize, Serialize};

/// Everything `results/service.json` records about one service run.
#[derive(Debug, Serialize, Deserialize)]
pub struct ServeResults {
    /// The fleet protocol the loadgen replayed (same as the batch fleet).
    pub config: FleetConfig,
    /// Aggregate shards in the service's mutex ring.
    pub shards: u32,
    /// Concurrent load-generator connections.
    pub loadgen_connections: usize,
    /// Summed ingest acks across connections.
    pub ack: IngestAck,
    /// The headline view after ingest drained.
    pub headline: Headline,
    /// Whether the service-folded aggregate serialized byte-identically
    /// to the batch engine's sharded run.
    pub equivalent_to_batch: bool,
    /// Metric families in the recorded scrape.
    pub scrape_families: usize,
    /// Samples in the recorded scrape.
    pub scrape_samples: usize,
    /// The final `GET /metrics` body (Prometheus text exposition 0.0.4)
    /// without its wall-clock latency histograms.
    pub scrape: String,
    /// The final fleet aggregate the service folded.
    pub aggregate: FleetAggregate,
}

impl ServeResults {
    /// Check the artifact: a recruited fleet with `kept <= recruited` and
    /// nothing left in flight, an ack that folded every recruit and
    /// accepted at least a `Begin` and an `End` per device, a fold that
    /// matched the batch engine, and a scrape that is valid Prometheus
    /// exposition. Returns a one-line summary.
    pub fn validate(&self) -> Result<String, String> {
        let (h, ack) = (&self.headline, &self.ack);
        if h.recruited < 1 {
            return Err("no devices recruited".into());
        }
        if h.kept > u64::from(h.recruited) {
            return Err(format!("kept {} exceeds recruited {}", h.kept, h.recruited));
        }
        if h.devices_in_flight != 0 {
            return Err("observations still in flight at shutdown".into());
        }
        if ack.folded != u64::from(h.recruited) {
            return Err(format!(
                "ack folded {} devices but headline recruited {}",
                ack.folded, h.recruited
            ));
        }
        if ack.accepted < 2 * ack.folded {
            return Err(format!(
                "accepted {} reports cannot cover {} folded device(s)",
                ack.accepted, ack.folded
            ));
        }
        if !self.equivalent_to_batch {
            return Err("service fold is not batch-equivalent".into());
        }
        let stats = prometheus::validate(&self.scrape)
            .map_err(|e| format!("scrape is not valid exposition: {e}"))?;
        Ok(format!(
            "{} device(s) folded, {} report(s), {} scrape families / {} samples",
            h.recruited, ack.accepted, stats.families, stats.samples
        ))
    }

    /// Print the service-run report.
    pub fn print(&self) {
        report::banner(
            "serve",
            "live telemetry service: ingest, fold, scrape, query",
        );
        report::print_table(
            &["quantity", "value"],
            &[
                vec!["fleet users".into(), self.config.n_users.to_string()],
                vec!["aggregate shards".into(), self.shards.to_string()],
                vec![
                    "loadgen connections".into(),
                    self.loadgen_connections.to_string(),
                ],
                vec!["reports ingested".into(), self.ack.accepted.to_string()],
                vec!["devices folded".into(), self.ack.folded.to_string()],
                vec![
                    "parse failures".into(),
                    self.ack.parse_failures.to_string(),
                ],
                vec!["recruited".into(), self.headline.recruited.to_string()],
                vec!["kept".into(), self.headline.kept.to_string()],
                vec![
                    "logged hours".into(),
                    format!("{:.1}", self.headline.total_hours),
                ],
                vec!["scrape families".into(), self.scrape_families.to_string()],
                vec!["scrape samples".into(), self.scrape_samples.to_string()],
            ],
        );
        println!(
            "service fold vs batch engine: {}",
            if self.equivalent_to_batch {
                "byte-identical"
            } else {
                "MISMATCH"
            }
        );
    }
}

/// Fetch one endpoint over real HTTP (not in-process), so the run
/// exercises — and the scrape records — the query path a monitoring
/// stack would hit. Returns the response body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to own service");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: mvqoe\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("a complete response");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "GET {path} failed: {head}"
    );
    body.to_string()
}

/// The exposition without its wall-clock families, the `*_latency_us`
/// histograms telemetryd times with the host clock: they differ on every
/// run, and the artifact must be a function of its seed. The live
/// `/metrics` endpoint keeps them.
fn without_wall_clock(scrape: &str) -> String {
    let mut out = String::with_capacity(scrape.len());
    let mut skipping = false;
    for line in scrape.lines() {
        if let Some(family) = line
            .strip_prefix("# HELP ")
            .and_then(|r| r.split(' ').next())
        {
            skipping = family.ends_with("_latency_us");
        }
        if !skipping {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Split `0..n_users` into `connections` contiguous ranges, remainder
/// spread over the leading ranges.
fn user_ranges(n_users: u32, connections: u32) -> Vec<std::ops::Range<u32>> {
    let connections = connections.clamp(1, n_users.max(1));
    let base = n_users / connections;
    let extra = n_users % connections;
    let mut start = 0;
    (0..connections)
        .map(|c| {
            let len = base + (c < extra) as u32;
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// Read a numeric knob from the environment (unset or unparsable → default).
fn env_knob(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run the service experiment: serve, ingest the fleet over concurrent
/// connections, scrape, shut down, and verify against the batch engine.
///
/// Two environment knobs make the service interactively scrapeable:
/// `MVQOE_SERVE_PORT` pins the listen port (default: ephemeral), and
/// `MVQOE_SERVE_HOLD_SECS` keeps the server answering queries for that
/// many seconds after the run's own scrape, before the drain-and-verify
/// step. Neither affects the recorded artifact: the scrape snapshot is
/// taken before the hold, and external queries cannot touch the fleet
/// aggregate.
pub fn run(scale: &Scale) -> ServeResults {
    let cfg = fleet_config(scale);
    let shards = shard_count(cfg.n_users);
    let state = ServiceState::new(cfg, shards, SharedRegistry::new());
    let port = env_knob("MVQOE_SERVE_PORT", 0) as u16;
    let server = TelemetryServer::start(state, port).expect("bind the loopback listener");
    let addr = server.addr();
    println!("[serve] listening on http://{addr}");

    let ranges = user_ranges(cfg.n_users, scale.jobs.max(2) as u32);
    let loadgen_connections = ranges.len();
    let handles: Vec<_> = ranges
        .into_iter()
        .map(|users| std::thread::spawn(move || run_fleet_loadgen(addr, &cfg, users)))
        .collect();
    let mut ack = IngestAck::default();
    for h in handles {
        let one = h
            .join()
            .expect("loadgen thread")
            .expect("loadgen upload succeeds");
        ack.accepted += one.accepted;
        ack.folded += one.folded;
        ack.parse_failures += one.parse_failures;
    }

    // Query and scrape over the wire, like a monitoring stack would — the
    // scrape then also carries the per-endpoint request counters.
    let headline: Headline = serde_json::from_str(&http_get(addr, "/query/headline"))
        .expect("headline endpoint returns its JSON view");
    let scrape = without_wall_clock(&http_get(addr, "/metrics"));
    let stats = prometheus::validate(&scrape).expect("own scrape must validate");

    let hold = env_knob("MVQOE_SERVE_HOLD_SECS", 0);
    if hold > 0 {
        println!("[serve] holding http://{addr} up for {hold} s (MVQOE_SERVE_HOLD_SECS)");
        std::thread::sleep(std::time::Duration::from_secs(hold));
    }
    let aggregate = server.shutdown();

    let batch = run_fleet_sharded(&cfg, shards, scale, None);
    let equivalent_to_batch = serde_json::to_string(&aggregate).expect("serialize")
        == serde_json::to_string(&batch.aggregate).expect("serialize");

    ServeResults {
        config: cfg,
        shards,
        loadgen_connections,
        ack,
        headline,
        equivalent_to_batch,
        scrape_families: stats.families,
        scrape_samples: stats.samples,
        scrape,
        aggregate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_ranges_partition_exactly() {
        for (n, c) in [(14u32, 4u32), (80, 8), (5, 9), (1, 1), (7, 2)] {
            let ranges = user_ranges(n, c);
            assert!(!ranges.is_empty());
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                assert!(r.end > r.start, "no empty ranges");
                next = r.end;
            }
            assert_eq!(next, n, "ranges must cover every user");
        }
    }

    #[test]
    fn the_recorded_scrape_leaves_out_only_the_wall_clock_families() {
        let family = |name: &str, kind: &str, samples: &str| {
            format!("# HELP {name} {kind} '{name}'.\n# TYPE {name} {kind}\n{samples}")
        };
        let reports = family(
            "telemetryd_reports_total",
            "counter",
            "telemetryd_reports_total 12\n",
        );
        let buffer = family(
            "fleet_qoe_buffer_s",
            "histogram",
            "fleet_qoe_buffer_s_bucket{le=\"+Inf\"} 0\nfleet_qoe_buffer_s_sum 0\nfleet_qoe_buffer_s_count 0\n",
        );
        let fold = family(
            "telemetryd_fold_latency_us",
            "histogram",
            "telemetryd_fold_latency_us_bucket{le=\"1\"} 3\n\
             telemetryd_fold_latency_us_bucket{le=\"+Inf\"} 80\n\
             telemetryd_fold_latency_us_sum 9501\ntelemetryd_fold_latency_us_count 80\n",
        );
        let headline = family(
            "telemetryd_http_headline_latency_us",
            "histogram",
            "telemetryd_http_headline_latency_us_bucket{le=\"+Inf\"} 1\n\
             telemetryd_http_headline_latency_us_sum 212\n\
             telemetryd_http_headline_latency_us_count 1\n",
        );
        let kept = family("fleet_kept", "gauge", "fleet_kept 59\n");
        let scrape = [reports.as_str(), &fold, &buffer, &headline, &kept].concat();
        assert_eq!(
            without_wall_clock(&scrape),
            [reports, buffer, kept].concat()
        );
    }
}
