//! Equivalence tests for the live telemetry service.
//!
//! The service path — simulate on the loadgen side, serialize every run
//! of same-state 1 Hz samples to one NDJSON frame, ship it over loopback
//! TCP, replay it into observations, fold out of order into mutex-guarded
//! shards, merge at shutdown — must land byte-identical to the in-process
//! sharded batch engine over the same coordinate-derived seeds, at any
//! shard count and any connection interleaving. Observation medians are
//! shortened (the clamp scales with the median) so the suite stays fast.

use mvqoe_experiments::fleet_figs::run_fleet_sharded;
use mvqoe_experiments::serve;
use mvqoe_experiments::Scale;
use mvqoe_metrics::SharedRegistry;
use mvqoe_study::FleetConfig;
use mvqoe_telemetryd::{run_fleet_loadgen, Headline, ServiceState, TelemetryServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

fn short_cfg(n_users: u32, median_hours: f64) -> FleetConfig {
    FleetConfig::scaled(n_users, 2064, median_hours, median_hours * 0.1)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

#[test]
fn service_fold_matches_the_sharded_batch_engine() {
    let cfg = short_cfg(14, 0.1);
    let scale = Scale::quick().jobs(2);

    for service_shards in [1u32, 3, 8] {
        let state = ServiceState::new(cfg, service_shards, SharedRegistry::new());
        let server = TelemetryServer::start(state, 0).expect("bind loopback");
        let addr = server.addr();

        // Four concurrent connections over interleaved quarters of the
        // fleet — devices complete in whatever order the threads race to.
        let handles: Vec<_> = [[0u32, 4], [4, 8], [8, 11], [11, 14]]
            .into_iter()
            .map(|[lo, hi]| {
                std::thread::spawn(move || run_fleet_loadgen(addr, &cfg, lo..hi).expect("upload"))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("loadgen thread").parse_failures, 0);
        }
        let served = server.shutdown();

        // The batch side runs its own (different) shard count: equivalence
        // must hold across the two partitions, not just shard-for-shard.
        let batch = run_fleet_sharded(&cfg, 7, &scale, None);
        assert_eq!(
            json(&served),
            json(&batch.aggregate),
            "{service_shards} service shard(s) vs 7 batch shards must agree byte-for-byte"
        );
    }
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("a complete response");
    assert!(head.starts_with("HTTP/1.1 200"), "GET {path}: {head}");
    body.to_string()
}

#[test]
fn three_streams_per_worker_fold_like_the_batch_engine() {
    // The service reads its config's protocol bounds, not the fleet size,
    // so the fleet is sized to the worker pool once the server is up.
    let state = ServiceState::new(short_cfg(0, 0.1), 5, SharedRegistry::new());
    let server = TelemetryServer::start(state, 0).expect("bind loopback");
    let addr = server.addr();
    let streams = 3 * server.workers() as u32;
    let cfg = short_cfg(2 * streams, 0.1);

    // Every stream connects at once: the pool serves as many as it has
    // workers, and the rest, with the query sent among them, wait in the
    // listen backlog for a worker.
    let (tx, rx) = mpsc::channel();
    let uploads: Vec<_> = (0..streams)
        .map(|k| {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(run_fleet_loadgen(addr, &cfg, 2 * k..2 * k + 2)))
        })
        .collect();
    let headline: Headline =
        serde_json::from_str(&http_get(addr, "/query/headline")).expect("headline JSON");
    assert!(headline.recruited <= 2 * streams);
    assert_eq!(headline.parse_failures_total, 0);
    let mut folded = 0;
    for _ in 0..streams {
        let ack = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("every stream finishes: no deadlock")
            .expect("upload");
        assert_eq!(ack.parse_failures, 0);
        folded += ack.folded;
    }
    assert_eq!(folded, u64::from(2 * streams), "no device is lost");
    for upload in uploads {
        upload
            .join()
            .expect("loadgen thread")
            .expect("the ack reached the test");
    }

    let served = server.shutdown();
    let batch = run_fleet_sharded(&cfg, 7, &Scale::quick().jobs(2), None);
    assert_eq!(json(&served), json(&batch.aggregate));
}

#[test]
fn the_serve_experiment_reports_equivalence_end_to_end() {
    // The registry entry itself: serve + ingest + scrape + batch check at
    // quick scale, exactly what `mvqoe serve --quick` runs.
    let scale = Scale::quick().jobs(2).fleet_hours(0.1);
    let results = serve::run(&scale).expect("the serve experiment runs");
    assert!(
        results.equivalent_to_batch,
        "mvqoe serve must verify the service fold against the batch engine"
    );
    assert_eq!(results.headline.recruited, scale.fleet_users);
    assert_eq!(results.ack.parse_failures, 0);
    assert_eq!(results.headline.devices_in_flight, 0);
    assert!(results.scrape_families > 0 && results.scrape_samples > 0);
    assert!(
        results.scrape.contains("telemetryd_reports_total"),
        "the scrape must expose the service's own instrumentation"
    );
    // The artifact is a function of its seed: a second run writes the
    // same bytes, so no host-timed family reaches the recorded scrape.
    assert_eq!(
        json(&results),
        json(&serve::run(&scale).expect("the serve experiment runs")),
        "two runs of the serve experiment must write the same artifact"
    );
}
