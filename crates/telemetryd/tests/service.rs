//! End-to-end service tests over real loopback sockets: concurrent
//! interleaved ingest folds byte-identically to the batch engine, the
//! query endpoints answer live, and `/metrics` is valid Prometheus text.

use mvqoe_metrics::{prometheus, SharedRegistry};
use mvqoe_sim::SimTime;
use mvqoe_study::{simulate_range, start_user, FleetConfig};
use mvqoe_telemetryd::http::MAX_LINE_BYTES;
use mvqoe_telemetryd::server::IO_TIMEOUT;
use mvqoe_telemetryd::{
    run_fleet_loadgen, DeviceReport, Headline, ServiceState, TelemetryServer, TopEntry,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A fleet small and short enough to simulate twice in a test, with a
/// cleaning threshold low enough that most devices are kept.
fn short_cfg(n_users: u32) -> FleetConfig {
    let median = 0.05; // 3 minutes of 1 Hz samples per median device
    FleetConfig::scaled(n_users, 2077, median, median * 0.1)
}

fn start_server(cfg: &FleetConfig, n_shards: u32) -> TelemetryServer {
    let state = ServiceState::new(cfg.clone(), n_shards, SharedRegistry::new());
    TelemetryServer::start(state, 0).expect("bind loopback")
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

/// Minimal HTTP GET: returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn concurrent_interleaved_ingest_matches_the_batch_fold() {
    let cfg = short_cfg(12);
    let server = start_server(&cfg, 3);
    let addr = server.addr();

    // Three connections upload interleaved, non-contiguous user ranges
    // concurrently — the worst case for fold ordering.
    let ranges = [[0u32, 4], [4, 8], [8, 12]];
    let handles: Vec<_> = ranges
        .into_iter()
        .map(|[lo, hi]| {
            let cfg = cfg.clone();
            std::thread::spawn(move || run_fleet_loadgen(addr, &cfg, lo..hi).expect("upload"))
        })
        .collect();
    let mut folded = 0;
    for h in handles {
        let ack = h.join().expect("loadgen thread");
        assert_eq!(ack.parse_failures, 0);
        folded += ack.folded;
    }
    assert_eq!(folded, 12);

    let served = server.shutdown();
    let batch = simulate_range(&cfg, 0..12);
    assert_eq!(
        json(&served),
        json(&batch),
        "service fold must be byte-identical to the batch engine"
    );
}

#[test]
fn query_endpoints_answer_live_state() {
    let cfg = short_cfg(6);
    let server = start_server(&cfg, 2);
    let addr = server.addr();
    run_fleet_loadgen(addr, &cfg, 0..6).expect("upload");

    let (status, body) = http_get(addr, "/query/headline");
    assert!(status.contains("200"), "{status}");
    let headline: Headline = serde_json::from_str(&body).expect("headline JSON");
    assert_eq!(headline.recruited, 6);
    assert_eq!(headline.devices_in_flight, 0);
    assert!(headline.reports_total > 6, "samples should dominate");
    assert_eq!(headline.parse_failures_total, 0);

    let (status, body) = http_get(addr, "/query/topk?k=3");
    assert!(status.contains("200"), "{status}");
    let top: Vec<TopEntry> = serde_json::from_str(&body).expect("topk JSON");
    assert!(top.len() <= 3 && !top.is_empty());
    assert!(
        top.windows(2)
            .all(|w| w[0].pressure_time_fraction >= w[1].pressure_time_fraction),
        "topk must come back highest pressure first"
    );

    let (status, body) = http_get(addr, "/query/device/0");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"device\":0"), "{body}");

    let (status, body) = http_get(addr, "/query/device/999");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("unknown"), "{body}");

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "{status}");

    server.shutdown();
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let cfg = short_cfg(4);
    let server = start_server(&cfg, 2);
    let addr = server.addr();
    run_fleet_loadgen(addr, &cfg, 0..4).expect("upload");

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let stats = prometheus::validate(&body).expect("exposition must validate");
    assert!(stats.families >= 5, "expected several families: {stats:?}");
    assert!(body.contains("fleet_recruited 4"), "{body}");
    assert!(
        body.contains("telemetryd_fold_latency_us_count 4"),
        "one fold per device: {body}"
    );
    server.shutdown();
}

#[test]
fn malformed_and_protocol_violating_lines_count_as_parse_failures() {
    let cfg = short_cfg(2);
    let server = start_server(&cfg, 1);
    let addr = server.addr();

    let mut st = start_user(&cfg, 0);
    let begin = |device: u32, hours: f64| {
        json(&DeviceReport::Begin {
            device,
            name: st.user.device.name.clone(),
            manufacturer: st.user.device.manufacturer.clone(),
            ram_mib: st.user.device.ram_mib,
            pattern: st.user.pattern,
            hours,
        })
    };
    // Device 0 declares 0.01 h: exactly 36 one-second samples. Device 1
    // declares more than the fleet's longest observation, which would lift
    // the bound on its runs.
    let begins = [begin(0, 0.01), begin(1, 1e9)];
    let sample = st.user.step_1s(SimTime::ZERO);
    let run = |device: u32, count: u32| {
        json(&DeviceReport::Run {
            device,
            sample,
            count,
        })
    };

    let started = Instant::now();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut w = &stream;
    // Not JSON; valid JSON but not a DeviceReport; an end for a device
    // that never began; a run for a device that never began.
    writeln!(w, "{{not json").expect("write");
    writeln!(w, "{{\"Unknown\":{{}}}}").expect("write");
    writeln!(w, "{{\"End\":{{\"device\":7}}}}").expect("write");
    // A line that is not UTF-8, and one longer than the line cap: each is
    // one failure, and the stream goes on.
    w.write_all(b"{\"End\":{\"device\":\xff}}\n")
        .expect("write");
    let long = format!("{{\"Unknown\":\"{}\"}}\n", "x".repeat(MAX_LINE_BYTES));
    w.write_all(long.as_bytes()).expect("write");
    writeln!(w, "{}", run(7, 1)).expect("write");
    // Well-formed frames of a session's QoE report and attribution report,
    // which the fleet protocol does not carry.
    writeln!(
        w,
        r#"{{"Qoe":{{"device":1000000,"report":{{"at":1000000,"trim":"Moderate","buffer_s":12.5,"rendered":30,"dropped_total":2,"rebuffering":false,"kills":0}}}}}}"#
    )
    .expect("write");
    writeln!(
        w,
        r#"{{"Attribution":{{"device":1000000,"report":{{"rebuffer_us":[3000000,0,0],"drops":[0,5],"records":[],"records_dropped":0}}}}}}"#
    )
    .expect("write");
    // The over-long `Begin` and the run it would have allowed.
    writeln!(w, "{}", begins[1]).expect("write");
    writeln!(w, "{}", run(1, u32::MAX)).expect("write");
    // A `Begin` declaring no RAM: its observation could not be built, and
    // the shard must stay usable for device 0 below.
    let no_ram = json(&DeviceReport::Begin {
        device: 2,
        name: st.user.device.name.clone(),
        manufacturer: st.user.device.manufacturer.clone(),
        ram_mib: 0,
        pattern: st.user.pattern,
        hours: 0.01,
    });
    writeln!(w, "{no_ram}").expect("write");
    // Frames that break device 0's declared observation: an empty run,
    // one so long it would pin the worker for minutes, and, once its 36
    // seconds are in, a one-second `Run` and a `Sample` past them.
    writeln!(w, "{}", begins[0]).expect("write");
    writeln!(w, "{}", run(0, 0)).expect("write");
    writeln!(w, "{}", run(0, u32::MAX)).expect("write");
    writeln!(w, "{}", run(0, 36)).expect("write");
    writeln!(w, "{}", run(0, 1)).expect("write");
    writeln!(w, "{}", json(&DeviceReport::Sample { device: 0, sample })).expect("write");
    writeln!(w, "{}", json(&DeviceReport::End { device: 0 })).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut ack = String::new();
    (&stream).read_to_string(&mut ack).expect("ack");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "ack took {:?}",
        started.elapsed()
    );
    let ack: mvqoe_telemetryd::IngestAck =
        serde_json::from_str(ack.trim_end()).expect("ack JSON");
    assert_eq!(ack.accepted, 3, "Begin, the 36-second run and End");
    assert_eq!(ack.folded, 1);
    assert_eq!(ack.parse_failures, 15);

    let (_, body) = http_get(addr, "/query/headline");
    let headline: Headline = serde_json::from_str(&body).expect("headline JSON");
    assert_eq!(headline.parse_failures_total, 15);
    assert_eq!(headline.recruited, 1);
    let served = server.shutdown();
    assert_eq!(served.hours, vec![(0, 0.01)]);
}

#[test]
fn stalled_connections_are_dropped_after_the_timeout() {
    let cfg = short_cfg(1);
    let registry = SharedRegistry::new();
    let server =
        TelemetryServer::start(ServiceState::new(cfg, 1, registry.clone()), 0).expect("bind");
    let addr = server.addr();
    let workers = server.workers();
    let (_, scrape) = http_get(addr, "/metrics");
    assert!(
        !scrape.contains("timed_out"),
        "the timeout counter is registered on the first timeout"
    );

    // One stalled connection per worker takes the whole pool: the first
    // stalls in the middle of an ingest frame, the rest before their first
    // byte. The request behind them is answered once the workers drop
    // them.
    let mut stalled: Vec<TcpStream> = (0..workers)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    stalled[0].write_all(b"{\"End\":").expect("write");
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(2)))
        .expect("read timeout");
    write!(stream, "GET /query/headline HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    let mut reply = String::new();
    let read = stream.read_to_string(&mut reply);
    assert!(
        read.is_ok() && reply.starts_with("HTTP/1.1 200") && reply.contains("recruited"),
        "the request behind the stalled connections, after {:?}: {read:?} {reply:?}",
        started.elapsed()
    );

    // Shutdown joins every worker, each of which has dropped its peer.
    server.shutdown();
    drop(stalled);
    assert_eq!(
        registry.with(|r| r.counter_value("telemetryd.connections_timed_out_total")),
        Some(workers as u64)
    );
}
