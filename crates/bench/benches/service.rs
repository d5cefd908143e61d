//! The live telemetry service vs the in-process fleet engine.
//!
//! Stands up `mvqoe-telemetryd` on loopback and pushes a short-observation
//! fleet through it over concurrent load-generator connections — the full
//! path: simulate, serialize each run of same-state 1 Hz samples to one
//! NDJSON frame, ship over TCP, parse, replay into observations, fold into
//! mutex-guarded shards. `reports` counts those frames. Then
//! hammers `/query/headline` to measure query latency under a folded
//! aggregate. Writes `BENCH_service.json` at the workspace root and acts
//! as its own regression guard: the service path must sustain at least
//! 500 ingested users/s (the committed baseline is far above), stay
//! within 40× of the direct in-process fold (serialization + TCP + parse
//! is real work, but not *that* much work), and answer headline queries
//! under 50 ms at p99.

use criterion::black_box;
use mvqoe_metrics::SharedRegistry;
use mvqoe_study::{simulate_range, FleetConfig};
use mvqoe_telemetryd::{run_fleet_loadgen, ServiceState, TelemetryServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

fn cfg(users: u32) -> FleetConfig {
    // Same shape as BENCH_fleet: ~47 simulated seconds per user, so the
    // two artifacts are directly comparable.
    FleetConfig::scaled(users, 2064, 0.01, 0.001)
}

/// Ingest the whole fleet through the service over `conns` connections;
/// returns (wall seconds, frames ingested).
fn service_ingest_secs(c: &FleetConfig, shards: u32, conns: u32) -> (f64, u64) {
    let state = ServiceState::new(*c, shards, SharedRegistry::new());
    let server = TelemetryServer::start(state, 0).expect("bind loopback");
    let addr = server.addr();
    let start = Instant::now();
    let chunk = c.n_users / conns;
    let handles: Vec<_> = (0..conns)
        .map(|t| {
            let c = *c;
            let users = (t * chunk)..if t + 1 == conns { c.n_users } else { (t + 1) * chunk };
            std::thread::spawn(move || run_fleet_loadgen(addr, &c, users).expect("upload"))
        })
        .collect();
    let mut reports = 0;
    for h in handles {
        reports += h.join().expect("loadgen thread").accepted;
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(server.shutdown());
    (secs, reports)
}

/// The same fleet folded directly in-process (no wire) — the overhead
/// baseline.
fn direct_secs(c: &FleetConfig) -> f64 {
    let start = Instant::now();
    black_box(simulate_range(c, 0..c.n_users));
    start.elapsed().as_secs_f64()
}

/// p99 latency (ms) of `n` sequential `/query/headline` requests against
/// a service holding a folded fleet.
fn headline_p99_ms(c: &FleetConfig, shards: u32, n: usize) -> f64 {
    let state = ServiceState::new(*c, shards, SharedRegistry::new());
    let server = TelemetryServer::start(state, 0).expect("bind loopback");
    let addr = server.addr();
    run_fleet_loadgen(addr, c, 0..c.n_users).expect("upload");
    let mut lat_ms: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "GET /query/headline HTTP/1.1\r\nHost: b\r\n\r\n").expect("write");
            let mut body = String::new();
            stream.read_to_string(&mut body).expect("read");
            assert!(body.contains("recruited"), "unexpected response: {body}");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    server.shutdown();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    lat_ms[(n * 99) / 100 - 1]
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let users: u32 = if test_mode { 200 } else { 2_000 };
    let queries: usize = if test_mode { 100 } else { 400 };
    let c = cfg(users);
    let shards = 32;
    let conns = 4;

    let (ingest_secs, reports) = service_ingest_secs(&c, shards, conns);
    let direct = direct_secs(&c);
    let users_per_sec = users as f64 / ingest_secs.max(1e-9);
    let reports_per_sec = reports as f64 / ingest_secs.max(1e-9);
    let overhead = ingest_secs / direct.max(1e-9);
    let p99_ms = headline_p99_ms(&c, shards, queries);

    println!(
        "service {users} users over {conns} connections: ingest {ingest_secs:.2} s \
         ({users_per_sec:.0} users/s, {reports_per_sec:.0} reports/s), direct fold \
         {direct:.2} s -> {overhead:.2}x wire overhead, headline p99 {p99_ms:.2} ms \
         ({queries} queries)"
    );

    if !test_mode {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
        let json = format!(
            "{{\n  \"bench\": \"telemetry_service_ingest_and_query\",\n  \
             \"users\": {users},\n  \
             \"shards\": {shards},\n  \
             \"loadgen_connections\": {conns},\n  \
             \"reports\": {reports},\n  \
             \"ingest_secs\": {ingest_secs:.3},\n  \
             \"ingest_users_per_sec\": {users_per_sec:.1},\n  \
             \"ingest_reports_per_sec\": {reports_per_sec:.1},\n  \
             \"direct_fold_secs\": {direct:.3},\n  \
             \"wire_over_direct\": {overhead:.3},\n  \
             \"headline_queries\": {queries},\n  \
             \"headline_p99_ms\": {p99_ms:.3}\n}}\n"
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("[json] {path}"),
            Err(e) => eprintln!("[json] failed to write {path}: {e}"),
        }
    }

    // Regression guards (skipped in --test mode: debug codegen makes
    // wall-clock meaningless).
    if !test_mode {
        if users_per_sec < 500.0 {
            eprintln!(
                "REGRESSION: service ingest {users_per_sec:.0} users/s below the 500 users/s floor"
            );
            std::process::exit(1);
        }
        if overhead > 40.0 {
            eprintln!(
                "REGRESSION: service wire overhead {overhead:.2}x over the direct fold \
                 (limit 40x)"
            );
            std::process::exit(1);
        }
        if p99_ms > 50.0 {
            eprintln!("REGRESSION: headline query p99 {p99_ms:.2} ms above the 50 ms bound");
            std::process::exit(1);
        }
    }
}
