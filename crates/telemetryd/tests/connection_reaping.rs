//! The server joins finished connection threads while it runs, so its
//! memory follows the connections in flight, not every connection it ever
//! served. A file of its own: no other test's threads share the process,
//! whose memory map this test reads.
#![cfg(target_os = "linux")]

use mvqoe_metrics::SharedRegistry;
use mvqoe_study::FleetConfig;
use mvqoe_telemetryd::{ServiceState, TelemetryServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw
}

/// Lines of `/proc/self/maps`: one per mapping. Every live or unjoined
/// thread keeps a stack mapping and its guard page.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn sequential_requests_do_not_accumulate_thread_stacks() {
    let cfg = FleetConfig::scaled(1, 2077, 0.05, 0.005);
    let server =
        TelemetryServer::start(ServiceState::new(cfg, 1, SharedRegistry::new()), 0).expect("bind");
    let addr = server.addr();
    // Warm up: allocator arenas and the first thread stacks settle.
    for _ in 0..20 {
        get(addr, "/query/headline");
    }
    let before = mappings();
    for _ in 0..400 {
        let reply = get(addr, "/query/headline");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }
    let grown = mappings().saturating_sub(before);
    server.shutdown();
    assert!(
        grown < 100,
        "400 finished connections grew the memory map by {grown} lines"
    );
}
