//! The server serves every connection from a fixed pool of workers, so its
//! thread count is the same from `start` to `shutdown`, however many
//! connections it has served, one after another or at once. A file of its
//! own: no other test's threads share the process, whose thread count this
//! test reads.
#![cfg(target_os = "linux")]

use mvqoe_metrics::SharedRegistry;
use mvqoe_study::FleetConfig;
use mvqoe_telemetryd::{ServiceState, TelemetryServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Send `GET /query/headline` on `stream` and read the reply to EOF.
fn send_get(mut stream: TcpStream) -> String {
    write!(stream, "GET /query/headline HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw
}

/// The process's thread count, from the `Threads:` line of
/// `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// The thread count once it reads `want`, or whatever it reads after two
/// seconds: a joined thread can stay counted for a moment after its join
/// returns.
fn threads_settled_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let n = threads();
        if n == want || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn the_server_holds_one_thread_per_worker_from_start_to_shutdown() {
    let base = threads();
    let cfg = FleetConfig::scaled(1, 2077, 0.05, 0.005);
    let server =
        TelemetryServer::start(ServiceState::new(cfg, 1, SharedRegistry::new()), 0).expect("bind");
    let addr = server.addr();
    let workers = server.workers();
    assert!(workers >= 2, "{workers} workers");
    assert_eq!(threads(), base + workers, "after start");

    for _ in 0..400 {
        let reply = send_get(TcpStream::connect(addr).expect("connect"));
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }
    assert_eq!(
        threads_settled_at(base + workers),
        base + workers,
        "after 400 sequential requests"
    );

    // A burst of three connections per worker. Each client connects and
    // holds its connection idle while the test counts for a while: a
    // server that spawned a thread per connection would be adding one
    // for each. Then every client sends its request and reads the reply.
    let clients = 3 * workers;
    let connected = Barrier::new(clients + 1);
    let counted = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let stream = TcpStream::connect(addr).expect("connect");
                    connected.wait();
                    counted.wait();
                    send_get(stream)
                })
            })
            .collect();
        connected.wait();
        // Counted before any assertion, so that a failure cannot leave the
        // clients waiting at the barrier.
        let mut seen = Vec::new();
        let until = Instant::now() + Duration::from_millis(200);
        while Instant::now() < until {
            seen.push(threads());
            std::thread::sleep(Duration::from_millis(10));
        }
        counted.wait();
        assert!(
            seen.iter().all(|&n| n == base + workers + clients),
            "with {clients} connections open: {seen:?}, not {}",
            base + workers + clients
        );
        for h in handles {
            let reply = h.join().expect("client thread");
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        }
    });
    assert_eq!(
        threads_settled_at(base + workers),
        base + workers,
        "after the burst"
    );

    server.shutdown();
    assert_eq!(threads_settled_at(base), base, "after shutdown");
}
