//! The threaded TCP front end: a fixed pool of accepting workers, one per
//! available core and at least two. Each worker blocks in `accept` on its
//! own clone of the listener and serves the connection it gets to the end
//! before it accepts the next, so the server holds the same threads from
//! [`TelemetryServer::start`] to [`TelemetryServer::shutdown`] and no
//! request waits on a thread spawn. A connection's first byte picks its
//! protocol — `{` opens a newline-delimited JSON ingest stream (device
//! reports in, applied as each line arrives, one [`IngestAck`] line back
//! at EOF), anything else is parsed as an HTTP request and routed to
//! `/metrics` or the `/query/*` endpoints.
//!
//! Connections beyond the pool wait in the listen backlog until a worker
//! is free. Every client in this repository keeps its streams independent
//! of each other — no stream waits on another connection's reply before
//! it ends — so backlogged connections are served in turn. Every accepted
//! stream reads and writes under [`IO_TIMEOUT`]: a peer that stalls holds
//! its worker that long at most, is dropped, and is counted in
//! `telemetryd.connections_timed_out_total` (registered on the first
//! timeout, so a run without one scrapes the same bytes).
//!
//! The load is a handful of long-lived ingest streams plus occasional
//! scrapes, so blocking `std::net` workers are the right size — no async
//! runtime exists in the offline build environment anyway.

use crate::http::{
    read_line, read_request, respond, Line, Request, APPLICATION_JSON, PROMETHEUS_TEXT,
};
use crate::report::{DeviceReport, IngestAck};
use crate::state::ServiceState;
use mvqoe_study::FleetAggregate;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Flush batched per-connection ingest tallies into the registry every
/// this many lines (and at EOF), so the per-sample path stays off the
/// registry lock.
const INGEST_FLUSH_EVERY: u64 = 1024;

/// The longest a read or a write on an accepted stream may block before
/// the connection is dropped as stalled.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a worker sleeps after `accept` fails (out of descriptors, say)
/// before it tries again, so a persistent error does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A running telemetry service.
pub struct TelemetryServer {
    state: Arc<ServiceState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `127.0.0.1:port` (0 picks an ephemeral port) and start the
    /// worker pool.
    pub fn start(state: ServiceState, port: u16) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let n = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .max(2);
        let listeners = (0..n)
            .map(|_| listener.try_clone())
            .collect::<std::io::Result<Vec<_>>>()?;
        let state = Arc::new(state);
        let stop = Arc::new(AtomicBool::new(false));
        let workers = listeners
            .into_iter()
            .map(|listener| {
                let state = Arc::clone(&state);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || worker(&listener, &state, &stop))
            })
            .collect();
        Ok(TelemetryServer {
            state,
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of connection workers: how many connections are served
    /// at once.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared state, for in-process inspection.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Stop accepting, let every worker finish its connection, and merge
    /// the shards into the final fleet aggregate.
    pub fn shutdown(self) -> FleetAggregate {
        self.stop.store(true, Ordering::SeqCst);
        // One throwaway connection per worker wakes each one blocked in
        // `accept`; a worker busy with a connection sees the flag when it
        // is done, at most `IO_TIMEOUT` after its peer stalls.
        for _ in &self.workers {
            drop(TcpStream::connect(self.addr));
        }
        for h in self.workers {
            let _ = h.join();
        }
        self.state.finalize()
    }
}

fn worker(listener: &TcpListener, state: &ServiceState, stop: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => handle_connection(stream, state),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn handle_connection(stream: TcpStream, state: &ServiceState) {
    state.add_connection();
    // Peer hangups mid-stream are normal (a killed load generator), and
    // there is no one to report an error to; a stall is counted.
    if let Err(e) = serve_connection(stream, state) {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            state.add_timeout();
        }
    }
}

fn serve_connection(stream: TcpStream, state: &ServiceState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut first = [0u8; 1];
    if stream.peek(&mut first)? == 1 && first[0] == b'{' {
        handle_ingest(stream, state)
    } else {
        handle_http(stream, state)
    }
}

/// Drain one NDJSON ingest stream, apply every report, and answer with a
/// one-line [`IngestAck`] once the peer half-closes its write side. The
/// tallies not yet flushed into the registry are flushed however the
/// stream ends.
fn handle_ingest(stream: TcpStream, state: &ServiceState) -> std::io::Result<()> {
    let mut ack = IngestAck::default();
    let mut pending = (0u64, 0u64);
    let read = ingest_frames(&stream, state, &mut ack, &mut pending);
    state.add_ingest(pending.0, pending.1);
    read?;
    let mut line = json_body(&ack)?;
    line.push('\n');
    (&stream).write_all(line.as_bytes())
}

/// Apply every frame of the stream, counting each non-blank line once in
/// `ack` and in the `(accepted, failed)` tallies `pending`, which are
/// flushed every [`INGEST_FLUSH_EVERY`] lines. A line that does not parse
/// (not UTF-8 or JSON, or longer than the line cap), or that the protocol
/// rejects, is one parse failure, and the stream goes on.
fn ingest_frames(
    stream: &TcpStream,
    state: &ServiceState,
    ack: &mut IngestAck,
    pending: &mut (u64, u64),
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let applied = match read_line(&mut reader, &mut line)? {
            Line::Eof => return Ok(()),
            Line::Fits if line.iter().all(u8::is_ascii_whitespace) => continue,
            Line::Fits => serde_json::from_slice::<DeviceReport>(&line)
                .map_err(|e| e.to_string())
                .and_then(|report| state.apply(&report)),
            Line::TooLong => Err("frame too long".to_string()),
        };
        match applied {
            Ok(folded) => {
                ack.accepted += 1;
                ack.folded += folded as u64;
                pending.0 += 1;
            }
            Err(_) => {
                ack.parse_failures += 1;
                pending.1 += 1;
            }
        }
        if pending.0 + pending.1 >= INGEST_FLUSH_EVERY {
            state.add_ingest(pending.0, pending.1);
            *pending = (0, 0);
        }
    }
}

/// Answer one HTTP request and close.
fn handle_http(stream: TcpStream, state: &ServiceState) -> std::io::Result<()> {
    let Some(req) = read_request(&mut BufReader::new(&stream))? else {
        return Ok(());
    };
    let mut writer = BufWriter::new(&stream);
    let started = std::time::Instant::now();
    let endpoint = route(&mut writer, &req, state)?;
    let elapsed_us = started.elapsed().as_micros() as f64;
    state.registry.with(|r| {
        r.add_counter(&format!("telemetryd.http.{endpoint}.requests_total"), 1);
        let h = r.histogram(&format!("telemetryd.http.{endpoint}.latency_us"));
        r.observe(h, elapsed_us);
    });
    Ok(())
}

/// Dispatch one request; returns the endpoint label the latency metrics
/// are filed under.
fn route(writer: &mut impl Write, req: &Request, state: &ServiceState) -> std::io::Result<&'static str> {
    if req.method != "GET" {
        respond(
            writer,
            405,
            "Method Not Allowed",
            APPLICATION_JSON,
            "{\"error\":\"only GET is supported\"}",
        )?;
        return Ok("other");
    }
    match req.route() {
        "/metrics" => {
            let body = state.scrape();
            respond(writer, 200, "OK", PROMETHEUS_TEXT, &body)?;
            Ok("metrics")
        }
        "/query/headline" => {
            let body = json_body(&state.headline())?;
            respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
            Ok("headline")
        }
        "/query/attribution" => {
            let body = json_body(&state.attribution())?;
            respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
            Ok("attribution")
        }
        "/query/topk" => {
            let k = req
                .query("k")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(5);
            let body = json_body(&state.topk(k))?;
            respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
            Ok("topk")
        }
        path => {
            if let Some(id) = path.strip_prefix("/query/device/") {
                match id.parse::<u32>() {
                    Ok(device) => {
                        let body = json_body(&state.device(device))?;
                        respond(writer, 200, "OK", APPLICATION_JSON, &body)?;
                        return Ok("device");
                    }
                    Err(_) => {
                        respond(
                            writer,
                            400,
                            "Bad Request",
                            APPLICATION_JSON,
                            "{\"error\":\"device id must be a u32\"}",
                        )?;
                        return Ok("other");
                    }
                }
            }
            respond(
                writer,
                404,
                "Not Found",
                APPLICATION_JSON,
                "{\"error\":\"no such endpoint\"}",
            )?;
            Ok("other")
        }
    }
}

fn json_body<T: serde::Serialize>(value: &T) -> std::io::Result<String> {
    serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::Other, e.to_string()))
}
