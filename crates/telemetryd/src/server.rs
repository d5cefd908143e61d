//! The threaded TCP front end: one acceptor thread, one worker thread per
//! connection. A connection's first byte picks its protocol — `{` opens a
//! newline-delimited JSON ingest stream (device reports in, one
//! [`IngestAck`] line back at EOF), anything else is parsed as an HTTP
//! request and routed to `/metrics` or the `/query/*` endpoints. The
//! acceptor joins finished connection threads as new connections arrive,
//! so the server holds threads only for the connections in flight.
//!
//! The load is a handful of long-lived ingest streams plus occasional
//! scrapes, so thread-per-connection with `std::net` is the right size —
//! no async runtime exists in the offline build environment anyway.

use crate::http::{
    read_line, read_request, respond, Line, Request, APPLICATION_JSON, PROMETHEUS_TEXT,
};
use crate::report::{DeviceReport, IngestAck};
use crate::state::ServiceState;
use mvqoe_study::FleetAggregate;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Flush batched per-connection ingest tallies into the registry every
/// this many lines (and at EOF), so the per-sample path stays off the
/// registry lock.
const INGEST_FLUSH_EVERY: u64 = 1024;

/// A running telemetry service.
pub struct TelemetryServer {
    state: Arc<ServiceState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `127.0.0.1:port` (0 picks an ephemeral port) and start
    /// accepting connections.
    pub fn start(state: ServiceState, port: u16) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, state, stop))
        };
        Ok(TelemetryServer {
            state,
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Stop accepting, join every in-flight connection, and merge the
    /// shards into the final fleet aggregate.
    pub fn shutdown(mut self) -> FleetAggregate {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.state.finalize()
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServiceState>, stop: Arc<AtomicBool>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Join the connections that have finished, so a long-lived server
        // holds a thread (and its stack) only per connection in flight.
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let _ = workers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || handle_connection(stream, state)));
    }
    for h in workers {
        let _ = h.join();
    }
}

fn handle_connection(stream: TcpStream, state: Arc<ServiceState>) {
    state.add_connection();
    let mut first = [0u8; 1];
    let Ok(n) = stream.peek(&mut first) else { return };
    let result = if n == 1 && first[0] == b'{' {
        handle_ingest(stream, &state)
    } else {
        handle_http(stream, &state)
    };
    // Peer hangups mid-stream are normal (a killed load generator); there
    // is no one to report the error to, so drop it.
    let _ = result;
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
    let mut writer = stream;
    let body = serde_json::to_string(&ack)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::Other, e.to_string()))?;
    writeln!(writer, "{body}")?;
    writer.flush()
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
    let mut reader = BufReader::new(stream.try_clone()?);
    let Some(req) = read_request(&mut reader)? else {
        return Ok(());
    };
    let mut writer = BufWriter::new(stream);
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
