//! Live fleet telemetry backend for the §3 study at provider scale.
//!
//! The batch engine (`mvqoe-study`) simulates the fleet and folds it into
//! a [`mvqoe_study::FleetAggregate`] in one process. This crate moves the
//! fold behind a wire: a threaded TCP service ingests newline-delimited
//! JSON device reports ([`DeviceReport`] — 1 Hz memory samples from fleet
//! devices, 1 Hz QoE reports from live video sessions), folds them online
//! into a sharded aggregate ring, and serves
//!
//! * `GET /metrics` — Prometheus text exposition of the full
//!   [`mvqoe_metrics`] registry (fleet counters plus the service's own
//!   ingest/query instrumentation),
//! * `GET /query/headline` — live recruited/kept/hours/in-flight counts,
//! * `GET /query/topk?k=N` — the highest-pressure devices so far,
//! * `GET /query/device/<id>` — one device's live status or folded digest,
//! * `GET /query/attribution` — the fleet-wide blame ledger: rebuffer
//!   time and dropped frames per kernel/network cause.
//!
//! Fleet samples travel run-length coded ([`report`] has an example
//! line): a `Run` frame is one sample plus the number of consecutive
//! seconds that repeat its state, and a `Sample` frame is a run of one.
//! The server records a run's sample `count` times under one shard lock,
//! and rejects, as a parse failure, a run of zero or one that would carry
//! a device past the `(hours × 3600) as u64` samples its `Begin` declared
//! (a `Begin` may declare at most the fleet config's `hours_hi`).
//! Ingest acks and `reports_total` count frames, not device-seconds.
//!
//! The aggregate's merge algebra is associative and order-insensitive over
//! disjoint device sets, so the service's final aggregate is byte-identical
//! to the batch engine's — the invariant `tests/service.rs`,
//! `tests/run_frames.rs` and the `mvqoe serve` experiment pin.
//!
//! Everything is `std`-only (`std::net` + worker threads, hand-rolled
//! HTTP/1.1): the build environment is offline, and the load — a few
//! long-lived ingest streams plus scrapes — doesn't need more.

pub mod http;
pub mod loadgen;
pub mod report;
pub mod server;
pub mod state;

pub use loadgen::{run_fleet_loadgen, run_session_loadgen};
pub use report::{DeviceReport, IngestAck};
pub use server::TelemetryServer;
pub use state::{AttributionEntry, AttributionView, DeviceStatus, Headline, ServiceState, TopEntry};
