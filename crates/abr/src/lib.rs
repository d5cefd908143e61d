//! Adaptive-bitrate (ABR) algorithms.
//!
//! Classic ABR adapts to *network* bottlenecks; the paper's central
//! implication (§6–§7) is that the *device* — memory pressure specifically —
//! must become an input too. This crate provides:
//!
//! * [`FixedAbr`] — pin one representation (the paper's controlled
//!   experiments stream a fixed encoding);
//! * [`BufferBased`] — BBA-style occupancy→bitrate mapping \[27\];
//! * [`ThroughputBased`] — harmonic-throughput rate picking, dash.js style;
//! * [`Bola`] — Lyapunov utility maximization \[35\];
//! * [`Mpc`] — MPC-style lookahead: plan expected QoE over the next N
//!   segments from the manifest's declared sizes and a robust throughput
//!   prediction (Yin et al., SIGCOMM '15 flavor);
//! * [`MemoryAware`] — the adaptation the paper demonstrates in Figs. 16–17:
//!   react to `onTrimMemory` signals by *reducing the encoded frame rate
//!   first* (60 → 48 → 24), then the resolution, and recover cautiously
//!   once pressure clears. It wraps any network ABR, so network and memory
//!   bottlenecks compose;
//! * [`Hybrid`] — the joint-pressure controller: memory pressure degrades
//!   the frame rate (the same cap state machine as [`MemoryAware`]),
//!   network pressure degrades the bitrate (the MPC lookahead, run on the
//!   capped ladder).
//!
//! All algorithms implement [`Abr`] over an [`AbrContext`] snapshot and
//! return a `Representation` from the manifest's ladder.

pub mod bola;
pub mod buffer_based;
pub mod context;
pub mod fixed;
pub mod hybrid;
pub mod memory_aware;
pub mod mpc;
pub mod schedule;
pub mod throughput;

pub use bola::Bola;
pub use buffer_based::BufferBased;
pub use context::{Abr, AbrContext, THROUGHPUT_SAFETY};
pub use fixed::FixedAbr;
pub use hybrid::Hybrid;
pub use memory_aware::MemoryAware;
pub use mpc::Mpc;
pub use schedule::ScheduledFps;
pub use throughput::ThroughputBased;
