//! Lightweight self-profiling of the simulator's own hot paths.
//!
//! The fast-path work (calm-skip fleet stepping, the scheduler's O(cores)
//! select) is designed to make the *slow* paths rare; this module measures
//! how rare. Four phases are instrumented with process-wide atomic
//! counters: call counts and total wall-clock nanoseconds per phase. The
//! experiment drivers expose it behind `--profile` and write the totals
//! into the `.meta.json` sidecar next to each artifact — wall-clock lives
//! with the other nondeterministic run metadata, never in the data JSON.
//!
//! **Cost discipline.** When disabled (the default), a [`span`] is one
//! relaxed atomic load and no timestamp. When enabled, it is two
//! `Instant::now` calls and two relaxed atomic adds. Profiling never feeds
//! back into the simulation: no randomness, no allocation on the hot path,
//! and the simulated outputs are byte-identical with it on or off.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Phases instrumented by the profile-guided hot-path pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The kernel's page-reclaim pass (`MemoryManager::reclaim`).
    KernelReclaim = 0,
    /// A coarse 1 Hz kernel step that could not be calm-skipped.
    CoarseStep = 1,
    /// A scheduler selection that missed the O(cores) fast path.
    SchedSelectSlow = 2,
    /// A fleet user's 1 Hz step on a second that is not quiescent: the
    /// screen is on, a timer or standing-app respawn is due, or free memory
    /// is below the high watermark.
    FleetSlowStep = 3,
}

/// All phases, in sidecar emission order.
pub const PHASES: [Phase; 4] = [
    Phase::KernelReclaim,
    Phase::CoarseStep,
    Phase::SchedSelectSlow,
    Phase::FleetSlowStep,
];

impl Phase {
    /// Stable sidecar name for the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::KernelReclaim => "kernel.reclaim",
            Phase::CoarseStep => "kernel.coarse_step",
            Phase::SchedSelectSlow => "sched.select_slow",
            Phase::FleetSlowStep => "fleet.slow_step",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static NANOS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Whether spans are currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero all phase counters.
pub fn reset() {
    for i in 0..PHASES.len() {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
}

/// An in-flight phase measurement; records on drop. Hold it for the
/// duration of the instrumented scope:
///
/// ```
/// use mvqoe_metrics::selfprof::{self, Phase};
/// let _prof = selfprof::span(Phase::KernelReclaim);
/// // ... the work being measured ...
/// ```
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

/// Start measuring `phase` (no-op unless [`enabled`]).
#[inline]
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        start: if enabled() { Some(Instant::now()) } else { None },
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            CALLS[self.phase as usize].fetch_add(1, Ordering::Relaxed);
            NANOS[self.phase as usize].fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// One phase's totals, as written to the `.meta.json` sidecar.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Stable phase name ([`Phase::name`]).
    pub phase: String,
    /// Times the instrumented scope ran.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent inside it.
    pub total_ns: u64,
}

/// Snapshot every phase (including zero-call ones) in [`PHASES`] order.
pub fn snapshot() -> Vec<PhaseProfile> {
    PHASES
        .iter()
        .map(|&p| PhaseProfile {
            phase: p.name().to_string(),
            calls: CALLS[p as usize].load(Ordering::Relaxed),
            total_ns: NANOS[p as usize].load(Ordering::Relaxed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covering both modes: the enable flag and counters are
    /// process-wide, so splitting this across test fns would race under
    /// the parallel test runner.
    #[test]
    fn spans_record_only_while_enabled() {
        set_enabled(false);
        reset();
        {
            let _s = span(Phase::KernelReclaim);
        }
        assert!(snapshot().iter().all(|p| p.calls == 0 && p.total_ns == 0));

        set_enabled(true);
        {
            let _s = span(Phase::CoarseStep);
        }
        {
            let _s = span(Phase::CoarseStep);
        }
        let snap = snapshot();
        set_enabled(false);
        let coarse = snap
            .iter()
            .find(|p| p.phase == "kernel.coarse_step")
            .unwrap();
        assert_eq!(coarse.calls, 2);
        assert_eq!(snap.len(), PHASES.len());
        assert_eq!(snap[0].phase, "kernel.reclaim");
    }
}
