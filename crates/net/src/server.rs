//! The DASH segment server and client-side throughput estimation.

use crate::link::Link;
use mvqoe_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A served request, as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServedRequest {
    /// Request start.
    pub started_at: SimTime,
    /// Response fully received.
    pub completed_at: SimTime,
    /// Payload size.
    pub bytes: u64,
}

impl ServedRequest {
    /// Delivered goodput in Mbit/s.
    pub fn throughput_mbps(&self) -> f64 {
        let dt = (self.completed_at - self.started_at).as_secs_f64();
        if dt <= 0.0 {
            return f64::INFINITY;
        }
        self.bytes as f64 * 8.0 / dt / 1e6
    }
}

/// Served requests retained for throughput estimation. The harmonic-mean
/// estimator looks at most this far back, so keeping more would only grow
/// memory with session length — a streamed session makes thousands of
/// requests, and the history used to retain every one of them.
pub const HISTORY_WINDOW: usize = 8;

/// An HTTP server (the paper's Apache 2.4.7) in front of a [`Link`].
///
/// Adds a small per-request processing overhead and keeps a bounded
/// history of served requests so ABR algorithms can estimate throughput
/// the way dash.js does (harmonic mean over recent segments).
#[derive(Clone, Serialize, Deserialize)]
pub struct SegmentServer {
    link: Link,
    /// Per-request server-side overhead.
    request_overhead: SimDuration,
    history: Vec<ServedRequest>,
}

impl SegmentServer {
    /// Create a server over the given link.
    pub fn new(link: Link) -> SegmentServer {
        SegmentServer {
            link,
            request_overhead: SimDuration::from_millis(2),
            history: Vec::new(),
        }
    }

    /// Request `bytes`; returns the completion time.
    pub fn request(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let completed = self.link.start_transfer(now, bytes) + self.request_overhead;
        if self.history.len() == HISTORY_WINDOW {
            self.history.remove(0);
        }
        self.history.push(ServedRequest {
            started_at: now,
            completed_at: completed,
            bytes,
        });
        completed
    }

    /// Harmonic-mean throughput of the last `n` requests, Mbit/s — the
    /// estimator throughput-based ABR uses (robust to a single stall).
    /// `n` beyond [`HISTORY_WINDOW`] sees the window's worth of requests.
    pub fn harmonic_throughput_mbps(&self, n: usize) -> Option<f64> {
        let recent: Vec<&ServedRequest> = self.history.iter().rev().take(n).collect();
        if recent.is_empty() {
            return None;
        }
        let sum_inv: f64 = recent.iter().map(|r| 1.0 / r.throughput_mbps()).sum();
        if sum_inv <= 0.0 {
            return None; // all transfers were instantaneous
        }
        Some(recent.len() as f64 / sum_inv)
    }

    /// The most recent served requests (oldest first), bounded by
    /// [`HISTORY_WINDOW`].
    pub fn history(&self) -> &[ServedRequest] {
        &self.history
    }

    /// The underlying link (mutable for fault injection).
    pub fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::trace::LinkTrace;

    fn server(rate_mbps: f64) -> SegmentServer {
        SegmentServer::new(Link::new(LinkParams {
            rate_mbps,
            latency: SimDuration::ZERO,
            loss_prob: 0.0,
            trace: LinkTrace::new(),
        }))
    }

    #[test]
    fn request_returns_completion_after_transfer() {
        let mut s = server(8.0);
        let done = s.request(SimTime::ZERO, 1_000_000);
        // 1 s transfer + 2 ms overhead
        assert_eq!(done, SimTime::from_micros(1_002_000));
        assert_eq!(s.history().len(), 1);
    }

    #[test]
    fn throughput_estimate_tracks_link() {
        let mut s = server(8.0);
        for i in 0..5 {
            s.request(SimTime::from_secs(i * 2), 1_000_000);
        }
        let est = s.harmonic_throughput_mbps(3).unwrap();
        assert!((est - 8.0).abs() < 0.2, "estimate {est}");
    }

    #[test]
    fn harmonic_mean_is_pessimistic_about_stalls() {
        let mut s = server(8.0);
        s.request(SimTime::ZERO, 1_000_000);
        // Second request queued behind the first → halved apparent goodput.
        s.request(SimTime::ZERO, 1_000_000);
        let est = s.harmonic_throughput_mbps(2).unwrap();
        assert!(est < 8.0);
    }

    #[test]
    fn no_history_no_estimate() {
        let s = server(8.0);
        assert_eq!(s.harmonic_throughput_mbps(3), None);
    }

    #[test]
    fn history_stays_bounded_and_estimates_match_unbounded() {
        let mut s = server(8.0);
        // A long session: thousands of requests, far past the window.
        let mut last3 = Vec::new();
        for i in 0..5000u64 {
            s.request(SimTime::from_secs(i * 2), 500_000 + (i % 7) * 10_000);
            last3 = s.history().iter().rev().take(3).cloned().collect();
            assert!(s.history().len() <= HISTORY_WINDOW);
        }
        assert_eq!(s.history().len(), HISTORY_WINDOW);
        // The estimator reads only the most recent requests, so the
        // bounded window yields the exact value the unbounded history did.
        let expected_inv: f64 = last3.iter().map(|r| 1.0 / r.throughput_mbps()).sum();
        assert_eq!(
            s.harmonic_throughput_mbps(3),
            Some(last3.len() as f64 / expected_inv)
        );
    }
}
