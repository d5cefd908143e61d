//! A serial link driven by a time-varying [`LinkTrace`].

use crate::trace::LinkTrace;
use mvqoe_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Link parameters: static base values plus an optional trace of typed
/// change-points overriding rate, latency, and loss over time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkParams {
    /// Base rate in Mbit/s. The paper's LAN is fast enough to never
    /// bottleneck (≥ ~80 Mbit/s WiFi to one client).
    pub rate_mbps: f64,
    /// Base one-way propagation latency added to every transfer.
    pub latency: SimDuration,
    /// Base packet-loss probability per transfer; each loss event costs
    /// one retry round-trip (coarse TCP model, for fault injection).
    pub loss_prob: f64,
    /// Time-varying overrides. Empty (the default for the paper's LAN)
    /// keeps the static base values throughout.
    pub trace: LinkTrace,
}

impl LinkParams {
    /// The paper's dedicated WiFi LAN: fast, low latency, lossless.
    pub fn paper_lan() -> LinkParams {
        LinkParams {
            rate_mbps: 120.0,
            latency: SimDuration::from_millis(4),
            loss_prob: 0.0,
            trace: LinkTrace::new(),
        }
    }

    /// A constrained link for ABR experiments.
    pub fn constrained(rate_mbps: f64) -> LinkParams {
        LinkParams {
            rate_mbps,
            latency: SimDuration::from_millis(25),
            loss_prob: 0.0,
            trace: LinkTrace::new(),
        }
    }

    /// Attach a trace to these parameters.
    pub fn with_trace(mut self, trace: LinkTrace) -> LinkParams {
        self.trace = trace;
        self
    }
}

/// The link: one transfer at a time (HTTP/1.1 over one TCP connection, as
/// dash.js uses for sequential segment fetches).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    params: LinkParams,
    busy_until: SimTime,
    bytes_delivered: u64,
}

impl Link {
    /// Create a link.
    pub fn new(params: LinkParams) -> Link {
        Link {
            params,
            busy_until: SimTime::ZERO,
            bytes_delivered: 0,
        }
    }

    /// Rate in effect at time `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.params.trace.rate_at(self.params.rate_mbps, t)
    }

    /// One-way latency in effect at time `t`.
    pub fn latency_at(&self, t: SimTime) -> SimDuration {
        self.params.trace.latency_at(self.params.latency, t)
    }

    /// Loss probability in effect at time `t`.
    pub fn loss_at(&self, t: SimTime) -> f64 {
        self.params.trace.loss_at(self.params.loss_prob, t)
    }

    /// Begin transferring `bytes` at `now`; returns the completion time.
    ///
    /// The transfer is serialized behind any transfer already in flight,
    /// prefixed with the latency in effect when the request leaves, and
    /// integrated exactly across every trace change-point it spans —
    /// however dense the trace. The loss-retry penalty uses the
    /// time-weighted average loss and latency over the transfer, so a
    /// lossy spell mid-transfer costs its fair share of retries.
    pub fn start_transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let queued = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let start = queued + self.latency_at(queued);
        let mut remaining_bits = bytes as f64 * 8.0;
        let mut t = start;
        // Weighted integrals of loss and latency over the transfer's spans,
        // for the retry penalty below.
        let mut loss_integral = 0.0;
        let mut latency_integral = 0.0;
        let mut total_us = 0.0;
        // Exact integration: every iteration either finishes the transfer
        // or advances `t` to the next change-point (strictly later), so
        // the loop terminates after at most one pass over the trace.
        while remaining_bits > 0.0 {
            let rate = self.rate_at(t).max(0.01); // Mbit/s == bit/µs
            let finish_at_rate =
                t + SimDuration::from_micros((remaining_bits / rate).ceil() as u64);
            let span_end = match self.params.trace.next_change_after(t) {
                Some(change) if change < finish_at_rate => change,
                _ => finish_at_rate,
            };
            let span_us = (span_end - t).as_micros() as f64;
            loss_integral += span_us * self.loss_at(t);
            latency_integral += span_us * self.latency_at(t).as_micros() as f64;
            total_us += span_us;
            if span_end == finish_at_rate {
                t = finish_at_rate;
                remaining_bits = 0.0;
            } else {
                remaining_bits -= span_us * rate;
                t = span_end;
            }
        }
        // Loss retries: expected retry cost folded in deterministically.
        let (loss, latency) = if total_us > 0.0 {
            (
                loss_integral / total_us,
                SimDuration::from_micros((latency_integral / total_us) as u64),
            )
        } else {
            (self.loss_at(start), self.latency_at(start))
        };
        if loss > 0.0 {
            let penalty = latency.mul_f64(2.0 * loss / (1.0 - loss).max(0.01));
            t += penalty;
        }
        self.busy_until = t;
        self.bytes_delivered += bytes;
        t
    }

    /// Total bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn static_link(rate_mbps: f64, latency: SimDuration, loss_prob: f64) -> Link {
        Link::new(LinkParams {
            rate_mbps,
            latency,
            loss_prob,
            trace: LinkTrace::new(),
        })
    }

    #[test]
    fn transfer_time_matches_rate() {
        let mut link = static_link(8.0, SimDuration::ZERO, 0.0); // 1 MB/s
        let done = link.start_transfer(t(0), 1_000_000);
        assert_eq!(done, SimTime::from_secs(1));
    }

    #[test]
    fn latency_prefixes_every_transfer() {
        let mut link = static_link(8.0, SimDuration::from_millis(10), 0.0);
        let done = link.start_transfer(t(0), 8_000); // 8 ms of transfer
        assert_eq!(done, t(18));
    }

    #[test]
    fn transfers_serialize() {
        let mut link = static_link(8.0, SimDuration::ZERO, 0.0);
        let first = link.start_transfer(t(0), 1_000_000);
        let second = link.start_transfer(t(0), 1_000_000);
        assert_eq!(second, first + SimDuration::from_secs(1));
    }

    #[test]
    fn rate_trace_applies() {
        let mut link = Link::new(LinkParams {
            rate_mbps: 8.0,
            latency: SimDuration::ZERO,
            loss_prob: 0.0,
            trace: LinkTrace::new().rate(SimTime::from_secs(1), 16.0),
        });
        assert_eq!(link.rate_at(t(0)), 8.0);
        assert_eq!(link.rate_at(SimTime::from_secs(2)), 16.0);
        // 2 MB: first second moves 1 MB at 8 Mbit/s, second half-second the
        // rest at 16 Mbit/s → total 1.5 s.
        let done = link.start_transfer(t(0), 2_000_000);
        assert_eq!(done, SimTime::from_micros(1_500_000));
    }

    #[test]
    fn dense_trace_integrates_exactly() {
        // 100 change-points alternating 8 ↔ 16 Mbit/s every 100 ms. A
        // transfer spanning all of them must integrate every span — the
        // old implementation capped iterations and silently finished the
        // tail at a single rate.
        let mut trace = LinkTrace::new();
        for i in 0..100u64 {
            let r = if i % 2 == 0 { 16.0 } else { 8.0 };
            trace = trace.rate(SimTime::from_millis(100 * (i + 1)), r);
        }
        let mut link = Link::new(LinkParams {
            rate_mbps: 8.0,
            latency: SimDuration::ZERO,
            loss_prob: 0.0,
            trace,
        });
        // Mean rate over any 200 ms pair of spans is 12 Mbit/s. 60 Mbit of
        // data takes exactly 5 s (25 pairs of spans).
        let done = link.start_transfer(t(0), 60_000_000 / 8);
        assert_eq!(done, SimTime::from_secs(5));
    }

    #[test]
    fn latency_change_applies_at_queue_time() {
        // Latency jumps to 50 ms at t=1 s. A transfer entering the queue
        // after the jump pays the new latency.
        let params = LinkParams {
            rate_mbps: 8.0,
            latency: SimDuration::from_millis(10),
            loss_prob: 0.0,
            trace: LinkTrace::new().latency(SimTime::from_secs(1), SimDuration::from_millis(50)),
        };
        let mut link = Link::new(params.clone());
        assert_eq!(link.start_transfer(t(0), 8_000), t(18));
        let mut link = Link::new(params);
        assert_eq!(link.start_transfer(SimTime::from_secs(2), 8_000), SimTime::from_millis(2_058));
    }

    #[test]
    fn loss_spell_mid_transfer_adds_retries() {
        // Same bytes, same rate; the second link turns lossy halfway
        // through the transfer and must finish strictly later.
        let clean = static_link(8.0, SimDuration::from_millis(20), 0.0).start_transfer(t(0), 2_000_000);
        let mut lossy = Link::new(LinkParams {
            rate_mbps: 8.0,
            latency: SimDuration::from_millis(20),
            loss_prob: 0.0,
            trace: LinkTrace::new().loss(SimTime::from_secs(1), 0.3),
        });
        let done = lossy.start_transfer(t(0), 2_000_000);
        assert!(done > clean, "mid-transfer loss spell must cost retries: {done} vs {clean}");
    }

    #[test]
    fn paper_lan_is_fast_enough_for_1080p60() {
        // A 4 s chunk at the top YouTube ladder bitrate (~12 Mbit/s for
        // 1080p60) must download far faster than real time.
        let mut link = Link::new(LinkParams::paper_lan());
        let chunk_bytes = (12.0 * 4.0 / 8.0 * 1e6) as u64;
        let done = link.start_transfer(t(0), chunk_bytes);
        assert!(
            done < SimTime::from_millis(600),
            "4 s chunk must arrive in ≪ 4 s, got {done}"
        );
    }

    #[test]
    fn loss_adds_penalty() {
        let mk = |loss| static_link(8.0, SimDuration::from_millis(20), loss).start_transfer(t(0), 100_000);
        assert!(mk(0.2) > mk(0.0));
    }
}
