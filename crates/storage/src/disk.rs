//! The eMMC device: pending queue, serial transfer engine, completions.

use mvqoe_sim::{EventQueue, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Identifier for an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IoId(pub u64);

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoKind {
    /// Read from flash into memory (major faults, segment cache misses).
    Read,
    /// Write from memory to flash (reclaim writeback).
    Write,
}

/// One queued I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Identifier.
    pub id: IoId,
    /// Direction.
    pub kind: IoKind,
    /// Number of 4 KiB pages transferred.
    pub pages: u64,
    /// Opaque waiter token: the machine unblocks this thread when the
    /// request completes. Writeback typically has no waiter.
    pub waiter: Option<u64>,
    /// Submission time.
    pub submitted_at: SimTime,
}

/// Transfer-cost parameters.
///
/// Defaults approximate the budget eMMC 4.5/5.0 parts in the paper's
/// devices: ~120 µs command setup, reads ≈ 45 µs/page (~85 MB/s streaming,
/// much worse for scattered 4 KiB faults once setup cost is included),
/// writes ≈ 80 µs/page.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiskParams {
    /// Fixed per-request setup cost, µs.
    pub fixed_us: f64,
    /// Per-page read cost, µs.
    pub read_us_per_page: f64,
    /// Per-page write cost, µs.
    pub write_us_per_page: f64,
    /// Latency multiplier for fault injection (1.0 = nominal).
    pub degrade_factor: f64,
    /// Log-normal service-time spread (σ). eMMC latency is long-tailed.
    pub jitter_sigma: f64,
    /// Probability a request lands during internal flash garbage
    /// collection — the notorious 50–200 ms eMMC write stalls.
    pub gc_pause_prob: f64,
    /// Service-time multiplier during a flash GC pause.
    pub gc_pause_factor: f64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            fixed_us: 120.0,
            read_us_per_page: 45.0,
            write_us_per_page: 80.0,
            degrade_factor: 1.0,
            jitter_sigma: 0.55,
            gc_pause_prob: 0.012,
            gc_pause_factor: 18.0,
        }
    }
}

impl DiskParams {
    /// Nominal (median) device service time for a request.
    pub fn service_time(&self, kind: IoKind, pages: u64) -> SimDuration {
        let per_page = match kind {
            IoKind::Read => self.read_us_per_page,
            IoKind::Write => self.write_us_per_page,
        };
        let us = (self.fixed_us + per_page * pages as f64) * self.degrade_factor;
        SimDuration::from_micros(us.round().max(1.0) as u64)
    }

    /// Sampled service time: nominal × log-normal jitter, with occasional
    /// flash-GC pauses.
    pub fn sample_service_time(
        &self,
        kind: IoKind,
        pages: u64,
        rng: &mut SimRng,
    ) -> SimDuration {
        let nominal = self.service_time(kind, pages).as_micros() as f64;
        // Median 0.85 × lognormal keeps the *mean* near nominal while
        // giving the long right tail real parts exhibit. σ = 0 is exact.
        let mut us = if self.jitter_sigma > 0.0 {
            nominal * rng.lognormal(0.85, self.jitter_sigma)
        } else {
            nominal
        };
        if self.gc_pause_prob > 0.0 && rng.chance(self.gc_pause_prob) {
            us *= self.gc_pause_factor;
        }
        SimDuration::from_micros(us.round().max(1.0) as u64)
    }
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DiskStats {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Total device busy time.
    pub busy: SimDuration,
    /// Max pending-queue depth observed.
    pub max_queue_depth: usize,
}

/// The eMMC device.
#[derive(Clone, Serialize, Deserialize)]
pub struct Disk {
    params: DiskParams,
    /// Requests waiting for mmcqd to dispatch them.
    pending: VecDeque<IoRequest>,
    /// Requests being transferred, keyed by completion time.
    inflight: EventQueue<IoRequest>,
    /// The serial transfer engine is busy until this time.
    busy_until: SimTime,
    next_id: u64,
    stats: DiskStats,
    rng: SimRng,
}

impl Disk {
    /// Create a device with the given parameters (deterministic latency).
    pub fn new(params: DiskParams) -> Disk {
        Disk::with_seed(params, 0x5d15c)
    }

    /// Create a device with a seeded latency-jitter stream.
    pub fn with_seed(params: DiskParams, seed: u64) -> Disk {
        Disk {
            params,
            pending: VecDeque::new(),
            inflight: EventQueue::new(),
            busy_until: SimTime::ZERO,
            next_id: 0,
            stats: DiskStats::default(),
            rng: SimRng::new(seed),
        }
    }

    /// Queue a read of `pages`; `waiter` is unblocked on completion.
    pub fn submit_read(&mut self, now: SimTime, pages: u64, waiter: Option<u64>) -> IoId {
        self.submit(now, IoKind::Read, pages, waiter)
    }

    /// Queue a writeback of `pages` (fire-and-forget).
    pub fn submit_write(&mut self, now: SimTime, pages: u64) -> IoId {
        self.submit(now, IoKind::Write, pages, None)
    }

    fn submit(&mut self, now: SimTime, kind: IoKind, pages: u64, waiter: Option<u64>) -> IoId {
        let id = IoId(self.next_id);
        self.next_id += 1;
        self.pending.push_back(IoRequest {
            id,
            kind,
            pages: pages.max(1),
            waiter,
            submitted_at: now,
        });
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.pending.len());
        id
    }

    /// True if requests are waiting for mmcqd dispatch.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of requests waiting for dispatch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of requests being transferred.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Called when the mmcqd thread has finished the CPU work for the next
    /// pending request: moves it onto the (serial) transfer engine. Returns
    /// the request, or `None` if the queue was empty.
    pub fn dispatch_next(&mut self, now: SimTime) -> Option<IoRequest> {
        let req = self.pending.pop_front()?;
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let service = self
            .params
            .sample_service_time(req.kind, req.pages, &mut self.rng);
        let done = start + service;
        self.busy_until = done;
        self.stats.busy += service;
        self.inflight.push(done, req);
        Some(req)
    }

    /// Collect requests whose transfer finished by `now`.
    pub fn poll(&mut self, now: SimTime) -> Vec<IoRequest> {
        let mut done = Vec::new();
        self.poll_into(now, &mut done);
        done
    }

    /// Collect finished requests into a caller-provided buffer (appending).
    /// The zero-alloc twin of [`Disk::poll`].
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<IoRequest>) {
        while let Some((_, req)) = self.inflight.pop_due(now) {
            match req.kind {
                IoKind::Read => {
                    self.stats.reads += 1;
                    self.stats.pages_read += req.pages;
                }
                IoKind::Write => {
                    self.stats.writes += 1;
                    self.stats.pages_written += req.pages;
                }
            }
            out.push(req);
        }
    }

    /// When the next in-flight request completes, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.inflight.peek_time()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// The parameters in force (mutable for fault injection).
    pub fn params_mut(&mut self) -> &mut DiskParams {
        &mut self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Deterministic parameters for exact-latency assertions.
    fn flat() -> DiskParams {
        DiskParams {
            jitter_sigma: 0.0,
            gc_pause_prob: 0.0,
            ..DiskParams::default()
        }
    }

    #[test]
    fn read_completes_after_service_time() {
        let mut d = Disk::new(flat());
        d.submit_read(t(0), 4, Some(42));
        assert!(d.has_pending());
        let req = d.dispatch_next(t(0)).unwrap();
        assert_eq!(req.waiter, Some(42));
        assert!(!d.has_pending());
        assert_eq!(d.inflight_len(), 1);
        // 120 + 4*45 = 300 µs
        assert!(d.poll(t(299)).is_empty());
        let done = d.poll(t(300));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, req.id);
        assert_eq!(d.stats().pages_read, 4);
    }

    #[test]
    fn serial_engine_queues_transfers() {
        let mut d = Disk::new(flat());
        d.submit_read(t(0), 1, None); // 165 µs
        d.submit_read(t(0), 1, None);
        d.dispatch_next(t(0));
        d.dispatch_next(t(0));
        // Second starts only when the first ends: completes at 330 µs.
        assert_eq!(d.poll(t(165)).len(), 1);
        assert!(d.poll(t(329)).is_empty());
        assert_eq!(d.poll(t(330)).len(), 1);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let p = DiskParams::default();
        assert!(p.service_time(IoKind::Write, 8) > p.service_time(IoKind::Read, 8));
    }

    #[test]
    fn degrade_factor_injects_latency() {
        let mut p = DiskParams::default();
        let nominal = p.service_time(IoKind::Read, 8);
        p.degrade_factor = 3.0;
        assert_eq!(p.service_time(IoKind::Read, 8).as_micros(), nominal.as_micros() * 3);
    }

    #[test]
    fn dispatch_on_empty_queue_is_none() {
        let mut d = Disk::new(flat());
        assert!(d.dispatch_next(t(0)).is_none());
        assert!(d.poll(t(1000)).is_empty());
        assert_eq!(d.next_completion(), None);
    }

    #[test]
    fn zero_page_request_is_clamped() {
        let mut d = Disk::new(flat());
        d.submit_write(t(0), 0);
        let req = d.dispatch_next(t(0)).unwrap();
        assert_eq!(req.pages, 1);
    }

    #[test]
    fn stats_track_depth_and_busy() {
        let mut d = Disk::new(flat());
        for _ in 0..5 {
            d.submit_write(t(0), 2);
        }
        assert_eq!(d.stats().max_queue_depth, 5);
        while d.has_pending() {
            d.dispatch_next(t(0));
        }
        let done = d.poll(t(10_000_000));
        assert_eq!(done.len(), 5);
        assert_eq!(d.stats().writes, 5);
        assert_eq!(d.stats().pages_written, 10);
        assert!(d.stats().busy > SimDuration::ZERO);
    }
}
