//! Reclaim accounting: vmstat counters and the sliding scan/steal window
//! that feeds lmkd's pressure estimate.
//!
//! The paper (§2) gives lmkd's pressure formula as `P = (1 − R/S) · 100`
//! over the kernel's recent reclaim activity, where `S` is pages scanned and
//! `R` pages actually reclaimed. When most scanned pages can be reclaimed
//! P stays low; when the LRU is down to hot, unreclaimable pages P climbs —
//! at `60 < P < 95` cached processes become killable and at `P ≥ 95` the
//! foreground app does.

use mvqoe_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Cumulative memory-management counters (a miniature `/proc/vmstat`).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct VmStat {
    /// Pages scanned by kswapd.
    pub pgscan_kswapd: u64,
    /// Pages scanned by direct reclaim.
    pub pgscan_direct: u64,
    /// Pages reclaimed by kswapd.
    pub pgsteal_kswapd: u64,
    /// Pages reclaimed by direct reclaim.
    pub pgsteal_direct: u64,
    /// Minor faults served by zRAM decompression (swap-ins).
    pub pgfault_zram: u64,
    /// Major faults requiring a disk read.
    pub pgfault_major: u64,
    /// Pages compressed into zRAM.
    pub zram_stores: u64,
    /// Dirty file pages submitted for writeback during reclaim.
    pub writeback: u64,
    /// Processes killed by lmkd.
    pub lmkd_kills: u64,
    /// Processes killed by the kernel OOM path.
    pub oom_kills: u64,
    /// File pages refaulted soon after eviction (the thrashing signal).
    pub refaults: u64,
    /// kswapd reclaim batches run (each one a `kswapd_batch` pass).
    pub kswapd_batches: u64,
    /// Direct-reclaim passes that actually scanned (allocation-path stalls).
    pub direct_reclaims: u64,
}

impl VmStat {
    /// Total pages scanned by any reclaim path.
    pub fn scanned(&self) -> u64 {
        self.pgscan_kswapd + self.pgscan_direct
    }

    /// Total pages reclaimed by any path.
    pub fn stolen(&self) -> u64 {
        self.pgsteal_kswapd + self.pgsteal_direct
    }
}

/// What one reclaim pass did, and what it costs the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReclaimStats {
    /// Pages scanned.
    pub scanned: u64,
    /// Pages actually freed (net of zRAM physical growth).
    pub reclaimed: u64,
    /// CPU to charge the reclaiming thread, µs at reference speed.
    pub cpu_us: f64,
    /// Dirty pages submitted to the disk write queue.
    pub writeback_pages: u64,
}

impl ReclaimStats {
    /// Merge another pass's stats into this one.
    pub fn absorb(&mut self, other: ReclaimStats) {
        self.scanned += other.scanned;
        self.reclaimed += other.reclaimed;
        self.cpu_us += other.cpu_us;
        self.writeback_pages += other.writeback_pages;
    }

    /// True if the pass freed anything.
    pub fn made_progress(&self) -> bool {
        self.reclaimed > 0
    }
}

/// Sliding window of scan/steal counts, bucketed by time, from which the
/// instantaneous pressure `P` is computed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PressureWindow {
    bucket_us: u64,
    n_buckets: usize,
    /// (bucket index, scanned, stolen)
    buckets: Vec<(u64, u64, u64)>,
}

impl PressureWindow {
    /// A window covering `window_us`, split into ten buckets.
    pub fn new(window_us: u64) -> PressureWindow {
        let mut window = PressureWindow {
            bucket_us: 0,
            n_buckets: 0,
            buckets: Vec::new(),
        };
        window.reset(window_us);
        window
    }

    /// Empty the window and resize it to cover `window_us`, keeping the
    /// bucket buffer: afterwards it equals `PressureWindow::new(window_us)`.
    pub fn reset(&mut self, window_us: u64) {
        self.n_buckets = 10;
        self.bucket_us = (window_us / self.n_buckets as u64).max(1);
        self.buckets.clear();
        // `note` holds at most the current bucket plus the n−1 before it,
        // and pushes before it evicts.
        self.buckets.reserve_exact(self.n_buckets + 1);
    }

    fn bucket_of(&self, now: SimTime) -> u64 {
        now.as_micros() / self.bucket_us
    }

    /// Record reclaim activity at `now`.
    pub fn note(&mut self, now: SimTime, scanned: u64, stolen: u64) {
        if scanned == 0 && stolen == 0 {
            return;
        }
        let b = self.bucket_of(now);
        match self.buckets.last_mut() {
            Some(last) if last.0 == b => {
                last.1 += scanned;
                last.2 += stolen;
            }
            _ => self.buckets.push((b, scanned, stolen)),
        }
        // Evict buckets older than the window (keep the current bucket and
        // the n−1 preceding ones).
        let n = self.n_buckets as u64;
        self.buckets.retain(|&(idx, _, _)| idx + n > b);
    }

    /// Total (scanned, stolen) within the window ending at `now`.
    pub fn totals(&self, now: SimTime) -> (u64, u64) {
        let b = self.bucket_of(now);
        let n = self.n_buckets as u64;
        self.buckets
            .iter()
            .filter(|&&(idx, _, _)| idx + n > b)
            .fold((0, 0), |(s, r), &(_, sc, st)| (s + sc, r + st))
    }

    /// The paper's pressure estimate `P = (1 − R/S) · 100`, or `None` when
    /// fewer than `min_scanned` pages were scanned in the window (reclaim
    /// idle ⇒ no meaningful pressure reading).
    pub fn pressure(&self, now: SimTime, min_scanned: u64) -> Option<f64> {
        let (scanned, stolen) = self.totals(now);
        if scanned < min_scanned.max(1) {
            return None;
        }
        let ratio = stolen as f64 / scanned as f64;
        Some(((1.0 - ratio) * 100.0).clamp(0.0, 100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pressure_formula_matches_paper() {
        let mut w = PressureWindow::new(1_000_000);
        // Scan 1000, steal 400 → P = 60.
        w.note(t(10), 1000, 400);
        let p = w.pressure(t(20), 64).unwrap();
        assert!((p - 60.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_none_when_idle() {
        let w = PressureWindow::new(1_000_000);
        assert_eq!(w.pressure(t(100), 64), None);
        let mut w2 = PressureWindow::new(1_000_000);
        w2.note(t(10), 10, 10); // below min_scanned
        assert_eq!(w2.pressure(t(20), 64), None);
    }

    #[test]
    fn window_forgets_old_activity() {
        let mut w = PressureWindow::new(1_000_000);
        w.note(t(0), 10_000, 0); // would be P = 100
                                 // 2 s later the window has rolled past it.
        assert_eq!(w.pressure(t(2_000), 64), None);
    }

    #[test]
    fn window_accumulates_within_span() {
        let mut w = PressureWindow::new(1_000_000);
        w.note(t(100), 500, 500);
        w.note(t(500), 500, 0);
        let p = w.pressure(t(900), 64).unwrap();
        assert!((p - 50.0).abs() < 1e-9);
    }

    #[test]
    fn full_reclaim_is_zero_pressure() {
        let mut w = PressureWindow::new(1_000_000);
        w.note(t(10), 2000, 2000);
        assert_eq!(w.pressure(t(11), 64), Some(0.0));
    }

    #[test]
    fn reclaim_stats_absorb() {
        let mut a = ReclaimStats {
            scanned: 10,
            reclaimed: 5,
            cpu_us: 1.0,
            writeback_pages: 2,
        };
        a.absorb(ReclaimStats {
            scanned: 5,
            reclaimed: 0,
            cpu_us: 0.5,
            writeback_pages: 1,
        });
        assert_eq!(a.scanned, 15);
        assert_eq!(a.reclaimed, 5);
        assert_eq!(a.writeback_pages, 3);
        assert!(a.made_progress());
        assert!(!ReclaimStats::default().made_progress());
    }

    #[test]
    fn vmstat_totals() {
        let v = VmStat {
            pgscan_kswapd: 10,
            pgscan_direct: 5,
            pgsteal_kswapd: 8,
            pgsteal_direct: 2,
            ..Default::default()
        };
        assert_eq!(v.scanned(), 15);
        assert_eq!(v.stolen(), 10);
    }
}
