//! The memory manager: one device's physical memory, its processes, zRAM,
//! reclaim and kill machinery.
//!
//! [`MemoryManager`] is a *pure state machine*: callers invoke operations
//! (allocate, touch, reclaim batch, kill) and receive the CPU time and disk
//! I/O those operations would cost on real hardware. The device machine in
//! `mvqoe-device` charges the costs to simulated threads; the coarse fleet
//! stepper in [`crate::coarse`] folds them into per-second dynamics.
//!
//! The mechanism chain the paper roots its findings in is implemented here
//! end-to-end:
//!
//! 1. allocations push `free` below the low watermark → kswapd batches scan
//!    the LRU coldest-first, dropping clean file pages and compressing
//!    anonymous pages into zRAM;
//! 2. evicted-but-hot pages refault — zRAM swap-ins cost the *faulting*
//!    thread CPU, evicted file pages cost a disk read through mmcqd;
//! 3. when scanning stops yielding reclaim, `P = (1 − R/S) · 100` climbs;
//!    past 60 lmkd kills cached apps (shrinking the LRU that drives trim
//!    signals), and past 95 it kills the foreground video client.
//!
//! # Process arena
//!
//! Process records live in a slab: `procs` holds the record slots,
//! `free_slots` the recyclable ones, and `slot_of[pid]` maps each id ever
//! issued to its slot (or a retired marker once killed). Ids stay the
//! monotone spawn sequence they always were — an id is never reused, so the
//! id doubles as its own generation — while the record vector stays at
//! live-process size no matter how much spawn/kill churn a multi-day fleet
//! run generates. Aggregates the 1 Hz fleet sample needs (cached file
//! total, cached-LRU count) are maintained incrementally so sampling is
//! O(1) instead of a scan over every process that ever lived.

use crate::config::MemConfig;
use crate::lmkd::{select_victim, KillBand};
use crate::pages::Pages;
use crate::process::{MemProcess, OomAdj, ProcKind, ProcName, ProcessId, TOMBSTONE};
use crate::reclaim::{PressureWindow, ReclaimStats, VmStat};
use crate::trim::TrimLevel;
use crate::zram::Zram;
use mvqoe_metrics::selfprof;
use mvqoe_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Marker in `slot_of` for a pid whose record slot has been recycled.
const RETIRED: u32 = u32::MAX;

/// Why a process died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KillSource {
    /// Killed by the low-memory killer daemon.
    Lmkd,
    /// Killed by the kernel OOM path (allocation could not be satisfied).
    OomKiller,
    /// Exited normally (user closed it / workload rotation).
    Exit,
}

/// Events the manager emits for tracing and signal delivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MemEvent {
    /// The `onTrimMemory` level changed. A change *into* a pressure level is
    /// what the paper counts as a "memory pressure signal".
    TrimChanged {
        /// Previous level.
        from: TrimLevel,
        /// New level.
        to: TrimLevel,
    },
    /// A process died.
    Killed {
        /// Victim pid.
        pid: ProcessId,
        /// Victim name.
        name: String,
        /// Victim class at time of death.
        kind: ProcKind,
        /// Who killed it.
        source: KillSource,
        /// Pages returned to the free pool.
        freed: Pages,
    },
    /// An allocation could not be satisfied even by direct reclaim.
    OutOfMemory {
        /// The allocating process.
        pid: ProcessId,
        /// Pages still missing.
        short: Pages,
    },
}

/// Result of an anonymous allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocOutcome {
    /// Pages actually granted (== request unless OOM).
    pub granted: Pages,
    /// CPU the allocating thread must burn (direct-reclaim work), µs at
    /// reference speed.
    pub cpu_us: f64,
    /// Dirty pages the fault path submitted for writeback.
    pub writeback_pages: u64,
    /// True if the allocation entered direct reclaim (a stall the paper's
    /// §2 calls out as hitting even the UI thread).
    pub direct_reclaim: bool,
    /// True if the request could not be fully satisfied.
    pub oom: bool,
}

/// Result of touching (using) resident or evicted pages.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TouchOutcome {
    /// CPU the touching thread must burn (decompression + fault overhead +
    /// any direct reclaim), µs at reference speed.
    pub cpu_us: f64,
    /// Pages that must be read from disk (major faults) before the touch
    /// completes; the thread blocks on these.
    pub disk_read_pages: u64,
    /// Dirty pages submitted for writeback by direct reclaim on this path.
    pub writeback_pages: u64,
    /// Pages decompressed from zRAM (minor faults).
    pub zram_swapins: u64,
}

impl TouchOutcome {
    /// True if the touch hit only resident pages.
    pub fn was_free(&self) -> bool {
        self.cpu_us == 0.0 && self.disk_read_pages == 0
    }
}

/// One device's memory subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryManager {
    cfg: MemConfig,
    /// Record slots. Freed slots hold zeroed dead tombstones until reused.
    procs: Vec<MemProcess>,
    /// Recyclable slots (LIFO).
    free_slots: Vec<u32>,
    /// pid → slot, [`RETIRED`] once the process was killed and its slot
    /// recycled. One entry per pid ever issued.
    slot_of: Vec<u32>,
    /// Next pid to issue (the count of spawns ever).
    next_pid: u32,
    free: Pages,
    zram: Zram,
    vm: VmStat,
    window: PressureWindow,
    trim: TrimLevel,
    events: Vec<(SimTime, MemEvent)>,
    /// When false, events are not recorded (and kill skips materializing
    /// the victim's name). The fleet stepper never reads events; with
    /// recording off its per-second loop stays allocation-free.
    record_events: bool,
    /// kswapd backs off until this time after a fruitless batch.
    kswapd_backoff_until: SimTime,
    /// Incremental Σ `file_resident` over live processes (the O(1) source
    /// for `available()` / `utilization_pct()`).
    file_resident_total: Pages,
    /// Incremental count of live cached/empty processes (the O(1) source
    /// for trim levels and `cached_proc_count()`).
    cached_count: u32,
    /// Live slots bucketed by reclaim coldness (index =
    /// [`ProcKind::reclaim_order`]), each bucket ascending by pid.
    /// Concatenated coldest-first these are exactly kswapd's scan order,
    /// maintained incrementally on spawn / kill / `set_kind` so `reclaim`
    /// walks the population directly instead of re-sorting it every pass.
    scan_buckets: Vec<Vec<u32>>,
}

/// Number of distinct [`ProcKind::reclaim_order`] values (bucket count).
const SCAN_BUCKETS: usize = 7;

impl MemoryManager {
    /// Create a manager with all usable memory free.
    pub fn new(cfg: MemConfig) -> MemoryManager {
        // Placeholders only: `reset` sets every field.
        let mut mm = MemoryManager {
            cfg: cfg.clone(),
            procs: Vec::new(),
            free_slots: Vec::new(),
            slot_of: Vec::new(),
            next_pid: 0,
            free: Pages::ZERO,
            zram: Zram::new(Pages::ZERO, 1.0),
            vm: VmStat::default(),
            window: PressureWindow::new(0),
            trim: TrimLevel::Normal,
            events: Vec::new(),
            record_events: true,
            kswapd_backoff_until: SimTime::ZERO,
            file_resident_total: Pages::ZERO,
            cached_count: 0,
            scan_buckets: Vec::new(),
        };
        mm.reset(cfg);
        mm
    }

    /// Return to exactly the state `MemoryManager::new(cfg)` builds: all
    /// usable memory free, no process ever spawned, event recording on.
    /// Every buffer keeps its capacity, so a recycled manager repopulates
    /// without allocating.
    pub fn reset(&mut self, cfg: MemConfig) {
        self.free = cfg.usable();
        self.zram = Zram::new(cfg.zram_capacity, cfg.zram_ratio);
        self.window.reset(cfg.lmkd.window_us);
        self.cfg = cfg;
        self.procs.clear();
        self.free_slots.clear();
        self.slot_of.clear();
        self.next_pid = 0;
        self.vm = VmStat::default();
        self.trim = TrimLevel::Normal;
        self.events.clear();
        self.record_events = true;
        self.kswapd_backoff_until = SimTime::ZERO;
        self.file_resident_total = Pages::ZERO;
        self.cached_count = 0;
        self.scan_buckets.resize_with(SCAN_BUCKETS, Vec::new);
        for bucket in &mut self.scan_buckets {
            bucket.clear();
        }
    }

    /// Disable (or re-enable) event recording. Trim levels, kill behaviour
    /// and all accounting are unaffected; only the event log stops growing.
    /// Bulk fleet runs, which never read the log, run with recording off.
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// Pre-size the arena for `extra` future spawns so the per-spawn
    /// bookkeeping (`slot_of` push, worst-case record push, scan-bucket
    /// insert) cannot reallocate inside an allocation-counted window.
    pub fn reserve_spawns(&mut self, extra: usize) {
        self.slot_of.reserve(extra);
        self.procs.reserve(extra);
        self.free_slots.reserve(extra);
        for bucket in &mut self.scan_buckets {
            bucket.reserve(extra);
        }
    }

    /// Slot of a live pid, `None` once retired. Panics (like the historical
    /// direct index) if `pid` was never issued.
    #[inline]
    fn live_slot(&self, pid: ProcessId) -> Option<usize> {
        let s = self.slot_of[pid.0 as usize];
        (s != RETIRED).then_some(s as usize)
    }

    /// Drop `pid` from the scan bucket of its (still-current) `kind`.
    fn bucket_remove(&mut self, kind: ProcKind, pid: ProcessId) {
        let procs = &self.procs;
        let bucket = &mut self.scan_buckets[kind.reclaim_order() as usize];
        if let Ok(pos) = bucket.binary_search_by(|&s| procs[s as usize].id.cmp(&pid)) {
            bucket.remove(pos);
        }
    }

    /// Insert `slot` (holding `pid`) into `kind`'s scan bucket, keeping it
    /// pid-ascending.
    fn bucket_insert(&mut self, kind: ProcKind, pid: ProcessId, slot: u32) {
        let procs = &self.procs;
        let bucket = &mut self.scan_buckets[kind.reclaim_order() as usize];
        let pos = bucket
            .binary_search_by(|&s| procs[s as usize].id.cmp(&pid))
            .unwrap_err();
        bucket.insert(pos, slot);
    }

    // ---------------------------------------------------------------------
    // Process lifecycle
    // ---------------------------------------------------------------------

    /// Spawn an empty process.
    pub fn spawn(&mut self, now: SimTime, name: impl Into<ProcName>, kind: ProcKind) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let rec = MemProcess::new(pid, name, kind);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.procs[s as usize] = rec;
                s
            }
            None => {
                self.procs.push(rec);
                (self.procs.len() - 1) as u32
            }
        };
        self.slot_of.push(slot);
        // Pids are monotone, so pushing keeps the bucket pid-ascending.
        self.scan_buckets[kind.reclaim_order() as usize].push(slot);
        if kind.counts_as_cached() {
            self.cached_count += 1;
        }
        self.recompute_trim(now);
        pid
    }

    /// Spawn a process and immediately give it a footprint: `anon` anonymous
    /// pages, a file working set of `file_ws` of which `file_resident` start
    /// resident, with `file_share` of the file pages shared.
    pub fn spawn_sized(
        &mut self,
        now: SimTime,
        name: impl Into<ProcName>,
        kind: ProcKind,
        anon: Pages,
        file_ws: Pages,
        file_resident: Pages,
        file_share: f64,
    ) -> (ProcessId, AllocOutcome) {
        let pid = self.spawn(now, name, kind);
        let file_resident = file_resident.min(file_ws);
        let mut outcome = self.alloc_anon(now, pid, anon);
        // Bring the file pages in as if faulted during startup.
        let need = file_resident;
        let extra = self.ensure_free(now, pid, need);
        outcome.cpu_us += extra.cpu_us;
        outcome.writeback_pages += extra.writeback_pages;
        outcome.direct_reclaim |= extra.made_progress() || extra.scanned > 0;
        let grant = need.min(self.free.saturating_sub(self.cfg.watermark_min));
        let slot = self.slot_of[pid.0 as usize] as usize;
        let p = &mut self.procs[slot];
        p.file_ws = file_ws;
        p.file_resident = grant;
        p.file_share = file_share;
        self.free -= grant;
        self.file_resident_total += grant;
        if grant < need {
            outcome.oom = true;
            if self.record_events {
                self.events.push((
                    now,
                    MemEvent::OutOfMemory {
                        pid,
                        short: need - grant,
                    },
                ));
            }
        }
        (pid, outcome)
    }

    /// Kill a process, returning its memory to the free pool. The record
    /// slot is recycled; the pid resolves to a dead tombstone from now on.
    pub fn kill(&mut self, now: SimTime, pid: ProcessId, source: KillSource) -> Pages {
        let Some(slot) = self.live_slot(pid) else {
            return Pages::ZERO;
        };
        let p = &mut self.procs[slot];
        if p.dead {
            return Pages::ZERO;
        }
        p.dead = true;
        let kind = p.kind;
        let resident = p.anon_resident + p.file_resident;
        let in_zram = p.anon_in_zram;
        self.file_resident_total -= p.file_resident;
        p.anon_resident = Pages::ZERO;
        p.anon_in_zram = Pages::ZERO;
        p.file_resident = Pages::ZERO;
        p.file_ws = Pages::ZERO;
        p.file_share = 0.0;
        p.floor_anon = Pages::ZERO;
        p.floor_file = Pages::ZERO;
        let name = if self.record_events {
            self.procs[slot].name.to_string()
        } else {
            String::new()
        };
        let zram_physical = self.zram.release(in_zram);
        let freed = resident + zram_physical;
        self.free += freed;
        if kind.counts_as_cached() {
            self.cached_count -= 1;
        }
        // Retire the pid and recycle the slot. The tombstone left behind is
        // dead and zeroed, exactly like a killed record used to look.
        self.bucket_remove(kind, pid);
        self.procs[slot].name = ProcName::Static("<dead>");
        self.slot_of[pid.0 as usize] = RETIRED;
        self.free_slots.push(slot as u32);
        match source {
            KillSource::Lmkd => self.vm.lmkd_kills += 1,
            KillSource::OomKiller => self.vm.oom_kills += 1,
            KillSource::Exit => {}
        }
        if self.record_events {
            self.events.push((
                now,
                MemEvent::Killed {
                    pid,
                    name,
                    kind,
                    source,
                    freed,
                },
            ));
        }
        self.recompute_trim(now);
        freed
    }

    /// Change a process's priority class (e.g. app moves to background).
    /// No-op on a retired pid (the process is already gone).
    pub fn set_kind(&mut self, now: SimTime, pid: ProcessId, kind: ProcKind) {
        let Some(slot) = self.live_slot(pid) else {
            return;
        };
        let p = &mut self.procs[slot];
        let old = p.kind;
        let was_cached = old.counts_as_cached();
        p.kind = kind;
        p.oom_adj = kind.default_oom_adj();
        if old.reclaim_order() != kind.reclaim_order() {
            self.bucket_remove(old, pid);
            self.bucket_insert(kind, pid, slot as u32);
        }
        match (was_cached, kind.counts_as_cached()) {
            (false, true) => self.cached_count += 1,
            (true, false) => self.cached_count -= 1,
            _ => {}
        }
        self.recompute_trim(now);
    }

    /// Override a process's `oom_adj` score.
    pub fn set_oom_adj(&mut self, pid: ProcessId, adj: OomAdj) {
        if let Some(slot) = self.live_slot(pid) {
            self.procs[slot].oom_adj = adj;
        }
    }

    /// Set the hot working-set floors reclaim cannot steal below: pages the
    /// process is actively referencing (e.g. in-flight decode buffers).
    pub fn set_floor(&mut self, pid: ProcessId, anon: Pages, file: Pages) {
        if let Some(slot) = self.live_slot(pid) {
            self.procs[slot].floor_anon = anon;
            self.procs[slot].floor_file = file;
        }
    }

    // ---------------------------------------------------------------------
    // Allocation and touching
    // ---------------------------------------------------------------------

    /// Allocate anonymous pages for `pid`, entering direct reclaim if free
    /// memory is below the min watermark.
    pub fn alloc_anon(&mut self, now: SimTime, pid: ProcessId, want: Pages) -> AllocOutcome {
        if want.is_zero() {
            return AllocOutcome::default();
        }
        let Some(slot) = self.live_slot(pid) else {
            return AllocOutcome::default();
        };
        let reclaim = self.ensure_free(now, pid, want);
        let grant = want.min(
            self.free
                .saturating_sub(self.cfg.watermark_min.mul_f64(0.25)),
        );
        self.free -= grant;
        self.procs[slot].anon_resident += grant;
        let oom = grant < want;
        if oom && self.record_events {
            self.events.push((
                now,
                MemEvent::OutOfMemory {
                    pid,
                    short: want - grant,
                },
            ));
        }
        AllocOutcome {
            granted: grant,
            cpu_us: reclaim.cpu_us,
            writeback_pages: reclaim.writeback_pages,
            direct_reclaim: reclaim.scanned > 0,
            oom,
        }
    }

    /// Release anonymous pages (resident first, then zRAM slots).
    pub fn free_anon(&mut self, _now: SimTime, pid: ProcessId, n: Pages) {
        let Some(slot) = self.live_slot(pid) else {
            return;
        };
        let p = &mut self.procs[slot];
        let from_resident = n.min(p.anon_resident);
        p.anon_resident -= from_resident;
        self.free += from_resident;
        let from_zram = (n - from_resident).min(p.anon_in_zram);
        if !from_zram.is_zero() {
            p.anon_in_zram -= from_zram;
            let physical = self.zram.release(from_zram);
            self.free += physical;
        }
    }

    /// Touch `touched` anonymous pages of `pid`'s working set. Pages that
    /// were compressed to zRAM fault back in at a CPU cost charged to the
    /// toucher; bringing them resident may itself trigger direct reclaim.
    pub fn touch_anon(&mut self, now: SimTime, pid: ProcessId, touched: Pages) -> TouchOutcome {
        let Some(slot) = self.live_slot(pid) else {
            return TouchOutcome::default();
        };
        let p = &self.procs[slot];
        // Fully-resident working sets (the common case on the 1 Hz fleet
        // path) fault nothing back in; skip the ratio math entirely.
        if p.anon_in_zram.is_zero() {
            return TouchOutcome::default();
        }
        let total = p.anon_total();
        if total.is_zero() || touched.is_zero() {
            return TouchOutcome::default();
        }
        let zram_frac = p.anon_in_zram.count() as f64 / total.count() as f64;
        let faulting = touched.min(total).mul_f64(zram_frac).min(p.anon_in_zram);
        if faulting.is_zero() {
            return TouchOutcome::default();
        }
        let reclaim = self.ensure_free(now, pid, faulting);
        let grant = faulting.min(
            self.free
                .saturating_sub(self.cfg.watermark_min.mul_f64(0.25)),
        );
        // Swap the granted pages back in.
        self.free -= grant;
        let physical_back = self.zram.release(grant);
        self.free += physical_back;
        let slot = self.slot_of[pid.0 as usize] as usize;
        let p = &mut self.procs[slot];
        p.anon_in_zram -= grant;
        p.anon_resident += grant;
        self.vm.pgfault_zram += grant.count();
        TouchOutcome {
            cpu_us: self.cfg.costs.swap_in_us(grant.count()) + reclaim.cpu_us,
            disk_read_pages: 0,
            writeback_pages: reclaim.writeback_pages,
            zram_swapins: grant.count(),
        }
    }

    /// Touch `touched` file-backed pages of `pid`'s working set. Evicted
    /// pages major-fault: the toucher pays fault CPU and must wait for a
    /// disk read of `disk_read_pages` (issued through mmcqd by the caller).
    pub fn touch_file(&mut self, now: SimTime, pid: ProcessId, touched: Pages) -> TouchOutcome {
        let Some(slot) = self.live_slot(pid) else {
            return TouchOutcome::default();
        };
        let p = &self.procs[slot];
        if p.file_ws.is_zero() || touched.is_zero() {
            return TouchOutcome::default();
        }
        let resident_frac = p.file_resident.count() as f64 / p.file_ws.count() as f64;
        let missing = touched
            .min(p.file_ws)
            .mul_f64(1.0 - resident_frac)
            .min(p.file_ws - p.file_resident);
        if missing.is_zero() {
            return TouchOutcome::default();
        }
        let reclaim = self.ensure_free(now, pid, missing);
        let grant = missing.min(
            self.free
                .saturating_sub(self.cfg.watermark_min.mul_f64(0.25)),
        );
        self.free -= grant;
        self.file_resident_total += grant;
        let slot = self.slot_of[pid.0 as usize] as usize;
        let p = &mut self.procs[slot];
        p.file_resident += grant;
        self.vm.pgfault_major += grant.count();
        self.vm.refaults += grant.count();
        TouchOutcome {
            cpu_us: self.cfg.costs.major_fault_cpu_us(grant.count()) + reclaim.cpu_us,
            disk_read_pages: grant.count(),
            writeback_pages: reclaim.writeback_pages,
            zram_swapins: 0,
        }
    }

    // ---------------------------------------------------------------------
    // kswapd
    // ---------------------------------------------------------------------

    /// True when kswapd should be running: free memory below the low
    /// watermark and not in post-fruitless-batch backoff.
    pub fn kswapd_needed(&self, now: SimTime) -> bool {
        self.free < self.cfg.watermark_low && now >= self.kswapd_backoff_until
    }

    /// True when kswapd has restored free memory to the high watermark.
    pub fn kswapd_target_met(&self) -> bool {
        self.free >= self.cfg.watermark_high
    }

    /// When kswapd's post-fruitless-batch backoff ends. Together with
    /// [`MemoryManager::kswapd_needed`] this lets an event-driven caller
    /// compute the next instant kswapd could act without stepping to it.
    pub fn kswapd_backoff_until(&self) -> SimTime {
        self.kswapd_backoff_until
    }

    /// Run one kswapd reclaim batch. The returned stats carry the CPU the
    /// caller must charge to the kswapd thread and any writeback I/O to
    /// enqueue. A fruitless batch puts kswapd into a 100 ms backoff.
    pub fn kswapd_batch(&mut self, now: SimTime) -> ReclaimStats {
        let target = self.cfg.watermark_high;
        let budget = self.cfg.kswapd_batch;
        self.vm.kswapd_batches += 1;
        let mut stats = self.reclaim(now, target, budget, false);
        stats.cpu_us += self.cfg.costs.kswapd_wakeup_us;
        if !stats.made_progress() && !self.kswapd_target_met() {
            self.kswapd_backoff_until = now + mvqoe_sim::SimDuration::from_millis(100);
        }
        stats
    }

    // ---------------------------------------------------------------------
    // lmkd
    // ---------------------------------------------------------------------

    /// Current pressure estimate `P = (1 − R/S) · 100` over the sliding
    /// window, or `None` when reclaim has been idle.
    pub fn pressure(&self, now: SimTime) -> Option<f64> {
        self.window.pressure(now, self.cfg.lmkd.min_scanned)
    }

    /// The kill band the current pressure puts the device in.
    pub fn kill_band(&self, now: SimTime) -> KillBand {
        KillBand::from_pressure(self.pressure(now), &self.cfg.lmkd)
    }

    /// The process lmkd would kill right now, if any. The caller charges
    /// lmkd's CPU and then calls [`MemoryManager::kill`].
    ///
    /// Kills require both a high pressure estimate *and* an actual free-
    /// memory shortage: the PSI window looks backward up to a second, so
    /// without the free-page gate lmkd would keep killing right past the
    /// relief its previous victim just provided.
    pub fn lmkd_victim(&self, now: SimTime) -> Option<ProcessId> {
        if self.free >= self.cfg.watermark_low {
            return None;
        }
        self.lmkd_victim_ungated(now)
    }

    /// Victim selection by pressure band alone, without the free-page gate.
    /// Used by the coarse stepper, which applies reclaim and kill decisions
    /// within one step and supplies its own pre-reclaim tightness check.
    pub fn lmkd_victim_ungated(&self, now: SimTime) -> Option<ProcessId> {
        select_victim(self.procs.iter(), self.kill_band(now)).map(|p| p.id)
    }

    // ---------------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------------

    /// Free pages.
    pub fn free(&self) -> Pages {
        self.free
    }

    /// Total resident file-backed (cached) pages across live processes.
    /// Maintained incrementally: O(1).
    pub fn cached_file_total(&self) -> Pages {
        self.file_resident_total
    }

    /// Available memory as Android reports it: free + cached (the quantity
    /// plotted in the paper's Fig. 5).
    pub fn available(&self) -> Pages {
        self.free + self.file_resident_total
    }

    /// RAM utilization in percent: `(total − available) / total · 100`
    /// (the quantity behind the paper's Fig. 2 CDF).
    pub fn utilization_pct(&self) -> f64 {
        let total = self.cfg.total.count() as f64;
        (total - self.available().count() as f64) / total * 100.0
    }

    /// Current trim level.
    pub fn trim_level(&self) -> TrimLevel {
        self.trim
    }

    /// Number of live cached/empty processes (the LRU count behind trim
    /// levels). Maintained incrementally: O(1).
    pub fn cached_proc_count(&self) -> u32 {
        self.cached_count
    }

    /// A process by id. A retired pid (killed, slot recycled) resolves to a
    /// dead, zeroed tombstone — indistinguishable from the zeroed record a
    /// kill used to leave in place.
    pub fn proc(&self, pid: ProcessId) -> &MemProcess {
        match self.live_slot(pid) {
            Some(slot) => &self.procs[slot],
            None => &TOMBSTONE,
        }
    }

    /// All process record slots. Live processes each occupy one slot; freed
    /// slots hold dead tombstones until recycled (filter on `dead`, as the
    /// historical dead-record entries always required).
    pub fn procs(&self) -> &[MemProcess] {
        &self.procs
    }

    /// Cumulative vmstat counters.
    #[inline]
    pub fn vmstat(&self) -> &VmStat {
        &self.vm
    }

    /// Logical pages currently stored in zRAM.
    pub fn zram_stored(&self) -> Pages {
        self.zram.stored()
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Replace lmkd's kill thresholds mid-run — the counterfactual engine's
    /// kernel-policy knob, applied to a forked branch at its fork point.
    /// Only the kill levels take effect live: `window_us` is consumed at
    /// construction (the pressure window keeps its original width).
    pub fn set_lmkd_thresholds(&mut self, lmkd: crate::config::LmkdThresholds) {
        self.cfg.lmkd = lmkd;
    }

    /// Drain pending events (trim changes, kills, OOMs) in emission order.
    pub fn drain_events(&mut self) -> Vec<(SimTime, MemEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Drain events into a caller-provided buffer (appending), keeping the
    /// internal buffer's capacity. The zero-alloc twin of
    /// [`MemoryManager::drain_events`].
    pub fn drain_events_into(&mut self, out: &mut Vec<(SimTime, MemEvent)>) {
        out.append(&mut self.events);
    }

    /// Accounting invariant: free + zRAM physical + all resident pages must
    /// equal usable memory. Checked by tests and debug assertions.
    pub fn accounted_pages(&self) -> Pages {
        let resident: Pages = self
            .procs
            .iter()
            .map(|p| p.anon_resident + p.file_resident)
            .sum();
        self.free + self.zram.physical_used() + resident
    }

    /// Debug check for the incremental aggregates against a fresh scan.
    #[cfg(test)]
    fn check_counters(&self) {
        let file: Pages = self
            .procs
            .iter()
            .filter(|p| !p.dead)
            .map(|p| p.file_resident)
            .sum();
        assert_eq!(file, self.file_resident_total);
        let cached = self
            .procs
            .iter()
            .filter(|p| !p.dead && p.kind.counts_as_cached())
            .count() as u32;
        assert_eq!(cached, self.cached_count);
    }

    // ---------------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------------

    /// Make room for an allocation of `need` pages: if free memory would
    /// drop below the min watermark, run direct reclaim in the caller's
    /// context (the stall §2 of the paper describes).
    fn ensure_free(&mut self, now: SimTime, _pid: ProcessId, need: Pages) -> ReclaimStats {
        let threshold = self.cfg.watermark_min + need;
        if self.free >= threshold {
            return ReclaimStats::default();
        }
        let target = threshold + self.cfg.watermark_min;
        let budget = (self.cfg.kswapd_batch * 4).max(need.count() * 2);
        let mut stats = self.reclaim(now, target, budget, true);
        // Direct reclaim that fails to free anything forces the allocator to
        // wait on writeback/lmkd; modelled as extra CPU-visible latency.
        if !stats.made_progress() {
            stats.cpu_us += 500.0;
        }
        stats
    }

    /// Core reclaim pass shared by kswapd and direct reclaim.
    ///
    /// Scans processes coldest-first (cached apps before the foreground
    /// app), dropping clean file pages, submitting dirty ones for writeback
    /// and compressing anonymous pages into zRAM. Pages under a process's
    /// hot floor are scanned (rotated) but not stolen — so when only hot
    /// pages remain, S grows without R and the pressure P climbs toward 100,
    /// exactly the regime in which the paper observes lmkd activating.
    fn reclaim(
        &mut self,
        now: SimTime,
        target_free: Pages,
        scan_budget: u64,
        direct: bool,
    ) -> ReclaimStats {
        let _prof = selfprof::span(selfprof::Phase::KernelReclaim);
        let mut budget = scan_budget;
        let mut scanned = 0u64;
        let mut reclaimed = 0u64;
        let mut dropped_clean = 0u64;
        let mut compressed = 0u64;
        let mut writeback = 0u64;

        // Scan efficiency degrades as the easy (cold, compressible) pages
        // run out: the deeper reclaim digs, the more referenced/busy pages
        // it walks past per page stolen. We proxy "depth" by zRAM fill.
        // This is what grades lmkd's P between 0 and 100 — kills begin
        // while some capacity still remains, as on real devices.
        let fill = self.zram.stored().count() as f64 / self.cfg.zram_capacity.count().max(1) as f64;
        let waste = 0.3 + 6.0 * fill * fill;

        // Walk the scan buckets coldest-first, pid-ascending within each —
        // exactly the (coldness, pid) order a fresh sort would produce.
        // The buckets are re-indexed every iteration (nothing in the loop
        // body spawns, kills or reclassifies), so no borrow outlives a
        // mutation of the records.
        'scan: for b in (0..self.scan_buckets.len()).rev() {
            let mut k = 0;
            while k < self.scan_buckets[b].len() {
                let idx = self.scan_buckets[b][k] as usize;
                k += 1;
                if budget == 0 || self.free >= target_free {
                    break 'scan;
                }
                let (floor_anon, floor_file) =
                    (self.procs[idx].floor_anon, self.procs[idx].floor_file);

                // --- File pages: cheap to drop (clean) or writeback (dirty).
                // Pages under the hot floor behave as unevictable (referenced
                // pages rotate straight back): they are not scanned here; the
                // zero-progress fallback below models the fruitless LRU walks
                // that drive P toward 100 when only hot pages remain.
                {
                    let p = &self.procs[idx];
                    let reclaimable = p.file_resident.saturating_sub(floor_file).count();
                    let want = reclaimable.min(budget);
                    let scan_here = (want + (want as f64 * waste) as u64).min(budget);
                    let steal = want.min(self.free_needed(target_free));
                    if scan_here > 0 {
                        let dirty = (steal as f64 * self.cfg.dirty_file_fraction).round() as u64;
                        let clean = steal - dirty;
                        let p = &mut self.procs[idx];
                        p.file_resident -= Pages(steal);
                        self.free += Pages(steal);
                        self.file_resident_total -= Pages(steal);
                        budget -= scan_here;
                        scanned += scan_here;
                        reclaimed += steal;
                        dropped_clean += clean;
                        writeback += dirty;
                    }
                }
                if budget == 0 || self.free >= target_free {
                    break 'scan;
                }

                // --- Anonymous pages: compress into zRAM. A full pool makes
                // these scans fruitless (scanned but not stolen), raising P.
                {
                    let p = &self.procs[idx];
                    let reclaimable = p.anon_resident.saturating_sub(floor_anon).count();
                    let want = reclaimable.min(budget).min(self.free_needed(target_free));
                    let (stored, grew) = self.zram.store(Pages(want));
                    let base_scan = want.max(stored.count());
                    let scan_here = (base_scan + (base_scan as f64 * waste) as u64).min(budget);
                    if scan_here > 0 {
                        let p = &mut self.procs[idx];
                        p.anon_resident -= stored;
                        p.anon_in_zram += stored;
                        self.free += stored;
                        self.free -= grew.min(self.free);
                        let net = stored.count().saturating_sub(grew.count());
                        budget -= scan_here;
                        scanned += scan_here;
                        reclaimed += net;
                        compressed += stored.count();
                        self.vm.zram_stores += stored.count();
                    }
                }
            }
        }

        // Rotation-only scanning when nothing was reclaimable at all: the
        // LRU still gets walked, burning CPU and pushing P toward 100. The
        // hot total falls out of the accounting invariant (usable = free +
        // zRAM physical + Σ live resident) without a scan.
        if scanned == 0 && budget > 0 && self.free < target_free {
            let hot_total = self
                .cfg
                .usable()
                .saturating_sub(self.free)
                .saturating_sub(self.zram.physical_used())
                .count();
            scanned = (hot_total / 8).clamp(32, budget);
        }

        if direct {
            if scanned > 0 {
                self.vm.direct_reclaims += 1;
            }
            self.vm.pgscan_direct += scanned;
            self.vm.pgsteal_direct += reclaimed;
        } else {
            self.vm.pgscan_kswapd += scanned;
            self.vm.pgsteal_kswapd += reclaimed;
        }
        self.vm.writeback += writeback;
        self.window.note(now, scanned, reclaimed);

        ReclaimStats {
            scanned,
            reclaimed,
            cpu_us: self
                .cfg
                .costs
                .reclaim_batch_us(scanned, dropped_clean, compressed),
            writeback_pages: writeback,
        }
    }

    /// Pages still needed to reach `target_free`.
    fn free_needed(&self, target_free: Pages) -> u64 {
        target_free.saturating_sub(self.free).count()
    }

    /// Recompute the trim level from the cached-process LRU and emit a
    /// change event if it moved.
    fn recompute_trim(&mut self, now: SimTime) {
        let level = TrimLevel::from_cached_count(self.cached_count, &self.cfg.trim);
        if level != self.trim {
            let from = self.trim;
            self.trim = level;
            if self.record_events {
                self.events
                    .push((now, MemEvent::TrimChanged { from, to: level }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MemConfig {
        MemConfig::for_ram_mib(1024)
    }

    fn mm() -> MemoryManager {
        MemoryManager::new(small_cfg())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Populate a machine the way the device crate does: system procs plus a
    /// handful of cached apps.
    fn populated() -> (MemoryManager, ProcessId) {
        let mut m = mm();
        m.spawn_sized(
            t(0),
            "system_server",
            ProcKind::System,
            Pages::from_mib(120),
            Pages::from_mib(80),
            Pages::from_mib(60),
            0.3,
        );
        for i in 0..8 {
            m.spawn_sized(
                t(0),
                format!("cached{i}"),
                ProcKind::Cached,
                Pages::from_mib(24),
                Pages::from_mib(20),
                Pages::from_mib(12),
                0.5,
            );
        }
        let (fg, _) = m.spawn_sized(
            t(0),
            "firefox",
            ProcKind::Foreground,
            Pages::from_mib(150),
            Pages::from_mib(120),
            Pages::from_mib(90),
            0.4,
        );
        (m, fg)
    }

    #[test]
    fn accounting_invariant_after_setup() {
        let (m, _) = populated();
        assert_eq!(m.accounted_pages(), m.config().usable());
        m.check_counters();
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut m = mm();
        let pid = m.spawn(t(0), "app", ProcKind::Foreground);
        let before = m.free();
        let out = m.alloc_anon(t(1), pid, Pages::from_mib(50));
        assert_eq!(out.granted, Pages::from_mib(50));
        assert!(!out.oom);
        assert_eq!(m.free(), before - Pages::from_mib(50));
        m.free_anon(t(2), pid, Pages::from_mib(50));
        assert_eq!(m.free(), before);
        assert_eq!(m.accounted_pages(), m.config().usable());
    }

    #[test]
    fn kswapd_wakes_below_low_watermark() {
        let (mut m, _) = populated();
        assert!(!m.kswapd_needed(t(0)), "plenty of memory at start");
        // Exhaust free memory to just under the low watermark.
        let pid = m.spawn(t(0), "hog", ProcKind::Foreground);
        let gap = m.free() - m.config().watermark_low;
        m.alloc_anon(t(1), pid, gap + Pages(1));
        assert!(m.kswapd_needed(t(1)));
    }

    #[test]
    fn kswapd_batch_reclaims_from_cached_first() {
        let (mut m, fg) = populated();
        let pid = m.spawn(t(0), "hog", ProcKind::Foreground);
        let gap = m.free() - m.config().watermark_low;
        m.alloc_anon(t(1), pid, gap + Pages(256));
        let fg_file_before = m.proc(fg).file_resident;
        let stats = m.kswapd_batch(t(2));
        assert!(stats.made_progress(), "cached apps have reclaimable pages");
        assert!(stats.cpu_us > 0.0);
        // Cached apps lose pages before the foreground app does.
        let cached0 = m.procs().iter().find(|p| p.name == "cached0").unwrap();
        assert!(
            cached0.file_resident < Pages::from_mib(12) || cached0.anon_in_zram > Pages::ZERO,
            "coldest process should be reclaimed first"
        );
        assert_eq!(m.proc(fg).file_resident, fg_file_before);
        assert_eq!(m.accounted_pages(), m.config().usable());
        m.check_counters();
    }

    #[test]
    fn zram_swapin_costs_the_toucher() {
        let (mut m, _) = populated();
        let pid = m.spawn(t(0), "hog", ProcKind::Foreground);
        let gap = m.free() - m.config().watermark_min;
        m.alloc_anon(t(1), pid, gap + Pages(512));
        // Push hard enough that cached apps' anon went to zRAM.
        for i in 0..20 {
            m.kswapd_batch(t(2 + i));
        }
        let victim = m
            .procs()
            .iter()
            .find(|p| p.anon_in_zram > Pages::ZERO)
            .expect("reclaim compressed someone")
            .id;
        let out = m.touch_anon(t(30), victim, Pages::from_mib(10));
        assert!(out.zram_swapins > 0);
        assert!(out.cpu_us > 0.0);
        assert_eq!(m.accounted_pages(), m.config().usable());
    }

    #[test]
    fn file_touch_on_evicted_pages_reads_disk() {
        let (mut m, fg) = populated();
        // Evict the foreground's file pages by pressure + reclaim.
        let pid = m.spawn(t(0), "hog", ProcKind::Foreground);
        let gap = m.free() - m.config().watermark_min;
        m.alloc_anon(t(1), pid, gap);
        for i in 0..200 {
            if m.kswapd_target_met() {
                break;
            }
            m.kswapd_batch(t(2 + i));
        }
        if m.proc(fg).file_resident < m.proc(fg).file_ws {
            let out = m.touch_file(t(300), fg, Pages::from_mib(40));
            assert!(out.disk_read_pages > 0, "evicted file pages major-fault");
            assert!(m.vmstat().pgfault_major > 0);
        }
        assert_eq!(m.accounted_pages(), m.config().usable());
        m.check_counters();
    }

    #[test]
    fn floors_protect_hot_pages() {
        let (mut m, fg) = populated();
        let hot = Pages::from_mib(100);
        m.set_floor(fg, hot, Pages::from_mib(60));
        let pid = m.spawn(t(0), "hog", ProcKind::Foreground);
        let gap = m.free() - m.config().watermark_min;
        m.alloc_anon(t(1), pid, gap);
        for i in 0..400 {
            m.kswapd_batch(t(2 + i * 5));
        }
        assert!(
            m.proc(fg).anon_resident >= hot.min(Pages::from_mib(150)),
            "foreground hot set survives reclaim: {} left",
            m.proc(fg).anon_resident
        );
    }

    #[test]
    fn sustained_shortage_raises_pressure_and_kills() {
        let (mut m, fg) = populated();
        // Protect everything the foreground has, leave cached apps cold.
        m.set_floor(fg, Pages::from_mib(500), Pages::from_mib(120));
        let pid = m.spawn(t(0), "mp_sim", ProcKind::Foreground);
        m.set_floor(pid, Pages::from_mib(2048), Pages::ZERO);
        let mut killed_any = false;
        for step in 0..4000u64 {
            let now = t(step * 10);
            m.alloc_anon(now, pid, Pages::from_mib(2));
            if m.kswapd_needed(now) {
                m.kswapd_batch(now);
            }
            if let Some(victim) = m.lmkd_victim(now) {
                m.kill(now, victim, KillSource::Lmkd);
                killed_any = true;
            }
            if m.vmstat().lmkd_kills >= 3 {
                break;
            }
        }
        assert!(killed_any, "lmkd must eventually fire under a memory hog");
        assert!(m.vmstat().lmkd_kills >= 1);
        // Kills shrink the cached LRU → trim level escalates.
        assert!(m.trim_level() >= TrimLevel::Moderate);
        assert_eq!(m.accounted_pages(), m.config().usable());
        m.check_counters();
    }

    #[test]
    fn trim_signals_follow_cached_count() {
        let mut m = mm();
        let mut cached = Vec::new();
        for i in 0..8 {
            cached.push(m.spawn(t(0), format!("bg{i}"), ProcKind::Cached));
        }
        assert_eq!(m.trim_level(), TrimLevel::Normal);
        // Boot-time spawns walk the level up from Critical; discard those.
        m.drain_events();
        // Kill down to 6 → Moderate.
        m.kill(t(1), cached[0], KillSource::Lmkd);
        m.kill(t(2), cached[1], KillSource::Lmkd);
        assert_eq!(m.trim_level(), TrimLevel::Moderate);
        m.kill(t(3), cached[2], KillSource::Lmkd);
        assert_eq!(m.trim_level(), TrimLevel::Low);
        m.kill(t(4), cached[3], KillSource::Lmkd);
        m.kill(t(5), cached[4], KillSource::Lmkd);
        assert_eq!(m.trim_level(), TrimLevel::Critical);
        let events = m.drain_events();
        let changes: Vec<_> = events
            .iter()
            .filter_map(|(_, e)| match e {
                MemEvent::TrimChanged { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(
            changes,
            vec![TrimLevel::Moderate, TrimLevel::Low, TrimLevel::Critical]
        );
    }

    #[test]
    fn kill_returns_memory_and_emits_event() {
        let (mut m, fg) = populated();
        let before = m.free();
        let freed = m.kill(t(10), fg, KillSource::Lmkd);
        assert!(freed > Pages::from_mib(200), "firefox footprint returns");
        assert_eq!(m.free(), before + freed);
        assert!(m.proc(fg).dead);
        // Killing again is a no-op.
        assert_eq!(m.kill(t(11), fg, KillSource::Lmkd), Pages::ZERO);
        let events = m.drain_events();
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, MemEvent::Killed { pid, .. } if *pid == fg)));
        m.check_counters();
    }

    #[test]
    fn oom_when_nothing_reclaimable() {
        let mut m = mm();
        let pid = m.spawn(t(0), "hog", ProcKind::Foreground);
        m.set_floor(pid, Pages::from_mib(4096), Pages::ZERO);
        let out = m.alloc_anon(t(1), pid, Pages::from_mib(4096));
        assert!(out.oom);
        assert!(out.granted < Pages::from_mib(4096));
        let events = m.drain_events();
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, MemEvent::OutOfMemory { .. })));
    }

    #[test]
    fn utilization_and_available_track_alloc() {
        let (mut m, _) = populated();
        let u0 = m.utilization_pct();
        let pid = m.spawn(t(0), "extra", ProcKind::Foreground);
        m.alloc_anon(t(1), pid, Pages::from_mib(100));
        assert!(m.utilization_pct() > u0);
        assert_eq!(m.available(), m.free() + m.cached_file_total());
    }

    #[test]
    fn slots_recycle_and_pids_stay_unique() {
        let mut m = mm();
        let a = m.spawn(t(0), "a", ProcKind::Cached);
        let b = m.spawn(t(0), "b", ProcKind::Cached);
        assert_eq!((a, b), (ProcessId(0), ProcessId(1)));
        m.kill(t(1), a, KillSource::Lmkd);
        // The next spawn reuses a's slot but gets a fresh pid.
        let c = m.spawn(t(2), "c", ProcKind::Cached);
        assert_eq!(c, ProcessId(2));
        assert_eq!(m.procs().len(), 2, "record slot was recycled");
        // The retired pid keeps resolving to a dead, zeroed record and all
        // mutators no-op on it instead of corrupting the slot's new owner.
        assert!(m.proc(a).dead);
        assert_eq!(m.proc(a).anon_resident, Pages::ZERO);
        let free_before = m.free();
        assert_eq!(
            m.alloc_anon(t(3), a, Pages::from_mib(4)),
            AllocOutcome::default()
        );
        m.free_anon(t(3), a, Pages::from_mib(4));
        m.touch_anon(t(3), a, Pages::from_mib(4));
        m.touch_file(t(3), a, Pages::from_mib(4));
        m.set_kind(t(3), a, ProcKind::Foreground);
        m.set_floor(a, Pages(10), Pages(10));
        m.set_oom_adj(a, OomAdj(0));
        assert_eq!(m.free(), free_before);
        assert!(!m.proc(c).dead, "slot reuse must not disturb the new owner");
        assert_eq!(m.proc(c).name, "c");
        m.check_counters();
        assert_eq!(m.accounted_pages(), m.config().usable());
    }

    #[test]
    fn reset_after_churn_equals_new() {
        let (mut m, fg) = populated();
        let hog = m.spawn(t(0), "hog", ProcKind::Foreground);
        m.set_floor(hog, Pages::from_mib(2048), Pages::ZERO);
        m.set_floor(fg, Pages::from_mib(500), Pages::from_mib(120));
        for step in 0..4000u64 {
            let now = t(step * 10);
            m.alloc_anon(now, hog, Pages::from_mib(2));
            if m.kswapd_needed(now) {
                m.kswapd_batch(now);
            }
            if let Some(victim) = m.lmkd_victim(now) {
                m.kill(now, victim, KillSource::Lmkd);
                m.spawn_sized(
                    now,
                    format!("respawn{step}"),
                    ProcKind::Cached,
                    Pages::from_mib(8),
                    Pages::from_mib(4),
                    Pages::from_mib(2),
                    0.5,
                );
            }
            if m.vmstat().lmkd_kills >= 3 {
                break;
            }
        }
        assert!(m.vmstat().lmkd_kills >= 3, "the churn must include kills");
        m.set_record_events(false);

        let cfg = MemConfig::for_ram_mib(2048);
        m.reset(cfg.clone());
        assert_eq!(
            serde::to_value(&m),
            serde::to_value(&MemoryManager::new(cfg))
        );
    }

    #[test]
    fn counters_track_churn() {
        let (mut m, fg) = populated();
        // Background the foreground app, kill some cached apps, respawn.
        m.set_kind(t(1), fg, ProcKind::Cached);
        m.check_counters();
        let victim = m.lmkd_victim_ungated(t(1));
        let _ = victim; // selection exercised; kills below are explicit
        let pids: Vec<ProcessId> = m
            .procs()
            .iter()
            .filter(|p| !p.dead && p.kind.counts_as_cached())
            .map(|p| p.id)
            .collect();
        for pid in pids.iter().take(4) {
            m.kill(t(2), *pid, KillSource::Lmkd);
        }
        m.check_counters();
        for i in 0..6 {
            m.spawn_sized(
                t(3),
                format!("re{i}"),
                ProcKind::Cached,
                Pages::from_mib(10),
                Pages::from_mib(8),
                Pages::from_mib(5),
                0.5,
            );
        }
        m.check_counters();
        assert_eq!(m.accounted_pages(), m.config().usable());
    }
}
