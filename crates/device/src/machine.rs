//! The assembled device: scheduler + memory manager + disk + daemons.

use crate::profile::DeviceProfile;
use mvqoe_kernel::manager::KillSource;
use mvqoe_kernel::{AllocOutcome, MemEvent, MemoryManager, Pages, ProcKind, ProcessId};
use mvqoe_sched::{Completion, SchedClass, Scheduler, ThreadId};
use mvqoe_sim::{SimDuration, SimRng, SimTime};
use mvqoe_storage::{Disk, IoId, IoRequest};
use mvqoe_trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Largest tag value user code may use with [`Machine::push_work`]; larger
/// tags are reserved for the machine's internal daemon bookkeeping.
pub const TAG_USER_MAX: u64 = 1 << 60;

const TAG_KSWAPD: u64 = TAG_USER_MAX + 1;
const TAG_MMCQD: u64 = TAG_USER_MAX + 2;
const TAG_LMKD: u64 = TAG_USER_MAX + 3;
const TAG_OVERHEAD: u64 = TAG_USER_MAX + 4;
const TAG_AMBIENT: u64 = TAG_USER_MAX + 5;

/// What one machine step produced, for the session/workload drivers.
#[derive(Debug, Clone, Default)]
pub struct StepOutputs {
    /// Completions of user-tagged work (daemon-internal tags filtered out).
    pub completions: Vec<Completion>,
    /// Memory events (trim changes, kills, OOM).
    pub mem_events: Vec<(SimTime, MemEvent)>,
    /// Threads whose blocking disk I/O completed this step.
    pub unblocked: Vec<ThreadId>,
    /// Processes that died this step (from `mem_events`, convenience).
    pub killed: Vec<(ProcessId, KillSource)>,
}

impl StepOutputs {
    /// Empty all buffers, keeping their capacity. [`Machine::step_into`]
    /// calls this, so a driver can reuse one `StepOutputs` across every
    /// step without allocating.
    pub fn clear(&mut self) {
        self.completions.clear();
        self.mem_events.clear();
        self.unblocked.clear();
        self.killed.clear();
    }
}

/// A running simulated phone. A snapshot serializes every field that can
/// influence a future step, in declaration order.
#[derive(Clone, Serialize, Deserialize)]
pub struct Machine {
    /// The CPU scheduler (public: drivers push work and read thread state).
    pub sched: Scheduler,
    /// The memory manager.
    pub mm: MemoryManager,
    /// The eMMC device.
    pub disk: Disk,
    /// The trace recorder.
    pub trace: Trace,
    profile: DeviceProfile,
    tick: SimDuration,

    kswapd: ThreadId,
    mmcqd: ThreadId,
    lmkd: ThreadId,
    system_thread: ThreadId,

    kswapd_busy: bool,
    mmcqd_busy: bool,
    lmkd_pending: Option<ProcessId>,
    lmkd_next_poll: SimTime,
    ambient_next: SimTime,

    io_waiters: BTreeMap<IoId, ThreadId>,
    proc_threads: BTreeMap<ProcessId, Vec<ThreadId>>,

    // Reusable step scratch (taken/restored around each step so the hot
    // path never allocates once capacities are warm). Snapshots skip it:
    // `step_into` clears each buffer before its first read, so a restored
    // machine's next step is identical, only with cold capacities (pinned
    // by `tests/zero_alloc.rs`).
    #[serde(skip)]
    scratch_completions: Vec<Completion>,
    #[serde(skip)]
    scratch_io: Vec<IoRequest>,
    #[serde(skip)]
    scratch_mem: Vec<(SimTime, MemEvent)>,
    #[serde(skip)]
    idle_out: StepOutputs,
}

impl Machine {
    /// Build a machine for `profile`, including the kernel daemons and the
    /// standing process population (system server, launcher, cached apps),
    /// sized so the device starts in the Normal trim state like a freshly
    /// booted phone.
    pub fn new(profile: DeviceProfile, rng: &mut SimRng) -> Machine {
        let mut sched = Scheduler::new();
        for &speed in &profile.core_speeds {
            sched.add_core(speed);
        }
        let mut mm = MemoryManager::new(profile.mem.clone());
        let mut trace = Trace::new();
        let now = SimTime::ZERO;

        // Kernel daemons. mmcqd is RT — "strictly prioritized over
        // foreground processes" (§2); kswapd and lmkd share the fair class
        // with apps (§5 measures 77.9% of Firefox threads at kswapd's
        // priority).
        let kswapd = sched.spawn("kswapd0", SchedClass::NORMAL);
        let mmcqd = sched.spawn("mmcqd/0", SchedClass::RealTime { prio: 50 });
        let lmkd = sched.spawn("lmkd", SchedClass::Fair { weight: 1024 });
        trace.register_thread(kswapd, "kswapd0", None);
        trace.register_thread(mmcqd, "mmcqd/0", None);
        trace.register_thread(lmkd, "lmkd", None);

        // Standing population.
        let (sys_pid, _) = mm.spawn_sized(
            now,
            "system_server",
            ProcKind::System,
            Pages::from_mib(110 + profile.ram_mib / 20),
            Pages::from_mib(90),
            Pages::from_mib(70),
            0.3,
        );
        // The system's hot core is never reclaimable.
        mm.set_floor(sys_pid, Pages::from_mib(80), Pages::from_mib(40));
        let system_thread = sched.spawn("system_server", SchedClass::NORMAL);
        sched.set_proc_tag(system_thread, sys_pid.0);
        trace.register_thread(system_thread, "system_server", Some(sys_pid.0));

        mm.spawn_sized(
            now,
            "launcher",
            ProcKind::Persistent,
            Pages::from_mib(60 + profile.ram_mib / 40),
            Pages::from_mib(50),
            Pages::from_mib(35),
            0.4,
        );

        let (n_cached, mib_each) = profile.cached_apps;
        for i in 0..n_cached {
            let size = (mib_each as f64 * rng.uniform(0.6, 1.5)) as u64;
            let (pid, _) = mm.spawn_sized(
                now,
                format!("bg.app{i}"),
                ProcKind::Cached,
                Pages::from_mib(size),
                Pages::from_mib(size / 2),
                Pages::from_mib(size / 3),
                0.5,
            );
            // Even cached apps keep a small hot core (saved state, notifiers)
            // that reclaim rotates rather than steals — killing them, not
            // compressing them, is what ultimately frees this memory.
            mm.set_floor(pid, Pages::from_mib(size / 6), Pages::from_mib(2));
        }
        // Boot-time trim transitions are not real signals; discard them.
        mm.drain_events();

        Machine {
            sched,
            mm,
            disk: Disk::new(profile.disk),
            trace,
            profile,
            tick: SimDuration::from_millis(1),
            kswapd,
            mmcqd,
            lmkd,
            system_thread,
            kswapd_busy: false,
            mmcqd_busy: false,
            lmkd_pending: None,
            lmkd_next_poll: SimTime::ZERO,
            ambient_next: SimTime::ZERO,
            io_waiters: BTreeMap::new(),
            proc_threads: BTreeMap::new(),
            scratch_completions: Vec::new(),
            scratch_io: Vec::new(),
            scratch_mem: Vec::new(),
            idle_out: StepOutputs::default(),
        }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The step size (1 ms).
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The kswapd daemon's thread (for trace queries).
    pub fn kswapd_thread(&self) -> ThreadId {
        self.kswapd
    }

    /// The mmcqd daemon's thread.
    pub fn mmcqd_thread(&self) -> ThreadId {
        self.mmcqd
    }

    /// The lmkd daemon's thread.
    pub fn lmkd_thread(&self) -> ThreadId {
        self.lmkd
    }

    // ------------------------------------------------------------------
    // Process / thread management for drivers
    // ------------------------------------------------------------------

    /// Spawn an app process with an initial footprint. Returns the pid and
    /// any allocation cost outcome (charged to nobody — app startup).
    #[allow(clippy::too_many_arguments)]
    pub fn add_process(
        &mut self,
        name: &str,
        kind: ProcKind,
        anon: Pages,
        file_ws: Pages,
        file_resident: Pages,
        file_share: f64,
    ) -> (ProcessId, AllocOutcome) {
        let now = self.now();
        let (pid, outcome) = self.mm.spawn_sized(
            now,
            name.to_string(),
            kind,
            anon,
            file_ws,
            file_resident,
            file_share,
        );
        self.proc_threads.entry(pid).or_default();
        (pid, outcome)
    }

    /// Add a named thread to a process.
    pub fn add_thread(&mut self, pid: ProcessId, name: &str, class: SchedClass) -> ThreadId {
        let tid = self.sched.spawn(name, class);
        self.sched.set_proc_tag(tid, pid.0);
        self.trace.register_thread(tid, name, Some(pid.0));
        self.proc_threads.entry(pid).or_default().push(tid);
        tid
    }

    /// Kill a process and all its threads.
    pub fn kill_process(&mut self, pid: ProcessId, source: KillSource) {
        let now = self.now();
        self.mm.kill(now, pid, source);
        for tid in self.proc_threads.remove(&pid).unwrap_or_default() {
            self.sched.kill_thread(tid);
        }
    }

    /// Queue user work on a thread. Panics if the tag collides with the
    /// machine's reserved daemon tags.
    pub fn push_work(&mut self, tid: ThreadId, us: f64, tag: u64) {
        assert!(tag < TAG_USER_MAX, "tag {tag} is reserved for the machine");
        self.sched.push_work(tid, us, tag);
    }

    // ------------------------------------------------------------------
    // Memory operations charged to threads
    // ------------------------------------------------------------------

    /// Allocate anonymous pages for `pid`, charging any direct-reclaim CPU
    /// to `tid` and submitting writeback I/O.
    ///
    /// When direct reclaim had to write back dirty pages and free memory is
    /// still tight afterwards, the allocating thread *blocks* until that
    /// writeback completes — the kernel's reclaim-throttling behaviour §2
    /// describes ("an extra I/O wait in any thread, including the
    /// foreground application's main UI thread").
    pub fn alloc_for(&mut self, tid: ThreadId, pid: ProcessId, pages: Pages) -> AllocOutcome {
        let now = self.now();
        let out = self.mm.alloc_anon(now, pid, pages);
        if out.cpu_us > 0.0 {
            self.sched.push_work(tid, out.cpu_us, TAG_OVERHEAD);
        }
        let last_wb = self.submit_writeback(out.writeback_pages);
        if out.direct_reclaim && out.writeback_pages > 0 {
            if let Some(io) = last_wb {
                if self.mm.free() < self.mm.config().watermark_min.mul_f64(2.0) {
                    self.io_waiters.insert(io, tid);
                    self.sched.block_io(tid);
                }
            }
        }
        out
    }

    /// Free anonymous pages of `pid`.
    pub fn free_for(&mut self, pid: ProcessId, pages: Pages) {
        let now = self.now();
        self.mm.free_anon(now, pid, pages);
    }

    /// Touch anonymous pages: zRAM swap-in CPU is charged to `tid`.
    pub fn touch_anon_for(&mut self, tid: ThreadId, pid: ProcessId, pages: Pages) {
        let now = self.now();
        let out = self.mm.touch_anon(now, pid, pages);
        if out.cpu_us > 0.0 {
            self.sched.push_work(tid, out.cpu_us, TAG_OVERHEAD);
        }
        self.submit_writeback(out.writeback_pages);
    }

    /// Touch file-backed pages. Returns `true` if the touch major-faulted:
    /// `tid` is now blocked on a disk read and will appear in
    /// [`StepOutputs::unblocked`] when it completes.
    pub fn touch_file_for(&mut self, tid: ThreadId, pid: ProcessId, pages: Pages) -> bool {
        let now = self.now();
        let out = self.mm.touch_file(now, pid, pages);
        if out.cpu_us > 0.0 {
            self.sched.push_work(tid, out.cpu_us, TAG_OVERHEAD);
        }
        self.submit_writeback(out.writeback_pages);
        if out.disk_read_pages > 0 {
            let id = self
                .disk
                .submit_read(now, out.disk_read_pages, Some(tid.0 as u64));
            self.io_waiters.insert(id, tid);
            self.sched.block_io(tid);
            self.trace.instant_detail("major_fault", now, Some(tid));
            true
        } else {
            false
        }
    }

    /// Client PSS in MiB (what `dumpsys meminfo` would report).
    pub fn pss_mib(&self, pid: ProcessId) -> f64 {
        self.mm.proc(pid).pss().mib()
    }

    fn submit_writeback(&mut self, pages: u64) -> Option<IoId> {
        let now = self.now();
        let mut left = pages;
        let mut last = None;
        while left > 0 {
            let batch = left.min(64);
            last = Some(self.disk.submit_write(now, batch));
            left -= batch;
        }
        last
    }

    // ------------------------------------------------------------------
    // The step
    // ------------------------------------------------------------------

    /// Advance the machine by one tick and surface what happened.
    pub fn step(&mut self) -> StepOutputs {
        let mut out = StepOutputs::default();
        self.step_into(&mut out);
        out
    }

    /// Advance the machine by one tick, writing what happened into a
    /// caller-owned `out` (cleared first). Reusing one `StepOutputs` across
    /// steps keeps the hot path allocation-free once capacities are warm.
    pub fn step_into(&mut self, out: &mut StepOutputs) {
        out.clear();
        self.sched.tick(self.tick);
        let now = self.now();

        // 1. Route completions: daemons continue their loops, user tags
        //    surface to the driver.
        let mut completions = std::mem::take(&mut self.scratch_completions);
        completions.clear();
        self.sched.drain_completions_into(&mut completions);
        for &c in &completions {
            match c.tag {
                TAG_KSWAPD => self.kswapd_busy = false,
                TAG_MMCQD => {
                    self.mmcqd_busy = false;
                    self.disk.dispatch_next(now);
                }
                TAG_LMKD => {
                    if let Some(victim) = self.lmkd_pending.take() {
                        if !self.mm.proc(victim).dead {
                            self.kill_process(victim, KillSource::Lmkd);
                        }
                    }
                }
                TAG_OVERHEAD | TAG_AMBIENT => {}
                tag if tag < TAG_USER_MAX => out.completions.push(c),
                _ => {}
            }
        }
        self.scratch_completions = completions;

        // 2. Disk completions unblock waiting threads.
        let mut io = std::mem::take(&mut self.scratch_io);
        io.clear();
        self.disk.poll_into(now, &mut io);
        for req in &io {
            if let Some(tid) = self.io_waiters.remove(&req.id) {
                self.sched.unblock_io(tid);
                out.unblocked.push(tid);
            }
        }
        self.scratch_io = io;

        // 3. kswapd: run reclaim batches while below the low watermark.
        if !self.kswapd_busy && self.mm.kswapd_needed(now) && !self.mm.kswapd_target_met() {
            let stats = self.mm.kswapd_batch(now);
            self.submit_writeback(stats.writeback_pages);
            if stats.cpu_us > 0.0 {
                self.sched.push_work(self.kswapd, stats.cpu_us, TAG_KSWAPD);
                self.kswapd_busy = true;
            }
        }

        // 4. mmcqd: pay CPU (at RT priority) per pending request.
        if !self.mmcqd_busy && self.disk.has_pending() {
            let cost = self.mm.config().costs.mmcqd_request_us;
            self.sched.push_work(self.mmcqd, cost, TAG_MMCQD);
            self.mmcqd_busy = true;
        }

        // 5. lmkd: poll the pressure rule every 25 ms; kills are paced
        //    (real lmkd rate-limits so a victim's memory can actually be
        //    reaped before the next decision).
        if now >= self.lmkd_next_poll {
            self.lmkd_next_poll = now + SimDuration::from_millis(25);
            if self.lmkd_pending.is_none() {
                if let Some(victim) = self.mm.lmkd_victim(now) {
                    self.lmkd_pending = Some(victim);
                    let cost = self.mm.config().costs.lmkd_kill_us;
                    self.sched.push_work(self.lmkd, cost, TAG_LMKD);
                    self.lmkd_next_poll = now + SimDuration::from_millis(300);
                }
            }
        }

        // 6. Ambient system activity: light periodic system_server work.
        if now >= self.ambient_next {
            self.ambient_next = now + SimDuration::from_millis(50);
            self.sched.push_work(self.system_thread, 900.0, TAG_AMBIENT);
        }

        // 7. Surface memory events; mirror kills.
        let mut mem_events = std::mem::take(&mut self.scratch_mem);
        mem_events.clear();
        self.mm.drain_events_into(&mut mem_events);
        for (at, e) in mem_events.drain(..) {
            if let MemEvent::Killed { pid, name, source, .. } = &e {
                // Threads may still be alive if the kill came from inside
                // the memory manager (not via kill_process).
                for tid in self.proc_threads.remove(pid).unwrap_or_default() {
                    self.sched.kill_thread(tid);
                }
                // Kill markers only surface in the trace export, which
                // requires detail recording — skip the string formatting
                // entirely on the bulk-grid (tracing-off) path.
                if self.trace.detail() {
                    let label = match source {
                        KillSource::Lmkd => "lmkd_kill",
                        KillSource::OomKiller => "oom_kill",
                        KillSource::Exit => "exit",
                    };
                    self.trace.instant(format!("{label}:{name}"), at, None);
                }
                out.killed.push((*pid, *source));
            }
            out.mem_events.push((at, e));
        }
        self.scratch_mem = mem_events;

        // 8. Feed the tracer (capacity-preserving drains).
        self.trace.record_sched(self.sched.drain_events_iter());
        self.trace.record_preemptions(self.sched.drain_preemptions_iter());
    }

    // ------------------------------------------------------------------
    // Event-driven time advance
    // ------------------------------------------------------------------

    /// Round `t` up to the step grid (step ends are multiples of the tick).
    fn ceil_to_grid(&self, t: SimTime) -> SimTime {
        let tick = self.tick.as_micros();
        let steps = t.as_micros().saturating_add(tick - 1) / tick;
        SimTime(steps.saturating_mul(tick))
    }

    /// The earliest future instant at which this machine could do real
    /// work, or `None` when it is not provably idle right now. The machine
    /// is idle when no thread wants a CPU, every core is empty and no disk
    /// request is pending dispatch; while that holds, the only state that
    /// changes per step is time accounting, so the next interesting step is
    /// the earliest of:
    ///
    /// - the next lmkd pressure poll (`lmkd_next_poll`, ≤ 25 ms out — polls
    ///   may read content-dependent pressure-window state, so we never skip
    ///   past one);
    /// - the next ambient system-activity burst (`ambient_next`);
    /// - the next in-flight disk completion (grid-rounded);
    /// - kswapd's backoff expiry, when free memory is below the low
    ///   watermark (free pages cannot drop further during an idle span, so
    ///   backoff expiry is the only way the kswapd condition newly holds).
    pub fn next_wakeup(&self) -> Option<SimTime> {
        if !self.sched.is_idle() || self.disk.has_pending() {
            return None;
        }
        let mut wake = self.lmkd_next_poll.min(self.ambient_next);
        if let Some(t) = self.disk.next_completion() {
            wake = wake.min(self.ceil_to_grid(t));
        }
        if !self.kswapd_busy
            && self.mm.free() < self.mm.config().watermark_low
            && !self.mm.kswapd_target_met()
        {
            wake = wake.min(self.mm.kswapd_backoff_until());
        }
        Some(wake)
    }

    /// If the machine is provably idle, jump simulated time forward so the
    /// *next* [`Machine::step`] is the one that ends at the earliest
    /// interesting instant — [`Machine::next_wakeup`] or the caller's
    /// `horizon`, whichever is sooner. Returns `true` if time moved.
    ///
    /// Byte-identical to dense 1 ms stepping: every skipped tick is a
    /// provable no-op (only additive state-time accounting), and daemon
    /// gates fire at the *end* of a step, so the jump stops one tick short
    /// of the wake instant and lets a real step land exactly on it.
    pub fn advance_until(&mut self, horizon: SimTime) -> bool {
        let Some(wake) = self.next_wakeup() else {
            return false;
        };
        let wake = wake.min(self.ceil_to_grid(horizon));
        let last_noop = SimTime(wake.as_micros().saturating_sub(self.tick.as_micros()));
        let now = self.now();
        if last_noop <= now {
            return false;
        }
        self.sched.advance_idle(last_noop.saturating_since(now));
        true
    }

    /// Run the machine for `dur`, discarding step outputs (for warm-up and
    /// tests that only care about final state). Uses the event-driven skip
    /// internally; byte-identical to [`Machine::run_idle_dense`].
    pub fn run_idle(&mut self, dur: SimDuration) {
        let steps = dur.as_micros() / self.tick.as_micros();
        let end = SimTime(self.now().as_micros() + steps * self.tick.as_micros());
        let mut out = std::mem::take(&mut self.idle_out);
        while self.now() < end {
            self.advance_until(end);
            self.step_into(&mut out);
        }
        self.idle_out = out;
    }

    /// Dense twin of [`Machine::run_idle`]: one step per tick, no skipping.
    /// For bisecting skip-oracle regressions and benchmarking.
    pub fn run_idle_dense(&mut self, dur: SimDuration) {
        let steps = dur.as_micros() / self.tick.as_micros();
        let mut out = std::mem::take(&mut self.idle_out);
        for _ in 0..steps {
            self.step_into(&mut out);
        }
        self.idle_out = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_sched::ThreadState;

    fn machine() -> Machine {
        let mut rng = SimRng::new(1);
        Machine::new(DeviceProfile::nokia1(), &mut rng)
    }

    #[test]
    fn serde_round_trip_continues_identically() {
        let mut m = machine();
        let (pid, _) = m.add_process(
            "app",
            ProcKind::Foreground,
            Pages::from_mib(120),
            Pages::from_mib(80),
            Pages::from_mib(40),
            0.45,
        );
        let tid = m.add_thread(pid, "app", SchedClass::NORMAL);
        m.push_work(tid, 40_000.0, 0);
        m.alloc_for(tid, pid, Pages::from_mib(32));
        m.run_idle(SimDuration::from_millis(700));

        let mut r = serde::from_value::<Machine>(&serde::to_value(&m)).expect("round trip");
        m.push_work(tid, 25_000.0, 1);
        r.push_work(tid, 25_000.0, 1);
        m.run_idle(SimDuration::from_secs(2));
        r.run_idle(SimDuration::from_secs(2));

        assert_eq!(m.now(), r.now());
        assert_eq!(format!("{:?}", m.mm.vmstat()), format!("{:?}", r.mm.vmstat()));
        assert_eq!(format!("{:?}", m.sched.threads()), format!("{:?}", r.sched.threads()));
        assert_eq!(m.trace.events(), r.trace.events());
        assert_eq!(m.trace.instants().len(), r.trace.instants().len());
    }

    #[test]
    fn boots_in_normal_state_with_free_memory() {
        let m = machine();
        assert_eq!(m.mm.trim_level(), mvqoe_kernel::TrimLevel::Normal);
        assert!(m.mm.free() > m.mm.config().watermark_high);
        assert!(m.mm.cached_proc_count() >= 7);
    }

    #[test]
    fn idle_machine_stays_quiet() {
        let mut m = machine();
        m.run_idle(SimDuration::from_secs(2));
        assert_eq!(m.mm.vmstat().lmkd_kills, 0);
        let kswapd_run = m.sched.times_of(m.kswapd_thread()).running;
        assert!(
            kswapd_run < SimDuration::from_millis(50),
            "kswapd ran {kswapd_run} while idle"
        );
    }

    #[test]
    fn allocation_storm_wakes_kswapd_then_lmkd() {
        let mut m = machine();
        let (hog, _) = m.add_process(
            "mp_sim",
            ProcKind::Persistent,
            Pages::from_mib(50),
            Pages::ZERO,
            Pages::ZERO,
            0.0,
        );
        let hog_thread = m.add_thread(hog, "mp_sim", SchedClass::NORMAL);
        // The MP Simulator pins what it allocates (otherwise zRAM would
        // absorb the pressure).
        m.mm.set_floor(hog, Pages::from_mib(8192), Pages::ZERO);

        let mut killed_any = false;
        for step in 0..40_000u64 {
            if step % 20 == 0 {
                m.alloc_for(hog_thread, hog, Pages::from_mib(1));
            }
            let out = m.step();
            killed_any |= !out.killed.is_empty();
            if killed_any {
                break;
            }
        }
        assert!(killed_any, "lmkd must kill under a pinned allocation storm");
        let kswapd_run = m.sched.times_of(m.kswapd_thread()).running;
        assert!(
            kswapd_run > SimDuration::from_millis(20),
            "kswapd must have burned CPU: {kswapd_run}"
        );
        assert_eq!(m.mm.accounted_pages(), m.mm.config().usable());
    }

    #[test]
    fn major_fault_blocks_and_unblocks_through_mmcqd() {
        let mut m = machine();
        let (pid, _) = m.add_process(
            "app",
            ProcKind::Foreground,
            Pages::from_mib(20),
            Pages::from_mib(40),
            Pages::ZERO, // nothing resident → every touch faults
            0.3,
        );
        let tid = m.add_thread(pid, "worker", SchedClass::NORMAL);
        let blocked = m.touch_file_for(tid, pid, Pages::from_mib(2));
        assert!(blocked);
        assert_eq!(m.sched.thread(tid).state, ThreadState::IoWait);
        let mut unblocked = false;
        for _ in 0..2_000 {
            let out = m.step();
            if out.unblocked.contains(&tid) {
                unblocked = true;
                break;
            }
        }
        assert!(unblocked, "disk read must complete and unblock the thread");
        // mmcqd must have spent CPU dispatching it.
        assert!(m.sched.times_of(m.mmcqd_thread()).running > SimDuration::ZERO);
    }

    #[test]
    fn mmcqd_preempts_fair_threads() {
        let mut m = machine();
        let (pid, _) = m.add_process(
            "app",
            ProcKind::Foreground,
            Pages::from_mib(10),
            Pages::ZERO,
            Pages::ZERO,
            0.0,
        );
        // Saturate every core with fair work.
        let n = m.sched.n_cores();
        let mut tids = Vec::new();
        for i in 0..n {
            let t = m.add_thread(pid, &format!("spin{i}"), SchedClass::NORMAL);
            m.push_work(t, 1e9, 1);
            tids.push(t);
        }
        // Generate disk traffic.
        for _ in 0..50 {
            m.disk.submit_write(m.now(), 32);
        }
        for _ in 0..200 {
            m.step();
        }
        let preempted: Vec<_> = m
            .trace
            .preemptions()
            .iter()
            .filter(|p| p.preempter == m.mmcqd_thread())
            .collect();
        assert!(
            !preempted.is_empty(),
            "mmcqd at RT priority must preempt fair threads"
        );
    }

    #[test]
    fn user_completions_surface_with_their_tags() {
        let mut m = machine();
        let (pid, _) = m.add_process(
            "app",
            ProcKind::Foreground,
            Pages::from_mib(5),
            Pages::ZERO,
            Pages::ZERO,
            0.0,
        );
        let tid = m.add_thread(pid, "w", SchedClass::NORMAL);
        m.push_work(tid, 1500.0, 77);
        let mut seen = false;
        for _ in 0..10 {
            let out = m.step();
            if out.completions.iter().any(|c| c.tag == 77 && c.thread == tid) {
                seen = true;
            }
        }
        assert!(seen);
    }

    #[test]
    fn kill_process_stops_its_threads() {
        let mut m = machine();
        let (pid, _) = m.add_process(
            "victim",
            ProcKind::Foreground,
            Pages::from_mib(30),
            Pages::ZERO,
            Pages::ZERO,
            0.0,
        );
        let tid = m.add_thread(pid, "w", SchedClass::NORMAL);
        m.push_work(tid, 1e9, 1);
        m.step();
        let free_before = m.mm.free();
        m.kill_process(pid, KillSource::Lmkd);
        assert!(m.sched.thread(tid).dead);
        assert!(m.mm.free() > free_before);
        m.step();
    }

    #[test]
    fn reserved_tags_are_rejected() {
        let mut m = machine();
        let (pid, _) = m.add_process(
            "app",
            ProcKind::Foreground,
            Pages::ZERO,
            Pages::ZERO,
            Pages::ZERO,
            0.0,
        );
        let tid = m.add_thread(pid, "w", SchedClass::NORMAL);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.push_work(tid, 1.0, TAG_USER_MAX + 1);
        }));
        assert!(result.is_err());
    }
}
