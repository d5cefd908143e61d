//! The tick-driven multi-core scheduler.
//!
//! Each tick (the device machine uses 1 ms), the scheduler picks the best
//! `n_cores` ready threads — all real-time threads by priority first, then
//! fair threads by minimum virtual runtime — executes work on the running
//! threads, and records preemptions, completions and switch events.
//! State time is accounted *lazily*: a thread's per-state totals are only
//! charged when its state changes (or when read through
//! [`Scheduler::times_of`]), so a tick's cost scales with the number of
//! running threads, not the number of existing threads.

use crate::events::{Completion, PreemptionRecord, SchedEvent, SchedEventKind};
use crate::thread::{SchedClass, StateTimes, Thread, ThreadId, ThreadState, WorkItem};
use mvqoe_metrics::selfprof;
use mvqoe_sim::{SimDuration, SimTime};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Charge the span the thread has spent in its current state (lazy
/// accounting) before a state transition. Dead threads' times are frozen.
#[inline]
fn flush_state_time(th: &mut Thread, now: SimTime) {
    if !th.dead {
        let span = now.saturating_since(th.state_since);
        if span > SimDuration::ZERO {
            th.times.add(th.state, span);
        }
    }
}

/// One CPU core.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Core {
    /// Speed factor relative to the reference core (Nexus 5 @ 2.33 GHz =
    /// 1.0; the Nokia 1's 1.1 GHz cores ≈ 0.47).
    pub speed: f64,
    /// Thread currently placed on this core.
    pub running: Option<ThreadId>,
}

/// The scheduler for one device.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cores: Vec<Core>,
    threads: Vec<Thread>,
    now: SimTime,
    completions: Vec<Completion>,
    preemptions: Vec<PreemptionRecord>,
    events: Vec<SchedEvent>,
    min_vruntime: f64,
    record_events: bool,
    ctx_switches: u64,
    // Reusable per-tick scratch (the select hot path must not allocate).
    scratch_ready: Vec<usize>,
    /// Generation marker per thread: `sel_marks[i] == sel_gen` ⇔ thread `i`
    /// was selected this tick. Replaces a per-tick `selected` Vec and its
    /// O(n²) `contains` scans.
    sel_marks: Vec<u64>,
    sel_gen: u64,
    /// `displaced_on_core[c]` is the thread displaced from core `c` this
    /// tick (if any), consumed by [`Scheduler::place`].
    displaced_on_core: Vec<Option<ThreadId>>,
    /// Running threads this tick (core occupants in thread-id order).
    scratch_running: Vec<usize>,
    /// Count of threads for which `wants_cpu()` holds, maintained across
    /// every state mutation. Powers the O(1) [`Scheduler::is_idle`] and the
    /// select fast path (threads on cores always want the CPU, so
    /// `n_want == occupied cores` means selection cannot change placement).
    n_want: u32,
}

impl Scheduler {
    /// Create a scheduler with no cores or threads.
    pub fn new() -> Scheduler {
        Scheduler {
            cores: Vec::new(),
            threads: Vec::new(),
            now: SimTime::ZERO,
            completions: Vec::new(),
            preemptions: Vec::new(),
            events: Vec::new(),
            min_vruntime: 0.0,
            record_events: true,
            ctx_switches: 0,
            scratch_ready: Vec::new(),
            sel_marks: Vec::new(),
            sel_gen: 0,
            displaced_on_core: Vec::new(),
            scratch_running: Vec::new(),
            n_want: 0,
        }
    }

    /// Total context switches so far (every placement of a thread onto a
    /// core it was not already running on).
    pub fn ctx_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Disable per-switch event recording (keeps long runs lean; state-time
    /// accounting and preemption records are unaffected).
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
    }

    /// Add a core with the given speed factor. Returns its index.
    pub fn add_core(&mut self, speed: f64) -> usize {
        assert!(speed > 0.0);
        self.cores.push(Core {
            speed,
            running: None,
        });
        self.cores.len() - 1
    }

    /// Spawn a thread (initially sleeping).
    pub fn spawn(&mut self, name: impl Into<String>, class: SchedClass) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        let mut th = Thread::new(id, name, class);
        th.state_since = self.now;
        self.threads.push(th);
        id
    }

    /// Tag a thread with its owning memory-model process.
    pub fn set_proc_tag(&mut self, tid: ThreadId, tag: u32) {
        self.threads[tid.0 as usize].proc_tag = tag.into();
    }

    /// Queue `us` µs (at reference speed) of work on a thread, waking it if
    /// it was sleeping. The `tag` comes back in the [`Completion`].
    pub fn push_work(&mut self, tid: ThreadId, us: f64, tag: u64) {
        debug_assert!(us >= 0.0);
        let min_vr = self.min_vruntime;
        let now = self.now;
        let record = self.record_events;
        let th = &mut self.threads[tid.0 as usize];
        if th.dead {
            return;
        }
        let wanted = th.wants_cpu();
        th.work.push_back(WorkItem {
            remaining_us: us,
            tag,
        });
        if th.state == ThreadState::Sleeping {
            flush_state_time(th, now);
            th.state = ThreadState::Runnable;
            th.state_since = now;
            // CFS wakeup placement: don't let long sleepers hoard vruntime
            // credit and starve everyone else.
            th.vruntime = th.vruntime.max(min_vr);
            if record {
                self.events.push(SchedEvent {
                    at: now,
                    thread: tid,
                    kind: SchedEventKind::Wakeup,
                });
            }
        }
        let wants = self.threads[tid.0 as usize].wants_cpu();
        self.adjust_want(wanted, wants);
    }

    /// Update the `wants_cpu` population count across a mutation.
    #[inline]
    fn adjust_want(&mut self, before: bool, after: bool) {
        match (before, after) {
            (false, true) => self.n_want += 1,
            (true, false) => self.n_want -= 1,
            _ => {}
        }
    }

    /// Block a thread on disk I/O. It leaves its core immediately and will
    /// not run until [`Scheduler::unblock_io`].
    pub fn block_io(&mut self, tid: ThreadId) {
        let now = self.now;
        let record = self.record_events;
        let core_idx = self.threads[tid.0 as usize].on_core;
        if let Some(c) = core_idx {
            self.cores[c].running = None;
        }
        let th = &mut self.threads[tid.0 as usize];
        if th.dead {
            return;
        }
        let wanted = th.wants_cpu();
        if record && th.on_core.is_some() {
            self.events.push(SchedEvent {
                at: now,
                thread: tid,
                kind: SchedEventKind::SwitchOut {
                    core: core_idx.unwrap(),
                    to_state: ThreadState::IoWait,
                },
            });
        }
        let th = &mut self.threads[tid.0 as usize];
        flush_state_time(th, now);
        th.on_core = None;
        th.state = ThreadState::IoWait;
        th.state_since = now;
        // IoWait is never ready, so the thread no longer wants the CPU.
        self.adjust_want(wanted, false);
        if record {
            self.events.push(SchedEvent {
                at: now,
                thread: tid,
                kind: SchedEventKind::BlockIo,
            });
        }
    }

    /// Complete a thread's I/O: it becomes runnable (or sleeps if it has no
    /// work queued).
    pub fn unblock_io(&mut self, tid: ThreadId) {
        let now = self.now;
        let min_vr = self.min_vruntime;
        let record = self.record_events;
        let th = &mut self.threads[tid.0 as usize];
        if th.dead || th.state != ThreadState::IoWait {
            return;
        }
        flush_state_time(th, now);
        th.state = if th.work.is_empty() {
            ThreadState::Sleeping
        } else {
            ThreadState::Runnable
        };
        th.state_since = now;
        th.vruntime = th.vruntime.max(min_vr);
        let wants = th.wants_cpu();
        // Coming out of IoWait the thread could not have wanted the CPU.
        self.adjust_want(false, wants);
        if record {
            self.events.push(SchedEvent {
                at: now,
                thread: tid,
                kind: SchedEventKind::Wakeup,
            });
        }
    }

    /// Terminate a thread (its process died). Pending work is dropped.
    pub fn kill_thread(&mut self, tid: ThreadId) {
        let now = self.now;
        if let Some(c) = self.threads[tid.0 as usize].on_core {
            self.cores[c].running = None;
        }
        let th = &mut self.threads[tid.0 as usize];
        let wanted = th.wants_cpu();
        // Flush before marking dead: `flush_state_time` freezes the times of
        // dead threads, so this is the last charge they ever receive.
        flush_state_time(th, now);
        th.dead = true;
        th.on_core = None;
        th.work.clear();
        th.state = ThreadState::Sleeping;
        th.state_since = now;
        self.adjust_want(wanted, false);
    }

    /// Change a thread's scheduling class.
    pub fn set_class(&mut self, tid: ThreadId, class: SchedClass) {
        self.threads[tid.0 as usize].class = class;
    }

    /// Advance the simulation by `dt`: select threads and execute work.
    /// State time is accounted lazily — charged at each state transition —
    /// so the tick only touches the threads actually on cores.
    pub fn tick(&mut self, dt: SimDuration) {
        let t0 = self.now;
        let t1 = t0 + dt;

        self.select(t0);

        // Execute work on the core occupants only. Iterating in thread-id
        // order matches the historical full-scan order, so completions
        // within one tick come out in the same sequence.
        let mut running = std::mem::take(&mut self.scratch_running);
        running.clear();
        running.extend(
            self.cores
                .iter()
                .filter_map(|c| c.running.map(|t| t.0 as usize)),
        );
        running.sort_unstable();
        for idx in 0..running.len() {
            let i = running[idx];
            let core = self.threads[i].on_core.expect("running thread has a core");
            let speed = self.cores[core].speed;
            let mut budget_us = dt.as_micros() as f64 * speed;
            let weight = self.threads[i].weight();
            self.threads[i].vruntime += dt.as_micros() as f64 * 1024.0 / weight;
            while budget_us > 0.0 {
                let Some(front) = self.threads[i].work.front_mut() else {
                    break;
                };
                if front.remaining_us <= budget_us {
                    budget_us -= front.remaining_us;
                    let tag = front.tag;
                    self.threads[i].work.pop_front();
                    self.completions.push(Completion {
                        thread: self.threads[i].id,
                        tag,
                        at: t1,
                    });
                } else {
                    front.remaining_us -= budget_us;
                    budget_us = 0.0;
                }
            }
            if self.threads[i].work.is_empty() {
                // Out of work: leave the core and sleep. The thread ran
                // through the whole tick, so its Running span is charged up
                // to `t1`. It wanted the CPU at tick start and no longer
                // does, hence the `n_want` decrement.
                let tid = self.threads[i].id;
                self.cores[core].running = None;
                let th = &mut self.threads[i];
                flush_state_time(th, t1);
                th.on_core = None;
                th.state = ThreadState::Sleeping;
                th.state_since = t1;
                self.n_want -= 1;
                if self.record_events {
                    self.events.push(SchedEvent {
                        at: t1,
                        thread: tid,
                        kind: SchedEventKind::SwitchOut {
                            core,
                            to_state: ThreadState::Sleeping,
                        },
                    });
                    self.events.push(SchedEvent {
                        at: t1,
                        thread: tid,
                        kind: SchedEventKind::Sleep,
                    });
                }
            }
        }
        self.scratch_running = running;

        self.now = t1;
    }

    /// Pick the best `n_cores` ready threads and place them, recording
    /// preemptions. Allocation-free: works off reusable scratch buffers.
    fn select(&mut self, now: SimTime) {
        // Fast path: every thread that wants the CPU is already on a core.
        // Threads on cores always want the CPU, so equal counts mean the
        // ready set is exactly the running set — a full selection would
        // re-pick the same threads, move nobody, and only refresh
        // `min_vruntime`. The fold below computes the same minimum the full
        // path would (f64 min over the same set is order-insensitive; our
        // vruntimes are never NaN or -0.0).
        let mut occupied = 0u32;
        let mut min_vr = f64::INFINITY;
        for c in &self.cores {
            if let Some(tid) = c.running {
                occupied += 1;
                min_vr = min_vr.min(self.threads[tid.0 as usize].vruntime);
            }
        }
        if self.n_want == occupied {
            if occupied > 0 {
                self.min_vruntime = self.min_vruntime.max(min_vr);
            }
            return;
        }
        let _prof = selfprof::span(selfprof::Phase::SchedSelectSlow);

        // Order: RT by priority (desc), then fair by vruntime (asc). Ties by
        // id for determinism.
        let mut ready = std::mem::take(&mut self.scratch_ready);
        ready.clear();
        ready.extend((0..self.threads.len()).filter(|&i| self.threads[i].wants_cpu()));
        // Ids are unique, so the comparator is a total order and unstable
        // sort gives the same result as stable — without the merge buffer.
        ready.sort_unstable_by(|&a, &b| {
            let ta = &self.threads[a];
            let tb = &self.threads[b];
            rank(ta)
                .partial_cmp(&rank(tb))
                .unwrap()
                .then(ta.id.cmp(&tb.id))
        });
        ready.truncate(self.cores.len());

        self.sel_gen += 1;
        let gen = self.sel_gen;
        if self.sel_marks.len() < self.threads.len() {
            self.sel_marks.resize(self.threads.len(), 0);
        }
        for &i in &ready {
            self.sel_marks[i] = gen;
        }

        if !ready.is_empty() {
            self.min_vruntime = self
                .min_vruntime
                .max(
                    ready
                        .iter()
                        .map(|&i| self.threads[i].vruntime)
                        .fold(f64::INFINITY, f64::min),
                );
        }

        // Phase 1: displaced threads vacate their cores.
        if self.displaced_on_core.len() < self.cores.len() {
            self.displaced_on_core.resize(self.cores.len(), None);
        }
        self.displaced_on_core.fill(None);
        for c in 0..self.cores.len() {
            if let Some(tid) = self.cores[c].running {
                if self.sel_marks[tid.0 as usize] != gen {
                    self.cores[c].running = None;
                    let still_wants = self.threads[tid.0 as usize].wants_cpu();
                    let th = &mut self.threads[tid.0 as usize];
                    flush_state_time(th, now);
                    th.on_core = None;
                    th.state = if still_wants {
                        ThreadState::RunnablePreempted
                    } else {
                        ThreadState::Sleeping
                    };
                    th.state_since = now;
                    if self.record_events {
                        self.events.push(SchedEvent {
                            at: now,
                            thread: tid,
                            kind: SchedEventKind::SwitchOut {
                                core: c,
                                to_state: th.state,
                            },
                        });
                    }
                    if still_wants {
                        self.displaced_on_core[c] = Some(tid);
                    }
                }
            }
        }

        // Phase 2: place newly selected threads — prefer their last core.
        // A thread placed in the affinity pass gets `on_core` set, which the
        // second pass uses to skip it.
        for &i in &ready {
            if self.threads[i].on_core.is_some() {
                continue;
            }
            if let Some(c) = self.threads[i].last_core {
                if self.cores[c].running.is_none() {
                    self.place(self.threads[i].id, c, now);
                }
            }
        }
        // Remaining on any free core.
        for &i in &ready {
            if self.threads[i].on_core.is_some() {
                continue;
            }
            let tid = self.threads[i].id;
            if let Some(c) = (0..self.cores.len()).find(|&c| self.cores[c].running.is_none()) {
                self.place(tid, c, now);
            }
        }

        self.scratch_ready = ready;
    }

    fn place(&mut self, tid: ThreadId, core: usize, now: SimTime) {
        self.cores[core].running = Some(tid);
        let record = self.record_events;
        if self.threads[tid.0 as usize].state != ThreadState::Running {
            self.ctx_switches += 1;
        }
        let th = &mut self.threads[tid.0 as usize];
        let was_running = th.state == ThreadState::Running;
        flush_state_time(th, now);
        th.state = ThreadState::Running;
        th.state_since = now;
        th.on_core = Some(core);
        if let Some(last) = th.last_core {
            if last != core && !was_running {
                th.migrations += 1;
            }
        }
        th.last_core = Some(core);
        if record {
            self.events.push(SchedEvent {
                at: now,
                thread: tid,
                kind: SchedEventKind::SwitchIn { core },
            });
        }
        // If this placement displaced someone from exactly this core, this
        // thread is the preempter.
        if let Some(victim) = self.displaced_on_core[core].take() {
            if victim != tid {
                self.preemptions.push(PreemptionRecord {
                    at: now,
                    victim,
                    preempter: tid,
                    core,
                });
            }
        }
    }

    /// True when a tick would be a pure no-op: no thread wants the CPU
    /// (which implies every core is empty, since on-core threads always
    /// want the CPU). O(1) via the maintained `wants_cpu` count.
    pub fn is_idle(&self) -> bool {
        self.n_want == 0
    }

    /// Jump time forward across a provably-idle span. Exactly equivalent to
    /// `span / tick` consecutive [`Scheduler::tick`] calls while
    /// [`Scheduler::is_idle`] holds: such ticks change no thread state, and
    /// lazy state-time accounting means each blocked thread's in-progress
    /// span is implicit in `state_since` — only the clock needs to move.
    pub fn advance_idle(&mut self, span: SimDuration) {
        debug_assert!(self.is_idle(), "advance_idle on a non-idle scheduler");
        self.now = self.now + span;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// A thread by id.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.0 as usize]
    }

    /// A thread's cumulative per-state times through [`Scheduler::now`].
    /// The stored `Thread::times` only cover up to the last state change
    /// (lazy accounting); this adds the in-progress span for live threads.
    /// Dead threads' times were flushed when they were killed.
    pub fn times_of(&self, tid: ThreadId) -> StateTimes {
        let th = &self.threads[tid.0 as usize];
        let mut t = th.times;
        if !th.dead {
            t.add(th.state, self.now.saturating_since(th.state_since));
        }
        t
    }

    /// All threads.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Cores (for inspection).
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Drain completed work items in completion order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Drain completions into a caller-provided buffer (appending), keeping
    /// the internal buffer's capacity for the next tick. The zero-alloc
    /// twin of [`Scheduler::drain_completions`].
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Drain preemption records.
    pub fn drain_preemptions(&mut self) -> Vec<PreemptionRecord> {
        std::mem::take(&mut self.preemptions)
    }

    /// Drain preemption records as an iterator, keeping the internal
    /// buffer's capacity.
    pub fn drain_preemptions_iter(&mut self) -> std::vec::Drain<'_, PreemptionRecord> {
        self.preemptions.drain(..)
    }

    /// Drain raw scheduler events.
    pub fn drain_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drain raw scheduler events as an iterator, keeping the internal
    /// buffer's capacity.
    pub fn drain_events_iter(&mut self) -> std::vec::Drain<'_, SchedEvent> {
        self.events.drain(..)
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

// Snapshot support. The scratch buffers (`scratch_ready`, `sel_marks`,
// `sel_gen`, `displaced_on_core`) are deliberately not serialized: each is
// rebuilt from scratch inside `select` before any read (`scratch_ready` is
// cleared, `displaced_on_core` filled with `None`, and `sel_gen` increments
// *before* any `sel_marks[i] == gen` comparison, so zeroed markers can never
// alias a live generation). A restored scheduler's next tick is therefore
// behaviourally identical to the original's, only with cold buffers — the
// restored-path extension of `tests/zero_alloc.rs` pins the re-warm cost.
impl Serialize for Scheduler {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        // Serialize threads with *flushed* state times: snapshots stay
        // byte-identical to the historical eager-accounting scheme and are
        // meaningful to external consumers. `deserialize` inverts the flush.
        let mut threads = self.threads.clone();
        for th in &mut threads {
            flush_state_time(th, self.now);
        }
        s.begin_map(9);
        s.entry("cores", &self.cores);
        s.entry("threads", &threads);
        s.entry("now", &self.now);
        s.entry("completions", &self.completions);
        s.entry("preemptions", &self.preemptions);
        s.entry("events", &self.events);
        s.entry("min_vruntime", &self.min_vruntime);
        s.entry("record_events", &self.record_events);
        s.entry("ctx_switches", &self.ctx_switches);
        s.end_map();
    }
}

impl Deserialize for Scheduler {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::de::Error> {
        use serde::de::{set, take};
        let mut cores = None;
        let mut threads = None;
        let mut now = None;
        let mut completions = None;
        let mut preemptions = None;
        let mut events = None;
        let mut min_vruntime = None;
        let mut record_events = None;
        let mut ctx_switches = None;
        d.begin_map()?;
        while let Some(k) = d.next_key()? {
            match k {
                "cores" => set(&mut cores, d, "cores")?,
                "threads" => set(&mut threads, d, "threads")?,
                "now" => set(&mut now, d, "now")?,
                "completions" => set(&mut completions, d, "completions")?,
                "preemptions" => set(&mut preemptions, d, "preemptions")?,
                "events" => set(&mut events, d, "events")?,
                "min_vruntime" => set(&mut min_vruntime, d, "min_vruntime")?,
                "record_events" => set(&mut record_events, d, "record_events")?,
                "ctx_switches" => set(&mut ctx_switches, d, "ctx_switches")?,
                _ => d.skip()?,
            }
        }
        let mut threads: Vec<Thread> = take(threads, "threads", "Scheduler")?;
        let now: SimTime = take(now, "now", "Scheduler")?;
        // Snapshots carry fully-flushed state times; convert back to the
        // in-memory lazy form by deducting each live thread's in-progress
        // span (charged again on its next state change or `times_of` read).
        for th in &mut threads {
            if !th.dead {
                th.times.sub(th.state, now.saturating_since(th.state_since));
            }
        }
        let n_want = threads.iter().filter(|t| t.wants_cpu()).count() as u32;
        Ok(Scheduler {
            cores: take(cores, "cores", "Scheduler")?,
            threads,
            now,
            completions: take(completions, "completions", "Scheduler")?,
            preemptions: take(preemptions, "preemptions", "Scheduler")?,
            events: take(events, "events", "Scheduler")?,
            min_vruntime: take(min_vruntime, "min_vruntime", "Scheduler")?,
            record_events: take(record_events, "record_events", "Scheduler")?,
            ctx_switches: take(ctx_switches, "ctx_switches", "Scheduler")?,
            scratch_ready: Vec::new(),
            sel_marks: Vec::new(),
            sel_gen: 0,
            displaced_on_core: Vec::new(),
            scratch_running: Vec::new(),
            n_want,
        })
    }
}

/// Sort key: RT (by descending priority) strictly before fair (by ascending
/// vruntime). Lower key = scheduled first.
fn rank(th: &Thread) -> (u8, f64) {
    match th.class {
        SchedClass::RealTime { prio } => (0, 255.0 - prio as f64),
        SchedClass::Fair { .. } => (1, th.vruntime),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration(1_000);

    fn sched(cores: usize) -> Scheduler {
        let mut s = Scheduler::new();
        for _ in 0..cores {
            s.add_core(1.0);
        }
        s
    }

    #[test]
    fn single_thread_runs_and_completes() {
        let mut s = sched(1);
        let t = s.spawn("worker", SchedClass::NORMAL);
        s.push_work(t, 2_500.0, 7);
        for _ in 0..3 {
            s.tick(MS);
        }
        let done = s.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].thread, t);
        assert_eq!(s.thread(t).state, ThreadState::Sleeping);
        assert_eq!(s.times_of(t).running, MS * 3);
    }

    #[test]
    fn core_speed_scales_execution() {
        let mut slow = Scheduler::new();
        slow.add_core(0.5);
        let t = slow.spawn("w", SchedClass::NORMAL);
        slow.push_work(t, 1_000.0, 0);
        slow.tick(MS); // only 500 µs of work done
        assert!(slow.drain_completions().is_empty());
        slow.tick(MS);
        assert_eq!(slow.drain_completions().len(), 1);
    }

    #[test]
    fn rt_preempts_fair() {
        let mut s = sched(1);
        let fair = s.spawn("video", SchedClass::NORMAL);
        let rt = s.spawn("mmcqd", SchedClass::RealTime { prio: 50 });
        s.push_work(fair, 10_000.0, 0);
        s.tick(MS);
        assert_eq!(s.thread(fair).state, ThreadState::Running);
        // mmcqd wakes with work; on the next tick it must take the core.
        s.push_work(rt, 2_000.0, 1);
        s.tick(MS);
        assert_eq!(s.thread(rt).state, ThreadState::Running);
        assert_eq!(s.thread(fair).state, ThreadState::RunnablePreempted);
        let pre = s.drain_preemptions();
        assert_eq!(pre.len(), 1);
        assert_eq!(pre[0].victim, fair);
        assert_eq!(pre[0].preempter, rt);
    }

    #[test]
    fn preempted_time_is_accounted_separately() {
        let mut s = sched(1);
        let fair = s.spawn("video", SchedClass::NORMAL);
        let rt = s.spawn("mmcqd", SchedClass::RealTime { prio: 50 });
        s.push_work(fair, 100_000.0, 0);
        s.tick(MS);
        s.push_work(rt, 3_000.0, 1);
        s.tick(MS);
        s.tick(MS);
        s.tick(MS);
        // Three ticks preempted while mmcqd ran.
        assert_eq!(s.times_of(fair).preempted, MS * 3);
        s.tick(MS); // mmcqd done: video runs again
        assert_eq!(s.thread(fair).state, ThreadState::Running);
    }

    #[test]
    fn fair_threads_share_one_core_roughly_equally() {
        let mut s = sched(1);
        let a = s.spawn("a", SchedClass::NORMAL);
        let b = s.spawn("b", SchedClass::NORMAL);
        s.push_work(a, 1e9, 0);
        s.push_work(b, 1e9, 1);
        for _ in 0..1000 {
            s.tick(MS);
        }
        let ra = s.times_of(a).running.as_micros() as f64;
        let rb = s.times_of(b).running.as_micros() as f64;
        let share = ra / (ra + rb);
        assert!((share - 0.5).abs() < 0.05, "share {share}");
    }

    #[test]
    fn weights_bias_fair_sharing() {
        let mut s = sched(1);
        let heavy = s.spawn("heavy", SchedClass::Fair { weight: 3072 });
        let light = s.spawn("light", SchedClass::Fair { weight: 1024 });
        s.push_work(heavy, 1e9, 0);
        s.push_work(light, 1e9, 1);
        for _ in 0..2000 {
            s.tick(MS);
        }
        let rh = s.times_of(heavy).running.as_micros() as f64;
        let rl = s.times_of(light).running.as_micros() as f64;
        let ratio = rh / rl;
        assert!((ratio - 3.0).abs() < 0.35, "ratio {ratio}");
    }

    #[test]
    fn two_cores_run_two_threads() {
        let mut s = sched(2);
        let a = s.spawn("a", SchedClass::NORMAL);
        let b = s.spawn("b", SchedClass::NORMAL);
        s.push_work(a, 5_000.0, 0);
        s.push_work(b, 5_000.0, 1);
        s.tick(MS);
        assert_eq!(s.thread(a).state, ThreadState::Running);
        assert_eq!(s.thread(b).state, ThreadState::Running);
        assert_ne!(s.thread(a).on_core, s.thread(b).on_core);
    }

    #[test]
    fn io_block_and_unblock() {
        let mut s = sched(1);
        let t = s.spawn("reader", SchedClass::NORMAL);
        s.push_work(t, 10_000.0, 0);
        s.tick(MS);
        s.block_io(t);
        assert_eq!(s.thread(t).state, ThreadState::IoWait);
        s.tick(MS);
        s.tick(MS);
        assert_eq!(s.times_of(t).io_wait, MS * 2);
        s.unblock_io(t);
        s.tick(MS);
        assert_eq!(s.thread(t).state, ThreadState::Running);
    }

    #[test]
    fn killed_thread_never_runs_again() {
        let mut s = sched(1);
        let t = s.spawn("victim", SchedClass::NORMAL);
        s.push_work(t, 10_000.0, 0);
        s.tick(MS);
        s.kill_thread(t);
        s.push_work(t, 1_000.0, 1); // ignored
        s.tick(MS);
        assert!(s.thread(t).dead);
        assert!(s.drain_completions().is_empty());
        assert_eq!(s.times_of(t).running, MS);
    }

    #[test]
    fn state_times_sum_to_lifetime() {
        let mut s = sched(1);
        let a = s.spawn("a", SchedClass::NORMAL);
        let b = s.spawn("b", SchedClass::NORMAL);
        s.push_work(a, 3_000.0, 0);
        s.push_work(b, 3_000.0, 1);
        for _ in 0..10 {
            s.tick(MS);
        }
        for tid in [a, b] {
            assert_eq!(
                s.times_of(tid).total(),
                MS * 10,
                "thread {:?} accounting must cover the whole run",
                tid
            );
        }
    }

    #[test]
    fn wakeup_placement_prevents_starvation() {
        let mut s = sched(1);
        let hog = s.spawn("hog", SchedClass::NORMAL);
        s.push_work(hog, 1e9, 0);
        for _ in 0..5000 {
            s.tick(MS);
        }
        // A newly woken thread must get the CPU promptly despite the hog's
        // huge accumulated vruntime... on the hog's side.
        let newcomer = s.spawn("newcomer", SchedClass::NORMAL);
        s.push_work(newcomer, 2_000.0, 9);
        let mut waited = 0;
        loop {
            s.tick(MS);
            waited += 1;
            if !s.drain_completions().is_empty() {
                break;
            }
            assert!(waited < 50, "newcomer starved");
        }
    }

    #[test]
    fn completions_report_multiple_items_per_tick() {
        let mut s = sched(1);
        let t = s.spawn("w", SchedClass::NORMAL);
        for tag in 0..4 {
            s.push_work(t, 200.0, tag);
        }
        s.tick(MS);
        let tags: Vec<u64> = s.drain_completions().iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3]);
    }

    #[test]
    fn affinity_keeps_thread_on_its_core() {
        let mut s = sched(2);
        let t = s.spawn("sticky", SchedClass::NORMAL);
        s.push_work(t, 500.0, 0);
        s.tick(MS);
        let first_core = s.thread(t).last_core;
        // Sleep, then wake again — should return to the same core.
        s.push_work(t, 500.0, 1);
        s.tick(MS);
        assert_eq!(s.thread(t).last_core, first_core);
        assert_eq!(s.thread(t).migrations, 0);
    }
}
