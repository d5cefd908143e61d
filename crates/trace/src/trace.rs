//! The trace recorder.

use mvqoe_sched::{PreemptionRecord, SchedEvent, ThreadId};
use mvqoe_sim::{SimTime, TimeSeries};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Metadata for a traced thread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadMeta {
    /// Thread name ("kswapd0", "MediaCodec", …).
    pub name: String,
    /// Owning process tag in the memory model, if any.
    pub proc_tag: Option<u32>,
}

/// A point event on the trace timeline: an lmkd kill, a major fault, a
/// rebuffer boundary, an ABR quality switch. Rendered as instant events in
/// the Chrome/Perfetto export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstantEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened ("lmkd_kill:bg.app3", "major_fault", …).
    pub name: String,
    /// The thread it concerns, if any (global otherwise).
    pub thread: Option<ThreadId>,
}

/// A causal link between two points on the timeline — a pressure fact and
/// the QoE falter it is blamed for. Rendered as a Perfetto flow arrow
/// (`ph:"s"` / `ph:"f"`) in the Chrome export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Flow id; unique within the trace, shared by both arrow ends.
    pub id: u64,
    /// Arrow label ("blame:lmkd_kill->rebuffer_start", …).
    pub name: String,
    /// Where the arrow starts (the cause).
    pub from_at: SimTime,
    /// Thread the cause is drawn on.
    pub from_thread: ThreadId,
    /// Where the arrow ends (the effect).
    pub to_at: SimTime,
    /// Thread the effect is drawn on.
    pub to_thread: ThreadId,
}

/// A recorded trace of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    threads: BTreeMap<ThreadId, ThreadMeta>,
    events: Vec<SchedEvent>,
    preemptions: Vec<PreemptionRecord>,
    counters: BTreeMap<String, TimeSeries>,
    instants: Vec<InstantEvent>,
    flows: Vec<FlowRecord>,
    detail: bool,
    end: SimTime,
}

impl Trace {
    /// Create an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Register a thread's metadata (call once per thread).
    pub fn register_thread(&mut self, id: ThreadId, name: impl Into<String>, proc_tag: Option<u32>) {
        self.threads.insert(
            id,
            ThreadMeta {
                name: name.into(),
                proc_tag,
            },
        );
    }

    /// Append scheduler events (drained from the scheduler each tick).
    pub fn record_sched(&mut self, events: impl IntoIterator<Item = SchedEvent>) {
        for e in events {
            self.end = self.end.max(e.at);
            self.events.push(e);
        }
    }

    /// Append preemption records (advances the horizon like
    /// [`Trace::record_sched`], so a preemption after the last sched event
    /// is not clipped by horizon-based queries).
    pub fn record_preemptions(&mut self, records: impl IntoIterator<Item = PreemptionRecord>) {
        for r in records {
            self.end = self.end.max(r.at);
            self.preemptions.push(r);
        }
    }

    /// Push a sample onto a named counter track (lmkd CPU %, rendered FPS,
    /// processes killed, …). Steady-state sampling hits the `get_mut` fast
    /// path and allocates nothing; only the first sample of a track pays
    /// for the key.
    pub fn counter(&mut self, name: &str, at: SimTime, value: f64) {
        self.end = self.end.max(at);
        if let Some(series) = self.counters.get_mut(name) {
            series.push(at, value);
            return;
        }
        self.counters
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name))
            .push(at, value);
    }

    /// Enable detail recording: high-volume instant events (per-fault
    /// markers) are only kept when this is on. Mirrors the scheduler's
    /// `set_record_events` switch and is set from the same session flag.
    pub fn set_detail(&mut self, on: bool) {
        self.detail = on;
    }

    /// Whether detail recording is on.
    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Record a point event (always kept — use for rare events like kills,
    /// rebuffer boundaries, and quality switches).
    pub fn instant(&mut self, name: impl Into<String>, at: SimTime, thread: Option<ThreadId>) {
        self.end = self.end.max(at);
        self.instants.push(InstantEvent {
            at,
            name: name.into(),
            thread,
        });
    }

    /// Record a high-volume point event (major faults); dropped unless
    /// detail recording is on.
    pub fn instant_detail(
        &mut self,
        name: impl Into<String>,
        at: SimTime,
        thread: Option<ThreadId>,
    ) {
        if self.detail {
            self.instant(name, at, thread);
        }
    }

    /// All recorded point events, in arrival order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// Record a causal flow from one timeline point to another (always
    /// kept — attribution emits at most one per QoE-harming event).
    /// Returns the flow id shared by both arrow ends.
    pub fn flow(
        &mut self,
        name: impl Into<String>,
        from_at: SimTime,
        from_thread: ThreadId,
        to_at: SimTime,
        to_thread: ThreadId,
    ) -> u64 {
        let id = self.flows.len() as u64 + 1;
        self.end = self.end.max(from_at).max(to_at);
        self.flows.push(FlowRecord {
            id,
            name: name.into(),
            from_at,
            from_thread,
            to_at,
            to_thread,
        });
        id
    }

    /// All recorded flows, in arrival order.
    pub fn flows(&self) -> &[FlowRecord] {
        &self.flows
    }

    /// Mark the end of the traced run.
    pub fn finish(&mut self, at: SimTime) {
        self.end = self.end.max(at);
    }

    /// The trace horizon.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Thread metadata by id.
    pub fn thread(&self, id: ThreadId) -> Option<&ThreadMeta> {
        self.threads.get(&id)
    }

    /// Look up a thread id by exact name (first match).
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .find(|(_, m)| m.name == name)
            .map(|(&id, _)| id)
    }

    /// All registered threads.
    pub fn threads(&self) -> impl Iterator<Item = (&ThreadId, &ThreadMeta)> {
        self.threads.iter()
    }

    /// All scheduler events in arrival order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// All preemption records.
    pub fn preemptions(&self) -> &[PreemptionRecord] {
        &self.preemptions
    }

    /// A counter track by name.
    pub fn counter_track(&self, name: &str) -> Option<&TimeSeries> {
        self.counters.get(name)
    }

    /// Names of all counter tracks.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_sched::SchedEventKind;

    #[test]
    fn registers_and_looks_up_threads() {
        let mut tr = Trace::new();
        tr.register_thread(ThreadId(0), "kswapd0", None);
        tr.register_thread(ThreadId(1), "MediaCodec", Some(3));
        assert_eq!(tr.thread_by_name("kswapd0"), Some(ThreadId(0)));
        assert_eq!(tr.thread(ThreadId(1)).unwrap().proc_tag, Some(3));
        assert_eq!(tr.thread_by_name("nope"), None);
        assert_eq!(tr.threads().count(), 2);
    }

    #[test]
    fn records_events_and_tracks_horizon() {
        let mut tr = Trace::new();
        tr.record_sched([SchedEvent {
            at: SimTime::from_secs(3),
            thread: ThreadId(0),
            kind: SchedEventKind::Wakeup,
        }]);
        assert_eq!(tr.events().len(), 1);
        assert_eq!(tr.end(), SimTime::from_secs(3));
        tr.finish(SimTime::from_secs(10));
        assert_eq!(tr.end(), SimTime::from_secs(10));
    }

    #[test]
    fn preemptions_advance_the_horizon() {
        let mut tr = Trace::new();
        tr.record_sched([SchedEvent {
            at: SimTime::from_secs(1),
            thread: ThreadId(0),
            kind: SchedEventKind::Wakeup,
        }]);
        // A preemption *after* the last sched event must extend `end`, or
        // horizon-based queries silently clip it.
        tr.record_preemptions([PreemptionRecord {
            at: SimTime::from_secs(5),
            victim: ThreadId(0),
            preempter: ThreadId(1),
            core: 0,
        }]);
        assert_eq!(tr.end(), SimTime::from_secs(5));
    }

    #[test]
    fn instants_record_and_respect_detail_gate() {
        let mut tr = Trace::new();
        tr.instant("lmkd_kill:bg.app0", SimTime::from_secs(2), None);
        // Detail off: high-volume markers are dropped.
        tr.instant_detail("major_fault", SimTime::from_secs(3), Some(ThreadId(4)));
        assert_eq!(tr.instants().len(), 1);
        tr.set_detail(true);
        tr.instant_detail("major_fault", SimTime::from_secs(3), Some(ThreadId(4)));
        assert_eq!(tr.instants().len(), 2);
        assert_eq!(tr.instants()[1].thread, Some(ThreadId(4)));
        // Instants advance the horizon too.
        assert_eq!(tr.end(), SimTime::from_secs(3));
    }

    #[test]
    fn flows_get_unique_ids_and_advance_the_horizon() {
        let mut tr = Trace::new();
        let a = tr.flow(
            "blame:lmkd_kill->rebuffer_start",
            SimTime::from_secs(1),
            ThreadId(0),
            SimTime::from_secs(2),
            ThreadId(1),
        );
        let b = tr.flow(
            "blame:network_dip->downswitch",
            SimTime::from_secs(3),
            ThreadId(2),
            SimTime::from_secs(4),
            ThreadId(1),
        );
        assert_ne!(a, b, "flow ids must be unique");
        assert_eq!(tr.flows().len(), 2);
        assert_eq!(tr.flows()[0].to_thread, ThreadId(1));
        assert_eq!(tr.end(), SimTime::from_secs(4));
    }

    #[test]
    fn counter_tracks_accumulate() {
        let mut tr = Trace::new();
        tr.counter("lmkd_cpu", SimTime::from_secs(1), 0.0);
        tr.counter("lmkd_cpu", SimTime::from_secs(2), 40.0);
        tr.counter("fps", SimTime::from_secs(1), 60.0);
        assert_eq!(tr.counter_track("lmkd_cpu").unwrap().len(), 2);
        assert_eq!(tr.counter_names().count(), 2);
        assert!(tr.counter_track("absent").is_none());
    }
}
