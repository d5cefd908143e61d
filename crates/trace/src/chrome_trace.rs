//! Chrome trace-event export: open a run in `ui.perfetto.dev`.
//!
//! Serializes a [`Trace`] to the Chrome trace-event JSON format (the
//! `traceEvents` array form), which both `chrome://tracing` and the
//! Perfetto UI load directly. The export mirrors what the paper's authors
//! looked at in §5:
//!
//! - one track per registered thread, with `Running`, `Runnable`, and
//!   `Runnable (Preempted)` slices reconstructed from the scheduler's
//!   switch/wakeup events (`ph:"X"` complete slices);
//! - one counter track per recorded counter — lmkd CPU %, rendered FPS,
//!   free memory, zRAM usage (`ph:"C"`);
//! - instant events for lmkd kills, major faults, rebuffer boundaries, and
//!   ABR quality switches (`ph:"i"`);
//! - flow arrows linking a blamed pressure fact to the QoE falter it
//!   caused (`ph:"s"` / `ph:"f"` pairs from the attribution engine).
//!
//! Timestamps are microseconds, which is [`SimTime`]'s native unit, so no
//! scaling happens on export. Events are emitted in non-decreasing `ts`
//! order with all metadata records first.

use crate::trace::Trace;
use mvqoe_sched::{SchedEventKind, ThreadId, ThreadState};
use mvqoe_sim::SimTime;
use serde::Value;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// The single process id under which every track is exported.
const PID: u32 = 1;

/// Escape a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a counter value as a JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One open interval during slice reconstruction.
#[derive(Clone, Copy)]
enum Open {
    Running(SimTime),
    Runnable(SimTime, /* preempted */ bool),
}

fn state_slice_name(preempted: bool) -> &'static str {
    if preempted {
        "Runnable (Preempted)"
    } else {
        "Runnable"
    }
}

/// Serialize `trace` to a Chrome trace-event JSON string.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let end = trace.end();
    // (ts, line) pairs; a stable sort on ts keeps metadata (ts 0, pushed
    // first) ahead of same-timestamp data events.
    let mut events: Vec<(u64, String)> = Vec::new();

    // Every thread that appears anywhere gets a name metadata record.
    let mut tids: BTreeSet<ThreadId> = trace.threads().map(|(&id, _)| id).collect();
    for e in trace.events() {
        tids.insert(e.thread);
    }
    for i in trace.instants() {
        if let Some(tid) = i.thread {
            tids.insert(tid);
        }
    }
    for f in trace.flows() {
        tids.insert(f.from_thread);
        tids.insert(f.to_thread);
    }
    events.push((
        0,
        format!(
            r#"{{"ph":"M","pid":{PID},"tid":0,"ts":0,"name":"process_name","args":{{"name":"mvqoe"}}}}"#
        ),
    ));
    for tid in &tids {
        let name = trace
            .thread(*tid)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| format!("tid{}", tid.0));
        events.push((
            0,
            format!(
                r#"{{"ph":"M","pid":{PID},"tid":{},"ts":0,"name":"thread_name","args":{{"name":"{}"}}}}"#,
                tid.0,
                escape(&name)
            ),
        ));
    }

    // Reconstruct Running / Runnable / Preempted slices per thread.
    for &tid in &tids {
        let mut open: Option<Open> = None;
        let mut emit = |from: SimTime, to: SimTime, name: &str| {
            let dur = to.as_micros().saturating_sub(from.as_micros());
            events.push((
                from.as_micros(),
                format!(
                    r#"{{"ph":"X","pid":{PID},"tid":{},"ts":{},"dur":{dur},"name":"{}","cat":"sched"}}"#,
                    tid.0,
                    from.as_micros(),
                    escape(name)
                ),
            ));
        };
        for e in trace.events().iter().filter(|e| e.thread == tid) {
            match e.kind {
                SchedEventKind::SwitchIn { .. } => {
                    if let Some(Open::Runnable(from, p)) = open {
                        emit(from, e.at, state_slice_name(p));
                    }
                    open = Some(Open::Running(e.at));
                }
                SchedEventKind::SwitchOut { to_state, .. } => {
                    if let Some(Open::Running(from)) = open {
                        emit(from, e.at, "Running");
                    }
                    open = match to_state {
                        ThreadState::Runnable => Some(Open::Runnable(e.at, false)),
                        ThreadState::RunnablePreempted => Some(Open::Runnable(e.at, true)),
                        _ => None,
                    };
                }
                SchedEventKind::Wakeup => {
                    if open.is_none() {
                        open = Some(Open::Runnable(e.at, false));
                    }
                }
                SchedEventKind::BlockIo | SchedEventKind::Sleep => {
                    if let Some(Open::Running(from)) = open {
                        emit(from, e.at, "Running");
                    }
                    open = None;
                }
            }
        }
        // Close whatever is still open at the horizon.
        match open {
            Some(Open::Running(from)) => emit(from, end, "Running"),
            Some(Open::Runnable(from, p)) => emit(from, end, state_slice_name(p)),
            None => {}
        }
    }

    // Counter tracks (BTreeMap keeps name order stable).
    let names: Vec<String> = trace.counter_names().map(|s| s.to_string()).collect();
    for name in names {
        if let Some(series) = trace.counter_track(&name) {
            for &(at, v) in series.samples() {
                events.push((
                    at.as_micros(),
                    format!(
                        r#"{{"ph":"C","pid":{PID},"tid":0,"ts":{},"name":"{}","args":{{"value":{}}}}}"#,
                        at.as_micros(),
                        escape(&name),
                        num(v)
                    ),
                ));
            }
        }
    }

    // Instant events. Thread-scoped when the instant names a thread,
    // global otherwise.
    for i in trace.instants() {
        let (tid, scope) = match i.thread {
            Some(t) => (t.0, "t"),
            None => (0, "g"),
        };
        events.push((
            i.at.as_micros(),
            format!(
                r#"{{"ph":"i","pid":{PID},"tid":{tid},"ts":{},"s":"{scope}","name":"{}","cat":"event"}}"#,
                i.at.as_micros(),
                escape(&i.name)
            ),
        ));
    }

    // Flow arrows: a `ph:"s"` start at the cause and a `ph:"f"` finish at
    // the effect, paired by id. `"bp":"e"` binds the finish to the
    // enclosing slice so Perfetto draws the arrow into the effect's track.
    for f in trace.flows() {
        events.push((
            f.from_at.as_micros(),
            format!(
                r#"{{"ph":"s","pid":{PID},"tid":{},"ts":{},"id":{},"name":"{}","cat":"attribution"}}"#,
                f.from_thread.0,
                f.from_at.as_micros(),
                f.id,
                escape(&f.name)
            ),
        ));
        events.push((
            f.to_at.as_micros(),
            format!(
                r#"{{"ph":"f","bp":"e","pid":{PID},"tid":{},"ts":{},"id":{},"name":"{}","cat":"attribution"}}"#,
                f.to_thread.0,
                f.to_at.as_micros(),
                f.id,
                escape(&f.name)
            ),
        ));
    }

    events.sort_by_key(|&(ts, _)| ts);

    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (_, line)) in events.iter().enumerate() {
        out.push_str(line);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Serialize `trace` and write it to `path`.
pub fn write_chrome_trace(trace: &Trace, path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(trace))
}

/// Check a parsed Chrome trace-event file: a non-empty `traceEvents` array
/// whose numeric `ts` never go backwards, a `dur` on every slice and an
/// `args.value` on every counter sample, at least one `thread_name` record
/// and at least three counter tracks. Returns a one-line summary.
pub fn validate_chrome_trace(v: &Value) -> Result<String, String> {
    let events = v
        .get("traceEvents")
        .and_then(Value::as_seq)
        .ok_or("no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut thread_names = 0u64;
    let mut counters = BTreeSet::new();
    let mut instants = 0u64;
    let mut last_ts = -1.0f64;
    for (i, ev) in events.iter().enumerate() {
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i} has no numeric ts"))?;
        if ts < last_ts {
            return Err(format!("event {i} ts {ts} goes backwards (prev {last_ts})"));
        }
        last_ts = ts;
        let name = ev.get("name").and_then(Value::as_str);
        match ev.get("ph").and_then(Value::as_str).unwrap_or("") {
            "M" => thread_names += u64::from(name == Some("thread_name")),
            "C" => {
                counters.extend(name);
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("counter event {i} has no args.value"))?;
            }
            "X" => {
                ev.get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("slice event {i} has no dur"))?;
            }
            "i" => instants += 1,
            _ => {}
        }
    }
    if thread_names == 0 {
        return Err("no thread_name metadata".into());
    }
    let tracks = counters.len();
    if tracks < 3 {
        return Err(format!("only {tracks} counter track(s), need >= 3"));
    }
    Ok(format!(
        "{} events, {thread_names} threads, {tracks} counter tracks, {instants} instants",
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_sched::SchedEvent;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn build() -> Trace {
        let mut tr = Trace::new();
        tr.register_thread(ThreadId(0), "kswapd0", None);
        tr.record_sched([
            SchedEvent {
                at: t(1),
                thread: ThreadId(0),
                kind: SchedEventKind::SwitchIn { core: 0 },
            },
            SchedEvent {
                at: t(3),
                thread: ThreadId(0),
                kind: SchedEventKind::SwitchOut {
                    core: 0,
                    to_state: ThreadState::Runnable,
                },
            },
        ]);
        tr.finish(t(5));
        tr
    }

    #[test]
    fn slices_cover_running_and_runnable() {
        let json = chrome_trace_json(&build());
        assert!(json.contains(r#""name":"Running""#));
        assert!(json.contains(r#""name":"Runnable""#));
        // Running slice: ts 1000 µs, dur 2000 µs.
        assert!(json.contains(r#""ts":1000,"dur":2000,"name":"Running""#));
        // Runnable interval closes at the 5 ms horizon.
        assert!(json.contains(r#""ts":3000,"dur":2000,"name":"Runnable""#));
    }

    #[test]
    fn timestamps_are_sorted() {
        let mut tr = build();
        tr.counter("fps", t(2), 30.0);
        tr.instant("lmkd_kill:bg.app0", t(4), None);
        let json = chrome_trace_json(&tr);
        let mut last = 0u64;
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let ts: u64 = line
                .split("\"ts\":")
                .nth(1)
                .unwrap()
                .split([',', '}'])
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(ts >= last, "ts must be non-decreasing: {line}");
            last = ts;
        }
        assert!(last > 0);
    }

    #[test]
    fn flow_arrows_pair_start_and_finish_by_id() {
        let mut tr = build();
        tr.register_thread(ThreadId(1), "SurfaceFlinger", None);
        tr.flow(
            "blame:lmkd_kill->rebuffer_start",
            t(2),
            ThreadId(0),
            t(4),
            ThreadId(1),
        );
        let json = chrome_trace_json(&tr);
        assert!(json.contains(
            r#""ph":"s","pid":1,"tid":0,"ts":2000,"id":1,"name":"blame:lmkd_kill->rebuffer_start""#
        ));
        assert!(json.contains(
            r#""ph":"f","bp":"e","pid":1,"tid":1,"ts":4000,"id":1,"name":"blame:lmkd_kill->rebuffer_start""#
        ));
        // Flow threads get name metadata even if only flows reference them.
        assert!(json.contains(r#""tid":1,"ts":0,"name":"thread_name","args":{"name":"SurfaceFlinger"}"#));
    }

    #[test]
    fn escapes_hostile_names() {
        let mut tr = Trace::new();
        tr.register_thread(ThreadId(0), "we\"ird\\name", None);
        tr.finish(t(1));
        let json = chrome_trace_json(&tr);
        assert!(json.contains(r#"we\"ird\\name"#));
    }
}
