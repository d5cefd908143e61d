//! Spans around the benchmark's calls into the program, for the traced run.
//!
//! Every span has a name, a start, an end, its parent span and the id of
//! the operation it belongs to. Spans stay in memory until the run ends;
//! then they give per-call durations, per-name self time (duration minus
//! the time child spans cover) and a Chrome trace-event file that loads in
//! Perfetto next to the program's own phone traces.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its operation and its parent span (0 = none).
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Parent span id.
    pub parent: u64,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id (unique within the run, from 1).
    pub id: u64,
    /// Parent span id (0 for an operation's root).
    pub parent: u64,
    /// Operation id.
    pub op: u64,
    /// Layer call name, e.g. `core.start`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Small per-thread id for the trace file.
    pub tid: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Median duration, ms.
    pub median_ms: f64,
}

/// In-memory span recorder, shared by the driving threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the context its own
    /// child spans hang from.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx {
            op: ctx.op,
            parent: id,
        });
        let end_ns = self.now_ns();
        let rec = SpanRec {
            id,
            parent: ctx.parent,
            op: ctx.op,
            name,
            start_ns,
            end_ns,
            tid: TID.with(|t| *t),
        };
        self.spans.lock().expect("span log lock").push(rec);
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Calls, total, self time and median per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &spans {
            let t = out.entry(s.name).or_default();
            let dur = s.dur_ns();
            t.calls += 1;
            t.total_ms += dur as f64 / 1e6;
            // Children of one span run one after another on its thread, or
            // inside it on workers it waits for; either way they lie within
            // it, so the covered time is at most the span's own.
            let covered = child_ns.get(&s.id).copied().unwrap_or(0).min(dur);
            t.self_ms += (dur - covered) as f64 / 1e6;
            durs.entry(s.name).or_default().push(dur as f64 / 1e6);
        }
        for (name, t) in out.iter_mut() {
            t.median_ms = crate::stats::median(&durs[name]);
        }
        out
    }

    /// Chrome trace-event JSON of the spans of operations below `max_op`
    /// (all spans stay in memory; the file keeps the first operations so it
    /// stays small enough to open).
    pub fn chrome_json(&self, max_op: u64) -> String {
        let mut spans: Vec<SpanRec> = self.spans().into_iter().filter(|s| s.op < max_op).collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            r#"{"ph":"M","pid":2,"tid":0,"ts":0,"name":"process_name","args":{"name":"mvbench host"}}"#,
        );
        for s in &spans {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":2,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\"cat\":\"host\",\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.name,
                s.op,
                s.id,
                s.parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// [`Tracer::span`] when tracing is on, a plain call of `f` when it is off.
pub fn span<R>(t: Option<&Tracer>, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
    match t {
        Some(t) => t.span(ctx, name, f),
        None => f(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = Ctx { op: 7, parent: 0 };
        t.span(root, "outer", |c| {
            t.span(c, "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let st = t.self_times();
        let outer = &st["outer"];
        let inner = &st["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_ms >= 20.0);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
        assert!(outer.self_ms >= 5.0 && outer.self_ms < inner.total_ms);
        let spans = t.spans();
        let o = spans.iter().find(|s| s.name == "outer").unwrap();
        let i = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((i.parent, i.op, o.parent, o.op), (o.id, 7, 0, 7));
    }

    #[test]
    fn chrome_json_parses_and_keeps_early_ops() {
        let t = Tracer::new();
        for op in 0..4 {
            t.span(Ctx { op, parent: 0 }, "op", |_| ());
        }
        let json = t.chrome_json(2);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_seq())
            .expect("events");
        assert_eq!(events.len(), 1 + 2);
    }
}
