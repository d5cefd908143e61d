//! The per-tick hot path and the ingest wire codec must not allocate once
//! their buffers are warm.
//!
//! The event-driven engine reuses machine-owned scratch (`StepOutputs`,
//! scheduler selection buffers, drain targets), and the codec writes into a
//! caller-owned buffer and reads keys and strings borrowed from the input;
//! these tests prove the claims with a counting global allocator rather
//! than asserting them in prose. Each thread counts only its own
//! allocations, while it measures: libtest's harness thread allocates
//! lazily (e.g. its completion-channel context on first blocking recv), and
//! on a loaded single-core host that init can land inside any counted
//! window, as can another test running on its own thread.

use mvqoe_device::{DeviceProfile, Machine, StepOutputs};
use mvqoe_sim::{SimDuration, SimRng};
use mvqoe_telemetryd::DeviceReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// const-initialized so touching them from inside the allocator never
// itself allocates (no lazy TLS init on the measuring thread).
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.try_with(|c| c.get()).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count heap allocations made by this thread during `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn warm_machine_steps_without_allocating() {
    let mut rng = SimRng::new(7);
    let mut m = Machine::new(DeviceProfile::nexus5(), &mut rng);
    // Sched events would accumulate in the trace without bound; the bulk
    // experiment grid runs with recording off, so measure that path.
    m.sched.set_record_events(false);

    // Warm-up: grow every scratch buffer to steady-state capacity. Two
    // seconds cover many lmkd polls (25–300 ms cadence) and ambient bursts
    // (50 ms cadence).
    m.run_idle(SimDuration::from_secs(2));

    // The event-driven idle loop: zero allocations per run.
    let n = count_allocs(|| m.run_idle(SimDuration::from_secs(2)));
    assert_eq!(n, 0, "run_idle allocated {n} times after warm-up");

    // The dense per-tick path with a caller-owned output buffer: the same
    // guarantee holds without the skip.
    let mut out = StepOutputs::default();
    m.step_into(&mut out); // warm the caller-owned buffer
    let n = count_allocs(|| {
        for _ in 0..2_000 {
            m.step_into(&mut out);
        }
    });
    assert_eq!(n, 0, "dense step_into allocated {n} times after warm-up");

    // The snapshot/restore path: a machine rebuilt from its serialized
    // form regrows its scratch (selection buffers, drain targets are
    // deliberately *not* serialized) during warm-up and then holds the
    // same zero-allocation guarantee on both engines.
    let mut r = serde::from_value::<Machine>(&serde::to_value(&m)).expect("machine round-trips");
    r.sched.set_record_events(false);
    r.run_idle(SimDuration::from_secs(2));
    let n = count_allocs(|| r.run_idle(SimDuration::from_secs(2)));
    assert_eq!(n, 0, "restored run_idle allocated {n} times after warm-up");

    let mut out = StepOutputs::default();
    r.step_into(&mut out);
    let n = count_allocs(|| {
        for _ in 0..2_000 {
            r.step_into(&mut out);
        }
    });
    assert_eq!(n, 0, "restored step_into allocated {n} times after warm-up");
}

#[test]
fn warm_run_frames_encode_and_parse_without_allocating() {
    // A frame as the load generator sends it: escape-free keys and a
    // string enum, integers and floats that need every digit.
    let line = r#"{"Run":{"device":3,"sample":{"at":74000000,"available_mib":1113.7265625,"utilization_pct":63.745880126953125,"trim":"Moderate","interactive":true,"n_services":14},"count":48}}"#;
    let frame: DeviceReport = serde_json::from_str(line).expect("the frame parses");
    let mut buf = String::new();
    serde_json::to_string_into(&mut buf, &frame);
    assert_eq!(buf, line, "the frame re-encodes to the same bytes");

    let n = count_allocs(|| {
        for _ in 0..1_000 {
            buf.clear();
            serde_json::to_string_into(&mut buf, std::hint::black_box(&frame));
        }
    });
    assert_eq!(
        n, 0,
        "encoding a Run frame allocated {n} times after warm-up"
    );

    let n = count_allocs(|| {
        for _ in 0..1_000 {
            let parsed: DeviceReport =
                serde_json::from_slice(std::hint::black_box(line.as_bytes())).expect("parses");
            std::hint::black_box(parsed);
        }
    });
    assert_eq!(n, 0, "parsing a Run line allocated {n} times");
}
