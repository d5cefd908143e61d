//! Quick mode: every workload end to end with its checks, in seconds.
//!
//! One test function runs them one after another: the kernel's
//! self-profiling counters the traced runs read are process-wide.

use mvbench::harness::RunConfig;
use mvbench::report::{END_TO_END, PER_LAYER, WORKLOADS};
use mvbench::run_workload;

fn quick(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 1.0,
        trace,
        quick: true,
    }
}

/// Per-layer values that must repeat exactly for a seed: counts, sizes and
/// the ratios made of them. Two KiB figures are not: a scrape carries the
/// service's latency histograms, and resident memory per connection is a
/// measurement of the host's allocator.
fn repeatable(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "KiB" | "ratio" | "B/s" | "1/s")
        && !matches!(
            name,
            "telemetryd.scrape_kib" | "telemetryd.rss_kib_per_connection"
        )
}

#[test]
fn every_workload_runs_quickly_and_prints_what_it_declares() {
    for w in WORKLOADS {
        let plain = run_workload(w, &quick(21, false)).expect("known workload");
        assert!(plain.correct, "{w}: {:?}", plain.notes);
        assert!(
            plain.attempted >= 1 && plain.failed == 0,
            "{w}: {:?}",
            plain.notes
        );
        let names: Vec<&str> = plain.rows.iter().map(|r| r.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0), "{w}");
        for (name, value, _) in &plain.rows {
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }

        let traced = run_workload(w, &quick(21, true)).expect("known workload");
        assert!(
            traced.correct && traced.failed == 0,
            "{w}: {:?}",
            traced.notes
        );
        let names: Vec<&str> = traced.rows.iter().map(|r| r.0).collect();
        assert_eq!(
            names,
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{w}"
        );
        for m in PER_LAYER.iter().filter(|m| m.workloads.contains(&w)) {
            assert!(
                traced.measured.contains(&m.name),
                "{w} declares {} but did not measure it",
                m.name
            );
        }
        for name in &traced.measured {
            let m = PER_LAYER.iter().find(|m| m.name == *name).unwrap();
            assert!(
                m.workloads.contains(&w),
                "{w} measured {name}, declared for {:?}",
                m.workloads
            );
        }

        let again = run_workload(w, &quick(21, true)).expect("known workload");
        for ((name, a, unit), (_, b, _)) in traced.rows.iter().zip(&again.rows) {
            if repeatable(name, unit) {
                assert_eq!(a, b, "{w}: {name} did not repeat for the same seed");
            }
        }
    }
    assert!(run_workload("no-such-workload", &quick(1, false)).is_none());
}
