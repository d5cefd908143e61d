//! Property tests pinning the fleet aggregate's merge algebra.
//!
//! The sharded fleet engine depends on one invariant: folding users into
//! shard aggregates and merging them — in any grouping, in any order —
//! produces *exactly* the state a single serial fold produces. These
//! tests drive synthetic device observations through the real
//! `DeviceObservation::record` path, fold them under arbitrary 3-way
//! splits, and require JSON-equality (covering every f64 bit) between
//! the merged shards and the serial reference.

use mvqoe_kernel::TrimLevel;
use mvqoe_sim::SimTime;
use mvqoe_study::{DeviceObservation, FleetAggregate, FleetConfig};
use mvqoe_workload::fleet::FleetSample;
use mvqoe_workload::UsagePattern;
use proptest::prelude::*;

/// Deterministically synthesize one observed device from a byte string.
/// Samples run through `DeviceObservation::record`, so the observation's
/// internal accumulators are exactly what a real fleet run would hold.
fn synth_device(idx: u32, bytes: &[u8]) -> (DeviceObservation, f64) {
    let knob = |i: usize| bytes[i % bytes.len()] as f64;
    let pattern = UsagePattern {
        games: 1.0 + knob(0) % 5.0,
        music: 1.0 + knob(1) % 5.0,
        videos: 1.0 + knob(2) % 5.0,
        multitask_1: 1.0 + knob(3) % 5.0,
        multitask_2: 1.0 + knob(4) % 5.0,
        interactive_frac: 0.2 + (knob(5) % 60.0) / 100.0,
    };
    let ram_mib = 512 * (1 + bytes[0] as u64 % 6);
    let mut obs = DeviceObservation::new(&format!("synth-{idx}"), "proptest", ram_mib, pattern);
    let levels = [
        TrimLevel::Normal,
        TrimLevel::Moderate,
        TrimLevel::Low,
        TrimLevel::Critical,
    ];
    for (s, &b) in bytes.iter().enumerate() {
        obs.record(&FleetSample {
            at: SimTime::from_secs(s as u64),
            available_mib: (b as f64 * 7.3) % ram_mib as f64,
            utilization_pct: (b as f64 * 13.7) % 100.0,
            trim: levels[(b / 4) as usize % 4],
            interactive: b % 3 != 0,
            n_services: b as u32 % 16,
        });
    }
    // Logged hours as reported to the fold (f64, order-sensitive to sum).
    let hours = obs.total_hours + knob(6) / 255.0;
    (obs, hours)
}

/// Fold `devices[range]` into a fresh aggregate, indices preserved.
fn fold_range(
    cfg: &FleetConfig,
    devices: &[(DeviceObservation, f64)],
    lo: usize,
    hi: usize,
) -> FleetAggregate {
    let mut agg = FleetAggregate::new();
    for (i, (obs, hours)) in devices.iter().enumerate().take(hi).skip(lo) {
        agg.fold(cfg, i as u32, obs, *hours);
    }
    agg
}

fn json(agg: &FleetAggregate) -> String {
    serde_json::to_string(agg).expect("aggregate serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any 3-way contiguous split of the fleet, merged left-to-right,
    /// reproduces the serial fold byte-for-byte — and so does merging the
    /// same parts grouped and ordered differently (associativity and
    /// order-insensitivity of `FleetAggregate::absorb`).
    #[test]
    fn merge_is_associative_and_order_insensitive(
        blobs in prop::collection::vec(
            prop::collection::vec(0u8..=255, 8..120),
            2..24,
        ),
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
    ) {
        // Mild cleaning threshold so some devices are kept and (usually)
        // some are cleaned out, exercising both fold paths.
        let cfg = FleetConfig {
            min_interactive_hours: 0.004,
            ..FleetConfig::default()
        };
        let devices: Vec<(DeviceObservation, f64)> = blobs
            .iter()
            .enumerate()
            .map(|(i, b)| synth_device(i as u32, b))
            .collect();
        let n = devices.len();
        let (a, b) = {
            let (x, y) = (cut_a % (n + 1), cut_b % (n + 1));
            (x.min(y), x.max(y))
        };

        let reference = json(&fold_range(&cfg, &devices, 0, n));
        let p0 = fold_range(&cfg, &devices, 0, a);
        let p1 = fold_range(&cfg, &devices, a, b);
        let p2 = fold_range(&cfg, &devices, b, n);

        // (p0 + p1) + p2
        let mut left = p0.clone();
        left.absorb(p1.clone());
        left.absorb(p2.clone());
        prop_assert_eq!(&json(&left), &reference);

        // p0 + (p1 + p2)
        let mut right_inner = p1.clone();
        right_inner.absorb(p2.clone());
        let mut right = p0.clone();
        right.absorb(right_inner);
        prop_assert_eq!(&json(&right), &reference);

        // (p2 + p0) + p1 — out-of-order shards arriving as workers finish.
        let mut shuffled = p2;
        shuffled.absorb(p0);
        shuffled.absorb(p1);
        prop_assert_eq!(&json(&shuffled), &reference);
    }

    /// Merging an empty aggregate is the identity, from either side.
    #[test]
    fn empty_aggregate_is_the_merge_identity(
        blobs in prop::collection::vec(
            prop::collection::vec(0u8..=255, 8..80),
            1..10,
        ),
    ) {
        let cfg = FleetConfig {
            min_interactive_hours: 0.0,
            ..FleetConfig::default()
        };
        let devices: Vec<(DeviceObservation, f64)> = blobs
            .iter()
            .enumerate()
            .map(|(i, b)| synth_device(i as u32, b))
            .collect();
        let full = fold_range(&cfg, &devices, 0, devices.len());
        let reference = json(&full);

        let mut left = full.clone();
        left.absorb(FleetAggregate::new());
        prop_assert_eq!(&json(&left), &reference);

        let mut right = FleetAggregate::new();
        right.absorb(full.clone());
        prop_assert_eq!(&json(&right), &reference);
    }
}
