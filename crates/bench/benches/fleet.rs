//! The streaming fleet engine vs the materialize-then-fold path.
//!
//! Simulates a 10k-user fleet (short observation windows — the equivalence
//! is hours-independent and the bench measures engine overhead, not
//! simulation depth) two ways: the sharded streaming path the experiments
//! use, and the old shape that materializes every `DeviceObservation`
//! before folding. Writes `BENCH_fleet.json` at the workspace root with
//! users/sec and peak RSS, and acts as its own regression guard: the
//! streaming path must not be more than 1.3× slower than materializing —
//! its whole point is bounding memory without giving up throughput — and
//! must sustain an absolute throughput floor of 75,000 users/s (the
//! committed baseline measures ~181,000 on one worker of a 2-vCPU host;
//! dropping below the floor means someone put allocation or quadratic
//! work back on the per-user path, or made a calm second walk the kernel
//! again).

use criterion::{black_box, Criterion};
use mvqoe_experiments::fleet_figs::{run_fleet_sharded, shard_count};
use mvqoe_experiments::Scale;
use mvqoe_study::{assemble_fleet, simulate_range, simulate_user, FleetConfig};
use std::time::Instant;

fn cfg(users: u32) -> FleetConfig {
    // ~47 simulated seconds per user: enough for pressure transitions to
    // land, small enough that a 10k-user fleet benches in seconds.
    FleetConfig::scaled(users, 2064, 0.01, 0.001)
}

/// Best of `runs` wall-clock measurements: scheduler noise only ever adds
/// time, so the minimum is the faithful engine cost.
fn best_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| f()).fold(f64::MAX, f64::min)
}

/// The streaming engine: shards folded into bounded aggregates, merged.
fn streamed_secs(cfg: &FleetConfig) -> f64 {
    let scale = Scale::quick().jobs(1);
    best_of(2, || {
        let start = Instant::now();
        black_box(run_fleet_sharded(cfg, shard_count(cfg.n_users), &scale, None));
        start.elapsed().as_secs_f64()
    })
}

/// The pre-streaming shape: every observation materialized, then folded.
fn materialized_secs(cfg: &FleetConfig) -> f64 {
    best_of(2, || {
        let start = Instant::now();
        let users: Vec<_> = (0..cfg.n_users).map(|i| simulate_user(cfg, i)).collect();
        black_box(assemble_fleet(cfg, users));
        start.elapsed().as_secs_f64()
    })
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let users: u32 = if test_mode { 1_000 } else { 10_000 };
    let c = cfg(users);

    // Criterion-shaped reporting for the merge step itself.
    let mut crit = Criterion::default();
    let mut g = crit.benchmark_group("fleet");
    g.sample_size(10);
    let left = simulate_range(&c, 0..50);
    let right = simulate_range(&c, 50..100);
    g.bench_function("merge_two_50_user_shards", |b| {
        b.iter(|| {
            let mut m = left.clone();
            m.absorb(black_box(right.clone()));
            m
        })
    });
    g.finish();

    let streamed = streamed_secs(&c);
    let rss_after_streamed = mvqoe_core::peak_rss_mib().unwrap_or(0.0);
    let materialized = materialized_secs(&c);
    let rss_after_materialized = mvqoe_core::peak_rss_mib().unwrap_or(0.0);
    let ratio = streamed / materialized.max(1e-9);
    let users_per_sec = users as f64 / streamed.max(1e-9);

    println!(
        "fleet {users} users: streamed {streamed:.2} s ({users_per_sec:.0} users/s, \
         peak RSS {rss_after_streamed:.0} MiB), materialized {materialized:.2} s \
         (peak RSS {rss_after_materialized:.0} MiB) -> {ratio:.2}x"
    );

    if !test_mode {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
        let json = format!(
            "{{\n  \"bench\": \"fleet_streaming_vs_materialized\",\n  \
             \"users\": {users},\n  \
             \"shards\": {shards},\n  \
             \"streamed_secs\": {streamed:.3},\n  \
             \"streamed_users_per_sec\": {users_per_sec:.1},\n  \
             \"streamed_peak_rss_mib\": {rss_after_streamed:.1},\n  \
             \"materialized_secs\": {materialized:.3},\n  \
             \"materialized_peak_rss_mib\": {rss_after_materialized:.1},\n  \
             \"streamed_over_materialized\": {ratio:.3}\n}}\n",
            shards = shard_count(users),
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("[json] {path}"),
            Err(e) => eprintln!("[json] failed to write {path}: {e}"),
        }
    }

    // Regression guards: streaming must stay within 1.3x of the old path,
    // and must clear the absolute users/s floor (skipped in --test mode,
    // where debug codegen makes wall-clock meaningless).
    if ratio > 1.3 {
        eprintln!(
            "REGRESSION: streaming fleet path {ratio:.2}x slower than materialize-then-fold \
             (limit 1.3x)"
        );
        std::process::exit(1);
    }
    if !test_mode && users_per_sec < 75_000.0 {
        eprintln!(
            "REGRESSION: streaming fleet throughput {users_per_sec:.0} users/s below the \
             75,000 users/s floor"
        );
        std::process::exit(1);
    }
}
