//! A miniature §3 user study: simulate a small fleet of users living on
//! their phones and report the paper's headline distributions.
//!
//! ```sh
//! cargo run --release --example fleet_study
//! ```

use mvqoe::sim::stats;
use mvqoe::study::{simulate_range, FleetConfig};

fn main() {
    // 20 users, ~2 days median observation (the paper: 80 users, 1–18 days).
    let cfg = FleetConfig::scaled(20, 2022, 48.0, 5.0);
    let fleet = simulate_range(&cfg, 0..cfg.n_users);
    println!(
        "{} users recruited, {} kept after cleaning, {:.0} h logged\n",
        fleet.recruited,
        fleet.kept,
        fleet.total_hours()
    );

    // The headline fractions, from the aggregate's exact counters.
    let pct = |count: u64| count as f64 / fleet.kept.max(1) as f64 * 100.0;
    let medians: Vec<f64> = fleet.digests.iter().map(|d| d.median_utilization).collect();
    println!(
        "median RAM utilization: p50 {:.0}%, devices ≥60%: {:.0}% (paper: 80%)",
        stats::median(&medians),
        pct(fleet.counters.util_ge_60)
    );
    println!(
        "devices seeing ≥1 pressure signal/hour: {:.0}% (paper: 63%)",
        pct(fleet.counters.signals_ge_1)
    );
    println!(
        "devices ≥2% of time in Moderate: {:.0}% (paper: 27%)",
        pct(fleet.counters.moderate_ge_2pct)
    );

    println!("\nper-device detail:");
    for d in &fleet.digests {
        println!(
            "  {:24} {:>4} MiB RAM  util p50 {:>4.0}%  signals/h {:>6.2}  pressure time {:>5.2}%",
            d.name,
            d.ram_mib,
            d.median_utilization,
            d.total_signals_per_hour,
            d.pressure_time_fraction * 100.0
        );
    }
}
