//! Equivalence tests for the live telemetry service.
//!
//! The service path — simulate on the loadgen side, serialize every run
//! of same-state 1 Hz samples to one NDJSON frame, ship it over loopback
//! TCP, replay it into observations, fold out of order into mutex-guarded
//! shards, merge at shutdown — must land byte-identical to the in-process
//! sharded batch engine over the same coordinate-derived seeds, at any
//! shard count and any connection interleaving. Observation medians are
//! shortened (the clamp scales with the median) so the suite stays fast.

use mvqoe_experiments::fleet_figs::run_fleet_sharded;
use mvqoe_experiments::serve;
use mvqoe_experiments::Scale;
use mvqoe_metrics::SharedRegistry;
use mvqoe_study::FleetConfig;
use mvqoe_telemetryd::{run_fleet_loadgen, ServiceState, TelemetryServer};

fn short_cfg(n_users: u32, median_hours: f64) -> FleetConfig {
    FleetConfig::scaled(n_users, 2064, median_hours, median_hours * 0.1)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

#[test]
fn service_fold_matches_the_sharded_batch_engine() {
    let cfg = short_cfg(14, 0.1);
    let scale = Scale::quick().jobs(2);

    for service_shards in [1u32, 3, 8] {
        let state = ServiceState::new(cfg, service_shards, SharedRegistry::new());
        let server = TelemetryServer::start(state, 0).expect("bind loopback");
        let addr = server.addr();

        // Four concurrent connections over interleaved quarters of the
        // fleet — devices complete in whatever order the threads race to.
        let handles: Vec<_> = [[0u32, 4], [4, 8], [8, 11], [11, 14]]
            .into_iter()
            .map(|[lo, hi]| {
                std::thread::spawn(move || run_fleet_loadgen(addr, &cfg, lo..hi).expect("upload"))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("loadgen thread").parse_failures, 0);
        }
        let served = server.shutdown();

        // The batch side runs its own (different) shard count: equivalence
        // must hold across the two partitions, not just shard-for-shard.
        let batch = run_fleet_sharded(&cfg, 7, &scale, None);
        assert_eq!(
            json(&served),
            json(&batch.aggregate),
            "{service_shards} service shard(s) vs 7 batch shards must agree byte-for-byte"
        );
    }
}

#[test]
fn the_serve_experiment_reports_equivalence_end_to_end() {
    // The registry entry itself: serve + ingest + scrape + batch check at
    // quick scale, exactly what `mvqoe serve --quick` runs.
    let scale = Scale::quick().jobs(2).fleet_hours(0.1);
    let results = serve::run(&scale).expect("the serve experiment runs");
    assert!(
        results.equivalent_to_batch,
        "mvqoe serve must verify the service fold against the batch engine"
    );
    assert_eq!(results.headline.recruited, scale.fleet_users);
    assert_eq!(results.ack.parse_failures, 0);
    assert_eq!(results.headline.devices_in_flight, 0);
    assert!(results.scrape_families > 0 && results.scrape_samples > 0);
    assert!(
        results.scrape.contains("telemetryd_reports_total"),
        "the scrape must expose the service's own instrumentation"
    );
    // The artifact is a function of its seed: a second run writes the
    // same bytes, so no host-timed family reaches the recorded scrape.
    assert_eq!(
        json(&results),
        json(&serve::run(&scale).expect("the serve experiment runs")),
        "two runs of the serve experiment must write the same artifact"
    );
}
