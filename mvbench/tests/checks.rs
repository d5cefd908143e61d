//! Every output check accepts the program's real output and rejects a
//! deliberately corrupted copy of it, so no check is one that cannot fail.

use mvbench::{fleet_ingest as fi, fleet_million as fm, paper_grid as pg, whatif_fork as wf};
use mvqoe_experiments::fleet_figs::{run_fleet_sharded, shard_count};
use mvqoe_experiments::scale::Scale;
use mvqoe_metrics::SharedRegistry;
use mvqoe_sched::ThreadId;
use mvqoe_study::simulate_range;
use mvqoe_telemetryd::{
    run_fleet_loadgen, DeviceStatus, Headline, IngestAck, ServiceState, TelemetryServer,
};
use mvqoe_video::{Fps, Genre, Manifest, Resolution};

#[test]
fn paper_grid_checks_reject_tampered_digests() {
    let (cells, digests) = pg::pass(11, 0, 2);

    pg::check_normal_survives(&cells, &digests).expect("real pass: Normal sessions survive");
    let mut crashed = digests.clone();
    let normal = cells.iter().position(|c| c.pressure == 0).unwrap();
    crashed[normal].crashed = true;
    assert!(pg::check_normal_survives(&cells, &crashed).is_err());

    let mut tally = pg::DropTally::default();
    tally.add(&cells, &digests);
    tally
        .check_ordered()
        .expect("real pass: drops ordered by pressure");
    let mut inverted = digests.clone();
    for (c, d) in cells.iter().zip(inverted.iter_mut()) {
        d.drop_pct = if c.pressure == 0 { 100.0 } else { 0.0 };
    }
    let mut bad = pg::DropTally::default();
    bad.add(&cells, &inverted);
    assert!(bad.check_ordered().is_err());
    let mut calm_critical = digests.clone();
    for (c, d) in cells.iter().zip(calm_critical.iter_mut()) {
        if c.device == 2 && c.pressure == 2 {
            d.drop_pct = 0.0;
        }
    }
    let mut bad = pg::DropTally::default();
    bad.add(&cells, &calm_critical);
    assert!(
        bad.check_ordered().is_err(),
        "Moderate above Critical on the Nexus 6P"
    );
    let moderate_6p = cells
        .iter()
        .zip(&digests)
        .filter(|(c, _)| c.device == 2 && c.pressure == 1)
        .map(|(_, d)| d.drop_pct)
        .fold(0.0, f64::max);
    let mut noisy_6p = digests.clone();
    for (c, d) in cells.iter().zip(noisy_6p.iter_mut()) {
        if c.device == 2 && c.pressure == 0 {
            d.drop_pct = moderate_6p + 2.0 * pg::NORMAL_SLACK_PCT;
        }
    }
    let mut bad = pg::DropTally::default();
    bad.add(&cells, &noisy_6p);
    assert!(
        bad.check_ordered().is_err(),
        "Normal well above Moderate on the Nexus 6P"
    );
    assert!(
        pg::DropTally::default().check_ordered().is_err(),
        "an empty tally proves nothing"
    );

    pg::check_same_digests(&digests, &digests.clone()).unwrap();
    let mut drifted = digests.clone();
    drifted[3].frames_total += 1;
    assert!(pg::check_same_digests(&digests, &drifted).is_err());

    let c = &cells[0];
    let mut d = digests[0];
    d.crashed = false;
    d.frames_total = 120 * u64::from(c.rep.fps.value());
    assert!(!pg::frames_miscounted(&d, c.rep));
    d.frames_total -= 1;
    assert!(pg::frames_miscounted(&d, c.rep));
    d.crashed = true;
    assert!(
        !pg::frames_miscounted(&d, c.rep),
        "a crash is not a miscount"
    );
}

#[test]
fn whatif_checks_reject_tampered_outputs() {
    let cfg = wf::regime_cfg(5, 0, 3);
    let a = wf::analyse(cfg, None, mvbench::spans::Ctx { op: 0, parent: 0 }, true)
        .expect("regime analyses");
    assert!(a.decisions > 0 && a.snapshot_bytes > 0 && a.trace_events > 0);
    let (branch, parent) = a.continued.as_ref().unwrap();

    let rep = branch.attribution.clone().unwrap();
    wf::check_conservation(&rep, &branch.stats).unwrap();
    let mut more_rebuffer = rep.clone();
    more_rebuffer.rebuffer_us[0] += 1;
    assert!(wf::check_conservation(&more_rebuffer, &branch.stats).is_err());
    let mut more_drops = rep.clone();
    more_drops.drops[1] += 1;
    assert!(wf::check_conservation(&more_drops, &branch.stats).is_err());

    wf::check_same_outcome(branch, parent).unwrap();
    let (branch2, mut parent2) = a.continued.unwrap();
    parent2.stats.frames_dropped += 1;
    assert!(wf::check_same_outcome(&branch2, &parent2).is_err());

    let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
    let ok = manifest
        .representation(Resolution::R480p, Fps::F60)
        .unwrap();
    wf::check_decision(ok, &manifest, Resolution::R720p).unwrap();
    let too_big = manifest
        .representation(Resolution::R1080p, Fps::F30)
        .unwrap();
    assert!(wf::check_decision(too_big, &manifest, Resolution::R720p).is_err());
    let mut off_ladder = ok;
    off_ladder.bitrate_kbps += 1;
    assert!(wf::check_decision(off_ladder, &manifest, Resolution::R720p).is_err());

    let json = a.trace_json.unwrap();
    assert_eq!(
        wf::check_trace_parsed(&json, &a.client).unwrap(),
        a.trace_events
    );
    let stranger = [ThreadId(999_999)];
    assert!(wf::check_trace_parsed(&json, &stranger).is_err());
    let truncated = &json[..json.len() / 2];
    assert!(wf::check_trace_parsed(truncated, &a.client).is_err());
}

#[test]
fn fleet_checks_reject_tampered_aggregates() {
    let users = 64;
    let cfg = fm::fleet_cfg(3, 0, users);
    let mut scale = Scale::full();
    scale.jobs = 2;
    let sharded = run_fleet_sharded(&cfg, shard_count(users), &scale, None).aggregate;

    fm::check_counts(&sharded, users).unwrap();
    assert!(fm::check_counts(&sharded, users + 1).is_err());
    let mut over = sharded.clone();
    over.kept = u64::from(over.recruited) + 1;
    assert!(fm::check_counts(&over, users).is_err());

    fm::check_hours(&sharded, &cfg).unwrap();
    let mut shifted = sharded.clone();
    shifted.hours[5].1 += 1e-9;
    assert!(fm::check_hours(&shifted, &cfg).is_err());

    let single = simulate_range(&cfg, 0..users);
    fm::check_same_aggregate(&single, &sharded, "single vs sharded").unwrap();
    let mut recount = single.clone();
    recount.kept += 1;
    assert!(fm::check_same_aggregate(&recount, &sharded, "tampered").is_err());
}

#[test]
fn ingest_checks_reject_tampered_replies() {
    let cfg = fi::ingest_cfg(9, 0);
    let server =
        TelemetryServer::start(ServiceState::new(cfg, 4, SharedRegistry::new()), 0).unwrap();
    let addr = server.addr();
    let ack = run_fleet_loadgen(addr, &cfg, 0..1).unwrap();
    fi::check_ack(&ack).unwrap();
    let tampers: [fn(&mut IngestAck); 3] = [
        |a| a.folded = 0,
        |a| a.parse_failures = 1,
        |a| a.accepted = 0,
    ];
    for tamper in tampers {
        let mut bad = ack;
        tamper(&mut bad);
        assert!(fi::check_ack(&bad).is_err());
    }

    let status: DeviceStatus =
        serde_json::from_str(&fi::http_get(addr, "/query/device/0").unwrap()).unwrap();
    fi::check_readback(&status, 0).unwrap();
    assert!(fi::check_readback(&status, 1).is_err());
    let mut in_flight = status.clone();
    in_flight.state = "in-flight".into();
    assert!(fi::check_readback(&in_flight, 0).is_err());

    let headline: Headline =
        serde_json::from_str(&fi::http_get(addr, "/query/headline").unwrap()).unwrap();
    fi::check_headline(&headline, 1).unwrap();
    assert!(fi::check_headline(&headline, 2).is_err());

    let scrape = fi::http_get(addr, "/metrics").unwrap();
    fi::check_scrape(&scrape).unwrap();
    let type_line = scrape.lines().find(|l| l.starts_with("# TYPE")).unwrap();
    assert!(fi::check_scrape(&scrape.replacen(type_line, "", 1)).is_err());
    assert!(fi::check_scrape(&format!("{scrape}not a sample line\n")).is_err());
    assert!(fi::http_get(addr, "/no/such/endpoint").is_err());

    let online = server.shutdown();
    let batch = simulate_range(&fi::ingest_cfg(9, 1), 0..1);
    fm::check_same_aggregate(&online, &batch, "service vs batch").unwrap();
    let mut wrong = batch.clone();
    wrong.hours[0].1 *= 2.0;
    assert!(fm::check_same_aggregate(&online, &wrong, "tampered").is_err());
}
