//! Equivalence tests for the streaming fleet engine.
//!
//! The sharded, memory-bounded path must reproduce the materialize-every-
//! observation reference path *byte for byte* — same aggregate JSON, same
//! extracted figures — at the paper's 80-user size and the quick pass's
//! 14-user size, at any shard count. Checkpointed shards must resume into
//! exactly the same state, whichever shards a killed run finished. Observation medians are shortened here (the
//! clamp scales with the median) so the suite stays fast; the equivalence
//! argument is size- and hours-independent.

use mvqoe_experiments::fleet_figs::{
    extract, load_shard, run_fleet_sharded, shard_range, store_shard, CHECKPOINT_FORMAT_VERSION,
};
use mvqoe_experiments::Scale;
use mvqoe_study::{assemble_fleet, simulate_range, simulate_user, FleetAggregate, FleetConfig};

fn short_cfg(n_users: u32, median_hours: f64) -> FleetConfig {
    FleetConfig::scaled(n_users, 2064, median_hours, median_hours * 0.1)
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// The pre-streaming reference: materialize every observation, then
/// assemble — the exact shape of the old Vec-based engine.
fn reference(cfg: &FleetConfig) -> FleetAggregate {
    let users: Vec<_> = (0..cfg.n_users).map(|i| simulate_user(cfg, i)).collect();
    assemble_fleet(cfg, users)
}

fn assert_sharded_matches_reference(n_users: u32, median_hours: f64) {
    let cfg = short_cfg(n_users, median_hours);
    let expected = reference(&cfg);
    let expected_agg = json(&expected);
    let expected_figs = json(&extract(&expected));

    for shards in [1u32, 2, 8] {
        let shards = shards.min(n_users);
        let scale = Scale::quick().jobs(2);
        let run = run_fleet_sharded(&cfg, shards, &scale, None);
        assert_eq!(run.shards, shards);
        assert_eq!(run.loaded, 0, "no checkpoints were offered");
        assert_eq!(
            json(&run.aggregate),
            expected_agg,
            "{n_users} users over {shards} shards: aggregate must be byte-identical"
        );
        assert_eq!(
            json(&extract(&run.aggregate)),
            expected_figs,
            "{n_users} users over {shards} shards: figures must be byte-identical"
        );
    }
}

#[test]
fn paper_sized_fleet_is_shard_count_invariant() {
    // 80 users — the paper's fleet — with a short observation median.
    assert_sharded_matches_reference(80, 0.2);
}

#[test]
fn quick_sized_fleet_is_shard_count_invariant() {
    // 14 users — the --quick fleet.
    assert_sharded_matches_reference(14, 0.5);
}

#[test]
fn interrupted_run_resumes_from_shard_checkpoints() {
    let cfg = short_cfg(14, 0.4);
    let shards = 7u32;
    let dir = std::env::temp_dir().join(format!("mvqoe-fleet-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // An "interrupted" run: four of seven shards finished and checkpointed,
    // not a prefix, as workers finish shards out of order.
    let finished = [1u32, 3, 4, 6];
    for s in finished {
        let agg = simulate_range(&cfg, shard_range(cfg.n_users, shards, s));
        store_shard(&dir, &cfg, shards, s, &agg);
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), finished.len());

    // The resumed run loads them and simulates only the remaining three.
    // At two workers the loaded shards come back ahead of the earlier
    // simulated ones and wait for them to be absorbed in order.
    let scale = Scale::quick().jobs(2);
    let resumed = run_fleet_sharded(&cfg, shards, &scale, Some(&dir));
    assert_eq!(resumed.loaded, 4, "all four checkpoints must be reused");

    let serial = simulate_range(&cfg, 0..cfg.n_users);
    assert_eq!(
        json(&resumed.aggregate),
        json(&serial),
        "a resumed run must be byte-identical to an uninterrupted one"
    );

    // A completed run cleans its checkpoints up.
    assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().count() == 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_format_checkpoints_are_rejected_by_version() {
    let cfg = short_cfg(14, 0.4);
    let shards = 2u32;
    let dir = std::env::temp_dir().join(format!("mvqoe-fleet-ver-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A perfectly valid checkpoint... written down-versioned, as if by a
    // build predating the current layout.
    let r0 = shard_range(cfg.n_users, shards, 0);
    let agg0 = simulate_range(&cfg, r0.clone());
    let needle = format!("\"version\":{CHECKPOINT_FORMAT_VERSION}");
    for old in [1, 2] {
        store_shard(&dir, &cfg, shards, 0, &agg0);
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap();
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut tampered = text.replace(&needle, &format!("\"version\":{old}"));
        assert_ne!(text, tampered, "the checkpoint must carry a version");
        if old == 2 {
            // v2 also recorded the first user still to fold.
            let next_user = format!("\"shard\":0,\"next_user\":{},", r0.end);
            tampered = tampered.replacen("\"shard\":0,", &next_user, 1);
        }
        std::fs::write(&path, tampered).unwrap();

        let scale = Scale::quick().jobs(1);
        let run = run_fleet_sharded(&cfg, shards, &scale, Some(&dir));
        assert_eq!(run.loaded, 0, "v{old} checkpoints must be recomputed");
        assert_eq!(
            json(&run.aggregate),
            json(&simulate_range(&cfg, 0..cfg.n_users))
        );
        std::fs::create_dir_all(&dir).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_carrying_sketches_still_load() {
    // v3 checkpoints from builds whose aggregate still kept histogram
    // sketches carry an `aggregate.sketches` member, and those from builds
    // that folded session attribution carry per-cause totals; loading
    // skips them.
    let cfg = short_cfg(14, 0.4);
    let shards = 2u32;
    let dir = std::env::temp_dir().join(format!("mvqoe-fleet-sketches-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let agg = simulate_range(&cfg, shard_range(cfg.n_users, shards, 0));
    store_shard(&dir, &cfg, shards, 0, &agg);
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let text = std::fs::read_to_string(&path).unwrap();
    let sketches = r#""sketches":{"util_median":{"lo":0.0,"hi":100.0,"counts":[0,3,1]},"time_in_state":[{"lo":0.0,"hi":1.0,"counts":[4]}]},"attr_rebuffer_us":[5,0,0],"attr_drops":[0,2],"#;
    let old = text.replacen("\"top\":", &format!("{sketches}\"top\":"), 1);
    assert_ne!(
        old, text,
        "the checkpoint's aggregate must carry a top list"
    );
    std::fs::write(&path, old).unwrap();

    let loaded = load_shard(&dir, &cfg, shards, 0).expect("the checkpoint loads");
    assert_eq!(json(&loaded), json(&agg));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoints_are_recomputed_not_trusted() {
    let cfg = short_cfg(14, 0.4);
    let shards = 7u32;
    let dir = std::env::temp_dir().join(format!("mvqoe-fleet-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Checkpoints from a *different* protocol (another seed): same shard
    // layout, mismatched fingerprint.
    let stale_cfg = FleetConfig {
        seed: cfg.seed + 1,
        ..cfg
    };
    for s in 0..shards {
        let agg = simulate_range(&stale_cfg, shard_range(cfg.n_users, shards, s));
        store_shard(&dir, &stale_cfg, shards, s, &agg);
    }

    let scale = Scale::quick().jobs(1);
    let run = run_fleet_sharded(&cfg, shards, &scale, Some(&dir));
    assert_eq!(run.loaded, 0, "mismatched fingerprints must not be loaded");
    assert_eq!(
        json(&run.aggregate),
        json(&simulate_range(&cfg, 0..cfg.n_users))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
