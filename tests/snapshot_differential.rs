//! Differential tests for the snapshot/fork/replay engine.
//!
//! The engine's contract is *exactness*: a session snapshotted at an
//! arbitrary time `t`, serialized to JSON, parsed back and restored must
//! continue into byte-for-byte the same outcome as the session that was
//! never interrupted — same stats, same kernel counters, same trace event
//! stream — on both the event-skipping engine and the dense 1 ms tick
//! engine. Likewise N branches forked from one snapshot under the *same*
//! policy must be identical to each other and to the parent continuation;
//! only turning a policy knob may diverge them. Randomized cells (device ×
//! pressure × encoding × engine × cut point) probe the whole space instead
//! of a blessed configuration.

use mvqoe_abr::FixedAbr;
use mvqoe_core::{
    run_session, PressureMode, Session, SessionConfig, SessionOutcome, Snapshot,
};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::{Pages, ProcKind, TrimLevel};
use mvqoe_sim::SimTime;
use mvqoe_video::{Fps, Manifest, Resolution};
use proptest::prelude::*;

/// One randomized session cell: where it runs, under what pressure, which
/// engine, and where the snapshot cut lands.
#[derive(Debug, Clone)]
struct Cell {
    device: u8,
    pressure: u8,
    fps60: bool,
    dense: bool,
    seed: u64,
    cut_frac: f64,
}

fn cell_strategy() -> impl Strategy<Value = Cell> {
    (0..2u8, 0..4u8, any::<bool>(), any::<bool>(), 0..1_000u64, 0.05..0.95f64).prop_map(
        |(device, pressure, fps60, dense, seed, cut_frac)| Cell {
            device,
            pressure,
            fps60,
            dense,
            seed,
            cut_frac,
        },
    )
}

const VIDEO_SECS: f64 = 14.0;

fn config(c: &Cell) -> SessionConfig {
    let device = match c.device {
        0 => DeviceProfile::nokia1(),
        _ => DeviceProfile::nexus5(),
    };
    let pressure = match c.pressure {
        0 => PressureMode::None,
        1 => PressureMode::Synthetic(TrimLevel::Moderate),
        2 => PressureMode::Synthetic(TrimLevel::Critical),
        _ => PressureMode::Organic(4),
    };
    let mut cfg = SessionConfig::paper_default(device, pressure, c.seed);
    cfg.video_secs = VIDEO_SECS;
    cfg.dense_ticks = c.dense;
    // Record the full trace so the fingerprint covers the event stream,
    // not just the aggregate stats.
    cfg.record_trace = true;
    cfg
}

fn abr_for(c: &Cell, cfg: &SessionConfig) -> FixedAbr {
    let manifest = Manifest::full_ladder(cfg.genre, cfg.video_secs);
    let fps = if c.fps60 { Fps::F60 } else { Fps::F30 };
    let rep = manifest
        .representation(Resolution::R480p, fps)
        .expect("480p is on the full ladder");
    FixedAbr::new(rep)
}

/// Everything a restore could corrupt, as one string: player stats and
/// series, kernel counters, clock, and the recorded trace stream.
fn fingerprint(out: &SessionOutcome) -> String {
    format!(
        "stats={} kills={:?} trim={:?} lmkd={:?} reps={:?} vmstat={:?} final={:?} now={:?} \
         events={:?} preempt={:?} instants={:?}",
        serde_json::to_string(&out.stats).expect("stats serialize"),
        out.kill_series,
        out.trim_series,
        out.lmkd_cpu_series,
        out.rep_history,
        out.machine.mm.vmstat(),
        out.final_trim,
        out.machine.now(),
        out.machine.trace.events(),
        out.machine.trace.preemptions(),
        out.machine.trace.instants(),
    )
}

/// The cut point for a cell: a fraction of the video into the session.
fn cut_at(session: &Session, c: &Cell) -> SimTime {
    SimTime::from_secs_f64(session.now().as_secs_f64() + c.cut_frac * VIDEO_SECS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Snapshot → JSON → parse → restore → continue is invisible: the
    /// restored run's outcome is byte-identical to the uninterrupted one.
    #[test]
    fn snapshot_round_trip_is_invisible(c in cell_strategy()) {
        let cfg = config(&c);
        let uninterrupted = fingerprint(&run_session(&cfg, &mut abr_for(&c, &cfg)));

        let mut abr = abr_for(&c, &cfg);
        let mut session = Session::start(cfg.clone());
        let cut = cut_at(&session, &c);
        session.run_until(&mut abr, cut);

        // Full serialization round trip, not just an in-memory clone: any
        // state a snapshot forgets to carry fails here.
        let text = serde_json::to_string(&session.snapshot(&abr)).expect("snapshot serializes");
        let snap: Snapshot = serde_json::from_str(&text).expect("snapshot parses");

        let mut abr2 = abr_for(&c, &cfg);
        let mut restored = Session::restore(&snap, &mut abr2).expect("fresh snapshot restores");
        restored.run_until(&mut abr2, SimTime::MAX);
        prop_assert_eq!(uninterrupted, fingerprint(&restored.finish(None)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same-policy forks are exact: every branch forked from one prefix
    /// under an identical policy finishes byte-identical to its siblings
    /// and to the parent's own continuation.
    #[test]
    fn same_policy_forks_match_each_other_and_the_parent(c in cell_strategy()) {
        let cfg = config(&c);
        let mut abr = abr_for(&c, &cfg);
        let mut parent = Session::start(cfg.clone());
        let cut = cut_at(&parent, &c);
        parent.run_until(&mut abr, cut);

        let mut prints = Vec::new();
        for _ in 0..3 {
            let mut branch_abr = abr_for(&c, &cfg);
            let mut branch = parent.fork(&abr, &mut branch_abr).expect("fork restores");
            branch.run_until(&mut branch_abr, SimTime::MAX);
            prints.push(fingerprint(&branch.finish(None)));
        }

        parent.run_until(&mut abr, SimTime::MAX);
        prints.push(fingerprint(&parent.finish(None)));

        for p in &prints[1..] {
            prop_assert_eq!(&prints[0], p, "all branches and the parent must agree");
        }
    }
}

/// Divergence comes only from the knob: an untouched fork replays the
/// parent exactly, while a fork whose machine takes one extra cached app
/// at the fork point visibly departs (its kernel counters register the
/// spawn even when QoE survives).
#[test]
fn forks_diverge_only_when_a_policy_knob_differs() {
    let c = Cell {
        device: 0,
        pressure: 1,
        fps60: false,
        dense: false,
        seed: 11,
        cut_frac: 0.4,
    };
    let cfg = config(&c);
    let mut abr = abr_for(&c, &cfg);
    let mut parent = Session::start(cfg.clone());
    let cut = cut_at(&parent, &c);
    parent.run_until(&mut abr, cut);

    let finish = |mut s: Session, abr: &mut FixedAbr| {
        s.run_until(abr, SimTime::MAX);
        fingerprint(&s.finish(None))
    };

    let mut abr_plain = abr_for(&c, &cfg);
    let plain = parent.fork(&abr, &mut abr_plain).expect("fork restores");
    let plain_print = finish(plain, &mut abr_plain);

    let mut abr_knob = abr_for(&c, &cfg);
    let mut knobbed = parent.fork(&abr, &mut abr_knob).expect("fork restores");
    knobbed.machine_mut().add_process(
        "cf.bgapp",
        ProcKind::Cached,
        Pages::from_mib(200),
        Pages::from_mib(50),
        Pages::from_mib(100),
        0.3,
    );
    let knobbed_print = finish(knobbed, &mut abr_knob);

    parent.run_until(&mut abr, SimTime::MAX);
    let parent_print = fingerprint(&parent.finish(None));

    assert_eq!(plain_print, parent_print, "an untouched fork is an exact replay");
    assert_ne!(knobbed_print, parent_print, "the knob must leave a visible mark");
}
