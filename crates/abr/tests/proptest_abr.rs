//! Property tests: every ABR decision stays inside the manifest's ladder
//! and respects the screen cap, whatever the context.

use mvqoe_abr::{Abr, AbrContext, Bola, BufferBased, FixedAbr, Hybrid, MemoryAware, Mpc, ThroughputBased};
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Genre, Manifest, Resolution};
use proptest::prelude::*;

fn any_trim() -> impl Strategy<Value = TrimLevel> {
    prop::sample::select(TrimLevel::ALL.to_vec())
}

fn any_cap() -> impl Strategy<Value = Resolution> {
    prop::sample::select(Resolution::ALL.to_vec())
}

/// The full policy suite the arena experiment races.
fn suite(manifest: &Manifest) -> Vec<Box<dyn Abr>> {
    let rep = manifest.representation(Resolution::R480p, Fps::F60).unwrap();
    vec![
        Box::new(FixedAbr::new(rep)),
        Box::new(BufferBased::new(Fps::F60)),
        Box::new(ThroughputBased::new(Fps::F30)),
        Box::new(Bola::new(Fps::F60)),
        Box::new(Mpc::new(Fps::F60)),
        Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
        Box::new(Hybrid::new(Fps::F60)),
    ]
}

/// One observed step of a session trajectory, as a policy would see it
/// under an arbitrary link trace and pressure history.
#[derive(Debug, Clone)]
struct Step {
    buffer: f64,
    throughput: Option<f64>,
    trim: TrimLevel,
    drop_pct: f64,
    last_download_secs: Option<f64>,
}

fn any_step() -> impl Strategy<Value = Step> {
    (
        0.0f64..60.0,
        prop::option::of(0.05f64..200.0),
        any_trim(),
        0.0f64..100.0,
        prop::option::of(0.01f64..30.0),
    )
        .prop_map(|(buffer, throughput, trim, drop_pct, last_download_secs)| Step {
            buffer,
            throughput,
            trim,
            drop_pct,
            last_download_secs,
        })
}

/// A pressure trajectory step: mostly clean segments (Normal, drops under
/// the 10% reaction threshold), so the caps relax as well as tighten.
fn pressure_step() -> impl Strategy<Value = Step> {
    (
        prop_oneof![3 => Just(TrimLevel::Normal), 1 => any_trim()],
        prop_oneof![3 => 0.0f64..10.0, 1 => 0.0f64..100.0],
        any_step(),
    )
        .prop_map(|(trim, drop_pct, step)| Step {
            trim,
            drop_pct,
            ..step
        })
}

fn context<'a>(
    manifest: &'a Manifest,
    step: &Step,
    cap: Resolution,
    next_segment: u32,
) -> AbrContext<'a> {
    AbrContext {
        manifest,
        buffer_seconds: step.buffer,
        buffer_capacity: 60.0,
        throughput_mbps: step.throughput,
        trim_level: step.trim,
        recent_drop_pct: step.drop_pct,
        last: None,
        screen_cap: cap,
        next_segment,
        last_download_secs: step.last_download_secs,
    }
}

fn check_decision(
    abr: &mut dyn Abr,
    manifest: &Manifest,
    step: &Step,
    cap: Resolution,
    next_segment: u32,
) -> Result<(), TestCaseError> {
    let rep = abr.choose(&context(manifest, step, cap, next_segment));
    prop_assert!(
        manifest
            .representation(rep.resolution, rep.fps)
            .is_some(),
        "{} returned a rep outside the manifest",
        abr.name()
    );
    // The fixed policy is exempt from the cap (the experimenter pinned it);
    // adaptive policies must respect the panel.
    if abr.name() != "fixed" {
        prop_assert!(
            rep.resolution <= cap,
            "{} exceeded the screen cap: {} > {}",
            abr.name(),
            rep.resolution,
            cap
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn decisions_stay_in_ladder(
        step in any_step(),
        cap in any_cap(),
        calls in 1usize..12,
    ) {
        let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
        for abr in suite(&manifest).iter_mut() {
            // Repeated calls must also hold (stateful policies).
            for _ in 0..calls {
                check_decision(abr.as_mut(), &manifest, &step, cap, 0)?;
            }
        }
    }

    /// Arbitrary trajectories — the signals a policy sees under any link
    /// trace and pressure history, varying step to step: every policy in
    /// the suite stays on the capped ladder at every step, including past
    /// the end of the manifest's segment range.
    #[test]
    fn decisions_stay_in_ladder_under_arbitrary_traces(
        steps in prop::collection::vec(any_step(), 1..20),
        cap in any_cap(),
    ) {
        let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
        let n_segments = manifest.n_segments();
        for abr in suite(&manifest).iter_mut() {
            for (i, step) in steps.iter().enumerate() {
                let next_segment = (i as u32).min(n_segments);
                check_decision(abr.as_mut(), &manifest, step, cap, next_segment)?;
            }
        }
    }

    /// Every stateful policy's snapshot state round-trips: a fresh policy
    /// restored from `state_value` makes the same next decision.
    #[test]
    fn snapshot_state_round_trips_mid_trajectory(
        steps in prop::collection::vec(any_step(), 1..10),
        probe in any_step(),
    ) {
        let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
        let mk: Vec<fn() -> Box<dyn Abr>> = vec![
            || Box::new(Mpc::new(Fps::F60)),
            || Box::new(Hybrid::new(Fps::F60)),
            || Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
        ];
        for make in mk {
            let mut original = make();
            for (i, step) in steps.iter().enumerate() {
                check_decision(original.as_mut(), &manifest, step, Resolution::R1440p, i as u32)?;
            }
            let mut restored = make();
            restored.restore_state(&original.state_value()).unwrap();
            let ctx = context(&manifest, &probe, Resolution::R1440p, steps.len() as u32);
            prop_assert_eq!(
                original.choose(&ctx),
                restored.choose(&ctx),
                "{} diverged after state restore",
                original.name()
            );
        }
    }

    /// The hybrid and the memory-aware wrapper share one cap state machine:
    /// over any trim-level and drop trajectory they stream the same frame
    /// rate at every step, so their arena differences come from the
    /// bandwidth side alone.
    #[test]
    fn hybrid_and_memory_aware_pick_the_same_frame_rate(
        steps in prop::collection::vec(pressure_step(), 1..60),
    ) {
        let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
        let n_segments = manifest.n_segments();
        let mut hybrid = Hybrid::new(Fps::F60);
        let mut memory_aware = MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60);
        for (i, step) in steps.iter().enumerate() {
            let ctx = context(&manifest, step, Resolution::R1440p, (i as u32).min(n_segments));
            prop_assert_eq!(
                hybrid.choose(&ctx).fps,
                memory_aware.choose(&ctx).fps,
                "step {} of {:?}",
                i,
                steps
            );
        }
    }

    /// The memory-aware controller never picks a higher frame rate under
    /// pressure than it would at Normal with the same inner state.
    #[test]
    fn memory_aware_never_raises_fps_under_pressure(
        buffer in 0.0f64..60.0,
        drop_pct in 0.0f64..100.0,
    ) {
        let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
        let pick = |trim: TrimLevel| {
            let mut abr = MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60);
            let ctx = AbrContext {
                manifest: &manifest,
                buffer_seconds: buffer,
                buffer_capacity: 60.0,
                throughput_mbps: Some(100.0),
                trim_level: trim,
                recent_drop_pct: drop_pct,
                last: None,
                screen_cap: Resolution::R1440p,
                next_segment: 0,
                last_download_secs: Some(0.5),
            };
            abr.choose(&ctx).fps.value()
        };
        let normal = pick(TrimLevel::Normal);
        for trim in [TrimLevel::Moderate, TrimLevel::Low, TrimLevel::Critical] {
            prop_assert!(pick(trim) <= normal, "{trim:?} raised fps");
        }
    }

    /// So does the hybrid: memory pressure can only lower its frame rate.
    #[test]
    fn hybrid_never_raises_fps_under_pressure(
        buffer in 0.0f64..60.0,
        drop_pct in 0.0f64..100.0,
        throughput in 0.05f64..200.0,
    ) {
        let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
        let pick = |trim: TrimLevel| {
            let mut abr = Hybrid::new(Fps::F60);
            let ctx = AbrContext {
                manifest: &manifest,
                buffer_seconds: buffer,
                buffer_capacity: 60.0,
                throughput_mbps: Some(throughput),
                trim_level: trim,
                recent_drop_pct: drop_pct,
                last: None,
                screen_cap: Resolution::R1440p,
                next_segment: 0,
                last_download_secs: Some(0.5),
            };
            abr.choose(&ctx).fps.value()
        };
        let normal = pick(TrimLevel::Normal);
        for trim in [TrimLevel::Moderate, TrimLevel::Low, TrimLevel::Critical] {
            prop_assert!(pick(trim) <= normal, "{trim:?} raised fps");
        }
    }
}
