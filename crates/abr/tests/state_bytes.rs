//! Saved policy state is pinned byte for byte, so a session snapshot
//! written by an earlier build restores into this one. Each stateful
//! policy is driven through one fixed trajectory; its `state_value`, as
//! JSON text, must equal the text captured before the memory-cap state
//! machine was shared, and that text, restored into a fresh policy, must
//! make the same next decisions as the original.

use mvqoe_abr::{Abr, AbrContext, BufferBased, Hybrid, MemoryAware, Mpc, ScheduledFps};
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Genre, Manifest, Resolution};

/// `(buffer s, throughput Mbit/s, trim level, recent drop %)` per segment:
/// pressure that tightens both caps, drops without a trim signal, a
/// volatile link, and a few clean segments of recovery.
type Step = (f64, Option<f64>, TrimLevel, f64);

const TRAJECTORY: [Step; 10] = [
    (30.0, None, TrimLevel::Normal, 0.0),
    (12.0, Some(8.0), TrimLevel::Moderate, 4.0),
    (20.0, Some(3.5), TrimLevel::Moderate, 18.0),
    (25.0, Some(12.0), TrimLevel::Critical, 30.0),
    (40.0, Some(6.0), TrimLevel::Normal, 2.0),
    (44.0, Some(9.0), TrimLevel::Low, 0.0),
    (50.0, Some(20.0), TrimLevel::Normal, 0.0),
    (52.0, Some(15.0), TrimLevel::Normal, 12.0),
    (55.0, Some(18.0), TrimLevel::Normal, 0.0),
    (57.0, Some(2.5), TrimLevel::Normal, 0.0),
];

/// The segments decided after the snapshot point.
const PROBE: [Step; 6] = [
    (35.0, Some(10.0), TrimLevel::Normal, 0.0),
    (36.0, Some(30.0), TrimLevel::Normal, 0.0),
    (38.0, Some(4.0), TrimLevel::Moderate, 11.0),
    (30.0, Some(7.0), TrimLevel::Normal, 0.0),
    (33.0, Some(9.5), TrimLevel::Normal, 0.0),
    (41.0, Some(12.0), TrimLevel::Normal, 0.0),
];

fn ctx<'a>(
    manifest: &'a Manifest,
    segment: usize,
    &(buffer, throughput, trim, drop_pct): &Step,
) -> AbrContext<'a> {
    AbrContext {
        manifest,
        buffer_seconds: buffer,
        buffer_capacity: 60.0,
        throughput_mbps: throughput,
        trim_level: trim,
        recent_drop_pct: drop_pct,
        last: None,
        screen_cap: Resolution::R1440p,
        next_segment: segment as u32,
        last_download_secs: throughput.map(|_| 1.0),
    }
}

/// A fresh policy, and the state text it held after [`TRAJECTORY`] before
/// the caps were shared.
type Saved = (fn() -> Box<dyn Abr>, &'static str);

fn saved() -> Vec<Saved> {
    vec![
        (
            || Box::new(Mpc::new(Fps::F60)),
            r#"{"predictor":{"past_errors":[0.7083333333333334,0.8031250000000001,0.41666666666666674,0.5549374130737135,2.993067590987868],"last_prediction":0.5634765625}}"#,
        ),
        (
            || Box::new(MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60)),
            r#"{"fps_cap":"F24","res_cap":"R360p","normal_streak":2,"inner":null}"#,
        ),
        (
            || Box::new(Hybrid::new(Fps::F60)),
            r#"{"fps_cap":"F24","res_cap":"R360p","normal_streak":2,"predictor":{"past_errors":[0.7083333333333334,0.8031250000000001,0.41666666666666674,0.5549374130737135,2.993067590987868],"last_prediction":0.5634765625}}"#,
        ),
        (
            || {
                Box::new(ScheduledFps::new(
                    Resolution::R720p,
                    vec![(4, Fps::F60), (8, Fps::F24), (3, Fps::F48)],
                ))
            },
            "10",
        ),
    ]
}

#[test]
fn saved_state_bytes_are_pinned_and_restore() {
    let manifest = Manifest::full_ladder(Genre::Travel, 120.0);
    for (make, text) in saved() {
        let mut original = make();
        for (i, step) in TRAJECTORY.iter().enumerate() {
            original.choose(&ctx(&manifest, i, step));
        }
        let state = serde_json::to_string(&original.state_value()).unwrap();
        assert_eq!(state, text, "{} state bytes moved", original.name());

        let mut restored = make();
        restored
            .restore_state(&serde_json::from_str(text).unwrap())
            .unwrap();
        for (i, step) in PROBE.iter().enumerate() {
            let c = ctx(&manifest, TRAJECTORY.len() + i, step);
            assert_eq!(
                original.choose(&c),
                restored.choose(&c),
                "{} diverged {i} segments after restoring its saved state",
                original.name()
            );
        }
    }
}
