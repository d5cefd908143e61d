//! Run-length sample frames fold exactly like per-second upload.
//!
//! Each device's 1 Hz stream is cut into an arbitrary sequence of `Sample`
//! and `Run` frames — its maximal same-state runs split again at random
//! points — and the devices' frames are interleaved at random. Applied to
//! `ServiceState` directly, with no sockets, every cut must finalize to an
//! aggregate whose JSON equals, byte for byte, both the all-`Sample`
//! upload's and the batch engine's.

use mvqoe_metrics::SharedRegistry;
use mvqoe_sim::{SimRng, SimTime};
use mvqoe_study::{simulate_range, start_user, FleetConfig};
use mvqoe_telemetryd::{DeviceReport, ServiceState};
use mvqoe_workload::FleetSample;
use proptest::prelude::*;
use std::sync::OnceLock;

const USERS: u32 = 5;

fn cfg() -> FleetConfig {
    FleetConfig::scaled(USERS, 2077, 0.05, 0.005)
}

/// One simulated device: its `Begin` frame and its per-second samples.
struct Device {
    begin: DeviceReport,
    samples: Vec<FleetSample>,
}

struct Fixture {
    devices: Vec<Device>,
    /// The all-`Sample` upload's final aggregate, as JSON.
    per_second: String,
    /// `simulate_range`'s aggregate over the same users, as JSON.
    batch: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cfg = cfg();
        let devices: Vec<Device> = (0..USERS)
            .map(|i| {
                let mut st = start_user(&cfg, i);
                let begin = DeviceReport::Begin {
                    device: i,
                    name: st.user.device.name.clone(),
                    manufacturer: st.user.device.manufacturer.clone(),
                    ram_mib: st.user.device.ram_mib,
                    pattern: st.user.pattern,
                    hours: st.hours,
                };
                let samples = (0..st.seconds())
                    .map(|s| st.user.step_1s(SimTime::from_secs(s)))
                    .collect();
                Device { begin, samples }
            })
            .collect();
        let per_second: Vec<Vec<DeviceReport>> = devices
            .iter()
            .map(|d| {
                let device = d.begin.device();
                let mut frames = vec![d.begin.clone()];
                frames.extend(
                    d.samples
                        .iter()
                        .map(|&sample| DeviceReport::Sample { device, sample }),
                );
                frames.push(DeviceReport::End { device });
                frames
            })
            .collect();
        let per_second = fold(per_second.concat().iter());
        let batch = serde_json::to_string(&simulate_range(&cfg, 0..USERS)).expect("serialize");
        Fixture {
            devices,
            per_second,
            batch,
        }
    })
}

/// Apply `frames` to a fresh three-shard service; the final aggregate's
/// JSON.
fn fold<'a>(frames: impl Iterator<Item = &'a DeviceReport>) -> String {
    let state = ServiceState::new(cfg(), 3, SharedRegistry::new());
    for frame in frames {
        state.apply(frame).expect("every frame is valid");
    }
    serde_json::to_string(&state.finalize()).expect("serialize")
}

/// `d`'s frames: `Begin`, its samples cut at every state change and, with
/// probability `cut_p`, between any two seconds of one state, and `End`.
/// A piece of one second goes out as a `Sample` or a `Run` of one.
fn cut(d: &Device, rng: &mut SimRng, cut_p: f64) -> Vec<DeviceReport> {
    let device = d.begin.device();
    let mut frames = vec![d.begin.clone()];
    let mut start = 0;
    while start < d.samples.len() {
        let first = d.samples[start];
        let mut end = start + 1;
        while end < d.samples.len() && first.same_state(&d.samples[end]) && !rng.chance(cut_p) {
            end += 1;
        }
        let count = (end - start) as u32;
        frames.push(if count == 1 && rng.chance(0.5) {
            DeviceReport::Sample {
                device,
                sample: first,
            }
        } else {
            DeviceReport::Run {
                device,
                sample: first,
                count,
            }
        });
        start = end;
    }
    frames.push(DeviceReport::End { device });
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_cut_into_sample_and_run_frames_folds_byte_identically(
        seed in any::<u64>(),
        cut_p in 0.0f64..1.0,
    ) {
        let fx = fixture();
        let mut rng = SimRng::new(seed);
        let mut queues: Vec<std::vec::IntoIter<DeviceReport>> = fx
            .devices
            .iter()
            .map(|d| cut(d, &mut rng, cut_p).into_iter())
            .collect();
        // Interleave the devices' frames at random, each device's in order.
        let mut frames = Vec::new();
        while !queues.is_empty() {
            let k = rng.index(queues.len());
            match queues[k].next() {
                Some(frame) => frames.push(frame),
                None => {
                    queues.swap_remove(k);
                }
            }
        }
        let folded = fold(frames.iter());
        prop_assert!(folded == fx.per_second, "seed {seed}: differs from per-second upload");
        prop_assert!(folded == fx.batch, "seed {seed}: differs from the batch engine");
    }
}

#[test]
fn per_second_upload_matches_the_batch_engine() {
    let fx = fixture();
    assert!(fx.devices.iter().all(|d| !d.samples.is_empty()));
    assert_eq!(fx.per_second, fx.batch);
}
