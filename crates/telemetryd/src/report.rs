//! The ingest wire format: newline-delimited JSON device reports.
//!
//! A device's upload is a stream of [`DeviceReport`] lines — a `Begin`
//! announcing the device, its 1 Hz samples, and an `End` closing the
//! observation window — the §3 fleet protocol and nothing else. The
//! samples travel run-length coded: a `Run` frame carries one sample and
//! how many consecutive seconds repeat its state, and a `Sample` frame is
//! a run of one. Most fleet seconds repeat the one before, so the load
//! generator sends every maximal run as one `Run` line:
//!
//! ```text
//! {"Run":{"device":3,"sample":{"at":120000000,"available_mib":1423.5,"utilization_pct":61.2,"trim":"Normal","interactive":false,"n_services":17},"count":48}}
//! ```
//!
//! stands for the seconds 120 to 167 of device 3, all in the same state.
//! The server applies each run with
//! [`mvqoe_study::DeviceObservation::record_run`], bit for bit the same as
//! recording its sample `count` times; the observation is a pure function
//! of the sample states and never reads a timestamp, and JSON round-trips
//! `f64` bit-exactly, so an uploaded observation folds byte-identically to
//! one computed on-device.
//!
//! A device may not send more samples than its `Begin` declared:
//! `(hours × 3600) as u64` ([`mvqoe_study::observation_seconds`]), and a
//! `Begin` may not declare more hours than the fleet protocol's
//! `hours_hi`. A frame that would carry a device past its bound, a run of
//! zero samples, or samples for a device not in flight are protocol
//! violations, counted as parse failures, so no line asks for more work
//! than one device's observation. [`IngestAck::accepted`] counts frames,
//! not device-seconds.

use mvqoe_workload::{FleetSample, UsagePattern};
use serde::{Deserialize, Serialize};

/// One newline-delimited ingest record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DeviceReport {
    /// A fleet device comes online: everything the server needs to open
    /// its observation without re-deriving the device locally.
    Begin {
        /// Fleet user index (the device id).
        device: u32,
        /// Device model name.
        name: String,
        /// Manufacturer.
        manufacturer: String,
        /// RAM in MiB.
        ram_mib: u64,
        /// The user's survey answers.
        pattern: UsagePattern,
        /// Observation length in hours.
        hours: f64,
    },
    /// One 1 Hz memory/state sample from an open observation: a `Run`
    /// of one.
    Sample {
        /// Fleet user index.
        device: u32,
        /// The sample.
        sample: FleetSample,
    },
    /// `count` consecutive 1 Hz samples from an open observation, all
    /// [`FleetSample::same_state`] as `sample`: taken at `sample.at`,
    /// `sample.at + 1 s`, and so on.
    Run {
        /// Fleet user index.
        device: u32,
        /// The run's first sample.
        sample: FleetSample,
        /// Seconds the run covers (at least one).
        count: u32,
    },
    /// The device's observation window closed; fold it into the fleet.
    End {
        /// Fleet user index.
        device: u32,
    },
}

impl DeviceReport {
    /// The device id this report concerns.
    pub fn device(&self) -> u32 {
        match *self {
            DeviceReport::Begin { device, .. }
            | DeviceReport::Sample { device, .. }
            | DeviceReport::Run { device, .. }
            | DeviceReport::End { device } => device,
        }
    }
}

/// The one-line JSON ack the server writes after an ingest stream hits
/// EOF, so load generators know their upload was fully folded before the
/// connection closes.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct IngestAck {
    /// Frames (report lines) applied successfully.
    pub accepted: u64,
    /// Devices folded into the fleet aggregate by this connection.
    pub folded: u64,
    /// Lines that failed to parse or violated the protocol.
    pub parse_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_ndjson() {
        let begin = DeviceReport::Begin {
            device: 7,
            name: "Nokia 1".into(),
            manufacturer: "HMD Global".into(),
            ram_mib: 1024,
            pattern: UsagePattern {
                games: 2.0,
                music: 3.0,
                videos: 4.5,
                multitask_1: 4.0,
                multitask_2: 3.0,
                interactive_frac: 0.25,
            },
            hours: 16.25,
        };
        let line = serde_json::to_string(&begin).unwrap();
        assert!(!line.contains('\n'), "one report must stay one line");
        let back: DeviceReport = serde_json::from_str(&line).unwrap();
        assert_eq!(back.device(), 7);
        match back {
            DeviceReport::Begin { hours, .. } => assert_eq!(hours, 16.25),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn the_documented_run_line_parses() {
        let line = r#"{"Run":{"device":3,"sample":{"at":120000000,"available_mib":1423.5,"utilization_pct":61.2,"trim":"Normal","interactive":false,"n_services":17},"count":48}}"#;
        match serde_json::from_str::<DeviceReport>(line).unwrap() {
            DeviceReport::Run {
                device,
                sample,
                count,
            } => {
                assert_eq!((device, count), (3, 48));
                assert_eq!(sample.at, mvqoe_sim::SimTime::from_secs(120));
                let again = serde_json::to_string(&DeviceReport::Run {
                    device,
                    sample,
                    count,
                })
                .unwrap();
                assert_eq!(again, line);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
