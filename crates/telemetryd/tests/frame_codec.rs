//! The ingest frame codec on hostile input: `from_slice::<DeviceReport>`
//! never panics on arbitrary bytes or on real frames mutated byte by byte,
//! every frame it accepts re-encodes to a line that parses back to the same
//! frame, and malformed lines stay rejected.

use mvqoe_sim::SimTime;
use mvqoe_study::{start_user, FleetConfig};
use mvqoe_telemetryd::DeviceReport;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Real frames: one device's `Begin`, its first seconds as `Sample` and
/// `Run` frames, and its `End`.
fn frames() -> &'static [String] {
    static FRAMES: OnceLock<Vec<String>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let cfg = FleetConfig::scaled(1, 2077, 0.05, 0.005);
        let mut st = start_user(&cfg, 0);
        let mut reports = vec![DeviceReport::Begin {
            device: 0,
            name: st.user.device.name.clone(),
            manufacturer: st.user.device.manufacturer.clone(),
            ram_mib: st.user.device.ram_mib,
            pattern: st.user.pattern,
            hours: st.hours,
        }];
        for s in 0..8 {
            let sample = st.user.step_1s(SimTime::from_secs(s));
            reports.push(if s % 2 == 0 {
                DeviceReport::Sample { device: 0, sample }
            } else {
                DeviceReport::Run {
                    device: 0,
                    sample,
                    count: s as u32,
                }
            });
        }
        reports.push(DeviceReport::End { device: 0 });
        reports
            .iter()
            .map(|r| serde_json::to_string(r).expect("encodes"))
            .collect()
    })
}

/// Parse `bytes`; if they are accepted, the frame must re-encode to a line
/// that parses to the same frame.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(frame) = serde_json::from_slice::<DeviceReport>(bytes) {
        let line = serde_json::to_string(&frame).expect("encodes");
        let again: DeviceReport = serde_json::from_str(&line)
            .map_err(|e| TestCaseError::fail(format!("re-encoded {line} rejected: {e}")))?;
        prop_assert_eq!(serde_json::to_string(&again).expect("encodes"), line);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check(&bytes)?;
    }

    #[test]
    fn mutated_real_frames_never_panic(
        pick in 0usize..10,
        edits in prop::collection::vec((any::<u32>(), any::<u8>(), 0u8..3), 1..6),
    ) {
        let mut bytes = frames()[pick].as_bytes().to_vec();
        for (at, byte, op) in edits {
            let at = at as usize % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        check(&bytes)?;
    }
}

#[test]
fn real_frames_round_trip() {
    for line in frames() {
        let frame: DeviceReport = serde_json::from_str(line).expect("a real frame parses");
        assert_eq!(&serde_json::to_string(&frame).unwrap(), line);
    }
}

#[test]
fn malformed_frames_stay_rejected() {
    let end = r#"{"End":{"device":7}}"#;
    assert!(serde_json::from_str::<DeviceReport>(end).is_ok());
    for bad in [
        r#"{"End":{"device":7}} x"#,
        r#"{"End":{"device":7}}}"#,
        r#"{"Begin":{"device":7,"name":"Nokia 1"#,
        r#"{"Begin":{"device":7,"name":"No\qkia"}}"#,
        r#"{"Begin":{"device":7,"name":"\ud800"}}"#,
        r#"{"End":{"device":7,"device":8}}"#,
        r#"{"End":{"device":7},"End":{"device":8}}"#,
        r#"{"End":{"device":-7}}"#,
        r#"{"End":{"device":07}}"#,
        r#"{"End":{"device":7,}}"#,
    ] {
        assert!(
            serde_json::from_str::<DeviceReport>(bad).is_err(),
            "{bad} was accepted"
        );
    }
    let nested = "[".repeat(100_000);
    assert!(serde_json::from_str::<serde_json::Value>(&nested).is_err());
}
