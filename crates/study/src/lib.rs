//! User-study machinery.
//!
//! Two human-subject components of the paper are synthesized here:
//!
//! * **The §3 fleet study** — 80 recruited users ran `SignalCapturer`,
//!   which sampled memory state at 1 Hz for 1–18 days (≈ 9950 logged
//!   hours). [`fleet_study`] runs a simulated fleet (devices and usage
//!   patterns from `mvqoe-workload`), applies the paper's cleaning rule
//!   (keep devices with > 10 h of interactive data) and produces the
//!   distributions behind Figs. 1–6 via the streaming accumulators in
//!   [`observation`].
//! * **The §4.3 DMOS survey** — 99 raters compared a 3%-drop clip against
//!   a 35%-drop clip on a 1–5 differential scale. [`survey`] models raters
//!   psychometrically (logistic annoyance in log-drop-rate, per-rater bias
//!   and noise) so Fig. 10's histogram is generated, not hard-coded.

pub mod fleet_aggregate;
pub mod fleet_study;
pub mod observation;
pub mod survey;

pub use fleet_aggregate::{
    DeviceDigest, DwellCounts, Fig6Pool, FleetAggregate, TopDevice, DEVICE_DIGEST_CAP,
    TOP_PRESSURE_K,
};
pub use fleet_study::{
    assemble_fleet, observation_seconds, simulate_range, simulate_range_chunked, simulate_user,
    start_user, FleetConfig, UserStream, BATCH_CHUNK,
};
pub use observation::DeviceObservation;
pub use survey::{run_survey, SurveyConfig, SurveyResults};
