//! The decision context and the `Abr` trait.

use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Manifest, Representation, Resolution};

/// Safety factor applied by [`AbrContext::predicted_throughput_mbps`]:
/// dash.js-style 90% of the harmonic-mean estimate. Policies that want a
/// conservative bandwidth prediction use the context's method rather than
/// applying their own factor, so every policy prices bandwidth the same
/// way.
pub const THROUGHPUT_SAFETY: f64 = 0.9;

/// Everything an ABR algorithm may look at when picking the next segment's
/// representation.
#[derive(Debug, Clone)]
pub struct AbrContext<'a> {
    /// The manifest being streamed.
    pub manifest: &'a Manifest,
    /// Current buffer occupancy in seconds.
    pub buffer_seconds: f64,
    /// Buffer capacity in seconds.
    pub buffer_capacity: f64,
    /// Recent harmonic-mean delivered throughput, Mbit/s (None before the
    /// first segment). This is *the* throughput estimator: the session
    /// computes it once per decision from the server's request history, so
    /// policies cannot disagree on its definition.
    pub throughput_mbps: Option<f64>,
    /// The current `onTrimMemory` level — the paper's proposed signal.
    pub trim_level: TrimLevel,
    /// Frame-drop percentage over the last observation window (client-side
    /// feedback the paper suggests monitoring).
    pub recent_drop_pct: f64,
    /// The representation of the previous segment, if any.
    pub last: Option<Representation>,
    /// Device screen cap: streaming above the panel resolution is wasted
    /// (the "coarse-grained device measure" the paper contrasts with).
    pub screen_cap: Resolution,
    /// Index of the segment being decided (0-based), for lookahead
    /// policies that plan over the remaining segments.
    pub next_segment: u32,
    /// Wall-clock seconds the most recent segment download took (None
    /// before the first segment) — MPC's prediction-error feedback.
    pub last_download_secs: Option<f64>,
}

impl AbrContext<'_> {
    /// Segment duration in seconds.
    pub fn segment_seconds(&self) -> f64 {
        self.manifest.segment_seconds
    }

    /// Segments left to stream, including the one being decided.
    pub fn segments_remaining(&self) -> u32 {
        self.manifest.n_segments().saturating_sub(self.next_segment)
    }

    /// Manifest-declared bytes for the next `n` segments at `rep`
    /// (clamped to the segments actually remaining). DASH manifests
    /// declare nominal per-segment sizes; lookahead policies plan on
    /// those, while the wire transfer still carries VBR noise.
    pub fn upcoming_segment_bytes(&self, rep: Representation, n: u32) -> u64 {
        let n = n.min(self.segments_remaining());
        rep.chunk_bytes(self.manifest.segment_seconds) * u64::from(n)
    }

    /// The conservative bandwidth prediction shared by every policy:
    /// [`THROUGHPUT_SAFETY`] × the harmonic-mean estimate.
    pub fn predicted_throughput_mbps(&self) -> Option<f64> {
        self.throughput_mbps.map(|m| m * THROUGHPUT_SAFETY)
    }
    /// The ladder at a given frame rate, capped at the screen resolution.
    pub fn ladder_at(&self, fps: Fps) -> Vec<Representation> {
        self.manifest
            .ladder_at_fps(fps)
            .into_iter()
            .filter(|r| r.resolution <= self.screen_cap)
            .collect()
    }

    /// Highest-bitrate representation at `fps` not exceeding `mbps`.
    pub fn best_under_rate(&self, fps: Fps, mbps: f64) -> Option<Representation> {
        self.ladder_at(fps)
            .into_iter()
            .rev()
            .find(|r| r.bitrate_kbps as f64 / 1000.0 <= mbps)
    }

    /// The lowest rung at `fps`.
    pub fn lowest(&self, fps: Fps) -> Option<Representation> {
        self.ladder_at(fps).into_iter().next()
    }
}

/// An adaptive-bitrate policy.
pub trait Abr {
    /// Pick the representation for the next segment.
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation;

    /// Short human-readable name for experiment output.
    fn name(&self) -> &'static str;

    /// The policy's mutable decision state, for session snapshots.
    ///
    /// Stateless policies (fixed, throughput, buffer-based, BOLA — pure
    /// functions of their config and the context) keep the default `Null`.
    /// Stateful policies must capture everything [`Abr::choose`] reads that
    /// [`Abr::choose`] also writes, so a restored policy's next decision is
    /// identical to the original's.
    fn state_value(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restore the state captured by [`Abr::state_value`] into a policy
    /// constructed with the same configuration.
    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), serde::de::Error> {
        Ok(())
    }
}

/// The entry `key` of a stateful policy's saved state map.
pub(crate) fn saved_entry<'a>(
    state: &'a serde::Value,
    key: &str,
) -> Result<&'a serde::Value, serde::de::Error> {
    state
        .get(key)
        .ok_or_else(|| serde::de::Error::custom(format!("ABR state missing {key}")))
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use mvqoe_video::Genre;

    pub fn manifest() -> Manifest {
        Manifest::full_ladder(Genre::Travel, 180.0)
    }

    pub fn ctx<'a>(
        manifest: &'a Manifest,
        buffer: f64,
        throughput: Option<f64>,
        trim: TrimLevel,
    ) -> AbrContext<'a> {
        AbrContext {
            manifest,
            buffer_seconds: buffer,
            buffer_capacity: 60.0,
            throughput_mbps: throughput,
            trim_level: trim,
            recent_drop_pct: 0.0,
            last: None,
            screen_cap: Resolution::R1440p,
            next_segment: 0,
            last_download_secs: throughput.map(|_| 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn ladder_respects_screen_cap() {
        let m = manifest();
        let mut c = ctx(&m, 30.0, None, TrimLevel::Normal);
        c.screen_cap = Resolution::R720p;
        let ladder = c.ladder_at(Fps::F60);
        assert!(ladder.iter().all(|r| r.resolution <= Resolution::R720p));
        assert_eq!(ladder.len(), 4); // 240p..720p
    }

    #[test]
    fn best_under_rate_picks_greatest_fit() {
        let m = manifest();
        let c = ctx(&m, 30.0, None, TrimLevel::Normal);
        // 6 Mbit/s fits 720p30 (5 Mbit/s) but not 1080p30 (8 Mbit/s).
        let r = c.best_under_rate(Fps::F30, 6.0).unwrap();
        assert_eq!(r.resolution, Resolution::R720p);
        // Nothing fits 0.1 Mbit/s.
        assert!(c.best_under_rate(Fps::F30, 0.1).is_none());
    }

    #[test]
    fn lowest_is_240p() {
        let m = manifest();
        let c = ctx(&m, 0.0, None, TrimLevel::Normal);
        assert_eq!(c.lowest(Fps::F60).unwrap().resolution, Resolution::R240p);
    }

    #[test]
    fn lookahead_bytes_use_manifest_nominals_and_clamp() {
        let m = manifest(); // 180 s at 4 s segments → 45 segments
        let mut c = ctx(&m, 30.0, Some(10.0), TrimLevel::Normal);
        let rep = m.representation(Resolution::R720p, Fps::F30).unwrap();
        assert_eq!(c.segment_seconds(), 4.0);
        assert_eq!(c.segments_remaining(), 45);
        assert_eq!(c.upcoming_segment_bytes(rep, 5), 5 * rep.chunk_bytes(4.0));
        // Near the end of the stream the lookahead clamps.
        c.next_segment = 43;
        assert_eq!(c.segments_remaining(), 2);
        assert_eq!(c.upcoming_segment_bytes(rep, 5), 2 * rep.chunk_bytes(4.0));
    }

    #[test]
    fn predicted_throughput_applies_shared_safety() {
        let m = manifest();
        let c = ctx(&m, 30.0, Some(10.0), TrimLevel::Normal);
        assert_eq!(c.predicted_throughput_mbps(), Some(10.0 * THROUGHPUT_SAFETY));
        let c = ctx(&m, 30.0, None, TrimLevel::Normal);
        assert_eq!(c.predicted_throughput_mbps(), None);
    }
}
