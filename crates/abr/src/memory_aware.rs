//! Memory-aware adaptation — the paper's proposed client-side mechanism.
//!
//! §6 demonstrates two levers and one signal:
//!
//! * lowering the *encoded frame rate* rescues playback at a given
//!   resolution (Fig. 16: 1080p renders 0 FPS at 60 FPS encoding but
//!   cleanly at 24 FPS on a pressured Nokia 1);
//! * `onTrimMemory` signals are a usable *trigger* for switching (Fig. 17);
//! * bitrate/resolution reduction composes with frame-rate reduction.
//!
//! [`MemoryAware`] wraps any network ABR: the inner policy picks the
//! resolution the network can sustain, then memory state caps the frame
//! rate (60 → 48 → 24) and, under severe pressure, the resolution. Client-
//! side drop feedback provides a safety net for devices that cannot decode
//! a representation even without memory pressure (the paper's Nokia 1 at
//! 1080p). Recovery is deliberately sticky: pressure states persist for
//! long stretches (Fig. 6), so the controller waits for several clean
//! segments before stepping back up. These caps are one state machine,
//! `MemoryCaps`, which the hybrid controller shares.

use crate::context::{saved_entry, Abr, AbrContext};
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Representation, Resolution};
use serde::{Deserialize, Serialize};

/// Consecutive clean decisions (no trim signal, drops at most
/// [`DROP_REACT_PCT`]) before the caps relax one step.
const RECOVERY_PATIENCE: u32 = 3;

/// Recent drop percentage above which the caps tighten even without a trim
/// signal (decode-capacity safety net), and above which Moderate pressure
/// takes the frame rate below 48.
const DROP_REACT_PCT: f64 = 10.0;

/// The memory lever of [`MemoryAware`] and [`Hybrid`](crate::Hybrid):
/// sticky frame-rate and resolution caps, tightened by the trim level and
/// by drop feedback and relaxed after [`RECOVERY_PATIENCE`] clean
/// decisions. Its fields are all the memory-side state either policy
/// keeps, so a snapshot stores them as they stand.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct MemoryCaps {
    fps_cap: Fps,
    res_cap: Resolution,
    normal_streak: u32,
}

impl MemoryCaps {
    /// No caps: the preferred frame rate at any resolution.
    pub(crate) fn new(preferred_fps: Fps) -> MemoryCaps {
        MemoryCaps {
            fps_cap: preferred_fps,
            res_cap: Resolution::R1440p,
            normal_streak: 0,
        }
    }

    /// Fold in one decision's trim level and drop feedback, and return the
    /// frame rate to stream: the cap, never above `preferred_fps`.
    pub(crate) fn update(&mut self, ctx: &AbrContext<'_>, preferred_fps: Fps) -> Fps {
        let dropping = ctx.recent_drop_pct > DROP_REACT_PCT;
        if ctx.trim_level.is_pressure() || dropping {
            self.normal_streak = 0;
            self.tighten(ctx.trim_level, dropping);
        } else {
            self.normal_streak += 1;
            if self.normal_streak >= RECOVERY_PATIENCE {
                self.normal_streak = 0;
                self.relax(preferred_fps);
            }
        }
        self.fps_cap.min(preferred_fps)
    }

    /// Cap `pick`'s resolution and stream it at `fps`, the frame rate
    /// [`MemoryCaps::update`] returned; `pick` itself if the manifest
    /// lacks that cell.
    pub(crate) fn clamp(
        &self,
        ctx: &AbrContext<'_>,
        pick: Representation,
        fps: Fps,
    ) -> Representation {
        let res = pick.resolution.min(self.res_cap);
        ctx.manifest.representation(res, fps).unwrap_or(pick)
    }

    fn tighten(&mut self, trim: TrimLevel, dropping: bool) {
        match trim {
            TrimLevel::Critical => {
                self.fps_cap = Fps::F24;
                self.res_cap = self.res_cap.min(Resolution::R480p);
            }
            TrimLevel::Low => {
                self.fps_cap = Fps::F24;
                self.res_cap = self.res_cap.step_down().unwrap_or(self.res_cap);
            }
            // First lever: frame rate. Escalate 60→48, and 48→24 only if
            // drops persist. Heavy drops with no trim signal take the same
            // step: the decode path itself cannot keep up.
            TrimLevel::Moderate | TrimLevel::Normal => {
                self.fps_cap = match self.fps_cap {
                    Fps::F60 => Fps::F48,
                    Fps::F48 | Fps::F30 if dropping => Fps::F24,
                    cap => cap,
                };
            }
        }
    }

    fn relax(&mut self, preferred_fps: Fps) {
        // Restore resolution first (biggest QoE win), then frame rate.
        if self.res_cap < Resolution::R1440p {
            self.res_cap = self.res_cap.step_up().unwrap_or(Resolution::R1440p);
            return;
        }
        self.fps_cap = match (self.fps_cap, preferred_fps) {
            (Fps::F24, pref) if pref >= Fps::F30 => Fps::F30,
            (Fps::F30, pref) if pref >= Fps::F48 => Fps::F48,
            (Fps::F48, pref) if pref >= Fps::F60 => Fps::F60,
            (cap, _) => cap,
        };
    }

    /// The caps' fields as a snapshot map, with the wrapping policy's own
    /// state appended under `key`.
    pub(crate) fn state_with(&self, key: &str, rest: serde::Value) -> serde::Value {
        let mut state = serde::to_value(self);
        if let serde::Value::Map(entries) = &mut state {
            entries.push((key.into(), rest));
        }
        state
    }
}

/// The memory-aware wrapper.
#[derive(Debug, Clone)]
pub struct MemoryAware<A> {
    inner: A,
    /// The frame rate the user/content wants when unconstrained.
    preferred_fps: Fps,
    caps: MemoryCaps,
}

impl<A: Abr> MemoryAware<A> {
    /// Wrap `inner`, preferring `preferred_fps` when memory allows.
    pub fn new(inner: A, preferred_fps: Fps) -> MemoryAware<A> {
        MemoryAware {
            inner,
            preferred_fps,
            caps: MemoryCaps::new(preferred_fps),
        }
    }
}

impl<A: Abr> Abr for MemoryAware<A> {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let fps = self.caps.update(ctx, self.preferred_fps);
        // Network policy picks the resolution it can sustain…
        let inner_pick = self.inner.choose(ctx);
        // …then memory caps apply.
        self.caps.clamp(ctx, inner_pick, fps)
    }

    fn name(&self) -> &'static str {
        "memory-aware"
    }

    fn state_value(&self) -> serde::Value {
        self.caps.state_with("inner", self.inner.state_value())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        self.caps = serde::from_value(state)?;
        self.inner.restore_state(saved_entry(state, "inner")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer_based::BufferBased;
    use crate::context::test_support::*;
    use crate::fixed::FixedAbr;

    fn fixed_1080p60() -> FixedAbr {
        let m = manifest();
        FixedAbr::new(m.representation(Resolution::R1080p, Fps::F60).unwrap())
    }

    #[test]
    fn normal_state_passes_inner_through() {
        let m = manifest();
        let mut abr = MemoryAware::new(fixed_1080p60(), Fps::F60);
        let c = ctx(&m, 58.0, Some(50.0), TrimLevel::Normal);
        let r = abr.choose(&c);
        assert_eq!(r.resolution, Resolution::R1080p);
        assert_eq!(r.fps, Fps::F60);
    }

    #[test]
    fn moderate_pressure_steps_frame_rate_down() {
        let m = manifest();
        let mut abr = MemoryAware::new(fixed_1080p60(), Fps::F60);
        let c = ctx(&m, 58.0, Some(50.0), TrimLevel::Moderate);
        let r = abr.choose(&c);
        assert_eq!(r.fps, Fps::F48, "first lever is 60→48");
        assert_eq!(r.resolution, Resolution::R1080p, "resolution kept");
        // Drops persist at 48 → 24.
        let mut c2 = ctx(&m, 58.0, Some(50.0), TrimLevel::Moderate);
        c2.recent_drop_pct = 25.0;
        let r2 = abr.choose(&c2);
        assert_eq!(r2.fps, Fps::F24);
    }

    #[test]
    fn critical_pressure_caps_resolution_too() {
        let m = manifest();
        let mut abr = MemoryAware::new(fixed_1080p60(), Fps::F60);
        let c = ctx(&m, 58.0, Some(50.0), TrimLevel::Critical);
        let r = abr.choose(&c);
        assert_eq!(r.fps, Fps::F24);
        assert!(r.resolution <= Resolution::R480p);
    }

    #[test]
    fn recovery_is_sticky_then_stepwise() {
        let m = manifest();
        let mut abr = MemoryAware::new(fixed_1080p60(), Fps::F60);
        abr.choose(&ctx(&m, 58.0, None, TrimLevel::Critical));
        // Two Normal segments: caps unchanged (patience = 3).
        for _ in 0..2 {
            let r = abr.choose(&ctx(&m, 58.0, None, TrimLevel::Normal));
            assert_eq!(r.fps, Fps::F24);
        }
        // Third Normal: resolution relaxes one step first.
        let r = abr.choose(&ctx(&m, 58.0, None, TrimLevel::Normal));
        assert_eq!(r.resolution, Resolution::R720p);
        assert_eq!(r.fps, Fps::F24, "frame rate relaxes only after resolution");
        // Keep recovering: eventually back to 1080p60.
        for _ in 0..30 {
            abr.choose(&ctx(&m, 58.0, None, TrimLevel::Normal));
        }
        let r = abr.choose(&ctx(&m, 58.0, None, TrimLevel::Normal));
        assert_eq!(r.resolution, Resolution::R1080p);
        assert_eq!(r.fps, Fps::F60);
    }

    #[test]
    fn drop_feedback_reacts_without_pressure() {
        // Nokia 1 at 1080p30: no trim signal, but 19% drops — the safety
        // net must lower the frame rate.
        let m = manifest();
        let inner = FixedAbr::new(m.representation(Resolution::R1080p, Fps::F30).unwrap());
        let mut abr = MemoryAware::new(inner, Fps::F30);
        let mut c = ctx(&m, 58.0, None, TrimLevel::Normal);
        c.recent_drop_pct = 19.0;
        let r = abr.choose(&c);
        assert_eq!(r.fps, Fps::F24);
        assert_eq!(r.resolution, Resolution::R1080p);
    }

    #[test]
    fn composes_with_network_abr() {
        let m = manifest();
        let mut abr = MemoryAware::new(BufferBased::new(Fps::F60), Fps::F60);
        // Low buffer (network constrained) + Moderate pressure: both the
        // network rung and the fps cap apply.
        let c = ctx(&m, 3.0, Some(1.0), TrimLevel::Moderate);
        let r = abr.choose(&c);
        assert_eq!(r.resolution, Resolution::R240p, "network picks low rung");
        assert_eq!(r.fps, Fps::F48, "memory caps the frame rate");
        assert_eq!(abr.name(), "memory-aware");
    }
}
