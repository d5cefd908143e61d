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
//! segments before stepping back up.

use crate::context::{Abr, AbrContext};
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Representation, Resolution};
use serde::{Deserialize, Serialize};

/// Tuning knobs for [`MemoryAware`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemoryAwareConfig {
    /// Consecutive Normal-state decisions before relaxing one cap step.
    pub recovery_patience: u32,
    /// Recent drop percentage above which the controller reacts even
    /// without a trim signal (decode-capacity safety net).
    pub drop_react_pct: f64,
    /// Resolution floor — never adapt below this.
    pub min_resolution: Resolution,
}

impl Default for MemoryAwareConfig {
    fn default() -> Self {
        MemoryAwareConfig {
            recovery_patience: 3,
            drop_react_pct: 10.0,
            min_resolution: Resolution::R240p,
        }
    }
}

/// The memory-aware wrapper.
#[derive(Debug, Clone)]
pub struct MemoryAware<A> {
    inner: A,
    cfg: MemoryAwareConfig,
    /// The frame rate the user/content wants when unconstrained.
    preferred_fps: Fps,
    fps_cap: Fps,
    res_cap: Resolution,
    normal_streak: u32,
}

impl<A: Abr> MemoryAware<A> {
    /// Wrap `inner`, preferring `preferred_fps` when memory allows.
    pub fn new(inner: A, preferred_fps: Fps) -> MemoryAware<A> {
        MemoryAware::with_config(inner, preferred_fps, MemoryAwareConfig::default())
    }

    /// Wrap with explicit configuration.
    pub fn with_config(inner: A, preferred_fps: Fps, cfg: MemoryAwareConfig) -> MemoryAware<A> {
        MemoryAware {
            inner,
            cfg,
            preferred_fps,
            fps_cap: preferred_fps,
            res_cap: Resolution::R1440p,
            normal_streak: 0,
        }
    }

    /// Current frame-rate cap (for experiment logging).
    pub fn fps_cap(&self) -> Fps {
        self.fps_cap
    }

    /// Current resolution cap (for experiment logging).
    pub fn res_cap(&self) -> Resolution {
        self.res_cap
    }

    fn tighten(&mut self, trim: TrimLevel, drop_pct: f64) {
        match trim {
            TrimLevel::Critical => {
                self.fps_cap = Fps::F24;
                self.res_cap = self.res_cap.min(Resolution::R480p);
            }
            TrimLevel::Low => {
                self.fps_cap = Fps::F24;
                self.res_cap = self
                    .res_cap
                    .step_down()
                    .unwrap_or(self.cfg.min_resolution)
                    .max(self.cfg.min_resolution);
            }
            TrimLevel::Moderate => {
                // First lever: frame rate. Escalate 60→48, and 48→24 only if
                // drops persist.
                self.fps_cap = match self.fps_cap {
                    Fps::F60 => Fps::F48,
                    Fps::F48 | Fps::F30 if drop_pct > self.cfg.drop_react_pct => Fps::F24,
                    cap => cap,
                };
            }
            TrimLevel::Normal => unreachable!("tighten is only called under pressure"),
        }
    }

    fn relax(&mut self) {
        // Restore resolution first (biggest QoE win), then frame rate.
        if self.res_cap < Resolution::R1440p {
            self.res_cap = self.res_cap.step_up().unwrap_or(Resolution::R1440p);
            return;
        }
        self.fps_cap = match (self.fps_cap, self.preferred_fps) {
            (Fps::F24, pref) if pref >= Fps::F30 => Fps::F30,
            (Fps::F30, pref) if pref >= Fps::F48 => Fps::F48,
            (Fps::F48, pref) if pref >= Fps::F60 => Fps::F60,
            (cap, _) => cap,
        };
    }
}

impl<A: Abr> Abr for MemoryAware<A> {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        if ctx.trim_level.is_pressure() {
            self.normal_streak = 0;
            self.tighten(ctx.trim_level, ctx.recent_drop_pct);
        } else if ctx.recent_drop_pct > self.cfg.drop_react_pct {
            // No memory pressure but the device still can't keep up: the
            // decode path is the bottleneck. Reduce frame rate persistently.
            self.normal_streak = 0;
            self.fps_cap = match self.fps_cap {
                Fps::F60 => Fps::F48,
                Fps::F48 | Fps::F30 => Fps::F24,
                Fps::F24 => Fps::F24,
            };
        } else {
            self.normal_streak += 1;
            if self.normal_streak >= self.cfg.recovery_patience {
                self.normal_streak = 0;
                self.relax();
            }
        }

        // Network policy picks the resolution it can sustain…
        let inner_pick = self.inner.choose(ctx);
        // …then memory caps apply.
        let fps = if self.fps_cap.value() < self.preferred_fps.value() {
            self.fps_cap
        } else {
            self.preferred_fps
        };
        let res = inner_pick
            .resolution
            .min(self.res_cap)
            .max(self.cfg.min_resolution);
        ctx.manifest
            .representation(res, fps)
            .unwrap_or(inner_pick)
    }

    fn name(&self) -> &'static str {
        "memory-aware"
    }

    fn state_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("fps_cap".into(), serde::to_value(&self.fps_cap)),
            ("res_cap".into(), serde::to_value(&self.res_cap)),
            ("normal_streak".into(), serde::to_value(&self.normal_streak)),
            ("inner".into(), self.inner.state_value()),
        ])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        let field = |name: &str| {
            state.get(name).ok_or_else(|| {
                serde::de::Error::custom(format!("MemoryAware state missing {name}"))
            })
        };
        self.fps_cap = serde::from_value(field("fps_cap")?)?;
        self.res_cap = serde::from_value(field("res_cap")?)?;
        self.normal_streak = serde::from_value(field("normal_streak")?)?;
        self.inner.restore_state(field("inner")?)
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

    #[test]
    fn respects_resolution_floor() {
        let m = manifest();
        let cfg = MemoryAwareConfig {
            min_resolution: Resolution::R360p,
            ..Default::default()
        };
        let inner = FixedAbr::new(m.representation(Resolution::R240p, Fps::F60).unwrap());
        let mut abr = MemoryAware::with_config(inner, Fps::F60, cfg);
        let r = abr.choose(&ctx(&m, 58.0, None, TrimLevel::Critical));
        assert_eq!(r.resolution, Resolution::R360p);
    }
}
