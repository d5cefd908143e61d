//! The hybrid controller: joint memory + bandwidth adaptation.
//!
//! The paper keeps the network a non-bottleneck so memory pressure is the
//! only QoE variable; the joint-pressure regime breaks that isolation and
//! the two adaptation families conflict. A pure bandwidth policy (even
//! MPC) keeps streaming 60 fps into a memory-starved decoder; the
//! memory-aware wrapper picks its bitrate with a one-step rule that
//! over-commits on bursty links. [`Hybrid`] arbitrates the two signals
//! with the paper's lever assignment:
//!
//! * **memory pressure → frame rate** (and, when severe, a resolution
//!   cap), exactly the sticky 60→48→24 ladder of
//!   [`MemoryAware`](crate::MemoryAware);
//! * **network pressure → bitrate**, via the MPC lookahead run on the
//!   ladder *at the capped frame rate* — so when memory pressure forces
//!   24 fps, the planner prices the cheaper 24 fps rungs and banks the
//!   freed bandwidth as buffer instead of wasting it on frames the
//!   decoder would drop.

use crate::context::{Abr, AbrContext};
use crate::memory_aware::MemoryAwareConfig;
use crate::mpc::{lookahead_pick, MpcConfig, Predictor};
use mvqoe_kernel::TrimLevel;
use mvqoe_video::{Fps, Representation, Resolution};

/// The hybrid memory/bandwidth controller.
#[derive(Debug, Clone)]
pub struct Hybrid {
    mem: MemoryAwareConfig,
    mpc: MpcConfig,
    /// The frame rate the user/content wants when unconstrained.
    preferred_fps: Fps,
    fps_cap: Fps,
    res_cap: Resolution,
    normal_streak: u32,
    predictor: Predictor,
}

impl Hybrid {
    /// Default knobs from both parents: the memory-aware wrapper's sticky
    /// caps and MPC's 5-segment lookahead.
    pub fn new(preferred_fps: Fps) -> Hybrid {
        Hybrid::with_config(preferred_fps, MemoryAwareConfig::default(), MpcConfig::default())
    }

    /// Explicit configuration.
    pub fn with_config(preferred_fps: Fps, mem: MemoryAwareConfig, mpc: MpcConfig) -> Hybrid {
        Hybrid {
            mem,
            mpc,
            preferred_fps,
            fps_cap: preferred_fps,
            res_cap: Resolution::R1440p,
            normal_streak: 0,
            predictor: Predictor::default(),
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

    // The memory lever: identical cap dynamics to `MemoryAware`, so any
    // QoE difference against it in the arena is attributable to the
    // bandwidth side alone.
    fn update_memory_caps(&mut self, ctx: &AbrContext<'_>) {
        if ctx.trim_level.is_pressure() {
            self.normal_streak = 0;
            self.tighten(ctx.trim_level, ctx.recent_drop_pct);
        } else if ctx.recent_drop_pct > self.mem.drop_react_pct {
            self.normal_streak = 0;
            self.fps_cap = match self.fps_cap {
                Fps::F60 => Fps::F48,
                Fps::F48 | Fps::F30 => Fps::F24,
                Fps::F24 => Fps::F24,
            };
        } else {
            self.normal_streak += 1;
            if self.normal_streak >= self.mem.recovery_patience {
                self.normal_streak = 0;
                self.relax();
            }
        }
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
                    .unwrap_or(self.mem.min_resolution)
                    .max(self.mem.min_resolution);
            }
            TrimLevel::Moderate => {
                self.fps_cap = match self.fps_cap {
                    Fps::F60 => Fps::F48,
                    Fps::F48 | Fps::F30 if drop_pct > self.mem.drop_react_pct => Fps::F24,
                    cap => cap,
                };
            }
            TrimLevel::Normal => unreachable!("tighten is only called under pressure"),
        }
    }

    fn relax(&mut self) {
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

impl Abr for Hybrid {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        self.update_memory_caps(ctx);
        let fps = if self.fps_cap.value() < self.preferred_fps.value() {
            self.fps_cap
        } else {
            self.preferred_fps
        };
        // The bandwidth lever plans directly on the capped ladder.
        let pred = self.predictor.predict(ctx);
        let pick = lookahead_pick(ctx, &self.mpc, fps, pred);
        let res = pick
            .resolution
            .min(self.res_cap)
            .max(self.mem.min_resolution);
        ctx.manifest.representation(res, fps).unwrap_or(pick)
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn state_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("fps_cap".into(), serde::to_value(&self.fps_cap)),
            ("res_cap".into(), serde::to_value(&self.res_cap)),
            ("normal_streak".into(), serde::to_value(&self.normal_streak)),
            ("predictor".into(), self.predictor.state_value()),
        ])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        let field = |name: &str| {
            state
                .get(name)
                .ok_or_else(|| serde::de::Error::custom(format!("Hybrid state missing {name}")))
        };
        self.fps_cap = serde::from_value(field("fps_cap")?)?;
        self.res_cap = serde::from_value(field("res_cap")?)?;
        self.normal_streak = serde::from_value(field("normal_streak")?)?;
        self.predictor.restore(field("predictor")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::*;

    #[test]
    fn memory_pressure_degrades_fps_not_bitrate() {
        let m = manifest();
        let mut abr = Hybrid::new(Fps::F60);
        // Rich network, Moderate memory pressure: frame rate steps down,
        // resolution stays at the top of the capped ladder.
        let c = ctx(&m, 50.0, Some(200.0), TrimLevel::Moderate);
        let r = abr.choose(&c);
        assert_eq!(r.fps, Fps::F48, "memory lever is the frame rate");
        assert_eq!(r.resolution, Resolution::R1440p, "bitrate untouched");
    }

    #[test]
    fn network_pressure_degrades_bitrate_not_fps() {
        let m = manifest();
        let mut abr = Hybrid::new(Fps::F60);
        // Starved link, no memory pressure: bitrate collapses, 60 fps kept.
        let c = ctx(&m, 1.0, Some(1.0), TrimLevel::Normal);
        let r = abr.choose(&c);
        assert_eq!(r.fps, Fps::F60, "network pressure leaves fps alone");
        assert!(r.resolution <= Resolution::R360p, "bitrate is the network lever");
    }

    #[test]
    fn joint_pressure_pulls_both_levers() {
        let m = manifest();
        let mut abr = Hybrid::new(Fps::F60);
        let mut c = ctx(&m, 2.0, Some(2.0), TrimLevel::Moderate);
        c.recent_drop_pct = 20.0;
        let r = abr.choose(&c);
        assert!(r.fps <= Fps::F48, "memory degraded fps, got {:?}", r.fps);
        assert!(
            r.resolution <= Resolution::R480p,
            "network degraded bitrate, got {}",
            r.resolution
        );
    }

    #[test]
    fn capped_fps_ladder_is_cheaper_than_sixty() {
        let m = manifest();
        // Under Critical pressure the planner prices 24 fps rungs, which
        // cost ~60% of the 60 fps ones — the same link sustains a higher
        // resolution than the same planner forced to 60 fps.
        let mut hybrid = Hybrid::new(Fps::F60);
        let c = ctx(&m, 20.0, Some(4.0), TrimLevel::Critical);
        let r = hybrid.choose(&c);
        assert_eq!(r.fps, Fps::F24);
        assert!(r.resolution <= Resolution::R480p, "critical caps resolution");
    }

    #[test]
    fn recovery_mirrors_memory_aware_stickiness() {
        let m = manifest();
        let mut abr = Hybrid::new(Fps::F60);
        abr.choose(&ctx(&m, 50.0, Some(100.0), TrimLevel::Critical));
        // Patience is 3: two Normal segments keep the caps.
        for _ in 0..2 {
            let r = abr.choose(&ctx(&m, 50.0, Some(100.0), TrimLevel::Normal));
            assert_eq!(r.fps, Fps::F24);
        }
        // Relaxation restores resolution before frame rate.
        let r = abr.choose(&ctx(&m, 50.0, Some(100.0), TrimLevel::Normal));
        assert_eq!(r.fps, Fps::F24);
        assert_eq!(r.resolution, Resolution::R720p);
        for _ in 0..30 {
            abr.choose(&ctx(&m, 50.0, Some(100.0), TrimLevel::Normal));
        }
        let r = abr.choose(&ctx(&m, 50.0, Some(100.0), TrimLevel::Normal));
        assert_eq!(r.fps, Fps::F60);
        assert_eq!(r.resolution, Resolution::R1440p);
    }

    #[test]
    fn snapshot_round_trip_restores_decisions() {
        let m = manifest();
        let mut original = Hybrid::new(Fps::F60);
        // Build up cap state and predictor history.
        for (t, trim) in [
            (20.0, TrimLevel::Normal),
            (3.0, TrimLevel::Moderate),
            (15.0, TrimLevel::Critical),
            (6.0, TrimLevel::Normal),
        ] {
            original.choose(&ctx(&m, 25.0, Some(t), trim));
        }
        let state = original.state_value();
        let mut restored = Hybrid::new(Fps::F60);
        restored.restore_state(&state).unwrap();
        for (t, trim) in [
            (12.0, TrimLevel::Normal),
            (3.0, TrimLevel::Normal),
            (30.0, TrimLevel::Moderate),
            (8.0, TrimLevel::Normal),
        ] {
            let c = ctx(&m, 18.0, Some(t), trim);
            assert_eq!(original.choose(&c), restored.choose(&c));
        }
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut abr = Hybrid::new(Fps::F60);
        assert!(abr.restore_state(&serde::Value::Null).is_err());
    }
}
