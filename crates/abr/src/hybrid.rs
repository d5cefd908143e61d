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
//!   cap), through the same `MemoryCaps` as
//!   [`MemoryAware`](crate::MemoryAware), so any QoE difference against it
//!   in the arena comes from the bandwidth side alone;
//! * **network pressure → bitrate**, via the MPC lookahead run on the
//!   ladder *at the capped frame rate* — so when memory pressure forces
//!   24 fps, the planner prices the cheaper 24 fps rungs and banks the
//!   freed bandwidth as buffer instead of wasting it on frames the
//!   decoder would drop.

use crate::context::{saved_entry, Abr, AbrContext};
use crate::memory_aware::MemoryCaps;
use crate::mpc::{lookahead_pick, Predictor};
use mvqoe_video::{Fps, Representation};

/// The hybrid memory/bandwidth controller.
#[derive(Debug, Clone)]
pub struct Hybrid {
    /// The frame rate the user/content wants when unconstrained.
    preferred_fps: Fps,
    caps: MemoryCaps,
    predictor: Predictor,
}

impl Hybrid {
    /// Both parents' knobs: the memory-aware wrapper's sticky caps and
    /// MPC's 5-segment lookahead.
    pub fn new(preferred_fps: Fps) -> Hybrid {
        Hybrid {
            preferred_fps,
            caps: MemoryCaps::new(preferred_fps),
            predictor: Predictor::default(),
        }
    }
}

impl Abr for Hybrid {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let fps = self.caps.update(ctx, self.preferred_fps);
        // The bandwidth lever plans directly on the capped ladder.
        let pred = self.predictor.predict(ctx);
        let pick = lookahead_pick(ctx, fps, pred);
        self.caps.clamp(ctx, pick, fps)
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn state_value(&self) -> serde::Value {
        self.caps
            .state_with("predictor", serde::to_value(&self.predictor))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        self.caps = serde::from_value(state)?;
        self.predictor = serde::from_value(saved_entry(state, "predictor")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::*;
    use mvqoe_kernel::TrimLevel;
    use mvqoe_video::Resolution;

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
