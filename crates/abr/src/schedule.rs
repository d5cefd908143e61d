//! A scripted per-segment schedule — the paper's Fig. 17 switches the
//! encoded frame rate 60 → 24 → 48 mid-session at fixed points.

use crate::context::{Abr, AbrContext};
use mvqoe_video::{Fps, Representation, Resolution};

/// Fixed resolution, scripted frame-rate phases.
#[derive(Debug, Clone)]
pub struct ScheduledFps {
    resolution: Resolution,
    /// `(segments_in_phase, fps)` entries; the last phase extends forever.
    plan: Vec<(u32, Fps)>,
    served: u32,
}

impl ScheduledFps {
    /// Create a schedule at a fixed resolution.
    pub fn new(resolution: Resolution, plan: Vec<(u32, Fps)>) -> ScheduledFps {
        assert!(!plan.is_empty());
        ScheduledFps {
            resolution,
            plan,
            served: 0,
        }
    }

    fn current_fps(&self) -> Fps {
        let mut seen = 0;
        for &(n, fps) in &self.plan {
            seen += n;
            if self.served < seen {
                return fps;
            }
        }
        self.plan.last().unwrap().1
    }
}

impl Abr for ScheduledFps {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let fps = self.current_fps();
        self.served += 1;
        ctx.manifest
            .representation(self.resolution, fps)
            .expect("ladder covers the scheduled cell")
    }

    fn name(&self) -> &'static str {
        "scheduled-fps"
    }

    fn state_value(&self) -> serde::Value {
        serde::to_value(&self.served)
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
        self.served = serde::from_value(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::*;
    use mvqoe_kernel::TrimLevel;

    #[test]
    fn phases_advance_by_segment_count() {
        let m = manifest();
        let mut abr = ScheduledFps::new(
            Resolution::R480p,
            vec![(2, Fps::F60), (2, Fps::F24), (1, Fps::F48)],
        );
        let c = ctx(&m, 30.0, None, TrimLevel::Normal);
        let picks: Vec<u32> = (0..7).map(|_| abr.choose(&c).fps.value()).collect();
        assert_eq!(picks, vec![60, 60, 24, 24, 48, 48, 48]);
    }

    #[test]
    fn resolution_is_fixed() {
        let m = manifest();
        let mut abr = ScheduledFps::new(Resolution::R480p, vec![(1, Fps::F60)]);
        let c = ctx(&m, 30.0, None, TrimLevel::Critical);
        assert_eq!(abr.choose(&c).resolution, Resolution::R480p);
    }
}
