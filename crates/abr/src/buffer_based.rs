//! BBA-style buffer-based adaptation \[27\].
//!
//! Maps buffer occupancy linearly onto the ladder between a reservoir and a
//! cushion: below the reservoir always pick the lowest rung; above the
//! cushion always the highest; in between, interpolate. Pure network/buffer
//! policy — completely blind to memory pressure, which is exactly the gap
//! the paper's §7 calls out.

use crate::context::{Abr, AbrContext};
use mvqoe_video::{Fps, Representation};

/// Below this occupancy (s): lowest rung. With [`CUSHION`], the standard
/// configuration for a 60 s buffer.
const RESERVOIR: f64 = 10.0;

/// Above this occupancy (s): highest rung.
const CUSHION: f64 = 45.0;

/// Buffer-based ABR at a fixed frame rate.
#[derive(Debug, Clone, Copy)]
pub struct BufferBased {
    /// Frame rate whose ladder is used.
    pub fps: Fps,
}

impl BufferBased {
    /// BBA on the ladder at `fps`.
    pub fn new(fps: Fps) -> BufferBased {
        BufferBased { fps }
    }
}

impl Abr for BufferBased {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let ladder = ctx.ladder_at(self.fps);
        assert!(!ladder.is_empty(), "manifest has no rungs at {}", self.fps);
        let occ = ctx.buffer_seconds;
        let idx = if occ <= RESERVOIR {
            0
        } else if occ >= CUSHION {
            ladder.len() - 1
        } else {
            let f = (occ - RESERVOIR) / (CUSHION - RESERVOIR);
            ((ladder.len() - 1) as f64 * f).floor() as usize
        };
        ladder[idx]
    }

    fn name(&self) -> &'static str {
        "buffer-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::*;
    use mvqoe_kernel::TrimLevel;
    use mvqoe_video::Resolution;

    #[test]
    fn empty_buffer_picks_lowest() {
        let m = manifest();
        let mut abr = BufferBased::new(Fps::F30);
        let c = ctx(&m, 2.0, None, TrimLevel::Normal);
        assert_eq!(abr.choose(&c).resolution, Resolution::R240p);
    }

    #[test]
    fn full_buffer_picks_highest() {
        let m = manifest();
        let mut abr = BufferBased::new(Fps::F30);
        let c = ctx(&m, 58.0, None, TrimLevel::Normal);
        assert_eq!(abr.choose(&c).resolution, Resolution::R1440p);
    }

    #[test]
    fn mid_buffer_is_monotone() {
        let m = manifest();
        let mut abr = BufferBased::new(Fps::F30);
        let mut last = 0;
        for occ in [5.0, 15.0, 25.0, 35.0, 50.0] {
            let c = ctx(&m, occ, None, TrimLevel::Normal);
            let b = abr.choose(&c).bitrate_kbps;
            assert!(b >= last, "occupancy {occ}");
            last = b;
        }
    }

    #[test]
    fn ignores_memory_pressure() {
        // The baseline's defining flaw: Critical pressure changes nothing.
        let m = manifest();
        let mut abr = BufferBased::new(Fps::F60);
        let normal = abr.choose(&ctx(&m, 58.0, None, TrimLevel::Normal));
        let critical = abr.choose(&ctx(&m, 58.0, None, TrimLevel::Critical));
        assert_eq!(normal, critical);
    }
}
