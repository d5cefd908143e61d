//! BOLA: Lyapunov-drift-plus-penalty bitrate adaptation \[35\].
//!
//! BOLA-BASIC: for buffer level `Q` (in segments) pick the rung `m`
//! maximizing `(V·(v_m + γ·p) − Q) / S_m`, where `v_m = ln(S_m / S_min)` is
//! the utility of rung `m`, `S_m` its segment size, `p` the segment
//! duration, and `V`, `γ` control the buffer/utility trade-off. Network-only
//! — no device awareness — used as the strongest classic baseline in the
//! ABR ablation.

use crate::context::{Abr, AbrContext};
use mvqoe_video::{Fps, Representation};

/// Lyapunov control parameter `V` (bigger = favor utility over buffer).
/// With [`GAMMA_P`] it is tuned for a 60 s buffer of 4 s segments: the
/// knee sits around half occupancy.
const V: f64 = 2.0;

/// Rebuffer-aversion weight `γ·p`.
const GAMMA_P: f64 = 5.0;

/// BOLA-BASIC at a fixed frame rate.
#[derive(Debug, Clone, Copy)]
pub struct Bola {
    /// Frame rate whose ladder is used.
    pub fps: Fps,
}

impl Bola {
    /// BOLA on the ladder at `fps`.
    pub fn new(fps: Fps) -> Bola {
        Bola { fps }
    }
}

impl Abr for Bola {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let ladder = ctx.ladder_at(self.fps);
        assert!(!ladder.is_empty(), "manifest has no rungs at {}", self.fps);
        let seg_s = ctx.manifest.segment_seconds;
        let q_segments = ctx.buffer_seconds / seg_s;
        let s_min = ladder[0].bitrate_kbps as f64;
        let mut best = ladder[0];
        let mut best_score = f64::NEG_INFINITY;
        for rep in ladder {
            let s_m = rep.bitrate_kbps as f64;
            let utility = (s_m / s_min).ln();
            let score = (V * (utility + GAMMA_P) - q_segments) / s_m;
            if score > best_score {
                best_score = score;
                best = rep;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "bola"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::*;
    use mvqoe_kernel::TrimLevel;
    use mvqoe_video::Resolution;

    #[test]
    fn low_buffer_picks_low_rung() {
        let m = manifest();
        let mut abr = Bola::new(Fps::F30);
        let c = ctx(&m, 0.0, None, TrimLevel::Normal);
        assert_eq!(abr.choose(&c).resolution, Resolution::R240p);
    }

    #[test]
    fn quality_is_monotone_in_buffer() {
        let m = manifest();
        let mut abr = Bola::new(Fps::F30);
        let mut last = 0;
        for occ in [0.0, 8.0, 16.0, 24.0, 36.0, 48.0, 60.0] {
            let c = ctx(&m, occ, None, TrimLevel::Normal);
            let b = abr.choose(&c).bitrate_kbps;
            assert!(b >= last, "occ {occ}: {b} < {last}");
            last = b;
        }
    }

    #[test]
    fn full_buffer_reaches_a_high_rung() {
        let m = manifest();
        let mut abr = Bola::new(Fps::F30);
        let c = ctx(&m, 58.0, None, TrimLevel::Normal);
        assert!(abr.choose(&c).resolution >= Resolution::R1080p);
    }

    #[test]
    fn ignores_memory_pressure() {
        let m = manifest();
        let mut abr = Bola::new(Fps::F60);
        let a = abr.choose(&ctx(&m, 40.0, None, TrimLevel::Normal));
        let b = abr.choose(&ctx(&m, 40.0, None, TrimLevel::Critical));
        assert_eq!(a, b);
    }
}
