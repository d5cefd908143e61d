//! MPC-style lookahead adaptation (RobustMPC flavor, after Yin et al.,
//! SIGCOMM '15).
//!
//! Instead of reacting to the last sample, [`Mpc`] plans: for every rung
//! on the ladder it simulates the buffer over the next `HORIZON` segments
//! — manifest-declared segment sizes ([`AbrContext::upcoming_segment_bytes`])
//! divided by a robust bandwidth prediction — and commits to the rung
//! maximizing expected QoE (log-bitrate utility minus rebuffer and switch
//! penalties). The prediction starts from the context's shared
//! conservative estimate and is further discounted by the worst relative
//! prediction error observed recently, so a bursty link (handovers,
//! tunnels) earns a wider safety margin.

use crate::context::{saved_entry, Abr, AbrContext};
use mvqoe_video::{Fps, Representation};
use serde::{Deserialize, Serialize};

/// How many past prediction errors the robust discount remembers.
const ERROR_WINDOW: usize = 5;

/// Segments of lookahead.
const HORIZON: u32 = 5;

/// Utility units charged per second of predicted rebuffering.
const REBUFFER_PENALTY: f64 = 8.0;

/// Utility units charged per unit of log-bitrate switch distance.
const SWITCH_PENALTY: f64 = 1.0;

/// The robust throughput predictor: the context's shared estimate divided
/// by (1 + max recent relative error).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct Predictor {
    past_errors: Vec<f64>,
    last_prediction: Option<f64>,
}

impl Predictor {
    /// Fold in the newest estimate and return the discounted prediction.
    pub(crate) fn predict(&mut self, ctx: &AbrContext<'_>) -> Option<f64> {
        let est = ctx.predicted_throughput_mbps()?;
        if let Some(pred) = self.last_prediction {
            let err = (pred - est).abs() / est.max(1e-6);
            if self.past_errors.len() == ERROR_WINDOW {
                self.past_errors.remove(0);
            }
            self.past_errors.push(err);
        }
        let max_err = self.past_errors.iter().fold(0.0f64, |a, &e| a.max(e));
        let pred = est / (1.0 + max_err);
        self.last_prediction = Some(pred);
        Some(pred)
    }
}

/// Expected QoE of streaming the next segments at `rep`, under a constant
/// bandwidth prediction: per-segment log-bitrate utility, minus the
/// rebuffering the buffer simulation predicts, minus a switch penalty
/// against the previous segment's bitrate.
fn plan_score(ctx: &AbrContext<'_>, rep: Representation, pred_mbps: f64) -> f64 {
    let n = HORIZON.min(ctx.segments_remaining()).max(1);
    let seg_secs = ctx.segment_seconds();
    let seg_bits = ctx.upcoming_segment_bytes(rep, 1) as f64 * 8.0;
    let dl_secs = seg_bits / (pred_mbps.max(1e-3) * 1e6);
    let min_kbps = ctx
        .ladder_at(rep.fps)
        .first()
        .map(|r| r.bitrate_kbps)
        .unwrap_or(rep.bitrate_kbps) as f64;
    let utility = (rep.bitrate_kbps as f64 / min_kbps).ln();
    let mut buffer = ctx.buffer_seconds;
    let mut rebuffer = 0.0;
    for _ in 0..n {
        if dl_secs > buffer {
            rebuffer += dl_secs - buffer;
            buffer = 0.0;
        } else {
            buffer -= dl_secs;
        }
        buffer = (buffer + seg_secs).min(ctx.buffer_capacity);
    }
    let switch_cost = match ctx.last {
        Some(last) => {
            let prev = (last.bitrate_kbps as f64 / min_kbps).max(1e-6).ln();
            (utility - prev).abs()
        }
        None => 0.0,
    };
    f64::from(n) * utility - REBUFFER_PENALTY * rebuffer - SWITCH_PENALTY * switch_cost
}

/// Pick the ladder rung at `fps` with the best lookahead score (ties go to
/// the lower bitrate). Shared by [`Mpc`] and the hybrid controller.
pub(crate) fn lookahead_pick(
    ctx: &AbrContext<'_>,
    fps: Fps,
    pred_mbps: Option<f64>,
) -> Representation {
    let lowest = ctx.lowest(fps).expect("manifest has no rungs at this fps");
    let Some(pred) = pred_mbps else {
        return lowest; // conservative first segment
    };
    let mut best = lowest;
    let mut best_score = f64::NEG_INFINITY;
    for rep in ctx.ladder_at(fps) {
        let score = plan_score(ctx, rep, pred);
        if score > best_score {
            best_score = score;
            best = rep;
        }
    }
    best
}

/// Lookahead ABR at a fixed frame rate.
#[derive(Debug, Clone)]
pub struct Mpc {
    /// Frame rate whose ladder is used.
    pub fps: Fps,
    predictor: Predictor,
}

impl Mpc {
    /// A 5-segment horizon with rebuffer-dominant penalties.
    pub fn new(fps: Fps) -> Mpc {
        Mpc {
            fps,
            predictor: Predictor::default(),
        }
    }
}

impl Abr for Mpc {
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Representation {
        let pred = self.predictor.predict(ctx);
        lookahead_pick(ctx, self.fps, pred)
    }

    fn name(&self) -> &'static str {
        "mpc"
    }

    fn state_value(&self) -> serde::Value {
        serde::Value::Map(vec![("predictor".into(), serde::to_value(&self.predictor))])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::de::Error> {
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
    fn first_segment_is_conservative() {
        let m = manifest();
        let mut abr = Mpc::new(Fps::F30);
        let c = ctx(&m, 0.0, None, TrimLevel::Normal);
        assert_eq!(abr.choose(&c).resolution, Resolution::R240p);
    }

    #[test]
    fn ample_bandwidth_and_buffer_reach_the_top_rung() {
        let m = manifest();
        let mut abr = Mpc::new(Fps::F30);
        let c = ctx(&m, 50.0, Some(200.0), TrimLevel::Normal);
        assert_eq!(abr.choose(&c).resolution, Resolution::R1440p);
    }

    #[test]
    fn thin_buffer_holds_the_bitrate_down() {
        let m = manifest();
        // 9 Mbit/s estimate: the one-step throughput rule commits to
        // 1080p30 (8 Mbit/s ≤ 0.9 × 9), but with a nearly empty buffer the
        // lookahead sees the rebuffer risk and picks a lower rung.
        let c = ctx(&m, 0.5, Some(9.0), TrimLevel::Normal);
        let greedy = c
            .best_under_rate(Fps::F30, c.predicted_throughput_mbps().unwrap())
            .unwrap();
        assert_eq!(greedy.resolution, Resolution::R1080p);
        let mut abr = Mpc::new(Fps::F30);
        let planned = abr.choose(&c);
        assert!(
            planned.bitrate_kbps < greedy.bitrate_kbps,
            "lookahead must hedge on a thin buffer: {} vs {}",
            planned.bitrate_kbps,
            greedy.bitrate_kbps
        );
    }

    #[test]
    fn volatile_estimates_widen_the_safety_margin() {
        let m = manifest();
        let mut abr = Mpc::new(Fps::F30);
        // Feed a stable 10 Mbit/s history, then the same after a crash to
        // 2 Mbit/s and back: the post-volatility pick must be no higher.
        for _ in 0..3 {
            abr.choose(&ctx(&m, 40.0, Some(10.0), TrimLevel::Normal));
        }
        let stable = abr.choose(&ctx(&m, 40.0, Some(10.0), TrimLevel::Normal));
        let mut abr = Mpc::new(Fps::F30);
        for t in [10.0, 2.0, 10.0] {
            abr.choose(&ctx(&m, 40.0, Some(t), TrimLevel::Normal));
        }
        let volatile = abr.choose(&ctx(&m, 40.0, Some(10.0), TrimLevel::Normal));
        assert!(
            volatile.bitrate_kbps <= stable.bitrate_kbps,
            "volatility must not raise the pick"
        );
        assert!(
            volatile.bitrate_kbps < stable.bitrate_kbps,
            "a 5× swing should measurably discount the prediction"
        );
    }

    #[test]
    fn snapshot_round_trip_restores_decisions() {
        let m = manifest();
        let mut original = Mpc::new(Fps::F60);
        // Drive through a volatile spell to build predictor state.
        for t in [20.0, 4.0, 15.0, 6.0] {
            original.choose(&ctx(&m, 25.0, Some(t), TrimLevel::Normal));
        }
        let state = original.state_value();
        let mut restored = Mpc::new(Fps::F60);
        restored.restore_state(&state).unwrap();
        // Identical decisions on an identical context sequence.
        for t in [12.0, 3.0, 30.0, 8.0] {
            let c = ctx(&m, 18.0, Some(t), TrimLevel::Normal);
            assert_eq!(original.choose(&c), restored.choose(&c));
        }
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut abr = Mpc::new(Fps::F30);
        assert!(abr.restore_state(&serde::Value::Null).is_err());
    }
}
