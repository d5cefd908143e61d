//! Pressure-application phase: reach the target memory state before the
//! video starts, exactly as §4.1 prescribes ("we start the video streaming
//! session after the targeted memory pressure signal is received").

use mvqoe_device::Machine;
use mvqoe_kernel::TrimLevel;
use mvqoe_sim::{SimDuration, SimRng, SimTime};
use mvqoe_workload::{BackgroundApps, MpSimulator};
use serde::{Deserialize, Serialize};

/// How memory pressure is induced for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PressureMode {
    /// No pressure: the Normal baseline.
    None,
    /// The MP Simulator allocates until the given level is signalled, then
    /// holds it for the whole session.
    Synthetic(TrimLevel),
    /// Open this many top-free apps before the video (the organic §4.3
    /// methodology). Pressure then evolves naturally.
    Organic(usize),
}

impl PressureMode {
    /// The trim level this mode targets (for labelling experiment cells).
    pub fn label(&self) -> String {
        match self {
            PressureMode::None => "Normal".into(),
            PressureMode::Synthetic(l) => l.to_string(),
            PressureMode::Organic(n) => format!("Organic({n})"),
        }
    }
}

/// Live pressure state carried through a session.
#[derive(Clone, Serialize, Deserialize)]
pub enum PressureDriver {
    /// Nothing to drive.
    None,
    /// Synthetic holder.
    Synthetic(MpSimulator),
    /// Organic background population.
    Organic(BackgroundApps),
}

impl PressureDriver {
    /// Apply the mode on a fresh machine: run until the target state is
    /// reached (bounded), returning the driver to keep stepping during the
    /// video. `dense` disables the event-driven skip (for bisecting); the
    /// outputs are byte-identical either way.
    pub fn apply(mode: PressureMode, m: &mut Machine, rng: &SimRng, dense: bool) -> PressureDriver {
        match mode {
            PressureMode::None => PressureDriver::None,
            PressureMode::Synthetic(level) => {
                let mut mp = MpSimulator::install(m, level);
                // Bounded ramp: the paper's app reaches its target within
                // minutes on real devices (5 simulated minutes here; with
                // 1 ms ticks this bound is the dense loop's 300k steps).
                let ramp_end = m.now() + SimDuration::from_secs(300);
                while m.now() < ramp_end {
                    mp.drive(m);
                    if !dense {
                        m.advance_until(mp.next_wakeup().min(ramp_end));
                    }
                    m.step();
                    if mp.at_target(m) {
                        break;
                    }
                }
                // Let kills/writeback settle briefly.
                if dense {
                    m.run_idle_dense(SimDuration::from_secs(2));
                } else {
                    m.run_idle(SimDuration::from_secs(2));
                }
                PressureDriver::Synthetic(mp)
            }
            PressureMode::Organic(n) => {
                // The user opens the apps one at a time, then switches to
                // the browser; give the system a few seconds to settle.
                let mut bg = BackgroundApps::open(m, n, rng);
                if dense {
                    bg.open_all_dense(m);
                } else {
                    bg.open_all(m);
                }
                let settle_end = m.now() + SimDuration::from_secs(8);
                while m.now() < settle_end {
                    bg.drive(m);
                    if !dense {
                        m.advance_until(bg.next_wakeup(m).min(settle_end));
                    }
                    m.step();
                }
                PressureDriver::Organic(bg)
            }
        }
    }

    /// Keep the pressure source alive during the video.
    pub fn drive(&mut self, m: &mut Machine) {
        match self {
            PressureDriver::None => {}
            PressureDriver::Synthetic(mp) => mp.drive(m),
            PressureDriver::Organic(bg) => bg.drive(m),
        }
    }

    /// The next instant this driver could act, for folding into the
    /// session's skip horizon. Valid when computed after a `drive` call.
    pub fn next_wakeup(&self, m: &Machine) -> SimTime {
        match self {
            PressureDriver::None => SimTime::MAX,
            PressureDriver::Synthetic(mp) => mp.next_wakeup(),
            PressureDriver::Organic(bg) => bg.next_wakeup(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_device::DeviceProfile;

    #[test]
    fn labels() {
        assert_eq!(PressureMode::None.label(), "Normal");
        assert_eq!(
            PressureMode::Synthetic(TrimLevel::Critical).label(),
            "Critical"
        );
        assert_eq!(PressureMode::Organic(8).label(), "Organic(8)");
    }

    #[test]
    fn synthetic_apply_reaches_target() {
        let mut rng = SimRng::new(31);
        let mut m = Machine::new(DeviceProfile::nokia1(), &mut rng);
        let driver =
            PressureDriver::apply(PressureMode::Synthetic(TrimLevel::Moderate), &mut m, &rng, false);
        assert!(m.mm.trim_level() >= TrimLevel::Moderate);
        match driver {
            PressureDriver::Synthetic(mp) => assert!(mp.at_target(&m)),
            _ => panic!("wrong driver"),
        }
    }

    #[test]
    fn none_apply_leaves_machine_normal() {
        let mut rng = SimRng::new(32);
        let mut m = Machine::new(DeviceProfile::nexus5(), &mut rng);
        let _driver = PressureDriver::apply(PressureMode::None, &mut m, &rng, false);
        assert_eq!(m.mm.trim_level(), TrimLevel::Normal);
    }
}
