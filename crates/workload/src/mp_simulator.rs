//! The MP Simulator: synthetic memory pressure to a target trim level.
//!
//! Reimplements the methodology of \[34\] (which the paper reuses, §4.1):
//! a native app allocates memory until the kernel emits the target pressure
//! signal, then holds the allocation, touching slivers of it the way a live
//! app would. Its heap is ordinary swappable memory — pressure comes from
//! exhausting zRAM capacity, not from pinning. If the system later climbs
//! back below the target (e.g. lmkd kills restore headroom), it resumes
//! allocating: the pressure state is *maintained*, not just reached once.

use mvqoe_device::Machine;
use mvqoe_kernel::{Pages, ProcKind, ProcessId, TrimLevel};
use mvqoe_sched::{SchedClass, ThreadId};
use mvqoe_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The synthetic pressure applicator.
#[derive(Clone, Serialize, Deserialize)]
pub struct MpSimulator {
    pid: ProcessId,
    tid: ThreadId,
    target: TrimLevel,
    allocated: Pages,
    next_alloc: SimTime,
    /// Pause allocating briefly after reaching the target to avoid
    /// overshooting while kills propagate.
    settled_until: SimTime,
}

impl MpSimulator {
    /// Allocation chunk per step while applying pressure.
    const CHUNK: Pages = Pages::from_mib(2);
    /// Interval between allocation chunks.
    const INTERVAL: SimDuration = SimDuration::from_millis(40);

    /// Install the simulator app on a machine with a pressure target.
    ///
    /// The app registers as Persistent (like the real MP Simulator, which
    /// requires root and shields itself from lmkd).
    pub fn install(m: &mut Machine, target: TrimLevel) -> MpSimulator {
        let (pid, _) = m.add_process(
            "mp_simulator",
            ProcKind::Persistent,
            Pages::from_mib(20),
            Pages::from_mib(10),
            Pages::from_mib(8),
            0.2,
        );
        // Its heap is ordinary Java-heap memory: reclaim may compress it
        // into zRAM (the real MP Simulator's allocations are swappable too
        // — pressure comes from exhausting zRAM capacity, not from pinning).
        // Keep a modest hot floor: the app touches its most recent pages.
        m.mm.set_floor(pid, Pages::from_mib(40), Pages::ZERO);
        let tid = m.add_thread(pid, "mp_simulator", SchedClass::NORMAL);
        MpSimulator {
            pid,
            tid,
            target,
            allocated: Pages::ZERO,
            next_alloc: SimTime::ZERO,
            settled_until: SimTime::ZERO,
        }
    }

    /// The simulator's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Total pages allocated so far.
    pub fn allocated(&self) -> Pages {
        self.allocated
    }

    /// True once the device currently sits at (or beyond) the target level.
    pub fn at_target(&self, m: &Machine) -> bool {
        m.mm.trim_level() >= self.target
    }

    /// The next instant [`MpSimulator::drive`] could act, for the
    /// event-driven skip: before that, every call is a provable no-op. At
    /// the target the holder sleeps until `settled_until`; below it the
    /// allocator sleeps until `next_alloc`. A `Normal` target never acts.
    pub fn next_wakeup(&self) -> SimTime {
        if self.target == TrimLevel::Normal {
            return SimTime::MAX;
        }
        self.next_alloc.max(self.settled_until)
    }

    /// Drive the simulator; call once per machine step (before or after
    /// `machine.step()`).
    pub fn drive(&mut self, m: &mut Machine) {
        if self.target == TrimLevel::Normal {
            return;
        }
        let now = m.now();
        if now < self.next_alloc || now < self.settled_until {
            return;
        }
        if self.at_target(m) {
            // Hold; re-check shortly, touching a sliver of the heap the way
            // a live app would (churns swapped pages back in).
            self.settled_until = now + SimDuration::from_millis(250);
            m.touch_anon_for(self.tid, self.pid, self.allocated.mul_f64(0.02));
            return;
        }
        let out = m.alloc_for(self.tid, self.pid, Self::CHUNK);
        self.allocated += out.granted;
        self.next_alloc = now + Self::INTERVAL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_device::DeviceProfile;
    use mvqoe_sim::SimRng;

    fn run_to_target(target: TrimLevel, max_secs: u64) -> (Machine, MpSimulator, bool) {
        let mut rng = SimRng::new(5);
        let mut m = Machine::new(DeviceProfile::nokia1(), &mut rng);
        let mut mp = MpSimulator::install(&mut m, target);
        let steps = max_secs * 1000;
        let mut reached = false;
        for _ in 0..steps {
            mp.drive(&mut m);
            m.step();
            if mp.at_target(&m) {
                reached = true;
                break;
            }
        }
        (m, mp, reached)
    }

    #[test]
    fn reaches_moderate_on_nokia1() {
        let (m, mp, reached) = run_to_target(TrimLevel::Moderate, 120);
        assert!(reached, "must reach Moderate within 2 simulated minutes");
        assert!(m.mm.trim_level() >= TrimLevel::Moderate);
        assert!(mp.allocated() > Pages::from_mib(50), "needed real allocation");
        // Pressure came via lmkd kills of cached apps.
        assert!(m.mm.vmstat().lmkd_kills >= 2);
    }

    #[test]
    fn reaches_critical_on_nokia1() {
        let (m, _, reached) = run_to_target(TrimLevel::Critical, 240);
        assert!(reached, "must reach Critical within 4 simulated minutes");
        assert!(m.mm.trim_level() >= TrimLevel::Critical);
    }

    #[test]
    fn normal_target_is_a_noop() {
        let mut rng = SimRng::new(5);
        let mut m = Machine::new(DeviceProfile::nokia1(), &mut rng);
        let mut mp = MpSimulator::install(&mut m, TrimLevel::Normal);
        for _ in 0..2_000 {
            mp.drive(&mut m);
            m.step();
        }
        assert_eq!(mp.allocated(), Pages::ZERO);
        assert_eq!(m.mm.trim_level(), TrimLevel::Normal);
    }

    #[test]
    fn holds_rather_than_overshooting() {
        let (mut m, mut mp, reached) = run_to_target(TrimLevel::Moderate, 120);
        assert!(reached);
        let alloc_at_target = mp.allocated();
        // Keep driving for 10 simulated seconds: allocation should barely
        // grow while the state holds at or above Moderate.
        for _ in 0..10_000 {
            mp.drive(&mut m);
            m.step();
        }
        assert!(
            mp.allocated() < alloc_at_target + Pages::from_mib(30),
            "holding phase must not balloon: {} → {}",
            alloc_at_target,
            mp.allocated()
        );
    }
}
