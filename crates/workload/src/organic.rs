//! Organic memory pressure: real background applications.
//!
//! §4.3's organic experiment opens 8 top-free (non-game) apps before the
//! video; §5's Fig. 15 shows the resulting dynamics — processes keep
//! getting killed throughout the session while the system restarts
//! services, so pressure persists instead of resolving.
//!
//! Apps are opened the way a user opens them: one at a time, each spending
//! a few seconds *foreground and hot* (its working set pinned by use)
//! before being backgrounded — which is exactly what forces the kernel to
//! squeeze the previous apps and ultimately lmkd to start killing.

use crate::catalog::{top_free_no_games, AppSpec};
use mvqoe_device::Machine;
use mvqoe_kernel::{ProcKind, ProcessId};
use mvqoe_sched::{SchedClass, ThreadId};
use mvqoe_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Serialize, Deserialize)]
struct BgApp {
    pid: ProcessId,
    tid: ThreadId,
    spec: AppSpec,
    respawn_at: Option<SimTime>,
    generation: u32,
}

/// A population of opened-then-backgrounded apps.
#[derive(Clone, Serialize, Deserialize)]
pub struct BackgroundApps {
    apps: Vec<BgApp>,
    /// Specs not yet opened.
    to_open: Vec<AppSpec>,
    open_next_at: SimTime,
    /// The app currently foreground, and when it gets backgrounded.
    foreground: Option<(usize, SimTime)>,
    rng: SimRng,
    next_activity: SimTime,
    respawns: u64,
}

impl BackgroundApps {
    /// Dwell time while each app is opened and used.
    const FOREGROUND_DWELL: SimDuration = SimDuration::from_secs(3);

    /// Prepare `n` top-free apps (no games). They are opened one at a time
    /// by [`BackgroundApps::drive`]; call [`BackgroundApps::open_all`] to
    /// run the machine until the whole sequence has completed.
    pub fn open(m: &mut Machine, n: usize, rng: &SimRng) -> BackgroundApps {
        let mut rng = rng.split("organic");
        let mut to_open = top_free_no_games(n, m.profile().ram_mib, &mut rng);
        to_open.reverse(); // pop() opens them in catalog order
        BackgroundApps {
            apps: Vec::new(),
            to_open,
            open_next_at: m.now(),
            foreground: None,
            rng,
            next_activity: m.now(),
            respawns: 0,
        }
    }

    /// Step the machine until every app has been opened and backgrounded.
    /// Uses the event-driven skip across the idle stretches of each dwell;
    /// byte-identical to dense stepping.
    pub fn open_all(&mut self, m: &mut Machine) {
        while !self.to_open.is_empty() || self.foreground.is_some() {
            self.drive(m);
            m.advance_until(self.next_wakeup(m));
            m.step();
        }
    }

    /// Dense twin of [`BackgroundApps::open_all`]: one step per tick, no
    /// skipping. For bisecting skip-oracle regressions.
    pub fn open_all_dense(&mut self, m: &mut Machine) {
        while !self.to_open.is_empty() || self.foreground.is_some() {
            self.drive(m);
            m.step();
        }
    }

    /// The next instant [`BackgroundApps::drive`] could act, for the
    /// event-driven skip. Valid when computed *after* a `drive` call (so
    /// every dead app already has its respawn scheduled); conservative
    /// (never later than the true next action, possibly earlier).
    pub fn next_wakeup(&self, m: &Machine) -> SimTime {
        // The activity timer always re-arms, even when nothing is touched.
        let mut wake = self.next_activity;
        if let Some((_, until)) = self.foreground {
            wake = wake.min(until);
        }
        if !self.to_open.is_empty() {
            wake = wake.min(self.open_next_at);
        }
        for app in &self.apps {
            match app.respawn_at {
                Some(at) => wake = wake.min(at),
                // A dead app whose respawn is not yet scheduled acts on the
                // very next drive — forbid any skip.
                None if m.mm.proc(app.pid).dead => return m.now(),
                None => {}
            }
        }
        wake
    }

    /// Apps opened so far (alive or dead).
    pub fn opened(&self) -> usize {
        self.apps.len()
    }

    /// Total times a killed app's service restarted.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Drive the population; call once per machine step.
    pub fn drive(&mut self, m: &mut Machine) {
        let now = m.now();

        // Background the current foreground app when its dwell ends.
        if let Some((idx, until)) = self.foreground {
            if now >= until {
                let app = &self.apps[idx];
                if !m.mm.proc(app.pid).dead {
                    m.mm.set_kind(now, app.pid, ProcKind::Cached);
                    // Cached apps keep a modest hot core.
                    m.mm.set_floor(
                        app.pid,
                        app.spec.anon.mul_f64(0.15),
                        app.spec.file_resident.mul_f64(0.2),
                    );
                }
                self.foreground = None;
            }
        }

        // Open the next app.
        if self.foreground.is_none() && now >= self.open_next_at {
            if let Some(spec) = self.to_open.pop() {
                let i = self.apps.len();
                let (pid, _) = m.add_process(
                    &format!("org.app{i}"),
                    ProcKind::Foreground,
                    spec.anon,
                    spec.file_ws,
                    spec.file_resident,
                    0.45,
                );
                // While in use, most of the app's working set is hot.
                m.mm
                    .set_floor(pid, spec.anon.mul_f64(0.6), spec.file_resident.mul_f64(0.5));
                let tid = m.add_thread(pid, &format!("org.app{i}"), SchedClass::NORMAL);
                m.push_work(tid, 40_000.0, 0); // launch CPU burst
                self.apps.push(BgApp {
                    pid,
                    tid,
                    spec,
                    respawn_at: None,
                    generation: 0,
                });
                self.foreground = Some((i, now + Self::FOREGROUND_DWELL));
                self.open_next_at = now + Self::FOREGROUND_DWELL;
            }
        }

        // Periodic background activity: sync jobs and push messages touch
        // pages, swapping compressed pages back in and keeping the system
        // churning.
        if now >= self.next_activity {
            self.next_activity = now + SimDuration::from_millis(250);
            let alive: Vec<usize> = (0..self.apps.len())
                .filter(|&i| !m.mm.proc(self.apps[i].pid).dead)
                .collect();
            if !alive.is_empty() && self.rng.chance(0.65) {
                let i = alive[self.rng.index(alive.len())];
                let app = &self.apps[i];
                let touch = app.spec.anon.mul_f64(self.rng.uniform(0.05, 0.15));
                m.touch_anon_for(app.tid, app.pid, touch);
                m.push_work(app.tid, self.rng.uniform(200.0, 1_500.0), 0);
            }
        }

        // Killed apps get their service restarted by the framework after a
        // delay, as on a real phone; the restart is smaller.
        for i in 0..self.apps.len() {
            if self.foreground.is_some_and(|(fg, _)| fg == i) {
                continue;
            }
            let dead = m.mm.proc(self.apps[i].pid).dead;
            match (dead, self.apps[i].respawn_at) {
                (true, None) => {
                    let delay = SimDuration::from_secs_f64(self.rng.uniform(2.0, 6.0));
                    self.apps[i].respawn_at = Some(now + delay);
                }
                (true, Some(at)) if now >= at => {
                    let generation = self.apps[i].generation + 1;
                    let spec = &self.apps[i].spec;
                    let (pid, _) = m.add_process(
                        &format!("org.app{i}.g{generation}"),
                        ProcKind::Service,
                        spec.anon.mul_f64(0.75),
                        spec.file_ws,
                        spec.file_resident.mul_f64(0.5),
                        0.45,
                    );
                    let tid =
                        m.add_thread(pid, &format!("org.app{i}.g{generation}"), SchedClass::NORMAL);
                    self.apps[i] = BgApp {
                        pid,
                        tid,
                        spec: self.apps[i].spec.clone(),
                        respawn_at: None,
                        generation,
                    };
                    self.respawns += 1;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_device::DeviceProfile;
    use mvqoe_kernel::TrimLevel;

    #[test]
    fn eight_apps_pressure_a_1gb_device() {
        let mut rng = SimRng::new(11);
        let mut m = Machine::new(DeviceProfile::nokia1(), &mut rng);
        let mut bg = BackgroundApps::open(&mut m, 8, &rng);
        bg.open_all(&mut m);
        assert_eq!(bg.opened(), 8);
        // The opening sequence alone must already have forced kills and
        // eaten the free headroom…
        assert!(m.mm.vmstat().lmkd_kills >= 2, "opening 8 apps must churn");
        // …and once the browser-sized foreground app the paper opens next
        // arrives, the device must reach Moderate (the §4.3 organic state).
        let (browser, _) = m.add_process(
            "browser",
            mvqoe_kernel::ProcKind::Foreground,
            mvqoe_kernel::Pages::from_mib(180),
            mvqoe_kernel::Pages::from_mib(150),
            mvqoe_kernel::Pages::from_mib(60),
            0.35,
        );
        m.mm.set_floor(
            browser,
            mvqoe_kernel::Pages::from_mib(120),
            mvqoe_kernel::Pages::from_mib(40),
        );
        let mut reached_pressure = false;
        for _ in 0..60_000 {
            bg.drive(&mut m);
            m.step();
            if m.mm.trim_level() >= TrimLevel::Moderate {
                reached_pressure = true;
                break;
            }
        }
        assert!(
            reached_pressure,
            "8 organic apps + browser must pressure a 1 GB device (level {:?}, free {}, kills {})",
            m.mm.trim_level(),
            m.mm.free(),
            m.mm.vmstat().lmkd_kills
        );
    }

    #[test]
    fn killed_apps_respawn_as_services() {
        let mut rng = SimRng::new(12);
        let mut m = Machine::new(DeviceProfile::nokia1(), &mut rng);
        let mut bg = BackgroundApps::open(&mut m, 8, &rng);
        bg.open_all(&mut m);
        for _ in 0..120_000 {
            bg.drive(&mut m);
            m.step();
            if bg.respawns() >= 2 {
                break;
            }
        }
        assert!(
            bg.respawns() >= 1,
            "framework must restart killed services (kills {})",
            m.mm.vmstat().lmkd_kills
        );
    }

    #[test]
    fn two_gb_device_keeps_more_relative_headroom() {
        let run = |profile: DeviceProfile| {
            let mut rng = SimRng::new(13);
            let mut m = Machine::new(profile, &mut rng);
            let mut bg = BackgroundApps::open(&mut m, 8, &rng);
            bg.open_all(&mut m);
            let mut pressure_ms = 0u64;
            for _ in 0..30_000 {
                bg.drive(&mut m);
                m.step();
                if m.mm.trim_level() >= TrimLevel::Moderate {
                    pressure_ms += 1;
                }
            }
            let avail_frac =
                m.mm.available().count() as f64 / m.mm.config().total.count() as f64;
            (pressure_ms, avail_frac)
        };
        let (pressure_1gb, avail_1gb) = run(DeviceProfile::nokia1());
        let (pressure_2gb, avail_2gb) = run(DeviceProfile::nexus5());
        assert!(
            pressure_1gb >= pressure_2gb || avail_1gb < avail_2gb,
            "1 GB (pressure {pressure_1gb} ms, avail {avail_1gb:.2}) must fare no better \
             than 2 GB (pressure {pressure_2gb} ms, avail {avail_2gb:.2})"
        );
    }
}
