//! The fleet usage model behind the §3 user study.
//!
//! Each [`FleetUser`] owns a generated device (a coarse-stepped
//! `MemoryManager`, no scheduler — daemon CPU contention is irrelevant at
//! day scale) and a self-reported [`UsagePattern`] matching the paper's
//! Fig. 1 survey: a young, university-heavy population for whom video
//! streaming is the most frequent activity, music second, and multitasking
//! with 2+ background apps common.
//!
//! A user's simulated day alternates screen-on sessions and idle periods;
//! while interactive they launch apps (weighted by their pattern), the
//! foreground app grows, backgrounded apps pile into the cached LRU, and
//! the kernel responds — generating exactly the signal streams
//! `SignalCapturer` logged at 1 Hz.

use crate::catalog::{sample_app, AppCategory};
use mvqoe_device::DeviceProfile;
use mvqoe_kernel::coarse::{coarse_step_into, CoarseOutcome};
use mvqoe_kernel::manager::KillSource;
use mvqoe_kernel::{MemoryManager, Pages, ProcKind, ProcName, ProcessId, TrimLevel};
use mvqoe_metrics::selfprof;
use mvqoe_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Self-reported usage frequencies on the survey's 1–5 scale, plus derived
/// behavioural rates.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UsagePattern {
    /// "How often do you play games?" (1–5).
    pub games: f64,
    /// "How often do you listen to music?" (1–5).
    pub music: f64,
    /// "How often do you stream videos?" (1–5).
    pub videos: f64,
    /// "How often do you multitask with >1 app in the background?" (1–5).
    pub multitask_1: f64,
    /// "… with >2 apps?" (1–5).
    pub multitask_2: f64,
    /// Fraction of the day the screen is on.
    pub interactive_frac: f64,
}

impl UsagePattern {
    /// Sample a pattern for the paper's population (81% under 25,
    /// university students/staff): video is the top activity, music next,
    /// games third; multitasking is common.
    pub fn sample(rng: &mut SimRng) -> UsagePattern {
        let clamp = |x: f64| x.clamp(1.0, 5.0);
        let multitask_1 = clamp(rng.normal(4.0, 0.8));
        UsagePattern {
            games: clamp(rng.normal(2.4, 1.1)),
            music: clamp(rng.normal(3.6, 1.0)),
            videos: clamp(rng.normal(4.2, 0.7)),
            multitask_1,
            multitask_2: clamp(multitask_1 - rng.uniform(0.2, 1.0)),
            interactive_frac: rng.uniform(0.12, 0.38),
        }
    }

    /// App-launch category weights induced by the pattern. A fixed array:
    /// launches sit on the per-second path and must not allocate.
    fn category_weights(&self) -> [(AppCategory, f64); 8] {
        [
            (AppCategory::Video, self.videos),
            (AppCategory::Music, self.music * 0.7),
            (AppCategory::Game, self.games * 0.8),
            (AppCategory::Social, 3.5),
            (AppCategory::Chat, 3.8),
            (AppCategory::Browser, 2.2),
            (AppCategory::Camera, 1.0),
            (AppCategory::Utility, 1.2),
        ]
    }
}

/// One 1 Hz sample, as `SignalCapturer` records (§3).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FleetSample {
    /// Sample time.
    pub at: SimTime,
    /// Available memory (free + cached) in MiB.
    pub available_mib: f64,
    /// RAM utilization percent.
    pub utilization_pct: f64,
    /// Current trim level.
    pub trim: TrimLevel,
    /// Whether the screen was on.
    pub interactive: bool,
    /// Number of running service/cached processes.
    pub n_services: u32,
}

impl FleetSample {
    /// Whether `other` records the same device state as `self`: every
    /// field but the timestamp equal bit for bit. A run of such samples
    /// folds the same as one sample recorded that many times, because a
    /// fold never reads `at`.
    pub fn same_state(&self, other: &FleetSample) -> bool {
        self.available_mib.to_bits() == other.available_mib.to_bits()
            && self.utilization_pct.to_bits() == other.utilization_pct.to_bits()
            && self.trim == other.trim
            && self.interactive == other.interactive
            && self.n_services == other.n_services
    }
}

struct StandingApp {
    size_mib: u64,
    pid: ProcessId,
    respawn_at: Option<SimTime>,
}

struct ForegroundApp {
    pid: ProcessId,
    category: AppCategory,
    opened_at: SimTime,
    leave_at: SimTime,
    base_anon: Pages,
}

/// One user's device being lived on.
pub struct FleetUser {
    /// The generated device.
    pub device: DeviceProfile,
    /// The usage pattern driving behaviour.
    pub pattern: UsagePattern,
    mm: MemoryManager,
    rng: SimRng,
    foreground: Option<ForegroundApp>,
    standing: Vec<StandingApp>,
    interactive: bool,
    toggle_at: SimTime,
    launch_at: SimTime,
    kills_observed: u64,
    /// Reused outcome buffer for the 1 Hz `coarse_step_into` calls.
    coarse_out: CoarseOutcome,
    /// Reused scratch for cached-process candidate lists.
    cached_scratch: Vec<ProcessId>,
    /// Earliest standing-app respawn deadline ([`SimTime::MAX`] when none
    /// is pending): the standing scan is skipped until it is due.
    standing_due: SimTime,
    /// A kill happened since the last standing scan, so a standing app may
    /// be dead without a respawn deadline yet.
    standing_dirty: bool,
}

/// Interned names for the standing cached population: `fleet_device` caps
/// `n_cached` at 8 + 8192/512 = 24, so every spawn in `FleetUser::new`
/// resolves to a `ProcName::Static` and per-user setup never formats a
/// process name.
const PRE_APP_NAMES: [&str; 24] = [
    "pre.app0", "pre.app1", "pre.app2", "pre.app3", "pre.app4", "pre.app5", "pre.app6",
    "pre.app7", "pre.app8", "pre.app9", "pre.app10", "pre.app11", "pre.app12", "pre.app13",
    "pre.app14", "pre.app15", "pre.app16", "pre.app17", "pre.app18", "pre.app19", "pre.app20",
    "pre.app21", "pre.app22", "pre.app23",
];

/// `"pre.app{i}"` without allocating for the indices the fleet generates.
fn pre_app_name(i: u32) -> ProcName {
    match PRE_APP_NAMES.get(i as usize) {
        Some(name) => ProcName::Static(name),
        None => ProcName::Owned(format!("pre.app{i}")),
    }
}

impl FleetUser {
    /// Create a user with a generated device and sampled pattern.
    pub fn new(idx: u32, root: &SimRng) -> FleetUser {
        // Placeholders only: `renew` draws and sets every field.
        let device = DeviceProfile::unfilled();
        let mut user = FleetUser {
            mm: MemoryManager::new(device.mem.clone()),
            device,
            pattern: UsagePattern::default(),
            rng: root.clone(),
            foreground: None,
            standing: Vec::new(),
            interactive: false,
            toggle_at: SimTime::ZERO,
            launch_at: SimTime::ZERO,
            kills_observed: 0,
            coarse_out: CoarseOutcome::default(),
            cached_scratch: Vec::new(),
            standing_due: SimTime::MAX,
            standing_dirty: false,
        };
        user.renew(idx, root);
        user
    }

    /// Turn this user into user `idx` of the fleet rooted at `root`. Every
    /// draw and every field equals what `FleetUser::new(idx, root)` builds,
    /// but the device strings, the memory manager's arena and the scratch
    /// lists keep their buffers, so a warm user renews without allocating.
    pub fn renew(&mut self, idx: u32, root: &SimRng) {
        self.rng = root.split_u32("fleet-user-", idx);
        self.device.refill_fleet(idx, &mut self.rng);
        self.pattern = UsagePattern::sample(&mut self.rng);
        self.mm.reset(self.device.mem.clone());
        // Nothing ever drains a fleet user's event log; with recording off
        // the kill path also skips materializing victim names, keeping the
        // warm 1 Hz loop allocation-free.
        self.mm.set_record_events(false);
        let (n_cached, mib_each) = self.device.cached_apps;
        let ram_mib = self.device.ram_mib;
        let now = SimTime::ZERO;
        // Size the arena for the standing population up front so the spawn
        // loop below never reallocates it.
        self.mm.reserve_spawns(n_cached as usize + 2);
        // Standing population, as in Machine::new.
        let (sys, _) = self.mm.spawn_sized(
            now,
            "system_server",
            ProcKind::System,
            Pages::from_mib(110 + ram_mib / 20),
            Pages::from_mib(90),
            Pages::from_mib(70),
            0.3,
        );
        self.mm
            .set_floor(sys, Pages::from_mib(80), Pages::from_mib(40));
        self.mm.spawn_sized(
            now,
            "launcher",
            ProcKind::Persistent,
            Pages::from_mib(60 + ram_mib / 40),
            Pages::from_mib(50),
            Pages::from_mib(35),
            0.4,
        );
        self.standing.clear();
        self.standing.reserve(n_cached as usize);
        for i in 0..n_cached {
            let size = (mib_each as f64 * self.rng.uniform(0.6, 1.5)) as u64;
            let (pid, _) = self.mm.spawn_sized(
                now,
                pre_app_name(i),
                ProcKind::Cached,
                Pages::from_mib(size),
                Pages::from_mib(size / 2),
                Pages::from_mib(size / 3),
                0.5,
            );
            self.standing.push(StandingApp {
                size_mib: size,
                pid,
                respawn_at: None,
            });
        }
        self.foreground = None;
        self.interactive = false;
        self.toggle_at = SimTime::ZERO;
        self.launch_at = SimTime::ZERO;
        self.kills_observed = 0;
        self.coarse_out.clear();
        self.cached_scratch.clear();
        self.cached_scratch.reserve(n_cached as usize + 16);
        self.standing_due = SimTime::MAX;
        self.standing_dirty = false;
    }

    /// The memory manager (for assertions and ad-hoc inspection).
    pub fn mm(&self) -> &MemoryManager {
        &self.mm
    }

    /// lmkd kills observed so far.
    pub fn kills_observed(&self) -> u64 {
        self.kills_observed
    }

    /// Pre-size the process arena for `extra` future spawns (see
    /// [`MemoryManager::reserve_spawns`]): with the headroom in place, a
    /// warm stepping window that includes kill/respawn churn performs no
    /// heap allocation at all.
    pub fn reserve_spawns(&mut self, extra: usize) {
        self.mm.reserve_spawns(extra);
    }

    /// Advance one second of this user's life and return the 1 Hz sample.
    pub fn step_1s(&mut self, now: SimTime) -> FleetSample {
        let _prof = selfprof::span(selfprof::Phase::FleetSlowStep);
        // Screen on/off cycle.
        if now >= self.toggle_at {
            self.interactive = !self.interactive;
            if !self.interactive {
                // Screen off: the foreground app backgrounds and sheds;
                // the device gets its chance to recover — which is what
                // makes pressure *episodic* (signals, not a constant state).
                // Heavy multitaskers hoard: their apps barely shed, keeping
                // the device chronically overcommitted (the paper's tail of
                // devices living in Low/Critical).
                let shed_frac = if self.pattern.multitask_2 >= 4.0 { 0.05 } else { 0.35 };
                if let Some(fg) = self.foreground.take() {
                    if !self.mm.proc(fg.pid).dead {
                        self.mm.set_kind(now, fg.pid, ProcKind::Cached);
                        let shed = self.mm.proc(fg.pid).anon_total().mul_f64(shed_frac);
                        self.mm.free_anon(now, fg.pid, shed);
                        self.mm.set_floor(fg.pid, Pages::ZERO, Pages::ZERO);
                    }
                }
            }
            let mean_secs = if self.interactive {
                // Session length scales with overall usage.
                360.0 + 600.0 * self.pattern.interactive_frac
            } else {
                // Idle gap sized to hit the target interactive fraction.
                let on = 360.0 + 600.0 * self.pattern.interactive_frac;
                on * (1.0 - self.pattern.interactive_frac) / self.pattern.interactive_frac
            };
            self.toggle_at = now + SimDuration::from_secs_f64(self.rng.exponential(mean_secs));
            if self.interactive {
                self.launch_at = now + SimDuration::from_secs_f64(self.rng.exponential(20.0));
            }
        }

        if self.interactive {
            self.drive_interactive(now);
        } else if self.rng.chance(0.002) {
            // Rare background sync while idle.
            if let Some(pid) = self.random_cached_pid() {
                self.mm.touch_anon(now, pid, Pages::from_mib(4));
            }
        }

        self.finish_step(now)
    }

    /// True when the next second's step can touch nothing beyond the RNG:
    /// screen off with the toggle in the future, no standing-app
    /// bookkeeping pending, and free memory at the high watermark (the
    /// coarse kernel step is a provable no-op there). The batch stepper
    /// uses this to serve such seconds from its lanes.
    fn quiescent(&self, now: SimTime) -> bool {
        !self.interactive
            && now < self.toggle_at
            && !self.standing_dirty
            && now < self.standing_due
            && self.mm.free() >= self.mm.config().watermark_high
    }

    /// The idle-second background-sync draw, split out so the batch fast
    /// path can roll it without entering the full step.
    fn idle_chance_fires(&mut self) -> bool {
        self.rng.chance(0.002)
    }

    /// Finish an idle second whose background-sync chance already fired
    /// (drawn by the batch fast path).
    fn idle_fired_step(&mut self, now: SimTime) -> FleetSample {
        if let Some(pid) = self.random_cached_pid() {
            self.mm.touch_anon(now, pid, Pages::from_mib(4));
        }
        self.finish_step(now)
    }

    /// Standing-app scan + kernel dynamics + sample: the tail every step
    /// variant shares.
    fn finish_step(&mut self, now: SimTime) -> FleetSample {
        // Preinstalled services respawn after lmkd kills them — Android
        // aggressively re-caches processes (paper §2 fn. 6), which is what
        // refills the LRU and lets the trim level recover between episodes.
        // The scan only has work when a kill happened since the last scan
        // (a standing app may need a respawn deadline) or a deadline is
        // due, so calm seconds skip it.
        if self.standing_dirty || now >= self.standing_due {
            self.standing_scan(now);
        }

        // Kernel dynamics. With free memory at or above the high watermark
        // the coarse step cannot reclaim or kill (and the fleet ignores its
        // pressure estimate), so calm seconds skip it entirely.
        if self.mm.free() < self.mm.config().watermark_high {
            coarse_step_into(
                &mut self.mm,
                now,
                SimDuration::from_secs(1),
                &mut self.coarse_out,
            );
            let kills = self.coarse_out.kills.len() as u64;
            self.kills_observed += kills;
            if kills > 0 {
                // A victim may be a standing app: scan next step.
                self.standing_dirty = true;
            }
            // Remove dead foreground (killed under extreme pressure).
            if let Some(fg) = &self.foreground {
                if self.mm.proc(fg.pid).dead {
                    self.foreground = None;
                }
            }
        }

        FleetSample {
            at: now,
            available_mib: self.mm.available().mib(),
            utilization_pct: self.mm.utilization_pct(),
            trim: self.mm.trim_level(),
            interactive: self.interactive,
            n_services: self.mm.cached_proc_count(),
        }
    }

    /// Walk the standing apps: assign respawn deadlines to the newly dead
    /// and respawn those whose deadline passed. Recomputes the deferral
    /// state (`standing_due`, `standing_dirty`).
    fn standing_scan(&mut self, now: SimTime) {
        self.standing_dirty = false;
        let mut next_due = SimTime::MAX;
        for i in 0..self.standing.len() {
            match self.standing[i].respawn_at {
                Some(at) if now >= at => {
                    let size = self.standing[i].size_mib;
                    let (pid, _) = self.mm.spawn_sized(
                        now,
                        ProcName::AtTime {
                            prefix: "pre.app.r",
                            at: now,
                        },
                        ProcKind::Cached,
                        Pages::from_mib(size * 2 / 3),
                        Pages::from_mib(size / 2),
                        Pages::from_mib(size / 4),
                        0.5,
                    );
                    self.standing[i] = StandingApp {
                        size_mib: size,
                        pid,
                        respawn_at: None,
                    };
                }
                Some(at) => next_due = next_due.min(at),
                None => {
                    if self.mm.proc(self.standing[i].pid).dead {
                        // Hoarders' devices also churn services faster.
                        let delay = if self.pattern.multitask_2 >= 4.0 {
                            self.rng.uniform(8.0, 45.0)
                        } else {
                            self.rng.uniform(20.0, 120.0)
                        };
                        let at = now + SimDuration::from_secs_f64(delay);
                        self.standing[i].respawn_at = Some(at);
                        next_due = next_due.min(at);
                    }
                }
            }
        }
        self.standing_due = next_due;
    }

    fn drive_interactive(&mut self, now: SimTime) {
        // Leave the current app when its dwell ends.
        let leave = self
            .foreground
            .as_ref()
            .is_some_and(|fg| now >= fg.leave_at);
        if leave {
            let fg = self.foreground.take().unwrap();
            // Backgrounded: becomes a cached process; heavy apps shed some
            // memory on trim.
            self.mm.set_kind(now, fg.pid, ProcKind::Cached);
            let shed = self.mm.proc(fg.pid).anon_total().mul_f64(0.25);
            self.mm.free_anon(now, fg.pid, shed);
            self.mm.set_floor(fg.pid, Pages::ZERO, Pages::ZERO);
        }

        // Launch a new app.
        if now >= self.launch_at && self.foreground.is_none() {
            let weights = self.pattern.category_weights();
            let mut ws = [0.0f64; 8];
            for (i, &(_, w)) in weights.iter().enumerate() {
                ws[i] = w;
            }
            let idx = self.rng.weighted_index(&ws);
            let category = weights[idx].0;
            let spec = sample_app(category, self.device.ram_mib, &mut self.rng);
            let (pid, _) = self.mm.spawn_sized(
                now,
                ProcName::AtTime {
                    prefix: category.static_name(),
                    at: now,
                },
                ProcKind::Foreground,
                spec.anon,
                spec.file_ws,
                spec.file_resident,
                0.45,
            );
            // The foreground's working set is hot.
            self.mm
                .set_floor(pid, spec.anon.mul_f64(0.6), spec.file_resident.mul_f64(0.5));
            let dwell = self
                .rng
                .exponential(category.median_session_secs())
                .clamp(15.0, 3600.0);
            self.foreground = Some(ForegroundApp {
                pid,
                category,
                opened_at: now,
                leave_at: now + SimDuration::from_secs_f64(dwell),
                base_anon: spec.anon,
            });
            let gap = 45.0 / (0.5 + self.pattern.multitask_1 / 5.0);
            self.launch_at = now + SimDuration::from_secs_f64(self.rng.exponential(gap).max(8.0));
        } else if now >= self.launch_at && self.foreground.is_some() {
            // Multitask switch: leave earlier than planned.
            if self.rng.chance(self.pattern.multitask_2 / 12.0) {
                if let Some(fg) = &mut self.foreground {
                    fg.leave_at = now;
                }
            }
            self.launch_at = now + SimDuration::from_secs(5);
        }

        // Foreground growth + touching.
        if let Some(fg) = &self.foreground {
            let pid = fg.pid;
            let growth = fg
                .base_anon
                .mul_f64(fg.category.growth_per_min() / 60.0);
            let elapsed = now.saturating_since(fg.opened_at);
            // Feeds keep growing for a long while (endless scroll).
            if elapsed < SimDuration::from_secs(2400) {
                self.mm.alloc_anon(now, pid, growth.mul_f64(2.0));
            }
            self.mm.touch_anon(now, pid, fg.base_anon.mul_f64(0.05));
        }

        // Kill housekeeping: dead cached procs disappear from the LRU
        // automatically (MemoryManager tracks liveness).
        let _ = KillSource::Lmkd;
    }

    fn random_cached_pid(&mut self) -> Option<ProcessId> {
        self.cached_scratch.clear();
        self.cached_scratch.extend(
            self.mm
                .procs()
                .iter()
                .filter(|p| !p.dead && p.kind.counts_as_cached())
                .map(|p| p.id),
        );
        // Arena slots recycle, so record order is not spawn order; sort by
        // pid to keep the candidate list (and thus the RNG-indexed pick)
        // identical to the historical append-only layout.
        self.cached_scratch.sort_unstable();
        if self.cached_scratch.is_empty() {
            None
        } else {
            let i = self.rng.index(self.cached_scratch.len());
            Some(self.cached_scratch[i])
        }
    }
}

/// A batch of fleet users stepped together, with the per-user scalar state
/// the 1 Hz loop actually consults — toggle deadlines, interactive flags,
/// standing-app bookkeeping, and the current sample fields — mirrored into
/// parallel arrays (structure-of-arrays).
///
/// Most fleet seconds are *quiescent*: screen off, no deadline due, free
/// memory at the high watermark. For those the only work with an observable
/// effect is the per-second background-sync RNG draw; everything else the
/// sample needs is unchanged since the last real step. The batch serves
/// such seconds from its lanes — a handful of sequential array reads plus
/// one RNG draw — instead of walking each user's `MemoryManager`. Any
/// second that does real work falls back to [`FleetUser::step_1s`] and
/// refreshes the user's lanes, so batched stepping is *exactly* the
/// per-object stepping, observation for observation.
pub struct FleetBatch {
    users: Vec<FleetUser>,
    // Quiescence lanes.
    toggle_at: Vec<SimTime>,
    interactive: Vec<bool>,
    standing_due: Vec<SimTime>,
    standing_dirty: Vec<bool>,
    calm: Vec<bool>,
    // Sample lanes (valid while the user stays quiescent).
    available_mib: Vec<f64>,
    utilization_pct: Vec<f64>,
    trim: Vec<TrimLevel>,
    n_services: Vec<u32>,
}

impl FleetBatch {
    /// Wrap `users` for batched stepping.
    pub fn new(users: Vec<FleetUser>) -> FleetBatch {
        let mut batch = FleetBatch {
            users,
            toggle_at: Vec::new(),
            interactive: Vec::new(),
            standing_due: Vec::new(),
            standing_dirty: Vec::new(),
            calm: Vec::new(),
            available_mib: Vec::new(),
            utilization_pct: Vec::new(),
            trim: Vec::new(),
            n_services: Vec::new(),
        };
        batch.mirror_all();
        batch
    }

    /// Make the batch hold users `idxs` of the fleet rooted at `root`,
    /// exactly as `FleetBatch::new` over fresh [`FleetUser::new`]s would.
    /// Users already held are renewed in place ([`FleetUser::renew`]),
    /// missing ones are built and surplus ones dropped, so the batch also
    /// shrinks to a shard's partial last chunk.
    pub fn renew(&mut self, idxs: Range<u32>, root: &SimRng) {
        self.users.truncate(idxs.len());
        for (j, idx) in idxs.enumerate() {
            match self.users.get_mut(j) {
                Some(user) => user.renew(idx, root),
                None => self.users.push(FleetUser::new(idx, root)),
            }
        }
        self.mirror_all();
    }

    /// Size every lane to the users held and mirror each user's state in.
    fn mirror_all(&mut self) {
        let n = self.users.len();
        self.toggle_at.resize(n, SimTime::ZERO);
        self.interactive.resize(n, false);
        self.standing_due.resize(n, SimTime::ZERO);
        self.standing_dirty.resize(n, false);
        self.calm.resize(n, false);
        self.available_mib.resize(n, 0.0);
        self.utilization_pct.resize(n, 0.0);
        self.trim.resize(n, TrimLevel::Normal);
        self.n_services.resize(n, 0);
        for (i, u) in self.users.iter().enumerate() {
            self.toggle_at[i] = u.toggle_at;
            self.interactive[i] = u.interactive;
            self.standing_due[i] = u.standing_due;
            self.standing_dirty[i] = u.standing_dirty;
            self.calm[i] = u.mm.free() >= u.mm.config().watermark_high;
            self.available_mib[i] = u.mm.available().mib();
            self.utilization_pct[i] = u.mm.utilization_pct();
            self.trim[i] = u.mm.trim_level();
            self.n_services[i] = u.mm.cached_proc_count();
        }
    }

    /// Number of users in the batch.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch holds no users.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The users, for inspection.
    pub fn users(&self) -> &[FleetUser] {
        &self.users
    }

    /// One user, for inspection.
    pub fn user(&self, i: usize) -> &FleetUser {
        &self.users[i]
    }

    /// Pre-size every user's process arena for `extra` future spawns
    /// (see [`FleetUser::reserve_spawns`]). Touches no lane-mirrored
    /// state, so it is safe at any point between steps.
    pub fn reserve_spawns(&mut self, extra: usize) {
        for u in &mut self.users {
            u.reserve_spawns(extra);
        }
    }

    /// Re-mirror user `i`'s state into the lanes after a full step. The
    /// sample the step just produced already carries the memory-state
    /// fields, so the lanes copy them instead of recomputing from the
    /// `MemoryManager`. Every lane except the interactive flag is only
    /// ever read behind a `!interactive[i]` guard, so while the user is
    /// mid-session the rest can stay stale — interactive stepping pays
    /// one store, not ten.
    fn refresh(&mut self, i: usize, sample: &FleetSample) {
        let u = &self.users[i];
        self.interactive[i] = u.interactive;
        if u.interactive {
            return;
        }
        self.toggle_at[i] = u.toggle_at;
        self.standing_due[i] = u.standing_due;
        self.standing_dirty[i] = u.standing_dirty;
        self.calm[i] = u.mm.free() >= u.mm.config().watermark_high;
        self.available_mib[i] = sample.available_mib;
        self.utilization_pct[i] = sample.utilization_pct;
        self.trim[i] = sample.trim;
        self.n_services[i] = sample.n_services;
    }

    /// Advance user `i` by one second. Produces exactly the sample
    /// [`FleetUser::step_1s`] would.
    pub fn step_1s(&mut self, i: usize, now: SimTime) -> FleetSample {
        if !self.interactive[i]
            && now < self.toggle_at[i]
            && !self.standing_dirty[i]
            && now < self.standing_due[i]
            && self.calm[i]
        {
            debug_assert!(self.users[i].quiescent(now));
            if !self.users[i].idle_chance_fires() {
                // Nothing observable happened: the sample is last step's
                // memory state at the new timestamp, read from the lanes.
                return FleetSample {
                    at: now,
                    available_mib: self.available_mib[i],
                    utilization_pct: self.utilization_pct[i],
                    trim: self.trim[i],
                    interactive: false,
                    n_services: self.n_services[i],
                };
            }
            let sample = self.users[i].idle_fired_step(now);
            self.refresh(i, &sample);
            return sample;
        }
        let sample = self.users[i].step_1s(now);
        self.refresh(i, &sample);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_state_ignores_only_the_timestamp() {
        let a = FleetSample {
            at: SimTime::from_secs(5),
            available_mib: 812.5,
            utilization_pct: 61.25,
            trim: TrimLevel::Moderate,
            interactive: true,
            n_services: 14,
        };
        assert!(a.same_state(&FleetSample {
            at: SimTime::from_secs(6),
            ..a
        }));
        let changed = [
            FleetSample {
                available_mib: f64::from_bits(a.available_mib.to_bits() + 1),
                ..a
            },
            FleetSample {
                utilization_pct: 61.5,
                ..a
            },
            FleetSample {
                trim: TrimLevel::Low,
                ..a
            },
            FleetSample {
                interactive: false,
                ..a
            },
            FleetSample {
                n_services: 15,
                ..a
            },
        ];
        for b in changed {
            assert!(!a.same_state(&b), "{b:?}");
        }
    }

    #[test]
    fn usage_pattern_matches_fig1_ordering() {
        let mut rng = SimRng::new(21);
        let n = 200;
        let (mut v, mut m, mut g) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let p = UsagePattern::sample(&mut rng);
            v += p.videos;
            m += p.music;
            g += p.games;
            assert!((1.0..=5.0).contains(&p.videos));
            assert!(p.multitask_2 <= p.multitask_1);
        }
        assert!(v > m && m > g, "video > music > games as in Fig. 1");
    }

    #[test]
    fn a_day_produces_pressure_on_a_small_device() {
        let root = SimRng::new(3);
        // Find a small-RAM user.
        let mut user = (0..40)
            .map(|i| FleetUser::new(i, &root))
            .find(|u| u.device.ram_mib <= 2048)
            .expect("fleet contains small devices");
        let mut utils = Vec::new();
        let mut any_pressure = false;
        for s in 0..(8 * 3600u64) {
            let sample = user.step_1s(SimTime::from_secs(s));
            if sample.interactive {
                utils.push(sample.utilization_pct);
            }
            any_pressure |= sample.trim.is_pressure();
        }
        assert!(!utils.is_empty(), "user must have screen-on time");
        let med = mvqoe_sim::stats::median(&utils);
        assert!(
            med > 40.0,
            "interactive median utilization {med:.1}% unrealistically low"
        );
        assert!(
            any_pressure || user.device.ram_mib > 1024,
            "a 1 GB device should see some pressure in a day"
        );
    }

    #[test]
    fn determinism_across_runs() {
        let root = SimRng::new(77);
        let run = || {
            let mut u = FleetUser::new(5, &root);
            (0..3600u64)
                .map(|s| u.step_1s(SimTime::from_secs(s)).utilization_pct)
                .sum::<f64>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_step_matches_per_object_step() {
        let root = SimRng::new(41);
        let mut solo: Vec<FleetUser> = (0..6).map(|i| FleetUser::new(i, &root)).collect();
        let batched: Vec<FleetUser> = (0..6).map(|i| FleetUser::new(i, &root)).collect();
        let mut batch = FleetBatch::new(batched);
        for s in 0..(3 * 3600u64) {
            let now = SimTime::from_secs(s);
            for (i, u) in solo.iter_mut().enumerate() {
                let a = u.step_1s(now);
                let b = batch.step_1s(i, now);
                assert_eq!(
                    (a.at, a.available_mib, a.utilization_pct, a.trim, a.interactive, a.n_services),
                    (b.at, b.available_mib, b.utilization_pct, b.trim, b.interactive, b.n_services),
                    "user {i} diverged at {now}"
                );
            }
        }
        for (i, u) in solo.iter().enumerate() {
            assert_eq!(u.kills_observed(), batch.user(i).kills_observed());
            assert_eq!(u.mm().accounted_pages(), batch.user(i).mm().accounted_pages());
        }
    }

    /// A sample's fields as one comparable value.
    fn fields(s: &FleetSample) -> (SimTime, f64, f64, TrimLevel, bool, u32) {
        (
            s.at,
            s.available_mib,
            s.utilization_pct,
            s.trim,
            s.interactive,
            s.n_services,
        )
    }

    #[test]
    fn renewed_user_steps_like_a_new_one() {
        let root = SimRng::new(41);
        // A user that has lived a working day, lmkd kills and respawns
        // included, so its arena, free list and scratch are all dirty.
        let mut user = (0..16)
            .map(|i| {
                let mut u = FleetUser::new(i, &root);
                for s in 0..(8 * 3600u64) {
                    u.step_1s(SimTime::from_secs(s));
                }
                u
            })
            .find(|u| u.kills_observed() > 0)
            .expect("some user sees lmkd kills in 8 h");
        // Renewed twice: the second time after two hours as its new self.
        for idx in [29u32, 3] {
            user.renew(idx, &root);
            let mut fresh = FleetUser::new(idx, &root);
            assert_eq!(
                serde::to_value(&user.device),
                serde::to_value(&fresh.device)
            );
            for s in 0..(2 * 3600u64) {
                let now = SimTime::from_secs(s);
                let (a, b) = (fresh.step_1s(now), user.step_1s(now));
                assert_eq!(fields(&a), fields(&b), "user {idx} diverged at {now}");
            }
            assert_eq!(fresh.kills_observed(), user.kills_observed());
            assert_eq!(serde::to_value(&fresh.mm()), serde::to_value(&user.mm()));
        }
    }

    #[test]
    fn batch_renew_matches_a_new_batch_and_shrinks() {
        let root = SimRng::new(41);
        let step_all = |batch: &mut FleetBatch, secs: std::ops::Range<u64>| {
            for s in secs {
                for j in 0..batch.len() {
                    batch.step_1s(j, SimTime::from_secs(s));
                }
            }
        };
        let mut batch = FleetBatch::new((0..6).map(|i| FleetUser::new(i, &root)).collect());
        step_all(&mut batch, 0..3600);
        // A partial last chunk: three users where six were.
        batch.renew(6..9, &root);
        assert_eq!(batch.len(), 3);
        let mut fresh = FleetBatch::new((6..9).map(|i| FleetUser::new(i, &root)).collect());
        for s in 0..(3 * 3600u64) {
            let now = SimTime::from_secs(s);
            for j in 0..3 {
                let (a, b) = (fresh.step_1s(j, now), batch.step_1s(j, now));
                assert_eq!(fields(&a), fields(&b), "user {j} diverged at {now}");
            }
        }
        // And it grows back.
        batch.renew(9..17, &root);
        assert_eq!(batch.len(), 8);
        step_all(&mut batch, 0..60);
    }

    #[test]
    fn accounting_survives_a_simulated_morning() {
        let root = SimRng::new(9);
        let mut u = FleetUser::new(2, &root);
        for s in 0..(2 * 3600u64) {
            u.step_1s(SimTime::from_secs(s));
        }
        assert_eq!(u.mm().accounted_pages(), u.mm().config().usable());
    }
}
