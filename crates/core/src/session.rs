//! An end-to-end DASH streaming session on a simulated phone.
//!
//! Reproduces the paper's client pipeline (§4.1): a downloader thread
//! fetches 4 s chunks from the LAN server into a 60 s playback buffer
//! (allocating real pages); a decoder thread (the `MediaCodec` analog)
//! touches the buffered bytes — paying zRAM swap-ins and major-fault stalls
//! when reclaim has been at them — and spends per-frame decode CPU; a
//! renderer thread (the `SurfaceFlinger` analog) presents at vsync. A frame
//! not decoded by its vsync is **dropped**, and the decoder skips it to
//! hold 1× playback, exactly as the paper describes. The client crashes
//! when lmkd (or the OOM path) kills its process.

use crate::attribution::{AttributionEngine, AttributionReport, Cause, Effect};
use crate::pressure::{PressureDriver, PressureMode};
use crate::snapshot::{Snapshot, SNAPSHOT_FORMAT_VERSION};
use mvqoe_abr::{Abr, AbrContext};
use mvqoe_device::{DeviceProfile, Machine, StepOutputs};
use mvqoe_kernel::manager::{KillSource, MemEvent};
use mvqoe_metrics::{CounterId, HistogramId, Telemetry};
use mvqoe_kernel::{Pages, ProcKind, ProcessId, TrimLevel};
use mvqoe_net::{Link, LinkParams, SegmentServer};
use mvqoe_sched::{SchedClass, ThreadId};
use mvqoe_sim::{EventQueue, SimDuration, SimRng, SimTime, TimeSeries};
use mvqoe_video::memory_model as memmod;
use mvqoe_video::{
    DecodeCostModel, Fps, Genre, Manifest, PlaybackBuffer, PlayerKind, PlayerProfile,
    Representation, SessionStats,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

const TAG_DECODE: u64 = 1;
const TAG_RENDER: u64 = 2;
const TAG_NETPARSE: u64 = 3;
const TAG_SKIP: u64 = 4;
const TAG_UI: u64 = 5;

/// Configuration of one streaming session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionConfig {
    /// The phone.
    pub device: DeviceProfile,
    /// The client platform.
    pub player: PlayerKind,
    /// Which of the five test videos.
    pub genre: Genre,
    /// Playback length in seconds (the paper's sessions run ≈ 2 minutes).
    pub video_secs: f64,
    /// How pressure is induced before/throughout the session.
    pub pressure: PressureMode,
    /// Seed; distinct seeds are the paper's "5 runs".
    pub seed: u64,
    /// Network parameters (defaults to the paper's non-bottleneck LAN).
    pub link: LinkParams,
    /// Playback buffer capacity in seconds.
    pub buffer_secs: f64,
    /// Record full scheduler switch events (needed for §5 trace analysis;
    /// off for bulk grids to save memory).
    pub record_trace: bool,
    /// §7 OS-developer ablation: demote `mmcqd` from real-time to the fair
    /// class, removing its license to preempt foreground threads.
    pub mmcqd_fair: bool,
    /// Debug switch: step densely (1 ms per step) instead of skipping
    /// provably-idle spans. Outputs are byte-identical either way; dense
    /// mode only exists for bisecting and benchmarking the skip.
    pub dense_ticks: bool,
    /// Run the causal attribution engine: blame every rebuffer second and
    /// dropped frame on a kernel or network cause ([`crate::attribution`]).
    /// Observation only — it draws no randomness and feeds nothing back,
    /// so enabling it never changes the session's QoE outcome. Off (the
    /// default), it costs a single predictable branch per hook site.
    pub attribution: bool,
}

impl SessionConfig {
    /// The paper's default setup for a device: travel video, Firefox,
    /// 120 s playback, full LAN, 60 s buffer.
    pub fn paper_default(device: DeviceProfile, pressure: PressureMode, seed: u64) -> Self {
        SessionConfig {
            device,
            player: PlayerKind::Firefox,
            genre: Genre::Travel,
            video_secs: 120.0,
            pressure,
            seed,
            link: LinkParams::paper_lan(),
            buffer_secs: 60.0,
            record_trace: false,
            mmcqd_fair: false,
            dense_ticks: false,
            attribution: false,
        }
    }
}

/// Everything a session produced.
pub struct SessionOutcome {
    /// Client-level metrics.
    pub stats: SessionStats,
    /// The machine at session end (trace, thread times, vmstat, …).
    pub machine: Machine,
    /// Trim level when the video ended.
    pub final_trim: TrimLevel,
    /// Processes killed per second during playback.
    pub kill_series: TimeSeries,
    /// lmkd CPU utilization (%) per second during playback (Fig. 14).
    pub lmkd_cpu_series: TimeSeries,
    /// Trim level (severity 0–3) per second during playback.
    pub trim_series: TimeSeries,
    /// The representation history actually streamed (`(start_time, rep)`).
    pub rep_history: Vec<(SimTime, Representation)>,
    /// Video client thread ids (ui, net, decode, render) for trace queries.
    pub client_threads: [ThreadId; 4],
    /// The client pid.
    pub client_pid: ProcessId,
    /// Per-cause QoE-loss attribution (`Some` iff
    /// [`SessionConfig::attribution`] was on).
    pub attribution: Option<AttributionReport>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Ev {
    SegArrived { rep: Representation, bytes: u64 },
    Vsync,
}

/// Pre-registered metric ids for the session's hot paths.
struct Instruments {
    decode_us: HistogramId,
    frames_rendered: CounterId,
    frames_dropped: CounterId,
    frames_late: CounterId,
    segments: CounterId,
    abr_switches: CounterId,
    rebuffer_events: CounterId,
}

impl Instruments {
    fn register(t: &mut Telemetry) -> Instruments {
        let m = &mut t.metrics;
        Instruments {
            decode_us: m.histogram("video.decode_us"),
            frames_rendered: m.counter("video.frames_rendered"),
            frames_dropped: m.counter("video.frames_dropped"),
            frames_late: m.counter("video.frames_late"),
            segments: m.counter("video.segments_downloaded"),
            abr_switches: m.counter("abr.switches"),
            rebuffer_events: m.counter("video.rebuffer_events"),
        }
    }
}

/// Consecutive missed vsyncs before the session counts as rebuffering (a
/// visible stall, not an isolated dropped frame).
const REBUFFER_STREAK: u32 = 30;

/// Consecutive missed vsyncs that count as a visible dropped-frame streak
/// for attribution — short of a stall, but no longer an isolated drop.
const DROP_STREAK: u32 = 5;

/// Pre-compute the link trace's QoE-relevant change-points as queued
/// network facts: any point where the rate falls, the latency rises, or
/// the loss rises relative to what was previously in effect. The paper's
/// LAN has an empty trace, so it queues nothing — which is exactly the
/// point: on paper-lan regimes nothing can be blamed on the network.
fn queue_link_dips(attr: &mut AttributionEngine, link: &LinkParams) {
    let mut rate = link.rate_mbps;
    let mut latency = link.latency;
    let mut loss = link.loss_prob;
    for p in link.trace.points() {
        let mut dips: Vec<String> = Vec::new();
        if let Some(r) = p.rate_mbps {
            if r < rate {
                dips.push(format!("rate {rate:.1} -> {r:.1} Mbit/s"));
            }
            rate = r;
        }
        if let Some(l) = p.latency {
            if l > latency {
                dips.push(format!(
                    "latency {} -> {} ms",
                    latency.as_micros() / 1000,
                    l.as_micros() / 1000
                ));
            }
            latency = l;
        }
        if let Some(q) = p.loss_prob {
            if q > loss {
                dips.push(format!("loss {loss:.2} -> {q:.2}"));
            }
            loss = q;
        }
        if !dips.is_empty() {
            attr.queue_network_fact(p.at, dips.join(", "));
        }
    }
}

/// Run one streaming session.
pub fn run_session(cfg: &SessionConfig, abr: &mut dyn Abr) -> SessionOutcome {
    run_session_with(cfg, abr, None)
}

/// Run one streaming session, optionally recording cross-layer metrics
/// into a [`Telemetry`] handle. With `telemetry` `None` (or a disabled
/// handle) the session behaves byte-identically to [`run_session`] before
/// telemetry existed: recording never draws randomness and never feeds
/// back into scheduling or memory decisions.
pub fn run_session_with(
    cfg: &SessionConfig,
    abr: &mut dyn Abr,
    mut telemetry: Option<&mut Telemetry>,
) -> SessionOutcome {
    let mut session = Session::start(cfg.clone());
    session.run_until_with(abr, SimTime::MAX, telemetry.as_deref_mut());
    session.finish(telemetry)
}

/// Absorb end-of-run kernel/scheduler/client totals into the registry.
fn absorb_machine_metrics(t: &mut Telemetry, m: &Machine, stats: &SessionStats) {
    let reg = &mut t.metrics;
    let vm = m.mm.vmstat();
    reg.add_counter("kernel.pgscan_kswapd", vm.pgscan_kswapd);
    reg.add_counter("kernel.pgscan_direct", vm.pgscan_direct);
    reg.add_counter("kernel.pgsteal_kswapd", vm.pgsteal_kswapd);
    reg.add_counter("kernel.pgsteal_direct", vm.pgsteal_direct);
    reg.add_counter("kernel.pgfault_zram", vm.pgfault_zram);
    reg.add_counter("kernel.pgfault_major", vm.pgfault_major);
    reg.add_counter("kernel.zram_stores", vm.zram_stores);
    reg.add_counter("kernel.writeback", vm.writeback);
    reg.add_counter("kernel.refaults", vm.refaults);
    reg.add_counter("kernel.kswapd_batches", vm.kswapd_batches);
    reg.add_counter("kernel.direct_reclaims", vm.direct_reclaims);
    reg.add_counter("kernel.lmkd_kills", vm.lmkd_kills);
    reg.add_counter("kernel.oom_kills", vm.oom_kills);
    reg.add_counter("sched.ctx_switches", m.sched.ctx_switches());
    let preemptions = m.trace.preemptions();
    reg.add_counter("sched.preemptions", preemptions.len() as u64);
    let mmcqd = m.mmcqd_thread();
    reg.add_counter(
        "sched.preemptions_by_mmcqd",
        preemptions.iter().filter(|p| p.preempter == mmcqd).count() as u64,
    );
    reg.set_gauge("video.mean_fps", stats.mean_fps());
    reg.set_gauge(
        "mem.pss_peak_mib",
        stats
            .pss_series
            .samples()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max),
    );
    reg.set_gauge(
        "video.rebuffer_s",
        stats.rebuffer_time.as_micros() as f64 / 1e6,
    );
    reg.set_gauge("session.crashed", if stats.crashed() { 1.0 } else { 0.0 });
}

/// Fold a session's attribution totals into the metrics registry: exact
/// per-cause rebuffer/drop counters, the record count, and a lag
/// histogram. Only called when the session ran with attribution on.
fn absorb_attribution_metrics(t: &mut Telemetry, rep: &AttributionReport) {
    let reg = &mut t.metrics;
    for c in Cause::ALL {
        reg.add_counter(
            &format!("attr.rebuffer_us.{}", c.label()),
            rep.rebuffer_us[c.index()],
        );
        reg.add_counter(&format!("attr.drops.{}", c.label()), rep.drops[c.index()]);
    }
    reg.add_counter("attr.records", rep.records.len() as u64 + rep.records_dropped);
    let lag = reg.histogram("attr.lag_us");
    for r in &rep.records {
        reg.observe(lag, r.lag_us as f64);
    }
}

/// The complete mutable client-side state of a session in flight.
///
/// Everything the run loop reads *and* writes lives either here or inside
/// the machine / pressure driver / segment server — so serializing those
/// four pieces (plus the ABR's [`Abr::state_value`]) at a loop-iteration
/// boundary is a *complete* description of the session. That invariant is
/// what makes [`Session::snapshot`] exact; the round-trip and fork
/// differential suites in `tests/` enforce it.
#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct SessionState {
    rng: SimRng,
    pid: ProcessId,
    ui: ThreadId,
    net: ThreadId,
    dec: ThreadId,
    rend: ThreadId,
    buffer: PlaybackBuffer,
    stats: SessionStats,
    events: EventQueue<Ev>,
    cost: DecodeCostModel,
    /// Decoded frames awaiting presentation (their representations).
    surfaces: VecDeque<Representation>,
    /// The representation of the frame currently in the decoder.
    pending_surface: Option<Representation>,
    /// Pages currently held by the surface queue + codec state.
    pipeline_pages: Pages,
    decoding: bool,
    downloading: bool,
    /// Frames the renderer already counted dropped that the decoder must
    /// skip to hold 1×.
    frames_owed: u32,
    next_seg: u32,
    playback_started: bool,
    ended: bool,
    last_period: SimDuration,
    last_rep: Option<Representation>,
    /// (time, dropped?) for the ABR's recent-drop feedback.
    drop_window: VecDeque<(SimTime, bool)>,
    rendered_this_sec: u32,
    kills_this_sec: u32,
    next_sample: SimTime,
    last_lmkd_running: SimDuration,
    kill_series: TimeSeries,
    lmkd_cpu_series: TimeSeries,
    trim_series: TimeSeries,
    rep_history: Vec<(SimTime, Representation)>,
    video_start: SimTime,
    next_floor_update: SimTime,
    next_ui_tick: SimTime,
    /// Startup heap still to fault in (ramped from the UI thread).
    startup_remaining: Pages,
    /// Presentation deadlines of frames currently being composited.
    render_deadlines: VecDeque<SimTime>,
    /// Consecutive allocation shortfalls (sustained ⇒ kernel OOM kill).
    oom_streak: u32,
    /// Consecutive vsyncs with no surface to present.
    missed_streak: u32,
    /// When the current missed-vsync streak began.
    streak_started: Option<SimTime>,
    /// When the current rebuffer stall was declared (streak ≥ threshold).
    stall_started: Option<SimTime>,
    /// Hard end cap, well beyond nominal playback (pathological stalls).
    deadline: SimTime,
    /// The causal attribution engine (inert unless `cfg.attribution`).
    attr: AttributionEngine,
}

/// A streaming session that can be paused mid-flight, snapshotted, and
/// restored into counterfactual branches.
///
/// Four entry points drive it: [`run_session`] and [`run_session_with`]
/// run one to completion in a single call (thin wrappers over this type),
/// and [`Session::run_until`] and [`Session::run_until_with`] drive it up
/// to a time limit. The counterfactual engine runs a shared prefix with
/// [`Session::run_until`], captures one [`Snapshot`], then continues
/// independent branches from it via [`Session::restore`] — paired
/// branches differ *only* by the policy knob applied at the fork.
pub struct Session {
    cfg: SessionConfig,
    machine: Machine,
    pressure: PressureDriver,
    server: SegmentServer,
    st: SessionState,
    // Pure functions of `cfg`: rebuilt on restore, never serialized.
    profile: PlayerProfile,
    manifest: Manifest,
}

impl Session {
    /// Build the machine, apply pressure, and start the client (phases 1–2
    /// of the §4.1 pipeline). The session pauses at the first loop
    /// boundary; drive it with [`Session::run_until`].
    pub fn start(cfg: SessionConfig) -> Session {
        let rng = SimRng::new(cfg.seed);
        let mut m = Machine::new(cfg.device.clone(), &mut rng.split("machine"));
        m.sched.set_record_events(cfg.record_trace);
        m.trace.set_detail(cfg.record_trace);
        if cfg.mmcqd_fair {
            let tid = m.mmcqd_thread();
            m.sched.set_class(tid, SchedClass::NORMAL);
        }

        // Phase 1: pressure.
        let pressure = PressureDriver::apply(cfg.pressure, &mut m, &rng, cfg.dense_ticks);

        // Phase 2: the client starts.
        let profile = PlayerProfile::of(cfg.player);
        let manifest = Manifest::full_ladder(cfg.genre, cfg.video_secs);
        // Real apps fault their footprint in over the first seconds of life;
        // spawning with the full heap in one allocation would hammer direct
        // reclaim with a single giant request. Start with ~30% and ramp the
        // rest from the UI thread (see `ui_housekeeping`).
        let (pid, _) = m.add_process(
            &format!("{}", cfg.player),
            ProcKind::Foreground,
            profile.base_anon.mul_f64(0.3),
            profile.base_file_ws,
            profile.base_file_resident.mul_f64(0.8),
            profile.file_share,
        );
        let ui = m.add_thread(pid, &format!("{}", cfg.player), SchedClass::NORMAL);
        let net = m.add_thread(pid, "Socket Thread", SchedClass::NORMAL);
        let dec = m.add_thread(pid, "MediaCodec", SchedClass::NORMAL);
        let rend = m.add_thread(pid, "SurfaceFlinger", SchedClass::NORMAL);
        let server = SegmentServer::new(Link::new(cfg.link.clone()));

        let now = m.now();
        let mut st = SessionState {
            rng: rng.split("session"),
            pid,
            ui,
            net,
            dec,
            rend,
            buffer: PlaybackBuffer::new(cfg.buffer_secs),
            stats: SessionStats::default(),
            events: EventQueue::new(),
            cost: DecodeCostModel::default(),
            surfaces: VecDeque::new(),
            pending_surface: None,
            pipeline_pages: Pages::ZERO,
            decoding: false,
            downloading: false,
            frames_owed: 0,
            next_seg: 0,
            playback_started: false,
            ended: false,
            last_period: SimDuration::from_micros(Fps::F30.frame_period_us()),
            last_rep: None,
            drop_window: VecDeque::new(),
            rendered_this_sec: 0,
            kills_this_sec: 0,
            next_sample: now + SimDuration::from_secs(1),
            last_lmkd_running: m.sched.times_of(m.lmkd_thread()).running,
            kill_series: TimeSeries::new("kills_per_s"),
            lmkd_cpu_series: TimeSeries::new("lmkd_cpu_pct"),
            trim_series: TimeSeries::new("trim_severity"),
            rep_history: Vec::new(),
            video_start: now,
            next_floor_update: SimTime::ZERO,
            next_ui_tick: now,
            startup_remaining: profile.base_anon.mul_f64(0.7),
            render_deadlines: VecDeque::new(),
            oom_streak: 0,
            missed_streak: 0,
            streak_started: None,
            stall_started: None,
            deadline: now + SimDuration::from_secs_f64(cfg.video_secs * 2.5 + 40.0),
            attr: AttributionEngine::new(cfg.attribution),
        };
        if st.attr.enabled() {
            // Baseline the vmstat counters at pressure that has already been
            // applied, so session-time deltas start at zero; pre-compute the
            // link trace's change-points as queued network facts.
            let vm = m.mm.vmstat();
            st.attr
                .prime_vmstat(vm.direct_reclaims, vm.pgfault_major, vm.pgfault_zram);
            queue_link_dips(&mut st.attr, &cfg.link);
        }
        Session {
            cfg,
            machine: m,
            pressure,
            server,
            st,
            profile,
            manifest,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// Whether playback has ended (naturally or by crash).
    pub fn ended(&self) -> bool {
        self.st.ended
    }

    /// The configuration the session was started with.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access — the hook for counterfactual branch knobs
    /// (extra background load, kernel threshold changes) applied at a fork
    /// point before the branch continues.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// [`Session::run_until_with`] without telemetry.
    pub fn run_until(&mut self, abr: &mut dyn Abr, limit: SimTime) -> bool {
        self.run_until_with(abr, limit, None)
    }

    /// Drive the session until it ends or simulation time reaches `limit`,
    /// optionally recording cross-layer metrics. Bounded runs are
    /// byte-identical to unbounded ones up to the boundary: `limit` only
    /// joins the skip horizon, and any extra loop iterations it inserts
    /// inside provably-idle spans are no-ops. Returns `true` once the
    /// session has ended.
    pub fn run_until_with(
        &mut self,
        abr: &mut dyn Abr,
        limit: SimTime,
        telemetry: Option<&mut Telemetry>,
    ) -> bool {
        let tele = telemetry.map(|t| {
            let ins = Instruments::register(t);
            (t, ins)
        });
        let mut runner = Runner {
            cfg: &self.cfg,
            profile: &self.profile,
            manifest: &self.manifest,
            abr,
            st: &mut self.st,
            tele,
        };
        runner.run_until(&mut self.machine, &mut self.pressure, &mut self.server, limit);
        self.st.ended
    }

    /// Close the session and produce its outcome. A stall still open when
    /// the session ends (crash included) counts up to the end of the run.
    pub fn finish(mut self, telemetry: Option<&mut Telemetry>) -> SessionOutcome {
        let m = &mut self.machine;
        if let Some(start) = self.st.stall_started.take() {
            let stalled = m.now().saturating_since(start);
            self.st.stats.rebuffer_time += stalled;
            if self.st.attr.enabled() {
                self.st.attr.close_stall(stalled.as_micros());
            }
            m.trace.instant("rebuffer_end", m.now(), Some(self.st.rend));
        }
        self.st.stats.ended_at = m.now();
        let attribution = self.st.attr.enabled().then(|| self.st.attr.report());
        // Fold the kernel and scheduler totals into the metrics registry;
        // these counters accumulate inside the substrates regardless, so
        // absorbing them here costs nothing on the hot path.
        if let Some(t) = telemetry {
            absorb_machine_metrics(t, m, &self.st.stats);
            if let Some(rep) = &attribution {
                absorb_attribution_metrics(t, rep);
            }
        }
        let final_trim = m.mm.trim_level();
        let end = m.now();
        m.trace.finish(end);
        SessionOutcome {
            stats: self.st.stats,
            final_trim,
            kill_series: self.st.kill_series,
            lmkd_cpu_series: self.st.lmkd_cpu_series,
            trim_series: self.st.trim_series,
            rep_history: self.st.rep_history,
            client_threads: [self.st.ui, self.st.net, self.st.dec, self.st.rend],
            client_pid: self.st.pid,
            attribution,
            machine: self.machine,
        }
    }

    /// Capture the complete session state as a versioned [`Snapshot`].
    ///
    /// The ABR policy is owned by the caller, so its decision state rides
    /// along via [`Abr::state_value`]. The rest is a clone of the session's
    /// own state. Scratch buffers and generation markers deliberately
    /// absent from the serialized forms are behavior-neutral: a session
    /// restored from a saved snapshot steps byte-identically to the
    /// original (the differential suites in `tests/` prove it).
    pub fn snapshot(&self, abr: &dyn Abr) -> Snapshot {
        Snapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            at: self.machine.now(),
            cfg: self.cfg.clone(),
            machine: self.machine.clone(),
            pressure: self.pressure.clone(),
            server: self.server.clone(),
            state: self.st.clone(),
            abr_kind: abr.name().to_string(),
            abr_state: abr.state_value(),
        }
    }

    /// Rebuild a session from a snapshot, continuing under `abr`.
    ///
    /// If `abr` has the same [`Abr::name`] as the snapshotted policy, its
    /// decision state is restored and the continuation is an *exact*
    /// replay of the original session. A policy with a different name
    /// starts fresh at the fork point — that difference is precisely the
    /// counterfactual knob a branch exists to measure.
    pub fn restore(snap: &Snapshot, abr: &mut dyn Abr) -> Result<Session, serde::de::Error> {
        if snap.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(serde::de::Error::custom(format!(
                "stale snapshot format v{} (expected v{})",
                snap.format_version, SNAPSHOT_FORMAT_VERSION
            )));
        }
        if abr.name() == snap.abr_kind {
            abr.restore_state(&snap.abr_state)?;
        }
        let cfg = snap.cfg.clone();
        let profile = PlayerProfile::of(cfg.player);
        let manifest = Manifest::full_ladder(cfg.genre, cfg.video_secs);
        Ok(Session {
            machine: snap.machine.clone(),
            pressure: snap.pressure.clone(),
            server: snap.server.clone(),
            st: snap.state.clone(),
            cfg,
            profile,
            manifest,
        })
    }
}

/// The borrow bundle driving one [`Session::run_until_with`] call: config
/// and derived tables by reference, all mutable state behind `st`, and the
/// optional metrics handle — every borrow under the one call's lifetime.
struct Runner<'a> {
    cfg: &'a SessionConfig,
    profile: &'a PlayerProfile,
    manifest: &'a Manifest,
    abr: &'a mut dyn Abr,
    st: &'a mut SessionState,
    /// Metrics handle + pre-registered ids (None ⇒ single-branch no-ops).
    tele: Option<(&'a mut Telemetry, Instruments)>,
}

impl Runner<'_> {
    fn run_until(
        &mut self,
        m: &mut Machine,
        pressure: &mut PressureDriver,
        server: &mut SegmentServer,
        limit: SimTime,
    ) {
        let mut out = StepOutputs::default();

        while !self.st.ended && m.now() < self.st.deadline && m.now() < limit {
            let now = m.now();

            while let Some((_, ev)) = self.st.events.pop_due(now) {
                match ev {
                    Ev::SegArrived { rep, bytes } => self.on_segment_arrived(m, rep, bytes),
                    Ev::Vsync => self.on_vsync(m, now),
                }
            }

            self.maybe_start_download(m, server, now);
            self.maybe_start_decode(m);
            self.ui_housekeeping(m, now);

            pressure.drive(m);
            if !self.cfg.dense_ticks {
                // Everything this loop does before the step is gated either
                // on machine state (which cannot change while the machine is
                // idle) or on one of these instants — so the machine may
                // skip straight to the earliest of them. `limit` joins the
                // gates so a bounded run stops *on* its boundary, never
                // beyond it; the extra loop iterations this can insert
                // inside an idle span are no-ops, which keeps bounded runs
                // byte-identical to uninterrupted ones.
                let horizon = self
                    .st
                    .events
                    .peek_time()
                    .unwrap_or(SimTime::MAX)
                    .min(self.st.next_sample)
                    .min(self.st.next_ui_tick)
                    .min(self.st.next_floor_update)
                    .min(pressure.next_wakeup(m))
                    .min(self.st.deadline)
                    .min(limit);
                m.advance_until(horizon);
            }
            m.step_into(&mut out);
            if self.st.attr.enabled() {
                self.harvest_facts(m, &out);
            }

            for &c in &out.completions {
                self.on_completion(m, c.thread, c.tag);
            }
            self.st.kills_this_sec += out.killed.len() as u32;
            let mut crashed = out.killed.iter().any(|&(p, _)| p == self.st.pid);
            // Allocation shortfalls stall-and-retry (the kernel blocks the
            // allocator while reclaim and lmkd fight for pages); only a
            // *sustained* failure — nothing granted for several seconds —
            // takes the kernel OOM path.
            if self.st.oom_streak > 60 && !m.mm.proc(self.st.pid).dead {
                if self.st.attr.enabled() {
                    let streak = self.st.oom_streak;
                    self.st.attr.note_fact(m.now(), Cause::OomKill, || {
                        format!("kernel OOM after {streak} failed allocations")
                    });
                }
                m.kill_process(self.st.pid, KillSource::OomKiller);
                crashed = true;
            }
            if crashed {
                self.st.stats.crashed_at = Some(m.now());
                self.st.ended = true;
                if self.st.attr.enabled() {
                    let at = m.now();
                    let (cause, cause_at) = self.st.attr.attribute(at, Effect::Crash);
                    self.emit_blame_flow(m, cause, cause_at, Effect::Crash, at);
                }
            }

            if m.now() >= self.st.next_sample {
                self.sample(m);
            }

            self.check_end(m);
        }
    }

    // ---- attribution ----------------------------------------------------

    /// Harvest this step's pressure facts into the attribution ring: due
    /// link-trace dips, kernel kills from the step's memory events, and
    /// vmstat counter advances (direct reclaim, major-fault and zram
    /// bursts). Only called when attribution is enabled.
    fn harvest_facts(&mut self, m: &Machine, out: &StepOutputs) {
        self.st.attr.release_network_facts(m.now());
        for (at, ev) in &out.mem_events {
            if let MemEvent::Killed {
                name,
                source,
                freed,
                ..
            } = ev
            {
                let cause = match source {
                    KillSource::Lmkd => Cause::LmkdKill,
                    KillSource::OomKiller => Cause::OomKill,
                    // Voluntary exits free memory but are not pressure.
                    KillSource::Exit => continue,
                };
                self.st.attr.note_fact(*at, cause, || {
                    format!("killed {} freeing {:.0} MiB", name, freed.mib())
                });
            }
        }
        let vm = m.mm.vmstat();
        self.st
            .attr
            .observe_vmstat(m.now(), vm.direct_reclaims, vm.pgfault_major, vm.pgfault_zram);
    }

    /// Draw a Perfetto flow arrow from the blamed fact to the effect. The
    /// start lands on the thread that *mechanically produced* the cause
    /// (lmkd for kills, kswapd for reclaim/fault/thrash pressure, the
    /// decoder or network thread for client-side causes), the finish on
    /// the thread that surfaced the effect.
    fn emit_blame_flow(
        &mut self,
        m: &mut Machine,
        cause: Cause,
        cause_at: SimTime,
        effect: Effect,
        at: SimTime,
    ) {
        if !self.cfg.record_trace {
            return;
        }
        let to_thread = match effect {
            Effect::RebufferStart | Effect::DropStreak => self.st.rend,
            Effect::Downswitch => self.st.net,
            Effect::Crash => self.st.ui,
        };
        let from_thread = match cause {
            Cause::LmkdKill | Cause::OomKill => m.lmkd_thread(),
            Cause::DirectReclaim | Cause::MajorFaultBurst | Cause::ZramThrash => {
                m.kswapd_thread()
            }
            Cause::DecoderOverload => self.st.dec,
            Cause::NetworkDip => self.st.net,
            Cause::Unattributed => to_thread,
        };
        m.trace.flow(
            format!("blame:{}->{}", cause.label(), effect.label()),
            cause_at,
            from_thread,
            at,
            to_thread,
        );
    }

    // ---- download path -------------------------------------------------

    fn maybe_start_download(&mut self, m: &Machine, server: &mut SegmentServer, now: SimTime) {
        if self.st.downloading
            || self.st.ended
            || self.st.next_seg >= self.manifest.n_segments()
            || !self.st.buffer.has_room_for(self.manifest.segment_seconds)
        {
            return;
        }
        let recent_drop_pct = self.recent_drop_pct(now);
        let ctx = AbrContext {
            manifest: &self.manifest,
            buffer_seconds: self.st.buffer.buffered_seconds(),
            buffer_capacity: self.cfg.buffer_secs,
            throughput_mbps: server.harmonic_throughput_mbps(3),
            trim_level: m.mm.trim_level(),
            recent_drop_pct,
            last: self.st.last_rep,
            screen_cap: self.cfg.device.screen_cap,
            next_segment: self.st.next_seg,
            last_download_secs: server
                .history()
                .last()
                .map(|r| (r.completed_at - r.started_at).as_secs_f64()),
        };
        let rep = self.abr.choose(&ctx);
        let bytes = self.manifest.segment_bytes(rep, self.st.next_seg, &mut self.st.rng);
        let done = server.request(now, bytes);
        self.st.events.push(done, Ev::SegArrived { rep, bytes });
        self.st.downloading = true;
        self.st.next_seg += 1;
    }

    fn on_segment_arrived(&mut self, m: &mut Machine, rep: Representation, bytes: u64) {
        // The transfer landed in socket buffers → JS heap pages.
        let pages = Pages::from_bytes(bytes);
        let out = m.alloc_for(self.st.net, self.st.pid, pages);
        if out.oom {
            // Couldn't hold the whole chunk: back off and retry — the
            // allocator stalls while reclaim/lmkd hunt for memory.
            m.free_for(self.st.pid, out.granted);
            self.st.oom_streak += 1;
            self.st.events.push(
                m.now() + SimDuration::from_millis(100),
                Ev::SegArrived { rep, bytes },
            );
            return;
        }
        self.st.oom_streak = 0;
        // Parsing/appending the chunk costs the network thread CPU.
        let parse_us = 250.0 + bytes as f64 / 1e6 * 400.0;
        m.push_work(self.st.net, parse_us, TAG_NETPARSE);
        self.st.buffer.push_segment(rep, bytes, self.manifest.segment_seconds);
        self.st.stats.segments_downloaded += 1;
        self.st.downloading = false;
        if let Some((t, ins)) = self.tele.as_mut() {
            t.metrics.inc(ins.segments, 1);
        }
        if self
            .st
            .rep_history
            .last()
            .map_or(true, |&(_, r)| r != rep)
        {
            // A representation change after the first segment is an ABR
            // quality switch — mark it on the trace timeline.
            if let Some(&(_, prev)) = self.st.rep_history.last() {
                m.trace.instant(
                    format!("quality_switch:{}@{}", rep.resolution, rep.fps.value()),
                    m.now(),
                    None,
                );
                if self.st.attr.enabled() && rep.bitrate_kbps < prev.bitrate_kbps {
                    let at = m.now();
                    let (cause, cause_at) = self.st.attr.attribute(at, Effect::Downswitch);
                    self.emit_blame_flow(m, cause, cause_at, Effect::Downswitch, at);
                }
                if let Some((t, ins)) = self.tele.as_mut() {
                    t.metrics.inc(ins.abr_switches, 1);
                }
            }
            self.st.rep_history.push((m.now(), rep));
        }
        if self.st.last_rep != Some(rep) {
            self.realloc_pipeline(m, rep);
        }
        self.st.last_rep = Some(rep);
        self.update_floors(m, rep);
        // Per-segment UI work (MSE bookkeeping, JS callbacks).
        m.push_work(self.st.ui, 2_000.0 * self.profile.render_cost_factor, TAG_UI);
    }

    // ---- decode path ----------------------------------------------------

    fn maybe_start_decode(&mut self, m: &mut Machine) {
        if self.st.decoding || self.st.ended || self.st.buffer.is_empty() {
            return;
        }
        // The *memory* surface pool is deep (see `memory_model`), but the
        // pipeline only decodes a few frames ahead of the playhead (triple-
        // buffering plus codec lookahead): stalls longer than this window
        // become visible as drops.
        const DECODE_AHEAD: usize = 4;
        if self.st.surfaces.len() >= DECODE_AHEAD {
            return;
        }
        let consumed = self.st.buffer.pop_frame().expect("buffer not empty");
        if consumed.freed_bytes > 0 {
            m.free_for(self.st.pid, Pages::from_bytes(consumed.freed_bytes));
        }

        if self.st.frames_owed > 0 {
            // Skip cheaply to hold 1× (already counted dropped at vsync).
            self.st.frames_owed -= 1;
            let mean = self.st.cost.mean_decode_us(
                consumed.rep,
                self.cfg.genre,
                &self.profile,
                self.cfg.device.video_accel,
            );
            m.push_work(self.st.dec, mean * 0.15, TAG_SKIP);
            self.st.decoding = true;
            return;
        }

        // Touch the encoded bytes for this frame (swap-ins cost us CPU).
        let frame_bytes =
            consumed.rep.bitrate_kbps as u64 * 1000 / 8 / consumed.rep.fps.value() as u64;
        m.touch_anon_for(self.st.dec, self.st.pid, Pages::from_bytes(frame_bytes.max(4096)));
        // Touch the decoder's code/JIT pages; evicted ones major-fault and
        // block us behind mmcqd (§5's dominant stall).
        let file_touch = if self.st.rng.chance(1.0 / 15.0) {
            Pages::new(150) // I-frame boundary: wider code/data excursion
        } else {
            Pages::new(20)
        };
        m.touch_file_for(self.st.dec, self.st.pid, file_touch);

        // Software decode writes each output frame into a heap buffer
        // rotated through the frame pool — at 60 FPS that is tens to
        // hundreds of MB/s transiting the allocator *on the decode thread*.
        // With free memory at the min watermark this is exactly the
        // direct-reclaim stall §2 warns about. Hardware decoders (the
        // ExoPlayer path) render into pre-pinned gralloc buffers instead.
        let scratch = if self.profile.decode_cost_factor < 0.4 {
            Pages::new(8)
        } else {
            memmod::frame_pages(consumed.rep.resolution)
        };
        let alloc = m.alloc_for(self.st.dec, self.st.pid, scratch);
        m.free_for(self.st.pid, alloc.granted);

        let decode_us = self.st.cost.sample_decode_us(
            consumed.rep,
            self.cfg.genre,
            &self.profile,
            self.cfg.device.video_accel,
            &mut self.st.rng,
        );
        if self.st.attr.enabled() && decode_us > consumed.rep.fps.frame_period_us() as f64 {
            // The decoder cannot keep up with the frame rate on raw CPU
            // cost alone — a client-side cause, distinct from pressure.
            self.st.attr.note_fact(m.now(), Cause::DecoderOverload, || {
                format!(
                    "decode {:.0} µs > {} µs frame period",
                    decode_us,
                    consumed.rep.fps.frame_period_us()
                )
            });
        }
        if let Some((t, ins)) = self.tele.as_mut() {
            t.metrics.observe(ins.decode_us, decode_us);
        }
        m.push_work(self.st.dec, decode_us, TAG_DECODE);
        self.st.decoding = true;
        // Remember which rep this surface belongs to (pushed on completion).
        self.st.pending_surface = Some(consumed.rep);
    }

    // ---- render path ----------------------------------------------------

    fn on_vsync(&mut self, m: &mut Machine, now: SimTime) {
        if self.st.ended {
            return;
        }
        if let Some(rep) = self.st.surfaces.pop_front() {
            self.end_stall(m, now);
            let period = SimDuration::from_micros(rep.fps.frame_period_us());
            // The composited frame must reach the display well inside the
            // frame period or the user sees a skipped frame.
            self.st.render_deadlines.push_back(now + period);
            m.push_work(self.st.rend, self.st.cost.render_us(rep, &self.profile), TAG_RENDER);
            self.st.last_period = period;
        } else if self.more_frames_coming() {
            self.st.stats.frames_dropped += 1;
            self.st.frames_owed += 1;
            self.st.drop_window.push_back((now, true));
            if self.st.attr.enabled() {
                self.st.attr.count_drop(now);
            }
            if let Some((t, ins)) = self.tele.as_mut() {
                t.metrics.inc(ins.frames_dropped, 1);
            }
            // A run of starved vsyncs is a visible stall — the paper's
            // rebuffering QoE dimension, distinct from isolated drops.
            if self.st.missed_streak == 0 {
                self.st.streak_started = Some(now);
            }
            self.st.missed_streak += 1;
            if self.st.missed_streak == DROP_STREAK && self.st.attr.enabled() {
                let at = self.st.streak_started.unwrap_or(now);
                let (cause, cause_at) = self.st.attr.attribute(at, Effect::DropStreak);
                self.emit_blame_flow(m, cause, cause_at, Effect::DropStreak, at);
            }
            if self.st.missed_streak == REBUFFER_STREAK {
                let at = self.st.streak_started.unwrap_or(now);
                self.st.stall_started = Some(at);
                m.trace.instant("rebuffer_start", at, Some(self.st.rend));
                if self.st.attr.enabled() {
                    let (cause, cause_at) = self.st.attr.open_stall(at);
                    self.emit_blame_flow(m, cause, cause_at, Effect::RebufferStart, at);
                }
                if let Some((t, ins)) = self.tele.as_mut() {
                    t.metrics.inc(ins.rebuffer_events, 1);
                }
            }
        }
        self.st.events.push(now + self.st.last_period, Ev::Vsync);
    }

    /// Close an open rebuffer stall (a surface made it to the display).
    fn end_stall(&mut self, m: &mut Machine, now: SimTime) {
        self.st.missed_streak = 0;
        self.st.streak_started = None;
        if let Some(start) = self.st.stall_started.take() {
            let stalled = now.saturating_since(start);
            self.st.stats.rebuffer_time += stalled;
            if self.st.attr.enabled() {
                // Charged at the same site that accumulates the stat, so
                // per-cause rebuffer sums match the session total exactly.
                self.st.attr.close_stall(stalled.as_micros());
            }
            m.trace.instant("rebuffer_end", now, Some(self.st.rend));
        }
    }

    fn on_completion(&mut self, m: &mut Machine, thread: ThreadId, tag: u64) {
        match tag {
            TAG_DECODE => {
                debug_assert_eq!(thread, self.st.dec);
                self.st.decoding = false;
                if let Some(rep) = self.st.pending_surface.take() {
                    self.st.surfaces.push_back(rep);
                }
                if !self.st.playback_started {
                    self.st.playback_started = true;
                    self.st.events.push(m.now(), Ev::Vsync);
                }
            }
            TAG_SKIP => {
                self.st.decoding = false;
            }
            TAG_RENDER => {
                let deadline = self.st.render_deadlines.pop_front();
                if deadline.is_some_and(|d| m.now() > d) {
                    // Composited too late: the vsync slot was missed.
                    self.st.stats.frames_dropped += 1;
                    self.st.drop_window.push_back((m.now(), true));
                    if self.st.attr.enabled() {
                        self.st.attr.count_drop(m.now());
                    }
                    if let Some((t, ins)) = self.tele.as_mut() {
                        t.metrics.inc(ins.frames_dropped, 1);
                        t.metrics.inc(ins.frames_late, 1);
                    }
                } else {
                    self.st.stats.frames_rendered += 1;
                    self.st.rendered_this_sec += 1;
                    self.st.drop_window.push_back((m.now(), false));
                    if let Some((t, ins)) = self.tele.as_mut() {
                        t.metrics.inc(ins.frames_rendered, 1);
                    }
                }
            }
            _ => {}
        }
    }

    // ---- bookkeeping ----------------------------------------------------

    fn more_frames_coming(&self) -> bool {
        !self.st.buffer.is_empty()
            || self.st.decoding
            || self.st.next_seg < self.manifest.n_segments()
            || self.st.downloading
    }

    fn check_end(&mut self, m: &Machine) {
        if self.st.ended {
            return;
        }
        if self.st.playback_started
            && self.st.surfaces.is_empty()
            && !self.more_frames_coming()
        {
            self.st.ended = true;
            self.st.stats.ended_at = m.now();
        }
    }

    fn recent_drop_pct(&mut self, now: SimTime) -> f64 {
        let horizon = SimTime(now.as_micros().saturating_sub(4_000_000));
        while self
            .st
            .drop_window
            .front()
            .is_some_and(|&(t, _)| t < horizon)
        {
            self.st.drop_window.pop_front();
        }
        if self.st.drop_window.is_empty() {
            return 0.0;
        }
        let drops = self.st.drop_window.iter().filter(|&&(_, d)| d).count();
        drops as f64 / self.st.drop_window.len() as f64 * 100.0
    }

    /// (Re)allocate the decoded-surface queue and codec state when the
    /// streamed representation changes — the resolution/frame-rate-
    /// dependent components of the paper's Fig. 8 PSS growth.
    fn realloc_pipeline(&mut self, m: &mut Machine, rep: Representation) {
        if !self.st.pipeline_pages.is_zero() {
            m.free_for(self.st.pid, self.st.pipeline_pages);
        }
        let depth = memmod::surface_depth(&self.profile, rep.fps);
        let pages = memmod::surface_queue_pages(rep.resolution, depth)
            + memmod::codec_state_pages(rep.resolution);
        let out = m.alloc_for(self.st.dec, self.st.pid, pages);
        self.st.pipeline_pages = out.granted;
    }

    fn update_floors(&mut self, m: &mut Machine, rep: Representation) {
        let hot =
            memmod::hot_anon_pages(&self.profile, rep, self.st.buffer.buffered_seconds());
        m.mm.set_floor(
            self.st.pid,
            hot,
            self.profile.base_file_resident.mul_f64(0.30),
        );
    }

    fn ui_housekeeping(&mut self, m: &mut Machine, now: SimTime) {
        if now >= self.st.next_ui_tick && !self.st.ended {
            self.st.next_ui_tick = now + SimDuration::from_millis(100);
            m.push_work(self.st.ui, 700.0 * self.profile.render_cost_factor, TAG_UI);
            // Startup heap ramp (~2.5 s to full footprint); shortfalls are
            // re-queued — the app blocks in the allocator under pressure.
            if !self.st.startup_remaining.is_zero() {
                let chunk = self
                    .profile
                    .base_anon
                    .mul_f64(0.04)
                    .min(self.st.startup_remaining);
                let out = m.alloc_for(self.st.ui, self.st.pid, chunk);
                self.st.startup_remaining -= out.granted.min(chunk);
                if out.oom {
                    self.st.oom_streak += 1;
                } else {
                    self.st.oom_streak = 0;
                }
            }
            // JS allocation churn: browsers allocate and collect tens of
            // MB/s while a page is live. With free memory to spare this is
            // invisible; under pressure every burst re-triggers reclaim —
            // the sustained kswapd activity §5 measures.
            let churn = self.profile.base_anon.mul_f64(0.018); // ≈ 3 MiB/100 ms
            let churned = m.alloc_for(self.st.ui, self.st.pid, churn);
            m.free_for(self.st.pid, churned.granted);
            // Periodic JS GC pause work.
            if self.st.rng.chance(0.012) {
                m.push_work(self.st.ui, 18_000.0 * self.profile.render_cost_factor, TAG_UI);
            }
        }
        if now >= self.st.next_floor_update {
            self.st.next_floor_update = now + SimDuration::from_millis(500);
            if let Some(rep) = self.st.last_rep {
                if !m.mm.proc(self.st.pid).dead {
                    self.update_floors(m, rep);
                }
            }
        }
    }

    fn sample(&mut self, m: &mut Machine) {
        let now = m.now();
        self.st.next_sample = now + SimDuration::from_secs(1);
        if !m.mm.proc(self.st.pid).dead {
            self.st.stats.pss_series.push(now, m.pss_mib(self.st.pid));
        }
        self.st.stats
            .fps_series
            .push(now, self.st.rendered_this_sec as f64);
        m.trace
            .counter("rendered_fps", now, self.st.rendered_this_sec as f64);
        self.st.rendered_this_sec = 0;

        self.st.kill_series.push(now, self.st.kills_this_sec as f64);
        self.st.kills_this_sec = 0;

        let lmkd_running = m.sched.times_of(m.lmkd_thread()).running;
        let delta = lmkd_running.saturating_sub(self.st.last_lmkd_running);
        self.st.last_lmkd_running = lmkd_running;
        let pct = delta.as_micros() as f64 / 1_000_000.0 * 100.0;
        self.st.lmkd_cpu_series.push(now, pct);
        m.trace.counter("lmkd_cpu_pct", now, pct);

        // Memory counter tracks for the Perfetto export: free pages and
        // zRAM occupancy, the two sides of the paper's reclaim story.
        m.trace.counter("free_mib", now, m.mm.free().mib());
        m.trace.counter("zram_mib", now, m.mm.zram_stored().mib());

        self.st.trim_series
            .push(now, m.mm.trim_level().severity() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvqoe_abr::FixedAbr;
    use mvqoe_video::Resolution;

    fn fixed(manifest_genre: Genre, res: Resolution, fps: Fps) -> FixedAbr {
        let m = Manifest::full_ladder(manifest_genre, 30.0);
        FixedAbr::new(m.representation(res, fps).unwrap())
    }

    fn short_cfg(
        device: DeviceProfile,
        pressure: PressureMode,
        secs: f64,
        seed: u64,
    ) -> SessionConfig {
        let mut cfg = SessionConfig::paper_default(device, pressure, seed);
        cfg.video_secs = secs;
        cfg
    }

    #[test]
    fn clean_playback_on_nexus5_480p30_normal() {
        let cfg = short_cfg(DeviceProfile::nexus5(), PressureMode::None, 24.0, 1);
        let mut abr = fixed(Genre::Travel, Resolution::R480p, Fps::F30);
        let out = run_session(&cfg, &mut abr);
        assert!(!out.stats.crashed(), "no crash at Normal");
        assert!(
            out.stats.drop_pct() < 2.0,
            "480p30 at Normal must be clean, got {:.1}% of {} frames",
            out.stats.drop_pct(),
            out.stats.frames_total()
        );
        // ≈ 24 s × 30 FPS frames presented.
        assert!(out.stats.frames_total() >= 700, "{}", out.stats.frames_total());
    }

    #[test]
    fn nokia1_1080p30_drops_even_at_normal() {
        let cfg = short_cfg(DeviceProfile::nokia1(), PressureMode::None, 24.0, 2);
        let mut abr = fixed(Genre::Travel, Resolution::R1080p, Fps::F30);
        let out = run_session(&cfg, &mut abr);
        assert!(
            out.stats.drop_pct() > 8.0 && out.stats.drop_pct() < 45.0,
            "paper anchors ≈19% at Normal; got {:.1}%",
            out.stats.drop_pct()
        );
    }

    #[test]
    fn moderate_pressure_hurts_nokia1_480p60() {
        let normal = {
            let cfg = short_cfg(DeviceProfile::nokia1(), PressureMode::None, 24.0, 3);
            let mut abr = fixed(Genre::Travel, Resolution::R480p, Fps::F60);
            run_session(&cfg, &mut abr).stats.drop_pct()
        };
        let moderate = {
            let cfg = short_cfg(
                DeviceProfile::nokia1(),
                PressureMode::Synthetic(TrimLevel::Moderate),
                24.0,
                3,
            );
            let mut abr = fixed(Genre::Travel, Resolution::R480p, Fps::F60);
            let out = run_session(&cfg, &mut abr);
            if out.stats.crashed() {
                100.0
            } else {
                out.stats.drop_pct()
            }
        };
        assert!(
            moderate > normal + 5.0,
            "moderate ({moderate:.1}%) must clearly exceed normal ({normal:.1}%)"
        );
    }

    #[test]
    fn pss_grows_with_resolution() {
        let pss_of = |res| {
            let cfg = short_cfg(DeviceProfile::nexus5(), PressureMode::None, 20.0, 4);
            let mut abr = fixed(Genre::Travel, res, Fps::F30);
            run_session(&cfg, &mut abr).stats.mean_pss_mib()
        };
        let low = pss_of(Resolution::R240p);
        let high = pss_of(Resolution::R1080p);
        assert!(
            high > low + 30.0,
            "PSS must grow with resolution: {low:.0} → {high:.0} MiB"
        );
    }

    #[test]
    fn session_is_deterministic_per_seed() {
        let run = || {
            let cfg = short_cfg(DeviceProfile::nexus5(), PressureMode::None, 16.0, 9);
            let mut abr = fixed(Genre::Travel, Resolution::R720p, Fps::F60);
            let out = run_session(&cfg, &mut abr);
            (out.stats.frames_rendered, out.stats.frames_dropped)
        };
        assert_eq!(run(), run());
    }
}
