//! Mergeable, memory-bounded aggregate state for the §3 fleet study.
//!
//! Holding one [`DeviceObservation`] per user until the end is fine at
//! the paper's 80 users and hopeless at provider scale. A
//! [`FleetAggregate`] instead folds users in as they are simulated and
//! merges across shards, keeping only what a §3 figure reads:
//!
//! * per-device **digests** (a dozen scalars each, capped at
//!   [`DEVICE_DIGEST_CAP`] devices) for the per-device figure series,
//! * exact **counters** for every headline fraction the figures report,
//! * a bounded **top-K heap** of the highest-pressure devices (Fig. 5
//!   needs their full available-memory histograms),
//! * a fixed **threshold ladder** of pooled transition counts and dwell
//!   multisets (Fig. 6's adaptive pooling, reduced to ten fixed bands).
//!
//! Every quantity is either an exact integer count or an exact f64
//! computed per device before folding — so a merge of shard aggregates
//! reproduces the single-pass result *byte for byte*, in any merge order
//! (the invariant `tests/aggregate_merge.rs` pins).

use crate::fleet_study::FleetConfig;
use crate::observation::{DeviceObservation, Hist};
use mvqoe_kernel::TrimLevel;
use mvqoe_workload::UsagePattern;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;

/// Most devices whose full digest is retained. Past this, per-device
/// series truncate (the figures at paper scale never get near it) while
/// counters, top-K and the Fig. 6 ladder stay exact or bounded.
pub const DEVICE_DIGEST_CAP: usize = 100_000;

/// Devices kept in the top-pressure heap (Fig. 5 reads the top 5; the
/// telemetry service's `/query/topk` serves up to all of them).
pub const TOP_PRESSURE_K: usize = 16;

/// Rungs in the Fig. 6 pooling ladder: thresholds `0.30 / 2^k`,
/// `k = 0..10` — exactly the sequence the original adaptive relaxation
/// loop could visit (it halves from 30% while fewer than 2 devices
/// qualify and the threshold is still above 0.1%).
pub const FIG6_LADDER: usize = 10;

/// The pooling thresholds the ladder bands correspond to, produced by the
/// same repeated halving as the original relaxation loop so the floats
/// are bit-identical.
pub fn fig6_thresholds() -> [f64; FIG6_LADDER] {
    let mut t = [0.0; FIG6_LADDER];
    let mut cur = 0.30;
    for slot in t.iter_mut() {
        *slot = cur;
        cur /= 2.0;
    }
    t
}

/// Everything the per-device figure series (Figs. 2–4) need about one kept
/// device, pre-computed with the exact same float operations
/// [`DeviceObservation`]'s accessors use.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceDigest {
    /// User index in the fleet (digests stay sorted by it).
    pub idx: u32,
    /// Device name.
    pub name: String,
    /// Manufacturer.
    pub manufacturer: String,
    /// RAM in MiB.
    pub ram_mib: u64,
    /// The user's survey answers (Fig. 1).
    pub pattern: UsagePattern,
    /// Total logged hours.
    pub total_hours: f64,
    /// Hours with the screen on.
    pub interactive_hours: f64,
    /// Median RAM utilization over interactive samples (Fig. 2).
    pub median_utilization: f64,
    /// Signals per logged hour by severity (Fig. 3).
    pub signals_per_hour: [f64; 4],
    /// All pressure signals per hour (`(s1+s2+s3)/hours`, the accessor
    /// [`DeviceObservation::total_signals_per_hour`] reports).
    pub total_signals_per_hour: f64,
    /// Fraction of logged time per severity (Fig. 4).
    pub time_fractions: [f64; 4],
    /// Fraction of time out of Normal.
    pub pressure_time_fraction: f64,
}

impl DeviceDigest {
    /// Digest one observed device.
    pub fn of(idx: u32, obs: &DeviceObservation) -> DeviceDigest {
        DeviceDigest {
            idx,
            name: obs.name.clone(),
            manufacturer: obs.manufacturer.clone(),
            ram_mib: obs.ram_mib,
            pattern: obs.pattern,
            total_hours: obs.total_hours,
            interactive_hours: obs.interactive_hours,
            median_utilization: obs.median_utilization(),
            signals_per_hour: [
                obs.signals_per_hour(TrimLevel::Normal),
                obs.signals_per_hour(TrimLevel::Moderate),
                obs.signals_per_hour(TrimLevel::Low),
                obs.signals_per_hour(TrimLevel::Critical),
            ],
            total_signals_per_hour: obs.total_signals_per_hour(),
            time_fractions: [
                obs.time_fraction(TrimLevel::Normal),
                obs.time_fraction(TrimLevel::Moderate),
                obs.time_fraction(TrimLevel::Low),
                obs.time_fraction(TrimLevel::Critical),
            ],
            pressure_time_fraction: obs.pressure_time_fraction(),
        }
    }
}

/// One of the highest-pressure devices, with the full available-memory
/// histograms Fig. 5 plots.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopDevice {
    /// User index.
    pub idx: u32,
    /// Device name.
    pub name: String,
    /// RAM in MiB.
    pub ram_mib: u64,
    /// Fraction of time out of Normal (the selection key).
    pub pressure_time_fraction: f64,
    /// Available-memory (MiB) histogram per severity.
    pub avail_by_state: Vec<Hist>,
}

impl TopDevice {
    /// Selection order: whether a device of user `idx` with pressure
    /// fraction `frac` ranks above `self` — highest pressure fraction
    /// first, ties to the lower user index, exactly what a stable
    /// descending sort over devices in index order produces.
    fn beaten_by(&self, frac: f64, idx: u32) -> bool {
        match frac
            .partial_cmp(&self.pressure_time_fraction)
            .expect("NaN pressure fraction")
        {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => idx < self.idx,
        }
    }
}

/// A multiset of integral dwell durations (seconds), stored as sorted
/// `(value, count)` pairs. Dwells are sample-count differences, so they
/// are exact integers; counting them lets pooled percentiles reproduce
/// `stats::percentile` over the expanded list without storing it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DwellCounts {
    /// `(dwell seconds, occurrences)`, ascending by value.
    pub pairs: Vec<(u64, u64)>,
}

impl DwellCounts {
    /// Total dwells counted.
    pub fn n(&self) -> u64 {
        self.pairs.iter().map(|&(_, c)| c).sum()
    }

    /// Count one device's dwell list in.
    pub fn absorb(&mut self, dwells: &[f64]) {
        let mut local: BTreeMap<u64, u64> = BTreeMap::new();
        for &d in dwells {
            debug_assert_eq!(d.fract(), 0.0, "dwells are whole seconds");
            *local.entry(d as u64).or_insert(0) += 1;
        }
        self.merge_pairs(local.into_iter());
    }

    /// Merge another multiset in.
    pub fn merge(&mut self, other: &DwellCounts) {
        self.merge_pairs(other.pairs.iter().copied());
    }

    fn merge_pairs(&mut self, other: impl Iterator<Item = (u64, u64)>) {
        let mut merged = Vec::with_capacity(self.pairs.len());
        let mut mine = std::mem::take(&mut self.pairs).into_iter().peekable();
        let mut theirs = other.peekable();
        loop {
            match (mine.peek(), theirs.peek()) {
                (Some(&(a, _)), Some(&(b, _))) if a == b => {
                    let (v, c1) = mine.next().unwrap();
                    let (_, c2) = theirs.next().unwrap();
                    merged.push((v, c1 + c2));
                }
                (Some(&(a, _)), Some(&(b, _))) => {
                    merged.push(if a < b {
                        mine.next().unwrap()
                    } else {
                        theirs.next().unwrap()
                    });
                }
                (Some(_), None) => merged.push(mine.next().unwrap()),
                (None, Some(_)) => merged.push(theirs.next().unwrap()),
                (None, None) => break,
            }
        }
        self.pairs = merged;
    }

    /// Linear-interpolated percentile over the expanded multiset —
    /// bit-identical to `stats::percentile` over the flattened dwell list
    /// (the values are integers, so sorting order has no float ties to
    /// worry about).
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let (lo_v, hi_v) = (self.value_at(lo), self.value_at(hi));
        if lo == hi {
            lo_v as f64
        } else {
            let frac = rank - lo as f64;
            lo_v as f64 * (1.0 - frac) + hi_v as f64 * frac
        }
    }

    /// The value at zero-based position `pos` of the sorted expansion.
    fn value_at(&self, pos: u64) -> u64 {
        let mut seen = 0u64;
        for &(v, c) in &self.pairs {
            seen += c;
            if seen > pos {
                return v;
            }
        }
        self.pairs.last().map_or(0, |&(v, _)| v)
    }
}

/// Pooled state for one rung of the Fig. 6 threshold ladder: devices whose
/// pressure-time fraction lands in `(thresholds[k], thresholds[k-1]]`.
/// The pool *at* threshold `k` is the union of bands `0..=k`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PooledBand {
    /// Devices in this band.
    pub devices: u64,
    /// Summed transition counts `[from][to]`.
    pub transitions: [[u64; 4]; 4],
    /// Pooled dwell multisets per state.
    pub dwells: [DwellCounts; 4],
}

impl PooledBand {
    fn new() -> PooledBand {
        PooledBand {
            devices: 0,
            transitions: [[0; 4]; 4],
            dwells: Default::default(),
        }
    }

    fn absorb_device(&mut self, obs: &DeviceObservation) {
        self.devices += 1;
        for (row, orow) in self.transitions.iter_mut().zip(&obs.transitions) {
            for (c, oc) in row.iter_mut().zip(orow) {
                *c += oc;
            }
        }
        for (d, od) in self.dwells.iter_mut().zip(&obs.dwells) {
            d.absorb(od);
        }
    }

    fn merge(&mut self, other: &PooledBand) {
        self.devices += other.devices;
        for (row, orow) in self.transitions.iter_mut().zip(&other.transitions) {
            for (c, oc) in row.iter_mut().zip(orow) {
                *c += oc;
            }
        }
        for (d, od) in self.dwells.iter_mut().zip(&other.dwells) {
            d.merge(od);
        }
    }
}

/// The Fig. 6 pool after adaptive threshold selection.
#[derive(Debug, Clone)]
pub struct Fig6Pool {
    /// The pressure-time threshold that ended the relaxation.
    pub threshold: f64,
    /// Devices pooled (out of Normal more than `threshold` of the time).
    pub devices: u64,
    /// Summed transition counts across the pool.
    pub transitions: [[u64; 4]; 4],
    /// Pooled dwell multisets per state.
    pub dwells: [DwellCounts; 4],
}

impl Fig6Pool {
    /// Pooled probability of moving to `to` given a departure from `from`.
    pub fn transition_prob(&self, from: TrimLevel, to: TrimLevel) -> f64 {
        let row = &self.transitions[from.severity()];
        let row_total: u64 = row.iter().sum();
        if row_total == 0 {
            0.0
        } else {
            row[to.severity()] as f64 / row_total as f64
        }
    }

    /// Pooled dwell-time percentile in `state`.
    pub fn dwell_percentile(&self, state: TrimLevel, p: f64) -> f64 {
        self.dwells[state.severity()].percentile(p)
    }
}

/// Exact counters behind every headline fraction in Figs. 2–4, evaluated
/// per device at fold time with the same predicates (and the same float
/// arithmetic) the figure extraction used over materialized vectors.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FractionCounters {
    /// Median utilization ≥ 60% (Fig. 2).
    pub util_ge_60: u64,
    /// Median utilization > 75% (Fig. 2).
    pub util_gt_75: u64,
    /// ≥ 1 signal/hour, summing the three per-level f64 rates (Fig. 3).
    pub signals_ge_1: u64,
    /// > 10 Critical signals/hour (Fig. 3).
    pub crit_gt_10: u64,
    /// > 70 signals/hour (Fig. 3).
    pub total_gt_70: u64,
    /// ≥ 2% of time in Moderate (Fig. 4).
    pub moderate_ge_2pct: u64,
    /// > 4% of time in Critical (Fig. 4).
    pub critical_gt_4pct: u64,
    /// ≥ 2% of time out of Normal (Fig. 4 / Table 1).
    pub pressure_ge_2pct: u64,
}

impl FractionCounters {
    fn add(&mut self, other: &FractionCounters) {
        self.util_ge_60 += other.util_ge_60;
        self.util_gt_75 += other.util_gt_75;
        self.signals_ge_1 += other.signals_ge_1;
        self.crit_gt_10 += other.crit_gt_10;
        self.total_gt_70 += other.total_gt_70;
        self.moderate_ge_2pct += other.moderate_ge_2pct;
        self.critical_gt_4pct += other.critical_gt_4pct;
        self.pressure_ge_2pct += other.pressure_ge_2pct;
    }
}

/// Streaming fleet state: everything §3 needs, in memory bounded by the
/// digest cap rather than by fleet size.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) so the
/// attribution totals only appear in the serialized form once something
/// has actually been attributed — keeping every artifact produced without
/// attribution byte-identical to what it was before the fields existed.
#[derive(Debug, Clone)]
pub struct FleetAggregate {
    /// Users folded in so far (recruited, before cleaning).
    pub recruited: u32,
    /// Devices that passed the cleaning rule.
    pub kept: u64,
    /// `(user index, logged hours)` per recruited user, ascending by
    /// index. Kept so the fleet's total-hours sum runs left-to-right in
    /// user order at finalize — f64 addition is order-sensitive, and this
    /// reproduces the unsharded sum bit-for-bit at any shard count.
    pub hours: Vec<(u32, f64)>,
    /// Digests of kept devices, ascending by index, truncated to the
    /// [`DEVICE_DIGEST_CAP`] lowest indices.
    pub digests: Vec<DeviceDigest>,
    /// Fig. 1 rating histograms: `[activity][rating-1]` over kept devices
    /// (games, music, videos, multitask >1, multitask >2).
    pub fig1: [[u32; 5]; 5],
    /// Exact headline-fraction counters.
    pub counters: FractionCounters,
    /// Top-[`TOP_PRESSURE_K`] devices by pressure-time fraction
    /// (descending, ties to the lower index).
    pub top: Vec<TopDevice>,
    /// The Fig. 6 pooling ladder, one band per threshold rung.
    pub bands: Vec<PooledBand>,
    /// Per-cause rebuffer microseconds from sessions that ran with causal
    /// attribution, summed across folded reports (indexed by the core
    /// crate's `Cause::index`). Empty until the first report arrives.
    pub attr_rebuffer_us: Vec<u64>,
    /// Per-cause dropped-frame counts, same indexing and lifecycle.
    pub attr_drops: Vec<u64>,
}

impl FleetAggregate {
    /// An empty aggregate.
    pub fn new() -> FleetAggregate {
        FleetAggregate {
            recruited: 0,
            kept: 0,
            hours: Vec::new(),
            digests: Vec::new(),
            fig1: [[0; 5]; 5],
            counters: FractionCounters::default(),
            top: Vec::new(),
            bands: (0..FIG6_LADDER).map(|_| PooledBand::new()).collect(),
            attr_rebuffer_us: Vec::new(),
            attr_drops: Vec::new(),
        }
    }

    /// Fold one session's per-cause attribution totals in (exact integer
    /// sums, so folding is associative and order-insensitive).
    pub fn absorb_attribution(&mut self, rebuffer_us: &[u64], drops: &[u64]) {
        add_elementwise(&mut self.attr_rebuffer_us, rebuffer_us);
        add_elementwise(&mut self.attr_drops, drops);
    }

    /// Whether any attribution totals have been folded in.
    pub fn has_attribution(&self) -> bool {
        self.attr_rebuffer_us.iter().any(|&v| v != 0)
            || self.attr_drops.iter().any(|&v| v != 0)
    }

    /// Whether every kept device still has its digest (the exact regime).
    pub fn digests_complete(&self) -> bool {
        self.kept as usize == self.digests.len()
    }

    /// Total logged hours across recruited devices, summed in user order.
    pub fn total_hours(&self) -> f64 {
        self.hours.iter().map(|(_, h)| h).sum()
    }

    /// Fold one simulated user in. Calls must come in ascending user-index
    /// order within an aggregate (shards are contiguous index ranges, so
    /// this is the natural order anyway).
    pub fn fold(&mut self, cfg: &FleetConfig, idx: u32, obs: &DeviceObservation, hours: f64) {
        if let Some(&(last, _)) = self.hours.last() {
            assert!(idx > last, "users must fold in ascending index order");
        }
        self.recruited += 1;
        self.hours.push((idx, hours));
        if obs.interactive_hours <= cfg.min_interactive_hours {
            return; // cleaned out
        }
        self.kept += 1;

        let digest = DeviceDigest::of(idx, obs);

        // Fig. 1: survey answers round into rating buckets 1–5.
        let answers = [
            obs.pattern.games,
            obs.pattern.music,
            obs.pattern.videos,
            obs.pattern.multitask_1,
            obs.pattern.multitask_2,
        ];
        for (hist, v) in self.fig1.iter_mut().zip(answers) {
            let r = v.round().clamp(1.0, 5.0) as usize;
            hist[r - 1] += 1;
        }

        // Headline-fraction counters, with the figure extraction's exact
        // predicates. Fig. 3's "total rate" sums the three per-level f64
        // rates (not the integer signal counts), so replicate that sum.
        let c = &mut self.counters;
        let fig3_total =
            digest.signals_per_hour[1] + digest.signals_per_hour[2] + digest.signals_per_hour[3];
        c.util_ge_60 += (digest.median_utilization >= 60.0) as u64;
        c.util_gt_75 += (digest.median_utilization > 75.0) as u64;
        c.signals_ge_1 += (fig3_total >= 1.0) as u64;
        c.crit_gt_10 += (digest.signals_per_hour[3] > 10.0) as u64;
        c.total_gt_70 += (fig3_total > 70.0) as u64;
        c.moderate_ge_2pct += (digest.time_fractions[1] * 100.0 >= 2.0) as u64;
        c.critical_gt_4pct += (digest.time_fractions[3] * 100.0 > 4.0) as u64;
        c.pressure_ge_2pct += (digest.pressure_time_fraction * 100.0 >= 2.0) as u64;

        // Top-K candidacy: the entry, with its name and Fig. 5 histograms,
        // is only built for a device that makes the cut.
        self.offer_top(digest.pressure_time_fraction, idx, || TopDevice {
            idx,
            name: obs.name.clone(),
            ram_mib: obs.ram_mib,
            pressure_time_fraction: digest.pressure_time_fraction,
            avail_by_state: obs.avail_by_state.clone(),
        });

        // Fig. 6 ladder: the device lands in the band of the highest
        // threshold its pressure fraction strictly exceeds.
        let thresholds = fig6_thresholds();
        if let Some(k) = thresholds
            .iter()
            .position(|&t| digest.pressure_time_fraction > t)
        {
            self.bands[k].absorb_device(obs);
        }

        if self.digests.len() < DEVICE_DIGEST_CAP {
            self.digests.push(digest);
        }
    }

    /// Fold one user in regardless of arrival order — the live-ingest
    /// path, where 1 Hz report streams finish in whatever order the
    /// network delivers them. An index extending the current frontier
    /// takes [`FleetAggregate::fold`]'s O(1) append fast path; an
    /// out-of-order arrival folds into a fresh single-device aggregate
    /// and merges in. The merge algebra is associative and
    /// order-insensitive over disjoint index sets, so any interleaving
    /// is byte-identical to the ascending fold.
    pub fn fold_unordered(
        &mut self,
        cfg: &FleetConfig,
        idx: u32,
        obs: &DeviceObservation,
        hours: f64,
    ) {
        match self.hours.last() {
            Some(&(last, _)) if idx <= last => {
                assert!(
                    self.hours.binary_search_by_key(&idx, |&(i, _)| i).is_err(),
                    "user {idx} folded twice"
                );
                let mut one = FleetAggregate::new();
                one.fold(cfg, idx, obs, hours);
                self.absorb(one);
            }
            _ => self.fold(cfg, idx, obs, hours),
        }
    }

    /// Offer the device of user `idx` with pressure fraction `frac` to the
    /// top-K list; `entry` builds its record only if it makes the cut.
    fn offer_top(&mut self, frac: f64, idx: u32, entry: impl FnOnce() -> TopDevice) {
        if self.top.len() >= TOP_PRESSURE_K
            && !self.top.last().expect("non-empty").beaten_by(frac, idx)
        {
            return;
        }
        let pos = self
            .top
            .iter()
            .position(|t| t.beaten_by(frac, idx))
            .unwrap_or(self.top.len());
        self.top.insert(pos, entry());
        self.top.truncate(TOP_PRESSURE_K);
    }

    /// Merge another shard's aggregate in. The two aggregates must cover
    /// disjoint user-index sets; the merge is associative and
    /// order-insensitive, so shards can combine in any tree shape.
    pub fn merge(&mut self, other: &FleetAggregate) {
        self.merge_totals(other);
        self.hours = merge_by_idx(
            std::mem::take(&mut self.hours),
            other.hours.iter().copied(),
            |&(i, _)| i,
            usize::MAX,
        );
        self.digests = merge_by_idx(
            std::mem::take(&mut self.digests),
            other.digests.iter().cloned(),
            |d| d.idx,
            DEVICE_DIGEST_CAP,
        );
        for cand in &other.top {
            self.offer_top(cand.pressure_time_fraction, cand.idx, || cand.clone());
        }
    }

    /// Consuming counterpart of [`FleetAggregate::merge`]: byte-identical
    /// result, but moves `other`'s per-device records instead of cloning
    /// them. Shard fan-in merges dozens of owned aggregates; cloning every
    /// digest (two `String`s each) on every merge made fan-in quadratic in
    /// allocations, and this is what the sharded runners use instead.
    pub fn absorb(&mut self, other: FleetAggregate) {
        self.merge_totals(&other);
        self.hours = merge_by_idx(
            std::mem::take(&mut self.hours),
            other.hours,
            |&(i, _)| i,
            usize::MAX,
        );
        self.digests = merge_by_idx(
            std::mem::take(&mut self.digests),
            other.digests,
            |d| d.idx,
            DEVICE_DIGEST_CAP,
        );
        for cand in other.top {
            self.offer_top(cand.pressure_time_fraction, cand.idx, || cand);
        }
    }

    /// The part of a merge that adds counts and bands, which
    /// [`FleetAggregate::merge`] and [`FleetAggregate::absorb`] share.
    fn merge_totals(&mut self, other: &FleetAggregate) {
        self.recruited += other.recruited;
        self.kept += other.kept;
        for (hist, ohist) in self.fig1.iter_mut().zip(&other.fig1) {
            for (c, oc) in hist.iter_mut().zip(ohist) {
                *c += oc;
            }
        }
        self.counters.add(&other.counters);
        for (band, oband) in self.bands.iter_mut().zip(&other.bands) {
            band.merge(oband);
        }
        add_elementwise(&mut self.attr_rebuffer_us, &other.attr_rebuffer_us);
        add_elementwise(&mut self.attr_drops, &other.attr_drops);
    }

    /// Resolve Fig. 6's adaptive pooling over the ladder: start at the 30%
    /// rung and take union with the next band while fewer than two devices
    /// qualify — the same walk the original relaxation loop (halve while
    /// `pooled < 2 && threshold > 0.001`) performs over materialized
    /// device lists.
    pub fn fig6_pool(&self) -> Fig6Pool {
        let thresholds = fig6_thresholds();
        let mut k = 0;
        let mut count = self.bands[0].devices;
        while count < 2 && k + 1 < FIG6_LADDER {
            k += 1;
            count += self.bands[k].devices;
        }
        let mut pooled = PooledBand::new();
        for band in &self.bands[..=k] {
            pooled.merge(band);
        }
        Fig6Pool {
            threshold: thresholds[k],
            devices: pooled.devices,
            transitions: pooled.transitions,
            dwells: pooled.dwells,
        }
    }
}

impl Default for FleetAggregate {
    fn default() -> Self {
        FleetAggregate::new()
    }
}

/// `a[i] += b[i]`, growing `a` with zeros to `b`'s length first.
fn add_elementwise(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

// Hand-written so the attribution fields stay *absent* from the
// serialized map until something has been attributed: committed
// artifacts embedding an aggregate (the telemetry service results, fleet
// checkpoints) are byte-identical to their pre-attribution form whenever
// attribution is off. Field order mirrors declaration order, exactly as
// the derive would emit.
impl Serialize for FleetAggregate {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        let attributed = self.has_attribution();
        s.begin_map(if attributed { 10 } else { 8 });
        s.entry("recruited", &self.recruited);
        s.entry("kept", &self.kept);
        s.entry("hours", &self.hours);
        s.entry("digests", &self.digests);
        s.entry("fig1", &self.fig1);
        s.entry("counters", &self.counters);
        s.entry("top", &self.top);
        s.entry("bands", &self.bands);
        if attributed {
            s.entry("attr_rebuffer_us", &self.attr_rebuffer_us);
            s.entry("attr_drops", &self.attr_drops);
        }
        s.end_map();
    }
}

impl Deserialize for FleetAggregate {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::de::Error> {
        use serde::de::{set, take};
        let mut recruited = None;
        let mut kept = None;
        let mut hours = None;
        let mut digests = None;
        let mut fig1 = None;
        let mut counters = None;
        let mut top = None;
        let mut bands = None;
        let mut attr_rebuffer_us = None;
        let mut attr_drops = None;
        d.begin_map()?;
        while let Some(k) = d.next_key()? {
            match k {
                "recruited" => set(&mut recruited, d, "recruited")?,
                "kept" => set(&mut kept, d, "kept")?,
                "hours" => set(&mut hours, d, "hours")?,
                "digests" => set(&mut digests, d, "digests")?,
                "fig1" => set(&mut fig1, d, "fig1")?,
                "counters" => set(&mut counters, d, "counters")?,
                "top" => set(&mut top, d, "top")?,
                "bands" => set(&mut bands, d, "bands")?,
                "attr_rebuffer_us" => set(&mut attr_rebuffer_us, d, "attr_rebuffer_us")?,
                "attr_drops" => set(&mut attr_drops, d, "attr_drops")?,
                // Skipping unknown members keeps v3 shard checkpoints
                // that still carry a `sketches` member loadable.
                _ => d.skip()?,
            }
        }
        Ok(FleetAggregate {
            recruited: take(recruited, "recruited", "FleetAggregate")?,
            kept: take(kept, "kept", "FleetAggregate")?,
            hours: take(hours, "hours", "FleetAggregate")?,
            digests: take(digests, "digests", "FleetAggregate")?,
            fig1: take(fig1, "fig1", "FleetAggregate")?,
            counters: take(counters, "counters", "FleetAggregate")?,
            top: take(top, "top", "FleetAggregate")?,
            bands: take(bands, "bands", "FleetAggregate")?,
            // The attribution fields default to empty when absent, so
            // pre-attribution serialized aggregates keep loading.
            attr_rebuffer_us: attr_rebuffer_us.unwrap_or_default(),
            attr_drops: attr_drops.unwrap_or_default(),
        })
    }
}

/// Merge two index-sorted lists over disjoint index sets, keeping at most
/// `cap` lowest-index entries. Dropping only ever happens past `cap`, and
/// the global lowest-`cap` set is a subset of each side's lowest-`cap`
/// set, so capping per shard first loses nothing — which is what makes
/// the merge associative.
fn merge_by_idx<T>(
    mut mine: Vec<T>,
    theirs: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> u32,
    cap: usize,
) -> Vec<T> {
    let mut b = theirs.into_iter().peekable();
    // Contiguous shards absorbed in order: every incoming index follows
    // the last one held, so the merge is an append in place.
    let appends = match (mine.last(), b.peek()) {
        (Some(x), Some(y)) => key(x) < key(y),
        _ => true,
    };
    if appends {
        mine.extend(b.take(cap.saturating_sub(mine.len())));
        mine.truncate(cap);
        return mine;
    }
    let mut out = Vec::with_capacity((mine.len() + b.size_hint().0).min(cap));
    let mut a = mine.into_iter().peekable();
    while out.len() < cap {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                debug_assert_ne!(key(x), key(y), "aggregates must cover disjoint users");
                if key(x) < key(y) {
                    out.push(a.next().unwrap());
                } else {
                    out.push(b.next().unwrap());
                }
            }
            (Some(_), None) => out.push(a.next().unwrap()),
            (None, Some(_)) => out.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_the_halving_loop() {
        let t = fig6_thresholds();
        assert_eq!(t[0], 0.30);
        let mut cur = 0.30;
        for &x in &t {
            assert_eq!(x, cur);
            cur /= 2.0;
        }
        // The rung below 0.1% is the last one the loop could reach.
        assert!(t[FIG6_LADDER - 2] > 0.001);
        assert!(t[FIG6_LADDER - 1] <= 0.001);
    }

    #[test]
    fn dwell_counts_match_stats_percentile() {
        let dwells: Vec<f64> = vec![5.0, 1.0, 9.0, 1.0, 3.0, 120.0, 3.0, 3.0];
        let mut counts = DwellCounts::default();
        counts.absorb(&dwells);
        assert_eq!(counts.n(), 8);
        for p in [0.0, 10.0, 25.0, 50.0, 66.7, 75.0, 90.0, 100.0] {
            assert_eq!(
                counts.percentile(p),
                mvqoe_sim::stats::percentile(&dwells, p),
                "p{p}"
            );
        }
        assert_eq!(DwellCounts::default().percentile(75.0), 0.0);
    }

    #[test]
    fn dwell_merge_equals_bulk_absorb() {
        let (a, b): (Vec<f64>, Vec<f64>) = (vec![2.0, 7.0, 2.0], vec![7.0, 1.0]);
        let mut split = DwellCounts::default();
        split.absorb(&a);
        let mut right = DwellCounts::default();
        right.absorb(&b);
        split.merge(&right);
        let mut bulk = DwellCounts::default();
        bulk.absorb(&[a, b].concat());
        assert_eq!(split.pairs, bulk.pairs);
    }

    #[test]
    fn attribution_fields_stay_absent_until_attributed() {
        let agg = FleetAggregate::new();
        let v = serde::to_value(&agg);
        assert!(
            v.get("attr_rebuffer_us").is_none() && v.get("attr_drops").is_none(),
            "zero-attribution aggregates must serialize without attr keys"
        );
        // Absent fields load as empty — pre-attribution artifacts keep
        // deserializing.
        let back = serde::from_value::<FleetAggregate>(&v).unwrap();
        assert!(!back.has_attribution());

        let mut agg = FleetAggregate::new();
        agg.absorb_attribution(&[5, 0, 0], &[0, 2]);
        let v = serde::to_value(&agg);
        let back = serde::from_value::<FleetAggregate>(&v).unwrap();
        assert_eq!(back.attr_rebuffer_us, vec![5, 0, 0]);
        assert_eq!(back.attr_drops, vec![0, 2]);
        assert!(back.has_attribution());

        // Merge grows and adds elementwise.
        let mut other = FleetAggregate::new();
        other.absorb_attribution(&[1, 1, 1, 1], &[1]);
        agg.merge(&other);
        assert_eq!(agg.attr_rebuffer_us, vec![6, 1, 1, 1]);
        assert_eq!(agg.attr_drops, vec![1, 2]);
    }

    #[test]
    fn top_heap_orders_by_fraction_then_index() {
        let mut agg = FleetAggregate::new();
        let dev = |idx: u32, frac: f64| TopDevice {
            idx,
            name: format!("d{idx}"),
            ram_mib: 1024,
            pressure_time_fraction: frac,
            avail_by_state: Vec::new(),
        };
        for (idx, frac) in [(3, 0.2), (1, 0.5), (2, 0.5), (0, 0.1)] {
            agg.offer_top(frac, idx, || dev(idx, frac));
        }
        let order: Vec<u32> = agg.top.iter().map(|t| t.idx).collect();
        assert_eq!(order, vec![1, 2, 3, 0], "ties keep the lower index first");
    }
}
