//! Processes as the memory manager sees them.
//!
//! Android classifies processes into priority groups and assigns each an
//! `oom_adj` score — low-priority (cached/empty) processes get high scores
//! and are killed first (§2, "Killing of processes"). This module models a
//! process's memory footprint (resident anonymous pages, pages swapped to
//! zRAM, resident file-backed pages and the file working-set they belong
//! to) plus the priority metadata lmkd and the trim-signal logic need.

use crate::pages::Pages;
use mvqoe_sim::SimTime;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// Identifier for a simulated process.
///
/// Ids are handed out by a monotone counter and **never reused** — the id
/// itself is the generation. The manager's slab arena maps ids to record
/// slots; a retired id resolves to a dead tombstone, never to a later
/// process that recycled the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u32);

/// A process name, interned where possible so the fleet's spawn/respawn
/// churn never allocates. The hottest spawners (app launches, service
/// respawns) name processes `"{prefix}@{time}"`; [`ProcName::AtTime`] holds
/// the two parts and materializes the string only when something actually
/// reads the name (event/trace paths, serialization).
#[derive(Debug, Clone, PartialEq)]
pub enum ProcName {
    /// A literal name, no allocation.
    Static(&'static str),
    /// An owned string (cold paths, deserialized snapshots).
    Owned(String),
    /// Lazily materialized `"{prefix}@{at}"` (spawn-time stamped names).
    AtTime {
        /// The part before the `@`.
        prefix: &'static str,
        /// The spawn time stamped after the `@`.
        at: SimTime,
    },
}

impl ProcName {
    /// Whether this name materializes to exactly `s`. Allocation-free for
    /// the interned variants; `AtTime` compares the two halves in place.
    pub fn is(&self, s: &str) -> bool {
        match self {
            ProcName::Static(t) => *t == s,
            ProcName::Owned(t) => t == s,
            ProcName::AtTime { prefix, at } => s
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix('@'))
                .is_some_and(|rest| rest == at.to_string()),
        }
    }
}

impl fmt::Display for ProcName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcName::Static(s) => f.write_str(s),
            ProcName::Owned(s) => f.write_str(s),
            ProcName::AtTime { prefix, at } => write!(f, "{prefix}@{at}"),
        }
    }
}

impl From<&'static str> for ProcName {
    fn from(s: &'static str) -> ProcName {
        ProcName::Static(s)
    }
}

impl From<String> for ProcName {
    fn from(s: String) -> ProcName {
        ProcName::Owned(s)
    }
}

impl PartialEq<&str> for ProcName {
    fn eq(&self, other: &&str) -> bool {
        self.is(other)
    }
}

impl PartialEq<str> for ProcName {
    fn eq(&self, other: &str) -> bool {
        self.is(other)
    }
}

// Names serialize as the materialized string, so snapshots are unchanged by
// the interning and round-trip through the `Owned` variant.
impl Serialize for ProcName {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        s.str(&self.to_string());
    }
}

impl Deserialize for ProcName {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, serde::de::Error> {
        String::deserialize(d).map(ProcName::Owned)
    }
}

/// Android-style process priority classes, ordered hot → cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProcKind {
    /// Core system processes (system_server, surfaceflinger). Never killed.
    System,
    /// Persistent apps (phone, launcher shell). Effectively never killed.
    Persistent,
    /// The app the user is interacting with — the video client in our
    /// experiments. Killable only at `P ≥ 95`.
    Foreground,
    /// Visible-but-not-focused apps and bound services.
    Visible,
    /// Started services doing background work.
    Service,
    /// The previous app, kept warm for fast switching.
    Previous,
    /// Cached (backgrounded) apps — first in line for lmkd.
    Cached,
}

impl ProcKind {
    /// The classic `oom_adj` score Android associates with this class.
    pub fn default_oom_adj(self) -> OomAdj {
        match self {
            ProcKind::System => OomAdj(-16),
            ProcKind::Persistent => OomAdj(-12),
            ProcKind::Foreground => OomAdj(0),
            ProcKind::Visible => OomAdj(1),
            ProcKind::Service => OomAdj(5),
            ProcKind::Previous => OomAdj(7),
            ProcKind::Cached => OomAdj(9),
        }
    }

    /// Whether this process counts toward the cached/empty LRU that drives
    /// `onTrimMemory` levels (paper §2, footnote 6).
    pub fn counts_as_cached(self) -> bool {
        matches!(self, ProcKind::Cached | ProcKind::Previous)
    }

    /// Reclaim "coldness": kswapd prefers stealing pages from colder
    /// processes. Higher = colder = reclaimed first.
    pub fn reclaim_order(self) -> u8 {
        match self {
            ProcKind::Cached => 6,
            ProcKind::Previous => 5,
            ProcKind::Service => 4,
            ProcKind::Visible => 3,
            ProcKind::Persistent => 2,
            ProcKind::Foreground => 1,
            ProcKind::System => 0,
        }
    }
}

/// An `oom_adj` badness score. Higher means killed earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OomAdj(pub i8);

/// Memory-accounting state for one process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemProcess {
    /// Stable identifier.
    pub id: ProcessId,
    /// Display name ("firefox", "kswapd0", "com.example.bg3", …).
    pub name: ProcName,
    /// Priority class.
    pub kind: ProcKind,
    /// Kill-priority score (defaults from `kind`, adjustable).
    pub oom_adj: OomAdj,
    /// Resident anonymous pages (heap, decoded surfaces, JS heap …).
    pub anon_resident: Pages,
    /// Anonymous pages currently compressed into zRAM.
    pub anon_in_zram: Pages,
    /// Resident file-backed (page-cache) pages attributed to this process.
    pub file_resident: Pages,
    /// Total file-backed working set (code, mmap'd resources). Evicted file
    /// pages refault from disk when touched.
    pub file_ws: Pages,
    /// Fraction of this process's file pages that are shared with others
    /// (libraries). Scales the PSS contribution of `file_resident`.
    pub file_share: f64,
    /// Hot anonymous working-set floor: pages reclaim scans but cannot
    /// steal (they are referenced and get rotated back).
    pub floor_anon: Pages,
    /// Hot file working-set floor.
    pub floor_file: Pages,
    /// True once killed; kept for post-mortem accounting.
    pub dead: bool,
}

/// The record a retired (killed, slot-recycled) [`ProcessId`] resolves to:
/// dead, zero footprint — exactly what a killed process's own record looks
/// like after `kill` zeroes it.
pub(crate) static TOMBSTONE: MemProcess = MemProcess {
    id: ProcessId(u32::MAX),
    name: ProcName::Static("<dead>"),
    kind: ProcKind::Cached,
    oom_adj: OomAdj(9),
    anon_resident: Pages::ZERO,
    anon_in_zram: Pages::ZERO,
    file_resident: Pages::ZERO,
    file_ws: Pages::ZERO,
    file_share: 0.0,
    floor_anon: Pages::ZERO,
    floor_file: Pages::ZERO,
    dead: true,
};

impl MemProcess {
    /// Create a process with no memory yet.
    pub fn new(id: ProcessId, name: impl Into<ProcName>, kind: ProcKind) -> MemProcess {
        MemProcess {
            id,
            name: name.into(),
            kind,
            oom_adj: kind.default_oom_adj(),
            anon_resident: Pages::ZERO,
            anon_in_zram: Pages::ZERO,
            file_resident: Pages::ZERO,
            file_ws: Pages::ZERO,
            file_share: 0.0,
            floor_anon: Pages::ZERO,
            floor_file: Pages::ZERO,
            dead: false,
        }
    }

    /// Total anonymous footprint (resident + swapped).
    pub fn anon_total(&self) -> Pages {
        self.anon_resident + self.anon_in_zram
    }

    /// Proportional Set Size — what `dumpsys meminfo` reports and what the
    /// paper's Fig. 8 plots: private (anonymous) pages plus the process's
    /// proportional share of shared (file-backed) pages. Pages compressed
    /// into zRAM are *not* resident and do not count.
    pub fn pss(&self) -> Pages {
        let shared_part = self.file_resident.mul_f64(1.0 - self.file_share / 2.0);
        self.anon_resident + shared_part
    }

    /// Resident set size (everything resident, unscaled).
    pub fn rss(&self) -> Pages {
        self.anon_resident + self.file_resident
    }

    /// Pages that would be freed if this process were killed right now
    /// (resident + zRAM slots it pins, before compression accounting).
    pub fn killable_footprint(&self) -> Pages {
        self.anon_resident + self.anon_in_zram + self.file_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_adj_ordering_matches_kill_order() {
        // Colder classes must have strictly higher scores than hotter ones.
        let order = [
            ProcKind::System,
            ProcKind::Persistent,
            ProcKind::Foreground,
            ProcKind::Visible,
            ProcKind::Service,
            ProcKind::Previous,
            ProcKind::Cached,
        ];
        for pair in order.windows(2) {
            assert!(
                pair[0].default_oom_adj() < pair[1].default_oom_adj(),
                "{:?} vs {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn cached_lru_membership() {
        assert!(ProcKind::Cached.counts_as_cached());
        assert!(ProcKind::Previous.counts_as_cached());
        assert!(!ProcKind::Foreground.counts_as_cached());
        assert!(!ProcKind::System.counts_as_cached());
    }

    #[test]
    fn pss_excludes_zram_and_discounts_shared() {
        let mut p = MemProcess::new(ProcessId(1), "firefox", ProcKind::Foreground);
        p.anon_resident = Pages(1000);
        p.anon_in_zram = Pages(500);
        p.file_resident = Pages(400);
        p.file_share = 0.5; // half the file pages are shared libraries
                            // shared discount: 400 * (1 - 0.25) = 300
        assert_eq!(p.pss(), Pages(1300));
        assert_eq!(p.rss(), Pages(1400));
        assert_eq!(p.anon_total(), Pages(1500));
        assert_eq!(p.killable_footprint(), Pages(1900));
    }

    #[test]
    fn reclaim_order_prefers_cached() {
        assert!(ProcKind::Cached.reclaim_order() > ProcKind::Foreground.reclaim_order());
        assert!(ProcKind::Foreground.reclaim_order() > ProcKind::System.reclaim_order());
    }

    #[test]
    fn proc_names_materialize_and_compare() {
        let s = ProcName::from("launcher");
        assert_eq!(s.to_string(), "launcher");
        assert!(s == "launcher");
        let o = ProcName::from(format!("bg{}", 3));
        assert!(o == "bg3");
        let t = ProcName::AtTime {
            prefix: "Video",
            at: SimTime::from_secs(123),
        };
        // SimTime displays as "{:.3}s", so the stamped name matches the
        // eager `format!("{prefix}@{now}")` it replaces.
        assert_eq!(t.to_string(), "Video@123.000s");
        assert!(t == "Video@123.000s");
        assert!(t != "Video@124.000s");
        assert!(t != "Audio@123.000s");
    }

    #[test]
    fn proc_names_serialize_as_plain_strings() {
        let t = ProcName::AtTime {
            prefix: "pre.app.r",
            at: SimTime::from_secs(7),
        };
        let v = serde::to_value(&t);
        assert_eq!(v.as_str(), Some("pre.app.r@7.000s"));
        let back: ProcName = serde::from_value(&v).unwrap();
        assert_eq!(back, ProcName::Owned("pre.app.r@7.000s".to_string()));
        assert_eq!(serde::to_value(&back), v);
    }
}
