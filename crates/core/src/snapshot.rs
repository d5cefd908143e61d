//! Versioned on-disk session snapshots.
//!
//! A [`Snapshot`] is the complete state of a [`crate::Session`] at a
//! loop-iteration boundary: machine, pressure driver, segment server,
//! client state, and the ABR policy's decision state, plus the
//! [`SessionConfig`] that produced it. Snapshots serialize through the
//! same serde stand-ins as every other artifact, write atomically
//! (tmp + rename, like fleet shard checkpoints), and carry a format
//! version so stale snapshots are *rejected* rather than misinterpreted —
//! the same policy as stale fleet fingerprints.

use crate::pressure::PressureDriver;
use crate::session::{SessionConfig, SessionState};
use mvqoe_device::Machine;
use mvqoe_net::SegmentServer;
use mvqoe_sim::SimTime;
use serde::ser::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// The current snapshot layout version. Bump whenever any serialized form
/// inside a snapshot changes incompatibly; [`Snapshot::load`] and
/// [`crate::Session::restore`] reject other versions.
///
/// v2: `LinkParams.schedule` became the typed `LinkTrace` (`trace` field),
/// changing the serialized shape of the config inside every snapshot.
///
/// v3: the causal attribution engine — `SessionConfig` gained the
/// `attribution` flag, the client state carries the engine's fact ring and
/// per-cause accumulators, and traces carry flow records.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// A complete, versioned session snapshot.
///
/// The substrate states are typed copies of the session's own: taking a
/// snapshot clones them, and each branch restored from it clones them
/// again, so one snapshot serves every branch forked from it.
#[derive(Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Layout version; loads reject mismatches with
    /// [`SnapshotError::StaleVersion`].
    pub format_version: u32,
    /// Simulation time at capture.
    pub at: SimTime,
    /// The configuration the snapshotted session was started with.
    pub cfg: SessionConfig,
    /// The session's machine.
    pub(crate) machine: Machine,
    /// The session's pressure driver.
    pub(crate) pressure: PressureDriver,
    /// The session's segment server.
    pub(crate) server: SegmentServer,
    /// The client session state.
    pub(crate) state: SessionState,
    /// [`mvqoe_abr::Abr::name`] of the policy driving the session.
    pub abr_kind: String,
    /// The policy's [`mvqoe_abr::Abr::state_value`].
    pub(crate) abr_state: Value,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("format_version", &self.format_version)
            .field("at", &self.at)
            .field("cfg", &self.cfg)
            .field("abr_kind", &self.abr_kind)
            .finish_non_exhaustive()
    }
}

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file exists but does not parse as a snapshot.
    Malformed(String),
    /// The snapshot was written under an incompatible layout version.
    StaleVersion {
        /// Version found in the file.
        found: u32,
        /// The version this build understands.
        expected: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::StaleVersion { found, expected } => {
                write!(f, "stale snapshot format v{found} (expected v{expected})")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl Snapshot {
    /// Write the snapshot atomically: serialize to `<path>.tmp`, then
    /// rename into place, so a crash mid-write never leaves a torn file
    /// where a resumable snapshot is expected.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let text = serde_json::to_string(self)
            .map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).map_err(SnapshotError::Io)?;
        std::fs::rename(&tmp, path).map_err(SnapshotError::Io)
    }

    /// Read a snapshot back, rejecting torn files and stale versions.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(SnapshotError::Io)?;
        let snap: Snapshot =
            serde_json::from_str(&text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        if snap.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::StaleVersion {
                found: snap.format_version,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::PressureMode;
    use crate::session::Session;
    use mvqoe_abr::{Abr, FixedAbr};
    use mvqoe_device::DeviceProfile;
    use mvqoe_sim::SimDuration;
    use mvqoe_video::{Fps, Genre, Manifest, Resolution};

    fn small_session() -> (Session, FixedAbr) {
        let cfg = SessionConfig::paper_default(DeviceProfile::nexus5(), PressureMode::None, 7);
        let mut cfg = cfg;
        cfg.video_secs = 12.0;
        let manifest = Manifest::full_ladder(Genre::Travel, 12.0);
        let abr = FixedAbr::new(
            manifest
                .representation(Resolution::R480p, Fps::F30)
                .unwrap(),
        );
        (Session::start(cfg), abr)
    }

    #[test]
    fn save_load_round_trips_and_rejects_stale_versions() {
        let (mut s, mut abr) = small_session();
        let t = s.now() + SimDuration::from_secs(3);
        s.run_until(&mut abr, t);
        let snap = s.snapshot(&abr);
        let dir = std::env::temp_dir().join(format!("mvqoe-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.snapshot.json");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.format_version, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(back.at, snap.at);
        assert_eq!(back.abr_kind, abr.name());
        // A restored session continues to the same end state as the parent.
        let mut abr2 = abr.clone();
        let mut restored = Session::restore(&back, &mut abr2).unwrap();
        restored.run_until(&mut abr2, mvqoe_sim::SimTime::MAX);
        s.run_until(&mut abr, mvqoe_sim::SimTime::MAX);
        let a = s.finish(None);
        let b = restored.finish(None);
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "restored continuation must replay the parent exactly"
        );

        // Stale version: rewrite with a bumped version field and reload.
        let mut stale = snap.clone();
        stale.format_version = SNAPSHOT_FORMAT_VERSION + 1;
        let stale_path = dir.join("stale.snapshot.json");
        std::fs::write(
            &stale_path,
            serde_json::to_string(&stale).unwrap(),
        )
        .unwrap();
        match Snapshot::load(&stale_path) {
            Err(SnapshotError::StaleVersion { found, expected }) => {
                assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
            }
            other => panic!("stale snapshot must be rejected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
