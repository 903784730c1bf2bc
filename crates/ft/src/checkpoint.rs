//! Ingestion checkpoints: per-intake-partition record offsets committed
//! at quiescent batch boundaries.
//!
//! The protocol (run by the feed driver, see `idea-core`):
//!
//! 1. **Pause** the adapters through the [`PauseGate`]. Each adapter
//!    acks the pause epoch after flushing its partial frame, so no new
//!    records enter the intake holders once the gate is quiesced.
//! 2. **Drain** the pipeline: keep invoking the computing job until
//!    every record the adapters emitted has been parsed, enriched and
//!    acknowledged by storage (counter equality across the stage
//!    boundaries).
//! 3. **Commit**: copy the live per-partition offsets into the
//!    committed snapshot ([`CheckpointStore::commit`]).
//! 4. **Resume** the gate.
//!
//! After a crash the feed restarts its adapters at the committed
//! offsets. Records emitted after the last commit are replayed —
//! at-least-once delivery, made effectively exactly-once by the
//! primary-key upserts in the storage job.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use idea_storage::persist::codec::crc32;

/// Magic prefix of a persisted checkpoint file ("IDKP").
const CKPT_MAGIC: u32 = 0x4944_4B50;

/// One partition's committed checkpoint: how many records the source has
/// emitted (the pipeline's quiescence clock) and the source connector's
/// own resume position (an opaque offset — byte position for file-backed
/// connectors, equal to `records` for the legacy adapter shim).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionOffset {
    pub records: u64,
    pub position: u64,
}

/// Per-intake-partition record offsets: a `live` counter each adapter
/// bumps as it emits, and a `committed` snapshot updated only at
/// quiescent checkpoints. Each partition also tracks the *source
/// position* alongside its record count (see [`PartitionOffset`]); the
/// count drives drain/quiescence math, the position tells a seekable
/// connector where to resume. A store built with [`persistent`]
/// (`Self::persistent`) additionally rewrites an on-disk file (crc'd,
/// atomic tmp+rename) on every commit and reloads it on restart, so
/// committed offsets survive a crash of the whole engine.
#[derive(Debug)]
pub struct CheckpointStore {
    live: Vec<AtomicU64>,
    committed: Vec<AtomicU64>,
    live_pos: Vec<AtomicU64>,
    committed_pos: Vec<AtomicU64>,
    commits: AtomicU64,
    /// When set, every commit atomically rewrites this file.
    path: Option<PathBuf>,
    save_errors: AtomicU64,
}

/// Reads a persisted checkpoint file: an `8 + 16n` byte payload of
/// magic, partition count and `n` (records, position) pairs, then its
/// CRC. Missing, truncated, corrupt, or partition-count-mismatched
/// files — and files in any other layout, such as the count-only `8 + 8n`
/// one older versions wrote — all yield `None`: a restart then begins at
/// offset zero, which at-least-once delivery tolerates.
fn load_checkpoint_file(path: &Path, partitions: usize) -> Option<Vec<PartitionOffset>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 12 {
        return None;
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(tail.try_into().ok()?);
    if crc32(payload) != crc {
        return None;
    }
    let magic = u32::from_le_bytes(payload[0..4].try_into().ok()?);
    let n = u32::from_le_bytes(payload[4..8].try_into().ok()?) as usize;
    if magic != CKPT_MAGIC || n != partitions {
        return None;
    }
    let u64_at =
        |data: &[u8], i: usize| u64::from_le_bytes(data[8 * i..8 * i + 8].try_into().unwrap());
    if payload.len() != 8 + 16 * n {
        return None;
    }
    let body = &payload[8..];
    Some(
        (0..n)
            .map(|i| PartitionOffset {
                records: u64_at(body, 2 * i),
                position: u64_at(body, 2 * i + 1),
            })
            .collect(),
    )
}

impl CheckpointStore {
    pub fn new(partitions: usize) -> Self {
        CheckpointStore {
            live: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            committed: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            live_pos: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            committed_pos: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            commits: AtomicU64::new(0),
            path: None,
            save_errors: AtomicU64::new(0),
        }
    }

    /// A store backed by `path`: loads previously committed offsets (if
    /// a valid file exists) and rewrites the file on every commit.
    pub fn persistent(partitions: usize, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let store =
            CheckpointStore { path: Some(path.clone()), ..CheckpointStore::new(partitions) };
        if let Some(offsets) = load_checkpoint_file(&path, partitions) {
            for (i, v) in offsets.iter().enumerate() {
                store.live[i].store(v.records, Ordering::Release);
                store.committed[i].store(v.records, Ordering::Release);
                store.live_pos[i].store(v.position, Ordering::Release);
                store.committed_pos[i].store(v.position, Ordering::Release);
            }
        }
        store
    }

    /// Where commits are persisted, if anywhere.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Commits that failed to reach disk (the commit itself still
    /// succeeded in memory; a crash before the next successful save
    /// replays from the previous on-disk offsets).
    pub fn save_error_count(&self) -> u64 {
        self.save_errors.load(Ordering::Acquire)
    }

    fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(8 + 16 * self.committed.len() + 4);
        payload.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        payload.extend_from_slice(&(self.committed.len() as u32).to_le_bytes());
        for (c, p) in self.committed.iter().zip(&self.committed_pos) {
            payload.extend_from_slice(&c.load(Ordering::Acquire).to_le_bytes());
            payload.extend_from_slice(&p.load(Ordering::Acquire).to_le_bytes());
        }
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &payload)?;
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    pub fn partitions(&self) -> usize {
        self.live.len()
    }

    /// Records that partition `p` emitted one more record.
    pub fn note_emitted(&self, p: usize) {
        self.live[p].fetch_add(1, Ordering::Release);
    }

    /// Records partition `p`'s current source position (the connector
    /// offset that would resume *after* everything emitted so far).
    /// Call together with [`note_emitted`](Self::note_emitted); sources
    /// without native offsets may simply never call it, leaving the
    /// position pinned to the record count by [`rewind`](Self::rewind)
    /// semantics — see [`note_position_is_count`]
    /// (`Self::note_position_is_count`).
    pub fn note_position(&self, p: usize, position: u64) {
        self.live_pos[p].store(position, Ordering::Release);
    }

    /// Keeps partition `p`'s position equal to its record count — the
    /// contract of count-addressed sources (the legacy adapter shim).
    pub fn note_position_is_count(&self, p: usize) {
        self.live_pos[p].store(self.live[p].load(Ordering::Acquire), Ordering::Release);
    }

    /// Uncommitted (live) offset of partition `p`.
    pub fn live(&self, p: usize) -> u64 {
        self.live[p].load(Ordering::Acquire)
    }

    /// Last committed offset of partition `p` — where a restarted
    /// adapter resumes.
    pub fn committed(&self, p: usize) -> u64 {
        self.committed[p].load(Ordering::Acquire)
    }

    /// Last committed source position of partition `p` — what a
    /// restarted connector `seek`s to.
    pub fn committed_position(&self, p: usize) -> u64 {
        self.committed_pos[p].load(Ordering::Acquire)
    }

    /// Sum of live offsets across partitions.
    pub fn emitted_total(&self) -> u64 {
        self.live.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// The committed record counts, one per partition.
    pub fn committed_snapshot(&self) -> Vec<u64> {
        self.committed.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// The committed count + position pairs, one per partition.
    pub fn committed_offsets(&self) -> Vec<PartitionOffset> {
        self.committed
            .iter()
            .zip(&self.committed_pos)
            .map(|(c, p)| PartitionOffset {
                records: c.load(Ordering::Acquire),
                position: p.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Promotes the live offsets (counts and positions) to committed.
    /// Only call once the pipeline is quiescent — every live record must
    /// be acked by storage, or a restart will silently skip in-flight
    /// records.
    pub fn commit(&self) {
        for (live, committed) in self.live.iter().zip(&self.committed) {
            committed.store(live.load(Ordering::Acquire), Ordering::Release);
        }
        for (live, committed) in self.live_pos.iter().zip(&self.committed_pos) {
            committed.store(live.load(Ordering::Acquire), Ordering::Release);
        }
        self.commits.fetch_add(1, Ordering::Release);
        if let Some(path) = &self.path {
            if self.save(path).is_err() {
                self.save_errors.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Number of commits so far (the `faults/checkpoints` counter's
    /// source of truth).
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Acquire)
    }

    /// Resets the live offsets back to the committed snapshot. Called
    /// when a feed attempt restarts: the replayed adapters re-emit from
    /// the committed offsets, so the live counters must match.
    pub fn rewind(&self) {
        for (live, committed) in self.live.iter().zip(&self.committed) {
            live.store(committed.load(Ordering::Acquire), Ordering::Release);
        }
        for (live, committed) in self.live_pos.iter().zip(&self.committed_pos) {
            live.store(committed.load(Ordering::Acquire), Ordering::Release);
        }
    }
}

/// A cooperative pause barrier between the feed driver and the
/// adapters.
///
/// Adapters [`join`](PauseGate::join) when they start and
/// [`leave`](PauseGate::leave) when they finish. The driver
/// [`pause`](PauseGate::pause)s the gate (bumping the epoch); each
/// running adapter notices, flushes its partial frame, and
/// [`ack`](PauseGate::ack)s the epoch it observed. Once every active
/// adapter has acked — or has left — the gate is
/// [`quiesced`](PauseGate::quiesced) and the driver may drain + commit.
#[derive(Debug, Default)]
pub struct PauseGate {
    paused: AtomicBool,
    epoch: AtomicU64,
    acks: AtomicU64,
    active: AtomicU64,
    /// Parking spot for paused adapters; `resume` takes the lock before
    /// notifying, so a `wait_resume` that saw `paused == true` under the
    /// lock cannot miss the wake-up.
    resume_lock: Mutex<()>,
    resumed: Condvar,
}

impl PauseGate {
    pub fn new() -> Self {
        PauseGate::default()
    }

    /// An adapter task starts participating.
    pub fn join(&self) {
        self.active.fetch_add(1, Ordering::AcqRel);
    }

    /// An adapter task stops participating (EOF or error). A finished
    /// adapter can no longer emit, so it no longer needs to ack.
    pub fn leave(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Requests a pause; returns the new epoch.
    pub fn pause(&self) -> u64 {
        self.acks.store(0, Ordering::Release);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.paused.store(true, Ordering::Release);
        epoch
    }

    pub fn resume(&self) {
        self.paused.store(false, Ordering::Release);
        let _guard = self.resume_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.resumed.notify_all();
    }

    pub fn paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    /// Parks the caller until the gate is resumed or `timeout` elapses
    /// — the condvar replacement for sleep-polling [`paused`]
    /// (`Self::paused`) in an adapter's pause loop. The timeout bounds
    /// the wait so a paused adapter still observes an external stop
    /// signal promptly.
    pub fn wait_resume(&self, timeout: Duration) {
        let guard = self.resume_lock.lock().unwrap_or_else(|e| e.into_inner());
        if self.paused.load(Ordering::Acquire) {
            let _ = self.resumed.wait_timeout(guard, timeout).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// An adapter acknowledges it observed the pause and flushed.
    pub fn ack(&self) {
        self.acks.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether every active adapter has acked the current pause (or the
    /// gate is not paused at all).
    pub fn quiesced(&self) -> bool {
        !self.paused.load(Ordering::Acquire)
            || self.acks.load(Ordering::Acquire) >= self.active.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_promotes_live_offsets() {
        let s = CheckpointStore::new(2);
        s.note_emitted(0);
        s.note_emitted(0);
        s.note_emitted(1);
        assert_eq!(s.live(0), 2);
        assert_eq!(s.committed(0), 0, "nothing committed yet");
        assert_eq!(s.emitted_total(), 3);
        s.commit();
        assert_eq!(s.committed_snapshot(), vec![2, 1]);
        assert_eq!(s.commit_count(), 1);
        s.note_emitted(1);
        assert_eq!(s.committed(1), 1, "commit is a snapshot, not a live view");
        s.commit();
        assert_eq!(s.committed_snapshot(), vec![2, 2]);
        assert_eq!(s.commit_count(), 2);
        s.note_emitted(0);
        s.rewind();
        assert_eq!(s.live(0), 2, "rewind drops uncommitted emissions");
    }

    #[test]
    fn persistent_store_survives_restart() {
        let tmp = idea_storage::TempDir::new("ckpt");
        let path = tmp.path().join("feed.ckpt");
        {
            let s = CheckpointStore::persistent(3, &path);
            s.note_emitted(0);
            s.note_emitted(0);
            s.note_emitted(2);
            s.commit();
            s.note_emitted(1); // uncommitted: must NOT survive
            assert_eq!(s.save_error_count(), 0);
        }
        let s = CheckpointStore::persistent(3, &path);
        assert_eq!(s.committed_snapshot(), vec![2, 0, 1]);
        assert_eq!(s.live(1), 0, "uncommitted emission did not persist");

        // A corrupt file degrades to offset zero, never to wrong data.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let s = CheckpointStore::persistent(3, &path);
        assert_eq!(s.committed_snapshot(), vec![0, 0, 0]);

        // Partition-count changes also invalidate the file.
        let s = CheckpointStore::persistent(3, &path);
        s.commit();
        let s = CheckpointStore::persistent(4, &path);
        assert_eq!(s.committed_snapshot(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn positions_ride_commits_and_rewinds() {
        let s = CheckpointStore::new(2);
        s.note_emitted(0);
        s.note_position(0, 137); // e.g. a byte offset past record 1
        s.commit();
        assert_eq!(s.committed_position(0), 137);
        assert_eq!(
            s.committed_offsets(),
            vec![PartitionOffset { records: 1, position: 137 }, PartitionOffset::default()]
        );
        s.note_emitted(0);
        s.note_position(0, 245);
        s.rewind();
        assert_eq!(s.live(0), 1, "rewind drops the uncommitted record");
        s.note_emitted(1);
        s.note_position_is_count(1);
        s.commit();
        assert_eq!(s.committed_position(0), 137, "rewound position did not leak into commit");
        assert_eq!(s.committed_offsets()[1], PartitionOffset { records: 1, position: 1 });
    }

    #[test]
    fn persistent_positions_survive_restart_and_v1_files_load_as_none() {
        let tmp = idea_storage::TempDir::new("ckpt-pos");
        let path = tmp.path().join("feed.ckpt");
        {
            let s = CheckpointStore::persistent(2, &path);
            s.note_emitted(0);
            s.note_position(0, 900);
            s.note_emitted(1);
            s.note_position(1, 41);
            s.commit();
        }
        let s = CheckpointStore::persistent(2, &path);
        assert_eq!(
            s.committed_offsets(),
            vec![
                PartitionOffset { records: 1, position: 900 },
                PartitionOffset { records: 1, position: 41 }
            ]
        );

        // Hand-craft a v1 (count-only) file: it no longer loads, so the
        // restart begins at offset zero.
        let mut payload = Vec::new();
        payload.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&9u64.to_le_bytes());
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &payload).unwrap();
        assert_eq!(load_checkpoint_file(&path, 2), None);
        let s = CheckpointStore::persistent(2, &path);
        assert_eq!(s.committed_offsets(), vec![PartitionOffset::default(); 2]);
    }

    #[test]
    fn gate_quiesces_when_all_active_adapters_ack() {
        let g = PauseGate::new();
        assert!(g.quiesced(), "unpaused gate is trivially quiesced");
        g.join();
        g.join();
        let epoch = g.pause();
        assert_eq!(epoch, 1);
        assert!(g.paused());
        assert!(!g.quiesced());
        g.ack();
        assert!(!g.quiesced(), "one of two adapters acked");
        g.ack();
        assert!(g.quiesced());
        g.resume();
        assert!(!g.paused());
    }

    #[test]
    fn finished_adapters_do_not_block_quiescence() {
        let g = PauseGate::new();
        g.join();
        g.join();
        g.leave(); // one adapter hit EOF before the pause
        g.pause();
        g.ack();
        assert!(g.quiesced());
    }
}
