//! Simulated crash-consistent checkpoint store.
//!
//! Engines previously priced checkpoints inline with a constant
//! bandwidth and re-derived "which snapshot is intact" arithmetic at
//! every crash. This module makes the store a first-class modeled
//! object: snapshots are written per epoch with a simulated write cost,
//! carry per-machine shard sizes, are pruned by a retention policy, and
//! are *validated* at restore time — every read is checksummed against
//! the fault plan's [`FaultPlan::corrupted_checkpoint`] schedule, a
//! corrupt shard costs its read and forces fallback to the next older
//! snapshot, and running out of snapshots means restoring from scratch.
//!
//! Crash consistency: a snapshot becomes visible atomically at the end
//! of the epoch it covers (write-then-commit); a crash *during* epoch
//! `e` can therefore only ever restore a snapshot covering some epoch
//! `< e`, never a torn one.

use crate::faults::FaultPlan;

/// Default simulated checkpoint storage bandwidth (local SSD, ~500
/// MB/s, a commodity SATA SSD of the paper's testbed era). DistGNN's
/// fixed-fleet checkpoints and restores are priced at it too.
pub const DEFAULT_CHECKPOINT_BW: f64 = 5e8;

/// Checkpoint policy of an elastic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointConfig {
    /// Snapshot period in epochs (0 = checkpointing disabled).
    pub every: u32,
    /// Snapshots retained (older ones are pruned). Must be at least 1
    /// when checkpointing is enabled; a deeper window survives more
    /// consecutive corrupted snapshots.
    pub retain: u32,
    /// Simulated write bandwidth in bytes/second.
    pub write_bw: f64,
    /// Simulated read (restore) bandwidth in bytes/second.
    pub read_bw: f64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            every: 0,
            retain: 2,
            write_bw: DEFAULT_CHECKPOINT_BW,
            read_bw: DEFAULT_CHECKPOINT_BW,
        }
    }
}

impl CheckpointConfig {
    /// A periodic policy with the default bandwidths and retention.
    pub fn periodic(every: u32) -> Self {
        CheckpointConfig { every, ..CheckpointConfig::default() }
    }

    /// Whether a snapshot is due at the end of `epoch`.
    pub fn due(&self, epoch: u32) -> bool {
        self.every > 0 && (epoch + 1).is_multiple_of(self.every)
    }
}

/// One committed snapshot: the epoch it covers and each machine's shard
/// size in bytes (0 for machines absent at write time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Epoch the snapshot covers (progress through its end).
    pub epoch: u32,
    /// Per-machine shard bytes, indexed by machine id.
    pub shard_bytes: Vec<u64>,
}

/// Outcome of one snapshot write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// Simulated barrier time: machines write shards in parallel, the
    /// largest shard gates the checkpoint.
    pub seconds: f64,
}

/// Outcome of one restore attempt for a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOutcome {
    /// Epoch of the newest snapshot whose checksum validated, or `None`
    /// when every retained snapshot was corrupt (restore from scratch).
    pub epoch: Option<u32>,
    /// Simulated read time, including reads wasted on corrupt shards.
    pub seconds: f64,
    /// Bytes read, including wasted reads.
    pub bytes_read: u64,
    /// Corrupt snapshots encountered (each detected by checksum, never
    /// silently restored).
    pub corrupted: u64,
}

impl RestoreOutcome {
    /// Epochs of training progress lost when this restore happens at
    /// the start of `epoch`: the epochs since the restored snapshot, or
    /// all of them when it restores from scratch.
    pub fn epochs_lost(&self, epoch: u32) -> f64 {
        match self.epoch {
            Some(re) => (f64::from(epoch) - 1.0 - f64::from(re)).max(0.0),
            None => f64::from(epoch),
        }
    }
}

/// The store: committed snapshots, newest last.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStore {
    config: CheckpointConfig,
    snapshots: Vec<SnapshotMeta>,
}

impl CheckpointStore {
    /// An empty store under `config`.
    ///
    /// # Panics
    ///
    /// Panics if checkpointing is enabled with zero retention or a
    /// non-positive bandwidth — a store that can never restore.
    pub fn new(config: CheckpointConfig) -> CheckpointStore {
        if config.every > 0 {
            assert!(config.retain >= 1, "enabled checkpoint store must retain >= 1 snapshot");
            assert!(
                config.write_bw > 0.0 && config.read_bw > 0.0,
                "checkpoint bandwidths must be positive"
            );
        }
        CheckpointStore { config, snapshots: Vec::new() }
    }

    /// The configured policy.
    pub fn config(&self) -> &CheckpointConfig {
        &self.config
    }

    /// Whether a snapshot is due at the end of `epoch`.
    pub fn due(&self, epoch: u32) -> bool {
        self.config.due(epoch)
    }

    /// Retained snapshots, oldest first.
    pub fn snapshots(&self) -> &[SnapshotMeta] {
        &self.snapshots
    }

    /// Commit a snapshot covering `epoch` and apply retention. Returns
    /// the simulated write barrier (largest shard / write bandwidth).
    pub fn write(&mut self, epoch: u32, shard_bytes: Vec<u64>) -> WriteOutcome {
        let largest = shard_bytes.iter().copied().max().unwrap_or(0);
        let seconds = largest as f64 / self.config.write_bw;
        self.snapshots.push(SnapshotMeta { epoch, shard_bytes });
        let retain = self.config.retain.max(1) as usize;
        if self.snapshots.len() > retain {
            let drop = self.snapshots.len() - retain;
            self.snapshots.drain(..drop);
        }
        WriteOutcome { seconds }
    }

    /// Restore machine `machine`'s shard from the newest valid
    /// snapshot. Walks newest → oldest: each candidate's shard is read
    /// (costing `bytes / read_bw`), its checksum verified against
    /// `plan`'s corruption schedule; a corrupt shard wastes its read
    /// and falls back one snapshot. Snapshots with an empty shard for
    /// this machine (it was absent at write time) are skipped for free.
    pub fn restore(&self, machine: u32, plan: &FaultPlan) -> RestoreOutcome {
        let mut out = RestoreOutcome { epoch: None, seconds: 0.0, bytes_read: 0, corrupted: 0 };
        for snap in self.snapshots.iter().rev() {
            let bytes = snap.shard_bytes.get(machine as usize).copied().unwrap_or(0);
            if bytes == 0 {
                continue;
            }
            out.bytes_read += bytes;
            out.seconds += bytes as f64 / self.config.read_bw;
            if plan.corrupted_checkpoint(machine, snap.epoch) {
                out.corrupted += 1;
            } else {
                out.epoch = Some(snap.epoch);
                break;
            }
        }
        out
    }

    /// Epoch of the newest snapshot that would validate for `machine`,
    /// without charging any read cost.
    pub fn newest_valid_epoch(&self, machine: u32, plan: &FaultPlan) -> Option<u32> {
        self.snapshots
            .iter()
            .rev()
            .filter(|s| s.shard_bytes.get(machine as usize).copied().unwrap_or(0) > 0)
            .find(|s| !plan.corrupted_checkpoint(machine, s.epoch))
            .map(|s| s.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;

    fn corrupting_plan(machine: u32, epochs: &[u32]) -> FaultPlan {
        FaultPlan {
            events: epochs
                .iter()
                .map(|&epoch| FaultEvent::CheckpointCorruption { machine, epoch })
                .collect(),
            machines: 4,
            epochs: 100,
            recovery_budget_secs: f64::INFINITY,
        }
    }

    #[test]
    fn due_follows_period() {
        let cfg = CheckpointConfig::periodic(3);
        let due: Vec<u32> = (0..10).filter(|&e| cfg.due(e)).collect();
        assert_eq!(due, vec![2, 5, 8]);
        assert!(!CheckpointConfig::default().due(0), "every = 0 disables checkpointing");
    }

    #[test]
    fn write_prices_largest_shard_and_prunes() {
        let mut store = CheckpointStore::new(CheckpointConfig {
            every: 1,
            retain: 2,
            write_bw: 100.0,
            read_bw: 100.0,
        });
        let w = store.write(0, vec![100, 300, 200]);
        assert_eq!(w.seconds, 3.0, "largest shard gates the barrier");
        store.write(1, vec![10, 10, 10]);
        store.write(2, vec![20, 20, 20]);
        let epochs: Vec<u32> = store.snapshots().iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![1, 2], "retention keeps the newest two");
    }

    #[test]
    fn restore_prefers_newest_valid() {
        let mut store = CheckpointStore::new(CheckpointConfig {
            every: 1,
            retain: 3,
            write_bw: 100.0,
            read_bw: 100.0,
        });
        for e in 0..3 {
            store.write(e, vec![100, 100]);
        }
        let clean = store.restore(0, &FaultPlan::empty());
        assert_eq!(clean.epoch, Some(2));
        assert_eq!(clean.bytes_read, 100);
        assert_eq!(clean.seconds, 1.0);
        assert_eq!(clean.corrupted, 0);
    }

    #[test]
    fn corruption_walks_back_and_charges_wasted_reads() {
        let mut store = CheckpointStore::new(CheckpointConfig {
            every: 1,
            retain: 3,
            write_bw: 100.0,
            read_bw: 100.0,
        });
        for e in 0..3 {
            store.write(e, vec![100, 100]);
        }
        // Newest snapshot (epoch 2) corrupt for machine 0 only.
        let plan = corrupting_plan(0, &[2]);
        let out = store.restore(0, &plan);
        assert_eq!(out.epoch, Some(1), "fell back one snapshot");
        assert_eq!(out.corrupted, 1);
        assert_eq!(out.bytes_read, 200, "wasted read charged");
        assert_eq!(out.seconds, 2.0);
        // Machine 1 is unaffected by machine 0's corruption.
        let other = store.restore(1, &plan);
        assert_eq!(other.epoch, Some(2));
        assert_eq!(other.corrupted, 0);
    }

    #[test]
    fn all_corrupt_restores_from_scratch() {
        let mut store = CheckpointStore::new(CheckpointConfig::periodic(1));
        store.write(0, vec![1000]);
        store.write(1, vec![1000]);
        let plan = corrupting_plan(0, &[0, 1]);
        let out = store.restore(0, &plan);
        assert_eq!(out.epoch, None, "no intact snapshot survives");
        assert_eq!(out.corrupted, 2);
        assert_eq!(out.bytes_read, 2000, "every attempt still paid its read");
        assert_eq!(store.newest_valid_epoch(0, &plan), None);
        assert_eq!(store.newest_valid_epoch(0, &FaultPlan::empty()), Some(1));
    }

    #[test]
    fn absent_machines_have_free_empty_shards() {
        let mut store = CheckpointStore::new(CheckpointConfig::periodic(1));
        // Machine 1 was absent when epoch 1's snapshot was written.
        store.write(0, vec![500, 500]);
        store.write(1, vec![500, 0]);
        let out = store.restore(1, &FaultPlan::empty());
        assert_eq!(out.epoch, Some(0), "empty shard skipped without cost");
        assert_eq!(out.bytes_read, 500);
    }

    #[test]
    fn empty_store_restores_nothing() {
        let store = CheckpointStore::new(CheckpointConfig::default());
        let out = store.restore(0, &FaultPlan::empty());
        assert_eq!(out, RestoreOutcome { epoch: None, seconds: 0.0, bytes_read: 0, corrupted: 0 });
    }
}
