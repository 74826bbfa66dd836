//! Elastic cluster membership: seeded churn schedules and the fleet
//! state machine elastic runs ([`crate::driver::run_elastic`]) drive.
//!
//! The paper's cost model assumes a fixed fleet for the whole run; a
//! production shared cluster does not — workers leave (preemption,
//! maintenance) and join (scale-up, rejoin after repair) continuously.
//! [`ChurnPlan::generate`] turns a [`ChurnSpec`] into a deterministic
//! schedule of [`ChurnEvent`]s the same way
//! [`FaultPlan::generate`](crate::FaultPlan::generate) materialises
//! faults: one [`Rng`] stream per seed, fully reproducible, inspectable
//! up front. [`Fleet`] tracks which of the
//! `k` fixed worker slots are live as those events (and unplanned
//! crashes) are applied epoch by epoch.
//!
//! A *leave* is graceful — the departing worker is assumed to stream
//! its state out before going away. A *join* re-admits a vacant slot;
//! joining a slot that previously left (or crashed) is a *rejoin*.
//! How much work a join receives beyond its own returning shard is the
//! engines' decision (migrate-then-commit), not the membership layer's.

use gp_graph::rng::Rng;

use crate::faults::RecoveryReport;

/// One membership change, applied at the *start* of `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Worker `worker` leaves gracefully at the start of `epoch`.
    Leave {
        /// The departing worker slot.
        worker: u32,
        /// Epoch whose start the departure takes effect at.
        epoch: u32,
    },
    /// Worker `worker` (re)joins at the start of `epoch`.
    Join {
        /// The joining worker slot.
        worker: u32,
        /// Epoch whose start the join takes effect at.
        epoch: u32,
    },
}

impl ChurnEvent {
    /// The epoch the event takes effect at.
    pub fn epoch(&self) -> u32 {
        match *self {
            ChurnEvent::Leave { epoch, .. } | ChurnEvent::Join { epoch, .. } => epoch,
        }
    }

    /// The worker slot the event concerns.
    pub fn worker(&self) -> u32 {
        match *self {
            ChurnEvent::Leave { worker, .. } | ChurnEvent::Join { worker, .. } => worker,
        }
    }
}

/// Parameters of a seeded churn schedule (mirrors [`crate::FaultSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Worker slots in the cluster (at most 64 — slots live in a
    /// bitmask, like replica sets do).
    pub machines: u32,
    /// Epochs the schedule covers.
    pub epochs: u32,
    /// Per-live-worker, per-epoch probability of a graceful leave.
    pub leave_prob: f64,
    /// Per-departed-worker, per-epoch probability of rejoining.
    pub rejoin_prob: f64,
    /// Leaves are suppressed once the live count would drop below this.
    pub min_live: u32,
    /// Seed of the deterministic event stream.
    pub seed: u64,
}

impl ChurnSpec {
    /// A moderate-churn schedule: roughly one leave per worker every 50
    /// epochs, departed workers rejoining within ~10, and at least half
    /// the fleet (rounded up, never below one) always live.
    pub fn standard(machines: u32, epochs: u32, seed: u64) -> Self {
        ChurnSpec {
            machines,
            epochs,
            leave_prob: 0.02,
            rejoin_prob: 0.1,
            min_live: (machines.div_ceil(2)).max(1),
            seed,
        }
    }
}

/// A fully materialised, deterministic churn schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChurnPlan {
    /// Events ordered by epoch; within an epoch, leaves before joins,
    /// each ordered by worker id.
    pub events: Vec<ChurnEvent>,
    /// Worker slots in the cluster.
    pub machines: u32,
    /// Epochs the schedule covers.
    pub epochs: u32,
}

impl ChurnPlan {
    /// A plan with no membership changes.
    pub fn empty() -> Self {
        ChurnPlan::default()
    }

    /// Whether the plan schedules any membership change.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Materialise the schedule for a spec. The generator walks a
    /// virtual fleet forward one epoch at a time: each live worker may
    /// leave (suppressed at `min_live`), each departed worker may
    /// rejoin. Streams are drawn in a fixed order (leaves before joins,
    /// workers ascending), so the plan is a pure function of the spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec.machines` is 0 or exceeds 64.
    pub fn generate(spec: &ChurnSpec) -> ChurnPlan {
        assert!(
            spec.machines >= 1 && spec.machines <= 64,
            "churn fleet must have 1..=64 worker slots"
        );
        let mut rng = Rng::from_state(spec.seed ^ 0xe1a5_71c0_feed_f1ee);
        let mut fleet = Fleet::full(spec.machines);
        let mut events = Vec::new();
        for epoch in 0..spec.epochs {
            for worker in 0..spec.machines {
                if fleet.is_live(worker)
                    && fleet.live_count() > spec.min_live
                    && rng.chance(spec.leave_prob)
                {
                    fleet.mark_left(worker);
                    events.push(ChurnEvent::Leave { worker, epoch });
                }
            }
            for worker in 0..spec.machines {
                if !fleet.is_live(worker) && rng.chance(spec.rejoin_prob) {
                    fleet.mark_joined(worker);
                    events.push(ChurnEvent::Join { worker, epoch });
                }
            }
        }
        ChurnPlan { events, machines: spec.machines, epochs: spec.epochs }
    }

    /// The leaves and joins taking effect at the start of `epoch`, each
    /// ascending by worker id.
    pub fn events_at(&self, epoch: u32) -> (Vec<u32>, Vec<u32>) {
        let mut leaves = Vec::new();
        let mut joins = Vec::new();
        for ev in &self.events {
            if ev.epoch() == epoch {
                match ev {
                    ChurnEvent::Leave { worker, .. } => leaves.push(*worker),
                    ChurnEvent::Join { worker, .. } => joins.push(*worker),
                }
            }
        }
        (leaves, joins)
    }

    /// Total scheduled leaves.
    pub fn total_leaves(&self) -> u32 {
        self.events.iter().filter(|e| matches!(e, ChurnEvent::Leave { .. })).count() as u32
    }

    /// Total scheduled joins (including rejoins).
    pub fn total_joins(&self) -> u32 {
        self.events.iter().filter(|e| matches!(e, ChurnEvent::Join { .. })).count() as u32
    }
}

/// Live/absent state of `capacity` fixed worker slots.
///
/// Slots are never renumbered: a departed worker's id stays reserved so
/// that ownership vectors, counter arrays and replica masks indexed by
/// machine id remain valid across churn, and a rejoin restores the same
/// id. Absence does not distinguish graceful leaves from crashes — a
/// scheduled [`ChurnEvent::Join`] re-admits either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    capacity: u32,
    live: u64,
}

impl Fleet {
    /// A fleet with every slot live.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 64.
    pub fn full(capacity: u32) -> Fleet {
        assert!((1..=64).contains(&capacity), "fleet capacity must be 1..=64");
        let live = if capacity == 64 { !0 } else { (1u64 << capacity) - 1 };
        Fleet { capacity, live }
    }

    /// Total worker slots (live or not).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Bitmask of live slots.
    pub fn live_mask(&self) -> u64 {
        self.live
    }

    /// Number of live slots.
    pub fn live_count(&self) -> u32 {
        self.live.count_ones()
    }

    /// Whether slot `worker` is live.
    pub fn is_live(&self, worker: u32) -> bool {
        worker < self.capacity && self.live & (1u64 << worker) != 0
    }

    /// Live worker ids, ascending.
    pub fn live_workers(&self) -> Vec<u32> {
        (0..self.capacity).filter(|&w| self.is_live(w)).collect()
    }

    /// Absent worker ids, ascending.
    pub fn absent_workers(&self) -> Vec<u32> {
        (0..self.capacity).filter(|&w| !self.is_live(w)).collect()
    }

    /// Mark a slot absent (leave or crash). No-op when already absent.
    pub fn mark_left(&mut self, worker: u32) {
        if worker < self.capacity {
            self.live &= !(1u64 << worker);
        }
    }

    /// Mark a slot live again. No-op when already live.
    pub fn mark_joined(&mut self, worker: u32) {
        if worker < self.capacity {
            self.live |= 1u64 << worker;
        }
    }
}

/// Report of one multi-epoch elastic run (either engine).
///
/// Per-epoch vectors are indexed by epoch; `phase_seconds` carries each
/// epoch's phase breakdown in the engine's [`crate::EpochOutcome`]
/// order, and `live_workers` the worker slots that actually held work
/// during the epoch — the set every phase window of that epoch spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElasticRunReport {
    /// Epochs completed (always `epochs` unless an error cut the run).
    pub completed_epochs: u32,
    /// Simulated seconds of each epoch (phase totals; overheads are in
    /// `recovery` and `handoff_seconds`).
    pub epoch_seconds: Vec<f64>,
    /// Per-epoch phase breakdown (stable names, engine order).
    pub phase_seconds: Vec<Vec<(&'static str, f64)>>,
    /// Worker slots holding work in each epoch, ascending.
    pub live_workers: Vec<Vec<u32>>,
    /// Fault-recovery accounting accumulated over the run (checkpoints,
    /// restores, retries, lost progress).
    pub recovery: RecoveryReport,
    /// Graceful leaves applied.
    pub leaves: u32,
    /// Joins admitted into the fleet (work may arrive later).
    pub joins: u32,
    /// Graceful leave handoffs performed.
    pub handoffs: u32,
    /// Join rebalances committed (migrate-then-commit accepted).
    pub rebalances: u32,
    /// Join rebalances deferred because migration would not pay for
    /// itself this epoch (retried next epoch).
    pub rejected_rebalances: u32,
    /// Bytes streamed by handoffs and committed rebalances.
    pub handoff_bytes: u64,
    /// Simulated seconds spent on handoffs and committed rebalances.
    pub handoff_seconds: f64,
}

impl ElasticRunReport {
    /// Total simulated wall time: epoch time plus every modeled
    /// overhead (recovery and membership-migration traffic).
    pub fn total_seconds(&self) -> f64 {
        self.epoch_seconds.iter().sum::<f64>()
            + self.recovery.total_overhead_seconds()
            + self.handoff_seconds
    }
}

/// Policy knobs of an elastic run. `Default` is the full elastic
/// behaviour; the chaos harness compares it against the degraded
/// baseline (`no_handoff()`) to check elasticity never hurts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticOptions {
    /// Stream a departing worker's state out before it goes (true), or
    /// treat every leave as an unannounced crash (false — the
    /// "crash-without-handoff" baseline).
    pub graceful_handoff: bool,
    /// After a join's minimal repair, attempt a *global* master/owner
    /// rebalance under migrate-then-commit (true), or stick with the
    /// repair-accreted layout (false). Joins always bring their shard
    /// back online either way.
    pub rebalance_on_join: bool,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions { graceful_handoff: true, rebalance_on_join: true }
    }
}

impl ElasticOptions {
    /// The degraded baseline: leaves are crashes, joins are never
    /// rebalanced beyond the minimal repair.
    pub fn no_handoff() -> Self {
        ElasticOptions { graceful_handoff: false, rebalance_on_join: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> ChurnSpec {
        ChurnSpec { machines: 8, epochs: 64, leave_prob: 0.05, rejoin_prob: 0.2, min_live: 4, seed }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = ChurnPlan::generate(&spec(7));
        let b = ChurnPlan::generate(&spec(7));
        assert_eq!(a, b);
        let c = ChurnPlan::generate(&spec(8));
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn events_are_ordered_and_consistent() {
        let plan = ChurnPlan::generate(&spec(42));
        assert!(!plan.is_empty(), "moderate churn over 64 epochs yields events");
        let mut fleet = Fleet::full(8);
        let mut last_epoch = 0;
        for ev in &plan.events {
            assert!(ev.epoch() >= last_epoch, "events sorted by epoch");
            last_epoch = ev.epoch();
            match *ev {
                ChurnEvent::Leave { worker, .. } => {
                    assert!(fleet.is_live(worker), "only live workers leave");
                    fleet.mark_left(worker);
                }
                ChurnEvent::Join { worker, .. } => {
                    assert!(!fleet.is_live(worker), "only absent workers join");
                    fleet.mark_joined(worker);
                }
            }
        }
    }

    #[test]
    fn min_live_floor_is_respected() {
        let mut s = spec(3);
        s.leave_prob = 0.9;
        s.rejoin_prob = 0.0;
        let plan = ChurnPlan::generate(&s);
        let mut fleet = Fleet::full(8);
        for ev in &plan.events {
            if let ChurnEvent::Leave { worker, .. } = *ev {
                fleet.mark_left(worker);
            }
        }
        assert!(fleet.live_count() >= s.min_live, "never below min_live");
        assert_eq!(fleet.live_count(), s.min_live, "aggressive churn drains to the floor");
    }

    #[test]
    fn rejoins_target_departed_workers() {
        let plan = ChurnPlan::generate(&spec(11));
        let mut departed: u64 = 0;
        for ev in &plan.events {
            match *ev {
                ChurnEvent::Leave { worker, .. } => departed |= 1 << worker,
                ChurnEvent::Join { worker, .. } => {
                    assert!(departed & (1 << worker) != 0, "joins are rejoins of departed slots");
                }
            }
        }
    }

    #[test]
    fn events_at_splits_by_kind() {
        let plan = ChurnPlan {
            events: vec![
                ChurnEvent::Leave { worker: 3, epoch: 2 },
                ChurnEvent::Leave { worker: 5, epoch: 2 },
                ChurnEvent::Join { worker: 1, epoch: 2 },
                ChurnEvent::Leave { worker: 0, epoch: 4 },
            ],
            machines: 8,
            epochs: 8,
        };
        let (leaves, joins) = plan.events_at(2);
        assert_eq!(leaves, vec![3, 5]);
        assert_eq!(joins, vec![1]);
        assert_eq!(plan.events_at(3), (Vec::new(), Vec::new()));
        assert_eq!(plan.total_leaves(), 3);
        assert_eq!(plan.total_joins(), 1);
    }

    #[test]
    fn fleet_tracks_masks_and_counts() {
        let mut fleet = Fleet::full(5);
        assert_eq!(fleet.live_mask(), 0b11111);
        assert_eq!(fleet.live_count(), 5);
        fleet.mark_left(2);
        fleet.mark_left(2); // idempotent
        assert!(!fleet.is_live(2));
        assert_eq!(fleet.live_workers(), vec![0, 1, 3, 4]);
        assert_eq!(fleet.absent_workers(), vec![2]);
        fleet.mark_joined(2);
        assert_eq!(fleet.live_mask(), 0b11111);
        // Out-of-range ids are ignored, not panicking.
        fleet.mark_left(64);
        assert_eq!(fleet.live_count(), 5);
    }

    #[test]
    fn full_fleet_of_64_slots_works() {
        let fleet = Fleet::full(64);
        assert_eq!(fleet.live_mask(), !0u64);
        assert_eq!(fleet.live_count(), 64);
    }

    #[test]
    fn standard_spec_produces_bounded_churn() {
        let plan = ChurnPlan::generate(&ChurnSpec::standard(8, 200, 0xc0de));
        assert!(plan.total_leaves() >= 5, "200-epoch standard churn: {}", plan.total_leaves());
        assert!(plan.total_joins() >= 3, "200-epoch standard churn: {}", plan.total_joins());
    }

    #[test]
    fn elastic_report_totals_include_overheads() {
        let mut report = ElasticRunReport {
            completed_epochs: 2,
            epoch_seconds: vec![1.0, 2.0],
            handoff_seconds: 0.5,
            ..ElasticRunReport::default()
        };
        report.recovery.restore_seconds = 0.25;
        assert_eq!(report.total_seconds(), 3.75);
    }
}
