//! # gp-distgnn — full-batch, edge-partitioned GNN training engine
//!
//! Analogue of **DistGNN** (Md et al., SC 2021): the input graph is
//! *edge-partitioned* across the machines; vertices cut by the partition
//! are replicated, and replicas synchronise their aggregated state every
//! layer, every epoch. Training is **full-batch**: one model update per
//! epoch over the whole graph.
//!
//! The engine has two modes:
//!
//! * [`train::train_full_batch`] — *real* training: executes the actual
//!   GraphSAGE forward/backward over the whole graph. Data-parallel
//!   full-batch training is mathematically identical to centralised
//!   training (gradients are all-reduced every epoch), so the math runs
//!   once globally while FLOPs, bytes and memory are attributed to
//!   machines exactly as the distributed execution would incur them.
//! * [`DistGnnEngine::run`] — pure cost model: counts the same
//!   quantities analytically without touching floats, fast enough to
//!   sweep the paper's full hyper-parameter grid at `hidden = 512`.
//!
//! [`DistGnnEngine::run`] consumes a declarative
//! `gp_cluster::RunSpec` and dispatches on its resolved scenario: a
//! `.faults(plan)` leg runs the cost model under a seeded
//! `gp_cluster::FaultPlan` — periodic checkpointing, replica-based
//! crash recovery (recovery traffic ∝ replication factor), transient
//! stragglers and lossy links; an empty plan reproduces the healthy
//! baseline bit-for-bit. A `.mitigate(policy)` leg layers the
//! mitigation subsystem on top: an online detector
//! (`gp_cluster::detect`) drives adaptive cd-r (longer sync period
//! during network brownouts) and master rebalancing away from
//! persistently slow machines, never making an epoch worse than the
//! unmitigated fault path. `.elastic(..)` and `.net(..)` select the
//! churn-tolerant and message-level-network run paths.
//!
//! Work attribution per machine `m`, per layer:
//!
//! * aggregation FLOPs ∝ edges assigned to `m`,
//! * dense-layer FLOPs ∝ vertices *mastered* by `m`,
//! * replica-sync traffic: a vertex with `r` replicas moves
//!   `2 (r − 1) · state_bytes` per layer (partial-aggregate gather to the
//!   master + updated-state scatter back) — which is why the replication
//!   factor governs network volume,
//! * memory ∝ vertices *covered* by `m` (features + one intermediate
//!   state per layer, kept for the backward pass) — which is why the
//!   replication factor governs the memory footprint too.

pub mod engine;
pub mod error;
pub mod memory;
pub mod sync;
pub mod train;
pub mod view;

pub use engine::{
    DistGnnConfig, DistGnnEngine, DistGnnEngineBuilder, DistGnnRunReport, EpochPhases, EpochReport,
    FaultyEpochReport,
};
pub use error::DistGnnError;
pub use memory::MemoryBreakdown;
pub use train::TrainStats;
pub use view::PartitionView;
