//! # gp-distdgl — mini-batch, vertex-partitioned GNN training engine
//!
//! Analogue of **DistDGL** (Zheng et al., IA³ 2020): the graph is
//! *vertex-partitioned*; every machine owns its partition's vertices
//! (adjacency + features) and its share of the training vertices. Each
//! training step every worker
//!
//! 1. **samples** a mini-batch: multi-hop fan-out neighbourhood sampling
//!    seeded at its local training vertices — expanding a vertex owned
//!    by another machine is a remote RPC,
//! 2. **fetches features** of the sampled input vertices — remote
//!    vertices cross the network (the paper's *remote vertices* metric),
//! 3. runs **forward/backward** on the sampled blocks,
//! 4. **all-reduces gradients** and updates the model.
//!
//! Sampling is executed for real (actual RNG-driven block construction
//! over the actual partition — this is where all the paper's DistDGL
//! effects originate); compute and network time come from the calibrated
//! cost model in [`gp_cluster`]. [`train::train`] additionally runs
//! the real NN math over the sampled blocks, exploiting that synchronous
//! data-parallel SGD equals sequential gradient accumulation over the
//! per-worker batches.
//!
//! [`DistDglEngine::run`] consumes a declarative `gp_cluster::RunSpec`
//! and dispatches on its resolved scenario. A `.faults(plan)` leg runs
//! an epoch under a seeded `gp_cluster::FaultPlan`: remote expansions
//! and feature fetches get timeout/retry/backoff under lossy links, and
//! worker crashes are permanent — the crashed worker's training set is
//! redistributed across the survivors (graceful degradation); an empty
//! plan reproduces the healthy baseline bit-for-bit. A
//! `.mitigate(policy)` leg layers the mitigation subsystem on top: an
//! online detector (`gp_cluster::detect`) drives intra-epoch work
//! stealing from flagged stragglers and speculative re-execution of
//! deadline-violating steps, each applied per step only when strictly
//! faster than the unmitigated step. `.elastic(..)` and `.net(..)`
//! select the churn-tolerant and message-level-network run paths.

pub mod engine;
pub mod error;
pub mod sampler;
pub mod store;
pub mod train;

pub use engine::{
    DistDglConfig, DistDglEngine, DistDglEngineBuilder, DistDglRunReport, EpochSummary,
    FaultyEpochSummary, StepPhases, StepReport,
};
pub use error::DistDglError;
pub use sampler::{MiniBatch, SampleStats};
pub use store::PartitionedStore;
pub use train::MiniBatchTrainStats;

/// Neighbour fan-outs *scaled* to the analogue datasets. The paper's
/// fan-outs (25·20, 15·10·5, 10·10·5·5) are tuned for graphs with
/// millions of vertices; on the ~1/200-scale analogues they would make
/// every mini-batch cover the whole graph, erasing all locality
/// differences between partitioners. These values keep the
/// mini-batch-coverage *fraction* in the paper's regime while preserving
/// the taper shape. `scaled_fanouts(l)[i]` is the fan-out of layer `i`.
pub fn scaled_fanouts(num_layers: usize) -> Vec<u32> {
    match num_layers {
        1 => vec![8],
        2 => vec![6, 5],
        3 => vec![4, 3, 3],
        4 => vec![3, 3, 2, 2],
        n => vec![2; n],
    }
}

/// Neighbour fan-outs used in the paper for 2-, 3- and 4-layer models.
/// `paper_fanouts(l)[i]` is the fan-out of GNN layer `i`. Use
/// [`scaled_fanouts`] with the scaled-down analogue datasets.
pub fn paper_fanouts(num_layers: usize) -> Vec<u32> {
    match num_layers {
        0 => Vec::new(),
        1 => vec![25],
        2 => vec![25, 20],
        3 => vec![15, 10, 5],
        4 => vec![10, 10, 5, 5],
        n => {
            // Beyond the paper's range: taper from 10 down to 5.
            let mut f = vec![5u32; n];
            f[0] = 10;
            if n > 1 {
                f[1] = 10;
            }
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fanouts_match_section_5() {
        assert_eq!(paper_fanouts(2), vec![25, 20]);
        assert_eq!(paper_fanouts(3), vec![15, 10, 5]);
        assert_eq!(paper_fanouts(4), vec![10, 10, 5, 5]);
    }

    #[test]
    fn fanouts_defined_for_any_depth() {
        assert_eq!(paper_fanouts(6).len(), 6);
        assert_eq!(scaled_fanouts(6).len(), 6);
        assert_eq!(paper_fanouts(0), Vec::<u32>::new());
        assert_eq!(scaled_fanouts(0), Vec::<u32>::new());
    }

    #[test]
    fn scaled_fanouts_preserve_taper() {
        for l in 1..=4 {
            let f = scaled_fanouts(l);
            assert_eq!(f.len(), l);
            assert!(f.windows(2).all(|w| w[0] >= w[1]), "{f:?} not tapering");
        }
    }
}
