//! KaHIP-style multilevel partitioner (Sanders & Schulz, SEA 2013).
//!
//! Occupies the "highest quality, highest partitioning time" design
//! point of the paper's roster: same multilevel skeleton as
//! [`crate::edge_cut::Metis`] but with a tighter balance constraint
//! (ε = 3%), more aggressive refinement including balance-improving
//! zero-gain moves, and several independent repetitions keeping the best
//! cut — the multilevel analogue of KaHIP's "strong" configuration.

use gp_graph::Graph;

use crate::assignment::VertexPartition;
use crate::edge_cut::multilevel::{cut_weight, multilevel_kway, WeightedGraph};
use crate::error::PartitionError;
use crate::traits::VertexPartitioner;

/// KaHIP-style multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Kahip {
    /// Allowed imbalance ε (vertex-count based).
    pub epsilon: f64,
    /// Refinement passes per level.
    pub refine_passes: u32,
    /// Independent multilevel repetitions; the best cut wins.
    pub repetitions: u32,
}

impl Default for Kahip {
    fn default() -> Self {
        Kahip { epsilon: 0.03, refine_passes: 8, repetitions: 3 }
    }
}

impl VertexPartitioner for Kahip {
    fn name(&self) -> &'static str {
        "KaHIP"
    }

    fn partition_vertices(
        &self,
        graph: &Graph,
        k: u32,
        seed: u64,
    ) -> Result<VertexPartition, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        if self.repetitions == 0 {
            return Err(PartitionError::InvalidParameter("repetitions must be > 0".into()));
        }
        let wg = WeightedGraph::from_graph(graph);
        let mut best: Option<(u64, Vec<u32>)> = None;
        for rep in 0..self.repetitions {
            let rep_seed = seed.wrapping_add(u64::from(rep).wrapping_mul(0x51ed_2701));
            let labels = multilevel_kway(&wg, k, rep_seed, self.epsilon, self.refine_passes, true);
            let cut = cut_weight(&wg, &labels);
            if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                best = Some((cut, labels));
            }
        }
        let (_, labels) = best.expect("repetitions > 0");
        VertexPartition::new(graph, k, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{
        check_vertex_partitioner, community_graph, grid_graph, skewed_graph,
    };
    use crate::edge_cut::{Metis, RandomVertexPartitioner};

    #[test]
    fn passes_common_checks() {
        check_vertex_partitioner(&Kahip::default());
    }

    #[test]
    fn at_least_as_good_as_metis() {
        let g = skewed_graph();
        let kahip = Kahip::default().partition_vertices(&g, 8, 1).unwrap();
        let metis = Metis::default().partition_vertices(&g, 8, 1).unwrap();
        assert!(
            kahip.edge_cut_ratio() <= metis.edge_cut_ratio() + 0.02,
            "KaHIP {} vs METIS {}",
            kahip.edge_cut_ratio(),
            metis.edge_cut_ratio()
        );
    }

    #[test]
    fn near_perfect_on_grids() {
        let g = grid_graph();
        let p = Kahip::default().partition_vertices(&g, 4, 1).unwrap();
        assert!(p.edge_cut_ratio() < 0.1, "cut {}", p.edge_cut_ratio());
    }

    #[test]
    fn tight_balance() {
        let g = skewed_graph();
        let p = Kahip::default().partition_vertices(&g, 8, 1).unwrap();
        assert!(p.vertex_balance() < 1.3, "balance {}", p.vertex_balance());
    }

    #[test]
    fn much_better_than_random() {
        let g = community_graph();
        let kahip = Kahip::default().partition_vertices(&g, 8, 1).unwrap();
        let rnd = RandomVertexPartitioner.partition_vertices(&g, 8, 1).unwrap();
        assert!(kahip.edge_cut_ratio() < 0.7 * rnd.edge_cut_ratio());
    }

    #[test]
    fn rejects_zero_repetitions() {
        let g = grid_graph();
        assert!(Kahip { repetitions: 0, ..Kahip::default() }.partition_vertices(&g, 4, 0).is_err());
    }
}
