//! METIS-style multilevel k-way vertex partitioner (Karypis & Kumar).
//!
//! A from-scratch multilevel implementation occupying the same design
//! point as the METIS binary the paper uses: in-memory, low edge-cut,
//! moderate runtime. Configuration: 5% imbalance tolerance, greedy
//! boundary refinement, a single V-cycle.

use gp_graph::Graph;

use crate::assignment::VertexPartition;
use crate::edge_cut::multilevel::{multilevel_kway, WeightedGraph};
use crate::error::PartitionError;
use crate::traits::VertexPartitioner;

/// METIS-style multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Metis {
    /// Allowed imbalance ε (vertex-count based).
    pub epsilon: f64,
    /// Refinement passes per level.
    pub refine_passes: u32,
}

impl Default for Metis {
    fn default() -> Self {
        Metis { epsilon: 0.05, refine_passes: 3 }
    }
}

impl VertexPartitioner for Metis {
    fn name(&self) -> &'static str {
        "METIS"
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
        if self.epsilon < 0.0 {
            return Err(PartitionError::InvalidParameter("epsilon must be >= 0".into()));
        }
        let wg = WeightedGraph::from_graph(graph);
        let labels = multilevel_kway(&wg, k, seed, self.epsilon, self.refine_passes, false);
        VertexPartition::new(graph, k, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{
        check_vertex_partitioner, community_graph, grid_graph, skewed_graph,
    };
    use crate::edge_cut::{Ldg, RandomVertexPartitioner};

    #[test]
    fn passes_common_checks() {
        check_vertex_partitioner(&Metis::default());
    }

    #[test]
    fn much_better_than_random() {
        let g = community_graph();
        let metis = Metis::default().partition_vertices(&g, 8, 1).unwrap();
        let rnd = RandomVertexPartitioner.partition_vertices(&g, 8, 1).unwrap();
        assert!(
            metis.edge_cut_ratio() < 0.7 * rnd.edge_cut_ratio(),
            "METIS {} vs Random {}",
            metis.edge_cut_ratio(),
            rnd.edge_cut_ratio()
        );
    }

    #[test]
    fn beats_streaming_ldg() {
        let g = grid_graph();
        let metis = Metis::default().partition_vertices(&g, 8, 1).unwrap();
        let ldg = Ldg::default().partition_vertices(&g, 8, 1).unwrap();
        assert!(metis.edge_cut_ratio() <= ldg.edge_cut_ratio() + 0.02);
    }

    #[test]
    fn tiny_cut_on_grids() {
        // Road networks partition almost perfectly (paper Figure 12: DI
        // edge-cut < 0.001 for KaHIP, very low for METIS too).
        let g = grid_graph();
        let p = Metis::default().partition_vertices(&g, 4, 1).unwrap();
        assert!(p.edge_cut_ratio() < 0.12, "cut {}", p.edge_cut_ratio());
    }

    #[test]
    fn balanced() {
        let g = skewed_graph();
        let p = Metis::default().partition_vertices(&g, 8, 1).unwrap();
        assert!(p.vertex_balance() < 1.35, "balance {}", p.vertex_balance());
    }

    #[test]
    fn rejects_negative_epsilon() {
        let g = grid_graph();
        assert!(Metis { epsilon: -0.1, refine_passes: 1 }.partition_vertices(&g, 4, 0).is_err());
    }
}
