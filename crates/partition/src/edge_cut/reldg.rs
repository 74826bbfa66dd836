//! ReLDG — restreaming Linear Deterministic Greedy
//! (Nishimura & Ugander, KDD 2013; the paper's reference 33).
//!
//! **Extension beyond the paper's Table 2**: runs LDG repeatedly over
//! the same vertex stream, each pass seeded with the previous pass's
//! assignment, which converges towards a much lower edge-cut than a
//! single pass while keeping streaming-level memory. Restreaming sits
//! between the streaming and in-memory categories: it needs the stream
//! to be replayable but never materialises the graph-partitioning state
//! beyond O(|V|).

use gp_graph::Graph;

use crate::assignment::VertexPartition;
use crate::edge_cut::Ldg;
use crate::error::PartitionError;
use crate::traits::VertexPartitioner;

/// Restreaming LDG vertex partitioner.
#[derive(Debug, Clone, Copy)]
pub struct ReLdg {
    /// Number of restreaming passes (1 = plain LDG).
    pub passes: u32,
    /// Capacity slack per partition.
    pub slack: f64,
}

impl Default for ReLdg {
    fn default() -> Self {
        ReLdg { passes: 10, slack: 1.1 }
    }
}

impl VertexPartitioner for ReLdg {
    fn name(&self) -> &'static str {
        "ReLDG"
    }

    fn partition_vertices(
        &self,
        graph: &Graph,
        k: u32,
        seed: u64,
    ) -> Result<VertexPartition, PartitionError> {
        if self.passes == 0 {
            return Err(PartitionError::InvalidParameter("passes must be > 0".into()));
        }
        let order = Ldg::shuffled_order(graph, seed);
        Ldg { slack: self.slack }.partition_in_order(graph, k, &order, self.passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{check_vertex_partitioner, community_graph, grid_graph};

    #[test]
    fn passes_common_checks() {
        check_vertex_partitioner(&ReLdg::default());
    }

    #[test]
    fn restreaming_improves_on_single_pass() {
        // The Nishimura–Ugander result: more passes, lower cut.
        let g = community_graph();
        let one = ReLdg { passes: 1, slack: 1.1 }.partition_vertices(&g, 8, 1).unwrap();
        let ten = ReLdg { passes: 10, slack: 1.1 }.partition_vertices(&g, 8, 1).unwrap();
        assert!(
            ten.edge_cut_ratio() < one.edge_cut_ratio(),
            "pass 10 cut {} >= pass 1 cut {}",
            ten.edge_cut_ratio(),
            one.edge_cut_ratio()
        );
    }

    #[test]
    fn single_pass_is_ldg() {
        // One ReLDG pass is LDG: the same pass body over the same order.
        let g = grid_graph();
        let reldg = ReLdg { passes: 1, slack: 1.1 }.partition_vertices(&g, 4, 1).unwrap();
        assert_eq!(reldg, Ldg::default().partition_vertices(&g, 4, 1).unwrap());
    }

    #[test]
    fn respects_capacity_after_restreaming() {
        let g = community_graph();
        let p = ReLdg::default().partition_vertices(&g, 8, 1).unwrap();
        let cap = (1.1 * f64::from(g.num_vertices()) / 8.0).ceil() as u64 + 1;
        assert!(p.vertex_counts().iter().all(|&c| c <= cap));
    }

    #[test]
    fn rejects_bad_params() {
        let g = grid_graph();
        assert!(ReLdg { passes: 0, slack: 1.1 }.partition_vertices(&g, 4, 0).is_err());
        assert!(ReLdg { passes: 2, slack: 0.5 }.partition_vertices(&g, 4, 0).is_err());
    }
}
