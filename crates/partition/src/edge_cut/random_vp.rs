//! Random vertex partitioning (stateless streaming).
//!
//! The DistDGL baseline: each vertex is assigned by hashing its id.
//! Vertex counts are balanced in expectation, but the expected edge-cut
//! ratio is `1 - 1/k` — nearly every edge is cut at large `k`.

use gp_graph::rng::mix64;
use gp_graph::Graph;

use crate::assignment::VertexPartition;
use crate::error::PartitionError;
use crate::traits::VertexPartitioner;

/// Uniformly random (hash-based) vertex partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomVertexPartitioner;

impl VertexPartitioner for RandomVertexPartitioner {
    fn name(&self) -> &'static str {
        "Random"
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
        let assignments: Vec<u32> =
            (0..graph.num_vertices()).map(|v| random_vertex_choose(v, seed, k)).collect();
        VertexPartition::new(graph, k, assignments)
    }
}

/// The partition of vertex `v`: a seeded hash of its id. Shared with the
/// online core of `crate::incremental`.
#[inline]
pub(crate) fn random_vertex_choose(v: u32, seed: u64, k: u32) -> u32 {
    (mix64(u64::from(v) ^ seed) % u64::from(k)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{check_vertex_partitioner, skewed_graph};

    #[test]
    fn passes_common_checks() {
        check_vertex_partitioner(&RandomVertexPartitioner);
    }

    #[test]
    fn balanced_vertices() {
        let g = skewed_graph();
        let p = RandomVertexPartitioner.partition_vertices(&g, 8, 1).unwrap();
        assert!(p.vertex_balance() < 1.2, "balance {}", p.vertex_balance());
    }

    #[test]
    fn edge_cut_near_one_minus_one_over_k() {
        let g = skewed_graph();
        let p = RandomVertexPartitioner.partition_vertices(&g, 8, 1).unwrap();
        let expected = 1.0 - 1.0 / 8.0;
        assert!((p.edge_cut_ratio() - expected).abs() < 0.05, "cut {}", p.edge_cut_ratio());
    }

    #[test]
    fn seed_changes_assignment() {
        let g = skewed_graph();
        let a = RandomVertexPartitioner.partition_vertices(&g, 4, 1).unwrap();
        let b = RandomVertexPartitioner.partition_vertices(&g, 4, 2).unwrap();
        assert_ne!(a.assignments(), b.assignments());
    }
}
