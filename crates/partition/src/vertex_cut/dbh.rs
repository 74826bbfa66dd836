//! DBH — degree-based hashing (Xie et al., NeurIPS 2014).
//!
//! Stateless streaming vertex-cut: edge `{u, v}` is placed by hashing its
//! *lower-degree* endpoint. Low-degree vertices therefore get all their
//! edges on one partition (no replication), while hubs — which would be
//! replicated anyway — absorb the cut. Requires vertex degrees, which are
//! available after one pass over the stream.

use gp_graph::rng::mix64;
use gp_graph::Graph;

use crate::assignment::EdgePartition;
use crate::error::PartitionError;
use crate::traits::EdgePartitioner;

/// Degree-based hashing edge partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dbh;

impl EdgePartitioner for Dbh {
    fn name(&self) -> &'static str {
        "DBH"
    }

    fn partition_edges(
        &self,
        graph: &Graph,
        k: u32,
        seed: u64,
    ) -> Result<EdgePartition, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        let mut assignments = Vec::with_capacity(graph.num_edges() as usize);
        for (u, v) in graph.edges() {
            assignments.push(dbh_choose((u, v), (graph.degree(u), graph.degree(v)), seed, k));
        }
        EdgePartition::new(graph, k, assignments)
    }
}

/// DBH's rule for edge `(u, v)` with endpoint degrees `(du, dv)`: hash
/// the lower-degree endpoint, ties broken by id for determinism. Shared
/// with the online core of `crate::incremental`, which passes live
/// degrees.
#[inline]
pub(crate) fn dbh_choose((u, v): (u32, u32), (du, dv): (u32, u32), seed: u64, k: u32) -> u32 {
    let key = if du < dv || (du == dv && u <= v) { u } else { v };
    (mix64(u64::from(key) ^ seed) % u64::from(k)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cut::testutil::{check_edge_partitioner, skewed_graph};
    use crate::vertex_cut::RandomEdgePartitioner;

    #[test]
    fn passes_common_checks() {
        check_edge_partitioner(&Dbh);
    }

    #[test]
    fn beats_random_on_replication() {
        let g = skewed_graph();
        let dbh = Dbh.partition_edges(&g, 8, 1).unwrap();
        let rnd = RandomEdgePartitioner.partition_edges(&g, 8, 1).unwrap();
        assert!(
            dbh.replication_factor() < rnd.replication_factor(),
            "DBH {} vs Random {}",
            dbh.replication_factor(),
            rnd.replication_factor()
        );
    }

    #[test]
    fn low_degree_vertices_not_replicated() {
        let g = skewed_graph();
        let p = Dbh.partition_edges(&g, 8, 1).unwrap();
        // Degree-1 vertices always hash their single edge by themselves
        // or their (hub) neighbour; either way they have exactly 1 replica.
        for v in g.vertices() {
            if g.degree(v) == 1 {
                assert_eq!(p.replica_count(v), 1);
            }
        }
    }
}
