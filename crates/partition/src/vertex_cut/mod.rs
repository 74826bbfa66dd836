//! Edge partitioners (vertex-cut).
//!
//! Every algorithm assigns each *edge* to exactly one partition; a vertex
//! incident to edges in several partitions is replicated to all of them.
//! The key quality metric is the mean replication factor, which the paper
//! shows to correlate almost perfectly with both network traffic and
//! memory footprint of full-batch GNN training.

pub mod dbh;
pub mod greedy;
pub mod grid2d;
pub mod hdrf;
pub mod hep;
pub mod ne;
pub mod random_ep;
pub mod twops;

pub use dbh::Dbh;
pub use greedy::Greedy;
pub use grid2d::Grid2d;
pub use hdrf::Hdrf;
pub use hep::Hep;
pub use random_ep::RandomEdgePartitioner;
pub use twops::TwoPsL;

#[cfg(test)]
pub(crate) mod testutil {
    use gp_graph::datasets::{DatasetId, GraphScale};
    use gp_graph::generators::{rmat, RmatParams};
    use gp_graph::Graph;

    use crate::assignment::EdgePartition;
    use crate::traits::EdgePartitioner;

    /// A small skewed test graph.
    pub fn skewed_graph() -> Graph {
        rmat(RmatParams { scale: 9, edge_factor: 8, ..RmatParams::default() }, 7).unwrap()
    }

    /// Partition counts the optimised partitioners are checked against
    /// their reference loops at.
    pub const ORACLE_KS: [u32; 6] = [1, 2, 3, 8, 32, 64];

    /// The graphs the optimised partitioners are checked against their
    /// reference loops on: every dataset at tiny scale and
    /// [`skewed_graph`].
    pub fn oracle_graphs() -> Vec<Graph> {
        let mut graphs: Vec<Graph> =
            DatasetId::ALL.iter().map(|id| id.generate(GraphScale::Tiny).unwrap()).collect();
        graphs.push(skewed_graph());
        graphs
    }

    /// Checks every edge partitioner must pass.
    pub fn check_edge_partitioner(p: &dyn EdgePartitioner) {
        let g = skewed_graph();
        for k in [1u32, 2, 4, 8] {
            let part = p.partition_edges(&g, k, 42).unwrap();
            validate(&g, &part, k);
        }
        // Determinism.
        let a = p.partition_edges(&g, 4, 1).unwrap();
        let b = p.partition_edges(&g, 4, 1).unwrap();
        assert_eq!(a.assignments(), b.assignments(), "{} not deterministic", p.name());
    }

    /// Structural validity of an edge partition.
    pub fn validate(g: &Graph, part: &EdgePartition, k: u32) {
        assert_eq!(part.k(), k);
        assert_eq!(part.assignments().len(), g.num_edges() as usize);
        let total: u64 = part.edge_counts().iter().sum();
        assert_eq!(total, u64::from(g.num_edges()), "all edges assigned exactly once");
        assert!(part.replication_factor() >= 1.0 - 1e-12);
        assert!(part.replication_factor() <= f64::from(k) + 1e-12);
    }
}
