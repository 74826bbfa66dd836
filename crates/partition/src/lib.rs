//! # gp-partition — twelve graph partitioners with quality metrics
//!
//! Implements the full partitioner roster of the paper's Table 2:
//!
//! | Partitioner | Cut type | Category | Module |
//! |---|---|---|---|
//! | Random | vertex-cut | stateless streaming | [`vertex_cut::RandomEdgePartitioner`] |
//! | DBH | vertex-cut | stateless streaming | [`vertex_cut::Dbh`] |
//! | HDRF | vertex-cut | stateful streaming | [`vertex_cut::Hdrf`] |
//! | 2PS-L | vertex-cut | stateful streaming | [`vertex_cut::TwoPsL`] |
//! | HEP-10 / HEP-100 | vertex-cut | hybrid | [`vertex_cut::Hep`] |
//! | Greedy¹ | vertex-cut | stateful streaming | [`vertex_cut::Greedy`] |
//! | Grid2D¹ | vertex-cut | stateless streaming | [`vertex_cut::Grid2d`] |
//! | Random | edge-cut | stateless streaming | [`edge_cut::RandomVertexPartitioner`] |
//! | LDG | edge-cut | stateful streaming | [`edge_cut::Ldg`] |
//! | Spinner | edge-cut | in-memory (label propagation) | [`edge_cut::Spinner`] |
//! | METIS | edge-cut | in-memory (multilevel) | [`edge_cut::Metis`] |
//! | ByteGNN | edge-cut | in-memory (BFS blocks) | [`edge_cut::ByteGnn`] |
//! | KaHIP | edge-cut | in-memory (multilevel + FM) | [`edge_cut::Kahip`] |
//! | ReLDG¹ | edge-cut | restreaming | [`edge_cut::ReLdg`] |
//!
//! ¹ extensions beyond the paper's roster: PowerGraph's oblivious Greedy
//! (the lineage ancestor of HDRF), the 2-D grid scheme with its provable
//! replication bound, and restreaming LDG (the paper's reference 33).
//!
//! *Vertex-cut* (edge partitioning) assigns every **edge** to exactly one
//! partition; cut vertices are replicated. *Edge-cut* (vertex
//! partitioning) assigns every **vertex** to exactly one partition; cut
//! edges cross partitions. The quality metrics of Section 2.1 —
//! replication factor, edge/vertex balance, edge-cut ratio,
//! training-vertex balance — live in [`metrics`] and on the assignment
//! types themselves.
//!
//! [`registry`] is the one name → constructor table for all fifteen;
//! [`incremental`] runs the streaming ones online, sharing each one-shot
//! partitioner's decision rule.

pub mod assignment;
pub mod edge_cut;
pub mod error;
pub mod incremental;
pub mod metrics;
pub mod registry;
pub mod traits;
pub mod vertex_cut;

pub use assignment::{EdgePartition, VertexPartition, MAX_PARTITIONS};
pub use error::PartitionError;
pub use incremental::{
    modeled_partition_seconds, IncrementalEdgePartitioner, IncrementalVertexPartitioner,
    RepartitionPolicy,
};
pub use traits::{EdgePartitioner, VertexPartitioner};

/// Convenience prelude with every partitioner and the core types.
pub mod prelude {
    pub use crate::assignment::{EdgePartition, VertexPartition};
    pub use crate::edge_cut::{
        ByteGnn, Kahip, Ldg, Metis, RandomVertexPartitioner, ReLdg, Spinner,
    };
    pub use crate::error::PartitionError;
    pub use crate::incremental::{
        modeled_partition_seconds, IncrementalEdgePartitioner, IncrementalVertexPartitioner,
        RepartitionPolicy,
    };
    pub use crate::traits::{EdgePartitioner, VertexPartitioner};
    pub use crate::vertex_cut::{Dbh, Greedy, Grid2d, Hdrf, Hep, RandomEdgePartitioner, TwoPsL};
}
