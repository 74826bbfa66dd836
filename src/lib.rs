//! # gnnpart — partitioning strategies for distributed GNN training
//!
//! Facade crate re-exporting the whole workspace. This is a
//! production-quality Rust reproduction of *"An Experimental Comparison
//! of Partitioning Strategies for Distributed Graph Neural Network
//! Training"* (EDBT 2025): twelve graph partitioners, two distributed GNN
//! training engines (full-batch/edge-partitioned and
//! mini-batch/vertex-partitioned), a deterministic cluster cost model,
//! and an experiment harness regenerating every table and figure of the
//! paper.
//!
//! ## Quickstart
//!
//! ```
//! use gnnpart::prelude::*;
//!
//! // Generate the Orkut analogue and partition it 4 ways with HDRF.
//! let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
//! let partition = Hdrf::default().partition_edges(&graph, 4, 42).unwrap();
//! assert!(partition.replication_factor() >= 1.0);
//!
//! // Simulate one full-batch DistGNN epoch on the paper's cluster.
//! // Every run goes through one entry point: `engine.run(&RunSpec)`,
//! // where the spec composes faults, mitigation, elastic membership
//! // and network-fault legs onto the healthy baseline.
//! let config = DistGnnConfig::paper(
//!     ModelConfig {
//!         kind: ModelKind::Sage,
//!         feature_dim: 64,
//!         hidden_dim: 64,
//!         num_layers: 2,
//!         num_classes: 16,
//!         seed: 0,
//!     },
//!     ClusterSpec::paper(4),
//! );
//! let report = DistGnnEngine::builder(&graph, &partition)
//!     .config(config)
//!     .build()
//!     .unwrap()
//!     .run(&RunSpec::healthy())
//!     .unwrap()
//!     .into_healthy()
//!     .remove(0);
//! assert!(report.epoch_time() > 0.0);
//!
//! // Record the same epoch as a span trace (zero-cost when disabled);
//! // tracing is observational: the report is bit-identical.
//! let sink = TraceSink::enabled();
//! let traced = DistGnnEngine::builder(&graph, &partition)
//!     .config(config)
//!     .trace(sink.clone())
//!     .build()
//!     .unwrap();
//! let traced_report =
//!     traced.run(&RunSpec::healthy()).unwrap().into_healthy().remove(0);
//! assert_eq!(traced_report.epoch_time(), report.epoch_time(), "tracing is observational");
//! assert!(!sink.spans().is_empty());
//! ```

pub use gp_cluster as cluster;
pub use gp_core as core;
pub use gp_distdgl as distdgl;
pub use gp_distgnn as distgnn;
pub use gp_exec as exec;
pub use gp_graph as graph;
pub use gp_partition as partition;
pub use gp_prof as prof;
pub use gp_tensor as tensor;

/// Convenience prelude with the most common types.
pub mod prelude {
    pub use gp_cluster::{
        CheckpointConfig, ChurnPlan, ChurnSpec, ClusterSpec, CounterEvent, ElasticOptions,
        ElasticSpec, EpochOutcome, FaultPlan, FaultSpec, MachineSpec, MitigationPolicy,
        NetFaultPlan, NetFaultSpec, NetRunOptions, NetSpec, NetworkSpec, PhaseRow, RunSpec,
        RunSpecError, Scenario, Span, TracePhase, TraceSink,
    };
    pub use gp_core::prelude::*;
    pub use gp_distdgl::{
        scaled_fanouts, DistDglConfig, DistDglEngine, DistDglEngineBuilder, DistDglRunReport,
        EpochSummary,
    };
    pub use gp_distgnn::{
        DistGnnConfig, DistGnnEngine, DistGnnEngineBuilder, DistGnnRunReport, EpochReport,
    };
    pub use gp_graph::{DatasetId, Graph, GraphBuilder, GraphScale, VertexSplit};
    pub use gp_partition::prelude::*;
    pub use gp_tensor::{Adam, GnnModel, ModelConfig, ModelKind, Sgd, Tensor};
}
