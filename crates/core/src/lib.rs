//! # gp-core — the experimental study
//!
//! Ties the substrates together into the paper's experiment harness:
//!
//! * [`registry`] — the 12 partitioners of Table 2 (plus extensions),
//!   constructible by name; re-exported from `gp_partition::registry`,
//!   which owns the one name → constructor table.
//! * [`config`] — the hyper-parameter grid of Table 3 and the scale-out
//!   factors.
//! * [`experiment`] — timed partitioning runs.
//! * [`family`] — the two engine families, DistGNN and DistDGL, behind
//!   one [`Family`](family::Family) trait: every scenario sweep, trace,
//!   diagnosis and recommendation below has one body for both engines,
//!   and the family value, the only place that configures an engine,
//!   carries what differs between them.
//! * [`sweep`] — grid sweeps producing speedup/memory distributions.
//! * [`fault_sweep`] — partitioner × failure-rate robustness sweeps
//!   under seeded fault injection, plus mitigated-vs-unmitigated
//!   comparisons of the straggler-mitigation layer (extension beyond
//!   the paper).
//! * [`chaos`] — elastic-membership soak harness: every partitioner
//!   runs a multi-epoch churn + fault + checkpoint schedule through
//!   the engines' `.elastic(..)` `RunSpec` legs, with the elastic
//!   contract (determinism, trace transparency, never-worse handoffs,
//!   exact span sums) checked per row — behind `gnnpart chaos` and the
//!   `chaos` ablation (extension).
//! * [`netchaos`] — the chaos soak composed with seeded message-level
//!   network faults and partition windows, with degraded-mode and
//!   exactly-once verdicts per row — behind `gnnpart netchaos` and the
//!   `netchaos` ablation (extension).
//! * [`stream_sweep`] — streaming dynamic-graph sweeps: every
//!   partitioner replays a seeded mutation stream under each
//!   repartition policy, with per-batch quality-decay curves, modeled
//!   repartition costs, recovered speedups, and the stream contract
//!   (determinism, trace transparency, never-worse adoption) checked
//!   per row — behind `gnnpart stream` and the `stream` ablation
//!   (extension).
//! * [`trace_run`] — traced engine runs feeding the Chrome-JSON /
//!   phase-CSV exports of the `gnnpart trace` subcommand (extension).
//! * [`diagnose`] — metrics aggregation and automated run diagnosis
//!   over traced runs: exact histogram-vs-report cross-checks, skew
//!   indices, straggler attribution, ranked causes of epoch time, and
//!   the Prometheus / markdown-report / skew-CSV artifacts behind
//!   `gnnpart diagnose` and the `diagnose` ablation (extension).
//! * [`amortize`] — partitioning-time amortisation (Tables 4 and 5).
//! * [`advisor`] — EASE-style partitioner recommendation (extension).
//! * [`correlate`] — Pearson correlation / R² (Figures 3, 5).
//! * [`report`] — CSV and Markdown emitters for every figure and table.
//!
//! Every sweep, runner, advisor and timed-partition function runs its
//! cells on the `gp-exec` pool ([`gp_exec::par_map`]) and takes its
//! width as `threads: Threads`. Output is bit-identical for every
//! pool width; `Threads::serial()` is the oracle.

pub mod advisor;
pub mod amortize;
pub mod benchjson;
pub mod chaos;
pub mod config;
pub mod correlate;
pub mod diagnose;
pub mod experiment;
pub mod family;
pub mod fault_sweep;
pub mod netchaos;
pub mod report;
pub mod stream_sweep;
pub mod sweep;
pub mod trace_run;

pub use gp_partition::registry;

/// Convenience prelude.
pub mod prelude {
    pub use crate::advisor::recommend;
    pub use crate::amortize::epochs_to_amortize;
    pub use crate::chaos::{chaos_bench_json, chaos_churn_spec, chaos_soak, chaos_table, ChaosRow};
    pub use crate::config::{PaperParams, ParamGrid, SCALE_OUT_FACTORS};
    pub use crate::correlate::{pearson, r_squared};
    pub use crate::diagnose::{
        bench_json, diagnose_prometheus, diagnose_report, diagnose_run, diagnose_runs,
        diagnose_spec, merged_snapshot, rank_causes, skew_table, summary_table, Cause,
        RunDiagnosis,
    };
    pub use crate::experiment::{
        timed_edge_partitions, timed_vertex_partitions, Timed, TimedEdgePartition,
        TimedVertexPartition,
    };
    pub use crate::family::{DistDgl, DistGnn, Family};
    pub use crate::fault_sweep::{
        fault_sweep, fault_sweep_table, mitigation_stress_spec, mitigation_sweep,
        mitigation_sweep_table, FaultSweepRow, MitigationSweepRow,
    };
    pub use crate::netchaos::{
        netchaos_bench_json, netchaos_net_spec, netchaos_soak, netchaos_table, NetChaosRow,
    };
    pub use crate::registry::{
        edge_partitioner, edge_partitioner_names, vertex_partitioner, vertex_partitioner_names,
    };
    pub use crate::report::{Distribution, Table};
    pub use crate::stream_sweep::{
        stream_bench_json, stream_policies, stream_sweep, stream_table, StreamSweepRow,
    };
    pub use crate::sweep::{distdgl_grid, distgnn_grid, DistDglGridOutcome, DistGnnGridOutcome};
    pub use crate::trace_run::{phase_table, trace_run, trace_runs, trace_spec};
    pub use gp_exec::{par_map, Threads};
}
