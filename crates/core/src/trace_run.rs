//! Traced engine runs.
//!
//! Builds an engine with an *enabled* span sink, runs a handful of
//! epochs — optionally under a fault plan and/or with the mitigation
//! layer active — and hands back the recorded [`TraceSink`], ready for
//! Chrome-JSON (`chrome://tracing`) or per-phase CSV export. These are
//! the helpers behind the `gnnpart trace` subcommand and the `phases`
//! ablation.
//!
//! Tracing is purely observational: the engines produce bit-identical
//! reports with and without a sink attached (asserted by the engine
//! test suites), so a traced run is also a faithful run.

use gp_cluster::{FaultPlan, MitigationPolicy, RunSpec, TraceSink};
use gp_exec::{ExecTiming, Parallelism, Threads};

use crate::experiment::Timed;
use crate::family::{try_cells, Family};
use crate::report::Table;

/// Run `spec` traced on `family`'s engine over `partition`.
///
/// # Errors
///
/// Construction errors (invalid configuration, cluster mismatch) and
/// fault-path errors (crash of the last replica holder or worker,
/// recovery budget).
pub fn trace_run<F: Family>(
    family: &F,
    partition: &F::Partition,
    spec: &RunSpec,
    engine_threads: Threads,
) -> Result<TraceSink, F::Error> {
    let sink = TraceSink::enabled();
    family.engine(partition, engine_threads, sink.clone())?.run(spec)?.strict()?;
    Ok(sink)
}

/// The [`RunSpec`] every trace sweep runs: `epochs` epochs, faults when
/// a plan is given, the full mitigation policy when `mitigate`. `plan:
/// None` (or an empty plan) is the healthy baseline; with `mitigate`
/// the mitigation layer rides on top of the fault path, exactly as in
/// the robustness sweeps.
pub fn trace_spec(epochs: u32, plan: Option<&FaultPlan>, mitigate: bool) -> RunSpec {
    let mut spec = RunSpec::healthy().epochs(epochs);
    if let Some(plan) = plan {
        spec = spec.faults(plan.clone());
    }
    if mitigate {
        spec = spec.mitigate(MitigationPolicy::all());
    }
    spec
}

/// Recorded traces paired with their partitioner names.
pub type NamedTraces = Vec<(String, TraceSink)>;

/// One traced run of [`trace_spec`] per timed partition, on the
/// `gp-exec` pool.
///
/// Every partitioner gets its own [`TraceSink`] (sinks are `Send` since
/// the buffer is `Arc<Mutex>`-shared), so cells never contend on one
/// buffer and the recorded spans per partitioner are bit-identical for
/// every thread count. Returns `(name, sink)` pairs in `timed` order
/// together with the pool's [`ExecTiming`] — the `phases` ablation uses
/// [`ExecTiming::speedup`] to print the runner's own
/// sequential-vs-parallel speedup.
///
/// # Errors
///
/// The first failing cell's error, in index order.
pub fn trace_runs<F: Family>(
    family: &F,
    timed: &[Timed<F::Partition>],
    epochs: u32,
    plan: Option<&FaultPlan>,
    mitigate: bool,
    par: impl Into<Parallelism>,
) -> Result<(NamedTraces, ExecTiming), F::Error> {
    let _prof = gp_prof::scope_label(|| format!("core.trace.{}", F::NAME));
    let par = par.into();
    let spec = &trace_spec(epochs, plan, mitigate);
    try_cells(timed, par.sweep, |t| {
        Ok((t.name.clone(), trace_run(family, &t.partition, spec, par.engine)?))
    })
}

/// Per-(worker, phase) aggregate of a recorded trace as a results
/// [`Table`] (the same rows as [`TraceSink::phase_csv`], routed through
/// the report layer so sweeps and ablations can emit it like any other
/// artifact).
pub fn phase_table(name: &str, sink: &TraceSink) -> Table {
    let mut table = Table::new(name, &["worker", "phase", "spans", "seconds", "bytes", "flops"]);
    for row in sink.phase_rows() {
        table.push(vec![
            row.worker.to_string(),
            row.phase.name().to_string(),
            row.spans.to_string(),
            format!("{:.9}", row.seconds),
            row.bytes.to_string(),
            row.flops.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::experiment::{timed_edge_partitions, timed_vertex_partitions};
    use crate::family::{DistDgl, DistGnn};
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn slowdown_plan() -> FaultPlan {
        FaultPlan {
            events: vec![gp_cluster::FaultEvent::Slowdown {
                machine: 1,
                from_epoch: 0,
                until_epoch: 3,
                factor: 0.25,
            }],
            machines: 4,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        }
    }

    #[test]
    fn distgnn_trace_run_records_spans() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let gnn = DistGnn::new(&g, PaperParams::middle().model(ModelKind::Sage));
        let spec = trace_spec(2, None, false);
        let sink = trace_run(&gnn, &timed[0].partition, &spec, Threads::serial()).unwrap();
        assert!(!sink.spans().is_empty());
        assert!(sink.spans().iter().any(|s| s.epoch == 1), "both epochs recorded");
        let json = sink.to_chrome_json();
        assert!(json.starts_with('['));
        let table = phase_table("phase_breakdown", &sink);
        assert_eq!(table.headers.len(), 6);
        assert!(!table.rows.is_empty());
    }

    #[test]
    fn trace_runs_are_bit_identical_across_thread_counts() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let gnn = DistGnn::new(&g, PaperParams::middle().model(ModelKind::Sage));
        let (serial, serial_timing) =
            trace_runs(&gnn, &timed, 2, None, false, Threads::serial()).unwrap();
        assert_eq!(serial_timing.threads, 1);
        assert_eq!(serial_timing.steals, 0);
        for threads in [2usize, 4] {
            let (par, _) = trace_runs(&gnn, &timed, 2, None, false, Threads::new(threads)).unwrap();
            assert_eq!(par.len(), serial.len());
            for ((pn, ps), (sn, ss)) in par.iter().zip(serial.iter()) {
                assert_eq!(pn, sn, "partitioner order preserved");
                assert_eq!(ps.spans(), ss.spans(), "threads = {threads}: spans bit-identical");
                assert_eq!(ps.phase_csv(), ss.phase_csv(), "CSV byte-identical");
            }
        }
    }

    #[test]
    fn distdgl_trace_run_composes_faults_and_mitigation() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, PaperParams::middle().model(ModelKind::Sage))
        };
        let plan = slowdown_plan();
        let sink = trace_run(
            &dgl,
            &timed[0].partition,
            &trace_spec(3, Some(&plan), true),
            Threads::serial(),
        )
        .unwrap();
        assert!(!sink.spans().is_empty());
        assert!(sink.spans().iter().any(|s| s.epoch == 2), "all epochs recorded");
        assert!(!sink.phase_csv().is_empty());
    }
}
