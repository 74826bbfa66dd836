//! Automated run diagnosis on top of the metrics registry.
//!
//! Where [`crate::trace_run`] hands back raw spans, this module runs
//! the engines with an enabled sink, aggregates the trace through
//! [`MetricsRegistry`], **cross-checks every per-worker, per-phase
//! histogram total against the engine's own per-epoch phase breakdown
//! exactly** (f64 `==` — the span invariant discipline, extended from
//! spans to aggregated metrics), and derives the paper's Sections 5–6
//! analysis automatically: load-imbalance indices, communication skew,
//! straggler attribution, and a ranked breakdown of what the epoch time
//! was spent on (balanced compute vs compute imbalance vs fetch/sync
//! volume vs injected faults).
//!
//! Everything exported here — the markdown run report, the Prometheus
//! text, the skew tables — is deterministic: same inputs, same bytes,
//! at every thread count (the threaded runners place per-cell results
//! by index, and snapshot merging is order-insensitive by
//! construction).

use gp_cluster::{
    fold_exact, FaultPlan, MetricsRegistry, MetricsSnapshot, MitigationPolicy, RunReport, RunSpec,
    TracePhase, TraceSink,
};
use gp_exec::Threads;

use crate::experiment::Timed;
use crate::family::{try_cells, Epoch, Family};
use crate::report::Table;

/// One ranked contributor to a run's total epoch time.
#[derive(Debug, Clone, PartialEq)]
pub struct Cause {
    /// Stable label (e.g. `"compute imbalance"`).
    pub label: &'static str,
    /// Seconds of critical path attributed to this cause.
    pub seconds: f64,
}

/// The diagnosed outcome of one (partitioner, engine-path) run.
#[derive(Debug, Clone)]
pub struct RunDiagnosis {
    /// Run label (usually the partitioner name).
    pub name: String,
    /// Aggregated, mergeable metrics of the whole run.
    pub snapshot: MetricsSnapshot,
    /// Cluster size.
    pub workers: u32,
    /// Epochs simulated.
    pub epochs: u32,
    /// Exact canonical fold of the per-epoch engine epoch times.
    pub epoch_seconds: f64,
    /// Total network bytes over all epochs (exact integer sum).
    pub total_bytes: u64,
    /// Number of exact (f64 `==`) histogram-vs-outcome comparisons the
    /// cross-check performed (one per worker per reported phase).
    pub cross_checks: usize,
    /// Contributors to `epoch_seconds`, sorted descending.
    pub causes: Vec<Cause>,
}

/// Compute phases (per-worker work) vs communication phases (fetch /
/// sync volume) vs fault phases (injected-fault overhead) — the cause
/// taxonomy of the run report.
const COMPUTE_PHASES: [TracePhase; 5] = [
    TracePhase::Forward,
    TracePhase::Backward,
    TracePhase::Optimizer,
    TracePhase::Sampling,
    TracePhase::Update,
];
const COMM_PHASES: [TracePhase; 2] = [TracePhase::Sync, TracePhase::FeatureLoad];
const FAULT_PHASES: [TracePhase; 3] =
    [TracePhase::Checkpoint, TracePhase::Recovery, TracePhase::Migration];

/// Critical-path seconds of one phase: the maximum per-worker mass
/// (identical across workers for gated phases; the per-worker maximum
/// for recovery/migration, which land on specific machines).
fn phase_critical_seconds(snap: &MetricsSnapshot, workers: u32, phase: TracePhase) -> f64 {
    (0..workers).map(|w| snap.phase_seconds(w, phase)).fold(0.0, f64::max)
}

/// Rank the causes of a run's epoch time from its snapshot.
///
/// The engines gate every phase on the slowest worker, so a phase's
/// observed time scales with the *maximum* per-worker load; a perfectly
/// balanced phase would take `observed · mean/max`. That splits compute
/// time into a balanced part and an imbalance part using the FLOP
/// skew, with fetch/sync volume and injected-fault overhead as the
/// remaining contributors.
pub fn rank_causes(snap: &MetricsSnapshot, workers: u32) -> Vec<Cause> {
    let compute: f64 =
        COMPUTE_PHASES.iter().map(|&p| phase_critical_seconds(snap, workers, p)).sum();
    let comm: f64 = COMM_PHASES.iter().map(|&p| phase_critical_seconds(snap, workers, p)).sum();
    let faults: f64 = FAULT_PHASES.iter().map(|&p| phase_critical_seconds(snap, workers, p)).sum();
    // Transport-level loss retries and partition handling are recorded
    // as a cumulative per-run counter, so the peak is the total.
    let net: f64 = (0..workers)
        .filter_map(|w| snap.counter(w, gp_cluster::trace::counter_names::NET_RETRY_SECONDS))
        .map(|c| c.peak)
        .fold(0.0, f64::max);
    let skew = snap.compute_skew();
    let balanced = if skew > 1.0 { compute / skew } else { compute };
    let mut causes = vec![
        Cause { label: "balanced compute", seconds: balanced },
        Cause { label: "compute imbalance", seconds: compute - balanced },
        Cause { label: "fetch/sync volume", seconds: comm },
        Cause { label: "injected faults & recovery", seconds: faults },
        Cause { label: "network loss/partition", seconds: net },
    ];
    causes.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.label.cmp(b.label)));
    causes
}

/// Cross-check the snapshot against the per-epoch engine outcomes: for
/// every worker and every phase the engine reports, the aggregated
/// histogram mass must equal the canonical fold of the per-epoch
/// outcome values **exactly** (f64 `==`).
///
/// Returns the number of comparisons performed.
///
/// # Panics
///
/// On any mismatch — that is a broken engine/metrics invariant, not a
/// recoverable condition.
pub fn cross_check(
    name: &str,
    snap: &MetricsSnapshot,
    workers: u32,
    per_epoch: &[Vec<(&'static str, f64)>],
) -> usize {
    let mut checks = 0usize;
    let Some(first) = per_epoch.first() else { return 0 };
    for (i, (phase_name, _)) in first.iter().enumerate() {
        let phase = TracePhase::from_name(phase_name)
            .expect("EpochOutcome phase names match TracePhase::name");
        let values: Vec<f64> = per_epoch.iter().map(|b| b[i].1).collect();
        let expect = fold_exact(&values);
        for w in 0..workers {
            let got = snap.phase_seconds(w, phase);
            assert!(
                got == expect,
                "{name}: worker {w} {phase_name} histogram mass {got} != engine total {expect}"
            );
            checks += 1;
        }
    }
    checks
}

/// Diagnose the epochs of `spec` (from [`diagnose_spec`]) on
/// `family`'s engine over `partition`: a traced run plus metrics
/// aggregation, exact cross-check, and cause ranking.
///
/// # Errors
///
/// Construction and fault-path errors of the engine, and
/// [`Family::invalid`] for a spec without a fault or mitigation leg.
pub fn diagnose_run<F: Family>(
    family: &F,
    partition: &F::Partition,
    name: &str,
    spec: &RunSpec,
) -> Result<RunDiagnosis, F::Error> {
    let sink = TraceSink::enabled();
    let engine = family.engine(partition, sink.clone())?;
    let epochs: Vec<Epoch> = match engine.run(spec)?.strict()? {
        RunReport::Faulty { epochs, .. } => epochs,
        _ => return Err(F::invalid(NOT_DIAGNOSABLE)),
    };
    let workers = F::machines(partition);
    let per_epoch: Vec<_> = epochs.iter().map(|e| e.phases.clone()).collect();
    let epoch_times: Vec<f64> = epochs.iter().map(|e| e.seconds).collect();
    let mut reg = MetricsRegistry::new();
    reg.ingest_sink(&sink);
    let snapshot = reg.snapshot();
    let cross_checks = cross_check(name, &snapshot, workers, &per_epoch);
    let causes = rank_causes(&snapshot, workers);
    Ok(RunDiagnosis {
        name: name.to_string(),
        snapshot,
        workers,
        epochs: spec.num_epochs(),
        epoch_seconds: fold_exact(&epoch_times),
        total_bytes: epochs.iter().map(|e| e.bytes).sum(),
        cross_checks,
        causes,
    })
}

const NOT_DIAGNOSABLE: &str = "diagnose needs a fault or mitigation leg (see diagnose_spec)";

/// The [`RunSpec`] every diagnosis runs: `epochs` epochs under `plan`
/// (an empty one when none was given), mitigated by `policy` — the
/// `gnnpart simulate` fault path; a [`MitigationPolicy::none`] policy
/// runs the unmitigated engine.
pub fn diagnose_spec(epochs: u32, plan: Option<&FaultPlan>, policy: MitigationPolicy) -> RunSpec {
    let plan = plan.cloned().unwrap_or_else(FaultPlan::empty);
    RunSpec::healthy().epochs(epochs).faults(plan).mitigate(policy)
}

/// One diagnosis of [`diagnose_spec`] per timed partition, on the
/// `gp-exec` pool. Results are placed by index, so output order (and
/// every derived artifact) is bit-identical at every thread count.
///
/// # Errors
///
/// The first failing cell's error, in index order.
pub fn diagnose_runs<F: Family>(
    family: &F,
    timed: &[Timed<F::Partition>],
    epochs: u32,
    plan: Option<&FaultPlan>,
    policy: MitigationPolicy,
    threads: Threads,
) -> Result<Vec<RunDiagnosis>, F::Error> {
    let _prof = gp_prof::scope_label(|| format!("core.diagnose.{}", F::NAME));
    let spec = &diagnose_spec(epochs, plan, policy);
    try_cells(timed, threads, |t| diagnose_run(family, &t.partition, &t.name, spec))
}

/// Merge the per-run snapshots in index order into one cluster-wide
/// snapshot. Merging is associative and order-insensitive, so any
/// grouping of the same runs produces bit-identical bytes.
pub fn merged_snapshot(runs: &[RunDiagnosis]) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for r in runs {
        merged.merge(&r.snapshot);
    }
    merged
}

/// Fixed-precision float for report/CSV cells: deterministic and
/// byte-stable across platforms (the shared BENCH-artifact grammar).
use crate::benchjson::{self, fmt9};

/// Per-(partitioner, phase) skew table: quantiles from the cluster-wide
/// histogram, load/traffic imbalance from the per-worker totals.
pub fn skew_table(name: &str, runs: &[RunDiagnosis]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "phase",
            "p50",
            "p95",
            "p99",
            "max",
            "seconds",
            "flops_imbalance",
            "bytes_imbalance",
        ],
    );
    for run in runs {
        for phase in run.snapshot.phases_present() {
            let Some(stat) = run.snapshot.cluster_phase_stat(phase) else { continue };
            table.push(vec![
                run.name.clone(),
                phase.name().to_string(),
                fmt9(stat.quantile(0.5)),
                fmt9(stat.quantile(0.95)),
                fmt9(stat.quantile(0.99)),
                fmt9(stat.max),
                fmt9(phase_critical_seconds(&run.snapshot, run.workers, phase)),
                fmt9(run.snapshot.phase_flops_imbalance(phase)),
                fmt9(run.snapshot.phase_bytes_imbalance(phase)),
            ]);
        }
    }
    table
}

/// Per-partitioner summary table: epoch time, skews, straggler and the
/// top-ranked cause.
pub fn summary_table(name: &str, runs: &[RunDiagnosis]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "epochs",
            "epoch_seconds",
            "total_bytes",
            "compute_skew",
            "comm_skew",
            "straggler",
            "straggler_phase",
            "straggler_excess_s",
            "top_cause",
            "top_cause_seconds",
            "cross_checks",
        ],
    );
    for run in runs {
        let (sw, sp, se) = match run.snapshot.load_straggler() {
            Some(s) => (s.worker.to_string(), s.phase.name().to_string(), fmt9(s.excess_seconds)),
            None => ("none".to_string(), "none".to_string(), fmt9(0.0)),
        };
        let top = run.causes.first();
        table.push(vec![
            run.name.clone(),
            run.epochs.to_string(),
            fmt9(run.epoch_seconds),
            run.total_bytes.to_string(),
            fmt9(run.snapshot.compute_skew()),
            fmt9(run.snapshot.communication_skew()),
            sw,
            sp,
            se,
            top.map_or("none", |c| c.label).to_string(),
            fmt9(top.map_or(0.0, |c| c.seconds)),
            run.cross_checks.to_string(),
        ]);
    }
    table
}

/// The deterministic markdown run report: per run, the phase statistics
/// table, skew indices, straggler attribution, the ranked causes of
/// epoch time, and the exactness cross-check tally.
pub fn diagnose_report(title: &str, runs: &[RunDiagnosis]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Run diagnosis: {title}\n"));
    for run in runs {
        out.push_str(&format!(
            "\n## {}\n\nworkers: {} · epochs: {} · epoch time: {} s · network: {} bytes\n",
            run.name,
            run.workers,
            run.epochs,
            fmt9(run.epoch_seconds),
            run.total_bytes
        ));
        out.push_str("\n| phase | p50 | p95 | p99 | max | seconds | flops skew | bytes skew |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for phase in run.snapshot.phases_present() {
            let Some(stat) = run.snapshot.cluster_phase_stat(phase) else { continue };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                phase.name(),
                fmt9(stat.quantile(0.5)),
                fmt9(stat.quantile(0.95)),
                fmt9(stat.quantile(0.99)),
                fmt9(stat.max),
                fmt9(phase_critical_seconds(&run.snapshot, run.workers, phase)),
                fmt9(run.snapshot.phase_flops_imbalance(phase)),
                fmt9(run.snapshot.phase_bytes_imbalance(phase)),
            ));
        }
        out.push_str(&format!(
            "\ncompute skew (max/mean FLOPs): {}\ncommunication skew (max/mean bytes): {}\n",
            fmt9(run.snapshot.compute_skew()),
            fmt9(run.snapshot.communication_skew())
        ));
        match run.snapshot.load_straggler() {
            Some(s) => out.push_str(&format!(
                "straggler: worker {} in {} (+{} s critical path)\n",
                s.worker,
                s.phase.name(),
                fmt9(s.excess_seconds)
            )),
            None => out.push_str("straggler: none\n"),
        }
        out.push_str("\n### Ranked causes of epoch time\n\n| cause | seconds |\n|---|---|\n");
        for c in &run.causes {
            out.push_str(&format!("| {} | {} |\n", c.label, fmt9(c.seconds)));
        }
        out.push_str(&format!(
            "\nexactness cross-check: {} per-worker phase totals equal the engine report (f64 ==)\n",
            run.cross_checks
        ));
    }
    out
}

/// Prometheus text exposition of all runs merged (index order — the
/// merge is order-insensitive, so this is canonical).
pub fn diagnose_prometheus(runs: &[RunDiagnosis]) -> String {
    merged_snapshot(runs).to_prometheus()
}

/// JSON benchmark snapshot: per-partitioner imbalance index and p99
/// phase times (the first point of the perf/skew trajectory in
/// `results/BENCH_diagnose.json`).
pub fn bench_json(runs: &[RunDiagnosis]) -> String {
    let mut entries = Vec::new();
    for run in runs {
        let mut phases = Vec::new();
        for phase in run.snapshot.phases_present() {
            let Some(stat) = run.snapshot.cluster_phase_stat(phase) else { continue };
            phases.push(
                benchjson::Obj::new()
                    .str("phase", phase.name())
                    .f9("p99", stat.quantile(0.99))
                    .f9("max", stat.max)
                    .f9("flops_imbalance", run.snapshot.phase_flops_imbalance(phase))
                    .finish(),
            );
        }
        entries.push(
            benchjson::Obj::new()
                .str("partitioner", &run.name)
                .f9("epoch_seconds", run.epoch_seconds)
                .f9("compute_skew", run.snapshot.compute_skew())
                .f9("comm_skew", run.snapshot.communication_skew())
                .raw("phases", &benchjson::array(&phases))
                .finish(),
        );
    }
    benchjson::bench_doc("diagnose", &[("runs", benchjson::array(&entries))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::experiment::{timed_edge_partitions, timed_vertex_partitions};
    use crate::family::{DistDgl, DistGnn};
    use gp_graph::{DatasetId, Graph, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn graph() -> Graph {
        DatasetId::OR.generate(GraphScale::Tiny).unwrap()
    }

    fn gnn(g: &Graph) -> DistGnn<'_> {
        DistGnn::new(g, PaperParams::middle().model(ModelKind::Sage))
    }

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
    fn diagnose_distgnn_cross_checks_every_worker_phase() {
        let g = graph();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let d = diagnose_run(
            &gnn(&g),
            &timed[0].partition,
            &timed[0].name,
            &diagnose_spec(3, None, MitigationPolicy::none()),
        )
        .unwrap();
        // 4 workers × 4 reported phases × one exact comparison each.
        assert_eq!(d.cross_checks, 16);
        assert_eq!(d.workers, 4);
        assert_eq!(d.epochs, 3);
        assert!(d.epoch_seconds > 0.0);
        assert!(d.total_bytes > 0);
        assert_eq!(d.causes.len(), 5);
        assert!(d.causes.windows(2).all(|w| w[0].seconds >= w[1].seconds), "ranked descending");
        // Healthy run: no fault overhead, no transport overhead.
        let faults = d.causes.iter().find(|c| c.label == "injected faults & recovery").unwrap();
        assert_eq!(faults.seconds, 0.0);
        let net = d.causes.iter().find(|c| c.label == "network loss/partition").unwrap();
        assert_eq!(net.seconds, 0.0);
    }

    #[test]
    fn diagnose_rejects_a_spec_without_fault_leg() {
        let g = graph();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let healthy = RunSpec::healthy().epochs(2);
        let part = &timed[0].partition;
        let err = diagnose_run(&gnn(&g), part, "x", &healthy);
        assert!(matches!(err, Err(gp_distgnn::DistGnnError::InvalidConfig(_))), "{err:?}");
    }

    #[test]
    fn diagnose_composes_faults_and_mitigation() {
        let g = graph();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let plan = slowdown_plan();
        for policy in [
            MitigationPolicy::none(),
            MitigationPolicy::steal(),
            MitigationPolicy::adaptive(),
            MitigationPolicy::all(),
        ] {
            let d = diagnose_run(
                &gnn(&g),
                &timed[0].partition,
                "hdrf",
                &diagnose_spec(3, Some(&plan), policy),
            )
            .unwrap();
            assert_eq!(d.cross_checks, 16, "policy = {policy:?}");
            assert!(d.epoch_seconds > 0.0);
        }
    }

    #[test]
    fn diagnose_distdgl_cross_checks_every_worker_phase() {
        let g = graph();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, PaperParams::middle().model(ModelKind::Sage))
        };
        let d = diagnose_run(
            &dgl,
            &timed[0].partition,
            &timed[0].name,
            &diagnose_spec(2, None, MitigationPolicy::none()),
        )
        .unwrap();
        // 4 workers × 5 reported phases.
        assert_eq!(d.cross_checks, 20);
        // Mini-batch sampling yields real load skew.
        assert!(d.snapshot.compute_skew() >= 1.0);
    }

    #[test]
    fn diagnose_runs_and_artifacts_are_thread_invariant() {
        let g = graph();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let none = MitigationPolicy::none();
        let serial = diagnose_runs(&gnn(&g), &timed, 2, None, none, Threads::serial()).unwrap();
        let report = diagnose_report("distgnn", &serial);
        let prom = diagnose_prometheus(&serial);
        let skew = skew_table("skew", &serial).to_csv();
        let summary = summary_table("summary", &serial).to_csv();
        let bench = bench_json(&serial);
        for threads in [2usize, 4] {
            let par =
                diagnose_runs(&gnn(&g), &timed, 2, None, none, Threads::new(threads)).unwrap();
            assert_eq!(diagnose_report("distgnn", &par), report, "threads = {threads}");
            assert_eq!(diagnose_prometheus(&par), prom, "threads = {threads}");
            assert_eq!(skew_table("skew", &par).to_csv(), skew, "threads = {threads}");
            assert_eq!(summary_table("summary", &par).to_csv(), summary, "threads = {threads}");
            assert_eq!(bench_json(&par), bench, "threads = {threads}");
        }
        // Shape sanity: the report names every partitioner and the
        // Prometheus text carries each family once.
        for t in &timed {
            assert!(report.contains(&format!("## {}", t.name)));
        }
        assert_eq!(prom.matches("# TYPE gnnpart_phase_duration_seconds histogram").count(), 1);
        assert!(!bench.contains("NaN"));
    }

    #[test]
    fn merged_snapshot_is_grouping_invariant() {
        let g = graph();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let runs =
            diagnose_runs(&gnn(&g), &timed, 2, None, MitigationPolicy::none(), Threads::serial())
                .unwrap();
        let all = merged_snapshot(&runs);
        // Merge in reverse order and in two halves: identical snapshots.
        let mut rev = MetricsSnapshot::default();
        for r in runs.iter().rev() {
            rev.merge(&r.snapshot);
        }
        assert_eq!(all, rev);
        let mid = runs.len() / 2;
        let mut left = merged_snapshot(&runs[..mid]);
        let right = merged_snapshot(&runs[mid..]);
        left.merge(&right);
        assert_eq!(all, left);
        assert_eq!(all.to_prometheus(), rev.to_prometheus());
    }
}
