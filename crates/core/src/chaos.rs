//! Chaos soak harness: elastic membership + faults + checkpoints.
//!
//! Extends the robustness axis of [`crate::fault_sweep`] to full
//! cluster churn: every partitioner runs a multi-epoch soak through its
//! engine's `.elastic(..)` [`RunSpec`] leg under a seeded [`ChurnPlan`]
//! (leaves, rejoins) *and* a seeded [`FaultPlan`] (crashes, stragglers,
//! brownouts, checkpoint corruption), with a crash-consistent
//! [`CheckpointConfig`] snapshot policy. Each cell also *checks* the
//! elastic contract and records the verdicts in its row:
//!
//! 1. **Deterministic** — the same seeds give a bit-identical
//!    [`ElasticRunReport`] on a rerun.
//! 2. **Trace-transparent** — attaching an enabled [`TraceSink`]
//!    changes no `f64` of the report.
//! 3. **Never worse** — the full elastic run (graceful handoffs,
//!    migrate-then-commit rebalances) costs at most the
//!    crash-without-handoff baseline ([`ElasticOptions::no_handoff`]).
//! 4. **Spans exact** — every worker's recorded per-phase span sums
//!    reproduce the phase totals of exactly the epochs it was live for
//!    ([`fold_exact`], no tolerance).
//!
//! A row whose run errors out (fleet drained, recovery budget) reports
//! zero completed epochs and fails [`ChaosRow::holds`]; the harness
//! never panics on a survivable schedule.

use gp_cluster::{
    fold_exact, CheckpointConfig, ChurnPlan, ChurnSpec, ElasticOptions, ElasticRunReport,
    FaultPlan, FaultSpec, MetricsSnapshot, RunSpec, TracePhase, TraceSink,
};
use gp_exec::{par_map, Threads};

use crate::experiment::Timed;
use crate::family::{Engine, Family, Run};
use crate::report::Table;

/// A churn environment tuned for soaks: roughly one leave per worker
/// every ~12 epochs and quick rejoins, so even a short smoke run
/// exercises leaves, joins, handoffs and rebalances. The `min_live`
/// floor of [`ChurnSpec::standard`] (half the fleet, rounded up) is
/// kept, so the schedule alone can never drain the cluster.
pub fn chaos_churn_spec(machines: u32, epochs: u32, seed: u64) -> ChurnSpec {
    ChurnSpec { leave_prob: 0.08, rejoin_prob: 0.3, ..ChurnSpec::standard(machines, epochs, seed) }
}

/// One partitioner's soak outcome plus its invariant verdicts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosRow {
    /// Partitioner name.
    pub name: String,
    /// Requested soak horizon in epochs.
    pub epochs: u32,
    /// Epochs the elastic run completed (equals `epochs` unless the
    /// engine reported an unrecoverable failure).
    pub completed_epochs: u32,
    /// Scheduled leaves applied.
    pub leaves: u32,
    /// Scheduled joins admitted.
    pub joins: u32,
    /// Graceful leave handoffs performed.
    pub handoffs: u32,
    /// Join rebalances committed under migrate-then-commit.
    pub rebalances: u32,
    /// Join rebalances deferred (migration would not pay this epoch).
    pub rejected_rebalances: u32,
    /// Crashes repaired during the soak (fault plan).
    pub crashes: u32,
    /// Loss-induced message retries.
    pub retries: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Snapshot shards that failed checksum validation on restore.
    pub corrupted_checkpoints: u64,
    /// Healthy baseline: no-churn, no-fault seconds over the completed
    /// epochs.
    pub healthy_secs: f64,
    /// Total simulated seconds of the full elastic run (epochs +
    /// recovery + handoffs).
    pub elastic_secs: f64,
    /// Total simulated seconds of the crash-without-handoff baseline;
    /// `-1.0` when the baseline itself failed to complete (the elastic
    /// run then wins by definition).
    pub baseline_secs: f64,
    /// Recovery overhead inside `elastic_secs` (retries, re-execution,
    /// checkpoints, restores).
    pub recovery_overhead_secs: f64,
    /// Handoff/rebalance migration seconds inside `elastic_secs`.
    pub handoff_secs: f64,
    /// Bytes moved only because of recovery.
    pub recovery_bytes: u64,
    /// Bytes streamed by handoffs and committed rebalances.
    pub handoff_bytes: u64,
    /// Epochs of training progress lost to crashes.
    pub lost_progress_epochs: f64,
    /// Invariant 1: rerun with the same seeds is bit-identical.
    pub deterministic: bool,
    /// Invariant 2: an enabled trace sink changes nothing.
    pub trace_transparent: bool,
    /// Invariant 3: elastic run ≤ crash-without-handoff baseline.
    pub elastic_never_worse: bool,
    /// Invariant 4: every worker's span sums reproduce the phase
    /// totals of exactly its live epochs.
    pub spans_exact: bool,
}

impl ChaosRow {
    /// Whether the soak completed and every invariant held.
    pub fn holds(&self) -> bool {
        self.completed_epochs == self.epochs
            && self.deterministic
            && self.trace_transparent
            && self.elastic_never_worse
            && self.spans_exact
    }

    /// Wall-time inflation of the elastic run over the healthy
    /// baseline.
    pub fn slowdown(&self) -> f64 {
        if self.healthy_secs <= 0.0 {
            return 1.0;
        }
        self.elastic_secs / self.healthy_secs
    }

    /// Percentage of the crash-baseline wall time saved by elasticity
    /// (0 when the baseline is unavailable).
    pub fn elastic_saving_pct(&self) -> f64 {
        if self.baseline_secs <= 0.0 {
            return 0.0;
        }
        100.0 * (self.baseline_secs - self.elastic_secs) / self.baseline_secs
    }

    /// The row of a run that errored out before completing.
    fn failed(name: String, epochs: u32) -> ChaosRow {
        ChaosRow { name, epochs, ..ChaosRow::default() }
    }
}

/// The elastic soak of one `k`-machine cell: `epochs` epochs of
/// [`FaultSpec::standard`] faults at `mtbf`, churn from
/// [`chaos_churn_spec`] and snapshots every `checkpoint_every` epochs,
/// run with `options`.
pub(crate) fn soak_spec(
    k: u32,
    epochs: u32,
    mtbf: f64,
    checkpoint_every: u32,
    seed: u64,
    options: ElasticOptions,
) -> RunSpec {
    RunSpec::healthy()
        .epochs(epochs)
        .faults(FaultPlan::generate(&FaultSpec::standard(k, epochs, mtbf, seed)))
        .elastic(
            ChurnPlan::generate(&chaos_churn_spec(k, epochs, seed)),
            CheckpointConfig::periodic(checkpoint_every),
            options,
        )
}

/// One soak cell's run variants: the run, its rerun, the baseline
/// (`None` when it died) and the traced rerun with its recorded spans.
pub(crate) struct SoakRuns<R> {
    pub(crate) run: R,
    pub(crate) again: R,
    pub(crate) baseline: Option<R>,
    pub(crate) traced: R,
    pub(crate) sink: TraceSink,
}

/// Run one soak cell on `partition`: `specs[0]`, its rerun, the
/// `specs[1]` baseline and a traced rerun, each turned into a report
/// by `report`. `fold` builds the row from them, with the untraced
/// engine at hand for a healthy baseline. `None` when `specs[0]` itself
/// fails.
pub(crate) fn soak<F: Family, R, Row>(
    family: &F,
    partition: &F::Partition,
    specs: [RunSpec; 2],
    report: fn(Run<F::Error>) -> R,
    fold: impl FnOnce(&Engine<'_, F::Error>, SoakRuns<R>) -> Row,
) -> Option<Row> {
    let [spec, baseline] = specs;
    let engine = family.engine(partition, TraceSink::disabled()).expect("valid config");
    let run = report(engine.run(&spec).ok()?);
    let again = report(engine.run(&spec).expect("rerun of a completed schedule"));
    let baseline = engine.run(&baseline).ok().map(report);
    let sink = TraceSink::enabled();
    let traced = report(
        family
            .engine(partition, sink.clone())
            .expect("valid config")
            .run(&spec)
            .expect("traced rerun of a completed schedule"),
    );
    Some(fold(&engine, SoakRuns { run, again, baseline, traced, sink }))
}

/// Whether every worker's recorded span sums reproduce the `phases`
/// totals of exactly the epochs it was live for — every worker, not
/// only the never-churned: on a long soak the whole fleet churns at
/// least once, so an always-live-only check would go vacuous.
pub(crate) fn spans_exact(
    sink: &TraceSink,
    k: u32,
    phases: &[TracePhase],
    elastic: &ElasticRunReport,
) -> bool {
    let snap = MetricsSnapshot::from_sink(sink);
    (0..k).all(|w| {
        phases.iter().enumerate().all(|(i, phase)| {
            let per_epoch: Vec<f64> = elastic
                .phase_seconds
                .iter()
                .enumerate()
                .filter(|(e, _)| elastic.live_workers[*e].contains(&w))
                .map(|(_, row)| row[i].1)
                .collect();
            // Bit-exactness is the contract, not a tolerance band.
            snap.phase_seconds(w, *phase) == fold_exact(&per_epoch)
        })
    })
}

/// Fold a cell's run variants and recorded spans into one
/// verdict-carrying row.
fn assemble_row(
    name: &str,
    k: u32,
    epochs: u32,
    phases: &[TracePhase],
    healthy_secs: f64,
    runs: &SoakRuns<ElasticRunReport>,
) -> ChaosRow {
    let elastic = &runs.run;
    let (baseline_secs, elastic_never_worse) = match &runs.baseline {
        Some(b) => (b.total_seconds(), elastic.total_seconds() <= b.total_seconds() + 1e-9),
        // The rigid baseline died mid-soak; surviving at all wins.
        None => (-1.0, true),
    };
    ChaosRow {
        name: name.to_string(),
        epochs,
        completed_epochs: elastic.completed_epochs,
        leaves: elastic.leaves,
        joins: elastic.joins,
        handoffs: elastic.handoffs,
        rebalances: elastic.rebalances,
        rejected_rebalances: elastic.rejected_rebalances,
        crashes: elastic.recovery.crashes,
        retries: elastic.recovery.retries,
        checkpoints: elastic.recovery.checkpoints,
        corrupted_checkpoints: elastic.recovery.corrupted_checkpoints,
        healthy_secs,
        elastic_secs: elastic.total_seconds(),
        baseline_secs,
        recovery_overhead_secs: elastic.recovery.total_overhead_seconds(),
        handoff_secs: elastic.handoff_seconds,
        recovery_bytes: elastic.recovery.recovery_bytes,
        handoff_bytes: elastic.handoff_bytes,
        lost_progress_epochs: elastic.recovery.lost_progress_epochs,
        deterministic: *elastic == runs.again,
        trace_transparent: runs.traced == *elastic,
        elastic_never_worse,
        spans_exact: spans_exact(&runs.sink, k, phases, elastic),
    }
}

/// Soak every timed partition through `family`'s engine: churn from
/// [`chaos_churn_spec`], faults from [`FaultSpec::standard`] at `mtbf`,
/// snapshots every `checkpoint_every` epochs. One job per partitioner
/// on the `gp-exec` pool, rows in `timed` order, bit-identical for
/// every pool width (each cell is pure and owns its
/// trace sink). The healthy baseline is [`Family::healthy_seconds`]
/// over the completed epochs.
pub fn chaos_soak<F: Family>(
    family: &F,
    timed: &[Timed<F::Partition>],
    epochs: u32,
    mtbf: f64,
    checkpoint_every: u32,
    seed: u64,
    threads: Threads,
) -> Vec<ChaosRow> {
    let jobs: Vec<_> = timed
        .iter()
        .map(|t| {
            move || {
                let k = F::machines(&t.partition);
                let specs = [ElasticOptions::default(), ElasticOptions::no_handoff()]
                    .map(|options| soak_spec(k, epochs, mtbf, checkpoint_every, seed, options));
                soak(family, &t.partition, specs, Run::into_elastic, |engine, runs| {
                    let healthy = F::healthy_seconds(engine, epochs, runs.run.completed_epochs);
                    assemble_row(&t.name, k, epochs, F::PHASES, healthy, &runs)
                })
                .unwrap_or_else(|| ChaosRow::failed(t.name.clone(), epochs))
            }
        })
        .collect();
    par_map(threads, jobs)
}

/// Render chaos rows as a [`Table`] (CSV / Markdown ready). The last
/// column is the invariant verdict (`ok` / `FAIL`).
pub fn chaos_table(name: &str, rows: &[ChaosRow]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "epochs",
            "completed",
            "leaves",
            "joins",
            "handoffs",
            "rebalances",
            "crashes",
            "corrupt_ckpts",
            "healthy_s",
            "elastic_s",
            "baseline_s",
            "slowdown",
            "saving_pct",
            "overhead_s",
            "recovery_MB",
            "lost_epochs",
            "invariants",
        ],
    );
    for r in rows {
        table.push(vec![
            r.name.clone(),
            r.epochs.to_string(),
            r.completed_epochs.to_string(),
            r.leaves.to_string(),
            r.joins.to_string(),
            r.handoffs.to_string(),
            r.rebalances.to_string(),
            r.crashes.to_string(),
            r.corrupted_checkpoints.to_string(),
            format!("{:.4}", r.healthy_secs),
            format!("{:.4}", r.elastic_secs),
            format!("{:.4}", r.baseline_secs),
            format!("{:.3}", r.slowdown()),
            format!("{:.2}", r.elastic_saving_pct()),
            format!("{:.4}", r.recovery_overhead_secs),
            format!("{:.2}", r.recovery_bytes as f64 / 1e6),
            format!("{:.3}", r.lost_progress_epochs),
            if r.holds() { "ok".to_string() } else { "FAIL".to_string() },
        ]);
    }
    table
}

use crate::benchjson;

fn chaos_rows_json(rows: &[ChaosRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            benchjson::Obj::new()
                .str("partitioner", &r.name)
                .uint("epochs", u64::from(r.epochs))
                .uint("completed_epochs", u64::from(r.completed_epochs))
                .uint("leaves", u64::from(r.leaves))
                .uint("joins", u64::from(r.joins))
                .uint("handoffs", u64::from(r.handoffs))
                .uint("rebalances", u64::from(r.rebalances))
                .uint("rejected_rebalances", u64::from(r.rejected_rebalances))
                .uint("crashes", u64::from(r.crashes))
                .uint("retries", r.retries)
                .uint("checkpoints", r.checkpoints)
                .uint("corrupted_checkpoints", r.corrupted_checkpoints)
                .f9("healthy_seconds", r.healthy_secs)
                .f9("elastic_seconds", r.elastic_secs)
                .f9("baseline_seconds", r.baseline_secs)
                .f9("recovery_overhead_seconds", r.recovery_overhead_secs)
                .f9("handoff_seconds", r.handoff_secs)
                .uint("recovery_bytes", r.recovery_bytes)
                .uint("handoff_bytes", r.handoff_bytes)
                .f9("lost_progress_epochs", r.lost_progress_epochs)
                .f9("slowdown", r.slowdown())
                .f9("elastic_saving_pct", r.elastic_saving_pct())
                .boolean("invariants_hold", r.holds())
                .finish()
        })
        .collect();
    benchjson::array(&entries)
}

/// The `BENCH_chaos.json` payload: per-partitioner recovery-overhead
/// and lost-progress metrics for both engines, plus the invariant
/// verdicts. Deterministic rows ⇒ byte-identical artifact.
pub fn chaos_bench_json(distgnn: &[ChaosRow], distdgl: &[ChaosRow]) -> String {
    benchjson::bench_doc(
        "chaos",
        &[("distgnn", chaos_rows_json(distgnn)), ("distdgl", chaos_rows_json(distdgl))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::experiment::{timed_edge_partitions, timed_vertex_partitions};
    use crate::family::{DistDgl, DistGnn};
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn params() -> PaperParams {
        PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 }
    }

    #[test]
    fn chaos_churn_spec_schedules_actual_churn() {
        let plan = ChurnPlan::generate(&chaos_churn_spec(8, 40, 0xc0de));
        assert!(plan.total_leaves() >= 3, "leaves: {}", plan.total_leaves());
        assert!(plan.total_joins() >= 2, "joins: {}", plan.total_joins());
    }

    #[test]
    fn distgnn_chaos_rows_hold_all_invariants() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed: Vec<_> =
            timed_edge_partitions(&g, 4, 1, Threads::serial()).into_iter().take(3).collect();
        let gnn = DistGnn::new(&g, params().model(ModelKind::Sage));
        let rows = chaos_soak(&gnn, &timed, 10, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert!(r.holds(), "{}: invariants must hold: {r:?}", r.name);
            assert_eq!(r.completed_epochs, 10);
            assert!(r.leaves > 0, "{}: soak must exercise churn", r.name);
            assert!(r.checkpoints > 0);
            assert!(r.elastic_secs > r.healthy_secs, "chaos is never free");
        }
        let again = chaos_soak(&gnn, &timed, 10, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows, again, "same seed must give bit-identical rows");
    }

    #[test]
    fn distdgl_chaos_rows_hold_all_invariants() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed: Vec<_> = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial())
            .into_iter()
            .take(2)
            .collect();
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, params().model(ModelKind::Sage))
        };
        let rows = chaos_soak(&dgl, &timed, 8, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert!(r.holds(), "{}: invariants must hold: {r:?}", r.name);
            assert_eq!(r.completed_epochs, 8);
            assert!(r.leaves > 0, "{}: soak must exercise churn", r.name);
        }
        let again = chaos_soak(&dgl, &timed, 8, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows, again);
    }

    #[test]
    fn chaos_soaks_threaded_are_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed: Vec<_> =
            timed_edge_partitions(&g, 4, 1, Threads::serial()).into_iter().take(3).collect();
        let gnn = DistGnn::new(&g, params().model(ModelKind::Sage));
        let serial = chaos_soak(&gnn, &timed, 8, 6.0, 2, 7, Threads::serial());
        for threads in [2usize, 4] {
            let par = chaos_soak(&gnn, &timed, 8, 6.0, 2, 7, Threads::new(threads));
            assert_eq!(par, serial, "distgnn threads = {threads}");
        }
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let vtimed: Vec<_> = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial())
            .into_iter()
            .take(2)
            .collect();
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, params().model(ModelKind::Sage))
        };
        let vserial = chaos_soak(&dgl, &vtimed, 6, 6.0, 2, 7, Threads::serial());
        let vpar = chaos_soak(&dgl, &vtimed, 6, 6.0, 2, 7, Threads::new(4));
        assert_eq!(vpar, vserial);
    }

    #[test]
    fn table_and_json_render_all_rows_and_verdicts() {
        let ok = ChaosRow {
            name: "Metis".into(),
            epochs: 10,
            completed_epochs: 10,
            leaves: 3,
            joins: 2,
            handoffs: 2,
            rebalances: 1,
            crashes: 1,
            checkpoints: 5,
            healthy_secs: 1.0,
            elastic_secs: 1.4,
            baseline_secs: 1.9,
            recovery_overhead_secs: 0.2,
            recovery_bytes: 3_000_000,
            lost_progress_epochs: 0.25,
            deterministic: true,
            trace_transparent: true,
            elastic_never_worse: true,
            spans_exact: true,
            ..ChaosRow::default()
        };
        let failed = ChaosRow::failed("Random".into(), 10);
        assert!(ok.holds());
        assert!(!failed.holds());
        let t = chaos_table("chaos", &[ok.clone(), failed.clone()]);
        let csv = t.to_csv();
        assert!(csv.contains("Metis"));
        assert!(csv.contains("1.400"), "slowdown column: {csv}");
        assert!(csv.contains(",ok"), "verdict column: {csv}");
        assert!(csv.contains(",FAIL"), "failed verdict: {csv}");
        assert!(t.to_markdown().contains("corrupt_ckpts"));
        let json = chaos_bench_json(&[ok], &[failed]);
        assert!(json.starts_with("{\"bench\":\"chaos\""));
        assert!(json.contains("\"invariants_hold\":true"));
        assert!(json.contains("\"invariants_hold\":false"));
        assert!(json.contains("\"lost_progress_epochs\":0.250000000"));
        assert!(json.ends_with("}\n"));
    }
}
