//! Network-chaos soak harness: message-level faults + partitions on
//! top of the elastic chaos environment of [`crate::chaos`].
//!
//! Every partitioner runs a multi-epoch soak through its engine's
//! `.elastic(..).net(..)` [`RunSpec`](gp_cluster::RunSpec) legs under a
//! seeded [`ChurnPlan`](gp_cluster::ChurnPlan) (leaves, rejoins), a
//! seeded [`FaultPlan`](gp_cluster::FaultPlan) (crashes, stragglers,
//! brownouts) *and* a seeded [`NetFaultPlan`] (per-message loss,
//! duplication, reorder, plus partition windows splitting the fleet
//! into quorum and minority islands) — the full composition the paper's
//! communication-cost analysis motivates. Each cell checks the network
//! fault contract and records the verdicts in its row:
//!
//! 1. **Deterministic** — the same seeds give a bit-identical
//!    [`PartitionedRunReport`] on a rerun.
//! 2. **Trace-transparent** — attaching an enabled
//!    [`TraceSink`](gp_cluster::TraceSink) changes no `f64` of the
//!    report.
//! 3. **Degraded never worse** — the degraded-mode run (bounded-stale
//!    quorum-side progress during partitions) costs at most the
//!    abort-and-recover-from-checkpoint baseline
//!    ([`NetRunOptions::abort_only`]). The engines adopt degraded mode
//!    only when its priced cost is at most the abort price, so this is
//!    an *adopt-only* invariant, not a tolerance band.
//! 4. **Exactly once** — seeded duplication and retransmission never
//!    leak an effective duplicate past the receiver's dedup window.
//! 5. **Spans exact** — every worker's recorded per-phase span sums
//!    reproduce the phase totals of exactly the epochs it was live for
//!    ([`fold_exact`](gp_cluster::fold_exact), no tolerance), quorum-only
//!    epochs included.
//!
//! A row whose run errors out reports zero completed epochs and fails
//! [`NetChaosRow::holds`]; the harness never panics on a survivable
//! schedule.

use gp_cluster::{
    ElasticOptions, NetFaultPlan, NetFaultSpec, NetRunOptions, PartitionedRunReport, TracePhase,
};
use gp_exec::{par_map, Threads};

use crate::chaos::{soak, soak_spec, spans_exact, SoakRuns};
use crate::experiment::Timed;
use crate::family::{Family, Run};
use crate::report::Table;

/// A network fault environment tuned for soaks: modest per-message
/// noise (loss stays well under the brownout rates of
/// [`FaultSpec::standard`](gp_cluster::FaultSpec::standard), it composes
/// with them) and frequent short
/// partition windows, so even a smoke-length soak arms windows and
/// exercises the degraded/abort decision.
pub fn netchaos_net_spec(machines: u32, epochs: u32, seed: u64) -> NetFaultSpec {
    NetFaultSpec { partition_prob: 0.12, ..NetFaultSpec::standard(machines, epochs, seed) }
}

/// One partitioner's network-chaos outcome plus its invariant verdicts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetChaosRow {
    /// Partitioner name.
    pub name: String,
    /// Requested soak horizon in epochs.
    pub epochs: u32,
    /// Epochs the partitioned run completed.
    pub completed_epochs: u32,
    /// Partition windows armed (a live link was actually cut).
    pub windows: u32,
    /// Windows ridden out in bounded-staleness degraded mode.
    pub degraded_windows: u32,
    /// Windows resolved by abort-and-recover.
    pub aborted_windows: u32,
    /// Epochs spent under an armed partition window.
    pub partitioned_epochs: u32,
    /// Epochs that made degraded-mode progress on the quorum side.
    pub degraded_epochs: u32,
    /// Longest consecutive staleness (epochs) any degraded window hit.
    pub max_staleness: u32,
    /// Remote aggregations / fetches served from stale replicas or the
    /// feature cache during degraded epochs.
    pub stale_served: u64,
    /// Minority-island feature fetches deferred to cache + snapshots.
    pub deferred_fetches: u64,
    /// Transport-level retransmissions (loss retries).
    pub net_retries: u64,
    /// Duplicate deliveries discarded by the receivers' dedup windows.
    pub dup_discarded: u64,
    /// Scheduled leaves applied (churn still runs underneath).
    pub leaves: u32,
    /// Scheduled joins admitted.
    pub joins: u32,
    /// Crashes repaired during the soak (fault plan).
    pub crashes: u32,
    /// Post-heal minority catch-up seconds (degraded windows only).
    pub catchup_secs: f64,
    /// Transport noise + catch-up seconds on top of the elastic run.
    pub net_overhead_secs: f64,
    /// Total simulated seconds of the degraded-mode run.
    pub degraded_secs: f64,
    /// Total simulated seconds of the abort-and-recover baseline;
    /// `-1.0` when the baseline itself failed to complete (the degraded
    /// run then wins by definition).
    pub abort_secs: f64,
    /// Invariant 1: rerun with the same seeds is bit-identical.
    pub deterministic: bool,
    /// Invariant 2: an enabled trace sink changes nothing.
    pub trace_transparent: bool,
    /// Invariant 3: degraded run ≤ abort-and-recover baseline.
    pub degraded_never_worse: bool,
    /// Invariant 4: delivery stayed exactly-once-effective.
    pub exactly_once: bool,
    /// Invariant 5: every worker's span sums reproduce the phase
    /// totals of exactly its live epochs.
    pub spans_exact: bool,
}

impl NetChaosRow {
    /// Whether the soak completed and every invariant held.
    pub fn holds(&self) -> bool {
        self.completed_epochs == self.epochs
            && self.deterministic
            && self.trace_transparent
            && self.degraded_never_worse
            && self.exactly_once
            && self.spans_exact
    }

    /// Percentage of the abort-baseline wall time saved by degraded
    /// mode (0 when the baseline is unavailable).
    pub fn degraded_saving_pct(&self) -> f64 {
        if self.abort_secs <= 0.0 {
            return 0.0;
        }
        100.0 * (self.abort_secs - self.degraded_secs) / self.abort_secs
    }

    /// The row of a run that errored out before completing.
    fn failed(name: String, epochs: u32) -> NetChaosRow {
        NetChaosRow { name, epochs, ..NetChaosRow::default() }
    }
}

/// Fold a cell's run variants and recorded spans into one
/// verdict-carrying row.
fn assemble_row(
    name: &str,
    k: u32,
    epochs: u32,
    phases: &[TracePhase],
    runs: &SoakRuns<PartitionedRunReport>,
) -> NetChaosRow {
    let run = &runs.run;
    let (abort_secs, degraded_never_worse) = match &runs.baseline {
        Some(b) => (b.total_seconds(), run.total_seconds() <= b.total_seconds() + 1e-9),
        // The rigid baseline died mid-soak; surviving at all wins.
        None => (-1.0, true),
    };
    let elastic = &run.elastic;
    NetChaosRow {
        name: name.to_string(),
        epochs,
        completed_epochs: elastic.completed_epochs,
        windows: run.net.windows,
        degraded_windows: run.net.degraded_windows,
        aborted_windows: run.net.aborted_windows,
        partitioned_epochs: run.net.partitioned_epochs,
        degraded_epochs: run.net.degraded_epochs,
        max_staleness: run.net.max_staleness,
        stale_served: run.net.stale_served,
        deferred_fetches: run.net.deferred_fetches,
        net_retries: run.net.noise.retries,
        dup_discarded: run.net.noise.dup_discarded,
        leaves: elastic.leaves,
        joins: elastic.joins,
        crashes: elastic.recovery.crashes,
        catchup_secs: run.net.catchup_seconds,
        net_overhead_secs: run.net.overhead_seconds(),
        degraded_secs: run.total_seconds(),
        abort_secs,
        deterministic: *run == runs.again,
        trace_transparent: runs.traced == *run,
        degraded_never_worse,
        exactly_once: run.net.exactly_once(),
        spans_exact: spans_exact(&runs.sink, k, phases, elastic),
    }
}

/// Soak every timed partition through `family`'s engine: churn from
/// [`chaos_churn_spec`](crate::chaos::chaos_churn_spec), faults from
/// [`FaultSpec::standard`](gp_cluster::FaultSpec::standard) at `mtbf`,
/// network faults from [`netchaos_net_spec`], snapshots every
/// `checkpoint_every` epochs; the baseline is
/// [`NetRunOptions::abort_only`]. One job per partitioner on the
/// `gp-exec` pool, rows in `timed` order, bit-identical for every
/// pool width (each cell is pure and owns its trace
/// sink).
pub fn netchaos_soak<F: Family>(
    family: &F,
    timed: &[Timed<F::Partition>],
    epochs: u32,
    mtbf: f64,
    checkpoint_every: u32,
    seed: u64,
    threads: Threads,
) -> Vec<NetChaosRow> {
    let jobs: Vec<_> = timed
        .iter()
        .map(|t| {
            move || {
                let k = F::machines(&t.partition);
                let net = NetFaultPlan::generate(&netchaos_net_spec(k, epochs, seed));
                let specs =
                    [NetRunOptions::default(), NetRunOptions::abort_only()].map(|options| {
                        soak_spec(
                            k,
                            epochs,
                            mtbf,
                            checkpoint_every,
                            seed,
                            ElasticOptions::default(),
                        )
                        .net(net.clone(), options)
                    });
                soak(family, &t.partition, specs, Run::into_partitioned, |_, runs| {
                    assemble_row(&t.name, k, epochs, F::PHASES, &runs)
                })
                .unwrap_or_else(|| NetChaosRow::failed(t.name.clone(), epochs))
            }
        })
        .collect();
    par_map(threads, jobs)
}

/// Render network-chaos rows as a [`Table`] (CSV / Markdown ready). The
/// last column is the invariant verdict (`ok` / `FAIL`).
pub fn netchaos_table(name: &str, rows: &[NetChaosRow]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "epochs",
            "completed",
            "windows",
            "degraded_w",
            "aborted_w",
            "part_epochs",
            "max_stale",
            "stale_served",
            "deferred",
            "retries",
            "dup_drop",
            "degraded_s",
            "abort_s",
            "saving_pct",
            "net_overhead_s",
            "invariants",
        ],
    );
    for r in rows {
        table.push(vec![
            r.name.clone(),
            r.epochs.to_string(),
            r.completed_epochs.to_string(),
            r.windows.to_string(),
            r.degraded_windows.to_string(),
            r.aborted_windows.to_string(),
            r.partitioned_epochs.to_string(),
            r.max_staleness.to_string(),
            r.stale_served.to_string(),
            r.deferred_fetches.to_string(),
            r.net_retries.to_string(),
            r.dup_discarded.to_string(),
            format!("{:.4}", r.degraded_secs),
            format!("{:.4}", r.abort_secs),
            format!("{:.2}", r.degraded_saving_pct()),
            format!("{:.4}", r.net_overhead_secs),
            if r.holds() { "ok".to_string() } else { "FAIL".to_string() },
        ]);
    }
    table
}

use crate::benchjson;

fn netchaos_rows_json(rows: &[NetChaosRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            benchjson::Obj::new()
                .str("partitioner", &r.name)
                .uint("epochs", u64::from(r.epochs))
                .uint("completed_epochs", u64::from(r.completed_epochs))
                .uint("windows", u64::from(r.windows))
                .uint("degraded_windows", u64::from(r.degraded_windows))
                .uint("aborted_windows", u64::from(r.aborted_windows))
                .uint("partitioned_epochs", u64::from(r.partitioned_epochs))
                .uint("degraded_epochs", u64::from(r.degraded_epochs))
                .uint("max_staleness", u64::from(r.max_staleness))
                .uint("stale_served", r.stale_served)
                .uint("deferred_fetches", r.deferred_fetches)
                .uint("net_retries", r.net_retries)
                .uint("dup_discarded", r.dup_discarded)
                .uint("leaves", u64::from(r.leaves))
                .uint("joins", u64::from(r.joins))
                .uint("crashes", u64::from(r.crashes))
                .f9("catchup_seconds", r.catchup_secs)
                .f9("net_overhead_seconds", r.net_overhead_secs)
                .f9("degraded_seconds", r.degraded_secs)
                .f9("abort_seconds", r.abort_secs)
                .f9("degraded_saving_pct", r.degraded_saving_pct())
                .boolean("invariants_hold", r.holds())
                .finish()
        })
        .collect();
    benchjson::array(&entries)
}

/// The `BENCH_netchaos.json` payload: per-partitioner degraded-mode and
/// transport-noise metrics for both engines, plus the invariant
/// verdicts. Deterministic rows ⇒ byte-identical artifact.
pub fn netchaos_bench_json(distgnn: &[NetChaosRow], distdgl: &[NetChaosRow]) -> String {
    benchjson::bench_doc(
        "netchaos",
        &[("distgnn", netchaos_rows_json(distgnn)), ("distdgl", netchaos_rows_json(distdgl))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::experiment::{timed_edge_partitions, timed_vertex_partitions};
    use crate::family::{DistDgl, DistGnn};
    use gp_exec::Threads;
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn params() -> PaperParams {
        PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 }
    }

    #[test]
    fn netchaos_spec_schedules_actual_partitions() {
        let plan = NetFaultPlan::generate(&netchaos_net_spec(8, 40, 0xc0de));
        assert!(!plan.windows.is_empty(), "soak spec must arm partition windows");
        assert!(plan.has_noise());
    }

    #[test]
    fn distgnn_netchaos_rows_hold_all_invariants() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed: Vec<_> =
            timed_edge_partitions(&g, 4, 1, Threads::serial()).into_iter().take(3).collect();
        let gnn = DistGnn::new(&g, params().model(ModelKind::Sage));
        let rows = netchaos_soak(&gnn, &timed, 10, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert!(r.holds(), "{}: invariants must hold: {r:?}", r.name);
            assert_eq!(r.completed_epochs, 10);
            assert!(r.windows > 0, "{}: soak must arm partition windows", r.name);
            assert!(r.net_retries > 0, "{}: loss must cause retries", r.name);
        }
        let again = netchaos_soak(&gnn, &timed, 10, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows, again, "same seed must give bit-identical rows");
    }

    #[test]
    fn distdgl_netchaos_rows_hold_all_invariants() {
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
        let rows = netchaos_soak(&dgl, &timed, 8, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert!(r.holds(), "{}: invariants must hold: {r:?}", r.name);
            assert_eq!(r.completed_epochs, 8);
            assert!(r.windows > 0, "{}: soak must arm partition windows", r.name);
        }
        let again = netchaos_soak(&dgl, &timed, 8, 6.0, 2, 0xc0de, Threads::serial());
        assert_eq!(rows, again);
    }

    #[test]
    fn netchaos_soaks_threaded_are_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed: Vec<_> =
            timed_edge_partitions(&g, 4, 1, Threads::serial()).into_iter().take(3).collect();
        let gnn = DistGnn::new(&g, params().model(ModelKind::Sage));
        let serial = netchaos_soak(&gnn, &timed, 8, 6.0, 2, 7, Threads::serial());
        for threads in [2usize, 4] {
            let par = netchaos_soak(&gnn, &timed, 8, 6.0, 2, 7, Threads::new(threads));
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
        let vserial = netchaos_soak(&dgl, &vtimed, 6, 6.0, 2, 7, Threads::serial());
        let vpar = netchaos_soak(&dgl, &vtimed, 6, 6.0, 2, 7, Threads::new(4));
        assert_eq!(vpar, vserial);
    }

    #[test]
    fn table_and_json_render_all_rows_and_verdicts() {
        let ok = NetChaosRow {
            name: "Metis".into(),
            epochs: 10,
            completed_epochs: 10,
            windows: 2,
            degraded_windows: 1,
            aborted_windows: 1,
            partitioned_epochs: 4,
            degraded_epochs: 2,
            max_staleness: 2,
            stale_served: 120,
            deferred_fetches: 40,
            net_retries: 7,
            dup_discarded: 3,
            catchup_secs: 0.125,
            net_overhead_secs: 0.25,
            degraded_secs: 1.4,
            abort_secs: 1.9,
            deterministic: true,
            trace_transparent: true,
            degraded_never_worse: true,
            exactly_once: true,
            spans_exact: true,
            ..NetChaosRow::default()
        };
        let failed = NetChaosRow::failed("Random".into(), 10);
        assert!(ok.holds());
        assert!(!failed.holds());
        let t = netchaos_table("netchaos", &[ok.clone(), failed.clone()]);
        let csv = t.to_csv();
        assert!(csv.contains("Metis"));
        assert!(csv.contains(",ok"), "verdict column: {csv}");
        assert!(csv.contains(",FAIL"), "failed verdict: {csv}");
        assert!(t.to_markdown().contains("degraded_w"));
        let json = netchaos_bench_json(&[ok], &[failed]);
        assert!(json.starts_with("{\"bench\":\"netchaos\""));
        assert!(json.contains("\"invariants_hold\":true"));
        assert!(json.contains("\"invariants_hold\":false"));
        assert!(json.contains("\"catchup_seconds\":0.125000000"));
        assert!(json.ends_with("}\n"));
    }
}
