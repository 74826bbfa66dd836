//! Streaming dynamic-graph sweep: quality decay under a seeded
//! mutation stream, incremental partition maintenance, and the
//! repartition-policy trade-off (the sweep behind `gnnpart stream`
//! and the `stream` ablation).
//!
//! Every partitioner of the chosen roster replays the same seeded
//! [`StreamSpec`] through its engine's `.stream(..)` [`RunSpec`] leg
//! once per [`RepartitionPolicy`]: the partition is maintained
//! incrementally batch by batch, one training epoch runs on each live
//! snapshot, and the policy decides when to pay for a full re-partition
//! (priced in *simulated* seconds by
//! [`gp_partition::incremental::modeled_partition_seconds`] — never
//! wall clock, so every artifact is bit-identical across thread counts
//! and reruns). Each cell checks the stream contract and records the
//! verdicts in its row:
//!
//! 1. **Deterministic** — the same stream seed gives a bit-identical
//!    [`StreamRunReport`] on a rerun.
//! 2. **Trace-transparent** — attaching an enabled
//!    [`TraceSink`] changes no `f64` of the
//!    report (the `gnnpart_stream_*` counter families are
//!    observational).
//! 3. **Never worse at adoption** — a policy run is bit-identical to
//!    its `never` twin until its first adopted repartition, and at that
//!    batch the engines' adoption gate promises the candidate is no
//!    worse than the incremental partition it replaced on *both* the
//!    cut-quality metric and the probed epoch time. After that the two
//!    trajectories drift independently, so the whole-horizon totals are
//!    a trade-off the row reports (`speedup_vs_never`,
//!    `amortize_epochs`) rather than an invariant.
//!
//! The row also feeds the paper's amortization question (Tables 4/5):
//! [`crate::amortize::epochs_to_amortize`] prices how many epochs of
//! the policy's faster training repay its modeled repartition cost
//! against the decayed `never` baseline.

use gp_cluster::{RunSpec, StreamRunReport, TraceSink};
use gp_exec::{par_map, Threads};
use gp_graph::StreamSpec;
use gp_partition::RepartitionPolicy;

use crate::amortize::epochs_to_amortize;
use crate::family::Family;
use crate::report::Table;

/// The three policy families the sweep compares: quality decays
/// unchecked, a drift trigger on the balance metric, and a fixed
/// repartition cadence.
pub fn stream_policies() -> Vec<RepartitionPolicy> {
    vec![
        RepartitionPolicy::Never,
        RepartitionPolicy::Threshold { imbalance: 1.2 },
        RepartitionPolicy::Periodic { every: 4 },
    ]
}

/// One (partitioner, policy) streaming outcome plus its contract
/// verdicts. Quality is the partitioner family's own metric:
/// replication factor for vertex-cut rows, edge-cut ratio for edge-cut
/// rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamSweepRow {
    /// Partitioner name.
    pub name: String,
    /// Stable policy label (`never` / `threshold(x)` / `periodic(n)`).
    pub policy: String,
    /// Requested stream length in batches.
    pub batches: u32,
    /// Batches the run completed (one training epoch each).
    pub completed_batches: u32,
    /// Policy-triggered repartitions that were adopted.
    pub repartitions: u32,
    /// Total modeled repartitioning cost in simulated seconds.
    pub partition_seconds: f64,
    /// Total simulated training time over all epochs.
    pub epoch_seconds: f64,
    /// Quality after the first batch.
    pub initial_quality: f64,
    /// Quality after the last batch.
    pub final_quality: f64,
    /// Worst quality over the run (the decay peak).
    pub peak_quality: f64,
    /// `never` baseline training time over this policy's (1 for the
    /// baseline itself; < 1 when a repartition's immediate gain eroded
    /// under later drift).
    pub speedup_vs_never: f64,
    /// Epochs of the policy's faster training needed to repay its
    /// repartition cost against the `never` baseline
    /// ([`epochs_to_amortize`]); `-1` when it never pays off (no
    /// adopted repartitions, or no per-epoch saving).
    pub amortize_epochs: f64,
    /// Per-batch quality trajectory (the decay curve).
    pub quality_series: Vec<f64>,
    /// Per-batch simulated epoch seconds.
    pub epoch_series: Vec<f64>,
    /// Invariant 1: rerun with the same seed is bit-identical.
    pub deterministic: bool,
    /// Invariant 2: an enabled trace sink changes nothing.
    pub trace_transparent: bool,
    /// Invariant 3: no regression against the `never` twin at the first
    /// adopted repartition (the first batch the two runs differ on).
    pub never_worse: bool,
}

impl StreamSweepRow {
    /// Whether the run completed and every invariant held.
    pub fn holds(&self) -> bool {
        self.completed_batches == self.batches
            && self.deterministic
            && self.trace_transparent
            && self.never_worse
    }

    /// The row of a run that errored out before completing.
    fn failed(name: &str, policy: String, batches: u32) -> StreamSweepRow {
        StreamSweepRow {
            name: name.into(),
            policy,
            batches,
            amortize_epochs: -1.0,
            ..StreamSweepRow::default()
        }
    }
}

/// Quality metric of one batch row: the engines fill exactly one of
/// the two fields, so `max` selects the family's own metric.
fn batch_quality(b: &gp_cluster::StreamBatchReport) -> f64 {
    b.replication_factor.max(b.edge_cut)
}

/// Invariant 3. Same seeds drive both runs down the same incremental
/// path, so the first batch whose quality or epoch time differs from
/// the `never` twin is the first adopted repartition — where the
/// adoption gate promises no regression on either axis. Batches past
/// the divergence drift on independent trajectories and carry no
/// ordering guarantee.
fn never_worse(run: &StreamRunReport, never: &StreamRunReport) -> bool {
    let diverged = run.batches.iter().zip(&never.batches).position(|(a, b)| {
        batch_quality(a) != batch_quality(b) || a.epoch_seconds != b.epoch_seconds
    });
    match diverged {
        None => true,
        Some(i) => {
            batch_quality(&run.batches[i]) <= batch_quality(&never.batches[i]) + 1e-9
                && run.batches[i].epoch_seconds <= never.batches[i].epoch_seconds + 1e-9
        }
    }
}

/// Fold the run variants (primary, rerun, traced) and the `never`
/// baseline into one verdict-carrying row.
fn assemble_row(
    name: &str,
    batches: u32,
    run: &StreamRunReport,
    again: &StreamRunReport,
    traced: &StreamRunReport,
    never: &StreamRunReport,
) -> StreamSweepRow {
    let total = run.total_epoch_seconds();
    let never_total = never.total_epoch_seconds();
    let n = run.batches.len().max(1) as f64;
    StreamSweepRow {
        name: name.into(),
        policy: run.policy.clone(),
        batches,
        completed_batches: run.batches.len() as u32,
        repartitions: run.repartitions(),
        partition_seconds: run.total_partition_seconds(),
        epoch_seconds: total,
        initial_quality: run.batches.first().map_or(0.0, batch_quality),
        final_quality: run.final_quality(),
        peak_quality: run.peak_quality(),
        speedup_vs_never: if total > 0.0 { never_total / total } else { 0.0 },
        amortize_epochs: epochs_to_amortize(
            run.total_partition_seconds(),
            never_total / n,
            total / n,
        )
        .unwrap_or(-1.0),
        quality_series: run.batches.iter().map(batch_quality).collect(),
        epoch_series: run.batches.iter().map(|b| b.epoch_seconds).collect(),
        deterministic: run == again,
        trace_transparent: traced == run,
        never_worse: never_worse(run, never),
    }
}

/// Stream-sweep every named partitioner × every policy through
/// `family`'s engine: DistGNN over vertex-cut partitions, DistDGL over
/// edge-cut ones with the base training split reused for every
/// snapshot (arrivals join no role). One job per partitioner on the
/// `gp-exec` pool; its policies run in sequence inside the cell,
/// sharing the `never` baseline. Rows come in `names` × `policies`
/// order, bit-identical for every pool width. The
/// t = 0 partition is built inside the cell from the registry at
/// `partition_seed`, so rows never depend on wall clock.
pub fn stream_sweep<F: Family>(
    family: &F,
    names: &[&str],
    k: u32,
    spec: &StreamSpec,
    policies: &[RepartitionPolicy],
    partition_seed: u64,
    threads: Threads,
) -> Vec<StreamSweepRow> {
    let jobs: Vec<_> = names
        .iter()
        .map(|&name| move || stream_cell(family, name, k, spec, policies, partition_seed))
        .collect();
    par_map(threads, jobs).into_iter().flatten().collect()
}

/// One partitioner's rows of [`stream_sweep`].
fn stream_cell<F: Family>(
    family: &F,
    name: &str,
    k: u32,
    spec: &StreamSpec,
    policies: &[RepartitionPolicy],
    partition_seed: u64,
) -> Vec<StreamSweepRow> {
    let failed = |p: &RepartitionPolicy| StreamSweepRow::failed(name, p.label(), spec.batches);
    let Some(Ok(part)) = family.partition(name, k, partition_seed) else {
        return policies.iter().map(failed).collect();
    };
    let engine = family.engine(&part, TraceSink::disabled()).expect("valid config");
    let leg = |policy| RunSpec::healthy().stream(*spec, policy).stream_partitioner(name);
    let run = |policy| engine.run(&leg(policy)).ok().map(|r| r.into_stream());
    let Some(never) = run(RepartitionPolicy::Never) else {
        return policies.iter().map(failed).collect();
    };
    policies
        .iter()
        .map(|&policy| {
            let Some(report) = run(policy) else {
                return failed(&policy);
            };
            let again = run(policy).expect("rerun of a completed stream");
            let traced = family
                .engine(&part, TraceSink::enabled())
                .expect("valid config")
                .run(&leg(policy))
                .expect("traced rerun of a completed stream")
                .into_stream();
            assemble_row(name, spec.batches, &report, &again, &traced, &never)
        })
        .collect()
}

/// Render stream-sweep rows as a [`Table`] (CSV / Markdown ready). The
/// last column is the contract verdict (`ok` / `FAIL`).
pub fn stream_table(name: &str, rows: &[StreamSweepRow]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "policy",
            "batches",
            "completed",
            "repartitions",
            "partition_s",
            "epoch_s",
            "q_initial",
            "q_final",
            "q_peak",
            "speedup_vs_never",
            "amortize_epochs",
            "invariants",
        ],
    );
    for r in rows {
        table.push(vec![
            r.name.clone(),
            r.policy.clone(),
            r.batches.to_string(),
            r.completed_batches.to_string(),
            r.repartitions.to_string(),
            format!("{:.6}", r.partition_seconds),
            format!("{:.4}", r.epoch_seconds),
            format!("{:.4}", r.initial_quality),
            format!("{:.4}", r.final_quality),
            format!("{:.4}", r.peak_quality),
            format!("{:.4}", r.speedup_vs_never),
            format!("{:.2}", r.amortize_epochs),
            if r.holds() { "ok".to_string() } else { "FAIL".to_string() },
        ]);
    }
    table
}

use crate::benchjson;

fn stream_rows_json(rows: &[StreamSweepRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            benchjson::Obj::new()
                .str("partitioner", &r.name)
                .str("policy", &r.policy)
                .uint("batches", u64::from(r.batches))
                .uint("completed_batches", u64::from(r.completed_batches))
                .uint("repartitions", u64::from(r.repartitions))
                .f9("partition_seconds", r.partition_seconds)
                .f9("epoch_seconds", r.epoch_seconds)
                .f9("initial_quality", r.initial_quality)
                .f9("final_quality", r.final_quality)
                .f9("peak_quality", r.peak_quality)
                .f9("speedup_vs_never", r.speedup_vs_never)
                .f9("amortize_epochs", r.amortize_epochs)
                .raw("quality_series", &benchjson::f64_array(&r.quality_series))
                .raw("epoch_series", &benchjson::f64_array(&r.epoch_series))
                .boolean("invariants_hold", r.holds())
                .finish()
        })
        .collect();
    benchjson::array(&entries)
}

/// The `BENCH_stream.json` payload: per-(partitioner, policy) decay
/// curves, repartition costs and recovered speedups for both engines,
/// plus the contract verdicts. Deterministic rows ⇒ byte-identical
/// artifact.
pub fn stream_bench_json(distgnn: &[StreamSweepRow], distdgl: &[StreamSweepRow]) -> String {
    benchjson::bench_doc(
        "stream",
        &[("distgnn", stream_rows_json(distgnn)), ("distdgl", stream_rows_json(distdgl))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::family::{DistDgl, DistGnn};
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn spec(batches: u32, seed: u64) -> StreamSpec {
        StreamSpec {
            batches,
            inserts_per_batch: 40,
            deletes_per_batch: 20,
            arrivals_per_batch: 3,
            edges_per_arrival: 2,
            seed,
        }
    }

    #[test]
    fn policies_cover_the_three_families() {
        let labels: Vec<String> = stream_policies().iter().map(|p| p.label()).collect();
        assert_eq!(labels[0], "never");
        assert!(labels[1].starts_with("threshold("));
        assert!(labels[2].starts_with("periodic("));
        for p in stream_policies() {
            assert!(p.validate().is_ok());
        }
    }

    fn params() -> PaperParams {
        PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 }
    }

    #[test]
    fn distgnn_stream_rows_hold_all_invariants() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let names = ["Random", "HDRF"];
        let gnn = DistGnn::new(&g, params().model(ModelKind::Sage));
        let policies = stream_policies();
        let rows = stream_sweep(&gnn, &names, 4, &spec(5, 0xbeef), &policies, 1, Threads::serial());
        assert_eq!(rows.len(), names.len() * policies.len());
        for r in &rows {
            assert!(r.holds(), "{}/{}: contract must hold: {r:?}", r.name, r.policy);
            assert_eq!(r.quality_series.len(), 5);
            assert!(r.initial_quality >= 1.0, "{}: RF is >= 1", r.name);
            assert!(r.speedup_vs_never >= 1.0 - 1e-9, "{}/{}", r.name, r.policy);
        }
        // The baseline rows are their own never-baseline.
        for r in rows.iter().filter(|r| r.policy == "never") {
            assert_eq!(r.repartitions, 0);
            assert_eq!(r.partition_seconds, 0.0);
            assert!((r.speedup_vs_never - 1.0).abs() < 1e-12);
            assert_eq!(r.amortize_epochs, -1.0);
        }
        let again =
            stream_sweep(&gnn, &names, 4, &spec(5, 0xbeef), &policies, 1, Threads::serial());
        assert_eq!(rows, again, "same seeds must give bit-identical rows");
    }

    #[test]
    fn distdgl_stream_rows_hold_all_invariants() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let names = ["Random", "LDG"];
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, params().model(ModelKind::Sage))
        };
        let policies = stream_policies();
        let rows = stream_sweep(&dgl, &names, 4, &spec(4, 7), &policies, 1, Threads::serial());
        assert_eq!(rows.len(), names.len() * policies.len());
        for r in &rows {
            assert!(r.holds(), "{}/{}: contract must hold: {r:?}", r.name, r.policy);
            assert!(
                r.final_quality >= 0.0 && r.final_quality <= 1.0,
                "{}: edge-cut ratio in [0, 1]: {}",
                r.name,
                r.final_quality
            );
        }
        let again = stream_sweep(&dgl, &names, 4, &spec(4, 7), &policies, 1, Threads::serial());
        assert_eq!(rows, again);
    }

    #[test]
    fn stream_sweeps_threaded_are_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let gnn = DistGnn::new(&g, params().model(ModelKind::Sage));
        let policies = stream_policies();
        let names = ["Random", "HDRF"];
        let serial = stream_sweep(&gnn, &names, 4, &spec(4, 3), &policies, 1, Threads::serial());
        for threads in [2usize, 4] {
            let par =
                stream_sweep(&gnn, &names, 4, &spec(4, 3), &policies, 1, Threads::new(threads));
            assert_eq!(par, serial, "distgnn threads = {threads}");
        }
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, params().model(ModelKind::Sage))
        };
        let vnames = ["LDG"];
        let vserial = stream_sweep(&dgl, &vnames, 4, &spec(4, 3), &policies, 1, Threads::serial());
        let vpar = stream_sweep(&dgl, &vnames, 4, &spec(4, 3), &policies, 1, Threads::new(4));
        assert_eq!(vpar, vserial);
    }

    #[test]
    fn table_and_json_render_all_rows_and_verdicts() {
        let ok = StreamSweepRow {
            name: "HDRF".into(),
            policy: "periodic(4)".into(),
            batches: 3,
            completed_batches: 3,
            repartitions: 1,
            partition_seconds: 0.125,
            epoch_seconds: 1.5,
            initial_quality: 2.0,
            final_quality: 1.8,
            peak_quality: 2.5,
            speedup_vs_never: 1.1,
            amortize_epochs: 12.5,
            quality_series: vec![2.0, 2.5, 1.8],
            epoch_series: vec![0.5, 0.55, 0.45],
            deterministic: true,
            trace_transparent: true,
            never_worse: true,
        };
        let failed = StreamSweepRow::failed("Random", "never".into(), 3);
        assert!(ok.holds());
        assert!(!failed.holds());
        let t = stream_table("stream", &[ok.clone(), failed.clone()]);
        let csv = t.to_csv();
        assert!(csv.contains("HDRF"));
        assert!(csv.contains(",ok"), "verdict column: {csv}");
        assert!(csv.contains(",FAIL"), "failed verdict: {csv}");
        assert!(t.to_markdown().contains("speedup_vs_never"));
        let json = stream_bench_json(&[ok], &[failed]);
        assert!(json.starts_with("{\"bench\":\"stream\""));
        assert!(json.contains("\"invariants_hold\":true"));
        assert!(json.contains("\"invariants_hold\":false"));
        assert!(json.contains("\"partition_seconds\":0.125000000"));
        assert!(json.contains("\"quality_series\":[2.000000000,2.500000000,1.800000000]"));
        assert!(json.ends_with("}\n"));
    }
}
