//! Fault-injection sweeps: partitioner × failure-rate grid.
//!
//! Extends the paper's study with a robustness axis: how much does each
//! partitioning strategy pay when the cluster misbehaves? Every grid
//! point runs a seeded [`FaultPlan`] (crashes at a given cluster-wide
//! MTBF plus the mild stragglers/brownouts of [`FaultSpec::standard`])
//! through one of the engines and records the recovery overhead next to
//! the healthy baseline. Same seed ⇒ bit-identical rows.

use gp_cluster::{
    FaultPlan, FaultSpec, MitigationPolicy, MitigationReport, RecoveryReport, RunSpec, TraceSink,
};
use gp_exec::{par_map, Parallelism};

use crate::experiment::Timed;
use crate::family::Family;
use crate::report::Table;

/// One (partitioner, MTBF) cell of a fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepRow {
    /// Partitioner name.
    pub name: String,
    /// Cluster-wide mean epochs between crashes for this cell.
    pub mtbf_epochs: f64,
    /// Epochs that completed before the run ended (equals the horizon
    /// unless the engine reported an unrecoverable failure).
    pub completed_epochs: u32,
    /// Sum of healthy epoch times over the completed epochs.
    pub healthy_secs: f64,
    /// Sum of fault-injected epoch times over the completed epochs
    /// (executed steps only; recovery overhead is separate).
    pub faulty_secs: f64,
    /// Accumulated recovery overhead (retries, re-execution,
    /// checkpoints, restores) in simulated seconds.
    pub overhead_secs: f64,
    /// Crashes that actually hit the run.
    pub crashes: u32,
    /// Message retries caused by lossy links.
    pub retries: u64,
    /// Bytes moved only because of recovery (restores + re-served state).
    pub recovery_bytes: u64,
    /// Epochs of work lost to crashes and re-executed.
    pub lost_progress_epochs: f64,
}

impl FaultSweepRow {
    /// Wall-time inflation over the healthy baseline:
    /// `(faulty + overhead) / healthy`.
    pub fn slowdown(&self) -> f64 {
        if self.healthy_secs <= 0.0 {
            return 1.0;
        }
        (self.faulty_secs + self.overhead_secs) / self.healthy_secs
    }
}

/// Sweep every timed partition × MTBF through `family`'s engine: one
/// job per (partitioner, MTBF) cell on the `gp-exec` pool, rows
/// partitioner-major, bit-identical for every `(sweep, engine)` width
/// pair. The faulty run uses the [`RunSpec`] truncate-and-record
/// contract: completed epochs are exactly the prefix before the first
/// unrecoverable failure, and the healthy baseline covers that prefix
/// ([`Family::healthy_seconds`]). DistGNN recovers from crashes through
/// its checkpoint period ([`crate::family::DistGnn::checkpoint_every`];
/// with none, a single-machine cluster ends at the crash epoch).
/// DistDGL crashes are permanent: survivors absorb the lost training
/// set, so a row only ends early when every worker is gone.
pub fn fault_sweep<F: Family>(
    family: &F,
    timed: &[Timed<F::Partition>],
    epochs: u32,
    mtbfs: &[f64],
    seed: u64,
    par: impl Into<Parallelism>,
) -> Vec<FaultSweepRow> {
    let par = par.into();
    let mut jobs = Vec::with_capacity(timed.len() * mtbfs.len());
    for t in timed {
        for &mtbf in mtbfs {
            jobs.push(move || {
                let k = F::machines(&t.partition);
                let engine = family
                    .engine(&t.partition, par.engine, TraceSink::disabled())
                    .expect("valid config");
                let plan = FaultPlan::generate(&FaultSpec::standard(k, epochs, mtbf, seed));
                let (faulty, _) = engine
                    .run(&RunSpec::healthy().epochs(epochs).faults(plan))
                    .expect("valid spec")
                    .into_faulty();
                let mut recovery = RecoveryReport::default();
                let mut faulty_secs = 0.0;
                for e in &faulty {
                    faulty_secs += e.seconds;
                    recovery.merge(&e.recovery);
                }
                let completed = faulty.len() as u32;
                FaultSweepRow {
                    name: t.name.clone(),
                    mtbf_epochs: mtbf,
                    completed_epochs: completed,
                    healthy_secs: F::healthy_seconds(&engine, epochs, completed),
                    faulty_secs,
                    overhead_secs: recovery.total_overhead_seconds(),
                    crashes: recovery.crashes,
                    retries: recovery.retries,
                    recovery_bytes: recovery.recovery_bytes,
                    lost_progress_epochs: recovery.lost_progress_epochs,
                }
            });
        }
    }
    par_map(par.sweep, jobs)
}

/// One (partitioner, policy) cell of a mitigation sweep: the *same*
/// seeded fault plan run through an engine twice — plain fault path vs
/// mitigated — so the two totals differ only by what the mitigation
/// layer did.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationSweepRow {
    /// Partitioner name.
    pub name: String,
    /// Mitigation policy mode (`none|steal|speculate|adaptive|all`).
    pub policy: String,
    /// Cluster-wide mean epochs between crashes of the shared plan.
    pub mtbf_epochs: f64,
    /// Epochs both runs completed.
    pub completed_epochs: u32,
    /// Total simulated seconds of the unmitigated run (epoch time plus
    /// recovery overhead).
    pub unmitigated_secs: f64,
    /// Total simulated seconds of the mitigated run (epoch time plus
    /// recovery overhead plus one-off migration time).
    pub mitigated_secs: f64,
    /// Steps in which straggler work was stolen (DistDGL).
    pub stolen_steps: u64,
    /// Steps speculatively re-executed (DistDGL).
    pub speculated_steps: u64,
    /// cd-r sync-period changes (DistGNN).
    pub sync_period_changes: u32,
    /// Master replicas migrated off persistent stragglers (DistGNN).
    pub masters_migrated: u64,
    /// Extra traffic the mitigation layer paid for its wins.
    pub extra_bytes: u64,
}

impl MitigationSweepRow {
    /// Percentage of the unmitigated wall time saved by mitigation
    /// (non-negative by the engines' per-decision guards).
    pub fn improvement_pct(&self) -> f64 {
        if self.unmitigated_secs <= 0.0 {
            return 0.0;
        }
        100.0 * (self.unmitigated_secs - self.mitigated_secs) / self.unmitigated_secs
    }
}

/// A fault environment tuned to exercise the mitigation layer: no
/// crashes (so both runs execute the very same steps and the totals
/// differ only by mitigation), but long deep stragglers and brownouts —
/// the conditions stealing, speculation and adaptive cd-r react to.
pub fn mitigation_stress_spec(machines: u32, epochs: u32, seed: u64) -> FaultSpec {
    FaultSpec {
        machines,
        epochs,
        slowdown_prob: 0.06,
        slowdown_factor: 0.25,
        slowdown_epochs: 3,
        degradation_prob: 0.12,
        degradation_bandwidth_factor: 0.25,
        degradation_loss_rate: 0.02,
        degradation_epochs: 3,
        seed,
        ..FaultSpec::default()
    }
}

/// Run every timed partition through `family`'s engine under `spec`'s
/// fault plan, unmitigated and mitigated with `policy`, and report both
/// totals. The plan is generated once and shared by every partitioner
/// (and both runs), so rows are comparable cell to cell; same spec ⇒
/// bit-identical rows. One job per partitioner on the `gp-exec` pool
/// (the mitigation session lives inside the mitigated run), rows in
/// `timed` order, bit-identical for every `(sweep, engine)` width pair.
/// `completed` is the prefix both runs finished.
pub fn mitigation_sweep<F: Family>(
    family: &F,
    timed: &[Timed<F::Partition>],
    spec: &FaultSpec,
    policy: MitigationPolicy,
    par: impl Into<Parallelism>,
) -> Vec<MitigationSweepRow> {
    let par = par.into();
    let faults = RunSpec::healthy().epochs(spec.epochs).faults(FaultPlan::generate(spec));
    let jobs: Vec<_> = timed
        .iter()
        .map(|t| {
            let faults = &faults;
            move || {
                let engine = family
                    .engine(&t.partition, par.engine, TraceSink::disabled())
                    .expect("valid config");
                let (unmit, _) = engine.run(faults).expect("valid spec").into_faulty();
                let (mit, _) =
                    engine.run(&faults.clone().mitigate(policy)).expect("valid spec").into_faulty();
                let completed = unmit.len().min(mit.len()) as u32;
                let mut unmitigated_secs = 0.0;
                let mut mitigated_secs = 0.0;
                let mut mitigation = MitigationReport::default();
                for (u, m) in unmit.iter().zip(mit.iter()) {
                    unmitigated_secs += u.seconds + u.recovery.total_overhead_seconds();
                    mitigated_secs += m.seconds + m.recovery.total_overhead_seconds();
                    mitigation.merge(&m.mitigation);
                }
                // DistGNN's master migration is a one-off cost outside
                // the epoch phases. DistDGL never migrates, so its
                // total stays 0.0 and adding it changes no bit.
                mitigated_secs += mitigation.migration_seconds;
                MitigationSweepRow {
                    name: t.name.clone(),
                    policy: policy.name().to_string(),
                    mtbf_epochs: spec.crash_mtbf_epochs,
                    completed_epochs: completed,
                    unmitigated_secs,
                    mitigated_secs,
                    stolen_steps: mitigation.stolen_steps,
                    speculated_steps: mitigation.speculated_steps,
                    sync_period_changes: mitigation.sync_period_changes,
                    masters_migrated: mitigation.masters_migrated,
                    extra_bytes: mitigation.total_extra_bytes(),
                }
            }
        })
        .collect();
    par_map(par.sweep, jobs)
}

/// Render mitigation-sweep rows as a [`Table`] (CSV / Markdown ready).
pub fn mitigation_sweep_table(name: &str, rows: &[MitigationSweepRow]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "policy",
            "mtbf_epochs",
            "completed_epochs",
            "unmitigated_s",
            "mitigated_s",
            "improvement_pct",
            "stolen_steps",
            "speculated_steps",
            "sync_changes",
            "masters_migrated",
            "extra_MB",
        ],
    );
    for r in rows {
        table.push(vec![
            r.name.clone(),
            r.policy.clone(),
            format!("{:.1}", r.mtbf_epochs),
            r.completed_epochs.to_string(),
            format!("{:.4}", r.unmitigated_secs),
            format!("{:.4}", r.mitigated_secs),
            format!("{:.2}", r.improvement_pct()),
            r.stolen_steps.to_string(),
            r.speculated_steps.to_string(),
            r.sync_period_changes.to_string(),
            r.masters_migrated.to_string(),
            format!("{:.3}", r.extra_bytes as f64 / 1e6),
        ]);
    }
    table
}

/// Render sweep rows as a [`Table`] (CSV / Markdown ready).
pub fn fault_sweep_table(name: &str, rows: &[FaultSweepRow]) -> Table {
    let mut table = Table::new(
        name,
        &[
            "partitioner",
            "mtbf_epochs",
            "completed_epochs",
            "healthy_s",
            "faulty_s",
            "overhead_s",
            "slowdown",
            "crashes",
            "retries",
            "recovery_MB",
            "lost_epochs",
        ],
    );
    for r in rows {
        table.push(vec![
            r.name.clone(),
            format!("{:.1}", r.mtbf_epochs),
            r.completed_epochs.to_string(),
            format!("{:.4}", r.healthy_secs),
            format!("{:.4}", r.faulty_secs),
            format!("{:.4}", r.overhead_secs),
            format!("{:.3}", r.slowdown()),
            r.crashes.to_string(),
            r.retries.to_string(),
            format!("{:.2}", r.recovery_bytes as f64 / 1e6),
            format!("{:.3}", r.lost_progress_epochs),
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
    use gp_exec::Threads;
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn params() -> PaperParams {
        PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 }
    }

    #[test]
    fn distgnn_sweep_shape_and_determinism() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let gnn =
            DistGnn { checkpoint_every: 2, ..DistGnn::new(&g, params().model(ModelKind::Sage)) };
        let mtbfs = [4.0, 16.0];
        let rows = fault_sweep(&gnn, &timed, 6, &mtbfs, 7, Threads::serial());
        assert_eq!(rows.len(), timed.len() * mtbfs.len());
        for r in &rows {
            assert_eq!(r.completed_epochs, 6, "checkpointed DistGNN always recovers");
            assert!(r.faulty_secs >= r.healthy_secs * 0.999, "{}: faults never speed up", r.name);
            assert!(r.overhead_secs >= 0.0);
            assert!(r.slowdown() >= 1.0 - 1e-9);
        }
        let again = fault_sweep(&gnn, &timed, 6, &mtbfs, 7, Threads::serial());
        assert_eq!(rows, again, "same seed must give bit-identical rows");
    }

    #[test]
    fn distdgl_sweep_shape_and_determinism() {
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
        let mtbfs = [8.0];
        let rows = fault_sweep(&dgl, &timed, 4, &mtbfs, 7, Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert!(r.completed_epochs > 0);
            assert!(r.overhead_secs >= 0.0);
        }
        let again = fault_sweep(&dgl, &timed, 4, &mtbfs, 7, Threads::serial());
        assert_eq!(rows, again);
    }

    #[test]
    fn distgnn_mitigation_sweep_never_worse_and_deterministic() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let gnn =
            DistGnn { checkpoint_every: 2, ..DistGnn::new(&g, params().model(ModelKind::Sage)) };
        let spec = mitigation_stress_spec(4, 8, 0xad_a97);
        let rows =
            mitigation_sweep(&gnn, &timed, &spec, MitigationPolicy::adaptive(), Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert_eq!(r.policy, "adaptive");
            assert_eq!(r.completed_epochs, 8);
            assert!(
                r.mitigated_secs <= r.unmitigated_secs + 1e-9,
                "{}: mitigation must never make it worse",
                r.name
            );
            assert!(r.improvement_pct() >= -1e-9);
        }
        let again =
            mitigation_sweep(&gnn, &timed, &spec, MitigationPolicy::adaptive(), Threads::serial());
        assert_eq!(rows, again, "same spec must give bit-identical rows");
    }

    #[test]
    fn distdgl_mitigation_sweep_never_worse_and_deterministic() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed: Vec<_> = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial())
            .into_iter()
            .take(2)
            .collect();
        let dgl = DistDgl {
            global_batch_size: 64,
            ..DistDgl::new(&g, &split, params().model(ModelKind::Sage))
        };
        let spec = mitigation_stress_spec(4, 6, 0xad_a97);
        let rows =
            mitigation_sweep(&dgl, &timed, &spec, MitigationPolicy::all(), Threads::serial());
        assert_eq!(rows.len(), timed.len());
        for r in &rows {
            assert_eq!(r.policy, "all");
            assert!(r.completed_epochs > 0);
            assert!(
                r.mitigated_secs <= r.unmitigated_secs + 1e-9,
                "{}: mitigation must never make it worse",
                r.name
            );
        }
        let again =
            mitigation_sweep(&dgl, &timed, &spec, MitigationPolicy::all(), Threads::serial());
        assert_eq!(rows, again);
    }

    #[test]
    fn fault_sweeps_threaded_are_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let gnn =
            DistGnn { checkpoint_every: 2, ..DistGnn::new(&g, params().model(ModelKind::Sage)) };
        let mtbfs = [4.0, 16.0];
        let serial = fault_sweep(&gnn, &timed, 4, &mtbfs, 7, Threads::serial());
        for threads in [2usize, 4, 8] {
            let par = fault_sweep(&gnn, &timed, 4, &mtbfs, 7, Threads::new(threads));
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
        let vserial = fault_sweep(&dgl, &vtimed, 3, &[8.0], 7, Threads::serial());
        let vpar = fault_sweep(&dgl, &vtimed, 3, &[8.0], 7, Threads::new(4));
        assert_eq!(vpar, vserial);
    }

    #[test]
    fn mitigation_sweeps_threaded_are_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed: Vec<_> =
            timed_edge_partitions(&g, 4, 1, Threads::serial()).into_iter().take(3).collect();
        let gnn =
            DistGnn { checkpoint_every: 2, ..DistGnn::new(&g, params().model(ModelKind::Sage)) };
        let spec = mitigation_stress_spec(4, 5, 0xad_a97);
        let adaptive = MitigationPolicy::adaptive();
        let serial = mitigation_sweep(&gnn, &timed, &spec, adaptive, Threads::serial());
        let par = mitigation_sweep(&gnn, &timed, &spec, adaptive, Threads::new(4));
        assert_eq!(par, serial);
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let vtimed: Vec<_> = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial())
            .into_iter()
            .take(2)
            .collect();
        let dgl = DistDgl {
            global_batch_size: 64,
            ..DistDgl::new(&g, &split, params().model(ModelKind::Sage))
        };
        let vspec = mitigation_stress_spec(4, 4, 0xad_a97);
        let vserial =
            mitigation_sweep(&dgl, &vtimed, &vspec, MitigationPolicy::all(), Threads::serial());
        let vpar =
            mitigation_sweep(&dgl, &vtimed, &vspec, MitigationPolicy::all(), Threads::new(2));
        assert_eq!(vpar, vserial);
    }

    #[test]
    fn mitigation_table_renders_all_rows() {
        let rows = vec![MitigationSweepRow {
            name: "Metis".into(),
            policy: "steal".into(),
            mtbf_epochs: 0.0,
            completed_epochs: 12,
            unmitigated_secs: 2.0,
            mitigated_secs: 1.5,
            stolen_steps: 9,
            speculated_steps: 0,
            sync_period_changes: 0,
            masters_migrated: 0,
            extra_bytes: 4_000_000,
        }];
        let t = mitigation_sweep_table("ablation_mitigation", &rows);
        let csv = t.to_csv();
        assert!(csv.contains("Metis"));
        assert!(csv.contains("25.00"), "improvement column: {csv}");
        assert!(t.to_markdown().contains("sync_changes"));
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![FaultSweepRow {
            name: "Random".into(),
            mtbf_epochs: 5.0,
            completed_epochs: 10,
            healthy_secs: 1.0,
            faulty_secs: 1.2,
            overhead_secs: 0.3,
            crashes: 1,
            retries: 42,
            recovery_bytes: 2_000_000,
            lost_progress_epochs: 0.5,
        }];
        let t = fault_sweep_table("fault_sweep", &rows);
        let csv = t.to_csv();
        assert!(csv.contains("Random"));
        assert!(csv.contains("1.500"), "slowdown column: {csv}");
        assert!(t.to_markdown().contains("recovery_MB"));
    }
}
