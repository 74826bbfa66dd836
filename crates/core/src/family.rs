//! The two engine families behind one sweep API.
//!
//! The paper runs every partitioner through two engines: DistGNN
//! (full-batch training over an edge partition) and DistDGL (mini-batch
//! training over a vertex partition). Every scenario sweep, trace and
//! diagnosis in gp-core has one cell body for both. A [`Family`] value
//! owns what differs between them: engine construction, the inputs
//! only one engine has (DistDGL's split and global batch, DistGNN's
//! fixed-fleet checkpoint period), the phase order of its reports,
//! its roster and its healthy baseline. The cell drives an [`Engine`]
//! whose reports carry one epoch type, [`Epoch`], for both engines;
//! front ends that read fields only one engine reports use the values'
//! native engines, which are configured nowhere else.

use gp_cluster::{
    ClusterSpec, EpochOutcome, MitigationReport, RecoveryReport, RunReport, RunSpec, TracePhase,
    TraceSink,
};
use gp_distdgl::{DistDglConfig, DistDglEngine, DistDglError, EpochSummary};
use gp_distgnn::{DistGnnConfig, DistGnnEngine, DistGnnError, EpochReport};
use gp_exec::{par_map_indexed, ExecTiming, Parallelism, Threads};
use gp_graph::{Graph, VertexSplit};
use gp_partition::{EdgePartition, PartitionError, VertexPartition};
use gp_tensor::ModelConfig;

use crate::experiment::{timed_edge_partitions, timed_vertex_partitions, Timed};
use crate::registry;

/// One simulated epoch of either engine, reduced to what the sweeps
/// read.
#[derive(Debug, Clone, Default)]
pub struct Epoch {
    /// Simulated seconds ([`EpochOutcome::epoch_time`]).
    pub seconds: f64,
    /// Network bytes ([`EpochOutcome::total_bytes`]).
    pub bytes: u64,
    /// Per-phase seconds in the engine's phase order
    /// ([`EpochOutcome::phase_breakdown`]).
    pub phases: Vec<(&'static str, f64)>,
    /// Fault-recovery accounting (empty for healthy epochs).
    pub recovery: RecoveryReport,
    /// Mitigation accounting (empty unless the run was mitigated).
    pub mitigation: MitigationReport,
}

impl Epoch {
    fn of(
        outcome: &impl EpochOutcome,
        recovery: RecoveryReport,
        mitigation: MitigationReport,
    ) -> Self {
        Epoch {
            seconds: outcome.epoch_time(),
            bytes: outcome.total_bytes(),
            phases: outcome.phase_breakdown(),
            recovery,
            mitigation,
        }
    }
}

/// A registry partition: `None` for a name no partitioner of the
/// family has, else the partitioner's result.
type Partitioned<P> = Option<Result<P, PartitionError>>;

/// An engine's run report with [`Epoch`] for every epoch-wise variant.
pub type Run<E> = RunReport<Epoch, Epoch, E>;

/// An engine's `run`, behind one report type for both families.
type RunFn<'a, E> = dyn Fn(&RunSpec) -> Result<Run<E>, E> + 'a;

/// A built engine of either family.
pub struct Engine<'a, E>(Box<RunFn<'a, E>>);

impl<E> Engine<'_, E> {
    /// Run `spec`, exactly as the engine's own `run` does.
    ///
    /// # Errors
    ///
    /// The engine's error for an invalid spec or a failed run.
    pub fn run(&self, spec: &RunSpec) -> Result<Run<E>, E> {
        (self.0)(spec)
    }
}

/// What differs between the two engines in a sweep cell.
pub trait Family: Sync {
    /// The partition the engine trains on.
    type Partition: Send + Sync;
    /// The engine's error type.
    type Error: std::error::Error + Send + 'static;
    /// Lower-case engine name, the suffix of the family's profile
    /// scopes (`core.trace.distgnn`, ...).
    const NAME: &'static str;
    /// Display name of the engine (`DistGNN`, `DistDGL`).
    const LABEL: &'static str;
    /// The paper's six partitioners of the family, baseline first.
    const ROSTER: &'static [&'static str];
    /// Phase order of the engine's [`EpochOutcome::phase_breakdown`].
    const PHASES: &'static [TracePhase];

    /// Machines of the cluster that trains on `partition`.
    fn machines(partition: &Self::Partition) -> u32;

    /// Build the engine over `partition` on the paper's cluster of
    /// [`Family::machines`] machines.
    ///
    /// # Errors
    ///
    /// The engine's construction errors.
    fn engine<'a>(
        &'a self,
        partition: &'a Self::Partition,
        threads: Threads,
        trace: TraceSink,
    ) -> Result<Engine<'a, Self::Error>, Self::Error>;

    /// Partition the family's graph with the registry partitioner
    /// `name` (roster or extension); `None` if no partitioner of the
    /// family has that name.
    fn partition(&self, name: &str, k: u32, seed: u64) -> Partitioned<Self::Partition>;

    /// Every [`Family::ROSTER`] partition of the family's graph into `k`
    /// parts, timed and in roster order, as [`timed_edge_partitions`].
    fn timed_partitions(
        &self,
        k: u32,
        seed: u64,
        par: impl Into<Parallelism>,
    ) -> Vec<Timed<Self::Partition>>;

    /// Healthy seconds of the first `completed` epochs of an
    /// `epochs`-epoch run on `engine`.
    fn healthy_seconds(engine: &Engine<'_, Self::Error>, epochs: u32, completed: u32) -> f64;

    /// The engine's invalid-configuration error.
    fn invalid(msg: &str) -> Self::Error;
}

/// DistGNN: full-batch training over an edge partition.
#[derive(Debug, Clone, Copy)]
pub struct DistGnn<'g> {
    /// The training graph.
    pub graph: &'g Graph,
    /// The model (GraphSAGE, the only architecture DistGNN supports).
    pub model: ModelConfig,
    /// Fixed-fleet checkpoint period in epochs
    /// ([`DistGnnConfig::checkpoint_every`]; 0 = none). Only runs under
    /// a fault plan without elastic membership read it: the fault and
    /// mitigation sweeps.
    pub checkpoint_every: u32,
}

impl<'g> DistGnn<'g> {
    /// `model` on `graph`, without fixed-fleet checkpoints.
    pub fn new(graph: &'g Graph, model: ModelConfig) -> Self {
        DistGnn { graph, model, checkpoint_every: 0 }
    }

    /// The engine configuration for a `k`-machine paper cluster.
    fn config(&self, k: u32) -> DistGnnConfig {
        let mut config = DistGnnConfig::paper(self.model, ClusterSpec::paper(k));
        config.checkpoint_every = self.checkpoint_every;
        config
    }

    /// The engine over `partition` on the paper's cluster of
    /// `partition.k()` machines, reporting its own epoch types.
    ///
    /// # Errors
    ///
    /// The engine's construction errors.
    pub fn native_engine(
        &self,
        partition: &'g EdgePartition,
        threads: Threads,
        trace: TraceSink,
    ) -> Result<DistGnnEngine<'g>, DistGnnError> {
        let builder = DistGnnEngine::builder(self.graph, partition);
        builder.config(self.config(partition.k())).trace(trace).threads(threads).build()
    }

    /// One healthy epoch over `partition`, serial and untraced.
    ///
    /// # Panics
    ///
    /// If the engine cannot be built (a model other than GraphSAGE).
    pub fn healthy_epoch(&self, partition: &EdgePartition) -> EpochReport {
        let engine = self.native_engine(partition, Threads::serial(), TraceSink::disabled());
        let run = engine.expect("valid config").run(&RunSpec::healthy());
        run.expect("healthy run").into_healthy().remove(0)
    }
}

impl Family for DistGnn<'_> {
    type Partition = EdgePartition;
    type Error = DistGnnError;
    const NAME: &'static str = "distgnn";
    const LABEL: &'static str = "DistGNN";
    const ROSTER: &'static [&'static str] = &registry::EDGE_PARTITIONERS;
    const PHASES: &'static [TracePhase] =
        &[TracePhase::Forward, TracePhase::Backward, TracePhase::Sync, TracePhase::Optimizer];

    fn machines(partition: &EdgePartition) -> u32 {
        partition.k()
    }

    fn engine<'a>(
        &'a self,
        partition: &'a EdgePartition,
        threads: Threads,
        trace: TraceSink,
    ) -> Result<Engine<'a, DistGnnError>, DistGnnError> {
        let engine = self.native_engine(partition, threads, trace)?;
        Ok(Engine(Box::new(move |spec| {
            Ok(unify(
                engine.run(spec)?,
                |e| Epoch::of(&e, RecoveryReport::default(), MitigationReport::default()),
                |f| Epoch::of(&f.report, f.recovery, f.mitigation),
            ))
        })))
    }

    fn partition(&self, name: &str, k: u32, seed: u64) -> Partitioned<EdgePartition> {
        Some(registry::edge_partitioner(name)?.partition_edges(self.graph, k, seed))
    }

    fn timed_partitions(
        &self,
        k: u32,
        seed: u64,
        par: impl Into<Parallelism>,
    ) -> Vec<Timed<EdgePartition>> {
        timed_edge_partitions(self.graph, k, seed, par)
    }

    /// One healthy epoch times the completed count: full-batch epochs
    /// are all alike. The product is not a repeated sum (the two differ
    /// in the last bit).
    fn healthy_seconds(engine: &Engine<'_, DistGnnError>, _epochs: u32, completed: u32) -> f64 {
        engine.run(&RunSpec::healthy()).expect("healthy run").into_healthy()[0].seconds
            * f64::from(completed)
    }

    fn invalid(msg: &str) -> DistGnnError {
        DistGnnError::InvalidConfig(msg.into())
    }
}

/// DistDGL: mini-batch training over a vertex partition.
#[derive(Debug, Clone, Copy)]
pub struct DistDgl<'g> {
    /// The training graph.
    pub graph: &'g Graph,
    /// The train/validation/test split (also parameterises ByteGNN).
    pub split: &'g VertexSplit,
    /// The model.
    pub model: ModelConfig,
    /// Global mini-batch size, split evenly across workers.
    pub global_batch_size: u32,
}

impl<'g> DistDgl<'g> {
    /// `model` on `graph` with the paper's global batch size (1024).
    pub fn new(graph: &'g Graph, split: &'g VertexSplit, model: ModelConfig) -> Self {
        DistDgl { graph, split, model, global_batch_size: 1024 }
    }

    /// The engine configuration for a `k`-machine paper cluster.
    fn config(&self, k: u32) -> DistDglConfig {
        let mut config = DistDglConfig::paper(self.model, ClusterSpec::paper(k));
        config.global_batch_size = self.global_batch_size;
        config
    }

    /// The engine over `partition` on the paper's cluster of
    /// `partition.k()` machines, reporting its own epoch types.
    ///
    /// # Errors
    ///
    /// The engine's construction errors.
    pub fn native_engine(
        &self,
        partition: &'g VertexPartition,
        threads: Threads,
        trace: TraceSink,
    ) -> Result<DistDglEngine<'g>, DistDglError> {
        let builder = DistDglEngine::builder(self.graph, partition, self.split);
        builder.config(self.config(partition.k())).trace(trace).threads(threads).build()
    }

    /// One healthy epoch over `partition`, serial and untraced.
    ///
    /// # Panics
    ///
    /// If the engine cannot be built.
    pub fn healthy_epoch(&self, partition: &VertexPartition) -> EpochSummary {
        let engine = self.native_engine(partition, Threads::serial(), TraceSink::disabled());
        let run = engine.expect("valid config").run(&RunSpec::healthy());
        run.expect("healthy run").into_healthy().remove(0)
    }
}

impl Family for DistDgl<'_> {
    type Partition = VertexPartition;
    type Error = DistDglError;
    const NAME: &'static str = "distdgl";
    const LABEL: &'static str = "DistDGL";
    const ROSTER: &'static [&'static str] = &registry::VERTEX_PARTITIONERS;
    const PHASES: &'static [TracePhase] = &[
        TracePhase::Sampling,
        TracePhase::FeatureLoad,
        TracePhase::Forward,
        TracePhase::Backward,
        TracePhase::Update,
    ];

    fn machines(partition: &VertexPartition) -> u32 {
        partition.k()
    }

    fn engine<'a>(
        &'a self,
        partition: &'a VertexPartition,
        threads: Threads,
        trace: TraceSink,
    ) -> Result<Engine<'a, DistDglError>, DistDglError> {
        let engine = self.native_engine(partition, threads, trace)?;
        Ok(Engine(Box::new(move |spec| {
            Ok(unify(
                engine.run(spec)?,
                |e| Epoch::of(&e, RecoveryReport::default(), MitigationReport::default()),
                |f| Epoch::of(&f.summary, f.recovery, f.mitigation),
            ))
        })))
    }

    fn partition(&self, name: &str, k: u32, seed: u64) -> Partitioned<VertexPartition> {
        Some(
            registry::vertex_partitioner(name, Some(self.split.train.clone()))?
                .partition_vertices(self.graph, k, seed),
        )
    }

    fn timed_partitions(
        &self,
        k: u32,
        seed: u64,
        par: impl Into<Parallelism>,
    ) -> Vec<Timed<VertexPartition>> {
        timed_vertex_partitions(self.graph, k, seed, &self.split.train, par)
    }

    /// The sum over the completed prefix of an `epochs`-epoch healthy
    /// run: mini-batch epochs differ by their sampled batches, so one
    /// epoch cannot stand in for the run.
    fn healthy_seconds(engine: &Engine<'_, DistDglError>, epochs: u32, completed: u32) -> f64 {
        let healthy =
            engine.run(&RunSpec::healthy().epochs(epochs)).expect("healthy run").into_healthy();
        healthy[..completed as usize].iter().fold(0.0, |sum, e| sum + e.seconds)
    }

    fn invalid(msg: &str) -> DistDglError {
        DistDglError::InvalidConfig(msg.into())
    }
}

/// Map an engine's epoch-wise report variants to [`Epoch`]s.
fn unify<H, F, E>(
    report: RunReport<H, F, E>,
    healthy: impl Fn(H) -> Epoch,
    faulty: impl Fn(F) -> Epoch,
) -> Run<E> {
    match report {
        RunReport::Healthy { epochs } => {
            RunReport::Healthy { epochs: epochs.into_iter().map(healthy).collect() }
        }
        RunReport::Faulty { epochs, error } => {
            RunReport::Faulty { epochs: epochs.into_iter().map(faulty).collect(), error }
        }
        RunReport::Elastic(r) => RunReport::Elastic(r),
        RunReport::Partitioned(r) => RunReport::Partitioned(r),
        RunReport::Stream(r) => RunReport::Stream(r),
    }
}

/// One fallible job per timed partition on the `gp-exec` pool: the
/// values in `timed` order with the pool's timing, or the first error
/// in index order.
pub(crate) fn try_cells<P: Sync, T: Send, E: Send>(
    timed: &[Timed<P>],
    threads: Threads,
    job: impl Fn(&Timed<P>) -> Result<T, E> + Sync,
) -> Result<(Vec<T>, ExecTiming), E> {
    let job = &job;
    let report = par_map_indexed(threads, timed.iter().map(|t| move || job(t)).collect());
    let timing = report.timing();
    let values = report
        .into_results()
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
        .collect::<Result<_, _>>()?;
    Ok((values, timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use gp_graph::{DatasetId, GraphScale};
    use gp_tensor::ModelKind;

    fn model() -> ModelConfig {
        PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 }.model(ModelKind::Sage)
    }

    fn graph() -> Graph {
        DatasetId::OR.generate(GraphScale::Tiny).unwrap()
    }

    fn split(g: &Graph) -> VertexSplit {
        VertexSplit::paper_default(g.num_vertices(), 1).unwrap()
    }

    fn names(phases: &[TracePhase]) -> Vec<&'static str> {
        phases.iter().map(|p| p.name()).collect()
    }

    fn healthy_epoch<F: Family>(family: &F, partition: &F::Partition) -> Epoch {
        let engine = family.engine(partition, Threads::serial(), TraceSink::disabled()).unwrap();
        engine.run(&RunSpec::healthy()).unwrap().into_healthy().remove(0)
    }

    #[test]
    fn constructors_default_the_engine_only_inputs() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn::new(&g, model());
        assert_eq!(gnn.checkpoint_every, 0, "no fixed-fleet checkpoints by default");
        assert_eq!(gnn.config(4).checkpoint_every, 0);
        let dgl = DistDgl::new(&g, &s, model());
        assert_eq!(dgl.global_batch_size, 1024, "the paper's global batch size");
        assert_eq!(dgl.config(4).global_batch_size, 1024);
    }

    #[test]
    fn configs_carry_the_family_inputs_onto_a_k_machine_cluster() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn { checkpoint_every: 3, ..DistGnn::new(&g, model()) };
        let config = gnn.config(4);
        assert_eq!(config.checkpoint_every, 3);
        let mut paper = DistGnnConfig::paper(model(), ClusterSpec::paper(4));
        paper.checkpoint_every = 3;
        assert_eq!(format!("{config:?}"), format!("{paper:?}"), "otherwise the paper's");
        let dgl = DistDgl { global_batch_size: 256, ..DistDgl::new(&g, &s, model()) };
        let config = dgl.config(8);
        assert_eq!(config.global_batch_size, 256);
        let mut paper = DistDglConfig::paper(model(), ClusterSpec::paper(8));
        paper.global_batch_size = 256;
        assert_eq!(format!("{config:?}"), format!("{paper:?}"), "otherwise the paper's");
    }

    #[test]
    fn phases_follow_each_engines_phase_breakdown() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn::new(&g, model());
        let ep = gnn.partition("HDRF", 4, 1).unwrap().unwrap();
        let phases: Vec<_> = healthy_epoch(&gnn, &ep).phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(phases, names(DistGnn::PHASES));
        let dgl = DistDgl::new(&g, &s, model());
        let vp = dgl.partition("METIS", 4, 1).unwrap().unwrap();
        let phases: Vec<_> = healthy_epoch(&dgl, &vp).phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(phases, names(DistDgl::PHASES));
        assert_eq!(DistGnn::NAME, "distgnn");
        assert_eq!(DistDgl::NAME, "distdgl");
    }

    #[test]
    fn registry_partitions_match_the_registry_and_reject_unknown_names() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn::new(&g, model());
        for name in registry::EDGE_PARTITIONERS {
            let direct =
                registry::edge_partitioner(name).unwrap().partition_edges(&g, 4, 9).unwrap();
            let p = gnn.partition(name, 4, 9).unwrap().unwrap();
            assert_eq!(DistGnn::machines(&p), 4, "{name}");
            assert_eq!(p, direct, "{name}");
        }
        assert!(gnn.partition("METIS", 4, 9).is_none(), "a vertex partitioner is unknown here");
        assert!(gnn.partition("no-such-partitioner", 4, 9).is_none());
        let dgl = DistDgl::new(&g, &s, model());
        for name in registry::VERTEX_PARTITIONERS {
            let direct = registry::vertex_partitioner(name, Some(s.train.clone()))
                .unwrap()
                .partition_vertices(&g, 4, 9)
                .unwrap();
            let p = dgl.partition(name, 4, 9).unwrap().unwrap();
            assert_eq!(DistDgl::machines(&p), 4, "{name}");
            assert_eq!(p, direct, "{name}");
        }
        assert!(dgl.partition("HDRF", 4, 9).is_none(), "an edge partitioner is unknown here");
    }

    #[test]
    fn distgnn_engine_reports_the_engines_own_epochs() {
        let g = graph();
        let gnn = DistGnn::new(&g, model());
        let p = gnn.partition("HDRF", 4, 1).unwrap().unwrap();
        let raw = DistGnnEngine::builder(&g, &p)
            .config(gnn.config(4))
            .build()
            .unwrap()
            .run(&RunSpec::healthy().epochs(3))
            .unwrap()
            .into_healthy();
        let engine = gnn.engine(&p, Threads::serial(), TraceSink::disabled()).unwrap();
        let unified = engine.run(&RunSpec::healthy().epochs(3)).unwrap().into_healthy();
        assert_eq!(unified.len(), raw.len());
        for (u, r) in unified.iter().zip(&raw) {
            assert_eq!(u.seconds.to_bits(), r.epoch_time().to_bits());
            assert_eq!(u.bytes, r.total_bytes());
            assert_eq!(u.phases, r.phase_breakdown());
            assert_eq!(u.recovery, RecoveryReport::default(), "healthy epochs recover nothing");
        }
    }

    #[test]
    fn distdgl_engine_reports_the_engines_own_epochs() {
        let g = graph();
        let s = split(&g);
        let dgl = DistDgl { global_batch_size: 256, ..DistDgl::new(&g, &s, model()) };
        let p = dgl.partition("METIS", 4, 1).unwrap().unwrap();
        let raw = DistDglEngine::builder(&g, &p, &s)
            .config(dgl.config(4))
            .build()
            .unwrap()
            .run(&RunSpec::healthy().epochs(3))
            .unwrap()
            .into_healthy();
        let engine = dgl.engine(&p, Threads::serial(), TraceSink::disabled()).unwrap();
        let unified = engine.run(&RunSpec::healthy().epochs(3)).unwrap().into_healthy();
        assert_eq!(unified.len(), raw.len());
        for (u, r) in unified.iter().zip(&raw) {
            assert_eq!(u.seconds.to_bits(), r.epoch_time().to_bits());
            assert_eq!(u.bytes, r.total_bytes());
            assert_eq!(u.phases, r.phase_breakdown());
        }
    }

    #[test]
    fn distgnn_healthy_seconds_is_one_epoch_times_the_completed_count() {
        let g = graph();
        let gnn = DistGnn::new(&g, model());
        let p = gnn.partition("HDRF", 4, 1).unwrap().unwrap();
        let engine = gnn.engine(&p, Threads::serial(), TraceSink::disabled()).unwrap();
        let one = engine.run(&RunSpec::healthy()).unwrap().into_healthy()[0].seconds;
        for completed in [0, 1, 5, 7] {
            let got = DistGnn::healthy_seconds(&engine, 10, completed);
            assert_eq!(got.to_bits(), (one * f64::from(completed)).to_bits(), "{completed}");
        }
        assert_eq!(
            DistGnn::healthy_seconds(&engine, 3, 5).to_bits(),
            DistGnn::healthy_seconds(&engine, 50, 5).to_bits(),
            "the run length does not enter a full-batch baseline"
        );
    }

    #[test]
    fn distdgl_healthy_seconds_sums_the_completed_prefix() {
        let g = graph();
        let s = split(&g);
        let dgl = DistDgl { global_batch_size: 256, ..DistDgl::new(&g, &s, model()) };
        let p = dgl.partition("METIS", 4, 1).unwrap().unwrap();
        let engine = dgl.engine(&p, Threads::serial(), TraceSink::disabled()).unwrap();
        let run = engine.run(&RunSpec::healthy().epochs(6)).unwrap().into_healthy();
        for completed in [0, 1, 4, 6] {
            let want = run[..completed].iter().fold(0.0, |sum, e| sum + e.seconds);
            let got = DistDgl::healthy_seconds(&engine, 6, completed as u32);
            assert_eq!(got.to_bits(), want.to_bits(), "{completed}");
        }
    }

    #[test]
    fn native_healthy_epochs_equal_the_unified_engines_bit_for_bit() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn::new(&g, model());
        let p = gnn.partition("HDRF", 4, 1).unwrap().unwrap();
        let native = gnn.healthy_epoch(&p);
        let unified = healthy_epoch(&gnn, &p);
        assert_eq!(native.epoch_time().to_bits(), unified.seconds.to_bits());
        assert_eq!(native.total_bytes(), unified.bytes);
        for global_batch_size in [256, 1024] {
            let dgl = DistDgl { global_batch_size, ..DistDgl::new(&g, &s, model()) };
            let p = dgl.partition("METIS", 4, 1).unwrap().unwrap();
            let native = dgl.healthy_epoch(&p);
            let unified = healthy_epoch(&dgl, &p);
            assert_eq!(
                native.epoch_time().to_bits(),
                unified.seconds.to_bits(),
                "{global_batch_size}"
            );
            assert_eq!(native.total_bytes(), unified.bytes, "{global_batch_size}");
        }
    }

    #[test]
    fn timed_partitions_are_the_registry_partitions_in_roster_order() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn::new(&g, model());
        let timed = gnn.timed_partitions(4, 9, Threads::new(2));
        let names: Vec<_> = timed.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, DistGnn::ROSTER);
        for t in &timed {
            assert_eq!(t.partition, gnn.partition(&t.name, 4, 9).unwrap().unwrap(), "{}", t.name);
        }
        let dgl = DistDgl::new(&g, &s, model());
        let timed = dgl.timed_partitions(4, 9, Threads::serial());
        let names: Vec<_> = timed.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, DistDgl::ROSTER);
        for t in &timed {
            assert_eq!(t.partition, dgl.partition(&t.name, 4, 9).unwrap().unwrap(), "{}", t.name);
        }
        assert_eq!(DistGnn::ROSTER, registry::EDGE_PARTITIONERS);
        assert_eq!(DistDgl::ROSTER, registry::VERTEX_PARTITIONERS);
        assert_eq!((DistGnn::LABEL, DistDgl::LABEL), ("DistGNN", "DistDGL"));
    }

    #[test]
    fn partition_reports_a_failing_partitioner_apart_from_an_unknown_name() {
        let g = graph();
        let s = split(&g);
        let gnn = DistGnn::new(&g, model());
        assert!(matches!(gnn.partition("HDRF", 0, 1), Some(Err(_))), "k = 0 is invalid");
        assert!(gnn.partition("Greedy", 4, 1).unwrap().is_ok(), "extensions resolve too");
        let dgl = DistDgl::new(&g, &s, model());
        assert!(matches!(dgl.partition("METIS", 100, 1), Some(Err(_))), "k = 100 is invalid");
        assert!(dgl.partition("ReLDG", 4, 1).unwrap().is_ok(), "extensions resolve too");
    }

    #[test]
    fn invalid_builds_each_engines_config_error() {
        assert!(matches!(
            DistGnn::invalid("bad"),
            DistGnnError::InvalidConfig(m) if m == "bad"
        ));
        assert!(matches!(
            DistDgl::invalid("worse"),
            DistDglError::InvalidConfig(m) if m == "worse"
        ));
    }

    #[test]
    fn try_cells_keeps_order_and_returns_the_first_error_by_index() {
        let timed: Vec<Timed<u32>> =
            (0..6).map(|i| Timed { name: format!("p{i}"), partition: i, seconds: 0.0 }).collect();
        for threads in [Threads::serial(), Threads::new(3)] {
            let (values, _) =
                try_cells(&timed, threads, |t| Ok::<_, String>(t.partition * 10)).unwrap();
            assert_eq!(values, [0, 10, 20, 30, 40, 50]);
            let err = try_cells(&timed, threads, |t| {
                if t.partition % 2 == 1 {
                    Err(t.name.clone())
                } else {
                    Ok(t.partition)
                }
            })
            .unwrap_err();
            assert_eq!(err, "p1", "the lowest failing index wins at any width");
        }
    }
}
