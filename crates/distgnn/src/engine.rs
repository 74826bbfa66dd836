//! The DistGNN cost-model engine.

use gp_cluster::driver::{
    self, CrashRepair, DegradedWindow, Env, Leave, LeaveExit, Rebalance, Restore, StreamQuality,
};
use gp_cluster::trace::counter_names;
use gp_cluster::{
    charge_loss_retries, compute_time, full_mask, run_until_error, transfer_time, ClusterCounters,
    ClusterSpec, DetectorConfig, EpochOutcome, FaultCtx, FaultPlan, MitigationPolicy,
    MitigationReport, RecoveryReport, RunReport, RunSpec, Scenario, ScenarioEngine, ScenarioError,
    StragglerDetector, TracePhase, TraceSink, DEFAULT_CHECKPOINT_BW,
};
use gp_exec::{par_map, Threads};
use gp_graph::{Graph, MutationBatch};
use gp_partition::{
    registry, EdgePartition, EdgePartitioner, IncrementalEdgePartitioner, PartitionError,
};
use gp_tensor::flops::{layer_train_flops, model_param_count, BlockShape};
use gp_tensor::{ModelConfig, ModelKind};

use crate::error::DistGnnError;
use crate::memory::{machine_memory, MemoryBreakdown};
use crate::sync::{record_sync, views_sync_traffic};
use crate::view::{
    assign_masters_avoiding, build_views, least_loaded, masters_and_views, PartitionView, NO_MASTER,
};

/// Configuration of a full-batch training run.
#[derive(Debug, Clone, Copy)]
pub struct DistGnnConfig {
    /// Model hyper-parameters (must be GraphSAGE — the only architecture
    /// DistGNN supports, matching the paper).
    pub model: ModelConfig,
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Replica-sync period `r` — DistGNN's *cd-r* communication
    /// avoidance (Md et al., SC 2021): partial aggregates of cut
    /// vertices are synchronised only every `r`-th epoch, trading
    /// staleness for an `r`-fold cut in sync traffic. The study paper
    /// runs with `r = 1` (sync every epoch); other values are an
    /// **extension** for the `ablations -- cdr` study. Convergence
    /// effects of staleness are outside the cost model.
    pub sync_period: u32,
    /// Checkpoint period in epochs (0 = checkpointing disabled, the
    /// paper's healthy-cluster setting). A checkpoint writes the model
    /// (parameters + optimiser moments) and every machine's replica
    /// state to local storage; its cost only appears in faulty runs
    /// (`RunSpec::faults`), so healthy runs are unaffected.
    pub checkpoint_every: u32,
}

impl DistGnnConfig {
    /// Paper-default configuration: sync every epoch (cd-0 / 0c), no
    /// checkpointing.
    pub fn paper(model: ModelConfig, cluster: ClusterSpec) -> Self {
        DistGnnConfig { model, cluster, sync_period: 1, checkpoint_every: 0 }
    }
}

/// Resident training state per covered vertex: input features plus one
/// intermediate representation per layer, in bytes. This is what replica
/// recovery fetches over the network and what checkpoints persist.
fn per_vertex_state_bytes(model: &ModelConfig) -> u64 {
    let dims: u64 = (0..model.num_layers).map(|i| model.layer_dims(i).1 as u64).sum();
    (model.feature_dim as u64 + dims) * 4
}

/// Simulated wall-time of one epoch, split into the phases the paper
/// measures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochPhases {
    /// Forward computation (straggler-gated, per layer).
    pub forward: f64,
    /// Backward computation.
    pub backward: f64,
    /// Replica synchronisation + gradient all-reduce.
    pub sync: f64,
    /// Optimiser step.
    pub optimizer: f64,
}

impl EpochPhases {
    /// Total epoch time.
    pub fn total(&self) -> f64 {
        self.forward + self.backward + self.sync + self.optimizer
    }
}

/// Full result of one simulated epoch.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Phase breakdown (simulated seconds).
    pub phases: EpochPhases,
    /// Work counters per machine.
    pub counters: ClusterCounters,
    /// Per-machine memory breakdown.
    pub memory: Vec<MemoryBreakdown>,
    /// Machines whose footprint exceeds the installed memory.
    pub oom_machines: Vec<u32>,
}

impl EpochReport {
    /// Simulated seconds per epoch.
    pub fn epoch_time(&self) -> f64 {
        self.phases.total()
    }

    /// Cluster-wide peak memory (sum over machines).
    pub fn total_memory(&self) -> u64 {
        self.memory.iter().map(MemoryBreakdown::total).sum()
    }

    /// Cluster-wide *vertex-state* memory: the footprint minus the
    /// per-machine model/optimiser state. At the paper's scale the model
    /// is < 0.5% of the footprint; on the 1/200-scale analogues it can
    /// reach 30%, so state-only numbers are the comparable quantity for
    /// the paper's Figures 9 and 10.
    pub fn total_state_memory(&self) -> u64 {
        self.memory.iter().map(|m| m.total() - m.model_bytes).sum()
    }

    /// Memory-utilisation balance `max/mean` (paper Figure 5).
    pub fn memory_balance(&self) -> f64 {
        if self.memory.is_empty() {
            return 0.0;
        }
        let total = self.total_memory();
        let mean = total as f64 / self.memory.len() as f64;
        let max = self.memory.iter().map(MemoryBreakdown::total).max().unwrap_or(0);
        max as f64 / mean
    }

    /// Whether any machine ran out of memory.
    pub fn any_oom(&self) -> bool {
        !self.oom_machines.is_empty()
    }
}

impl EpochOutcome for EpochReport {
    fn epoch_time(&self) -> f64 {
        self.phases.total()
    }

    fn total_bytes(&self) -> u64 {
        self.counters.total_network_bytes()
    }

    fn phase_breakdown(&self) -> Vec<(&'static str, f64)> {
        vec![
            (TracePhase::Forward.name(), self.phases.forward),
            (TracePhase::Backward.name(), self.phases.backward),
            (TracePhase::Sync.name(), self.phases.sync),
            (TracePhase::Optimizer.name(), self.phases.optimizer),
        ]
    }
}

/// Result of one epoch simulated under a [`FaultPlan`] with a
/// [`MitigationPolicy`] applied: the adopted epoch (mitigated when it
/// was cheaper, unmitigated otherwise — mitigation never makes an epoch
/// worse) with fault-adjusted phase times and counters, including
/// recovery traffic, plus the recovery and mitigation accounting.
#[derive(Debug, Clone)]
pub struct FaultyEpochReport {
    /// The adopted epoch report, with fault-adjusted times and counters.
    pub report: EpochReport,
    /// What the faults cost beyond the healthy baseline.
    pub recovery: RecoveryReport,
    /// Machines that crashed during this epoch (each is restored onto a
    /// replacement before the next epoch — checkpoint/restart
    /// semantics, in contrast to DistDGL's graceful degradation).
    pub crashed_machines: Vec<u32>,
    /// What mitigation did (and cost) this epoch; all zero unless the
    /// policy acted.
    pub mitigation: MitigationReport,
}

/// Result of [`DistGnnEngine::run`]: one [`RunReport`] variant per
/// resolved [`Scenario`].
pub type DistGnnRunReport = RunReport<EpochReport, FaultyEpochReport, DistGnnError>;

/// Cross-epoch state of DistGNN's mitigation layer: the per-epoch
/// straggler/degradation detector plus the adaptations it has enacted
/// (current cd-r period, machines the master role has been migrated away
/// from). The [`DistGnnEngine::run`] `Faulty` scenario creates one per
/// run and passes it to every epoch in epoch order.
#[derive(Debug, Clone)]
struct DistGnnMitigation {
    policy: MitigationPolicy,
    detector: StragglerDetector,
    base_sync_period: u32,
    sync_period: u32,
    /// Machines currently banned from the master role (bitmask).
    banned: u64,
    /// Rebalanced master assignment + views while `banned != 0`.
    rebalanced: Option<(Vec<u32>, Vec<PartitionView>)>,
}

impl DistGnnMitigation {
    fn at_base_state(&self) -> bool {
        self.sync_period == self.base_sync_period && self.rebalanced.is_none()
    }
}

/// Validated builder for [`DistGnnEngine`] — the single construction
/// path every consumer (sweeps, ablations, CLI, examples) goes through.
/// Obtain one with [`DistGnnEngine::builder`]; the run's
/// [`DistGnnConfig`] is mandatory and set through
/// [`DistGnnEngineBuilder::config`] (start from [`DistGnnConfig::paper`]
/// for the paper defaults).
#[derive(Debug, Clone)]
pub struct DistGnnEngineBuilder<'a> {
    graph: &'a Graph,
    partition: &'a EdgePartition,
    config: Option<DistGnnConfig>,
    threads: Threads,
    trace: TraceSink,
}

impl<'a> DistGnnEngineBuilder<'a> {
    /// The run's configuration (mandatory).
    pub fn config(mut self, config: DistGnnConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Intra-epoch `gp-exec` width (default: serial). The pool fans
    /// each layer's compute out one job per machine view over
    /// index-addressed slots, so any width reproduces the serial epoch
    /// bit-for-bit. A library-only setting: no front end or gp-core
    /// sweep sets it.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Trace sink the engine records spans to (default: disabled).
    /// Tracing is purely observational — reports are bit-identical with
    /// or without it.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Validate and build the engine.
    ///
    /// # Errors
    ///
    /// [`DistGnnError::InvalidConfig`] if no config was set, the model
    /// has no layers, or the sync period is 0;
    /// [`DistGnnError::ClusterMismatch`] if the partition size and
    /// cluster size disagree; [`DistGnnError::UnsupportedModel`] if the
    /// model is not GraphSAGE.
    pub fn build(self) -> Result<DistGnnEngine<'a>, DistGnnError> {
        let config = self.config.ok_or_else(|| {
            DistGnnError::InvalidConfig("config not set (builder .config())".into())
        })?;
        if self.partition.k() != config.cluster.machines {
            return Err(DistGnnError::ClusterMismatch {
                partitions: self.partition.k(),
                machines: config.cluster.machines,
            });
        }
        if config.model.kind != ModelKind::Sage {
            return Err(DistGnnError::UnsupportedModel(config.model.kind.name().into()));
        }
        if config.model.num_layers == 0 {
            return Err(DistGnnError::InvalidConfig("num_layers must be > 0".into()));
        }
        if config.sync_period == 0 {
            return Err(DistGnnError::InvalidConfig("sync_period must be > 0".into()));
        }
        let (masters, views) = masters_and_views(self.partition, 0);
        Ok(DistGnnEngine {
            graph: self.graph,
            partition: self.partition,
            views,
            masters,
            config,
            threads: self.threads,
            trace: self.trace,
        })
    }
}

/// Full-batch edge-partitioned training engine.
pub struct DistGnnEngine<'a> {
    graph: &'a Graph,
    partition: &'a EdgePartition,
    views: Vec<PartitionView>,
    masters: Vec<u32>,
    config: DistGnnConfig,
    threads: Threads,
    trace: TraceSink,
}

impl<'a> DistGnnEngine<'a> {
    /// Start building an engine for a partitioned graph; see
    /// [`DistGnnEngineBuilder`].
    pub fn builder(graph: &'a Graph, partition: &'a EdgePartition) -> DistGnnEngineBuilder<'a> {
        DistGnnEngineBuilder {
            graph,
            partition,
            config: None,
            threads: Threads::serial(),
            trace: TraceSink::disabled(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The edge partition.
    pub fn partition(&self) -> &EdgePartition {
        self.partition
    }

    /// The configuration.
    pub fn config(&self) -> &DistGnnConfig {
        &self.config
    }

    /// Per-machine views.
    pub fn views(&self) -> &[PartitionView] {
        &self.views
    }

    /// The trace sink this engine records spans to (disabled unless one
    /// was supplied via [`DistGnnEngineBuilder::trace`]).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Run the scenario a [`RunSpec`] describes and return the matching
    /// report variant. Elastic, partitioned and stream scenarios run on
    /// the shared scenario driver ([`gp_cluster::driver`]).
    ///
    /// The `Faulty` scenario truncates on an unrecoverable fault instead
    /// of erroring: completed epochs are kept and the
    /// error is recorded in the variant (chain
    /// [`DistGnnRunReport::strict`] to propagate it instead).
    ///
    /// # Errors
    ///
    /// [`DistGnnError::InvalidConfig`] when the spec's scenario
    /// combination is invalid; elastic/partitioned scenarios also
    /// surface their run errors directly.
    pub fn run(&self, spec: &RunSpec) -> Result<DistGnnRunReport, DistGnnError> {
        let scenario = spec.scenario().map_err(|e| DistGnnError::InvalidConfig(e.to_string()))?;
        let epochs = spec.num_epochs();
        let empty_plan = FaultPlan::empty();
        match scenario {
            Scenario::Healthy => {
                let out = (0..epochs).map(|e| self.healthy_epoch(e)).collect();
                Ok(DistGnnRunReport::Healthy { epochs: out })
            }
            Scenario::Faulty { plan, policy } => {
                let plan = plan.unwrap_or(&empty_plan);
                let mut session = self.mitigation(policy);
                let (epochs, error) =
                    run_until_error(epochs, |e| self.faulty_epoch(e, plan, &mut session));
                Ok(DistGnnRunReport::Faulty { epochs, error })
            }
            Scenario::Elastic { faults, elastic } => {
                driver::run_elastic(self, epochs, faults.unwrap_or(&empty_plan), elastic, None)
                    .map(|r| DistGnnRunReport::Elastic(r.elastic))
            }
            Scenario::Partitioned { faults, elastic, net } => {
                driver::run_elastic(self, epochs, faults.unwrap_or(&empty_plan), elastic, Some(net))
                    .map(DistGnnRunReport::Partitioned)
            }
            Scenario::Stream { leg, partitioner } => {
                driver::run_stream(self, leg, partitioner).map(DistGnnRunReport::Stream)
            }
        }
    }

    /// One healthy epoch, trace stamped with its epoch number — the
    /// `Healthy` leg of [`DistGnnEngine::run`].
    fn healthy_epoch(&self, epoch: u32) -> EpochReport {
        self.trace.set_epoch(epoch);
        self.simulate_epoch_for(&self.config.model)
    }

    /// Run the cost model for one epoch with an alternative model
    /// configuration (same kind); grid sweeps reuse the engine's views
    /// across the 27 hyper-parameter combinations this way.
    ///
    /// # Panics
    ///
    /// Panics if `model.kind` differs from the configured kind.
    pub fn simulate_epoch_for(&self, model: &ModelConfig) -> EpochReport {
        let mut unused = RecoveryReport::default();
        self.simulate_epoch_inner(
            model,
            &self.views,
            self.config.sync_period,
            None,
            &mut unused,
            &self.trace,
        )
    }

    /// Shared epoch simulation. With `faults: None` this is the healthy
    /// baseline and performs *exactly* the same arithmetic as before the
    /// fault subsystem existed (every fault adjustment is behind an
    /// `if let Some(..)`), so healthy results stay bit-identical.
    ///
    /// `views`/`sync_period` are parameters (rather than read from
    /// `self`) so the mitigation layer can re-run an epoch with a
    /// rebalanced master assignment or an adapted cd-r period; every
    /// plain caller passes the engine's own state verbatim. `sink` is a
    /// parameter for the same reason: the mitigation layer prices
    /// throwaway candidate epochs with a disabled sink and records only
    /// the adopted one.
    ///
    /// Span accounting: each phase window emits one span per machine
    /// whose `dur` is the *exact* straggler-gated `f64` added to the
    /// phase total, in the same order — so per-worker, per-phase span
    /// sums reproduce [`EpochPhases`] bit-for-bit. Tracing never feeds
    /// back into the report (spans are emitted from already-computed
    /// values), keeping traced and untraced runs bit-identical.
    ///
    /// Sync traffic comes from the views' replica counts in O(k) per
    /// round ([`views_sync_traffic`]), never from a per-vertex scan.
    fn simulate_epoch_inner(
        &self,
        model: &ModelConfig,
        views: &[PartitionView],
        sync_period: u32,
        faults: Option<&FaultCtx>,
        recovery: &mut RecoveryReport,
        sink: &TraceSink,
    ) -> EpochReport {
        assert_eq!(model.kind, self.config.model.kind, "model kind mismatch");
        let _prof = gp_prof::scope("distgnn.epoch");
        let cluster = &self.config.cluster;
        let network = faults.map_or(cluster.network, |f| f.network);
        let k = cluster.machines;
        // Elastic runs shrink the participating set; every other caller
        // passes the full mask, and `all_live` gates every membership
        // adjustment so the fixed-fleet arithmetic stays bit-identical.
        let live_mask = faults.map_or(full_mask(k), |f| f.live_mask);
        let all_live = live_mask == full_mask(k);
        let mut counters = ClusterCounters::new(k);
        let mut phases = EpochPhases::default();
        let tracing = sink.is_enabled();

        for layer in 0..model.num_layers {
            let (in_dim, out_dim) = model.layer_dims(layer);
            // --- Compute (forward + backward), straggler-gated. Each
            // live view's block cost is a pure function of its slot, so
            // the per-worker compute fans out as index-addressed jobs;
            // the counter/straggler fold below consumes the slots in
            // index order, reproducing the serial loop exactly. ---
            let mut max_fwd = 0.0f64;
            let mut max_bwd = 0.0f64;
            let mut view_flops: Vec<(u32, u64, u64)> = Vec::new();
            let compute_jobs = views
                .iter()
                .filter(|view| all_live || live_mask & (1u64 << view.machine) != 0)
                .map(|view| {
                    move || {
                        let _prof = gp_prof::scope("distgnn.layer_compute");
                        let shape = BlockShape {
                            num_dst: view.master_vertices,
                            num_src: view.local_vertices,
                            num_edges: view.local_edges,
                        };
                        let train_flops =
                            layer_train_flops(model.kind, shape, in_dim as u64, out_dim as u64);
                        let fwd_flops = train_flops / 3;
                        let bwd_flops = train_flops - fwd_flops;
                        let mut fwd = compute_time(&cluster.machine, fwd_flops);
                        let mut bwd = compute_time(&cluster.machine, bwd_flops);
                        if let Some(f) = faults {
                            let cf = f.compute_factor[view.machine as usize];
                            fwd /= cf;
                            bwd /= cf;
                        }
                        (view.machine, train_flops, fwd_flops, bwd_flops, fwd, bwd)
                    }
                })
                .collect();
            for (machine, train_flops, fwd_flops, bwd_flops, fwd, bwd) in
                par_map(self.threads, compute_jobs)
            {
                counters.machine_mut(machine).flops += train_flops;
                max_fwd = max_fwd.max(fwd);
                max_bwd = max_bwd.max(bwd);
                if tracing {
                    view_flops.push((machine, fwd_flops, bwd_flops));
                }
            }
            phases.forward += max_fwd;
            phases.backward += max_bwd;
            if tracing {
                let t = sink.now();
                for &(m, fwd_flops, _) in &view_flops {
                    sink.span(m, layer as u32, TracePhase::Forward, t, max_fwd, 0, fwd_flops);
                }
                sink.advance(max_fwd);
                let t = sink.now();
                for &(m, _, bwd_flops) in &view_flops {
                    sink.span(m, layer as u32, TracePhase::Backward, t, max_bwd, 0, bwd_flops);
                }
                sink.advance(max_bwd);
            }

            // --- Replica sync: forward gathers partial aggregates
            // (in_dim) and scatters updated states (out_dim); the
            // backward pass mirrors it with gradients. Under cd-r the
            // sync runs every r-th epoch, so the per-epoch amortised
            // cost is divided by the period. ---
            let (i, o) = (in_dim as u64, out_dim as u64);
            for (gather, scatter) in [(i, o), (o, i)] {
                let mut traffic = views_sync_traffic(views, gather, scatter);
                if sync_period > 1 {
                    let p = u64::from(sync_period);
                    for v in traffic
                        .bytes_sent
                        .iter_mut()
                        .chain(traffic.bytes_received.iter_mut())
                        .chain(traffic.messages.iter_mut())
                    {
                        *v /= p;
                    }
                }
                // Absent machines exchange nothing: their rows are
                // zeroed before the counters record the traffic and
                // before the straggler gate scans it.
                if !all_live {
                    for m in 0..k as usize {
                        if live_mask & (1u64 << m) == 0 {
                            traffic.bytes_sent[m] = 0;
                            traffic.bytes_received[m] = 0;
                            traffic.messages[m] = 0;
                        }
                    }
                }
                record_sync(&mut counters, &traffic);
                let mut max_sync = 0.0f64;
                let mut max_sync_lossless = 0.0f64;
                for m in 0..k as usize {
                    let bytes = traffic.bytes_sent[m] + traffic.bytes_received[m];
                    let msgs = traffic.messages[m];
                    let mut t = transfer_time(&network, bytes, msgs);
                    if let Some(f) = faults {
                        max_sync_lossless = max_sync_lossless.max(t);
                        let charge = charge_loss_retries(&network, msgs, bytes, f.loss_rate);
                        t += charge.extra_secs;
                        charge.apply_counts(recovery);
                    }
                    max_sync = max_sync.max(t);
                }
                phases.sync += max_sync;
                // Wall-time cost of message loss = how much the
                // straggler-gated sync grew over the lossless exchange
                // (on the same, possibly degraded, network).
                if faults.is_some() {
                    recovery.retry_seconds += max_sync - max_sync_lossless;
                }
                if tracing {
                    let t = sink.now();
                    for m in 0..k as usize {
                        if !all_live && live_mask & (1u64 << m) == 0 {
                            continue;
                        }
                        let bytes = traffic.bytes_sent[m] + traffic.bytes_received[m];
                        sink.span(m as u32, layer as u32, TracePhase::Sync, t, max_sync, bytes, 0);
                    }
                    sink.advance(max_sync);
                }
            }
        }

        // --- Gradient all-reduce + optimiser step. The all-reduce is
        // overlapped with the tail of the backward pass (standard
        // bucketed gradient synchronisation), so only the excess over
        // the backward compute shows up as synchronisation time. ---
        let param_bytes = model_param_count(model) * 4;
        let allreduce =
            gp_cluster::time::allreduce_time(&network, param_bytes, live_mask.count_ones());
        let allreduce_excess = (allreduce - phases.backward).max(0.0);
        phases.sync += allreduce_excess;
        for m in 0..k {
            if !all_live && live_mask & (1u64 << m) == 0 {
                continue;
            }
            counters.machine_mut(m).send(param_bytes);
            counters.machine_mut(m).receive(param_bytes);
        }
        if tracing {
            let t = sink.now();
            for m in 0..k {
                if !all_live && live_mask & (1u64 << m) == 0 {
                    continue;
                }
                sink.span(
                    m,
                    model.num_layers as u32,
                    TracePhase::Sync,
                    t,
                    allreduce_excess,
                    2 * param_bytes,
                    0,
                );
            }
            sink.advance(allreduce_excess);
        }
        // Adam: ~10 FLOPs per parameter. The step is synchronous, so the
        // slowest (possibly degraded) machine gates it.
        let opt_flops = model_param_count(model) * 10;
        phases.optimizer = compute_time(&cluster.machine, opt_flops);
        if let Some(f) = faults {
            phases.optimizer /= f.min_compute_factor;
        }
        for m in 0..k {
            if !all_live && live_mask & (1u64 << m) == 0 {
                continue;
            }
            counters.machine_mut(m).flops += opt_flops;
        }
        if tracing {
            let t = sink.now();
            for m in 0..k {
                if !all_live && live_mask & (1u64 << m) == 0 {
                    continue;
                }
                sink.span(
                    m,
                    model.num_layers as u32,
                    TracePhase::Optimizer,
                    t,
                    phases.optimizer,
                    0,
                    opt_flops,
                );
            }
            sink.advance(phases.optimizer);
        }

        // --- Memory. ---
        let live_view = |v: &&PartitionView| all_live || live_mask & (1u64 << v.machine) != 0;
        let memory: Vec<MemoryBreakdown> =
            views.iter().filter(live_view).map(|v| machine_memory(v, model)).collect();
        let mut oom_machines = Vec::new();
        for (view, mem) in views.iter().filter(live_view).zip(memory.iter()) {
            counters.machine_mut(view.machine).observe_memory(mem.total());
            if mem.total() > cluster.machine.memory_bytes {
                oom_machines.push(view.machine);
            }
        }

        if tracing {
            for m in 0..k {
                if !all_live && live_mask & (1u64 << m) == 0 {
                    continue;
                }
                let c = counters.machine(m);
                sink.counter(m, counter_names::BYTES_SENT, c.bytes_sent as f64);
                sink.counter(m, counter_names::BYTES_RECEIVED, c.bytes_received as f64);
            }
        }

        EpochReport { phases, counters, memory, oom_machines }
    }

    /// Walk `machine`'s replica set `V(p)` — the vertices whose replica
    /// mask holds it, fixed by the edge partition and identical under
    /// any master reassignment — in vertex order. A vertex with another
    /// replica in `active` is re-fetched from the lowest such machine,
    /// which `fetch` is handed; the rest are unreplicated. Returns the
    /// re-fetched vertex count, the mask of their source machines and the
    /// unreplicated vertex count.
    fn replica_walk(
        &self,
        machine: u32,
        active: u64,
        mut fetch: impl FnMut(u32),
    ) -> (u64, u64, u64) {
        let (mut fetched, mut sources, mut unreplicated) = (0u64, 0u64, 0u64);
        for v in 0..self.partition.num_vertices() {
            let mask = self.partition.replica_mask(v);
            if mask >> machine & 1 == 0 {
                continue;
            }
            let live = mask & !(1u64 << machine) & active;
            if live != 0 {
                let src = live.trailing_zeros();
                fetch(src);
                fetched += 1;
                sources |= 1u64 << src;
            } else {
                unreplicated += 1;
            }
        }
        (fetched, sources, unreplicated)
    }

    /// Bytes `view`'s machine checkpoints: the model (parameters +
    /// optimiser moments) and its replica state.
    fn shard_bytes_of(&self, view: &PartitionView) -> u64 {
        let model = &self.config.model;
        model_param_count(model) * 4 * 3 + view.local_vertices * per_vertex_state_bytes(model)
    }

    /// Simulated wall time of one checkpoint: every machine persists its
    /// shard to local storage in parallel; the barrier waits for the
    /// largest.
    fn checkpoint_seconds(&self) -> f64 {
        let largest = self.views.iter().map(|v| self.shard_bytes_of(v)).max().unwrap_or(0);
        largest as f64 / DEFAULT_CHECKPOINT_BW
    }

    /// One unmitigated epoch under a fault plan on the given views (which
    /// carry the master assignment) and cd-r period, recording to `sink`
    /// — the mitigation layer prices its candidate epochs through it.
    ///
    /// * **Empty plan** — exactly the healthy epoch with an all-zero
    ///   [`RecoveryReport`]: bit-identical to the healthy baseline.
    /// * **Slowdowns / degradation** — scale the phase times through the
    ///   straggler rule; message loss shows up as retries.
    /// * **Crashes** — the crashed partition is restored onto a
    ///   replacement machine before the next epoch: vertices with
    ///   surviving replicas are fetched over the network (recovery
    ///   traffic ∝ replication factor — partitioning quality becomes
    ///   fault-tolerance quality), the rest reload from the last
    ///   checkpoint and the epochs since it are re-executed.
    /// * **Checkpoints** — written every `checkpoint_every` epochs
    ///   (config), priced by [`DistGnnEngine::checkpoint_seconds`].
    ///
    /// # Errors
    ///
    /// [`DistGnnError::WorkerFailed`] if a crash is unrecoverable (single
    /// machine, no checkpointing); [`DistGnnError::RecoveryBudgetExceeded`]
    /// if the accumulated overhead passes the plan's budget.
    fn faulty_epoch_on(
        &self,
        epoch: u32,
        plan: &FaultPlan,
        views: &[PartitionView],
        sync_period: u32,
        sink: &TraceSink,
    ) -> Result<FaultyEpochReport, DistGnnError> {
        if plan.is_empty() {
            let mut unused = RecoveryReport::default();
            return Ok(FaultyEpochReport {
                report: self.simulate_epoch_inner(
                    &self.config.model,
                    views,
                    sync_period,
                    None,
                    &mut unused,
                    sink,
                ),
                recovery: RecoveryReport::default(),
                crashed_machines: Vec::new(),
                mitigation: MitigationReport::default(),
            });
        }
        let model = self.config.model;
        let cluster = &self.config.cluster;
        let k = cluster.machines;
        let mut recovery = RecoveryReport::default();
        let ctx = FaultCtx::resolve(plan, cluster, epoch, full_mask(k));
        let mut report =
            self.simulate_epoch_inner(&model, views, sync_period, Some(&ctx), &mut recovery, sink);

        if self.config.checkpoint_every > 0
            && (epoch + 1).is_multiple_of(self.config.checkpoint_every)
        {
            recovery.checkpoints += 1;
            let ckpt_secs = self.checkpoint_seconds();
            recovery.checkpoint_seconds += ckpt_secs;
            if sink.is_enabled() {
                let t = sink.now();
                for v in views {
                    let shard = self.shard_bytes_of(v);
                    sink.span(v.machine, 0, TracePhase::Checkpoint, t, ckpt_secs, 0, 0);
                    sink.counter(v.machine, counter_names::CHECKPOINT_BYTES, shard as f64);
                }
                sink.advance(ckpt_secs);
            }
        }

        let state = per_vertex_state_bytes(&model);
        let mut crashed_machines = Vec::new();
        for (machine, step_frac) in plan.crashes_in_epoch(epoch) {
            if machine >= k {
                continue;
            }
            if k == 1 && self.config.checkpoint_every == 0 {
                return Err(DistGnnError::WorkerFailed { machine, epoch });
            }
            recovery.crashes += 1;
            crashed_machines.push(machine);

            // Replicated vertices: fetch current state from one surviving
            // replica each.
            let (fetched, sources, unreplicated) =
                self.replica_walk(machine, full_mask(k), |src| {
                    report.counters.machine_mut(src).send(state);
                    report.counters.machine_mut(machine).receive(state);
                });
            let replica_bytes = fetched * state;
            recovery.recovery_bytes += replica_bytes;
            // `crash_secs` mirrors every wall-time term this crash adds
            // to the recovery report, so the Recovery span's duration is
            // the exact sum of those terms.
            let mut crash_secs =
                transfer_time(&ctx.network, replica_bytes, u64::from(sources.count_ones()))
                    + (unreplicated * state) as f64 / DEFAULT_CHECKPOINT_BW;
            recovery.restore_seconds += crash_secs;

            // Unreplicated state only exists in the last checkpoint, so
            // everything since it (plus the partial epoch in flight) is
            // re-executed; with full replica coverage only the partial
            // epoch is lost. Checkpoints carry a checksum that restore
            // verifies before trusting the contents: a corrupt file is
            // detected (never silently restored), its read is wasted,
            // and recovery walks back one checkpoint period at a time —
            // to scratch if no intact checkpoint remains.
            let lost = if unreplicated > 0 {
                let ce = self.config.checkpoint_every;
                let since_ckpt = if ce > 0 {
                    let mut since = epoch % ce;
                    let mut ckpt = i64::from(epoch) - 1 - i64::from(since);
                    while ckpt >= 0 && plan.corrupted_checkpoint(machine, ckpt as u32) {
                        recovery.corrupted_checkpoints += 1;
                        let wasted = (unreplicated * state) as f64 / DEFAULT_CHECKPOINT_BW;
                        recovery.restore_seconds += wasted;
                        crash_secs += wasted;
                        since += ce;
                        ckpt -= i64::from(ce);
                    }
                    if ckpt < 0 {
                        epoch
                    } else {
                        since
                    }
                } else {
                    epoch
                };
                f64::from(since_ckpt) + step_frac
            } else {
                step_frac
            };
            recovery.lost_progress_epochs += lost;
            recovery.reexecuted_steps += lost.ceil() as u64;
            let reexec_secs = lost * report.epoch_time();
            recovery.reexecution_seconds += reexec_secs;
            if sink.is_enabled() {
                sink.span(
                    machine,
                    0,
                    TracePhase::Recovery,
                    sink.now(),
                    crash_secs + reexec_secs,
                    replica_bytes,
                    0,
                );
                sink.counter(machine, counter_names::RECOVERY_BYTES, replica_bytes as f64);
                sink.advance(crash_secs + reexec_secs);
            }
        }

        let overhead = recovery.total_overhead_seconds();
        if overhead > plan.recovery_budget_secs {
            return Err(DistGnnError::RecoveryBudgetExceeded {
                budget_secs: plan.recovery_budget_secs,
                needed_secs: overhead,
            });
        }
        Ok(FaultyEpochReport {
            report,
            recovery,
            crashed_machines,
            mitigation: MitigationReport::default(),
        })
    }

    /// Minimal-movement master repair after machine `departed` drops out
    /// of the active set: only the vertices it mastered move, each to
    /// its least-loaded surviving replica (deterministic by vertex
    /// order); a vertex with no live replica stays wedged on the
    /// departed slot (its dense compute is lost until a rejoin, and its
    /// state is only recoverable from a checkpoint). Other machines'
    /// assignments are untouched — a leave must not reshuffle healthy
    /// state the way a global rebalance would.
    fn repair_masters(&self, masters: &[u32], departed: u32, active: u64) -> Vec<u32> {
        let _prof = gp_prof::scope("distgnn.masters");
        let mut load = [0u64; gp_partition::MAX_PARTITIONS as usize];
        for &m in masters {
            if m != NO_MASTER {
                load[m as usize] += 1;
            }
        }
        let mut repaired = masters.to_vec();
        for v in 0..self.partition.num_vertices() {
            if masters[v as usize] != departed {
                continue;
            }
            let mask = self.partition.replica_mask(v) & active;
            if mask == 0 {
                continue;
            }
            let best = least_loaded(&load, mask);
            repaired[v as usize] = best;
            load[best as usize] += 1;
            load[departed as usize] -= 1;
        }
        repaired
    }

    /// Start a mitigation session for this engine. DistGNN observes one
    /// round per epoch, so the detector runs with the fast-reacting
    /// [`DetectorConfig::per_epoch`] tuning (the policy's `detector`
    /// field tunes per-step engines like DistDGL).
    fn mitigation(&self, policy: MitigationPolicy) -> DistGnnMitigation {
        DistGnnMitigation {
            policy,
            detector: StragglerDetector::new(
                self.config.cluster.machines,
                DetectorConfig::per_epoch(),
            ),
            base_sync_period: self.config.sync_period,
            sync_period: self.config.sync_period,
            banned: 0,
            rebalanced: None,
        }
    }

    /// Per-machine compute seconds of one epoch under the given slowdown
    /// factors — the detector's observation stream. Uses the engine's
    /// *base* views so the signal (and therefore the flag sequence) does
    /// not depend on what mitigation has already done.
    fn per_machine_compute_secs(&self, model: &ModelConfig, compute_factor: &[f64]) -> Vec<f64> {
        let cluster = &self.config.cluster;
        let mut secs = vec![0.0f64; cluster.machines as usize];
        for layer in 0..model.num_layers {
            let (in_dim, out_dim) = model.layer_dims(layer);
            for view in &self.views {
                let shape = BlockShape {
                    num_dst: view.master_vertices,
                    num_src: view.local_vertices,
                    num_edges: view.local_edges,
                };
                let flops = layer_train_flops(model.kind, shape, in_dim as u64, out_dim as u64);
                secs[view.machine as usize] +=
                    compute_time(&cluster.machine, flops) / compute_factor[view.machine as usize];
            }
        }
        secs
    }

    /// One epoch under a fault plan with the session's
    /// [`MitigationPolicy`] applied — the `Faulty` leg of
    /// [`DistGnnEngine::run`]. DistGNN implements the policy's
    /// `adaptive_sync` axis: adaptive cd-r + master rebalancing.
    ///
    /// Per epoch: the unmitigated fault path
    /// ([`DistGnnEngine::faulty_epoch_on`]) is priced, and — when
    /// earlier epochs left the session with adapted state — the epoch is
    /// priced again under that state; the cheaper run (epoch time plus
    /// recovery overhead) is adopted, so mitigation can never make an
    /// epoch worse. The detector then observes the *unmitigated* signals
    /// (detection is independent of mitigation — the flag sequence
    /// depends only on the fault plan) and the session adapts for the
    /// next epoch: the cd-r period is quadrupled while the network is
    /// flagged degraded and restored on recovery (staleness hurts
    /// convergence, which the cost model does not price, so the long
    /// period is reserved for brownouts), and the master role is
    /// migrated away from machines flagged persistently slow (back when
    /// they recover), paying the migration traffic up front in the
    /// epoch that commits the move.
    ///
    /// With an empty plan or a policy without `adaptive_sync` this is
    /// exactly the unmitigated fault path on the engine's own views,
    /// cd-r period and sink, with an all-zero mitigation report.
    ///
    /// Contract: the adopted epoch's cost (wall time plus recovery
    /// overhead) plus any migration charged this epoch (reported in
    /// `mitigation.migration_seconds`) never exceeds the unmitigated
    /// epoch's cost. A migration commits migrate-then-run — the epoch
    /// executes on the rebalanced assignment and must beat the run
    /// adopted so far by more than the migration itself — so mitigated
    /// totals are never worse by construction.
    ///
    /// # Errors
    ///
    /// As [`DistGnnEngine::faulty_epoch_on`].
    fn faulty_epoch(
        &self,
        epoch: u32,
        plan: &FaultPlan,
        session: &mut DistGnnMitigation,
    ) -> Result<FaultyEpochReport, DistGnnError> {
        self.trace.set_epoch(epoch);
        if plan.is_empty() || !session.policy.adaptive_sync {
            let (views, sync_period) = (&self.views, self.config.sync_period);
            return self.faulty_epoch_on(epoch, plan, views, sync_period, &self.trace);
        }

        let model = self.config.model;
        let k = self.config.cluster.machines;
        let mut mitigation = MitigationReport::default();

        // Candidate pricing runs with a disabled sink: only the adopted
        // configuration is re-run on the engine's real sink at the end,
        // so discarded probes leave no spans and the returned report is
        // identical to an untraced run by construction.
        let probe = TraceSink::disabled();
        // The cd-r period of the adopted candidate, which runs on the
        // session's views (`None`: the unmitigated run) — replayed for
        // the trace commit run.
        let mut adopted = None;

        let unmit =
            self.faulty_epoch_on(epoch, plan, &self.views, self.config.sync_period, &probe)?;
        let unmit_cost = unmit.report.epoch_time() + unmit.recovery.total_overhead_seconds();
        let unmit_sync = unmit.report.phases.sync;
        let candidate = if session.at_base_state() {
            None
        } else {
            let views = session.rebalanced.as_ref().map_or(&self.views[..], |(_, v)| &v[..]);
            self.faulty_epoch_on(epoch, plan, views, session.sync_period, &probe).ok()
        };
        let mut chosen = match candidate {
            Some(c) => {
                let cost = c.report.epoch_time() + c.recovery.total_overhead_seconds();
                if cost < unmit_cost {
                    mitigation.time_saved_secs = unmit_cost - cost;
                    adopted = Some(session.sync_period);
                    c
                } else {
                    unmit
                }
            }
            None => unmit,
        };

        let compute_factor: Vec<f64> = (0..k).map(|m| plan.compute_factor(m, epoch)).collect();
        let times = self.per_machine_compute_secs(&model, &compute_factor);
        session.detector.observe_compute(&times);
        session.detector.observe_network(unmit_sync);

        let target = if session.detector.network_degraded() {
            session.base_sync_period.saturating_mul(4)
        } else {
            session.base_sync_period
        };
        if target != session.sync_period {
            session.sync_period = target;
            mitigation.sync_period_changes += 1;
        }

        // Ban set the detector would like: persistent stragglers out
        // (never all machines), recovered machines back in.
        let persist = session.detector.config().persist_rounds;
        let mut desired = session.banned;
        for m in 0..k {
            let bit = 1u64 << m;
            if session.detector.is_straggler(m)
                && session.detector.flagged_rounds(m) >= persist
                && desired & bit == 0
                && (desired | bit).count_ones() < k
            {
                desired |= bit;
            } else if desired & bit != 0 && !session.detector.is_straggler(m) {
                desired &= !bit;
            }
        }
        if desired != session.banned {
            let new_masters = if desired == 0 {
                self.masters.clone()
            } else {
                assign_masters_avoiding(self.partition, desired)
            };
            let old_masters =
                session.rebalanced.as_ref().map_or(&self.masters[..], |(m, _)| &m[..]);
            let moved =
                old_masters.iter().zip(new_masters.iter()).filter(|(a, b)| a != b).count() as u64;
            if moved == 0 {
                session.banned = desired;
                if desired == 0 {
                    session.rebalanced = None;
                }
            } else {
                // The owner role moves with its aggregate state: one
                // batched stream per machine on the (possibly degraded)
                // network of the epoch the migration runs in. The move
                // commits migrate-then-run: the migration is paid up
                // front and the epoch then executes on the rebalanced
                // assignment, so it is adopted only when migration plus
                // the rebalanced epoch beat the run adopted so far — a
                // single-epoch payback rule. Unprofitable moves
                // (network-bound configs, where sync dominates and
                // masters barely matter) are never charged, and a
                // rejected move is proposed again next epoch while the
                // straggler persists.
                let bytes = moved * per_vertex_state_bytes(&model);
                let net = plan.degraded_network(&self.config.cluster.network, epoch);
                let migration_secs = transfer_time(&net, bytes, u64::from(k));
                let views = build_views(self.partition, &new_masters);
                let cand =
                    self.faulty_epoch_on(epoch, plan, &views, session.sync_period, &probe).ok();
                let chosen_cost =
                    chosen.report.epoch_time() + chosen.recovery.total_overhead_seconds();
                if let Some(c) = cand {
                    let cost = c.report.epoch_time() + c.recovery.total_overhead_seconds();
                    if cost + migration_secs < chosen_cost {
                        mitigation.masters_migrated += moved;
                        mitigation.migration_bytes += bytes;
                        mitigation.migration_seconds += migration_secs;
                        mitigation.time_saved_secs = unmit_cost - cost - migration_secs;
                        session.banned = desired;
                        session.rebalanced =
                            if desired == 0 { None } else { Some((new_masters, views)) };
                        chosen = c;
                        adopted = Some(session.sync_period);
                        if self.trace.is_enabled() {
                            let t = self.trace.now();
                            self.trace.span(
                                0,
                                0,
                                TracePhase::Migration,
                                t,
                                migration_secs,
                                bytes,
                                0,
                            );
                            self.trace.counter(0, counter_names::MIGRATION_BYTES, bytes as f64);
                            self.trace.advance(migration_secs);
                        }
                    }
                }
            }
        }

        // Commit run: replay the adopted configuration once on the real
        // sink. The engine is deterministic, so the replay performs the
        // exact arithmetic of `chosen` — the trace matches the returned
        // report and the report itself never touches a traced run.
        if self.trace.is_enabled() {
            let rebalanced = session.rebalanced.as_ref().map_or(&self.views[..], |(_, v)| &v[..]);
            let (views, sp) = match adopted {
                None => (&self.views[..], self.config.sync_period),
                Some(sp) => (rebalanced, sp),
            };
            let replay = self.faulty_epoch_on(epoch, plan, views, sp, &self.trace);
            debug_assert!(replay.is_ok(), "replay of an adopted epoch cannot fail");
        }

        chosen.mitigation = mitigation;
        Ok(chosen)
    }
}

/// DistGNN's side of the scenario driver. The layout is the master
/// assignment plus the views built from it; a leave repairs only the
/// leaver's masters, a crash restores a replica set from surviving
/// replicas (the rest from the snapshot store, re-executing the epochs
/// since it), and a partition window serves minority-mastered vertices
/// from stale quorum replicas.
impl ScenarioEngine for DistGnnEngine<'_> {
    type Layout = (Vec<u32>, Vec<PartitionView>);
    type Epoch = EpochReport;
    type Part = EdgePartition;
    type Online = IncrementalEdgePartitioner;
    type Repartitioner = Box<dyn EdgePartitioner>;
    type Error = DistGnnError;

    const STREAM_PARTITIONER: &'static str = "HDRF";

    fn cluster(&self) -> &ClusterSpec {
        &self.config.cluster
    }

    fn sink(&self) -> &TraceSink {
        &self.trace
    }

    fn param_bytes(&self) -> u64 {
        model_param_count(&self.config.model) * 4
    }

    fn layout(&self) -> Self::Layout {
        (self.masters.clone(), self.views.clone())
    }

    fn epoch(
        &self,
        (_, views): &Self::Layout,
        _epoch: u32,
        ctx: &FaultCtx,
        recovery: &mut RecoveryReport,
        traced: bool,
    ) -> EpochReport {
        let probe = TraceSink::disabled();
        let sink = if traced { &self.trace } else { &probe };
        let (model, sp) = (&self.config.model, self.config.sync_period);
        self.simulate_epoch_inner(model, views, sp, Some(ctx), recovery, sink)
    }

    fn counters(epoch: &EpochReport) -> &ClusterCounters {
        &epoch.counters
    }

    fn degraded(
        &self,
        (masters, views): &Self::Layout,
        minority: u64,
        quorum: u64,
    ) -> DegradedWindow<Self::Layout> {
        let k = self.config.cluster.machines;
        let state = per_vertex_state_bytes(&self.config.model);
        let cut = |m: &u32| minority & (1u64 << m) != 0;
        let mut deg_masters = masters.clone();
        for m in (0..k).filter(cut) {
            deg_masters = self.repair_masters(&deg_masters, m, quorum);
        }
        let deg_views = build_views(self.partition, &deg_masters);
        DegradedWindow {
            layout: (deg_masters, deg_views),
            stale_per_epoch: masters.iter().filter(|m| **m != NO_MASTER && cut(m)).count() as u64,
            deferred_per_epoch: 0,
            catchup_bytes: (0..k)
                .filter(cut)
                .map(|m| views[m as usize].local_vertices * state)
                .sum(),
        }
    }

    /// Streaming moves *all* mastered state out — wedged vertices
    /// included (they park on storage); leaving unannounced makes
    /// survivors re-fetch what was replicated and walk the snapshot
    /// store for the rest, losing the epochs since it. A graceful
    /// leaver streams only when that is no dearer than the crash exit's
    /// restore, so the elastic run is never worse than the crash
    /// baseline by construction.
    fn leave(
        &self,
        (masters, _): &Self::Layout,
        w: u32,
        active: u64,
        graceful: bool,
        env: &Env,
    ) -> Leave<Self::Layout> {
        let state = per_vertex_state_bytes(&self.config.model);
        let repaired = self.repair_masters(masters, w, active);
        let mastered = masters.iter().filter(|&&m| m == w).count() as u64;
        let mut moved_live = 0u64;
        let mut receivers = 0u64;
        let mut sources = 0u64;
        for (v, (new, old)) in repaired.iter().zip(masters).enumerate() {
            if new != old {
                moved_live += 1;
                receivers |= 1u64 << *new;
                let mask = self.partition.replica_mask(v as u32) & active;
                sources |= 1u64 << mask.trailing_zeros();
            }
        }
        let stream_bytes = mastered * state;
        let msgs = u64::from(receivers.count_ones()).max(u64::from(mastered > 0));
        let stream_secs = transfer_time(env.network, stream_bytes, msgs);
        let replica_bytes = moved_live * state;
        let restore = (mastered > moved_live).then(|| env.restore(w));
        let crash_secs = transfer_time(env.network, replica_bytes, u64::from(sources.count_ones()))
            + restore.as_ref().map_or(0.0, |r| r.seconds);
        let exit = if graceful && stream_secs <= crash_secs {
            LeaveExit::Handoff { bytes: stream_bytes, secs: stream_secs, messages: msgs }
        } else {
            let (read, corrupted, lost) = restore
                .map_or((0, 0, 0.0), |r| (r.bytes_read, r.corrupted, r.epochs_lost(env.epoch)));
            let restore = Restore { bytes: replica_bytes + read, secs: crash_secs, corrupted };
            LeaveExit::Crash { restore, lost }
        };
        let views = build_views(self.partition, &repaired);
        Leave { layout: (repaired, views), redistributed: 0, exit }
    }

    /// Minimal repair: the joiner's replica shard comes back online,
    /// and any vertex wedged on a still-absent machine that the joiner
    /// replicates moves to it. Its working state reloads from the
    /// newest valid snapshot; without one it streams the un-wedged
    /// vertices from surviving replicas. Model parameters live on every
    /// survivor, so no training progress is lost.
    fn join(&self, (masters, _): &mut Self::Layout, w: u32, active: u64, env: &Env) -> Restore {
        let absent = full_mask(self.config.cluster.machines) & !active;
        let mut moved = 0u64;
        for v in 0..self.partition.num_vertices() {
            let m = masters[v as usize];
            if m != NO_MASTER
                && absent & (1u64 << m) != 0
                && self.partition.replica_mask(v) & (1u64 << w) != 0
            {
                masters[v as usize] = w;
                moved += 1;
            }
        }
        let r = env.restore(w);
        let mut restore = Restore { bytes: r.bytes_read, secs: r.seconds, corrupted: r.corrupted };
        if r.epoch.is_none() && moved > 0 {
            let stream = moved * per_vertex_state_bytes(&self.config.model);
            restore.bytes += stream;
            restore.secs += transfer_time(env.network, stream, moved);
        }
        restore
    }

    fn joined(&self, (masters, views): &mut Self::Layout) {
        *views = build_views(self.partition, masters);
    }

    fn rebalance(
        &self,
        (masters, _): &Self::Layout,
        active: u64,
    ) -> Option<Rebalance<Self::Layout>> {
        let absent = full_mask(self.config.cluster.machines) & !active;
        let (cand, views) = masters_and_views(self.partition, absent);
        let mut moved = 0u64;
        let mut receivers = 0u64;
        for (new, old) in cand.iter().zip(masters) {
            if new != old {
                moved += 1;
                receivers |= 1u64 << *new;
            }
        }
        if moved == 0 {
            return None;
        }
        Some(Rebalance {
            layout: (cand, views),
            moved,
            bytes: moved * per_vertex_state_bytes(&self.config.model),
            messages: moved,
            receivers,
        })
    }

    /// Replicated vertices are re-fetched from a live replica each;
    /// unreplicated state restores from the newest valid snapshot and
    /// the epochs since it (plus the partial epoch in flight) are
    /// re-executed.
    fn crash(
        &self,
        _layout: &Self::Layout,
        machine: u32,
        step_frac: f64,
        active: u64,
        _epoch: &EpochReport,
        env: &Env,
    ) -> CrashRepair {
        let (fetched, sources, unreplicated) = self.replica_walk(machine, active, |_| {});
        let replica_bytes = fetched * per_vertex_state_bytes(&self.config.model);
        let secs = transfer_time(env.network, replica_bytes, u64::from(sources.count_ones()));
        let mut restore = Restore { bytes: replica_bytes, secs, corrupted: 0 };
        let mut lost = step_frac;
        if unreplicated > 0 {
            let r = env.restore(machine);
            restore.corrupted = r.corrupted;
            restore.bytes += r.bytes_read;
            restore.secs += r.seconds;
            lost = r.epochs_lost(env.epoch) + step_frac;
        }
        CrashRepair {
            restore,
            span_bytes: replica_bytes,
            lost,
            reexecuted_steps: lost.ceil() as u64,
        }
    }

    fn shard_bytes(&self, (_, views): &Self::Layout) -> Vec<u64> {
        views.iter().map(|v| self.shard_bytes_of(v)).collect()
    }

    fn stream_base(&self) -> (&Graph, &EdgePartition) {
        (self.graph, self.partition)
    }

    fn repartitioner(&self, name: &str) -> Result<Box<dyn EdgePartitioner>, ScenarioError> {
        registry::edge_partitioner(name).ok_or_else(|| {
            ScenarioError::InvalidConfig(format!(
                "unknown vertex-cut partitioner '{name}' for a stream run"
            ))
        })
    }

    fn online(
        &self,
        name: &str,
        graph: &Graph,
        part: &EdgePartition,
        seed: u64,
    ) -> Result<IncrementalEdgePartitioner, PartitionError> {
        IncrementalEdgePartitioner::from_partition(name, graph, part, seed)
    }

    /// New edges are placed online; deletions update bookkeeping only.
    fn update(
        &self,
        online: &mut IncrementalEdgePartitioner,
        batch: &MutationBatch,
        _first_new: u32,
    ) -> Result<(), PartitionError> {
        for &(u, v) in &batch.inserts {
            online.insert_edge(u, v)?;
        }
        for &(u, v) in &batch.deletes {
            online.delete_edge(u, v)?;
        }
        Ok(())
    }

    fn materialize(
        online: &IncrementalEdgePartitioner,
        snapshot: &Graph,
    ) -> Result<EdgePartition, PartitionError> {
        online.materialize(snapshot)
    }

    fn repartition(
        &self,
        full: &Box<dyn EdgePartitioner>,
        snapshot: &Graph,
        seed: u64,
    ) -> Result<EdgePartition, PartitionError> {
        full.partition_edges(snapshot, self.config.cluster.machines, seed)
    }

    fn fire_metric(&self, part: &EdgePartition) -> f64 {
        part.edge_balance()
    }

    fn quality_metric(part: &EdgePartition) -> f64 {
        part.replication_factor()
    }

    fn quality(&self, part: &EdgePartition) -> StreamQuality {
        StreamQuality {
            replication_factor: Some(part.replication_factor()),
            edge_cut: None,
            balance: part.edge_balance(),
            train_balance: None,
        }
    }

    fn stream_epoch(
        &self,
        snapshot: &Graph,
        part: &EdgePartition,
        batch: u32,
        traced: bool,
    ) -> Result<f64, DistGnnError> {
        let sink = if traced { self.trace.clone() } else { TraceSink::disabled() };
        let engine = DistGnnEngine::builder(snapshot, part)
            .config(self.config)
            .threads(self.threads)
            .trace(sink)
            .build()?;
        Ok(engine.healthy_epoch(batch).epoch_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::{
        CheckpointConfig, ChurnPlan, ElasticOptions, ElasticRunReport, NetFaultPlan, NetRunOptions,
        NetRunReport, PartitionedRunReport,
    };
    use gp_graph::generators::{rmat, RmatParams};
    use gp_partition::prelude::*;

    fn setup(k: u32) -> (Graph, EdgePartition, EdgePartition) {
        let g = rmat(RmatParams { scale: 9, edge_factor: 8, ..RmatParams::default() }, 7).unwrap();
        let random = RandomEdgePartitioner.partition_edges(&g, k, 1).unwrap();
        let hep = Hep::hep100().partition_edges(&g, k, 1).unwrap();
        (g, random, hep)
    }

    fn cfg(k: u32, f: usize, h: usize, layers: usize) -> DistGnnConfig {
        DistGnnConfig::paper(
            ModelConfig {
                kind: ModelKind::Sage,
                feature_dim: f,
                hidden_dim: h,
                num_layers: layers,
                num_classes: 8,
                seed: 0,
            },
            ClusterSpec::paper(k),
        )
    }

    // One helper per `run` scenario leg.

    fn healthy(e: &DistGnnEngine) -> EpochReport {
        e.run(&RunSpec::healthy()).unwrap().into_healthy().remove(0)
    }

    fn faulty(
        e: &DistGnnEngine,
        epochs: u32,
        plan: &FaultPlan,
    ) -> (Vec<FaultyEpochReport>, Option<DistGnnError>) {
        e.run(&RunSpec::healthy().epochs(epochs).faults(plan.clone())).unwrap().into_faulty()
    }

    fn mitigated(
        e: &DistGnnEngine,
        epochs: u32,
        plan: &FaultPlan,
        policy: MitigationPolicy,
    ) -> Vec<FaultyEpochReport> {
        let spec = RunSpec::healthy().epochs(epochs).faults(plan.clone()).mitigate(policy);
        let (out, error) = e.run(&spec).unwrap().into_faulty();
        assert!(error.is_none(), "{error:?}");
        out
    }

    fn elastic(
        e: &DistGnnEngine,
        epochs: u32,
        faults: &FaultPlan,
        churn: &ChurnPlan,
        ckpt: CheckpointConfig,
        opts: ElasticOptions,
    ) -> ElasticRunReport {
        let spec = RunSpec::healthy().epochs(epochs).faults(faults.clone());
        e.run(&spec.elastic(churn.clone(), ckpt, opts)).unwrap().into_elastic()
    }

    fn partitioned(
        e: &DistGnnEngine,
        epochs: u32,
        faults: &FaultPlan,
        churn: &ChurnPlan,
        net: &NetFaultPlan,
        ckpt: CheckpointConfig,
        nopts: NetRunOptions,
    ) -> PartitionedRunReport {
        let spec = RunSpec::healthy()
            .epochs(epochs)
            .faults(faults.clone())
            .elastic(churn.clone(), ckpt, ElasticOptions::default())
            .net(net.clone(), nopts);
        e.run(&spec).unwrap().into_partitioned()
    }

    /// Every layout the scenario hooks build (repair on leave, rejoin,
    /// rebalance, a degraded window) carries the views the per-replica
    /// oracle computes for its masters.
    #[test]
    fn scenario_layouts_carry_oracle_views() {
        use crate::view::oracle;
        use gp_cluster::driver::Env;
        use gp_cluster::CheckpointStore;

        let (g, random, hep) = setup(8);
        for p in [&random, &hep] {
            let e = DistGnnEngine::builder(&g, p).config(cfg(8, 16, 16, 2)).build().unwrap();
            let check = |(masters, views): &(Vec<u32>, Vec<PartitionView>), what: &str| {
                assert_eq!(views, &oracle::build_views(p, masters), "{what}");
            };
            let mut layout = e.layout();
            assert_eq!(layout.0, oracle::assign_masters_avoiding(p, 0));
            check(&layout, "build");
            let store = CheckpointStore::new(CheckpointConfig::default());
            let faults = FaultPlan::empty();
            let env = Env::new(0, &e.config.cluster.network, &store, &faults);
            let full = full_mask(8);
            let mut active = full;
            for w in [3u32, 5] {
                active &= !(1u64 << w);
                layout = e.leave(&layout, w, active, true, &env).layout;
                check(&layout, "leave");
            }
            active |= 1u64 << 3;
            e.join(&mut layout, 3, active, &env);
            e.joined(&mut layout);
            check(&layout, "joined");
            let rebalanced = e.rebalance(&layout, active).expect("the rejoin left masters to move");
            assert_eq!(rebalanced.layout.0, oracle::assign_masters_avoiding(p, full & !active));
            check(&rebalanced.layout, "rebalance");
            let minority = 0b11;
            let window = e.degraded(&rebalanced.layout, minority, active & !minority);
            check(&window.layout, "degraded");
        }
    }

    #[test]
    fn better_partitioner_less_traffic_and_time() {
        let (g, random, hep) = setup(8);
        let c = cfg(8, 64, 64, 3);
        let r_rand = healthy(&DistGnnEngine::builder(&g, &random).config(c).build().unwrap());
        let r_hep = healthy(&DistGnnEngine::builder(&g, &hep).config(c).build().unwrap());
        assert!(
            r_hep.counters.total_network_bytes() < r_rand.counters.total_network_bytes(),
            "HEP traffic {} >= Random {}",
            r_hep.counters.total_network_bytes(),
            r_rand.counters.total_network_bytes()
        );
        assert!(r_hep.epoch_time() < r_rand.epoch_time());
        assert!(r_hep.total_memory() < r_rand.total_memory());
    }

    #[test]
    fn traffic_proportional_to_state_dims() {
        let (g, random, _) = setup(4);
        let small = healthy(
            &DistGnnEngine::builder(&g, &random).config(cfg(4, 16, 16, 2)).build().unwrap(),
        );
        let large = healthy(
            &DistGnnEngine::builder(&g, &random).config(cfg(4, 512, 512, 2)).build().unwrap(),
        );
        // Sync volume scales with state size; subtract the (identical
        // per-config) allreduce contribution before comparing? Allreduce
        // differs too (larger params) — the large config must dominate.
        assert!(large.counters.total_network_bytes() > 10 * small.counters.total_network_bytes());
    }

    #[test]
    fn more_layers_more_memory() {
        let (g, random, _) = setup(4);
        let l2 = healthy(
            &DistGnnEngine::builder(&g, &random).config(cfg(4, 64, 64, 2)).build().unwrap(),
        );
        let l4 = healthy(
            &DistGnnEngine::builder(&g, &random).config(cfg(4, 64, 64, 4)).build().unwrap(),
        );
        assert!(l4.total_memory() > l2.total_memory());
    }

    #[test]
    fn cluster_mismatch_rejected() {
        let (g, random, _) = setup(4);
        assert!(matches!(
            DistGnnEngine::builder(&g, &random).config(cfg(8, 16, 16, 2)).build(),
            Err(DistGnnError::ClusterMismatch { .. })
        ));
    }

    #[test]
    fn non_sage_rejected() {
        let (g, random, _) = setup(4);
        let mut c = cfg(4, 16, 16, 2);
        c.model.kind = ModelKind::Gat;
        assert!(matches!(
            DistGnnEngine::builder(&g, &random).config(c).build(),
            Err(DistGnnError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn phases_all_positive() {
        let (g, random, _) = setup(4);
        let r = healthy(
            &DistGnnEngine::builder(&g, &random).config(cfg(4, 64, 64, 2)).build().unwrap(),
        );
        assert!(r.phases.forward > 0.0);
        assert!(r.phases.backward > 0.0);
        assert!(r.phases.sync > 0.0);
        assert!(r.phases.optimizer > 0.0);
        assert!(!r.any_oom());
    }

    #[test]
    fn cdr_sync_period_amortises_traffic() {
        let (g, random, _) = setup(8);
        let base = cfg(8, 64, 64, 3);
        let mut cdr = base;
        cdr.sync_period = 4;
        let r1 = healthy(&DistGnnEngine::builder(&g, &random).config(base).build().unwrap());
        let r4 = healthy(&DistGnnEngine::builder(&g, &random).config(cdr).build().unwrap());
        // Sync phase shrinks ~4x (a small allreduce-excess term does not
        // scale with the period); compute is unchanged.
        assert!(
            r4.phases.sync < 0.35 * r1.phases.sync,
            "cd-4 sync {} vs cd-1 {}",
            r4.phases.sync,
            r1.phases.sync
        );
        assert_eq!(r4.phases.forward, r1.phases.forward);
        assert!(r4.counters.total_network_bytes() < r1.counters.total_network_bytes());
    }

    #[test]
    fn zero_sync_period_rejected() {
        let (g, random, _) = setup(4);
        let mut c = cfg(4, 16, 16, 2);
        c.sync_period = 0;
        assert!(matches!(
            DistGnnEngine::builder(&g, &random).config(c).build(),
            Err(DistGnnError::InvalidConfig(_))
        ));
    }

    fn crash_plan(machine: u32, epoch: u32, step_frac: f64) -> FaultPlan {
        FaultPlan {
            events: vec![gp_cluster::FaultEvent::Crash { machine, epoch, step_frac }],
            machines: 8,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        }
    }

    #[test]
    fn empty_plan_bit_identical_to_baseline() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 3)).build().unwrap();
        let base = healthy(&engine);
        let faulty = faulty(&engine, 1, &FaultPlan::empty()).0.remove(0);
        assert_eq!(faulty.report.phases, base.phases);
        assert_eq!(faulty.report.counters, base.counters);
        assert_eq!(faulty.report.memory, base.memory);
        assert_eq!(faulty.report.oom_machines, base.oom_machines);
        assert_eq!(faulty.recovery, RecoveryReport::default());
        assert!(faulty.crashed_machines.is_empty());
    }

    #[test]
    fn same_plan_identical_results() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 2)).build().unwrap();
        let plan = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 10, 3.0, 0xfa11));
        let (a, b) = (faulty(&engine, 10, &plan).0, faulty(&engine, 10, &plan).0);
        assert_eq!(a.len(), 10);
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.report.phases, b.report.phases);
            assert_eq!(a.report.counters, b.report.counters);
            assert_eq!(a.recovery, b.recovery);
        }
    }

    #[test]
    fn recovery_traffic_ordered_by_replication_factor() {
        // The acceptance criterion: lower RF ⇒ fewer replicated vertices
        // on the crashed machine ⇒ less replica-restore traffic. Sum over
        // crashing every machine once so the ordering does not hinge on
        // one partition's layout.
        let (g, random, hep) = setup(8);
        let c = cfg(8, 64, 64, 3);
        let e_rand = DistGnnEngine::builder(&g, &random).config(c).build().unwrap();
        let e_hep = DistGnnEngine::builder(&g, &hep).config(c).build().unwrap();
        assert!(
            hep.replication_factor() < random.replication_factor(),
            "test premise: HEP replicates less than Random"
        );
        let total = |e: &DistGnnEngine| -> u64 {
            (0..8u32)
                .map(|m| faulty(e, 2, &crash_plan(m, 1, 0.5)).0[1].recovery.recovery_bytes)
                .sum()
        };
        let rand_bytes = total(&e_rand);
        let hep_bytes = total(&e_hep);
        assert!(
            hep_bytes < rand_bytes,
            "HEP (lower RF) recovery {hep_bytes} >= Random {rand_bytes}"
        );
    }

    #[test]
    fn crash_refetches_exactly_the_shared_part_of_the_replica_set() {
        // A crashed machine re-fetches every vertex it holds that some
        // other machine also holds, one state row each.
        let (g, random, _) = setup(8);
        let c = cfg(8, 64, 64, 3);
        let engine = DistGnnEngine::builder(&g, &random).config(c).build().unwrap();
        let state = per_vertex_state_bytes(&c.model);
        for m in 0..8u32 {
            let shared = g
                .vertices()
                .map(|v| random.replica_mask(v))
                .filter(|&mask| mask >> m & 1 != 0 && mask != 1 << m)
                .count() as u64;
            let rec = faulty(&engine, 2, &crash_plan(m, 1, 0.5)).0[1].recovery.recovery_bytes;
            assert_eq!(rec, shared * state, "machine {m}");
        }
    }

    #[test]
    fn checkpointing_bounds_lost_progress() {
        let (g, random, _) = setup(8);
        let mut c = cfg(8, 64, 64, 2);
        let no_ckpt = DistGnnEngine::builder(&g, &random).config(c).build().unwrap();
        c.checkpoint_every = 2;
        let with_ckpt = DistGnnEngine::builder(&g, &random).config(c).build().unwrap();
        let plan = crash_plan(3, 7, 0.25);
        let lost_none = faulty(&no_ckpt, 8, &plan).0[7].recovery;
        let lost_ckpt = faulty(&with_ckpt, 8, &plan).0[7].recovery;
        // Without checkpoints a crash at epoch 7 replays from scratch;
        // with a period of 2 at most ~2 epochs replay.
        assert!(lost_none.lost_progress_epochs > 7.0);
        assert!(lost_ckpt.lost_progress_epochs <= 2.0);
        assert!(lost_ckpt.reexecution_seconds < lost_none.reexecution_seconds);
        // The checkpointing run pays for checkpoints instead.
        let early = faulty(&with_ckpt, 2, &plan).0[1].recovery;
        assert_eq!(early.checkpoints, 1, "epoch 1 ends a period-2 window");
        assert!(early.checkpoint_seconds > 0.0);
    }

    #[test]
    fn slowdown_and_degradation_stretch_phases() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 2)).build().unwrap();
        let base = healthy(&engine);
        let plan = FaultPlan {
            events: vec![
                gp_cluster::FaultEvent::Slowdown {
                    machine: 0,
                    from_epoch: 0,
                    until_epoch: 1,
                    factor: 0.5,
                },
                gp_cluster::FaultEvent::Degradation {
                    from_epoch: 0,
                    until_epoch: 1,
                    bandwidth_factor: 0.5,
                    loss_rate: 0.1,
                },
            ],
            machines: 8,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        let run = faulty(&engine, 6, &plan).0;
        assert!(run[0].report.phases.forward > base.phases.forward);
        assert!(run[0].report.phases.sync > base.phases.sync);
        assert!(run[0].recovery.retries > 0);
        assert!(run[0].recovery.retry_seconds > 0.0);
        // Out of the window the same plan costs nothing extra.
        assert_eq!(run[5].report.phases, base.phases);
    }

    #[test]
    fn recovery_budget_enforced() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 2)).build().unwrap();
        let mut plan = crash_plan(0, 4, 0.5);
        plan.recovery_budget_secs = 1e-12;
        let (done, error) = faulty(&engine, 6, &plan);
        assert_eq!(done.len(), 4, "the run truncates at the crash epoch");
        assert!(matches!(error, Some(DistGnnError::RecoveryBudgetExceeded { .. })));
    }

    #[test]
    fn single_machine_crash_unrecoverable_without_checkpoints() {
        let (g, _, _) = setup(8);
        let random = RandomEdgePartitioner.partition_edges(&g, 1, 1).unwrap();
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(1, 16, 16, 2)).build().unwrap();
        let plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::Crash { machine: 0, epoch: 2, step_frac: 0.5 }],
            machines: 1,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        assert!(matches!(
            faulty(&engine, 3, &plan).1,
            Some(DistGnnError::WorkerFailed { machine: 0, epoch: 2 })
        ));
    }

    #[test]
    fn corrupt_checkpoint_detected_and_falls_back() {
        let (g, random, _) = setup(8);
        let mut c = cfg(8, 64, 64, 2);
        c.checkpoint_every = 2;
        let engine = DistGnnEngine::builder(&g, &random).config(c).build().unwrap();
        let crash = gp_cluster::FaultEvent::Crash { machine: 3, epoch: 7, step_frac: 0.25 };
        let plan = |extra: &[(u32, u32)]| FaultPlan {
            events: std::iter::once(crash)
                .chain(extra.iter().map(|&(machine, epoch)| {
                    gp_cluster::FaultEvent::CheckpointCorruption { machine, epoch }
                }))
                .collect(),
            machines: 8,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        // Checkpoints land at the end of epochs 1, 3, 5; the crash at
        // epoch 7 restores from epoch 5's.
        let at_crash = |plan: FaultPlan| faulty(&engine, 8, &plan).0[7].recovery;
        let a = at_crash(plan(&[]));
        assert_eq!(a.corrupted_checkpoints, 0);
        assert!(
            (a.lost_progress_epochs - 1.25).abs() < 1e-9,
            "premise: machine 3 holds unreplicated vertices, lost = {}",
            a.lost_progress_epochs
        );
        // Epoch 5's checkpoint corrupt: detected, recovery walks back to
        // epoch 3's and pays the wasted read.
        let b = at_crash(plan(&[(3, 5)]));
        assert_eq!(b.corrupted_checkpoints, 1);
        assert!((b.lost_progress_epochs - 3.25).abs() < 1e-9);
        assert!(b.restore_seconds > a.restore_seconds);
        // All checkpoints corrupt: replay from scratch.
        let c = at_crash(plan(&[(3, 5), (3, 3), (3, 1)]));
        assert_eq!(c.corrupted_checkpoints, 3);
        assert!((c.lost_progress_epochs - 7.25).abs() < 1e-9);
        // Corruption of a checkpoint never read (other machine, or an
        // epoch that is not the restore point) changes nothing.
        let d = at_crash(plan(&[(2, 5), (3, 4)]));
        assert_eq!(d, a);
    }

    #[test]
    fn mitigation_with_empty_plan_bit_identical() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 2)).build().unwrap();
        let base = healthy(&engine);
        for r in mitigated(&engine, 3, &FaultPlan::empty(), MitigationPolicy::all()) {
            assert_eq!(r.report.phases, base.phases);
            assert_eq!(r.report.counters, base.counters);
            assert_eq!(r.mitigation, gp_cluster::MitigationReport::default());
        }
    }

    #[test]
    fn mitigation_policy_none_matches_plain_fault_path() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 2)).build().unwrap();
        let standard = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 10, 3.0, 0xfa11));
        for plan in [standard, crash_plan(3, 5, 0.5)] {
            let plain = faulty(&engine, 10, &plan).0;
            let none = mitigated(&engine, 10, &plan, MitigationPolicy::none());
            assert_eq!(none.len(), 10);
            for (r, plain) in none.iter().zip(&plain) {
                assert_eq!(r.report.phases, plain.report.phases);
                assert_eq!(r.report.epoch_time().to_bits(), plain.report.epoch_time().to_bits());
                assert_eq!(r.recovery, plain.recovery);
                assert_eq!(r.crashed_machines, plain.crashed_machines);
                assert_eq!(r.mitigation, gp_cluster::MitigationReport::default());
                assert_eq!(plain.mitigation, gp_cluster::MitigationReport::default());
            }
        }
    }

    fn brownout_plan() -> FaultPlan {
        FaultPlan {
            events: vec![gp_cluster::FaultEvent::Degradation {
                from_epoch: 1,
                until_epoch: 6,
                bandwidth_factor: 0.25,
                loss_rate: 0.0,
            }],
            machines: 8,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        }
    }

    #[test]
    fn adaptive_cdr_saves_time_under_brownout() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 3)).build().unwrap();
        let plan = brownout_plan();
        let mut unmit_total = 0.0;
        for r in faulty(&engine, 8, &plan).0 {
            unmit_total += r.report.epoch_time();
        }
        let mut mit_total = 0.0;
        let mut mitigation = gp_cluster::MitigationReport::default();
        for r in mitigated(&engine, 8, &plan, MitigationPolicy::adaptive()) {
            mit_total += r.report.epoch_time();
            mitigation.merge(&r.mitigation);
        }
        assert!(
            mit_total < unmit_total,
            "adaptive cd-r must save time: {mit_total} vs {unmit_total}"
        );
        // Lengthened when the brownout was detected, restored after it
        // cleared.
        assert!(mitigation.sync_period_changes >= 2, "{:?}", mitigation);
        assert_eq!(mitigation.sync_period_changes % 2, 0, "every lengthening was undone");
        assert!(mitigation.time_saved_secs > 0.0);
    }

    #[test]
    fn master_rebalance_migrates_off_persistent_straggler() {
        // Master rebalancing moves *compute* (the dense layers run at
        // the owner), so it pays off in compute-bound configurations —
        // hidden = 512, the top of the paper's grid. In network-bound
        // ones the per-epoch guard keeps the unmitigated path instead.
        let (g, random, _) = setup(8);
        let engine =
            DistGnnEngine::builder(&g, &random).config(cfg(8, 512, 512, 3)).build().unwrap();
        let plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::Slowdown {
                machine: 2,
                from_epoch: 1,
                until_epoch: 10,
                factor: 0.25,
            }],
            machines: 8,
            epochs: 12,
            recovery_budget_secs: f64::INFINITY,
        };
        let mut session = engine.mitigation(MitigationPolicy::adaptive());
        let mut unmit_total = 0.0;
        let mut mit_total = 0.0;
        let mut mitigation = gp_cluster::MitigationReport::default();
        let mut unmitigated = engine.mitigation(MitigationPolicy::none());
        // The session's ban set is inspected below, so this drives the
        // `Faulty` leg of `run` epoch by epoch.
        for epoch in 0..10 {
            let plain = engine.faulty_epoch(epoch, &plan, &mut unmitigated).unwrap();
            unmit_total += plain.report.epoch_time();
            let r = engine.faulty_epoch(epoch, &plan, &mut session).unwrap();
            mit_total += r.report.epoch_time();
            mitigation.merge(&r.mitigation);
        }
        assert!(mitigation.masters_migrated > 0, "persistent straggler must trigger migration");
        assert!(mitigation.migration_bytes > 0);
        assert!(mitigation.migration_seconds > 0.0);
        assert!(
            mit_total + mitigation.migration_seconds < unmit_total,
            "rebalancing must pay for itself: {mit_total} + {} vs {unmit_total}",
            mitigation.migration_seconds
        );
        assert_ne!(session.banned & (1 << 2), 0, "machine 2 stays banned while slow");
    }

    #[test]
    fn mitigated_never_worse_and_deterministic() {
        let (g, random, _) = setup(8);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(8, 64, 64, 2)).build().unwrap();
        let plan = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 12, 4.0, 0xfa11));
        let a = mitigated(&engine, 12, &plan, MitigationPolicy::all());
        let b = mitigated(&engine, 12, &plan, MitigationPolicy::all());
        let unmitigated = faulty(&engine, 12, &plan).0;
        assert_eq!(a.len(), 12);
        for (epoch, ((ra, rb), unmit)) in a.iter().zip(&b).zip(&unmitigated).enumerate() {
            assert_eq!(ra.report.phases, rb.report.phases, "epoch {epoch}");
            assert_eq!(ra.mitigation, rb.mitigation, "epoch {epoch}");
            let unmit_cost = unmit.report.epoch_time() + unmit.recovery.total_overhead_seconds();
            let mit_cost = ra.report.epoch_time() + ra.recovery.total_overhead_seconds();
            assert!(
                mit_cost <= unmit_cost + 1e-9,
                "epoch {epoch}: mitigated {mit_cost} worse than unmitigated {unmit_cost}"
            );
        }
    }

    #[test]
    fn builder_requires_model_and_cluster() {
        // Model and cluster arrive together in the mandatory config.
        let (g, random, _) = setup(4);
        assert!(matches!(
            DistGnnEngine::builder(&g, &random).build(),
            Err(DistGnnError::InvalidConfig(_))
        ));
        assert!(DistGnnEngine::builder(&g, &random).config(cfg(4, 16, 16, 2)).build().is_ok());
    }

    /// The load-bearing invariant: per-worker, per-phase span-duration
    /// sums equal the reported phase totals *exactly* (`==` on f64).
    fn assert_span_accounting(sink: &TraceSink, k: u32, phases: &EpochPhases) {
        for m in 0..k {
            assert_eq!(
                sink.worker_phase_seconds(m, TracePhase::Forward),
                phases.forward,
                "worker {m} forward"
            );
            assert_eq!(
                sink.worker_phase_seconds(m, TracePhase::Backward),
                phases.backward,
                "worker {m} backward"
            );
            assert_eq!(
                sink.worker_phase_seconds(m, TracePhase::Sync),
                phases.sync,
                "worker {m} sync"
            );
            assert_eq!(
                sink.worker_phase_seconds(m, TracePhase::Optimizer),
                phases.optimizer,
                "worker {m} optimizer"
            );
        }
    }

    #[test]
    fn healthy_span_sums_equal_phase_totals() {
        let (g, random, _) = setup(8);
        let sink = TraceSink::enabled();
        let engine = DistGnnEngine::builder(&g, &random)
            .config(cfg(8, 64, 64, 3))
            .trace(sink.clone())
            .build()
            .unwrap();
        let report = healthy(&engine);
        assert_span_accounting(&sink, 8, &report.phases);
        // The simulated clock advanced by the epoch time. The clock
        // accumulates phase windows in interleaved order while
        // `epoch_time()` sums per-phase totals, so the two groupings of
        // the same addends may differ by rounding — equal to within a
        // few ulps, not bit-for-bit (the bit-exact invariant is the
        // per-worker span accounting asserted above).
        let drift = (sink.now() - report.epoch_time()).abs();
        assert!(
            drift <= 8.0 * f64::EPSILON * report.epoch_time(),
            "clock {} vs epoch time {}",
            sink.now(),
            report.epoch_time()
        );
        assert!(!sink.counters().is_empty());
    }

    #[test]
    fn tracing_leaves_reports_bit_identical() {
        let (g, random, _) = setup(8);
        let c = cfg(8, 64, 64, 3);
        let plain = DistGnnEngine::builder(&g, &random).config(c).build().unwrap();
        let traced = DistGnnEngine::builder(&g, &random)
            .config(c)
            .trace(TraceSink::enabled())
            .build()
            .unwrap();
        let a = healthy(&plain);
        let b = healthy(&traced);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.memory, b.memory);
        let plan = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 6, 2.0, 0xfa11));
        let (runs_a, runs_b) = (faulty(&plain, 6, &plan).0, faulty(&traced, 6, &plan).0);
        assert_eq!(runs_a.len(), 6);
        for (epoch, (fa, fb)) in runs_a.iter().zip(&runs_b).enumerate() {
            assert_eq!(fa.report.phases, fb.report.phases, "epoch {epoch}");
            assert_eq!(fa.report.counters, fb.report.counters, "epoch {epoch}");
            assert_eq!(fa.recovery, fb.recovery, "epoch {epoch}");
        }
    }

    #[test]
    fn faulty_span_sums_equal_phase_totals() {
        let (g, random, _) = setup(8);
        let mut c = cfg(8, 64, 64, 2);
        c.checkpoint_every = 2;
        let sink = TraceSink::enabled();
        let engine =
            DistGnnEngine::builder(&g, &random).config(c).trace(sink.clone()).build().unwrap();
        let plan = FaultPlan {
            events: vec![
                gp_cluster::FaultEvent::Crash { machine: 3, epoch: 5, step_frac: 0.5 },
                gp_cluster::FaultEvent::Slowdown {
                    machine: 0,
                    from_epoch: 0,
                    until_epoch: 8,
                    factor: 0.5,
                },
                gp_cluster::FaultEvent::Degradation {
                    from_epoch: 2,
                    until_epoch: 6,
                    bandwidth_factor: 0.5,
                    loss_rate: 0.05,
                },
            ],
            machines: 8,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        let mut session = engine.mitigation(MitigationPolicy::none());
        for epoch in 0..8 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let r = engine.faulty_epoch(epoch, &plan, &mut session).unwrap();
            assert_span_accounting(&sink, 8, &r.report.phases);
            // Checkpoint and recovery wall time is accounted by the
            // overhead spans (one checkpoint span per machine — the
            // write is a cluster barrier; recovery on the crashed one).
            let ckpt: f64 = (0..8)
                .map(|m| sink.worker_phase_seconds(m, TracePhase::Checkpoint))
                .fold(0.0, f64::max);
            assert_eq!(ckpt, r.recovery.checkpoint_seconds, "epoch {epoch}");
            let rec: f64 = (0..8).map(|m| sink.worker_phase_seconds(m, TracePhase::Recovery)).sum();
            let expect = r.recovery.restore_seconds + r.recovery.reexecution_seconds;
            assert!((rec - expect).abs() <= 1e-12 * expect.max(1.0), "epoch {epoch}");
        }
    }

    #[test]
    fn mitigated_span_sums_equal_adopted_report() {
        let (g, random, _) = setup(8);
        let sink = TraceSink::enabled();
        let engine = DistGnnEngine::builder(&g, &random)
            .config(cfg(8, 64, 64, 3))
            .trace(sink.clone())
            .build()
            .unwrap();
        let plan = brownout_plan();
        let mut session = engine.mitigation(MitigationPolicy::adaptive());
        for epoch in 0..8 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let r = engine.faulty_epoch(epoch, &plan, &mut session).unwrap();
            assert_span_accounting(&sink, 8, &r.report.phases);
            for s in sink.spans() {
                assert_eq!(s.epoch, epoch, "spans carry the simulated epoch");
            }
        }
    }

    #[test]
    fn same_seed_traces_are_identical() {
        let (g, random, _) = setup(8);
        let plan = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 4, 2.0, 0xfa11));
        let run = || {
            let sink = TraceSink::enabled();
            let engine = DistGnnEngine::builder(&g, &random)
                .config(cfg(8, 64, 64, 2))
                .trace(sink.clone())
                .build()
                .unwrap();
            mitigated(&engine, 4, &plan, MitigationPolicy::adaptive());
            (sink.spans(), sink.counters())
        };
        let (spans_a, counters_a) = run();
        let (spans_b, counters_b) = run();
        assert!(!spans_a.is_empty());
        assert_eq!(spans_a, spans_b);
        assert_eq!(counters_a, counters_b);
    }

    #[test]
    fn epoch_outcome_trait_unifies_report() {
        let (g, random, _) = setup(4);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(4, 64, 64, 2)).build().unwrap();
        let report = healthy(&engine);
        let outcome: &dyn EpochOutcome = &report;
        assert_eq!(outcome.epoch_time(), report.phases.total());
        assert_eq!(outcome.total_bytes(), report.counters.total_network_bytes());
        let breakdown = outcome.phase_breakdown();
        assert_eq!(breakdown.len(), 4);
        assert_eq!(breakdown[0], ("forward", report.phases.forward));
        let total: f64 = breakdown.iter().map(|(_, s)| s).sum();
        assert!((total - report.epoch_time()).abs() < 1e-12);
    }

    /// The metrics-registry analogue of `assert_span_accounting`: the
    /// per-worker, per-phase histogram mass of a single-epoch snapshot
    /// must equal the engine's reported phase totals exactly.
    fn assert_metrics_accounting(sink: &TraceSink, k: u32, phases: &EpochPhases) {
        let snap = gp_cluster::MetricsSnapshot::from_sink(sink);
        for m in 0..k {
            assert_eq!(
                snap.phase_seconds(m, TracePhase::Forward),
                phases.forward,
                "worker {m} forward mass"
            );
            assert_eq!(
                snap.phase_seconds(m, TracePhase::Backward),
                phases.backward,
                "worker {m} backward mass"
            );
            assert_eq!(
                snap.phase_seconds(m, TracePhase::Sync),
                phases.sync,
                "worker {m} sync mass"
            );
            assert_eq!(
                snap.phase_seconds(m, TracePhase::Optimizer),
                phases.optimizer,
                "worker {m} optimizer mass"
            );
        }
    }

    fn counter_name_set(sink: &TraceSink) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = sink.counters().iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    #[test]
    fn metrics_mass_equals_phase_totals_healthy() {
        let (g, random, _) = setup(8);
        let sink = TraceSink::enabled();
        let engine = DistGnnEngine::builder(&g, &random)
            .config(cfg(8, 64, 64, 3))
            .trace(sink.clone())
            .build()
            .unwrap();
        let report = healthy(&engine);
        assert_metrics_accounting(&sink, 8, &report.phases);
        // Healthy path pins exactly the cumulative traffic counters.
        assert_eq!(
            counter_name_set(&sink),
            vec![counter_names::BYTES_RECEIVED, counter_names::BYTES_SENT]
        );
    }

    #[test]
    fn metrics_mass_equals_phase_totals_faulty() {
        let (g, random, _) = setup(8);
        let mut c = cfg(8, 64, 64, 2);
        c.checkpoint_every = 2;
        let sink = TraceSink::enabled();
        let engine =
            DistGnnEngine::builder(&g, &random).config(c).trace(sink.clone()).build().unwrap();
        let plan = crash_plan(3, 5, 0.5);
        let mut session = engine.mitigation(MitigationPolicy::none());
        for epoch in 0..8 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let r = engine.faulty_epoch(epoch, &plan, &mut session).unwrap();
            assert_metrics_accounting(&sink, 8, &r.report.phases);
            // Per-path counter pinning: the fault path adds exactly the
            // checkpoint shard counters on checkpoint epochs and the
            // recovery counter on crash epochs.
            let mut expect = vec![counter_names::BYTES_RECEIVED, counter_names::BYTES_SENT];
            if (epoch + 1) % 2 == 0 {
                expect.push(counter_names::CHECKPOINT_BYTES);
            }
            if epoch == 5 {
                expect.push(counter_names::RECOVERY_BYTES);
            }
            expect.sort_unstable();
            assert_eq!(counter_name_set(&sink), expect, "epoch {epoch}");
            if epoch == 5 {
                let rec: f64 = sink
                    .counters()
                    .iter()
                    .filter(|ev| ev.name == counter_names::RECOVERY_BYTES)
                    .map(|ev| ev.value)
                    .sum();
                assert_eq!(rec, r.recovery.recovery_bytes as f64);
            }
        }
    }

    #[test]
    fn metrics_mass_equals_phase_totals_mitigated() {
        let (g, random, _) = setup(8);
        let sink = TraceSink::enabled();
        let engine = DistGnnEngine::builder(&g, &random)
            .config(cfg(8, 64, 64, 3))
            .trace(sink.clone())
            .build()
            .unwrap();
        let plan = brownout_plan();
        let mut session = engine.mitigation(MitigationPolicy::adaptive());
        for epoch in 0..8 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let r = engine.faulty_epoch(epoch, &plan, &mut session).unwrap();
            assert_metrics_accounting(&sink, 8, &r.report.phases);
        }
    }

    #[test]
    fn migration_adoption_emits_pinned_counter() {
        // Same compute-bound setup as
        // `master_rebalance_migrates_off_persistent_straggler`, traced:
        // an adopted migration must surface as a `migration_bytes`
        // counter event matching the mitigation report.
        let (g, random, _) = setup(8);
        let sink = TraceSink::enabled();
        let engine = DistGnnEngine::builder(&g, &random)
            .config(cfg(8, 512, 512, 3))
            .trace(sink.clone())
            .build()
            .unwrap();
        let plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::Slowdown {
                machine: 2,
                from_epoch: 1,
                until_epoch: 10,
                factor: 0.25,
            }],
            machines: 8,
            epochs: 12,
            recovery_budget_secs: f64::INFINITY,
        };
        let mut migrated = 0u64;
        let mut migration_bytes = 0u64;
        for r in mitigated(&engine, 10, &plan, MitigationPolicy::adaptive()) {
            migrated += r.mitigation.masters_migrated;
            migration_bytes += r.mitigation.migration_bytes;
        }
        assert!(migrated > 0, "test premise: the straggler triggers migration");
        let events: Vec<f64> = sink
            .counters()
            .iter()
            .filter(|ev| ev.name == counter_names::MIGRATION_BYTES)
            .map(|ev| ev.value)
            .collect();
        assert!(!events.is_empty(), "adopted migrations must emit the counter");
        assert_eq!(events.iter().sum::<f64>(), migration_bytes as f64);
        // Mitigation path pins exactly the healthy set plus migration.
        assert_eq!(
            counter_name_set(&sink),
            vec![
                counter_names::BYTES_RECEIVED,
                counter_names::BYTES_SENT,
                counter_names::MIGRATION_BYTES
            ]
        );
    }

    #[test]
    fn memory_balance_tracks_vertex_balance() {
        let (g, _, hep) = setup(8);
        let r =
            healthy(&DistGnnEngine::builder(&g, &hep).config(cfg(8, 256, 16, 2)).build().unwrap());
        // HEP has a vertex imbalance; memory balance must reflect it
        // (paper Figure 5: the two correlate). At this test scale the
        // constant per-machine model state dilutes the correlation, so
        // assert direction and bound rather than equality.
        let vb = hep.vertex_balance();
        let mb = r.memory_balance();
        assert!(vb > 1.2, "test premise: HEP imbalanced, vb = {vb}");
        assert!(
            mb - 1.0 > 0.35 * (vb - 1.0),
            "memory balance {mb} does not track vertex balance {vb}"
        );
        assert!(mb <= vb + 0.05, "memory balance {mb} exceeds vertex balance {vb}");
    }

    // ---- Elastic membership ----

    fn churn_spec(epochs: u32) -> gp_cluster::ChurnSpec {
        gp_cluster::ChurnSpec {
            machines: 8,
            epochs,
            leave_prob: 0.05,
            rejoin_prob: 0.2,
            min_live: 4,
            seed: 0xe1a5,
        }
    }

    #[test]
    fn elastic_with_no_churn_or_faults_is_the_healthy_run() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let healthy = healthy(&eng).epoch_time();
        let run = elastic(
            &eng,
            5,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            CheckpointConfig::default(),
            ElasticOptions::default(),
        );
        assert_eq!(run.completed_epochs, 5);
        for &t in &run.epoch_seconds {
            assert_eq!(t, healthy, "stable fleet epochs are bit-identical to the healthy run");
        }
        assert_eq!(run.recovery, RecoveryReport::default());
        assert_eq!(run.leaves + run.joins + run.handoffs + run.rebalances, 0);
        assert_eq!(run.handoff_seconds, 0.0);
        for live in &run.live_workers {
            assert_eq!(live.len(), 8);
        }
    }

    /// What the fixed-fleet fault leg shares with the scenario driver:
    /// without crashes or churn, both price the same epochs, retries and
    /// checkpoints (crash recovery differs, see DESIGN.md).
    #[test]
    fn crash_free_faulty_run_equals_the_empty_churn_elastic_run() {
        let (g, _, hep) = setup(8);
        let mut c = cfg(8, 64, 64, 2);
        c.checkpoint_every = 2;
        let eng = DistGnnEngine::builder(&g, &hep).config(c).build().unwrap();
        let spec = gp_cluster::FaultSpec {
            crash_mtbf_epochs: 0.0,
            ..gp_cluster::FaultSpec::standard(8, 10, 2.0, 0xfa11)
        };
        let plan = FaultPlan::generate(&spec);
        let (fixed, error) = faulty(&eng, 10, &plan);
        assert!(error.is_none(), "{error:?}");
        let ckpt = CheckpointConfig::periodic(2);
        let run = elastic(&eng, 10, &plan, &ChurnPlan::empty(), ckpt, ElasticOptions::default());
        assert_eq!(run.completed_epochs, 10);
        let mut recovery = RecoveryReport::default();
        let mut total = 0.0;
        for (f, &secs) in fixed.iter().zip(&run.epoch_seconds) {
            assert_eq!(f.report.epoch_time().to_bits(), secs.to_bits());
            recovery.merge(&f.recovery);
            total += f.report.epoch_time() + f.recovery.total_overhead_seconds();
        }
        assert!(recovery.retries > 0, "the plan drops messages");
        assert_eq!(recovery.retries, run.recovery.retries);
        assert_eq!(recovery.checkpoints, 5);
        assert_eq!(recovery.checkpoints, run.recovery.checkpoints);
        assert!((total - run.total_seconds()).abs() <= 1e-12 * total);
    }

    #[test]
    fn elastic_run_is_deterministic() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 20, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(20));
        let ckpt = CheckpointConfig::periodic(4);
        let a = elastic(&eng, 20, &faults, &churn, ckpt, ElasticOptions::default());
        let b = elastic(&eng, 20, &faults, &churn, ckpt, ElasticOptions::default());
        assert_eq!(a, b, "elastic runs replay bit-identically");
        assert!(a.leaves > 0, "premise: the schedule actually churns");
    }

    #[test]
    fn graceful_handoff_beats_the_crash_baseline() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 24, 8.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(24));
        let ckpt = CheckpointConfig::periodic(4);
        let graceful = elastic(&eng, 24, &faults, &churn, ckpt, ElasticOptions::default());
        let baseline = elastic(&eng, 24, &faults, &churn, ckpt, ElasticOptions::no_handoff());
        assert!(graceful.handoffs > 0, "premise: leaves were handed off");
        assert_eq!(baseline.handoffs, 0);
        assert!(
            graceful.total_seconds() <= baseline.total_seconds(),
            "elastic {} should not exceed the crash-without-handoff baseline {}",
            graceful.total_seconds(),
            baseline.total_seconds()
        );
        // The baseline pays for leaves through recovery instead.
        assert!(baseline.recovery.crashes > graceful.recovery.crashes);
    }

    // ---- Partitioned runs (network fault model) ----

    fn net_spec(epochs: u32) -> gp_cluster::NetFaultSpec {
        gp_cluster::NetFaultSpec {
            partition_prob: 0.15,
            ..gp_cluster::NetFaultSpec::standard(8, epochs, 0x7a57_11e7)
        }
    }

    #[test]
    fn partitioned_with_empty_net_plan_is_the_elastic_run() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 20, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(20));
        let ckpt = CheckpointConfig::periodic(4);
        let plain = elastic(&eng, 20, &faults, &churn, ckpt, ElasticOptions::default());
        let part = partitioned(
            &eng,
            20,
            &faults,
            &churn,
            &NetFaultPlan::empty(),
            ckpt,
            NetRunOptions::default(),
        );
        assert_eq!(part.elastic, plain, "empty net plan reproduces the elastic run bit-for-bit");
        assert_eq!(part.net, NetRunReport::default());
        assert_eq!(part.total_seconds(), plain.total_seconds());
    }

    #[test]
    fn partitioned_run_is_deterministic_and_exactly_once() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 20, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(20));
        let net = NetFaultPlan::generate(&net_spec(20));
        let ckpt = CheckpointConfig::periodic(4);
        let run = |_| partitioned(&eng, 20, &faults, &churn, &net, ckpt, NetRunOptions::default());
        let a = run(());
        let b = run(());
        assert_eq!(a, b, "partitioned runs replay bit-identically");
        assert!(a.net.windows > 0, "premise: the schedule actually partitions");
        assert!(a.net.noise.delivered > 0, "premise: noisy flows were charged");
        assert!(a.net.exactly_once(), "dedup must make delivery exactly-once-effective");
    }

    #[test]
    fn degraded_mode_never_worse_than_abort_baseline() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 24, 8.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(24));
        let net = NetFaultPlan::generate(&net_spec(24));
        let ckpt = CheckpointConfig::periodic(4);
        let degraded = partitioned(&eng, 24, &faults, &churn, &net, ckpt, NetRunOptions::default());
        let abort = partitioned(&eng, 24, &faults, &churn, &net, ckpt, NetRunOptions::abort_only());
        assert!(degraded.net.partitioned_epochs > 0, "premise: a window armed");
        assert_eq!(abort.net.degraded_windows, 0, "baseline must always abort");
        assert!(
            degraded.total_seconds() <= abort.total_seconds() + 1e-9,
            "degraded run {} must not exceed the abort-and-recover baseline {}",
            degraded.total_seconds(),
            abort.total_seconds()
        );
        if degraded.net.degraded_windows > 0 {
            assert!(
                degraded.net.max_staleness <= net.staleness_bound,
                "staleness {} beyond the bound {}",
                degraded.net.max_staleness,
                net.staleness_bound
            );
            assert!(degraded.net.stale_served > 0, "degraded epochs serve stale replicas");
        }
    }

    #[test]
    fn noise_only_plan_keeps_training_progress_and_charges_transport() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let net = NetFaultPlan::generate(&gp_cluster::NetFaultSpec {
            partition_prob: 0.0,
            ..gp_cluster::NetFaultSpec::standard(8, 10, 0xb0)
        });
        assert!(net.windows.is_empty());
        let ckpt = CheckpointConfig::periodic(4);
        let plain = elastic(
            &eng,
            10,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            ckpt,
            ElasticOptions::default(),
        );
        let noisy = partitioned(
            &eng,
            10,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            &net,
            ckpt,
            NetRunOptions::default(),
        );
        // Noise rides on top of the same schedule: epochs are untouched,
        // the transport overhead is strictly positive and separable.
        assert_eq!(noisy.elastic, plain);
        assert!(noisy.net.noise.retries > 0, "1% loss over many messages must retry");
        assert!(noisy.net.noise.extra_secs > 0.0);
        assert!(noisy.net.exactly_once());
        assert_eq!(noisy.total_seconds(), plain.total_seconds() + noisy.net.overhead_seconds());
    }

    #[test]
    fn elastic_restore_detects_corrupt_snapshots() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        // One ungraceful leave at epoch 6; snapshots at 1, 3, 5.
        let churn = ChurnPlan {
            events: vec![gp_cluster::ChurnEvent::Leave { worker: 0, epoch: 6 }],
            machines: 8,
            epochs: 8,
        };
        let ckpt = CheckpointConfig::periodic(2);
        let clean_plan = FaultPlan::empty();
        let clean = elastic(&eng, 8, &clean_plan, &churn, ckpt, ElasticOptions::no_handoff());
        assert_eq!(clean.recovery.corrupted_checkpoints, 0);
        // Corrupt worker 0's newest snapshot (epoch 5): restore detects
        // it, walks back to epoch 3 and loses two more epochs.
        let corrupt_plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::CheckpointCorruption { machine: 0, epoch: 5 }],
            machines: 8,
            epochs: 8,
            recovery_budget_secs: f64::INFINITY,
        };
        let corrupt = elastic(&eng, 8, &corrupt_plan, &churn, ckpt, ElasticOptions::no_handoff());
        assert_eq!(corrupt.recovery.corrupted_checkpoints, 1);
        assert!(corrupt.recovery.lost_progress_epochs > clean.recovery.lost_progress_epochs);
        assert!(corrupt.recovery.recovery_bytes > clean.recovery.recovery_bytes);
        assert!(corrupt.recovery.restore_seconds > clean.recovery.restore_seconds);
    }

    #[test]
    fn elastic_rejoin_rebalances_under_migrate_then_commit() {
        let (g, _, hep) = setup(8);
        let eng = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let churn = ChurnPlan {
            events: vec![
                gp_cluster::ChurnEvent::Leave { worker: 3, epoch: 1 },
                gp_cluster::ChurnEvent::Join { worker: 3, epoch: 3 },
            ],
            machines: 8,
            epochs: 10,
        };
        let run = elastic(
            &eng,
            10,
            &FaultPlan::empty(),
            &churn,
            CheckpointConfig::default(),
            ElasticOptions::default(),
        );
        assert_eq!(run.leaves, 1);
        assert_eq!(run.joins, 1);
        assert_eq!(run.live_workers[1], vec![0, 1, 2, 4, 5, 6, 7]);
        // The rejoin brings the slot straight back online...
        assert!(run.live_workers[3].contains(&3));
        assert_eq!(run.live_workers.last().unwrap().len(), 8);
        // ...and a global rebalance was either committed (bytes moved)
        // or priced and rejected every epoch since — never silent.
        assert!(run.rebalances + run.rejected_rebalances >= 1);
        if run.rebalances > 0 {
            assert!(run.handoff_bytes > 0);
        }
        // Once the fleet is whole and rebalanced, epochs settle back to
        // a steady state.
        let last = run.epoch_seconds.last().unwrap();
        assert_eq!(run.epoch_seconds[8], *last);
    }

    #[test]
    fn elastic_traced_report_is_identical_and_spans_cover_events() {
        let (g, _, hep) = setup(8);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(8, 16, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(16));
        let ckpt = CheckpointConfig::periodic(4);
        let bare = DistGnnEngine::builder(&g, &hep).config(cfg(8, 64, 64, 2)).build().unwrap();
        let untraced = elastic(&bare, 16, &faults, &churn, ckpt, ElasticOptions::default());
        let sink = TraceSink::enabled();
        let traced_eng = DistGnnEngine::builder(&g, &hep)
            .config(cfg(8, 64, 64, 2))
            .trace(sink.clone())
            .build()
            .unwrap();
        let traced = elastic(&traced_eng, 16, &faults, &churn, ckpt, ElasticOptions::default());
        assert_eq!(traced, untraced, "tracing never feeds back into the run");
        let spans = sink.spans();
        assert!(spans.iter().any(|s| s.phase == TracePhase::Migration));
        assert!(spans.iter().any(|s| s.phase == TracePhase::Checkpoint));
        // Per-epoch, per-worker span sums reproduce the recorded phase
        // totals exactly for workers live through the whole run.
        let snap = gp_cluster::MetricsSnapshot::from_sink(&sink);
        let always_live: Vec<u32> =
            (0..8).filter(|w| traced.live_workers.iter().all(|l| l.contains(w))).collect();
        assert!(!always_live.is_empty(), "premise: someone survives the whole soak");
        for &w in &always_live {
            for (i, phase) in
                [TracePhase::Forward, TracePhase::Backward, TracePhase::Sync, TracePhase::Optimizer]
                    .iter()
                    .enumerate()
            {
                let per_epoch: Vec<f64> = traced.phase_seconds.iter().map(|e| e[i].1).collect();
                assert_eq!(
                    snap.phase_seconds(w, *phase),
                    gp_cluster::fold_exact(&per_epoch),
                    "worker {w} phase {} span sum drifts",
                    phase.name()
                );
            }
        }
    }

    fn stream_spec(batches: u32, seed: u64) -> gp_graph::StreamSpec {
        gp_graph::StreamSpec {
            batches,
            inserts_per_batch: 48,
            deletes_per_batch: 24,
            arrivals_per_batch: 4,
            edges_per_arrival: 3,
            seed,
        }
    }

    #[test]
    fn stream_run_reports_quality_per_batch() {
        let (g, random, _) = setup(4);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(4, 32, 32, 2)).build().unwrap();
        let spec = RunSpec::healthy().stream(stream_spec(5, 11), RepartitionPolicy::Never);
        let r = engine.run(&spec).unwrap().into_stream();
        assert_eq!(r.partitioner, "HDRF");
        assert_eq!(r.policy, "never");
        assert_eq!(r.batches.len(), 5);
        assert_eq!(r.repartitions(), 0);
        assert_eq!(r.total_partition_seconds(), 0.0);
        for (i, b) in r.batches.iter().enumerate() {
            assert_eq!(b.batch, i as u32);
            assert!(b.replication_factor >= 1.0, "RF {} < 1", b.replication_factor);
            assert!(b.balance >= 1.0);
            assert!(b.epoch_seconds > 0.0);
            assert!(!b.repartitioned);
            assert_eq!(b.partition_seconds, 0.0);
            assert!(b.mutations > 0);
        }
        // The graph ages: vertex arrivals grow the snapshot.
        assert!(r.batches.last().unwrap().num_vertices > g.num_vertices());
        // Deterministic: a second run is identical.
        let r2 = engine.run(&spec).unwrap().into_stream();
        assert_eq!(r, r2);
    }

    #[test]
    fn stream_threshold_no_worse_than_never_on_epoch_time() {
        let (g, random, _) = setup(4);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(4, 32, 32, 2)).build().unwrap();
        let spec = stream_spec(6, 3);
        let never = engine
            .run(&RunSpec::healthy().stream(spec, RepartitionPolicy::Never))
            .unwrap()
            .into_stream();
        let thresh = engine
            .run(&RunSpec::healthy().stream(spec, RepartitionPolicy::Threshold { imbalance: 1.0 }))
            .unwrap()
            .into_stream();
        // The adoption gate probes epoch time and only adopts candidates
        // that are no worse — so the threshold policy can never lose to
        // `never` on training time at equal seeds.
        assert!(
            thresh.total_epoch_seconds() <= never.total_epoch_seconds() + 1e-12,
            "threshold {} > never {}",
            thresh.total_epoch_seconds(),
            never.total_epoch_seconds()
        );
        // Until the first adoption the two runs are the same partition.
        let first = thresh.batches.iter().position(|b| b.repartitioned);
        for i in 0..first.unwrap_or(thresh.batches.len()) {
            assert_eq!(thresh.batches[i].epoch_seconds, never.batches[i].epoch_seconds);
        }
        // An adopted repartition is charged simulated partitioner cost
        // and is never worse on replication factor than the incremental
        // state the `never` run kept.
        if let Some(i) = first {
            assert!(thresh.batches[i].partition_seconds > 0.0);
            assert!(
                thresh.batches[i].replication_factor <= never.batches[i].replication_factor + 1e-12
            );
        }
    }

    #[test]
    fn stream_override_and_unknown_partitioner() {
        let (g, random, _) = setup(4);
        let engine = DistGnnEngine::builder(&g, &random).config(cfg(4, 32, 32, 2)).build().unwrap();
        let r = engine
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(2, 5), RepartitionPolicy::Never)
                    .stream_partitioner("DBH"),
            )
            .unwrap()
            .into_stream();
        assert_eq!(r.partitioner, "DBH");
        // LDG is a vertex partitioner — not valid for the vertex-cut engine.
        let err = engine
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(2, 5), RepartitionPolicy::Never)
                    .stream_partitioner("LDG"),
            )
            .unwrap_err();
        assert!(matches!(err, DistGnnError::InvalidConfig(_)));
    }

    #[test]
    fn stream_trace_counters_and_migration_spans() {
        let (g, random, _) = setup(4);
        let sink = TraceSink::enabled();
        let engine = DistGnnEngine::builder(&g, &random)
            .config(cfg(4, 32, 32, 2))
            .trace(sink.clone())
            .build()
            .unwrap();
        let r = engine
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(4, 7), RepartitionPolicy::Periodic { every: 2 }),
            )
            .unwrap()
            .into_stream();
        let counters = sink.counters();
        for name in [
            counter_names::STREAM_LIVE_EDGES,
            counter_names::STREAM_REPLICATION_FACTOR,
            counter_names::STREAM_BALANCE,
            counter_names::STREAM_REPARTITIONS,
            counter_names::STREAM_PARTITION_SECONDS,
        ] {
            assert_eq!(
                counters.iter().filter(|c| c.name == name).count(),
                r.batches.len(),
                "one {name} sample per batch"
            );
        }
        // Adopted repartitions appear as Migration spans.
        let n_migrations = sink.spans().iter().filter(|s| s.phase == TracePhase::Migration).count();
        assert_eq!(n_migrations as u32, r.repartitions());
        // Tracing is observational: an untraced engine reports the same.
        let bare = DistGnnEngine::builder(&g, &random).config(cfg(4, 32, 32, 2)).build().unwrap();
        let r2 = bare
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(4, 7), RepartitionPolicy::Periodic { every: 2 }),
            )
            .unwrap()
            .into_stream();
        assert_eq!(r, r2);
    }
}
