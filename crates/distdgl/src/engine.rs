//! The DistDGL cost-model engine.
//!
//! Every step is *actually sampled* (real RNG-driven block construction
//! over the real partition); only the conversion of counted work into
//! seconds goes through the calibrated cost model. Phase times follow
//! the paper's measurement protocol: per step, each phase is gated by
//! the slowest worker (the straggler).

use std::borrow::Cow;
use std::ops::Range;

use gp_cluster::driver::{
    self, CrashRepair, DegradedWindow, Env, Leave, LeaveExit, Rebalance, Restore, StreamQuality,
};
use gp_cluster::trace::counter_names;
use gp_cluster::{
    charge_loss_retries, compute_time, full_mask, run_until_error, transfer_time, ClusterCounters,
    ClusterSpec, EpochOutcome, FaultCtx, FaultPlan, MitigationPolicy, MitigationReport,
    NetworkSpec, RecoveryReport, RestoreOutcome, RunReport, RunSpec, Scenario, ScenarioEngine,
    ScenarioError, StragglerDetector, TracePhase, TraceSink,
};
use gp_exec::{par_map, Threads};
use gp_graph::rng::Rng;
use gp_graph::{Graph, MutationBatch, VertexSplit};
use gp_partition::{
    registry, IncrementalVertexPartitioner, PartitionError, VertexPartition, VertexPartitioner,
};
use gp_tensor::flops::{model_param_count, model_train_flops};
use gp_tensor::ModelConfig;

use crate::error::DistDglError;
use crate::sampler::{
    block_shapes, sample_minibatch, shuffled_train_order, step_seeds, MiniBatch, SampleScratch,
};
use crate::store::PartitionedStore;

/// CPU cost of expanding one sampled edge locally (hash probes + pointer
/// chasing; memory-bound).
const SAMPLE_SECS_PER_EDGE: f64 = 150e-9;
/// Fixed CPU cost per frontier expansion.
const SAMPLE_SECS_PER_EXPANSION: f64 = 200e-9;
/// Extra CPU cost per *remote* frontier expansion: request serialisation,
/// RPC dispatch and response handling dominate the actual wire time for
/// tiny adjacency payloads (DistDGL issues these via its KVStore RPC
/// layer).
const SAMPLE_SECS_PER_REMOTE_EXPANSION: f64 = 100e-9;
/// Local feature-store bandwidth (shared-memory copy).
const LOCAL_FEATURE_BW: f64 = 10e9;

/// Configuration of a mini-batch training run.
#[derive(Debug, Clone)]
pub struct DistDglConfig {
    /// Model hyper-parameters.
    pub model: ModelConfig,
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Global batch size (split evenly across workers; paper default
    /// 1024).
    pub global_batch_size: u32,
    /// Per-layer fan-outs; must have `model.num_layers` entries (see
    /// [`crate::paper_fanouts`]).
    pub fanouts: Vec<u32>,
    /// Number of hot remote vertices whose features each worker caches
    /// locally (0 = disabled). DistDGL-style static cache of the
    /// highest-degree vertices — hubs appear in nearly every mini-batch,
    /// so caching them converts the bulk of remote fetches into local
    /// reads. **Extension beyond the paper's configuration.**
    pub feature_cache_entries: u32,
    /// Sampling seed.
    pub seed: u64,
}

impl DistDglConfig {
    /// Paper-default configuration for a given model and cluster.
    pub fn paper(model: ModelConfig, cluster: ClusterSpec) -> Self {
        DistDglConfig {
            model,
            cluster,
            global_batch_size: 1024,
            fanouts: crate::scaled_fanouts(model.num_layers),
            feature_cache_entries: 0,
            seed: 0x9d15,
        }
    }
}

/// Simulated time of one step / epoch, split into the phases the paper
/// measures (Figure 19/21/22/25).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepPhases {
    /// Mini-batch sampling (local walk + remote RPCs).
    pub sampling: f64,
    /// Feature loading (local copy + remote fetch).
    pub feature_load: f64,
    /// Forward pass.
    pub forward: f64,
    /// Backward pass including the gradient all-reduce.
    pub backward: f64,
    /// Model update.
    pub update: f64,
}

impl StepPhases {
    /// Total time.
    pub fn total(&self) -> f64 {
        self.sampling + self.feature_load + self.forward + self.backward + self.update
    }

    fn add(&mut self, other: &StepPhases) {
        self.sampling += other.sampling;
        self.feature_load += other.feature_load;
        self.forward += other.forward;
        self.backward += other.backward;
        self.update += other.update;
    }
}

/// One worker's share of a step: its (pre-gating) phase times plus the
/// attribution the trace layer rides on — bytes moved and FLOPs burned
/// by *this* worker, regardless of which worker gates each phase.
struct WorkerCost {
    phases: StepPhases,
    cache_hits: u64,
    /// Remote sampling-RPC bytes the worker waited on.
    sample_bytes: u64,
    /// Remote feature-fetch bytes the worker received.
    feature_bytes: u64,
    fwd_flops: u64,
    bwd_flops: u64,
}

/// Result of one simulated training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Straggler-gated phase times.
    pub phases: StepPhases,
    /// Per-worker sampling+fetch+forward time (Figure 17's balance).
    pub worker_times: Vec<f64>,
    /// Per-worker input vertices of the step's mini-batches.
    pub input_vertices: Vec<u64>,
    /// Per-worker remote input vertices.
    pub remote_vertices: Vec<u64>,
    /// Remote inputs served from the local feature cache this step.
    pub cache_hits: u64,
}

impl StepReport {
    /// Input-vertex balance `max/mean` across workers (Figure 14).
    pub fn input_balance(&self) -> f64 {
        gp_cluster::max_mean_ratio(&self.input_vertices)
    }

    /// Training-time balance `max/mean` across workers (Figure 17).
    pub fn time_balance(&self) -> f64 {
        let sum: f64 = self.worker_times.iter().sum();
        if sum <= 0.0 {
            return 0.0;
        }
        let mean = sum / self.worker_times.len() as f64;
        self.worker_times.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Aggregate result of one simulated epoch.
#[derive(Debug, Clone)]
pub struct EpochSummary {
    /// Number of steps.
    pub steps: usize,
    /// Phase times summed over steps (straggler-gated per step).
    pub phases: StepPhases,
    /// Cluster-wide work counters.
    pub counters: ClusterCounters,
    /// Total input vertices over the epoch.
    pub total_input_vertices: u64,
    /// Total remote input vertices over the epoch.
    pub total_remote_vertices: u64,
    /// Remote inputs served from the local feature cache (no network).
    pub cache_hits: u64,
    /// Mean per-step input-vertex balance.
    pub mean_input_balance: f64,
    /// Mean per-step training-time balance.
    pub mean_time_balance: f64,
}

impl EpochSummary {
    /// Simulated seconds per epoch.
    pub fn epoch_time(&self) -> f64 {
        self.phases.total()
    }
}

impl EpochOutcome for EpochSummary {
    fn epoch_time(&self) -> f64 {
        self.phases.total()
    }

    fn total_bytes(&self) -> u64 {
        self.counters.total_network_bytes()
    }

    fn phase_breakdown(&self) -> Vec<(&'static str, f64)> {
        vec![
            (TracePhase::Sampling.name(), self.phases.sampling),
            (TracePhase::FeatureLoad.name(), self.phases.feature_load),
            (TracePhase::Forward.name(), self.phases.forward),
            (TracePhase::Backward.name(), self.phases.backward),
            (TracePhase::Update.name(), self.phases.update),
        ]
    }
}

/// Result of one epoch simulated under a [`FaultPlan`], with the
/// mitigation layer active when the policy arms it.
///
/// `summary.phases` covers the steps actually executed (including the
/// re-execution of any step lost to a crash), with the mitigated phase
/// times of every step the layer sped up; the lost in-flight attempt,
/// state restore and retry waits are accounted in `recovery`, so total
/// wall time under faults is
/// `summary.epoch_time() + recovery.total_overhead_seconds()` minus the
/// retry share already inside the phases.
#[derive(Debug, Clone)]
pub struct FaultyEpochSummary {
    /// The epoch summary over executed steps.
    pub summary: EpochSummary,
    /// What the faults cost beyond the healthy baseline.
    pub recovery: RecoveryReport,
    /// Workers out of service by the end of this epoch (DistDGL crashes
    /// are permanent: survivors absorb the lost training set — graceful
    /// degradation, in contrast to DistGNN's checkpoint/restart).
    pub failed_workers: Vec<u32>,
    /// What the mitigation layer did this epoch and what it paid; all
    /// zero unless the policy acted.
    pub mitigation: MitigationReport,
}

/// Result of [`DistDglEngine::run`]: one [`RunReport`] variant per
/// resolved [`Scenario`].
pub type DistDglRunReport = RunReport<EpochSummary, FaultyEpochSummary, DistDglError>;

/// Persistent mitigation state for a DistDGL training run: the policy,
/// the online detector it drives and what the layer did in the epoch
/// under way. The [`DistDglEngine::run`] `Faulty` scenario creates one
/// per run when the policy arms work stealing or speculation and
/// threads it through every epoch — the detector's baselines build up
/// during healthy epochs and carry across epoch boundaries, exactly
/// like a real monitor.
#[derive(Debug, Clone)]
struct DistDglMitigation {
    policy: MitigationPolicy,
    detector: StragglerDetector,
    report: MitigationReport,
}

/// One step's mitigation candidate: the workers whose phases it shrinks
/// (with the factor), the extra traffic it books on adoption as
/// `(machine, sent, received)`, and what it did.
#[derive(Default)]
struct StepCandidate {
    scaled: Vec<(usize, f64)>,
    traffic: Vec<(u32, u64, u64)>,
    report: MitigationReport,
}

impl DistDglMitigation {
    /// Build one step's work-stealing and speculation candidate from the
    /// detector state and the workers' pre-mitigation step times
    /// `pre_times` (`active`: the worker has seeds this step); input
    /// features of `fbytes` each that are local to a worker turn into
    /// remote fetches on `network` when its work runs elsewhere.
    fn candidate(
        &self,
        batches: &[MiniBatch],
        pre_times: &[f64],
        active: &[bool],
        network: &NetworkSpec,
        fbytes: u64,
    ) -> StepCandidate {
        let local_input_bytes = |w: usize| {
            (batches[w].stats.input_vertices - batches[w].stats.remote_input_vertices) * fbytes
        };
        let mut candidate = StepCandidate::default();

        let mut steal_target = None;
        if self.policy.work_stealing {
            let target = (0..batches.len())
                .filter(|&w| active[w] && self.detector.is_straggler(w as u32))
                .max_by(|&a, &b| pre_times[a].total_cmp(&pre_times[b]));
            if let Some(s) = target {
                let t_s = pre_times[s];
                let elev = self.detector.elevation(s as u32).max(1.0);
                let mut helpers: Vec<(usize, f64)> = (0..batches.len())
                    .filter(|&w| {
                        w != s
                            && active[w]
                            && !self.detector.is_straggler(w as u32)
                            && pre_times[w] < t_s
                    })
                    .map(|w| (w, pre_times[w]))
                    .collect();
                helpers.sort_by(|a, b| a.1.total_cmp(&b.1));
                let helper_times: Vec<f64> = helpers.iter().map(|&(_, t)| t).collect();
                if t_s > 0.0 {
                    if let Some((t_eq, m)) = steal_equalized_time(t_s, &helper_times, elev) {
                        let stolen_frac = 1.0 - t_eq / t_s;
                        let stolen_bytes = (stolen_frac * local_input_bytes(s) as f64) as u64;
                        // Each helper fetches its share of the stolen
                        // inputs before it can work on them.
                        let fetch = transfer_time(network, stolen_bytes / m as u64, 1);
                        let finish = t_eq + fetch;
                        if stolen_frac > 0.0 && finish < t_s {
                            candidate.scaled.push((s, finish / t_s));
                            candidate.report.stolen_steps += 1;
                            candidate.report.stolen_bytes += stolen_bytes;
                            candidate.traffic.push((s as u32, stolen_bytes, 0));
                            for &(h, _) in helpers.iter().take(m) {
                                candidate.traffic.push((h as u32, 0, stolen_bytes / m as u64));
                            }
                            steal_target = Some(s);
                        }
                    }
                }
            }
        }

        if self.policy.speculation {
            if let Some(deadline) = self.detector.deadline() {
                let offender = (0..batches.len())
                    .filter(|&w| active[w] && steal_target != Some(w) && pre_times[w] > deadline)
                    .max_by(|&a, &b| pre_times[a].total_cmp(&pre_times[b]));
                let backup = offender.and_then(|w| {
                    (0..batches.len())
                        .filter(|&b| b != w && active[b])
                        .min_by(|&a, &b| pre_times[a].total_cmp(&pre_times[b]))
                });
                if let (Some(w), Some(backup)) = (offender, backup) {
                    let t_w = pre_times[w];
                    // The backup re-runs the step at (estimated) nominal
                    // speed, launching when the deadline passes; it must
                    // first fetch the inputs local to the offender.
                    let est = t_w / self.detector.elevation(w as u32).max(1.0);
                    let spec_bytes = local_input_bytes(w);
                    let backup_exec = est + transfer_time(network, spec_bytes, 1);
                    let t_backup = deadline + backup_exec;
                    if t_backup < t_w {
                        candidate.scaled.push((w, t_backup / t_w));
                        candidate.report.speculated_steps += 1;
                        candidate.report.speculation_wins += 1;
                        candidate.report.speculation_bytes += spec_bytes;
                        candidate.report.speculation_wasted_secs += backup_exec;
                        candidate.traffic.push((w as u32, spec_bytes, 0));
                        candidate.traffic.push((backup as u32, 0, spec_bytes));
                    }
                }
            }
        }
        candidate
    }
}

/// Running accumulators of an epoch simulation (shared between the
/// healthy and the fault-injected paths): the work counters plus the
/// per-step sums; `steps` is also the index of the next step.
struct EpochAcc {
    counters: ClusterCounters,
    steps: usize,
    phases: StepPhases,
    total_inputs: u64,
    total_remote: u64,
    cache_hits: u64,
    balance_acc: f64,
    time_balance_acc: f64,
}

impl EpochAcc {
    fn new(machines: u32) -> Self {
        EpochAcc {
            counters: ClusterCounters::new(machines),
            steps: 0,
            phases: StepPhases::default(),
            total_inputs: 0,
            total_remote: 0,
            cache_hits: 0,
            balance_acc: 0.0,
            time_balance_acc: 0.0,
        }
    }

    fn add(&mut self, report: &StepReport) {
        self.steps += 1;
        self.phases.add(&report.phases);
        self.total_inputs += report.input_vertices.iter().sum::<u64>();
        self.total_remote += report.remote_vertices.iter().sum::<u64>();
        self.cache_hits += report.cache_hits;
        self.balance_acc += report.input_balance();
        self.time_balance_acc += report.time_balance();
    }

    fn into_summary(self) -> EpochSummary {
        EpochSummary {
            steps: self.steps,
            phases: self.phases,
            counters: self.counters,
            total_input_vertices: self.total_inputs,
            total_remote_vertices: self.total_remote,
            cache_hits: self.cache_hits,
            mean_input_balance: if self.steps == 0 {
                0.0
            } else {
                self.balance_acc / self.steps as f64
            },
            mean_time_balance: if self.steps == 0 {
                0.0
            } else {
                self.time_balance_acc / self.steps as f64
            },
        }
    }
}

/// What one epoch is priced on besides the engine's configuration: an
/// ownership layout (the engine's own store, or a degraded or elastic
/// one) and the sink its spans go to (the engine's, or a disabled one
/// for a probe).
#[derive(Clone, Copy)]
struct State<'s> {
    store: &'s PartitionedStore,
    sink: &'s TraceSink,
}

/// Validated builder for [`DistDglEngine`] — the only construction
/// path. Positional arguments carry the data the engine borrows (graph,
/// partition, train/val/test split); the run's [`DistDglConfig`] is
/// mandatory and set through [`DistDglEngineBuilder::config`] (start
/// from [`DistDglConfig::paper`] for the paper defaults).
#[derive(Debug, Clone)]
pub struct DistDglEngineBuilder<'a, 'b> {
    graph: &'a Graph,
    partition: &'b VertexPartition,
    split: &'b VertexSplit,
    config: Option<DistDglConfig>,
    trace: TraceSink,
    threads: Threads,
}

impl<'a, 'b> DistDglEngineBuilder<'a, 'b> {
    /// The run's configuration (mandatory).
    pub fn config(mut self, config: DistDglConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Attach a trace sink; every simulated epoch records per-worker,
    /// per-step phase spans into it. Defaults to
    /// [`TraceSink::disabled`] (zero cost).
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Intra-epoch `gp-exec` width (default: serial). Per-worker
    /// mini-batch sampling within a step — and the flattened
    /// (step × worker) sampling of a whole epoch — fan out over index-
    /// addressed slots on the deterministic pool; each slot derives its
    /// RNG stream by hashing `(seed, epoch, step, worker)`, so results
    /// are byte-identical at any width. Composes with sweep-level
    /// parallelism: the engine width applies inside whichever sweep
    /// cell runs this engine.
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Validate and build the engine.
    ///
    /// # Errors
    ///
    /// [`DistDglError::InvalidConfig`] when no config was set, the
    /// fan-outs do not match the layer count, the model has no layers
    /// or the batch size is 0; [`DistDglError::ClusterMismatch`] when
    /// the partition and cluster sizes disagree.
    pub fn build(self) -> Result<DistDglEngine<'a>, DistDglError> {
        let config = self.config.ok_or_else(|| {
            DistDglError::InvalidConfig("config not set (builder .config())".into())
        })?;
        if self.partition.k() != config.cluster.machines {
            return Err(DistDglError::ClusterMismatch {
                partitions: self.partition.k(),
                machines: config.cluster.machines,
            });
        }
        if config.fanouts.len() != config.model.num_layers {
            return Err(DistDglError::InvalidConfig(format!(
                "{} fan-outs for {} layers",
                config.fanouts.len(),
                config.model.num_layers
            )));
        }
        if config.fanouts.is_empty() {
            return Err(DistDglError::InvalidConfig("need at least one layer".into()));
        }
        if config.global_batch_size == 0 {
            return Err(DistDglError::InvalidConfig("global_batch_size must be > 0".into()));
        }
        let store = PartitionedStore::new(self.graph, self.partition, self.split)?;
        let cached = hot_vertex_mask(self.graph, config.feature_cache_entries);
        Ok(DistDglEngine {
            graph: self.graph,
            store,
            partition: self.partition.clone(),
            split: self.split.clone(),
            config,
            cached,
            trace: self.trace,
            threads: self.threads,
        })
    }
}

/// Mini-batch vertex-partitioned training engine.
pub struct DistDglEngine<'a> {
    graph: &'a Graph,
    store: PartitionedStore,
    /// Owned copy of the builder's partition — the `t = 0` state the
    /// stream leg continues from (the builder's reference has a shorter
    /// lifetime than the engine).
    partition: VertexPartition,
    /// Owned copy of the builder's split, reused verbatim for every
    /// stream snapshot (new vertices join no role).
    split: VertexSplit,
    config: DistDglConfig,
    /// Mask of vertices whose features every worker caches (the
    /// `feature_cache_entries` highest-degree vertices).
    cached: Vec<bool>,
    /// Span recorder (disabled by default; see
    /// [`DistDglEngineBuilder::trace`]).
    trace: TraceSink,
    /// Intra-epoch `gp-exec` width (see
    /// [`DistDglEngineBuilder::threads`]).
    threads: Threads,
}

impl<'a> DistDglEngine<'a> {
    /// Start building an engine over `graph`, vertex-partitioned by
    /// `partition`, with train/val/test roles from `split`.
    pub fn builder<'b>(
        graph: &'a Graph,
        partition: &'b VertexPartition,
        split: &'b VertexSplit,
    ) -> DistDglEngineBuilder<'a, 'b> {
        DistDglEngineBuilder {
            graph,
            partition,
            split,
            config: None,
            trace: TraceSink::disabled(),
            threads: Threads::serial(),
        }
    }

    /// The ownership store.
    pub fn store(&self) -> &PartitionedStore {
        &self.store
    }

    /// The attached trace sink (disabled unless one was supplied via
    /// [`DistDglEngineBuilder::trace`]).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The configuration.
    pub fn config(&self) -> &DistDglConfig {
        &self.config
    }

    /// Steps per epoch: the epoch ends when the worker with the most
    /// local training vertices has cycled through them once (DistDGL
    /// semantics — each worker iterates its *own* training set; workers
    /// with fewer local vertices wrap around). For a train-balanced
    /// partition this equals `ceil(|train| / global_batch_size)`.
    pub fn steps_per_epoch(&self) -> usize {
        self.steps_on(&self.store)
    }

    /// [`DistDglEngine::steps_per_epoch`] on the layout `store`.
    fn steps_on(&self, store: &PartitionedStore) -> usize {
        let bpw = self.batch_per_worker();
        let k = self.config.cluster.machines;
        (0..k).map(|w| store.local_train_vertices(w).len().div_ceil(bpw)).max().unwrap_or(1).max(1)
    }

    /// Mini-batch size per worker.
    pub fn batch_per_worker(&self) -> usize {
        (self.config.global_batch_size as usize / self.config.cluster.machines as usize).max(1)
    }

    /// Sample steps `steps` of epoch `epoch` for every worker:
    /// `result[i][w]` is worker `w`'s mini-batch of step
    /// `steps.start + i`.
    ///
    /// One `gp-exec` job per worker covers the whole range: it shuffles
    /// the worker's training set once, owns one [`SampleScratch`], and
    /// samples its steps in order. Each mini-batch is a pure function
    /// of `(seed, epoch, step, worker)` (the RNG stream hashes the full
    /// tuple), so the result is identical at any engine width and for
    /// any split of an epoch into ranges.
    pub fn sample_steps(&self, epoch: u32, steps: Range<usize>) -> Vec<Vec<MiniBatch>> {
        self.sample_steps_on(&self.store, epoch, steps)
    }

    /// [`DistDglEngine::sample_steps`] on the layout `store`.
    fn sample_steps_on(
        &self,
        store: &PartitionedStore,
        epoch: u32,
        steps: Range<usize>,
    ) -> Vec<Vec<MiniBatch>> {
        let k = self.config.cluster.machines;
        let jobs: Vec<_> = (0..k)
            .map(|w| {
                let steps = steps.clone();
                move || self.sample_worker(store, epoch, steps, w)
            })
            .collect();
        let mut per_worker: Vec<_> =
            par_map(self.threads, jobs).into_iter().map(Vec::into_iter).collect();
        steps
            .map(|_| {
                per_worker
                    .iter_mut()
                    .map(|batches| batches.next().expect("one batch per (step, worker)"))
                    .collect()
            })
            .collect()
    }

    /// Sample all workers' mini-batches for one step.
    pub fn sample_step(&self, epoch: u32, step: usize) -> Vec<MiniBatch> {
        self.sample_steps(epoch, step..step + 1).pop().expect("one step sampled")
    }

    /// Sample every step of an epoch (for reuse across model
    /// configurations that share the same layer count: sampling depends
    /// only on the fan-outs and seed, not on dimensions).
    pub fn sample_epoch(&self, epoch: u32) -> Vec<Vec<MiniBatch>> {
        self.sample_steps(epoch, 0..self.steps_per_epoch())
    }

    /// Worker `w`'s mini-batches for `steps` of `epoch` on the layout
    /// `store`, in step order.
    fn sample_worker(
        &self,
        store: &PartitionedStore,
        epoch: u32,
        steps: Range<usize>,
        w: u32,
    ) -> Vec<MiniBatch> {
        let _prof = gp_prof::scope("distdgl.sample");
        let bpw = self.batch_per_worker();
        // Derive independent streams by hashing (seed, epoch, step,
        // worker) through a mixer; shifted XOR would collide as soon as
        // a field outgrows its bit window (e.g. step >= 256).
        let epoch_seed = mix_seed(self.config.seed, u64::from(epoch), 0, 0);
        let order = shuffled_train_order(store, w, epoch_seed);
        let mut scratch = SampleScratch::new();
        let mut seeds = Vec::new();
        steps
            .map(|step| {
                step_seeds(&order, step, bpw, &mut seeds);
                let mut rng = Rng::seed_from_u64(mix_seed(
                    self.config.seed,
                    u64::from(epoch),
                    step as u64 + 1,
                    u64::from(w) + 1,
                ));
                sample_minibatch(
                    self.graph,
                    store,
                    w,
                    &seeds,
                    &self.config.fanouts,
                    &mut rng,
                    &mut scratch,
                )
            })
            .collect()
    }

    /// Convert one worker's sampled mini-batch into per-phase times on
    /// the layout `store` and record its work into `counters`. With
    /// `faults: None` this is the healthy baseline and performs exactly
    /// the pre-fault arithmetic (every adjustment is behind an
    /// `if let Some(..)`), so healthy results stay bit-identical.
    fn worker_step_cost(
        &self,
        store: &PartitionedStore,
        worker: u32,
        batch: &MiniBatch,
        counters: &mut ClusterCounters,
        faults: Option<&FaultCtx>,
        recovery: &mut RecoveryReport,
    ) -> WorkerCost {
        let _prof = gp_prof::scope("distdgl.fetch_compute");
        let cluster = &self.config.cluster;
        let network = faults.map_or(cluster.network, |f| f.network);
        let model = &self.config.model;
        let stats = &batch.stats;

        // --- Sampling: local walk + remote RPC wait. ---
        let mut local_cpu = stats.edges_sampled as f64 * SAMPLE_SECS_PER_EDGE
            + (stats.local_expansions + stats.remote_expansions) as f64 * SAMPLE_SECS_PER_EXPANSION
            + stats.remote_expansions as f64 * SAMPLE_SECS_PER_REMOTE_EXPANSION;
        if let Some(f) = faults {
            local_cpu /= f.compute_factor[worker as usize];
        }
        let rpc = transfer_time(&network, stats.remote_sample_bytes, stats.remote_sample_messages);
        let mut sampling = local_cpu + rpc;
        if let Some(f) = faults {
            // Lost sampling RPCs time out and are retransmitted with
            // backoff; the retry accounting is attributed to the
            // requesting worker.
            let charge = charge_loss_retries(
                &network,
                stats.remote_sample_messages,
                stats.remote_sample_bytes,
                f.loss_rate,
            );
            if !charge.is_zero() {
                sampling += charge.extra_secs;
                charge.apply_counts(recovery);
                recovery.retry_seconds += charge.extra_secs;
                let c = counters.machine_mut(worker);
                c.bytes_received += charge.retry_bytes;
                c.messages += charge.retries;
            }
        }
        {
            // Sampling RPCs are booked on both endpoints, like every
            // other exchange: the requester sends requests and receives
            // responses; each owner receives its requests and sends its
            // responses.
            let request_bytes = 16 * stats.remote_expansions;
            let response_bytes = stats.remote_sample_bytes.saturating_sub(request_bytes);
            let c = counters.machine_mut(worker);
            c.bytes_sent += request_bytes;
            c.bytes_received += response_bytes;
            c.messages += stats.remote_sample_messages;
            for (o, (&reqs, &resp)) in batch
                .rpc_requests_by_owner
                .iter()
                .zip(batch.rpc_response_bytes_by_owner.iter())
                .enumerate()
            {
                if reqs > 0 {
                    let oc = counters.machine_mut(o as u32);
                    oc.bytes_received += 16 * reqs;
                    oc.bytes_sent += resp;
                }
            }
        }

        // --- Feature loading: local copy + remote fetch. Remote inputs
        // present in the hot-vertex cache are served locally. ---
        let fbytes = 4 * model.feature_dim as u64;
        let mut cache_hits = 0u64;
        // Remote fetch batched per owner.
        let mut per_owner = vec![0u64; cluster.machines as usize];
        for &v in &batch.input_vertices {
            let o = store.owner(v);
            if o != worker {
                if self.cached[v as usize] {
                    cache_hits += 1;
                } else {
                    per_owner[o as usize] += fbytes;
                }
            }
        }
        let local_inputs = stats.input_vertices - stats.remote_input_vertices + cache_hits;
        let local_copy = (local_inputs * fbytes) as f64 / LOCAL_FEATURE_BW;
        let remote_bytes: u64 = per_owner.iter().sum();
        let owners_contacted = per_owner.iter().filter(|&&b| b > 0).count() as u64;
        let mut feature_load = local_copy + transfer_time(&network, remote_bytes, owners_contacted);
        counters.machine_mut(worker).receive(remote_bytes);
        for (o, &b) in per_owner.iter().enumerate() {
            if b > 0 {
                counters.machine_mut(o as u32).send(b);
            }
        }
        if let Some(f) = faults {
            let charge = charge_loss_retries(&network, owners_contacted, remote_bytes, f.loss_rate);
            if !charge.is_zero() {
                feature_load += charge.extra_secs;
                charge.apply_counts(recovery);
                recovery.retry_seconds += charge.extra_secs;
                let c = counters.machine_mut(worker);
                c.bytes_received += charge.retry_bytes;
                c.messages += charge.retries;
            }
        }

        // --- Compute. ---
        let shapes = block_shapes(batch);
        let train_flops =
            if batch.seeds.is_empty() { 0 } else { model_train_flops(model, &shapes) };
        let fwd_flops = train_flops / 3;
        let bwd_flops = train_flops - fwd_flops;
        counters.machine_mut(worker).flops += train_flops;
        let mut forward = compute_time(&cluster.machine, fwd_flops);
        let mut backward = compute_time(&cluster.machine, bwd_flops);
        if let Some(f) = faults {
            let cf = f.compute_factor[worker as usize];
            forward /= cf;
            backward /= cf;
        }

        WorkerCost {
            phases: StepPhases { sampling, feature_load, forward, backward, update: 0.0 },
            cache_hits,
            sample_bytes: stats.remote_sample_bytes,
            feature_bytes: remote_bytes,
            fwd_flops,
            bwd_flops,
        }
    }

    /// Shared step simulation on `state`, priced into `acc` as step
    /// `acc.steps`; `faults: None` is the healthy baseline
    /// (bit-identical to the pre-fault implementation).
    ///
    /// With a mitigation `session`, a steal/speculation candidate is
    /// built from the detector state and adopted only when the gated
    /// step is strictly faster with it; the detector then observes the
    /// *pre-mitigation* worker times, one observation behind the
    /// decision, so flags drive the following steps and mitigation never
    /// masks the fault from its own monitor.
    fn step_inner(
        &self,
        state: State<'_>,
        batches: &[MiniBatch],
        acc: &mut EpochAcc,
        faults: Option<&FaultCtx>,
        recovery: &mut RecoveryReport,
        session: Option<&mut DistDglMitigation>,
    ) -> StepReport {
        let cluster = &self.config.cluster;
        let network = faults.map_or(cluster.network, |f| f.network);
        let k = cluster.machines;
        let live_mask = faults.map_or(full_mask(k), |f| f.live_mask);
        let all_live = live_mask == full_mask(k);
        let counters = &mut acc.counters;

        let mut worker_times = Vec::with_capacity(k as usize);
        let mut input_vertices = Vec::with_capacity(k as usize);
        let mut remote_vertices = Vec::with_capacity(k as usize);
        let mut cache_hits = 0u64;
        let mut costs = Vec::with_capacity(batches.len());
        for (w, batch) in batches.iter().enumerate() {
            let wc =
                self.worker_step_cost(state.store, w as u32, batch, counters, faults, recovery);
            cache_hits += wc.cache_hits;
            worker_times.push(wc.phases.sampling + wc.phases.feature_load + wc.phases.forward);
            input_vertices.push(batch.stats.input_vertices);
            remote_vertices.push(batch.stats.remote_input_vertices);
            costs.push(wc);
        }

        // Gradient all-reduce closes the backward phase (paper: the
        // backward time includes the all-reduce). DistDGL's PyTorch DDP
        // overlaps the bucketed all-reduce with backward compute, so the
        // phase is gated by the slower of the two, not their sum.
        let param_bytes = self.param_bytes();
        let ar_machines = if all_live { k } else { live_mask.count_ones() };
        let allreduce = gp_cluster::time::allreduce_time(&network, param_bytes, ar_machines);
        // Optimiser update (synchronous; the slowest machine gates it).
        let opt_flops = self.opt_flops();
        let mut update = compute_time(&cluster.machine, opt_flops);
        if let Some(f) = faults {
            update /= f.min_compute_factor;
        }
        let mut phases = gate(&costs, &[], allreduce, update);

        if let Some(session) = session {
            let pre_times: Vec<f64> = costs.iter().map(|c| c.phases.total()).collect();
            let active: Vec<bool> = batches.iter().map(|b| !b.seeds.is_empty()).collect();
            let fbytes = self.feature_bytes();
            let mut candidate = session.candidate(batches, &pre_times, &active, &network, fbytes);
            let mit = gate(&costs, &candidate.scaled, allreduce, update);
            if !candidate.traffic.is_empty() && mit.total() < phases.total() {
                candidate.report.time_saved_secs = phases.total() - mit.total();
                session.report.merge(&candidate.report);
                for &(m, sent, received) in &candidate.traffic {
                    let c = counters.machine_mut(m);
                    if sent > 0 {
                        c.send(sent);
                    }
                    if received > 0 {
                        c.receive(received);
                    }
                }
                if state.sink.is_enabled() {
                    // Cluster-wide mitigation counters (attributed to
                    // worker 0, like DistGNN's migration span).
                    let report = &candidate.report;
                    if report.stolen_steps > 0 {
                        let bytes = report.stolen_bytes as f64;
                        state.sink.counter(0, counter_names::STOLEN_BYTES, bytes);
                    }
                    if report.speculated_steps > 0 {
                        let bytes = report.speculation_bytes as f64;
                        state.sink.counter(0, counter_names::SPECULATION_BYTES, bytes);
                    }
                }
                for &(w, scale) in &candidate.scaled {
                    let mut p = costs[w].phases;
                    scale_phases(&mut p, scale);
                    worker_times[w] = p.sampling + p.feature_load + p.forward;
                }
                phases = mit;
            }
            session.detector.observe_compute_active(&pre_times, &active);
        }

        for m in 0..k {
            if all_live || live_mask & (1u64 << m) != 0 {
                let c = counters.machine_mut(m);
                c.send(param_bytes);
                c.receive(param_bytes);
                c.flops += opt_flops;
            }
        }

        self.emit_step_spans(state.sink, acc.steps as u32, &phases, &costs, live_mask);
        self.emit_traffic_counters(state.sink, &acc.counters);

        let report =
            StepReport { phases, worker_times, input_vertices, remote_vertices, cache_hits };
        acc.add(&report);
        report
    }

    /// Record one step's spans into `sink`: every worker gets one span
    /// per phase window, `dur` being the straggler-gated phase time (BSP
    /// semantics — the whole cluster occupies the window), while bytes
    /// and FLOPs carry that worker's own attribution. The durations are
    /// the exact `f64`s summed into [`StepPhases`] by the epoch
    /// accumulator, in the same order, so per-worker span sums equal the
    /// epoch phase totals bit for bit.
    fn emit_step_spans(
        &self,
        sink: &TraceSink,
        step: u32,
        phases: &StepPhases,
        costs: &[WorkerCost],
        live_mask: u64,
    ) {
        if !sink.is_enabled() {
            return;
        }
        let allreduce_bytes = 2 * self.param_bytes();
        let opt_flops = self.opt_flops();
        let t0 = sink.now();
        for (w, wc) in costs.iter().enumerate() {
            let w = w as u32;
            if w < 64 && live_mask & (1u64 << w) == 0 {
                continue;
            }
            let mut t = t0;
            sink.span(w, step, TracePhase::Sampling, t, phases.sampling, wc.sample_bytes, 0);
            t += phases.sampling;
            sink.span(
                w,
                step,
                TracePhase::FeatureLoad,
                t,
                phases.feature_load,
                wc.feature_bytes,
                0,
            );
            t += phases.feature_load;
            sink.span(w, step, TracePhase::Forward, t, phases.forward, 0, wc.fwd_flops);
            t += phases.forward;
            sink.span(
                w,
                step,
                TracePhase::Backward,
                t,
                phases.backward,
                allreduce_bytes,
                wc.bwd_flops,
            );
            t += phases.backward;
            sink.span(w, step, TracePhase::Update, t, phases.update, 0, opt_flops);
        }
        sink.advance(phases.total());
    }

    /// Emit cumulative per-worker traffic counter tracks into `sink`
    /// (no-op when it is disabled).
    fn emit_traffic_counters(&self, sink: &TraceSink, counters: &ClusterCounters) {
        if !sink.is_enabled() {
            return;
        }
        for m in 0..self.config.cluster.machines {
            let c = counters.machine(m);
            sink.counter(m, counter_names::BYTES_SENT, c.bytes_sent as f64);
            sink.counter(m, counter_names::BYTES_RECEIVED, c.bytes_received as f64);
        }
    }

    /// Run the scenario described by `spec` — the unified entry point.
    ///
    /// The spec is resolved to a [`Scenario`] up front; each scenario
    /// maps to exactly one internal path and returns the matching
    /// [`DistDglRunReport`] variant. Elastic, partitioned and stream
    /// scenarios run on the shared scenario driver
    /// ([`gp_cluster::driver`]). `Faulty` runs that hit a terminal fault
    /// keep the epochs completed so far and record the error in the
    /// variant ([`DistDglRunReport::strict`] restores
    /// fail-fast); `Elastic`/`Partitioned` runs propagate their errors
    /// directly, as the whole-run reports carry no partial state.
    ///
    /// # Errors
    ///
    /// [`DistDglError::InvalidConfig`] when the spec's combination is
    /// rejected ([`gp_cluster::RunSpecError`]); the elastic and
    /// partitioned paths' own errors otherwise.
    pub fn run(&self, spec: &RunSpec) -> Result<DistDglRunReport, DistDglError> {
        let scenario = spec.scenario().map_err(|e| DistDglError::InvalidConfig(e.to_string()))?;
        let epochs = spec.num_epochs();
        let empty_plan = FaultPlan::empty();
        match scenario {
            Scenario::Healthy => Ok(DistDglRunReport::Healthy {
                epochs: (0..epochs).map(|e| self.healthy_epoch(e)).collect(),
            }),
            Scenario::Faulty { plan, policy } => {
                let plan = plan.unwrap_or(&empty_plan);
                let mut session = self.mitigation(policy);
                let (epochs, error) =
                    run_until_error(epochs, |e| self.faulty_epoch(e, plan, session.as_mut()));
                Ok(DistDglRunReport::Faulty { epochs, error })
            }
            Scenario::Elastic { faults, elastic } => {
                driver::run_elastic(self, epochs, faults.unwrap_or(&empty_plan), elastic, None)
                    .map(|r| DistDglRunReport::Elastic(r.elastic))
            }
            Scenario::Partitioned { faults, elastic, net } => {
                driver::run_elastic(self, epochs, faults.unwrap_or(&empty_plan), elastic, Some(net))
                    .map(DistDglRunReport::Partitioned)
            }
            Scenario::Stream { leg, partitioner } => {
                driver::run_stream(self, leg, partitioner).map(DistDglRunReport::Stream)
            }
        }
    }

    /// One healthy epoch — the `Healthy` leg of [`DistDglEngine::run`].
    fn healthy_epoch(&self, epoch: u32) -> EpochSummary {
        self.trace.set_epoch(epoch);
        self.simulate_epoch_from(&self.sample_epoch(epoch))
    }

    /// Simulate a full epoch from pre-sampled mini-batches (one inner
    /// `Vec` per step). Lets grid sweeps reuse sampling across model
    /// configurations with the same layer count.
    ///
    /// # Panics
    ///
    /// Panics if `sampled` is empty.
    pub fn simulate_epoch_from(&self, sampled: &[Vec<MiniBatch>]) -> EpochSummary {
        let _prof = gp_prof::scope("distdgl.epoch");
        assert!(!sampled.is_empty(), "need at least one sampled step");
        let state = State { store: &self.store, sink: &self.trace };
        self.epoch_from(state, sampled, None, &mut RecoveryReport::default())
    }

    /// One unmitigated epoch over `sampled` on `state` under `faults`
    /// (`None`: healthy) — the healthy leg and the scenario driver's
    /// epochs.
    fn epoch_from(
        &self,
        state: State<'_>,
        sampled: &[Vec<MiniBatch>],
        faults: Option<&FaultCtx>,
        recovery: &mut RecoveryReport,
    ) -> EpochSummary {
        let mut acc = EpochAcc::new(self.config.cluster.machines);
        self.observe_store_memory(state.store, &mut acc.counters);
        for batches in sampled {
            self.step_inner(state, batches, &mut acc, faults, recovery, None);
        }
        acc.into_summary()
    }

    /// Book the resident feature store of the layout `store` (plus the
    /// hot-vertex cache) of every machine into the counters' memory
    /// watermark.
    fn observe_store_memory(&self, store: &PartitionedStore, counters: &mut ClusterCounters) {
        let fbytes = self.feature_bytes();
        let cache_bytes = u64::from(self.config.feature_cache_entries) * fbytes;
        for (m, owned) in store.owned_counts().iter().enumerate() {
            counters.machine_mut(m as u32).observe_memory(owned * fbytes + cache_bytes);
        }
    }

    /// A mitigation session for this cluster under `policy`, or `None`
    /// when the policy arms neither work stealing nor speculation. The
    /// detector observes per-step worker times (`policy.detector` is
    /// tuned for that granularity by default).
    fn mitigation(&self, policy: MitigationPolicy) -> Option<DistDglMitigation> {
        (policy.work_stealing || policy.speculation).then(|| DistDglMitigation {
            detector: StragglerDetector::new(self.config.cluster.machines, policy.detector),
            policy,
            report: MitigationReport::default(),
        })
    }

    /// One epoch under a fault plan, mitigated by `session` when there
    /// is one — the `Faulty` leg of [`DistDglEngine::run`].
    ///
    /// * **Empty plan** — exactly the healthy epoch with an all-zero
    ///   [`RecoveryReport`]: bit-identical to the healthy baseline.
    /// * **Slowdowns / degradation** — phase times stretch through the
    ///   straggler rule; message loss turns into timeout/retry/backoff
    ///   overhead on remote expansions and feature fetches, flowing
    ///   through the cost model and [`StepPhases`] like any other RPC.
    /// * **Crashes** — permanent: the crashed worker's owned vertices
    ///   and training set are redistributed round-robin across the
    ///   survivors ([`PartitionedStore::with_failed`]), the in-flight
    ///   step is re-executed, and the remaining steps run on the
    ///   degraded cluster (the epoch may grow longer — the straggler
    ///   rule gates on the survivors' larger training shares).
    ///
    /// DistDGL's mitigations are **work stealing** (workers that finish
    /// their mini-batch early absorb a flagged straggler's remaining
    /// work, paying extra remote fetches for stolen inputs that were
    /// local to the straggler) and **speculative re-execution** (a
    /// worker blowing past the detector-derived deadline has its step
    /// re-launched on the fastest idle worker; the earlier finisher
    /// wins, the loser's work is wasted). Every per-step decision is
    /// guarded ([`DistDglEngine::step_inner`]), so a mitigated epoch is
    /// never slower than the unmitigated one.
    ///
    /// # Errors
    ///
    /// [`DistDglError::WorkerFailed`] when no survivors remain;
    /// [`DistDglError::RecoveryBudgetExceeded`] when accumulated
    /// overhead passes the plan's budget.
    fn faulty_epoch(
        &self,
        epoch: u32,
        plan: &FaultPlan,
        mut session: Option<&mut DistDglMitigation>,
    ) -> Result<FaultyEpochSummary, DistDglError> {
        self.trace.set_epoch(epoch);
        if plan.is_empty() {
            return Ok(FaultyEpochSummary {
                summary: self.healthy_epoch(epoch),
                recovery: RecoveryReport::default(),
                failed_workers: Vec::new(),
                mitigation: MitigationReport::default(),
            });
        }
        let k = self.config.cluster.machines;
        let cluster = &self.config.cluster;
        let mut recovery = RecoveryReport::default();
        let failed_prior = plan.crashed_before(epoch);
        let crashes_now = plan.crashes_in_epoch(epoch);
        let ctx = FaultCtx::resolve(plan, cluster, epoch, full_mask(k));

        let pre = if failed_prior.is_empty() {
            Cow::Borrowed(&self.store)
        } else {
            Cow::Owned(self.store.with_failed(&failed_prior).ok_or_else(|| {
                DistDglError::WorkerFailed { machine: *failed_prior.last().unwrap(), epoch }
            })?)
        };
        let state = State { store: &pre, sink: &self.trace };

        let mut acc = EpochAcc::new(k);
        self.observe_store_memory(&pre, &mut acc.counters);
        let fbytes = self.feature_bytes();

        let steps_pre = self.steps_on(&pre);
        let crash_step = crashes_now
            .iter()
            .map(|&(_, frac)| (frac * steps_pre as f64) as usize)
            .min()
            .unwrap_or(steps_pre)
            .min(steps_pre);
        for batches in &self.sample_steps_on(&pre, epoch, 0..crash_step) {
            let session = session.as_deref_mut();
            self.step_inner(state, batches, &mut acc, Some(&ctx), &mut recovery, session);
        }

        let mut failed_workers = failed_prior;
        if !crashes_now.is_empty() {
            let mut all_failed = failed_workers.clone();
            all_failed.extend(crashes_now.iter().map(|&(m, _)| m));
            let post = self
                .store
                .with_failed(&all_failed)
                .ok_or(DistDglError::WorkerFailed { machine: crashes_now[0].0, epoch })?;

            // The crashed workers' feature shards are re-served from
            // persistent storage to their new owners (one bulk transfer
            // per receiving survivor).
            let gains = pre.gains(&post);
            let (moved, receivers) = moves(&gains);
            let restore_bytes = moved * fbytes;
            for (m, &gained) in gains.iter().enumerate() {
                acc.counters.machine_mut(m as u32).receive(gained * fbytes);
            }
            let messages = u64::from(receivers.count_ones());
            let restore_secs = transfer_time(&ctx.network, restore_bytes, messages);
            recovery.recovery_bytes += restore_bytes;
            recovery.restore_seconds += restore_secs;
            if self.trace.is_enabled() {
                // One Recovery span per receiving survivor: the restore
                // transfer occupies the whole window (bulk transfers run
                // concurrently); bytes carry each receiver's share.
                let (t, step) = (self.trace.now(), crash_step as u32);
                for (m, &gained) in gains.iter().enumerate().filter(|&(_, &g)| g > 0) {
                    let (m, b) = (m as u32, gained * fbytes);
                    self.trace.span(m, step, TracePhase::Recovery, t, restore_secs, b, 0);
                    self.trace.counter(m, counter_names::RECOVERY_BYTES, b as f64);
                }
                self.trace.advance(restore_secs);
            }
            for &(m, _) in &crashes_now {
                recovery.redistributed_train_vertices += pre.local_train_vertices(m).len() as u64;
                failed_workers.push(m);
            }
            recovery.crashes += crashes_now.len() as u32;
            recovery.lost_progress_epochs += 1.0 / steps_pre as f64;
            self.observe_store_memory(&post, &mut acc.counters);

            // Re-execute the lost in-flight step, then finish the epoch
            // on the degraded cluster.
            let state = State { store: &post, sink: &self.trace };
            let steps_post = self.steps_on(&post).max(crash_step + 1);
            let sampled = self.sample_steps_on(&post, epoch, crash_step..steps_post);
            for (step, batches) in (crash_step..).zip(&sampled) {
                let session = session.as_deref_mut();
                let report =
                    self.step_inner(state, batches, &mut acc, Some(&ctx), &mut recovery, session);
                if step == crash_step {
                    recovery.reexecuted_steps += 1;
                    recovery.reexecution_seconds += report.phases.total();
                }
            }
        }

        let mitigation = session.map(|s| std::mem::take(&mut s.report)).unwrap_or_default();
        let overhead = recovery.total_overhead_seconds();
        if overhead > plan.recovery_budget_secs {
            return Err(DistDglError::RecoveryBudgetExceeded {
                budget_secs: plan.recovery_budget_secs,
                needed_secs: overhead,
            });
        }
        failed_workers.sort_unstable();
        let summary = acc.into_summary();
        Ok(FaultyEpochSummary { summary, recovery, failed_workers, mitigation })
    }
}

/// DistDGL's side of the scenario driver. Ownership is the elastic
/// primitive: every membership change maps to a new
/// [`PartitionedStore`] layout. Features are immutable, so a shard can
/// always be re-served from the snapshot store (or the raw input
/// files); model parameters are replicated on every worker by the
/// gradient all-reduce, so as long as one live worker remains no
/// training progress is lost at an epoch boundary.
impl ScenarioEngine for DistDglEngine<'_> {
    type Layout = PartitionedStore;
    type Epoch = EpochSummary;
    type Part = VertexPartition;
    type Online = IncrementalVertexPartitioner;
    type Repartitioner = Box<dyn VertexPartitioner>;
    type Error = DistDglError;

    const STREAM_PARTITIONER: &'static str = "LDG";

    fn cluster(&self) -> &ClusterSpec {
        &self.config.cluster
    }

    fn sink(&self) -> &TraceSink {
        &self.trace
    }

    fn param_bytes(&self) -> u64 {
        model_param_count(&self.config.model) * 4
    }

    fn layout(&self) -> PartitionedStore {
        self.store.clone()
    }

    fn epoch(
        &self,
        layout: &PartitionedStore,
        epoch: u32,
        ctx: &FaultCtx,
        recovery: &mut RecoveryReport,
        traced: bool,
    ) -> EpochSummary {
        let disabled = TraceSink::disabled();
        let sink = if traced { &self.trace } else { &disabled };
        let sampled = self.sample_steps_on(layout, epoch, 0..self.steps_on(layout));
        self.epoch_from(State { store: layout, sink }, &sampled, Some(ctx), recovery)
    }

    fn counters(epoch: &EpochSummary) -> &ClusterCounters {
        &epoch.counters
    }

    /// Sampling and training redistribute to the quorum island; feature
    /// fetches that would cross the cut are deferred — served from the
    /// local feature cache and the snapshot store instead of the
    /// unreachable owners — and the minority shards stream back after
    /// heal.
    fn degraded(
        &self,
        layout: &PartitionedStore,
        minority: u64,
        _quorum: u64,
    ) -> DegradedWindow<PartitionedStore> {
        let cut: Vec<u32> =
            (0..self.config.cluster.machines).filter(|&m| minority & (1u64 << m) != 0).collect();
        let owned = layout.owned_counts();
        let deferred: u64 = cut.iter().map(|&m| owned[m as usize]).sum();
        DegradedWindow {
            layout: layout.with_failed(&cut).expect("quorum side is non-empty"),
            stale_per_epoch: 0,
            deferred_per_epoch: deferred,
            catchup_bytes: deferred * self.feature_bytes(),
        }
    }

    fn stale_reads(&self, epoch: &EpochSummary) -> u64 {
        epoch.cache_hits
    }

    /// The leaver's owned vertices and training set move to the
    /// survivors ([`PartitionedStore::with_failed`] — minimal
    /// movement). A graceful leaver streams its feature shard to the
    /// new owners; parameters need no handoff, every survivor already
    /// has the replica. Unannounced, the new owners re-serve the shard
    /// from the newest valid snapshot, or from the raw input files when
    /// none survives.
    fn leave(
        &self,
        layout: &PartitionedStore,
        w: u32,
        _active: u64,
        graceful: bool,
        env: &Env,
    ) -> Leave<PartitionedStore> {
        let next = layout.with_failed(&[w]).expect("live set is non-empty");
        let (moved, receivers) = moves(&layout.gains(&next));
        let bytes = moved * self.feature_bytes();
        let msgs = u64::from(receivers.count_ones());
        let exit = if graceful {
            LeaveExit::Handoff {
                bytes,
                secs: transfer_time(env.network, bytes, msgs),
                messages: msgs,
            }
        } else {
            let mut restore = snapshot_reload(env, env.restore(w), bytes);
            restore.bytes += bytes;
            restore.secs += transfer_time(env.network, bytes, msgs);
            LeaveExit::Reload { restore, receivers }
        };
        Leave { layout: next, redistributed: layout.local_train_vertices(w).len() as u64, exit }
    }

    /// Exactly the slot's pristine shard comes back
    /// ([`PartitionedStore::with_rejoined`]), reloaded from the newest
    /// valid snapshot (features are immutable, so any epoch's snapshot
    /// serves) or the raw input files, plus the current model replica
    /// from a survivor.
    fn join(&self, layout: &mut PartitionedStore, w: u32, _active: u64, env: &Env) -> Restore {
        let next = layout.with_rejoined(w, &self.store);
        let (moved, _) = moves(&layout.gains(&next));
        *layout = next;
        let mut restore = snapshot_reload(env, env.restore(w), moved * self.feature_bytes());
        let param_bytes = self.param_bytes();
        restore.bytes += param_bytes;
        restore.secs += transfer_time(env.network, param_bytes, 1);
        restore
    }

    /// The canonical live-set layout ([`PartitionedStore::with_members`]).
    fn rebalance(
        &self,
        layout: &PartitionedStore,
        active: u64,
    ) -> Option<Rebalance<PartitionedStore>> {
        let live: Vec<u32> =
            (0..self.config.cluster.machines).filter(|&m| active & (1u64 << m) != 0).collect();
        let cand = self.store.with_members(&live).expect("live set is non-empty");
        let (moved, receivers) = moves(&layout.gains(&cand));
        (moved > 0).then(|| Rebalance {
            layout: cand,
            moved,
            bytes: moved * self.feature_bytes(),
            messages: u64::from(receivers.count_ones()),
            receivers,
        })
    }

    /// The slot reloads its shard from the snapshot store and
    /// re-fetches parameters from a survivor; only the in-flight step
    /// is lost — the all-reduce left the previous step's parameters on
    /// every live worker. A sole survivor has no replica to fetch from
    /// and falls back to the snapshot's (older) parameters instead.
    fn crash(
        &self,
        layout: &PartitionedStore,
        machine: u32,
        _step_frac: f64,
        active: u64,
        epoch: &EpochSummary,
        env: &Env,
    ) -> CrashRepair {
        let shard = layout.owned_counts()[machine as usize] * self.feature_bytes();
        let r = env.restore(machine);
        let mut restore = snapshot_reload(env, r, shard);
        let mut lost = 1.0 / epoch.steps.max(1) as f64;
        if active.count_ones() > 1 {
            let param_bytes = self.param_bytes();
            restore.bytes += param_bytes;
            restore.secs += transfer_time(env.network, param_bytes, 1);
        } else {
            lost += r.epochs_lost(env.epoch);
        }
        CrashRepair { restore, span_bytes: restore.bytes, lost, reexecuted_steps: 1 }
    }

    fn shard_bytes(&self, layout: &PartitionedStore) -> Vec<u64> {
        let model_bytes = self.param_bytes() * 3;
        let fbytes = self.feature_bytes();
        layout.owned_counts().iter().map(|&owned| model_bytes + owned * fbytes).collect()
    }

    fn stream_base(&self) -> (&Graph, &VertexPartition) {
        (self.graph, &self.partition)
    }

    fn repartitioner(&self, name: &str) -> Result<Box<dyn VertexPartitioner>, ScenarioError> {
        registry::vertex_partitioner(name, Some(self.split.train.clone())).ok_or_else(|| {
            ScenarioError::InvalidConfig(format!(
                "unknown edge-cut partitioner '{name}' for a stream run"
            ))
        })
    }

    fn online(
        &self,
        name: &str,
        graph: &Graph,
        part: &VertexPartition,
        seed: u64,
    ) -> Result<IncrementalVertexPartitioner, PartitionError> {
        IncrementalVertexPartitioner::from_partition(name, graph, part, seed)
    }

    /// Arrivals are placed online in id order
    /// ([`IncrementalVertexPartitioner::place_arrivals`]); edge
    /// insertions and deletions never move a placed vertex.
    fn update(
        &self,
        online: &mut IncrementalVertexPartitioner,
        batch: &MutationBatch,
        first_new: u32,
    ) -> Result<(), PartitionError> {
        online.place_arrivals(batch, first_new)
    }

    fn materialize(
        online: &IncrementalVertexPartitioner,
        snapshot: &Graph,
    ) -> Result<VertexPartition, PartitionError> {
        online.materialize(snapshot)
    }

    fn repartition(
        &self,
        full: &Box<dyn VertexPartitioner>,
        snapshot: &Graph,
        seed: u64,
    ) -> Result<VertexPartition, PartitionError> {
        full.partition_vertices(snapshot, self.config.cluster.machines, seed)
    }

    /// Train-vertex imbalance — the axis that stretches
    /// `steps_per_epoch`.
    fn fire_metric(&self, part: &VertexPartition) -> f64 {
        part.subset_balance(&self.split.train)
    }

    fn quality_metric(part: &VertexPartition) -> f64 {
        part.edge_cut_ratio()
    }

    fn quality(&self, part: &VertexPartition) -> StreamQuality {
        StreamQuality {
            replication_factor: None,
            edge_cut: Some(part.edge_cut_ratio()),
            balance: part.vertex_balance(),
            train_balance: Some(part.subset_balance(&self.split.train)),
        }
    }

    /// New vertices join no train/val/test role: every snapshot trains
    /// with the base split.
    fn stream_epoch(
        &self,
        snapshot: &Graph,
        part: &VertexPartition,
        batch: u32,
        traced: bool,
    ) -> Result<f64, DistDglError> {
        let trace = if traced { self.trace.clone() } else { TraceSink::disabled() };
        let engine = DistDglEngine::builder(snapshot, part, &self.split)
            .config(self.config.clone())
            .threads(self.threads)
            .trace(trace)
            .build()?;
        Ok(engine.healthy_epoch(batch).epoch_time())
    }
}

impl DistDglEngine<'_> {
    /// Feature bytes of one vertex.
    fn feature_bytes(&self) -> u64 {
        4 * self.config.model.feature_dim as u64
    }

    /// FLOPs of one optimiser update on every worker.
    fn opt_flops(&self) -> u64 {
        model_param_count(&self.config.model) * 10
    }
}

/// The vertices a layout change moves in total, and the bitmask of the
/// machines that receive any, from the per-machine
/// [`PartitionedStore::gains`].
fn moves(gains: &[u64]) -> (u64, u64) {
    let receivers = gains.iter().enumerate().filter(|&(_, &g)| g > 0);
    (gains.iter().sum(), receivers.fold(0, |mask, (m, _)| mask | 1u64 << m))
}

/// Reload a `shard`-byte feature shard through snapshot restore `r`:
/// from the raw input files when no valid snapshot is left.
fn snapshot_reload(env: &Env, r: RestoreOutcome, shard: u64) -> Restore {
    let mut restore = Restore { bytes: r.bytes_read, secs: r.seconds, corrupted: r.corrupted };
    if r.epoch.is_none() {
        restore.bytes += shard;
        restore.secs += shard as f64 / env.checkpoints().read_bw;
    }
    restore
}

/// Fluid work-stealing equalisation. The flagged straggler has `t_s`
/// seconds of work left at its degraded rate; helper `j` goes idle at
/// `t_j` (ascending) and then chews through the straggler's backlog at
/// `elev` straggler-seconds per wall-second (the detector's estimate of
/// how much faster a healthy worker is). With the `m` earliest helpers
/// participating everyone finishes together at
/// `T_m = (t_s + elev·Σ_{j<m} t_j) / (1 + elev·m)`; the physical
/// solution is the `m` where helper `m−1` is idle before `T_m` and
/// helper `m` (if any) is not. Returns `(T, m)`.
fn steal_equalized_time(t_s: f64, helper_times: &[f64], elev: f64) -> Option<(f64, usize)> {
    let mut sum = 0.0;
    for m in 1..=helper_times.len() {
        sum += helper_times[m - 1];
        let t_eq = (t_s + elev * sum) / (1.0 + elev * m as f64);
        if t_eq >= helper_times[m - 1] && (m == helper_times.len() || t_eq <= helper_times[m]) {
            return Some((t_eq, m));
        }
    }
    None
}

/// The straggler gate of one step: each phase takes the slowest
/// worker's time, with the workers of a mitigation candidate's `scaled`
/// list shrunk by their factor; the all-reduce gates backward with the
/// slowest worker's backward compute, and the optimiser update closes
/// the step.
fn gate(costs: &[WorkerCost], scaled: &[(usize, f64)], allreduce: f64, update: f64) -> StepPhases {
    let mut phases = StepPhases::default();
    for (w, wc) in costs.iter().enumerate() {
        let mut p = wc.phases;
        if let Some(&(_, scale)) = scaled.iter().find(|&&(s, _)| s == w) {
            scale_phases(&mut p, scale);
        }
        phases.sampling = phases.sampling.max(p.sampling);
        phases.feature_load = phases.feature_load.max(p.feature_load);
        phases.forward = phases.forward.max(p.forward);
        phases.backward = phases.backward.max(p.backward);
    }
    phases.backward = phases.backward.max(allreduce);
    phases.update = update;
    phases
}

/// Uniformly shrink a worker's per-step phases (its `update` share is
/// zero — the optimiser is booked at step level).
fn scale_phases(p: &mut StepPhases, scale: f64) {
    p.sampling *= scale;
    p.feature_load *= scale;
    p.forward *= scale;
    p.backward *= scale;
}

/// SplitMix64-style mixing of a seed with up to three stream indices;
/// collision-free in practice for distinct index tuples (unlike shifted
/// XOR, which aliases once an index exceeds its bit window).
fn mix_seed(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ c.wrapping_mul(0x94d0_49bb_1331_11eb);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mask of the `entries` highest-degree vertices (ties broken by id).
fn hot_vertex_mask(graph: &Graph, entries: u32) -> Vec<bool> {
    let n = graph.num_vertices() as usize;
    let mut mask = vec![false; n];
    if entries == 0 || n == 0 {
        return mask;
    }
    let mut order: Vec<u32> = graph.vertices().collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    for &v in order.iter().take(entries as usize) {
        mask[v as usize] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::{
        CheckpointConfig, ChurnPlan, ElasticOptions, ElasticRunReport, NetFaultPlan, NetRunOptions,
        NetRunReport, PartitionedRunReport, Span,
    };
    use gp_graph::generators::{community, CommunityParams};
    use gp_partition::prelude::*;
    use gp_tensor::ModelKind;

    fn setup(k: u32) -> (Graph, VertexPartition, VertexPartition, VertexSplit) {
        let g = community(
            CommunityParams {
                n: 800,
                m: 12_000,
                communities: 8,
                intra_prob: 0.75,
                degree_exponent: 2.3,
            },
            5,
        )
        .unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 3).unwrap();
        let rnd = RandomVertexPartitioner.partition_vertices(&g, k, 1).unwrap();
        let metis = Metis::default().partition_vertices(&g, k, 1).unwrap();
        (g, rnd, metis, split)
    }

    fn cfg(k: u32, f: usize, h: usize, layers: usize, kind: ModelKind) -> DistDglConfig {
        DistDglConfig::paper(
            ModelConfig {
                kind,
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

    /// Epoch `epoch` of a healthy run.
    fn healthy(e: &DistDglEngine, epoch: u32) -> EpochSummary {
        e.run(&RunSpec::healthy().epochs(epoch + 1)).unwrap().into_healthy().pop().unwrap()
    }

    fn faulty(
        e: &DistDglEngine,
        epochs: u32,
        plan: &FaultPlan,
    ) -> (Vec<FaultyEpochSummary>, Option<DistDglError>) {
        e.run(&RunSpec::healthy().epochs(epochs).faults(plan.clone())).unwrap().into_faulty()
    }

    fn mitigated(
        e: &DistDglEngine,
        epochs: u32,
        plan: &FaultPlan,
        policy: MitigationPolicy,
    ) -> Vec<FaultyEpochSummary> {
        let spec = RunSpec::healthy().epochs(epochs).faults(plan.clone()).mitigate(policy);
        let (out, error) = e.run(&spec).unwrap().into_faulty();
        assert!(error.is_none(), "{error:?}");
        out
    }

    fn elastic(
        e: &DistDglEngine,
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
        e: &DistDglEngine,
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

    #[test]
    fn better_partitioner_fewer_remote_vertices() {
        let (g, rnd, metis, split) = setup(4);
        let c = cfg(4, 64, 64, 3, ModelKind::Sage);
        let e_rnd = healthy(
            &DistDglEngine::builder(&g, &rnd, &split).config(c.clone()).build().unwrap(),
            0,
        );
        let e_met =
            healthy(&DistDglEngine::builder(&g, &metis, &split).config(c).build().unwrap(), 0);
        assert!(
            e_met.total_remote_vertices < e_rnd.total_remote_vertices,
            "METIS {} >= Random {}",
            e_met.total_remote_vertices,
            e_rnd.total_remote_vertices
        );
        assert!(e_met.counters.total_network_bytes() < e_rnd.counters.total_network_bytes());
        assert!(e_met.epoch_time() < e_rnd.epoch_time());
    }

    #[test]
    fn feature_size_inflates_feature_phase() {
        let (g, rnd, _, split) = setup(4);
        let small = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 16, 64, 3, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        let large = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 512, 64, 3, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        // Sampling time identical (same seed ⇒ same blocks), feature
        // loading much larger (not 32× — the per-message latency floor
        // does not scale with the feature size).
        assert!((large.phases.sampling - small.phases.sampling).abs() < 1e-9);
        assert!(
            large.phases.feature_load > 4.0 * small.phases.feature_load,
            "feature_load {} vs {}",
            large.phases.feature_load,
            small.phases.feature_load
        );
        assert_eq!(large.total_remote_vertices, small.total_remote_vertices);
    }

    #[test]
    fn hidden_dim_inflates_compute_only() {
        let (g, rnd, _, split) = setup(4);
        let small = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 64, 16, 3, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        let large = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 64, 512, 3, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        assert!((large.phases.sampling - small.phases.sampling).abs() < 1e-9);
        assert!((large.phases.feature_load - small.phases.feature_load).abs() < 1e-9);
        assert!(large.phases.forward > 5.0 * small.phases.forward);
    }

    #[test]
    fn gat_computes_more_than_sage() {
        let (g, rnd, _, split) = setup(4);
        let sage = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 64, 64, 3, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        let gat = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 64, 64, 3, ModelKind::Gat))
                .build()
                .unwrap(),
            0,
        );
        assert!(gat.phases.forward > sage.phases.forward);
    }

    #[test]
    fn steps_respect_batch_size() {
        let (g, rnd, _, split) = setup(4);
        let mut c = cfg(4, 16, 16, 2, ModelKind::Sage);
        c.global_batch_size = 16;
        let e = DistDglEngine::builder(&g, &rnd, &split).config(c).build().unwrap();
        assert_eq!(e.batch_per_worker(), 4);
        // The epoch is gated by the worker with the most local training
        // vertices, so it is at least the balanced ceil(|train| / GBS)
        // and exactly that under a perfectly train-balanced partition.
        let balanced = split.train.len().div_ceil(16);
        let largest = (0..4u32).map(|w| e.store().local_train_vertices(w).len()).max().unwrap();
        assert_eq!(e.steps_per_epoch(), largest.div_ceil(4));
        assert!(e.steps_per_epoch() >= balanced);
    }

    #[test]
    fn config_validation() {
        let (g, rnd, _, split) = setup(4);
        let mut c = cfg(8, 16, 16, 2, ModelKind::Sage);
        assert!(matches!(
            DistDglEngine::builder(&g, &rnd, &split).config(c.clone()).build(),
            Err(DistDglError::ClusterMismatch { .. })
        ));
        c.cluster.machines = 4;
        c.fanouts = vec![5];
        assert!(DistDglEngine::builder(&g, &rnd, &split).config(c).build().is_err());
    }

    #[test]
    fn zero_layer_model_is_rejected() {
        let (g, rnd, _, split) = setup(4);
        let c = cfg(4, 16, 16, 0, ModelKind::Sage);
        assert!(matches!(
            DistDglEngine::builder(&g, &rnd, &split).config(c).build(),
            Err(DistDglError::InvalidConfig(_))
        ));
    }

    #[test]
    fn sample_epoch_equals_every_sample_step_and_the_oracle() {
        use crate::sampler::oracle;
        let (g, _, metis, split) = setup(4);
        let mut c = cfg(4, 16, 16, 2, ModelKind::Sage);
        c.global_batch_size = 96;
        let e = DistDglEngine::builder(&g, &metis, &split).config(c).build().unwrap();
        let bpw = e.batch_per_worker();
        for epoch in 0..3 {
            let sampled = e.sample_epoch(epoch);
            assert_eq!(sampled.len(), e.steps_per_epoch());
            let epoch_seed = mix_seed(e.config.seed, u64::from(epoch), 0, 0);
            for (step, batches) in sampled.iter().enumerate() {
                assert_eq!(*batches, e.sample_step(epoch, step), "epoch {epoch}, step {step}");
                for (w, batch) in batches.iter().enumerate() {
                    let w = w as u32;
                    let seeds = oracle::worker_seeds(&e.store, w, step, bpw, epoch_seed);
                    let mut rng = Rng::seed_from_u64(mix_seed(
                        e.config.seed,
                        u64::from(epoch),
                        step as u64 + 1,
                        u64::from(w) + 1,
                    ));
                    let expected = oracle::sample_minibatch(
                        &g,
                        &e.store,
                        w,
                        &seeds,
                        &e.config.fanouts,
                        &mut rng,
                    );
                    assert_eq!(*batch, expected, "epoch {epoch}, step {step}, worker {w}");
                }
            }
            // Any split of the epoch into ranges samples the same batches.
            let mid = sampled.len() / 2;
            let mut split_ranges = e.sample_steps(epoch, 0..mid);
            split_ranges.extend(e.sample_steps(epoch, mid..sampled.len()));
            assert_eq!(split_ranges, sampled);
        }
    }

    #[test]
    fn feature_cache_reduces_traffic() {
        let (g, rnd, _, split) = setup(4);
        let mut base_cfg = cfg(4, 512, 64, 3, ModelKind::Sage);
        base_cfg.feature_cache_entries = 0;
        let base = healthy(
            &DistDglEngine::builder(&g, &rnd, &split).config(base_cfg.clone()).build().unwrap(),
            0,
        );
        let mut cached_cfg = base_cfg.clone();
        cached_cfg.feature_cache_entries = 100;
        let cached = healthy(
            &DistDglEngine::builder(&g, &rnd, &split).config(cached_cfg).build().unwrap(),
            0,
        );
        assert_eq!(base.cache_hits, 0);
        assert!(cached.cache_hits > 0, "hot hubs must hit the cache");
        assert!(
            cached.counters.total_network_bytes() < base.counters.total_network_bytes(),
            "cache must cut traffic: {} vs {}",
            cached.counters.total_network_bytes(),
            base.counters.total_network_bytes()
        );
        assert!(cached.phases.feature_load < base.phases.feature_load);
        // Sampling is unaffected (same seeds, same blocks).
        assert!((cached.phases.sampling - base.phases.sampling).abs() < 1e-12);
    }

    #[test]
    fn larger_cache_never_hurts() {
        let (g, rnd, _, split) = setup(4);
        let traffic = |entries: u32| {
            let mut c = cfg(4, 64, 64, 2, ModelKind::Sage);
            c.feature_cache_entries = entries;
            healthy(&DistDglEngine::builder(&g, &rnd, &split).config(c).build().unwrap(), 0)
                .counters
                .total_network_bytes()
        };
        let t0 = traffic(0);
        let t50 = traffic(50);
        let t400 = traffic(400);
        assert!(t50 <= t0);
        assert!(t400 <= t50);
    }

    fn crash_plan(machine: u32, epoch: u32, step_frac: f64) -> FaultPlan {
        FaultPlan {
            events: vec![gp_cluster::FaultEvent::Crash { machine, epoch, step_frac }],
            machines: 4,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        }
    }

    #[test]
    fn empty_plan_bit_identical_to_baseline() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 64, 64, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let base = healthy(&e, 0);
        let faulty = faulty(&e, 1, &FaultPlan::empty()).0.remove(0);
        assert_eq!(faulty.summary.steps, base.steps);
        assert_eq!(faulty.summary.phases, base.phases);
        assert_eq!(faulty.summary.counters, base.counters);
        assert_eq!(faulty.summary.total_input_vertices, base.total_input_vertices);
        assert_eq!(faulty.summary.total_remote_vertices, base.total_remote_vertices);
        assert_eq!(faulty.summary.cache_hits, base.cache_hits);
        assert_eq!(faulty.summary.mean_input_balance, base.mean_input_balance);
        assert_eq!(faulty.summary.mean_time_balance, base.mean_time_balance);
        assert_eq!(faulty.recovery, RecoveryReport::default());
        assert!(faulty.failed_workers.is_empty());
    }

    #[test]
    fn same_plan_identical_results() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let plan = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 6, 2.0, 0xfa11));
        let (a, b) = (faulty(&e, 6, &plan).0, faulty(&e, 6, &plan).0);
        assert_eq!(a.len(), 6);
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.summary.phases, b.summary.phases);
            assert_eq!(a.summary.counters, b.summary.counters);
            assert_eq!(a.recovery, b.recovery);
            assert_eq!(a.failed_workers, b.failed_workers);
        }
    }

    #[test]
    fn crash_redistributes_training_set() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let plan = crash_plan(2, 1, 0.5);
        let crashed_train = e.store().local_train_vertices(2).len() as u64;
        assert!(crashed_train > 0, "test premise: worker 2 owns training vertices");

        let run = faulty(&e, 3, &plan).0;
        let at_crash = &run[1];
        assert_eq!(at_crash.failed_workers, vec![2]);
        assert_eq!(at_crash.recovery.crashes, 1);
        assert_eq!(at_crash.recovery.redistributed_train_vertices, crashed_train);
        assert_eq!(at_crash.recovery.reexecuted_steps, 1);
        assert!(at_crash.recovery.reexecution_seconds > 0.0);
        assert!(at_crash.recovery.recovery_bytes > 0, "feature shard must be re-served");

        // The epoch after the crash runs on survivors only; the epoch is
        // no shorter (the straggler rule gates on the survivors' larger
        // shares) and every training vertex is still covered.
        let after = &run[2];
        assert_eq!(after.failed_workers, vec![2]);
        assert_eq!(after.recovery.crashes, 0, "no new crash in epoch 2");
        let healthy = healthy(&e, 2);
        assert!(after.summary.steps >= healthy.steps);
        let degraded = e.store().with_failed(&[2]).unwrap();
        let total: usize = (0..4).map(|w| degraded.local_train_vertices(w).len()).sum();
        assert_eq!(total, split.train.len());
    }

    #[test]
    fn degradation_adds_retries_and_time() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 64, 64, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::Degradation {
                from_epoch: 0,
                until_epoch: 1,
                bandwidth_factor: 0.25,
                loss_rate: 0.1,
            }],
            machines: 4,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        let base = healthy(&e, 0);
        let run = faulty(&e, 4, &plan).0;
        let faulty = &run[0];
        assert!(faulty.recovery.retries > 0);
        assert!(faulty.recovery.retry_seconds > 0.0);
        assert!(faulty.summary.phases.sampling > base.phases.sampling);
        assert!(faulty.summary.phases.feature_load > base.phases.feature_load);
        // Same blocks sampled — the degradation changes time, not work.
        assert_eq!(faulty.summary.total_input_vertices, base.total_input_vertices);
        // Out of the window: identical to baseline.
        assert_eq!(run[3].summary.phases, healthy(&e, 3).phases);
    }

    #[test]
    fn slowdown_stretches_straggler_phases() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 64, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::Slowdown {
                machine: 1,
                from_epoch: 0,
                until_epoch: 2,
                factor: 0.25,
            }],
            machines: 4,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        let base = healthy(&e, 0);
        let faulty = faulty(&e, 1, &plan).0.remove(0);
        assert!(faulty.summary.phases.forward > base.phases.forward);
        assert!(faulty.summary.mean_time_balance > base.mean_time_balance);
        assert!(faulty.recovery.retries == 0, "slowdown alone causes no retries");
    }

    #[test]
    fn all_workers_crashed_is_worker_failed() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 16, 16, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let plan = FaultPlan {
            events: (0..4)
                .map(|m| gp_cluster::FaultEvent::Crash {
                    machine: m,
                    epoch: 1,
                    step_frac: 0.1 * f64::from(m),
                })
                .collect(),
            machines: 4,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        };
        let (done, error) = faulty(&e, 3, &plan);
        assert_eq!(done.len(), 1, "the run truncates at the crash epoch");
        assert!(matches!(error, Some(DistDglError::WorkerFailed { .. })));
        // Later epochs see all workers dead from the start (the run
        // stops at the first failure, so price epoch 2 on its own).
        assert!(matches!(e.faulty_epoch(2, &plan, None), Err(DistDglError::WorkerFailed { .. })));
    }

    #[test]
    fn recovery_budget_enforced() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 16, 16, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let mut plan = crash_plan(1, 0, 0.5);
        plan.recovery_budget_secs = 1e-12;
        assert!(matches!(
            faulty(&e, 1, &plan).1,
            Some(DistDglError::RecoveryBudgetExceeded { .. })
        ));
    }

    fn slowdown_plan(machine: u32, factor: f64, from: u32, until: u32) -> FaultPlan {
        FaultPlan {
            events: vec![gp_cluster::FaultEvent::Slowdown {
                machine,
                from_epoch: from,
                until_epoch: until,
                factor,
            }],
            machines: 4,
            epochs: 10,
            recovery_budget_secs: f64::INFINITY,
        }
    }

    #[test]
    fn steal_equalisation_solves_the_fluid_model() {
        // One helper idle at t=1, straggler with 4s of backlog, helper
        // 2x faster: T = (4 + 2*1)/(1 + 2) = 2.
        let (t, m) = steal_equalized_time(4.0, &[1.0], 2.0).unwrap();
        assert_eq!(m, 1);
        assert!((t - 2.0).abs() < 1e-12);
        // A helper that would only go idle after the equalised finish
        // time stays out of the solution.
        let (t, m) = steal_equalized_time(4.0, &[1.0, 3.0], 2.0).unwrap();
        assert_eq!(m, 1, "late helper must not join");
        assert!((t - 2.0).abs() < 1e-12);
        // Two early helpers both join.
        let (t2, m2) = steal_equalized_time(4.0, &[0.5, 1.0], 2.0).unwrap();
        assert_eq!(m2, 2);
        assert!((t2 - (4.0 + 2.0 * 1.5) / 5.0).abs() < 1e-12);
        assert!(steal_equalized_time(4.0, &[], 2.0).is_none());
    }

    #[test]
    fn mitigation_with_empty_plan_bit_identical() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 64, 64, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let base = healthy(&e, 0);
        let mit = mitigated(&e, 1, &FaultPlan::empty(), MitigationPolicy::all()).remove(0);
        assert_eq!(mit.summary.phases, base.phases);
        assert_eq!(mit.summary.counters, base.counters);
        assert_eq!(mit.mitigation, MitigationReport::default());
        assert_eq!(mit.recovery, RecoveryReport::default());
        assert!(mit.failed_workers.is_empty());
    }

    #[test]
    fn mitigation_policy_none_matches_plain_fault_path() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        for plan in [slowdown_plan(1, 0.25, 0, 3), crash_plan(2, 1, 0.5)] {
            let plain = faulty(&e, 4, &plan).0;
            let none = mitigated(&e, 4, &plan, MitigationPolicy::none());
            assert_eq!(none.len(), 4);
            for (none, plain) in none.iter().zip(&plain) {
                let (a, b) = (none.summary.epoch_time(), plain.summary.epoch_time());
                assert_eq!(a.to_bits(), b.to_bits());
                assert_eq!(none.summary.phases, plain.summary.phases);
                assert_eq!(none.summary.counters, plain.summary.counters);
                assert_eq!(none.recovery, plain.recovery);
                assert_eq!(none.failed_workers, plain.failed_workers);
                assert_eq!(none.mitigation, MitigationReport::default());
                assert_eq!(plain.mitigation, MitigationReport::default());
            }
            // DistDGL has no adaptive cd-r: the adaptive-only policy also
            // falls through to the plain path.
            let adaptive = mitigated(&e, 2, &plan, MitigationPolicy::adaptive());
            assert_eq!(adaptive[1].summary.phases, plain[1].summary.phases);
        }
    }

    /// What the fixed-fleet fault leg shares with the scenario driver:
    /// without crashes or churn, both price the same steps and retries
    /// (crash recovery differs, see DESIGN.md).
    #[test]
    fn crash_free_faulty_run_equals_the_empty_churn_elastic_run() {
        let (g, rnd, _, split) = setup(4);
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let spec = gp_cluster::FaultSpec {
            crash_mtbf_epochs: 0.0,
            ..gp_cluster::FaultSpec::standard(4, 10, 2.0, 2)
        };
        let plan = FaultPlan::generate(&spec);
        let (fixed, error) = faulty(&e, 10, &plan);
        assert!(error.is_none(), "{error:?}");
        let ckpt = CheckpointConfig::default();
        let run = elastic(&e, 10, &plan, &ChurnPlan::empty(), ckpt, ElasticOptions::default());
        assert_eq!(run.completed_epochs, 10);
        let mut recovery = RecoveryReport::default();
        let mut total = 0.0;
        for (f, &secs) in fixed.iter().zip(&run.epoch_seconds) {
            assert_eq!(f.summary.epoch_time().to_bits(), secs.to_bits());
            recovery.merge(&f.recovery);
            total += f.summary.epoch_time() + f.recovery.total_overhead_seconds();
        }
        assert!(recovery.retries > 0, "the plan drops messages");
        assert_eq!(recovery.retries, run.recovery.retries);
        assert_eq!(recovery.checkpoints, run.recovery.checkpoints);
        assert!((total - run.total_seconds()).abs() <= 1e-12 * total);
    }

    #[test]
    fn work_stealing_rescues_straggler_epochs() {
        let (g, rnd, _, split) = setup(4);
        let mut c = cfg(4, 64, 128, 2, ModelKind::Sage);
        c.global_batch_size = 32; // many steps per epoch: room to detect and react
        let e = DistDglEngine::builder(&g, &rnd, &split).config(c).build().unwrap();
        let plan = slowdown_plan(1, 0.25, 1, 6);
        let mut session = e.mitigation(MitigationPolicy::steal()).expect("steal arms a session");
        let mut unmit_total = 0.0;
        let mut mit_total = 0.0;
        let mut report = MitigationReport::default();
        // The session's detector is inspected below, so this drives the
        // `Faulty` leg of `run` epoch by epoch.
        for epoch in 0..6 {
            unmit_total += e.faulty_epoch(epoch, &plan, None).unwrap().summary.epoch_time();
            let mit = e.faulty_epoch(epoch, &plan, Some(&mut session)).unwrap();
            mit_total += mit.summary.epoch_time();
            report.merge(&mit.mitigation);
        }
        assert!(report.stolen_steps > 0, "flagged straggler must be stolen from");
        assert!(report.stolen_bytes > 0, "stolen inputs pay remote fetches");
        assert!(
            mit_total < unmit_total,
            "stealing must cut epoch time: {mit_total} vs {unmit_total}"
        );
        // Slowdown-only plans execute the same steps in both runs, so
        // the bookkept savings equal the epoch-time difference exactly.
        assert!((unmit_total - mit_total - report.time_saved_secs).abs() < 1e-9);
        assert_eq!(session.detector.stragglers(), vec![1], "detector tracks the slow worker");
    }

    #[test]
    fn speculation_beats_the_deadline() {
        let (g, rnd, _, split) = setup(4);
        let mut c = cfg(4, 64, 128, 2, ModelKind::Sage);
        c.global_batch_size = 32;
        let e = DistDglEngine::builder(&g, &rnd, &split).config(c).build().unwrap();
        let plan = slowdown_plan(1, 0.25, 1, 6);
        let mut unmit_total = 0.0;
        for r in faulty(&e, 6, &plan).0 {
            unmit_total += r.summary.epoch_time();
        }
        let mut mit_total = 0.0;
        let mut report = MitigationReport::default();
        for mit in mitigated(&e, 6, &plan, MitigationPolicy::speculate()) {
            mit_total += mit.summary.epoch_time();
            report.merge(&mit.mitigation);
        }
        assert!(report.speculated_steps > 0, "deadline violations must trigger backups");
        assert_eq!(
            report.speculation_wins, report.speculated_steps,
            "backups are only launched when the model predicts a win"
        );
        assert!(report.speculation_bytes > 0);
        assert!(report.speculation_wasted_secs > 0.0, "the loser's work is wasted");
        assert!(
            mit_total < unmit_total,
            "speculation must cut epoch time: {mit_total} vs {unmit_total}"
        );
        assert_eq!(report.stolen_steps, 0, "stealing is off under this policy");
    }

    #[test]
    fn mitigated_never_worse_and_deterministic() {
        let (g, rnd, _, split) = setup(4);
        let mut c = cfg(4, 32, 64, 2, ModelKind::Sage);
        c.global_batch_size = 64;
        let e = DistDglEngine::builder(&g, &rnd, &split).config(c).build().unwrap();
        let plan = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 8, 4.0, 0xfa11));
        let spec =
            RunSpec::healthy().epochs(8).faults(plan.clone()).mitigate(MitigationPolicy::all());
        let (a, error_a) = e.run(&spec).unwrap().into_faulty();
        let (b, error_b) = e.run(&spec).unwrap().into_faulty();
        assert_eq!(format!("{error_a:?}"), format!("{error_b:?}"), "runs must agree on success");
        assert_eq!(a.len(), b.len());
        let unmit = faulty(&e, 8, &plan).0;
        for (epoch, (a, b)) in a.iter().zip(&b).enumerate() {
            assert_eq!(a.summary.phases, b.summary.phases);
            assert_eq!(a.summary.counters, b.summary.counters);
            assert_eq!(a.mitigation, b.mitigation);
            assert_eq!(a.failed_workers, b.failed_workers);
            if let Some(u) = unmit.get(epoch) {
                assert!(
                    a.summary.epoch_time() <= u.summary.epoch_time() + 1e-9,
                    "epoch {epoch}: mitigated {} > unmitigated {}",
                    a.summary.epoch_time(),
                    u.summary.epoch_time()
                );
            }
        }
    }

    #[test]
    fn balances_reported() {
        let (g, rnd, _, split) = setup(4);
        let e = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 16, 16, 2, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        assert!(e.mean_input_balance >= 1.0);
        assert!(e.mean_time_balance >= 1.0);
        assert!(e.steps > 0);
    }

    #[test]
    fn builder_requires_model_and_cluster() {
        // Model and cluster arrive together in the mandatory config.
        let (g, rnd, _, split) = setup(4);
        assert!(matches!(
            DistDglEngine::builder(&g, &rnd, &split).build(),
            Err(DistDglError::InvalidConfig(_))
        ));
        let c = cfg(4, 16, 16, 2, ModelKind::Sage);
        let e = DistDglEngine::builder(&g, &rnd, &split).config(c.clone()).build().unwrap();
        assert_eq!(e.config().fanouts, c.fanouts);
    }

    /// The load-bearing invariant: per-worker, per-phase span-duration
    /// sums equal the epoch's reported phase totals *exactly* (`==` on
    /// f64) — the spans record the same gated window values the epoch
    /// accumulator sums, in the same order.
    fn assert_span_accounting(sink: &TraceSink, k: u32, phases: &StepPhases) {
        for w in 0..k {
            assert_eq!(
                sink.worker_phase_seconds(w, TracePhase::Sampling),
                phases.sampling,
                "worker {w} sampling"
            );
            assert_eq!(
                sink.worker_phase_seconds(w, TracePhase::FeatureLoad),
                phases.feature_load,
                "worker {w} feature_load"
            );
            assert_eq!(
                sink.worker_phase_seconds(w, TracePhase::Forward),
                phases.forward,
                "worker {w} forward"
            );
            assert_eq!(
                sink.worker_phase_seconds(w, TracePhase::Backward),
                phases.backward,
                "worker {w} backward"
            );
            assert_eq!(
                sink.worker_phase_seconds(w, TracePhase::Update),
                phases.update,
                "worker {w} update"
            );
        }
    }

    #[test]
    fn healthy_span_sums_equal_phase_totals() {
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .trace(sink.clone())
            .build()
            .unwrap();
        let summary = healthy(&e, 0);
        assert_span_accounting(&sink, 4, &summary.phases);
        // Five phase spans per worker per step, and the traffic counter
        // tracks alongside.
        assert_eq!(sink.spans().len(), summary.steps * 4 * 5);
        assert!(sink.spans().iter().all(|s| s.epoch == 0));
        assert!(!sink.counters().is_empty());
    }

    #[test]
    fn tracing_leaves_summaries_bit_identical() {
        let (g, rnd, _, split) = setup(4);
        let c = cfg(4, 32, 32, 2, ModelKind::Sage);
        let plain = DistDglEngine::builder(&g, &rnd, &split).config(c.clone()).build().unwrap();
        let traced = DistDglEngine::builder(&g, &rnd, &split)
            .config(c)
            .trace(TraceSink::enabled())
            .build()
            .unwrap();
        let a = healthy(&plain, 0);
        let b = healthy(&traced, 0);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.counters, b.counters);
        let plan = crash_plan(2, 1, 0.5);
        let (runs_a, runs_b) = (faulty(&plain, 3, &plan).0, faulty(&traced, 3, &plan).0);
        assert_eq!(runs_a.len(), 3);
        for (fa, fb) in runs_a.iter().zip(&runs_b) {
            assert_eq!(fa.summary.phases, fb.summary.phases);
            assert_eq!(fa.summary.counters, fb.summary.counters);
            assert_eq!(fa.recovery, fb.recovery);
        }
        let slow = slowdown_plan(1, 0.25, 0, 4);
        let mit_a = mitigated(&plain, 4, &slow, MitigationPolicy::all());
        let mit_b = mitigated(&traced, 4, &slow, MitigationPolicy::all());
        assert_eq!(mit_a.len(), 4);
        for (ma, mb) in mit_a.iter().zip(&mit_b) {
            assert_eq!(ma.summary.phases, mb.summary.phases);
            assert_eq!(ma.summary.counters, mb.summary.counters);
            assert_eq!(ma.mitigation, mb.mitigation);
        }
    }

    #[test]
    fn faulty_span_sums_equal_phase_totals() {
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .trace(sink.clone())
            .build()
            .unwrap();
        let plan = crash_plan(2, 1, 0.5);
        for epoch in 0..3 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let faulty = e.faulty_epoch(epoch, &plan, None).unwrap();
            assert_span_accounting(&sink, 4, &faulty.summary.phases);
            let recovery_spans: Vec<Span> =
                sink.spans().into_iter().filter(|s| s.phase == TracePhase::Recovery).collect();
            if epoch == 1 {
                assert!(!recovery_spans.is_empty(), "crash must record recovery spans");
                for s in &recovery_spans {
                    // The single restore transfer occupies the whole
                    // window on every receiving survivor.
                    assert_eq!(s.dur, faulty.recovery.restore_seconds);
                    assert_eq!(s.epoch, 1);
                    assert!(s.bytes > 0);
                }
                let moved: u64 = recovery_spans.iter().map(|s| s.bytes).sum();
                assert_eq!(moved, faulty.recovery.recovery_bytes);
            } else {
                assert!(recovery_spans.is_empty(), "no crash in epoch {epoch}");
            }
        }
    }

    #[test]
    fn mitigated_span_sums_equal_phase_totals() {
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let mut c = cfg(4, 64, 128, 2, ModelKind::Sage);
        c.global_batch_size = 32;
        let e =
            DistDglEngine::builder(&g, &rnd, &split).config(c).trace(sink.clone()).build().unwrap();
        let plan = slowdown_plan(1, 0.25, 1, 6);
        let mut session = e.mitigation(MitigationPolicy::steal()).expect("steal arms a session");
        let mut stolen = 0;
        for epoch in 0..6 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let mit = e.faulty_epoch(epoch, &plan, Some(&mut session)).unwrap();
            assert_span_accounting(&sink, 4, &mit.summary.phases);
            if mit.mitigation.stolen_steps > 0 {
                assert!(
                    sink.counters().iter().any(|ev| ev.name == "stolen_bytes"),
                    "adopted steals must leave a counter event"
                );
            }
            stolen += mit.mitigation.stolen_steps;
        }
        assert!(stolen > 0, "test premise: stealing must trigger");
    }

    /// The metrics-registry analogue of `assert_span_accounting`: the
    /// per-worker, per-phase histogram mass of a single-epoch snapshot
    /// must equal the engine's reported phase totals exactly.
    fn assert_metrics_accounting(sink: &TraceSink, k: u32, phases: &StepPhases) {
        let snap = gp_cluster::MetricsSnapshot::from_sink(sink);
        for w in 0..k {
            assert_eq!(
                snap.phase_seconds(w, TracePhase::Sampling),
                phases.sampling,
                "worker {w} sampling mass"
            );
            assert_eq!(
                snap.phase_seconds(w, TracePhase::FeatureLoad),
                phases.feature_load,
                "worker {w} feature_load mass"
            );
            assert_eq!(
                snap.phase_seconds(w, TracePhase::Forward),
                phases.forward,
                "worker {w} forward mass"
            );
            assert_eq!(
                snap.phase_seconds(w, TracePhase::Backward),
                phases.backward,
                "worker {w} backward mass"
            );
            assert_eq!(
                snap.phase_seconds(w, TracePhase::Update),
                phases.update,
                "worker {w} update mass"
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
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .trace(sink.clone())
            .build()
            .unwrap();
        let summary = healthy(&e, 0);
        assert_metrics_accounting(&sink, 4, &summary.phases);
        // Healthy path pins exactly the cumulative traffic counters.
        assert_eq!(
            counter_name_set(&sink),
            vec![counter_names::BYTES_RECEIVED, counter_names::BYTES_SENT]
        );
    }

    #[test]
    fn metrics_mass_equals_phase_totals_faulty() {
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let e = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .trace(sink.clone())
            .build()
            .unwrap();
        let plan = crash_plan(2, 1, 0.5);
        for epoch in 0..3 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let faulty = e.faulty_epoch(epoch, &plan, None).unwrap();
            assert_metrics_accounting(&sink, 4, &faulty.summary.phases);
            // Per-path counter pinning: the crash epoch adds exactly the
            // recovery counter (one sample per receiving survivor).
            let mut expect = vec![counter_names::BYTES_RECEIVED, counter_names::BYTES_SENT];
            if epoch == 1 {
                expect.push(counter_names::RECOVERY_BYTES);
            }
            expect.sort_unstable();
            assert_eq!(counter_name_set(&sink), expect, "epoch {epoch}");
            if epoch == 1 {
                let rec: f64 = sink
                    .counters()
                    .iter()
                    .filter(|ev| ev.name == counter_names::RECOVERY_BYTES)
                    .map(|ev| ev.value)
                    .sum();
                assert_eq!(rec, faulty.recovery.recovery_bytes as f64);
            }
        }
    }

    #[test]
    fn metrics_mass_equals_phase_totals_mitigated() {
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let mut c = cfg(4, 64, 128, 2, ModelKind::Sage);
        c.global_batch_size = 32;
        let e =
            DistDglEngine::builder(&g, &rnd, &split).config(c).trace(sink.clone()).build().unwrap();
        let plan = slowdown_plan(1, 0.25, 1, 6);
        let mut session = e.mitigation(MitigationPolicy::steal()).expect("steal arms a session");
        let mut stolen = 0;
        for epoch in 0..6 {
            // Per-epoch accounting: run's epoch leg, sink cleared in between.
            sink.clear();
            let mit = e.faulty_epoch(epoch, &plan, Some(&mut session)).unwrap();
            assert_metrics_accounting(&sink, 4, &mit.summary.phases);
            // Per-path counter pinning: the steal policy adds exactly
            // the stolen-bytes counter on adopting epochs.
            let mut expect = vec![counter_names::BYTES_RECEIVED, counter_names::BYTES_SENT];
            if mit.mitigation.stolen_steps > 0 {
                expect.push(counter_names::STOLEN_BYTES);
                stolen += mit.mitigation.stolen_steps;
            }
            expect.sort_unstable();
            assert_eq!(counter_name_set(&sink), expect, "epoch {epoch}");
        }
        assert!(stolen > 0, "test premise: stealing must trigger");
    }

    #[test]
    fn same_seed_traces_are_identical() {
        let (g, rnd, _, split) = setup(4);
        let run = || {
            let sink = TraceSink::enabled();
            let e = DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 32, 32, 2, ModelKind::Sage))
                .trace(sink.clone())
                .build()
                .unwrap();
            healthy(&e, 0);
            sink.spans()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_outcome_trait_unifies_summary() {
        let (g, rnd, _, split) = setup(4);
        let summary = healthy(
            &DistDglEngine::builder(&g, &rnd, &split)
                .config(cfg(4, 32, 32, 2, ModelKind::Sage))
                .build()
                .unwrap(),
            0,
        );
        let outcome: &dyn EpochOutcome = &summary;
        assert_eq!(outcome.epoch_time(), summary.phases.total());
        assert_eq!(outcome.total_bytes(), summary.counters.total_network_bytes());
        let breakdown = outcome.phase_breakdown();
        assert_eq!(breakdown.len(), 5);
        assert_eq!(breakdown[0], ("sampling", summary.phases.sampling));
        assert_eq!(breakdown[1], ("feature_load", summary.phases.feature_load));
        let total: f64 = breakdown.iter().map(|(_, s)| s).sum();
        assert!((total - summary.epoch_time()).abs() < 1e-12);
    }

    // ---- Elastic membership ----

    fn churn_spec(epochs: u32) -> gp_cluster::ChurnSpec {
        gp_cluster::ChurnSpec {
            machines: 4,
            epochs,
            leave_prob: 0.08,
            rejoin_prob: 0.3,
            min_live: 2,
            seed: 0xe1a5,
        }
    }

    fn elastic_eng<'a>(g: &'a Graph, p: &VertexPartition, s: &VertexSplit) -> DistDglEngine<'a> {
        DistDglEngine::builder(g, p, s).config(cfg(4, 64, 64, 2, ModelKind::Sage)).build().unwrap()
    }

    #[test]
    fn elastic_with_no_churn_or_faults_is_the_healthy_run() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let healthy: Vec<f64> = eng
            .run(&RunSpec::healthy().epochs(5))
            .unwrap()
            .into_healthy()
            .iter()
            .map(|s| s.epoch_time())
            .collect();
        let run = elastic(
            &eng,
            5,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            CheckpointConfig::default(),
            ElasticOptions::default(),
        );
        assert_eq!(run.completed_epochs, 5);
        for (e, &t) in run.epoch_seconds.iter().enumerate() {
            assert_eq!(t, healthy[e], "stable-fleet epoch {e} is bit-identical to healthy");
        }
        assert_eq!(run.recovery, RecoveryReport::default());
        assert_eq!(run.leaves + run.joins + run.handoffs + run.rebalances, 0);
        assert_eq!(run.handoff_seconds, 0.0);
        for live in &run.live_workers {
            assert_eq!(live.len(), 4);
        }
    }

    #[test]
    fn elastic_run_is_deterministic() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 12, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(12));
        let ckpt = CheckpointConfig::periodic(4);
        let a = elastic(&eng, 12, &faults, &churn, ckpt, ElasticOptions::default());
        let b = elastic(&eng, 12, &faults, &churn, ckpt, ElasticOptions::default());
        assert_eq!(a, b, "elastic runs replay bit-identically");
        assert!(a.leaves > 0, "premise: the schedule actually churns");
    }

    #[test]
    fn graceful_handoff_beats_the_crash_baseline() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 16, 8.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(16));
        let ckpt = CheckpointConfig::periodic(4);
        let graceful = elastic(&eng, 16, &faults, &churn, ckpt, ElasticOptions::default());
        let baseline = elastic(&eng, 16, &faults, &churn, ckpt, ElasticOptions::no_handoff());
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
        assert!(baseline.recovery.restore_seconds > graceful.recovery.restore_seconds);
    }

    // ---- Partitioned runs (network fault model) ----

    fn net_spec(epochs: u32) -> gp_cluster::NetFaultSpec {
        gp_cluster::NetFaultSpec {
            partition_prob: 0.15,
            ..gp_cluster::NetFaultSpec::standard(4, epochs, 0x7a57_11e7)
        }
    }

    #[test]
    fn partitioned_with_empty_net_plan_is_the_elastic_run() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 12, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(12));
        let ckpt = CheckpointConfig::periodic(4);
        let plain = elastic(&eng, 12, &faults, &churn, ckpt, ElasticOptions::default());
        let part = partitioned(
            &eng,
            12,
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
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 12, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(12));
        let net = NetFaultPlan::generate(&net_spec(12));
        let ckpt = CheckpointConfig::periodic(4);
        let run = |_| partitioned(&eng, 12, &faults, &churn, &net, ckpt, NetRunOptions::default());
        let a = run(());
        let b = run(());
        assert_eq!(a, b, "partitioned runs replay bit-identically");
        assert!(a.net.windows > 0, "premise: the schedule actually partitions");
        assert!(a.net.noise.delivered > 0, "premise: noisy flows were charged");
        assert!(a.net.exactly_once(), "dedup must make delivery exactly-once-effective");
    }

    #[test]
    fn degraded_mode_never_worse_than_abort_baseline() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 16, 8.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(16));
        let net = NetFaultPlan::generate(&net_spec(16));
        let ckpt = CheckpointConfig::periodic(4);
        let degraded = partitioned(&eng, 16, &faults, &churn, &net, ckpt, NetRunOptions::default());
        let abort = partitioned(&eng, 16, &faults, &churn, &net, ckpt, NetRunOptions::abort_only());
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
            assert!(
                degraded.net.deferred_fetches > 0,
                "degraded epochs defer minority fetches to the cache"
            );
        }
    }

    #[test]
    fn noise_only_plan_keeps_training_progress_and_charges_transport() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let net = NetFaultPlan::generate(&gp_cluster::NetFaultSpec {
            partition_prob: 0.0,
            loss_prob: 0.1,
            dup_prob: 0.1,
            ..gp_cluster::NetFaultSpec::standard(4, 8, 0xb0)
        });
        assert!(net.windows.is_empty());
        let ckpt = CheckpointConfig::periodic(4);
        let plain = elastic(
            &eng,
            8,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            ckpt,
            ElasticOptions::default(),
        );
        let noisy = partitioned(
            &eng,
            8,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            &net,
            ckpt,
            NetRunOptions::default(),
        );
        // Noise rides on top of the same schedule: epochs are untouched,
        // the transport overhead is strictly positive and separable.
        assert_eq!(noisy.elastic, plain);
        assert!(noisy.net.noise.retries > 0, "10% loss over many messages must retry");
        assert!(noisy.net.noise.extra_secs > 0.0);
        assert!(noisy.net.exactly_once());
        assert_eq!(noisy.total_seconds(), plain.total_seconds() + noisy.net.overhead_seconds());
    }

    #[test]
    fn elastic_restore_detects_corrupt_snapshots() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        // One ungraceful leave at epoch 6; snapshots at 1, 3, 5.
        let churn = ChurnPlan {
            events: vec![gp_cluster::ChurnEvent::Leave { worker: 0, epoch: 6 }],
            machines: 4,
            epochs: 8,
        };
        let ckpt = CheckpointConfig::periodic(2);
        let clean =
            elastic(&eng, 8, &FaultPlan::empty(), &churn, ckpt, ElasticOptions::no_handoff());
        assert_eq!(clean.recovery.corrupted_checkpoints, 0);
        assert_eq!(clean.recovery.crashes, 1);
        // Corrupt worker 0's newest snapshot (epoch 5): the restore
        // detects it by checksum, walks back to epoch 3's snapshot and
        // pays the wasted read — never a silent bad restore.
        let corrupt_plan = FaultPlan {
            events: vec![gp_cluster::FaultEvent::CheckpointCorruption { machine: 0, epoch: 5 }],
            machines: 4,
            epochs: 8,
            recovery_budget_secs: f64::INFINITY,
        };
        let corrupt = elastic(&eng, 8, &corrupt_plan, &churn, ckpt, ElasticOptions::no_handoff());
        assert_eq!(corrupt.recovery.corrupted_checkpoints, 1);
        assert!(corrupt.recovery.recovery_bytes > clean.recovery.recovery_bytes);
        assert!(corrupt.recovery.restore_seconds > clean.recovery.restore_seconds);
    }

    #[test]
    fn elastic_rejoin_restores_the_pristine_layout() {
        let (g, rnd, _, split) = setup(4);
        let eng = elastic_eng(&g, &rnd, &split);
        let churn = ChurnPlan {
            events: vec![
                gp_cluster::ChurnEvent::Leave { worker: 3, epoch: 1 },
                gp_cluster::ChurnEvent::Join { worker: 3, epoch: 3 },
            ],
            machines: 4,
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
        let healthy = elastic(
            &eng,
            10,
            &FaultPlan::empty(),
            &ChurnPlan::empty(),
            CheckpointConfig::default(),
            ElasticOptions::default(),
        );
        assert_eq!(run.leaves, 1);
        assert_eq!(run.joins, 1);
        assert_eq!(run.handoffs, 1);
        assert_eq!(run.live_workers[1], vec![0, 1, 2]);
        assert!(run.live_workers[3].contains(&3));
        assert_eq!(run.live_workers.last().unwrap().len(), 4);
        // While worker 3 is away its training share rides on the
        // survivors, so the straggler-gated epochs run slower.
        for e in 1..3 {
            assert!(
                run.epoch_seconds[e] > healthy.epoch_seconds[e],
                "degraded epoch {e}: {} <= {}",
                run.epoch_seconds[e],
                healthy.epoch_seconds[e]
            );
        }
        // The rejoin returns exactly the pristine shard, so from the
        // join onward the run is bit-identical to the never-churned one.
        for e in 3..10 {
            assert_eq!(
                run.epoch_seconds[e], healthy.epoch_seconds[e],
                "post-rejoin epoch {e} drifts from the pristine layout"
            );
        }
        // The join reloaded its shard (no snapshots configured → raw
        // input files + parameter re-fetch), never silently for free.
        assert!(run.recovery.recovery_bytes > 0);
        assert!(run.recovery.restore_seconds > 0.0);
    }

    #[test]
    fn elastic_traced_report_is_identical_and_spans_cover_events() {
        let (g, rnd, _, split) = setup(4);
        let faults = FaultPlan::generate(&gp_cluster::FaultSpec::standard(4, 12, 6.0, 0xfa11));
        let churn = ChurnPlan::generate(&churn_spec(12));
        let ckpt = CheckpointConfig::periodic(4);
        let untraced = elastic(
            &elastic_eng(&g, &rnd, &split),
            12,
            &faults,
            &churn,
            ckpt,
            ElasticOptions::default(),
        );
        let sink = TraceSink::enabled();
        let traced_eng = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 64, 64, 2, ModelKind::Sage))
            .trace(sink.clone())
            .build()
            .unwrap();
        let traced = elastic(&traced_eng, 12, &faults, &churn, ckpt, ElasticOptions::default());
        assert_eq!(traced, untraced, "tracing never feeds back into the run");
        let spans = sink.spans();
        assert!(spans.iter().any(|s| s.phase == TracePhase::Migration));
        assert!(spans.iter().any(|s| s.phase == TracePhase::Checkpoint));
        // Per-epoch, per-worker span sums reproduce the recorded phase
        // totals exactly for workers live through the whole run.
        let snap = gp_cluster::MetricsSnapshot::from_sink(&sink);
        let always_live: Vec<u32> =
            (0..4).filter(|w| traced.live_workers.iter().all(|l| l.contains(w))).collect();
        assert!(!always_live.is_empty(), "premise: someone survives the whole soak");
        for &w in &always_live {
            for (i, phase) in [
                TracePhase::Sampling,
                TracePhase::FeatureLoad,
                TracePhase::Forward,
                TracePhase::Backward,
                TracePhase::Update,
            ]
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
            inserts_per_batch: 64,
            deletes_per_batch: 32,
            arrivals_per_batch: 6,
            edges_per_arrival: 3,
            seed,
        }
    }

    #[test]
    fn stream_run_reports_quality_per_batch() {
        let (g, rnd, _, split) = setup(4);
        let engine = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let spec = RunSpec::healthy().stream(stream_spec(4, 11), RepartitionPolicy::Never);
        let r = engine.run(&spec).unwrap().into_stream();
        assert_eq!(r.partitioner, "LDG");
        assert_eq!(r.policy, "never");
        assert_eq!(r.batches.len(), 4);
        assert_eq!(r.repartitions(), 0);
        for (i, b) in r.batches.iter().enumerate() {
            assert_eq!(b.batch, i as u32);
            assert!((0.0..=1.0).contains(&b.edge_cut), "cut ratio {}", b.edge_cut);
            assert!(b.balance >= 1.0);
            assert!(b.train_balance >= 1.0);
            assert!(b.epoch_seconds > 0.0);
            assert!(!b.repartitioned);
        }
        // Arrivals grow the snapshot but never join the training set,
        // so the per-batch train balance stays a statement about the
        // base split.
        assert!(r.batches.last().unwrap().num_vertices > g.num_vertices());
        let r2 = engine.run(&spec).unwrap().into_stream();
        assert_eq!(r, r2);
    }

    #[test]
    fn stream_threshold_no_worse_than_never_on_epoch_time() {
        let (g, rnd, _, split) = setup(4);
        let engine = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let spec = stream_spec(5, 3);
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
        let first = thresh.batches.iter().position(|b| b.repartitioned);
        for i in 0..first.unwrap_or(thresh.batches.len()) {
            assert_eq!(thresh.batches[i].epoch_seconds, never.batches[i].epoch_seconds);
        }
        if let Some(i) = first {
            assert!(thresh.batches[i].partition_seconds > 0.0);
            assert!(thresh.batches[i].edge_cut <= never.batches[i].edge_cut + 1e-12);
        }
    }

    #[test]
    fn stream_override_unknown_partitioner_and_trace() {
        let (g, rnd, _, split) = setup(4);
        let sink = TraceSink::enabled();
        let engine = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .trace(sink.clone())
            .build()
            .unwrap();
        let r = engine
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(3, 5), RepartitionPolicy::Periodic { every: 2 })
                    .stream_partitioner("Random"),
            )
            .unwrap()
            .into_stream();
        assert_eq!(r.partitioner, "Random");
        let counters = sink.counters();
        for name in [
            counter_names::STREAM_LIVE_EDGES,
            counter_names::STREAM_EDGE_CUT,
            counter_names::STREAM_BALANCE,
            counter_names::STREAM_TRAIN_BALANCE,
            counter_names::STREAM_REPARTITIONS,
            counter_names::STREAM_PARTITION_SECONDS,
        ] {
            assert_eq!(
                counters.iter().filter(|c| c.name == name).count(),
                r.batches.len(),
                "one {name} sample per batch"
            );
        }
        let n_migrations = sink.spans().iter().filter(|s| s.phase == TracePhase::Migration).count();
        assert_eq!(n_migrations as u32, r.repartitions());
        // HDRF is a vertex-cut partitioner — not valid for the edge-cut
        // engine.
        let err = engine
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(2, 5), RepartitionPolicy::Never)
                    .stream_partitioner("HDRF"),
            )
            .unwrap_err();
        assert!(matches!(err, DistDglError::InvalidConfig(_)));
        // Tracing is observational: an untraced engine reports the same.
        let bare = DistDglEngine::builder(&g, &rnd, &split)
            .config(cfg(4, 32, 32, 2, ModelKind::Sage))
            .build()
            .unwrap();
        let r2 = bare
            .run(
                &RunSpec::healthy()
                    .stream(stream_spec(3, 5), RepartitionPolicy::Periodic { every: 2 })
                    .stream_partitioner("Random"),
            )
            .unwrap()
            .into_stream();
        assert_eq!(r, r2);
    }
}
