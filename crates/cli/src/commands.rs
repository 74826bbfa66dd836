//! Command implementations.

use std::error::Error;
use std::fmt::{Display, Write as _};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use gp_cluster::{
    validate_fault_churn, CheckpointConfig, ChurnPlan, ElasticOptions, FaultPlan, FaultSpec,
    MetricsSnapshot, MitigationPolicy, MitigationReport, NetFaultPlan, NetRunOptions,
    RecoveryReport, RunSpec, TraceSink,
};
use gp_core::chaos::{chaos_bench_json, chaos_churn_spec, chaos_soak, chaos_table};
use gp_core::config::PaperParams;
use gp_core::diagnose::{diagnose_prometheus, diagnose_report, diagnose_run, diagnose_spec};
use gp_core::experiment::Timed;
use gp_core::family::{DistDgl, DistGnn, Family};
use gp_core::netchaos::{netchaos_bench_json, netchaos_net_spec, netchaos_soak, netchaos_table};
use gp_core::registry;
use gp_core::report::Table;
use gp_core::stream_sweep::{stream_bench_json, stream_policies, stream_sweep, stream_table};
use gp_core::trace_run::trace_run;
use gp_distgnn::DistGnnError;
use gp_exec::{par_map, Threads};
use gp_graph::{edgelist, DatasetId, DegreeStats, Graph, StreamSpec, VertexSplit};
use gp_partition::{EdgePartition, VertexPartition};
use gp_tensor::{ModelConfig, ModelKind};

use crate::args::{
    ChaosCmd, DiagnoseCmd, GenerateCmd, NetChaosCmd, PartitionCmd, RecommendCmd, SimulateCmd,
    StatsCmd, StreamCmd, TraceCmd,
};

type CmdResult = Result<(), Box<dyn Error>>;

/// `gnnpart generate`.
pub fn generate(cmd: GenerateCmd) -> CmdResult {
    let id = DatasetId::parse(&cmd.dataset)
        .ok_or_else(|| format!("unknown dataset {:?} (HW|DI|EN|EU|OR)", cmd.dataset))?;
    let graph = id.generate(cmd.scale)?;
    let out = cmd.out.unwrap_or_else(|| format!("{}.el", id.name().to_lowercase()).into());
    edgelist::write_edge_list_file(&graph, &out)?;
    println!(
        "{}: |V| = {}, |E| = {}, directed = {} -> {}",
        id.name(),
        graph.num_vertices(),
        graph.num_edges(),
        graph.is_directed(),
        out.display()
    );
    Ok(())
}

fn load(path: &Path, directed: bool) -> Result<Graph, Box<dyn Error>> {
    Ok(edgelist::read_edge_list_file(path, directed)?)
}

/// `gnnpart stats`.
pub fn stats(cmd: StatsCmd) -> CmdResult {
    let graph = load(&cmd.input, cmd.directed)?;
    let s = DegreeStats::compute(&graph);
    println!("vertices:      {}", graph.num_vertices());
    println!("edges:         {}", graph.num_edges());
    println!("directed:      {}", graph.is_directed());
    println!("mean degree:   {:.2}", s.mean);
    println!("median degree: {}", s.median);
    println!("max degree:    {}", s.max);
    println!("p99 degree:    {}", s.p99);
    println!("degree gini:   {:.3}", s.gini);
    println!("heavy tailed:  {}", s.is_heavy_tailed(5.0));
    if graph.num_vertices() > 0 {
        use gp_graph::algo;
        let (_, components) = algo::connected_components(&graph);
        println!("components:    {components}");
        println!("largest comp:  {}", algo::largest_component_size(&graph));
        // Seed the double sweep inside the largest component: vertex 0
        // may be isolated, whose eccentricity says nothing about the
        // graph's diameter.
        let seed = algo::largest_component_vertex(&graph).unwrap_or(0);
        println!("diameter >=:   {}", algo::diameter_lower_bound(&graph, seed));
        println!("clustering:    {:.4}", algo::clustering_coefficient(&graph, 500));
    }
    Ok(())
}

/// `gnnpart partition`.
pub fn partition(cmd: PartitionCmd) -> CmdResult {
    let graph = load(&cmd.input, cmd.directed)?;
    let start = std::time::Instant::now();
    // Try edge partitioners first, then vertex partitioners.
    if let Some(p) = registry::edge_partitioner(&cmd.algo) {
        let part = p.partition_edges(&graph, cmd.k, cmd.seed)?;
        let elapsed = start.elapsed();
        println!("edge partitioning (vertex-cut) with {} into {} parts", p.name(), cmd.k);
        println!("replication factor: {:.3}", part.replication_factor());
        println!("edge balance:       {:.3}", part.edge_balance());
        println!("vertex balance:     {:.3}", part.vertex_balance());
        println!("time:               {elapsed:.2?}");
        if let Some(out) = cmd.out {
            write_assignments(&out, part.assignments())?;
            println!("assignments (per edge, canonical order) -> {}", out.display());
        }
    } else if let Some(p) = registry::vertex_partitioner(&cmd.algo, None) {
        let part = p.partition_vertices(&graph, cmd.k, cmd.seed)?;
        let elapsed = start.elapsed();
        println!("vertex partitioning (edge-cut) with {} into {} parts", p.name(), cmd.k);
        println!("edge-cut ratio:  {:.4}", part.edge_cut_ratio());
        println!("vertex balance:  {:.3}", part.vertex_balance());
        println!("time:            {elapsed:.2?}");
        if let Some(out) = cmd.out {
            write_assignments(&out, part.assignments())?;
            println!("assignments (per vertex) -> {}", out.display());
        }
    } else {
        return Err(format!(
            "unknown partitioner {:?}; run `gnnpart list` for the roster",
            cmd.algo
        )
        .into());
    }
    Ok(())
}

fn write_assignments(path: &Path, assignments: &[u32]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for &a in assignments {
        writeln!(f, "{a}")?;
    }
    f.flush()
}

/// A command body for whichever engine family `--system` names.
trait Body {
    fn run<F: System>(self, family: &F) -> CmdResult;
}

/// Run `body` on the engine family `system` names, training `model` on
/// `graph`: the one place that maps `--system` to an engine. DistGNN
/// trains GraphSAGE only, so it rejects any other model here, before
/// anything is partitioned; DistDGL trains on the 10/10/80 split of
/// seed 42, which also seeds ByteGNN. `checkpoint_every` is DistGNN's
/// fixed-fleet checkpoint period.
fn on_family(
    system: &str,
    graph: &Graph,
    model: ModelConfig,
    checkpoint_every: u32,
    body: impl Body,
) -> CmdResult {
    match system {
        "distgnn" if model.kind != ModelKind::Sage => {
            Err(DistGnnError::UnsupportedModel(model.kind.name().into()).into())
        }
        "distgnn" => body.run(&DistGnn { checkpoint_every, ..DistGnn::new(graph, model) }),
        "distdgl" => {
            let split = VertexSplit::paper_default(graph.num_vertices(), 42)?;
            body.run(&DistDgl::new(graph, &split, model))
        }
        other => Err(format!("unknown system {other:?} (distgnn|distdgl)").into()),
    }
}

/// [`on_family`] over the graph, model and checkpoint period of a
/// simulate-style command.
fn on_input(sim: &SimulateCmd, body: impl Body) -> CmdResult {
    let graph = load(&sim.input, sim.directed)?;
    on_family(&sim.system, &graph, model(sim)?, sim.checkpoint_every, body)
}

/// What `gnnpart` reports differently per engine family.
trait System: Family {
    /// The partitioner kind the family trains on, with its article.
    const PARTITIONER: &'static str;

    /// `rows` as the `(distgnn, distdgl)` sections of a bench document.
    fn sections<R>(rows: &[R]) -> (&[R], &[R]);

    /// `gnnpart simulate` on `partition`: its summary prints fields only
    /// this engine reports.
    fn simulate(
        &self,
        cmd: &SimulateCmd,
        partition: &Self::Partition,
        policy: MitigationPolicy,
        out: &mut String,
    ) -> CmdResult;
}

impl System for DistGnn<'_> {
    const PARTITIONER: &'static str = "an edge";

    fn sections<R>(rows: &[R]) -> (&[R], &[R]) {
        (rows, &[])
    }

    fn simulate(
        &self,
        cmd: &SimulateCmd,
        partition: &EdgePartition,
        policy: MitigationPolicy,
        out: &mut String,
    ) -> CmdResult {
        let engine = self.native_engine(partition, TraceSink::disabled())?;
        writeln!(out, "DistGNN (full-batch) on {} machines with {}", cmd.k, cmd.algo)?;
        writeln!(out, "replication factor: {:.3}", partition.replication_factor())?;
        if cmd.faults {
            let note = |crashed: &[u32]| match crashed {
                [] => String::new(),
                crashed => format!("  (crash: machines {crashed:?})"),
            };
            let (epochs, aborted) = engine.run(&fault_spec(cmd, policy))?.into_faulty();
            let epochs: Vec<_> = epochs
                .into_iter()
                .map(|r| FaultEpoch {
                    seconds: r.report.epoch_time(),
                    recovery: r.recovery,
                    mitigation: r.mitigation,
                    note: note(&r.crashed_machines),
                })
                .collect();
            return write_fault_run(out, cmd, policy, &epochs, aborted);
        }
        let r = engine.run(&RunSpec::healthy())?.into_healthy().remove(0);
        writeln!(out, "epoch time:         {:.3} ms", r.epoch_time() * 1e3)?;
        writeln!(out, "  forward:          {:.3} ms", r.phases.forward * 1e3)?;
        writeln!(out, "  backward:         {:.3} ms", r.phases.backward * 1e3)?;
        writeln!(out, "  replica sync:     {:.3} ms", r.phases.sync * 1e3)?;
        writeln!(out, "  optimiser:        {:.3} ms", r.phases.optimizer * 1e3)?;
        writeln!(
            out,
            "network traffic:    {:.2} MB",
            r.counters.total_network_bytes() as f64 / 1e6
        )?;
        writeln!(out, "cluster memory:     {:.2} MB", r.total_memory() as f64 / 1e6)?;
        if r.any_oom() {
            writeln!(out, "WARNING: machines {:?} exceed installed memory", r.oom_machines)?;
        }
        Ok(())
    }
}

impl System for DistDgl<'_> {
    const PARTITIONER: &'static str = "a vertex";

    fn sections<R>(rows: &[R]) -> (&[R], &[R]) {
        (&[], rows)
    }

    fn simulate(
        &self,
        cmd: &SimulateCmd,
        partition: &VertexPartition,
        policy: MitigationPolicy,
        out: &mut String,
    ) -> CmdResult {
        let engine = self.native_engine(partition, TraceSink::disabled())?;
        writeln!(out, "DistDGL (mini-batch) on {} machines with {}", cmd.k, cmd.algo)?;
        writeln!(out, "edge-cut ratio:  {:.4}", partition.edge_cut_ratio())?;
        if cmd.faults {
            let note = |steps: usize, down: &[u32]| match down {
                [] => format!(", {steps} steps"),
                down => format!(", {steps} steps  (workers down: {down:?})"),
            };
            let (epochs, aborted) = engine.run(&fault_spec(cmd, policy))?.into_faulty();
            let epochs: Vec<_> = epochs
                .into_iter()
                .map(|r| FaultEpoch {
                    seconds: r.summary.epoch_time(),
                    recovery: r.recovery,
                    mitigation: r.mitigation,
                    note: note(r.summary.steps, &r.failed_workers),
                })
                .collect();
            return write_fault_run(out, cmd, policy, &epochs, aborted);
        }
        let s = engine.run(&RunSpec::healthy())?.into_healthy().remove(0);
        writeln!(out, "steps/epoch:     {}", s.steps)?;
        writeln!(out, "epoch time:      {:.3} ms", s.epoch_time() * 1e3)?;
        writeln!(out, "  sampling:      {:.3} ms", s.phases.sampling * 1e3)?;
        writeln!(out, "  feature load:  {:.3} ms", s.phases.feature_load * 1e3)?;
        writeln!(out, "  forward:       {:.3} ms", s.phases.forward * 1e3)?;
        writeln!(out, "  backward:      {:.3} ms", s.phases.backward * 1e3)?;
        writeln!(out, "remote vertices: {} / {}", s.total_remote_vertices, s.total_input_vertices)?;
        writeln!(out, "network traffic: {:.2} MB", s.counters.total_network_bytes() as f64 / 1e6)?;
        Ok(())
    }
}

/// The model `--model`, `--features`, `--hidden` and `--layers` name.
fn model(sim: &SimulateCmd) -> Result<ModelConfig, Box<dyn Error>> {
    let kind = ModelKind::parse(&sim.model)
        .ok_or_else(|| format!("unknown model {:?} (sage|gcn|gat)", sim.model))?;
    Ok(PaperParams { feature_size: sim.features, hidden_dim: sim.hidden, num_layers: sim.layers }
        .model(kind))
}

/// The mitigation policy `--mitigate` names.
fn mitigation(mode: &str) -> Result<MitigationPolicy, String> {
    let modes = "none|steal|speculate|adaptive|all";
    MitigationPolicy::parse(mode)
        .ok_or_else(|| format!("unknown mitigation mode {mode:?} ({modes})"))
}

/// `--algo`'s partition of the family's graph into `-k` parts (seed 42).
fn partition_of<F: System>(family: &F, sim: &SimulateCmd) -> Result<F::Partition, Box<dyn Error>> {
    Ok(family
        .partition(&sim.algo, sim.k, 42)
        .ok_or_else(|| not_a_partitioner::<F>(&sim.algo))??)
}

/// The roster partitioners `algo` selects: one, or every one for `all`.
fn roster<F: System>(algo: &str) -> Result<Vec<&'static str>, Box<dyn Error>> {
    let names: Vec<_> =
        F::ROSTER.iter().copied().filter(|name| algo == "all" || *name == algo).collect();
    if names.is_empty() {
        return Err(not_a_partitioner::<F>(algo));
    }
    Ok(names)
}

fn not_a_partitioner<F: System>(algo: &str) -> Box<dyn Error> {
    format!("{algo:?} is not {} partitioner", F::PARTITIONER).into()
}

/// `gnnpart simulate`.
pub fn simulate(cmd: SimulateCmd) -> CmdResult {
    let mut out = String::new();
    let result = simulate_into(&cmd, &mut out);
    print!("{out}");
    result
}

/// `gnnpart simulate`, writing its report to `out`.
fn simulate_into(cmd: &SimulateCmd, out: &mut String) -> CmdResult {
    struct Simulate<'a>(&'a SimulateCmd, &'a mut String);
    impl Body for Simulate<'_> {
        fn run<F: System>(self, family: &F) -> CmdResult {
            let Simulate(cmd, out) = self;
            let policy = mitigation(&cmd.mitigate)?;
            let partition = partition_of(family, cmd)?;
            family.simulate(cmd, &partition, policy, out)
        }
    }
    on_input(cmd, Simulate(cmd, out))
}

/// One epoch of a `gnnpart simulate` fault run.
struct FaultEpoch {
    seconds: f64,
    recovery: RecoveryReport,
    mitigation: MitigationReport,
    /// What the epoch's line prints after its time.
    note: String,
}

/// A `gnnpart simulate` fault run: one line per epoch, the abort, then
/// the recovery (and, when mitigated, the mitigation) totals.
fn write_fault_run(
    out: &mut String,
    cmd: &SimulateCmd,
    policy: MitigationPolicy,
    epochs: &[FaultEpoch],
    aborted: Option<impl Display>,
) -> CmdResult {
    let mut total = 0.0;
    let mut r = RecoveryReport::default();
    let mut m = MitigationReport::default();
    for (epoch, e) in epochs.iter().enumerate() {
        total += e.seconds;
        r.merge(&e.recovery);
        m.merge(&e.mitigation);
        writeln!(out, "epoch {epoch:>3}: {:>10.3} ms{}", e.seconds * 1e3, e.note)?;
    }
    if let Some(e) = aborted {
        writeln!(out, "epoch {:>3}: training aborted: {e}", epochs.len())?;
    }
    writeln!(out, "epoch time sum:     {:.3} ms", total * 1e3)?;
    writeln!(out, "recovery overhead:  {:.3} ms", r.total_overhead_seconds() * 1e3)?;
    writeln!(out, "  crashes:          {}", r.crashes)?;
    writeln!(out, "  retries:          {} ({:.3} ms wait)", r.retries, r.retry_seconds * 1e3)?;
    writeln!(
        out,
        "  re-executed:      {} steps, {:.3} epochs of lost progress",
        r.reexecuted_steps, r.lost_progress_epochs
    )?;
    writeln!(out, "  checkpoints:      {} ({:.3} ms)", r.checkpoints, r.checkpoint_seconds * 1e3)?;
    writeln!(
        out,
        "  restores:         {:.3} ms, {:.2} MB recovery traffic",
        r.restore_seconds * 1e3,
        r.recovery_bytes as f64 / 1e6
    )?;
    writeln!(out, "  redistributed:    {} training vertices", r.redistributed_train_vertices)?;
    if !policy.is_none() {
        writeln!(out, "mitigation ({}):  {:.3} ms saved", cmd.mitigate, m.time_saved_secs * 1e3)?;
        writeln!(
            out,
            "  stolen:           {} steps, {:.2} MB re-fetched",
            m.stolen_steps,
            m.stolen_bytes as f64 / 1e6
        )?;
        writeln!(
            out,
            "  speculated:       {} steps ({} won, {:.3} ms wasted)",
            m.speculated_steps,
            m.speculation_wins,
            m.speculation_wasted_secs * 1e3
        )?;
        writeln!(out, "  sync changes:     {}", m.sync_period_changes)?;
        writeln!(
            out,
            "  masters moved:    {} ({:.2} MB, {:.3} ms)",
            m.masters_migrated,
            m.migration_bytes as f64 / 1e6,
            m.migration_seconds * 1e3
        )?;
    }
    Ok(())
}

/// `gnnpart trace`.
///
/// Runs the same simulation as `gnnpart simulate` — including the
/// `--faults` / `--mitigate` paths — but with an *enabled* span sink
/// attached to the engine, then exports the recorded trace as Chrome
/// `chrome://tracing` JSON (and optionally a per-phase CSV). Tracing is
/// purely observational, so the traced run is bit-identical to the
/// untraced one.
pub fn trace(cmd: &TraceCmd) -> CmdResult {
    on_input(&cmd.sim, cmd)
}

impl Body for &TraceCmd {
    fn run<F: System>(self, family: &F) -> CmdResult {
        let sim = &self.sim;
        let policy = mitigation(&sim.mitigate)?;
        let partition = partition_of(family, sim)?;
        let sink = TraceSink::enabled();
        let engine = family.engine(&partition, sink.clone())?;
        println!("tracing {} on {} machines with {}", F::LABEL, sim.k, sim.algo);
        let (epochs, aborted) = engine.run(&fault_spec(sim, policy))?.into_faulty();
        if let Some(e) = aborted {
            println!("epoch {:>3}: training aborted: {e}", epochs.len());
        }
        std::fs::write(&self.trace_out, sink.to_chrome_json())?;
        println!(
            "trace: {} spans, {} counter samples over {:.3} simulated ms",
            sink.spans().len(),
            sink.counters().len(),
            sink.now() * 1e3
        );
        println!("chrome trace -> {} (load in chrome://tracing)", self.trace_out.display());
        if let Some(csv) = &self.phase_csv {
            std::fs::write(csv, sink.phase_csv())?;
            println!("phase CSV    -> {}", csv.display());
        }
        Ok(())
    }
}

/// `gnnpart diagnose`.
///
/// Runs the same simulation as `gnnpart simulate` — including the
/// `--faults` / `--mitigate` paths — through the metrics-aggregation
/// layer: every per-worker, per-phase histogram total is cross-checked
/// against the engine's own report exactly (f64 `==`), then the
/// Prometheus text exposition and the markdown run report (phase
/// percentiles, skew indices, straggler attribution, ranked causes of
/// epoch time) are written out. Both artifacts are deterministic:
/// repeated runs produce identical bytes.
pub fn diagnose(cmd: &DiagnoseCmd) -> CmdResult {
    on_input(&cmd.sim, cmd)
}

impl Body for &DiagnoseCmd {
    fn run<F: System>(self, family: &F) -> CmdResult {
        let sim = &self.sim;
        let policy = mitigation(&sim.mitigate)?;
        let partition = partition_of(family, sim)?;
        let spec = fault_spec(sim, policy);
        println!("diagnosing {} on {} machines with {}", F::LABEL, sim.k, sim.algo);
        let runs = [diagnose_run(family, &partition, &sim.algo, &spec)?];
        let run = &runs[0];
        println!(
            "epoch time sum:     {:.3} ms over {} epochs",
            run.epoch_seconds * 1e3,
            run.epochs
        );
        println!("compute skew:       {:.3}", run.snapshot.compute_skew());
        println!("comm skew:          {:.3}", run.snapshot.communication_skew());
        match run.snapshot.load_straggler() {
            Some(s) => println!(
                "straggler:          worker {} in {} (+{:.3} ms critical path)",
                s.worker,
                s.phase.name(),
                s.excess_seconds * 1e3
            ),
            None => println!("straggler:          none"),
        }
        for c in &run.causes {
            println!("  cause: {:<28} {:.3} ms", c.label, c.seconds * 1e3);
        }
        println!(
            "exactness:          {} per-worker phase totals equal the engine report (f64 ==)",
            run.cross_checks
        );
        std::fs::write(&self.prom_out, diagnose_prometheus(&runs))?;
        println!("prometheus  -> {}", self.prom_out.display());
        std::fs::write(&self.report_out, diagnose_report(F::NAME, &runs))?;
        println!("run report  -> {}", self.report_out.display());
        Ok(())
    }
}

/// `gnnpart chaos`.
///
/// Elastic-membership soak: every partitioner of the chosen system
/// (or the single `--algo`) runs `--epochs` epochs of seeded churn,
/// crashes and periodic checkpoints through the engines' `.elastic(..)`
/// `RunSpec` leg, and the elastic contract is verified
/// per row — the rerun is bit-identical, the traced run equals the
/// untraced one, the elastic run is never worse than the
/// crash-without-handoff baseline, and per-worker span sums equal the
/// engine's phase totals exactly (f64 `==`). Any red invariant makes
/// the command return an error (exit 1), so a CI step can gate on it
/// directly.
pub fn chaos(cmd: &ChaosCmd) -> CmdResult {
    on_input(&cmd.sim, cmd)
}

impl Body for &ChaosCmd {
    fn run<F: System>(self, family: &F) -> CmdResult {
        let sim = &self.sim;
        let timed = soak_partitions(family, "chaos", sim, self.threads)?;
        let rows = chaos_soak(
            family,
            &timed,
            sim.epochs,
            sim.mtbf,
            sim.checkpoint_every,
            sim.fault_seed,
            self.threads,
        );
        let red = rows.iter().filter(|r| !r.holds());
        let fails = red.clone().map(|r| {
            format!(
                "{}: completed {}/{}, deterministic={}, trace_transparent={}, \
                 elastic_never_worse={}, spans_exact={}",
                r.name,
                r.completed_epochs,
                r.epochs,
                r.deterministic,
                r.trace_transparent,
                r.elastic_never_worse,
                r.spans_exact
            )
        });
        let (distgnn, distdgl) = F::sections(&rows);
        emit_rows(
            "chaos",
            &chaos_table(&format!("chaos_{}", F::NAME), &rows),
            fails,
            self.csv_out.as_deref(),
            self.bench_out.as_deref(),
            || chaos_bench_json(distgnn, distdgl),
        )?;
        verdict(
            red.count(),
            rows.len(),
            "chaos rows violated the elastic contract",
            "bit-identical reruns, exact span sums, elastic never worse than crash-only recovery",
        )
    }
}

/// `gnnpart netchaos`.
///
/// The chaos soak composed with a seeded message-level network-fault
/// plan: per-message loss, duplication and reorder plus partition
/// windows that split the fleet into quorum and minority islands,
/// driven through the engines' `.net(..)` `RunSpec` leg. Every
/// row additionally verifies exactly-once-effective delivery and that
/// the bounded-staleness degraded mode is never worse than the
/// abort-and-recover baseline (an adopt-only guarantee, not a
/// tolerance band). The fault/churn composition is validated up front:
/// a crash schedule that would drain the fleet below the churn floor
/// is rejected before any cell runs. Any red invariant makes the
/// command return an error (exit 1).
pub fn netchaos(cmd: &NetChaosCmd) -> CmdResult {
    on_input(&cmd.sim, cmd)
}

impl Body for &NetChaosCmd {
    fn run<F: System>(self, family: &F) -> CmdResult {
        let sim = &self.sim;
        // Reject a crash schedule that would drain the fleet below the
        // churn floor before any (expensive) soak cell runs: the soak
        // would only report zero-completed rows, and the composition
        // error is the actionable message.
        let churn_spec = chaos_churn_spec(sim.k, sim.epochs, sim.fault_seed);
        let faults = fault_plan(sim);
        let churn = ChurnPlan::generate(&churn_spec);
        validate_fault_churn(&faults, &churn, churn_spec.min_live)
            .map_err(|e| format!("invalid fault/churn composition: {e}"))?;
        let net = NetFaultPlan::generate(&netchaos_net_spec(sim.k, sim.epochs, sim.fault_seed));
        let checkpoints = CheckpointConfig::periodic(sim.checkpoint_every);
        let spec = RunSpec::healthy()
            .epochs(sim.epochs)
            .faults(faults)
            .elastic(churn, checkpoints, ElasticOptions::default())
            .net(net, NetRunOptions::default());
        let timed = soak_partitions(family, "netchaos", sim, self.threads)?;
        let rows = netchaos_soak(
            family,
            &timed,
            sim.epochs,
            sim.mtbf,
            sim.checkpoint_every,
            sim.fault_seed,
            self.threads,
        );
        // One extra traced partitioned run of the roster's first
        // partitioner feeds the Prometheus exposition: the soak's own
        // sinks stay internal to its verdicts.
        let traced = match self.prom_out {
            Some(_) => Some(trace_run(family, &timed[0].partition, &spec)?),
            None => None,
        };
        let red = rows.iter().filter(|r| !r.holds());
        let fails = red.clone().map(|r| {
            format!(
                "{}: completed {}/{}, deterministic={}, trace_transparent={}, \
                 degraded_never_worse={}, exactly_once={}, spans_exact={}",
                r.name,
                r.completed_epochs,
                r.epochs,
                r.deterministic,
                r.trace_transparent,
                r.degraded_never_worse,
                r.exactly_once,
                r.spans_exact
            )
        });
        let (distgnn, distdgl) = F::sections(&rows);
        emit_rows(
            "netchaos",
            &netchaos_table(&format!("netchaos_{}", F::NAME), &rows),
            fails,
            self.csv_out.as_deref(),
            self.bench_out.as_deref(),
            || netchaos_bench_json(distgnn, distdgl),
        )?;
        if let (Some(path), Some(sink)) = (&self.prom_out, &traced) {
            std::fs::write(path, MetricsSnapshot::from_sink(sink).to_prometheus())?;
            println!("netchaos prom -> {}", path.display());
        }
        verdict(
            red.count(),
            rows.len(),
            "netchaos rows violated the network fault contract",
            "bit-identical reruns, exactly-once delivery, \
             degraded mode never worse than abort-and-recover",
        )
    }
}

/// `gnnpart stream`.
///
/// Streaming dynamic-graph sweep: every partitioner of the chosen
/// system (or the single `--algo`) replays the same seeded mutation
/// stream once per repartition policy (never / threshold / periodic),
/// training one epoch per batch on the live snapshot while the
/// partition is maintained incrementally and policy-triggered full
/// repartitions are charged their modeled cost in simulated seconds.
/// The stream contract is verified per row — the rerun is
/// bit-identical, the traced run equals the untraced one, and no
/// policy is worse than the `never` baseline on total training time
/// (the engines adopt a repartition only when it is not worse). Any
/// red invariant makes the command return an error (exit 1), so a CI
/// step can gate on it directly.
pub fn stream(cmd: &StreamCmd) -> CmdResult {
    on_input(&cmd.sim, cmd)
}

impl Body for &StreamCmd {
    fn run<F: System>(self, family: &F) -> CmdResult {
        let sim = &self.sim;
        let spec = StreamSpec::paper_default(self.batches, self.stream_seed);
        let policies = stream_policies();
        let names = roster::<F>(&sim.algo)?;
        println!(
            "stream: {}, {} machines, {} partitioner(s) x {} policies, \
             {} batches (stream seed {})",
            F::LABEL,
            sim.k,
            names.len(),
            policies.len(),
            self.batches,
            self.stream_seed
        );
        let rows = stream_sweep(family, &names, sim.k, &spec, &policies, 42, self.threads);
        let red = rows.iter().filter(|r| !r.holds());
        let fails = red.clone().map(|r| {
            format!(
                "{}/{}: completed {}/{}, deterministic={}, trace_transparent={}, never_worse={}",
                r.name,
                r.policy,
                r.completed_batches,
                r.batches,
                r.deterministic,
                r.trace_transparent,
                r.never_worse
            )
        });
        let (distgnn, distdgl) = F::sections(&rows);
        emit_rows(
            "stream",
            &stream_table(&format!("stream_{}", F::NAME), &rows),
            fails,
            self.csv_out.as_deref(),
            self.bench_out.as_deref(),
            || stream_bench_json(distgnn, distdgl),
        )?;
        verdict(
            red.count(),
            rows.len(),
            "stream rows violated the stream contract",
            "bit-identical reruns, traced == untraced, \
             no adopted repartition regressed on quality or epoch time",
        )
    }
}

/// The roster partitions `--algo` selects for a soak, timed, one job
/// per partitioner on the pool in roster order, after the soak's header
/// line.
fn soak_partitions<F: System>(
    family: &F,
    soak: &str,
    sim: &SimulateCmd,
    threads: Threads,
) -> Result<Vec<Timed<F::Partition>>, Box<dyn Error>> {
    let jobs: Vec<_> = roster::<F>(&sim.algo)?
        .into_iter()
        .map(|name| {
            move || {
                let start = Instant::now();
                let partition = family.partition(name, sim.k, 42).expect("a roster partitioner");
                let seconds = start.elapsed().as_secs_f64();
                partition.map(|partition| Timed { name: name.into(), partition, seconds })
            }
        })
        .collect();
    let timed = par_map(threads, jobs).into_iter().collect::<Result<Vec<_>, _>>()?;
    println!(
        "{soak}: {}, {} machines, {} partitioner(s), {} epochs \
         (mtbf {}, checkpoint every {}, seed {})",
        F::LABEL,
        sim.k,
        timed.len(),
        sim.epochs,
        sim.mtbf,
        sim.checkpoint_every,
        sim.fault_seed
    );
    Ok(timed)
}

/// A sweep's rows on stdout and in the files asked for: the markdown
/// `table`, a FAIL line per red row, the CSV and the bench JSON.
fn emit_rows(
    sweep: &str,
    table: &Table,
    fails: impl Iterator<Item = String>,
    csv_out: Option<&Path>,
    bench_out: Option<&Path>,
    bench: impl FnOnce() -> String,
) -> CmdResult {
    print!("{}", table.to_markdown());
    for fail in fails {
        println!("FAIL {fail}");
    }
    if let Some(csv) = csv_out {
        std::fs::write(csv, table.to_csv())?;
        println!("{sweep} CSV  -> {}", csv.display());
    }
    if let Some(path) = bench_out {
        std::fs::write(path, bench())?;
        println!("{sweep} JSON -> {}", path.display());
    }
    Ok(())
}

/// An error when `red` of the `rows` rows broke their contract;
/// otherwise the line saying what `held`.
fn verdict(red: usize, rows: usize, violated: &str, held: &str) -> CmdResult {
    if red > 0 {
        return Err(format!("{red} of {rows} {violated}").into());
    }
    println!("all {rows} rows green: {held}");
    Ok(())
}

fn fault_plan(cmd: &SimulateCmd) -> FaultPlan {
    FaultPlan::generate(&FaultSpec::standard(cmd.k, cmd.epochs, cmd.mtbf, cmd.fault_seed))
}

/// The run of `simulate`'s, `trace`'s and `diagnose`'s fault path:
/// `--epochs` epochs under the seeded fault plan (an empty one without
/// `--faults`), mitigated by `policy`.
fn fault_spec(sim: &SimulateCmd, policy: MitigationPolicy) -> RunSpec {
    diagnose_spec(sim.epochs, sim.faults.then(|| fault_plan(sim)).as_ref(), policy)
}

/// `gnnpart recommend`.
pub fn recommend(cmd: RecommendCmd) -> CmdResult {
    let graph = load(&cmd.input, cmd.directed)?;
    let params =
        PaperParams { feature_size: cmd.features, hidden_dim: cmd.hidden, num_layers: cmd.layers };
    on_family(&cmd.system, &graph, params.model(ModelKind::Sage), 0, &cmd)
}

impl Body for &RecommendCmd {
    fn run<F: System>(self, family: &F) -> CmdResult {
        let rec = gp_core::advisor::recommend(family, self.k, self.epochs, self.threads);
        println!(
            "Best partitioner for {} epochs of {} training on {} machines: {}",
            self.epochs,
            F::NAME,
            self.k,
            rec.best().name
        );
        println!(
            "{:<10} {:>12} {:>12} {:>9} {:>14}",
            "name", "part time s", "epoch ms", "speedup", "net saving s"
        );
        for c in &rec.ranked {
            println!(
                "{:<10} {:>12.4} {:>12.3} {:>9.2} {:>14.3}",
                c.name,
                c.partition_seconds,
                c.epoch_seconds * 1e3,
                c.speedup,
                c.net_saving
            );
        }
        Ok(())
    }
}

/// `gnnpart list`: the paper's roster, then the extensions beyond it,
/// under their kind.
pub fn list() {
    println!("edge partitioners (vertex-cut), for --system distgnn:");
    print_names(&registry::EDGE_PARTITIONERS, &registry::EXTENSION_EDGE_PARTITIONERS);
    println!("vertex partitioners (edge-cut), for --system distdgl:");
    print_names(&registry::VERTEX_PARTITIONERS, &registry::EXTENSION_VERTEX_PARTITIONERS);
}

fn print_names(roster: &[&str], extensions: &[&str]) {
    roster.iter().for_each(|name| println!("  {name}"));
    extensions.iter().for_each(|name| println!("  {name} (extension)"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::GraphScale;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gp_cli_test_{name}_{}", std::process::id()))
    }

    #[test]
    fn generate_stats_partition_roundtrip() {
        let el = tmp("g.el");
        generate(GenerateCmd {
            dataset: "DI".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        stats(StatsCmd { input: el.clone(), directed: true }).unwrap();

        let out = tmp("p.txt");
        partition(PartitionCmd {
            input: el.clone(),
            algo: "METIS".into(),
            k: 4,
            seed: 1,
            directed: true,
            out: Some(out.clone()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let ids: Vec<u32> = text.lines().map(|l| l.parse().unwrap()).collect();
        assert!(ids.iter().all(|&p| p < 4));
        let _ = std::fs::remove_file(el);
        let _ = std::fs::remove_file(out);
    }

    fn sim_cmd(el: &std::path::Path, algo: &str, system: &str, model: &str) -> SimulateCmd {
        SimulateCmd {
            input: el.to_path_buf(),
            algo: algo.into(),
            k: 4,
            system: system.into(),
            model: model.into(),
            features: 16,
            hidden: 16,
            layers: 2,
            directed: false,
            faults: false,
            mtbf: 5.0,
            epochs: 10,
            checkpoint_every: 0,
            fault_seed: 42,
            mitigate: "none".into(),
        }
    }

    #[test]
    fn simulate_both_systems() {
        let el = tmp("s.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        simulate(sim_cmd(&el, "HDRF", "distgnn", "sage")).unwrap();
        simulate(sim_cmd(&el, "METIS", "distdgl", "gcn")).unwrap();
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn simulate_with_faults_both_systems() {
        let el = tmp("f.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let mut c = sim_cmd(&el, "HDRF", "distgnn", "sage");
        c.faults = true;
        c.mtbf = 3.0;
        c.epochs = 6;
        c.checkpoint_every = 2;
        simulate(c).unwrap();
        let mut c = sim_cmd(&el, "METIS", "distdgl", "sage");
        c.faults = true;
        c.mtbf = 3.0;
        c.epochs = 4;
        simulate(c).unwrap();
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn simulate_mitigated_both_systems() {
        let el = tmp("m.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let mut c = sim_cmd(&el, "HDRF", "distgnn", "sage");
        c.faults = true;
        c.mtbf = 4.0;
        c.epochs = 6;
        c.checkpoint_every = 2;
        c.mitigate = "adaptive".into();
        simulate(c).unwrap();
        let mut c = sim_cmd(&el, "METIS", "distdgl", "sage");
        c.faults = true;
        c.mtbf = 4.0;
        c.epochs = 4;
        c.mitigate = "all".into();
        simulate(c).unwrap();
        // An unknown mode survives parsing only via direct construction;
        // the command layer still rejects it.
        let mut c = sim_cmd(&el, "METIS", "distdgl", "sage");
        c.mitigate = "wishful".into();
        assert!(simulate(c).is_err());
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn trace_writes_chrome_json_and_phase_csv() {
        let el = tmp("t.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        // DistGNN with faults + mitigation, both export formats.
        let json = tmp("t.json");
        let csv = tmp("t.csv");
        let mut sim = sim_cmd(&el, "HDRF", "distgnn", "sage");
        sim.faults = true;
        sim.mtbf = 4.0;
        sim.epochs = 4;
        sim.checkpoint_every = 2;
        sim.mitigate = "all".into();
        trace(&TraceCmd { sim, trace_out: json.clone(), phase_csv: Some(csv.clone()) }).unwrap();
        let text = std::fs::read_to_string(&json).unwrap();
        let stats = crate::jsonlint::validate_json(&text).expect("well-formed trace JSON");
        assert!(stats.top_level_array_len > 0, "trace has events");
        let rows = std::fs::read_to_string(&csv).unwrap();
        assert!(rows.starts_with("worker,phase,"));
        assert!(rows.lines().count() > 1, "phase CSV has data rows");

        // DistDGL, healthy path, JSON only.
        let json2 = tmp("t2.json");
        let mut sim = sim_cmd(&el, "METIS", "distdgl", "sage");
        sim.epochs = 2;
        trace(&TraceCmd { sim, trace_out: json2.clone(), phase_csv: None }).unwrap();
        let text = std::fs::read_to_string(&json2).unwrap();
        assert!(crate::jsonlint::validate_json(&text).unwrap().top_level_array_len > 0);
        for f in [el, json, csv, json2] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn diagnose_writes_deterministic_prom_and_report() {
        let el = tmp("d.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        // DistGNN with faults + mitigation, both artifacts; repeated
        // runs must produce identical bytes.
        let prom = tmp("d.prom");
        let report = tmp("d.md");
        let mut sim = sim_cmd(&el, "HDRF", "distgnn", "sage");
        sim.faults = true;
        sim.mtbf = 4.0;
        sim.epochs = 4;
        sim.checkpoint_every = 2;
        sim.mitigate = "adaptive".into();
        let cmd = DiagnoseCmd { sim, prom_out: prom.clone(), report_out: report.clone() };
        diagnose(&cmd).unwrap();
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        let report_text = std::fs::read_to_string(&report).unwrap();
        assert_eq!(prom_text.matches("# TYPE gnnpart_phase_duration_seconds histogram").count(), 1);
        assert!(prom_text.contains("le=\"+Inf\""));
        assert!(report_text.contains("# Run diagnosis: distgnn"));
        assert!(report_text.contains("### Ranked causes of epoch time"));
        diagnose(&cmd).unwrap();
        assert_eq!(std::fs::read_to_string(&prom).unwrap(), prom_text, "prom deterministic");
        assert_eq!(std::fs::read_to_string(&report).unwrap(), report_text, "report deterministic");

        // DistDGL, healthy path.
        let prom2 = tmp("d2.prom");
        let report2 = tmp("d2.md");
        let mut sim = sim_cmd(&el, "METIS", "distdgl", "sage");
        sim.epochs = 2;
        diagnose(&DiagnoseCmd { sim, prom_out: prom2.clone(), report_out: report2.clone() })
            .unwrap();
        let report_text = std::fs::read_to_string(&report2).unwrap();
        assert!(report_text.contains("| sampling |"), "distdgl phases in report");
        for f in [el, prom, report, prom2, report2] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn chaos_single_partitioner_writes_artifacts_and_holds() {
        let el = tmp("c.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let bench = tmp("c.json");
        let csv = tmp("c.csv");
        let mut sim = sim_cmd(&el, "HDRF", "distgnn", "sage");
        sim.faults = true;
        sim.epochs = 8;
        sim.mtbf = 4.0;
        sim.checkpoint_every = 2;
        let cmd = ChaosCmd {
            sim,
            threads: gp_exec::Threads::new(2),
            bench_out: Some(bench.clone()),
            csv_out: Some(csv.clone()),
        };
        chaos(&cmd).unwrap();
        let json = std::fs::read_to_string(&bench).unwrap();
        crate::jsonlint::validate_json(&json).expect("well-formed chaos JSON");
        assert!(json.contains("\"bench\":\"chaos\""));
        assert!(json.contains("\"invariants_hold\":true"));
        assert!(!json.contains("\"invariants_hold\":false"));
        let rows = std::fs::read_to_string(&csv).unwrap();
        assert!(rows.starts_with("partitioner,"));
        assert_eq!(rows.lines().count(), 2, "header + the one HDRF row");
        assert!(rows.contains("HDRF"));
        // Repeated soaks produce identical artifacts (only the bench
        // JSON is compared: the CSV carries no wall-clock fields either,
        // but the JSON is the committed trajectory format).
        chaos(&cmd).unwrap();
        assert_eq!(std::fs::read_to_string(&bench).unwrap(), json, "soak deterministic");
        for f in [el, bench, csv] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn chaos_distdgl_and_wrong_algo_kind() {
        let el = tmp("cd.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let mut sim = sim_cmd(&el, "METIS", "distdgl", "sage");
        sim.faults = true;
        sim.epochs = 6;
        sim.mtbf = 3.0;
        sim.checkpoint_every = 2;
        chaos(&ChaosCmd { sim, threads: gp_exec::Threads::new(2), bench_out: None, csv_out: None })
            .unwrap();
        // HDRF is an edge partitioner; the distdgl roster has no such row.
        let mut sim = sim_cmd(&el, "HDRF", "distdgl", "sage");
        sim.faults = true;
        sim.epochs = 4;
        sim.checkpoint_every = 2;
        let r = chaos(&ChaosCmd {
            sim,
            threads: gp_exec::Threads::new(1),
            bench_out: None,
            csv_out: None,
        });
        assert!(r.unwrap_err().to_string().contains("not a vertex partitioner"));
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn stream_single_partitioner_writes_artifacts_and_holds() {
        let el = tmp("st.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let bench = tmp("st.json");
        let csv = tmp("st.csv");
        let cmd = StreamCmd {
            sim: sim_cmd(&el, "HDRF", "distgnn", "sage"),
            batches: 5,
            stream_seed: 7,
            threads: gp_exec::Threads::new(2),
            bench_out: Some(bench.clone()),
            csv_out: Some(csv.clone()),
        };
        stream(&cmd).unwrap();
        let json = std::fs::read_to_string(&bench).unwrap();
        crate::jsonlint::validate_json(&json).expect("well-formed stream JSON");
        assert!(json.contains("\"bench\":\"stream\""));
        assert!(json.contains("\"invariants_hold\":true"));
        assert!(!json.contains("\"invariants_hold\":false"));
        let rows = std::fs::read_to_string(&csv).unwrap();
        assert!(rows.starts_with("partitioner,"));
        assert_eq!(rows.lines().count(), 4, "header + HDRF x 3 policies");
        assert!(rows.contains("never") && rows.contains("threshold") && rows.contains("periodic"));
        // Repeated sweeps produce byte-identical artifacts (no
        // wall-clock fields anywhere in the stream pipeline).
        stream(&cmd).unwrap();
        assert_eq!(std::fs::read_to_string(&bench).unwrap(), json, "sweep deterministic");
        for f in [el, bench, csv] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn stream_distdgl_and_wrong_algo_kind() {
        let el = tmp("std.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        stream(&StreamCmd {
            sim: sim_cmd(&el, "LDG", "distdgl", "sage"),
            batches: 4,
            stream_seed: 1,
            threads: gp_exec::Threads::new(2),
            bench_out: None,
            csv_out: None,
        })
        .unwrap();
        // HDRF is an edge partitioner; the distdgl roster has no such row.
        let r = stream(&StreamCmd {
            sim: sim_cmd(&el, "HDRF", "distdgl", "sage"),
            batches: 3,
            stream_seed: 1,
            threads: gp_exec::Threads::new(1),
            bench_out: None,
            csv_out: None,
        });
        assert!(r.unwrap_err().to_string().contains("not a vertex partitioner"));
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn recommend_runs() {
        let el = tmp("r.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        recommend(RecommendCmd {
            input: el.clone(),
            k: 4,
            system: "distgnn".into(),
            epochs: 100,
            features: 16,
            hidden: 16,
            layers: 2,
            directed: false,
            threads: gp_exec::Threads::new(2),
        })
        .unwrap();
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn simulate_partitions_bytegnn_on_the_training_split() {
        let el = tmp("b.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let cmd = sim_cmd(&el, "ByteGNN", "distdgl", "sage");
        let mut out = String::new();
        simulate_into(&cmd, &mut out).unwrap();
        let graph = load(&el, false).unwrap();
        let split = VertexSplit::paper_default(graph.num_vertices(), 42).unwrap();
        let dgl = DistDgl::new(&graph, &split, model(&cmd).unwrap());
        let cut = dgl.partition("ByteGNN", 4, 42).unwrap().unwrap().edge_cut_ratio();
        assert!(out.contains(&format!("edge-cut ratio:  {cut:.4}\n")), "{out}");
        // Without the split, ByteGNN seeds from its own sample and cuts
        // differently, so the line above tells the two apart.
        let unsplit = registry::vertex_partitioner("ByteGNN", None)
            .unwrap()
            .partition_vertices(&graph, 4, 42)
            .unwrap()
            .edge_cut_ratio();
        assert_ne!(format!("{cut:.4}"), format!("{unsplit:.4}"));
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn distgnn_rejects_every_model_but_sage_in_every_command() {
        let el = tmp("gcn.el");
        generate(GenerateCmd {
            dataset: "OR".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        let sim = || sim_cmd(&el, "HDRF", "distgnn", "gcn");
        let threads = gp_exec::Threads::serial();
        let results = [
            ("chaos", chaos(&ChaosCmd { sim: sim(), threads, bench_out: None, csv_out: None })),
            (
                "netchaos",
                netchaos(&NetChaosCmd {
                    sim: sim(),
                    threads,
                    bench_out: None,
                    csv_out: None,
                    prom_out: None,
                }),
            ),
            (
                "stream",
                stream(&StreamCmd {
                    sim: sim(),
                    batches: 2,
                    stream_seed: 1,
                    threads,
                    bench_out: None,
                    csv_out: None,
                }),
            ),
            ("simulate", simulate(sim())),
            ("trace", trace(&TraceCmd { sim: sim(), trace_out: tmp("gcn.json"), phase_csv: None })),
            (
                "diagnose",
                diagnose(&DiagnoseCmd {
                    sim: sim(),
                    prom_out: tmp("gcn.prom"),
                    report_out: tmp("gcn.md"),
                }),
            ),
        ];
        for (name, result) in results {
            assert_eq!(
                result.unwrap_err().to_string(),
                "unsupported model for DistGNN: GCN (only GraphSage)",
                "{name}"
            );
        }
        assert!(!tmp("gcn.json").exists(), "rejected before anything runs");
        let _ = std::fs::remove_file(el);
    }

    #[test]
    fn bad_inputs_error() {
        assert!(generate(GenerateCmd { dataset: "XX".into(), scale: GraphScale::Tiny, out: None })
            .is_err());
        assert!(stats(StatsCmd { input: "/nonexistent/file.el".into(), directed: false }).is_err());
        assert!(partition(PartitionCmd {
            input: "/nonexistent/file.el".into(),
            algo: "HDRF".into(),
            k: 4,
            seed: 1,
            directed: false,
            out: None
        })
        .is_err());
    }

    #[test]
    fn wrong_partitioner_kind_for_system() {
        let el = tmp("w.el");
        generate(GenerateCmd {
            dataset: "DI".into(),
            scale: GraphScale::Tiny,
            out: Some(el.clone()),
        })
        .unwrap();
        // METIS is a vertex partitioner; distgnn needs an edge partitioner.
        let mut c = sim_cmd(&el, "METIS", "distgnn", "sage");
        c.directed = true;
        let r = simulate(c);
        assert!(r.is_err());
        let _ = std::fs::remove_file(el);
    }
}
