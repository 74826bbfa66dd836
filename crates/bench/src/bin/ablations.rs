//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * `hdrf-lambda` — HDRF's balance weight λ: replication vs balance.
//! * `hep-tau` — HEP's threshold τ: streaming share vs quality.
//! * `fanout` — fan-out sampling vs full-neighbourhood expansion.
//! * `costmodel` — bandwidth sensitivity of the simulated speedups.
//! * `cache` — DistDGL-style hot-vertex feature cache (extension).
//! * `greedy` — PowerGraph Greedy vs its descendant HDRF (extension).
//! * `extensions` — Grid2D / Greedy / ReLDG against the paper roster.
//! * `cdr` — DistGNN cd-r delayed aggregation (sync every r epochs).
//! * `faults` — recovery overhead per partitioner under seeded fault
//!   injection (crashes + stragglers + brownouts; extension).
//! * `mitigation` — mitigated vs unmitigated epoch time per partitioner
//!   under a crash-free straggler/brownout stress schedule (extension).
//! * `phases` — per-(worker, phase) breakdown of traced engine runs via
//!   the span recorder (extension; the aggregate `gnnpart trace
//!   --phase-csv` emits).
//! * `diagnose` — per-partitioner skew/summary CSVs, Prometheus text,
//!   markdown run reports and `BENCH_diagnose.json` from the metrics
//!   aggregation layer, exactness-cross-checked against the engine
//!   reports (extension; the aggregates behind `gnnpart diagnose`).
//! * `chaos` — elastic-membership soak per partitioner: seeded churn
//!   (leaves + rejoins) and faults with periodic checkpoints through
//!   both engines' `.elastic(..)` `RunSpec` legs, the elastic contract
//!   (bit-identical reruns, traced == untraced, never worse than
//!   crash-only recovery, exact span sums) verified per row, plus
//!   `BENCH_chaos.json` with the recovery-overhead and lost-progress
//!   trajectory (extension; the soak behind `gnnpart chaos`).
//! * `netchaos` — the chaos soak composed with a seeded message-level
//!   network-fault plan (loss, duplication, reorder, partition windows)
//!   through both engines' `.net(..)` `RunSpec` legs, verifying
//!   exactly-once delivery and that the bounded-staleness degraded mode
//!   is never worse than abort-and-recover, plus `BENCH_netchaos.json`
//!   (extension; the soak behind `gnnpart netchaos`).
//! * `stream` — streaming dynamic-graph sweep: every partitioner of
//!   both rosters replays a seeded mutation stream under each
//!   repartition policy (never / threshold / periodic), the partition
//!   maintained incrementally with the modeled repartition cost
//!   charged in simulated seconds, the stream contract (bit-identical
//!   reruns, traced == untraced, policies never worse than `never`)
//!   verified per row, plus `BENCH_stream.json` with the per-batch
//!   quality-decay curves and recovered speedups (extension; the
//!   sweep behind `gnnpart stream`).
//! ```text
//! cargo run -p gp-bench --release --bin ablations -- all
//! cargo run -p gp-bench --release --bin ablations -- phases --quick --threads 4
//! ```
//!
//! `--quick` shrinks the fault/mitigation ablations to a tiny-scale
//! smoke configuration (CSVs land in `results/ablations-quick` so the
//! committed full-scale results stay untouched). `--threads N|auto`
//! sets the `gp-exec` pool width (one sweep cell per job); every
//! modeled column is bit-identical for every width (`--threads 1` is
//! the serial reference oracle). One ablation name (default `all`) and
//! these flags are the whole command line; anything else is a usage
//! error (exit 2).

use gp_bench::Ctx;
use gp_cluster::{ClusterSpec, NetworkSpec, RunSpec};
use gp_core::config::PaperParams;
use gp_core::family::{DistDgl, DistGnn};
use gp_core::report::{fmt, Table};
use gp_distdgl::{DistDglConfig, DistDglEngine};
use gp_distgnn::{DistGnnConfig, DistGnnEngine};
use gp_graph::{DatasetId, GraphScale};
use gp_partition::prelude::*;
use gp_tensor::ModelKind;

/// The usage line printed, with exit status 2, for any other command
/// line.
const USAGE: &str = "usage: ablations [hdrf-lambda|hep-tau|fanout|costmodel|cache|greedy|\
                     extensions|cdr|faults|mitigation|phases|diagnose|chaos|netchaos|stream|\
                     all] [--quick] [--prof] [--threads N|auto]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    // `--prof` works for any ablation; the profile prints afterwards.
    let prof = gp_bench::take_prof_flag(&mut args);
    let (threads, which) = match gp_bench::take_threads_flag(&mut args)
        .and_then(|threads| Ok((threads, one_name(&args)?)))
    {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (scale, out_dir) = if quick {
        (GraphScale::Tiny, "results/ablations-quick")
    } else {
        (GraphScale::Small, "results/ablations")
    };
    let ctx = Ctx::with_threads(scale, out_dir.into(), threads);
    match which {
        "hdrf-lambda" => hdrf_lambda(&ctx),
        "hep-tau" => hep_tau(&ctx),
        "fanout" => fanout(&ctx),
        "costmodel" => costmodel(&ctx),
        "cache" => cache(&ctx),
        "greedy" => greedy(&ctx),
        "extensions" => extensions(&ctx),
        "cdr" => cdr(&ctx),
        "faults" => faults(&ctx, quick),
        "mitigation" => mitigation(&ctx, quick),
        "phases" => phases(&ctx, quick),
        "diagnose" => diagnose(&ctx, quick),
        "chaos" => chaos(&ctx, quick),
        "netchaos" => netchaos(&ctx, quick),
        "stream" => stream(&ctx, quick),
        "all" => {
            hdrf_lambda(&ctx);
            hep_tau(&ctx);
            fanout(&ctx);
            costmodel(&ctx);
            cache(&ctx);
            greedy(&ctx);
            extensions(&ctx);
            cdr(&ctx);
            faults(&ctx, quick);
            mitigation(&ctx, quick);
            phases(&ctx, quick);
            diagnose(&ctx, quick);
            chaos(&ctx, quick);
            netchaos(&ctx, quick);
            stream(&ctx, quick);
        }
        other => {
            eprintln!("unknown ablation {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    if prof {
        gp_bench::print_profile();
    }
}

/// The one ablation name left in `args` once every known flag has been
/// popped; `all` when none is left.
///
/// # Errors
///
/// A usage message naming the first leftover option, or the second
/// name.
fn one_name(args: &[String]) -> Result<&str, String> {
    if let Some(option) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown option {option:?}"));
    }
    match args {
        [] => Ok("all"),
        [name] => Ok(name),
        [_, extra, ..] => Err(format!("one ablation per run, got {extra:?} as well")),
    }
}

/// HDRF λ sweep: λ → 0 greedily minimises replication but loses edge
/// balance; large λ balances at the cost of replication.
fn hdrf_lambda(ctx: &Ctx) {
    let graph = ctx.graph(DatasetId::OR);
    let mut t =
        Table::new("ablation_hdrf_lambda", &["lambda", "replication_factor", "edge_balance"]);
    for lambda in [0.0, 0.25, 0.5, 1.0, 1.1, 2.0, 4.0, 16.0] {
        let part = Hdrf { lambda }.partition_edges(&graph, 16, 1).expect("valid");
        t.push(vec![format!("{lambda}"), fmt(part.replication_factor()), fmt(part.edge_balance())]);
    }
    ctx.emit(&t);
}

/// HEP τ sweep: larger τ moves more edges into the in-memory NE phase.
fn hep_tau(ctx: &Ctx) {
    let graph = ctx.graph(DatasetId::HW);
    let mut t =
        Table::new("ablation_hep_tau", &["tau", "replication_factor", "vertex_balance", "seconds"]);
    for tau in [0.1, 0.5, 1.0, 4.0, 10.0, 100.0] {
        let start = std::time::Instant::now();
        let part = Hep { tau, lambda: 1.1 }.partition_edges(&graph, 16, 1).expect("valid");
        t.push(vec![
            format!("{tau}"),
            fmt(part.replication_factor()),
            fmt(part.vertex_balance()),
            format!("{:.4}", start.elapsed().as_secs_f64()),
        ]);
    }
    ctx.emit(&t);
}

/// Fan-out schedule ablation: tapered (paper-style) vs uniform vs
/// unbounded sampling, at equal layer count.
fn fanout(ctx: &Ctx) {
    let graph = ctx.graph(DatasetId::OR);
    let split = ctx.split(DatasetId::OR);
    let partition = Metis::default().partition_vertices(&graph, 8, 1).expect("valid");
    let mut t = Table::new(
        "ablation_fanout",
        &["schedule", "input_vertices", "remote_vertices", "epoch_ms"],
    );
    let schedules: [(&str, Vec<u32>); 3] = [
        ("tapered(4,3,3)", vec![4, 3, 3]),
        ("uniform(3,3,3)", vec![3, 3, 3]),
        ("full(1k,1k,1k)", vec![1000, 1000, 1000]),
    ];
    for (name, fanouts) in schedules {
        let mut config = DistDglConfig::paper(
            PaperParams::middle().model(ModelKind::Sage),
            ClusterSpec::paper(8),
        );
        config.fanouts = fanouts;
        let engine = DistDglEngine::builder(&graph, &partition, &split)
            .config(config)
            .build()
            .expect("valid");
        let summary =
            engine.run(&RunSpec::healthy()).expect("healthy run").into_healthy().remove(0);
        t.push(vec![
            name.to_string(),
            summary.total_input_vertices.to_string(),
            summary.total_remote_vertices.to_string(),
            format!("{:.2}", summary.epoch_time() * 1e3),
        ]);
    }
    ctx.emit(&t);
}

/// Cost-model sensitivity: the HEP-100-vs-Random speedup across network
/// bandwidths. Slower networks amplify partitioning, faster ones damp
/// it — the qualitative findings must not flip.
fn costmodel(ctx: &Ctx) {
    let graph = ctx.graph(DatasetId::OR);
    let mut t = Table::new("ablation_costmodel", &["network", "hep100_speedup_over_random"]);
    let parts = ctx.edge_partitions(DatasetId::OR, 16);
    let random = parts.iter().find(|p| p.name == "Random").expect("baseline");
    let hep = parts.iter().find(|p| p.name == "HEP-100").expect("registered");
    // Built through the validating constructor: a typo'd bandwidth or
    // latency aborts the ablation instead of silently producing zero or
    // negative transfer times.
    let networks: [(&str, NetworkSpec); 3] = [
        ("1 Gbit/s", NetworkSpec::validated(1.25e8, 50e-6).expect("positive and finite")),
        ("10 Gbit/s", NetworkSpec::validated(1.25e9, 2e-6).expect("positive and finite")),
        ("100 Gbit/s", NetworkSpec::validated(1.25e10, 10e-6).expect("positive and finite")),
    ];
    for (name, network) in networks {
        let mut cluster = ClusterSpec::paper(16);
        cluster.network = network;
        let config = DistGnnConfig::paper(PaperParams::middle().model(ModelKind::Sage), cluster);
        let base = DistGnnEngine::builder(&graph, &random.partition)
            .config(config)
            .build()
            .expect("valid")
            .run(&RunSpec::healthy())
            .expect("healthy run")
            .into_healthy()
            .remove(0);
        let own = DistGnnEngine::builder(&graph, &hep.partition)
            .config(config)
            .build()
            .expect("valid")
            .run(&RunSpec::healthy())
            .expect("healthy run")
            .into_healthy()
            .remove(0);
        t.push(vec![name.to_string(), fmt(base.epoch_time() / own.epoch_time())]);
    }
    ctx.emit(&t);
}

/// Hot-vertex feature cache: traffic and epoch time vs cache size
/// (extension — DistDGL ships an equivalent cache).
fn cache(ctx: &Ctx) {
    let graph = ctx.graph(DatasetId::OR);
    let split = ctx.split(DatasetId::OR);
    let partition = Metis::default().partition_vertices(&graph, 8, 1).expect("valid");
    let mut t = Table::new(
        "ablation_feature_cache",
        &["cache_entries", "cache_hit_rate", "traffic_mb", "feature_load_ms"],
    );
    let n = graph.num_vertices();
    for entries in [0u32, n / 200, n / 50, n / 10] {
        let mut config = DistDglConfig::paper(
            PaperParams { feature_size: 512, ..PaperParams::middle() }.model(ModelKind::Sage),
            ClusterSpec::paper(8),
        );
        config.feature_cache_entries = entries;
        let engine = DistDglEngine::builder(&graph, &partition, &split)
            .config(config)
            .build()
            .expect("valid");
        let s = engine.run(&RunSpec::healthy()).expect("healthy run").into_healthy().remove(0);
        let hit_rate = s.cache_hits as f64 / s.total_remote_vertices.max(1) as f64;
        t.push(vec![
            entries.to_string(),
            fmt(hit_rate),
            fmt(s.counters.total_network_bytes() as f64 / 1e6),
            format!("{:.3}", s.phases.feature_load * 1e3),
        ]);
    }
    ctx.emit(&t);
}

/// Greedy (PowerGraph) vs HDRF — its descendant with degree-weighted
/// scoring (extension). On graphs with strong community structure the
/// capacity-capped Greedy is surprisingly competitive; HDRF's advantage
/// shows on pure power-law topologies (see `vertex_cut::greedy` tests).
fn greedy(ctx: &Ctx) {
    let mut t = Table::new(
        "ablation_greedy_vs_hdrf",
        &["graph", "partitioner", "replication_factor", "edge_balance"],
    );
    for id in [DatasetId::OR, DatasetId::HW, DatasetId::DI] {
        let graph = ctx.graph(id);
        for (name, part) in [
            ("Greedy", Greedy.partition_edges(&graph, 16, 1).expect("valid")),
            ("HDRF", Hdrf::default().partition_edges(&graph, 16, 1).expect("valid")),
        ] {
            t.push(vec![
                id.name().to_string(),
                name.to_string(),
                fmt(part.replication_factor()),
                fmt(part.edge_balance()),
            ]);
        }
    }
    ctx.emit(&t);
}

/// Extension partitioners vs the paper roster: RF/bound for vertex-cuts,
/// cut for edge-cuts, on OR at k = 16.
fn extensions(ctx: &Ctx) {
    use gp_core::registry;
    let graph = ctx.graph(DatasetId::OR);
    let split = ctx.split(DatasetId::OR);
    let mut t = Table::new(
        "ablation_extensions",
        &["partitioner", "kind", "rf_or_cut", "balance", "seconds"],
    );
    let all_edge: Vec<&str> = registry::edge_partitioner_names()
        .iter()
        .copied()
        .chain(registry::EXTENSION_EDGE_PARTITIONERS)
        .collect();
    for name in all_edge {
        let p = registry::edge_partitioner(name).expect("registered");
        let start = std::time::Instant::now();
        let part = p.partition_edges(&graph, 16, 1).expect("valid");
        t.push(vec![
            name.to_string(),
            "vertex-cut".into(),
            fmt(part.replication_factor()),
            fmt(part.edge_balance()),
            format!("{:.4}", start.elapsed().as_secs_f64()),
        ]);
    }
    let all_vertex: Vec<&str> = registry::vertex_partitioner_names()
        .iter()
        .copied()
        .chain(registry::EXTENSION_VERTEX_PARTITIONERS)
        .collect();
    for name in all_vertex {
        let p = registry::vertex_partitioner(name, Some(split.train.clone())).expect("registered");
        let start = std::time::Instant::now();
        let part = p.partition_vertices(&graph, 16, 1).expect("valid");
        t.push(vec![
            name.to_string(),
            "edge-cut".into(),
            fmt(part.edge_cut_ratio()),
            fmt(part.vertex_balance()),
            format!("{:.4}", start.elapsed().as_secs_f64()),
        ]);
    }
    ctx.emit(&t);
}

/// Fault injection: per-partitioner recovery overhead under a seeded
/// schedule of crashes, stragglers and network brownouts (extension —
/// the paper trains on healthy clusters only). Better partitions keep
/// their edge under faults too: recovery traffic scales with the
/// replication factor (DistGNN) / redistributed training set (DistDGL).
fn faults(ctx: &Ctx, quick: bool) {
    use gp_core::fault_sweep::{fault_sweep, fault_sweep_table};
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let mtbfs: &[f64] = if quick { &[2.0] } else { &[2.0, 5.0, 10.0] };
    let (k, epochs) = if quick { (8, 4) } else { (16, 10) };
    let parts = ctx.edge_partitions(DatasetId::OR, k);
    let gnn = DistGnn { checkpoint_every: 2, ..DistGnn::new(&graph, model) };
    let rows = fault_sweep(&gnn, &parts, epochs, mtbfs, 0xfa11, ctx.threads);
    ctx.emit(&fault_sweep_table("ablation_faults_distgnn", &rows));

    let split = ctx.split(DatasetId::OR);
    let vparts = ctx.vertex_partitions(DatasetId::OR, k);
    let dgl = DistDgl::new(&graph, &split, model);
    let rows = fault_sweep(&dgl, &vparts, epochs, mtbfs, 0xfa11, ctx.threads);
    ctx.emit(&fault_sweep_table("ablation_faults_distdgl", &rows));
}

/// Straggler mitigation: mitigated vs unmitigated simulated epoch time
/// per partitioner under a crash-free stress schedule of deep slowdowns
/// (4× for three epochs) and network brownouts (extension). DistGNN
/// runs the adaptive cd-r + master-rebalancing policy; DistDGL compares
/// work stealing, speculative re-execution, and both combined. Both
/// runs of each cell replay the identical seeded `FaultPlan`, so the
/// difference is exactly the mitigation layer's effect.
fn mitigation(ctx: &Ctx, quick: bool) {
    use gp_cluster::MitigationPolicy;
    use gp_core::fault_sweep::{mitigation_stress_spec, mitigation_sweep, mitigation_sweep_table};
    let (k, epochs) = if quick { (8, 6) } else { (16, 12) };
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let spec = mitigation_stress_spec(k, epochs, 0x517a11);
    let parts = ctx.edge_partitions(DatasetId::OR, k);
    let gnn = DistGnn { checkpoint_every: 2, ..DistGnn::new(&graph, model) };
    let rows = mitigation_sweep(&gnn, &parts, &spec, MitigationPolicy::adaptive(), ctx.threads);
    ctx.emit(&mitigation_sweep_table("ablation_mitigation_distgnn", &rows));

    let split = ctx.split(DatasetId::OR);
    let vparts = ctx.vertex_partitions(DatasetId::OR, k);
    let dgl = DistDgl::new(&graph, &split, model);
    let mut rows = Vec::new();
    for policy in
        [MitigationPolicy::steal(), MitigationPolicy::speculate(), MitigationPolicy::all()]
    {
        rows.extend(mitigation_sweep(&dgl, &vparts, &spec, policy, ctx.threads));
    }
    ctx.emit(&mitigation_sweep_table("ablation_mitigation_distdgl", &rows));
}

/// Traced phase breakdown: run both engines — every partitioner of the
/// roster — with the span recorder attached and emit the per-(worker,
/// phase) aggregates — where a simulated epoch's time, bytes and flops
/// actually go (extension). The span-accounting invariant (engine test
/// suites) guarantees these rows sum exactly to the engines' reported
/// phase totals, and tracing never perturbs the simulation itself.
///
/// The traced runs execute as cells on the `gp-exec` pool, so the CSVs
/// are byte-identical across `--threads`; the pool's host time shows
/// under `--prof` (`core.trace.*`, `exec.cell`), never in the CSVs.
fn phases(ctx: &Ctx, quick: bool) {
    use gp_core::trace_run::{phase_table, trace_runs};
    let (k, epochs) = if quick { (4, 2) } else { (8, 4) };
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let parts = ctx.edge_partitions(DatasetId::OR, k);
    let sinks = trace_runs(&DistGnn::new(&graph, model), &parts, epochs, None, false, ctx.threads)
        .expect("healthy traced runs");
    for (name, sink) in &sinks {
        let table_name = format!("ablation_phase_breakdown_distgnn_{}", slug(name));
        ctx.emit(&phase_table(&table_name, sink));
    }

    let split = ctx.split(DatasetId::OR);
    let vparts = ctx.vertex_partitions(DatasetId::OR, k);
    let sinks =
        trace_runs(&DistDgl::new(&graph, &split, model), &vparts, epochs, None, false, ctx.threads)
            .expect("healthy traced runs");
    for (name, sink) in &sinks {
        let table_name = format!("ablation_phase_breakdown_distdgl_{}", slug(name));
        ctx.emit(&phase_table(&table_name, sink));
    }
}

/// Metrics aggregation + automated run diagnosis: both engines, every
/// partitioner of the roster, through the `gp_core::diagnose` layer
/// (extension). Emits per-partitioner skew and summary CSVs, the merged
/// Prometheus text exposition, the markdown run reports, and
/// `BENCH_diagnose.json` (per-partitioner imbalance index + p99 phase
/// times). Every run cross-checks its aggregated per-worker phase
/// totals against the engine report exactly (f64 `==`) — a mismatch
/// aborts the ablation. All artifacts are deterministic: bit-identical
/// across `--threads` choices and repeated runs; host time shows under
/// `--prof` (`core.diagnose.*`, `exec.cell`).
fn diagnose(ctx: &Ctx, quick: bool) {
    use gp_cluster::MitigationPolicy;
    use gp_core::diagnose::{
        bench_json, diagnose_prometheus, diagnose_report, diagnose_runs, skew_table, summary_table,
    };
    let (k, epochs) = if quick { (4, 2) } else { (8, 4) };
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let none = MitigationPolicy::none();
    let parts = ctx.edge_partitions(DatasetId::OR, k);
    let gnn_runs =
        diagnose_runs(&DistGnn::new(&graph, model), &parts, epochs, None, none, ctx.threads)
            .expect("healthy diagnosed runs");
    ctx.emit(&skew_table("ablation_diagnose_skew_distgnn", &gnn_runs));
    ctx.emit(&summary_table("ablation_diagnose_summary_distgnn", &gnn_runs));

    let split = ctx.split(DatasetId::OR);
    let vparts = ctx.vertex_partitions(DatasetId::OR, k);
    let dgl = DistDgl::new(&graph, &split, model);
    let dgl_runs = diagnose_runs(&dgl, &vparts, epochs, None, none, ctx.threads)
        .expect("healthy diagnosed runs");
    ctx.emit(&skew_table("ablation_diagnose_skew_distdgl", &dgl_runs));
    ctx.emit(&summary_table("ablation_diagnose_summary_distdgl", &dgl_runs));

    write_artifact(ctx, "ablation_diagnose_distgnn.prom", &diagnose_prometheus(&gnn_runs));
    write_artifact(ctx, "ablation_diagnose_distdgl.prom", &diagnose_prometheus(&dgl_runs));
    write_artifact(ctx, "ablation_diagnose_distgnn.md", &diagnose_report("distgnn", &gnn_runs));
    write_artifact(ctx, "ablation_diagnose_distdgl.md", &diagnose_report("distdgl", &dgl_runs));

    // One benchmark snapshot over both engines; engine-prefixed names
    // keep partitioners that appear in both rosters distinct.
    let mut all = Vec::new();
    for mut r in gnn_runs {
        r.name = format!("distgnn/{}", r.name);
        all.push(r);
    }
    for mut r in dgl_runs {
        r.name = format!("distdgl/{}", r.name);
        all.push(r);
    }
    write_artifact(ctx, "BENCH_diagnose.json", &bench_json(&all));
}

/// Elastic-membership chaos soak: every partitioner of both rosters
/// runs a multi-epoch schedule of seeded churn (leaves + rejoins) and
/// faults with periodic checkpoints through the `.elastic(..)` leg,
/// and the elastic contract is checked per row — the rerun is
/// bit-identical, the traced run equals the untraced one, the elastic
/// run is never worse than the crash-without-handoff baseline, and
/// per-worker span sums equal the engines' phase totals exactly
/// (extension; the soak behind `gnnpart chaos`). A red invariant
/// aborts the ablation. Emits per-engine CSVs plus `BENCH_chaos.json`
/// with the recovery-overhead and lost-progress metrics per
/// partitioner; all three artifacts are deterministic — bit-identical
/// across `--threads` choices and repeated runs (no wall-clock
/// fields).
fn chaos(ctx: &Ctx, quick: bool) {
    use gp_core::chaos::{chaos_bench_json, chaos_soak, chaos_table};
    let (k, epochs, mtbf, every) = if quick { (8, 10, 4.0, 2) } else { (16, 40, 6.0, 4) };
    let seed = 0xc4a05;
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let parts = ctx.edge_partitions(DatasetId::OR, k);
    let gnn = DistGnn::new(&graph, model);
    let gnn_rows = chaos_soak(&gnn, &parts, epochs, mtbf, every, seed, ctx.threads);
    ctx.emit(&chaos_table("ablation_chaos_distgnn", &gnn_rows));

    let split = ctx.split(DatasetId::OR);
    let vparts = ctx.vertex_partitions(DatasetId::OR, k);
    let dgl = DistDgl::new(&graph, &split, model);
    let dgl_rows = chaos_soak(&dgl, &vparts, epochs, mtbf, every, seed, ctx.threads);
    ctx.emit(&chaos_table("ablation_chaos_distdgl", &dgl_rows));

    for r in gnn_rows.iter().chain(&dgl_rows) {
        assert!(
            r.holds(),
            "{}: elastic contract violated (completed {}/{}, deterministic={}, \
             trace_transparent={}, elastic_never_worse={}, spans_exact={})",
            r.name,
            r.completed_epochs,
            r.epochs,
            r.deterministic,
            r.trace_transparent,
            r.elastic_never_worse,
            r.spans_exact,
        );
    }
    write_artifact(ctx, "BENCH_chaos.json", &chaos_bench_json(&gnn_rows, &dgl_rows));
}

/// Network-fault chaos soak: the `chaos` environment composed with a
/// seeded message-level fault plan — per-message loss, duplication and
/// reorder plus partition windows splitting the fleet into quorum and
/// minority islands — through both engines'
/// the `.net(..)` `RunSpec` leg (extension; the soak behind `gnnpart
/// netchaos`). Per row the network contract is checked: bit-identical
/// reruns, traced == untraced, exactly-once-effective delivery, exact
/// span sums, and the bounded-staleness degraded mode never worse than
/// the abort-and-recover baseline (adopt-only by construction). A red
/// invariant aborts the ablation. Emits per-engine CSVs plus
/// `BENCH_netchaos.json`; all artifacts are deterministic —
/// bit-identical across `--threads` choices and repeated runs.
fn netchaos(ctx: &Ctx, quick: bool) {
    use gp_core::netchaos::{netchaos_bench_json, netchaos_soak, netchaos_table};
    let (k, epochs, mtbf, every) = if quick { (8, 10, 4.0, 2) } else { (16, 40, 6.0, 4) };
    // Not the chaos seed: 0xc4a05 happens to arm zero partition
    // windows at both scales, and a windowless soak never exercises
    // the degraded/abort decision this ablation exists to check.
    let seed = 7;
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let parts = ctx.edge_partitions(DatasetId::OR, k);
    let gnn = DistGnn::new(&graph, model);
    let gnn_rows = netchaos_soak(&gnn, &parts, epochs, mtbf, every, seed, ctx.threads);
    ctx.emit(&netchaos_table("ablation_netchaos_distgnn", &gnn_rows));

    let split = ctx.split(DatasetId::OR);
    let vparts = ctx.vertex_partitions(DatasetId::OR, k);
    let dgl = DistDgl::new(&graph, &split, model);
    let dgl_rows = netchaos_soak(&dgl, &vparts, epochs, mtbf, every, seed, ctx.threads);
    ctx.emit(&netchaos_table("ablation_netchaos_distdgl", &dgl_rows));

    for r in gnn_rows.iter().chain(&dgl_rows) {
        assert!(
            r.holds(),
            "{}: network fault contract violated (completed {}/{}, deterministic={}, \
             trace_transparent={}, degraded_never_worse={}, exactly_once={}, spans_exact={})",
            r.name,
            r.completed_epochs,
            r.epochs,
            r.deterministic,
            r.trace_transparent,
            r.degraded_never_worse,
            r.exactly_once,
            r.spans_exact,
        );
    }
    write_artifact(ctx, "BENCH_netchaos.json", &netchaos_bench_json(&gnn_rows, &dgl_rows));
}

/// Streaming dynamic-graph sweep: every partitioner of both rosters
/// replays the same seeded mutation stream through its engine's
/// `.stream(..)` `RunSpec` leg once per repartition policy (never /
/// threshold-on-imbalance / periodic), training one epoch per batch on
/// the live snapshot while the partition is maintained incrementally
/// and policy-triggered full repartitions are charged their modeled
/// cost in simulated seconds (extension; the sweep behind `gnnpart
/// stream`). Per row the stream contract is checked: bit-identical
/// reruns, traced == untraced, and — the adopt-only gate — no policy
/// worse than the `never` baseline on total training time. A red
/// invariant aborts the ablation. Emits per-engine CSVs plus
/// `BENCH_stream.json` with the per-batch quality-decay curves,
/// repartition counts/costs, recovered speedups and amortization
/// epochs; all artifacts are deterministic — bit-identical across
/// `--threads` choices and repeated runs (no wall-clock fields).
fn stream(ctx: &Ctx, quick: bool) {
    use gp_core::registry;
    use gp_core::stream_sweep::{stream_bench_json, stream_policies, stream_sweep, stream_table};
    let (k, batches) = if quick { (4, 6) } else { (8, 10) };
    let spec = gp_graph::StreamSpec::paper_default(batches, 0xd21f7);
    let policies = stream_policies();
    let graph = ctx.graph(DatasetId::OR);
    let model = PaperParams::middle().model(ModelKind::Sage);
    let names = registry::edge_partitioner_names();
    let gnn = DistGnn::new(&graph, model);
    let gnn_rows = stream_sweep(&gnn, names, k, &spec, &policies, 1, ctx.threads);
    ctx.emit(&stream_table("ablation_stream_distgnn", &gnn_rows));

    let split = ctx.split(DatasetId::OR);
    let names = registry::vertex_partitioner_names();
    let dgl = DistDgl::new(&graph, &split, model);
    let dgl_rows = stream_sweep(&dgl, names, k, &spec, &policies, 1, ctx.threads);
    ctx.emit(&stream_table("ablation_stream_distdgl", &dgl_rows));

    for r in gnn_rows.iter().chain(&dgl_rows) {
        assert!(
            r.holds(),
            "{}/{}: stream contract violated (completed {}/{}, deterministic={}, \
             trace_transparent={}, never_worse={})",
            r.name,
            r.policy,
            r.completed_batches,
            r.batches,
            r.deterministic,
            r.trace_transparent,
            r.never_worse,
        );
    }
    write_artifact(ctx, "BENCH_stream.json", &stream_bench_json(&gnn_rows, &dgl_rows));
}

/// Write a non-CSV diagnose artifact (Prometheus text, markdown report,
/// benchmark JSON) into the context's output directory.
fn write_artifact(ctx: &Ctx, name: &str, contents: &str) {
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("warning: could not create {}: {e}", ctx.out_dir.display());
        return;
    }
    let path = ctx.out_dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Partitioner name → filesystem/CSV-safe lowercase slug
/// (`HEP-100` → `hep_100`).
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

/// DistGNN cd-r: per-epoch sync cost vs the sync period (extension;
/// staleness/convergence effects are outside the cost model — the
/// DistGNN paper shows accuracy degrades gracefully up to r ≈ 4).
fn cdr(ctx: &Ctx) {
    let graph = ctx.graph(DatasetId::OR);
    let parts = ctx.edge_partitions(DatasetId::OR, 16);
    let random = parts.iter().find(|p| p.name == "Random").expect("baseline");
    let mut t = Table::new("ablation_cdr", &["sync_period", "epoch_ms", "sync_ms", "traffic_mb"]);
    for period in [1u32, 2, 4, 8] {
        let mut config = DistGnnConfig::paper(
            PaperParams::middle().model(ModelKind::Sage),
            ClusterSpec::paper(16),
        );
        config.sync_period = period;
        let report = DistGnnEngine::builder(&graph, &random.partition)
            .config(config)
            .build()
            .expect("valid")
            .run(&RunSpec::healthy())
            .expect("healthy run")
            .into_healthy()
            .remove(0);
        t.push(vec![
            period.to_string(),
            format!("{:.3}", report.epoch_time() * 1e3),
            format!("{:.3}", report.phases.sync * 1e3),
            fmt(report.counters.total_network_bytes() as f64 / 1e6),
        ]);
    }
    ctx.emit(&t);
}

#[cfg(test)]
mod tests {
    use super::one_name;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn one_name_takes_exactly_one_ablation() {
        assert_eq!(one_name(&args(&[])), Ok("all"));
        assert_eq!(one_name(&args(&["fanout"])), Ok("fanout"));
        let err = one_name(&args(&["fanout", "cache"])).unwrap_err();
        assert!(err.contains("\"cache\""), "{err}");
        let err = one_name(&args(&["fanout", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown option \"--bogus\""), "{err}");
        let err = one_name(&args(&["--engine-threads", "4", "fanout"])).unwrap_err();
        assert!(err.contains("unknown option \"--engine-threads\""), "{err}");
    }
}
