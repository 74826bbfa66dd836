//! Cross-thread-count conformance: every sweep front end must produce
//! **bit-identical** output (`f64 ==`, byte-equal CSVs) no matter how
//! many workers the `gp-exec` pool runs — `--threads 1` is the old
//! serial path and serves as the reference oracle. Each suite also
//! re-runs one parallel width to catch run-to-run nondeterminism
//! (racy accumulation, HashMap iteration, ...).
//!
//! Wall-clock fields (`Timed::seconds`, pool timing) are
//! the one sanctioned exception: they measure the host machine, not the
//! simulation, and are excluded from every comparison here.

use gnnpart::cluster::MitigationPolicy;
use gnnpart::core::chaos::chaos_churn_spec;
use gnnpart::core::config::PaperParams;
use gnnpart::core::netchaos::netchaos_net_spec;
use gnnpart::graph::StreamSpec;
use gnnpart::partition::RepartitionPolicy;
use gnnpart::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn graph() -> Graph {
    DatasetId::OR.generate(GraphScale::Tiny).unwrap()
}

fn gnn(g: &Graph) -> DistGnn<'_> {
    DistGnn::new(g, PaperParams::middle().model(ModelKind::Sage))
}

fn dgl<'g>(g: &'g Graph, split: &'g VertexSplit) -> DistDgl<'g> {
    DistDgl {
        global_batch_size: 256,
        ..DistDgl::new(g, split, PaperParams::middle().model(ModelKind::Sage))
    }
}

fn small_grid() -> Vec<PaperParams> {
    vec![
        PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 },
        PaperParams { feature_size: 32, hidden_dim: 16, num_layers: 3 },
    ]
}

#[test]
fn timed_partitions_agree_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let serial_e = timed_edge_partitions(&g, 4, 7, Threads::serial());
    let serial_v = timed_vertex_partitions(&g, 4, 7, &split.train, Threads::serial());
    for threads in THREAD_COUNTS {
        let par_e = timed_edge_partitions(&g, 4, 7, Threads::new(threads));
        let par_v = timed_vertex_partitions(&g, 4, 7, &split.train, Threads::new(threads));
        assert_eq!(par_e.len(), serial_e.len());
        for (p, s) in par_e.iter().zip(serial_e.iter()) {
            assert_eq!(p.name, s.name, "threads = {threads}: registry order preserved");
            assert_eq!(p.partition, s.partition, "threads = {threads}: {}", s.name);
        }
        for (p, s) in par_v.iter().zip(serial_v.iter()) {
            assert_eq!(p.name, s.name, "threads = {threads}: registry order preserved");
            assert_eq!(p.partition, s.partition, "threads = {threads}: {}", s.name);
        }
    }
}

#[test]
fn distgnn_grid_is_bit_identical_across_thread_counts() {
    let g = graph();
    let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let grid = small_grid();
    let serial = distgnn_grid(&gnn(&g), &timed, &grid, Threads::serial());
    for threads in THREAD_COUNTS {
        let par = distgnn_grid(&gnn(&g), &timed, &grid, Threads::new(threads));
        assert_eq!(par, serial, "threads = {threads}");
    }
    // Run-to-run stability at a fixed parallel width.
    let a = distgnn_grid(&gnn(&g), &timed, &grid, Threads::new(4));
    let b = distgnn_grid(&gnn(&g), &timed, &grid, Threads::new(4));
    assert_eq!(a, b, "repeated 4-thread runs");
}

#[test]
fn distdgl_grid_is_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let grid = small_grid();
    let run = |threads| distdgl_grid(&dgl(&g, &split), &timed, &grid, threads);
    let serial = run(Threads::serial());
    for threads in THREAD_COUNTS {
        assert_eq!(run(Threads::new(threads)), serial, "threads = {threads}");
    }
    let a = run(Threads::new(4));
    let b = run(Threads::new(4));
    assert_eq!(a, b, "repeated 4-thread runs");
}

#[test]
fn fault_sweeps_are_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let gnn = DistGnn { checkpoint_every: 2, ..gnn(&g) };
    let dgl = dgl(&g, &split);
    let mtbfs = [2.0, 5.0];

    let serial_e = fault_sweep(&gnn, &timed_e, 4, &mtbfs, 0xfa11, Threads::serial());
    let serial_v = fault_sweep(&dgl, &timed_v, 4, &mtbfs, 0xfa11, Threads::serial());
    for threads in THREAD_COUNTS {
        let par_e = fault_sweep(&gnn, &timed_e, 4, &mtbfs, 0xfa11, Threads::new(threads));
        assert_eq!(par_e, serial_e, "distgnn threads = {threads}");
        let par_v = fault_sweep(&dgl, &timed_v, 4, &mtbfs, 0xfa11, Threads::new(threads));
        assert_eq!(par_v, serial_v, "distdgl threads = {threads}");
    }
    // The emitted CSV artifact is byte-identical too, not just f64-equal.
    let par_e = fault_sweep(&gnn, &timed_e, 4, &mtbfs, 0xfa11, Threads::new(4));
    assert_eq!(
        fault_sweep_table("conformance", &par_e).to_csv(),
        fault_sweep_table("conformance", &serial_e).to_csv(),
        "CSV bytes"
    );
}

#[test]
fn mitigation_sweeps_are_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let gnn = DistGnn { checkpoint_every: 2, ..gnn(&g) };
    let dgl = dgl(&g, &split);
    let spec = mitigation_stress_spec(4, 4, 0x517a11);
    let adaptive = MitigationPolicy::adaptive();
    let all = MitigationPolicy::all();

    let serial_e = mitigation_sweep(&gnn, &timed_e, &spec, adaptive, Threads::serial());
    let serial_v = mitigation_sweep(&dgl, &timed_v, &spec, all, Threads::serial());
    for threads in THREAD_COUNTS {
        let par_e = mitigation_sweep(&gnn, &timed_e, &spec, adaptive, Threads::new(threads));
        assert_eq!(par_e, serial_e, "distgnn threads = {threads}");
        let par_v = mitigation_sweep(&dgl, &timed_v, &spec, all, Threads::new(threads));
        assert_eq!(par_v, serial_v, "distdgl threads = {threads}");
    }
    let par_e = mitigation_sweep(&gnn, &timed_e, &spec, adaptive, Threads::new(4));
    assert_eq!(
        mitigation_sweep_table("conformance", &par_e).to_csv(),
        mitigation_sweep_table("conformance", &serial_e).to_csv(),
        "CSV bytes"
    );
}

#[test]
fn chaos_soaks_are_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let (gnn, dgl) = (gnn(&g), dgl(&g, &split));

    let serial_e = chaos_soak(&gnn, &timed_e, 8, 5.0, 2, 0xc4a05, Threads::serial());
    let serial_v = chaos_soak(&dgl, &timed_v, 6, 5.0, 2, 0xc4a05, Threads::serial());
    for threads in THREAD_COUNTS {
        let par_e = chaos_soak(&gnn, &timed_e, 8, 5.0, 2, 0xc4a05, Threads::new(threads));
        assert_eq!(par_e, serial_e, "distgnn threads = {threads}");
        let par_v = chaos_soak(&dgl, &timed_v, 6, 5.0, 2, 0xc4a05, Threads::new(threads));
        assert_eq!(par_v, serial_v, "distdgl threads = {threads}");
    }
    // Both exported artifacts are byte-identical, not just f64-equal.
    let par_e = chaos_soak(&gnn, &timed_e, 8, 5.0, 2, 0xc4a05, Threads::new(4));
    let par_v = chaos_soak(&dgl, &timed_v, 6, 5.0, 2, 0xc4a05, Threads::new(4));
    assert_eq!(
        chaos_table("conformance", &par_e).to_csv(),
        chaos_table("conformance", &serial_e).to_csv(),
        "CSV bytes"
    );
    assert_eq!(
        chaos_bench_json(&par_e, &par_v),
        chaos_bench_json(&serial_e, &serial_v),
        "bench JSON bytes"
    );
}

#[test]
fn netchaos_soaks_are_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let (gnn, dgl) = (gnn(&g), dgl(&g, &split));

    // Seed 7 arms real partition windows at this scale, so the
    // conformance check covers the degraded-mode epochs too — not just
    // the window-free transport-noise path.
    let serial_e = netchaos_soak(&gnn, &timed_e, 8, 5.0, 2, 7, Threads::serial());
    let serial_v = netchaos_soak(&dgl, &timed_v, 6, 5.0, 2, 7, Threads::serial());
    assert!(
        serial_e.iter().chain(&serial_v).any(|r| r.windows > 0),
        "at least one cell arms a partition window"
    );
    for threads in THREAD_COUNTS {
        let par_e = netchaos_soak(&gnn, &timed_e, 8, 5.0, 2, 7, Threads::new(threads));
        assert_eq!(par_e, serial_e, "distgnn threads = {threads}");
        let par_v = netchaos_soak(&dgl, &timed_v, 6, 5.0, 2, 7, Threads::new(threads));
        assert_eq!(par_v, serial_v, "distdgl threads = {threads}");
    }
    // Both exported artifacts are byte-identical, not just f64-equal.
    let par_e = netchaos_soak(&gnn, &timed_e, 8, 5.0, 2, 7, Threads::new(4));
    let par_v = netchaos_soak(&dgl, &timed_v, 6, 5.0, 2, 7, Threads::new(4));
    assert_eq!(
        netchaos_table("conformance", &par_e).to_csv(),
        netchaos_table("conformance", &serial_e).to_csv(),
        "CSV bytes"
    );
    assert_eq!(
        netchaos_bench_json(&par_e, &par_v),
        netchaos_bench_json(&serial_e, &serial_v),
        "bench JSON bytes"
    );
}

#[test]
fn stream_sweeps_are_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let (gnn, dgl) = (gnn(&g), dgl(&g, &split));
    let spec = StreamSpec::paper_default(5, 0xd21f7);
    let policies = stream_policies();
    let names_e = ["Random", "HDRF"];
    let names_v = ["Random", "LDG"];

    let serial_e = stream_sweep(&gnn, &names_e, 4, &spec, &policies, 1, Threads::serial());
    let serial_v = stream_sweep(&dgl, &names_v, 4, &spec, &policies, 1, Threads::serial());
    for r in serial_e.iter().chain(&serial_v) {
        assert!(r.holds(), "{}/{}: stream contract", r.name, r.policy);
    }
    for threads in THREAD_COUNTS {
        let par_e = stream_sweep(&gnn, &names_e, 4, &spec, &policies, 1, Threads::new(threads));
        assert_eq!(par_e, serial_e, "distgnn threads = {threads}");
        let par_v = stream_sweep(&dgl, &names_v, 4, &spec, &policies, 1, Threads::new(threads));
        assert_eq!(par_v, serial_v, "distdgl threads = {threads}");
    }
    // Nested pools (4-wide sweep x 4-wide engines) still match, and
    // both exported artifacts are byte-identical, not just f64-equal.
    let nested = Parallelism::new(Threads::new(4), Threads::new(4));
    let par_e = stream_sweep(&gnn, &names_e, 4, &spec, &policies, 1, nested);
    let par_v = stream_sweep(&dgl, &names_v, 4, &spec, &policies, 1, nested);
    assert_eq!(
        stream_table("conformance", &par_e).to_csv(),
        stream_table("conformance", &serial_e).to_csv(),
        "CSV bytes"
    );
    assert_eq!(
        stream_bench_json(&par_e, &par_v),
        stream_bench_json(&serial_e, &serial_v),
        "bench JSON bytes"
    );
}

#[test]
fn trace_runs_are_bit_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let (gnn, dgl) = (gnn(&g), dgl(&g, &split));

    let (serial_e, timing) = trace_runs(&gnn, &timed_e, 2, None, false, Threads::serial()).unwrap();
    assert_eq!(timing.threads, 1, "serial oracle runs one worker");
    let (serial_v, _) = trace_runs(&dgl, &timed_v, 2, None, false, Threads::serial()).unwrap();
    for threads in THREAD_COUNTS {
        let (par_e, _) = trace_runs(&gnn, &timed_e, 2, None, false, Threads::new(threads)).unwrap();
        for ((pn, ps), (sn, ss)) in par_e.iter().zip(serial_e.iter()) {
            assert_eq!(pn, sn, "threads = {threads}: partitioner order");
            assert_eq!(ps.spans(), ss.spans(), "threads = {threads}: {pn} spans");
            assert_eq!(ps.phase_csv(), ss.phase_csv(), "threads = {threads}: {pn} CSV bytes");
            assert_eq!(
                ps.to_chrome_json(),
                ss.to_chrome_json(),
                "threads = {threads}: {pn} chrome JSON bytes"
            );
        }
        let (par_v, _) = trace_runs(&dgl, &timed_v, 2, None, false, Threads::new(threads)).unwrap();
        for ((pn, ps), (sn, ss)) in par_v.iter().zip(serial_v.iter()) {
            assert_eq!(pn, sn, "threads = {threads}: partitioner order");
            assert_eq!(ps.spans(), ss.spans(), "threads = {threads}: {pn} spans");
            assert_eq!(ps.phase_csv(), ss.phase_csv(), "threads = {threads}: {pn} CSV bytes");
        }
    }
}

#[test]
fn diagnose_artifacts_are_byte_identical_across_thread_counts() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let (gnn, dgl) = (gnn(&g), dgl(&g, &split));
    let none = MitigationPolicy::none();

    let (serial_e, timing) =
        diagnose_runs(&gnn, &timed_e, 2, None, none, Threads::serial()).unwrap();
    assert_eq!(timing.threads, 1, "serial oracle runs one worker");
    let (serial_v, _) = diagnose_runs(&dgl, &timed_v, 2, None, none, Threads::serial()).unwrap();
    // Every artifact the diagnose layer exports, as bytes.
    let artifacts = |e: &[RunDiagnosis], v: &[RunDiagnosis]| -> Vec<String> {
        vec![
            diagnose_report("distgnn", e),
            diagnose_report("distdgl", v),
            diagnose_prometheus(e),
            diagnose_prometheus(v),
            skew_table("conformance_skew", e).to_csv(),
            skew_table("conformance_skew", v).to_csv(),
            summary_table("conformance_summary", e).to_csv(),
            summary_table("conformance_summary", v).to_csv(),
            bench_json(e),
            bench_json(v),
        ]
    };
    let oracle = artifacts(&serial_e, &serial_v);
    for threads in THREAD_COUNTS {
        let (par_e, _) =
            diagnose_runs(&gnn, &timed_e, 2, None, none, Threads::new(threads)).unwrap();
        let (par_v, _) =
            diagnose_runs(&dgl, &timed_v, 2, None, none, Threads::new(threads)).unwrap();
        assert_eq!(artifacts(&par_e, &par_v), oracle, "threads = {threads}");
    }
    // Run-to-run stability at a fixed parallel width.
    let (a_e, _) = diagnose_runs(&gnn, &timed_e, 2, None, none, Threads::new(4)).unwrap();
    let (a_v, _) = diagnose_runs(&dgl, &timed_v, 2, None, none, Threads::new(4)).unwrap();
    assert_eq!(artifacts(&a_e, &a_v), oracle, "repeated 4-thread runs");
}

#[test]
fn merged_metric_snapshots_are_associative_and_order_insensitive() {
    use gnnpart::cluster::MetricsSnapshot;
    use gnnpart::graph::rng::Rng;

    let g = graph();
    let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let gnn = gnn(&g);
    let (serial, _) =
        diagnose_runs(&gnn, &timed, 2, None, MitigationPolicy::none(), Threads::serial()).unwrap();
    let oracle = merged_snapshot(&serial);
    let mut rng = Rng::from_state(0xd1a6);
    for threads in [1usize, 2, 4, 8] {
        let (runs, _) =
            diagnose_runs(&gnn, &timed, 2, None, MitigationPolicy::none(), Threads::new(threads))
                .unwrap();
        let snaps: Vec<MetricsSnapshot> = runs.iter().map(|r| r.snapshot.clone()).collect();
        // Order insensitivity: random permutations all merge to the oracle.
        for _ in 0..5 {
            let mut order: Vec<usize> = (0..snaps.len()).collect();
            rng.shuffle(&mut order);
            let mut merged = MetricsSnapshot::default();
            for &i in &order {
                merged.merge(&snaps[i]);
            }
            assert_eq!(merged, oracle, "threads = {threads}, order = {order:?}");
        }
        // Associativity: left fold == right fold == split-in-half.
        let mut right = MetricsSnapshot::default();
        for s in snaps.iter().rev() {
            let mut acc = s.clone();
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(right, oracle, "threads = {threads}: right fold");
        let mid = snaps.len() / 2;
        let mut left = MetricsSnapshot::default();
        for s in &snaps[..mid] {
            left.merge(s);
        }
        let mut tail = MetricsSnapshot::default();
        for s in &snaps[mid..] {
            tail.merge(s);
        }
        left.merge(&tail);
        assert_eq!(left, oracle, "threads = {threads}: split grouping");
        // Identity: merging the empty snapshot changes nothing.
        let mut with_empty = oracle.clone();
        with_empty.merge(&MetricsSnapshot::default());
        assert_eq!(with_empty, oracle, "threads = {threads}: identity");
        // The Prometheus rendering of equal snapshots is byte-equal.
        assert_eq!(right.to_prometheus(), oracle.to_prometheus(), "threads = {threads}");
    }
}

/// Every `RunSpec` path a conformance run must cover, keyed by name so
/// failures say which scenario diverged. All five legs of the unified
/// simulate API: healthy, faulty, mitigated, elastic, partitioned.
fn conformance_specs(machines: u32, epochs: u32, seed: u64) -> Vec<(&'static str, RunSpec)> {
    let faults = FaultPlan::generate(&FaultSpec::standard(machines, epochs, 3.0, seed));
    let churn = ChurnPlan::generate(&chaos_churn_spec(machines, epochs, seed));
    let ckpt = CheckpointConfig::periodic(2);
    let net = NetFaultPlan::generate(&netchaos_net_spec(machines, epochs, seed));
    let elastic = RunSpec::healthy().epochs(epochs).faults(faults.clone()).elastic(
        churn,
        ckpt,
        ElasticOptions::default(),
    );
    vec![
        ("healthy", RunSpec::healthy().epochs(epochs)),
        ("faulty", RunSpec::healthy().epochs(epochs).faults(faults.clone())),
        (
            "mitigated",
            RunSpec::healthy().epochs(epochs).faults(faults).mitigate(MitigationPolicy::all()),
        ),
        ("elastic", elastic.clone()),
        ("partitioned", elastic.net(net, NetRunOptions::default())),
    ]
}

/// Run one spec on a DistGNN engine at the given intra-epoch width and
/// render the full outcome — every epoch report, recovery account,
/// mitigation tally and error — as its `Debug` form. Rust's `Debug` for
/// `f64` prints the shortest round-tripping decimal, so string equality
/// here is bit equality of every float in the report.
fn distgnn_outcome(g: &Graph, p: &EdgePartition, spec: &RunSpec, threads: Threads) -> String {
    let config = DistGnnConfig::paper(
        PaperParams::middle().model(ModelKind::Sage),
        ClusterSpec::paper(p.k()),
    );
    let result = DistGnnEngine::builder(g, p)
        .config(config)
        .threads(threads)
        .build()
        .expect("valid config")
        .run(spec);
    format!("{result:?}")
}

/// DistDGL twin of [`distgnn_outcome`].
fn distdgl_outcome(
    g: &Graph,
    p: &VertexPartition,
    split: &VertexSplit,
    spec: &RunSpec,
    threads: Threads,
) -> String {
    let mut config = DistDglConfig::paper(
        PaperParams::middle().model(ModelKind::Sage),
        ClusterSpec::paper(p.k()),
    );
    config.global_batch_size = 256;
    let result = DistDglEngine::builder(g, p, split)
        .config(config)
        .threads(threads)
        .build()
        .expect("valid config")
        .run(spec);
    format!("{result:?}")
}

#[test]
fn distgnn_engine_widths_are_bit_identical_on_every_runspec_path() {
    let g = graph();
    let partition = Hdrf::default().partition_edges(&g, 4, 1).unwrap();
    for (name, spec) in conformance_specs(4, 6, 7) {
        let serial = distgnn_outcome(&g, &partition, &spec, Threads::serial());
        for threads in THREAD_COUNTS {
            let par = distgnn_outcome(&g, &partition, &spec, Threads::new(threads));
            assert_eq!(par, serial, "{name}: engine threads = {threads}");
        }
        // Run-to-run stability at a fixed parallel width.
        let a = distgnn_outcome(&g, &partition, &spec, Threads::new(4));
        let b = distgnn_outcome(&g, &partition, &spec, Threads::new(4));
        assert_eq!(a, b, "{name}: repeated 4-thread runs");
    }
    // The healthy path over the whole edge roster, not only HDRF.
    let (_, healthy) = &conformance_specs(4, 6, 7)[0];
    let roster = timed_edge_partitions(&g, 4, 1, Threads::serial());
    assert_eq!(roster.len(), 6, "all six edge partitioners");
    for t in &roster {
        let serial = distgnn_outcome(&g, &t.partition, healthy, Threads::serial());
        let par = distgnn_outcome(&g, &t.partition, healthy, Threads::new(4));
        assert_eq!(par, serial, "healthy/{}: engine threads = 4", t.name);
    }
}

#[test]
fn distdgl_engine_widths_are_bit_identical_on_every_runspec_path() {
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let partition = Metis::default().partition_vertices(&g, 4, 1).unwrap();
    for (name, spec) in conformance_specs(4, 6, 7) {
        let serial = distdgl_outcome(&g, &partition, &split, &spec, Threads::serial());
        for threads in THREAD_COUNTS {
            let par = distdgl_outcome(&g, &partition, &split, &spec, Threads::new(threads));
            assert_eq!(par, serial, "{name}: engine threads = {threads}");
        }
        let a = distdgl_outcome(&g, &partition, &split, &spec, Threads::new(4));
        let b = distdgl_outcome(&g, &partition, &split, &spec, Threads::new(4));
        assert_eq!(a, b, "{name}: repeated 4-thread runs");
    }
    // The healthy path over the whole vertex roster, not only METIS.
    let (_, healthy) = &conformance_specs(4, 6, 7)[0];
    let roster = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    assert_eq!(roster.len(), 6, "all six vertex partitioners");
    for t in &roster {
        let serial = distdgl_outcome(&g, &t.partition, &split, healthy, Threads::serial());
        let par = distdgl_outcome(&g, &t.partition, &split, healthy, Threads::new(4));
        assert_eq!(par, serial, "healthy/{}: engine threads = 4", t.name);
    }
}

#[test]
fn distdgl_more_engine_threads_than_workers_match_serial() {
    // Sampling runs one job per worker for a whole range of steps, so
    // at k = 2 an 8-wide engine leaves six pool threads without a job;
    // every RunSpec path must still equal the serial engine.
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let partition = Metis::default().partition_vertices(&g, 2, 1).unwrap();
    let stream = StreamSpec {
        batches: 3,
        inserts_per_batch: 64,
        deletes_per_batch: 32,
        arrivals_per_batch: 6,
        edges_per_arrival: 3,
        seed: 11,
    };
    let mut specs = conformance_specs(2, 6, 7);
    specs.push((
        "stream",
        RunSpec::healthy().stream(stream, RepartitionPolicy::Threshold { imbalance: 1.0 }),
    ));
    for (name, spec) in specs {
        let serial = distdgl_outcome(&g, &partition, &split, &spec, Threads::serial());
        let wide = distdgl_outcome(&g, &partition, &split, &spec, Threads::new(8));
        assert_eq!(wide, serial, "{name}: k = 2, engine threads = 8");
    }
}

#[test]
fn nested_sweep_and_engine_pools_match_the_serial_oracle() {
    // The two pool levels compose: a 4-wide sweep whose every cell runs
    // a 4-wide intra-epoch engine must still equal the fully-serial
    // oracle, grid and soak alike.
    let g = graph();
    let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
    let timed_e = timed_edge_partitions(&g, 4, 1, Threads::serial());
    let timed_v = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
    let grid = small_grid();
    let nested = Parallelism::new(Threads::new(4), Threads::new(4));

    let serial_e = distgnn_grid(&gnn(&g), &timed_e, &grid, Threads::serial());
    let par_e = distgnn_grid(&gnn(&g), &timed_e, &grid, nested);
    assert_eq!(par_e, serial_e, "distgnn grid: sweep 4 x engine 4");

    let serial_v = distdgl_grid(&dgl(&g, &split), &timed_v, &grid, Threads::serial());
    let par_v = distdgl_grid(&dgl(&g, &split), &timed_v, &grid, nested);
    assert_eq!(par_v, serial_v, "distdgl grid: sweep 4 x engine 4");

    let soak_timed: Vec<_> = timed_e.into_iter().take(1).collect();
    let gnn = gnn(&g);
    let serial_soak = chaos_soak(&gnn, &soak_timed, 8, 5.0, 2, 0xc4a05, Threads::serial());
    let par_soak = chaos_soak(&gnn, &soak_timed, 8, 5.0, 2, 0xc4a05, nested);
    assert_eq!(par_soak, serial_soak, "distgnn chaos soak: sweep 4 x engine 4");
}

#[test]
fn advisor_ranking_is_identical_across_thread_counts() {
    let g = graph();
    let gnn = gnn(&g);
    let serial = recommend(&gnn, 4, 100, Threads::serial());
    for threads in THREAD_COUNTS {
        let par = recommend(&gnn, 4, 100, Threads::new(threads));
        // partition_seconds (and the net_saving rank built on it) is
        // wall clock; the simulated quantities must match exactly,
        // candidate by candidate.
        assert_eq!(par.ranked.len(), serial.ranked.len());
        for s in &serial.ranked {
            let p = par.ranked.iter().find(|c| c.name == s.name).expect("same candidate set");
            assert_eq!(p.epoch_seconds, s.epoch_seconds, "threads = {threads}: {}", s.name);
            assert_eq!(p.speedup, s.speedup, "threads = {threads}: {}", s.name);
        }
    }
}
