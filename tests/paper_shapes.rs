//! The paper's headline findings, asserted as executable invariants
//! (tiny scale; EXPERIMENTS.md records the Small-scale numbers).

use gnnpart::core::config::PaperParams;
use gnnpart::core::experiment::{timed_edge_partitions, timed_vertex_partitions};
use gnnpart::core::sweep::{distdgl_grid, distgnn_grid};
use gnnpart::prelude::*;

/// DistGNN training GraphSAGE at the paper's middle configuration.
fn gnn(graph: &Graph) -> DistGnn<'_> {
    DistGnn::new(graph, PaperParams::middle().model(ModelKind::Sage))
}

/// DistDGL training `kind` at the paper's middle configuration.
fn dgl<'g>(
    graph: &'g Graph,
    split: &'g VertexSplit,
    kind: ModelKind,
    global_batch_size: u32,
) -> DistDgl<'g> {
    DistDgl { global_batch_size, ..DistDgl::new(graph, split, PaperParams::middle().model(kind)) }
}

/// RQ-1 / Lesson 1: graph partitioning speeds up full-batch GNN training,
/// and the effectiveness increases with the scale-out factor.
#[test]
fn distgnn_speedup_grows_with_scaleout() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let grid = [PaperParams::middle()];
    let speedup_at = |k: u32| {
        let parts = timed_edge_partitions(&graph, k, 7, Threads::serial());
        distgnn_grid(&gnn(&graph), &parts, &grid, Threads::serial())
            .into_iter()
            .find(|o| o.name == "HEP-100")
            .unwrap()
            .speedups[0]
    };
    let s4 = speedup_at(4);
    let s8 = speedup_at(8);
    assert!(s4 > 1.2, "HEP-100 speedup at k=4: {s4}");
    assert!(s8 > s4, "speedup should grow with k: {s4} -> {s8}");
}

/// RQ-1 / Lesson 2: partitioning reduces the memory footprint, and the
/// replication factor determines it.
#[test]
fn distgnn_memory_shrinks_with_rf() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let parts = timed_edge_partitions(&graph, 8, 7, Threads::serial());
    let grid = [PaperParams::middle()];
    let outcomes = distgnn_grid(&gnn(&graph), &parts, &grid, Threads::serial());
    let get = |n: &str| outcomes.iter().find(|o| o.name == n).unwrap().memory_pct[0];
    assert!(get("HEP-100") < 70.0, "HEP-100 memory {}% of Random", get("HEP-100"));
    assert!(get("HEP-100") < get("DBH"));
}

/// RQ-3: larger feature sizes make partitioning more effective for
/// mini-batch training (paper Figure 18).
#[test]
fn distdgl_feature_size_increases_effectiveness() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    let parts = timed_vertex_partitions(&graph, 4, 7, &split.train, Threads::serial());
    let grid = [
        PaperParams { feature_size: 16, ..PaperParams::middle() },
        PaperParams { feature_size: 512, ..PaperParams::middle() },
    ];
    let outcomes =
        distdgl_grid(&dgl(&graph, &split, ModelKind::Sage, 256), &parts, &grid, Threads::serial());
    let best = outcomes
        .iter()
        .filter(|o| o.name != "Random")
        .max_by(|a, b| a.mean_speedup().partial_cmp(&b.mean_speedup()).unwrap())
        .unwrap();
    assert!(
        best.speedups[1] > best.speedups[0],
        "{}: f=16 {} vs f=512 {}",
        best.name,
        best.speedups[0],
        best.speedups[1]
    );
}

/// RQ-3: larger hidden dimensions make partitioning LESS effective for
/// mini-batch training (compute dominates; paper Figure 20).
#[test]
fn distdgl_hidden_dim_decreases_effectiveness() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    let parts = timed_vertex_partitions(&graph, 4, 7, &split.train, Threads::serial());
    let grid = [
        PaperParams { hidden_dim: 16, ..PaperParams::middle() },
        PaperParams { hidden_dim: 512, ..PaperParams::middle() },
    ];
    let outcomes =
        distdgl_grid(&dgl(&graph, &split, ModelKind::Sage, 256), &parts, &grid, Threads::serial());
    // Averaged over the quality partitioners to damp sampling noise.
    let (mut lo, mut hi, mut count) = (0.0, 0.0, 0);
    for o in outcomes.iter().filter(|o| o.name != "Random") {
        lo += o.speedups[0];
        hi += o.speedups[1];
        count += 1;
    }
    assert!(
        hi / f64::from(count) < lo / f64::from(count),
        "h=16 mean {} vs h=512 mean {}",
        lo / f64::from(count),
        hi / f64::from(count)
    );
}

/// Section 5.2: lower edge-cut does not always mean less communication —
/// remote vertices predict traffic better.
#[test]
fn remote_vertices_track_traffic() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    let parts = timed_vertex_partitions(&graph, 4, 7, &split.train, Threads::serial());
    let mut remote = Vec::new();
    let mut traffic = Vec::new();
    for t in &parts {
        let s = dgl(&graph, &split, ModelKind::Sage, 256).healthy_epoch(&t.partition);
        remote.push(s.total_remote_vertices as f64);
        traffic.push(s.counters.total_network_bytes() as f64);
    }
    assert!(
        r_squared(&remote, &traffic) > 0.9,
        "remote vertices vs traffic R² = {}",
        r_squared(&remote, &traffic)
    );
}

/// Section 5.4: with large features, bigger batches reduce traffic
/// relative to Random (overlap grows within a batch).
#[test]
fn larger_batches_reduce_relative_traffic() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    let parts = timed_vertex_partitions(&graph, 4, 7, &split.train, Threads::serial());
    let grid = [PaperParams { feature_size: 512, ..PaperParams::middle() }];
    let traffic_at = |gbs: u32| {
        distdgl_grid(&dgl(&graph, &split, ModelKind::Sage, gbs), &parts, &grid, Threads::serial())
            .into_iter()
            .filter(|o| o.name == "METIS" || o.name == "KaHIP")
            .map(|o| o.traffic_pct[0])
            .sum::<f64>()
            / 2.0
    };
    let small = traffic_at(32);
    let large = traffic_at(512);
    assert!(large < small + 1.0, "traffic pct should not grow: {small} -> {large}");
}

/// GAT is more compute-intensive than GraphSAGE (paper Figure 25).
#[test]
fn gat_heavier_than_sage() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    let partition = Metis::default().partition_vertices(&graph, 4, 1).unwrap();
    let sage = dgl(&graph, &split, ModelKind::Sage, 256).healthy_epoch(&partition);
    let gat = dgl(&graph, &split, ModelKind::Gat, 256).healthy_epoch(&partition);
    assert!(gat.phases.forward > sage.phases.forward);
    // Sampling and feature loading are architecture-independent.
    assert!((gat.phases.sampling - sage.phases.sampling).abs() < 1e-9);
    assert!((gat.phases.feature_load - sage.phases.feature_load).abs() < 1e-9);
}
