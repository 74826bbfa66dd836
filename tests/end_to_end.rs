//! End-to-end integration: dataset → partitioners → engines → reports.

use gnnpart::core::config::PaperParams;
use gnnpart::core::experiment::{timed_edge_partitions, timed_vertex_partitions};
use gnnpart::prelude::*;

/// DistGNN training GraphSAGE at the paper's middle configuration.
fn sage(graph: &Graph) -> DistGnn<'_> {
    DistGnn::new(graph, PaperParams::middle().model(ModelKind::Sage))
}

#[test]
fn full_distgnn_pipeline_on_every_dataset() {
    for id in DatasetId::ALL {
        let graph = id.generate(GraphScale::Tiny).unwrap();
        let parts = timed_edge_partitions(&graph, 4, 7, Threads::serial());
        assert_eq!(parts.len(), 6, "{}", id.name());
        let random_time = {
            let random = parts.iter().find(|p| p.name == "Random").unwrap();
            sage(&graph).healthy_epoch(&random.partition).epoch_time()
        };
        for t in &parts {
            let report = sage(&graph).healthy_epoch(&t.partition);
            assert!(report.epoch_time() > 0.0, "{} on {}", t.name, id.name());
            assert!(report.total_memory() > 0);
            // No partitioner should be drastically worse than random.
            assert!(
                report.epoch_time() < 2.0 * random_time,
                "{} on {}: {} vs random {}",
                t.name,
                id.name(),
                report.epoch_time(),
                random_time
            );
        }
    }
}

#[test]
fn full_distdgl_pipeline_on_every_dataset() {
    for id in DatasetId::ALL {
        let graph = id.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(graph.num_vertices(), 3).unwrap();
        let parts = timed_vertex_partitions(&graph, 4, 7, &split.train, Threads::serial());
        assert_eq!(parts.len(), 6, "{}", id.name());
        for t in &parts {
            let summary = DistDgl {
                global_batch_size: 256,
                ..DistDgl::new(&graph, &split, PaperParams::middle().model(ModelKind::Sage))
            }
            .healthy_epoch(&t.partition);
            assert!(summary.epoch_time() > 0.0, "{} on {}", t.name, id.name());
            assert!(summary.total_input_vertices > 0);
            assert!(summary.steps >= 1);
        }
    }
}

#[test]
fn quality_partitioners_beat_random_on_distgnn() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let parts = timed_edge_partitions(&graph, 8, 7, Threads::serial());
    let time = |name: &str| {
        let t = parts.iter().find(|p| p.name == name).unwrap();
        sage(&graph).healthy_epoch(&t.partition).epoch_time()
    };
    let random = time("Random");
    assert!(time("HEP-100") < random, "HEP-100 must beat Random");
    assert!(time("HDRF") < random, "HDRF must beat Random");
    assert!(time("DBH") < random, "DBH must beat Random");
}

#[test]
fn rf_ordering_matches_paper() {
    // Paper Figure 2: HEP-100 lowest RF, Random highest, on every graph.
    for id in DatasetId::ALL {
        let graph = id.generate(GraphScale::Tiny).unwrap();
        let parts = timed_edge_partitions(&graph, 8, 7, Threads::serial());
        let rf = |name: &str| {
            parts.iter().find(|p| p.name == name).unwrap().partition.replication_factor()
        };
        assert!(rf("HEP-100") < rf("Random"), "{}", id.name());
        assert!(rf("DBH") < rf("Random"), "{}", id.name());
        assert!(rf("HDRF") < rf("Random"), "{}", id.name());
    }
}

#[test]
fn edge_cut_ordering_matches_paper() {
    // Paper Figure 12: every non-random partitioner beats Random; the
    // road network is near-perfectly partitionable.
    let graph = DatasetId::DI.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 3).unwrap();
    let parts = timed_vertex_partitions(&graph, 8, 7, &split.train, Threads::serial());
    let cut =
        |name: &str| parts.iter().find(|p| p.name == name).unwrap().partition.edge_cut_ratio();
    let random = cut("Random");
    for name in ["LDG", "Spinner", "METIS", "ByteGNN", "KaHIP"] {
        assert!(cut(name) < random, "{name}: {} vs {random}", cut(name));
    }
    assert!(cut("KaHIP") < 0.1, "KaHIP on road: {}", cut("KaHIP"));
    assert!(cut("METIS") < 0.1, "METIS on road: {}", cut("METIS"));
}

#[test]
fn replication_factor_drives_traffic_and_memory() {
    // Paper: R² >= 0.98 between RF and network traffic / memory.
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let parts = timed_edge_partitions(&graph, 8, 7, Threads::serial());
    let mut rf = Vec::new();
    let mut traffic = Vec::new();
    let mut memory = Vec::new();
    for t in &parts {
        let report = sage(&graph).healthy_epoch(&t.partition);
        rf.push(t.partition.replication_factor());
        traffic.push(report.counters.total_network_bytes() as f64);
        memory.push(report.total_memory() as f64);
    }
    assert!(r_squared(&rf, &traffic) > 0.95, "traffic R² {}", r_squared(&rf, &traffic));
    assert!(r_squared(&rf, &memory) > 0.95, "memory R² {}", r_squared(&rf, &memory));
}

#[test]
fn oom_detection_under_tight_memory() {
    // With a deliberately tiny memory budget, Random OOMs while HEP-100
    // fits — the paper's DI observation.
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let parts = timed_edge_partitions(&graph, 8, 7, Threads::serial());
    let tight = {
        let mut c = ClusterSpec::paper(8);
        // Budget between HEP's and Random's per-machine footprint.
        c.machine.memory_bytes = 6_000_000;
        c
    };
    let report_for = |name: &str| {
        let t = parts.iter().find(|p| p.name == name).unwrap();
        let config = DistGnnConfig::paper(
            PaperParams { feature_size: 512, ..PaperParams::middle() }.model(ModelKind::Sage),
            tight,
        );
        DistGnnEngine::builder(&graph, &t.partition)
            .config(config)
            .build()
            .unwrap()
            .run(&RunSpec::healthy())
            .unwrap()
            .into_healthy()
            .remove(0)
    };
    assert!(report_for("Random").any_oom(), "Random should exceed the tight budget");
    assert!(!report_for("HEP-100").any_oom(), "HEP-100 should fit the tight budget");
}
