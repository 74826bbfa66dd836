//! Reproducibility: every pipeline stage is bit-for-bit deterministic
//! given its seed.

use gnnpart::core::config::PaperParams;
use gnnpart::prelude::*;

#[test]
fn datasets_are_deterministic() {
    for id in DatasetId::ALL {
        let a = id.generate(GraphScale::Tiny).unwrap();
        let b = id.generate(GraphScale::Tiny).unwrap();
        assert_eq!(a, b, "{}", id.name());
    }
}

#[test]
fn all_twelve_partitioners_are_deterministic() {
    let graph = DatasetId::EU.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    for name in gnnpart::core::registry::edge_partitioner_names() {
        let p = gnnpart::core::registry::edge_partitioner(name).unwrap();
        let a = p.partition_edges(&graph, 4, 11).unwrap();
        let b = p.partition_edges(&graph, 4, 11).unwrap();
        assert_eq!(a.assignments(), b.assignments(), "{name}");
    }
    for name in gnnpart::core::registry::vertex_partitioner_names() {
        let p =
            gnnpart::core::registry::vertex_partitioner(name, Some(split.train.clone())).unwrap();
        let a = p.partition_vertices(&graph, 4, 11).unwrap();
        let b = p.partition_vertices(&graph, 4, 11).unwrap();
        assert_eq!(a.assignments(), b.assignments(), "{name}");
    }
}

#[test]
fn distgnn_simulation_is_deterministic() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let partition = Hdrf::default().partition_edges(&graph, 4, 1).unwrap();
    let config =
        DistGnnConfig::paper(PaperParams::middle().model(ModelKind::Sage), ClusterSpec::paper(4));
    let a = DistGnnEngine::builder(&graph, &partition)
        .config(config)
        .build()
        .unwrap()
        .run(&RunSpec::healthy())
        .unwrap()
        .into_healthy()
        .remove(0);
    let b = DistGnnEngine::builder(&graph, &partition)
        .config(config)
        .build()
        .unwrap()
        .run(&RunSpec::healthy())
        .unwrap()
        .into_healthy()
        .remove(0);
    assert_eq!(a.epoch_time(), b.epoch_time());
    assert_eq!(a.counters, b.counters);
}

#[test]
fn distdgl_simulation_is_deterministic() {
    let graph = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).unwrap();
    let partition = Metis::default().partition_vertices(&graph, 4, 1).unwrap();
    let dgl = DistDgl {
        global_batch_size: 256,
        ..DistDgl::new(&graph, &split, PaperParams::middle().model(ModelKind::Sage))
    };
    let run = || dgl.healthy_epoch(&partition);
    let a = run();
    let b = run();
    assert_eq!(a.epoch_time(), b.epoch_time());
    assert_eq!(a.total_remote_vertices, b.total_remote_vertices);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn training_is_deterministic() {
    use gnnpart::distgnn::train::{train_full_batch, vertex_features, vertex_labels};
    let graph = DatasetId::DI.generate(GraphScale::Tiny).unwrap();
    let features = vertex_features(&graph, 8, 5);
    let labels = vertex_labels(&graph, &features, 4);
    let config = ModelConfig {
        kind: ModelKind::Gcn,
        feature_dim: 8,
        hidden_dim: 16,
        num_layers: 2,
        num_classes: 4,
        seed: 9,
    };
    let run = || {
        let mut model = GnnModel::new(config);
        let mut opt = Adam::new(0.01);
        train_full_batch(&mut model, &graph, &features, &labels, &mut opt, 5).losses
    };
    assert_eq!(run(), run());
}
