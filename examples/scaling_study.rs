//! Scale-out study: how partitioning effectiveness changes with the
//! cluster size (paper Figures 11 and 24).
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use gnnpart::core::config::PaperParams;
use gnnpart::core::sweep::{distdgl_grid, distgnn_grid};
use gnnpart::prelude::*;

fn main() {
    let dataset = DatasetId::OR;
    let graph = dataset.generate(GraphScale::Small).expect("preset valid");
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).expect("valid fractions");
    let grid = [PaperParams::middle()];
    let gnn = DistGnn::new(&graph, PaperParams::middle().model(ModelKind::Sage));
    let dgl = DistDgl::new(&graph, &split, PaperParams::middle().model(ModelKind::Sage));
    println!("{} — speedup over Random as the cluster grows\n", dataset.name());

    println!("DistGNN (full-batch, edge partitioning): effectiveness INCREASES");
    print!("{:<10}", "name");
    for k in [4u32, 8, 16, 32] {
        print!(" {:>7}", format!("k={k}"));
    }
    println!();
    let mut rows: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for k in [4u32, 8, 16, 32] {
        let parts = gnn.timed_partitions(k, 42, Threads::serial());
        for outcome in distgnn_grid(&gnn, &parts, &grid, Threads::serial()) {
            rows.entry(outcome.name.clone()).or_default().push(outcome.speedups[0]);
        }
    }
    for (name, speedups) in &rows {
        print!("{name:<10}");
        for s in speedups {
            print!(" {s:>7.2}");
        }
        println!();
    }

    println!("\nDistDGL (mini-batch, vertex partitioning): effectiveness mostly DECREASES");
    print!("{:<10}", "name");
    for k in [4u32, 8, 16, 32] {
        print!(" {:>7}", format!("k={k}"));
    }
    println!();
    let mut rows: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for k in [4u32, 8, 16, 32] {
        let parts = dgl.timed_partitions(k, 42, Threads::serial());
        for outcome in distdgl_grid(&dgl, &parts, &grid, Threads::serial()) {
            rows.entry(outcome.name.clone()).or_default().push(outcome.speedups[0]);
        }
    }
    for (name, speedups) in &rows {
        print!("{name:<10}");
        for s in speedups {
            print!(" {s:>7.2}");
        }
        println!();
    }
}
