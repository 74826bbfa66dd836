//! Partitioning-time amortisation analysis (paper Tables 4 and 5).
//!
//! ```text
//! cargo run --release --example amortization
//! ```
//!
//! Measures real partitioning wall time, simulates per-epoch training
//! time with and without the partitioner, and reports after how many
//! epochs the investment pays off.

use gnnpart::core::amortize::{epochs_to_amortize, fmt_amortize};
use gnnpart::core::config::PaperParams;
use gnnpart::prelude::*;

fn main() {
    let machines = 8;
    let dataset = DatasetId::EN;
    let graph = dataset.generate(GraphScale::Small).expect("preset valid");
    let split = VertexSplit::paper_default(graph.num_vertices(), 1).expect("valid fractions");
    let params = PaperParams::middle();
    println!(
        "{} — |V| = {}, |E| = {}, {machines} machines, f=h=64, 3 layers\n",
        dataset.name(),
        graph.num_vertices(),
        graph.num_edges()
    );

    println!("DistGNN (full-batch):");
    println!("{:<10} {:>12} {:>12} {:>14}", "name", "part time s", "epoch ms", "amortised after");
    let gnn = DistGnn::new(&graph, params.model(ModelKind::Sage));
    let edge = gnn.timed_partitions(machines, 42, Threads::serial());
    let random_epoch = {
        let random = edge.iter().find(|t| t.name == "Random").expect("baseline");
        gnn.healthy_epoch(&random.partition).epoch_time()
    };
    for t in &edge {
        let epoch = gnn.healthy_epoch(&t.partition).epoch_time();
        let amortised = epochs_to_amortize(t.seconds, random_epoch, epoch);
        println!(
            "{:<10} {:>12.4} {:>12.2} {:>14} epochs",
            t.name,
            t.seconds,
            epoch * 1e3,
            fmt_amortize(amortised)
        );
    }

    println!("\nDistDGL (mini-batch, GraphSage):");
    println!("{:<10} {:>12} {:>12} {:>14}", "name", "part time s", "epoch ms", "amortised after");
    let dgl = DistDgl::new(&graph, &split, params.model(ModelKind::Sage));
    let vertex = dgl.timed_partitions(machines, 42, Threads::serial());
    let random_epoch = {
        let random = vertex.iter().find(|t| t.name == "Random").expect("baseline");
        dgl.healthy_epoch(&random.partition).epoch_time()
    };
    for t in &vertex {
        let epoch = dgl.healthy_epoch(&t.partition).epoch_time();
        let amortised = epochs_to_amortize(t.seconds, random_epoch, epoch);
        println!(
            "{:<10} {:>12.4} {:>12.2} {:>14} epochs",
            t.name,
            t.seconds,
            epoch * 1e3,
            fmt_amortize(amortised)
        );
    }
    println!("\nFull-batch training runs for hundreds of epochs: partitioning pays for itself.");
}
