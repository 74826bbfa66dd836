//! DistGNN artifacts: Figures 2–11 and Table 4.

use gp_core::amortize::{epochs_to_amortize, fmt_amortize};
use gp_core::config::{PaperParams, ParamGrid};
use gp_core::correlate::r_squared;
use gp_core::family::DistGnn;
use gp_core::report::{fmt, Distribution, Table};
use gp_core::sweep::distgnn_grid;
use gp_graph::{DatasetId, Graph};
use gp_tensor::ModelKind;

use crate::{scale_out_factors, Ctx};

/// DistGNN training GraphSAGE with `params` on `graph`.
fn sage(graph: &Graph, params: PaperParams) -> DistGnn<'_> {
    DistGnn::new(graph, params.model(ModelKind::Sage))
}

fn dist_cells(d: &Distribution) -> Vec<String> {
    vec![fmt(d.min), fmt(d.p25), fmt(d.median), fmt(d.p75), fmt(d.max), fmt(d.mean)]
}

/// Figure 2: replication factors per graph, partitioner and partition
/// count. Expected shape: Random worst, HEP-100 best, RF grows with k.
pub fn fig2(ctx: &Ctx) {
    let mut t = Table::new("fig2_replication_factor", &["graph", "k", "partitioner", "rf"]);
    for id in DatasetId::ALL {
        for &k in &scale_out_factors(ctx.scale) {
            for tp in ctx.edge_partitions(id, k).iter() {
                t.push(vec![
                    id.name().into(),
                    k.to_string(),
                    tp.name.clone(),
                    fmt(tp.partition.replication_factor()),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 3: replication factor vs network traffic on OR for different
/// machine counts and layer counts. Expected: R² ≥ 0.95.
pub fn fig3(ctx: &Ctx) {
    let mut t = Table::new(
        "fig3_rf_vs_traffic",
        &["machines", "layers", "partitioner", "rf", "network_gb"],
    );
    let id = DatasetId::OR;
    let mut rf_all = Vec::new();
    let mut traffic_all = Vec::new();
    for &k in &scale_out_factors(ctx.scale) {
        for layers in [2usize, 3, 4] {
            let params = PaperParams { num_layers: layers, ..PaperParams::middle() };
            for tp in ctx.edge_partitions(id, k).iter() {
                let report = sage(&ctx.graph(id), params).healthy_epoch(&tp.partition);
                let gb = report.counters.total_network_bytes() as f64 / 1e9;
                rf_all.push(tp.partition.replication_factor());
                traffic_all.push(gb);
                t.push(vec![
                    k.to_string(),
                    layers.to_string(),
                    tp.name.clone(),
                    fmt(tp.partition.replication_factor()),
                    fmt(gb),
                ]);
            }
        }
    }
    // The paper fits one line per (machines, layers) series.
    let mut corr = Table::new("fig3_r_squared", &["machines", "layers", "r_squared"]);
    for &k in &scale_out_factors(ctx.scale) {
        for layers in [2usize, 3, 4] {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            let params = PaperParams { num_layers: layers, ..PaperParams::middle() };
            for tp in ctx.edge_partitions(id, k).iter() {
                let report = sage(&ctx.graph(id), params).healthy_epoch(&tp.partition);
                xs.push(tp.partition.replication_factor());
                ys.push(report.counters.total_network_bytes() as f64);
            }
            corr.push(vec![k.to_string(), layers.to_string(), fmt(r_squared(&xs, &ys))]);
        }
    }
    ctx.emit(&t);
    ctx.emit(&corr);
}

/// Figure 4: vertex balance of edge partitioners at the smallest and
/// largest cluster. Expected: 2PS-L and HEP imbalanced, others ~1.0.
pub fn fig4(ctx: &Ctx) {
    let factors = scale_out_factors(ctx.scale);
    let (k_lo, k_hi) = (factors[0], *factors.last().expect("non-empty"));
    let mut t = Table::new("fig4_vertex_balance", &["graph", "k", "partitioner", "vertex_balance"]);
    for id in DatasetId::ALL {
        for k in [k_lo, k_hi] {
            for tp in ctx.edge_partitions(id, k).iter() {
                t.push(vec![
                    id.name().into(),
                    k.to_string(),
                    tp.name.clone(),
                    fmt(tp.partition.vertex_balance()),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 5: memory-utilisation balance on 4 machines, next to the
/// vertex balance it correlates with.
pub fn fig5(ctx: &Ctx) {
    let mut t = Table::new(
        "fig5_memory_balance",
        &["graph", "partitioner", "memory_balance", "vertex_balance"],
    );
    let mut vb_all = Vec::new();
    let mut mb_all = Vec::new();
    for id in DatasetId::ALL {
        for tp in ctx.edge_partitions(id, 4).iter() {
            let report = sage(&ctx.graph(id), PaperParams::middle()).healthy_epoch(&tp.partition);
            let mb = report.memory_balance();
            let vb = tp.partition.vertex_balance();
            vb_all.push(vb);
            mb_all.push(mb);
            t.push(vec![id.name().into(), tp.name.clone(), fmt(mb), fmt(vb)]);
        }
    }
    ctx.emit(&t);
    let mut corr = Table::new("fig5_r_squared", &["r_squared"]);
    corr.push(vec![fmt(r_squared(&vb_all, &mb_all))]);
    ctx.emit(&corr);
}

/// Figure 6: edge-partitioning time for 4 and the largest k.
pub fn fig6(ctx: &Ctx) {
    let factors = scale_out_factors(ctx.scale);
    let k_hi = *factors.last().expect("non-empty");
    let mut t = Table::new("fig6_partitioning_time", &["graph", "k", "partitioner", "seconds"]);
    for id in DatasetId::ALL {
        for k in [4, k_hi] {
            for tp in ctx.edge_partitions(id, k).iter() {
                t.push(vec![
                    id.name().into(),
                    k.to_string(),
                    tp.name.clone(),
                    format!("{:.4}", tp.seconds),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 7: DistGNN speedup distribution over the full Table-3 grid per
/// graph, partitioner and cluster size. Expected: HEP-100 largest,
/// speedups grow with machine count.
pub fn fig7(ctx: &Ctx) {
    let grid: Vec<PaperParams> = ParamGrid::iter().collect();
    let mut t = Table::new(
        "fig7_distgnn_speedup",
        &["graph", "k", "partitioner", "min", "p25", "median", "p75", "max", "mean"],
    );
    for id in DatasetId::ALL {
        for &k in &scale_out_factors(ctx.scale) {
            let parts = ctx.edge_partitions(id, k);
            for outcome in distgnn_grid(
                &sage(&ctx.graph(id), PaperParams::middle()),
                &parts,
                &grid,
                ctx.threads,
            ) {
                let d = Distribution::of(&outcome.speedups).expect("non-empty grid");
                let mut row = vec![id.name().to_string(), k.to_string(), outcome.name.clone()];
                row.extend(dist_cells(&d));
                t.push(row);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 8: RF vs mean speedup on EN with the vertex balance
/// annotated. Expected: low RF → high speedup; 2PS-L's imbalance costs.
pub fn fig8(ctx: &Ctx) {
    let id = DatasetId::EN;
    let k = *scale_out_factors(ctx.scale).last().expect("non-empty");
    let grid: Vec<PaperParams> = ParamGrid::iter().collect();
    let parts = ctx.edge_partitions(id, k);
    let mut t = Table::new(
        "fig8_rf_vs_speedup_en",
        &["partitioner", "rf", "vertex_balance", "mean_speedup"],
    );
    for outcome in
        distgnn_grid(&sage(&ctx.graph(id), PaperParams::middle()), &parts, &grid, ctx.threads)
    {
        let tp = parts.iter().find(|p| p.name == outcome.name).expect("same set");
        t.push(vec![
            outcome.name.clone(),
            fmt(tp.partition.replication_factor()),
            fmt(tp.partition.vertex_balance()),
            fmt(outcome.mean_speedup()),
        ]);
    }
    ctx.emit(&t);
}

/// Figure 9: distribution of memory footprint in % of Random at the
/// smallest and largest cluster.
pub fn fig9(ctx: &Ctx) {
    let factors = scale_out_factors(ctx.scale);
    let grid: Vec<PaperParams> = ParamGrid::iter().collect();
    let mut t = Table::new(
        "fig9_memory_pct",
        &["graph", "k", "partitioner", "min", "p25", "median", "p75", "max", "mean"],
    );
    for id in DatasetId::ALL {
        for k in [factors[0], *factors.last().expect("non-empty")] {
            let parts = ctx.edge_partitions(id, k);
            for outcome in distgnn_grid(
                &sage(&ctx.graph(id), PaperParams::middle()),
                &parts,
                &grid,
                ctx.threads,
            ) {
                let d = Distribution::of(&outcome.memory_pct).expect("non-empty grid");
                let mut row = vec![id.name().to_string(), k.to_string(), outcome.name.clone()];
                row.extend(dist_cells(&d));
                t.push(row);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 10: memory in % of Random on OR (8 machines) as one
/// hyper-parameter varies. Expected: larger feature/hidden/layers ⇒
/// partitioning more effective (lower %).
pub fn fig10(ctx: &Ctx) {
    let id = DatasetId::OR;
    let k = 8;
    let parts = ctx.edge_partitions(id, k);
    // `state_pct` excludes the per-machine model/optimiser state, which
    // is negligible at the paper's scale but not at 1/200 scale; the
    // paper's trends are about the vertex state.
    let mut t = Table::new(
        "fig10_memory_vs_params",
        &["axis", "value", "partitioner", "memory_pct_of_random", "state_pct_of_random"],
    );
    let axes: [(&str, Vec<PaperParams>); 3] = [
        (
            "feature_size",
            [16, 64, 512]
                .into_iter()
                .map(|f| PaperParams { feature_size: f, ..PaperParams::middle() })
                .collect(),
        ),
        (
            "hidden_dim",
            [16, 64, 512]
                .into_iter()
                .map(|h| PaperParams { hidden_dim: h, ..PaperParams::middle() })
                .collect(),
        ),
        (
            "num_layers",
            [2, 3, 4]
                .into_iter()
                // The layer effect shows when hidden state dominates:
                // small features, large hidden dim (paper Section 4.3).
                .map(|l| PaperParams { feature_size: 16, hidden_dim: 512, num_layers: l })
                .collect(),
        ),
    ];
    let graph = ctx.graph(id);
    let random = parts.iter().find(|p| p.name == "Random").expect("baseline");
    for (axis, grid) in axes {
        for params in &grid {
            let base = sage(&graph, *params).healthy_epoch(&random.partition);
            for tp in parts.iter() {
                let report = sage(&graph, *params).healthy_epoch(&tp.partition);
                let value = match axis {
                    "feature_size" => params.feature_size,
                    "hidden_dim" => params.hidden_dim,
                    _ => params.num_layers,
                };
                t.push(vec![
                    axis.to_string(),
                    value.to_string(),
                    tp.name.clone(),
                    fmt(100.0 * report.total_memory() as f64 / base.total_memory() as f64),
                    fmt(100.0 * report.total_state_memory() as f64
                        / base.total_state_memory() as f64),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 11: scale-out effectiveness — mean speedup, memory % and RF %
/// of Random per cluster size (aggregated over graphs and the grid).
pub fn fig11(ctx: &Ctx) {
    let grid: Vec<PaperParams> = ParamGrid::iter().collect();
    let mut t = Table::new(
        "fig11_scaleout",
        &["k", "partitioner", "mean_speedup", "memory_pct", "rf_pct_of_random"],
    );
    for &k in &scale_out_factors(ctx.scale) {
        // name -> (speedups, memory pcts, rf pcts)
        type Acc = (Vec<f64>, Vec<f64>, Vec<f64>);
        let mut acc: std::collections::BTreeMap<String, Acc> = std::collections::BTreeMap::new();
        for id in DatasetId::ALL {
            let parts = ctx.edge_partitions(id, k);
            let rf_random = parts
                .iter()
                .find(|p| p.name == "Random")
                .expect("baseline")
                .partition
                .replication_factor();
            for outcome in distgnn_grid(
                &sage(&ctx.graph(id), PaperParams::middle()),
                &parts,
                &grid,
                ctx.threads,
            ) {
                let tp = parts.iter().find(|p| p.name == outcome.name).expect("same set");
                let entry = acc.entry(outcome.name.clone()).or_default();
                entry.0.extend_from_slice(&outcome.speedups);
                entry.1.extend_from_slice(&outcome.memory_pct);
                entry.2.push(100.0 * tp.partition.replication_factor() / rf_random);
            }
        }
        for (name, (speedups, mems, rfs)) in acc {
            t.push(vec![
                k.to_string(),
                name,
                fmt(mean(&speedups)),
                fmt(mean(&mems)),
                fmt(mean(&rfs)),
            ]);
        }
    }
    ctx.emit(&t);
}

/// Table 4: epochs until partitioning time is amortised (DistGNN),
/// averaged over cluster sizes at the paper's middle configuration.
pub fn table4(ctx: &Ctx) {
    let mut t = Table::new(
        "table4_amortization_distgnn",
        &["graph", "DBH", "2PS-L", "HDRF", "HEP-10", "HEP-100"],
    );
    let params = PaperParams::middle();
    for id in DatasetId::ALL {
        let mut row = vec![id.name().to_string()];
        for name in ["DBH", "2PS-L", "HDRF", "HEP-10", "HEP-100"] {
            let mut values = Vec::new();
            for &k in &scale_out_factors(ctx.scale) {
                let parts = ctx.edge_partitions(id, k);
                let random = parts.iter().find(|p| p.name == "Random").expect("baseline");
                let own = parts.iter().find(|p| p.name == name).expect("registered");
                let base = sage(&ctx.graph(id), params).healthy_epoch(&random.partition);
                let report = sage(&ctx.graph(id), params).healthy_epoch(&own.partition);
                values.push(epochs_to_amortize(
                    own.seconds,
                    base.epoch_time(),
                    report.epoch_time(),
                ));
            }
            // Average over cluster sizes; any slowdown makes it "no".
            let avg = if values.iter().any(Option::is_none) {
                None
            } else {
                Some(values.iter().map(|v| v.expect("checked")).sum::<f64>() / values.len() as f64)
            };
            row.push(fmt_amortize(avg));
        }
        t.push(row);
    }
    ctx.emit(&t);
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
