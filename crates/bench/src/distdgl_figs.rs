//! DistDGL artifacts: Figures 12–26 and Table 5.

use gp_core::amortize::{epochs_to_amortize, fmt_amortize};
use gp_core::config::{PaperParams, ParamGrid};
use gp_core::family::DistDgl;
use gp_core::report::{fmt, Distribution, Table};
use gp_core::sweep::distdgl_grid;
use gp_graph::{DatasetId, Graph, VertexSplit};
use gp_tensor::ModelKind;

use crate::{scale_out_factors, Ctx};

/// Global batch size scaled to the analogue datasets (the paper's 1024
/// on 200×-larger graphs).
const DEFAULT_GBS: u32 = 1024;

/// Batch sizes of the Figure-26 sweep: scaled analogues of the paper's
/// 512 … 32768 (same ×64 span).
const BATCH_SWEEP: [u32; 7] = [32, 64, 128, 256, 512, 1024, 2048];

/// DistDGL training GraphSAGE with `params` on `graph` and `split` at
/// [`DEFAULT_GBS`].
fn sage<'g>(graph: &'g Graph, split: &'g VertexSplit, params: PaperParams) -> DistDgl<'g> {
    DistDgl {
        global_batch_size: DEFAULT_GBS,
        ..DistDgl::new(graph, split, params.model(ModelKind::Sage))
    }
}

fn dist_cells(d: &Distribution) -> Vec<String> {
    vec![fmt(d.min), fmt(d.p25), fmt(d.median), fmt(d.p75), fmt(d.max), fmt(d.mean)]
}

/// Figure 12: edge-cut ratio per graph, partitioner and partition count.
/// Expected: KaHIP lowest (near zero on DI), Random highest.
pub fn fig12(ctx: &Ctx) {
    let mut t = Table::new("fig12_edge_cut", &["graph", "k", "partitioner", "edge_cut"]);
    for id in DatasetId::ALL {
        for &k in &scale_out_factors(ctx.scale) {
            for tp in ctx.vertex_partitions(id, k).iter() {
                t.push(vec![
                    id.name().into(),
                    k.to_string(),
                    tp.name.clone(),
                    format!("{:.4}", tp.partition.edge_cut_ratio()),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 13: training-vertex balance at 8 partitions.
pub fn fig13(ctx: &Ctx) {
    let k = if scale_out_factors(ctx.scale).contains(&8) { 8 } else { 4 };
    let mut t =
        Table::new("fig13_train_vertex_balance", &["graph", "partitioner", "train_balance"]);
    for id in DatasetId::ALL {
        let split = ctx.split(id);
        for tp in ctx.vertex_partitions(id, k).iter() {
            t.push(vec![
                id.name().into(),
                tp.name.clone(),
                fmt(tp.partition.subset_balance(&split.train)),
            ]);
        }
    }
    ctx.emit(&t);
}

/// Figure 14: balance of mini-batches in terms of input vertices, small
/// and large cluster. Expected: imbalance grows with partition count.
pub fn fig14(ctx: &Ctx) {
    let factors = scale_out_factors(ctx.scale);
    let mut t = Table::new("fig14_input_balance", &["graph", "k", "partitioner", "input_balance"]);
    for id in DatasetId::ALL {
        for k in [factors[0], *factors.last().expect("non-empty")] {
            let split = ctx.split(id);
            for tp in ctx.vertex_partitions(id, k).iter() {
                let summary = sage(&ctx.graph(id), &split, PaperParams::middle())
                    .healthy_epoch(&tp.partition);
                t.push(vec![
                    id.name().into(),
                    k.to_string(),
                    tp.name.clone(),
                    fmt(summary.mean_input_balance),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 15: vertex-partitioning time (paper shows a log scale; we emit
/// raw seconds). Expected: KaHIP slowest, Random/LDG fastest.
pub fn fig15(ctx: &Ctx) {
    let factors = scale_out_factors(ctx.scale);
    let k_hi = *factors.last().expect("non-empty");
    let mut t = Table::new("fig15_partitioning_time", &["graph", "k", "partitioner", "seconds"]);
    for id in DatasetId::ALL {
        for k in [4, k_hi] {
            for tp in ctx.vertex_partitions(id, k).iter() {
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

/// Figure 16: DistDGL GraphSage speedup distribution over the grid per
/// graph, partitioner and cluster size.
pub fn fig16(ctx: &Ctx) {
    let grid: Vec<PaperParams> = ParamGrid::iter().collect();
    let mut t = Table::new(
        "fig16_distdgl_speedup",
        &["graph", "k", "partitioner", "min", "p25", "median", "p75", "max", "mean"],
    );
    for id in DatasetId::ALL {
        for &k in &scale_out_factors(ctx.scale) {
            let parts = ctx.vertex_partitions(id, k);
            let split = ctx.split(id);
            for outcome in distdgl_grid(
                &sage(&ctx.graph(id), &split, PaperParams::middle()),
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

/// Figure 17: per-step training-time balance across workers.
pub fn fig17(ctx: &Ctx) {
    let k = if scale_out_factors(ctx.scale).contains(&8) { 8 } else { 4 };
    let mut t = Table::new("fig17_time_balance", &["graph", "partitioner", "time_balance"]);
    for id in DatasetId::ALL {
        let split = ctx.split(id);
        for tp in ctx.vertex_partitions(id, k).iter() {
            let summary =
                sage(&ctx.graph(id), &split, PaperParams::middle()).healthy_epoch(&tp.partition);
            t.push(vec![id.name().into(), tp.name.clone(), fmt(summary.mean_time_balance)]);
        }
    }
    ctx.emit(&t);
}

/// Speedup vs one hyper-parameter axis at the smallest and largest
/// cluster (shared engine for Figures 18, 20, 23).
fn speedup_axis(ctx: &Ctx, name: &str, grids: &[(usize, PaperParams)]) {
    let factors = scale_out_factors(ctx.scale);
    let mut t = Table::new(name, &["graph", "k", "value", "partitioner", "speedup"]);
    let grid: Vec<PaperParams> = grids.iter().map(|&(_, p)| p).collect();
    for id in DatasetId::ALL {
        for k in [factors[0], *factors.last().expect("non-empty")] {
            let parts = ctx.vertex_partitions(id, k);
            let split = ctx.split(id);
            for outcome in distdgl_grid(
                &sage(&ctx.graph(id), &split, PaperParams::middle()),
                &parts,
                &grid,
                ctx.threads,
            ) {
                for (&(value, _), &s) in grids.iter().zip(outcome.speedups.iter()) {
                    t.push(vec![
                        id.name().into(),
                        k.to_string(),
                        value.to_string(),
                        outcome.name.clone(),
                        fmt(s),
                    ]);
                }
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 18: speedup vs feature size. Expected: larger features ⇒
/// partitioning more effective.
pub fn fig18(ctx: &Ctx) {
    let grids: Vec<(usize, PaperParams)> = [16, 64, 512]
        .into_iter()
        .map(|f| (f, PaperParams { feature_size: f, ..PaperParams::middle() }))
        .collect();
    speedup_axis(ctx, "fig18_speedup_vs_feature", &grids);
}

/// Figure 20: speedup vs hidden dimension. Expected: larger hidden ⇒
/// partitioning less effective (compute dominates).
pub fn fig20(ctx: &Ctx) {
    let grids: Vec<(usize, PaperParams)> = [16, 64, 512]
        .into_iter()
        .map(|h| (h, PaperParams { hidden_dim: h, ..PaperParams::middle() }))
        .collect();
    speedup_axis(ctx, "fig20_speedup_vs_hidden", &grids);
}

/// Figure 23: speedup vs number of layers. Expected: no strong trend.
pub fn fig23(ctx: &Ctx) {
    let grids: Vec<(usize, PaperParams)> = [2, 3, 4]
        .into_iter()
        .map(|l| (l, PaperParams { num_layers: l, ..PaperParams::middle() }))
        .collect();
    speedup_axis(ctx, "fig23_speedup_vs_layers", &grids);
}

/// Phase-time table for a fixed configuration across one axis.
fn phase_table(
    ctx: &Ctx,
    name: &str,
    id: DatasetId,
    k: u32,
    kind: ModelKind,
    configs: &[(String, PaperParams, u32)],
) {
    let mut t = Table::new(
        name,
        &["config", "partitioner", "sampling", "feature_load", "forward", "backward", "update"],
    );
    let split = ctx.split(id);
    for (label, params, gbs) in configs {
        for tp in ctx.vertex_partitions(id, k).iter() {
            let s = DistDgl {
                global_batch_size: *gbs,
                ..DistDgl::new(&ctx.graph(id), &split, params.model(kind))
            }
            .healthy_epoch(&tp.partition);
            t.push(vec![
                label.clone(),
                tp.name.clone(),
                format!("{:.4}", s.phases.sampling),
                format!("{:.4}", s.phases.feature_load),
                format!("{:.4}", s.phases.forward),
                format!("{:.4}", s.phases.backward),
                format!("{:.4}", s.phases.update),
            ]);
        }
    }
    ctx.emit(&t);
}

/// Figure 19: phase times of a 3-layer GraphSAGE (h=64) on EU and DI for
/// different feature sizes. Expected: fetching dominates at f=512 on EU,
/// sampling dominates on DI.
pub fn fig19(ctx: &Ctx) {
    for id in [DatasetId::EU, DatasetId::DI] {
        let configs: Vec<(String, PaperParams, u32)> = [16, 64, 512]
            .into_iter()
            .map(|f| {
                (
                    format!("f={f}"),
                    PaperParams { feature_size: f, ..PaperParams::middle() },
                    DEFAULT_GBS,
                )
            })
            .collect();
        phase_table(
            ctx,
            &format!("fig19_phases_{}", id.name().to_lowercase()),
            id,
            4,
            ModelKind::Sage,
            &configs,
        );
    }
}

/// Figure 21: phase times vs layer count (OR, f=h=64, 4 machines).
pub fn fig21(ctx: &Ctx) {
    let configs: Vec<(String, PaperParams, u32)> = [2, 3, 4]
        .into_iter()
        .map(|l| {
            (
                format!("layers={l}"),
                PaperParams { num_layers: l, ..PaperParams::middle() },
                DEFAULT_GBS,
            )
        })
        .collect();
    phase_table(ctx, "fig21_phases_vs_layers", DatasetId::OR, 4, ModelKind::Sage, &configs);
}

/// Figure 22: phase times vs hidden dimension (OR, 3 layers, f=64).
pub fn fig22(ctx: &Ctx) {
    let configs: Vec<(String, PaperParams, u32)> = [16, 64, 512]
        .into_iter()
        .map(|h| {
            (format!("h={h}"), PaperParams { hidden_dim: h, ..PaperParams::middle() }, DEFAULT_GBS)
        })
        .collect();
    phase_table(ctx, "fig22_phases_vs_hidden", DatasetId::OR, 4, ModelKind::Sage, &configs);
}

/// Figure 24: scale-out effectiveness of DistDGL — mean speedup, remote
/// vertices % and edge-cut % of Random per cluster size. Expected:
/// effectiveness decreases with k (except on DI).
pub fn fig24(ctx: &Ctx) {
    let grid: Vec<PaperParams> = vec![PaperParams::middle()];
    let mut t = Table::new(
        "fig24_scaleout",
        &["graph", "k", "partitioner", "speedup", "remote_pct", "edge_cut_pct"],
    );
    for id in DatasetId::ALL {
        for &k in &scale_out_factors(ctx.scale) {
            let parts = ctx.vertex_partitions(id, k);
            let split = ctx.split(id);
            let cut_random = parts
                .iter()
                .find(|p| p.name == "Random")
                .expect("baseline")
                .partition
                .edge_cut_ratio();
            for outcome in distdgl_grid(
                &sage(&ctx.graph(id), &split, PaperParams::middle()),
                &parts,
                &grid,
                ctx.threads,
            ) {
                let tp = parts.iter().find(|p| p.name == outcome.name).expect("same set");
                t.push(vec![
                    id.name().into(),
                    k.to_string(),
                    outcome.name.clone(),
                    fmt(outcome.speedups[0]),
                    fmt(outcome.remote_pct[0]),
                    fmt(100.0 * tp.partition.edge_cut_ratio() / cut_random.max(1e-12)),
                ]);
            }
        }
    }
    ctx.emit(&t);
}

/// Figure 25: phase times of 3-layer GAT vs GraphSage (f=512, h=64) on
/// OR across cluster sizes. Expected: GAT compute-heavier; feature
/// loading shrinks with scale-out.
pub fn fig25(ctx: &Ctx) {
    let params = PaperParams { feature_size: 512, ..PaperParams::middle() };
    for kind in [ModelKind::Gat, ModelKind::Sage] {
        let mut t = Table::new(
            &format!("fig25_phases_{}", kind.name().to_lowercase()),
            &["k", "partitioner", "sampling", "feature_load", "forward", "backward", "update"],
        );
        let id = DatasetId::OR;
        let split = ctx.split(id);
        for &k in &scale_out_factors(ctx.scale) {
            for tp in ctx.vertex_partitions(id, k).iter() {
                let s = DistDgl {
                    global_batch_size: DEFAULT_GBS,
                    ..DistDgl::new(&ctx.graph(id), &split, params.model(kind))
                }
                .healthy_epoch(&tp.partition);
                t.push(vec![
                    k.to_string(),
                    tp.name.clone(),
                    format!("{:.4}", s.phases.sampling),
                    format!("{:.4}", s.phases.feature_load),
                    format!("{:.4}", s.phases.forward),
                    format!("{:.4}", s.phases.backward),
                    format!("{:.4}", s.phases.update),
                ]);
            }
        }
        ctx.emit(&t);
    }
}

/// Figure 26: batch-size sweep on OR (16 machines where available):
/// speedup, traffic % and remote vertices % of Random for a 3-layer
/// GraphSage (f=512, h=64). Expected: traffic % falls as batches grow;
/// effectiveness rises for large features.
pub fn fig26(ctx: &Ctx) {
    let id = DatasetId::OR;
    let factors = scale_out_factors(ctx.scale);
    let k = if factors.contains(&16) { 16 } else { *factors.last().expect("non-empty") };
    let split = ctx.split(id);
    let parts = ctx.vertex_partitions(id, k);
    for (label, params) in [
        ("f512", PaperParams { feature_size: 512, ..PaperParams::middle() }),
        ("f64", PaperParams::middle()),
    ] {
        let mut t = Table::new(
            &format!("fig26_batch_sweep_{label}"),
            &["batch_size", "partitioner", "speedup", "traffic_pct", "remote_pct"],
        );
        for &gbs in &BATCH_SWEEP {
            for outcome in distdgl_grid(
                &DistDgl { global_batch_size: gbs, ..sage(&ctx.graph(id), &split, params) },
                &parts,
                &[params],
                ctx.threads,
            ) {
                t.push(vec![
                    gbs.to_string(),
                    outcome.name.clone(),
                    fmt(outcome.speedups[0]),
                    fmt(outcome.traffic_pct[0]),
                    fmt(outcome.remote_pct[0]),
                ]);
            }
        }
        ctx.emit(&t);
    }
}

/// Table 5: epochs until partitioning time is amortised (DistDGL),
/// averaged over cluster sizes at the middle configuration.
pub fn table5(ctx: &Ctx) {
    let mut t = Table::new(
        "table5_amortization_distdgl",
        &["graph", "ByteGNN", "KaHIP", "LDG", "Spinner", "METIS"],
    );
    let params = PaperParams::middle();
    for id in DatasetId::ALL {
        let split = ctx.split(id);
        let mut row = vec![id.name().to_string()];
        for name in ["ByteGNN", "KaHIP", "LDG", "Spinner", "METIS"] {
            let mut values = Vec::new();
            for &k in &scale_out_factors(ctx.scale) {
                let parts = ctx.vertex_partitions(id, k);
                let random = parts.iter().find(|p| p.name == "Random").expect("baseline");
                let own = parts.iter().find(|p| p.name == name).expect("registered");
                let base = sage(&ctx.graph(id), &split, params).healthy_epoch(&random.partition);
                let report = sage(&ctx.graph(id), &split, params).healthy_epoch(&own.partition);
                values.push(epochs_to_amortize(
                    own.seconds,
                    base.epoch_time(),
                    report.epoch_time(),
                ));
            }
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
