//! Hyper-parameter grid sweeps producing the paper's distributions.
//!
//! Both grids run one job per partitioner on the `gp-exec` pool
//! ([`gp_exec::par_map`]). Each job is a pure function of its inputs and
//! writes into an index-addressed slot, so the outcome vector is
//! **bit-identical for every pool width**
//! (`Threads::serial()` is the conformance oracle). Each grid takes its
//! engine family's value, whose engines it builds, but the two keep
//! separate bodies: their outcomes report different fields, and
//! DistDGL reuses one sampled epoch per layer count, which DistGNN's
//! full-batch epochs have no use for.

use gp_cluster::TraceSink;
use gp_exec::{par_map, Threads};

use crate::config::PaperParams;
use crate::experiment::{TimedEdgePartition, TimedVertexPartition};
use crate::family::{DistDgl, DistGnn};

/// Per-partitioner outcome of a DistGNN grid sweep, aligned with the
/// grid order. All `*_pct` / speedup values are relative to `Random` at
/// the same grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct DistGnnGridOutcome {
    /// Partitioner name.
    pub name: String,
    /// Speedup over Random per grid point (>1 = faster).
    pub speedups: Vec<f64>,
    /// Memory footprint in % of Random per grid point.
    pub memory_pct: Vec<f64>,
    /// Network traffic in % of Random per grid point.
    pub traffic_pct: Vec<f64>,
    /// Absolute epoch times (simulated seconds).
    pub epoch_times: Vec<f64>,
    /// Absolute epoch times of the Random baseline.
    pub random_times: Vec<f64>,
}

impl DistGnnGridOutcome {
    /// Mean speedup over the grid.
    pub fn mean_speedup(&self) -> f64 {
        mean(&self.speedups)
    }

    /// Mean epoch time over the grid.
    pub fn mean_epoch_time(&self) -> f64 {
        mean(&self.epoch_times)
    }
}

/// Sweep the grid for every timed edge partition of `family`'s graph:
/// one engine per partitioner on `family`'s configuration, one epoch of
/// `family`'s model kind per grid point, outcomes in `timed` order,
/// bit-identical for every pool width. `timed` must
/// contain the `Random` baseline.
///
/// # Panics
///
/// Panics if `Random` is missing from `timed`.
pub fn distgnn_grid(
    family: &DistGnn<'_>,
    timed: &[TimedEdgePartition],
    grid: &[PaperParams],
    threads: Threads,
) -> Vec<DistGnnGridOutcome> {
    let _prof = gp_prof::scope("core.sweep.distgnn_grid");
    let random = timed.iter().find(|t| t.name == "Random").expect("Random baseline required");
    let kind = family.model.kind;
    // Baseline reports per grid point, computed once up front.
    let random_engine =
        family.native_engine(&random.partition, TraceSink::disabled()).expect("valid config");
    let base: Vec<_> =
        grid.iter().map(|p| random_engine.simulate_epoch_for(&p.model(kind))).collect();

    let jobs: Vec<_> = timed
        .iter()
        .map(|t| {
            let base = &base;
            move || {
                let engine = family
                    .native_engine(&t.partition, TraceSink::disabled())
                    .expect("valid config");
                let mut speedups = Vec::with_capacity(grid.len());
                let mut memory_pct = Vec::with_capacity(grid.len());
                let mut traffic_pct = Vec::with_capacity(grid.len());
                let mut epoch_times = Vec::with_capacity(grid.len());
                let mut random_times = Vec::with_capacity(grid.len());
                for (params, base_report) in grid.iter().zip(base.iter()) {
                    let report = engine.simulate_epoch_for(&params.model(kind));
                    let own = report.epoch_time();
                    let base_time = base_report.epoch_time();
                    speedups.push(base_time / own);
                    memory_pct.push(
                        100.0 * report.total_memory() as f64 / base_report.total_memory() as f64,
                    );
                    traffic_pct.push(
                        100.0 * report.counters.total_network_bytes() as f64
                            / base_report.counters.total_network_bytes() as f64,
                    );
                    epoch_times.push(own);
                    random_times.push(base_time);
                }
                DistGnnGridOutcome {
                    name: t.name.clone(),
                    speedups,
                    memory_pct,
                    traffic_pct,
                    epoch_times,
                    random_times,
                }
            }
        })
        .collect();
    par_map(threads, jobs)
}

/// Per-partitioner outcome of a DistDGL grid sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DistDglGridOutcome {
    /// Partitioner name.
    pub name: String,
    /// Speedup over Random per grid point.
    pub speedups: Vec<f64>,
    /// Remote input vertices in % of Random per grid point.
    pub remote_pct: Vec<f64>,
    /// Network traffic in % of Random per grid point.
    pub traffic_pct: Vec<f64>,
    /// Absolute epoch times.
    pub epoch_times: Vec<f64>,
    /// Absolute epoch times of the Random baseline.
    pub random_times: Vec<f64>,
}

impl DistDglGridOutcome {
    /// Mean speedup over the grid.
    pub fn mean_speedup(&self) -> f64 {
        mean(&self.speedups)
    }

    /// Mean epoch time over the grid.
    pub fn mean_epoch_time(&self) -> f64 {
        mean(&self.epoch_times)
    }
}

/// Sweep the grid for every timed vertex partition of `family`'s graph
/// with `family`'s model kind, split and global batch size: one job per
/// partitioner, outcomes in `timed` order, bit-identical for every
/// pool width. Sampling is reused across grid points
/// with the same layer count (dimensions do not affect sampled blocks).
///
/// # Panics
///
/// Panics if `Random` is missing from `timed`.
pub fn distdgl_grid(
    family: &DistDgl<'_>,
    timed: &[TimedVertexPartition],
    grid: &[PaperParams],
    threads: Threads,
) -> Vec<DistDglGridOutcome> {
    let _prof = gp_prof::scope("core.sweep.distdgl_grid");
    let random = timed.iter().find(|t| t.name == "Random").expect("Random baseline required");
    let kind = family.model.kind;
    let layer_counts: Vec<usize> = {
        let mut l: Vec<usize> = grid.iter().map(|p| p.num_layers).collect();
        l.sort_unstable();
        l.dedup();
        l
    };

    // One engine + sampled epoch per (partitioner, layer count); the
    // engine is rebuilt per grid point (cheap) while samples are reused.
    let simulate = |t: &TimedVertexPartition| -> Vec<gp_distdgl::EpochSummary> {
        let engine = |params: PaperParams| {
            DistDgl { model: params.model(kind), ..*family }
                .native_engine(&t.partition, TraceSink::disabled())
                .expect("valid config")
        };
        let mut summaries = Vec::with_capacity(grid.len());
        for &layers in &layer_counts {
            let probe = PaperParams { num_layers: layers, ..PaperParams::middle() };
            let sampled = engine(probe).sample_epoch(0);
            for params in grid.iter().filter(|p| p.num_layers == layers) {
                summaries.push((params, engine(*params).simulate_epoch_from(&sampled)));
            }
        }
        // Restore grid order.
        let mut ordered = Vec::with_capacity(grid.len());
        for params in grid {
            let pos = summaries
                .iter()
                .position(|(p, _)| *p == params)
                .expect("every grid point simulated");
            ordered.push(summaries.remove(pos).1);
        }
        ordered
    };

    let base = simulate(random);
    let jobs: Vec<_> = timed
        .iter()
        .map(|t| {
            let simulate = &simulate;
            let base = &base;
            move || {
                let own = simulate(t);
                let mut speedups = Vec::with_capacity(grid.len());
                let mut remote_pct = Vec::with_capacity(grid.len());
                let mut traffic_pct = Vec::with_capacity(grid.len());
                let mut epoch_times = Vec::with_capacity(grid.len());
                let mut random_times = Vec::with_capacity(grid.len());
                for (o, b) in own.iter().zip(base.iter()) {
                    speedups.push(b.epoch_time() / o.epoch_time());
                    remote_pct.push(pct(o.total_remote_vertices, b.total_remote_vertices));
                    traffic_pct.push(pct(
                        o.counters.total_network_bytes(),
                        b.counters.total_network_bytes(),
                    ));
                    epoch_times.push(o.epoch_time());
                    random_times.push(b.epoch_time());
                }
                DistDglGridOutcome {
                    name: t.name.clone(),
                    speedups,
                    remote_pct,
                    traffic_pct,
                    epoch_times,
                    random_times,
                }
            }
        })
        .collect();
    par_map(threads, jobs)
}

fn pct(own: u64, base: u64) -> f64 {
    if base == 0 {
        if own == 0 {
            100.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * own as f64 / base as f64
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{timed_edge_partitions, timed_vertex_partitions};
    use gp_exec::Threads;
    use gp_graph::{DatasetId, Graph, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn gnn(g: &Graph) -> DistGnn<'_> {
        DistGnn::new(g, PaperParams::middle().model(ModelKind::Sage))
    }

    fn dgl<'g>(g: &'g Graph, split: &'g VertexSplit) -> DistDgl<'g> {
        DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(g, split, PaperParams::middle().model(ModelKind::Sage))
        }
    }

    fn tiny_grid() -> Vec<PaperParams> {
        vec![
            PaperParams { feature_size: 16, hidden_dim: 16, num_layers: 2 },
            PaperParams { feature_size: 64, hidden_dim: 16, num_layers: 3 },
        ]
    }

    #[test]
    fn distgnn_sweep_shapes() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let grid = tiny_grid();
        let outcomes = distgnn_grid(&gnn(&g), &timed, &grid, Threads::serial());
        assert_eq!(outcomes.len(), 6);
        for o in &outcomes {
            assert_eq!(o.speedups.len(), 2);
            if o.name == "Random" {
                for &s in &o.speedups {
                    assert!((s - 1.0).abs() < 1e-9, "Random speedup {s}");
                }
            }
        }
        // HEP-100 must beat the streaming baselines on average.
        let get = |n: &str| outcomes.iter().find(|o| o.name == n).unwrap().mean_speedup();
        assert!(get("HEP-100") > get("Random"));
        assert!(get("HEP-100") > 1.2, "HEP-100 speedup {}", get("HEP-100"));
    }

    #[test]
    fn distdgl_sweep_shapes() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        let grid = tiny_grid();
        let outcomes = distdgl_grid(&dgl(&g, &split), &timed, &grid, Threads::serial());
        assert_eq!(outcomes.len(), 6);
        let get = |n: &str| outcomes.iter().find(|o| o.name == n).unwrap();
        for &s in &get("Random").speedups {
            assert!((s - 1.0).abs() < 1e-9);
        }
        // METIS reduces remote vertices vs Random.
        assert!(get("METIS").remote_pct.iter().all(|&p| p < 100.0));
    }

    #[test]
    fn distgnn_grid_threaded_is_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let grid = tiny_grid();
        let serial = distgnn_grid(&gnn(&g), &timed, &grid, Threads::serial());
        for threads in [2usize, 4, 8] {
            let par = distgnn_grid(&gnn(&g), &timed, &grid, Threads::new(threads));
            assert_eq!(par, serial, "threads = {threads}: f64 == on every field");
        }
    }

    #[test]
    fn distdgl_grid_threaded_is_bit_identical_to_serial() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        let grid = tiny_grid();
        let serial = distdgl_grid(&dgl(&g, &split), &timed, &grid, Threads::serial());
        for threads in [2usize, 4] {
            let par = distdgl_grid(&dgl(&g, &split), &timed, &grid, Threads::new(threads));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn mean_speedup_folds_in_index_order() {
        // Order-sensitive values: summing in any order other than
        // 0,1,2,3 yields different f64 bits, so this pins the
        // aggregation order the parallel path must reproduce.
        let values = vec![1.0, 1e16, -1e16, 0.0];
        let expect = (((1.0 + 1e16) + -1e16) + 0.0) / 4.0;
        let reversed: f64 = values.iter().rev().sum::<f64>() / 4.0;
        assert!(expect != reversed, "values must actually be order-sensitive");
        let o = DistGnnGridOutcome {
            name: "x".into(),
            speedups: values.clone(),
            memory_pct: Vec::new(),
            traffic_pct: Vec::new(),
            epoch_times: values.clone(),
            random_times: Vec::new(),
        };
        assert_eq!(o.mean_speedup(), expect);
        assert_eq!(o.mean_epoch_time(), expect);
        let d = DistDglGridOutcome {
            name: "x".into(),
            speedups: values.clone(),
            remote_pct: Vec::new(),
            traffic_pct: Vec::new(),
            epoch_times: values,
            random_times: Vec::new(),
        };
        assert_eq!(d.mean_speedup(), expect);
        assert_eq!(d.mean_epoch_time(), expect);
    }

    #[test]
    fn empty_grid_means_are_zero_not_nan() {
        let o = DistGnnGridOutcome {
            name: "x".into(),
            speedups: Vec::new(),
            memory_pct: Vec::new(),
            traffic_pct: Vec::new(),
            epoch_times: Vec::new(),
            random_times: Vec::new(),
        };
        assert_eq!(o.mean_speedup(), 0.0);
        assert_eq!(o.mean_epoch_time(), 0.0);
        let d = DistDglGridOutcome {
            name: "x".into(),
            speedups: Vec::new(),
            remote_pct: Vec::new(),
            traffic_pct: Vec::new(),
            epoch_times: Vec::new(),
            random_times: Vec::new(),
        };
        assert_eq!(d.mean_speedup(), 0.0);
        assert_eq!(d.mean_epoch_time(), 0.0);
    }
}
