//! Timed partitioning runs.

use gp_exec::{par_map, Threads};
use gp_graph::Graph;
use gp_partition::{EdgePartition, PartitionError, VertexPartition};

use crate::registry;

/// A partition with its real partitioning wall time.
#[derive(Debug, Clone)]
pub struct Timed<P> {
    /// Partitioner name.
    pub name: String,
    /// The partition.
    pub partition: P,
    /// Wall-clock partitioning time in seconds.
    pub seconds: f64,
}

/// An edge partition with its real partitioning wall time.
pub type TimedEdgePartition = Timed<EdgePartition>;

/// A vertex partition with its real partitioning wall time.
pub type TimedVertexPartition = Timed<VertexPartition>;

/// Run all six edge partitioners on `graph` with `k` parts, timing
/// each, one job per partitioner on a `threads`-wide `gp-exec` pool.
/// Results come in registry order. The
/// partitions are bit-identical for every width; only the wall-clock
/// `seconds` fields vary run to run (they time real work, threaded or
/// not).
///
/// # Panics
///
/// Panics if a registered partitioner fails (presets are valid for all
/// dataset graphs).
pub fn timed_edge_partitions(
    graph: &Graph,
    k: u32,
    seed: u64,
    threads: Threads,
) -> Vec<TimedEdgePartition> {
    timed_partitions(registry::edge_partitioner_names(), threads, |name| {
        let p = registry::edge_partitioner(name).expect("registered");
        move || p.partition_edges(graph, k, seed)
    })
}

/// Run all six vertex partitioners on `graph` with `k` parts, timing
/// each; `train` parameterises ByteGNN. See [`timed_edge_partitions`]
/// for the pool and the determinism contract.
///
/// # Panics
///
/// Panics if a registered partitioner fails.
pub fn timed_vertex_partitions(
    graph: &Graph,
    k: u32,
    seed: u64,
    train: &[u32],
    threads: Threads,
) -> Vec<TimedVertexPartition> {
    timed_partitions(registry::vertex_partitioner_names(), threads, |name| {
        let p = registry::vertex_partitioner(name, Some(train.to_vec())).expect("registered");
        move || p.partition_vertices(graph, k, seed)
    })
}

/// One pool job per name, in name order: `build(name)` constructs the
/// partitioner and returns the run, which alone is timed under the
/// `partition.<name>` profile scope.
fn timed_partitions<P, R>(
    names: &'static [&'static str],
    threads: Threads,
    build: impl Fn(&'static str) -> R + Sync,
) -> Vec<Timed<P>>
where
    P: Send,
    R: FnOnce() -> Result<P, PartitionError>,
{
    let build = &build;
    let jobs: Vec<_> = names
        .iter()
        .map(|&name| {
            move || {
                let run = build(name);
                let _prof = gp_prof::scope_label(|| format!("partition.{name}"));
                let start = gp_prof::now();
                let partition = run().unwrap_or_else(|e| panic!("{name}: {e}"));
                Timed { name: name.to_string(), partition, seconds: start.elapsed_secs() }
            }
        })
        .collect();
    par_map(threads, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::family::{DistDgl, DistGnn};
    use gp_exec::Threads;
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    #[test]
    fn timed_edge_partitions_cover_all_six() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let timed = timed_edge_partitions(&g, 4, 1, Threads::serial());
        assert_eq!(timed.len(), 6);
        for t in &timed {
            assert!(t.seconds >= 0.0);
            assert_eq!(t.partition.k(), 4);
        }
        // Quality ordering sanity: HEP-100 beats Random.
        let rf = |name: &str| {
            timed.iter().find(|t| t.name == name).unwrap().partition.replication_factor()
        };
        assert!(rf("HEP-100") < rf("Random"));
    }

    #[test]
    fn timed_vertex_partitions_cover_all_six() {
        let g = DatasetId::DI.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let timed = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        assert_eq!(timed.len(), 6);
        let cut =
            |name: &str| timed.iter().find(|t| t.name == name).unwrap().partition.edge_cut_ratio();
        assert!(cut("METIS") < cut("Random"));
    }

    #[test]
    fn threaded_partitions_match_serial_except_wall_clock() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let serial = timed_edge_partitions(&g, 4, 1, Threads::serial());
        for threads in [2usize, 4] {
            let par = timed_edge_partitions(&g, 4, 1, Threads::new(threads));
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(serial.iter()) {
                assert_eq!(p.name, s.name, "registry order preserved");
                assert_eq!(p.partition, s.partition, "partitions are bit-identical");
                assert!(p.seconds >= 0.0);
            }
        }
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let vserial = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        let vpar = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::new(4));
        for (p, s) in vpar.iter().zip(vserial.iter()) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.partition, s.partition);
        }
    }

    #[test]
    fn engines_run_on_timed_partitions() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let ep = timed_edge_partitions(&g, 4, 1, Threads::serial());
        let model = PaperParams::middle().model(ModelKind::Sage);
        let report = DistGnn::new(&g, model).healthy_epoch(&ep[0].partition);
        assert!(report.epoch_time() > 0.0);
        let vp = timed_vertex_partitions(&g, 4, 1, &split.train, Threads::serial());
        let summary = DistDgl::new(&g, &split, model).healthy_epoch(&vp[0].partition);
        assert!(summary.epoch_time() > 0.0);
    }
}
