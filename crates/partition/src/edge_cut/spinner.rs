//! Spinner — label-propagation partitioning (Martella et al., ICDE 2017).
//!
//! In-memory vertex partitioner: every vertex starts with a random label
//! (partition) and repeatedly adopts the label that is most common among
//! its neighbours, weighted by a load penalty that discourages
//! overloaded partitions. Iterates until the labelling stabilises.
//!
//! Spinner balances *edges* per partition (its load is the number of
//! adjacent arcs), which matches the original system and explains why
//! its vertex balance can drift — an effect the paper observes.

use gp_graph::rng::Rng;
use gp_graph::Graph;

use crate::assignment::VertexPartition;
use crate::error::PartitionError;
use crate::traits::VertexPartitioner;

/// Spinner label-propagation partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Spinner {
    /// Maximum label-propagation iterations.
    pub max_iters: u32,
    /// Stop when fewer than this fraction of vertices change label.
    pub convergence_threshold: f64,
    /// Additional capacity slack on the edge load per partition.
    pub slack: f64,
}

impl Default for Spinner {
    fn default() -> Self {
        Spinner { max_iters: 60, convergence_threshold: 0.002, slack: 1.05 }
    }
}

impl VertexPartitioner for Spinner {
    fn name(&self) -> &'static str {
        "Spinner"
    }

    fn partition_vertices(
        &self,
        graph: &Graph,
        k: u32,
        seed: u64,
    ) -> Result<VertexPartition, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        if self.slack < 1.0 || self.convergence_threshold < 0.0 {
            return Err(PartitionError::InvalidParameter(
                "slack must be >= 1 and convergence_threshold >= 0".into(),
            ));
        }
        let n = graph.num_vertices() as usize;
        let mut rng = Rng::seed_from_u64(seed);
        let mut labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..k)).collect();

        // Edge-based load: each arc adjacent to a vertex counts towards
        // its partition's load.
        let degree = |v: u32| u64::from(graph.degree(v));
        let total_load: u64 = graph.vertices().map(degree).sum();
        let capacity = ((self.slack * total_load as f64) / f64::from(k)).ceil().max(1.0) as u64;
        let mut load = vec![0u64; k as usize];
        for v in graph.vertices() {
            load[labels[v as usize] as usize] += degree(v);
        }

        // counts[v * k + p]: arcs between v and vertices labelled p, kept
        // under moves.
        let propagating = gp_prof::scope("partition.spinner.propagate");
        let kk = k as usize;
        let mut counts = label_counts(graph, &labels, k);
        for _iter in 0..self.max_iters {
            let mut changed = 0usize;
            for v in graph.vertices() {
                let d = degree(v);
                if d == 0 {
                    continue;
                }
                let row = &counts[v as usize * kk..(v as usize + 1) * kk];
                let current = labels[v as usize];
                let mut best = current;
                let mut best_score = f64::NEG_INFINITY;
                for p in 0..k {
                    // Moving to p must not overload it.
                    let projected =
                        if p == current { load[p as usize] } else { load[p as usize] + d };
                    if projected > capacity {
                        continue;
                    }
                    let affinity = f64::from(row[p as usize]) / d as f64;
                    let penalty = load[p as usize] as f64 / capacity as f64;
                    let mut score = affinity - penalty;
                    // Slight stickiness avoids label oscillation.
                    if p == current {
                        score += 1e-3;
                    }
                    if score > best_score {
                        best_score = score;
                        best = p;
                    }
                }
                if best != current {
                    load[current as usize] -= d;
                    load[best as usize] += d;
                    labels[v as usize] = best;
                    changed += 1;
                    for &w in arcs(graph, v) {
                        let at = w as usize * kk;
                        counts[at + current as usize] -= 1;
                        counts[at + best as usize] += 1;
                    }
                }
            }
            debug_assert!(counts == label_counts(graph, &labels, k), "Spinner: stale label counts");
            if (changed as f64) < self.convergence_threshold * n as f64 {
                break;
            }
        }
        drop(propagating);
        VertexPartition::new(graph, k, labels)
    }
}

/// Out- and (for directed graphs) in-neighbours of `v`: the arcs
/// Spinner's label counts range over.
fn arcs(graph: &Graph, v: u32) -> impl Iterator<Item = &u32> {
    let ins: &[u32] = if graph.is_directed() { graph.in_neighbors(v) } else { &[] };
    graph.out_neighbors(v).iter().chain(ins)
}

/// The n×k table of neighbour-label counts (`counts[v * k + p]` arcs
/// between v and vertices labelled p).
fn label_counts(graph: &Graph, labels: &[u32], k: u32) -> Vec<u32> {
    let kk = k as usize;
    let mut counts = vec![0u32; graph.num_vertices() as usize * kk];
    for v in graph.vertices() {
        for &w in arcs(graph, v) {
            counts[v as usize * kk + labels[w as usize] as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{check_vertex_partitioner, grid_graph, skewed_graph};
    use crate::edge_cut::RandomVertexPartitioner;

    #[test]
    fn passes_common_checks() {
        check_vertex_partitioner(&Spinner::default());
    }

    #[test]
    fn beats_random_cut() {
        let g = skewed_graph();
        let sp = Spinner::default().partition_vertices(&g, 8, 1).unwrap();
        let rnd = RandomVertexPartitioner.partition_vertices(&g, 8, 1).unwrap();
        assert!(sp.edge_cut_ratio() < rnd.edge_cut_ratio());
    }

    #[test]
    fn strong_on_grids() {
        let g = grid_graph();
        let sp = Spinner::default().partition_vertices(&g, 4, 1).unwrap();
        assert!(sp.edge_cut_ratio() < 0.4, "cut {}", sp.edge_cut_ratio());
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let g = skewed_graph();
        let short =
            Spinner { max_iters: 2, ..Spinner::default() }.partition_vertices(&g, 4, 1).unwrap();
        let long =
            Spinner { max_iters: 80, ..Spinner::default() }.partition_vertices(&g, 4, 1).unwrap();
        assert!(long.edge_cut_ratio() <= short.edge_cut_ratio() + 0.02);
    }

    #[test]
    fn rejects_bad_params() {
        let g = skewed_graph();
        assert!(Spinner { slack: 0.5, ..Spinner::default() }.partition_vertices(&g, 4, 0).is_err());
    }
}
