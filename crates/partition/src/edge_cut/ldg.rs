//! LDG — Linear Deterministic Greedy (Stanton & Kliot, KDD 2012).
//!
//! Stateful streaming vertex partitioner: vertices arrive one at a time
//! (we stream in random order) and each is assigned to the partition
//! holding most of its already-placed neighbours, damped by a linear
//! capacity penalty `1 - |P_i| / C`.

use gp_graph::rng::Rng;
use gp_graph::Graph;

use crate::assignment::VertexPartition;
use crate::error::PartitionError;
use crate::traits::VertexPartitioner;

/// LDG streaming vertex partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Ldg {
    /// Capacity slack: each partition holds at most `slack * n / k`
    /// vertices.
    pub slack: f64,
}

impl Default for Ldg {
    fn default() -> Self {
        Ldg { slack: 1.1 }
    }
}

impl Ldg {
    /// The streaming core: place the vertices of `order` one at a time,
    /// each on the partition holding most of its *already-placed*
    /// neighbours, damped by the linear capacity penalty; repeat for
    /// `passes` passes, each re-placing every vertex against the previous
    /// pass's labelling (its own old placement removed from the sizes
    /// first). [`VertexPartitioner::partition_vertices`] drives one pass
    /// over a seed-shuffled order, and [`ReLdg`](crate::edge_cut::ReLdg)
    /// more; the incremental partitioner (`crate::incremental`) drives the
    /// same rule with arrival order, which is what makes the
    /// incremental-vs-batch oracle exact.
    ///
    /// `order` must enumerate every vertex exactly once.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range `k`, `slack < 1`, or an `order` whose
    /// length does not match the graph.
    pub fn partition_in_order(
        &self,
        graph: &Graph,
        k: u32,
        order: &[u32],
        passes: u32,
    ) -> Result<VertexPartition, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        if self.slack < 1.0 {
            return Err(PartitionError::InvalidParameter(format!(
                "slack = {} must be >= 1",
                self.slack
            )));
        }
        let n = graph.num_vertices();
        if order.len() != n as usize {
            return Err(PartitionError::LengthMismatch {
                expected: n as usize,
                actual: order.len(),
            });
        }
        let capacity = ldg_capacity(self.slack, n, k);

        const NONE: u32 = u32::MAX;
        let mut assignments = vec![NONE; n as usize];
        let mut sizes = vec![0u64; k as usize];
        let mut neighbor_counts = vec![0u32; k as usize];
        for _pass in 0..passes {
            for &v in order {
                let old = assignments[v as usize];
                if old != NONE {
                    sizes[old as usize] -= 1;
                }
                // Count placed neighbours per partition. For directed
                // graphs both directions matter for the cut, so scan both.
                neighbor_counts.iter_mut().for_each(|c| *c = 0);
                for &w in graph.out_neighbors(v) {
                    let p = assignments[w as usize];
                    if p != NONE {
                        neighbor_counts[p as usize] += 1;
                    }
                }
                if graph.is_directed() {
                    for &w in graph.in_neighbors(v) {
                        let p = assignments[w as usize];
                        if p != NONE {
                            neighbor_counts[p as usize] += 1;
                        }
                    }
                }
                let best = ldg_choose(k, capacity, &sizes, &neighbor_counts);
                assignments[v as usize] = best;
                sizes[best as usize] += 1;
            }
        }
        VertexPartition::new(graph, k, assignments)
    }

    /// Every vertex once, in the seed-shuffled order LDG and ReLDG stream.
    pub(crate) fn shuffled_order(graph: &Graph, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..graph.num_vertices()).collect();
        Rng::seed_from_u64(seed).shuffle(&mut order);
        order
    }
}

impl VertexPartitioner for Ldg {
    fn name(&self) -> &'static str {
        "LDG"
    }

    fn partition_vertices(
        &self,
        graph: &Graph,
        k: u32,
        seed: u64,
    ) -> Result<VertexPartition, PartitionError> {
        self.partition_in_order(graph, k, &Ldg::shuffled_order(graph, seed), 1)
    }
}

/// LDG partition capacity: `ceil(slack * n / k)`, at least one.
pub(crate) fn ldg_capacity(slack: f64, n: u32, k: u32) -> u64 {
    ((slack * f64::from(n) / f64::from(k)).ceil() as u64).max(1)
}

/// LDG's per-vertex selection rule over current sizes and placed
/// neighbour counts (shared with the incremental partitioner).
pub(crate) fn ldg_choose(k: u32, capacity: u64, sizes: &[u64], neighbor_counts: &[u32]) -> u32 {
    let mut best = 0u32;
    let mut best_score = f64::NEG_INFINITY;
    for p in 0..k {
        if sizes[p as usize] >= capacity {
            continue;
        }
        let weight = 1.0 - sizes[p as usize] as f64 / capacity as f64;
        let score = f64::from(neighbor_counts[p as usize]) * weight
            // Tiny tiebreaker keeps empty partitions attractive.
            + weight * 1e-6;
        if score > best_score {
            best_score = score;
            best = p;
        }
    }
    if best_score == f64::NEG_INFINITY {
        // All partitions at capacity (can only happen with slack
        // rounding); fall back to least loaded.
        best = (0..k).min_by_key(|&p| sizes[p as usize]).expect("k >= 1");
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{check_vertex_partitioner, grid_graph, skewed_graph};
    use crate::edge_cut::RandomVertexPartitioner;

    #[test]
    fn passes_common_checks() {
        check_vertex_partitioner(&Ldg::default());
    }

    #[test]
    fn beats_random_cut() {
        let g = skewed_graph();
        let ldg = Ldg::default().partition_vertices(&g, 8, 1).unwrap();
        let rnd = RandomVertexPartitioner.partition_vertices(&g, 8, 1).unwrap();
        assert!(
            ldg.edge_cut_ratio() < rnd.edge_cut_ratio(),
            "LDG {} vs Random {}",
            ldg.edge_cut_ratio(),
            rnd.edge_cut_ratio()
        );
    }

    #[test]
    fn very_effective_on_grids() {
        let g = grid_graph();
        let ldg = Ldg::default().partition_vertices(&g, 4, 1).unwrap();
        let rnd = RandomVertexPartitioner.partition_vertices(&g, 4, 1).unwrap();
        assert!(ldg.edge_cut_ratio() < 0.8 * rnd.edge_cut_ratio());
    }

    #[test]
    fn respects_capacity() {
        let g = skewed_graph();
        let p = Ldg { slack: 1.05 }.partition_vertices(&g, 8, 1).unwrap();
        let cap = (1.05 * f64::from(g.num_vertices()) / 8.0).ceil() as u64 + 1;
        assert!(p.vertex_counts().iter().all(|&c| c <= cap));
    }

    #[test]
    fn rejects_bad_slack() {
        let g = skewed_graph();
        assert!(Ldg { slack: 0.9 }.partition_vertices(&g, 4, 0).is_err());
    }
}
