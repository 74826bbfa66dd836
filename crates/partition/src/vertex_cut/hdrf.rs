//! HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015).
//!
//! Stateful streaming vertex-cut. For each edge it scores every partition
//! by a replication term (prefer partitions that already hold a replica
//! of an endpoint, weighted towards replicating the *higher*-degree
//! endpoint) plus a balance term, and assigns greedily. The state is the
//! partial degree of each vertex, its replica set, and per-partition
//! loads.

use gp_graph::rng::Rng;
use gp_graph::Graph;

use crate::assignment::{EdgePartition, MAX_PARTITIONS};
use crate::error::PartitionError;
use crate::traits::EdgePartitioner;

/// HDRF streaming edge partitioner.
#[derive(Debug, Clone, Copy)]
pub struct Hdrf {
    /// Balance weight λ; the original paper recommends values slightly
    /// above 1.
    pub lambda: f64,
}

impl Default for Hdrf {
    fn default() -> Self {
        Hdrf { lambda: 1.1 }
    }
}

impl EdgePartitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn partition_edges(
        &self,
        graph: &Graph,
        k: u32,
        seed: u64,
    ) -> Result<EdgePartition, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        if self.lambda < 0.0 {
            return Err(PartitionError::InvalidParameter(format!(
                "lambda = {} must be >= 0",
                self.lambda
            )));
        }
        let n = graph.num_vertices() as usize;
        let mut partial_degree = vec![0u32; n];
        let mut replicas = vec![0u64; n];
        let mut load = vec![0u64; k as usize];
        let mut extrema = LoadExtrema::of(&load);
        let mut scores = [0f64; MAX_PARTITIONS as usize];
        let scores = &mut scores[..k as usize];
        let mut rng = Rng::seed_from_u64(seed);
        let mut assignments = Vec::with_capacity(graph.num_edges() as usize);

        let _prof = gp_prof::scope("partition.hdrf.score");
        for (u, v) in graph.edges() {
            let (ui, vi) = (u as usize, v as usize);
            partial_degree[ui] += 1;
            partial_degree[vi] += 1;
            hdrf_scores(
                self.lambda,
                (partial_degree[ui], partial_degree[vi]),
                (replicas[ui], replicas[vi]),
                &load,
                &extrema,
                scores,
            );
            let best = hdrf_choose(scores, &mut rng);

            assignments.push(best);
            let bit = 1u64 << best;
            replicas[ui] |= bit;
            replicas[vi] |= bit;
            load[best as usize] += 1;
            extrema.grew(&load, best as usize);
        }
        EdgePartition::new(graph, k, assignments)
    }
}

/// Running maximum and minimum of per-partition edge loads. Loads only
/// grow by one at a time, so counting the partitions at the minimum
/// lets the minimum move in O(1) amortised time: a rescan happens only
/// when the last partition at the minimum grows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadExtrema {
    max: u64,
    min: u64,
    at_min: usize,
}

impl LoadExtrema {
    /// Extrema of `load` (one entry per partition, `k >= 1`) by a full
    /// scan.
    pub(crate) fn of(load: &[u64]) -> Self {
        let max = *load.iter().max().expect("k >= 1");
        let min = *load.iter().min().expect("k >= 1");
        let at_min = load.iter().filter(|&&l| l == min).count();
        LoadExtrema { max, min, at_min }
    }

    /// Account for `load[p]` having just grown by one.
    #[inline]
    pub(crate) fn grew(&mut self, load: &[u64], p: usize) {
        let l = load[p];
        self.max = self.max.max(l);
        if l - 1 == self.min {
            self.at_min -= 1;
            if self.at_min == 0 {
                // Every other partition was above the old minimum.
                self.min += 1;
                self.at_min = load.iter().filter(|&&x| x == self.min).count();
            }
        }
    }
}

/// HDRF's score of every partition for one edge, written to `scores`
/// (one slot per partition, like `load`). `degrees` are the endpoints'
/// partial degrees *after* counting the edge being placed; `replicas`
/// their replica bitmasks. HEP's streaming phase scores with this too.
#[inline]
pub(crate) fn hdrf_scores(
    lambda: f64,
    degrees: (u32, u32),
    replicas: (u64, u64),
    load: &[u64],
    extrema: &LoadExtrema,
    scores: &mut [f64],
) {
    let du = f64::from(degrees.0);
    let dv = f64::from(degrees.1);
    let theta_u = du / (du + dv);
    let theta_v = 1.0 - theta_u;
    // Replication term: g(v, p) = 1 + (1 - θ) when p already holds a
    // replica of v. Replicating the higher-degree endpoint is cheaper,
    // hence the (1 - θ) bonus.
    let gain_u = 1.0 + (1.0 - theta_u);
    let gain_v = 1.0 + (1.0 - theta_v);
    let denom = 1e-9 + (extrema.max - extrema.min) as f64;
    for (p, (score, &l)) in scores.iter_mut().zip(load).enumerate() {
        let rep_u = if replicas.0 >> p & 1 != 0 { gain_u } else { 0.0 };
        let rep_v = if replicas.1 >> p & 1 != 0 { gain_v } else { 0.0 };
        let c_bal = lambda * (extrema.max - l) as f64 / denom;
        *score = (rep_u + rep_v) + c_bal;
    }
}

/// HDRF's per-edge selection rule over [`hdrf_scores`] (shared with the
/// incremental partitioner so incremental-vs-batch equality holds by
/// construction): the highest score wins, where a score within `1e-12`
/// of the current level's first score ties with it, and ties are
/// reservoir-sampled from `rng` with one `random_range(0..ties)` draw
/// per tie.
///
/// Every tie draws, including ties with a level that a later partition
/// overtakes, so the number of draws is part of the model: it decides
/// which draws every later edge sees.
#[inline]
pub(crate) fn hdrf_choose(scores: &[f64], rng: &mut Rng) -> u32 {
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    let mut ties = 0u32;
    for (p, &score) in scores.iter().enumerate() {
        if score > best_score + 1e-12 {
            best_score = score;
            best = p;
            ties = 1;
        } else if (score - best_score).abs() <= 1e-12 {
            ties += 1;
            if rng.random_range(0..ties) == 0 {
                best = p;
            }
        }
    }
    best as u32
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::vertex_cut::testutil::{
        check_edge_partitioner, oracle_graphs, skewed_graph, ORACLE_KS as KS,
    };
    use crate::vertex_cut::RandomEdgePartitioner;

    /// Balance weights from the `ablation_hdrf_lambda` sweep, from 0
    /// (every candidate without a replica ties) to 16.
    const LAMBDAS: [f64; 4] = [0.0, 0.25, 1.1, 16.0];

    /// The per-candidate rule that [`hdrf_scores`] and [`hdrf_choose`]
    /// replace: one `random_range` draw per tie as the walk meets it.
    #[allow(clippy::too_many_arguments)]
    fn reference_choose(
        k: u32,
        lambda: f64,
        du: u32,
        dv: u32,
        replicas_u: u64,
        replicas_v: u64,
        load: &[u64],
        max_load: u64,
        min_load: u64,
        rng: &mut Rng,
    ) -> u32 {
        let du = f64::from(du);
        let dv = f64::from(dv);
        let theta_u = du / (du + dv);
        let theta_v = 1.0 - theta_u;
        let mut best = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        let mut ties = 0u32;
        let denom = 1e-9 + (max_load - min_load) as f64;
        for p in 0..k {
            let bit = 1u64 << p;
            let mut c_rep = 0.0;
            if replicas_u & bit != 0 {
                c_rep += 1.0 + (1.0 - theta_u);
            }
            if replicas_v & bit != 0 {
                c_rep += 1.0 + (1.0 - theta_v);
            }
            let c_bal = lambda * (max_load - load[p as usize]) as f64 / denom;
            let score = c_rep + c_bal;
            if score > best_score + 1e-12 {
                best_score = score;
                best = p;
                ties = 1;
            } else if (score - best_score).abs() <= 1e-12 {
                ties += 1;
                if rng.random_range(0..ties) == 0 {
                    best = p;
                }
            }
        }
        best
    }

    /// One-shot HDRF with [`reference_choose`] and a full `min()` scan
    /// per edge.
    pub(crate) fn reference_partition(g: &Graph, k: u32, lambda: f64, seed: u64) -> Vec<u32> {
        let n = g.num_vertices() as usize;
        let mut degree = vec![0u32; n];
        let mut replicas = vec![0u64; n];
        let mut load = vec![0u64; k as usize];
        let (mut max_load, mut min_load) = (0u64, 0u64);
        let mut rng = Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        for (u, v) in g.edges() {
            let (ui, vi) = (u as usize, v as usize);
            degree[ui] += 1;
            degree[vi] += 1;
            let best = reference_choose(
                k,
                lambda,
                degree[ui],
                degree[vi],
                replicas[ui],
                replicas[vi],
                &load,
                max_load,
                min_load,
                &mut rng,
            );
            out.push(best);
            replicas[ui] |= 1u64 << best;
            replicas[vi] |= 1u64 << best;
            load[best as usize] += 1;
            max_load = max_load.max(load[best as usize]);
            min_load = *load.iter().min().unwrap();
        }
        out
    }

    #[test]
    fn choice_and_draw_count_match_the_per_candidate_rule() {
        // Loads from a few values and sparse replica masks make ties,
        // ties with levels that are later overtaken, and near-ties.
        let mut gen = Rng::seed_from_u64(5);
        for case in 0..4000u64 {
            let k = KS[case as usize % KS.len()];
            let lambda = LAMBDAS[(case / 6) as usize % LAMBDAS.len()];
            let load: Vec<u64> = (0..k).map(|_| 10 + gen.below(3)).collect();
            let mask = |gen: &mut Rng| gen.next_u64() & gen.next_u64() & gen.next_u64();
            let (ru, rv) = (mask(&mut gen), mask(&mut gen));
            let (du, dv) = (1 + gen.below(4) as u32, 1 + gen.below(4) as u32);
            let extrema = LoadExtrema::of(&load);
            let mut scores = vec![0.0; k as usize];
            hdrf_scores(lambda, (du, dv), (ru, rv), &load, &extrema, &mut scores);
            let mut rng = Rng::seed_from_u64(case);
            let mut reference = rng.clone();
            let got = hdrf_choose(&scores, &mut rng);
            let (max, min) = (extrema.max, extrema.min);
            let want = reference_choose(k, lambda, du, dv, ru, rv, &load, max, min, &mut reference);
            assert_eq!(got, want, "case {case}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "case {case}: draws consumed");
        }
    }

    #[test]
    fn load_extrema_track_a_full_scan() {
        let mut gen = Rng::seed_from_u64(3);
        for k in [1usize, 2, 5, 64] {
            let mut load = vec![0u64; k];
            let mut extrema = LoadExtrema::of(&load);
            for _ in 0..500 {
                let p = gen.below(k as u64) as usize;
                load[p] += 1;
                extrema.grew(&load, p);
                assert_eq!(extrema, LoadExtrema::of(&load), "k = {k}");
            }
        }
    }

    #[test]
    fn partitions_match_the_per_candidate_rule() {
        for g in oracle_graphs() {
            for k in KS {
                for lambda in LAMBDAS {
                    for seed in [0, 9] {
                        let got = Hdrf { lambda }.partition_edges(&g, k, seed).unwrap();
                        let want = reference_partition(&g, k, lambda, seed);
                        assert_eq!(
                            got.assignments(),
                            &want[..],
                            "k {k} lambda {lambda} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn passes_common_checks() {
        check_edge_partitioner(&Hdrf::default());
    }

    #[test]
    fn beats_random_on_replication() {
        let g = skewed_graph();
        let hdrf = Hdrf::default().partition_edges(&g, 8, 1).unwrap();
        let rnd = RandomEdgePartitioner.partition_edges(&g, 8, 1).unwrap();
        assert!(hdrf.replication_factor() < 0.8 * rnd.replication_factor());
    }

    #[test]
    fn keeps_edges_balanced() {
        let g = skewed_graph();
        let p = Hdrf::default().partition_edges(&g, 8, 1).unwrap();
        assert!(p.edge_balance() < 1.2, "edge balance {}", p.edge_balance());
    }

    #[test]
    fn lambda_zero_degenerates_to_pure_replication_greed() {
        let g = skewed_graph();
        // Without the balance term the partitioner still produces a valid
        // partition, just (possibly) a lopsided one.
        let p = Hdrf { lambda: 0.0 }.partition_edges(&g, 4, 1).unwrap();
        let total: u64 = p.edge_counts().iter().sum();
        assert_eq!(total, u64::from(g.num_edges()));
    }

    #[test]
    fn higher_lambda_improves_balance() {
        let g = skewed_graph();
        let loose = Hdrf { lambda: 0.1 }.partition_edges(&g, 8, 1).unwrap();
        let tight = Hdrf { lambda: 4.0 }.partition_edges(&g, 8, 1).unwrap();
        assert!(tight.edge_balance() <= loose.edge_balance() + 0.05);
    }

    #[test]
    fn rejects_negative_lambda() {
        let g = skewed_graph();
        assert!(Hdrf { lambda: -1.0 }.partition_edges(&g, 4, 0).is_err());
    }
}
