//! 2PS-L — Two-Phase Streaming with Linear run-time (Mayer et al., ICDE 2022).
//!
//! Phase 1 streams the edges and builds volume-capped vertex *clusters*
//! (a simplified Hollocou-style streaming clustering). Phase 2 maps the
//! clusters onto partitions (first-fit decreasing by volume) and streams
//! the edges again: an edge whose endpoints' clusters map to the same
//! partition goes there; otherwise it goes to the less-loaded of the two
//! candidate partitions, subject to an edge-balance cap.
//!
//! The clustering packs dense regions onto single partitions, which
//! yields a low replication factor — but, exactly as the paper observes,
//! a *vertex imbalance*, because cluster sizes are uneven.

use gp_graph::Graph;

use crate::assignment::EdgePartition;
use crate::error::PartitionError;
use crate::traits::EdgePartitioner;

/// 2PS-L streaming edge partitioner.
#[derive(Debug, Clone, Copy)]
pub struct TwoPsL {
    /// Edge-balance slack α: no partition may exceed `α * |E| / k` edges.
    pub alpha: f64,
}

impl Default for TwoPsL {
    fn default() -> Self {
        TwoPsL { alpha: 1.05 }
    }
}

impl EdgePartitioner for TwoPsL {
    fn name(&self) -> &'static str {
        "2PS-L"
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
        if self.alpha < 1.0 {
            return Err(PartitionError::InvalidParameter(format!(
                "alpha = {} must be >= 1",
                self.alpha
            )));
        }
        let _ = seed; // The algorithm is deterministic by construction.
        let n = graph.num_vertices() as usize;
        let m = u64::from(graph.num_edges());
        if m == 0 {
            return EdgePartition::new(graph, k, Vec::new());
        }

        // ---- Phase 1: streaming clustering (union by volume). ----
        let mut cluster = vec![UNCLUSTERED; n];
        // Volume (sum of degrees) per cluster, indexed by cluster id.
        let mut volume: Vec<u64> = Vec::new();
        // Cap a cluster's volume at 2|E| * 2 / k, i.e. the degree volume
        // of one ideally-sized partition (each edge contributes 2).
        let volume_cap = (2 * m).div_ceil(u64::from(k)).max(2);
        for (u, v) in graph.edges() {
            let (du, dv) = (u64::from(graph.degree(u)), u64::from(graph.degree(v)));
            cluster_phase1(&mut cluster, &mut volume, volume_cap, u as usize, v as usize, du, dv);
        }

        // ---- Map clusters to partitions: first-fit decreasing. ----
        let mut order: Vec<u32> = (0..volume.len() as u32).collect();
        order.sort_unstable_by_key(|&c| std::cmp::Reverse(volume[c as usize]));
        let mut part_volume = vec![0u64; k as usize];
        let mut cluster_part = vec![0u32; volume.len()];
        for c in order {
            let p = (0..k).min_by_key(|&p| part_volume[p as usize]).expect("k >= 1");
            cluster_part[c as usize] = p;
            part_volume[p as usize] += volume[c as usize];
        }

        // ---- Phase 2: stream edges and assign. ----
        let cap = ((self.alpha * m as f64) / f64::from(k)).ceil() as u64;
        let mut load = vec![0u64; k as usize];
        let mut replicas = vec![0u64; n];
        let mut assignments = Vec::with_capacity(m as usize);
        for (u, v) in graph.edges() {
            let (ui, vi) = (u as usize, v as usize);
            let pu = cluster_part[cluster[ui] as usize];
            let pv = cluster_part[cluster[vi] as usize];
            let p = twops_place(pu, pv, replicas[ui] | replicas[vi], &load, cap);
            assignments.push(p);
            load[p as usize] += 1;
            replicas[ui] |= 1u64 << p;
            replicas[vi] |= 1u64 << p;
        }
        EdgePartition::new(graph, k, assignments)
    }
}

/// Cluster id of a vertex no phase-1 update has reached yet.
pub(crate) const UNCLUSTERED: u32 = u32::MAX;

/// 2PS-L's phase-1 clustering update for edge `{ui, vi}` with endpoint
/// degrees `du`, `dv`, shared by the one-shot partitioner and the online
/// core of `crate::incremental`. Returns the id of a newly born cluster,
/// if any.
#[inline]
pub(crate) fn cluster_phase1(
    cluster: &mut [u32],
    volume: &mut Vec<u64>,
    volume_cap: u64,
    ui: usize,
    vi: usize,
    du: u64,
    dv: u64,
) -> Option<u32> {
    match (cluster[ui], cluster[vi]) {
        (UNCLUSTERED, UNCLUSTERED) => {
            let id = volume.len() as u32;
            volume.push(du + dv);
            cluster[ui] = id;
            cluster[vi] = id;
            Some(id)
        }
        (cu, UNCLUSTERED) => {
            if volume[cu as usize] + dv <= volume_cap {
                cluster[vi] = cu;
                volume[cu as usize] += dv;
                None
            } else {
                let id = volume.len() as u32;
                volume.push(dv);
                cluster[vi] = id;
                Some(id)
            }
        }
        (UNCLUSTERED, cv) => {
            if volume[cv as usize] + du <= volume_cap {
                cluster[ui] = cv;
                volume[cv as usize] += du;
                None
            } else {
                let id = volume.len() as u32;
                volume.push(du);
                cluster[ui] = id;
                Some(id)
            }
        }
        (cu, cv) if cu != cv => {
            // 2PS-L's O(1) "rescue" step: move the endpoint sitting in
            // the smaller cluster into the larger one if it has room.
            let (small_v, small_c, big_c, dw) = if volume[cu as usize] <= volume[cv as usize] {
                (ui, cu, cv, du)
            } else {
                (vi, cv, cu, dv)
            };
            if volume[big_c as usize] + dw <= volume_cap {
                cluster[small_v] = big_c;
                volume[big_c as usize] += dw;
                volume[small_c as usize] = volume[small_c as usize].saturating_sub(dw);
            }
            None
        }
        _ => None,
    }
}

/// 2PS-L's phase-2 placement of an edge whose endpoints' clusters map to
/// `pu` and `pv`, shared by the one-shot partitioner and the online core
/// of `crate::incremental`. The same partition wins outright; otherwise
/// the one already holding a replica of an endpoint (`replicas` is the
/// union of both endpoints' replica bitmasks), then the less-loaded
/// candidate. A choice at the edge-balance cap spills to the
/// least-loaded partition.
#[inline]
pub(crate) fn twops_place(pu: u32, pv: u32, replicas: u64, load: &[u64], cap: u64) -> u32 {
    let p = if pu == pv {
        pu
    } else {
        match (replicas & (1u64 << pu) != 0, replicas & (1u64 << pv) != 0) {
            (true, false) => pu,
            (false, true) => pv,
            _ if load[pu as usize] <= load[pv as usize] => pu,
            _ => pv,
        }
    };
    if load[p as usize] >= cap {
        (0..load.len() as u32).min_by_key(|&q| load[q as usize]).expect("k >= 1")
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cut::testutil::{check_edge_partitioner, skewed_graph};
    use crate::vertex_cut::RandomEdgePartitioner;

    #[test]
    fn passes_common_checks() {
        check_edge_partitioner(&TwoPsL::default());
    }

    #[test]
    fn beats_random_on_replication() {
        let g = skewed_graph();
        let two = TwoPsL::default().partition_edges(&g, 8, 1).unwrap();
        let rnd = RandomEdgePartitioner.partition_edges(&g, 8, 1).unwrap();
        assert!(
            two.replication_factor() < 0.8 * rnd.replication_factor(),
            "2PS-L {} vs Random {}",
            two.replication_factor(),
            rnd.replication_factor()
        );
    }

    #[test]
    fn respects_edge_balance_cap() {
        let g = skewed_graph();
        let p = TwoPsL::default().partition_edges(&g, 8, 1).unwrap();
        // The cap allows alpha + 1-edge rounding slack.
        assert!(p.edge_balance() < 1.15, "edge balance {}", p.edge_balance());
    }

    #[test]
    fn rejects_alpha_below_one() {
        let g = skewed_graph();
        assert!(TwoPsL { alpha: 0.5 }.partition_edges(&g, 4, 0).is_err());
    }

    #[test]
    fn empty_graph_ok() {
        let g = gp_graph::Graph::from_edges(4, &[], false).unwrap();
        let p = TwoPsL::default().partition_edges(&g, 2, 0).unwrap();
        assert_eq!(p.assignments().len(), 0);
    }
}
