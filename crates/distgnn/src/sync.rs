//! Replica-synchronisation traffic model.
//!
//! In edge-partitioned full-batch training every layer performs two
//! collective exchanges:
//!
//! 1. **Gather** — each non-master replica sends its partial neighbour
//!    aggregate (`state_dim` floats + a count) to the vertex's master;
//! 2. **Scatter** — the master sends the updated representation back to
//!    every non-master replica.
//!
//! A vertex with `r` replicas therefore moves `2 (r − 1) · state_bytes`
//! per layer, which is exactly why the replication factor `RF(P) =
//! Σ|V(pᵢ)| / |V|` governs network volume (paper Figure 3: R² ≥ 0.98).
//!
//! Traffic is linear in the state dims and message pairs do not depend
//! on them at all, so the engine prices every round from the per-view
//! replica counts [`crate::view::build_views`] records
//! ([`views_sync_traffic`], O(k)); [`layer_sync_traffic_dims`] is the
//! O(V) per-vertex reference it must agree with exactly.

use gp_cluster::ClusterCounters;
use gp_partition::EdgePartition;

use crate::view::{PartitionView, NO_MASTER};

/// Per-machine traffic of one replica synchronisation round (one layer,
/// one direction — forward aggregates or backward gradients, which are
/// symmetric).
#[derive(Debug, Clone)]
pub struct SyncTraffic {
    /// Bytes sent by each machine.
    pub bytes_sent: Vec<u64>,
    /// Bytes received by each machine.
    pub bytes_received: Vec<u64>,
    /// Messages sent by each machine (batched per peer partition).
    pub messages: Vec<u64>,
}

impl SyncTraffic {
    /// Total volume moved (each byte counted once at the sender).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }
}

/// Compute the gather+scatter traffic of one layer with `state_dim`
/// floats of state per vertex in both directions.
pub fn layer_sync_traffic(
    partition: &EdgePartition,
    masters: &[u32],
    state_dim: u64,
) -> SyncTraffic {
    layer_sync_traffic_dims(partition, masters, state_dim, state_dim)
}

/// Compute one layer's sync traffic: non-master replicas gather
/// `gather_dim` floats to the master; the master scatters `scatter_dim`
/// floats back. `masters` comes from [`crate::view::assign_masters`].
pub fn layer_sync_traffic_dims(
    partition: &EdgePartition,
    masters: &[u32],
    gather_dim: u64,
    scatter_dim: u64,
) -> SyncTraffic {
    let k = partition.k() as usize;
    let gather_bytes = 4 * gather_dim;
    let scatter_bytes = 4 * scatter_dim;
    let mut bytes_sent = vec![0u64; k];
    let mut bytes_received = vec![0u64; k];
    // Message batching: machines exchange one message per peer per round;
    // count distinct (src, dst) pairs.
    let mut pair_seen = vec![false; k * k];
    let mut messages = vec![0u64; k];
    for v in 0..partition.num_vertices() {
        let mask = partition.replica_mask(v);
        if mask == 0 || mask.count_ones() == 1 {
            continue;
        }
        let master = masters[v as usize];
        debug_assert_ne!(master, NO_MASTER);
        let mut m = mask;
        while m != 0 {
            let p = m.trailing_zeros();
            m &= m - 1;
            if p == master {
                continue;
            }
            // Gather: replica p → master. Scatter: master → replica p.
            bytes_sent[p as usize] += gather_bytes;
            bytes_received[master as usize] += gather_bytes;
            bytes_sent[master as usize] += scatter_bytes;
            bytes_received[p as usize] += scatter_bytes;
            for (a, b) in [(p as usize, master as usize), (master as usize, p as usize)] {
                if !pair_seen[a * k + b] {
                    pair_seen[a * k + b] = true;
                    messages[a] += 1;
                }
            }
        }
    }
    SyncTraffic { bytes_sent, bytes_received, messages }
}

/// One layer's sync traffic from the per-view replica counts: the same
/// result as [`layer_sync_traffic_dims`] over the partition and masters
/// the views were built from, in O(k). `views[m]` must be machine `m`'s
/// view, as [`crate::view::build_views`] returns them.
pub fn views_sync_traffic(
    views: &[PartitionView],
    gather_dim: u64,
    scatter_dim: u64,
) -> SyncTraffic {
    let (gather_bytes, scatter_bytes) = (4 * gather_dim, 4 * scatter_dim);
    SyncTraffic {
        bytes_sent: views
            .iter()
            .map(|v| gather_bytes * v.mirror_replicas + scatter_bytes * v.remote_mirrors)
            .collect(),
        bytes_received: views
            .iter()
            .map(|v| gather_bytes * v.remote_mirrors + scatter_bytes * v.mirror_replicas)
            .collect(),
        messages: views.iter().map(|v| u64::from(v.sync_peers.count_ones())).collect(),
    }
}

/// Add one sync round into the cluster counters.
pub fn record_sync(counters: &mut ClusterCounters, traffic: &SyncTraffic) {
    for m in 0..traffic.bytes_sent.len() {
        let c = counters.machine_mut(m as u32);
        c.bytes_sent += traffic.bytes_sent[m];
        c.bytes_received += traffic.bytes_received[m];
        c.messages += traffic.messages[m];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::Graph;

    fn cycle() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], false).unwrap()
    }

    fn masters(p: &EdgePartition) -> Vec<u32> {
        crate::view::assign_masters(p)
    }

    #[test]
    fn no_replication_no_traffic() {
        let g = cycle();
        let p = EdgePartition::new(&g, 1, vec![0; 4]).unwrap();
        let t = layer_sync_traffic(&p, &masters(&p), 64);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn traffic_proportional_to_replicas() {
        let g = cycle();
        // Edges (0,1),(1,2) -> p0; (2,3),(0,3) -> p1: vertices 0 and 2
        // have two replicas each.
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let t = layer_sync_traffic(&p, &masters(&p), 16);
        // Two replicated vertices, each moving 2 * (2-1) * 64 bytes.
        assert_eq!(t.total_bytes(), 2 * 2 * 64);
    }

    #[test]
    fn traffic_scales_with_state_dim() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let m = masters(&p);
        let t16 = layer_sync_traffic(&p, &m, 16).total_bytes();
        let t64 = layer_sync_traffic(&p, &m, 64).total_bytes();
        assert_eq!(t64, 4 * t16);
    }

    #[test]
    fn sent_equals_received_globally() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 1, 0, 1]).unwrap();
        let t = layer_sync_traffic(&p, &masters(&p), 8);
        let sent: u64 = t.bytes_sent.iter().sum();
        let recv: u64 = t.bytes_received.iter().sum();
        assert_eq!(sent, recv);
    }

    #[test]
    fn record_sync_accumulates() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let t = layer_sync_traffic(&p, &masters(&p), 16);
        let mut counters = ClusterCounters::new(2);
        record_sync(&mut counters, &t);
        record_sync(&mut counters, &t);
        assert_eq!(counters.total_network_bytes(), 2 * 2 * t.total_bytes());
    }

    /// The O(k) per-view pricing reproduces the O(V) per-vertex scan
    /// byte for byte and message for message, over every edge
    /// partitioner, several widths, banned-master reassignments and
    /// isolated (unmastered) vertices.
    #[test]
    fn views_traffic_matches_per_vertex_scan() {
        use crate::view::{assign_masters_avoiding, build_views};
        use gp_graph::generators::{rmat, RmatParams};
        use gp_partition::registry::edge_partitioner;

        let base =
            rmat(RmatParams { scale: 8, edge_factor: 4, ..RmatParams::default() }, 3).unwrap();
        // Trailing isolated vertices: their master is `NO_MASTER`.
        let edges: Vec<(u32, u32)> = base.edges().collect();
        let g = Graph::from_edges(base.num_vertices() + 7, &edges, false).unwrap();
        let dims = [(16, 64), (64, 16), (7, 3), (1, 0)];
        for name in ["Random", "DBH", "HDRF", "2PS-L", "HEP-10", "HEP-100"] {
            for k in [1u32, 2, 8, 32] {
                let p = edge_partitioner(name).unwrap().partition_edges(&g, k, 1).unwrap();
                let full = (1u64 << k) - 1;
                for banned in [0, 1, 0b1010, full >> 1, full] {
                    let masters = assign_masters_avoiding(&p, banned & full);
                    assert!(masters.contains(&NO_MASTER), "{name} k={k}: isolated vertices");
                    let views = build_views(&p, &masters);
                    for (gi, si) in dims {
                        let fast = views_sync_traffic(&views, gi, si);
                        let slow = layer_sync_traffic_dims(&p, &masters, gi, si);
                        let at = format!("{name} k={k} banned={banned:#x} dims=({gi},{si})");
                        assert_eq!(fast.bytes_sent, slow.bytes_sent, "bytes_sent {at}");
                        assert_eq!(fast.bytes_received, slow.bytes_received, "bytes_received {at}");
                        assert_eq!(fast.messages, slow.messages, "messages {at}");
                    }
                }
            }
        }
    }
}
