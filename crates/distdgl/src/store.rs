//! Partitioned graph/feature store.
//!
//! DistDGL co-locates each vertex's adjacency list, features and label
//! with its owning partition. The store answers two questions the
//! sampler and feature loader need constantly: *who owns this vertex?*
//! and *which training vertices are local to worker w?*

use gp_graph::{Graph, VertexSplit};
use gp_partition::VertexPartition;

use crate::error::DistDglError;

/// Ownership-aware view of a vertex-partitioned graph.
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    k: u32,
    /// Owner partition per vertex.
    owner: Vec<u32>,
    /// Training vertices per partition (each worker trains on its own).
    local_train: Vec<Vec<u32>>,
}

impl PartitionedStore {
    /// Build a store from a partition and the train/val/test split.
    ///
    /// # Errors
    ///
    /// Fails if the partition does not cover the graph.
    pub fn new(
        graph: &Graph,
        partition: &VertexPartition,
        split: &VertexSplit,
    ) -> Result<Self, DistDglError> {
        if partition.assignments().len() != graph.num_vertices() as usize {
            return Err(DistDglError::InvalidConfig(format!(
                "partition covers {} vertices, graph has {}",
                partition.assignments().len(),
                graph.num_vertices()
            )));
        }
        let owner = partition.assignments().to_vec();
        let mut local_train = vec![Vec::new(); partition.k() as usize];
        for &v in &split.train {
            local_train[owner[v as usize] as usize].push(v);
        }
        Ok(PartitionedStore { k: partition.k(), owner, local_train })
    }

    /// Number of partitions / workers.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Owner partition of vertex `v`.
    #[inline]
    pub fn owner(&self, v: u32) -> u32 {
        self.owner[v as usize]
    }

    /// Whether vertex `v` is local to worker `w`.
    #[inline]
    pub fn is_local(&self, v: u32, w: u32) -> bool {
        self.owner[v as usize] == w
    }

    /// Training vertices owned by worker `w`.
    pub fn local_train_vertices(&self, w: u32) -> &[u32] {
        &self.local_train[w as usize]
    }

    /// Number of vertices owned by each partition.
    pub fn owned_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.k as usize];
        for &o in &self.owner {
            counts[o as usize] += 1;
        }
        counts
    }

    /// The vertices each machine gains going from this layout to `next`:
    /// `gains[m]` counts the vertices `next` assigns to `m` that this
    /// store assigns elsewhere. Their sum is the number of vertices the
    /// change moves.
    pub fn gains(&self, next: &PartitionedStore) -> Vec<u64> {
        debug_assert_eq!(self.owner.len(), next.owner.len(), "layouts of one graph");
        let mut gains = vec![0u64; self.k as usize];
        for (&from, &to) in self.owner.iter().zip(&next.owner) {
            if from != to {
                gains[to as usize] += 1;
            }
        }
        gains
    }

    /// Graceful degradation after worker crashes: reassign every vertex
    /// (and training vertex) owned by a machine in `failed` round-robin
    /// across the survivors, deterministically by vertex id. The number
    /// of partitions stays `k` — crashed workers simply own nothing and
    /// sit idle. Returns `None` when no survivors remain.
    pub fn with_failed(&self, failed: &[u32]) -> Option<PartitionedStore> {
        let mut live = vec![true; self.k as usize];
        for &m in failed {
            if m < self.k {
                live[m as usize] = false;
            }
        }
        let members: Vec<u32> = (0..self.k).filter(|&m| live[m as usize]).collect();
        self.with_members(&members)
    }

    /// Generalisation of [`PartitionedStore::with_failed`] to an
    /// arbitrary live set (the elastic-membership primitive): every
    /// vertex (and training vertex) owned by a worker *not* in `live`
    /// is reassigned round-robin across the live workers, in vertex-id
    /// order. Vertices already owned by a live worker stay put, so a
    /// join applied to the *pristine* store returns exactly the
    /// departed-and-returned worker's original shard to it. `k` is
    /// preserved; returns `None` when `live` is empty.
    pub fn with_members(&self, live: &[u32]) -> Option<PartitionedStore> {
        let mut is_failed = vec![true; self.k as usize];
        for &m in live {
            if m < self.k {
                is_failed[m as usize] = false;
            }
        }
        let survivors: Vec<u32> = (0..self.k).filter(|&m| !is_failed[m as usize]).collect();
        if survivors.is_empty() {
            return None;
        }
        let mut owner = self.owner.clone();
        let mut rr = 0usize;
        for o in owner.iter_mut() {
            if is_failed[*o as usize] {
                *o = survivors[rr % survivors.len()];
                rr += 1;
            }
        }
        // Survivors keep their own lists first; redistributed vertices
        // are appended afterwards (appending before a survivor's clone
        // would silently drop them).
        let mut local_train = vec![Vec::new(); self.k as usize];
        for (w, train) in self.local_train.iter().enumerate() {
            if !is_failed[w] {
                local_train[w] = train.clone();
            }
        }
        for (w, train) in self.local_train.iter().enumerate() {
            if is_failed[w] {
                for &v in train {
                    local_train[owner[v as usize] as usize].push(v);
                }
            }
        }
        Some(PartitionedStore { k: self.k, owner, local_train })
    }

    /// Minimal join repair: return to `joiner` exactly the vertices
    /// (and training vertices) that `pristine` assigns to it, leaving
    /// every other vertex — including other absent workers' shards,
    /// wherever they currently live — untouched. Moving anything beyond
    /// the joiner's own shard is the engines' migrate-then-commit
    /// decision, not an automatic effect of the join.
    pub fn with_rejoined(&self, joiner: u32, pristine: &PartitionedStore) -> PartitionedStore {
        let mut owner = self.owner.clone();
        for (v, o) in owner.iter_mut().enumerate() {
            if pristine.owner[v] == joiner {
                *o = joiner;
            }
        }
        let mut local_train = vec![Vec::new(); self.k as usize];
        for (w, train) in self.local_train.iter().enumerate() {
            local_train[w] =
                train.iter().copied().filter(|&v| owner[v as usize] == w as u32).collect();
        }
        // The joiner's training vertices come back in pristine order.
        local_train[joiner as usize] = pristine.local_train[joiner as usize].clone();
        PartitionedStore { k: self.k, owner, local_train }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::Graph;

    fn setup() -> (Graph, VertexPartition, VertexSplit) {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], false).unwrap();
        let p = VertexPartition::new(&g, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let s = VertexSplit::random(6, 0.5, 0.0, 1).unwrap();
        (g, p, s)
    }

    #[test]
    fn ownership() {
        let (g, p, s) = setup();
        let store = PartitionedStore::new(&g, &p, &s).unwrap();
        assert_eq!(store.owner(0), 0);
        assert_eq!(store.owner(5), 1);
        assert!(store.is_local(1, 0));
        assert!(!store.is_local(1, 1));
        assert_eq!(store.owned_counts(), vec![3, 3]);
    }

    #[test]
    fn with_failed_redistributes_to_survivors() {
        let (g, p, s) = setup();
        let store = PartitionedStore::new(&g, &p, &s).unwrap();
        let degraded = store.with_failed(&[1]).unwrap();
        assert_eq!(degraded.k(), 2, "k is preserved; crashed workers idle");
        assert_eq!(degraded.owned_counts(), vec![6, 0]);
        assert!(degraded.local_train_vertices(1).is_empty());
        // Every training vertex survives the redistribution.
        let total: usize = (0..2).map(|w| degraded.local_train_vertices(w).len()).sum();
        assert_eq!(total, s.train.len());
        for w in 0..2u32 {
            for &v in degraded.local_train_vertices(w) {
                assert_eq!(degraded.owner(v), w);
            }
        }
        // Deterministic.
        let again = store.with_failed(&[1]).unwrap();
        assert_eq!(again.owned_counts(), degraded.owned_counts());
        // Failing a worker with a LOWER id than a survivor must not
        // drop the redistributed vertices when the survivor's own list
        // is filled in.
        let degraded = store.with_failed(&[0]).unwrap();
        assert_eq!(degraded.owned_counts(), vec![0, 6]);
        let total: usize = (0..2).map(|w| degraded.local_train_vertices(w).len()).sum();
        assert_eq!(total, s.train.len());
        // No survivors ⇒ None.
        assert!(store.with_failed(&[0, 1]).is_none());
    }

    #[test]
    fn with_members_is_the_general_form() {
        let (g, p, s) = setup();
        let store = PartitionedStore::new(&g, &p, &s).unwrap();
        // with_failed(X) and with_members(complement of X) agree.
        let a = store.with_failed(&[1]).unwrap();
        let b = store.with_members(&[0]).unwrap();
        assert_eq!(a.owned_counts(), b.owned_counts());
        for v in 0..6 {
            assert_eq!(a.owner(v), b.owner(v));
        }
        // A rejoin applied to the pristine store restores the original
        // shard exactly.
        let rejoined = store.with_members(&[0, 1]).unwrap();
        assert_eq!(rejoined.owned_counts(), store.owned_counts());
        for v in 0..6 {
            assert_eq!(rejoined.owner(v), store.owner(v));
        }
        for w in 0..2u32 {
            assert_eq!(rejoined.local_train_vertices(w), store.local_train_vertices(w));
        }
        // Out-of-range live ids are ignored; an effectively empty live
        // set is None.
        assert!(store.with_members(&[7]).is_none());
        assert!(store.with_members(&[]).is_none());
    }

    #[test]
    fn with_rejoined_restores_only_the_joiners_shard() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], false).unwrap();
        let p = VertexPartition::new(&g, 3, vec![0, 0, 1, 1, 2, 2]).unwrap();
        let s = VertexSplit::random(6, 1.0, 0.0, 1).unwrap();
        let pristine = PartitionedStore::new(&g, &p, &s).unwrap();
        // Workers 1 and 2 both depart; worker 1 rejoins.
        let degraded = pristine.with_members(&[0]).unwrap();
        let rejoined = degraded.with_rejoined(1, &pristine);
        // Worker 1 gets back exactly its pristine shard...
        for v in 0..6u32 {
            if pristine.owner(v) == 1 {
                assert_eq!(rejoined.owner(v), 1);
            } else {
                // ...while worker 2's vertices stay on their stand-in.
                assert_eq!(rejoined.owner(v), degraded.owner(v));
            }
        }
        assert_eq!(rejoined.local_train_vertices(1), pristine.local_train_vertices(1));
        // Every training vertex still lives with its owner, exactly once.
        let total: usize = (0..3).map(|w| rejoined.local_train_vertices(w).len()).sum();
        assert_eq!(total, s.train.len());
        for w in 0..3u32 {
            for &v in rejoined.local_train_vertices(w) {
                assert_eq!(rejoined.owner(v), w);
            }
        }
        // Rejoining the last absentee restores the pristine layout.
        let whole = rejoined.with_rejoined(2, &pristine);
        for v in 0..6u32 {
            assert_eq!(whole.owner(v), pristine.owner(v));
        }
    }

    #[test]
    fn gains_equal_a_per_vertex_owner_comparison() {
        let n = 40u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let g = Graph::from_edges(n, &edges, false).unwrap();
        let p = VertexPartition::new(&g, 4, (0..n).map(|v| (v * 7 + v / 3) % 4).collect()).unwrap();
        let s = VertexSplit::random(n, 0.5, 0.1, 3).unwrap();
        let pristine = PartitionedStore::new(&g, &p, &s).unwrap();
        let oracle = |from: &PartitionedStore, to: &PartitionedStore| {
            let mut gains = vec![0u64; 4];
            for v in 0..n {
                if from.owner(v) != to.owner(v) {
                    gains[to.owner(v) as usize] += 1;
                }
            }
            gains
        };
        let failed = pristine.with_failed(&[1]).unwrap();
        let members = failed.with_members(&[0, 3]).unwrap();
        let rejoined = members.with_rejoined(1, &pristine);
        for (from, to) in [
            (&pristine, &failed),
            (&failed, &members),
            (&pristine, &members),
            (&members, &rejoined),
            (&rejoined, &pristine),
        ] {
            let gains = from.gains(to);
            assert_eq!(gains, oracle(from, to));
            assert_eq!(to.gains(to), vec![0; 4], "an unchanged layout moves nothing");
        }
        assert_eq!(pristine.gains(&failed)[1], 0, "a failed worker gains nothing");
        assert!(pristine.gains(&failed).iter().sum::<u64>() > 0);
    }

    #[test]
    fn train_vertices_partitioned_by_owner() {
        let (g, p, s) = setup();
        let store = PartitionedStore::new(&g, &p, &s).unwrap();
        let all: usize = (0..2).map(|w| store.local_train_vertices(w).len()).sum();
        assert_eq!(all, s.train.len());
        for w in 0..2u32 {
            for &v in store.local_train_vertices(w) {
                assert_eq!(store.owner(v), w);
            }
        }
    }
}
