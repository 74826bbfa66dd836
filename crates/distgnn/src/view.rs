//! Per-machine view of an edge partition, and the master assignment
//! it is built from.
//!
//! Both are rebuilt on every engine build and scenario layout change, so
//! both are O(V) with no work per replica in the common case:
//! [`assign_masters_avoiding`] takes a lowest-load fast path that is
//! exactly the greedy least-loaded choice, and [`build_views`] derives
//! every count and the sync profile in closed form from three
//! per-machine accumulators; the crate's `masters_and_views` does both
//! in one pass. The per-replica loops they replaced are the test
//! oracles in `oracle`.

use gp_partition::{EdgePartition, MAX_PARTITIONS};

/// What one machine of the cluster holds under an edge partition, as
/// counts: the cost model never needs the id lists themselves, and the
/// replica set of any vertex is its `EdgePartition::replica_mask`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionView {
    /// Machine / partition id.
    pub machine: u32,
    /// Number of edges assigned to this machine.
    pub local_edges: u64,
    /// Number of vertices covered by this machine `|V(p)|` — every
    /// vertex incident to a local edge, i.e. the replica set.
    pub local_vertices: u64,
    /// Number of vertices *mastered* by this machine: each replicated
    /// vertex has exactly one master replica that combines partial
    /// aggregates and runs the dense layer for it.
    pub master_vertices: u64,
    /// Non-master replicas this machine holds: each one gathers to and
    /// is scattered from its vertex's master once per sync round.
    pub mirror_replicas: u64,
    /// Non-master replicas, on other machines, of the vertices this
    /// machine masters.
    pub remote_mirrors: u64,
    /// Bitmask of the machines this one exchanges sync messages with
    /// (symmetric, never its own bit).
    pub sync_peers: u64,
}

/// Sentinel master for vertices without any incident edge.
pub const NO_MASTER: u32 = u32::MAX;

/// Per-machine accumulators live on the stack, sized for the largest k.
const MAX_K: usize = MAX_PARTITIONS as usize;

/// Bitmask of machines `0..k` (`1 <= k <= 64`), without `1 << 64`.
fn machines(k: usize) -> u64 {
    u64::MAX >> (64 - k)
}

/// The least-loaded machine in `candidates` (non-empty), lowest id first
/// on ties: the greedy choice both master assignment and master repair
/// make, walking every candidate.
pub(crate) fn least_loaded(load: &[u64], candidates: u64) -> u32 {
    let mut best = NO_MASTER;
    let mut best_load = u64::MAX;
    let mut m = candidates;
    while m != 0 {
        let p = m.trailing_zeros();
        if load[p as usize] < best_load {
            best_load = load[p as usize];
            best = p;
        }
        m &= m - 1;
    }
    best
}

/// Assign every covered vertex a *master* replica, balancing the number
/// of masters per machine (DistGNN balances the owner role because the
/// dense-layer compute happens at the owner). Greedy: each vertex goes
/// to its least-loaded replica partition; deterministic by vertex order.
pub fn assign_masters(partition: &EdgePartition) -> Vec<u32> {
    assign_masters_avoiding(partition, 0)
}

/// [`assign_masters`] with a bitmask of machines to avoid: the mitigation
/// layer migrates the master role away from a persistently slow machine
/// by reassigning with that machine banned. A vertex replicated *only* on
/// banned machines keeps a banned master (the replica sets themselves
/// are fixed by the edge partition — only the owner role moves).
/// `banned = 0` reproduces [`assign_masters`] exactly.
pub fn assign_masters_avoiding(partition: &EdgePartition, banned: u64) -> Vec<u32> {
    assign(partition, banned).0
}

/// [`assign_masters_avoiding`] and the [`build_views`] of its masters,
/// from one pass over the replica masks.
pub(crate) fn masters_and_views(
    partition: &EdgePartition,
    banned: u64,
) -> (Vec<u32>, Vec<PartitionView>) {
    let (masters, acc, _) = assign(partition, banned);
    (masters, acc.views(partition))
}

/// The greedy master pass, also accumulating the views of its masters
/// and counting the vertices that missed the fast path.
///
/// O(V) amortised, with no work per replica in the common case. Loads
/// only grow, so the pass tracks the minimum load over the unbanned
/// machines and the mask `at_min` of those at it: a vertex with a
/// candidate in `at_min` takes the lowest such candidate, exactly the
/// lowest-id least-loaded choice of [`least_loaded`], which only the
/// remaining vertices walk. When the last machine leaves `at_min`, the
/// minimum has grown by one and the mask is rebuilt in O(k); the
/// minimum grows at most V / (unbanned machines) times.
fn assign(partition: &EdgePartition, banned: u64) -> (Vec<u32>, ViewAccumulator, usize) {
    let _prof = gp_prof::scope("distgnn.masters");
    let k = partition.k() as usize;
    // The minimum is tracked over the machines a vertex can be steered
    // to; with every machine banned, all vertices choose from their
    // whole replica set, as with none banned.
    let all = machines(k);
    let pool = if all & !banned != 0 { all & !banned } else { all };
    // The accumulator's master counts are the loads.
    let mut acc = ViewAccumulator::default();
    let mut min_load = 0u64;
    let mut at_min = pool;
    let masks = partition.replica_masks();
    let mut masters = vec![NO_MASTER; masks.len()];
    let mut walked = 0;
    for (master, &mask) in masters.iter_mut().zip(masks) {
        if mask == 0 {
            continue;
        }
        let allowed = mask & !banned;
        let candidates = if allowed != 0 { allowed } else { mask };
        let lowest = candidates & at_min;
        let best = if lowest != 0 {
            lowest.trailing_zeros()
        } else {
            walked += 1;
            least_loaded(&acc.mastered, candidates)
        };
        *master = best;
        acc.add(mask, best);
        at_min &= !(1u64 << best);
        if at_min == 0 {
            min_load += 1;
            at_min = (0..k)
                .filter(|&p| pool >> p & 1 == 1 && acc.mastered[p] == min_load)
                .fold(0, |m, p| m | 1u64 << p);
        }
    }
    (masters, acc, walked)
}

/// Build all machine views for an edge partition and a master
/// assignment in which every covered vertex's master is one of its
/// replicas (as [`assign_masters`], master repair and rejoin all
/// choose). Edge and replica counts come from the partition; one O(V)
/// pass with no work per replica feeds a `ViewAccumulator`, from which
/// the sync profile [`crate::sync::views_sync_traffic`] prices in O(k)
/// is closed-form.
pub fn build_views(partition: &EdgePartition, masters: &[u32]) -> Vec<PartitionView> {
    let _prof = gp_prof::scope("distgnn.views");
    let mut acc = ViewAccumulator::default();
    for (&mask, &master) in partition.replica_masks().iter().zip(masters) {
        if mask != 0 {
            acc.add(mask, master);
        }
    }
    acc.views(partition)
}

/// Three per-machine counters, kept on the stack, that determine every
/// view of a master assignment:
///
/// * masters per machine, and `mirror_replicas = local_vertices −
///   master_vertices` (a covered vertex is either mastered here or a
///   mirror here);
/// * `remote_mirrors` = Σ (replicas − 1) over the machine's masters;
/// * the OR of its masters' replica masks, without its own bit, is the
///   set of machines its masters exchange with; `sync_peers` is that
///   relation made symmetric, in O(k²).
struct ViewAccumulator {
    mastered: [u64; MAX_K],
    remote: [u64; MAX_K],
    reach: [u64; MAX_K],
}

impl Default for ViewAccumulator {
    fn default() -> Self {
        ViewAccumulator { mastered: [0; MAX_K], remote: [0; MAX_K], reach: [0; MAX_K] }
    }
}

impl ViewAccumulator {
    /// Count a covered vertex with replica set `mask` mastered on `master`.
    #[inline]
    fn add(&mut self, mask: u64, master: u32) {
        debug_assert!(master < 64 && mask >> master & 1 == 1, "master {master} is not a replica");
        let m = master as usize;
        self.mastered[m] += 1;
        self.remote[m] += u64::from(mask.count_ones() - 1);
        self.reach[m] |= mask;
    }

    fn views(&self, partition: &EdgePartition) -> Vec<PartitionView> {
        let k = partition.k() as usize;
        let mut peers = [0u64; MAX_K];
        for m in 0..k {
            let mut out = self.reach[m] & !(1u64 << m);
            peers[m] |= out;
            while out != 0 {
                peers[out.trailing_zeros() as usize] |= 1u64 << m;
                out &= out - 1;
            }
        }
        (0..k)
            .map(|m| {
                let local_vertices = partition.covered_vertices()[m];
                PartitionView {
                    machine: m as u32,
                    local_edges: partition.edge_counts()[m],
                    local_vertices,
                    master_vertices: self.mastered[m],
                    mirror_replicas: local_vertices - self.mastered[m],
                    remote_mirrors: self.remote[m],
                    sync_peers: peers[m],
                }
            })
            .collect()
    }
}

/// The per-replica loops the closed-form pass and the lowest-load fast
/// path replaced, kept as test oracles.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{PartitionView, NO_MASTER};
    use gp_partition::EdgePartition;

    /// Strict-`<`, lowest-id-first argmin over every candidate.
    pub(crate) fn assign_masters_avoiding(partition: &EdgePartition, banned: u64) -> Vec<u32> {
        let k = partition.k() as usize;
        let mut load = vec![0u64; k];
        let mut masters = vec![NO_MASTER; partition.num_vertices() as usize];
        for v in 0..partition.num_vertices() {
            let mask = partition.replica_mask(v);
            if mask == 0 {
                continue;
            }
            let candidates = if mask & !banned != 0 { mask & !banned } else { mask };
            let mut best = NO_MASTER;
            let mut best_load = u64::MAX;
            let mut m = candidates;
            while m != 0 {
                let p = m.trailing_zeros();
                if load[p as usize] < best_load {
                    best_load = load[p as usize];
                    best = p;
                }
                m &= m - 1;
            }
            masters[v as usize] = best;
            load[best as usize] += 1;
        }
        masters
    }

    /// Every mirror of every vertex, one by one.
    pub(crate) fn build_views(partition: &EdgePartition, masters: &[u32]) -> Vec<PartitionView> {
        let mut views: Vec<PartitionView> = (0..partition.k())
            .map(|machine| PartitionView {
                machine,
                local_edges: partition.edge_counts()[machine as usize],
                local_vertices: partition.covered_vertices()[machine as usize],
                master_vertices: 0,
                mirror_replicas: 0,
                remote_mirrors: 0,
                sync_peers: 0,
            })
            .collect();
        for v in 0..partition.num_vertices() {
            let mask = partition.replica_mask(v);
            if mask == 0 {
                continue;
            }
            let master = masters[v as usize];
            views[master as usize].master_vertices += 1;
            let mut mirrors = mask & !(1u64 << master);
            while mirrors != 0 {
                let p = mirrors.trailing_zeros();
                mirrors &= mirrors - 1;
                views[p as usize].mirror_replicas += 1;
                views[p as usize].sync_peers |= 1u64 << master;
                views[master as usize].remote_mirrors += 1;
                views[master as usize].sync_peers |= 1u64 << p;
            }
        }
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::Graph;
    use gp_partition::EdgePartition;

    fn cycle() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], false).unwrap()
    }

    fn views_of(p: &EdgePartition) -> Vec<PartitionView> {
        let masters = assign_masters(p);
        build_views(p, &masters)
    }

    #[test]
    fn views_cover_all_edges_once() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 0, 1]).unwrap();
        let views = views_of(&p);
        let total: u64 = views.iter().map(|v| v.local_edges).sum();
        assert_eq!(total, 4);
        assert_eq!((views[0].local_edges, views[1].local_edges), (3, 1));
    }

    #[test]
    fn local_vertices_match_replica_sets() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let views = views_of(&p);
        // V(0) = {0, 1, 2}, V(1) = {0, 2, 3}.
        assert_eq!((views[0].local_vertices, views[1].local_vertices), (3, 3));
    }

    #[test]
    fn each_vertex_mastered_exactly_once() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 1, 0, 1]).unwrap();
        let views = views_of(&p);
        let mastered: u64 = views.iter().map(|v| v.master_vertices).sum();
        assert_eq!(mastered, 4);
    }

    #[test]
    fn master_is_a_replica() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        for (v, &m) in assign_masters(&p).iter().enumerate() {
            assert!(p.has_replica(v as u32, m), "master {m} of {v} not a replica");
        }
    }

    /// The list-building pass the counts replaced: every view's edge,
    /// covered-vertex and master id lists, walked from the graph.
    fn list_views(
        g: &Graph,
        p: &EdgePartition,
        masters: &[u32],
    ) -> Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> {
        let mut lists = vec![(Vec::new(), Vec::new(), Vec::new()); p.k() as usize];
        for e in 0..g.num_edges() {
            lists[p.edge_partition(e) as usize].0.push(e);
        }
        for v in g.vertices() {
            let mut m = p.replica_mask(v);
            if m == 0 {
                continue;
            }
            while m != 0 {
                lists[m.trailing_zeros() as usize].1.push(v);
                m &= m - 1;
            }
            lists[masters[v as usize] as usize].2.push(v);
        }
        lists
    }

    #[test]
    fn counts_equal_list_lengths_across_the_roster() {
        use gp_graph::generators::{rmat, RmatParams};
        use gp_partition::registry::edge_partitioner;

        let r = rmat(RmatParams { scale: 8, edge_factor: 4, ..RmatParams::default() }, 9).unwrap();
        let edges: Vec<(u32, u32)> = r.edges().collect();
        // Trailing isolated vertices on top of R-MAT's own.
        let g = Graph::from_edges(r.num_vertices() + 7, &edges, false).unwrap();
        for name in ["Random", "DBH", "HDRF", "2PS-L", "HEP-10", "HEP-100"] {
            for k in [1u32, 2, 8, 32, 64] {
                let p = edge_partitioner(name).unwrap().partition_edges(&g, k, 3).unwrap();
                assert!(g.vertices().any(|v| p.replica_mask(v) == 0), "isolated vertices");
                let all = machines(k as usize);
                for banned in [0u64, 1, 0x5555_5555_5555_5555 & all, all] {
                    let masters = assign_masters_avoiding(&p, banned);
                    assert_eq!(
                        masters,
                        oracle::assign_masters_avoiding(&p, banned),
                        "{name} k={k} banned={banned:#x}: masters"
                    );
                    let views = build_views(&p, &masters);
                    assert_eq!(
                        views,
                        oracle::build_views(&p, &masters),
                        "{name} k={k} banned={banned:#x}: views"
                    );
                    assert_eq!(
                        masters_and_views(&p, banned),
                        (masters.clone(), views.clone()),
                        "{name} k={k} banned={banned:#x}: one pass"
                    );
                    let lists = list_views(&g, &p, &masters);
                    for (view, (e, v, m)) in views.iter().zip(&lists) {
                        let lens = (e.len() as u64, v.len() as u64, m.len() as u64);
                        assert_eq!(
                            (view.local_edges, view.local_vertices, view.master_vertices),
                            lens,
                            "{name} k={k} banned={banned:#x} machine {}",
                            view.machine
                        );
                    }
                }
            }
        }
    }

    /// The lowest-load fast path carries most vertices of a
    /// well-spread partition, banned machine or not; without the `at_min`
    /// refresh nearly every vertex would walk its candidates.
    #[test]
    fn fast_path_spares_most_walks() {
        use gp_graph::generators::{rmat, RmatParams};
        use gp_partition::registry::edge_partitioner;

        let g =
            rmat(RmatParams { scale: 10, edge_factor: 16, ..RmatParams::default() }, 9).unwrap();
        for k in [8u32, 32, 64] {
            let p = edge_partitioner("Random").unwrap().partition_edges(&g, k, 3).unwrap();
            let covered = p.replica_masks().iter().filter(|&&m| m != 0).count();
            for banned in [0u64, 1] {
                let (masters, _, walked) = assign(&p, banned);
                assert_eq!(masters, oracle::assign_masters_avoiding(&p, banned));
                assert!(
                    2 * walked < covered,
                    "k={k} banned={banned}: {walked} of {covered} walked"
                );
            }
        }
    }

    #[test]
    fn masters_balanced() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let masters = assign_masters(&p);
        let c0 = masters.iter().filter(|&&m| m == 0).count();
        let c1 = masters.iter().filter(|&&m| m == 1).count();
        assert_eq!(c0 + c1, 4);
        assert!(c0.abs_diff(c1) <= 1, "masters {c0} vs {c1}");
    }

    #[test]
    fn avoiding_moves_masters_off_banned_machine() {
        let g = cycle();
        let p = EdgePartition::new(&g, 2, vec![0, 0, 1, 1]).unwrap();
        let base = assign_masters(&p);
        assert_eq!(assign_masters_avoiding(&p, 0), base, "banned = 0 is the identity");
        let avoided = assign_masters_avoiding(&p, 1 << 0);
        for v in 0..4u32 {
            if p.replica_mask(v) & !1 != 0 {
                assert_ne!(avoided[v as usize], 0, "vertex {v} mastered on banned machine");
            } else {
                assert_eq!(avoided[v as usize], 0, "only-banned vertex keeps its master");
            }
        }
    }

    /// Σ mirror replicas = Σ remote mirrors = Σ_v (r_v − 1) = Σ|V(pᵢ)| −
    /// covered |V| — the replication-factor identity behind Fig 3 — and
    /// sync peers are symmetric and never include the machine itself.
    #[test]
    fn sync_profile_matches_replication_and_peers_are_symmetric() {
        use gp_graph::generators::{rmat, RmatParams};
        use gp_partition::registry::edge_partitioner;

        let g = rmat(RmatParams { scale: 8, edge_factor: 4, ..RmatParams::default() }, 5).unwrap();
        for name in ["Random", "HDRF", "HEP-100"] {
            for k in [1u32, 2, 8, 32] {
                let p = edge_partitioner(name).unwrap().partition_edges(&g, k, 1).unwrap();
                for banned in [0u64, 1] {
                    let masters = assign_masters_avoiding(&p, banned);
                    let views = build_views(&p, &masters);
                    let covered = g.vertices().filter(|&v| p.replica_mask(v) != 0).count() as u64;
                    let replicas: u64 = views.iter().map(|v| v.local_vertices).sum();
                    let extra: u64 = g
                        .vertices()
                        .map(|v| u64::from(p.replica_mask(v).count_ones().saturating_sub(1)))
                        .sum();
                    let mirrors: u64 = views.iter().map(|v| v.mirror_replicas).sum();
                    let remote: u64 = views.iter().map(|v| v.remote_mirrors).sum();
                    assert_eq!(mirrors, extra, "{name} k={k}");
                    assert_eq!(remote, extra, "{name} k={k}");
                    assert_eq!(replicas - covered, extra, "{name} k={k}");
                    for a in &views {
                        assert_eq!(a.sync_peers & (1u64 << a.machine), 0, "{name} k={k}");
                        for b in &views {
                            assert_eq!(
                                a.sync_peers >> b.machine & 1,
                                b.sync_peers >> a.machine & 1,
                                "{name} k={k}: peers {} and {} disagree",
                                a.machine,
                                b.machine
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_vertex_has_no_master() {
        let g = Graph::from_edges(3, &[(0, 1)], false).unwrap();
        let p = EdgePartition::new(&g, 2, vec![0]).unwrap();
        let masters = assign_masters(&p);
        assert_eq!(masters[2], NO_MASTER);
    }
}
