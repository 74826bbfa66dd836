//! Greedy neighbourhood-expansion (NE) edge partitioning core.
//!
//! NE (Zhang et al., KDD 2017) grows one partition at a time: starting
//! from a low-degree seed vertex, it repeatedly *expands* the vertex with
//! the fewest still-unassigned incident edges, assigning those edges to
//! the current partition, until the partition reaches its edge budget.
//! Growing along the neighbourhood keeps almost every vertex internal to
//! one partition, which is why NE-family partitioners (including HEP)
//! achieve the lowest replication factors.
//!
//! This module provides the in-memory core reused by [`crate::vertex_cut::Hep`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gp_graph::Graph;

/// Per-vertex incidence lists of the edges NE may assign:
/// `(neighbor, edge_id)` pairs.
///
/// The CSR in [`Graph`] stores neighbours but not edge ids; partitioning
/// edges in memory requires mapping each incident arc back to its
/// canonical edge, so we materialise that mapping once.
///
/// Each list is a *live prefix*: every NE scan of a vertex compacts its
/// list in place, stably, dropping entries whose edge is already
/// assigned. The entries that stay keep their order, so a scan visits
/// the unassigned edges in the same order as a scan of the full list,
/// without re-reading the assignments of edges taken long ago.
pub struct Incidence {
    /// Start of each vertex's list (`n + 1` entries).
    offsets: Vec<u32>,
    /// End of each vertex's live prefix.
    ends: Vec<u32>,
    /// `(other endpoint, canonical edge id)`.
    entries: Vec<(u32, u32)>,
}

impl Incidence {
    /// Build incidence lists of the edges `(u, v)` for which
    /// `eligible(u, v)` holds, listing each edge at both endpoints
    /// regardless of direction.
    pub fn build(graph: &Graph, eligible: impl Fn(u32, u32) -> bool) -> Self {
        let n = graph.num_vertices() as usize;
        let eligible_edges = || {
            let edges = graph.edges().enumerate().map(|(e, uv)| (e as u32, uv));
            edges.filter(|&(_, (u, v))| eligible(u, v))
        };
        let mut offsets = vec![0u32; n + 1];
        for (_, (u, v)) in eligible_edges() {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut entries = vec![(0u32, 0u32); offsets[n] as usize];
        let mut ends = offsets[..n].to_vec();
        for (e, (u, v)) in eligible_edges() {
            entries[ends[u as usize] as usize] = (v, e);
            ends[u as usize] += 1;
            entries[ends[v as usize] as usize] = (u, e);
            ends[v as usize] += 1;
        }
        Incidence { offsets, ends, entries }
    }

    /// Live incident `(neighbor, edge_id)` pairs of `v`: every entry
    /// whose edge was unassigned when `v` was last scanned.
    #[inline]
    pub fn incident(&self, v: u32) -> &[(u32, u32)] {
        let (lo, hi) = self.live(v);
        &self.entries[lo..hi]
    }

    /// Number of live entries of `v` (its eligible incidence degree
    /// before any scan).
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.ends[v as usize] - self.offsets[v as usize]
    }

    #[inline]
    fn live(&self, v: u32) -> (usize, usize) {
        (self.offsets[v as usize] as usize, self.ends[v as usize] as usize)
    }

    /// Finish a compacting scan of `v` that wrote its kept entries up to
    /// `kept` and stopped before `stop`: the unvisited rest of the live
    /// prefix moves down behind the kept entries, in order.
    #[inline]
    fn close_scan(&mut self, v: u32, kept: usize, stop: usize) {
        let end = self.ends[v as usize] as usize;
        if kept < stop {
            self.entries.copy_within(stop..end, kept);
        }
        self.ends[v as usize] = (kept + end - stop) as u32;
    }
}

const UNASSIGNED: u32 = u32::MAX;

/// The state of NE while it grows partition `p`.
struct Expansion<'a> {
    incidence: Incidence,
    assignments: &'a mut [u32],
    /// Remaining unassigned eligible degree per vertex.
    remaining: Vec<u32>,
    /// Boundary membership: which partition's boundary set S the vertex
    /// currently belongs to (the stamp value doubles as the reset).
    boundary_stamp: Vec<u32>,
    /// Min-heap over boundary vertices, keyed by an upper bound of the
    /// number of *new* boundary vertices their expansion adds (lazily
    /// revalidated on pop).
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    p: u32,
    taken: u64,
    budget: u64,
}

impl Expansion<'_> {
    /// Move `y` into the boundary S: allocate every still-unassigned
    /// edge between `y` and S (the partition's edge set is the subgraph
    /// induced by S), then queue `y` for expansion.
    fn enter_boundary(&mut self, y: u32) {
        let p = self.p;
        self.boundary_stamp[y as usize] = p;
        let (lo, end) = self.incidence.live(y);
        let (mut kept, mut i) = (lo, lo);
        while i < end && self.taken < self.budget {
            let (z, e) = self.incidence.entries[i];
            i += 1;
            if self.assignments[e as usize] != UNASSIGNED {
                continue;
            }
            if self.boundary_stamp[z as usize] == p {
                self.assignments[e as usize] = p;
                self.taken += 1;
                self.remaining[y as usize] -= 1;
                self.remaining[z as usize] -= 1;
            } else {
                self.incidence.entries[kept] = (z, e);
                kept += 1;
            }
        }
        self.incidence.close_scan(y, kept, i);
        if self.remaining[y as usize] > 0 {
            self.heap.push(Reverse((self.remaining[y as usize], y)));
        }
    }

    /// Exact expansion cost of `v`: unassigned neighbours not yet in S.
    fn expansion_cost(&mut self, v: u32) -> u32 {
        let (lo, end) = self.incidence.live(v);
        let mut kept = lo;
        let mut cost = 0u32;
        for i in lo..end {
            let (w, e) = self.incidence.entries[i];
            if self.assignments[e as usize] == UNASSIGNED {
                self.incidence.entries[kept] = (w, e);
                kept += 1;
                cost += u32::from(self.boundary_stamp[w as usize] != self.p);
            }
        }
        self.incidence.close_scan(v, kept, end);
        cost
    }

    /// Expand `x`: every unassigned neighbour joins S, allocating the
    /// edges it closes with S (including the edge to `x`).
    fn expand(&mut self, x: u32) {
        let (lo, end) = self.incidence.live(x);
        let (mut kept, mut i) = (lo, lo);
        while i < end && self.taken < self.budget {
            let (w, e) = self.incidence.entries[i];
            i += 1;
            if self.assignments[e as usize] != UNASSIGNED {
                continue;
            }
            // `w != x`: x is in S, so this touches only w's list.
            if self.boundary_stamp[w as usize] != self.p {
                self.enter_boundary(w);
            }
            if self.assignments[e as usize] == UNASSIGNED {
                self.incidence.entries[kept] = (w, e);
                kept += 1;
            }
        }
        self.incidence.close_scan(x, kept, i);
    }
}

/// Greedily partition the edges listed in `incidence` (the *eligible*
/// edges) into `k` parts by neighbourhood expansion, writing results
/// into `assignments` (one entry per canonical edge): every eligible
/// edge is assigned and ineligible edges are left untouched. NE
/// consumes the incidence lists.
///
/// `assignments` entries for eligible edges must start as `u32::MAX`.
pub fn ne_partition(incidence: Incidence, assignments: &mut [u32], k: u32) {
    let total_eligible = incidence.entries.len() as u64 / 2;
    if total_eligible == 0 {
        return;
    }
    let _prof = gp_prof::scope("partition.ne.expand");
    let n = incidence.ends.len();
    let remaining: Vec<u32> = (0..n as u32).map(|v| incidence.degree(v)).collect();

    // Global seed order: vertices by ascending eligible degree. Growing
    // from the fringe inward keeps expansions local.
    let mut seed_order: Vec<u32> = (0..n as u32).filter(|&v| remaining[v as usize] > 0).collect();
    seed_order.sort_unstable_by_key(|&v| remaining[v as usize]);
    let mut seed_cursor = 0usize;

    let mut ne = Expansion {
        incidence,
        assignments,
        remaining,
        boundary_stamp: vec![u32::MAX; n],
        heap: BinaryHeap::new(),
        p: 0,
        taken: 0,
        budget: 0,
    };
    let mut assigned = 0u64;
    for p in 0..k {
        let parts_left = u64::from(k - p);
        let budget = (total_eligible - assigned).div_ceil(parts_left);
        if budget == 0 {
            continue;
        }
        ne.p = p;
        ne.taken = 0;
        ne.budget = budget;
        ne.heap.clear();

        while ne.taken < budget {
            // Pick the boundary vertex whose expansion adds the fewest
            // new boundary vertices.
            let next = loop {
                match ne.heap.pop() {
                    Some(Reverse((est, v))) => {
                        if ne.remaining[v as usize] == 0 {
                            continue; // fully consumed
                        }
                        // Counts only shrink, so `est` is an upper bound.
                        let exact = ne.expansion_cost(v);
                        if exact < est {
                            if let Some(Reverse((next_est, _))) = ne.heap.peek() {
                                if exact > *next_est {
                                    ne.heap.push(Reverse((exact, v)));
                                    continue;
                                }
                            }
                        }
                        break Some(v);
                    }
                    None => {
                        // Frontier exhausted: pull a fresh low-degree
                        // seed into the boundary.
                        let mut found = None;
                        while seed_cursor < seed_order.len() {
                            let v = seed_order[seed_cursor];
                            if ne.remaining[v as usize] > 0 {
                                found = Some(v);
                                break;
                            }
                            seed_cursor += 1;
                        }
                        break found;
                    }
                }
            };
            let Some(x) = next else { break };
            if ne.boundary_stamp[x as usize] != p {
                // Fresh seed: joins S first (allocates nothing yet).
                ne.enter_boundary(x);
            }
            ne.expand(x);
        }
        assigned += ne.taken;
    }

    // Every eligible edge is assigned: a partition stops short of its
    // budget only when no vertex has an unassigned edge left, and the
    // last budget is everything still unassigned.
    debug_assert_eq!(assigned, total_eligible);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::assignment::EdgePartition;
    use crate::vertex_cut::testutil::{oracle_graphs, skewed_graph, ORACLE_KS as KS};
    use gp_graph::rng::mix64;

    /// NE before live lists: every scan reads a vertex's full incidence
    /// list of all edges and re-checks each entry's eligibility and
    /// assignment.
    pub(crate) fn reference_ne_partition(
        graph: &Graph,
        eligible: &[bool],
        assignments: &mut [u32],
        k: u32,
    ) {
        let n = graph.num_vertices() as usize;
        let total_eligible = eligible.iter().filter(|&&e| e).count() as u64;
        if total_eligible == 0 {
            return;
        }
        let mut incident = vec![Vec::new(); n];
        for (e, (u, v)) in graph.edges().enumerate() {
            incident[u as usize].push((v, e as u32));
            incident[v as usize].push((u, e as u32));
        }
        let mut remaining = vec![0u32; n];
        for (e, (u, v)) in graph.edges().enumerate() {
            if eligible[e] {
                remaining[u as usize] += 1;
                remaining[v as usize] += 1;
            }
        }
        let mut seed_order: Vec<u32> =
            (0..n as u32).filter(|&v| remaining[v as usize] > 0).collect();
        seed_order.sort_unstable_by_key(|&v| remaining[v as usize]);
        let mut seed_cursor = 0usize;
        let mut stamp = vec![u32::MAX; n];
        let mut assigned = 0u64;
        for p in 0..k {
            let budget = (total_eligible - assigned).div_ceil(u64::from(k - p));
            if budget == 0 {
                continue;
            }
            let mut taken = 0u64;
            let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
            let enter = |y: u32,
                         heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
                         stamp: &mut [u32],
                         remaining: &mut [u32],
                         assignments: &mut [u32],
                         taken: &mut u64| {
                stamp[y as usize] = p;
                for &(z, e) in &incident[y as usize] {
                    if *taken >= budget {
                        break;
                    }
                    if eligible[e as usize]
                        && assignments[e as usize] == UNASSIGNED
                        && stamp[z as usize] == p
                    {
                        assignments[e as usize] = p;
                        *taken += 1;
                        remaining[y as usize] -= 1;
                        remaining[z as usize] -= 1;
                    }
                }
                if remaining[y as usize] > 0 {
                    heap.push(Reverse((remaining[y as usize], y)));
                }
            };
            while taken < budget {
                let next = loop {
                    match heap.pop() {
                        Some(Reverse((est, v))) => {
                            if remaining[v as usize] == 0 {
                                continue;
                            }
                            let exact = incident[v as usize]
                                .iter()
                                .filter(|&&(w, e)| {
                                    eligible[e as usize]
                                        && assignments[e as usize] == UNASSIGNED
                                        && stamp[w as usize] != p
                                })
                                .count() as u32;
                            if exact < est {
                                if let Some(Reverse((next_est, _))) = heap.peek() {
                                    if exact > *next_est {
                                        heap.push(Reverse((exact, v)));
                                        continue;
                                    }
                                }
                            }
                            break Some(v);
                        }
                        None => {
                            let mut found = None;
                            while seed_cursor < seed_order.len() {
                                let v = seed_order[seed_cursor];
                                if remaining[v as usize] > 0 {
                                    found = Some(v);
                                    break;
                                }
                                seed_cursor += 1;
                            }
                            break found;
                        }
                    }
                };
                let Some(x) = next else { break };
                if stamp[x as usize] != p {
                    enter(x, &mut heap, &mut stamp, &mut remaining, assignments, &mut taken);
                }
                for &(w, e) in &incident[x as usize] {
                    if taken >= budget {
                        break;
                    }
                    if eligible[e as usize]
                        && assignments[e as usize] == UNASSIGNED
                        && stamp[w as usize] != p
                    {
                        enter(w, &mut heap, &mut stamp, &mut remaining, assignments, &mut taken);
                    }
                }
            }
            assigned += taken;
        }
        let mut loads = vec![0u64; k as usize];
        for (e, &a) in assignments.iter().enumerate() {
            if eligible[e] && a != UNASSIGNED {
                loads[a as usize] += 1;
            }
        }
        for (e, a) in assignments.iter_mut().enumerate() {
            if eligible[e] && *a == UNASSIGNED {
                let p = (0..k).min_by_key(|&p| loads[p as usize]).unwrap();
                *a = p;
                loads[p as usize] += 1;
            }
        }
    }

    /// NE over the edges `eligible` accepts, and that eligibility as a
    /// mask over edge ids.
    fn run_ne(g: &Graph, eligible: impl Fn(u32, u32) -> bool, k: u32) -> (Vec<u32>, Vec<bool>) {
        let mask = g.edges().map(|(u, v)| eligible(u, v)).collect();
        let mut assignments = vec![u32::MAX; g.num_edges() as usize];
        ne_partition(Incidence::build(g, eligible), &mut assignments, k);
        (assignments, mask)
    }

    #[test]
    fn live_lists_match_the_full_list_scans() {
        for g in oracle_graphs() {
            let m = g.num_edges() as usize;
            for every_fourth_out in [false, true] {
                let eligible = |u: u32, v: u32| {
                    !every_fourth_out || !mix64(u64::from(u) << 32 | u64::from(v)).is_multiple_of(4)
                };
                for k in KS {
                    let (got, mask) = run_ne(&g, eligible, k);
                    let mut want = vec![u32::MAX; m];
                    reference_ne_partition(&g, &mask, &mut want, k);
                    assert_eq!(got, want, "k {k}");
                }
            }
        }
    }

    #[test]
    fn scans_compact_each_list_stably() {
        let g = skewed_graph();
        let n = g.num_vertices() as usize;
        let incidence = Incidence::build(&g, |_, _| true);
        let hub = (0..n as u32).max_by_key(|&v| incidence.degree(v)).unwrap();
        let full = incidence.incident(hub).to_vec();
        let mut assignments = vec![UNASSIGNED; g.num_edges() as usize];
        for &(_, e) in full.iter().step_by(3) {
            assignments[e as usize] = 1;
        }
        let live: Vec<(u32, u32)> =
            full.iter().copied().filter(|&(_, e)| assignments[e as usize] == UNASSIGNED).collect();
        let mut ne = Expansion {
            incidence,
            assignments: &mut assignments,
            remaining: vec![u32::MAX / 2; n],
            boundary_stamp: vec![u32::MAX; n],
            heap: BinaryHeap::new(),
            p: 0,
            taken: 0,
            budget: 2,
        };
        assert_eq!(ne.expansion_cost(hub) as usize, live.len());
        assert_eq!(ne.incidence.incident(hub), &live[..]);
        // With every neighbour in S, entering takes edges until the
        // budget stops the scan; the unvisited rest stays in order.
        for &(w, _) in &live {
            ne.boundary_stamp[w as usize] = 0;
        }
        ne.enter_boundary(hub);
        assert_eq!(ne.incidence.incident(hub), &live[2..]);
        assert!(live[..2].iter().all(|&(_, e)| ne.assignments[e as usize] == 0));
    }

    #[test]
    fn incidence_roundtrip() {
        let g = gp_graph::Graph::from_edges(3, &[(0, 1), (1, 2)], false).unwrap();
        let inc = Incidence::build(&g, |_, _| true);
        assert_eq!(inc.degree(1), 2);
        assert_eq!(inc.degree(0), 1);
        let pairs = inc.incident(1);
        let mut nbrs: Vec<u32> = pairs.iter().map(|&(w, _)| w).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![0, 2]);
    }

    #[test]
    fn assigns_every_eligible_edge() {
        let g = skewed_graph();
        let (assignments, _) = run_ne(&g, |_, _| true, 4);
        assert!(assignments.iter().all(|&a| a < 4));
        let part = EdgePartition::new(&g, 4, assignments).unwrap();
        assert!(part.edge_balance() < 1.3, "edge balance {}", part.edge_balance());
    }

    #[test]
    fn low_replication_factor() {
        let g = skewed_graph();
        let (assignments, _) = run_ne(&g, |_, _| true, 8);
        let part = EdgePartition::new(&g, 8, assignments).unwrap();
        // NE should be dramatically better than random (~5+ on this graph).
        assert!(part.replication_factor() < 2.5, "rf {}", part.replication_factor());
    }

    #[test]
    fn respects_eligibility_mask() {
        let g = skewed_graph();
        let (assignments, eligible) = run_ne(&g, |u, _| u % 2 == 0, 4);
        assert!(eligible.iter().any(|&e| e) && eligible.iter().any(|&e| !e));
        for e in 0..g.num_edges() as usize {
            if eligible[e] {
                assert!(assignments[e] < 4);
            } else {
                assert_eq!(assignments[e], u32::MAX);
            }
        }
    }

    #[test]
    fn no_eligible_edges_is_noop() {
        let g = skewed_graph();
        let (assignments, _) = run_ne(&g, |_, _| false, 4);
        assert!(assignments.iter().all(|&a| a == u32::MAX));
    }
}
