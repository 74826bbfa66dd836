//! Shared multilevel partitioning machinery (coarsen → initial partition
//! → uncoarsen + refine), used by [`crate::edge_cut::Metis`] and
//! [`crate::edge_cut::Kahip`].
//!
//! The scheme follows the classic multilevel k-way recipe (Karypis &
//! Kumar): heavy-edge matching collapses matched vertex pairs level by
//! level until the graph is small, a greedy region-growing produces the
//! initial k-way labelling on the coarsest graph, and the labelling is
//! projected back level by level with boundary refinement at each step.

use gp_graph::rng::Rng;
use gp_graph::Graph;

/// Weighted undirected graph used internally by the multilevel scheme.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// Weight of each (coarse) vertex = number of original vertices.
    pub vertex_weights: Vec<u64>,
    /// CSR offsets.
    pub offsets: Vec<u32>,
    /// CSR neighbour ids.
    pub targets: Vec<u32>,
    /// CSR edge weights (parallel to `targets`).
    pub weights: Vec<u64>,
}

impl WeightedGraph {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_weights.is_empty()
    }

    /// Neighbours of `v` with weights.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.vertex_weights.iter().sum()
    }

    /// Build the level-0 weighted graph from a [`Graph`]: direction is
    /// ignored (the cut metric is symmetric) and parallel arcs collapse
    /// into one weighted edge. Every neighbour list is ascending, the
    /// order the coarsening tie-breaks depend on.
    ///
    /// O(n + m), by a counting-sort transpose: the sources are walked in
    /// increasing order and each is appended to the lists of its out-
    /// (and, for directed graphs, in-) neighbours. Every list then comes
    /// out ascending, with the arcs between one pair of vertices next to
    /// each other, and each such run collapses into one edge weighted by
    /// its length (2 for a reciprocated pair of arcs). A self-loop's run
    /// holds both ends of each loop; it stays two entries, each weighted
    /// by the number of loops.
    pub fn from_graph(graph: &Graph) -> Self {
        let _prof = gp_prof::scope("partition.multilevel.level0");
        let n = graph.num_vertices() as usize;
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + graph.degree(v as u32);
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets[..n].to_vec();
        // Entries of the collapsed lists, counted as the runs start.
        let mut entries = 0usize;
        for u in 0..n as u32 {
            let ins: &[u32] = if graph.is_directed() { graph.in_neighbors(u) } else { &[] };
            for &w in graph.out_neighbors(u).iter().chain(ins) {
                let (lo, at) = (offsets[w as usize], cursor[w as usize]);
                if at == lo || targets[at as usize - 1] != u {
                    entries += if u == w { 2 } else { 1 };
                }
                targets[at as usize] = u;
                cursor[w as usize] += 1;
            }
        }
        drop(cursor);
        // Collapse the runs in place; `offsets[v]` already holds v's new start.
        let mut weights = Vec::with_capacity(entries);
        let mut read = 0usize;
        for v in 0..n {
            let hi = offsets[v + 1] as usize;
            while read < hi {
                let t = targets[read];
                let run = targets[read..hi].iter().take_while(|&&x| x == t).count();
                read += run;
                let (weight, copies) =
                    if t as usize == v { (run as u64 / 2, 2) } else { (run as u64, 1) };
                for _ in 0..copies {
                    targets[weights.len()] = t;
                    weights.push(weight);
                }
            }
            offsets[v + 1] = weights.len() as u32;
        }
        targets.truncate(weights.len());
        targets.shrink_to_fit();
        WeightedGraph { vertex_weights: vec![1; n], offsets, targets, weights }
    }
}

/// One coarsening step: size-constrained label-propagation clustering +
/// contraction (the "cluster coarsening" used by KaHIP's social-network
/// configurations, which handles power-law graphs far better than
/// heavy-edge matching — hubs cannot be matched pairwise, but they *can*
/// absorb their low-degree fringe into one cluster).
///
/// Returns the coarse graph and the fine→coarse vertex map.
pub fn coarsen(g: &WeightedGraph, seed: u64, max_cluster_weight: u64) -> (WeightedGraph, Vec<u32>) {
    let n = g.len();
    let cap = max_cluster_weight.max(2);
    // Every vertex starts as its own cluster.
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut cluster_weight: Vec<u64> = g.vertex_weights.clone();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut order);
    // Scratch: connection weight to each touched cluster.
    let mut conn: Vec<u64> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();
    for _iter in 0..2 {
        let mut moves = 0usize;
        for &v in &order {
            let vw = g.vertex_weights[v as usize];
            let current = label[v as usize];
            touched.clear();
            for (w, ew) in g.neighbors(v) {
                let c = label[w as usize];
                if conn[c as usize] == 0 {
                    touched.push(c);
                }
                conn[c as usize] += ew;
            }
            let mut best = current;
            let mut best_w = 0u64;
            for &c in &touched {
                let fits = c == current || cluster_weight[c as usize] + vw <= cap;
                if fits && conn[c as usize] > best_w {
                    best_w = conn[c as usize];
                    best = c;
                }
                conn[c as usize] = 0;
            }
            if best != current {
                cluster_weight[current as usize] -= vw;
                cluster_weight[best as usize] += vw;
                label[v as usize] = best;
                moves += 1;
            }
        }
        if moves == 0 {
            break;
        }
    }
    // Compact cluster ids.
    const UNSET: u32 = u32::MAX;
    let mut remap = vec![UNSET; n];
    let mut next = 0u32;
    let mut map = vec![0u32; n];
    for v in 0..n {
        let c = label[v] as usize;
        if remap[c] == UNSET {
            remap[c] = next;
            next += 1;
        }
        map[v] = remap[c];
    }
    let cn = next as usize;
    // Aggregate vertex weights.
    let mut vertex_weights = vec![0u64; cn];
    for v in 0..n {
        vertex_weights[map[v] as usize] += g.vertex_weights[v];
    }
    // Aggregate edges with a scratch accumulator per coarse vertex.
    let mut acc: Vec<u64> = vec![0; cn];
    let mut touched: Vec<u32> = Vec::new();
    let mut deg = vec![0u32; cn];
    let mut coarse_edges: Vec<(u32, u32, u64)> = Vec::new();
    // Group fine vertices by coarse id (ascending within each group) with
    // a counting sort, for a cache-friendly sweep.
    let mut group_start = vec![0u32; cn + 1];
    for &c in &map {
        group_start[c as usize + 1] += 1;
    }
    for c in 0..cn {
        group_start[c + 1] += group_start[c];
    }
    let mut members = vec![0u32; n];
    let mut cursor = group_start[..cn].to_vec();
    for (v, &c) in map.iter().enumerate() {
        members[cursor[c as usize] as usize] = v as u32;
        cursor[c as usize] += 1;
    }
    for cv in 0..cn {
        touched.clear();
        for &v in &members[group_start[cv] as usize..group_start[cv + 1] as usize] {
            for (w, ew) in g.neighbors(v) {
                let cw = map[w as usize];
                if cw as usize == cv {
                    continue; // internal edge disappears
                }
                if acc[cw as usize] == 0 {
                    touched.push(cw);
                }
                acc[cw as usize] += ew;
            }
        }
        for &cw in &touched {
            // Emit each coarse edge once (from the smaller endpoint).
            if (cv as u32) < cw {
                coarse_edges.push((cv as u32, cw, acc[cw as usize]));
                deg[cv] += 1;
                deg[cw as usize] += 1;
            }
            acc[cw as usize] = 0;
        }
    }
    let mut offsets = vec![0u32; cn + 1];
    for v in 0..cn {
        offsets[v + 1] = offsets[v] + deg[v];
    }
    let mut targets = vec![0u32; offsets[cn] as usize];
    let mut weights = vec![0u64; offsets[cn] as usize];
    let mut cursor = offsets[..cn].to_vec();
    for &(u, v, w) in &coarse_edges {
        targets[cursor[u as usize] as usize] = v;
        weights[cursor[u as usize] as usize] = w;
        cursor[u as usize] += 1;
        targets[cursor[v as usize] as usize] = u;
        weights[cursor[v as usize] as usize] = w;
        cursor[v as usize] += 1;
    }
    (WeightedGraph { vertex_weights, offsets, targets, weights }, map)
}

/// Greedy region-growing initial partition of a (coarse) graph.
pub fn initial_partition(g: &WeightedGraph, k: u32, seed: u64) -> Vec<u32> {
    let n = g.len();
    let total = g.total_vertex_weight();
    let target = total.div_ceil(u64::from(k));
    const NONE: u32 = u32::MAX;
    let mut labels = vec![NONE; n];
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut cursor = 0usize;
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    for p in 0..k {
        let mut weight = 0u64;
        queue.clear();
        // Find a fresh seed.
        while cursor < order.len() && labels[order[cursor] as usize] != NONE {
            cursor += 1;
        }
        if cursor >= order.len() {
            break;
        }
        queue.push_back(order[cursor]);
        while let Some(v) = queue.pop_front() {
            if labels[v as usize] != NONE {
                continue;
            }
            labels[v as usize] = p;
            weight += g.vertex_weights[v as usize];
            if weight >= target && p + 1 < k {
                break;
            }
            for (w, _) in g.neighbors(v) {
                if labels[w as usize] == NONE {
                    queue.push_back(w);
                }
            }
            // BFS starve: pull another unassigned seed when the frontier
            // dries up but the budget is not met.
            if queue.is_empty() && weight < target {
                while cursor < order.len() && labels[order[cursor] as usize] != NONE {
                    cursor += 1;
                }
                if cursor < order.len() {
                    queue.push_back(order[cursor]);
                }
            }
        }
    }
    // Leftovers (possible when early partitions swallowed everything):
    // assign to the lightest partition.
    let mut loads = vec![0u64; k as usize];
    for v in 0..n {
        if labels[v] != NONE {
            loads[labels[v] as usize] += g.vertex_weights[v];
        }
    }
    for (v, label) in labels.iter_mut().enumerate() {
        if *label == NONE {
            let p = (0..k).min_by_key(|&p| loads[p as usize]).expect("k >= 1");
            *label = p;
            loads[p as usize] += g.vertex_weights[v];
        }
    }
    labels
}

/// Boundary refinement: greedily move boundary vertices to the partition
/// with maximal cut-weight gain subject to the balance constraint.
///
/// `allow_balance_moves` additionally permits zero-gain moves that
/// improve the load balance (KaHIP-style), which escapes local optima at
/// the cost of more passes.
pub fn refine(
    g: &WeightedGraph,
    labels: &mut [u32],
    k: u32,
    epsilon: f64,
    passes: u32,
    allow_balance_moves: bool,
) {
    let n = g.len();
    let kk = k as usize;
    let total = g.total_vertex_weight();
    let max_load = ((1.0 + epsilon) * total as f64 / f64::from(k)).ceil() as u64;
    let mut loads = vec![0u64; kk];
    for v in 0..n {
        loads[labels[v] as usize] += g.vertex_weights[v];
    }
    let (mut conn, wdeg) = connectivity(g, labels, k);
    for _ in 0..passes {
        let mut moves = 0usize;
        for v in 0..n {
            let current = labels[v];
            let row = &conn[v * kk..(v + 1) * kk];
            // Every edge weight is >= 1, so v is interior (every neighbour
            // shares its label) iff all of its weight stays at home.
            if row[current as usize] == wdeg[v] {
                continue;
            }
            let vw = g.vertex_weights[v];
            let here = row[current as usize];
            let mut best = current;
            let mut best_gain = 0i64;
            for p in 0..k {
                if p == current || loads[p as usize] + vw > max_load {
                    continue;
                }
                let gain = row[p as usize] as i64 - here as i64;
                let better = gain > best_gain
                    || (allow_balance_moves
                        && gain == best_gain
                        && loads[p as usize] + vw < loads[best as usize]);
                if better {
                    best_gain = gain;
                    best = p;
                }
            }
            if best != current {
                loads[current as usize] -= vw;
                loads[best as usize] += vw;
                labels[v] = best;
                moves += 1;
                for (w, ew) in g.neighbors(v as u32) {
                    let at = w as usize * kk;
                    conn[at + current as usize] -= ew;
                    conn[at + best as usize] += ew;
                }
            }
        }
        debug_assert!(conn == connectivity(g, labels, k).0, "refine: stale connectivity table");
        if moves == 0 {
            break;
        }
    }
}

/// The n×k connectivity table of a labelling (`conn[v * k + p]` is the
/// weight of v's edges into partition p) and each vertex's weighted
/// degree.
fn connectivity(g: &WeightedGraph, labels: &[u32], k: u32) -> (Vec<u64>, Vec<u64>) {
    let kk = k as usize;
    let mut conn = vec![0u64; g.len() * kk];
    let mut wdeg = vec![0u64; g.len()];
    for v in 0..g.len() {
        for (w, ew) in g.neighbors(v as u32) {
            conn[v * kk + labels[w as usize] as usize] += ew;
            wdeg[v] += ew;
        }
    }
    (conn, wdeg)
}

/// Cut weight of a labelling (each undirected weighted edge counted once).
pub fn cut_weight(g: &WeightedGraph, labels: &[u32]) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.len() as u32 {
        for (w, ew) in g.neighbors(v) {
            if v < w && labels[v as usize] != labels[w as usize] {
                cut += ew;
            }
        }
    }
    cut
}

/// Full multilevel k-way run over a level-0 graph built once by the
/// caller. Returns per-vertex labels for it.
pub fn multilevel_kway(
    base: &WeightedGraph,
    k: u32,
    seed: u64,
    epsilon: f64,
    refine_passes: u32,
    allow_balance_moves: bool,
) -> Vec<u32> {
    if k == 1 {
        return vec![0; base.len()];
    }
    // Coarsening phase. The cluster-weight cap keeps coarse vertices
    // small enough that the balance constraint stays satisfiable.
    let total_weight = base.total_vertex_weight();
    let coarsen_limit = (30 * k as usize).max(128);
    let max_cluster_weight = (total_weight / (10 * u64::from(k)).max(1)).max(2);
    // `levels[i]` holds the graph of level i + 1 and the map from level i
    // onto it; level 0 is `base`, borrowed.
    let mut levels: Vec<(WeightedGraph, Vec<u32>)> = Vec::new();
    let mut level_seed = seed;
    let coarsening = gp_prof::scope("partition.multilevel.coarsen");
    loop {
        let current = levels.last().map_or(base, |(g, _)| g);
        let before = current.len();
        if before <= coarsen_limit {
            break;
        }
        let (coarse, map) = coarsen(current, level_seed, max_cluster_weight);
        level_seed = level_seed.wrapping_add(0x9e37_79b9);
        let after = coarse.len();
        levels.push((coarse, map));
        // Stop if clustering stalls.
        if (after as f64) > 0.95 * before as f64 {
            break;
        }
    }
    drop(coarsening);
    let coarsest = levels.last().map_or(base, |(g, _)| g);
    // Initial partition on the coarsest level.
    let mut labels = {
        let _prof = gp_prof::scope("partition.multilevel.initial");
        initial_partition(coarsest, k, seed ^ 0xabcd)
    };
    // Uncoarsening with refinement at every level.
    let _prof = gp_prof::scope("partition.multilevel.refine");
    refine(coarsest, &mut labels, k, epsilon, refine_passes, allow_balance_moves);
    while let Some((_, map)) = levels.pop() {
        let fine = levels.last().map_or(base, |(g, _)| g);
        labels = map.iter().map(|&c| labels[c as usize]).collect();
        refine(fine, &mut labels, k, epsilon, refine_passes, allow_balance_moves);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::testutil::{grid_graph, skewed_graph};

    #[test]
    fn weighted_graph_from_graph_symmetric() {
        let g = gp_graph::Graph::from_edges(3, &[(0, 1), (1, 2)], true).unwrap();
        let wg = WeightedGraph::from_graph(&g);
        assert_eq!(wg.len(), 3);
        let n1: Vec<_> = wg.neighbors(1).collect();
        assert_eq!(n1.len(), 2);
        assert_eq!(wg.total_vertex_weight(), 3);
    }

    #[test]
    fn bidirectional_arcs_merge_with_weight_two() {
        let g = gp_graph::Graph::from_edges(2, &[(0, 1), (1, 0)], true).unwrap();
        let wg = WeightedGraph::from_graph(&g);
        let n0: Vec<_> = wg.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 2)]);
    }

    #[test]
    fn from_graph_collapses_arcs_into_ascending_weighted_lists() {
        // 0 <-> 1 and 2 <-> 3 reciprocated, 0 -> 3 and 3 -> 1 one-way, a
        // self-loop on 2, and 4 isolated; arcs listed out of order.
        let arcs = [(3, 2), (0, 3), (2, 2), (1, 0), (3, 1), (2, 3), (0, 1)];
        let g = gp_graph::Graph::from_edges(5, &arcs, true).unwrap();
        let wg = WeightedGraph::from_graph(&g);
        assert_eq!(wg.vertex_weights, vec![1; 5]);
        assert_eq!(wg.offsets, vec![0, 2, 4, 7, 10, 10]);
        assert_eq!(wg.targets, vec![1, 3, 0, 3, 2, 2, 3, 0, 1, 2]);
        assert_eq!(wg.weights, vec![2, 1, 2, 1, 1, 1, 2, 1, 1, 2]);
    }

    #[test]
    fn coarsen_preserves_vertex_weight() {
        let g = skewed_graph();
        let wg = WeightedGraph::from_graph(&g);
        let (coarse, map) = coarsen(&wg, 0, 64);
        assert_eq!(coarse.total_vertex_weight(), wg.total_vertex_weight());
        assert!(coarse.len() < wg.len());
        assert!(map.iter().all(|&c| (c as usize) < coarse.len()));
    }

    #[test]
    fn coarsen_preserves_cut_structure() {
        // A cut on the coarse graph must equal the corresponding fine cut.
        let g = grid_graph();
        let wg = WeightedGraph::from_graph(&g);
        let (coarse, map) = coarsen(&wg, 1, 64);
        let coarse_labels: Vec<u32> = (0..coarse.len() as u32).map(|v| v % 2).collect();
        let fine_labels: Vec<u32> = (0..wg.len()).map(|v| coarse_labels[map[v] as usize]).collect();
        assert_eq!(cut_weight(&coarse, &coarse_labels), cut_weight(&wg, &fine_labels));
    }

    #[test]
    fn initial_partition_covers_everything() {
        let g = grid_graph();
        let wg = WeightedGraph::from_graph(&g);
        let labels = initial_partition(&wg, 4, 0);
        assert_eq!(labels.len(), wg.len());
        assert!(labels.iter().all(|&l| l < 4));
        // Every partition gets something.
        for p in 0..4 {
            assert!(labels.contains(&p), "partition {p} empty");
        }
    }

    #[test]
    fn refine_never_worsens_cut() {
        let g = grid_graph();
        let wg = WeightedGraph::from_graph(&g);
        let mut labels = initial_partition(&wg, 4, 0);
        let before = cut_weight(&wg, &labels);
        refine(&wg, &mut labels, 4, 0.05, 4, false);
        let after = cut_weight(&wg, &labels);
        assert!(after <= before, "cut got worse: {before} -> {after}");
    }

    #[test]
    fn multilevel_beats_naive_split_on_grid() {
        let g = grid_graph();
        let wg = WeightedGraph::from_graph(&g);
        let labels = multilevel_kway(&wg, 4, 0, 0.05, 4, false);
        let naive: Vec<u32> = (0..wg.len() as u32).map(|v| v % 4).collect();
        assert!(cut_weight(&wg, &labels) < cut_weight(&wg, &naive) / 2);
    }

    #[test]
    fn multilevel_k1_trivial() {
        let wg = WeightedGraph::from_graph(&grid_graph());
        let labels = multilevel_kway(&wg, 1, 0, 0.05, 2, false);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn multilevel_respects_balance() {
        let wg = WeightedGraph::from_graph(&skewed_graph());
        let labels = multilevel_kway(&wg, 8, 0, 0.05, 4, false);
        let mut loads = [0u64; 8];
        for &l in &labels {
            loads[l as usize] += 1;
        }
        let max = *loads.iter().max().unwrap() as f64;
        let mean = labels.len() as f64 / 8.0;
        assert!(max / mean < 1.35, "balance {}", max / mean);
    }
}
