//! Incremental (online) partitioning over dynamic-graph streams.
//!
//! The one-pass streaming partitioners of the roster — LDG, HDRF and
//! 2PS-L — are exactly the algorithms that can absorb churn without a
//! full re-run: their per-element decision rule only consults running
//! state. This module packages those rules as *incremental*
//! partitioners driven by a `gp_graph::stream` mutation stream:
//!
//! * **Insertions** are assigned online with the same decision rule as
//!   the one-shot partitioner, and the rule is literally shared code:
//!   [`hdrf_choose`](crate::vertex_cut::hdrf) for HDRF,
//!   [`ldg_choose`](crate::edge_cut::ldg) for LDG, 2PS-L's phase-1
//!   clustering update and phase-2 placement
//!   ([`twops`](crate::vertex_cut::twops)), DBH's degree hash
//!   ([`dbh`](crate::vertex_cut::dbh), over live degrees) and Random's
//!   vertex hash ([`random_vp`](crate::edge_cut::random_vp)). For HDRF
//!   and LDG an insert-only stream fed in arrival order produces
//!   *bit-identical* assignments to the one-shot partitioner fed the
//!   same order (the incremental-vs-batch oracle). 2PS-L's cluster →
//!   partition map needs a global cluster ordering that an online
//!   algorithm cannot know, so its incremental variant freezes each
//!   cluster's partition at cluster birth; its oracle is batch-boundary
//!   independence — streaming the same edges in B batches or one batch
//!   yields identical assignments.
//! * **Deletions** never reassign surviving edges; they only update
//!   the replication/balance bookkeeping. The replica ledger counts
//!   live incident edges per `(vertex, partition)` and *drops* an
//!   entry when its count reaches zero — leaving a zero-count entry
//!   behind would keep phantom replicas in the ledger and skew the
//!   replication factor ever lower as the stream ages.
//! * Partitioners without an online rule fall back to a generic one
//!   (an edge hash for Random, replica-greedy least-loaded for the
//!   in-memory algorithms), so the full roster can ride the stream.
//!
//! [`RepartitionPolicy`] decides when drift has accumulated enough to
//! pay for a full re-partition (never / threshold-on-imbalance /
//! periodic); [`modeled_partition_seconds`] prices that re-run with a
//! deterministic cost model (simulated seconds — never wall clock, so
//! stream artifacts stay bit-identical across thread counts) that the
//! existing amortization machinery (`gp_core::amortize`) can consume.

use gp_graph::edgemap::{edge_map_with_capacity, EdgeMap};
use gp_graph::rng::{mix64, Rng};
use gp_graph::{Graph, MutationBatch};

use crate::assignment::{EdgePartition, VertexPartition};
use crate::edge_cut::ldg::{ldg_capacity, ldg_choose};
use crate::edge_cut::random_vp::random_vertex_choose;
use crate::edge_cut::Ldg;
use crate::error::PartitionError;
use crate::vertex_cut::dbh::dbh_choose;
use crate::vertex_cut::hdrf::{hdrf_choose, hdrf_scores, LoadExtrema};
use crate::vertex_cut::twops::{cluster_phase1, twops_place, UNCLUSTERED};
use crate::vertex_cut::{Hdrf, TwoPsL};

const NONE: u32 = u32::MAX;

/// When to pay for a full re-partition of the current snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepartitionPolicy {
    /// Never re-partition; quality decays for the whole stream.
    Never,
    /// Re-partition when the balance metric (edge balance for
    /// vertex-cut, vertex balance for edge-cut) exceeds `imbalance`.
    Threshold {
        /// Max-over-mean balance trigger (must be `>= 1`).
        imbalance: f64,
    },
    /// Re-partition every `every` batches.
    Periodic {
        /// Batch period (must be `>= 1`).
        every: u32,
    },
}

impl RepartitionPolicy {
    /// Validate the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] for a threshold
    /// below 1 (the balance metric is `max / mean >= 1`, so it would
    /// fire on every batch) or a zero period.
    pub fn validate(&self) -> Result<(), PartitionError> {
        match *self {
            RepartitionPolicy::Never => Ok(()),
            RepartitionPolicy::Threshold { imbalance } => {
                if imbalance >= 1.0 && imbalance.is_finite() {
                    Ok(())
                } else {
                    Err(PartitionError::InvalidParameter(format!(
                        "repartition threshold {imbalance} must be finite and >= 1"
                    )))
                }
            }
            RepartitionPolicy::Periodic { every } => {
                if every >= 1 {
                    Ok(())
                } else {
                    Err(PartitionError::InvalidParameter("repartition period must be >= 1".into()))
                }
            }
        }
    }

    /// Whether the policy fires after batch `batch` (0-based) given the
    /// post-batch balance metric.
    pub fn should_fire(&self, batch: u32, imbalance: f64) -> bool {
        match *self {
            RepartitionPolicy::Never => false,
            RepartitionPolicy::Threshold { imbalance: t } => imbalance > t,
            RepartitionPolicy::Periodic { every } => (batch + 1).is_multiple_of(every),
        }
    }

    /// Stable label for tables and artifact names
    /// (`never` / `threshold(1.2)` / `periodic(5)`).
    pub fn label(&self) -> String {
        match *self {
            RepartitionPolicy::Never => "never".into(),
            RepartitionPolicy::Threshold { imbalance } => format!("threshold({imbalance})"),
            RepartitionPolicy::Periodic { every } => format!("periodic({every})"),
        }
    }
}

/// Deterministic model of a full partitioning run's cost in *simulated*
/// seconds: a fixed setup cost plus a per-edge rate loosely calibrated
/// to the relative run times of Figure 15 (hash partitioners fastest,
/// multilevel in-memory algorithms slowest). Never wall clock — stream
/// artifacts must stay bit-identical across thread counts and reruns.
pub fn modeled_partition_seconds(name: &str, num_edges: u64) -> f64 {
    let per_edge = match name {
        "Random" => 0.02e-6,
        "DBH" | "Grid2D" => 0.03e-6,
        "LDG" => 0.05e-6,
        "Greedy" => 0.10e-6,
        "HDRF" => 0.12e-6,
        "ReLDG" => 0.15e-6,
        "2PS-L" => 0.18e-6,
        "HEP-10" => 0.45e-6,
        "Spinner" => 0.60e-6,
        "HEP-100" => 0.70e-6,
        "ByteGNN" => 0.80e-6,
        "METIS" => 2.5e-6,
        "KaHIP" => 4.0e-6,
        _ => 0.25e-6,
    };
    1e-3 + per_edge * num_edges as f64
}

/// Per-partitioner online decision state for edge (vertex-cut) streams.
#[derive(Debug, Clone)]
enum EdgeCore {
    /// HDRF: shared selection rule + load extrema + tie-break rng.
    Hdrf { lambda: f64, extrema: LoadExtrema, rng: Rng },
    /// Online 2PS-L: streaming clustering with birth-time cluster →
    /// partition mapping.
    TwoPs {
        alpha: f64,
        /// Cluster id per vertex (`UNCLUSTERED` until an edge reaches it).
        cluster: Vec<u32>,
        /// Degree volume per cluster.
        volume: Vec<u64>,
        /// Degree volume mapped onto each partition.
        part_volume: Vec<u64>,
        /// Partition of each cluster, frozen at cluster birth.
        cluster_part: Vec<u32>,
        /// Edges observed so far (inserts; drives the dynamic caps).
        m_seen: u64,
    },
    /// Seeded hash of the edge key (Random).
    Hash,
    /// Hash of the lower-current-degree endpoint (DBH).
    Dbh,
    /// Generic fallback: prefer partitions already holding replicas of
    /// the endpoints, tie-break least-loaded (HEP and other in-memory
    /// algorithms have no online rule of their own).
    ReplicaGreedy,
}

/// Partition of a dead slot of [`IncrementalEdgePartitioner`]
/// (partition ids are below [`crate::MAX_PARTITIONS`], so fit a `u8`).
const DEAD: u8 = u8::MAX;

/// Incremental edge (vertex-cut) partitioner: assigns inserted edges
/// online and keeps exact replication/balance bookkeeping under
/// deletions.
///
/// Assignments live in arrival-order slots — the order in which
/// `gp_graph::StreamGraph` snapshots list their edges — so
/// [`IncrementalEdgePartitioner::materialize`] is one linear pass.
#[derive(Debug, Clone)]
pub struct IncrementalEdgePartitioner {
    name: String,
    k: u32,
    seed: u64,
    directed: bool,
    core: EdgeCore,
    /// Live degree per vertex (doubles as HDRF's partial degree).
    degrees: Vec<u32>,
    /// Replica bitmask per vertex, derived from `replica_counts`.
    replicas: Vec<u64>,
    /// Live incident-edge count per `(vertex, partition)`. Entries are
    /// *removed* when they reach zero (the deletion-underflow audit:
    /// zero-count residue would skew the replication factor).
    replica_counts: EdgeMap<u32>,
    /// Every edge seen since the last (re)build, in arrival order
    /// (one slot each; deleted edges leave dead slots).
    slot_edges: Vec<(u32, u32)>,
    /// Partition per slot, `DEAD` once its edge is deleted.
    slot_parts: Vec<u8>,
    /// Live edge -> its slot.
    slot_of: EdgeMap<u32>,
    /// Live edges per partition.
    load: Vec<u64>,
    /// Total live replicas (= `replica_counts.len()`, cached as u64).
    total_replicas: u64,
    /// Vertices with at least one live replica.
    covered: u64,
}

impl IncrementalEdgePartitioner {
    fn core_for(name: &str, k: u32, seed: u64) -> EdgeCore {
        match name {
            "HDRF" => EdgeCore::Hdrf {
                lambda: Hdrf::default().lambda,
                extrema: LoadExtrema::of(&vec![0; k as usize]),
                rng: Rng::seed_from_u64(seed),
            },
            "2PS-L" => EdgeCore::TwoPs {
                alpha: TwoPsL::default().alpha,
                cluster: Vec::new(),
                volume: Vec::new(),
                part_volume: Vec::new(),
                cluster_part: Vec::new(),
                m_seen: 0,
            },
            "Random" => EdgeCore::Hash,
            "DBH" => EdgeCore::Dbh,
            _ => EdgeCore::ReplicaGreedy,
        }
    }

    /// Fresh state over an empty graph (the oracle entry point; engine
    /// runs start from [`IncrementalEdgePartitioner::from_partition`]).
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range `k`.
    pub fn fresh(name: &str, k: u32, seed: u64, directed: bool) -> Result<Self, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        let mut core = Self::core_for(name, k, seed);
        if let EdgeCore::TwoPs { part_volume, .. } = &mut core {
            *part_volume = vec![0; k as usize];
        }
        Ok(IncrementalEdgePartitioner {
            name: name.to_string(),
            k,
            seed,
            directed,
            core,
            degrees: Vec::new(),
            replicas: Vec::new(),
            replica_counts: EdgeMap::default(),
            slot_edges: Vec::new(),
            slot_parts: Vec::new(),
            slot_of: EdgeMap::default(),
            load: vec![0; k as usize],
            total_replicas: 0,
            covered: 0,
        })
    }

    /// Rebuild incremental state that *continues* an existing full
    /// partition of `snapshot` (the initial partition, or the one a
    /// repartition policy just adopted).
    ///
    /// # Errors
    ///
    /// Fails if the partition does not match the snapshot.
    pub fn from_partition(
        name: &str,
        snapshot: &Graph,
        partition: &EdgePartition,
        seed: u64,
    ) -> Result<Self, PartitionError> {
        if partition.assignments().len() != snapshot.num_edges() as usize {
            return Err(PartitionError::LengthMismatch {
                expected: snapshot.num_edges() as usize,
                actual: partition.assignments().len(),
            });
        }
        let k = partition.k();
        let mut inc = Self::fresh(name, k, seed, snapshot.is_directed())?;
        let n = snapshot.num_vertices() as usize;
        let m = snapshot.num_edges() as usize;
        inc.degrees = (0..snapshot.num_vertices()).map(|v| snapshot.degree(v)).collect();
        inc.replicas = vec![0u64; n];
        inc.replica_counts = edge_map_with_capacity(partition.total_replicas() as usize);
        inc.slot_of = edge_map_with_capacity(m);
        // Headroom for stream growth, so the first insertions after a
        // (re)build do not double the slot vectors.
        inc.slot_edges = Vec::with_capacity(m + m / 16);
        inc.slot_parts = Vec::with_capacity(m + m / 16);
        for (i, (u, v)) in snapshot.edges().enumerate() {
            let p = partition.assignments()[i];
            inc.slot_of.insert((u, v), i as u32);
            inc.slot_edges.push((u, v));
            inc.slot_parts.push(p as u8);
            inc.load[p as usize] += 1;
            for x in [u, v] {
                let c = inc.replica_counts.entry((x, p)).or_insert(0);
                if *c == 0 {
                    if inc.replicas[x as usize] == 0 {
                        inc.covered += 1;
                    }
                    inc.replicas[x as usize] |= 1u64 << p;
                    inc.total_replicas += 1;
                }
                *c += 1;
            }
        }
        match &mut inc.core {
            EdgeCore::Hdrf { extrema, .. } => *extrema = LoadExtrema::of(&inc.load),
            EdgeCore::TwoPs { cluster, volume, part_volume, cluster_part, m_seen, .. } => {
                // Re-drive phase-1 clustering over the snapshot (cheap,
                // deterministic), then derive the cluster → partition
                // map from the adopted assignments by majority vote.
                cluster.resize(n, UNCLUSTERED);
                let mut degs = vec![0u32; n];
                let mut seen = 0u64;
                for (u, v) in snapshot.edges() {
                    let (ui, vi) = (u as usize, v as usize);
                    degs[ui] += 1;
                    degs[vi] += 1;
                    seen += 1;
                    let cap = (2 * seen).div_ceil(u64::from(k)).max(2);
                    cluster_phase1(
                        cluster,
                        volume,
                        cap,
                        ui,
                        vi,
                        u64::from(degs[ui]),
                        u64::from(degs[vi]),
                    );
                }
                *m_seen = seen;
                let mut votes: EdgeMap<u64> = EdgeMap::default();
                for (i, (u, v)) in snapshot.edges().enumerate() {
                    let p = partition.assignments()[i];
                    *votes.entry((cluster[u as usize], p)).or_insert(0) += 1;
                    if cluster[v as usize] != cluster[u as usize] {
                        *votes.entry((cluster[v as usize], p)).or_insert(0) += 1;
                    }
                }
                *cluster_part = (0..volume.len() as u32)
                    .map(|c| {
                        (0..k)
                            .max_by_key(|&p| {
                                (votes.get(&(c, p)).copied().unwrap_or(0), u32::MAX - p)
                            })
                            .expect("k >= 1")
                    })
                    .collect();
                *part_volume = part_volumes(volume, cluster_part, k);
            }
            _ => {}
        }
        Ok(inc)
    }

    /// Partitioner name this state streams for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Live edge count.
    pub fn num_live_edges(&self) -> u64 {
        self.slot_of.len() as u64
    }

    /// Live replica ledger size (total replicas across vertices).
    pub fn total_replicas(&self) -> u64 {
        self.total_replicas
    }

    /// Replication factor from the live ledger (cross-checked against
    /// the materialised [`EdgePartition`] in tests).
    pub fn live_replication_factor(&self) -> f64 {
        if self.covered == 0 {
            0.0
        } else {
            self.total_replicas as f64 / self.covered as f64
        }
    }

    /// Edge balance `max / mean` over live per-partition loads.
    pub fn live_edge_balance(&self) -> f64 {
        let sum: u64 = self.load.iter().sum();
        if sum == 0 {
            return 0.0;
        }
        let max = *self.load.iter().max().expect("k >= 1") as f64;
        max / (sum as f64 / self.load.len() as f64)
    }

    fn norm(&self, u: u32, v: u32) -> (u32, u32) {
        if self.directed || u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn ensure_vertex(&mut self, v: u32) {
        let need = v as usize + 1;
        if self.degrees.len() < need {
            self.degrees.resize(need, 0);
            self.replicas.resize(need, 0);
            if let EdgeCore::TwoPs { cluster, .. } = &mut self.core {
                cluster.resize(need, UNCLUSTERED);
            }
        }
    }

    fn add_replica(&mut self, v: u32, p: u32) {
        let c = self.replica_counts.entry((v, p)).or_insert(0);
        if *c == 0 {
            if self.replicas[v as usize] == 0 {
                self.covered += 1;
            }
            self.replicas[v as usize] |= 1u64 << p;
            self.total_replicas += 1;
        }
        *c += 1;
    }

    fn drop_replica(&mut self, v: u32, p: u32) {
        let c = self.replica_counts.get_mut(&(v, p)).expect("live edge had a ledger entry");
        *c -= 1;
        if *c == 0 {
            // The audit fix: remove the entry outright. A zero-count
            // residue would keep the (vertex, partition) pair looking
            // replicated forever and skew RF/balance bookkeeping.
            self.replica_counts.remove(&(v, p));
            self.replicas[v as usize] &= !(1u64 << p);
            self.total_replicas -= 1;
            if self.replicas[v as usize] == 0 {
                self.covered -= 1;
            }
        }
    }

    /// Assign one inserted edge online; returns the chosen partition.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] for a self-loop or
    /// an already-live edge (stream plans never produce either).
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<u32, PartitionError> {
        if u == v {
            return Err(PartitionError::InvalidParameter(format!(
                "incremental: self-loop ({u}, {v})"
            )));
        }
        let e = self.norm(u, v);
        if self.slot_of.contains_key(&e) {
            return Err(PartitionError::InvalidParameter(format!(
                "incremental: edge ({}, {}) is already live",
                e.0, e.1
            )));
        }
        self.ensure_vertex(e.0.max(e.1));
        let (ui, vi) = (e.0 as usize, e.1 as usize);
        self.degrees[ui] += 1;
        self.degrees[vi] += 1;
        let k = self.k;
        let p = match &mut self.core {
            EdgeCore::Hdrf { lambda, extrema, rng } => {
                let mut scores = [0f64; crate::MAX_PARTITIONS as usize];
                let scores = &mut scores[..k as usize];
                hdrf_scores(
                    *lambda,
                    (self.degrees[ui], self.degrees[vi]),
                    (self.replicas[ui], self.replicas[vi]),
                    &self.load,
                    extrema,
                    scores,
                );
                hdrf_choose(scores, rng)
            }
            EdgeCore::TwoPs { alpha, cluster, volume, part_volume, cluster_part, m_seen } => {
                *m_seen += 1;
                let volume_cap = (2 * *m_seen).div_ceil(u64::from(k)).max(2);
                let du = u64::from(self.degrees[ui]);
                let dv = u64::from(self.degrees[vi]);
                let touched = [cluster[ui], cluster[vi]]
                    .map(|c| (c, volume.get(c as usize).copied().unwrap_or(0)));
                let born = cluster_phase1(cluster, volume, volume_cap, ui, vi, du, dv);
                sync_cluster_parts(volume, part_volume, cluster_part, touched, born, k);
                // Phase 2 against the dynamic edge-balance cap.
                let pu = cluster_part[cluster[ui] as usize];
                let pv = cluster_part[cluster[vi] as usize];
                let cap = ((*alpha * *m_seen as f64) / f64::from(k)).ceil() as u64;
                twops_place(pu, pv, self.replicas[ui] | self.replicas[vi], &self.load, cap)
            }
            EdgeCore::Hash => {
                let h = mix64(mix64(u64::from(e.0) ^ self.seed) ^ u64::from(e.1));
                (h % u64::from(k)) as u32
            }
            EdgeCore::Dbh => dbh_choose(e, (self.degrees[ui], self.degrees[vi]), self.seed, k),
            EdgeCore::ReplicaGreedy => {
                let mut best = 0u32;
                let mut best_key = (0u32, u64::MAX);
                for p in 0..k {
                    let bit = 1u64 << p;
                    let hits = u32::from(self.replicas[ui] & bit != 0)
                        + u32::from(self.replicas[vi] & bit != 0);
                    // Most endpoint replicas first, then least load;
                    // lowest index wins remaining ties.
                    if hits > best_key.0
                        || (hits == best_key.0 && self.load[p as usize] < best_key.1)
                    {
                        best_key = (hits, self.load[p as usize]);
                        best = p;
                    }
                }
                best
            }
        };
        self.slot_of.insert(e, self.slot_edges.len() as u32);
        self.slot_edges.push(e);
        self.slot_parts.push(p as u8);
        self.load[p as usize] += 1;
        self.add_replica(e.0, p);
        self.add_replica(e.1, p);
        if let EdgeCore::Hdrf { extrema, .. } = &mut self.core {
            extrema.grew(&self.load, p as usize);
        }
        Ok(p)
    }

    /// Remove a live edge: bookkeeping only, no reassignment. Returns
    /// the partition the edge was on.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] if the edge is not
    /// live.
    pub fn delete_edge(&mut self, u: u32, v: u32) -> Result<u32, PartitionError> {
        let e = self.norm(u, v);
        let slot = self.slot_of.remove(&e).ok_or_else(|| {
            PartitionError::InvalidParameter(format!(
                "incremental: deleting non-live edge ({}, {})",
                e.0, e.1
            ))
        })?;
        let p = u32::from(std::mem::replace(&mut self.slot_parts[slot as usize], DEAD));
        self.load[p as usize] -= 1;
        self.degrees[e.0 as usize] -= 1;
        self.degrees[e.1 as usize] -= 1;
        self.drop_replica(e.0, p);
        self.drop_replica(e.1, p);
        if let EdgeCore::Hdrf { extrema, .. } = &mut self.core {
            *extrema = LoadExtrema::of(&self.load);
        }
        Ok(p)
    }

    /// Materialise the tracked assignments against a snapshot of the
    /// live graph whose edges are in **arrival order** — the order of
    /// the partition or snapshot this state was built from, followed by
    /// the insertions since, as `gp_graph::StreamGraph::snapshot` lists
    /// them. One linear pass checks each snapshot edge against the next
    /// live slot.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot's edges are not exactly the tracked live
    /// edges in arrival order (a different set, or the same set in
    /// another order).
    pub fn materialize(&self, snapshot: &Graph) -> Result<EdgePartition, PartitionError> {
        if snapshot.num_edges() as usize != self.slot_of.len() {
            return Err(PartitionError::LengthMismatch {
                expected: self.slot_of.len(),
                actual: snapshot.num_edges() as usize,
            });
        }
        let live = self.slot_edges.iter().zip(&self.slot_parts).filter(|(_, &p)| p != DEAD);
        let mut assignments = Vec::with_capacity(self.slot_of.len());
        for ((u, v), (&edge, &p)) in snapshot.edges().zip(live) {
            if self.norm(u, v) != edge {
                return Err(PartitionError::InvalidParameter(format!(
                    "incremental: snapshot edge {} is ({u}, {v}), but the edge that arrived \
                     there is ({}, {})",
                    assignments.len(),
                    edge.0,
                    edge.1
                )));
            }
            assignments.push(u32::from(p));
        }
        EdgePartition::new(snapshot, self.k, assignments)
    }
}

/// Keep the online cluster → partition map in sync after a phase-1
/// update. Phase 1 changes the volume of at most two clusters: the
/// endpoints' clusters before the update (`touched`, each with its
/// volume then; `UNCLUSTERED` for an endpoint that had none), by growth
/// or the rescue move, or it gives birth to one cluster, which is pinned
/// to the least-volume partition. Each changed volume moves its
/// partition's total by its own delta.
fn sync_cluster_parts(
    volume: &[u64],
    part_volume: &mut [u64],
    cluster_part: &mut Vec<u32>,
    touched: [(u32, u64); 2],
    born: Option<u32>,
    k: u32,
) {
    if let Some(id) = born {
        debug_assert_eq!(id as usize, cluster_part.len());
        let p = (0..k).min_by_key(|&p| part_volume[p as usize]).expect("k >= 1");
        cluster_part.push(p);
        part_volume[p as usize] += volume[id as usize];
    }
    for (i, &(c, before)) in touched.iter().enumerate() {
        if c == UNCLUSTERED || (i == 1 && c == touched[0].0) {
            continue;
        }
        let p = cluster_part[c as usize] as usize;
        part_volume[p] = part_volume[p] - before + volume[c as usize];
    }
    debug_assert!(
        part_volume == part_volumes(volume, cluster_part, k),
        "online 2PS-L: partition volumes out of step with the clusters"
    );
}

/// Degree volume mapped onto each partition, tallied from the clusters.
fn part_volumes(volume: &[u64], cluster_part: &[u32], k: u32) -> Vec<u64> {
    let mut part_volume = vec![0u64; k as usize];
    for (c, &vol) in volume.iter().enumerate() {
        part_volume[cluster_part[c] as usize] += vol;
    }
    part_volume
}

/// Per-partitioner online decision state for vertex (edge-cut) streams.
#[derive(Debug, Clone)]
enum VertexCore {
    /// LDG: shared selection rule with a provisioned capacity.
    Ldg { slack: f64, capacity: u64 },
    /// Seeded hash of the vertex id (Random).
    Hash,
    /// Generic fallback: most placed neighbours, tie-break least size
    /// (the in-memory algorithms have no online rule of their own).
    PlacedNeighbors,
}

/// Incremental vertex (edge-cut) partitioner: places arriving vertices
/// online; edge insertions/deletions between placed vertices never
/// reassign anyone (the cut metrics are recomputed at materialisation).
#[derive(Debug, Clone)]
pub struct IncrementalVertexPartitioner {
    name: String,
    k: u32,
    seed: u64,
    core: VertexCore,
    /// Partition per vertex (`NONE` = not yet placed).
    assignments: Vec<u32>,
    /// Vertices per partition.
    sizes: Vec<u64>,
}

impl IncrementalVertexPartitioner {
    /// Fresh state over an empty graph (the oracle entry point; engine
    /// runs start from
    /// [`IncrementalVertexPartitioner::from_partition`]). LDG's
    /// capacity starts at the minimum — provision it with
    /// [`IncrementalVertexPartitioner::provision_capacity`].
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range `k`.
    pub fn fresh(name: &str, k: u32, seed: u64) -> Result<Self, PartitionError> {
        if k == 0 || k > crate::MAX_PARTITIONS {
            return Err(PartitionError::BadPartitionCount { k });
        }
        let core = match name {
            "LDG" => VertexCore::Ldg { slack: Ldg::default().slack, capacity: 1 },
            "Random" => VertexCore::Hash,
            _ => VertexCore::PlacedNeighbors,
        };
        Ok(IncrementalVertexPartitioner {
            name: name.to_string(),
            k,
            seed,
            core,
            assignments: Vec::new(),
            sizes: vec![0; k as usize],
        })
    }

    /// Provision LDG's partition capacity for an expected final vertex
    /// count (`ceil(slack * n / k)`), exactly what the one-shot LDG
    /// computes upfront. A no-op for the other cores.
    pub fn provision_capacity(&mut self, expected_vertices: u32) {
        if let VertexCore::Ldg { slack, capacity } = &mut self.core {
            *capacity = ldg_capacity(*slack, expected_vertices, self.k);
        }
    }

    /// Rebuild incremental state continuing an existing full partition
    /// of `snapshot`. LDG's capacity is provisioned from the snapshot's
    /// vertex count.
    ///
    /// # Errors
    ///
    /// Fails if the partition does not match the snapshot.
    pub fn from_partition(
        name: &str,
        snapshot: &Graph,
        partition: &VertexPartition,
        seed: u64,
    ) -> Result<Self, PartitionError> {
        if partition.assignments().len() != snapshot.num_vertices() as usize {
            return Err(PartitionError::LengthMismatch {
                expected: snapshot.num_vertices() as usize,
                actual: partition.assignments().len(),
            });
        }
        let mut inc = Self::fresh(name, partition.k(), seed)?;
        inc.assignments = partition.assignments().to_vec();
        inc.sizes = partition.vertex_counts().to_vec();
        inc.provision_capacity(snapshot.num_vertices());
        Ok(inc)
    }

    /// Partitioner name this state streams for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Partition of vertex `v`, or `None` if not yet placed (or never
    /// seen).
    pub fn partition_of(&self, v: u32) -> Option<u32> {
        match self.assignments.get(v as usize) {
            Some(&p) if p != NONE => Some(p),
            _ => None,
        }
    }

    /// Place an arriving vertex given the partitions of its
    /// already-placed neighbours (one entry per neighbour, duplicates
    /// meaningful); returns the chosen partition.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidParameter`] if `v` is already
    /// placed or a neighbour partition is out of range.
    pub fn place_vertex(
        &mut self,
        v: u32,
        neighbor_partitions: &[u32],
    ) -> Result<u32, PartitionError> {
        let need = v as usize + 1;
        if self.assignments.len() < need {
            self.assignments.resize(need, NONE);
        }
        if self.assignments[v as usize] != NONE {
            return Err(PartitionError::InvalidParameter(format!(
                "incremental: vertex {v} is already placed"
            )));
        }
        let mut counts = vec![0u32; self.k as usize];
        for &p in neighbor_partitions {
            if p >= self.k {
                return Err(PartitionError::AssignmentOutOfRange { partition: p, k: self.k });
            }
            counts[p as usize] += 1;
        }
        let p = match &self.core {
            VertexCore::Ldg { capacity, .. } => ldg_choose(self.k, *capacity, &self.sizes, &counts),
            VertexCore::Hash => random_vertex_choose(v, self.seed, self.k),
            VertexCore::PlacedNeighbors => {
                let mut best = 0u32;
                let mut best_key = (0u32, u64::MAX);
                for p in 0..self.k {
                    let c = counts[p as usize];
                    if c > best_key.0 || (c == best_key.0 && self.sizes[p as usize] < best_key.1) {
                        best_key = (c, self.sizes[p as usize]);
                        best = p;
                    }
                }
                best
            }
        };
        self.assignments[v as usize] = p;
        self.sizes[p as usize] += 1;
        Ok(p)
    }

    /// Place a stream batch's arrivals (`first_new..first_new +
    /// batch.new_vertices`) online in id order, each seeing the
    /// partitions of its already-placed wiring neighbours (later
    /// same-batch arrivals are not placed yet and are not counted).
    ///
    /// # Errors
    ///
    /// As [`IncrementalVertexPartitioner::place_vertex`].
    pub fn place_arrivals(
        &mut self,
        batch: &MutationBatch,
        first_new: u32,
    ) -> Result<(), PartitionError> {
        for v in first_new..first_new + batch.new_vertices {
            let neighbors: Vec<u32> = batch
                .inserts
                .iter()
                .filter(|&&(x, y)| x == v || y == v)
                .filter_map(|&(x, y)| self.partition_of(if x == v { y } else { x }))
                .collect();
            self.place_vertex(v, &neighbors)?;
        }
        Ok(())
    }

    /// Materialise the tracked placements against a snapshot.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot has vertices this state never placed.
    pub fn materialize(&self, snapshot: &Graph) -> Result<VertexPartition, PartitionError> {
        if self.assignments.len() != snapshot.num_vertices() as usize
            || self.assignments.contains(&NONE)
        {
            return Err(PartitionError::InvalidParameter(
                "incremental: snapshot has unplaced vertices".into(),
            ));
        }
        VertexPartition::new(snapshot, self.k, self.assignments.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::traits::{EdgePartitioner, VertexPartitioner};
    use gp_graph::{DatasetId, GraphScale, StreamGraph, StreamPlan, StreamSpec};
    use std::collections::HashMap;

    fn base() -> Graph {
        DatasetId::OR.generate(GraphScale::Tiny).unwrap()
    }

    /// Drive an incremental edge partitioner from an empty base over an
    /// insert-only stream; return it plus the final snapshot.
    fn drive_edge(
        name: &str,
        k: u32,
        seed: u64,
        spec: &StreamSpec,
    ) -> (IncrementalEdgePartitioner, Graph) {
        let empty = Graph::from_edges(0, &[], false).unwrap();
        let plan = StreamPlan::generate(&empty, spec).unwrap();
        let mut sg = StreamGraph::new(&empty);
        let mut inc = IncrementalEdgePartitioner::fresh(name, k, seed, false).unwrap();
        for batch in plan.batches() {
            sg.apply(batch).unwrap();
            for &(u, v) in &batch.inserts {
                inc.insert_edge(u, v).unwrap();
            }
            for &(u, v) in &batch.deletes {
                inc.delete_edge(u, v).unwrap();
            }
        }
        let snap = sg.snapshot().unwrap();
        (inc, snap)
    }

    fn insert_only_spec(batches: u32, seed: u64) -> StreamSpec {
        StreamSpec {
            batches,
            inserts_per_batch: 12,
            deletes_per_batch: 0,
            arrivals_per_batch: 3,
            edges_per_arrival: 3,
            seed,
        }
    }

    #[test]
    fn hdrf_incremental_equals_one_shot_on_insert_only_stream() {
        let (inc, snap) = drive_edge("HDRF", 4, 9, &insert_only_spec(12, 21));
        let one_shot = Hdrf::default().partition_edges(&snap, 4, 9).unwrap();
        let materialized = inc.materialize(&snap).unwrap();
        assert_eq!(materialized.assignments(), one_shot.assignments());
        assert_eq!(materialized, one_shot);
    }

    #[test]
    fn twops_incremental_is_batch_boundary_independent() {
        // The same insert stream delivered in 12 batches vs replayed as
        // one giant batch must assign identically (the online core's
        // decisions depend only on the edge sequence).
        let spec = insert_only_spec(12, 33);
        let (inc, snap) = drive_edge("2PS-L", 4, 5, &spec);
        let empty = Graph::from_edges(0, &[], false).unwrap();
        let plan = StreamPlan::generate(&empty, &spec).unwrap();
        let mut one = IncrementalEdgePartitioner::fresh("2PS-L", 4, 5, false).unwrap();
        for batch in plan.batches() {
            for &(u, v) in &batch.inserts {
                one.insert_edge(u, v).unwrap();
            }
        }
        assert_eq!(
            inc.materialize(&snap).unwrap().assignments(),
            one.materialize(&snap).unwrap().assignments()
        );
    }

    #[test]
    fn ldg_incremental_equals_one_shot_driven_in_arrival_order() {
        // Arrival-only stream: every edge wires a fresh vertex to
        // already-placed ones, so the incremental placement sees
        // exactly the neighbours the one-shot (fed arrival order) sees.
        let empty = Graph::from_edges(0, &[], false).unwrap();
        let spec = StreamSpec {
            batches: 20,
            inserts_per_batch: 0,
            deletes_per_batch: 0,
            arrivals_per_batch: 4,
            edges_per_arrival: 3,
            seed: 77,
        };
        let plan = StreamPlan::generate(&empty, &spec).unwrap();
        let mut sg = StreamGraph::new(&empty);
        let mut inc = IncrementalVertexPartitioner::fresh("LDG", 4, 1).unwrap();
        inc.provision_capacity(80);
        for batch in plan.batches() {
            sg.apply(batch).unwrap();
            inc.place_arrivals(batch, sg.num_vertices() - batch.new_vertices).unwrap();
        }
        let snap = sg.snapshot().unwrap();
        assert_eq!(snap.num_vertices(), 80);
        let order: Vec<u32> = (0..80).collect();
        let one_shot = Ldg::default().partition_in_order(&snap, 4, &order, 1).unwrap();
        let materialized = inc.materialize(&snap).unwrap();
        assert_eq!(materialized.assignments(), one_shot.assignments());
    }

    #[test]
    fn deletion_bookkeeping_matches_materialized_partition() {
        let g = base();
        let full = Hdrf::default().partition_edges(&g, 4, 1).unwrap();
        let mut inc = IncrementalEdgePartitioner::from_partition("HDRF", &g, &full, 1).unwrap();
        let mut sg = StreamGraph::new(&g);
        let spec = StreamSpec {
            batches: 10,
            inserts_per_batch: 8,
            deletes_per_batch: 12,
            arrivals_per_batch: 2,
            edges_per_arrival: 2,
            seed: 13,
        };
        let plan = StreamPlan::generate(&g, &spec).unwrap();
        for batch in plan.batches() {
            sg.apply(batch).unwrap();
            for &(u, v) in &batch.inserts {
                inc.insert_edge(u, v).unwrap();
            }
            for &(u, v) in &batch.deletes {
                inc.delete_edge(u, v).unwrap();
            }
            let snap = sg.snapshot().unwrap();
            let part = inc.materialize(&snap).unwrap();
            // The live ledger and the eagerly-recomputed partition must
            // agree exactly — any zero-count residue would break this.
            assert_eq!(inc.live_replication_factor(), part.replication_factor());
            assert_eq!(inc.total_replicas(), part.total_replicas());
            assert_eq!(inc.live_edge_balance(), part.edge_balance());
            assert_eq!(inc.num_live_edges(), u64::from(snap.num_edges()));
        }
    }

    #[test]
    fn removing_last_replica_drops_ledger_entry() {
        // Path 0-1-2 on one partition; deleting (0,1) must remove
        // vertex 0 from the ledger entirely (not leave a zero count).
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], false).unwrap();
        let full = EdgePartition::new(&g, 2, vec![0, 0]).unwrap();
        let mut inc = IncrementalEdgePartitioner::from_partition("HDRF", &g, &full, 1).unwrap();
        assert_eq!(inc.total_replicas(), 3);
        inc.delete_edge(0, 1).unwrap();
        assert_eq!(inc.total_replicas(), 2, "vertex 0's replica entry dropped");
        assert!(
            !inc.replica_counts.contains_key(&(0, 0)),
            "no zero-count residue for (vertex 0, partition 0)"
        );
        // RF over the survivors: vertices 1 and 2, one replica each.
        assert_eq!(inc.live_replication_factor(), 1.0);
        // And the reverse round-trip: reinsert restores the ledger.
        inc.insert_edge(0, 1).unwrap();
        assert_eq!(inc.total_replicas(), 3);
    }

    #[test]
    fn all_roster_names_stream_without_reassignment_errors() {
        let g = base();
        let spec = StreamSpec::paper_default(6, 2);
        let plan = StreamPlan::generate(&g, &spec).unwrap();
        for name in ["Random", "DBH", "HDRF", "2PS-L", "HEP-10", "HEP-100"] {
            let full = registry::edge_partitioner(name).unwrap().partition_edges(&g, 4, 1).unwrap();
            let mut inc = IncrementalEdgePartitioner::from_partition(name, &g, &full, 1).unwrap();
            let mut sg = StreamGraph::new(&g);
            for batch in plan.batches() {
                sg.apply(batch).unwrap();
                for &(u, v) in &batch.inserts {
                    inc.insert_edge(u, v).unwrap();
                }
                for &(u, v) in &batch.deletes {
                    inc.delete_edge(u, v).unwrap();
                }
            }
            let snap = sg.snapshot().unwrap();
            let part = inc.materialize(&snap).unwrap();
            assert_eq!(part.k(), 4, "{name}");
            assert_eq!(inc.live_replication_factor(), part.replication_factor(), "{name}");
        }
    }

    #[test]
    fn vertex_roster_streams_and_materializes() {
        let g = base();
        let spec = StreamSpec::paper_default(6, 2);
        let plan = StreamPlan::generate(&g, &spec).unwrap();
        for name in ["Random", "LDG", "Spinner", "METIS", "ByteGNN", "KaHIP"] {
            let full = registry::vertex_partitioner(name, Some(vec![0, 1, 2]))
                .unwrap()
                .partition_vertices(&g, 4, 1)
                .unwrap();
            let mut inc = IncrementalVertexPartitioner::from_partition(name, &g, &full, 1).unwrap();
            let mut sg = StreamGraph::new(&g);
            for batch in plan.batches() {
                sg.apply(batch).unwrap();
                inc.place_arrivals(batch, sg.num_vertices() - batch.new_vertices).unwrap();
            }
            let snap = sg.snapshot().unwrap();
            let part = inc.materialize(&snap).unwrap();
            assert_eq!(part.k(), 4, "{name}");
            assert_eq!(part.assignments().len(), snap.num_vertices() as usize, "{name}");
        }
    }

    #[test]
    fn from_partition_continues_consistently() {
        // Simulate a policy-triggered repartition mid-stream: rebuild
        // state from the fresh partition, keep streaming, and verify
        // the ledger still matches the materialised truth.
        let g = base();
        let spec = StreamSpec::paper_default(4, 5);
        let plan = StreamPlan::generate(&g, &spec).unwrap();
        let mut sg = StreamGraph::new(&g);
        let full = TwoPsL::default().partition_edges(&g, 4, 7).unwrap();
        let mut inc = IncrementalEdgePartitioner::from_partition("2PS-L", &g, &full, 7).unwrap();
        for (i, batch) in plan.batches().iter().enumerate() {
            sg.apply(batch).unwrap();
            for &(u, v) in &batch.inserts {
                inc.insert_edge(u, v).unwrap();
            }
            for &(u, v) in &batch.deletes {
                inc.delete_edge(u, v).unwrap();
            }
            if i == 1 {
                let snap = sg.snapshot().unwrap();
                let fresh = TwoPsL::default().partition_edges(&snap, 4, 7).unwrap();
                inc =
                    IncrementalEdgePartitioner::from_partition("2PS-L", &snap, &fresh, 7).unwrap();
            }
        }
        let snap = sg.snapshot().unwrap();
        let part = inc.materialize(&snap).unwrap();
        assert_eq!(inc.live_replication_factor(), part.replication_factor());
    }

    #[test]
    fn policies_validate_and_fire() {
        assert!(RepartitionPolicy::Never.validate().is_ok());
        assert!(RepartitionPolicy::Threshold { imbalance: 1.2 }.validate().is_ok());
        assert!(RepartitionPolicy::Threshold { imbalance: 0.5 }.validate().is_err());
        assert!(RepartitionPolicy::Threshold { imbalance: f64::NAN }.validate().is_err());
        assert!(RepartitionPolicy::Periodic { every: 1 }.validate().is_ok());
        assert!(RepartitionPolicy::Periodic { every: 0 }.validate().is_err());

        assert!(!RepartitionPolicy::Never.should_fire(9, 99.0));
        assert!(RepartitionPolicy::Threshold { imbalance: 1.2 }.should_fire(0, 1.3));
        assert!(!RepartitionPolicy::Threshold { imbalance: 1.2 }.should_fire(0, 1.1));
        let periodic = RepartitionPolicy::Periodic { every: 3 };
        let fires: Vec<bool> = (0..6).map(|b| periodic.should_fire(b, 1.0)).collect();
        assert_eq!(fires, vec![false, false, true, false, false, true]);

        assert_eq!(RepartitionPolicy::Never.label(), "never");
        assert_eq!(RepartitionPolicy::Threshold { imbalance: 1.2 }.label(), "threshold(1.2)");
        assert_eq!(RepartitionPolicy::Periodic { every: 5 }.label(), "periodic(5)");
    }

    #[test]
    fn modeled_seconds_order_matches_figure_15() {
        let m = 1_000_000;
        let s = |n: &str| modeled_partition_seconds(n, m);
        assert!(s("Random") < s("HDRF"));
        assert!(s("HDRF") < s("HEP-100"));
        assert!(s("HEP-100") < s("METIS"));
        assert!(s("METIS") < s("KaHIP"));
        for n in ["Random", "LDG", "unknown"] {
            assert!(s(n) > 0.0 && s(n).is_finite());
        }
        // Pure function: equal inputs, equal outputs (artifacts depend
        // on it being bit-stable).
        assert_eq!(s("METIS"), s("METIS"));
    }

    #[test]
    fn incremental_rejects_invalid_operations() {
        let mut inc = IncrementalEdgePartitioner::fresh("HDRF", 4, 1, false).unwrap();
        assert!(IncrementalEdgePartitioner::fresh("HDRF", 0, 1, false).is_err());
        assert!(inc.insert_edge(3, 3).is_err(), "self-loop");
        inc.insert_edge(0, 1).unwrap();
        assert!(inc.insert_edge(1, 0).is_err(), "duplicate (normalised)");
        assert!(inc.delete_edge(0, 2).is_err(), "not live");

        let mut vinc = IncrementalVertexPartitioner::fresh("LDG", 4, 1).unwrap();
        vinc.place_vertex(0, &[]).unwrap();
        assert!(vinc.place_vertex(0, &[]).is_err(), "already placed");
        assert!(vinc.place_vertex(1, &[9]).is_err(), "neighbour partition out of range");
    }

    #[test]
    fn materialize_detects_drift() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], false).unwrap();
        let full = EdgePartition::new(&g, 2, vec![0, 1]).unwrap();
        let inc = IncrementalEdgePartitioner::from_partition("Random", &g, &full, 1).unwrap();
        let other = Graph::from_edges(3, &[(0, 1)], false).unwrap();
        assert!(inc.materialize(&other).is_err(), "edge count mismatch");
        let swapped = Graph::from_edges(3, &[(0, 1), (0, 2)], false).unwrap();
        assert!(inc.materialize(&swapped).is_err(), "untracked edge");
        let reordered = Graph::from_edges(3, &[(1, 2), (0, 1)], false).unwrap();
        assert!(inc.materialize(&reordered).is_err(), "same edges, not in arrival order");
        // A reinserted edge arrives last.
        let mut inc = inc;
        inc.delete_edge(1, 0).unwrap();
        inc.insert_edge(0, 1).unwrap();
        assert!(inc.materialize(&g).is_err(), "(0, 1) no longer arrived first");
        let arrival = Graph::from_edges(3, &[(1, 2), (0, 1)], false).unwrap();
        assert_eq!(inc.materialize(&arrival).unwrap().assignments()[0], 1);
    }

    /// The map-keyed `materialize` the slots replaced: look each
    /// snapshot edge up among the live assignments.
    fn materialize_by_map(map: &HashMap<(u32, u32), u32>, k: u32, snap: &Graph) -> EdgePartition {
        let assignments = snap.edges().map(|e| map[&e]).collect();
        EdgePartition::new(snap, k, assignments).unwrap()
    }

    #[test]
    fn slot_materialize_equals_map_oracle_under_churn_and_rebase() {
        let g = base();
        let spec = StreamSpec {
            batches: 8,
            inserts_per_batch: 24,
            deletes_per_batch: 20,
            arrivals_per_batch: 3,
            edges_per_arrival: 2,
            seed: 41,
        };
        let plan = StreamPlan::generate(&g, &spec).unwrap();
        for name in ["Random", "DBH", "HDRF", "2PS-L", "HEP-10", "HEP-100"] {
            let full = registry::edge_partitioner(name).unwrap();
            let p0 = full.partition_edges(&g, 4, 1).unwrap();
            let mut inc = IncrementalEdgePartitioner::from_partition(name, &g, &p0, 1).unwrap();
            let mut map: HashMap<(u32, u32), u32> =
                g.edges().zip(p0.assignments().iter().copied()).collect();
            let mut sg = StreamGraph::new(&g);
            for (b, batch) in plan.batches().iter().enumerate() {
                sg.apply(batch).unwrap();
                for &(u, v) in &batch.inserts {
                    let p = inc.insert_edge(u, v).unwrap();
                    map.insert((u.min(v), u.max(v)), p);
                }
                for &(u, v) in &batch.deletes {
                    let p = inc.delete_edge(u, v).unwrap();
                    assert_eq!(map.remove(&(u.min(v), u.max(v))), Some(p), "{name} batch {b}");
                }
                let snap = sg.snapshot().unwrap();
                let oracle = materialize_by_map(&map, 4, &snap);
                assert_eq!(inc.materialize(&snap).unwrap(), oracle, "{name} batch {b}");
                if b == 3 {
                    let fresh = full.partition_edges(&snap, 4, 2).unwrap();
                    inc =
                        IncrementalEdgePartitioner::from_partition(name, &snap, &fresh, 1).unwrap();
                    map = snap.edges().zip(fresh.assignments().iter().copied()).collect();
                }
            }
        }
    }
}
