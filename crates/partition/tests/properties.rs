//! Properties of the partitioners over seeded random graphs: every
//! partitioner (the paper's 12 plus the extensions) produces
//! structurally valid partitions, the quality metrics respect their
//! mathematical bounds, and the incremental partitioners agree with
//! their one-shot oracles.
//!
//! Each property runs one case per seed of a fixed list: the case's
//! inputs are drawn from `Rng::seed_from_u64(seed)`, and every assertion
//! names the seed, so a failure reproduces from its message alone.

use gp_graph::rng::Rng;
use gp_graph::{Graph, GraphBuilder, StreamGraph, StreamPlan, StreamSpec};
use gp_partition::prelude::*;
use gp_partition::registry::edge_partitioner;

/// Cases per property; each case runs whole partitioners.
const CASES: u64 = 24;

/// A connected-ish random graph on 10..150 vertices.
fn arb_graph(rng: &mut Rng) -> Graph {
    let n = rng.random_range(10..150u32);
    let density = rng.random_range(1..6usize);
    let mut b = GraphBuilder::undirected(n);
    // Spanning chain keeps most vertices non-isolated.
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    for _ in 0..(n as usize * density) {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        b.add_edge(u, v);
    }
    b.build().expect("in-range")
}

fn all_edge_partitioners() -> Vec<Box<dyn EdgePartitioner>> {
    vec![
        Box::new(RandomEdgePartitioner),
        Box::new(Dbh),
        Box::new(Hdrf::default()),
        Box::new(TwoPsL::default()),
        Box::new(Hep::hep10()),
        Box::new(Hep::hep100()),
        Box::new(Greedy),
        Box::new(Grid2d),
    ]
}

fn all_vertex_partitioners() -> Vec<Box<dyn VertexPartitioner>> {
    vec![
        Box::new(RandomVertexPartitioner),
        Box::new(Ldg::default()),
        Box::new(Spinner::default()),
        Box::new(Metis::default()),
        Box::new(ByteGnn::default()),
        Box::new(Kahip::default()),
        Box::new(ReLdg { passes: 3, slack: 1.1 }),
    ]
}

/// Edge partitions: every edge assigned once; RF within [1, k];
/// balance metrics >= 1.
#[test]
fn edge_partitioners_valid() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        let k = rng.random_range(1..10);
        let part_seed = rng.next_u64();
        for p in all_edge_partitioners() {
            let name = p.name();
            let part = p
                .partition_edges(&g, k, part_seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {name}: {e}"));
            let total: u64 = part.edge_counts().iter().sum();
            assert_eq!(total, u64::from(g.num_edges()), "seed {seed}: {name}");
            let rf = part.replication_factor();
            assert!(rf >= 1.0 - 1e-9, "seed {seed}: {name}: rf {rf}");
            assert!(rf <= f64::from(k) + 1e-9, "seed {seed}: {name}: rf {rf}");
            let no_edges = g.num_edges() == 0;
            assert!(part.edge_balance() >= 1.0 - 1e-9 || no_edges, "seed {seed}: {name}");
            assert!(part.vertex_balance() >= 1.0 - 1e-9 || no_edges, "seed {seed}: {name}");
        }
    }
}

/// Vertex partitions: every vertex assigned once; cut ratio within
/// [0, 1]; k = 1 has zero cut.
#[test]
fn vertex_partitioners_valid() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        let k = rng.random_range(1..10);
        let part_seed = rng.next_u64();
        for p in all_vertex_partitioners() {
            let name = p.name();
            let part = p
                .partition_vertices(&g, k, part_seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {name}: {e}"));
            let total: u64 = part.vertex_counts().iter().sum();
            assert_eq!(total, u64::from(g.num_vertices()), "seed {seed}: {name}");
            let cut = part.edge_cut_ratio();
            assert!((0.0..=1.0).contains(&cut), "seed {seed}: {name}: cut {cut}");
            if k == 1 {
                assert_eq!(part.cut_edges(), 0, "seed {seed}: {name}");
            }
        }
    }
}

/// Replica masks are consistent with edge assignments.
#[test]
fn replica_masks_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        let k = rng.random_range(1..8);
        let part = Hdrf::default().partition_edges(&g, k, rng.next_u64()).expect("valid");
        for (e, (u, v)) in g.edges().enumerate() {
            let p = part.edge_partition(e as u32);
            assert!(part.has_replica(u, p), "seed {seed}: edge {e}");
            assert!(part.has_replica(v, p), "seed {seed}: edge {e}");
        }
        // Total replicas equal the sum over partitions of covered counts.
        let sum: u64 = part.covered_vertices().iter().sum();
        assert_eq!(sum, part.total_replicas(), "seed {seed}");
    }
}

/// Subset balance of the full vertex set equals the vertex balance.
#[test]
fn subset_balance_degenerates() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        let k = rng.random_range(2..8);
        let part = Metis::default().partition_vertices(&g, k, rng.next_u64()).expect("valid");
        let all: Vec<u32> = (0..g.num_vertices()).collect();
        let diff = (part.subset_balance(&all) - part.vertex_balance()).abs();
        assert!(diff < 1e-9, "seed {seed}: diff {diff}");
    }
}

/// The edge-cut ratio of Random at large k approaches 1 - 1/k from
/// below (sanity of the statistical baseline).
#[test]
fn random_cut_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        let part =
            RandomVertexPartitioner.partition_vertices(&g, 8, rng.next_u64()).expect("valid");
        assert!(part.edge_cut_ratio() <= 1.0, "seed {seed}");
    }
}

/// Grid2D's provable replication bound `r + c - 1` holds for every
/// vertex of every graph at every seed.
#[test]
fn grid2d_bound_universal() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        // k = 16 -> 4x4 grid -> bound 7.
        let part = Grid2d.partition_edges(&g, 16, rng.next_u64()).expect("valid");
        for v in g.vertices() {
            let replicas = part.replica_count(v);
            assert!(replicas <= 7, "seed {seed}: vertex {v}: {replicas}");
        }
    }
}

/// An insert-only mutation schedule growing a graph from nothing.
fn insert_only_spec(batches: u32, seed: u64) -> StreamSpec {
    StreamSpec {
        batches,
        inserts_per_batch: 10,
        deletes_per_batch: 0,
        arrivals_per_batch: 3,
        edges_per_arrival: 3,
        seed,
    }
}

fn empty_graph() -> Graph {
    Graph::from_edges(0, &[], false).expect("empty base")
}

/// Drive an incremental edge partitioner over a stream from an empty
/// base, returning the state and the final live snapshot.
fn drive_edge_stream(
    name: &str,
    k: u32,
    seed: u64,
    spec: &StreamSpec,
) -> (IncrementalEdgePartitioner, Graph) {
    let empty = empty_graph();
    let plan = StreamPlan::generate(&empty, spec).expect("valid spec");
    let mut sg = StreamGraph::new(&empty);
    let mut inc = IncrementalEdgePartitioner::fresh(name, k, seed, false).expect("valid k");
    for batch in plan.batches() {
        sg.apply(batch).expect("plan mutations are valid");
        for &(u, v) in &batch.inserts {
            inc.insert_edge(u, v).expect("fresh edge");
        }
        for &(u, v) in &batch.deletes {
            inc.delete_edge(u, v).expect("live edge");
        }
    }
    (inc, sg.snapshot().expect("snapshot"))
}

/// The incremental-vs-batch oracle, universally quantified: HDRF's
/// online rule fed an insert-only stream in arrival order assigns
/// every edge exactly as the one-shot partitioner does on the final
/// snapshot (which enumerates edges in arrival order).
#[test]
fn hdrf_incremental_equals_one_shot_universally() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let batches = rng.random_range(2..14);
        let k = rng.random_range(2..9);
        let (part_seed, stream_seed) = (rng.next_u64(), rng.next_u64());
        let spec = insert_only_spec(batches, stream_seed);
        let (inc, snap) = drive_edge_stream("HDRF", k, part_seed, &spec);
        let one_shot = Hdrf::default().partition_edges(&snap, k, part_seed).expect("valid");
        let materialized = inc.materialize(&snap).expect("tracked");
        assert_eq!(materialized.assignments(), one_shot.assignments(), "seed {seed}");
        assert_eq!(materialized, one_shot, "seed {seed}");
    }
}

/// 2PS-L's oracle is batch-boundary independence: the same insert
/// sequence delivered batch by batch or replayed edge by edge in one
/// pass yields exactly the same assignments.
#[test]
fn twops_batch_boundaries_never_change_assignments() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let batches = rng.random_range(2..12);
        let k = rng.random_range(2..8);
        let (part_seed, stream_seed) = (rng.next_u64(), rng.next_u64());
        let spec = insert_only_spec(batches, stream_seed);
        let (inc, snap) = drive_edge_stream("2PS-L", k, part_seed, &spec);
        let plan = StreamPlan::generate(&empty_graph(), &spec).expect("valid");
        let mut one =
            IncrementalEdgePartitioner::fresh("2PS-L", k, part_seed, false).expect("valid k");
        for batch in plan.batches() {
            for &(u, v) in &batch.inserts {
                one.insert_edge(u, v).expect("fresh edge");
            }
        }
        assert_eq!(
            inc.materialize(&snap).expect("tracked").assignments(),
            one.materialize(&snap).expect("tracked").assignments(),
            "seed {seed}"
        );
    }
}

/// LDG's oracle on arrival-only streams: online placement of each
/// arriving vertex (seeing only already-placed neighbours) equals
/// the one-shot LDG fed the vertices in arrival order.
#[test]
fn ldg_incremental_equals_one_shot_universally() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let batches = rng.random_range(2..14);
        let k = rng.random_range(2..8);
        let empty = empty_graph();
        let spec = StreamSpec {
            batches,
            inserts_per_batch: 0,
            deletes_per_batch: 0,
            arrivals_per_batch: 4,
            edges_per_arrival: 3,
            seed: rng.next_u64(),
        };
        let plan = StreamPlan::generate(&empty, &spec).expect("valid");
        let n = batches * 4;
        let mut sg = StreamGraph::new(&empty);
        let mut inc = IncrementalVertexPartitioner::fresh("LDG", k, 1).expect("valid k");
        inc.provision_capacity(n);
        for batch in plan.batches() {
            sg.apply(batch).expect("valid");
            inc.place_arrivals(batch, sg.num_vertices() - batch.new_vertices)
                .expect("fresh vertices");
        }
        let snap = sg.snapshot().expect("snapshot");
        assert_eq!(snap.num_vertices(), n, "seed {seed}");
        let order: Vec<u32> = (0..n).collect();
        let one_shot = Ldg::default().partition_in_order(&snap, k, &order, 1).expect("valid");
        let materialized = inc.materialize(&snap).expect("tracked");
        assert_eq!(materialized.assignments(), one_shot.assignments(), "seed {seed}");
    }
}

/// Under arbitrary churn (inserts, deletes, arrivals) every roster
/// name's live ledger agrees exactly with the eagerly recomputed
/// partition — the deletion bookkeeping leaves no residue.
#[test]
fn ledger_matches_materialized_truth_under_churn() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let g = arb_graph(&mut rng);
        let k = rng.random_range(2..8);
        let (part_seed, stream_seed) = (rng.next_u64(), rng.next_u64());
        let spec = StreamSpec {
            batches: 6,
            inserts_per_batch: 8,
            deletes_per_batch: 10,
            arrivals_per_batch: 2,
            edges_per_arrival: 2,
            seed: stream_seed,
        };
        let plan = StreamPlan::generate(&g, &spec).expect("valid");
        for name in ["Random", "DBH", "HDRF", "2PS-L", "HEP-10"] {
            let full = edge_partitioner(name)
                .expect("roster name")
                .partition_edges(&g, k, part_seed)
                .expect("valid");
            let mut inc = IncrementalEdgePartitioner::from_partition(name, &g, &full, part_seed)
                .expect("matching partition");
            let mut sg = StreamGraph::new(&g);
            for batch in plan.batches() {
                sg.apply(batch).expect("valid");
                for &(u, v) in &batch.inserts {
                    inc.insert_edge(u, v).expect("fresh edge");
                }
                for &(u, v) in &batch.deletes {
                    inc.delete_edge(u, v).expect("live edge");
                }
            }
            let snap = sg.snapshot().expect("snapshot");
            let part = inc.materialize(&snap).expect("tracked");
            let case = format!("seed {seed}: {name}");
            assert_eq!(inc.num_live_edges(), u64::from(snap.num_edges()), "{case}");
            assert_eq!(inc.total_replicas(), part.total_replicas(), "{case}");
            assert_eq!(inc.live_replication_factor(), part.replication_factor(), "{case}");
            assert_eq!(inc.live_edge_balance(), part.edge_balance(), "{case}");
        }
    }
}
