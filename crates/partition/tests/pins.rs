//! Digest pins of every registered partitioner's assignment.
//!
//! `pins.txt` holds one FNV-1a digest of the assignment vector per
//! (kind, partitioner, graph, k): the 12 partitioners of the paper's
//! roster plus the 3 extensions, on `skewed` (the R-MAT graph of the
//! unit tests) and every tiny dataset, at k ∈ {1, 2, 3, 8, 32, 64}, all
//! with seed 1. METIS, KaHIP and Spinner, whose coarsening, refinement
//! and label propagation only do much work on larger graphs, are also
//! pinned on small-scale OR and DI (`OR-small`, `DI-small`) at
//! k ∈ {4, 8, 32}. Any change that moves a single assignment fails here.
//!
//! The debug suite checks the rows on `skewed`, DI and OR at
//! k ∈ {1, 2, 3, 8, 64}. The `#[ignore]`d test checks every row; run it
//! in release with `cargo test --release -p gp-partition -- --ignored`.
//!
//! There is no switch that rewrites the table. On a mismatch the test
//! prints the live rows; the full test prints the whole table, which
//! replaces `pins.txt` only after a declared model change.

use std::collections::BTreeMap;

use gp_graph::generators::{rmat, RmatParams};
use gp_graph::{DatasetId, Graph, GraphScale};
use gp_partition::registry;

const PINS: &str = include_str!("pins.txt");

const GRAPHS: [&str; 8] = ["skewed", "DI", "OR", "EN", "EU", "HW", "OR-small", "DI-small"];
const KS: [u32; 6] = [1, 2, 3, 8, 32, 64];
const SMALL_KS: [u32; 3] = [4, 8, 32];
/// The partitioners pinned on the small-scale graphs.
const SMALL_NAMES: [&str; 3] = ["METIS", "KaHIP", "Spinner"];
const SEED: u64 = 1;

fn is_small(graph: &str) -> bool {
    graph.ends_with("-small")
}

fn ks(graph: &str) -> &'static [u32] {
    if is_small(graph) {
        &SMALL_KS
    } else {
        &KS
    }
}

/// Whether a (graph, k) cell belongs to the rows the debug suite checks.
fn quick(graph: &str, k: u32) -> bool {
    ["skewed", "DI", "OR"].contains(&graph) && k != 32
}

fn graph_named(name: &str) -> Graph {
    match name {
        "skewed" => {
            rmat(RmatParams { scale: 9, edge_factor: 8, ..RmatParams::default() }, 7).unwrap()
        }
        _ => match name.strip_suffix("-small") {
            Some(id) => DatasetId::parse(id).unwrap().generate(GraphScale::Small).unwrap(),
            None => DatasetId::parse(name).unwrap().generate(GraphScale::Tiny).unwrap(),
        },
    }
}

/// FNV-1a over the little-endian bytes of an assignment vector.
fn fnv1a(assignments: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in assignments.iter().flat_map(|a| a.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(kind, name)` of every partitioner pinned on `graph`, in table order.
fn roster(graph: &str) -> Vec<(&'static str, &'static str)> {
    if is_small(graph) {
        return SMALL_NAMES.into_iter().map(|name| ("vertex", name)).collect();
    }
    let edge = registry::EDGE_PARTITIONERS.into_iter().chain(registry::EXTENSION_EDGE_PARTITIONERS);
    let vertex =
        registry::VERTEX_PARTITIONERS.into_iter().chain(registry::EXTENSION_VERTEX_PARTITIONERS);
    edge.map(|name| ("edge", name)).chain(vertex.map(|name| ("vertex", name))).collect()
}

/// `kind name graph k` for every pinned row, in table order.
fn keys(graph: &str, k: u32) -> impl Iterator<Item = String> + '_ {
    roster(graph).into_iter().map(move |(kind, name)| format!("{kind} {name} {graph} {k}"))
}

fn digest(kind: &str, name: &str, g: &Graph, k: u32) -> u64 {
    if kind == "edge" {
        let p = registry::edge_partitioner(name).unwrap();
        fnv1a(p.partition_edges(g, k, SEED).unwrap().assignments())
    } else {
        let p = registry::vertex_partitioner(name, None).unwrap();
        fnv1a(p.partition_vertices(g, k, SEED).unwrap().assignments())
    }
}

/// Live `key digest` rows of the cells `wanted` selects.
fn live_rows(wanted: impl Fn(&str, u32) -> bool) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for graph in GRAPHS {
        if !ks(graph).iter().any(|&k| wanted(graph, k)) {
            continue;
        }
        let g = graph_named(graph);
        for &k in ks(graph).iter().filter(|&&k| wanted(graph, k)) {
            let digests = roster(graph)
                .into_iter()
                .map(|(kind, name)| format!("{:016x}", digest(kind, name, &g, k)));
            rows.extend(keys(graph, k).zip(digests));
        }
    }
    rows
}

/// `(key, digest)` per committed row, in table order.
fn pinned() -> Vec<(&'static str, &'static str)> {
    PINS.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.rsplit_once(' ').expect("`kind name graph k digest` row"))
        .collect()
}

fn check(wanted: impl Fn(&str, u32) -> bool) {
    let pins: BTreeMap<&str, &str> = pinned().into_iter().collect();
    let live = live_rows(wanted);
    let moved: Vec<&str> = live
        .iter()
        .filter(|(key, digest)| pins.get(key.as_str()) != Some(&digest.as_str()))
        .map(|(key, _)| key.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} pinned partitions moved: {moved:?}\nlive rows:\n{}",
        moved.len(),
        live.len(),
        live.iter().map(|(key, digest)| format!("{key} {digest}\n")).collect::<String>()
    );
}

#[test]
fn pin_table_has_one_row_per_registered_partitioner_and_cell() {
    let expected: Vec<String> =
        GRAPHS.into_iter().flat_map(|g| ks(g).iter().flat_map(move |&k| keys(g, k))).collect();
    assert_eq!(expected.len(), 15 * 6 * KS.len() + SMALL_NAMES.len() * 2 * SMALL_KS.len());
    let keys: Vec<&str> = pinned().into_iter().map(|(key, _)| key).collect();
    assert_eq!(keys, expected);
}

#[test]
fn registry_partitions_match_pins_on_quick_cells() {
    check(quick);
}

#[test]
#[ignore = "every tiny graph, k = 32 and the small graphs: run in release"]
fn registry_partitions_match_every_pin() {
    check(|_, _| true);
}
