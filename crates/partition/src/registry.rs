//! Partitioner registry: every algorithm of the paper's Table 2, and the
//! extensions beyond it, by name.
//!
//! This is the one name → constructor table of the workspace: the
//! engines' repartition hooks, the experiment harness (`gp_core`
//! re-exports this module as `gp_core::registry`), the CLI and the
//! benchmarks all construct partitioners here.

use crate::prelude::*;

/// Names of the six edge partitioners (vertex-cut), baseline first.
pub const EDGE_PARTITIONERS: [&str; 6] = ["Random", "DBH", "HDRF", "2PS-L", "HEP-10", "HEP-100"];

/// Names of the six vertex partitioners (edge-cut), baseline first.
pub const VERTEX_PARTITIONERS: [&str; 6] =
    ["Random", "LDG", "Spinner", "METIS", "ByteGNN", "KaHIP"];

/// All edge-partitioner names.
pub fn edge_partitioner_names() -> &'static [&'static str] {
    &EDGE_PARTITIONERS
}

/// All vertex-partitioner names.
pub fn vertex_partitioner_names() -> &'static [&'static str] {
    &VERTEX_PARTITIONERS
}

/// Names of the extension partitioners beyond the paper's roster.
pub const EXTENSION_EDGE_PARTITIONERS: [&str; 2] = ["Greedy", "Grid2D"];

/// Names of the extension vertex partitioners beyond the paper's roster.
pub const EXTENSION_VERTEX_PARTITIONERS: [&str; 1] = ["ReLDG"];

/// Construct an edge partitioner by name (paper roster + extensions).
pub fn edge_partitioner(name: &str) -> Option<Box<dyn EdgePartitioner>> {
    Some(match name {
        "Random" => Box::new(RandomEdgePartitioner),
        "DBH" => Box::new(Dbh),
        "HDRF" => Box::new(Hdrf::default()),
        "2PS-L" => Box::new(TwoPsL::default()),
        "HEP-10" => Box::new(Hep::hep10()),
        "HEP-100" => Box::new(Hep::hep100()),
        "Greedy" => Box::new(Greedy),
        "Grid2D" => Box::new(Grid2d),
        _ => return None,
    })
}

/// Construct a vertex partitioner by name (paper roster + extensions).
/// `train_vertices` parameterises
/// ByteGNN (the only training-aware partitioner); the others ignore it.
pub fn vertex_partitioner(
    name: &str,
    train_vertices: Option<Vec<u32>>,
) -> Option<Box<dyn VertexPartitioner>> {
    Some(match name {
        "Random" => Box::new(RandomVertexPartitioner),
        "LDG" => Box::new(Ldg::default()),
        "Spinner" => Box::new(Spinner::default()),
        "METIS" => Box::new(Metis::default()),
        "ByteGNN" => match train_vertices {
            Some(t) => Box::new(ByteGnn::with_train_vertices(t)),
            None => Box::new(ByteGnn::default()),
        },
        "KaHIP" => Box::new(Kahip::default()),
        "ReLDG" => Box::new(ReLdg::default()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_edge_name_resolves() {
        for name in EDGE_PARTITIONERS {
            let p = edge_partitioner(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.name(), name);
        }
        assert!(edge_partitioner("nope").is_none());
    }

    #[test]
    fn every_vertex_name_resolves() {
        for name in VERTEX_PARTITIONERS {
            let p = vertex_partitioner(name, None).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.name(), name);
        }
        assert!(vertex_partitioner("nope", None).is_none());
    }

    #[test]
    fn twelve_partitioners_total() {
        assert_eq!(EDGE_PARTITIONERS.len() + VERTEX_PARTITIONERS.len(), 12);
    }

    #[test]
    fn extensions_resolve_too() {
        for name in EXTENSION_EDGE_PARTITIONERS {
            let p = edge_partitioner(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.name(), name);
        }
        for name in EXTENSION_VERTEX_PARTITIONERS {
            let p = vertex_partitioner(name, None).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn bytegnn_takes_train_set() {
        let p = vertex_partitioner("ByteGNN", Some(vec![1, 2, 3])).unwrap();
        assert_eq!(p.name(), "ByteGNN");
    }
}
