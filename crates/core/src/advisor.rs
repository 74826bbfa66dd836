//! Partitioner advisor (extension).
//!
//! The paper closes hoping its findings "spawn the development of even
//! more effective graph partitioning algorithms", and cites EASE
//! (Merkel et al., ICDE 2023) for partitioner *selection*. This module
//! packages the study's machinery into exactly that: given a graph, a
//! workload and a training budget, it measures every candidate
//! partitioner's real partitioning time and simulated epoch time, and
//! ranks them by **net saving** over the budget:
//!
//! ```text
//! net(p) = epochs × (t_epoch(Random) − t_epoch(p)) − t_partition(p)
//! ```
//!
//! which is the paper's amortisation analysis (Tables 4/5) turned into a
//! decision procedure: a partitioner that amortises after more epochs
//! than the budget is ranked below cheaper ones even if it is faster per
//! epoch.

use gp_cluster::{RunSpec, TraceSink};
use gp_exec::{par_map, Threads};

use crate::family::Family;

/// One ranked candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Partitioner name.
    pub name: String,
    /// Real partitioning wall time (seconds).
    pub partition_seconds: f64,
    /// Simulated epoch time (seconds).
    pub epoch_seconds: f64,
    /// Speedup over Random partitioning.
    pub speedup: f64,
    /// Net simulated seconds saved over the whole training budget
    /// (negative = the partitioner does not pay off).
    pub net_saving: f64,
}

/// The advisor's output: candidates sorted by net saving, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// All candidates, best first.
    pub ranked: Vec<Candidate>,
    /// The training budget used.
    pub epochs: u32,
}

impl Recommendation {
    /// The winning partitioner.
    ///
    /// # Panics
    ///
    /// Never panics: the candidate set always includes Random.
    pub fn best(&self) -> &Candidate {
        &self.ranked[0]
    }
}

/// Recommend a partitioner of `family`'s roster for training its model
/// on `k` machines over `epochs` epochs.
///
/// Partitioning runs and per-candidate epoch simulations are cells on
/// the `gp-exec` pool. The simulated epoch times (and thus speedups and
/// the ranking for a fixed set of wall-clock partition times) are
/// bit-identical for every pool width; the measured
/// `partition_seconds` are wall clock and vary run to run exactly as
/// they do serially.
pub fn recommend<F: Family>(family: &F, k: u32, epochs: u32, threads: Threads) -> Recommendation {
    let timed = family.timed_partitions(k, 0xad71, threads);
    let epoch_jobs: Vec<_> = timed
        .iter()
        .map(|t| {
            move || {
                let engine =
                    family.engine(&t.partition, TraceSink::disabled()).expect("valid config");
                engine.run(&RunSpec::healthy()).expect("healthy run").into_healthy()[0].seconds
            }
        })
        .collect();
    let epoch_times = par_map(threads, epoch_jobs);
    let random_idx = timed.iter().position(|t| t.name == "Random").expect("baseline");
    let base_epoch = epoch_times[random_idx];
    let mut ranked: Vec<_> = timed
        .iter()
        .zip(epoch_times.iter())
        .map(|(t, &epoch)| candidate(&t.name, t.seconds, base_epoch, epoch, epochs))
        .collect();
    ranked.sort_by(|a, b| b.net_saving.partial_cmp(&a.net_saving).expect("finite"));
    Recommendation { ranked, epochs }
}

/// Build one candidate. Matching the paper's amortisation convention,
/// Random partitioning is treated as free.
fn candidate(name: &str, seconds: f64, base_epoch: f64, epoch: f64, epochs: u32) -> Candidate {
    let partition_seconds = if name == "Random" { 0.0 } else { seconds };
    Candidate {
        name: name.to_string(),
        partition_seconds,
        epoch_seconds: epoch,
        speedup: base_epoch / epoch,
        net_saving: f64::from(epochs) * (base_epoch - epoch) - partition_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperParams;
    use crate::family::{DistDgl, DistGnn};
    use gp_exec::Threads;
    use gp_graph::{DatasetId, GraphScale, VertexSplit};
    use gp_tensor::ModelKind;

    fn gnn(g: &gp_graph::Graph) -> DistGnn<'_> {
        DistGnn::new(g, PaperParams::middle().model(ModelKind::Sage))
    }

    #[test]
    fn distgnn_recommendation_beats_random_given_budget() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        // Full-batch training runs hundreds of epochs (paper Section 4.3).
        let rec = recommend(&gnn(&g), 8, 300, Threads::serial());
        assert_eq!(rec.ranked.len(), 6);
        let best = rec.best();
        assert_ne!(best.name, "Random", "with 300 epochs a quality partitioner wins");
        assert!(best.net_saving > 0.0);
        assert!(best.speedup > 1.0);
        // Ranking is by net saving, descending.
        for w in rec.ranked.windows(2) {
            assert!(w[0].net_saving >= w[1].net_saving);
        }
    }

    #[test]
    fn zero_budget_prefers_random() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let rec = recommend(&gnn(&g), 8, 0, Threads::serial());
        // With no training to amortise against, free partitioning wins.
        assert_eq!(rec.best().name, "Random");
    }

    #[test]
    fn random_candidate_has_neutral_stats() {
        let g = DatasetId::DI.generate(GraphScale::Tiny).unwrap();
        let rec = recommend(&gnn(&g), 4, 10, Threads::serial());
        let random = rec.ranked.iter().find(|c| c.name == "Random").unwrap();
        assert!((random.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distdgl_recommendation_ranks_all_six() {
        let g = DatasetId::OR.generate(GraphScale::Tiny).unwrap();
        let split = VertexSplit::paper_default(g.num_vertices(), 1).unwrap();
        let dgl = DistDgl {
            global_batch_size: 256,
            ..DistDgl::new(&g, &split, PaperParams::middle().model(ModelKind::Sage))
        };
        let rec = recommend(&dgl, 4, 500, Threads::serial());
        assert_eq!(rec.ranked.len(), 6);
        let best = rec.best();
        assert!(best.net_saving >= 0.0, "budget large enough for some win");
    }
}
