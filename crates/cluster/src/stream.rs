//! Streaming dynamic-graph run leg: spec and reports.
//!
//! A [`StreamLeg`] attaches a `gp_graph::stream` mutation schedule to a
//! [`crate::RunSpec`]: the engine replays the stream batch by batch,
//! keeps its partition current with `gp_partition::incremental`, and
//! trains one epoch per batch on the live snapshot. The
//! [`RepartitionPolicy`] decides when drift has accumulated enough to
//! pay for a full re-partition, whose cost is *simulated* seconds from
//! [`gp_partition::incremental::modeled_partition_seconds`] — never
//! wall clock, so stream artifacts stay bit-identical across thread
//! counts.
//!
//! Engines adopt a policy-triggered repartition only when it is not
//! worse than the incrementally maintained partition on **both** the
//! cut-quality metric and the probed epoch time (probed with a disabled
//! trace sink, so probing is unobservable). Two satellite invariants
//! hold by construction: quality right after an adopted repartition
//! never exceeds quality just before it, and `Threshold` policies are
//! never slower than `Never` on per-epoch training time at equal
//! stream seeds.
//!
//! Quality decay flows out of the run twice: structured, as
//! [`StreamBatchReport`] rows; and through the trace→metrics→diagnose
//! pipeline as the `stream_*` counter families of
//! [`crate::trace::counter_names`], exposed by the metrics registry as
//! `gnnpart_stream_*`.

use gp_graph::StreamSpec;
use gp_partition::RepartitionPolicy;

/// The streaming leg of a [`crate::RunSpec`]. The partitioner it drives
/// is named on the spec ([`crate::RunSpec::stream_partitioner`]), not
/// here.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamLeg {
    /// Seeded mutation schedule replayed batch by batch.
    pub spec: StreamSpec,
    /// When to re-run the full partitioner on the live snapshot.
    pub policy: RepartitionPolicy,
}

/// Per-batch row of a streaming run: the live snapshot's size, the
/// partition-quality metrics after absorbing the batch (and after any
/// adopted repartition), and the simulated costs.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBatchReport {
    /// Batch index (0-based); also the training epoch number.
    pub batch: u32,
    /// Vertices in the live snapshot (monotone: ids are never reused).
    pub num_vertices: u32,
    /// Live edges in the snapshot.
    pub num_edges: u64,
    /// Mutations applied this batch (inserts + deletes + arrivals).
    pub mutations: u32,
    /// Replication factor of the current partition (vertex-cut runs;
    /// 0 on edge-cut runs).
    pub replication_factor: f64,
    /// Edge-cut ratio of the current partition (edge-cut runs; 0 on
    /// vertex-cut runs).
    pub edge_cut: f64,
    /// Balance of the current partition: edge balance (vertex-cut) or
    /// vertex balance (edge-cut), `max / mean`.
    pub balance: f64,
    /// Training-vertex balance over the surviving base-graph training
    /// vertices (edge-cut runs; 0 on vertex-cut runs — arrivals are
    /// never added to the split).
    pub train_balance: f64,
    /// Whether a policy-triggered repartition fired *and* was adopted
    /// this batch.
    pub repartitioned: bool,
    /// Modeled cost of the adopted repartition in simulated seconds
    /// (0 when `repartitioned` is false).
    pub partition_seconds: f64,
    /// Simulated training time of the epoch run on this snapshot.
    pub epoch_seconds: f64,
}

/// Report of one streaming run: one [`StreamBatchReport`] per batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamRunReport {
    /// Partitioner name the run streamed with.
    pub partitioner: String,
    /// Stable label of the repartition policy.
    pub policy: String,
    /// Per-batch rows, in batch order.
    pub batches: Vec<StreamBatchReport>,
}

impl StreamRunReport {
    /// Number of adopted repartitions over the run.
    pub fn repartitions(&self) -> u32 {
        self.batches.iter().filter(|b| b.repartitioned).count() as u32
    }

    /// Total modeled repartitioning cost in simulated seconds.
    pub fn total_partition_seconds(&self) -> f64 {
        self.batches.iter().map(|b| b.partition_seconds).sum()
    }

    /// Total simulated training time over all epochs.
    pub fn total_epoch_seconds(&self) -> f64 {
        self.batches.iter().map(|b| b.epoch_seconds).sum()
    }

    /// Quality metric of the final batch (replication factor on
    /// vertex-cut runs, edge-cut ratio on edge-cut runs; 0 on an empty
    /// report).
    pub fn final_quality(&self) -> f64 {
        self.batches.last().map_or(0.0, |b| b.replication_factor.max(b.edge_cut))
    }

    /// Worst (maximum) quality metric over the run.
    pub fn peak_quality(&self) -> f64 {
        self.batches.iter().map(|b| b.replication_factor.max(b.edge_cut)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(batch: u32, rf: f64, repartitioned: bool) -> StreamBatchReport {
        StreamBatchReport {
            batch,
            num_vertices: 10,
            num_edges: 20,
            mutations: 5,
            replication_factor: rf,
            edge_cut: 0.0,
            balance: 1.1,
            train_balance: 0.0,
            repartitioned,
            partition_seconds: if repartitioned { 0.5 } else { 0.0 },
            epoch_seconds: 2.0,
        }
    }

    #[test]
    fn report_aggregates() {
        let report = StreamRunReport {
            partitioner: "HDRF".into(),
            policy: "periodic(2)".into(),
            batches: vec![row(0, 2.0, false), row(1, 2.5, true), row(2, 1.8, false)],
        };
        assert_eq!(report.repartitions(), 1);
        assert_eq!(report.total_partition_seconds(), 0.5);
        assert_eq!(report.total_epoch_seconds(), 6.0);
        assert_eq!(report.final_quality(), 1.8);
        assert_eq!(report.peak_quality(), 2.5);
    }

    #[test]
    fn empty_report_is_sane() {
        let report = StreamRunReport::default();
        assert_eq!(report.repartitions(), 0);
        assert_eq!(report.final_quality(), 0.0);
        assert_eq!(report.peak_quality(), 0.0);
    }
}
