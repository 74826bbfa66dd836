//! Unified run scenario builder.
//!
//! [`RunSpec`] is one declarative description of an engine run — the
//! healthy baseline plus composable fault, mitigation, elastic,
//! network and stream legs:
//!
//! ```
//! use gp_cluster::{FaultPlan, MitigationPolicy, RunSpec, Scenario};
//!
//! let plan = FaultPlan::empty();
//! let spec = RunSpec::healthy().epochs(4).faults(plan).mitigate(MitigationPolicy::all());
//! assert!(matches!(spec.scenario(), Ok(Scenario::Faulty { .. })));
//! ```
//!
//! The engines consume a spec through `engine.run(&spec)`, which
//! resolves it to a [`Scenario`] and dispatches to the one matching
//! internal path, returning a common report enum. Invalid combinations
//! (mitigation layered on elastic membership, message-level network
//! faults without the elastic substrate they run on) are rejected up
//! front as [`RunSpecError`]s instead of panicking mid-run.

use gp_graph::StreamSpec;
use gp_partition::RepartitionPolicy;

use std::fmt::Debug;

use crate::checkpoint::CheckpointConfig;
use crate::detect::MitigationPolicy;
use crate::faults::FaultPlan;
use crate::membership::{ChurnPlan, ElasticOptions, ElasticRunReport};
use crate::net::{NetFaultPlan, NetRunOptions, PartitionedRunReport};
use crate::stream::{StreamLeg, StreamRunReport};

/// The elastic-membership leg of a [`RunSpec`]: a churn schedule plus
/// the checkpoint and handoff policies that make it survivable.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticSpec {
    /// Seeded leave/join/rejoin schedule.
    pub churn: ChurnPlan,
    /// Snapshot policy (period, retention, bandwidths).
    pub checkpoints: CheckpointConfig,
    /// Handoff/rebalance knobs.
    pub options: ElasticOptions,
}

/// The message-level network leg of a [`RunSpec`]. Requires the elastic
/// leg: partitions act on the fleet the churn schedule maintains.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSpec {
    /// Partition windows and per-message noise schedule.
    pub plan: NetFaultPlan,
    /// Degraded-mode vs abort-only policy.
    pub options: NetRunOptions,
}

/// Declarative description of one engine run.
///
/// Build with [`RunSpec::healthy`] and layer scenarios on with the
/// chainable setters; [`RunSpec::scenario`] validates the combination.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    epochs: u32,
    faults: Option<FaultPlan>,
    mitigate: Option<MitigationPolicy>,
    elastic: Option<ElasticSpec>,
    net: Option<NetSpec>,
    stream: Option<StreamLeg>,
    stream_partitioner: Option<String>,
}

impl RunSpec {
    /// A healthy single-epoch run — the base every scenario builds on.
    pub fn healthy() -> Self {
        RunSpec { epochs: 1, ..RunSpec::default() }
    }

    /// Set the run horizon in epochs.
    #[must_use]
    pub fn epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// Inject a machine-fault schedule (crashes, stragglers,
    /// degradations).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Run the straggler detector and the given mitigations on top of
    /// the (possibly healthy) fault schedule.
    #[must_use]
    pub fn mitigate(mut self, policy: MitigationPolicy) -> Self {
        self.mitigate = Some(policy);
        self
    }

    /// Run on an elastic fleet: apply a churn schedule under the given
    /// checkpoint and handoff policies.
    #[must_use]
    pub fn elastic(
        mut self,
        churn: ChurnPlan,
        checkpoints: CheckpointConfig,
        options: ElasticOptions,
    ) -> Self {
        self.elastic = Some(ElasticSpec { churn, checkpoints, options });
        self
    }

    /// Drop to message-level network faults (partitions, loss,
    /// duplication). Only valid together with [`RunSpec::elastic`].
    #[must_use]
    pub fn net(mut self, plan: NetFaultPlan, options: NetRunOptions) -> Self {
        self.net = Some(NetSpec { plan, options });
        self
    }

    /// Replay a dynamic-graph mutation stream, training one epoch per
    /// batch on the live snapshot while the engine's partition is
    /// maintained incrementally. Composes with no other leg; the run
    /// horizon is the stream's batch count (the `epochs` setter is
    /// ignored). The incremental partitioner defaults to the engine's
    /// streaming default (HDRF / LDG); override it with
    /// [`RunSpec::stream_partitioner`].
    #[must_use]
    pub fn stream(mut self, spec: StreamSpec, policy: RepartitionPolicy) -> Self {
        self.stream = Some(StreamLeg { spec, policy });
        self
    }

    /// Name the partitioner the stream leg drives incrementally (and
    /// re-runs on adopted repartitions). Order-independent with
    /// [`RunSpec::stream`]; resolving a spec that names a partitioner
    /// but never called [`RunSpec::stream`] is an error.
    #[must_use]
    pub fn stream_partitioner(mut self, name: impl Into<String>) -> Self {
        self.stream_partitioner = Some(name.into());
        self
    }

    /// The run horizon in epochs.
    pub fn num_epochs(&self) -> u32 {
        self.epochs
    }

    /// The fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Resolve the spec to the single scenario it describes.
    ///
    /// # Errors
    ///
    /// [`RunSpecError::MitigateWithElastic`] when mitigation is layered
    /// on an elastic or partitioned run (the elastic paths have their
    /// own recovery machinery), [`RunSpecError::NetWithoutElastic`]
    /// when message-level faults are requested without the elastic
    /// fleet they act on.
    pub fn scenario(&self) -> Result<Scenario<'_>, RunSpecError> {
        if let Some(leg) = &self.stream {
            if self.faults.is_some()
                || self.mitigate.is_some()
                || self.elastic.is_some()
                || self.net.is_some()
            {
                return Err(RunSpecError::StreamWithOtherLegs);
            }
            return Ok(Scenario::Stream { leg, partitioner: self.stream_partitioner.as_deref() });
        }
        if self.stream_partitioner.is_some() {
            return Err(RunSpecError::StreamPartitionerWithoutStream);
        }
        if self.mitigate.is_some() && (self.elastic.is_some() || self.net.is_some()) {
            return Err(RunSpecError::MitigateWithElastic);
        }
        if let Some(net) = &self.net {
            let Some(elastic) = &self.elastic else {
                return Err(RunSpecError::NetWithoutElastic);
            };
            return Ok(Scenario::Partitioned { faults: self.faults.as_ref(), elastic, net });
        }
        if let Some(elastic) = &self.elastic {
            return Ok(Scenario::Elastic { faults: self.faults.as_ref(), elastic });
        }
        if self.faults.is_none() && self.mitigate.is_none() {
            return Ok(Scenario::Healthy);
        }
        Ok(Scenario::Faulty {
            plan: self.faults.as_ref(),
            policy: self.mitigate.unwrap_or_else(MitigationPolicy::none),
        })
    }
}

/// The resolved scenario of a [`RunSpec`] — exactly one of the engines'
/// five internal run paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario<'a> {
    /// No faults, no mitigation, fixed fleet.
    Healthy,
    /// Fixed fleet under machine faults priced by the recovery model,
    /// with the detector and mitigations the policy arms.
    Faulty {
        /// Fault schedule (`None` = healthy cluster, the detector still
        /// runs).
        plan: Option<&'a FaultPlan>,
        /// Which mitigations are armed ([`MitigationPolicy::none`] when
        /// [`RunSpec::mitigate`] was not called).
        policy: MitigationPolicy,
    },
    /// Elastic fleet under churn, checkpoint-protected.
    Elastic {
        /// Machine faults layered on the churn (`None` = churn only).
        faults: Option<&'a FaultPlan>,
        /// Churn schedule and policies.
        elastic: &'a ElasticSpec,
    },
    /// Elastic fleet with message-level network faults.
    Partitioned {
        /// Machine faults layered on the churn (`None` = none).
        faults: Option<&'a FaultPlan>,
        /// Churn schedule and policies.
        elastic: &'a ElasticSpec,
        /// Message-level fault schedule and partition policy.
        net: &'a NetSpec,
    },
    /// Dynamic-graph stream replay: one training epoch per mutation
    /// batch on the live snapshot, partition maintained incrementally.
    Stream {
        /// Mutation schedule and repartition policy.
        leg: &'a StreamLeg,
        /// The partitioner [`RunSpec::stream_partitioner`] named;
        /// `None` = the engine's default (HDRF for the vertex-cut
        /// engine, LDG for the edge-cut engine).
        partitioner: Option<&'a str>,
    },
}

/// Result of an engine's `run` — one variant per resolved [`Scenario`],
/// generic over the engine's healthy (`H`) and faulty (`F`) epoch
/// reports and its error type (`E`).
///
/// The fixed-fleet fault scenario never aborts mid-run: on an
/// unrecoverable fault the run truncates, keeping the epochs that
/// completed and recording the error in the variant
/// ([`crate::run_until_error`]); [`RunReport::strict`] restores
/// fail-fast semantics.
#[derive(Debug)]
pub enum RunReport<H, F, E> {
    /// Healthy fixed-fleet run: one report per epoch.
    Healthy {
        /// Per-epoch reports, epoch order.
        epochs: Vec<H>,
    },
    /// Run under a fault plan, mitigated as the policy arms; truncated
    /// at the first unrecoverable fault.
    Faulty {
        /// Reports of the epochs that completed, epoch order.
        epochs: Vec<F>,
        /// The fault that ended the run early, if any.
        error: Option<E>,
    },
    /// Elastic-membership run.
    Elastic(ElasticRunReport),
    /// Elastic run under message-level network faults.
    Partitioned(PartitionedRunReport),
    /// Streaming dynamic-graph run: one epoch per mutation batch.
    Stream(StreamRunReport),
}

impl<H: Debug, F: Debug, E: Debug> RunReport<H, F, E> {
    /// Fail-fast view: a run cut short by a terminal fault becomes that
    /// fault's `Err`, everything else passes through unchanged.
    ///
    /// # Errors
    ///
    /// The recorded terminal fault, if the run ended early.
    pub fn strict(self) -> Result<Self, E> {
        match self {
            RunReport::Faulty { error: Some(e), .. } => Err(e),
            other => Ok(other),
        }
    }

    /// A healthy run's per-epoch reports.
    ///
    /// # Panics
    ///
    /// Panics when the run was not healthy.
    pub fn into_healthy(self) -> Vec<H> {
        match self {
            RunReport::Healthy { epochs } => epochs,
            other => panic!("expected a healthy run report, got {other:?}"),
        }
    }

    /// A faulty run's completed epochs and truncation error.
    ///
    /// # Panics
    ///
    /// Panics when the run was not faulty.
    pub fn into_faulty(self) -> (Vec<F>, Option<E>) {
        match self {
            RunReport::Faulty { epochs, error } => (epochs, error),
            other => panic!("expected a faulty run report, got {other:?}"),
        }
    }

    /// An elastic run's report.
    ///
    /// # Panics
    ///
    /// Panics when the run was not elastic.
    pub fn into_elastic(self) -> ElasticRunReport {
        match self {
            RunReport::Elastic(r) => r,
            other => panic!("expected an elastic run report, got {other:?}"),
        }
    }

    /// A partitioned run's report.
    ///
    /// # Panics
    ///
    /// Panics when the run was not partitioned.
    pub fn into_partitioned(self) -> PartitionedRunReport {
        match self {
            RunReport::Partitioned(r) => r,
            other => panic!("expected a partitioned run report, got {other:?}"),
        }
    }

    /// A stream run's report.
    ///
    /// # Panics
    ///
    /// Panics when the run was not a stream run.
    pub fn into_stream(self) -> StreamRunReport {
        match self {
            RunReport::Stream(r) => r,
            other => panic!("expected a stream run report, got {other:?}"),
        }
    }
}

/// Rejected [`RunSpec`] combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSpecError {
    /// Mitigation composed with elastic membership or network faults —
    /// the elastic paths carry their own recovery machinery.
    MitigateWithElastic,
    /// Message-level network faults without the elastic fleet they act
    /// on.
    NetWithoutElastic,
    /// A stream leg composed with faults, mitigation, elastic
    /// membership or network faults — the stream path rebuilds the
    /// training substrate every batch and supports none of them.
    StreamWithOtherLegs,
    /// [`RunSpec::stream_partitioner`] named a partitioner but no
    /// stream leg was attached with [`RunSpec::stream`].
    StreamPartitionerWithoutStream,
}

impl std::fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSpecError::MitigateWithElastic => {
                write!(f, "mitigation cannot compose with elastic/partitioned runs")
            }
            RunSpecError::NetWithoutElastic => {
                write!(f, "network faults require an elastic fleet (add .elastic(..))")
            }
            RunSpecError::StreamWithOtherLegs => {
                write!(f, "a stream leg cannot compose with faults/mitigation/elastic/net legs")
            }
            RunSpecError::StreamPartitionerWithoutStream => {
                write!(f, "stream_partitioner set without a stream leg (add .stream(..))")
            }
        }
    }
}

impl std::error::Error for RunSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn elastic_args() -> (ChurnPlan, CheckpointConfig, ElasticOptions) {
        (ChurnPlan::empty(), CheckpointConfig::default(), ElasticOptions::default())
    }

    #[test]
    fn healthy_by_default() {
        let spec = RunSpec::healthy();
        assert_eq!(spec.num_epochs(), 1);
        assert!(matches!(spec.scenario(), Ok(Scenario::Healthy)));
    }

    #[test]
    fn faults_alone_is_faulty() {
        let spec = RunSpec::healthy().epochs(8).faults(FaultPlan::empty());
        assert_eq!(spec.num_epochs(), 8);
        let none = MitigationPolicy::none();
        assert!(
            matches!(spec.scenario(), Ok(Scenario::Faulty { plan: Some(_), policy }) if policy == none)
        );
    }

    #[test]
    fn mitigate_with_or_without_faults() {
        let with = RunSpec::healthy().faults(FaultPlan::empty()).mitigate(MitigationPolicy::all());
        assert!(matches!(with.scenario(), Ok(Scenario::Faulty { plan: Some(_), .. })));
        let without = RunSpec::healthy().mitigate(MitigationPolicy::steal());
        let steal = MitigationPolicy::steal();
        assert!(
            matches!(without.scenario(), Ok(Scenario::Faulty { plan: None, policy }) if policy == steal)
        );
    }

    #[test]
    fn a_plan_with_or_without_a_policy_is_one_faulty_scenario() {
        let plan = FaultPlan::generate(&crate::FaultSpec::standard(4, 6, 2.0, 7));
        let plain = RunSpec::healthy().epochs(6).faults(plan.clone());
        let none = plain.clone().mitigate(MitigationPolicy::none());
        assert_eq!(plain.scenario(), none.scenario());
        assert_eq!(
            plain.scenario(),
            Ok(Scenario::Faulty { plan: Some(&plan), policy: MitigationPolicy::none() })
        );
        let (churn, ckpt, opts) = elastic_args();
        let elastic = none.elastic(churn, ckpt, opts);
        assert_eq!(elastic.scenario().unwrap_err(), RunSpecError::MitigateWithElastic);
    }

    #[test]
    fn elastic_and_partitioned() {
        let (churn, ckpt, opts) = elastic_args();
        let spec = RunSpec::healthy().epochs(10).elastic(churn.clone(), ckpt, opts);
        assert!(matches!(spec.scenario(), Ok(Scenario::Elastic { faults: None, .. })));
        let spec =
            spec.faults(FaultPlan::empty()).net(NetFaultPlan::empty(), NetRunOptions::default());
        assert!(matches!(spec.scenario(), Ok(Scenario::Partitioned { faults: Some(_), .. })));
    }

    #[test]
    fn net_requires_elastic() {
        let spec = RunSpec::healthy().net(NetFaultPlan::empty(), NetRunOptions::default());
        assert_eq!(spec.scenario().unwrap_err(), RunSpecError::NetWithoutElastic);
    }

    #[test]
    fn mitigate_conflicts_with_elastic() {
        let (churn, ckpt, opts) = elastic_args();
        let spec = RunSpec::healthy().mitigate(MitigationPolicy::all()).elastic(churn, ckpt, opts);
        assert_eq!(spec.scenario().unwrap_err(), RunSpecError::MitigateWithElastic);
    }

    #[test]
    fn errors_display() {
        assert!(RunSpecError::MitigateWithElastic.to_string().contains("mitigation"));
        assert!(RunSpecError::NetWithoutElastic.to_string().contains("elastic"));
        assert!(RunSpecError::StreamWithOtherLegs.to_string().contains("stream"));
        assert!(RunSpecError::StreamPartitionerWithoutStream.to_string().contains("stream"));
    }

    #[test]
    fn stream_leg_resolves() {
        let spec =
            RunSpec::healthy().stream(StreamSpec::paper_default(4, 1), RepartitionPolicy::Never);
        match spec.scenario().unwrap() {
            Scenario::Stream { leg, partitioner } => {
                assert_eq!(leg.spec.batches, 4);
                assert_eq!(leg.policy, RepartitionPolicy::Never);
                assert_eq!(partitioner, None);
            }
            other => panic!("expected stream scenario, got {other:?}"),
        }
    }

    #[test]
    fn stream_partitioner_is_order_independent() {
        let before = RunSpec::healthy()
            .stream_partitioner("HDRF")
            .stream(StreamSpec::paper_default(2, 0), RepartitionPolicy::Periodic { every: 2 });
        let after = RunSpec::healthy()
            .stream(StreamSpec::paper_default(2, 0), RepartitionPolicy::Periodic { every: 2 })
            .stream_partitioner("HDRF");
        for spec in [before, after] {
            match spec.scenario().unwrap() {
                Scenario::Stream { partitioner, .. } => assert_eq!(partitioner, Some("HDRF")),
                other => panic!("expected stream scenario, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_composes_with_nothing_else() {
        let spec = RunSpec::healthy()
            .stream(StreamSpec::paper_default(2, 0), RepartitionPolicy::Never)
            .faults(FaultPlan::empty());
        assert_eq!(spec.scenario().unwrap_err(), RunSpecError::StreamWithOtherLegs);
        let (churn, ckpt, opts) = elastic_args();
        let spec = RunSpec::healthy()
            .stream(StreamSpec::paper_default(2, 0), RepartitionPolicy::Never)
            .elastic(churn, ckpt, opts);
        assert_eq!(spec.scenario().unwrap_err(), RunSpecError::StreamWithOtherLegs);
    }

    #[test]
    fn stream_partitioner_requires_stream_leg() {
        let spec = RunSpec::healthy().stream_partitioner("LDG");
        assert_eq!(spec.scenario().unwrap_err(), RunSpecError::StreamPartitionerWithoutStream);
    }
}
