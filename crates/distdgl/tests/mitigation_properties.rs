//! Engine-level properties of the DistDGL mitigation layer.
//!
//! The per-step adoption guard promises that mitigation (work stealing
//! and speculative re-execution) never makes an epoch slower than the
//! unmitigated fault path, that an empty fault plan is bit-identical to
//! the healthy baseline, and that the whole pipeline is deterministic.
//! Unit tests pin those properties on hand-picked slowdowns; here they
//! are checked over seeded slowdown schedules and policies. Every case
//! is drawn from a fixed seed list, so the suite is reproducible and
//! offline.

use gp_cluster::{ClusterSpec, FaultEvent, FaultPlan, MitigationPolicy, MitigationReport, RunSpec};
use gp_distdgl::{DistDglConfig, DistDglEngine};
use gp_graph::generators::{community, CommunityParams};
use gp_graph::rng::Rng;
use gp_graph::{Graph, VertexSplit};
use gp_partition::prelude::*;
use gp_tensor::{ModelConfig, ModelKind};

const K: u32 = 4;
const EPOCHS: u32 = 6;
/// One case per seed.
const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

fn setup() -> (Graph, VertexPartition, VertexSplit) {
    let g = community(
        CommunityParams {
            n: 400,
            m: 4_000,
            communities: 4,
            intra_prob: 0.75,
            degree_exponent: 2.3,
        },
        5,
    )
    .unwrap();
    let split = VertexSplit::paper_default(g.num_vertices(), 3).unwrap();
    let part = Metis::default().partition_vertices(&g, K, 1).unwrap();
    (g, part, split)
}

fn config() -> DistDglConfig {
    DistDglConfig::paper(
        ModelConfig {
            kind: ModelKind::Sage,
            feature_dim: 32,
            hidden_dim: 32,
            num_layers: 2,
            num_classes: 8,
            seed: 0,
        },
        ClusterSpec::paper(K),
    )
}

/// Crash-free plan of one or two transient stragglers.
fn slowdown_plan(rng: &mut Rng) -> FaultPlan {
    FaultPlan {
        events: (0..1 + rng.below(2))
            .map(|_| {
                let machine = rng.below(u64::from(K)) as u32;
                let factor = 0.1 + 0.8 * rng.next_f64();
                let from = rng.below(3) as u32;
                let until = from + 1 + rng.below(3) as u32;
                FaultEvent::Slowdown { machine, from_epoch: from, until_epoch: until, factor }
            })
            .collect(),
        machines: K,
        epochs: EPOCHS,
        recovery_budget_secs: f64::INFINITY,
    }
}

fn policy(rng: &mut Rng) -> MitigationPolicy {
    match rng.below(3) {
        0 => MitigationPolicy::steal(),
        1 => MitigationPolicy::speculate(),
        _ => MitigationPolicy::all(),
    }
}

#[test]
fn mitigated_never_worse_and_deterministic_under_slowdowns() {
    let (g, part, split) = setup();
    let engine = DistDglEngine::builder(&g, &part, &split).config(config()).build().unwrap();
    let run = |spec: &RunSpec| engine.run(spec).unwrap().strict().unwrap();
    for seed in SEEDS {
        let mut rng = Rng::from_state(seed);
        let faulty = RunSpec::healthy().epochs(EPOCHS).faults(slowdown_plan(&mut rng));
        let mitigated = faulty.clone().mitigate(policy(&mut rng));
        let unmit = run(&faulty).into_faulty().0;
        let (a, b) = (run(&mitigated).into_faulty().0, run(&mitigated).into_faulty().0);
        assert_eq!(a.len(), EPOCHS as usize, "seed {seed}");
        for (epoch, ((a, b), unmit)) in a.iter().zip(&b).zip(&unmit).enumerate() {
            assert!(
                a.summary.epoch_time() <= unmit.summary.epoch_time() + 1e-9,
                "seed {seed} epoch {epoch}: mitigated {} > unmitigated {}",
                a.summary.epoch_time(),
                unmit.summary.epoch_time()
            );
            assert_eq!(a.summary.phases, b.summary.phases, "seed {seed} epoch {epoch}");
            assert_eq!(a.summary.counters, b.summary.counters, "seed {seed} epoch {epoch}");
            assert_eq!(a.mitigation, b.mitigation, "seed {seed} epoch {epoch}");
        }
    }
}

#[test]
fn empty_plan_mitigated_is_bit_identical() {
    let (g, part, split) = setup();
    let engine = DistDglEngine::builder(&g, &part, &split).config(config()).build().unwrap();
    for seed in SEEDS {
        let mut rng = Rng::from_state(seed);
        let policy = policy(&mut rng);
        let healthy = RunSpec::healthy().epochs(1 + rng.below(3) as u32);
        let base = engine.run(&healthy).unwrap().into_healthy();
        let spec = healthy.faults(FaultPlan::empty()).mitigate(policy);
        let (mit, error) = engine.run(&spec).unwrap().into_faulty();
        assert!(error.is_none(), "seed {seed}");
        assert_eq!(mit.len(), base.len(), "seed {seed}");
        for (m, b) in mit.iter().zip(&base) {
            assert_eq!(m.summary.phases, b.phases, "seed {seed}");
            assert_eq!(m.summary.counters, b.counters, "seed {seed}");
            assert_eq!(m.mitigation, MitigationReport::default(), "seed {seed}");
        }
    }
}
