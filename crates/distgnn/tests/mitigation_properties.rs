//! Engine-level properties of the DistGNN mitigation layer.
//!
//! Adaptive cd-r and master rebalancing are adopted per epoch only when
//! they beat the unmitigated epoch (and a migration must pay for itself
//! within the epoch that commits it), so mitigation can never make an
//! epoch more expensive. Unit tests pin this on hand-picked schedules;
//! here it is checked over seeded slowdown/brownout schedules, together
//! with empty-plan bit-identity and determinism. Every case is drawn
//! from a fixed seed list, so the suite is reproducible and offline.

use gp_cluster::{ClusterSpec, FaultEvent, FaultPlan, MitigationPolicy, MitigationReport, RunSpec};
use gp_distgnn::{DistGnnConfig, DistGnnEngine};
use gp_graph::generators::{community, CommunityParams};
use gp_graph::rng::Rng;
use gp_graph::Graph;
use gp_partition::prelude::*;
use gp_tensor::{ModelConfig, ModelKind};

const K: u32 = 4;
const EPOCHS: u32 = 6;
/// One case per seed.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

fn setup() -> (Graph, EdgePartition) {
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
    let part = Hdrf::default().partition_edges(&g, K, 1).unwrap();
    (g, part)
}

fn config() -> DistGnnConfig {
    DistGnnConfig::paper(
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

/// Crash-free plan drawn from `seed`: one or two transient stragglers
/// plus an optional brownout — the fault classes the adaptive policy
/// reacts to.
fn stress_plan(seed: u64) -> FaultPlan {
    let mut rng = Rng::from_state(seed);
    let mut events: Vec<FaultEvent> = (0..1 + rng.below(2))
        .map(|_| {
            let machine = rng.below(u64::from(K)) as u32;
            let factor = 0.1 + 0.8 * rng.next_f64();
            let from = rng.below(3) as u32;
            let until = from + 1 + rng.below(3) as u32;
            FaultEvent::Slowdown { machine, from_epoch: from, until_epoch: until, factor }
        })
        .collect();
    if rng.chance(0.5) {
        let from = rng.below(3) as u32;
        events.push(FaultEvent::Degradation {
            from_epoch: from,
            until_epoch: from + 1 + rng.below(3) as u32,
            bandwidth_factor: 0.2 + 0.7 * rng.next_f64(),
            loss_rate: 0.02,
        });
    }
    FaultPlan { events, machines: K, epochs: EPOCHS, recovery_budget_secs: f64::INFINITY }
}

#[test]
fn mitigated_never_worse_and_deterministic() {
    let (g, part) = setup();
    let engine = DistGnnEngine::builder(&g, &part).config(config()).build().unwrap();
    let run = |spec: &RunSpec| engine.run(spec).unwrap().strict().unwrap();
    for seed in SEEDS {
        let faulty = RunSpec::healthy().epochs(EPOCHS).faults(stress_plan(seed));
        let mitigated = faulty.clone().mitigate(MitigationPolicy::adaptive());
        let unmit = run(&faulty).into_faulty().0;
        let (a, b) = (run(&mitigated).into_faulty().0, run(&mitigated).into_faulty().0);
        assert_eq!(a.len(), EPOCHS as usize, "seed {seed}");
        for (epoch, ((a, b), unmit)) in a.iter().zip(&b).zip(&unmit).enumerate() {
            // The engine's contract: the adopted epoch plus any
            // migration charged in it (migrate-then-run) never costs
            // more than the unmitigated epoch.
            let mit_cost = a.report.epoch_time()
                + a.recovery.total_overhead_seconds()
                + a.mitigation.migration_seconds;
            let unmit_cost = unmit.report.epoch_time() + unmit.recovery.total_overhead_seconds();
            assert!(
                mit_cost <= unmit_cost + 1e-9,
                "seed {seed} epoch {epoch}: mitigated {mit_cost} > unmitigated {unmit_cost}"
            );
            assert_eq!(a.report.phases, b.report.phases, "seed {seed} epoch {epoch}");
            assert_eq!(a.report.counters, b.report.counters, "seed {seed} epoch {epoch}");
            assert_eq!(a.mitigation, b.mitigation, "seed {seed} epoch {epoch}");
        }
    }
}

#[test]
fn empty_plan_mitigated_is_bit_identical() {
    let (g, part) = setup();
    let engine = DistGnnEngine::builder(&g, &part).config(config()).build().unwrap();
    for seed in SEEDS {
        let mut rng = Rng::from_state(seed);
        let healthy = RunSpec::healthy().epochs(1 + rng.below(3) as u32);
        let policy =
            if rng.chance(0.5) { MitigationPolicy::adaptive() } else { MitigationPolicy::all() };
        let base = engine.run(&healthy).unwrap().into_healthy();
        let spec = healthy.faults(FaultPlan::empty()).mitigate(policy);
        let (mit, error) = engine.run(&spec).unwrap().into_faulty();
        assert!(error.is_none(), "seed {seed}");
        assert_eq!(mit.len(), base.len(), "seed {seed}");
        for (m, b) in mit.iter().zip(&base) {
            assert_eq!(m.report.phases, b.phases, "seed {seed}");
            assert_eq!(m.report.counters, b.counters, "seed {seed}");
            assert_eq!(m.mitigation, MitigationReport::default(), "seed {seed}");
        }
    }
}
