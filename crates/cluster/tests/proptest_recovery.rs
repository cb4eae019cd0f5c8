//! Termination property for `cluster::recovery`: the module docs claim
//! every policy ends in a typed abort or completion — under *any* fault
//! schedule — because each failure permanently removes at least one
//! rank and detection windows are bounded. This test generates
//! adversarial correlated fault schedules (node kills, rack kills,
//! rack blackouts, in-flight send-depth crashes) and asserts the claim
//! with an explicit step bound: a run takes at most
//! `iterations + (p + 1) * (max_rollback + 2)` main-loop passes.

use cluster::{
    run_resilient, Cluster, ClusterConfig, HierarchicalCkpt, OsVariant, RecoveryCosts,
    RecoveryPolicy,
};
use netsim::reliable::CrashTrigger;
use proptest::prelude::*;
use proptest::collection::vec;
use simcore::fault::{DomainEvent, DomainEventKind, DomainScope};
use simcore::Cycles;
use workloads::miniapps::MiniApp;

const NODES: u32 = 6;
const NODES_PER_RACK: u32 = 3;
const ITERS: u32 = 6;

/// One generated fault: (kind, time-ish, target-ish) — decoded below so
/// the strategy stays a plain tuple.
type RawFault = (u8, u64, u64);

fn apply_fault(cfg: ClusterConfig, raw: RawFault) -> (ClusterConfig, Option<(usize, u64)>) {
    let (kind, t_ms, sel) = raw;
    let at = Cycles::from_ms(100 + t_ms);
    let node = (sel % NODES as u64) as usize;
    let rack = (sel % NODES.div_ceil(NODES_PER_RACK) as u64) as usize;
    match kind % 4 {
        0 => (
            cfg.with_domain_event(DomainEvent {
                at,
                scope: DomainScope::Node(node),
                kind: DomainEventKind::FailStop,
            }),
            None,
        ),
        1 => (
            cfg.with_domain_event(DomainEvent {
                at,
                scope: DomainScope::Rack(rack),
                kind: DomainEventKind::FailStop,
            }),
            None,
        ),
        2 => (
            cfg.with_domain_event(DomainEvent {
                at,
                scope: DomainScope::Rack(rack),
                // Long enough to sometimes blow max_down_wait (50 ms):
                // both transient stalls and spurious-death declarations.
                kind: DomainEventKind::Blackout(Cycles::from_ms(1 + t_ms % 90)),
            }),
            None,
        ),
        // In-flight crash: armed on the built cluster's fabric, not the
        // config.
        _ => (cfg, Some((node, 10 + sel % 200))),
    }
}

fn all_policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::Abort,
        RecoveryPolicy::ShrinkAndRedo,
        RecoveryPolicy::CheckpointRestart { interval: 2 },
        RecoveryPolicy::Hierarchical(HierarchicalCkpt::paper_default()),
        RecoveryPolicy::Hierarchical(HierarchicalCkpt {
            degraded: false,
            ..HierarchicalCkpt::paper_default()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn adversarial_schedules_end_typed_within_bounded_steps(
        faults in vec((0u8..4, 0u64..2500, 0u64..64), 0..5),
        seed in 0u64..1000,
    ) {
        let app = MiniApp { iterations: ITERS, ..MiniApp::hpccg() };
        for policy in all_policies() {
            let mut cfg = ClusterConfig::paper(OsVariant::McKernel)
                .with_nodes(NODES)
                .with_seed(0xBAD + seed)
                .with_domains(NODES_PER_RACK);
            cfg.horizon_secs = 30;
            let mut in_flight = Vec::new();
            for &raw in &faults {
                let (next, crash) = apply_fault(cfg, raw);
                cfg = next;
                if let Some(c) = crash {
                    in_flight.push(c);
                }
            }
            let mut c = Cluster::build(cfg);
            for (node, depth) in &in_flight {
                c.fabric.kill_node(*node, CrashTrigger::AfterSends(*depth));
            }
            let res = run_resilient(
                &mut c,
                &app,
                policy,
                &RecoveryCosts::default(),
                Cycles::from_ms(1),
            );
            // Typed abort or completion — reaching here at all means no
            // hang; the step bound makes "no livelock" explicit.
            match res {
                Ok(rep) => {
                    prop_assert!(rep.survivors >= 1);
                    prop_assert!(
                        rep.survivors as u32 + rep.ranks_lost == NODES,
                        "{}: {} survivors + {} lost != {NODES}",
                        policy.label(), rep.survivors, rep.ranks_lost
                    );
                    let bound = ITERS + (NODES + 1) * (policy.max_rollback() + 2);
                    prop_assert!(
                        rep.steps <= bound,
                        "{}: {} steps exceeds bound {bound}",
                        policy.label(),
                        rep.steps
                    );
                    prop_assert!(rep.time > Cycles::ZERO);
                }
                Err(f) => {
                    // Typed, attributed, and time-stamped — not a hang.
                    prop_assert!(f.rank < NODES as usize);
                    prop_assert!(f.detected_at > Cycles::ZERO);
                }
            }
        }
    }
}
