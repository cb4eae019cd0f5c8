//! Simultaneous multi-rank failure coverage: when a correlated domain
//! event kills ≥2 ranks in one rack at the same instant, every
//! collective in `mpisim::collectives` must come back with a typed
//! [`RankFailure`] — never a hang, never a panic — and the failure must
//! be widenable into the full [`FailureBatch`] lost in that detection
//! window, including through a shrunk communicator's rank map.

use mpisim::collectives::{allgather, allreduce, alltoall, barrier, tree, Ctx, Recorder};
use mpisim::{FailureBatch, IdealHost, P2pParams, RankFailure, RegCache};
use netsim::reliable::ReliableFabric;
use netsim::LinkParams;
use simcore::fault::{DomainEvent, DomainEventKind, DomainScope, DomainTopology};
use simcore::{Cycles, StreamRng};

/// Two racks of four nodes.
const P: usize = 8;

fn topo() -> DomainTopology {
    DomainTopology::new(P, 4)
}

/// A cluster of `P` ranks with rack 1 (nodes 4..8) fail-stopped at
/// `killed_at` — two-plus ranks lost in the same detection window.
struct Rig {
    fabric: ReliableFabric,
    host: IdealHost,
    params: P2pParams,
    regcaches: Vec<RegCache>,
    recorder: Recorder,
}

impl Rig {
    fn rack_killed(killed_at: Cycles) -> Rig {
        let mut fabric = ReliableFabric::new(P, LinkParams::fdr_infiniband());
        fabric.apply_domain_event(
            &topo(),
            &DomainEvent {
                at: killed_at,
                scope: DomainScope::Rack(1),
                kind: DomainEventKind::FailStop,
            },
        );
        Rig {
            fabric,
            host: IdealHost::new(),
            params: P2pParams::default(),
            regcaches: (0..P)
                .map(|i| RegCache::new(StreamRng::root(42).stream("rank", i as u64)))
                .collect(),
            recorder: None,
        }
    }

    fn ctx(&mut self) -> Ctx<'_, IdealHost> {
        Ctx {
            hybrid_aware: false,
            fabric: &mut self.fabric,
            host: &mut self.host,
            params: &self.params,
            regcaches: &mut self.regcaches,
            recorder: &mut self.recorder,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: None,
        }
    }
}

type Collective = fn(&mut Ctx<'_, IdealHost>, &[Cycles]) -> Result<Vec<Cycles>, RankFailure>;

/// Every collective entry point, small and large variants included.
fn all_collectives() -> Vec<(&'static str, Collective)> {
    vec![
        ("scatter", |c, s| tree::scatter(c, P, 0, 4096, s)),
        ("gather", |c, s| tree::gather(c, P, 0, 4096, s)),
        ("reduce", |c, s| tree::reduce(c, P, 0, 4096, s)),
        ("bcast", |c, s| tree::bcast(c, P, 0, 4096, s)),
        ("barrier", |c, s| barrier::barrier(c, P, s)),
        ("reduce_scatter", |c, s| barrier::reduce_scatter(c, P, 64 << 10, s)),
        ("allreduce_small", |c, s| allreduce::allreduce(c, P, 2048, s)),
        ("allreduce_rd", |c, s| allreduce::allreduce_rd(c, P, 2048, s)),
        ("allreduce_raben", |c, s| {
            allreduce::allreduce_rabenseifner(c, P, 256 << 10, s)
        }),
        ("allgather_small", |c, s| allgather::allgather(c, P, 2048, s)),
        ("allgather_rd", |c, s| allgather::allgather_rd(c, P, 2048, s)),
        ("allgather_ring", |c, s| allgather::allgather_ring(c, P, 64 << 10, s)),
        ("alltoall_small", |c, s| alltoall::alltoall(c, P, 256, s)),
        ("alltoall_bruck", |c, s| alltoall::alltoall_bruck(c, P, 256, s)),
        ("alltoall_pairwise", |c, s| {
            alltoall::alltoall_pairwise(c, P, 64 << 10, s)
        }),
    ]
}

/// ≥2 ranks in one rack die at t=0: every collective returns a typed
/// failure naming one of the dead ranks, detected within the protocol's
/// bounded budget — no hang, no panic, no "wrong rank blamed".
#[test]
fn every_collective_fails_typed_under_rack_loss() {
    let start = vec![Cycles::ZERO; P];
    for (name, run) in all_collectives() {
        let mut rig = Rig::rack_killed(Cycles::ZERO);
        let budget = rig.fabric.policy().detection_budget();
        let mut ctx = rig.ctx();
        let err = run(&mut ctx, &start)
            .expect_err(&format!("{name}: dead rack must surface as Err, not Ok"));
        assert!(
            (4..P).contains(&err.rank),
            "{name}: blamed rank {} is not in the dead rack",
            err.rank
        );
        // The observer is the other endpoint of the tripping message —
        // possibly a fellow casualty (the DAG walk still posts a dead
        // rank's sends), but never the blamed rank itself.
        assert!(
            err.observer != err.rank && err.observer < P,
            "{name}: bad observer {} for failed rank {}",
            err.observer,
            err.rank
        );
        // Detection is bounded: a handful of protocol rounds, each
        // within the retry budget — nowhere near a hang. The loose
        // multiplier covers multi-round algorithms (ring, Bruck) whose
        // later rounds start after earlier rounds' full timeouts.
        let bound = budget.raw().saturating_mul(4 * P as u64);
        assert!(
            err.detected_at.raw() <= bound,
            "{name}: detection at {:?} exceeds bound",
            err.detected_at
        );
    }
}

/// The primary failure widens into the full batch: `Ctx::dead_ranks` at
/// the detection time reports every rank the domain event killed, and
/// `FailureBatch::new` carries them sorted and deduped.
#[test]
fn failure_widens_to_the_full_batch() {
    let mut rig = Rig::rack_killed(Cycles::ZERO);
    let mut ctx = rig.ctx();
    let start = vec![Cycles::ZERO; P];
    let err = allreduce::allreduce(&mut ctx, P, 2048, &start).expect_err("rack is dead");
    let dead = ctx.dead_ranks(err.detected_at);
    assert_eq!(dead, vec![4, 5, 6, 7], "all four dead ranks in the window");
    let batch = FailureBatch::new(err, dead);
    assert_eq!(batch.len(), 4);
    assert_eq!(batch.ranks, vec![4, 5, 6, 7]);
    assert!(batch.ranks.contains(&batch.primary.rank));
    assert!(!batch.is_empty());
}

/// Multi-rank loss through a shrunk communicator: with a rank map in
/// place, failures and the dead-rank batch come back in *rank* space,
/// and a subsequent shrink to the survivors completes cleanly.
#[test]
fn batch_loss_respects_the_rank_map() {
    // 6-rank communicator over nodes [0,1,2,3,5,6] (node 4 already
    // excluded by an earlier shrink). Rack 1 dies: communicator ranks 4
    // and 5 (nodes 5 and 6) are lost in one window.
    let map = [0usize, 1, 2, 3, 5, 6];
    let p = map.len();
    let mut rig = Rig::rack_killed(Cycles::ZERO);
    let mut ctx = Ctx { rank_map: Some(&map), ..rig.ctx() };
    let start = vec![Cycles::ZERO; p];
    let err = allgather::allgather_ring(&mut ctx, p, 4096, &start).expect_err("two ranks dead");
    assert!(err.rank == 4 || err.rank == 5, "failure is in rank space: {}", err.rank);
    assert!(err.observer < 4, "observer is a surviving rank");
    let dead = ctx.dead_ranks(err.detected_at);
    assert_eq!(dead, vec![4, 5], "batch is in rank space too");
    // Shrink to the survivors and finish the job: the same collectives
    // run clean over the remaining four nodes.
    let survivors: Vec<usize> =
        (0..p).filter(|r| !dead.contains(r)).map(|r| map[r]).collect();
    assert_eq!(survivors, vec![0, 1, 2, 3]);
    let mut ctx = Ctx { rank_map: Some(&survivors), ..rig.ctx() };
    let start = vec![Cycles::from_ms(5); survivors.len()];
    let done = allreduce::allreduce(&mut ctx, survivors.len(), 2048, &start)
        .expect("survivors proceed at reduced width");
    assert!(done.iter().all(|&c| c > Cycles::from_ms(5)));
}

/// Blackouts are transient, not fatal: the same rack losing its links
/// for a bounded interval stalls the collective but completes it.
#[test]
fn rack_blackout_stalls_but_completes() {
    let mut rig = Rig::rack_killed(Cycles::from_secs(3600)); // kill far away
    let dur = Cycles::from_us(200);
    rig.fabric.apply_domain_event(
        &topo(),
        &DomainEvent {
            at: Cycles::ZERO,
            scope: DomainScope::Rack(1),
            kind: DomainEventKind::Blackout(dur),
        },
    );
    let mut ctx = rig.ctx();
    let start = vec![Cycles::ZERO; P];
    let done = allreduce::allreduce(&mut ctx, P, 2048, &start).expect("blackout is transient");
    assert!(
        done.iter().all(|&c| c >= dur),
        "every rank waited out the subtree blackout"
    );
}
