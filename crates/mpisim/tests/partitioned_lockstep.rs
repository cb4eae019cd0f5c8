//! Lock-step equivalence: every collective entry point, run by the
//! collectives walk on one shared fabric vs recorded and replayed one
//! program per node, over randomized small topologies.
//!
//! For each scenario the final per-rank clocks, fabric traffic counters,
//! reliable-protocol counters and registration-cache stats of the
//! replay must be *identical* to the walk's.

use mpisim::collectives::{allgather, allreduce, alltoall, barrier, tree, Ctx, Recorder};
use mpisim::host::IdealHost;
use mpisim::pcoll::{replay, NodeSeat, ReplayConfig};
use mpisim::record::{decode, resolve, RecordSink};
use mpisim::regcache::RegCache;
use mpisim::{P2pParams, RankFailure};
use netsim::reliable::ReliableFabric;
use netsim::LinkParams;
use simcore::{Cycles, StreamRng};
use std::sync::Arc;

const OPS: usize = 15;

/// Dispatch entry point `op` (0..15). Ops 0..4 are rooted trees.
fn run_op<H: mpisim::HostModel>(
    ctx: &mut Ctx<'_, H>,
    op: usize,
    p: usize,
    root: usize,
    bytes: u64,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    match op {
        0 => tree::scatter(ctx, p, root, bytes, start),
        1 => tree::gather(ctx, p, root, bytes, start),
        2 => tree::reduce(ctx, p, root, bytes, start),
        3 => tree::bcast(ctx, p, root, bytes, start),
        4 => allreduce::allreduce(ctx, p, bytes, start),
        5 => allreduce::allreduce_rd(ctx, p, bytes, start),
        6 => allreduce::allreduce_rabenseifner(ctx, p, bytes, start),
        7 => allgather::allgather(ctx, p, bytes, start),
        8 => allgather::allgather_rd(ctx, p, bytes, start),
        9 => allgather::allgather_ring(ctx, p, bytes, start),
        10 => alltoall::alltoall(ctx, p, bytes, start),
        11 => alltoall::alltoall_bruck(ctx, p, bytes, start),
        12 => alltoall::alltoall_pairwise(ctx, p, bytes, start),
        13 => barrier::barrier(ctx, p, start),
        14 => barrier::reduce_scatter(ctx, p, bytes, start),
        _ => unreachable!(),
    }
}

fn needs_pow2(op: usize) -> bool {
    matches!(op, 5 | 6 | 8 | 14)
}

fn caches(p: usize) -> Vec<RegCache> {
    (0..p).map(|i| RegCache::new(StreamRng::root(42).stream("rank", i as u64))).collect()
}

struct Scenario {
    op: usize,
    p: usize,
    root: usize,
    bytes: u64,
    hybrid_aware: bool,
    start: Vec<Cycles>,
}

fn draw_scenario(rng: &mut StreamRng, op: usize) -> Scenario {
    let mut p = [2usize, 3, 4, 5, 6, 8][rng.range_u64(0, 6) as usize];
    if needs_pow2(op) && !p.is_power_of_two() {
        p = p.next_power_of_two();
    }
    // Spans eager-control, eager-bulk (total >= 4096) and rendezvous.
    let bytes = [8u64, 700, 2048, 5 << 10, 20 << 10, 70 << 10][rng.range_u64(0, 6) as usize];
    let root = rng.range_u64(0, p as u64) as usize;
    let hybrid_aware = rng.chance(0.5);
    let start: Vec<Cycles> =
        (0..p).map(|_| Cycles::from_ns(rng.range_u64(0, 50_000))).collect();
    Scenario { op, p, root, bytes, hybrid_aware, start }
}

struct WalkResult {
    clocks: Vec<Cycles>,
    traffic: (u64, u64),
    reliable: netsim::ReliableStats,
    cache_stats: Vec<(u64, u64)>,
}

fn walk(s: &Scenario) -> WalkResult {
    let mut fabric = ReliableFabric::new(s.p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut rcs = caches(s.p);
    let mut rec: Recorder = None;
    let mut ctx = Ctx {
        hybrid_aware: s.hybrid_aware,
        fabric: &mut fabric,
        host: &mut host,
        params: &params,
        regcaches: &mut rcs,
        recorder: &mut rec,
        reduce_per_kib: Cycles::from_ns(350),
        churn: 0.0,
        rank_map: None,
        sink: None,
    };
    let clocks = run_op(&mut ctx, s.op, s.p, s.root, s.bytes, &s.start).expect("fault-free");
    WalkResult {
        clocks,
        traffic: fabric.stats(),
        reliable: fabric.reliable_stats(),
        cache_stats: rcs.iter().map(RegCache::stats).collect(),
    }
}

/// Record once and replay; returns resolved clocks and merged fabric
/// state.
fn record_replay(s: &Scenario) -> WalkResult {
    let mut fabric = ReliableFabric::new(s.p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut rcs = caches(s.p);
    let mut rec: Recorder = None;
    let mut sink = RecordSink::new(s.p);
    let sym = {
        let mut ctx = Ctx {
            hybrid_aware: s.hybrid_aware,
            fabric: &mut fabric,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: Some(&mut sink),
        };
        run_op(&mut ctx, s.op, s.p, s.root, s.bytes, &s.start).expect("recording never fails")
    };
    let cfg = ReplayConfig {
        params,
        link: *fabric.params(),
        policy: *fabric.policy(),
        lookahead: fabric.lookahead(),
        view: Arc::new(fabric.partition_view().expect("fault-free")),
    };
    let seats: Vec<NodeSeat<IdealHost>> = fabric
        .detach_ends()
        .into_iter()
        .zip(caches(s.p))
        .map(|(end, regcache)| NodeSeat { host: IdealHost::new(), regcache, end })
        .collect();
    let (res, seats) = replay(sink.into_ops(), seats, &cfg, 1);
    let logs = res.expect("fault-free replay");
    let clocks: Vec<Cycles> = sym
        .iter()
        .enumerate()
        .map(|(r, &tok)| resolve(decode(tok, r), &logs[r]))
        .collect();
    let cache_stats = seats.iter().map(|st| st.regcache.stats()).collect();
    fabric.absorb_ends(seats.into_iter().map(|st| st.end).collect());
    WalkResult {
        clocks,
        traffic: fabric.stats(),
        reliable: fabric.reliable_stats(),
        cache_stats,
    }
}

#[test]
fn every_entry_point_replays_identically() {
    let mut rng = StreamRng::root(0xD1CE);
    for case in 0..45 {
        let op = case % OPS;
        let s = draw_scenario(&mut rng, op);
        let want = walk(&s);
        let got = record_replay(&s);
        let tag = format!(
            "op {} p {} root {} bytes {} hybrid {}",
            s.op, s.p, s.root, s.bytes, s.hybrid_aware
        );
        assert_eq!(got.clocks, want.clocks, "final clocks: {tag}");
        assert_eq!(got.traffic, want.traffic, "traffic counters: {tag}");
        assert_eq!(got.reliable, want.reliable, "protocol counters: {tag}");
        assert_eq!(got.cache_stats, want.cache_stats, "regcache stats: {tag}");
    }
}

/// Chained collectives reuse one fabric/cache/host state: the replay
/// must carry warm state across operations exactly like the walk.
#[test]
fn chained_operations_carry_warm_state() {
    let p = 8;
    let params = P2pParams::default();
    let sizes = [70 << 10, 20 << 10, 8u64];
    // Walk the chain.
    let mut fabric = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let mut rcs = caches(p);
    let mut rec: Recorder = None;
    let mut clocks = vec![Cycles::ZERO; p];
    for &b in &sizes {
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut fabric,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: None,
        };
        clocks = allreduce::allreduce(&mut ctx, p, b, &clocks).expect("fault-free");
    }
    // Record the same chain in one sink, then replay once.
    let mut rfab = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut rhost = IdealHost::new();
    let mut rrcs = caches(p);
    let mut rrec: Recorder = None;
    let mut sink = RecordSink::new(p);
    let mut sym = vec![Cycles::ZERO; p];
    for &b in &sizes {
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut rfab,
            host: &mut rhost,
            params: &params,
            regcaches: &mut rrcs,
            recorder: &mut rrec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: Some(&mut sink),
        };
        sym = allreduce::allreduce(&mut ctx, p, b, &sym).expect("recording");
    }
    let cfg = ReplayConfig {
        params,
        link: *rfab.params(),
        policy: *rfab.policy(),
        lookahead: rfab.lookahead(),
        view: Arc::new(rfab.partition_view().expect("fault-free")),
    };
    // The walk's counters: what the replay must report.
    let cumulative = fabric.stats();
    let rel_cumulative = fabric.reliable_stats();
    let mut fab2 = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let seats: Vec<NodeSeat<IdealHost>> = fab2
        .detach_ends()
        .into_iter()
        .zip(caches(p))
        .map(|(end, regcache)| NodeSeat { host: IdealHost::new(), regcache, end })
        .collect();
    let (res, seats) = replay(sink.into_ops(), seats, &cfg, 1);
    let logs = res.expect("fault-free replay");
    for (r, (&tok, &want)) in sym.iter().zip(&clocks).enumerate() {
        assert_eq!(resolve(decode(tok, r), &logs[r]), want, "rank {r}");
    }
    for (r, (st, w)) in seats.iter().zip(&rcs).enumerate() {
        assert_eq!(st.regcache.stats(), w.stats(), "cache stats rank {r}");
    }
    fab2.absorb_ends(seats.into_iter().map(|st| st.end).collect());
    assert_eq!(fab2.stats(), cumulative, "cumulative stats");
    assert_eq!(fab2.reliable_stats(), rel_cumulative);
}
