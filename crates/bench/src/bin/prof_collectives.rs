//! Profiling harness for the `mpisim` collectives layer at 64 ranks.
//!
//! Not a figure — a host-wall-clock attribution tool: times every
//! collective family at a small and a large message size over an
//! `IdealHost` + fault-free fabric (so only mpisim's own software costs
//! are on the clock), then micro-times the per-message building blocks
//! (`Fabric::send`, `RegCache::needs_registration`, child-stream
//! derivation) to attribute where the nanoseconds go. Findings and the
//! resulting fix live in `EXPERIMENTS.md` ("Profiling the collectives
//! walk").
//!
//! Usage: `prof_collectives [ranks]` (default 64).

use mpisim::collectives::{allgather, allreduce, alltoall, barrier, tree, Ctx, Recorder};
use mpisim::host::IdealHost;
use mpisim::p2p::P2pParams;
use mpisim::regcache::RegCache;
use netsim::{LinkParams, ReliableFabric};
use simcore::{Cycles, StreamRng};
use std::hint::black_box;
use std::time::Instant;

struct Rig {
    fabric: ReliableFabric,
    host: IdealHost,
    params: P2pParams,
    regcaches: Vec<RegCache>,
    recorder: Recorder,
}

impl Rig {
    fn new(p: usize) -> Rig {
        Rig {
            fabric: ReliableFabric::new(p, LinkParams::fdr_infiniband()),
            host: IdealHost::new(),
            params: P2pParams::default(),
            regcaches: (0..p)
                .map(|i| RegCache::new(StreamRng::root(42).stream("rank", i as u64)))
                .collect(),
            recorder: None,
        }
    }

    fn ctx(&mut self, churn: f64) -> Ctx<'_, IdealHost> {
        Ctx {
            hybrid_aware: false,
            fabric: &mut self.fabric,
            host: &mut self.host,
            params: &self.params,
            regcaches: &mut self.regcaches,
            recorder: &mut self.recorder,
            reduce_per_kib: Cycles::from_ns(350),
            churn,
            rank_map: None,
            sink: None,
        }
    }
}

/// Best-of-5 wall nanoseconds for one call of `f`.
fn time_once<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let p: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let start_clocks = vec![Cycles::from_ms(1); p];
    let ops: Vec<(&str, u64, f64)> = vec![
        // (collective, bytes, internal-buffer churn while it runs)
        ("allreduce_rd", 1024, 0.08),
        ("allreduce_raben", 1 << 20, 0.08),
        ("allgather_rd", 1024, 0.0),
        ("allgather_ring", 1 << 20, 0.0),
        ("alltoall_bruck", 1024, 0.0),
        ("alltoall_pair", 1 << 20, 0.0),
        ("bcast", 1 << 20, 0.0),
        ("reduce", 1 << 20, 0.08),
        ("barrier", 0, 0.0),
    ];

    println!("=== mpisim collectives walk, p = {p} (host wall clock) ===");
    println!(
        "{:>16} {:>9} {:>12} {:>10} {:>12}",
        "op", "bytes", "walk us", "msgs", "ns/msg"
    );
    for (name, bytes, churn) in &ops {
        let mut rig = Rig::new(p);
        let mut msgs = 0u64;
        let ns = time_once(|| {
            // `time_once` reruns this on the same rig: count only this call.
            let before = rig.fabric.stats().0;
            let mut ctx = rig.ctx(*churn);
            let r = match *name {
                "allreduce_rd" => allreduce::allreduce_rd(&mut ctx, p, *bytes, &start_clocks),
                "allreduce_raben" => {
                    allreduce::allreduce_rabenseifner(&mut ctx, p, *bytes, &start_clocks)
                }
                "allgather_rd" => allgather::allgather_rd(&mut ctx, p, *bytes, &start_clocks),
                "allgather_ring" => allgather::allgather_ring(&mut ctx, p, *bytes, &start_clocks),
                "alltoall_bruck" => alltoall::alltoall_bruck(&mut ctx, p, *bytes, &start_clocks),
                "alltoall_pair" => alltoall::alltoall_pairwise(&mut ctx, p, *bytes, &start_clocks),
                "bcast" => tree::bcast(&mut ctx, p, 0, *bytes, &start_clocks),
                "reduce" => tree::reduce(&mut ctx, p, 0, *bytes, &start_clocks),
                "barrier" => barrier::barrier(&mut ctx, p, &start_clocks),
                _ => unreachable!(),
            };
            black_box(r.expect("fault-free"));
            msgs = rig.fabric.stats().0 - before;
        });
        println!(
            "{:>16} {:>9} {:>12.1} {:>10} {:>12.1}",
            name,
            bytes,
            ns / 1e3,
            msgs,
            if msgs > 0 { ns / msgs as f64 } else { 0.0 }
        );
    }

    // ---- building-block attribution -------------------------------------
    println!("\n=== per-message building blocks ===");
    let n = 200_000u64;
    let avg = |total_ns: f64| total_ns / n as f64;

    let mut fabric = ReliableFabric::new(2, LinkParams::fdr_infiniband());
    let mut at = Cycles::from_ms(1);
    let t = time_once(|| {
        for _ in 0..n {
            let tr = fabric.send(0, 1, 4096, at).expect("fault-free");
            at = tr.sender_free;
            black_box(tr);
        }
    });
    println!("{:>44}: {:6.1} ns", "ReliableFabric::send (fault-free)", avg(t));

    let mut cache = RegCache::new(StreamRng::root(7).stream("rank", 0));
    for _ in 0..8 {
        cache.needs_registration(1 << 20, 0.0);
    }
    let t = time_once(|| {
        for _ in 0..n {
            black_box(cache.needs_registration(1 << 20, 0.0));
        }
    });
    println!("{:>44}: {:6.1} ns", "RegCache::needs_registration (churn 0)", avg(t));

    let t = time_once(|| {
        for _ in 0..n {
            black_box(cache.needs_registration(1 << 20, 0.08));
        }
    });
    println!("{:>44}: {:6.1} ns", "RegCache::needs_registration (churn .08)", avg(t));

    let root = StreamRng::root(7);
    let t = time_once(|| {
        for i in 0..n {
            black_box(root.stream("rereg", i));
        }
    });
    println!("{:>44}: {:6.1} ns", "StreamRng::stream(\"rereg\", i) derivation", avg(t));
}
