//! Real mini-apps recorded and replayed at 1024 and 4096 nodes.
//!
//! Runs the actual Fig. 8 workload — `workloads::miniapps` over the
//! exact collectives layer (`mpisim::collectives`), with the
//! registration cache, rendezvous protocol and per-port LogGP
//! timelines — through record-and-replay (`mpisim::replay`, one program
//! per node). `Cluster` mini-apps always take the global-wheel walk,
//! which is faster at every node count (DESIGN.md D12); the replay's
//! remaining users are this binary and perfbench's `replay_4096`
//! workload, and the walk verification below is its reference check.
//!
//! Each point runs three trials. A trial records the walk (symbolic
//! clocks, no fabric/host state touched), then replays the op stream on
//! fresh seats; both phases are timed and each keeps its best trial.
//! Every trial must reproduce the first one's makespan and the FNV
//! digest of the raw per-node value logs, and the 1024-node makespan is
//! verified against a direct global-wheel walk.
//!
//! Metrics merge into `HLWK_BENCH_OUT` (default `BENCH_engine.json`) as
//! `app_scale_{nodes}_{record_ms,replay_ms}` plus `app_scale_nproc`,
//! the host's core count. This must run *after* `fig_engine`, which
//! rewrites the file wholesale.
//!
//! Modes:
//! * default          — 1024- and 4096-node points + metric merge;
//! * `--check <path>` — the 1024-node point, walk-verified, with
//!   `app_scale_1024_replay_ms` gated at 2x of the baseline in `<path>`.

use mpisim::collectives::{Ctx, Recorder};
use mpisim::host::IdealHost;
use mpisim::record::{decode, resolve};
use mpisim::regcache::RegCache;
use mpisim::{replay, NodeSeat, P2pParams, RecordSink, ReplayConfig, ReplayOp};
use netsim::reliable::ReliableFabric;
use netsim::LinkParams;
use simcore::{Cycles, StreamRng};
use std::sync::Arc;
use std::time::Instant;
use workloads::miniapps::{self, MiniApp};

/// BSP iterations per run; the committed baseline is recorded at this.
const ITERATIONS: u32 = 6;

/// Tolerance for the `--check` gate, the one `fig_engine` uses: the
/// replay may take up to this factor of the committed baseline.
const REGRESSION_TOLERANCE: f64 = 2.0;

/// Timed trials per point; each phase keeps its best.
const TRIALS: u32 = 3;

fn app() -> MiniApp {
    MiniApp {
        iterations: ITERATIONS,
        ..MiniApp::hpccg()
    }
}

fn caches(p: usize) -> Vec<RegCache> {
    (0..p)
        .map(|i| RegCache::new(StreamRng::root(0xF15C).stream("rank", i as u64)))
        .collect()
}

/// Common start clock: 1 ms at the default 2.8 GHz frequency.
const START: Cycles = Cycles(2_800_000);

/// A recorded walk ready to replay: per-node op lists + symbolic finals.
struct Recording {
    ops: Vec<Vec<ReplayOp>>,
    sym: Vec<Cycles>,
    cfg: ReplayConfig,
}

fn record(p: usize) -> Recording {
    let mut fabric = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut rcs = caches(p);
    let mut rec: Recorder = None;
    let mut sink = RecordSink::new(p);
    let sym = {
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
            sink: Some(&mut sink),
        };
        miniapps::run_clocks(&mut ctx, &app(), p, START).expect("recording never fails")
    };
    let cfg = ReplayConfig {
        params,
        link: *fabric.params(),
        policy: *fabric.policy(),
        lookahead: fabric.lookahead(),
        view: Arc::new(fabric.partition_view().expect("fault-free")),
    };
    Recording { ops: sink.into_ops(), sym, cfg }
}

/// Replay outcome reduced to comparable values: makespan + trace digest.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Outcome {
    makespan: Cycles,
    digest: u64,
}

/// Replay `r` on fresh seats; returns the replay's wall time and outcome.
fn timed_replay(r: Recording, p: usize) -> (f64, Outcome) {
    let mut fresh = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let seats: Vec<NodeSeat<IdealHost>> = fresh
        .detach_ends()
        .into_iter()
        .zip(caches(p))
        .map(|(end, regcache)| NodeSeat { host: IdealHost::new(), regcache, end })
        .collect();
    let start = Instant::now();
    let (res, _seats) = replay(r.ops, seats, &r.cfg, 1);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let logs = res.expect("fault-free replay");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for log in &logs {
        for v in log {
            digest = (digest ^ v.raw()).wrapping_mul(0x100_0000_01b3);
        }
    }
    let makespan = r
        .sym
        .iter()
        .enumerate()
        .map(|(n, &tok)| resolve(decode(tok, n), &logs[n]))
        .max()
        .expect("p >= 1")
        - START;
    (ms, Outcome { makespan, digest })
}

struct Point {
    nodes: usize,
    outcome: Outcome,
    ops: usize,
    record_ms: f64,
    replay_ms: f64,
}

/// Record and replay `nodes` nodes [`TRIALS`] times, keeping each
/// phase's best wall time; every trial must reproduce the first.
fn run_point(nodes: usize) -> Point {
    let (mut record_ms, mut replay_ms) = (f64::INFINITY, f64::INFINITY);
    let mut first = None;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let r = record(nodes);
        record_ms = record_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let ops: usize = r.ops.iter().map(Vec::len).sum();
        let (ms, outcome) = timed_replay(r, nodes);
        replay_ms = replay_ms.min(ms);
        let want = *first.get_or_insert((outcome, ops));
        assert_eq!((outcome, ops), want, "identical {nodes}-node runs must reproduce identically");
    }
    let (outcome, ops) = first.expect("at least one trial");
    Point { nodes, outcome, ops, record_ms, replay_ms }
}

/// Verify the replay against a direct global-wheel walk at `p` nodes.
fn verify_against_walk(p: usize, replayed: Cycles) {
    let mut fabric = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut rcs = caches(p);
    let mut rec: Recorder = None;
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
    let walked = miniapps::run(&mut ctx, &app(), p, START).expect("fault-free");
    assert_eq!(replayed, walked, "replay diverged from the global wheel at {p} nodes");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).expect("--check needs a baseline path");
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let key = "app_scale_1024_replay_ms";
        let Some(base) = bench::parse_metrics(&baseline)
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
        else {
            eprintln!("baseline {path} is missing {key}");
            std::process::exit(1);
        };
        let p = run_point(1024);
        verify_against_walk(p.nodes, p.outcome.makespan);
        println!(
            "{}-node {} digest {:016x} reproduced over {TRIALS} trials, walk-verified",
            p.nodes,
            app().name,
            p.outcome.digest
        );
        if p.replay_ms > base * REGRESSION_TOLERANCE {
            eprintln!(
                "PERF REGRESSION: {key} = {:.1} ms vs baseline {base:.1} ms (>{REGRESSION_TOLERANCE}x)",
                p.replay_ms
            );
            std::process::exit(1);
        }
        println!("{key}: ok ({:.1} ms, {:.2}x of baseline)", p.replay_ms, p.replay_ms / base);
        println!("app scale check passed (tolerance {REGRESSION_TOLERANCE}x)");
        return;
    }

    let points: Vec<Point> = [1024usize, 4096].iter().map(|&n| run_point(n)).collect();
    verify_against_walk(1024, points[0].outcome.makespan);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);

    println!("=== real mini-app ({}), recorded and replayed ===", app().name);
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12}",
        "nodes", "app s", "ops", "record ms", "replay ms"
    );
    for p in &points {
        println!(
            "{:>6} {:>10.4} {:>10} {:>12.1} {:>12.1}",
            p.nodes,
            p.outcome.makespan.as_secs_f64(),
            p.ops,
            p.record_ms,
            p.replay_ms
        );
    }
    println!("best of {TRIALS} trials, one thread, nproc {nproc}");

    let mut fresh: Vec<(String, f64)> = points
        .iter()
        .flat_map(|p| {
            [
                (format!("app_scale_{}_record_ms", p.nodes), p.record_ms),
                (format!("app_scale_{}_replay_ms", p.nodes), p.replay_ms),
            ]
        })
        .collect();
    fresh.push(("app_scale_nproc".into(), nproc as f64));
    let out = std::env::var("HLWK_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".into());
    bench::merge_metrics_into(&out, &fresh);
}
