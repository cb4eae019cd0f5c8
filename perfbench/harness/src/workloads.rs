//! The benchmark's workloads.
//!
//! Each workload is a cycle of two steps: `setup` builds a fresh copy
//! of the simulated system (this is what `setup_s` times), and `run`
//! drives one unit of work through it (this is what `unit_ms` times).
//! Every cycle of a run sees identical inputs, so every cycle must
//! produce the identical digest of simulated outputs. On top of that
//! each unit checks its outputs, either against a reference the
//! workload computed once, outside any timed step, by another route
//! through the simulator, or against what the model guarantees.
//!
//! Spans are opened around every call into a simulator layer; their
//! names become the per-layer metric names (`<span>_ms`).

use crate::trace::Tracer;
use cluster::node::NodeRuntime;
use cluster::{Cluster, ClusterConfig, OsVariant};
use hlwk_core::abi::Sysno;
use hlwk_core::mck::syscall::BypassConfig;
use mpisim::collectives::{Ctx, Recorder};
use mpisim::host::IdealHost;
use mpisim::record::{decode, resolve};
use mpisim::regcache::RegCache;
use mpisim::{replay, NodeSeat, P2pParams, RankFailure, RecordSink, ReplayConfig, ReplayOp};
use netsim::reliable::ReliableFabric;
use netsim::LinkParams;
use simcore::fault::LinkFaultConfig;
use simcore::{Cycles, StreamRng};
use std::sync::Arc;
use workloads::fwq;
use workloads::miniapps::{self, MiniApp};
use workloads::osu::{Collective, OsuConfig, OsuResult};

/// What one unit produced.
pub struct Outcome {
    /// Operations attempted.
    pub ops: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Digest of every simulated output of the unit.
    pub digest: u64,
    /// Per-unit counts reported by the traced run.
    pub counts: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Build a fresh copy of the simulated system.
    fn setup(&mut self, tr: &mut Tracer);
    /// Run one unit of work on the system the last `setup` built.
    fn run(&mut self, tr: &mut Tracer) -> Outcome;
    /// Drop the system (outside any timed step).
    fn teardown(&mut self);
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper_grid", "replay_4096", "lossy_walk", "offload_mix"];

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_grid" => Box::new(PaperGrid::new(seed)),
        "replay_4096" => Box::new(Replay4096::new(seed)),
        "lossy_walk" => Box::new(LossyWalk::new(seed)),
        "offload_mix" => Box::new(OffloadMix::new(seed)),
        _ => return None,
    })
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }
}

// ---------------------------------------------------------------------
// paper_grid: the paper's comparison matrix at small scale.
// ---------------------------------------------------------------------

const GRID_NODES: [u32; 2] = [8, 16];
const GRID_FWQ_MS: u64 = 20;
const GRID_OSU_BYTES: u64 = 4096;
const GRID_OSU_ITERS: usize = 8;
const GRID_APP_AT_MS: u64 = 50;

fn grid_app() -> MiniApp {
    MiniApp {
        iterations: 2,
        ..MiniApp::hpccg()
    }
}

fn grid_fwq(c: &mut Cluster) -> Vec<u64> {
    c.fwq(
        fwq::DEFAULT_QUANTUM,
        Cycles::from_ms(GRID_FWQ_MS),
        Cycles::from_us(1),
    )
}

fn grid_osu(c: &mut Cluster) -> Result<OsuResult, RankFailure> {
    let cfg = OsuConfig {
        warmup: 2,
        iters: GRID_OSU_ITERS,
        iter_gap: Cycles::from_us(300),
    };
    c.run_osu(
        Collective::Allreduce,
        GRID_OSU_BYTES,
        &cfg,
        Cycles::from_ms(25),
    )
}

/// Every OS variant at two cluster sizes, each cluster running the three
/// probes the paper's figures use: FWQ (Fig. 5), an OSU allreduce cell
/// (Fig. 6) and a mini-app (Fig. 8, which runs record-and-replay on the
/// partitioned engine). No co-located analytics job: its busy phases
/// last tens of simulated seconds, so whether a sub-second probe lands
/// in one would hinge on the seed and change the work by half.
struct PaperGrid {
    configs: Vec<ClusterConfig>,
    /// Each cluster's mini-app makespan, walked directly on the global
    /// wheel after the same FWQ and OSU probes: the replay must match.
    walked: Vec<Cycles>,
    clusters: Vec<Cluster>,
}

impl PaperGrid {
    fn new(seed: u64) -> PaperGrid {
        let mut configs = Vec::new();
        for os in OsVariant::all() {
            for nodes in GRID_NODES {
                let mut cfg = ClusterConfig::paper(os).with_nodes(nodes).with_seed(seed);
                cfg.horizon_secs = 3;
                configs.push(cfg);
            }
        }
        let app = grid_app();
        let walked = configs
            .iter()
            .map(|cfg| {
                let mut c = Cluster::build(cfg.clone());
                grid_fwq(&mut c);
                grid_osu(&mut c).expect("fault-free OSU cell");
                c.set_mem_intensity(app.mem_intensity);
                let (p, at) = (cfg.nodes as usize, Cycles::from_ms(GRID_APP_AT_MS));
                miniapps::run(&mut c.ctx(), &app, p, at).expect("fault-free walk")
            })
            .collect();
        PaperGrid {
            configs,
            walked,
            clusters: Vec::new(),
        }
    }
}

impl Workload for PaperGrid {
    fn setup(&mut self, tr: &mut Tracer) {
        let configs = &self.configs;
        self.clusters = tr.span("build", || {
            configs.iter().cloned().map(Cluster::build).collect()
        });
    }

    fn run(&mut self, tr: &mut Tracer) -> Outcome {
        let app = grid_app();
        let mut d = Digest::new();
        let (mut ops, mut failed) = (0u64, 0u64);
        for (c, &walked) in self.clusters.iter_mut().zip(&self.walked) {
            let lwk = c.cfg.os == OsVariant::McKernel;

            let fwq = tr.span("fwq", || grid_fwq(c));
            // The LWK runs FWQ noise-free; no stack ever beats the quantum.
            let q = fwq::DEFAULT_QUANTUM.raw();
            let ok = !fwq.is_empty()
                && fwq.iter().all(|&s| s >= q)
                && (!lwk || fwq.iter().all(|&s| s == q));
            failed += u64::from(!ok);
            fwq.iter().for_each(|&s| d.add(s));

            match tr.span("osu", || grid_osu(c)) {
                Ok(r)
                    if r.latencies_us.len() == GRID_OSU_ITERS
                        && r.latencies_us.iter().all(|l| l.is_finite() && *l > 0.0) =>
                {
                    r.latencies_us.iter().for_each(|l| d.add(l.to_bits()));
                }
                _ => failed += 1,
            }

            let at = Cycles::from_ms(GRID_APP_AT_MS);
            match tr.span("miniapp", || c.run_miniapp(&app, at)) {
                Ok(t) if t == walked => d.add(t.raw()),
                _ => failed += 1,
            }
            ops += 3;
        }
        Outcome {
            ops,
            failed,
            digest: d.0,
            counts: vec![],
        }
    }

    fn teardown(&mut self) {
        self.clusters.clear();
    }
}

// ---------------------------------------------------------------------
// replay_4096: the real mini-app replayed on the partitioned engine.
// ---------------------------------------------------------------------

const REPLAY_NODES: usize = 4096;
/// Common start clock: 1 ms at the default 2.8 GHz frequency.
const REPLAY_START: Cycles = Cycles(2_800_000);

/// HPC-CG over the exact collectives layer at 4096 nodes, recorded
/// once per cycle with symbolic clocks and replayed with one partition
/// per node on one engine worker.
struct Replay4096 {
    seed: u64,
    /// The job's makespan walked directly on the global wheel: every
    /// replayed cycle must reproduce it.
    walked: Cycles,
    recording: Option<(Vec<Vec<ReplayOp>>, Vec<Cycles>, ReplayConfig)>,
    seats: Vec<NodeSeat<IdealHost>>,
    /// Seats the replay handed back, dropped in `teardown` so that
    /// freeing them stays out of the timed unit.
    spent: Vec<NodeSeat<IdealHost>>,
}

fn replay_caches(seed: u64) -> Vec<RegCache> {
    let root = StreamRng::root(seed);
    (0..REPLAY_NODES)
        .map(|i| RegCache::new(root.stream("rank", i as u64)))
        .collect()
}

/// Run the job through the collectives layer on a fresh fault-free
/// fabric: recorded into `sink` with symbolic clocks when one is given,
/// walked on the global wheel otherwise. Returns the final per-node
/// clocks and the fabric.
fn replay_job(seed: u64, sink: Option<&mut RecordSink>) -> (Vec<Cycles>, ReliableFabric) {
    let p = REPLAY_NODES;
    let mut fabric = ReliableFabric::new(p, LinkParams::fdr_infiniband());
    let mut host = IdealHost::new();
    let params = P2pParams::default();
    let mut regcaches = replay_caches(seed);
    let mut recorder: Recorder = None;
    let app = MiniApp {
        iterations: 1,
        ..MiniApp::hpccg()
    };
    let clocks = {
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut fabric,
            host: &mut host,
            params: &params,
            regcaches: &mut regcaches,
            recorder: &mut recorder,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink,
        };
        miniapps::run_clocks(&mut ctx, &app, p, REPLAY_START).expect("fault-free job")
    };
    (clocks, fabric)
}

impl Replay4096 {
    fn new(seed: u64) -> Replay4096 {
        let (clocks, _) = replay_job(seed, None);
        Replay4096 {
            seed,
            walked: *clocks.iter().max().expect("nodes >= 1") - REPLAY_START,
            recording: None,
            seats: Vec::new(),
            spent: Vec::new(),
        }
    }

    fn record(&self) -> (Vec<Vec<ReplayOp>>, Vec<Cycles>, ReplayConfig) {
        let mut sink = RecordSink::new(REPLAY_NODES);
        let (sym, fabric) = replay_job(self.seed, Some(&mut sink));
        let cfg = ReplayConfig {
            params: P2pParams::default(),
            link: *fabric.params(),
            policy: *fabric.policy(),
            lookahead: fabric.lookahead(),
            view: Arc::new(fabric.partition_view().expect("fault-free fabric")),
        };
        (sink.into_ops(), sym, cfg)
    }
}

impl Workload for Replay4096 {
    fn setup(&mut self, tr: &mut Tracer) {
        self.recording = Some(tr.span("record", || self.record()));
        let seats = tr.span("seats", || {
            let mut fabric = ReliableFabric::new(REPLAY_NODES, LinkParams::fdr_infiniband());
            fabric
                .detach_ends()
                .into_iter()
                .zip(replay_caches(self.seed))
                .map(|(end, regcache)| NodeSeat {
                    host: IdealHost::new(),
                    regcache,
                    end,
                })
                .collect()
        });
        self.seats = seats;
    }

    fn run(&mut self, tr: &mut Tracer) -> Outcome {
        let (ops, sym, cfg) = self.recording.take().expect("setup ran");
        let n_ops: u64 = ops.iter().map(|o| o.len() as u64).sum();
        let seats = std::mem::take(&mut self.seats);
        let (res, seats) = tr.span("replay", || replay(ops, seats, &cfg, 1));
        self.spent = seats;
        let Ok(logs) = res else {
            return Outcome {
                ops: n_ops,
                failed: n_ops,
                digest: 0,
                counts: vec![],
            };
        };
        let (makespan, digest) = tr.span("resolve", || {
            let mut d = Digest::new();
            for log in &logs {
                for v in log {
                    d.add(v.raw());
                }
            }
            let end = sym
                .iter()
                .enumerate()
                .map(|(n, &tok)| resolve(decode(tok, n), &logs[n]))
                .max()
                .expect("nodes >= 1");
            (end - REPLAY_START, d.0)
        });
        let ok = makespan == self.walked && logs.len() == REPLAY_NODES;
        Outcome {
            ops: n_ops,
            failed: if ok { 0 } else { n_ops },
            digest,
            counts: vec![],
        }
    }

    fn teardown(&mut self) {
        self.recording = None;
        self.seats.clear();
        self.spent.clear();
    }
}

// ---------------------------------------------------------------------
// lossy_walk: a mini-app on a lossy fabric, walked on the global wheel.
// ---------------------------------------------------------------------

const LOSSY_NODES: u32 = 64;
const LOSSY_RATE: f64 = 0.01;
const LOSSY_ITERS: u32 = 40;
const LOSSY_START_MS: u64 = 1;

/// With link faults armed the lookahead collapses, so `run_miniapp`
/// walks every message on the global event wheel through the
/// retransmitting reliable layer. No node dies: every send completes.
struct LossyWalk {
    cfg: ClusterConfig,
    app: MiniApp,
    /// The same job's makespan on a loss-free fabric.
    lossless: Cycles,
    cluster: Option<Cluster>,
}

impl LossyWalk {
    fn new(seed: u64) -> LossyWalk {
        let mut base = ClusterConfig::paper(OsVariant::McKernel)
            .with_nodes(LOSSY_NODES)
            .with_seed(seed);
        // Noise is generated up front over the horizon: cover the job.
        base.horizon_secs = 16;
        let app = MiniApp {
            iterations: LOSSY_ITERS,
            ..MiniApp::hpccg()
        };
        let lossless = Cluster::build(base.clone())
            .run_miniapp(&app, Cycles::from_ms(LOSSY_START_MS))
            .expect("loss-free run");
        LossyWalk {
            cfg: base.with_link_faults(LinkFaultConfig::loss(LOSSY_RATE)),
            app,
            lossless,
            cluster: None,
        }
    }
}

impl Workload for LossyWalk {
    fn setup(&mut self, tr: &mut Tracer) {
        let cfg = self.cfg.clone();
        self.cluster = Some(tr.span("build", || Cluster::build(cfg)));
    }

    fn run(&mut self, tr: &mut Tracer) -> Outcome {
        let c = self.cluster.as_mut().expect("setup ran");
        let app = &self.app;
        let res = tr.span("walk", || {
            c.run_miniapp(app, Cycles::from_ms(LOSSY_START_MS))
        });
        // Loss only ever delays delivery (retransmit timeouts), so the
        // lossy job must finish strictly later than the loss-free one.
        let (failed, t) = match res {
            Ok(t) if t > self.lossless => (0, t),
            _ => (1, Cycles::ZERO),
        };
        Outcome {
            ops: 1,
            failed,
            digest: t.raw(),
            counts: vec![],
        }
    }

    fn teardown(&mut self) {
        self.cluster = None;
    }
}

// ---------------------------------------------------------------------
// offload_mix: system calls through the IHK/McKernel offload path.
// ---------------------------------------------------------------------

const MIX_CALLS: usize = 12_000;
const MIX_START_MS: u64 = 2;
/// Registration length of the uverbs write, as the `syscall_offload`
/// bench times `mr_register`.
const MR_BYTES: u64 = 1 << 20;
/// Wall clock each node publishes to its time pages at boot, as
/// `fig_bypass` does before timing `clock_gettime`.
const TIME_NS: u64 = 1_000_000_000;

#[derive(Clone, Copy)]
struct Call {
    sysno: Sysno,
    /// Arguments; the `FD`, `UVERBS` and `BUF` placeholders are filled
    /// per node.
    args: [u64; 6],
    /// The return value the call must produce.
    expect: i64,
}

/// The regular file each node opens through the offload path at boot.
const FD: u64 = u64::MAX;
/// The uverbs device fd each node opens at job setup.
const UVERBS: u64 = u64::MAX - 1;
/// The application's arena.
const BUF: u64 = u64::MAX - 2;

/// The mix: every offloaded call the repository's own host-time offload
/// benchmarks time, with the arguments they time it at. No record of a
/// real rank's system calls exists to weight them by, so each call gets
/// an equal share and the seed fixes their order.
const MIX: [Call; 5] = [
    // `fig_offload_hotpath`'s offload round trip; also `syscall_offload`.
    Call {
        sysno: Sysno::GetRandom,
        args: [BUF, 64, 0, 0, 0, 0],
        expect: 64,
    },
    // The read of a page-cached file that `fig_offload_hotpath` and
    // `fig_bypass` time offloaded against promoted.
    Call {
        sysno: Sysno::Read,
        args: [FD, BUF, 64, 0, 0, 0],
        expect: 64,
    },
    // `fig_bypass`'s futex wake with no waiters.
    Call {
        sysno: Sysno::Futex,
        args: [BUF, 129, 1, 0, 0, 0],
        expect: 0,
    },
    // `fig_bypass`'s clock_gettime.
    Call {
        sysno: Sysno::ClockGettime,
        args: [0; 6],
        expect: TIME_NS as i64,
    },
    // `mr_register` as `syscall_offload` times it: the one call a
    // McKernel rank offloads while a mini-app runs.
    Call {
        sysno: Sysno::Write,
        args: [UVERBS, BUF, MR_BYTES, 0, 0, 0],
        expect: MR_BYTES as i64,
    },
];

/// The seeded mix issued on two McKernel nodes: one sends every call
/// through the full offload path (marshal, IKC, delegator, proxy, Linux
/// service, reply); the other has the profile-guided bypass armed, so
/// its read, futex and clock calls run promoted inside the LWK.
struct OffloadMix {
    seed: u64,
    offloaded: Vec<Call>,
    /// The promotable subset of `offloaded`, issued on the bypass node.
    bypass_calls: Vec<Call>,
    nodes: Option<[(NodeRuntime, u64, Cycles); 2]>,
}

impl OffloadMix {
    fn new(seed: u64) -> OffloadMix {
        let mut rng = StreamRng::root(seed).stream("offload-mix", 0);
        let offloaded: Vec<Call> = (0..MIX_CALLS)
            .map(|_| MIX[rng.range_u64(0, MIX.len() as u64) as usize])
            .collect();
        // The bypass node sees the promotable share of the same stream.
        let bypass_calls = offloaded
            .iter()
            .copied()
            .filter(|c| matches!(c.sysno, Sysno::Read | Sysno::Futex | Sysno::ClockGettime))
            .collect();
        OffloadMix {
            seed,
            offloaded,
            bypass_calls,
            nodes: None,
        }
    }

    /// Boot one McKernel node (IHK reservation, LWK boot, proxy spawn,
    /// job setup), publish the time pages and open a regular file
    /// through the offload path.
    fn boot(&self, bypass: bool) -> (NodeRuntime, u64, Cycles) {
        let mut cfg = ClusterConfig::paper(OsVariant::McKernel)
            .with_nodes(1)
            .with_seed(self.seed);
        cfg.horizon_secs = 1;
        let mut node = NodeRuntime::build(&cfg, 0, &StreamRng::root(self.seed));
        node.publish_time(TIME_NS);
        if bypass {
            node.mck.as_mut().expect("McKernel node").bypass = BypassConfig {
                enabled: true,
                promote_after: 1,
                domains: false,
            };
        }
        let arena = node.arena_va;
        let pa = node
            .mck
            .as_ref()
            .expect("McKernel node")
            .process(node.app_pid)
            .expect("application process")
            .aspace
            .pt
            .translate(arena)
            .expect("arena faulted at job setup")
            .phys;
        node.hw.mem.write(pa, b"/data/perfbench.bin\0");
        let (fd, t) = node.offload_syscall(
            Sysno::Open,
            [arena.raw(), 0, 0, 0, 0, 0],
            Cycles::from_ms(MIX_START_MS),
        );
        assert!(fd >= 0, "offloaded open failed: {fd}");
        (node, fd as u64, t)
    }
}

/// Issue `calls` back to back on `node` from `at`, folding every result
/// and completion time into `d`. Returns how many calls returned other
/// than expected.
fn issue(node: &mut NodeRuntime, fd: u64, mut at: Cycles, calls: &[Call], d: &mut Digest) -> u64 {
    let (buf, uverbs) = (node.arena_va.raw(), node.uverbs_fd as u64);
    let mut failed = 0;
    for c in calls {
        let mut args = c.args;
        for a in &mut args {
            *a = match *a {
                FD => fd,
                UVERBS => uverbs,
                BUF => buf,
                v => v,
            };
        }
        let (ret, done) = node.offload_syscall(c.sysno, args, at);
        failed += u64::from(ret != c.expect);
        d.add(ret as u64);
        d.add(done.raw());
        at = done + Cycles(1000);
    }
    failed
}

impl Workload for OffloadMix {
    fn setup(&mut self, tr: &mut Tracer) {
        self.nodes = Some(tr.span("build", || [self.boot(false), self.boot(true)]));
    }

    fn run(&mut self, tr: &mut Tracer) -> Outcome {
        let [(plain, pfd, pt), (fast, ffd, ft)] = self.nodes.as_mut().expect("setup ran");
        let mut d = Digest::new();
        let f1 = tr.span("offload", || {
            issue(plain, *pfd, *pt, &self.offloaded, &mut d)
        });
        let before = fast.bypass_promoted;
        let f2 = tr.span("bypass", || {
            issue(fast, *ffd, *ft, &self.bypass_calls, &mut d)
        });
        let promoted = fast.bypass_promoted - before;
        let n_fast = self.bypass_calls.len() as u64;
        Outcome {
            ops: (self.offloaded.len() + self.bypass_calls.len()) as u64,
            failed: f1 + f2,
            digest: d.0,
            counts: vec![("bypass_hit_ratio", promoted as f64 / n_fast.max(1) as f64)],
        }
    }

    fn teardown(&mut self) {
        self.nodes = None;
    }
}
