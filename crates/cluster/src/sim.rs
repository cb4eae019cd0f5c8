//! The assembled cluster and its workload entry points.

use crate::config::ClusterConfig;
use crate::host::ClusterHost;
use crate::node::NodeRuntime;
use hlwk_core::ihk::partition::PartitionError;
use mpisim::collectives::{Ctx, Recorder};
use mpisim::p2p::P2pParams;
use mpisim::regcache::RegCache;
use mpisim::RankFailure;
use netsim::reliable::CrashTrigger;
use netsim::{LinkParams, ReliableFabric};
use simcore::fault::{DomainFaultPlan, DomainTopology};
use simcore::{Cycles, StreamRng};
use workloads::miniapps::MiniApp;
use workloads::osu::{self, Collective, OsuConfig, OsuResult};
use workloads::{fwq, miniapps};

/// A fully built cluster: nodes + InfiniBand fabric + MPI state.
pub struct Cluster {
    /// The configuration it was built from.
    pub cfg: ClusterConfig,
    /// Node runtimes, wrapped as the MPI host model.
    pub host: ClusterHost,
    /// The InfiniBand fabric (HPC traffic only; Hadoop rides GbE, kept
    /// separate exactly as in the paper), wrapped in the reliable-delivery
    /// layer. With link faults disabled it is an exact passthrough.
    pub fabric: ReliableFabric,
    /// Failure-domain layout (node → rack → pod).
    pub topo: DomainTopology,
    /// The correlated-fault schedule, if domain faults were enabled.
    /// Its events are already applied to the fabric at build time.
    pub domain_plan: Option<DomainFaultPlan>,
    params: P2pParams,
    regcaches: Vec<RegCache>,
    recorder: Recorder,
    reduce_per_kib: Cycles,
}

impl Cluster {
    /// Build every node and the fabric for `cfg`.
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let rng = StreamRng::root(cfg.seed);
        let nodes: Vec<NodeRuntime> = (0..cfg.nodes)
            .map(|i| NodeRuntime::build(&cfg, i, &rng))
            .collect();
        let regcaches = (0..cfg.nodes)
            .map(|i| RegCache::new(rng.stream("regcache", u64::from(i))))
            .collect();
        // Disabled link faults take the `new` path: no fault RNG stream
        // is even constructed, preserving bit-identical fault-free runs.
        let mut fabric = if cfg.link_faults.enabled {
            ReliableFabric::with_faults(
                cfg.nodes as usize,
                LinkParams::fdr_infiniband(),
                cfg.link_faults,
                &rng,
            )
        } else {
            ReliableFabric::new(cfg.nodes as usize, LinkParams::fdr_infiniband())
        };
        if let Some(crash) = cfg.node_crash {
            fabric.kill_node(crash.node, crash.trigger);
        }
        // Correlated domain faults follow the same discipline: a
        // disabled config derives no per-domain streams at all, and
        // deterministic injected events are RNG-free either way.
        let topo = cfg.topology();
        let domain_plan = cfg.domain_faults.enabled.then(|| {
            let plan = DomainFaultPlan::new(cfg.domain_faults, topo, &rng);
            for ev in plan.events() {
                fabric.apply_domain_event(&topo, ev);
            }
            plan
        });
        for ev in &cfg.domain_events {
            fabric.apply_domain_event(&topo, ev);
        }
        Cluster {
            fabric,
            topo,
            domain_plan,
            host: ClusterHost { nodes },
            params: P2pParams::default(),
            regcaches,
            recorder: None,
            reduce_per_kib: Cycles::from_ns(350),
            cfg,
        }
    }

    /// Set the HPC workload's memory intensity on every node.
    pub fn set_mem_intensity(&mut self, mi: f64) {
        for n in &mut self.host.nodes {
            n.mem_intensity = mi;
        }
    }

    /// Borrow the MPI execution context.
    pub fn ctx(&mut self) -> Ctx<'_, ClusterHost> {
        Ctx {
            hybrid_aware: self.cfg.mpi_hybrid_aware,
            fabric: &mut self.fabric,
            host: &mut self.host,
            params: &self.params,
            regcaches: &mut self.regcaches,
            recorder: &mut self.recorder,
            reduce_per_kib: self.reduce_per_kib,
            churn: 0.0,
            rank_map: None,
            sink: None,
        }
    }

    /// Borrow an MPI context for a shrunk communicator: `rank_map[r]` is
    /// the surviving node behind communicator rank `r`.
    pub fn ctx_with_ranks<'m>(&'m mut self, rank_map: &'m [usize]) -> Ctx<'m, ClusterHost> {
        Ctx {
            rank_map: Some(rank_map),
            sink: None,
            ..self.ctx()
        }
    }

    /// Online LWK width (uniform across nodes — the elastic controller
    /// always resizes the whole allocation in lock-step).
    pub fn lwk_width(&self) -> usize {
        self.host.nodes[0].lwk_online_width()
    }

    /// Elastic shrink on every node: release one LWK core per node back
    /// to Linux through the real IHK path, then audit that each released
    /// core left no TLB entries, cached frames, run queue, or delegator
    /// state behind. Returns the released cores (one per node). On
    /// `CoreBusy` nothing is released on any node — the caller drains
    /// offloads and retries.
    pub fn shrink_lwk_all(&mut self) -> Result<Vec<hwmodel::cpu::CoreId>, PartitionError> {
        // Probe first so a busy node cannot leave the cluster half-shrunk.
        for n in &self.host.nodes {
            if n.linux.delegator.in_flight() > 0 {
                let online = n.mck.as_ref().expect("LWK node").online_cores();
                return Err(PartitionError::CoreBusy(*online.last().expect("core")));
            }
        }
        let mut released = Vec::with_capacity(self.host.nodes.len());
        for n in &mut self.host.nodes {
            let core = n.shrink_lwk_core()?;
            n.audit_released_core(core)
                .unwrap_or_else(|e| panic!("release audit failed: {e}"));
            released.push(core);
        }
        Ok(released)
    }

    /// Elastic expand on every node: regrow one released core per node
    /// (LIFO against [`Cluster::shrink_lwk_all`]).
    pub fn grow_lwk_all(&mut self) -> Result<Vec<hwmodel::cpu::CoreId>, PartitionError> {
        let mut grown = Vec::with_capacity(self.host.nodes.len());
        for n in &mut self.host.nodes {
            grown.push(n.grow_lwk_core()?);
        }
        Ok(grown)
    }

    /// Arm a fail-stop node crash (fabric-level: the node stops ACKing).
    pub fn kill_node(&mut self, node: usize, trigger: CrashTrigger) {
        self.fabric.kill_node(node, trigger);
    }

    /// Run the FWQ probe on node 0's first application core. FWQ is pure
    /// ALU work (no memory stretch). Returns per-quantum latencies.
    pub fn fwq(&mut self, quantum: Cycles, duration: Cycles, start: Cycles) -> Vec<u64> {
        let node = &mut self.host.nodes[0];
        let saved = node.mem_intensity;
        node.mem_intensity = 0.0;
        let samples = fwq::run_for(quantum, duration, start, |at, w| {
            node.exec_app_thread(0, at, w)
        });
        node.mem_intensity = saved;
        samples
    }

    /// Measure one OSU collective cell.
    pub fn run_osu(
        &mut self,
        coll: Collective,
        bytes: u64,
        cfg: &OsuConfig,
        at: Cycles,
    ) -> Result<OsuResult, RankFailure> {
        let p = self.cfg.nodes as usize;
        osu::measure(&mut self.ctx(), coll, p, bytes, cfg, at)
    }

    /// Run one mini-app; returns its execution time. A node failure the
    /// fabric cannot hide surfaces as a typed [`RankFailure`] (see
    /// [`crate::recovery`] for the job-level policies on top).
    pub fn run_miniapp(&mut self, app: &MiniApp, at: Cycles) -> Result<Cycles, RankFailure> {
        self.set_mem_intensity(app.mem_intensity);
        let p = self.cfg.nodes as usize;
        miniapps::run(&mut self.ctx(), app, p, at)
    }

    /// One BSP step of `app` for the recovery layer: `ranks[r]` is the
    /// fabric node behind communicator rank `r`.
    pub fn step_miniapp(
        &mut self,
        app: &MiniApp,
        quantum: Cycles,
        ranks: &[usize],
        clocks: &mut Vec<Cycles>,
    ) -> Result<(), RankFailure> {
        miniapps::step(&mut self.ctx_with_ranks(ranks), app, quantum, clocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OsVariant;

    fn small(os: OsVariant, nodes: u32, insitu: bool) -> Cluster {
        let mut cfg = ClusterConfig::paper(os).with_nodes(nodes).with_seed(123);
        cfg.insitu = insitu;
        cfg.horizon_secs = 20;
        Cluster::build(cfg)
    }

    #[test]
    fn fwq_flat_on_mckernel_noisy_on_linux() {
        let mut mck = small(OsVariant::McKernel, 1, false);
        let s = mck.fwq(fwq::DEFAULT_QUANTUM, Cycles::from_ms(50), Cycles::from_us(1));
        assert!(s.iter().all(|&x| x == fwq::DEFAULT_QUANTUM.raw()));
        let mut lin = small(OsVariant::LinuxCgroup, 1, false);
        let s = lin.fwq(fwq::DEFAULT_QUANTUM, Cycles::from_ms(50), Cycles::from_us(1));
        assert!(s.iter().any(|&x| x > fwq::DEFAULT_QUANTUM.raw()));
    }

    #[test]
    fn osu_runs_on_both_stacks_and_mckernel_is_steadier() {
        let cfg = OsuConfig {
            warmup: 2,
            iters: 8,
            iter_gap: Cycles::from_us(300),
        };
        let mut lin = small(OsVariant::LinuxCgroup, 4, false);
        let lr = lin
            .run_osu(Collective::Allreduce, 1024, &cfg, Cycles::from_ms(1))
            .expect("fault-free");
        let mut mck = small(OsVariant::McKernel, 4, false);
        let mr = mck
            .run_osu(Collective::Allreduce, 1024, &cfg, Cycles::from_ms(1))
            .expect("fault-free");
        let spread = |v: &[f64]| {
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            let max = v.iter().cloned().fold(0.0, f64::max);
            (max - min) / (v.iter().sum::<f64>() / v.len() as f64)
        };
        assert!(
            spread(&mr.latencies_us) <= spread(&lr.latencies_us) + 1e-9,
            "mck {:?} vs linux {:?}",
            mr.latencies_us,
            lr.latencies_us
        );
    }

    #[test]
    fn miniapp_runs_end_to_end() {
        let app = MiniApp {
            iterations: 5,
            ..MiniApp::hpccg()
        };
        let mut c = small(OsVariant::McKernel, 4, false);
        let t = c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free");
        // 5 iterations x ~0.33 s = ~1.6 s.
        let secs = t.as_secs_f64();
        assert!((1.0..3.0).contains(&secs), "{secs}");
    }

    #[test]
    fn insitu_hurts_cgroup_more_than_mckernel() {
        // Hadoop interference is phased, so a single short run can land in
        // a quiet window; aggregate over seeds.
        let app = MiniApp {
            iterations: 10,
            ..MiniApp::ffvc()
        };
        let run_one = |os: OsVariant, insitu: bool, seed: u64| {
            let mut cfg = ClusterConfig::paper(os).with_nodes(2).with_seed(seed);
            cfg.insitu = insitu;
            cfg.horizon_secs = 20;
            Cluster::build(cfg)
                .run_miniapp(&app, Cycles::from_ms(1))
                .expect("fault-free")
                .as_secs_f64()
        };
        let seeds = [11u64, 22, 33, 44];
        let avg = |os: OsVariant, insitu: bool| {
            seeds.iter().map(|&s| run_one(os, insitu, s)).sum::<f64>() / seeds.len() as f64
        };
        let t_quiet = avg(OsVariant::LinuxCgroup, false);
        let t_noisy = avg(OsVariant::LinuxCgroup, true);
        let t_mck = avg(OsVariant::McKernel, true);
        assert!(t_noisy > t_quiet * 1.03, "quiet {t_quiet} noisy {t_noisy}");
        let mck_slowdown = t_mck / t_quiet;
        let cgroup_slowdown = t_noisy / t_quiet;
        assert!(
            mck_slowdown < cgroup_slowdown,
            "mck {mck_slowdown} vs cgroup {cgroup_slowdown}"
        );
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = || {
            let mut c = small(OsVariant::LinuxCgroup, 2, true);
            c.fwq(fwq::DEFAULT_QUANTUM, Cycles::from_ms(20), Cycles::from_us(1))
        };
        assert_eq!(run(), run());
    }
}
