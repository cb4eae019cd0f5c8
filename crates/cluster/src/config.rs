//! Experiment configurations — the paper's comparison matrix.

use hlwk_core::mck::syscall::BypassConfig;
use hwmodel::cpu::CoreId;
use netsim::reliable::CrashTrigger;
use simcore::fault::{
    DomainEvent, DomainFaultConfig, DomainTopology, FaultConfig, LinkFaultConfig,
};

/// Which OS stack runs the HPC workload (Sec. IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OsVariant {
    /// RHEL Linux; the application is pinned to NUMA 1 cores with a
    /// cgroup cpuset, nothing else is restricted.
    LinuxCgroup,
    /// As above, plus `isolcpus=` covering the application cores, so
    /// other user tasks cannot be scheduled there.
    LinuxCgroupIsolcpus,
    /// IHK/McKernel: LWK on 9 NUMA-1 cores + reserved NUMA-1 memory; the
    /// remaining NUMA-1 core runs the proxy process; Linux keeps NUMA 0.
    McKernel,
}

impl OsVariant {
    /// Display label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            OsVariant::LinuxCgroup => "Linux+cgroup",
            OsVariant::LinuxCgroupIsolcpus => "Linux+cgroup+isolcpus",
            OsVariant::McKernel => "McKernel",
        }
    }

    /// The three paper configurations.
    pub fn all() -> [OsVariant; 3] {
        [
            OsVariant::LinuxCgroup,
            OsVariant::LinuxCgroupIsolcpus,
            OsVariant::McKernel,
        ]
    }
}

/// Full cluster configuration for one run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Node count.
    pub nodes: u32,
    /// OS stack under test.
    pub os: OsVariant,
    /// Whether the Hadoop in-situ workload is co-located.
    pub insitu: bool,
    /// Memory intensity of the HPC workload (interference model input).
    pub mem_intensity: f64,
    /// Horizon for noise/load pre-generation (must exceed the run).
    pub horizon_secs: u64,
    /// Master seed.
    pub seed: u64,
    /// The paper's future-work fix (Sec. VI): MPI pre-registers its
    /// internal buffers at init so registration never offloads on the
    /// critical path.
    pub mpi_hybrid_aware: bool,
    /// Fault injection on the offload path (off by default, so every
    /// existing figure runs unchanged; any experiment can turn it on).
    pub faults: FaultConfig,
    /// Fault injection on the fabric links (off by default: the reliable
    /// layer is then an exact passthrough that draws no randomness).
    pub link_faults: LinkFaultConfig,
    /// An armed node-crash fault, if any (fail-stop at a configured
    /// simulated time or in-flight send depth).
    pub node_crash: Option<NodeCrash>,
    /// Failure-domain layout: nodes per rack (ToR switch / PDU scope).
    /// Pure metadata until domain faults or events are armed.
    pub nodes_per_rack: u32,
    /// Correlated domain-fault injection (off by default: no per-domain
    /// RNG streams are derived and nothing is injected).
    pub domain_faults: DomainFaultConfig,
    /// Deterministic domain events injected on top of (or without) the
    /// stochastic plan — "kill rack 1 at t=X". RNG-free.
    pub domain_events: Vec<DomainEvent>,
    /// Offload-bypass policy of every McKernel node (off by default, so
    /// every call takes the IKC trip and figures run unchanged).
    pub bypass: BypassConfig,
}

/// A configured fail-stop node crash.
#[derive(Clone, Copy, Debug)]
pub struct NodeCrash {
    /// Which node dies.
    pub node: usize,
    /// When it dies.
    pub trigger: CrashTrigger,
}

impl ClusterConfig {
    /// A paper-shaped default: 64 nodes, no in-situ load.
    pub fn paper(os: OsVariant) -> ClusterConfig {
        ClusterConfig {
            nodes: 64,
            os,
            insitu: false,
            mem_intensity: 0.6,
            horizon_secs: 120,
            seed: 0xC0FFEE,
            mpi_hybrid_aware: false,
            faults: FaultConfig::off(),
            link_faults: LinkFaultConfig::off(),
            node_crash: None,
            nodes_per_rack: 16,
            domain_faults: DomainFaultConfig::off(),
            domain_events: Vec::new(),
            bypass: BypassConfig::default(),
        }
    }

    /// Same config with a different node count.
    pub fn with_nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    /// Enable the co-located Hadoop workload.
    pub fn with_insitu(mut self) -> Self {
        self.insitu = true;
        self
    }

    /// Change the seed (per repetition).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run with fault injection on the offload path.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Run with fault injection on the fabric links.
    pub fn with_link_faults(mut self, link_faults: LinkFaultConfig) -> Self {
        self.link_faults = link_faults;
        self
    }

    /// Arm a fail-stop node crash.
    pub fn with_node_crash(mut self, node: usize, trigger: CrashTrigger) -> Self {
        self.node_crash = Some(NodeCrash { node, trigger });
        self
    }

    /// Set the failure-domain layout (nodes per rack).
    pub fn with_domains(mut self, nodes_per_rack: u32) -> Self {
        assert!(nodes_per_rack >= 1);
        self.nodes_per_rack = nodes_per_rack;
        self
    }

    /// Run with stochastic correlated domain faults.
    pub fn with_domain_faults(mut self, domain_faults: DomainFaultConfig) -> Self {
        self.domain_faults = domain_faults;
        self
    }

    /// Inject one deterministic domain event ("kill rack 1 at t=X").
    pub fn with_domain_event(mut self, event: DomainEvent) -> Self {
        self.domain_events.push(event);
        self
    }

    /// The failure-domain layout over this config's node count.
    pub fn topology(&self) -> DomainTopology {
        DomainTopology::new(self.nodes as usize, self.nodes_per_rack as usize)
    }

    /// Application cores (8 OpenMP threads on NUMA 1).
    pub fn app_cores(&self) -> Vec<CoreId> {
        (10..18).map(CoreId).collect()
    }

    /// LWK partition cores under McKernel (9 NUMA-1 cores).
    pub fn lwk_cores(&self) -> Vec<CoreId> {
        (10..19).map(CoreId).collect()
    }

    /// The proxy / leftover core.
    pub fn proxy_core(&self) -> CoreId {
        CoreId(19)
    }

    /// Cores Linux manages under this variant.
    pub fn linux_cores(&self) -> Vec<CoreId> {
        match self.os {
            OsVariant::McKernel => (0..10).chain(19..20).map(CoreId).collect(),
            _ => (0..20).map(CoreId).collect(),
        }
    }

    /// Cores the Hadoop containers may be scheduled on. cgroup-only:
    /// anywhere Linux schedules ("no restriction on where Hadoop
    /// processes execute"); isolcpus: everything except the isolated
    /// app cores; McKernel: the Linux partition (NUMA 0 + the proxy
    /// core — which is why offloads contend with Hadoop there).
    pub fn hadoop_cores(&self) -> Vec<CoreId> {
        match self.os {
            OsVariant::LinuxCgroup => (0..20).map(CoreId).collect(),
            OsVariant::LinuxCgroupIsolcpus => (0..10).map(CoreId).collect(),
            OsVariant::McKernel => (0..10).chain(19..20).map(CoreId).collect(),
        }
    }

    /// isolcpus boot set.
    pub fn isolcpus(&self) -> Vec<CoreId> {
        match self.os {
            OsVariant::LinuxCgroupIsolcpus => (10..20).map(CoreId).collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_layout_matches_paper() {
        let cfg = ClusterConfig::paper(OsVariant::McKernel);
        assert_eq!(cfg.app_cores().len(), 8);
        assert_eq!(cfg.lwk_cores().len(), 9, "9 LWK cores in NUMA 1");
        assert_eq!(cfg.proxy_core(), CoreId(19));
        assert_eq!(cfg.linux_cores().len(), 11, "NUMA 0 + proxy core");
        // App cores are inside the LWK partition.
        for c in cfg.app_cores() {
            assert!(cfg.lwk_cores().contains(&c));
        }
    }

    #[test]
    fn hadoop_placement_per_variant() {
        let base = ClusterConfig::paper(OsVariant::LinuxCgroup);
        // cgroup-only: Hadoop may land on the app cores.
        assert!(base.hadoop_cores().contains(&CoreId(10)));
        let iso = ClusterConfig::paper(OsVariant::LinuxCgroupIsolcpus);
        assert!(!iso.hadoop_cores().contains(&CoreId(10)));
        assert_eq!(iso.isolcpus().len(), 10);
        let mck = ClusterConfig::paper(OsVariant::McKernel);
        assert!(!mck.hadoop_cores().contains(&CoreId(10)));
        assert!(
            mck.hadoop_cores().contains(&CoreId(19)),
            "Hadoop can reach the proxy core"
        );
    }

    #[test]
    fn builder_methods() {
        let cfg = ClusterConfig::paper(OsVariant::LinuxCgroup)
            .with_nodes(8)
            .with_insitu()
            .with_seed(7);
        assert_eq!(cfg.nodes, 8);
        assert!(cfg.insitu);
        assert_eq!(cfg.seed, 7);
    }
}
