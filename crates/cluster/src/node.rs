//! One compute node's runtime: hardware + OS stack + job state.
//!
//! Job setup on a McKernel node is not a cost formula — it walks the real
//! protocols of the core crate: IHK reserves cores and memory and boots
//! the LWK; a proxy process is spawned on the leftover core; the uverbs
//! device is opened through a fully marshalled, IKC-delivered, unified-
//! address-space-dereferenced offloaded `open()`; and the HCA doorbell
//! page is mapped by the eleven-step Fig. 4 flow. Only after all of that
//! does the node run application work.

use crate::config::{ClusterConfig, OsVariant};
use hlwk_core::abi::{encode_result, Errno, Fd, Pid, Sysno, Tid};
use hlwk_core::costs::CostModel;
use hlwk_core::ihk::delegator::DispatchAction;
use hlwk_core::ihk::ikc::{message_checksum, IkcChannel, IkcPair, MsgKind};
use hlwk_core::ihk::partition::PartitionError;
use hlwk_core::ihk::DEATH_CONFIRMATION;
use hlwk_core::mck::domains::{DomainId, DomainModel};
use hlwk_core::mck::mem::FaultOutcome;
use hlwk_core::mck::syscall::{Disposition, RetryPolicy, SyscallReply, SyscallRequest};
use hlwk_core::mck::{McKernel, SyscallOutcome};
use hlwk_core::proxy::devmap;
use hlwk_core::IhkManager;
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hwmodel::cpu::{CoreId, NumaId};
use hwmodel::interference::{InterferenceModel, MemProfile, PageBacking, Pollution};
use hwmodel::node::{NodeHw, NodeId, NodeSpec};
use hwmodel::pci::DeviceClass;
use linuxsim::vfs::FileKind;
use linuxsim::{LinuxKernel, NoiseConfig};
use simcore::fault::{FaultPlan, MsgFault};
use simcore::{Cycles, StreamRng};
use workloads::hadoop;

/// A node-local operation that could not run because the node (or its
/// LWK application) is gone. Job setup still panics on impossible
/// states — those are configuration bugs — but everything reachable
/// *after* a node death reports typed errors instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeError {
    /// The node is fail-stopped: nothing on it executes any more.
    NodeDead {
        /// The dead node.
        node: u32,
    },
    /// The LWK partition was torn down (proxy-death recovery reclaimed
    /// it), so there is no kernel to take the syscall.
    LwkGone {
        /// The affected node.
        node: u32,
    },
    /// The LWK is up but the application thread is gone (SIGKILLed
    /// during recovery).
    NoAppThread {
        /// The affected node.
        node: u32,
    },
    /// The LWK returned an outcome the offload driver has no path for.
    UnexpectedOutcome {
        /// The affected node.
        node: u32,
        /// Debug rendering of the outcome.
        outcome: String,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::NodeDead { node } => write!(f, "node {node} is dead"),
            NodeError::LwkGone { node } => write!(f, "node {node}: LWK partition reclaimed"),
            NodeError::NoAppThread { node } => {
                write!(f, "node {node}: application thread gone")
            }
            NodeError::UnexpectedOutcome { node, outcome } => {
                write!(f, "node {node}: unexpected LWK outcome {outcome}")
            }
        }
    }
}

impl std::error::Error for NodeError {}

/// Per-node runtime state.
pub struct NodeRuntime {
    /// Node index (== MPI rank; 1 rank per node).
    pub id: u32,
    /// OS variant this node runs.
    pub os: OsVariant,
    /// Hardware.
    pub hw: NodeHw,
    /// The Linux instance (the whole node, or the Linux partition).
    pub linux: LinuxKernel,
    /// IHK manager (McKernel variant only).
    pub ihk: Option<IhkManager>,
    /// OS-instance index inside `ihk` (needed to destroy the partition).
    pub os_idx: Option<u32>,
    /// The LWK (McKernel variant only).
    pub mck: Option<McKernel>,
    /// IKC channel pair between the kernels.
    pub ikc: IkcPair,
    /// Application process id.
    pub app_pid: Pid,
    /// First application thread (McKernel bookkeeping).
    pub app_tid: Option<Tid>,
    /// Proxy process id (McKernel variant only).
    pub proxy_pid: Option<Pid>,
    /// Cores the 8 OpenMP threads run on.
    pub app_cores: Vec<CoreId>,
    /// uverbs file descriptor (lives in Linux either way).
    pub uverbs_fd: i64,
    /// Physical address of the HCA doorbell (UAR) page, once job setup
    /// mapped it (Fig. 4 flow on McKernel, BAR 0 directly on Linux).
    pub doorbell_phys: Option<PhysAddr>,
    /// Registered-buffer arena base (for MR registration calls).
    pub arena_va: VirtAddr,
    /// Interference model + inputs.
    pub interference: InterferenceModel,
    /// Cache/bandwidth pollution from co-located work.
    pub pollution: Pollution,
    /// Workload memory intensity (set per experiment).
    pub mem_intensity: f64,
    /// Busy phases of the co-located job (empty without in-situ load);
    /// pollution only applies inside them.
    pub busy_phases: Vec<(Cycles, Cycles)>,
    /// How the app's anonymous memory is backed (2 MiB contiguous on
    /// McKernel, 4 KiB scattered on Linux). Public so the A3 ablation can
    /// force either policy.
    pub backing: PageBacking,
    /// Per-node fault-injection plan (disabled by default; draws nothing
    /// while inactive, so fault-free runs are bit-identical to the seed).
    pub faults: FaultPlan,
    /// Timeout/backoff policy for the offload retry loop.
    pub retry: RetryPolicy,
    /// Whether the proxy is still alive. After proxy death every offload
    /// fast-fails with `-EIO`.
    pub proxy_alive: bool,
    /// Whether the whole node is still alive (fail-stop model). A dead
    /// node executes nothing; see [`NodeRuntime::crash_node`].
    pub alive: bool,
    /// Offload retransmissions performed (timeouts, NACKs, back-pressure).
    pub offload_retries: u64,
    /// Checksum failures answered with a NACK: a modeled turnaround on
    /// the offload path, not a message on IKC.
    pub nacks: u64,
    /// Offloads that ultimately failed with `-EIO` (proxy dead or retry
    /// budget exhausted).
    pub offload_eio: u64,
    /// Syscalls served by the promoted in-LWK fast path (never reached
    /// IKC). A plain field, not a trace counter: the fast path is the
    /// thing being measured, and a string-keyed counter bump would be a
    /// visible fraction of its budget.
    pub bypass_promoted: u64,
    /// Promotion attempts that fell back to the offload path (missing
    /// lease, cold time page, unsupported flag, straddling futex word).
    pub bypass_fallbacks: u64,
    costs: CostModel,
    /// Reusable request wire buffer: each offload encodes its request
    /// here exactly once; retransmits replay these bytes (and their CRC)
    /// without re-serializing. Zero steady-state allocation.
    tx_wire: Vec<u8>,
    /// Promotability lease per fd number, indexed flat by fd for the
    /// hot path ([`LEASE_NONE`] / [`LEASE_REGULAR`] / [`LEASE_OTHER`]):
    /// `LEASE_REGULAR` iff the last offloaded result proved the fd is a
    /// `Regular` file whose read/write/lseek semantics the LWK can
    /// reproduce locally. McKernel itself holds no fd table (fd state
    /// lives in Linux's VFS), so the bypass layer keeps this node-side
    /// shadow; any fd it has no lease for falls back to offload, and
    /// `close()` and proxy death revoke leases.
    fd_lease: Vec<u8>,
}

/// Receive the message just sent on `ch` and decode it, or `None` when
/// its checksum fails (the receiver then NACKs).
fn recv_verified<T>(ch: &mut IkcChannel, decode: impl Fn(&[u8]) -> Option<T>) -> Option<T> {
    let msg = ch.recv_ref().expect("just sent");
    msg.verify()
        .then(|| decode(msg.payload).expect("a verified message decodes"))
}

/// No offloaded call has classified this fd yet (or it was closed).
const LEASE_NONE: u8 = 0;
/// Linux's VFS says the fd is a regular file — promotable.
const LEASE_REGULAR: u8 = 1;
/// Device / proc fd — never promotable, stop re-checking.
const LEASE_OTHER: u8 = 2;
/// Flat lease table cap; fds above it simply stay offloaded.
const LEASE_MAX_FD: u64 = 4096;

impl NodeRuntime {
    /// Build and fully set up one node for `cfg`.
    pub fn build(cfg: &ClusterConfig, idx: u32, rng: &StreamRng) -> NodeRuntime {
        let node_rng = rng.stream("node", u64::from(idx));
        let mut hw = NodeSpec::paper_testbed().build(NodeId(idx));
        let horizon = Cycles::from_secs(cfg.horizon_secs);

        // --- IHK partitioning + LWK boot (McKernel variant). ---
        let costs = CostModel::default();
        let (ihk, mut mck, os_idx) = if cfg.os == OsVariant::McKernel {
            let mut ihk = IhkManager::new(hw.topology.num_cores());
            let os_idx = ihk
                .create_os(&mut hw.mem, &cfg.lwk_cores(), NumaId(1), 16 << 30)
                .expect("testbed node has the resources");
            let mck = ihk.boot(os_idx, costs).expect("fresh instance boots");
            (Some(ihk), Some(mck), Some(os_idx))
        } else {
            (None, None, None)
        };

        // Faults are scoped: the plan exists from the start but stays
        // suspended through boot + job setup, so injection only hits the
        // steady-state offload path.
        let mut faults = FaultPlan::new(cfg.faults, rng.stream("fault", u64::from(idx)));
        faults.set_active(false);

        // --- Linux boot over its cores. ---
        let noise = NoiseConfig {
            isolcpus: cfg.isolcpus().into_iter().collect(),
            // Hadoop's NodeManager heartbeats, HDFS I/O and GbE traffic
            // raise kernel-thread activity 4x node-wide.
            daemon_activity: if cfg.insitu { 4.0 } else { 1.0 },
            // Memory pressure (and hence reclaim) lives on NUMA 0: the
            // analytics job's domain, and where Linux itself booted.
            reclaim_cores: Some((0..10).map(CoreId).collect()),
        };
        let devices: Vec<(String, DeviceClass)> = hw
            .devices
            .iter()
            .map(|d| (d.dev_name.clone(), d.class))
            .collect();
        let mut linux = LinuxKernel::boot(
            cfg.linux_cores(),
            devices,
            &noise,
            node_rng.stream("linux", 0),
        );

        // --- In-situ Hadoop load. ---
        let mut pollution = Pollution::NONE;
        let mut busy_phases = Vec::new();
        if cfg.insitu {
            // Phase schedule is CLUSTER-wide (derived from the run seed,
            // not the node id): the analytics job's waves hit every node
            // together. Container placement stays per-node.
            let phases = hadoop::generate_phases(
                &hadoop::HadoopParams::default(),
                horizon,
                &rng.stream("hadoop-phases", 0),
            );
            let load = hadoop::generate_with_phases(
                &hadoop::HadoopParams::default(),
                &cfg.hadoop_cores(),
                horizon,
                phases,
                &node_rng.stream("hadoop", 0),
            );
            for iv in &load.intervals {
                linux.occupancy.add_load(iv.core, iv.start, iv.end, iv.tasks);
            }
            // Same-socket cache pollution only when Hadoop can actually
            // reach the application's socket (cgroup-only variant).
            let hadoop_reaches_app_socket = cfg
                .hadoop_cores()
                .iter()
                .any(|c| hw.topology.numa_of(*c) == NumaId(1) && c.0 < 18);
            // Cross-socket pressure: on Linux the analytics job's page
            // cache and reclaim spill into the application's NUMA domain;
            // IHK's reservation hides the LWK partition from Linux's
            // allocator, leaving McKernel only a QPI-snoop residual.
            let cross_factor = if cfg.os == OsVariant::McKernel { 0.15 } else { 1.0 };
            pollution = Pollution {
                same_socket: if hadoop_reaches_app_socket {
                    load.same_socket_pollution
                } else {
                    0.0
                },
                cross_socket: load.cross_socket_pollution * cross_factor,
            };
            // Phase-gated HDFS/GbE IRQ + flush pressure reaches every
            // *Linux-managed* application core — including isolcpus ones
            // (interrupt handlers don't honor isolcpus). McKernel's app
            // cores are outside Linux entirely, so nothing lands there.
            if cfg.os != OsVariant::McKernel {
                for &core in &cfg.app_cores() {
                    let crng = node_rng.stream("io-noise", u64::from(core.0));
                    linux.add_core_daemon(
                        core,
                        linuxsim::daemons::DaemonSource::eth_irq(crng.stream("eth", 0))
                            .with_activity(5.0)
                            .with_windows(load.busy_phases.clone()),
                    );
                    linux.add_core_daemon(
                        core,
                        linuxsim::daemons::DaemonSource::kworker(crng.stream("kw", 0))
                            .with_activity(3.0)
                            .with_windows(load.busy_phases.clone()),
                    );
                }
            }
            busy_phases = load.busy_phases;
        }
        linux.occupancy.seal();

        let mut node = NodeRuntime {
            id: idx,
            os: cfg.os,
            hw,
            linux,
            ihk,
            os_idx,
            mck: None,
            ikc: IkcPair::default(),
            app_pid: Pid(1),
            app_tid: None,
            proxy_pid: None,
            app_cores: cfg.app_cores(),
            uverbs_fd: -1,
            doorbell_phys: None,
            arena_va: VirtAddr::NULL,
            interference: InterferenceModel::default(),
            pollution,
            busy_phases,
            mem_intensity: cfg.mem_intensity,
            backing: if cfg.os == OsVariant::McKernel {
                PageBacking::Large2mContiguous
            } else {
                PageBacking::Small4k
            },
            faults,
            retry: RetryPolicy::default(),
            proxy_alive: true,
            alive: true,
            offload_retries: 0,
            nacks: 0,
            offload_eio: 0,
            bypass_promoted: 0,
            bypass_fallbacks: 0,
            costs,
            tx_wire: Vec::with_capacity(SyscallRequest::WIRE_SIZE),
            fd_lease: Vec::new(),
        };

        // --- Job setup. ---
        match cfg.os {
            OsVariant::McKernel => {
                let mut k = mck.take().expect("booted above");
                k.bypass = cfg.bypass;
                let app_pid = k.create_process(None);
                let tid = k.spawn_thread(app_pid, node.app_cores[0]);
                for &core in &node.app_cores[1..] {
                    k.spawn_thread(app_pid, core);
                }
                let proxy_pid = node.linux.spawn_proxy(app_pid, cfg.proxy_core());
                k.process_mut(app_pid).expect("created").proxy_pid = Some(proxy_pid);
                node.app_pid = app_pid;
                node.app_tid = Some(tid);
                node.proxy_pid = Some(proxy_pid);
                node.mck = Some(k);
                node.setup_mck_job();
            }
            _ => {
                node.linux.vfs.create_process(Pid(1));
                let (fd, _) = node
                    .linux
                    .vfs
                    .open(Pid(1), "/dev/infiniband/uverbs0")
                    .expect("uverbs registered");
                node.uverbs_fd = i64::from(fd.0);
                let dev = node
                    .hw
                    .device_of_class(DeviceClass::InfinibandHca)
                    .expect("testbed has an HCA");
                node.doorbell_phys = dev.bar_phys(0, 0);
            }
        }
        // Setup is done: arm the plan (a disabled config stays inert —
        // every draw gate also checks the per-fault rate).
        node.faults.set_active(node.faults.config().enabled);
        node
    }

    /// McKernel job setup: the real offload/devmap protocols.
    fn setup_mck_job(&mut self) {
        let mut now = Cycles::from_us(100);
        // 1. Map a page for the path string and write it through the
        //    McKernel fault path into real physical memory.
        let (path_va, t) = self.mck_mmap_anon(4096, now);
        now = t;
        let path_pa = self
            .mck
            .as_ref()
            .expect("mck set")
            .process(self.app_pid)
            .expect("app")
            .aspace
            .pt
            .translate(path_va)
            .expect("just faulted")
            .phys;
        self.hw.mem.write(path_pa, b"/dev/infiniband/uverbs0\0");
        // 2. Offloaded open() — marshalled, IKC-delivered, path read back
        //    through the unified address space by the proxy.
        let (fd, t) = self.offload_syscall(Sysno::Open, [path_va.raw(), 0, 0, 0, 0, 0], now);
        assert!(fd >= 0, "offloaded open failed: {fd}");
        self.uverbs_fd = fd;
        now = t;
        // 3. Registered-buffer arena (4 MiB, 2 MiB-backed).
        let (arena, t) = self.mck_mmap_anon(4 << 20, now);
        self.arena_va = arena;
        now = t;
        for off in [0u64, 2 << 20] {
            match self
                .mck
                .as_mut()
                .expect("mck set")
                .page_fault(self.app_pid, arena + off)
            {
                FaultOutcome::Mapped { .. } => {}
                o => panic!("arena fault failed: {o:?}"),
            }
        }
        // 4. Doorbell (UAR) page via the Fig. 4 flow.
        let dev = self
            .hw
            .device_of_class(DeviceClass::InfinibandHca)
            .expect("testbed has an HCA")
            .clone();
        let mck = self.mck.as_mut().expect("mck set");
        let (proxy, delegator) = self
            .linux
            .proxy_and_delegator(self.proxy_pid.expect("proxy spawned"))
            .expect("registered");
        let map = devmap::device_mmap(mck, self.app_pid, proxy, delegator, &dev, 0, 0, 8192)
            .expect("UAR maps");
        let (phys, _) = devmap::device_fault(mck, self.app_pid, delegator, map.lwk_va)
            .expect("fault resolves");
        self.doorbell_phys = Some(phys);
        let _ = now;
    }

    /// Anonymous mmap + first-touch fault on the LWK.
    fn mck_mmap_anon(&mut self, len: u64, at: Cycles) -> (VirtAddr, Cycles) {
        let mck = self.mck.as_mut().expect("LWK present");
        let tid = self.app_tid.expect("thread spawned");
        match mck.handle_syscall(
            self.app_pid,
            tid,
            Sysno::Mmap,
            [0, len, 3, 0x22, u64::MAX, 0],
            at,
        ) {
            SyscallOutcome::Done { ret, cost } if ret > 0 => {
                let va = VirtAddr(ret as u64);
                match mck.page_fault(self.app_pid, va) {
                    FaultOutcome::Mapped { cost: fc, .. } => (va, at + cost + fc),
                    o => panic!("anon fault failed: {o:?}"),
                }
            }
            o => panic!("mmap failed: {o:?}"),
        }
    }

    /// Execute one offloaded system call through the full machinery:
    /// McKernel marshal → IKC queue → IPI → delegator → proxy wake →
    /// Linux service (unified-address-space dereferences) → IKC reply.
    /// Returns (return value, completion instant).
    ///
    /// The offload path is recoverable: sequence-numbered requests are
    /// retransmitted after a timeout with exponential backoff, checksum
    /// failures are NACKed and resent, duplicate deliveries are absorbed
    /// by the delegator's completed-reply cache, and a proxy crash turns
    /// into `-EIO` after [`DEATH_CONFIRMATION`] plus full partition
    /// reclamation. With the fault plan inactive the timing and results
    /// are identical to the fault-free path.
    pub fn offload_syscall(&mut self, sysno: Sysno, args: [u64; 6], at: Cycles) -> (i64, Cycles) {
        self.try_offload_syscall(sysno, args, at)
            .expect("node alive with an LWK application")
    }

    /// [`NodeRuntime::offload_syscall`] with the states a node death can
    /// leave behind reported as typed [`NodeError`]s instead of panics:
    /// a fail-stopped node, a reclaimed LWK partition, a SIGKILLed
    /// application thread, or an outcome the driver has no path for.
    pub fn try_offload_syscall(
        &mut self,
        sysno: Sysno,
        args: [u64; 6],
        at: Cycles,
    ) -> Result<(i64, Cycles), NodeError> {
        if !self.alive {
            return Err(NodeError::NodeDead { node: self.id });
        }
        if self.os == OsVariant::McKernel && !self.proxy_alive {
            // The LWK already knows the proxy is gone: offloads fail
            // fast without touching IKC.
            self.offload_eio += 1;
            return Ok((-(Errno::EIO as i64), at + self.costs.lwk_syscall));
        }
        let Some(mck) = self.mck.as_mut() else {
            return Err(NodeError::LwkGone { node: self.id });
        };
        let Some(tid) = self.app_tid else {
            return Err(NodeError::NoAppThread { node: self.id });
        };
        // Profile-guided bypass: a call the heat profiler promoted runs
        // entirely on the LWK when every precondition holds. Any miss
        // (unknown fd, cold time page, unsupported flag, straddling
        // futex word) falls through to the normal offload path, so the
        // bypass can change timing but never results.
        if mck.bypass.enabled
            && mck.effective_disposition(self.app_pid, sysno, &args) == Disposition::Promoted
        {
            if let Some(out) = self.promoted_syscall(sysno, args, at) {
                self.bypass_promoted += 1;
                return Ok(out);
            }
            self.bypass_fallbacks += 1;
        }
        let mck = self.mck.as_mut().expect("present above");
        let outcome = mck.handle_syscall(self.app_pid, tid, sysno, args, at);
        Ok(match outcome {
            SyscallOutcome::Offload { req, cost } => {
                let (ret, done) = self.drive_offload(req, at + cost);
                // Keep the promotability lease in sync with offload results.
                if self.mck.as_ref().is_some_and(|m| m.bypass.enabled) {
                    self.note_offload_result(sysno, &args, ret);
                }
                (ret, done)
            }
            SyscallOutcome::Done { ret, cost } => (ret, at + cost),
            SyscallOutcome::DoneInvalidate { ret, cost, ranges } => {
                self.linux.sync_munmap(self.app_pid, &ranges);
                (ret, at + cost)
            }
            o => {
                return Err(NodeError::UnexpectedOutcome {
                    node: self.id,
                    outcome: format!("{sysno:?}: {o:?}"),
                })
            }
        })
    }

    /// Attempt to run a promoted syscall entirely on the LWK, without
    /// touching IKC, the delegator, or the proxy. Returns `None` when
    /// any precondition fails; the caller then takes the normal offload
    /// path, so a bypass miss can change timing but never results. The
    /// modeled cost is one in-LWK syscall entry plus (when MPK-style
    /// domains are armed) a protection-domain entry/exit pair; the user
    /// copy itself is application-side work, charged the same way the
    /// offload path charges it (not at all — only the kernel-side
    /// machinery is modeled).
    fn promoted_syscall(
        &mut self,
        sysno: Sysno,
        args: [u64; 6],
        at: Cycles,
    ) -> Option<(i64, Cycles)> {
        let proxy_pid = self.proxy_pid?;
        let mut cost = self.costs.lwk_syscall;
        let ret: i64 = match sysno {
            Sysno::Read => {
                // Only fds the offload path proved Regular are served
                // locally; everything else (devices, /proc, unknown
                // fds) stays offloaded. A held lease is an invariant,
                // not a hint: every way a VFS entry can disappear
                // (close, proxy death) also revokes it, so
                // the hot path skips re-validating against the VFS.
                if self.lease(args[0]) != LEASE_REGULAR {
                    return None;
                }
                let n = args[2].min(64 << 10);
                cost += self.enter_domain(DomainId::FdRing);
                // Same fill bytes and same partial-write-then-EFAULT
                // behavior as Linux's service arm writing through the
                // unified address space.
                match self.lwk_fill_user(VirtAddr(args[1]), n, 0xAB) {
                    Ok(()) => {
                        self.linux
                            .vfs
                            .advance(proxy_pid, Fd(args[0] as i32), n)
                            .expect("held lease implies a live VFS entry");
                        n as i64
                    }
                    Err(()) => encode_result(Err(Errno::EFAULT)),
                }
            }
            Sysno::Write => {
                if self.lease(args[0]) != LEASE_REGULAR {
                    return None;
                }
                let n = args[2].min(64 << 10);
                cost += self.enter_domain(DomainId::FdRing);
                // The offload path reads min(len, 64 KiB) bytes from the
                // app buffer but advances and returns the full length —
                // reproduce that quirk exactly.
                match self.lwk_check_user(VirtAddr(args[1]), n) {
                    Ok(()) => {
                        self.linux
                            .vfs
                            .advance(proxy_pid, Fd(args[0] as i32), args[2])
                            .expect("held lease implies a live VFS entry");
                        args[2] as i64
                    }
                    Err(()) => encode_result(Err(Errno::EFAULT)),
                }
            }
            Sysno::Lseek => {
                if self.lease(args[0]) != LEASE_REGULAR {
                    return None;
                }
                cost += self.enter_domain(DomainId::FdRing);
                match self
                    .linux
                    .vfs
                    .seek(proxy_pid, Fd(args[0] as i32), args[1] as i64, args[2] as u32)
                {
                    Ok(pos) => pos,
                    Err(e) => encode_result(Err(e)),
                }
            }
            Sysno::Futex => {
                const FUTEX_PRIVATE_FLAG: u64 = 128;
                match args[1] & !FUTEX_PRIVATE_FLAG {
                    // FUTEX_WAIT: load the 32-bit word natively. A word
                    // straddling a page boundary is the rare case —
                    // offload it rather than splitting the load.
                    0 => {
                        let va = VirtAddr(args[0]);
                        if va.page_offset() > PAGE_SIZE - 4 {
                            return None;
                        }
                        cost += self.enter_domain(DomainId::FdRing);
                        match self.lwk_read_u32(va) {
                            Some(cur) if cur == args[2] as u32 => 0,
                            Some(_) => encode_result(Err(Errno::EAGAIN)),
                            None => encode_result(Err(Errno::EFAULT)),
                        }
                    }
                    // FUTEX_WAKE: no thread parks in this model, so a
                    // wake finds no waiter and returns 0, exactly like
                    // the offloaded arm.
                    1 => {
                        cost += self.enter_domain(DomainId::FdRing);
                        0
                    }
                    // Other ops delegate (Linux answers -ENOSYS).
                    _ => return None,
                }
            }
            Sysno::ClockGettime => {
                // Cold time page (never published) → offload.
                let ns = self.mck.as_ref()?.time_page()?;
                cost += self.enter_domain(DomainId::TimePage);
                ns as i64
            }
            _ => return None,
        };
        cost += self.exit_domain();
        Some((ret, at + cost))
    }

    /// Current lease state for `fd` (flat-indexed; out-of-range fds
    /// have no lease and stay offloaded).
    #[inline]
    fn lease(&self, fd: u64) -> u8 {
        self.fd_lease.get(fd as usize).copied().unwrap_or(LEASE_NONE)
    }

    /// Maintain the per-fd promotability lease from an offloaded call's
    /// result: a successful read/write/lseek proves the fd exists and
    /// records (from Linux's VFS) whether it is a regular file the LWK
    /// may serve locally; `close()` revokes the lease.
    fn note_offload_result(&mut self, sysno: Sysno, args: &[u64; 6], ret: i64) {
        let fd = args[0];
        if fd >= LEASE_MAX_FD {
            return;
        }
        match sysno {
            Sysno::Read | Sysno::Write | Sysno::Lseek if ret >= 0 => {
                let Some(proxy_pid) = self.proxy_pid else { return };
                let regular = self
                    .linux
                    .vfs
                    .file(proxy_pid, Fd(fd as i32))
                    .is_ok_and(|f| matches!(f.kind, FileKind::Regular { .. }));
                if self.fd_lease.len() <= fd as usize {
                    self.fd_lease.resize(fd as usize + 1, LEASE_NONE);
                }
                self.fd_lease[fd as usize] =
                    if regular { LEASE_REGULAR } else { LEASE_OTHER };
            }
            Sysno::Close => {
                if let Some(l) = self.fd_lease.get_mut(fd as usize) {
                    *l = LEASE_NONE;
                }
            }
            _ => {}
        }
    }

    /// Charge a protection-domain entry (zero while domains are unarmed
    /// or the LWK is already inside `domain`).
    fn enter_domain(&mut self, domain: DomainId) -> Cycles {
        self.mck
            .as_mut()
            .map_or(Cycles::ZERO, |m| m.domains.enter(domain))
    }

    /// Return to the kernel-core domain, charging the switch.
    fn exit_domain(&mut self) -> Cycles {
        self.mck.as_mut().map_or(Cycles::ZERO, |m| m.domains.exit())
    }

    /// Fill `[va, va+len)` in the app's address space with `byte`,
    /// page by page through the LWK page tables. Mirrors the unified
    /// address space's copy loop: pages before the first unmapped one
    /// stay written when the fill faults.
    fn lwk_fill_user(&mut self, va: VirtAddr, len: u64, byte: u8) -> Result<(), ()> {
        // An empty range touches no page, so it needs no process.
        if len == 0 {
            return Ok(());
        }
        let m = self.mck.as_mut().ok_or(())?;
        let aspace = &mut m.process_mut(self.app_pid).ok_or(())?.aspace;
        let mut done = 0u64;
        while done < len {
            let cur = va + done;
            let pa = aspace.translate(cur).ok_or(())?.phys;
            let n = (len - done).min(PAGE_SIZE - cur.page_offset());
            self.hw.mem.fill(pa, n, byte);
            done += n;
        }
        Ok(())
    }

    /// Verify `[va, va+len)` is fully mapped (the promoted `write()`
    /// source-buffer check); reads nothing.
    fn lwk_check_user(&mut self, va: VirtAddr, len: u64) -> Result<(), ()> {
        // As in `lwk_fill_user`: an empty range needs no process.
        if len == 0 {
            return Ok(());
        }
        let m = self.mck.as_mut().ok_or(())?;
        let aspace = &mut m.process_mut(self.app_pid).ok_or(())?.aspace;
        let mut done = 0u64;
        while done < len {
            let cur = va + done;
            aspace.translate(cur).ok_or(())?;
            done += (len - done).min(PAGE_SIZE - cur.page_offset());
        }
        Ok(())
    }

    /// Load a naturally-contained 32-bit little-endian word from app
    /// memory through the LWK page tables (futex word load).
    fn lwk_read_u32(&mut self, va: VirtAddr) -> Option<u32> {
        let pa = {
            let m = self.mck.as_mut()?;
            let proc = m.process_mut(self.app_pid)?;
            proc.aspace.translate(va)?.phys
        };
        let mut w = [0u8; 4];
        self.hw.mem.read(pa, &mut w);
        Some(u32::from_le_bytes(w))
    }

    /// Publish the current wall-clock to both kernels' vDSO-style time
    /// pages, making `clock_gettime` answerable without any kernel
    /// transition (and keeping the promoted and offloaded answers
    /// identical).
    pub fn publish_time(&mut self, ns: u64) {
        self.linux.publish_vdso_time(ns);
        if let Some(m) = self.mck.as_mut() {
            m.publish_time_page(ns);
        }
    }

    /// Arm the MPK-style protection domains: fast-path state (IKC ring,
    /// delegator tables, per-fd rings, time page) moves behind pkeys and
    /// every promoted entry/exit pays `costs.domain_switch`.
    pub fn enable_domains(&mut self) {
        let switch = self.costs.domain_switch;
        if let Some(m) = self.mck.as_mut() {
            m.bypass.domains = true;
            m.domains = DomainModel::enabled(switch);
        }
        self.ikc.set_pkey(DomainId::IkcRing as u8);
        self.linux.delegator.set_pkey(DomainId::DelegatorSlab as u8);
    }

    /// The request/reply exchange for one marshalled offload, with the
    /// bounded retry loop around it. `now` is the instant the request is
    /// ready to enter IKC.
    ///
    /// Allocation discipline: the request is serialized exactly once into
    /// the node's reusable wire buffer (CRC computed over those bytes at
    /// the same time); every retransmit replays the buffer through
    /// [`IkcChannel::send_encoded`];
    /// replies are encoded straight into ring slots and read back by
    /// reference. Steady state allocates nothing.
    fn drive_offload(&mut self, req: SyscallRequest, start: Cycles) -> (i64, Cycles) {
        // Encode-once: take the scratch buffer out of self so the borrow
        // checker lets the retry loop borrow self freely.
        let mut tx = std::mem::take(&mut self.tx_wire);
        tx.clear();
        req.encode_into(&mut tx);
        let req_ck = message_checksum(MsgKind::SyscallRequest, &tx);
        let out = self.drive_offload_encoded(&req, &tx, req_ck, start);
        self.tx_wire = tx;
        out
    }

    fn drive_offload_encoded(
        &mut self,
        req: &SyscallRequest,
        req_wire: &[u8],
        req_ck: u32,
        start: Cycles,
    ) -> (i64, Cycles) {
        let costs = self.costs;
        let seq = req.seq;
        let mut now = start;
        let mut attempt: u32 = 0;
        loop {
            if attempt >= self.retry.max_attempts {
                // Retry budget exhausted: the LWK gives up on this call.
                self.offload_eio += 1;
                return (-(Errno::EIO as i64), now);
            }
            let timeout = self.retry.timeout_for(attempt);
            // Injected proxy crash at the configured in-flight depth.
            let inflight = self.linux.delegator.in_flight() as u32 + 1;
            if self.faults.proxy_should_crash(inflight, seq, now) {
                let done = self.handle_proxy_death(now);
                self.offload_eio += 1;
                return (-(Errno::EIO as i64), done);
            }
            // Delegator stall: the module is busy; delivery waits it out.
            let stall = match self.faults.draw_stall(seq, now) {
                Some(s) => s,
                None => Cycles::ZERO,
            };
            // Queue-full back-pressure on the LWK→Linux ring: the send
            // fails and the LWK backs off before retrying.
            if self.faults.draw_backpressure(seq, now) {
                self.offload_retries += 1;
                attempt += 1;
                now += timeout;
                continue;
            }
            // --- Request leg: replay the pre-encoded wire bytes. ---
            let mut req_delay = Cycles::ZERO;
            let mut corrupt_req = false;
            match self.faults.draw_msg_fault("req", seq, now) {
                MsgFault::Drop => {
                    // Lost on the wire: no reply ever comes; the LWK times
                    // out and retransmits.
                    self.offload_retries += 1;
                    attempt += 1;
                    now += timeout;
                    continue;
                }
                MsgFault::Delay(d) => req_delay = d,
                MsgFault::Corrupt => corrupt_req = true,
                MsgFault::None => {}
            }
            self.ikc
                .to_linux
                .send_encoded(MsgKind::SyscallRequest, req_wire, req_ck)
                .expect("IKC queue sized for the workload");
            if corrupt_req {
                // In-flight corruption: flip a payload bit inside the ring
                // slot, leaving the checksum stale.
                self.ikc.to_linux.corrupt_newest(seq);
            }
            let delivered = now + costs.ikc_ipi + stall + req_delay;
            let Some(wire_req) = recv_verified(&mut self.ikc.to_linux, SyscallRequest::decode)
            else {
                // Checksum failure on arrival: the delegator NACKs and the
                // LWK retransmits immediately (no timeout wait). The NACK
                // costs one send and one IPI back to the LWK.
                self.nacks += 1;
                self.offload_retries += 1;
                attempt += 1;
                now = delivered + costs.ikc_send + costs.ikc_ipi;
                continue;
            };
            debug_assert_eq!(wire_req, *req);
            let proxy_pid = self.proxy_pid.expect("proxy spawned");
            let dispatched = delivered + costs.delegator_dispatch;
            let (reply, wake_service) =
                match self.linux.delegator.on_syscall_request(proxy_pid, wire_req) {
                    // Dedup: this seq already completed (the reply leg was
                    // lost); answer from the cache without re-executing.
                    DispatchAction::Retransmit(rep) => (rep, Cycles::ZERO),
                    // Dedup: still executing; wait for the original reply.
                    DispatchAction::DuplicateInFlight => {
                        self.offload_retries += 1;
                        attempt += 1;
                        now = dispatched + timeout;
                        continue;
                    }
                    DispatchAction::NoProxy => {
                        // Proxy vanished between liveness check and dispatch.
                        let done = self.handle_proxy_death(dispatched);
                        self.offload_eio += 1;
                        return (-(Errno::EIO as i64), done);
                    }
                    DispatchAction::WakeProxy(_) | DispatchAction::Queued => {
                        let fetched = self
                            .linux
                            .delegator
                            .proxy_fetch(proxy_pid)
                            .expect("request queued");
                        // Service on Linux with real pointer dereferencing.
                        let svc = {
                            let mck_ref = self.mck.as_ref().expect("LWK present");
                            let pt = &mck_ref.process(self.app_pid).expect("app").aspace.pt;
                            self.linux.service_syscall(
                                proxy_pid,
                                &fetched,
                                dispatched,
                                pt,
                                &mut self.hw.mem,
                            )
                        };
                        let reply = self
                            .linux
                            .delegator
                            .complete(fetched.seq, svc.ret)
                            .expect("in flight");
                        (reply, svc.wake_delay + costs.proxy_dispatch + svc.service)
                    }
                };
            // --- Reply leg: encoded straight into a ring slot. ---
            let mut rep_delay = Cycles::ZERO;
            let mut corrupt_rep = None;
            match self.faults.draw_msg_fault("rep", seq, now) {
                MsgFault::Drop => {
                    // Reply lost: the LWK times out and retransmits the
                    // request, which the completed cache will answer.
                    self.offload_retries += 1;
                    attempt += 1;
                    now = dispatched + wake_service + timeout;
                    continue;
                }
                MsgFault::Delay(d) => rep_delay = d,
                MsgFault::Corrupt => corrupt_rep = Some(seq.rotate_left(17) | 1),
                MsgFault::None => {}
            }
            self.ikc
                .to_lwk
                .send_with(MsgKind::SyscallReply, |b| reply.encode_into(b))
                .expect("IKC queue sized for the workload");
            if let Some(flip) = corrupt_rep {
                self.ikc.to_lwk.corrupt_newest(flip);
            }
            let Some(wire_rep) = recv_verified(&mut self.ikc.to_lwk, SyscallReply::decode) else {
                // The LWK NACKs, at the same turnaround cost, and the
                // delegator resends from its cache on the retransmitted
                // request.
                self.nacks += 1;
                self.offload_retries += 1;
                attempt += 1;
                now = dispatched + wake_service + costs.ikc_send + costs.ikc_ipi;
                continue;
            };
            debug_assert_eq!(wire_rep, reply);
            let finish =
                dispatched + wake_service + costs.ikc_send + costs.ikc_ipi + rep_delay;
            return (reply.ret, finish);
        }
    }

    /// The proxy died. Its heartbeats go unanswered for
    /// [`DEATH_CONFIRMATION`]; then Linux reaps the proxy, the LWK
    /// application is SIGKILLed, tracking objects are dropped and the
    /// whole partition (cores + memory) returns to Linux. Returns the
    /// instant recovery completes.
    fn handle_proxy_death(&mut self, now: Cycles) -> Cycles {
        let proxy_pid = self.proxy_pid.take().expect("proxy was alive");
        let (stranded, app_pid) = self
            .linux
            .kill_proxy(proxy_pid)
            .expect("proxy was registered");
        // A node drives one offload at a time, and the offload that finds
        // the proxy dead is not in the delegator's in-flight table.
        debug_assert!(stranded.is_empty(), "{} offloads stranded", stranded.len());
        if let Some(mck) = self.mck.as_mut() {
            let killed = mck.kill_process(app_pid);
            debug_assert!(killed, "application existed");
            debug_assert!(mck.is_pristine(), "SIGKILL must leave the LWK pristine");
        }
        self.mck = None;
        self.app_tid = None;
        self.fd_lease.clear();
        // Reclaim the partition: no reboot needed, exactly like a normal
        // destroy (Sec. IV-B3 reinit policy).
        if let (Some(ihk), Some(os_idx)) = (self.ihk.as_mut(), self.os_idx) {
            ihk.destroy(os_idx, &mut self.hw.mem)
                .expect("instance was booted");
        }
        self.proxy_alive = false;
        now + DEATH_CONFIRMATION + self.costs.delegator_dispatch
    }

    /// Kill the proxy process now (external fault injection entry point,
    /// e.g. from tests), running the full recovery flow. Returns whether
    /// a proxy died: `false` on non-McKernel nodes or if the proxy is
    /// already dead.
    pub fn inject_proxy_death(&mut self, at: Cycles) -> bool {
        if self.os != OsVariant::McKernel || !self.proxy_alive {
            return false;
        }
        self.handle_proxy_death(at);
        true
    }

    /// Fail-stop the whole node at `at`. On McKernel the proxy-death
    /// recovery flow runs first ([`DEATH_CONFIRMATION`], then partition
    /// reclamation — node death kills the proxy along with everything
    /// else); either way the node stops executing and later operations
    /// fail with [`NodeError::NodeDead`]. Returns when local teardown
    /// completed.
    /// Peers detect the death separately, through the fabric.
    pub fn crash_node(&mut self, at: Cycles) -> Cycles {
        let done = if self.os == OsVariant::McKernel && self.proxy_alive {
            self.handle_proxy_death(at)
        } else {
            at
        };
        self.alive = false;
        done
    }

    /// Whether the co-located job is in a busy phase at `at`.
    pub fn in_busy_phase(&self, at: Cycles) -> bool {
        self.busy_phases.iter().any(|&(a, b)| a <= at && at < b)
    }

    /// DMA bandwidth degradation while the co-located job is busy: the
    /// HCA reads/writes DRAM that Hadoop's page cache churn also hammers.
    pub fn dma_stretch(&self, at: Cycles) -> f64 {
        if self.in_busy_phase(at) {
            1.0 + self.pollution.cross_socket * 0.12 + self.pollution.same_socket * 0.05
        } else {
            1.0
        }
    }

    /// Interference stretch for the current workload on this node at `at`
    /// (cache/bandwidth pollution exists only during busy phases).
    fn stretch(&self, at: Cycles) -> f64 {
        let pol = if self.in_busy_phase(at) {
            self.pollution
        } else {
            Pollution::NONE
        };
        self.interference.stretch(
            MemProfile {
                mem_intensity: self.mem_intensity,
            },
            self.backing,
            pol,
        )
    }

    /// Execute an application compute quantum on thread `thread_idx`.
    pub fn exec_app_thread(&mut self, thread_idx: usize, at: Cycles, work: Cycles) -> Cycles {
        let stretched = work.scale(self.stretch(at));
        match self.os {
            // Tick-less cooperative LWK: nothing shares the core, so
            // the quantum runs to completion exactly.
            OsVariant::McKernel => at + stretched,
            _ => {
                let core = self.app_core(thread_idx);
                self.linux.execute_on(core, at, stretched).finish
            }
        }
    }

    /// The core application thread `thread_idx` runs on.
    fn app_core(&self, thread_idx: usize) -> CoreId {
        self.app_cores[thread_idx % self.app_cores.len()]
    }

    /// Until when quanta of thread `thread_idx` from `t` on run exactly
    /// their work, so FWQ may append them without executing them. The
    /// LWK never interrupts a quantum (`Cycles::MAX`); a Linux core is
    /// quiet until its next tick, daemon arrival or competitor (see
    /// [`linuxsim::runtime::LinuxCoreRuntime::quiet_until`]). Only pure
    /// ALU work is quiet: any memory intensity stretches every quantum.
    pub fn quiet_until(&mut self, thread_idx: usize, t: Cycles) -> Cycles {
        if self.mem_intensity != 0.0 {
            return t;
        }
        match self.os {
            OsVariant::McKernel => Cycles::MAX,
            _ => {
                let core = self.app_core(thread_idx);
                self.linux.quiet_until(core, t)
            }
        }
    }

    /// Execute an 8-thread OpenMP region; ends at the slowest thread.
    pub fn omp_region(&mut self, at: Cycles, per_thread: Cycles, threads: u32) -> Cycles {
        (0..threads as usize)
            .map(|i| self.exec_app_thread(i, at, per_thread))
            .max()
            .unwrap_or(at)
    }

    /// MR registration (the Fig. 7 artifact): a `write()` on the uverbs
    /// fd. Local on Linux; a full offload on McKernel.
    pub fn mr_register(&mut self, at: Cycles, bytes: u64) -> Cycles {
        match self.os {
            OsVariant::McKernel => {
                let (_, done) = self.offload_syscall(
                    Sysno::Write,
                    [
                        self.uverbs_fd as u64,
                        self.arena_va.raw(),
                        bytes.min(4 << 20),
                        0,
                        0,
                        0,
                    ],
                    at,
                );
                done
            }
            _ => {
                let service = self
                    .linux
                    .vfs
                    .rw_cost(Pid(1), hlwk_core::abi::Fd(self.uverbs_fd as i32), bytes)
                    .unwrap_or(Cycles::from_us(5))
                    + self.costs.linux_syscall_entry;
                self.linux
                    .execute_on(self.app_cores[0], at, service)
                    .finish
            }
        }
    }

    /// Online LWK width (schedulable cores). Linux-variant nodes report
    /// their full app-core set.
    pub fn lwk_online_width(&self) -> usize {
        match self.mck.as_ref() {
            Some(mck) => mck.online_cores().len(),
            None => self.app_cores.len(),
        }
    }

    /// Elastic shrink: hand the highest online LWK core back to Linux
    /// through the real IHK release path. The drain protocol, in order:
    /// refuse while offloads are in flight (`CoreBusy`), migrate every
    /// app thread off the victim, offline it in the LWK (run-queue
    /// removal + software-TLB shootdown + per-CPU frame-cache drain),
    /// reclaim the delegator reply slab, and only then release the core
    /// from the IHK partition. Returns the released core.
    pub fn shrink_lwk_core(&mut self) -> Result<CoreId, PartitionError> {
        let (Some(mck), Some(ihk), Some(os_idx)) =
            (self.mck.as_mut(), self.ihk.as_mut(), self.os_idx)
        else {
            panic!("shrink_lwk_core on a Linux-variant node");
        };
        let online = mck.online_cores();
        assert!(online.len() >= 2, "cannot shrink below one LWK core");
        let victim = *online.last().expect("online core");
        if self.linux.delegator.in_flight() > 0 {
            return Err(PartitionError::CoreBusy(victim));
        }
        // Rebalance the gang off the victim: deterministic round-robin
        // over the surviving cores, ascending by tid.
        let survivors: Vec<CoreId> = online[..online.len() - 1].to_vec();
        for (i, tid) in mck.threads_on(victim).into_iter().enumerate() {
            mck.migrate_thread(tid, survivors[i % survivors.len()])
                .expect("migrate off shrinking core");
        }
        mck.offline_core(victim).expect("drained core must offline");
        if self.linux.delegator.completed_cache_len() > 0 {
            self.linux.delegator.reclaim_completed();
        }
        ihk.shrink_os(os_idx, &[victim])?;
        self.app_cores = mck.online_cores();
        Ok(victim)
    }

    /// Elastic expand: reclaim the lowest released core back from Linux
    /// (LIFO against [`NodeRuntime::shrink_lwk_core`]), rebalance the
    /// gang across the widened partition, and return the regrown core.
    pub fn grow_lwk_core(&mut self) -> Result<CoreId, PartitionError> {
        let (Some(mck), Some(ihk), Some(os_idx)) =
            (self.mck.as_mut(), self.ihk.as_mut(), self.os_idx)
        else {
            panic!("grow_lwk_core on a Linux-variant node");
        };
        let candidate = *mck
            .offline_cores()
            .first()
            .expect("grow with no released core");
        ihk.grow_os(os_idx, &[candidate])?;
        mck.online_core(candidate).expect("regrow released core");
        let online = mck.online_cores();
        let mut tids: Vec<Tid> = online
            .iter()
            .flat_map(|&c| mck.threads_on(c))
            .collect();
        tids.sort_unstable();
        for (i, tid) in tids.into_iter().enumerate() {
            mck.migrate_thread(tid, online[i % online.len()])
                .expect("rebalance onto grown core");
        }
        self.app_cores = mck.online_cores();
        Ok(candidate)
    }

    /// Audit that a released core left nothing behind: not reserved in
    /// IHK, offline in the LWK, software TLBs shot down, frame cache
    /// drained, no run queue, and the delegator fully reclaimed. The
    /// resize-storm soak runs this after every release.
    pub fn audit_released_core(&self, core: CoreId) -> Result<(), String> {
        let (Some(mck), Some(ihk)) = (self.mck.as_ref(), self.ihk.as_ref()) else {
            return Err("audit on a Linux-variant node".into());
        };
        if ihk.is_reserved(core) {
            return Err(format!("{core} still reserved in IHK"));
        }
        if mck.core_online(core) {
            return Err(format!("{core} still online in the LWK"));
        }
        let cpu = mck.cpu_index_of(core).ok_or(format!("{core} unknown"))?;
        let tlb = mck.tlb_resident_on(cpu);
        if tlb > 0 {
            return Err(format!("{core}: {tlb} software-TLB entries resident"));
        }
        let pcp = mck.alloc.pcp_cached_on(cpu);
        if pcp > 0 {
            return Err(format!("{core}: {pcp} frames cached in the PCP"));
        }
        if mck.sched.has_core(core) {
            return Err(format!("{core} still has a run queue"));
        }
        if self.linux.delegator.in_flight() > 0 {
            return Err("offloads in flight across the release".into());
        }
        if self.linux.delegator.completed_cache_len() > 0 {
            return Err("delegator reply slab not reclaimed".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use hlwk_core::mck::syscall::BypassConfig;

    fn build(os: OsVariant, insitu: bool) -> NodeRuntime {
        let mut cfg = ClusterConfig::paper(os).with_nodes(1).with_seed(77);
        cfg.insitu = insitu;
        cfg.horizon_secs = 5;
        NodeRuntime::build(&cfg, 0, &StreamRng::root(cfg.seed))
    }

    #[test]
    fn elastic_shrink_release_audit_and_regrow() {
        let mut n = build(OsVariant::McKernel, false);
        let width0 = n.lwk_online_width();
        assert!(width0 >= 2, "paper layout has a multi-core LWK");

        let c1 = n.shrink_lwk_core().unwrap();
        n.audit_released_core(c1).unwrap();
        let c2 = n.shrink_lwk_core().unwrap();
        n.audit_released_core(c2).unwrap();
        assert!(c2 < c1, "victims walk down from the top core");
        assert_eq!(n.lwk_online_width(), width0 - 2);
        assert_eq!(n.app_cores.len(), width0 - 2);

        // Released cores are Linux's again.
        let ihk = n.ihk.as_ref().unwrap();
        assert!(!ihk.is_reserved(c1) && !ihk.is_reserved(c2));

        // The shrunk node still executes app quanta and offloads.
        let done = n.omp_region(Cycles::ZERO, Cycles::from_us(10), 8);
        assert!(done > Cycles::ZERO);
        let (ret, _) = n.offload_syscall(Sysno::Getpid, [0; 6], done);
        assert!(ret >= 0);
        assert_eq!(n.linux.delegator.in_flight(), 0);

        // Grow back LIFO: lowest released core returns first.
        let g1 = n.grow_lwk_core().unwrap();
        assert_eq!(g1, c2);
        let g2 = n.grow_lwk_core().unwrap();
        assert_eq!(g2, c1);
        assert_eq!(n.lwk_online_width(), width0);
        assert!(n.ihk.as_ref().unwrap().is_reserved(c1));

        // Gang is rebalanced over the full width again.
        let mck = n.mck.as_ref().unwrap();
        let spread: usize = mck
            .online_cores()
            .iter()
            .filter(|&&c| !mck.threads_on(c).is_empty())
            .count();
        assert_eq!(spread, 8.min(width0), "threads spread across the gang");

        // Tearing the regrown LWK down leaves it pristine (debug-asserted
        // on the proxy-death path, Sec. IV-B3 reinit policy) and hands
        // every core, regrown ones included, back to Linux.
        n.crash_node(Cycles::from_ms(1));
        assert!(n.mck.is_none());
        let ihk = n.ihk.as_ref().unwrap();
        assert!(!ihk.is_reserved(c1) && !ihk.is_reserved(c2));
    }

    #[test]
    fn shrink_with_an_offload_in_flight_is_core_busy_and_moves_nothing() {
        let mut n = build(OsVariant::McKernel, false);
        let width0 = n.lwk_online_width();
        let os_idx = n.os_idx.expect("LWK instance");
        let snapshot = |n: &NodeRuntime| {
            let mck = n.mck.as_ref().unwrap();
            let queues: Vec<Vec<Tid>> =
                mck.online_cores().iter().map(|&c| mck.threads_on(c)).collect();
            let ihk = n.ihk.as_ref().unwrap();
            let part = ihk.instance(os_idx).unwrap().partition.cores.clone();
            (queues, part, ihk.linux_cores())
        };
        let before = snapshot(&n);
        let top = *n.mck.as_ref().unwrap().online_cores().last().unwrap();

        // Park one offload in the delegator's in-flight table, as if the
        // proxy had not answered it yet.
        let seq = 1 << 40;
        let req = SyscallRequest {
            seq,
            pid: n.app_pid.0,
            tid: 0,
            sysno: Sysno::Getpid.nr(),
            args: [0; 6],
        };
        n.linux.delegator.on_syscall_request(n.proxy_pid.unwrap(), req);
        assert_eq!(n.linux.delegator.in_flight(), 1);
        assert_eq!(n.shrink_lwk_core(), Err(PartitionError::CoreBusy(top)));
        assert_eq!(n.lwk_online_width(), width0);
        assert_eq!(snapshot(&n), before, "refused shrink moved no thread or core");

        // Drained: the same shrink goes through and leaves nothing behind.
        n.linux.delegator.complete(seq, 0).expect("parked request");
        assert_eq!(n.shrink_lwk_core(), Ok(top));
        n.audit_released_core(top).unwrap();
        assert_eq!(n.lwk_online_width(), width0 - 1);
    }

    #[test]
    fn mckernel_node_boots_and_sets_up_the_whole_stack() {
        let n = build(OsVariant::McKernel, false);
        assert!(n.mck.is_some());
        assert!(n.proxy_pid.is_some());
        assert!(n.uverbs_fd >= 3, "offloaded open returned {}", n.uverbs_fd);
        assert!(n.doorbell_phys.is_some());
        assert_ne!(n.arena_va, VirtAddr::NULL);
        // The doorbell resolves into the HCA BAR.
        let bar = n.hw.device_of_class(DeviceClass::InfinibandHca).unwrap().bars[0];
        assert!(bar.contains(n.doorbell_phys.unwrap()));
        // fd state lives on the Linux side.
        assert!(n.linux.vfs.fd_count(n.proxy_pid.unwrap()) >= 4);
        // The unified AS actually faulted pages (path read).
        let proxy = n.linux.proxy(n.proxy_pid.unwrap()).unwrap();
        assert!(proxy.uas.stats().0 >= 1, "pseudo-mapping never used");
    }

    #[test]
    fn linux_node_sets_up_locally() {
        let n = build(OsVariant::LinuxCgroup, false);
        assert!(n.mck.is_none());
        assert!(n.proxy_pid.is_none());
        assert!(n.uverbs_fd >= 3);
        assert!(n.doorbell_phys.is_some());
    }

    #[test]
    fn lwk_compute_is_exact_linux_compute_is_noisy() {
        let mut mck = build(OsVariant::McKernel, false);
        mck.mem_intensity = 0.0; // pure ALU: no stretch at all
        let w = Cycles::from_ms(50);
        let done = mck.exec_app_thread(0, Cycles::from_us(3), w);
        assert_eq!(done, Cycles::from_us(3) + w, "tick-less LWK is exact");
        let mut lin = build(OsVariant::LinuxCgroup, false);
        lin.mem_intensity = 0.0;
        let done = lin.exec_app_thread(0, Cycles::from_us(3), w);
        assert!(done > Cycles::from_us(3) + w, "ticks steal time on Linux");
    }

    #[test]
    fn offloaded_getrandom_round_trips() {
        let mut n = build(OsVariant::McKernel, false);
        // Write into the arena through an offloaded getrandom.
        let (ret, done) = n.offload_syscall(
            Sysno::GetRandom,
            [n.arena_va.raw(), 256, 0, 0, 0, 0],
            Cycles::from_ms(1),
        );
        assert_eq!(ret, 256);
        assert!(done > Cycles::from_ms(1));
        // The bytes are visible in the app's physical memory.
        let pa = n
            .mck
            .as_ref()
            .unwrap()
            .process(n.app_pid)
            .unwrap()
            .aspace
            .pt
            .translate(n.arena_va)
            .unwrap()
            .phys;
        let mut buf = [0u8; 256];
        n.hw.mem.read(pa, &mut buf);
        assert!(buf.iter().any(|&b| b != 0), "random bytes landed");
    }

    #[test]
    fn offloaded_syscall_costs_far_more_than_a_local_one() {
        // The design argument behind the split: an in-LWK call is table
        // dispatch only, an offloaded one crosses IKC, the delegator,
        // the proxy's Linux timeslice and the reply path. In modeled
        // time it costs about 100x more (0.120 us local getpid against
        // 13.43 us cold and 11.63 us warm getrandom), which is why only
        // performance-insensitive calls are delegated.
        let mut n = build(OsVariant::McKernel, false);
        let at = Cycles::from_ms(1);
        let (_, done) = n.offload_syscall(Sysno::Getpid, [0; 6], at);
        let local = done - at;
        let arena = n.arena_va.raw();
        let (_, done) = n.offload_syscall(Sysno::GetRandom, [arena, 64, 0, 0, 0, 0], at);
        let cold = done - at;
        let (_, warm_done) = n.offload_syscall(Sysno::GetRandom, [arena, 64, 0, 0, 0, 0], done);
        let warm = warm_done - done;
        for offloaded in [cold, warm] {
            assert!(
                offloaded.raw() >= 50 * local.raw(),
                "offloaded {offloaded} is not 50x the local {local}"
            );
        }
    }

    #[test]
    fn mr_register_costs_more_on_mckernel_than_linux() {
        let mut mck = build(OsVariant::McKernel, false);
        let mut lin = build(OsVariant::LinuxCgroupIsolcpus, false);
        let at = Cycles::from_ms(2);
        let mck_cost = mck.mr_register(at, 1 << 20) - at;
        let lin_cost = lin.mr_register(at, 1 << 20) - at;
        assert!(
            mck_cost > lin_cost,
            "offloaded registration ({mck_cost}) must exceed local ({lin_cost})"
        );
        // But still microseconds-scale, not catastrophic.
        assert!(mck_cost < Cycles::from_ms(1), "{mck_cost}");
    }

    #[test]
    fn local_syscalls_stay_on_the_lwk() {
        let mut n = build(OsVariant::McKernel, false);
        let before = n.mck.as_ref().unwrap().syscalls_local;
        let (ret, _) = n.offload_syscall(Sysno::Getpid, [0; 6], Cycles::from_ms(1));
        assert_eq!(ret, n.app_pid.0 as i64);
        let after = n.mck.as_ref().unwrap().syscalls_local;
        assert_eq!(after, before + 1);
        assert_eq!(n.linux.offloads_serviced, 1, "only the open()");
    }

    #[test]
    fn insitu_contention_reaches_app_cores_only_under_cgroup() {
        let cg = build(OsVariant::LinuxCgroup, true);
        let iso = build(OsVariant::LinuxCgroupIsolcpus, true);
        let app_core = CoreId(10);
        assert!(
            cg.linux.occupancy.has_load(app_core),
            "cgroup-only: Hadoop lands on app cores"
        );
        assert!(
            !iso.linux.occupancy.has_load(app_core),
            "isolcpus keeps them off"
        );
        let mck = build(OsVariant::McKernel, true);
        assert!(
            mck.linux.occupancy.has_load(CoreId(19)),
            "Hadoop can occupy the proxy core"
        );
    }

    #[test]
    fn dead_node_operations_are_typed_errors_not_panics() {
        let mut n = build(OsVariant::McKernel, false);
        let at = Cycles::from_ms(1);
        let done = n.crash_node(at);
        // McKernel death runs the proxy-death recovery flow first.
        let dispatch = CostModel::default().delegator_dispatch;
        assert_eq!(done, at + DEATH_CONFIRMATION + dispatch);
        assert!(!n.alive);
        assert!(!n.proxy_alive);
        assert!(n.mck.is_none(), "partition reclaimed");
        let err = n
            .try_offload_syscall(Sysno::Getpid, [0; 6], done)
            .expect_err("dead node executes nothing");
        assert_eq!(err, NodeError::NodeDead { node: 0 });
        // Crashing twice is idempotent.
        assert_eq!(n.crash_node(done), done);
    }

    #[test]
    fn linux_node_crash_is_immediate_and_offload_free() {
        let mut n = build(OsVariant::LinuxCgroup, false);
        let at = Cycles::from_ms(2);
        assert_eq!(n.crash_node(at), at, "no proxy flow on Linux");
        assert!(matches!(
            n.try_offload_syscall(Sysno::Getpid, [0; 6], at),
            Err(NodeError::NodeDead { node: 0 })
        ));
    }

    /// Arm the bypass programmatically (tests never touch the process
    /// environment) with an immediate promotion threshold.
    fn arm_bypass(n: &mut NodeRuntime, promote_after: u64) {
        n.mck.as_mut().unwrap().bypass = BypassConfig {
            enabled: true,
            promote_after,
            domains: false,
        };
    }

    /// Offload an `open()` of a regular (page-cached) file and return
    /// its fd plus the completion instant.
    fn open_regular(n: &mut NodeRuntime, at: Cycles) -> (u64, Cycles) {
        let (path_va, t) = n.mck_mmap_anon(4096, at);
        let pa = n
            .mck
            .as_ref()
            .unwrap()
            .process(n.app_pid)
            .unwrap()
            .aspace
            .pt
            .translate(path_va)
            .unwrap()
            .phys;
        n.hw.mem.write(pa, b"/data/input.bin\0");
        let (fd, t) = n.offload_syscall(Sysno::Open, [path_va.raw(), 0, 0, 0, 0, 0], t);
        assert!(fd >= 0, "open failed: {fd}");
        (fd as u64, t)
    }

    #[test]
    fn promoted_read_write_lseek_match_the_offloaded_results_exactly() {
        // Two identical nodes, one with the bypass armed; drive the same
        // syscall sequence and demand identical results and fd state.
        let mut base = build(OsVariant::McKernel, false);
        let mut fast = build(OsVariant::McKernel, false);
        arm_bypass(&mut fast, 1);
        let mut outs = Vec::new();
        for n in [&mut base, &mut fast] {
            let (fd, mut t) = open_regular(n, Cycles::from_ms(1));
            let buf = n.arena_va.raw();
            let mut rets = Vec::new();
            // First read offloads on both nodes (cold profiler + no
            // lease); later ones are promoted only on `fast`.
            for _ in 0..4 {
                let (r, t2) = n.offload_syscall(Sysno::Read, [fd, buf, 100, 0, 0, 0], t);
                rets.push(r);
                t = t2;
            }
            let (r, t2) = n.offload_syscall(Sysno::Lseek, [fd, 64, 0, 0, 0, 0], t);
            rets.push(r);
            let (r, t2) = n.offload_syscall(Sysno::Write, [fd, buf, 200, 0, 0, 0], t2);
            rets.push(r);
            // EFAULT: unmapped buffer, both paths.
            let (r, t2) = n.offload_syscall(Sysno::Read, [fd, 0xdead_0000, 8, 0, 0, 0], t2);
            rets.push(r);
            let pos = n
                .linux
                .vfs
                .file(n.proxy_pid.unwrap(), Fd(fd as i32))
                .unwrap()
                .pos;
            let mut data = [0u8; 100];
            let pa = n
                .mck
                .as_ref()
                .unwrap()
                .process(n.app_pid)
                .unwrap()
                .aspace
                .pt
                .translate(n.arena_va)
                .unwrap()
                .phys;
            n.hw.mem.read(pa, &mut data);
            outs.push((rets, pos, data, t2));
        }
        assert_eq!(outs[0].0, outs[1].0, "return values diverged");
        assert_eq!(outs[0].1, outs[1].1, "fd position diverged");
        assert_eq!(outs[0].2, outs[1].2, "app memory diverged");
        // The bypass actually engaged and actually skipped offloads.
        let promoted = fast.bypass_promoted;
        assert!(promoted >= 4, "promoted {promoted} calls");
        assert!(
            fast.linux.offloads_serviced < base.linux.offloads_serviced,
            "promotion must shed offloads"
        );
        // And it is dramatically cheaper in modeled time too.
        assert!(outs[1].3 < outs[0].3, "bypass must not be slower");
    }

    #[test]
    fn promoted_futex_and_clock_match_offload_and_cold_paths_fall_back() {
        let mut n = build(OsVariant::McKernel, false);
        arm_bypass(&mut n, 1);
        let t = Cycles::from_ms(1);
        let word = n.arena_va.raw();
        // Cold profiler: first futex offloads. Word is zeroed memory.
        let (r1, t) = n.offload_syscall(Sysno::Futex, [word, 128, 0, 0, 0, 0], t);
        assert_eq!(r1, 0, "value matches -> modeled spurious wakeup");
        // Promoted now: same convention natively.
        let (r2, t) = n.offload_syscall(Sysno::Futex, [word, 128, 0, 0, 0, 0], t);
        assert_eq!(r2, 0);
        let (r3, t) = n.offload_syscall(Sysno::Futex, [word, 128, 7, 0, 0, 0], t);
        assert_eq!(r3, -(Errno::EAGAIN as i64));
        let (r4, t) = n.offload_syscall(Sysno::Futex, [0xdead_0000, 128, 0, 0, 0, 0], t);
        assert_eq!(r4, -(Errno::EFAULT as i64));
        // FUTEX_WAKE returns 0 on both paths; unknown ops fall back and
        // come back -ENOSYS from Linux.
        let (r5, t) = n.offload_syscall(Sysno::Futex, [word, 129, 1, 0, 0, 0], t);
        assert_eq!(r5, 0);
        let (r6, t) = n.offload_syscall(Sysno::Futex, [word, 9, 0, 0, 0, 0], t);
        assert_eq!(r6, -(Errno::ENOSYS as i64));
        // clock_gettime: cold time page falls back to offload (Linux's
        // vDSO value, 0 until published), then the published value is
        // read from the LWK's shared page with no kernel transition.
        let (c1, t) = n.offload_syscall(Sysno::ClockGettime, [0, 0, 0, 0, 0, 0], t);
        assert_eq!(c1, 0, "unpublished clock reads 0 via offload");
        n.publish_time(987_654_321);
        let serviced_before = n.linux.offloads_serviced;
        let (c2, _) = n.offload_syscall(Sysno::ClockGettime, [0, 0, 0, 0, 0, 0], t);
        assert_eq!(c2, 987_654_321);
        assert_eq!(
            n.linux.offloads_serviced,
            serviced_before,
            "published clock never leaves the LWK"
        );
        assert!(n.bypass_fallbacks >= 1);
    }

    #[test]
    fn device_fds_are_never_promoted() {
        let mut n = build(OsVariant::McKernel, false);
        arm_bypass(&mut n, 1);
        let fd = n.uverbs_fd as u64;
        let buf = n.arena_va.raw();
        let mut t = Cycles::from_ms(1);
        let before = n.linux.offloads_serviced;
        for _ in 0..5 {
            let (_, t2) = n.offload_syscall(Sysno::Write, [fd, buf, 64, 0, 0, 0], t);
            t = t2;
        }
        assert_eq!(
            n.linux.offloads_serviced,
            before + 5,
            "device-fd writes must all reach Linux"
        );
        assert_eq!(n.bypass_promoted, 0);
    }

    #[test]
    fn armed_domains_charge_one_switch_pair_per_promoted_call() {
        let mut cheap = build(OsVariant::McKernel, false);
        let mut guarded = build(OsVariant::McKernel, false);
        arm_bypass(&mut cheap, 1);
        arm_bypass(&mut guarded, 1);
        guarded.enable_domains();
        let t0 = Cycles::from_ms(1);
        let mut done = [Cycles::ZERO; 2];
        for (i, n) in [&mut cheap, &mut guarded].into_iter().enumerate() {
            let (fd, t) = open_regular(n, t0);
            let buf = n.arena_va.raw();
            let (_, t) = n.offload_syscall(Sysno::Read, [fd, buf, 32, 0, 0, 0], t);
            // Promoted from here on.
            let (_, t) = n.offload_syscall(Sysno::Read, [fd, buf, 32, 0, 0, 0], t);
            done[i] = t;
        }
        let switch = CostModel::default().domain_switch;
        assert_eq!(
            done[1] - done[0],
            switch * 2,
            "exactly one enter/exit pair per promoted call"
        );
        assert_eq!(guarded.mck.as_ref().unwrap().domains.switches, 2);
        assert_eq!(guarded.ikc.to_linux.pkey(), Some(DomainId::IkcRing as u8));
        assert_eq!(
            guarded.linux.delegator.pkey(),
            Some(DomainId::DelegatorSlab as u8)
        );
    }

    #[test]
    fn bypass_disabled_leaves_the_trace_untouched() {
        let mut n = build(OsVariant::McKernel, false);
        let (fd, mut t) = open_regular(&mut n, Cycles::from_ms(1));
        for _ in 0..20 {
            let (_, t2) = n.offload_syscall(Sysno::Read, [fd, n.arena_va.raw(), 16, 0, 0, 0], t);
            t = t2;
        }
        assert_eq!(n.bypass_promoted, 0);
        assert_eq!(n.bypass_fallbacks, 0);
        assert!(n.fd_lease.is_empty(), "no lease bookkeeping while disabled");
    }
}
