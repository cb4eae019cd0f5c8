//! The Linux kernel facade: cores + noise runtimes + VFS + the loaded IHK
//! delegator module + proxy processes.
//!
//! This is "unmodified Linux": IHK lives inside it as a kernel module and
//! proxy processes are ordinary Linux tasks subject to its scheduler —
//! which is why offload latency depends on how busy the proxy's core is.

use crate::cfs::CfsParams;
use crate::daemons::DaemonSource;
use crate::occupancy::CoreOccupancy;
use crate::runtime::{ExecOutcome, LinuxCoreRuntime};
use crate::tick::TickSource;
use crate::vfs::Vfs;
use hlwk_core::abi::{encode_result, Errno, Fd, Pid, Sysno};
use hlwk_core::ihk::delegator::Delegator;
use hlwk_core::mck::mem::pagetable::PageTable;
use hlwk_core::mck::syscall::{SyscallReply, SyscallRequest};
use hlwk_core::proxy::{ProxyProcess, ProxyState};
use hwmodel::addr::VirtAddr;
use hwmodel::cpu::CoreId;
use hwmodel::memory::PhysMemory;
use hwmodel::pci::DeviceClass;
use simcore::{Cycles, FastMap, StreamRng};
use std::collections::BTreeSet;

/// Noise configuration for a node's Linux instance.
#[derive(Clone, Debug, Default)]
pub struct NoiseConfig {
    /// Cores listed in `isolcpus=`.
    pub isolcpus: BTreeSet<CoreId>,
    /// Daemon/IRQ activity multiplier (>1 when I/O-heavy co-located work
    /// runs; 1.0 for an idle node).
    pub daemon_activity: f64,
    /// Cores where page-reclaim (kswapd) runs. Reclaim scans happen on
    /// the NUMA node with memory pressure — the analytics job's domain —
    /// so HPC cores rarely host them. `None` = any core.
    pub reclaim_cores: Option<BTreeSet<CoreId>>,
}

impl NoiseConfig {
    /// Quiet node, no isolation.
    pub fn idle() -> Self {
        NoiseConfig {
            isolcpus: BTreeSet::new(),
            daemon_activity: 1.0,
            reclaim_cores: None,
        }
    }
}

/// Result of servicing one offloaded syscall on Linux.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceResult {
    /// Return value in Linux convention.
    pub ret: i64,
    /// Scheduling delay before the proxy ran (CFS wake latency).
    pub wake_delay: Cycles,
    /// Kernel + proxy service time for the call itself.
    pub service: Cycles,
}

/// A proxy process and the Linux core it is pinned to.
#[derive(Debug)]
struct PinnedProxy {
    process: ProxyProcess,
    core: CoreId,
}

/// One node's Linux instance.
#[derive(Debug)]
pub struct LinuxKernel {
    cores: Vec<CoreId>,
    /// One noise runtime per core, in `cores` order.
    runtimes: Vec<LinuxCoreRuntime>,
    /// Competing-load timeline (Hadoop tasks register here).
    pub occupancy: CoreOccupancy,
    /// VFS with fd tables for proxies.
    pub vfs: Vfs,
    /// The IHK delegator kernel module.
    pub delegator: Delegator,
    proxies: FastMap<Pid, PinnedProxy>,
    params: CfsParams,
    next_pid: u32,
    rng: StreamRng,
    /// vDSO-style shared time page (nanoseconds). Published to both
    /// kernels at once, so the offloaded `clock_gettime` arm and the
    /// promoted in-LWK read are observationally identical.
    vdso_ns: u64,
    /// Offloaded syscalls serviced by proxies.
    pub offloads_serviced: u64,
}

impl LinuxKernel {
    /// Boot Linux over `cores` (the cores *not* reserved by IHK) with the
    /// node's device list and noise configuration.
    pub fn boot(
        cores: Vec<CoreId>,
        devices: impl IntoIterator<Item = (String, DeviceClass)>,
        noise: &NoiseConfig,
        rng: StreamRng,
    ) -> Self {
        assert!(!cores.is_empty(), "Linux needs at least one core");
        let mut runtimes = Vec::with_capacity(cores.len());
        for &core in &cores {
            let core_rng = rng.stream("core", u64::from(core.0));
            let daemons: Vec<DaemonSource> = if noise.isolcpus.contains(&core) {
                DaemonSource::isolcpus_set(&core_rng)
            } else {
                DaemonSource::standard_set(&core_rng)
            }
            .into_iter()
            .filter(|d| {
                d.name != "kswapd"
                    || noise
                        .reclaim_cores
                        .as_ref()
                        .is_none_or(|set| set.contains(&core))
            })
            .map(|d| d.with_activity(noise.daemon_activity))
            .collect();
            runtimes.push(LinuxCoreRuntime::with_rng(
                core,
                Some(TickSource::hz1000(core_rng.stream("tick", 0))),
                daemons,
                core_rng.stream("exec", 0),
            ));
        }
        LinuxKernel {
            cores,
            runtimes,
            occupancy: CoreOccupancy::new(),
            vfs: Vfs::new(devices),
            delegator: Delegator::new(),
            proxies: FastMap::default(),
            params: CfsParams::default(),
            next_pid: 300,
            rng,
            vdso_ns: 0,
            offloads_serviced: 0,
        }
    }

    /// Cores Linux schedules on.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Where `core`'s runtime sits in `runtimes`.
    fn position(&self, core: CoreId) -> usize {
        self.cores
            .iter()
            .position(|&c| c == core)
            .unwrap_or_else(|| panic!("{core} is not a Linux core"))
    }

    /// Attach an extra noise source to one core (phase-gated IRQ/flush
    /// pressure from co-located I/O work — this is what still reaches
    /// `isolcpus` cores).
    pub fn add_core_daemon(&mut self, core: CoreId, d: DaemonSource) {
        let i = self.position(core);
        self.runtimes[i].push_daemon(d);
    }

    /// Execute an application quantum on a Linux core (Linux-hosted HPC
    /// runs and FWQ probes go through this).
    pub fn execute_on(&mut self, core: CoreId, start: Cycles, work: Cycles) -> ExecOutcome {
        let i = self.position(core);
        self.runtimes[i].execute(start, work, &self.occupancy)
    }

    /// Until when quanta on `core` from `t` on run exactly their work
    /// (see [`LinuxCoreRuntime::quiet_until`]).
    pub fn quiet_until(&mut self, core: CoreId, t: Cycles) -> Cycles {
        let i = self.position(core);
        self.runtimes[i].quiet_until(t, &self.occupancy)
    }

    /// Spawn the proxy process for application `app_pid`, pinned to `core`
    /// (the paper assigns "the remaining single core to the proxy
    /// process").
    pub fn spawn_proxy(&mut self, app_pid: Pid, core: CoreId) -> Pid {
        assert!(self.cores.contains(&core), "{core} is not a Linux core");
        assert!(
            self.proxy_for_app(app_pid).is_none(),
            "{app_pid} already has a proxy"
        );
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let process = ProxyProcess::new(pid, app_pid);
        self.vfs.create_process(pid);
        self.delegator.register_proxy(pid);
        self.proxies.insert(pid, PinnedProxy { process, core });
        pid
    }

    /// Tear down a proxy in an orderly fashion (application exit).
    /// Any still-stranded requests are answered with `-EIO`, sorted by
    /// sequence number.
    pub fn reap_proxy(&mut self, proxy_pid: Pid) -> Vec<SyscallReply> {
        self.proxies.remove(&proxy_pid);
        self.vfs.destroy_process(proxy_pid);
        self.delegator.unregister_proxy(proxy_pid)
    }

    /// The proxy dies *unexpectedly* (fault injection: crash mid-offload).
    ///
    /// Linux reaps the corpse the same way an orderly teardown would —
    /// the fd table closes, the delegator answers every stranded in-flight
    /// request with `-EIO` — and additionally reclaims the tracking
    /// objects of the application the proxy served (they are created
    /// under the *app* pid, Fig. 4 step 3, so orderly unregistration
    /// leaves them for the app's own munmap path). Returns the stranded
    /// `-EIO` replies and the app pid the caller must now fail over.
    pub fn kill_proxy(&mut self, proxy_pid: Pid) -> Option<(Vec<SyscallReply>, Pid)> {
        let app_pid = self.proxies.get(&proxy_pid)?.process.app_pid;
        let stranded = self.reap_proxy(proxy_pid);
        self.delegator.reclaim_tracking_for(app_pid);
        Some((stranded, app_pid))
    }

    /// Proxy pid serving an application. An application has at most one
    /// proxy, and a node runs one job at a time, so the scan is short.
    pub fn proxy_for_app(&self, app_pid: Pid) -> Option<Pid> {
        self.proxies
            .iter()
            .find(|(_, p)| p.process.app_pid == app_pid)
            .map(|(&pid, _)| pid)
    }

    /// Proxy accessor.
    pub fn proxy(&self, pid: Pid) -> Option<&ProxyProcess> {
        self.proxies.get(&pid).map(|p| &p.process)
    }

    /// Service one offloaded system call (the proxy's userspace turn plus
    /// the kernel work under it). `lwk_pt` and `mem` let pointer arguments
    /// dereference through the unified address space.
    pub fn service_syscall(
        &mut self,
        proxy_pid: Pid,
        req: &SyscallRequest,
        at: Cycles,
        lwk_pt: &PageTable,
        mem: &mut PhysMemory,
    ) -> ServiceResult {
        let PinnedProxy {
            process: proxy,
            core,
        } = self
            .proxies
            .get_mut(&proxy_pid)
            .expect("service_syscall for unknown proxy");
        let wake_delay = wake_latency(&self.occupancy, &self.params, &self.rng, *core, at);
        proxy.state = ProxyState::Executing(req.seq);
        self.offloads_serviced += 1;
        let costs = hlwk_core::costs::CostModel::default();
        let vfs = &mut self.vfs;
        let (ret, service): (i64, Cycles) = match Sysno::from_nr(req.sysno) {
            Some(Sysno::Open) | Some(Sysno::Openat) => {
                // Path pointer in args[0] (openat: args[1]).
                let ptr = if req.sysno == Sysno::Openat.nr() {
                    req.args[1]
                } else {
                    req.args[0]
                };
                let mut buf = [0u8; 256];
                match proxy
                    .uas
                    .read(VirtAddr(ptr), &mut buf, lwk_pt, mem, &costs)
                {
                    Ok(fault_cost) => {
                        let nul = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
                        let path = String::from_utf8_lossy(&buf[..nul]).into_owned();
                        match vfs.open(proxy_pid, &path) {
                            Ok((fd, c)) => (i64::from(fd.0), c + fault_cost),
                            Err(e) => (encode_result(Err(e)), vfs.costs.open + fault_cost),
                        }
                    }
                    Err(_) => (encode_result(Err(Errno::EFAULT)), vfs.costs.open),
                }
            }
            Some(Sysno::Close) => match vfs.close(proxy_pid, Fd(req.args[0] as i32)) {
                Ok(c) => (0, c),
                Err(e) => (encode_result(Err(e)), vfs.costs.close),
            },
            Some(Sysno::Read) => {
                let (fd, va, len) = (Fd(req.args[0] as i32), VirtAddr(req.args[1]), req.args[2]);
                let vfs_costs = vfs.costs;
                match vfs.file_mut(proxy_pid, fd) {
                    Ok(file) => {
                        let c = vfs_costs.rw(&file.kind, len);
                        // Produce bytes into the app buffer through the
                        // unified address space. /proc and /sys reads
                        // return real generated content reflecting
                        // Linux's view of the node; any other file fills
                        // up to 64 KiB in place, the bytes the promoted
                        // read fills.
                        let (n, written) = match &file.kind {
                            crate::vfs::FileKind::ProcSys { path } => {
                                let data = crate::procfs::generate(path, &self.cores, mem)
                                    .unwrap_or_else(|| b"0\n".to_vec());
                                let n = data.len().min(len as usize);
                                (n, proxy.uas.write(va, &data[..n], lwk_pt, mem, &costs))
                            }
                            _ => {
                                let n = len.min(64 << 10) as usize;
                                (n, proxy.uas.fill(va, n, 0xAB, lwk_pt, mem, &costs))
                            }
                        };
                        match written {
                            Ok(fc) => {
                                file.pos += n as u64;
                                (n as i64, c + fc)
                            }
                            Err(_) => (encode_result(Err(Errno::EFAULT)), c),
                        }
                    }
                    Err(e) => (encode_result(Err(e)), vfs_costs.rw_base),
                }
            }
            Some(Sysno::Write) => {
                let (fd, ptr, len) = (Fd(req.args[0] as i32), req.args[1], req.args[2]);
                let vfs_costs = vfs.costs;
                match vfs.file_mut(proxy_pid, fd) {
                    Ok(file) => {
                        let c = vfs_costs.rw(&file.kind, len);
                        // The proxy dereferences up to 64 KiB of the buffer
                        // through the unified address space. Nothing in the
                        // model reads those bytes, and the fault cost is all
                        // the call charges for them, so the pages resolve
                        // without a copy.
                        let n = len.min(64 << 10) as usize;
                        match proxy.uas.touch(VirtAddr(ptr), n, lwk_pt, &costs) {
                            Ok(fc) => {
                                file.pos += len;
                                (len as i64, c + fc)
                            }
                            Err(_) => (encode_result(Err(Errno::EFAULT)), c),
                        }
                    }
                    Err(e) => (encode_result(Err(e)), vfs_costs.rw_base),
                }
            }
            Some(Sysno::Lseek) => {
                let (fd, off, whence) =
                    (Fd(req.args[0] as i32), req.args[1] as i64, req.args[2] as u32);
                match vfs.seek(proxy_pid, fd, off, whence) {
                    Ok(pos) => (pos, vfs.costs.rw_base),
                    Err(e) => (encode_result(Err(e)), vfs.costs.rw_base),
                }
            }
            Some(Sysno::Futex) => {
                // Must match the promoted in-LWK path bit for bit:
                // WAIT loads the 32-bit word and reports -EFAULT /
                // -EAGAIN / 0 (a satisfied wait surfaces as a modeled
                // spurious wakeup); WAKE returns 0 through the syscall
                // surface either way.
                const FUTEX_PRIVATE_FLAG: u64 = 128;
                let (uaddr, op, val) =
                    (req.args[0], req.args[1] & !FUTEX_PRIVATE_FLAG, req.args[2]);
                match op {
                    0 => {
                        let mut w = [0u8; 4];
                        match proxy.uas.read(VirtAddr(uaddr), &mut w, lwk_pt, mem, &costs) {
                            Ok(fc) => {
                                if u32::from_le_bytes(w) == val as u32 {
                                    (0, Cycles::from_us(1) + fc)
                                } else {
                                    (encode_result(Err(Errno::EAGAIN)), Cycles::from_us(1) + fc)
                                }
                            }
                            Err(_) => (encode_result(Err(Errno::EFAULT)), Cycles::from_us(1)),
                        }
                    }
                    1 => (0, Cycles::from_us(1)),
                    _ => (encode_result(Err(Errno::ENOSYS)), Cycles::from_us(1)),
                }
            }
            Some(Sysno::ClockGettime) => {
                // Pointer-free convention shared with the promoted vDSO
                // read: ret carries the published timestamp in ns.
                (self.vdso_ns as i64, Cycles::from_us(1))
            }
            Some(Sysno::Ioctl) => match vfs.ioctl_cost(proxy_pid, Fd(req.args[0] as i32)) {
                Ok(c) => (0, c),
                Err(e) => (encode_result(Err(e)), vfs.costs.ioctl),
            },
            Some(Sysno::Stat) | Some(Sysno::Fcntl) | Some(Sysno::Uname)
            | Some(Sysno::Getcwd) => (0, Cycles::from_us(1)),
            Some(Sysno::GetRandom) => {
                let (ptr, len) = (req.args[0], req.args[1].min(4096));
                let mut r = self.rng.stream("getrandom", req.seq);
                // Stack scratch, not a Vec: the hot path allocates nothing.
                // Draw order is byte-for-byte the sequence the collect()
                // formulation produced, so output bytes are unchanged.
                let mut scratch = [0u8; 4096];
                let data = &mut scratch[..len as usize];
                for b in data.iter_mut() {
                    *b = r.range_u64(0, 256) as u8;
                }
                match proxy.uas.write(VirtAddr(ptr), data, lwk_pt, mem, &costs) {
                    Ok(fc) => (len as i64, Cycles::from_us(2) + fc),
                    Err(_) => (encode_result(Err(Errno::EFAULT)), Cycles::from_us(2)),
                }
            }
            _ => (encode_result(Err(Errno::ENOSYS)), Cycles::from_us(1)),
        };
        proxy.state = ProxyState::Parked;
        ServiceResult {
            ret,
            wake_delay,
            service: service + costs.linux_syscall_entry,
        }
    }

    /// Publish the vDSO-style shared time page (nanoseconds). Node
    /// runtimes publish to Linux and McKernel in the same step, so the
    /// two `clock_gettime` paths can never disagree.
    pub fn publish_vdso_time(&mut self, ns: u64) {
        self.vdso_ns = ns;
    }

    /// Invalidate proxy pseudo-mapping PTEs after an LWK munmap.
    pub fn sync_munmap(&mut self, app_pid: Pid, ranges: &[(VirtAddr, u64)]) -> u64 {
        let Some(proxy) = self
            .proxies
            .values_mut()
            .find(|p| p.process.app_pid == app_pid)
        else {
            return 0;
        };
        let mut n = 0;
        for &(start, len) in ranges {
            n += proxy.process.uas.invalidate_range(start, len);
        }
        n
    }

    /// Split borrow of a proxy and the delegator module together — the
    /// device-mapping flow (Fig. 4) mutates both at once.
    pub fn proxy_and_delegator(
        &mut self,
        pid: Pid,
    ) -> Option<(&mut ProxyProcess, &mut Delegator)> {
        let proxy = self.proxies.get_mut(&pid)?;
        Some((&mut proxy.process, &mut self.delegator))
    }
}

/// CFS wake latency at `at` for a proxy pinned to `core`: idle core =
/// context switch only; contended core = up to a timeslice of queueing,
/// drawn deterministically from the wake instant.
fn wake_latency(
    occupancy: &CoreOccupancy,
    params: &CfsParams,
    rng: &StreamRng,
    core: CoreId,
    at: Cycles,
) -> Cycles {
    let competitors = occupancy.competitors_at(core, at);
    let base = params.ctx_switch;
    if competitors == 0 {
        return base;
    }
    // The woken proxy (vruntime at min) preempts the running task at
    // the next scheduler tick at the latest; queue depth adds cache
    // and runqueue-lock overhead on top.
    let horizon = params.timeslice(competitors + 1).min(Cycles::from_us(100));
    let mut r = rng.stream("wake", at.raw());
    base + horizon.scale(r.uniform() * competitors.min(4) as f64 / 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlwk_core::mck::mem::pagetable::PteFlags;
    use hwmodel::addr::PhysAddr;

    fn boot_linux() -> LinuxKernel {
        LinuxKernel::boot(
            (0..20).map(CoreId).collect(),
            [
                ("infiniband/uverbs0".to_string(), DeviceClass::InfinibandHca),
                ("eth0".to_string(), DeviceClass::EthernetNic),
            ],
            &NoiseConfig::idle(),
            StreamRng::root(1).stream("linux", 0),
        )
    }

    /// A tiny app-side world: one mapped page holding a path string.
    fn app_world() -> (PageTable, PhysMemory) {
        let mut pt = PageTable::new();
        pt.map_4k(VirtAddr(0x100_0000), PhysAddr(0x40_0000), PteFlags::rw())
            .unwrap();
        let mut mem = PhysMemory::new(1 << 30, 1);
        mem.write(PhysAddr(0x40_0000), b"/dev/infiniband/uverbs0\0");
        (pt, mem)
    }

    #[test]
    fn offloaded_open_reads_path_through_unified_as() {
        let mut linux = boot_linux();
        let (pt, mut mem) = app_world();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        let req = SyscallRequest {
            seq: 1,
            pid: 1000,
            tid: 1000,
            sysno: Sysno::Open.nr(),
            args: [0x100_0000, 0, 0, 0, 0, 0],
        };
        let res = linux.service_syscall(proxy, &req, Cycles::from_us(10), &pt, &mut mem);
        assert_eq!(res.ret, 3, "first free fd");
        assert!(res.service > Cycles::ZERO);
        // fd state lives in Linux, not in McKernel.
        assert_eq!(linux.vfs.fd_count(proxy), 4);
    }

    #[test]
    fn offloaded_write_derefs_app_buffer() {
        let mut linux = boot_linux();
        let (pt, mut mem) = app_world();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        // open /tmp file: put path at the same page.
        mem.write(PhysAddr(0x40_0100), b"/tmp/out\0");
        let open = SyscallRequest {
            seq: 1,
            pid: 1000,
            tid: 1000,
            sysno: Sysno::Open.nr(),
            args: [0x100_0100, 0, 0, 0, 0, 0],
        };
        let fd = linux
            .service_syscall(proxy, &open, Cycles::from_us(1), &pt, &mut mem)
            .ret;
        mem.write(PhysAddr(0x40_0200), b"hello");
        let write = SyscallRequest {
            seq: 2,
            pid: 1000,
            tid: 1000,
            sysno: Sysno::Write.nr(),
            args: [fd as u64, 0x100_0200, 5, 0, 0, 0],
        };
        let res = linux.service_syscall(proxy, &write, Cycles::from_us(2), &pt, &mut mem);
        assert_eq!(res.ret, 5);
        assert_eq!(
            linux.vfs.file(proxy, Fd(fd as i32)).unwrap().pos,
            5,
            "file position managed by Linux"
        );
    }

    #[test]
    fn bad_pointer_faults_cleanly() {
        let mut linux = boot_linux();
        let (pt, mut mem) = app_world();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        let req = SyscallRequest {
            seq: 1,
            pid: 1000,
            tid: 1000,
            sysno: Sysno::Open.nr(),
            args: [0x7770_0000, 0, 0, 0, 0, 0], // never mapped on the LWK
        };
        let res = linux.service_syscall(proxy, &req, Cycles::ZERO, &pt, &mut mem);
        assert_eq!(res.ret, -(Errno::EFAULT as i32 as i64));
    }

    #[test]
    fn wake_latency_grows_with_contention() {
        let mut linux = boot_linux();
        let core = CoreId(19);
        let wake = |l: &LinuxKernel, at| wake_latency(&l.occupancy, &l.params, &l.rng, core, at);
        let idle = wake(&linux, Cycles::from_ms(1));
        linux
            .occupancy
            .add_load(CoreId(19), Cycles::ZERO, Cycles::from_secs(1), 8);
        linux.occupancy.seal();
        // Sample several wake instants; contended wakes must on average
        // exceed the idle wake by a lot.
        let avg: u64 = (0..32)
            .map(|i| wake(&linux, Cycles::from_ms(2 + i)).raw())
            .sum::<u64>()
            / 32;
        assert!(avg > idle.raw() * 10, "idle={} avg={}", idle.raw(), avg);
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let mut linux = boot_linux();
        let (pt, mut mem) = app_world();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        let req = SyscallRequest {
            seq: 9,
            pid: 1000,
            tid: 1000,
            sysno: 9999,
            args: [0; 6],
        };
        let res = linux.service_syscall(proxy, &req, Cycles::ZERO, &pt, &mut mem);
        assert_eq!(res.ret, -(Errno::ENOSYS as i32 as i64));
    }

    #[test]
    fn offloaded_lseek_futex_and_clock_arms() {
        let mut linux = boot_linux();
        let (pt, mut mem) = app_world();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        mem.write(PhysAddr(0x40_0100), b"/tmp/f\0");
        let mk = |seq, sysno: Sysno, args: [u64; 6]| SyscallRequest {
            seq,
            pid: 1000,
            tid: 1000,
            sysno: sysno.nr(),
            args,
        };
        let fd = linux
            .service_syscall(
                proxy,
                &mk(1, Sysno::Open, [0x100_0100, 0, 0, 0, 0, 0]),
                Cycles::ZERO,
                &pt,
                &mut mem,
            )
            .ret as u64;
        // lseek: SEEK_SET then SEEK_END (unmodeled ⇒ EINVAL).
        let r = linux.service_syscall(
            proxy,
            &mk(2, Sysno::Lseek, [fd, 8192, 0, 0, 0, 0]),
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, 8192);
        let r = linux.service_syscall(
            proxy,
            &mk(3, Sysno::Lseek, [fd, 0, 2, 0, 0, 0]),
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, -(Errno::EINVAL as i64));
        // futex WAIT on a word holding 0 (bytes at 0x40_0000 start as 0):
        // expected 0 ⇒ modeled spurious wakeup; expected 7 ⇒ -EAGAIN.
        let word = 0x100_0800u64;
        let r = linux.service_syscall(
            proxy,
            &mk(4, Sysno::Futex, [word, 128, 0, 0, 0, 0]), // WAIT|PRIVATE
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, 0, "value matched: wait returns (spurious wake)");
        let r = linux.service_syscall(
            proxy,
            &mk(5, Sysno::Futex, [word, 0, 7, 0, 0, 0]),
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, -(Errno::EAGAIN as i64));
        let r = linux.service_syscall(
            proxy,
            &mk(6, Sysno::Futex, [0x7770_0000, 0, 0, 0, 0, 0]),
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, -(Errno::EFAULT as i64), "unmapped futex word");
        let r = linux.service_syscall(
            proxy,
            &mk(7, Sysno::Futex, [word, 9, 0, 0, 0, 0]),
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, -(Errno::ENOSYS as i64), "FUTEX_REQUEUE unmodeled");
        // clock_gettime reads the published time page.
        linux.publish_vdso_time(123_456_789);
        let r = linux.service_syscall(
            proxy,
            &mk(8, Sysno::ClockGettime, [0; 6]),
            Cycles::ZERO,
            &pt,
            &mut mem,
        );
        assert_eq!(r.ret, 123_456_789);
    }

    #[test]
    fn munmap_sync_reaches_the_proxy() {
        let mut linux = boot_linux();
        let (pt, mut mem) = app_world();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        // Fault a page into the pseudo mapping via a write.
        mem.write(PhysAddr(0x40_0300), b"/tmp/f\0");
        let open = SyscallRequest {
            seq: 1,
            pid: 1000,
            tid: 1000,
            sysno: Sysno::Open.nr(),
            args: [0x100_0300, 0, 0, 0, 0, 0],
        };
        linux.service_syscall(proxy, &open, Cycles::ZERO, &pt, &mut mem);
        assert_eq!(linux.proxy(proxy).unwrap().uas.resident_ptes(), 1);
        let n = linux.sync_munmap(Pid(1000), &[(VirtAddr(0x100_0000), 0x1000)]);
        assert_eq!(n, 1);
        assert_eq!(linux.proxy(proxy).unwrap().uas.resident_ptes(), 0);
    }

    #[test]
    fn reap_proxy_cleans_up() {
        let mut linux = boot_linux();
        let proxy = linux.spawn_proxy(Pid(1000), CoreId(19));
        assert!(linux.proxy_for_app(Pid(1000)).is_some());
        assert!(linux.reap_proxy(proxy).is_empty(), "nothing in flight");
        assert!(linux.proxy_for_app(Pid(1000)).is_none());
        assert_eq!(linux.vfs.fd_count(proxy), 0);
    }

    #[test]
    fn kill_proxy_strands_inflight_as_eio_and_reclaims_tracking() {
        use hlwk_core::abi::Sysno;
        use hwmodel::addr::PhysAddr;
        let mut linux = boot_linux();
        let app = Pid(1000);
        let proxy = linux.spawn_proxy(app, CoreId(19));
        // Two offloads in flight, one device mapping tracked for the app.
        for seq in [4u64, 2] {
            linux.delegator.on_syscall_request(
                proxy,
                SyscallRequest {
                    seq,
                    pid: app.0,
                    tid: app.0,
                    sysno: Sysno::Read.nr(),
                    args: [0; 6],
                },
            );
        }
        linux
            .delegator
            .create_tracking(app, "uverbs0", PhysAddr(0x10_0000_0000), 0x1000, 0);
        let (stranded, dead_app) = linux.kill_proxy(proxy).expect("proxy existed");
        assert_eq!(dead_app, app);
        let eio = -(Errno::EIO as i64);
        assert_eq!(
            stranded,
            vec![
                SyscallReply { seq: 2, ret: eio },
                SyscallReply { seq: 4, ret: eio }
            ]
        );
        assert_eq!(linux.delegator.tracking_count(), 0, "tracking reclaimed");
        assert_eq!(linux.delegator.in_flight(), 0);
        assert!(linux.kill_proxy(proxy).is_none(), "already dead");
    }
}
