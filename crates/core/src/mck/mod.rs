//! The McKernel lightweight kernel.
//!
//! A from-scratch LWK (Sec. II): own memory management, processes and
//! multi-threading under a cooperative tick-less round-robin scheduler,
//! and signaling — everything else is delegated to Linux through IKC.

pub mod domains;
pub mod mem;
pub mod process;
pub mod sched;
pub mod signal;
pub mod syscall;

use crate::abi::{Errno, Pid, Sysno, Tid};
use crate::costs::CostModel;
use hwmodel::addr::{PhysAddr, VirtAddr};
use hwmodel::cpu::CoreId;
use mem::phys::FrameAllocator;
use mem::vm::VmaKind;
use mem::FaultOutcome;
use process::{Process, Thread};
use sched::CoopScheduler;
use signal::SignalState;
use simcore::{Cycles, FastMap};
use std::collections::BTreeSet;
use syscall::{BypassConfig, Disposition, SyscallProfiler, SyscallRequest};

/// What the kernel wants the simulation to do after a syscall entry.
#[derive(Debug, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// Completed locally.
    Done {
        /// Return value (Linux convention).
        ret: i64,
        /// Kernel time consumed.
        cost: Cycles,
    },
    /// Completed locally and the proxy's pseudo-mapping must be invalidated
    /// over these ranges (munmap synchronization, Sec. III-A).
    DoneInvalidate {
        /// Return value.
        ret: i64,
        /// Kernel time consumed.
        cost: Cycles,
        /// Ranges to shoot down in the proxy pseudo mapping.
        ranges: Vec<(VirtAddr, u64)>,
    },
    /// Must be offloaded: the calling thread blocks until the reply.
    Offload {
        /// Marshalled request for the IKC channel.
        req: SyscallRequest,
        /// Marshal + enqueue cost before the thread blocks.
        cost: Cycles,
    },
    /// Voluntary yield.
    Yield {
        /// Kernel time consumed.
        cost: Cycles,
    },
    /// Sleep for a duration.
    Sleep {
        /// Requested sleep time.
        dur: Cycles,
        /// Kernel time consumed.
        cost: Cycles,
    },
    /// Process exit.
    Exit {
        /// Exit code.
        code: i32,
    },
}

/// The LWK instance for one node.
#[derive(Debug)]
pub struct McKernel {
    /// Cost table.
    pub costs: CostModel,
    cores: Vec<CoreId>,
    /// Cores handed back to Linux mid-run (elastic shrink). They keep
    /// their slot in `cores` so partition-relative CPU indices stay
    /// stable for the TLB sets and frame caches; they just stop
    /// scheduling until `online_core` brings them back.
    offline: BTreeSet<CoreId>,
    /// Physical frame engine over the IHK-reserved range: one buddy
    /// fronted by per-CPU frame caches.
    pub alloc: FrameAllocator,
    /// Cooperative scheduler.
    pub sched: CoopScheduler,
    procs: FastMap<Pid, Process>,
    threads: FastMap<Tid, Thread>,
    signals: FastMap<Pid, SignalState>,
    next_pid: u32,
    next_tid: u32,
    next_seq: u64,
    /// Syscalls delegated to Linux through IKC.
    pub syscalls_offloaded: u64,
    /// Syscalls served inside the LWK.
    pub syscalls_local: u64,
    /// Device-mapping page faults resolved through the tracking object
    /// ([`crate::proxy::devmap::device_fault`]).
    pub devmap_faults: u64,
    /// Per-process syscall heat profiler (drives the promoted tier).
    pub prof: SyscallProfiler,
    /// Offload-bypass policy (off by default: figures stay identical).
    pub bypass: BypassConfig,
    /// MPK-style protection-domain model guarding the IKC ring,
    /// delegator tables, fd rings, and time page (disabled by default).
    pub domains: domains::DomainModel,
    /// vDSO-style shared time page: the nanosecond value Linux last
    /// published toward the LWK (None until the first publish). The
    /// promoted clock fast path reads this; cold it falls back to
    /// offload, where Linux answers from the same page.
    time_page: Option<u64>,
}

impl McKernel {
    /// Boot the LWK over `cores` and the one physical range IHK reserved
    /// for it (from one NUMA domain): one buddy, a frame cache per core.
    pub fn boot(cores: Vec<CoreId>, mem_base: PhysAddr, mem_len: u64, costs: CostModel) -> Self {
        assert!(!cores.is_empty(), "LWK needs at least one core");
        let sched = CoopScheduler::new(&cores);
        McKernel {
            costs,
            alloc: FrameAllocator::new(mem_base, mem_len, cores.len()),
            sched,
            cores,
            offline: BTreeSet::new(),
            procs: FastMap::default(),
            threads: FastMap::default(),
            signals: FastMap::default(),
            next_pid: 1000,
            next_tid: 1000,
            next_seq: 1,
            syscalls_offloaded: 0,
            syscalls_local: 0,
            devmap_faults: 0,
            prof: SyscallProfiler::new(),
            bypass: BypassConfig::default(),
            domains: domains::DomainModel::disabled(),
            time_page: None,
        }
    }

    /// Cores in the LWK partition.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// Cores currently schedulable (boot set minus offlined cores), in
    /// boot order.
    pub fn online_cores(&self) -> Vec<CoreId> {
        self.cores
            .iter()
            .copied()
            .filter(|c| !self.offline.contains(c))
            .collect()
    }

    /// Cores offlined by an elastic shrink, ascending.
    pub fn offline_cores(&self) -> Vec<CoreId> {
        self.offline.iter().copied().collect()
    }

    /// Whether `core` is in the partition and schedulable.
    pub fn core_online(&self, core: CoreId) -> bool {
        self.cores.contains(&core) && !self.offline.contains(&core)
    }

    /// Partition-relative CPU index of `core` (index into the boot core
    /// list — stable across offline/online cycles).
    pub fn cpu_index_of(&self, core: CoreId) -> Option<usize> {
        self.cores.iter().position(|&c| c == core)
    }

    /// Threads currently bound to `core`, ascending by tid.
    pub fn threads_on(&self, core: CoreId) -> Vec<Tid> {
        let mut tids: Vec<Tid> = self
            .threads
            .values()
            .filter(|t| t.core == core)
            .map(|t| t.tid)
            .collect();
        tids.sort_unstable();
        tids
    }

    /// Software-TLB entries still resident for `cpu` across every
    /// process (the reclaim audit after a core release).
    pub fn tlb_resident_on(&self, cpu: usize) -> usize {
        self.procs
            .values()
            .map(|p| p.aspace.tlb.resident_on(cpu))
            .sum()
    }

    /// Take `core` out of service for an elastic shrink. The caller must
    /// first migrate every thread off the core; this then removes the
    /// run queue, shoots down the core's software TLBs in every address
    /// space, and drains its per-CPU frame cache back to the buddy
    /// arenas so the IHK release hands back a fully reclaimed core.
    pub fn offline_core(&mut self, core: CoreId) -> Result<(), &'static str> {
        if !self.cores.contains(&core) {
            return Err("core not in LWK partition");
        }
        if self.offline.contains(&core) {
            return Err("core already offline");
        }
        if self.cores.len() - self.offline.len() <= 1 {
            return Err("cannot offline the last LWK core");
        }
        if self.threads.values().any(|t| t.core == core) {
            return Err("threads still bound to the core");
        }
        self.sched.remove_core(core)?;
        let cpu = self.cpu_index_of(core).expect("core index");
        for p in self.procs.values_mut() {
            p.aspace.tlb.flush_cpu(cpu);
        }
        self.alloc.drain_cpu(cpu);
        self.offline.insert(core);
        Ok(())
    }

    /// Bring an offlined core back into service (elastic expand).
    pub fn online_core(&mut self, core: CoreId) -> Result<(), &'static str> {
        if !self.cores.contains(&core) {
            return Err("core not in LWK partition");
        }
        if !self.offline.remove(&core) {
            return Err("core is not offline");
        }
        self.sched.add_core(core);
        Ok(())
    }

    /// Move a thread to another online core, carrying its run-queue
    /// entry with it.
    pub fn migrate_thread(&mut self, tid: Tid, to: CoreId) -> Result<(), &'static str> {
        if !self.core_online(to) {
            return Err("destination core is not online");
        }
        let from = match self.threads.get(&tid) {
            Some(t) => t.core,
            None => return Err("no such thread"),
        };
        if from == to {
            return Ok(());
        }
        let was_queued = self.sched.dequeue(from, tid);
        self.threads.get_mut(&tid).expect("thread").core = to;
        if was_queued {
            self.sched.enqueue(to, tid);
        }
        Ok(())
    }

    /// Create a process (paired with a Linux proxy).
    pub fn create_process(&mut self, proxy_pid: Option<Pid>) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut p = Process::new(pid);
        p.proxy_pid = proxy_pid;
        self.procs.insert(pid, p);
        self.signals.insert(pid, SignalState::new());
        pid
    }

    /// Create a thread bound to `core` and make it runnable.
    pub fn spawn_thread(&mut self, pid: Pid, core: CoreId) -> Tid {
        assert!(self.core_online(core), "{core} not online in LWK partition");
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        self.threads.insert(tid, Thread { tid, pid, core });
        self.procs
            .get_mut(&pid)
            .expect("spawn_thread on unknown pid")
            .threads
            .push(tid);
        self.sched.enqueue(core, tid);
        tid
    }

    /// Process accessor.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Mutable process accessor.
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// Thread accessor.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.get(&tid)
    }

    /// Signal state of a process.
    pub fn signals_mut(&mut self, pid: Pid) -> Option<&mut SignalState> {
        self.signals.get_mut(&pid)
    }

    /// System call entry. `now` provides the clock for `gettimeofday`.
    ///
    /// Local calls complete synchronously; delegated calls return
    /// [`SyscallOutcome::Offload`] and the caller blocks the thread until
    /// the IKC reply.
    pub fn handle_syscall(
        &mut self,
        pid: Pid,
        tid: Tid,
        sysno: Sysno,
        args: [u64; 6],
        now: Cycles,
    ) -> SyscallOutcome {
        let base = self.costs.lwk_syscall;
        let disposition = match sysno {
            Sysno::Mmap => syscall::mmap_disposition(args[4]),
            s => syscall::disposition(s),
        };
        if disposition == Disposition::Delegate {
            self.syscalls_offloaded += 1;
            // Heat bookkeeping only — no modeled cycles, so figure
            // output is untouched whether or not bypass is armed.
            self.prof.record_call(pid, sysno);
            let req = SyscallRequest {
                seq: self.next_seq,
                pid: pid.0,
                tid: tid.0,
                sysno: sysno.nr(),
                args,
            };
            self.next_seq += 1;
            return SyscallOutcome::Offload {
                req,
                cost: base + self.costs.ikc_send,
            };
        }
        self.syscalls_local += 1;
        match sysno {
            Sysno::Getpid => SyscallOutcome::Done {
                ret: pid.0 as i64,
                cost: base,
            },
            Sysno::Gettimeofday => SyscallOutcome::Done {
                ret: now.as_us_f64() as i64,
                cost: base,
            },
            Sysno::Mmap => {
                // Anonymous mmap handled locally, 2 MiB eligible.
                let len = args[1];
                let proc = self.procs.get_mut(&pid).expect("mmap on unknown pid");
                match proc
                    .aspace
                    .vm
                    .mmap(len, VmaKind::Anon { large_ok: true }, true, None)
                {
                    Ok(va) => SyscallOutcome::Done {
                        ret: va.raw() as i64,
                        cost: base,
                    },
                    Err(e) => SyscallOutcome::Done {
                        ret: crate::abi::encode_result(Err(e)),
                        cost: base,
                    },
                }
            }
            Sysno::Munmap => {
                let (start, len) = (VirtAddr(args[0]), args[1]);
                let proc = self.procs.get_mut(&pid).expect("munmap on unknown pid");
                match mem::unmap_range(&mut proc.aspace, &mut self.alloc, &self.costs, start, len)
                {
                    Ok(stats) => {
                        let ranges = stats
                            .removed
                            .iter()
                            .map(|v| (v.start, v.len()))
                            .collect();
                        SyscallOutcome::DoneInvalidate {
                            ret: 0,
                            cost: base + stats.cost,
                            ranges,
                        }
                    }
                    Err(e) => SyscallOutcome::Done {
                        ret: crate::abi::encode_result(Err(e)),
                        cost: base,
                    },
                }
            }
            Sysno::Brk | Sysno::Mprotect | Sysno::Madvise => SyscallOutcome::Done {
                ret: 0,
                cost: base,
            },
            Sysno::SchedYield => SyscallOutcome::Yield { cost: base },
            Sysno::Nanosleep => SyscallOutcome::Sleep {
                dur: Cycles::from_ns(args[0]),
                cost: base,
            },
            Sysno::Exit | Sysno::ExitGroup => SyscallOutcome::Exit {
                code: args[0] as i32,
            },
            Sysno::Clone => {
                let core = CoreId(args[0] as u16);
                if !self.core_online(core) {
                    return SyscallOutcome::Done {
                        ret: crate::abi::encode_result(Err(Errno::EINVAL)),
                        cost: base,
                    };
                }
                let tid = self.spawn_thread(pid, core);
                SyscallOutcome::Done {
                    ret: tid.0 as i64,
                    cost: base * 4,
                }
            }
            Sysno::RtSigaction => {
                let signo = args[0] as u8;
                let action = match args[1] {
                    0 => signal::SigAction::Default,
                    1 => signal::SigAction::Ignore,
                    _ => signal::SigAction::Handler,
                };
                let sig = self.signals.get_mut(&pid).expect("signals for pid");
                let ret = match sig.set_action(signo, action) {
                    Ok(()) => 0,
                    Err(()) => crate::abi::encode_result(Err(Errno::EINVAL)),
                };
                SyscallOutcome::Done { ret, cost: base }
            }
            Sysno::RtSigprocmask => {
                let sig = self.signals.get_mut(&pid).expect("signals for pid");
                let signo = args[1] as u8;
                if args[0] == 0 {
                    sig.block(signo);
                } else {
                    sig.unblock(signo);
                }
                SyscallOutcome::Done { ret: 0, cost: base }
            }
            Sysno::Kill => {
                let target = Pid(args[0] as u32);
                let signo = args[1] as u8;
                match self.signals.get_mut(&target) {
                    Some(s) => {
                        s.send(signo);
                        SyscallOutcome::Done { ret: 0, cost: base }
                    }
                    None => SyscallOutcome::Done {
                        ret: crate::abi::encode_result(Err(Errno::ENOENT)),
                        cost: base,
                    },
                }
            }
            Sysno::SchedSetaffinity | Sysno::SchedGetaffinity => SyscallOutcome::Done {
                ret: 0,
                cost: base,
            },
            Sysno::PerfEventOpen => SyscallOutcome::Done {
                ret: 100 + tid.0 as i64,
                cost: base,
            },
            // Remaining local syscalls are trivially acknowledged.
            _ => SyscallOutcome::Done { ret: 0, cost: base },
        }
    }

    /// Page fault entry on CPU 0 (callers without core context).
    pub fn page_fault(&mut self, pid: Pid, va: VirtAddr) -> FaultOutcome {
        self.page_fault_on(pid, 0, va)
    }

    /// Page fault entry for `cpu` (partition-relative core index; picks
    /// the per-CPU frame cache). Split borrow over process map and
    /// allocator.
    pub fn page_fault_on(&mut self, pid: Pid, cpu: usize, va: VirtAddr) -> FaultOutcome {
        let proc = self.procs.get_mut(&pid).expect("fault on unknown pid");
        mem::handle_fault(&mut proc.aspace, &mut self.alloc, &self.costs, cpu, va)
    }

    /// Linux published a fresh time value to the vDSO-style shared page.
    pub fn publish_time_page(&mut self, ns: u64) {
        self.time_page = Some(ns);
    }

    /// The shared time page's current value (None until first publish).
    pub fn time_page(&self) -> Option<u64> {
        self.time_page
    }

    /// The effective disposition of one syscall under the current
    /// bypass policy and heat state. `mmap` keeps its backing split.
    pub fn effective_disposition(&self, pid: Pid, sysno: Sysno, args: &[u64; 6]) -> Disposition {
        if sysno == Sysno::Mmap {
            return syscall::mmap_disposition(args[4]);
        }
        self.prof.disposition(&self.bypass, pid, sysno)
    }

    /// Install the LWK-side VMA for a device mapping after Linux completed
    /// its half of the Fig. 4 flow (steps 4-5: "Linux replies to McKernel
    /// so that it can also allocate its own virtual memory range").
    pub fn complete_device_mmap(
        &mut self,
        pid: Pid,
        len: u64,
        dev_name: &str,
        file_off: u64,
        tracking: u64,
    ) -> Result<VirtAddr, Errno> {
        let proc = self.procs.get_mut(&pid).ok_or(Errno::ENOENT)?;
        proc.aspace.vm.mmap(
            len,
            VmaKind::Device {
                dev_name: dev_name.to_string(),
                file_off,
                tracking,
            },
            true,
            None,
        )
    }

    /// Unmap `len` bytes at `start` through the TLB-coherent teardown
    /// path — identical to the `munmap` syscall arm but callable from
    /// kernel-internal flows (zero-copy devmap teardown). Every leaf
    /// removal routes through `AddressSpace::unmap_page`, so the
    /// software-TLB shootdown is structural, not optional.
    pub fn munmap_range(
        &mut self,
        pid: Pid,
        start: VirtAddr,
        len: u64,
    ) -> Result<mem::UnmapStats, Errno> {
        let proc = self.procs.get_mut(&pid).ok_or(Errno::ENOENT)?;
        mem::unmap_range(&mut proc.aspace, &mut self.alloc, &self.costs, start, len)
    }

    /// Tear down a process: free every mapped frame, drop threads.
    /// "It is our policy to have McKernel reinitialized between subsequent
    /// executions" (Sec. IV-B3) — experiments call this between runs and
    /// assert the allocator returns to a pristine state.
    pub fn reap_process(&mut self, pid: Pid) {
        let Some(mut proc) = self.procs.remove(&pid) else {
            return;
        };
        let ranges: Vec<(VirtAddr, u64)> = proc
            .aspace
            .vm
            .iter()
            .map(|v| (v.start, v.len()))
            .collect();
        for (start, len) in ranges {
            let _ = mem::unmap_range(&mut proc.aspace, &mut self.alloc, &self.costs, start, len);
        }
        // No queued threads or stale heat for the reaped job.
        for tid in &proc.threads {
            if let Some(t) = self.threads.remove(tid) {
                self.sched.dequeue(t.core, *tid);
            }
        }
        self.prof.forget(pid);
        self.signals.remove(&pid);
    }

    /// SIGKILL-equivalent delivery: send SIGKILL, confirm it delivers as
    /// a termination, and reap the process. Used when the proxy serving
    /// `pid` dies — without Linux there is nobody left to execute the
    /// application's offloads, so graceful degradation is to terminate
    /// it rather than leave a thread hung on a reply that never comes.
    /// Returns false if the process does not exist.
    pub fn kill_process(&mut self, pid: Pid) -> bool {
        let Some(sigs) = self.signals_mut(pid) else {
            return false;
        };
        sigs.send(signal::sig::KILL);
        let delivered = sigs.deliver_next();
        debug_assert!(
            matches!(delivered, Some((signal::sig::KILL, signal::Delivery::Terminate))),
            "SIGKILL must terminate: {delivered:?}"
        );
        self.reap_process(pid);
        true
    }

    /// Whether the kernel is back to a pristine state (no processes, all
    /// physical memory free, every run queue empty, no stale heat).
    pub fn is_pristine(&self) -> bool {
        self.procs.is_empty()
            && self.alloc.free_bytes() == self.alloc.len_bytes()
            && self.sched.is_empty()
            && self.prof.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> McKernel {
        McKernel::boot(
            (10..19).map(CoreId).collect(),
            PhysAddr(1 << 30),
            64 << 20,
            CostModel::default(),
        )
    }

    #[test]
    fn local_getpid() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        match k.handle_syscall(pid, tid, Sysno::Getpid, [0; 6], Cycles::ZERO) {
            SyscallOutcome::Done { ret, cost } => {
                assert_eq!(ret, pid.0 as i64);
                assert!(cost > Cycles::ZERO);
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(k.syscalls_local, 1);
    }

    #[test]
    fn write_offloads() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        match k.handle_syscall(pid, tid, Sysno::Write, [3, 0x1000, 64, 0, 0, 0], Cycles::ZERO) {
            SyscallOutcome::Offload { req, .. } => {
                assert_eq!(req.sysno, Sysno::Write.nr());
                assert_eq!(req.pid, pid.0);
                assert_eq!(req.args[2], 64);
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(k.syscalls_offloaded, 1);
    }

    #[test]
    fn anon_mmap_local_but_device_mmap_offloads() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        let anon = k.handle_syscall(
            pid,
            tid,
            Sysno::Mmap,
            [0, 1 << 20, 3, 0x22, u64::MAX, 0],
            Cycles::ZERO,
        );
        assert!(matches!(anon, SyscallOutcome::Done { ret, .. } if ret > 0));
        let dev = k.handle_syscall(
            pid,
            tid,
            Sysno::Mmap,
            [0, 1 << 20, 3, 0x1, 5, 0],
            Cycles::ZERO,
        );
        assert!(matches!(dev, SyscallOutcome::Offload { .. }));
    }

    #[test]
    fn mmap_fault_munmap_cycle_reports_invalidation() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        let va = match k.handle_syscall(
            pid,
            tid,
            Sysno::Mmap,
            [0, 4 << 20, 3, 0x22, u64::MAX, 0],
            Cycles::ZERO,
        ) {
            SyscallOutcome::Done { ret, .. } => VirtAddr(ret as u64),
            o => panic!("{o:?}"),
        };
        assert!(matches!(
            k.page_fault(pid, va),
            FaultOutcome::Mapped { .. }
        ));
        match k.handle_syscall(pid, tid, Sysno::Munmap, [va.raw(), 4 << 20, 0, 0, 0, 0], Cycles::ZERO)
        {
            SyscallOutcome::DoneInvalidate { ret, ranges, .. } => {
                assert_eq!(ret, 0);
                assert_eq!(ranges, vec![(va, 4 << 20)]);
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn clone_spawns_bound_thread() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        match k.handle_syscall(pid, tid, Sysno::Clone, [11, 0, 0, 0, 0, 0], Cycles::ZERO) {
            SyscallOutcome::Done { ret, .. } => {
                let new_tid = Tid(ret as u32);
                assert_eq!(k.thread(new_tid).unwrap().core, CoreId(11));
                assert_eq!(k.process(pid).unwrap().threads.len(), 2);
            }
            o => panic!("{o:?}"),
        }
        // Core outside the partition is rejected.
        match k.handle_syscall(pid, tid, Sysno::Clone, [0, 0, 0, 0, 0, 0], Cycles::ZERO) {
            SyscallOutcome::Done { ret, .. } => assert!(ret < 0),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn sleep_yield_exit_outcomes() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        assert!(matches!(
            k.handle_syscall(pid, tid, Sysno::SchedYield, [0; 6], Cycles::ZERO),
            SyscallOutcome::Yield { .. }
        ));
        match k.handle_syscall(pid, tid, Sysno::Nanosleep, [1_000_000, 0, 0, 0, 0, 0], Cycles::ZERO)
        {
            SyscallOutcome::Sleep { dur, .. } => assert_eq!(dur, Cycles::from_ms(1)),
            o => panic!("{o:?}"),
        }
        assert_eq!(
            k.handle_syscall(pid, tid, Sysno::ExitGroup, [3, 0, 0, 0, 0, 0], Cycles::ZERO),
            SyscallOutcome::Exit { code: 3 }
        );
    }

    #[test]
    fn signal_syscalls_route_to_signal_state() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        k.handle_syscall(
            pid,
            tid,
            Sysno::RtSigaction,
            [signal::sig::USR1 as u64, 2, 0, 0, 0, 0],
            Cycles::ZERO,
        );
        k.handle_syscall(
            pid,
            tid,
            Sysno::Kill,
            [pid.0 as u64, signal::sig::USR1 as u64, 0, 0, 0, 0],
            Cycles::ZERO,
        );
        let (signo, d) = k.signals_mut(pid).unwrap().deliver_next().unwrap();
        assert_eq!(signo, signal::sig::USR1);
        assert_eq!(d, signal::Delivery::RunHandler);
        // Kill to a dead pid errors.
        match k.handle_syscall(pid, tid, Sysno::Kill, [9999, 15, 0, 0, 0, 0], Cycles::ZERO) {
            SyscallOutcome::Done { ret, .. } => assert!(ret < 0),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn reap_restores_pristine_state() {
        let mut k = boot();
        let pid = k.create_process(None);
        let tid = k.spawn_thread(pid, CoreId(10));
        let va = match k.handle_syscall(
            pid,
            tid,
            Sysno::Mmap,
            [0, 8 << 20, 3, 0x22, u64::MAX, 0],
            Cycles::ZERO,
        ) {
            SyscallOutcome::Done { ret, .. } => VirtAddr(ret as u64),
            o => panic!("{o:?}"),
        };
        k.page_fault(pid, va);
        k.page_fault(pid, va + (2 << 20));
        assert!(!k.is_pristine());
        k.reap_process(pid);
        assert!(k.is_pristine(), "reinit policy requires clean state");
        assert!(k.thread(tid).is_none());
    }

    #[test]
    fn reap_dequeues_threads_so_their_core_can_go_offline() {
        let mut k = boot();
        let pid = k.create_process(None);
        k.spawn_thread(pid, CoreId(18));
        assert_eq!(k.sched.queued(CoreId(18)), 1);
        k.reap_process(pid);
        assert_eq!(k.sched.queued(CoreId(18)), 0, "reaped tid left queued");
        assert!(k.is_pristine());
        k.offline_core(CoreId(18)).unwrap();
    }

    #[test]
    fn core_offline_migrates_flushes_and_restores() {
        let mut k = boot();
        let pid = k.create_process(None);
        let t0 = k.spawn_thread(pid, CoreId(18));
        let t1 = k.spawn_thread(pid, CoreId(18));
        // Touch memory from cpu 8 (core 18) so its TLB and frame cache
        // hold state the shrink must provably reclaim.
        let va = match k.handle_syscall(
            pid,
            t0,
            Sysno::Mmap,
            [0, 4 << 20, 3, 0x22, u64::MAX, 0],
            Cycles::ZERO,
        ) {
            SyscallOutcome::Done { ret, .. } => VirtAddr(ret as u64),
            o => panic!("{o:?}"),
        };
        k.page_fault_on(pid, 8, va);
        k.process_mut(pid).unwrap().aspace.translate_on(8, va);
        assert!(k.tlb_resident_on(8) > 0, "translate must warm the TLB");

        // Threads still bound: refuse, then migrate and retry.
        assert!(k.offline_core(CoreId(18)).is_err());
        k.migrate_thread(t0, CoreId(10)).unwrap();
        k.migrate_thread(t1, CoreId(11)).unwrap();
        k.offline_core(CoreId(18)).unwrap();

        assert!(!k.core_online(CoreId(18)));
        assert_eq!(k.online_cores().len(), 8);
        assert_eq!(k.tlb_resident_on(8), 0, "shootdown on release");
        assert_eq!(k.alloc.pcp_cached_on(8), 0, "frame cache drained");
        assert!(!k.sched.has_core(CoreId(18)));
        assert!(k.offline_core(CoreId(18)).is_err(), "double offline");

        // Spawning on the offline core is a partition violation.
        match k.handle_syscall(
            pid,
            t0,
            Sysno::Clone,
            [18, 0, 0, 0, 0, 0],
            Cycles::ZERO,
        ) {
            SyscallOutcome::Done { ret, .. } => assert!(ret < 0),
            o => panic!("{o:?}"),
        }

        // Expand brings it back, schedulable again.
        k.online_core(CoreId(18)).unwrap();
        assert!(k.core_online(CoreId(18)));
        k.migrate_thread(t1, CoreId(18)).unwrap();
        assert_eq!(k.threads_on(CoreId(18)), vec![t1]);
        assert_eq!(k.sched.queued(CoreId(18)), 1);
    }

    #[test]
    fn cannot_offline_last_core() {
        let mut k = McKernel::boot(
            vec![CoreId(10)],
            PhysAddr(1 << 30),
            64 << 20,
            CostModel::default(),
        );
        assert!(k.offline_core(CoreId(10)).is_err());
    }

    #[test]
    fn device_mmap_completion_installs_vma() {
        let mut k = boot();
        let pid = k.create_process(None);
        let va = k
            .complete_device_mmap(pid, 0x3000, "infiniband/uverbs0", 0x1000, 7)
            .unwrap();
        match k.page_fault(pid, va + 0x1000) {
            FaultOutcome::NeedsDeviceResolve {
                file_off, tracking, ..
            } => {
                assert_eq!(file_off, 0x2000);
                assert_eq!(tracking, 7);
            }
            o => panic!("{o:?}"),
        }
    }
}
