//! The system-call table: what McKernel implements locally and what it
//! delegates to Linux.
//!
//! Sec. II: McKernel "implements only a small set of performance sensitive
//! system calls and the rest are delegated to Linux. Specifically, McKernel
//! has its own memory management, it supports processes and multi-threading
//! ... and it implements signaling. It also allows inter-process memory
//! mappings and it provides interfaces to hardware performance counters."
//! Everything filesystem/device shaped goes to the proxy.

use crate::abi::{Pid, Sysno};
use simcore::{Cycles, FastMap};

/// Where a system call executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Disposition {
    /// Handled entirely inside McKernel (performance-sensitive set).
    Lwk,
    /// Marshalled over IKC and executed by the proxy process on Linux.
    Delegate,
    /// Statically delegated, but measured hot by the [`SyscallProfiler`]
    /// and promoted to an in-LWK fast path. The fast path must fall back
    /// to [`Disposition::Delegate`] on any flag, state, or cache miss it
    /// does not handle, so results never diverge from the proxy's.
    Promoted,
}

/// Static disposition of a syscall. `mmap` is special-cased: anonymous
/// mappings are local, file/device-backed mappings take the Fig. 4
/// delegation path — use [`mmap_disposition`] for those.
pub fn disposition(s: Sysno) -> Disposition {
    use Sysno::*;
    match s {
        // Memory management — McKernel's own.
        Mmap | Munmap | Brk | Mprotect | Madvise => Disposition::Lwk,
        // Process / thread / scheduling.
        Clone | SchedYield | Getpid | Exit | ExitGroup | SchedSetaffinity
        | SchedGetaffinity | Nanosleep => Disposition::Lwk,
        // Signaling is implemented in the LWK.
        RtSigaction | RtSigprocmask | Kill => Disposition::Lwk,
        // Performance counters.
        PerfEventOpen => Disposition::Lwk,
        // Cheap local reads.
        Gettimeofday => Disposition::Lwk,
        // Everything touching files, devices, or Linux state.
        Read | Write | Lseek | Open | Openat | Close | Stat | Ioctl | Fcntl | Getcwd
        | Uname | GetRandom => Disposition::Delegate,
        // Futex and clock reads are delegated by default in this model
        // (they live in the promotable subset below); the profiler can
        // promote them to the in-LWK futex word check / vDSO time page.
        Futex | ClockGettime => Disposition::Delegate,
    }
}

/// Whether a delegated syscall has an in-LWK fast-path implementation
/// the profiler may promote it to: positional I/O on proxy-backed fds
/// (shared-ring file cache), futex wait/wake (the word check runs in
/// the LWK; no thread parks), and clock reads (vDSO-style shared time
/// page).
pub fn promotable(s: Sysno) -> bool {
    matches!(
        s,
        Sysno::Read | Sysno::Write | Sysno::Lseek | Sysno::Futex | Sysno::ClockGettime
    )
}

/// `mmap` disposition by backing: `fd == -1` (anonymous) stays local;
/// file/device mmap is forwarded to Linux (Fig. 4 step 2).
pub fn mmap_disposition(fd_arg: u64) -> Disposition {
    if fd_arg == u64::MAX {
        Disposition::Lwk
    } else {
        Disposition::Delegate
    }
}

/// A marshalled system call crossing the IKC channel.
///
/// "During system call delegation McKernel marshalls the system call number
/// along with its arguments and sends a message to Linux via a dedicated
/// IKC channel" (Sec. III-A). Pointer arguments are *not* chased at marshal
/// time — the unified address space lets the proxy dereference them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SyscallRequest {
    /// Request sequence number (matches the reply).
    pub seq: u64,
    /// Calling process.
    pub pid: u32,
    /// Calling thread.
    pub tid: u32,
    /// System call number.
    pub sysno: u32,
    /// The six x86-64 argument registers.
    pub args: [u64; 6],
}

/// Reply to a [`SyscallRequest`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SyscallReply {
    /// Request sequence number.
    pub seq: u64,
    /// Raw return value in Linux convention (negative errno on failure).
    pub ret: i64,
}

impl SyscallRequest {
    /// Wire size in bytes.
    pub const WIRE_SIZE: usize = 8 + 4 + 4 + 4 + 4 + 6 * 8;

    /// Serialize into `out` (little-endian, fixed layout) — lets hot
    /// paths reuse a preallocated wire buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.pid.to_le_bytes());
        out.extend_from_slice(&self.tid.to_le_bytes());
        out.extend_from_slice(&self.sysno.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // pad
        for a in self.args {
            out.extend_from_slice(&a.to_le_bytes());
        }
    }

    /// Serialize (little-endian, fixed layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        self.encode_into(&mut out);
        out
    }

    /// Deserialize; `None` on short/garbled input.
    pub fn decode(buf: &[u8]) -> Option<SyscallRequest> {
        if buf.len() != Self::WIRE_SIZE {
            return None;
        }
        let u64_at =
            |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("length checked"));
        let u32_at =
            |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("length checked"));
        let seq = u64_at(0);
        let pid = u32_at(8);
        let tid = u32_at(12);
        let sysno = u32_at(16);
        let mut args = [0u64; 6];
        for (k, a) in args.iter_mut().enumerate() {
            *a = u64_at(24 + 8 * k);
        }
        Some(SyscallRequest {
            seq,
            pid,
            tid,
            sysno,
            args,
        })
    }
}

impl SyscallReply {
    /// Wire size in bytes.
    pub const WIRE_SIZE: usize = 16;

    /// Serialize into `out` — lets hot paths reuse a wire buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ret.to_le_bytes());
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        self.encode_into(&mut out);
        out
    }

    /// Deserialize.
    pub fn decode(buf: &[u8]) -> Option<SyscallReply> {
        if buf.len() != Self::WIRE_SIZE {
            return None;
        }
        Some(SyscallReply {
            seq: u64::from_le_bytes(buf[0..8].try_into().ok()?),
            ret: i64::from_le_bytes(buf[8..16].try_into().ok()?),
        })
    }
}

/// Timeout-and-retry parameters for offloaded system calls.
///
/// The happy path assumes every IKC message arrives; under the fault
/// model a request or reply can vanish, so each offload attempt is
/// bounded by a timeout and retried with exponential backoff. After
/// `max_attempts` the offload fails with `-EIO` — the caller degrades
/// gracefully rather than hanging an LWK thread forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Timeout of the first attempt.
    pub base_timeout: Cycles,
    /// Multiplier applied per retry (exponential backoff).
    pub backoff_factor: u32,
    /// Cap on any single attempt's timeout.
    pub max_timeout: Cycles,
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // The modeled offload RTT is a few microseconds; 50 us catches
        // even heavily delayed replies while keeping recovery snappy.
        RetryPolicy {
            base_timeout: Cycles::from_us(50),
            backoff_factor: 2,
            max_timeout: Cycles::from_ms(1),
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// Timeout of attempt `attempt` (0-based): `base * factor^attempt`,
    /// saturating at [`max_timeout`](Self::max_timeout).
    pub fn timeout_for(&self, attempt: u32) -> Cycles {
        let factor = u64::from(self.backoff_factor).saturating_pow(attempt);
        Cycles(self.base_timeout.raw().saturating_mul(factor)).min(self.max_timeout)
    }

    /// Upper bound on the wall time an offload can spend before the
    /// caller observes `-EIO`: the sum of every attempt's timeout.
    pub fn worst_case(&self) -> Cycles {
        (0..self.max_attempts.max(1)).map(|a| self.timeout_for(a)).sum()
    }
}

/// Offload-bypass policy knobs.
///
/// Promotion is **off by default**: the paper-reproduction binaries must
/// stay byte-identical, so nothing promotes unless a bench (or the
/// cluster config's `bypass` field) arms it explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BypassConfig {
    /// Master switch. Disabled ⇒ every delegated call takes the IKC trip
    /// exactly as before, and the promotion check costs nothing.
    pub enabled: bool,
    /// A (pid, sysno) pair is promoted once the profiler has seen this
    /// many offloaded executions of it.
    /// `u64::MAX` arms the machinery without ever promoting — the
    /// "on-but-cold" determinism smoke.
    pub promote_after: u64,
    /// Charge `costs.domain_switch` on fast-path entry and exit (the
    /// MPK-style protection domains around the IKC ring / delegator
    /// surface). Reported separately so the bypass win is honest.
    pub domains: bool,
}

impl Default for BypassConfig {
    fn default() -> Self {
        BypassConfig {
            enabled: false,
            promote_after: 8,
            domains: false,
        }
    }
}

/// Per-process syscall heat profiler: an execution count per
/// (pid, [`Sysno`]), driving the [`Disposition::Promoted`] tier.
///
/// Recording is branch-light bookkeeping on the LWK side of the offload
/// path; it charges no modeled cycles, so arming the profiler never
/// perturbs figure output.
#[derive(Debug, Default)]
pub struct SyscallProfiler {
    heat: FastMap<(Pid, u32), u64>,
}

impl SyscallProfiler {
    /// Fresh profiler.
    pub fn new() -> Self {
        SyscallProfiler::default()
    }

    /// Record one execution of `sysno` by `pid`; returns the new count.
    pub fn record_call(&mut self, pid: Pid, sysno: Sysno) -> u64 {
        let count = self.heat.entry((pid, sysno.nr())).or_default();
        *count += 1;
        *count
    }

    /// Executions recorded for (pid, sysno).
    pub fn count(&self, pid: Pid, sysno: Sysno) -> u64 {
        self.heat.get(&(pid, sysno.nr())).copied().unwrap_or(0)
    }

    /// The tiered disposition under `cfg`: [`Disposition::Promoted`] for
    /// a measured-hot promotable call, the static table otherwise.
    pub fn disposition(&self, cfg: &BypassConfig, pid: Pid, sysno: Sysno) -> Disposition {
        let stat = disposition(sysno);
        if stat != Disposition::Delegate || !cfg.enabled || !promotable(sysno) {
            return stat;
        }
        if self.count(pid, sysno) >= cfg.promote_after {
            Disposition::Promoted
        } else {
            Disposition::Delegate
        }
    }

    /// Drop all state for a reaped process.
    pub fn forget(&mut self, pid: Pid) {
        self.heat.retain(|(p, _), _| *p != pid);
    }

    /// Whether any state is live (pristine-LWK check).
    pub fn is_empty(&self) -> bool {
        self.heat.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout_for(0), Cycles::from_us(50));
        assert_eq!(p.timeout_for(1), Cycles::from_us(100));
        assert_eq!(p.timeout_for(2), Cycles::from_us(200));
        assert_eq!(p.timeout_for(30), Cycles::from_ms(1), "capped");
        assert!(p.worst_case() >= p.timeout_for(0));
        let total: Cycles = (0..p.max_attempts).map(|a| p.timeout_for(a)).sum();
        assert_eq!(p.worst_case(), total);
    }

    #[test]
    fn performance_sensitive_set_is_local() {
        for s in [
            Sysno::Mmap,
            Sysno::Munmap,
            Sysno::Brk,
            Sysno::SchedYield,
            Sysno::Getpid,
            Sysno::Clone,
            Sysno::RtSigaction,
            Sysno::PerfEventOpen,
            Sysno::Gettimeofday,
        ] {
            assert_eq!(disposition(s), Disposition::Lwk, "{s:?}");
        }
    }

    #[test]
    fn io_and_files_delegate() {
        for s in [
            Sysno::Read,
            Sysno::Write,
            Sysno::Open,
            Sysno::Close,
            Sysno::Ioctl,
            Sysno::Stat,
            Sysno::Getcwd,
        ] {
            assert_eq!(disposition(s), Disposition::Delegate, "{s:?}");
        }
    }

    #[test]
    fn every_syscall_has_a_disposition() {
        // Force the match to stay total as the table grows.
        for &s in Sysno::all() {
            let _ = disposition(s);
        }
    }

    #[test]
    fn mmap_splits_on_backing() {
        assert_eq!(mmap_disposition(u64::MAX), Disposition::Lwk);
        assert_eq!(mmap_disposition(3), Disposition::Delegate);
    }

    #[test]
    fn request_round_trip() {
        let req = SyscallRequest {
            seq: 77,
            pid: 1000,
            tid: 1001,
            sysno: Sysno::Write.nr(),
            args: [3, 0x2000_0000_0000, 4096, 0, 0, 0],
        };
        let bytes = req.encode();
        assert_eq!(bytes.len(), SyscallRequest::WIRE_SIZE);
        assert_eq!(SyscallRequest::decode(&bytes), Some(req));
    }

    #[test]
    fn reply_round_trip_including_errno() {
        for ret in [0i64, 4096, -38] {
            let r = SyscallReply { seq: 9, ret };
            assert_eq!(SyscallReply::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert_eq!(SyscallRequest::decode(&[0u8; 10]), None);
        assert_eq!(SyscallReply::decode(&[0u8; 15]), None);
    }

    #[test]
    fn promotable_subset_is_delegated_by_default() {
        for s in [
            Sysno::Read,
            Sysno::Write,
            Sysno::Lseek,
            Sysno::Futex,
            Sysno::ClockGettime,
        ] {
            assert!(promotable(s), "{s:?}");
            assert_eq!(disposition(s), Disposition::Delegate, "{s:?}");
        }
        assert!(!promotable(Sysno::Open), "control-plane calls never promote");
        assert!(!promotable(Sysno::Ioctl), "device calls never promote");
    }

    #[test]
    fn profiler_promotes_only_hot_promotable_calls() {
        let mut prof = SyscallProfiler::new();
        let cfg = BypassConfig {
            enabled: true,
            promote_after: 3,
            domains: false,
        };
        let pid = Pid(1000);
        // Cold: still delegated.
        assert_eq!(prof.disposition(&cfg, pid, Sysno::Read), Disposition::Delegate);
        for _ in 0..3 {
            prof.record_call(pid, Sysno::Read);
            prof.record_call(pid, Sysno::Open);
        }
        assert_eq!(prof.disposition(&cfg, pid, Sysno::Read), Disposition::Promoted);
        // Equally hot but not promotable: stays delegated.
        assert_eq!(prof.disposition(&cfg, pid, Sysno::Open), Disposition::Delegate);
        // Another process's heat does not leak.
        assert_eq!(
            prof.disposition(&cfg, Pid(2000), Sysno::Read),
            Disposition::Delegate
        );
        // Locally-dispatched calls are untouched by promotion.
        assert_eq!(prof.disposition(&cfg, pid, Sysno::Getpid), Disposition::Lwk);
        // Master switch off: nothing promotes no matter the heat.
        let off = BypassConfig::default();
        assert!(!off.enabled);
        assert_eq!(prof.disposition(&off, pid, Sysno::Read), Disposition::Delegate);
        // on-but-cold: armed, never promotes.
        let cold = BypassConfig {
            enabled: true,
            promote_after: u64::MAX,
            domains: false,
        };
        assert_eq!(prof.disposition(&cold, pid, Sysno::Read), Disposition::Delegate);
    }

    #[test]
    fn forget_clears_the_profile() {
        let mut prof = SyscallProfiler::new();
        let pid = Pid(1000);
        assert_eq!(prof.record_call(pid, Sysno::Read), 1);
        prof.forget(pid);
        assert!(prof.is_empty());
        assert_eq!(prof.count(pid, Sysno::Read), 0);
    }
}
