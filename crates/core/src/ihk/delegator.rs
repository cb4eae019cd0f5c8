//! The IHK system-call delegator — a kernel module loaded into Linux
//! ("the latest version of IHK is implemented as a collection of kernel
//! modules without any modifications to the kernel code itself", Sec. II).
//!
//! It owns two pieces of state:
//!
//! * the pending-request table matching offloaded syscalls to the proxy
//!   processes that execute them ("the corresponding proxy process ... is
//!   by default waiting for system call requests through an `ioctl()` call
//!   into IHK's system call delegator kernel module", Sec. III-A);
//! * the **tracking objects** created when a device file is mapped
//!   (Fig. 4, step 3) and consulted on every LWK-side device fault.
//!
//! Both per-request tables sit on the offload hot path. The in-flight
//! table is one [`FastMap`] from sequence number to proxy pid. The
//! completed-reply cache is a slab indexed by the low bits of the
//! sequence number with the full sequence stored as a generation tag:
//! O(1) insert, lookup and eviction, no allocation. Offload sequence
//! numbers are assigned monotonically per node, so the direct-mapped
//! cache holds exactly a sliding window of the last [`COMPLETED_CACHE`]
//! completions, which is the retransmit dedup window.

use crate::abi::{Errno, Pid};
use crate::mck::syscall::{SyscallReply, SyscallRequest};
use hwmodel::addr::PhysAddr;
use simcore::FastMap;
use std::collections::VecDeque;

/// A device-file mapping tracked on the Linux side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrackingObject {
    /// Id handed back to McKernel.
    pub id: u64,
    /// Owning (McKernel) process.
    pub pid: Pid,
    /// Device file name.
    pub dev_name: String,
    /// Physical base the mapping resolves to (BAR base + file offset).
    pub phys_base: PhysAddr,
    /// Mapping length.
    pub len: u64,
    /// Virtual address of the proxy-side mapping (never touched by the
    /// proxy — "the proxy process on Linux will never access its mapping,
    /// because the proxy process never runs actual application code").
    pub proxy_va: u64,
}

impl TrackingObject {
    /// Resolve a byte offset to a physical address (Fig. 4, step 9).
    /// `None` on out-of-range offsets, including any `phys_base +
    /// offset` that would overflow the physical address space.
    pub fn resolve(&self, offset: u64) -> Option<PhysAddr> {
        if offset >= self.len {
            return None;
        }
        self.phys_base.raw().checked_add(offset).map(PhysAddr)
    }
}

/// Per-proxy delegation state.
#[derive(Debug, Default)]
struct ProxySlot {
    /// Requests waiting for the proxy to pick up via `ioctl()`.
    inbox: VecDeque<SyscallRequest>,
    /// Whether the proxy is parked in the delegator waiting for work.
    parked: bool,
}

/// How many completed replies the delegator remembers for
/// retransmit dedup. A retransmitted request whose original already
/// completed (the *reply* was lost) is answered from this cache
/// instead of being executed a second time. Must be a power of two
/// (slab slot index is `seq & (COMPLETED_CACHE - 1)`).
const COMPLETED_CACHE: usize = 128;

/// Tag value marking an empty slab slot. Sequence numbers start at 1
/// and could not reach this in any simulated horizon.
const EMPTY: u64 = u64::MAX;

/// Direct-mapped completed-reply cache: slot `seq & mask`, tagged with
/// the full sequence number (the high bits act as the slot's
/// generation). Insertion evicts whatever aliased the slot — O(1), no
/// scan, no allocation. With monotone sequence numbers this holds
/// exactly the last `COMPLETED_CACHE` replies.
#[derive(Debug)]
struct ReplyCache {
    seqs: Box<[u64; COMPLETED_CACHE]>,
    rets: Box<[i64; COMPLETED_CACHE]>,
    live: usize,
}

impl Default for ReplyCache {
    fn default() -> Self {
        ReplyCache {
            seqs: Box::new([EMPTY; COMPLETED_CACHE]),
            rets: Box::new([0; COMPLETED_CACHE]),
            live: 0,
        }
    }
}

impl ReplyCache {
    #[inline]
    fn slot(seq: u64) -> usize {
        (seq as usize) & (COMPLETED_CACHE - 1)
    }

    #[inline]
    fn get(&self, seq: u64) -> Option<SyscallReply> {
        let i = Self::slot(seq);
        (self.seqs[i] == seq).then(|| SyscallReply { seq, ret: self.rets[i] })
    }

    /// O(1) insert-with-eviction.
    #[inline]
    fn insert(&mut self, rep: SyscallReply) {
        let i = Self::slot(rep.seq);
        if self.seqs[i] == EMPTY {
            self.live += 1;
        }
        self.seqs[i] = rep.seq;
        self.rets[i] = rep.ret;
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// The delegator module state (one per LWK instance).
#[derive(Debug, Default)]
pub struct Delegator {
    proxies: FastMap<Pid, ProxySlot>,
    /// In-flight requests: seq -> proxy pid.
    in_flight: FastMap<u64, Pid>,
    /// Recently completed replies, kept for retransmit dedup (slab).
    completed: ReplyCache,
    tracking: FastMap<u64, TrackingObject>,
    next_tracking: u64,
    /// MPK protection key tagging the in-flight table and reply slab,
    /// if the kernel armed intra-kernel domains. Tagged tables may only
    /// be touched while the matching domain is open.
    pkey: Option<u8>,
}

/// What the delegator wants done after accepting a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DispatchAction {
    /// The named proxy was parked in `ioctl()` and must be woken.
    WakeProxy(Pid),
    /// The proxy is busy executing another call; the request queues.
    Queued,
    /// Retransmit of a request that already completed (the reply leg
    /// was lost): resend the cached reply, do **not** re-execute.
    Retransmit(SyscallReply),
    /// Retransmit of a request still executing: ignore it; the reply
    /// of the original execution will answer both.
    DuplicateInFlight,
    /// No proxy registered for this pid (protocol error).
    NoProxy,
}

impl Delegator {
    /// Fresh module state.
    pub fn new() -> Self {
        Delegator::default()
    }

    /// Tag the delegator tables with an MPK protection key. Idempotent;
    /// retagging with a different key is a bug.
    pub fn set_pkey(&mut self, key: u8) {
        assert!(
            self.pkey.is_none_or(|k| k == key),
            "delegator tables already tagged with a different pkey"
        );
        self.pkey = Some(key);
    }

    /// Protection key tagging the tables, if domains are armed.
    pub fn pkey(&self) -> Option<u8> {
        self.pkey
    }

    /// Register a proxy process for an application. The proxy immediately
    /// parks waiting for requests.
    pub fn register_proxy(&mut self, proxy_pid: Pid) {
        self.proxies.insert(
            proxy_pid,
            ProxySlot {
                inbox: VecDeque::new(),
                parked: true,
            },
        );
    }

    /// Remove a proxy (application teardown or proxy death). Every
    /// request still in flight on that proxy is answered with `-EIO` so
    /// the LWK-side waiter unblocks instead of hanging forever; the
    /// replies come back sorted by sequence number for determinism.
    pub fn unregister_proxy(&mut self, proxy_pid: Pid) -> Vec<SyscallReply> {
        self.proxies.remove(&proxy_pid);
        self.tracking.retain(|_, t| t.pid != proxy_pid);
        let mut stranded = Vec::new();
        self.in_flight.retain(|&seq, &mut pid| {
            if pid == proxy_pid {
                stranded.push(SyscallReply { seq, ret: -(Errno::EIO as i64) });
            }
            pid != proxy_pid
        });
        stranded.sort_unstable_by_key(|r| r.seq);
        stranded
    }

    /// Drop every tracking object owned by `pid`; returns how many were
    /// reclaimed. Tracking objects are created under the *application*
    /// pid (Fig. 4 step 3), so proxy-death cleanup calls this with the
    /// app's pid after [`unregister_proxy`](Self::unregister_proxy).
    pub fn reclaim_tracking_for(&mut self, pid: Pid) -> usize {
        let before = self.tracking.len();
        self.tracking.retain(|_, t| t.pid != pid);
        before - self.tracking.len()
    }

    /// Number of live tracking objects.
    pub fn tracking_count(&self) -> usize {
        self.tracking.len()
    }

    /// IKC interrupt handler: a syscall request arrived from the LWK for
    /// the application served by `proxy_pid`.
    ///
    /// Retransmits are recognized by sequence number and never executed
    /// twice: a seq still in flight is ignored (the original execution's
    /// reply answers both), and a seq in the completed cache is answered
    /// with the cached reply.
    pub fn on_syscall_request(&mut self, proxy_pid: Pid, req: SyscallRequest) -> DispatchAction {
        if let Some(rep) = self.completed.get(req.seq) {
            return DispatchAction::Retransmit(rep);
        }
        if self.in_flight.contains_key(&req.seq) {
            return DispatchAction::DuplicateInFlight;
        }
        let Some(slot) = self.proxies.get_mut(&proxy_pid) else {
            return DispatchAction::NoProxy;
        };
        self.in_flight.insert(req.seq, proxy_pid);
        slot.inbox.push_back(req);
        if slot.parked {
            slot.parked = false;
            DispatchAction::WakeProxy(proxy_pid)
        } else {
            DispatchAction::Queued
        }
    }

    /// The proxy's `ioctl()` fetch: take the next request, or park.
    pub fn proxy_fetch(&mut self, proxy_pid: Pid) -> Option<SyscallRequest> {
        let slot = self.proxies.get_mut(&proxy_pid)?;
        match slot.inbox.pop_front() {
            Some(r) => Some(r),
            None => {
                slot.parked = true;
                None
            }
        }
    }

    /// The proxy finished executing a request; build the reply for IKC.
    /// Returns `None` for an unknown sequence number (double completion).
    /// The reply is remembered in a bounded cache so a retransmit of the
    /// same request (lost reply) can be answered without re-executing.
    pub fn complete(&mut self, seq: u64, ret: i64) -> Option<SyscallReply> {
        self.in_flight.remove(&seq)?;
        let rep = SyscallReply { seq, ret };
        self.completed.insert(rep);
        Some(rep)
    }

    /// Number of requests not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Occupancy of the completed-reply cache (bounded by
    /// `COMPLETED_CACHE`; exposed so tests can pin the bound).
    pub fn completed_cache_len(&self) -> usize {
        self.completed.len()
    }

    /// Reclaim the completed-reply slab: drop every cached reply and
    /// return how many were freed. Only legal on a quiesced delegator —
    /// with a request still in flight a retransmit window could still be
    /// open, and dropping its dedup entry would allow a double
    /// execution. The online core-release drain protocol calls this
    /// after proving `in_flight() == 0`.
    pub fn reclaim_completed(&mut self) -> usize {
        assert_eq!(
            self.in_flight.len(),
            0,
            "reply-slab reclaim on a delegator with offloads in flight"
        );
        let n = self.completed.live;
        self.completed.seqs.fill(EMPTY);
        self.completed.live = 0;
        n
    }

    /// Create a tracking object for a freshly mapped device file
    /// (Fig. 4, step 3). Returns its id.
    pub fn create_tracking(
        &mut self,
        pid: Pid,
        dev_name: &str,
        phys_base: PhysAddr,
        len: u64,
        proxy_va: u64,
    ) -> u64 {
        self.next_tracking += 1;
        let id = self.next_tracking;
        self.tracking.insert(
            id,
            TrackingObject {
                id,
                pid,
                dev_name: dev_name.to_string(),
                phys_base,
                len,
                proxy_va,
            },
        );
        id
    }

    /// Resolve a device fault (Fig. 4, step 9): tracking id + offset to a
    /// physical address.
    pub fn resolve_pfn(&mut self, tracking: u64, offset: u64) -> Option<PhysAddr> {
        self.tracking.get(&tracking)?.resolve(offset)
    }

    /// Tracking object accessor (tests / teardown).
    pub fn tracking(&self, id: u64) -> Option<&TrackingObject> {
        self.tracking.get(&id)
    }

    /// Drop a tracking object (munmap of the device range).
    pub fn drop_tracking(&mut self, id: u64) -> bool {
        self.tracking.remove(&id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::Sysno;

    fn req(seq: u64) -> SyscallRequest {
        SyscallRequest {
            seq,
            pid: 1000,
            tid: 1000,
            sysno: Sysno::Write.nr(),
            args: [0; 6],
        }
    }

    #[test]
    fn parked_proxy_is_woken_once() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        assert_eq!(
            d.on_syscall_request(proxy, req(1)),
            DispatchAction::WakeProxy(proxy)
        );
        // Second request while the first is unfetched: proxy already awake.
        assert_eq!(d.on_syscall_request(proxy, req(2)), DispatchAction::Queued);
        assert_eq!(d.proxy_fetch(proxy).unwrap().seq, 1);
        assert_eq!(d.proxy_fetch(proxy).unwrap().seq, 2);
        // Inbox empty: proxy parks again.
        assert_eq!(d.proxy_fetch(proxy), None);
        assert_eq!(
            d.on_syscall_request(proxy, req(3)),
            DispatchAction::WakeProxy(proxy)
        );
    }

    #[test]
    fn completion_matches_sequence() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        d.on_syscall_request(proxy, req(7));
        assert_eq!(d.in_flight(), 1);
        let rep = d.complete(7, 512).unwrap();
        assert_eq!(rep, SyscallReply { seq: 7, ret: 512 });
        assert_eq!(d.in_flight(), 0);
        assert_eq!(d.complete(7, 512), None, "double completion rejected");
    }

    #[test]
    fn unregistered_proxy_rejected() {
        let mut d = Delegator::new();
        assert_eq!(d.on_syscall_request(Pid(1), req(1)), DispatchAction::NoProxy);
        assert_eq!(d.proxy_fetch(Pid(1)), None);
    }

    #[test]
    fn tracking_object_resolution() {
        let mut d = Delegator::new();
        let id = d.create_tracking(
            Pid(1000),
            "infiniband/uverbs0",
            PhysAddr(0x10_0000_0000),
            0x4000,
            0x7f55_0000_0000,
        );
        assert_eq!(
            d.resolve_pfn(id, 0x2000),
            Some(PhysAddr(0x10_0000_2000))
        );
        assert_eq!(d.resolve_pfn(id, 0x4000), None, "offset past mapping");
        assert_eq!(d.resolve_pfn(id + 1, 0), None, "unknown tracking id");
        assert!(d.drop_tracking(id));
        assert!(!d.drop_tracking(id));
        assert_eq!(d.resolve_pfn(id, 0), None);
    }

    #[test]
    fn unregister_cleans_tracking_and_inflight() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        d.on_syscall_request(proxy, req(1));
        d.create_tracking(proxy, "eth0", PhysAddr(0x10_0000_0000), 0x1000, 0);
        d.unregister_proxy(proxy);
        assert_eq!(d.in_flight(), 0);
        assert_eq!(d.complete(1, 0), None);
        assert_eq!(d.tracking_count(), 0);
    }

    #[test]
    fn unregister_answers_stranded_requests_with_eio() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        d.on_syscall_request(proxy, req(3));
        d.on_syscall_request(proxy, req(1));
        d.on_syscall_request(proxy, req(2));
        let replies = d.unregister_proxy(proxy);
        assert_eq!(
            replies,
            vec![
                SyscallReply { seq: 1, ret: -(Errno::EIO as i64) },
                SyscallReply { seq: 2, ret: -(Errno::EIO as i64) },
                SyscallReply { seq: 3, ret: -(Errno::EIO as i64) },
            ],
            "sorted by seq, all -EIO"
        );
        assert_eq!(d.in_flight(), 0);
        // Other proxies' in-flight work is untouched.
        let other = Pid(600);
        d.register_proxy(other);
        d.on_syscall_request(other, req(10));
        assert!(d.unregister_proxy(Pid(999)).is_empty());
        assert_eq!(d.in_flight(), 1);
    }

    #[test]
    fn retransmit_of_inflight_request_is_not_double_executed() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        assert_eq!(
            d.on_syscall_request(proxy, req(5)),
            DispatchAction::WakeProxy(proxy)
        );
        // The retransmit arrives while the original is still in flight.
        assert_eq!(
            d.on_syscall_request(proxy, req(5)),
            DispatchAction::DuplicateInFlight
        );
        // Only one copy in the inbox.
        assert_eq!(d.proxy_fetch(proxy).unwrap().seq, 5);
        assert_eq!(d.proxy_fetch(proxy), None);
    }

    #[test]
    fn retransmit_after_completion_replays_cached_reply() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        d.on_syscall_request(proxy, req(8));
        d.proxy_fetch(proxy);
        let rep = d.complete(8, 4096).unwrap();
        // The reply was lost; the LWK retransmits request 8.
        assert_eq!(
            d.on_syscall_request(proxy, req(8)),
            DispatchAction::Retransmit(rep),
            "cached reply, no second execution"
        );
        assert_eq!(d.in_flight(), 0, "retransmit adds no in-flight entry");
    }

    #[test]
    fn completed_cache_is_bounded() {
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        let total = (COMPLETED_CACHE + 10) as u64;
        for seq in 0..total {
            d.on_syscall_request(proxy, req(seq));
            d.proxy_fetch(proxy);
            d.complete(seq, 0).unwrap();
        }
        // Oldest entries evicted: a very old retransmit re-executes (it
        // queues as a fresh request), while a recent one replays.
        assert_eq!(d.on_syscall_request(proxy, req(0)), DispatchAction::Queued);
        assert_eq!(d.in_flight(), 1, "evicted seq re-enters in flight");
        assert_eq!(
            d.on_syscall_request(proxy, req(total - 1)),
            DispatchAction::Retransmit(SyscallReply { seq: total - 1, ret: 0 })
        );
    }

    #[test]
    fn completed_cache_bound_pinned_with_o1_eviction() {
        // Pins the slab bound: run 20x the capacity through the cache
        // and check (a) occupancy never exceeds COMPLETED_CACHE, (b) the
        // cache is exactly the sliding window of the most recent
        // COMPLETED_CACHE completions (monotone seqs), i.e. eviction is
        // the O(1) direct-mapped overwrite, not a scan over a shrinking
        // survivor set.
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        let total = (COMPLETED_CACHE * 20) as u64;
        for seq in 0..total {
            d.on_syscall_request(proxy, req(seq));
            d.proxy_fetch(proxy);
            d.complete(seq, seq as i64).unwrap();
            assert!(d.completed_cache_len() <= COMPLETED_CACHE);
        }
        assert_eq!(d.completed_cache_len(), COMPLETED_CACHE);
        // Every seq in the trailing window replays from cache...
        for seq in (total - COMPLETED_CACHE as u64)..total {
            assert_eq!(
                d.on_syscall_request(proxy, req(seq)),
                DispatchAction::Retransmit(SyscallReply { seq, ret: seq as i64 })
            );
        }
        // ...and everything older was evicted.
        for seq in [0, 1, total - COMPLETED_CACHE as u64 - 1] {
            assert_eq!(d.on_syscall_request(proxy, req(seq)), DispatchAction::Queued);
        }
    }

    #[test]
    fn aliased_inflight_seqs_do_not_collide() {
        // Two seqs 128 apart (the same reply-cache slot) in flight at
        // once stay distinct.
        let mut d = Delegator::new();
        let proxy = Pid(500);
        d.register_proxy(proxy);
        let (a, b) = (5u64, 5 + 128);
        d.on_syscall_request(proxy, req(a));
        d.on_syscall_request(proxy, req(b));
        assert_eq!(d.in_flight(), 2);
        assert_eq!(
            d.on_syscall_request(proxy, req(b)),
            DispatchAction::DuplicateInFlight
        );
        assert_eq!(d.complete(a, 1), Some(SyscallReply { seq: a, ret: 1 }));
        assert_eq!(d.complete(b, 2), Some(SyscallReply { seq: b, ret: 2 }));
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn resolve_checked_against_phys_overflow() {
        let t = TrackingObject {
            id: 1,
            pid: Pid(1000),
            dev_name: "uverbs0".into(),
            phys_base: PhysAddr(u64::MAX - 0x100),
            len: 0x1000,
            proxy_va: 0,
        };
        assert_eq!(t.resolve(0x80), Some(PhysAddr(u64::MAX - 0x80)));
        assert_eq!(t.resolve(0x200), None, "phys_base + offset overflows");
        assert_eq!(t.resolve(0x1000), None, "past mapping end");
    }

    #[test]
    fn reclaim_tracking_for_app_pid() {
        let mut d = Delegator::new();
        let app = Pid(1000);
        d.create_tracking(app, "uverbs0", PhysAddr(0x10_0000_0000), 0x1000, 0);
        d.create_tracking(app, "uverbs0", PhysAddr(0x10_0001_0000), 0x1000, 0);
        d.create_tracking(Pid(2000), "eth0", PhysAddr(0x20_0000_0000), 0x1000, 0);
        assert_eq!(d.reclaim_tracking_for(app), 2);
        assert_eq!(d.tracking_count(), 1);
    }
}
