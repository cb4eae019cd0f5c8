//! Reliable delivery over a faulty fabric — the IB reliable-connection
//! (RC) discipline on top of [`Fabric`].
//!
//! Every port carries a [`LinkFaultPlan`] that can drop, corrupt, delay
//! or flap packets. This layer hides those faults from the MPI model
//! the way an RC queue pair hides them from verbs consumers:
//!
//! * **drop** — the sender's retransmit timer fires after an RTO with
//!   exponential backoff (+ seeded jitter) and the packet is re-sent;
//! * **corrupt** — the receiver's ICRC rejects the packet at arrival
//!   and NACKs; the sender re-sends after a short turnaround (corrupt
//!   recovery is much cheaper than a timeout, as on real HCAs);
//! * **delay** — delivered late; no protocol action;
//! * **flap** — a port is down for an interval; sends stall until it
//!   re-arms, bounded by [`RetransmitPolicy::max_down_wait`];
//! * **node death** — a dead peer never ACKs, so the retry budget
//!   drains and the send fails as [`LinkError::PeerDead`].
//!
//! The consumer sees exactly-once delivery with honest extra latency,
//! or a typed [`LinkError`] once the bounded retry budget is exhausted
//! — never a hang, never a panic. With all plans disabled the `send`
//! path is an exact passthrough to [`Fabric::send`] and consumes zero
//! RNG draws, so fault-free runs are bit-identical to builds that
//! predate this module.

use crate::fabric::{Fabric, Transfer};
use crate::loggp::LinkParams;
use simcore::fault::{
    DomainEvent, DomainEventKind, DomainTopology, LinkFaultConfig, LinkFaultPlan, MsgFault,
};
use simcore::{Cycles, StreamRng};

/// Retransmission knobs (per fabric, applied to every link).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetransmitPolicy {
    /// Base retransmit timeout (RTO) before the first backoff doubling.
    pub base_timeout: Cycles,
    /// Total send attempts before giving up (first try included).
    pub max_attempts: u32,
    /// Backoff exponent cap: RTO for attempt `a` is
    /// `base << min(a, max_backoff_exp)`.
    pub max_backoff_exp: u32,
    /// Jitter as a fraction of the nominal RTO, scaled by a seeded
    /// uniform draw from the source port's fault plan.
    pub jitter_frac: f64,
    /// Receiver NACK turnaround after an ICRC-rejected (corrupt) packet.
    pub nack_turnaround: Cycles,
    /// Longest a send will stall waiting out a link flap before failing
    /// with [`LinkError::LinkDown`].
    pub max_down_wait: Cycles,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            base_timeout: Cycles::from_us(20),
            max_attempts: 7,
            max_backoff_exp: 5,
            jitter_frac: 0.1,
            nack_turnaround: Cycles::from_us(3),
            max_down_wait: Cycles::from_ms(50),
        }
    }
}

impl RetransmitPolicy {
    /// Nominal (jitter-free) RTO for the given attempt index.
    pub fn nominal_rto(&self, attempt: u32) -> Cycles {
        Cycles(self.base_timeout.raw() << attempt.min(self.max_backoff_exp))
    }

    /// Upper bound on the time between first injection and giving up
    /// when every attempt times out (the dead-peer detection budget):
    /// the sum of all RTOs at maximal jitter.
    pub fn detection_budget(&self) -> Cycles {
        let mut total = Cycles::ZERO;
        for a in 0..self.max_attempts {
            let base = self.nominal_rto(a);
            total += base + base.scale(self.jitter_frac);
        }
        total
    }
}

/// A send that the reliable layer could not complete. Carries the time
/// at which the sender stopped trying, so callers can model when the
/// failure is *observed*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The retry budget drained without a successful delivery.
    RetryBudget {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
        /// When the sender gave up.
        gave_up_at: Cycles,
    },
    /// A port stayed down longer than the policy tolerates.
    LinkDown {
        /// The port that was down.
        port: usize,
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// When the sender gave up.
        gave_up_at: Cycles,
    },
    /// One endpoint of the transfer is a dead node.
    PeerDead {
        /// The dead node.
        node: usize,
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// When the failure was observed (send post time for a dead
        /// sender; retry-budget exhaustion for a dead receiver).
        gave_up_at: Cycles,
    },
}

impl LinkError {
    /// When the sender stopped trying.
    pub fn gave_up_at(&self) -> Cycles {
        match *self {
            LinkError::RetryBudget { gave_up_at, .. }
            | LinkError::LinkDown { gave_up_at, .. }
            | LinkError::PeerDead { gave_up_at, .. } => gave_up_at,
        }
    }
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LinkError::RetryBudget { src, dst, attempts, .. } => {
                write!(f, "retry budget exhausted after {attempts} attempts ({src} -> {dst})")
            }
            LinkError::LinkDown { port, src, dst, .. } => {
                write!(f, "link at port {port} down too long ({src} -> {dst})")
            }
            LinkError::PeerDead { node, src, dst, .. } => {
                write!(f, "node {node} is dead ({src} -> {dst})")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// When a node stops responding (cluster-layer node-crash fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Dies at a fixed simulated time.
    AtTime(Cycles),
    /// Dies when it posts its Nth fabric send (in-flight-depth style
    /// trigger: deterministic and workload-scale independent).
    AfterSends(u64),
}

/// Protocol-level counters for the reliable layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Packets re-sent (timeout or NACK).
    pub retransmits: u64,
    /// Corrupt packets caught by the receiver's ICRC.
    pub corrupt_caught: u64,
    /// Sends that stalled waiting out a link flap.
    pub flap_stalls: u64,
    /// Sends that exhausted their budget and returned an error.
    pub gave_up: u64,
}

/// A [`Fabric`] wrapped with per-port fault plans, the retransmission
/// protocol, and node-death tracking.
#[derive(Debug)]
pub struct ReliableFabric {
    fabric: Fabric,
    links: Vec<LinkFaultPlan>,
    policy: RetransmitPolicy,
    /// Simulated time each node died, if armed/fired.
    dead_at: Vec<Option<Cycles>>,
    /// Pending [`CrashTrigger::AfterSends`] thresholds.
    crash_after_sends: Vec<Option<u64>>,
    /// Fabric sends posted per node (for `AfterSends`).
    sends_posted: Vec<u64>,
    stats: ReliableStats,
}

impl ReliableFabric {
    /// A reliable fabric over fault-free links. `send` is an exact
    /// passthrough of [`Fabric::send`]; no RNG stream is constructed,
    /// let alone drawn from.
    pub fn new(n: usize, params: LinkParams) -> Self {
        ReliableFabric {
            fabric: Fabric::new(n, params),
            links: (0..n).map(|_| LinkFaultPlan::disabled()).collect(),
            policy: RetransmitPolicy::default(),
            dead_at: vec![None; n],
            crash_after_sends: vec![None; n],
            sends_posted: vec![0; n],
            stats: ReliableStats::default(),
        }
    }

    /// A reliable fabric whose port `i` runs `cfg` over the dedicated
    /// stream `rng.stream("linkfault", i)` — enabling faults never
    /// perturbs any other stochastic component.
    pub fn with_faults(n: usize, params: LinkParams, cfg: LinkFaultConfig, rng: &StreamRng) -> Self {
        let mut f = ReliableFabric::new(n, params);
        f.links = (0..n)
            .map(|i| LinkFaultPlan::new(cfg, rng.stream("linkfault", i as u64)))
            .collect();
        f
    }

    /// The retransmission policy in force.
    pub fn policy(&self) -> &RetransmitPolicy {
        &self.policy
    }

    /// Replace the retransmission policy.
    pub fn set_policy(&mut self, policy: RetransmitPolicy) {
        self.policy = policy;
    }

    /// The underlying fabric (read-only).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Link parameters.
    pub fn params(&self) -> &LinkParams {
        self.fabric.params()
    }

    /// Number of ports.
    pub fn num_nodes(&self) -> usize {
        self.fabric.num_nodes()
    }

    /// Per-port fault plans (logs/fingerprints).
    pub fn links(&self) -> &[LinkFaultPlan] {
        &self.links
    }

    /// Cumulative (messages, bytes) carried, retransmits included.
    pub fn stats(&self) -> (u64, u64) {
        self.fabric.stats()
    }

    /// Cumulative protocol counters.
    pub fn reliable_stats(&self) -> ReliableStats {
        self.stats
    }

    /// Reset port timelines (new iteration from a fresh barrier).
    pub fn reset_timelines(&mut self) {
        self.fabric.reset_timelines();
    }

    /// Arm a node-death fault.
    pub fn kill_node(&mut self, node: usize, trigger: CrashTrigger) {
        match trigger {
            CrashTrigger::AtTime(at) => {
                let d = self.dead_at[node].get_or_insert(at);
                *d = (*d).min(at);
            }
            CrashTrigger::AfterSends(n) => {
                let t = self.crash_after_sends[node].get_or_insert(n);
                *t = (*t).min(n);
            }
        }
    }

    /// The time `node` died, if it has.
    pub fn node_dead_at(&self, node: usize) -> Option<Cycles> {
        self.dead_at[node]
    }

    /// Force `[start, end)` downtime onto one port (RNG-free even on a
    /// fault-free fabric; see [`LinkFaultPlan::force_down`]).
    pub fn force_link_down(&mut self, port: usize, start: Cycles, end: Cycles) {
        self.links[port].force_down(start, end);
    }

    /// Apply one correlated domain event: a fail-stop kills every node
    /// in the subtree at the event instant; a blackout flaps every port
    /// in the subtree for the event's duration. Both paths are RNG-free,
    /// so deterministic injected events keep the zero-draw contract.
    pub fn apply_domain_event(&mut self, topo: &DomainTopology, ev: &DomainEvent) {
        for node in topo.nodes_in(ev.scope) {
            match ev.kind {
                DomainEventKind::FailStop => self.kill_node(node, CrashTrigger::AtTime(ev.at)),
                DomainEventKind::Blackout(dur) => self.force_link_down(node, ev.at, ev.at + dur),
            }
        }
    }

    /// Every node dead at simulated time `at`, ascending — the batch a
    /// heartbeat sweep discovers in one detection window.
    pub fn dead_nodes_at(&self, at: Cycles) -> Vec<usize> {
        (0..self.num_nodes()).filter(|&n| self.is_dead(n, at)).collect()
    }

    /// Is `node` dead at simulated time `at`?
    pub fn is_dead(&self, node: usize, at: Cycles) -> bool {
        self.dead_at[node].is_some_and(|d| d <= at)
    }

    /// Whether any fault machinery is armed anywhere on this fabric:
    /// an enabled per-port plan, a forced downtime (domain blackouts
    /// land as forced flaps, so they are visible through the plan log
    /// even on otherwise-disabled plans), or an armed node death.
    pub fn faults_armed(&self) -> bool {
        self.dead_at.iter().any(Option::is_some)
            || self.crash_after_sends.iter().any(Option::is_some)
            || self
                .links
                .iter()
                .any(|l| l.config().enabled || !l.log().is_empty())
    }

    /// Conservative lookahead over this fabric: how soon one node's
    /// action can be observed by another (it fills
    /// `mpisim::ReplayConfig::lookahead`). Fault-free, it is the full
    /// [`LinkParams::lookahead`] — CPU send overhead plus one wire
    /// traversal. With any fault machinery armed it shrinks to the bare
    /// wire `latency`: protocol-generated traffic (NACKs, retransmits
    /// re-injected by the HCA, packets released when a blackout lifts)
    /// can reach the far NIC without repaying a fresh caller-side send
    /// overhead, so only the wire traversal itself remains guaranteed.
    /// Never below `latency`, which every cross-node signal must pay.
    pub fn lookahead(&self) -> Cycles {
        let p = self.fabric.params();
        if self.faults_armed() {
            p.latency
        } else {
            p.lookahead()
        }
    }

    /// Reliably send `bytes` from `src` to `dst`, sender CPU ready at
    /// `ready`. On success the [`Transfer`] reflects all retransmission
    /// and stall latency; on failure the typed error says why and when
    /// the sender gave up.
    pub fn send(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        ready: Cycles,
    ) -> Result<Transfer, LinkError> {
        // A dead sender posts nothing.
        if let Some(d) = self.dead_at[src] {
            if d <= ready {
                return Err(LinkError::PeerDead { node: src, src, dst, gave_up_at: ready });
            }
        }
        // In-flight-depth crash trigger: the node dies *posting* this
        // send (its dying gasp never makes it onto the wire).
        self.sends_posted[src] += 1;
        if let Some(th) = self.crash_after_sends[src] {
            if self.sends_posted[src] >= th && !self.is_dead(src, ready) {
                let d = self.dead_at[src].get_or_insert(ready);
                *d = (*d).min(ready);
                return Err(LinkError::PeerDead { node: src, src, dst, gave_up_at: ready });
            }
        }
        let mut env = FabEnv {
            fabric: &mut self.fabric,
            links: &mut self.links,
            dead_at: &self.dead_at,
            src,
            dst,
            bytes,
        };
        reliable_send_loop(&self.policy, src, dst, ready, &mut self.stats, &mut env)
    }

    /// An immutable fault snapshot partitions can share (`Arc`) while
    /// each owns its node's [`crate::plink::LinkEnd`]. `Some` exactly
    /// when every armed fault is deterministic — fixed-time node deaths
    /// and forced/blackout downtimes. `None` when any behaviour would
    /// need shared *mutable* state or an RNG stream during the run: an
    /// enabled per-port random plan (draw order is global) or a pending
    /// [`CrashTrigger::AfterSends`] (the death instant depends on the
    /// global posting order) — those runs stay on the collectives walk.
    pub fn partition_view(&self) -> Option<crate::plink::FaultView> {
        if self.crash_after_sends.iter().any(Option::is_some) {
            return None;
        }
        if self.links.iter().any(|l| l.config().enabled) {
            return None;
        }
        Some(crate::plink::FaultView::new(
            self.dead_at.clone(),
            self.links.iter().map(|l| l.down_windows().to_vec()).collect(),
        ))
    }

    /// Break the shared fabric into per-node link ends, one per port, in
    /// node-index order. The fabric keeps the fault plans and counters
    /// but routes nothing until [`ReliableFabric::absorb_ends`] returns
    /// the ends.
    pub fn detach_ends(&mut self) -> Vec<crate::plink::LinkEnd> {
        self.fabric
            .detach_ports()
            .into_iter()
            .map(crate::plink::LinkEnd::new)
            .collect()
    }

    /// Reinstall detached link ends (node-index order) and fold their
    /// traffic, posted-send and protocol counters back into the shared
    /// totals. Sums plus an index-ordered reinstall: the merged state is
    /// independent of the order the replay ran the nodes in, which is
    /// what keeps the cumulative [`ReliableFabric::stats`] identical to
    /// the walk's.
    pub fn absorb_ends(&mut self, ends: Vec<crate::plink::LinkEnd>) {
        assert_eq!(ends.len(), self.sends_posted.len(), "one end per node");
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut ports = Vec::with_capacity(ends.len());
        for (node, e) in ends.into_iter().enumerate() {
            messages += e.messages;
            bytes += e.bytes;
            self.sends_posted[node] += e.posted;
            self.stats.retransmits += e.stats.retransmits;
            self.stats.corrupt_caught += e.stats.corrupt_caught;
            self.stats.flap_stalls += e.stats.flap_stalls;
            self.stats.gave_up += e.stats.gave_up;
            ports.push(e.port);
        }
        self.fabric.absorb_ports(ports, messages, bytes);
    }
}

/// The environment one reliable send runs against: the shared fabric
/// for the collectives walk ([`FabEnv`], private), or a pair of
/// detached per-node link ends plus an immutable fault snapshot for the
/// partitioned replay (see [`crate::plink`]). Keeping the retransmit
/// cascade generic over this trait is what guarantees the two execution
/// modes time out, back off, NACK and give up identically.
pub trait LinkEnv {
    /// If the given port is down at `at`, when it re-arms.
    fn down_until(&self, port: usize, at: Cycles) -> Option<Cycles>;
    /// Is the destination node dead at `at`?
    fn dst_dead(&self, at: Cycles) -> bool;
    /// Run one wire attempt starting at `at` (mutates port timelines).
    fn transfer(&mut self, at: Cycles) -> Transfer;
    /// Draw the fate of the packet that arrived at `at`.
    fn packet_fault(&mut self, at: Cycles) -> MsgFault;
    /// Uniform retransmit-jitter fraction in `[0, 1)`.
    fn jitter(&mut self) -> f64;
}

struct FabEnv<'a> {
    fabric: &'a mut Fabric,
    links: &'a mut [LinkFaultPlan],
    dead_at: &'a [Option<Cycles>],
    src: usize,
    dst: usize,
    bytes: u64,
}

impl LinkEnv for FabEnv<'_> {
    fn down_until(&self, port: usize, at: Cycles) -> Option<Cycles> {
        self.links[port].down_until(at)
    }
    fn dst_dead(&self, at: Cycles) -> bool {
        self.dead_at[self.dst].is_some_and(|d| d <= at)
    }
    fn transfer(&mut self, at: Cycles) -> Transfer {
        self.fabric.send(self.src, self.dst, self.bytes, at)
    }
    fn packet_fault(&mut self, at: Cycles) -> MsgFault {
        self.links[self.src].draw_packet_fault(at)
    }
    fn jitter(&mut self) -> f64 {
        self.links[self.src].draw_retrans_jitter()
    }
}

/// The RC retransmission cascade: flap stalls, wire attempts, timeout
/// backoff with jitter, NACK turnarounds, and the bounded retry budget.
/// Single source of truth shared by [`ReliableFabric::send`] and the
/// partitioned per-pair path ([`crate::plink::pair_send`]); dead-sender
/// pre-checks and crash triggers stay with the caller.
pub fn reliable_send_loop<E: LinkEnv>(
    policy: &RetransmitPolicy,
    src: usize,
    dst: usize,
    ready: Cycles,
    stats: &mut ReliableStats,
    env: &mut E,
) -> Result<Transfer, LinkError> {
    let mut at = ready;
    let mut attempt: u32 = 0;
    loop {
        // Wait out link flaps on both endpoints' ports.
        for port in [src, dst] {
            if let Some(up) = env.down_until(port, at) {
                if up - at > policy.max_down_wait {
                    stats.gave_up += 1;
                    return Err(LinkError::LinkDown {
                        port,
                        src,
                        dst,
                        gave_up_at: at + policy.max_down_wait,
                    });
                }
                stats.flap_stalls += 1;
                at = up;
            }
        }
        let t = env.transfer(at);
        // A dead receiver generates no ACK; the packet is lost
        // regardless of what the link would have drawn (no draw —
        // zero-RNG contract holds for crash-only configs too).
        let fault = if env.dst_dead(t.arrival) {
            MsgFault::Drop
        } else {
            env.packet_fault(t.arrival)
        };
        match fault {
            MsgFault::None => return Ok(t),
            MsgFault::Delay(d) => {
                return Ok(Transfer {
                    sender_free: t.sender_free,
                    arrival: t.arrival + d,
                    delivered: t.delivered + d,
                })
            }
            MsgFault::Drop => {
                // Silent loss: only the retransmit timer recovers. RTO =
                // nominal backoff plus seeded jitter from the source
                // port (a disabled plan contributes zero without
                // drawing).
                let base = policy.nominal_rto(attempt);
                let next = t.sender_free + base + base.scale(policy.jitter_frac * env.jitter());
                attempt += 1;
                if attempt >= policy.max_attempts {
                    stats.gave_up += 1;
                    return Err(if env.dst_dead(t.arrival) {
                        LinkError::PeerDead { node: dst, src, dst, gave_up_at: next }
                    } else {
                        LinkError::RetryBudget { src, dst, attempts: attempt, gave_up_at: next }
                    });
                }
                stats.retransmits += 1;
                at = next;
            }
            MsgFault::Corrupt => {
                // ICRC rejection at the receiver: fast NACK path.
                let next = t.arrival + policy.nack_turnaround;
                attempt += 1;
                stats.corrupt_caught += 1;
                if attempt >= policy.max_attempts {
                    stats.gave_up += 1;
                    return Err(LinkError::RetryBudget {
                        src,
                        dst,
                        attempts: attempt,
                        gave_up_at: next,
                    });
                }
                stats.retransmits += 1;
                at = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::fault::DomainScope;

    fn params() -> LinkParams {
        LinkParams::fdr_infiniband()
    }

    #[test]
    fn fault_free_send_is_exact_passthrough() {
        let mut plain = Fabric::new(4, params());
        let mut rel = ReliableFabric::new(4, params());
        for (i, &(s, d, b)) in [(0usize, 1usize, 64u64), (1, 2, 1 << 20), (3, 0, 4096)]
            .iter()
            .enumerate()
        {
            let at = Cycles::from_us(i as u64);
            let want = plain.send(s, d, b, at);
            let got = rel.send(s, d, b, at).expect("fault-free");
            assert_eq!(got, want);
        }
        assert_eq!(rel.stats(), plain.stats());
        assert_eq!(rel.reliable_stats(), ReliableStats::default());
    }

    #[test]
    fn drops_are_recovered_with_extra_latency() {
        let cfg = LinkFaultConfig::loss(0.4);
        let rng = StreamRng::root(11);
        let mut rel = ReliableFabric::with_faults(2, params(), cfg, &rng);
        let mut reference = Fabric::new(2, params());
        let mut retransmitted = false;
        for i in 0..200u64 {
            let at = Cycles::from_us(10 * i);
            let want = reference.send(0, 1, 512, at);
            let got = rel.send(0, 1, 512, at).expect("within retry budget");
            assert!(got.delivered >= want.delivered, "faults only add latency");
            retransmitted |= got.delivered > want.delivered;
        }
        assert!(retransmitted, "40% loss must trigger retransmits");
        assert!(rel.reliable_stats().retransmits > 0);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error_not_a_hang() {
        let cfg = LinkFaultConfig::loss(1.0);
        let rng = StreamRng::root(5);
        let mut rel = ReliableFabric::with_faults(2, params(), cfg, &rng);
        let err = rel.send(0, 1, 64, Cycles::ZERO).expect_err("total loss");
        match err {
            LinkError::RetryBudget { attempts, gave_up_at, .. } => {
                assert_eq!(attempts, rel.policy().max_attempts);
                // Bounded: occupancy of the attempts + all RTOs.
                let bound = Cycles::from_us(10) + rel.policy().detection_budget();
                assert!(gave_up_at <= bound, "{gave_up_at:?} > {bound:?}");
            }
            e => panic!("wrong error: {e:?}"),
        }
        assert_eq!(rel.reliable_stats().gave_up, 1);
    }

    #[test]
    fn corruption_recovers_via_fast_nack() {
        let cfg = LinkFaultConfig::off().with_corruption(0.3);
        let rng = StreamRng::root(9);
        let mut rel = ReliableFabric::with_faults(2, params(), cfg, &rng);
        for i in 0..100u64 {
            rel.send(0, 1, 2048, Cycles::from_us(5 * i)).expect("recoverable");
        }
        let s = rel.reliable_stats();
        assert!(s.corrupt_caught > 0);
        assert_eq!(s.corrupt_caught, s.retransmits, "every corrupt packet resent");
    }

    #[test]
    fn flaps_stall_but_deliver() {
        let cfg = LinkFaultConfig {
            flap_horizon_secs: 1,
            ..LinkFaultConfig::off().with_flaps(2_000.0, 20_000.0)
        };
        let rng = StreamRng::root(3);
        let mut rel = ReliableFabric::with_faults(2, params(), cfg, &rng);
        let mut stalled = false;
        for i in 0..2_000u64 {
            let at = Cycles::from_us(3 * i);
            let t = rel.send(0, 1, 256, at).expect("flaps are transient");
            assert!(t.delivered > at);
            stalled = rel.reliable_stats().flap_stalls > 0;
        }
        assert!(stalled, "2k flaps/sec must intersect some send");
    }

    #[test]
    fn long_flap_fails_typed_when_beyond_max_wait() {
        let cfg = LinkFaultConfig::off().with_flaps(50.0, 500_000.0);
        let rng = StreamRng::root(21);
        let mut rel = ReliableFabric::with_faults(2, params(), cfg, &rng);
        rel.set_policy(RetransmitPolicy {
            max_down_wait: Cycles::from_ns(100),
            ..RetransmitPolicy::default()
        });
        // Find a downtime via the plan log and send right into it.
        let (at, _) = rel.links()[0]
            .log()
            .iter()
            .find_map(|e| match e.kind {
                simcore::FaultKind::LinkDown(d) => Some((e.at, d)),
                _ => None,
            })
            .expect("flaps were scheduled");
        match rel.send(0, 1, 64, at) {
            Err(LinkError::LinkDown { port: 0, .. }) => {}
            r => panic!("expected LinkDown, got {r:?}"),
        }
    }

    #[test]
    fn dead_receiver_detected_within_budget() {
        let mut rel = ReliableFabric::new(2, params());
        rel.kill_node(1, CrashTrigger::AtTime(Cycles::ZERO));
        let posted = Cycles::from_us(7);
        let err = rel.send(0, 1, 64, posted).expect_err("peer is dead");
        match err {
            LinkError::PeerDead { node: 1, gave_up_at, .. } => {
                let budget = rel.policy().detection_budget();
                assert!(gave_up_at <= posted + Cycles::from_us(10) + budget);
                assert!(gave_up_at >= posted + rel.policy().nominal_rto(0));
            }
            e => panic!("wrong error: {e:?}"),
        }
        // Dead-peer detection over fault-free links must not draw.
        assert!(rel.links()[0].log().is_empty());
        assert!(rel.links()[1].log().is_empty());
    }

    #[test]
    fn dead_sender_fails_immediately() {
        let mut rel = ReliableFabric::new(2, params());
        rel.kill_node(0, CrashTrigger::AtTime(Cycles::from_us(5)));
        // Before death: fine.
        rel.send(0, 1, 64, Cycles::from_us(1)).expect("still alive");
        // After death: immediate typed failure.
        match rel.send(0, 1, 64, Cycles::from_us(6)) {
            Err(LinkError::PeerDead { node: 0, gave_up_at, .. }) => {
                assert_eq!(gave_up_at, Cycles::from_us(6));
            }
            r => panic!("expected dead sender, got {r:?}"),
        }
    }

    #[test]
    fn after_sends_trigger_kills_at_depth() {
        let mut rel = ReliableFabric::new(2, params());
        rel.kill_node(0, CrashTrigger::AfterSends(3));
        rel.send(0, 1, 64, Cycles::ZERO).expect("1st");
        rel.send(0, 1, 64, Cycles::from_us(1)).expect("2nd");
        let at = Cycles::from_us(2);
        match rel.send(0, 1, 64, at) {
            Err(LinkError::PeerDead { node: 0, .. }) => {}
            r => panic!("expected death on 3rd send, got {r:?}"),
        }
        assert!(rel.is_dead(0, at));
        assert_eq!(rel.node_dead_at(0), Some(at));
    }

    #[test]
    fn domain_failstop_kills_whole_rack_at_once() {
        let topo = DomainTopology::new(8, 4);
        let mut rel = ReliableFabric::new(8, params());
        let at = Cycles::from_ms(1);
        rel.apply_domain_event(
            &topo,
            &DomainEvent { at, scope: DomainScope::Rack(1), kind: DomainEventKind::FailStop },
        );
        assert_eq!(rel.dead_nodes_at(at), vec![4, 5, 6, 7], "whole subtree, one instant");
        assert!(rel.dead_nodes_at(at - Cycles(1)).is_empty(), "nothing before");
        for n in [4usize, 5, 6, 7] {
            assert_eq!(rel.node_dead_at(n), Some(at));
        }
        // Survivors in the other rack still talk to each other.
        rel.send(0, 1, 64, at + Cycles::from_us(1)).expect("other rack unaffected");
        // Zero-draw: correlated kills over fault-free links log nothing.
        assert!(rel.links().iter().all(|l| l.log().is_empty()));
    }

    #[test]
    fn domain_blackout_flaps_every_port_in_subtree() {
        let topo = DomainTopology::new(8, 4);
        let mut rel = ReliableFabric::new(8, params());
        let at = Cycles::from_ms(2);
        let dur = Cycles::from_us(40);
        rel.apply_domain_event(
            &topo,
            &DomainEvent { at, scope: DomainScope::Rack(0), kind: DomainEventKind::Blackout(dur) },
        );
        // A send posted into the blackout stalls until the subtree
        // re-arms but still delivers (transient, not fatal).
        let t = rel.send(0, 1, 256, at + Cycles::from_us(1)).expect("blackout is transient");
        assert!(t.delivered >= at + dur, "stalled past the blackout");
        assert!(rel.reliable_stats().flap_stalls > 0);
        // Ports outside the subtree are untouched.
        assert!(rel.links()[4].down_until(at + Cycles::from_us(1)).is_none());
    }

    #[test]
    fn lookahead_shrinks_when_faults_arm() {
        let p = params();
        // Fault-free: full overhead + latency window.
        let rel = ReliableFabric::new(4, p);
        assert!(!rel.faults_armed());
        assert_eq!(rel.lookahead(), p.lookahead());

        // Per-link random faults: latency only.
        let rng = StreamRng::root(1);
        let faulty = ReliableFabric::with_faults(4, p, LinkFaultConfig::loss(0.1), &rng);
        assert!(faulty.faults_armed());
        assert_eq!(faulty.lookahead(), p.latency);

        // A domain blackout on an otherwise fault-free fabric shrinks it
        // too (forced downs are visible through the plan log).
        let mut blk = ReliableFabric::new(8, p);
        assert_eq!(blk.lookahead(), p.lookahead());
        let topo = DomainTopology::new(8, 4);
        blk.apply_domain_event(
            &topo,
            &DomainEvent {
                at: Cycles::from_ms(1),
                scope: DomainScope::Rack(0),
                kind: DomainEventKind::Blackout(Cycles::from_us(10)),
            },
        );
        assert!(blk.faults_armed());
        assert_eq!(blk.lookahead(), p.latency);

        // An armed node death shrinks it as well.
        let mut dying = ReliableFabric::new(2, p);
        dying.kill_node(1, CrashTrigger::AfterSends(100));
        assert_eq!(dying.lookahead(), p.latency);

        // Never below the wire latency.
        assert!(faulty.lookahead() >= p.latency);
    }
}
