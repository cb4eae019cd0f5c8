//! Per-link fabric state for partitioned simulation.
//!
//! The shared [`crate::Fabric`] serializes every message through one
//! `&mut self`, which makes it the global lock a parallel simulation
//! cannot tolerate. This module breaks it into per-node [`LinkEnd`]s —
//! each partition owns exactly its node's NIC port timeline and traffic
//! counters — plus an immutable, shareable [`FaultView`] snapshot of the
//! deterministic fault schedule (fixed-time node deaths and forced
//! downtimes).
//!
//! Timing arithmetic is not duplicated: the sender half of a transfer is
//! [`PortTimeline::inject`], the receiver half [`PortTimeline::absorb`]
//! — the same two halves [`crate::Fabric::send`] composes — and the
//! retransmit cascade is [`crate::reliable::reliable_send_loop`], the
//! same loop [`crate::ReliableFabric::send`] runs, driven here through a
//! [`PairEnv`]. A partitioned run therefore produces byte-identical
//! transfer timings, stats and errors; the ends are handed back via
//! [`crate::ReliableFabric::absorb_ends`] in node-index order so the
//! merged counters are thread-count invariant.

use crate::fabric::{PortTimeline, Transfer};
use crate::loggp::LinkParams;
use crate::reliable::{reliable_send_loop, LinkEnv, LinkError, ReliableStats, RetransmitPolicy};
use simcore::fault::MsgFault;
use simcore::Cycles;

/// One node's end of the fabric: its NIC port timeline plus the
/// sender-side counters the shared fabric would have kept centrally.
/// Traffic is counted at the fabric-level sender (the node whose TX port
/// injects), so summing the ends reproduces the shared totals exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkEnd {
    /// The NIC port availability timeline.
    pub port: PortTimeline,
    /// Messages injected by this node (retransmit attempts included).
    pub messages: u64,
    /// Bytes injected by this node.
    pub bytes: u64,
    /// Reliable-layer sends posted by this node.
    pub posted: u64,
    /// Protocol counters for cascades run on behalf of this sender.
    pub stats: ReliableStats,
}

impl LinkEnd {
    /// Wrap a detached port timeline with zeroed counters.
    pub fn new(port: PortTimeline) -> LinkEnd {
        LinkEnd { port, ..LinkEnd::default() }
    }
}

/// Immutable snapshot of the deterministic fault schedule, shared
/// read-only by every partition (see
/// [`crate::ReliableFabric::partition_view`] for when one exists).
#[derive(Clone, Debug, Default)]
pub struct FaultView {
    dead_at: Vec<Option<Cycles>>,
    down: Vec<Vec<(Cycles, Cycles)>>,
}

impl FaultView {
    /// Build from per-node death times and per-port sorted,
    /// non-overlapping downtime windows.
    pub fn new(dead_at: Vec<Option<Cycles>>, down: Vec<Vec<(Cycles, Cycles)>>) -> FaultView {
        FaultView { dead_at, down }
    }

    /// The time `node` dies, if armed.
    pub fn dead_at(&self, node: usize) -> Option<Cycles> {
        self.dead_at[node]
    }

    /// Is `node` dead at `at`?
    pub fn is_dead(&self, node: usize, at: Cycles) -> bool {
        self.dead_at[node].is_some_and(|d| d <= at)
    }

    /// If `port` is down at `now`, when it re-arms — same lookup as
    /// [`simcore::fault::LinkFaultPlan::down_until`] over the snapshot.
    pub fn down_until(&self, port: usize, now: Cycles) -> Option<Cycles> {
        let w = &self.down[port];
        let i = w.partition_point(|&(start, _)| start <= now);
        if i == 0 {
            return None;
        }
        let (_, end) = w[i - 1];
        (now < end).then_some(end)
    }

    /// Any fault armed anywhere in the snapshot?
    pub fn any_armed(&self) -> bool {
        self.dead_at.iter().any(Option::is_some) || self.down.iter().any(|w| !w.is_empty())
    }
}

/// [`LinkEnv`] over a detached pair of link ends: the sender's TX half
/// and the receiver's RX half, with faults answered from the snapshot.
/// Deterministic by construction — packet fates never draw (random
/// per-port plans disqualify a fabric from partitioning), so the only
/// fault a wire attempt sees is the no-ACK drop of a dead receiver,
/// which [`reliable_send_loop`] handles before asking.
struct PairEnv<'a> {
    params: LinkParams,
    view: &'a FaultView,
    src_end: &'a mut LinkEnd,
    dst_rx: &'a mut PortTimeline,
    dst: usize,
    bytes: u64,
}

impl LinkEnv for PairEnv<'_> {
    fn down_until(&self, port: usize, at: Cycles) -> Option<Cycles> {
        self.view.down_until(port, at)
    }
    fn dst_dead(&self, at: Cycles) -> bool {
        self.view.is_dead(self.dst, at)
    }
    fn transfer(&mut self, at: Cycles) -> Transfer {
        let tx_start = self.src_end.port.inject(&self.params, self.bytes, at);
        let arrival = self.dst_rx.absorb(&self.params, self.bytes, tx_start);
        self.src_end.messages += 1;
        self.src_end.bytes += self.bytes;
        Transfer { sender_free: tx_start, arrival, delivered: arrival + self.params.recv_overhead }
    }
    fn packet_fault(&mut self, _at: Cycles) -> MsgFault {
        MsgFault::None
    }
    fn jitter(&mut self) -> f64 {
        0.0
    }
}

/// The partitioned equivalent of [`crate::ReliableFabric::send`] for one
/// endpoint pair: dead-sender pre-check, posted-send accounting, then
/// the shared retransmit cascade over the two detached ends. The caller
/// (the receiving node's partition, which owns `dst_rx` and holds the
/// sender's end exclusively while the sender blocks) passes both halves.
#[allow(clippy::too_many_arguments)] // mirrors ReliableFabric::send plus the two detached ends
pub fn pair_send(
    params: &LinkParams,
    policy: &RetransmitPolicy,
    view: &FaultView,
    src: usize,
    dst: usize,
    bytes: u64,
    ready: Cycles,
    src_end: &mut LinkEnd,
    dst_rx: &mut PortTimeline,
) -> Result<Transfer, LinkError> {
    // A dead sender posts nothing.
    if let Some(d) = view.dead_at(src) {
        if d <= ready {
            return Err(LinkError::PeerDead { node: src, src, dst, gave_up_at: ready });
        }
    }
    src_end.posted += 1;
    let mut stats = src_end.stats;
    let mut env = PairEnv { params: *params, view, src_end, dst_rx, dst, bytes };
    let r = reliable_send_loop(policy, src, dst, ready, &mut stats, &mut env);
    src_end.stats = stats;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliable::{CrashTrigger, ReliableFabric};

    fn params() -> LinkParams {
        LinkParams::fdr_infiniband()
    }

    /// Drive the same send script through the shared reliable fabric and
    /// through detached pair sends; every transfer, error, counter and
    /// post-absorb stat must match exactly.
    fn lockstep(mut rel: ReliableFabric, script: &[(usize, usize, u64, Cycles)]) {
        let policy = *rel.policy();
        let view = rel.partition_view().expect("deterministic faults only");
        let mut shadow = ReliableFabric::new(rel.num_nodes(), *rel.params());
        // Mirror the deterministic fault schedule onto the shadow.
        for n in 0..rel.num_nodes() {
            if let Some(d) = rel.node_dead_at(n) {
                shadow.kill_node(n, CrashTrigger::AtTime(d));
            }
            for &(s, e) in rel.links()[n].down_windows() {
                shadow.force_link_down(n, s, e);
            }
        }
        let mut ends = shadow.detach_ends();
        for &(src, dst, bytes, ready) in script {
            let want = rel.send(src, dst, bytes, ready);
            let (src_end, dst_rx) = if src < dst {
                let (a, b) = ends.split_at_mut(dst);
                (&mut a[src], &mut b[0].port)
            } else {
                let (a, b) = ends.split_at_mut(src);
                (&mut b[0], &mut a[dst].port)
            };
            let got =
                pair_send(&params(), &policy, &view, src, dst, bytes, ready, src_end, dst_rx);
            assert_eq!(got, want, "send {src}->{dst} {bytes}B @ {ready:?}");
        }
        shadow.absorb_ends(ends);
        assert_eq!(shadow.stats(), rel.stats(), "traffic counters");
        assert_eq!(shadow.reliable_stats(), rel.reliable_stats(), "protocol counters");
    }

    #[test]
    fn fault_free_pair_sends_match_shared_fabric() {
        let script = [
            (0usize, 1usize, 1u64 << 20, Cycles::ZERO),
            (1, 0, 64, Cycles::from_us(1)),
            (2, 1, 256 << 10, Cycles::from_us(1)), // incast with the first
            (0, 3, 8192, Cycles::from_us(2)),
            (3, 2, 100, Cycles::from_us(3)),
        ];
        lockstep(ReliableFabric::new(4, params()), &script);
    }

    #[test]
    fn forced_downtime_cascade_matches_shared_fabric() {
        let mut rel = ReliableFabric::new(3, params());
        // A blackout the first send stalls through, and one long enough
        // to exhaust max_down_wait on a later send.
        rel.force_link_down(1, Cycles::from_us(10), Cycles::from_us(60));
        rel.force_link_down(2, Cycles::from_ms(1), Cycles::from_ms(200));
        let script = [
            (0usize, 1usize, 4096u64, Cycles::from_us(12)), // stalls to 60us
            (1, 0, 4096, Cycles::from_us(70)),
            (0, 2, 512, Cycles::from_ms(2)), // LinkDown error
        ];
        lockstep(rel, &script);
    }

    #[test]
    fn dead_peer_cascade_matches_shared_fabric() {
        let mut rel = ReliableFabric::new(3, params());
        rel.kill_node(2, CrashTrigger::AtTime(Cycles::from_us(5)));
        let script = [
            (0usize, 1usize, 64u64, Cycles::ZERO),
            (0, 2, 64, Cycles::from_us(1)),  // posted before death: retries drain
            (2, 0, 64, Cycles::from_us(9)),  // dead sender: immediate
            (1, 2, 4096, Cycles::from_ms(4)), // dead receiver, bulk
        ];
        lockstep(rel, &script);
    }

    #[test]
    fn partition_view_excludes_shared_mutable_faults() {
        use simcore::fault::LinkFaultConfig;
        use simcore::StreamRng;
        let rel = ReliableFabric::new(2, params());
        assert!(rel.partition_view().is_some(), "fault-free is deterministic");
        let mut dying = ReliableFabric::new(2, params());
        dying.kill_node(1, CrashTrigger::AtTime(Cycles::from_ms(1)));
        assert!(dying.partition_view().is_some(), "fixed-time death is deterministic");
        let mut depth = ReliableFabric::new(2, params());
        depth.kill_node(1, CrashTrigger::AfterSends(3));
        assert!(depth.partition_view().is_none(), "depth trigger needs global order");
        let rng = StreamRng::root(1);
        let rand = ReliableFabric::with_faults(2, params(), LinkFaultConfig::loss(0.1), &rng);
        assert!(rand.partition_view().is_none(), "random plans need global draw order");
    }
}
