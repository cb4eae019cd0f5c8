//! Replay of a recorded collectives walk, one program per node.
//!
//! [`replay`] runs the op lists a [`crate::record::RecordSink`] captured,
//! one per fabric node. Each [`RankWorld`] owns exactly its node's state
//! — its [`HostModel`] seat, its [`RegCache`], and its [`LinkEnd`] (NIC
//! port timeline + traffic counters) — and executes its ops strictly in
//! cursor order, so every stateful interaction (host scheduler, cache
//! slots, port timelines) happens in the same per-resource order as the
//! single-threaded walk.
//!
//! # The protocol
//!
//! A transfer's two halves ([`crate::record::ReplayOp::Send`] /
//! [`crate::record::ReplayOp::Recv`]) rendezvous by exchanging messages
//! that carry *computed instants*. Mirroring [`crate::p2p::send`]:
//!
//! * **eager, control-sized** (`bytes + ctrl < CONTROL_CUTOFF`): the
//!   cascade never touches the receiver's port, so the sender runs it
//!   locally against its own [`LinkEnd`] and ships the final `delivered`
//!   instant.
//! * **eager, bulk, fault-free**: the sender injects locally and ships
//!   `tx_start`; the receiver absorbs into its own RX timeline at its
//!   Recv op — absorbs happen in the receiver's cursor order, which is
//!   walk order restricted to that port.
//! * **rendezvous**: RTS (control, local at sender) → CTS (control,
//!   local at *receiver*, on the receiver's TX port) → data. The data
//!   leg needs both ports and both DMA-stretch factors, so the sender
//!   ships its port end and its own stretch in a `DataReq`; the blocked
//!   sender's end is exclusively held by the receiver until the `Settle`
//!   hands it back. Each endpoint evaluates [`HostModel::dma_stretch`]
//!   against its *own* live host — sound because its state is final up
//!   to its cursor and every later phase starts after this transfer.
//! * **deterministic faults** (a [`FaultView`] with deaths/downtimes):
//!   bulk eager sends also go through the Req/Settle detour so the full
//!   retransmit cascade ([`netsim::plink::pair_send`]) runs where both
//!   ends live. Failures are recorded with the transfer's walk-order
//!   `xid`; since everything before the walk's first failure is
//!   prefix-identical, the minimum-`xid` failure *is* the walk's
//!   failure, and later state (which the walk never produced) is
//!   discarded.
//!
//! # Scheduling
//!
//! The replay is a Kahn process network: a node blocks only by reading
//! the next message from one named peer, and every directed pair's
//! messages are delivered in post order, which by construction is walk
//! order restricted to the pair. A node's values therefore depend on
//! nothing but its own program and those per-pair sequences, never on
//! the order in which nodes run. [`replay`] needs no clock: it pops a
//! node off a FIFO worklist, runs it until it blocks or halts, appends
//! what it posted to each destination's inbox and queues those
//! destinations. When the worklist empties every node has run as far as
//! its inputs allow.

use crate::failure::RankFailure;
use crate::host::HostModel;
use crate::p2p::{silent_sender, P2pParams};
use crate::record::{resolve, At, ReplayOp};
use crate::regcache::RegCache;
use netsim::fabric::{PortTimeline, CONTROL_CUTOFF};
use netsim::plink::{pair_send, FaultView, LinkEnd};
use netsim::reliable::{LinkError, RetransmitPolicy};
use netsim::LinkParams;
use simcore::Cycles;
use std::collections::VecDeque;
use std::sync::Arc;

/// Everything one node contributes to (and takes back from) a replay.
#[derive(Debug)]
pub struct NodeSeat<H> {
    /// The node's host-OS model (scheduler state evolves during replay).
    pub host: H,
    /// The node's registration cache.
    pub regcache: RegCache,
    /// The node's fabric end (port timeline + traffic counters).
    pub end: LinkEnd,
}

/// Shared replay parameters.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// p2p protocol parameters (must match the recording walk's).
    pub params: P2pParams,
    /// Link cost model.
    pub link: LinkParams,
    /// Retransmit policy.
    pub policy: RetransmitPolicy,
    /// The fabric's minimum cross-node latency
    /// (`ReliableFabric::lookahead`). Not read by [`replay`], which has
    /// no clock to bound; kept for the callers that fill it in.
    pub lookahead: Cycles,
    /// Deterministic fault schedule snapshot
    /// (`ReliableFabric::partition_view`); fault-free when unarmed.
    pub view: Arc<FaultView>,
}

/// A failure found during replay, keyed by the transfer's walk order.
type Failure = (u32, RankFailure);

/// Message payloads between nodes; every instant is a computed value.
#[derive(Debug)]
enum Kind {
    /// Control-sized eager payload fully timed at the sender.
    EagerCtrl {
        delivered: Cycles,
    },
    /// Bulk eager payload: receiver absorbs `bytes + ctrl` at `tx_start`.
    EagerBulk {
        tx_start: Cycles,
    },
    /// Bulk eager under faults: run the cascade at the receiver.
    EagerReq {
        ready: Cycles,
        end: Box<LinkEnd>,
    },
    Rts {
        delivered: Cycles,
    },
    Cts {
        delivered: Cycles,
    },
    /// Rendezvous data: receiver computes the stretched size, runs the
    /// cascade over both ends, and settles back.
    DataReq {
        ready: Cycles,
        stretch_src_bits: u64,
        end: Box<LinkEnd>,
    },
    /// Hand the sender's end back with its completion instant.
    Settle {
        sender_free: Cycles,
        end: Box<LinkEnd>,
    },
    Fail(Fail),
}

/// Failure notifications that need the *other* endpoint's operands to
/// finalize the detection time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fail {
    /// The sender was dead before posting; the receiver's straggler
    /// timer fires off its own receive-post time.
    DeadSender { dead_at: Cycles },
    /// The rendezvous receiver died sending CTS; the sender's timer runs
    /// from its RTS completion.
    CtsDead { death: Cycles },
    /// A cascade error at the sender, mapped by the receiver via the
    /// same translation the walk applies ([`silent_sender`]).
    Link(LinkError),
}

/// A posted message; `src` is the node that posted it.
#[derive(Debug)]
struct Msg {
    src: u32,
    xid: u32,
    kind: Kind,
}

/// Messages a node posted during one [`RankWorld::pump`], as
/// `(destination, message)` in post order.
type Outbox = Vec<(u32, Msg)>;

/// The mail a running node sees: its inbox (delivered, not yet taken
/// messages in arrival order) and the shared outbox.
struct Mail<'m> {
    inbox: &'m mut Vec<Msg>,
    out: &'m mut Outbox,
}

impl Mail<'_> {
    /// The oldest delivered message from `peer`, if any. Removal keeps
    /// the order of the rest: per-peer order is post order.
    fn take(&mut self, peer: u32) -> Option<(u32, Kind)> {
        let i = self.inbox.iter().position(|m| m.src == peer)?;
        let m = self.inbox.remove(i);
        Some((m.xid, m.kind))
    }
}

/// Where a blocked op is waiting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pend {
    None,
    /// Rendezvous sender between RTS and CTS.
    AwaitCts { rts_sender_free: Cycles },
    /// Sender shipped its end in a Req; waiting for the Settle.
    AwaitSettle,
    /// Rendezvous receiver between CTS and data.
    AwaitData,
}

/// One node of the replay.
struct RankWorld<'a, H> {
    node: usize,
    cfg: &'a ReplayConfig,
    armed: bool,
    ops: Vec<ReplayOp>,
    cursor: usize,
    log: Vec<Cycles>,
    seat: NodeSeat<H>,
    pend: Pend,
    failure: Option<Failure>,
    halted: bool,
}

impl<H: HostModel> RankWorld<'_, H> {
    fn res(&self, a: At) -> Cycles {
        resolve(a, &self.log)
    }

    fn finish(&mut self, merge: At, done: Cycles) {
        let v = self.res(merge).max(done);
        self.log.push(v);
        self.cursor += 1;
        self.pend = Pend::None;
    }

    fn fail(&mut self, xid: u32, f: RankFailure) {
        self.failure = Some((xid, f));
        self.halted = true;
    }

    fn post(&self, mail: &mut Mail<'_>, dst: u32, xid: u32, kind: Kind) {
        mail.out.push((dst, Msg { src: self.node as u32, xid, kind }));
    }

    /// Run a control-sized cascade locally: its absorb half never
    /// touches the receiver's port, so a scratch RX timeline stands in.
    fn ctrl_send(
        &mut self,
        dst: usize,
        bytes: u64,
        ready: Cycles,
    ) -> Result<netsim::fabric::Transfer, LinkError> {
        debug_assert!(bytes < CONTROL_CUTOFF);
        let mut scratch = PortTimeline::default();
        let r = pair_send(
            &self.cfg.link,
            &self.cfg.policy,
            &self.cfg.view,
            self.node,
            dst,
            bytes,
            ready,
            &mut self.seat.end,
            &mut scratch,
        );
        debug_assert_eq!(scratch, PortTimeline::default(), "control send gated on RX port");
        r
    }

    /// Fault-free bulk injection at the sender (single attempt by
    /// construction); the receiver absorbs at its own Recv op.
    fn inject_bulk(&mut self, bytes: u64, ready: Cycles) -> Cycles {
        self.seat.end.posted += 1;
        let tx_start = self.seat.end.port.inject(&self.cfg.link, bytes, ready);
        self.seat.end.messages += 1;
        self.seat.end.bytes += bytes;
        tx_start
    }

    /// Run ops until one blocks on a missing message or the node halts.
    fn pump(&mut self, mail: &mut Mail<'_>) {
        while !self.halted && self.cursor < self.ops.len() {
            match self.ops[self.cursor] {
                ReplayOp::Cpu { at, work } => {
                    let t = self.res(at);
                    let v = self.seat.host.cpu(self.node, t, work);
                    self.log.push(v);
                    self.cursor += 1;
                }
                ReplayOp::Omp { at, per_thread, threads } => {
                    let t = self.res(at);
                    let v = self.seat.host.omp_region(self.node, t, per_thread, threads);
                    self.log.push(v);
                    self.cursor += 1;
                }
                ReplayOp::Send { xid, peer, bytes, churn, at, merge } => {
                    if !self.step_send(mail, xid, peer, bytes, churn, at, merge) {
                        return;
                    }
                }
                ReplayOp::Recv { xid, peer, bytes, churn, at, merge } => {
                    if !self.step_recv(mail, xid, peer, bytes, churn, at, merge) {
                        return;
                    }
                }
            }
        }
    }

    /// Advance a Send op; `false` leaves the op blocked at the cursor.
    #[allow(clippy::too_many_arguments)]
    fn step_send(
        &mut self,
        mail: &mut Mail<'_>,
        xid: u32,
        peer: u32,
        bytes: u64,
        churn: f64,
        at: At,
        merge: At,
    ) -> bool {
        let p = self.cfg.params;
        match self.pend {
            Pend::None => {
                let src_at = self.res(at);
                // Dead-sender pre-check (walk: top of `p2p::send`).
                if let Some(d) = self.cfg.view.dead_at(self.node) {
                    if d <= src_at {
                        self.post(mail, peer, xid, Kind::Fail(Fail::DeadSender { dead_at: d }));
                        self.halted = true;
                        return false;
                    }
                }
                if p.is_eager(bytes) {
                    let ready =
                        self.seat.host.cpu(self.node, src_at, p.sw_overhead + p.copy_cost(bytes));
                    let total = bytes + p.ctrl_bytes;
                    if total < CONTROL_CUTOFF {
                        match self.ctrl_send(peer as usize, total, ready) {
                            Ok(t) => {
                                let kind = Kind::EagerCtrl { delivered: t.delivered };
                                self.post(mail, peer, xid, kind);
                                self.finish(merge, t.sender_free);
                                true
                            }
                            Err(e) => {
                                self.post(mail, peer, xid, Kind::Fail(Fail::Link(e)));
                                self.halted = true;
                                false
                            }
                        }
                    } else if !self.armed {
                        let tx_start = self.inject_bulk(total, ready);
                        self.post(mail, peer, xid, Kind::EagerBulk { tx_start });
                        self.finish(merge, tx_start);
                        true
                    } else {
                        let end = Box::new(self.seat.end.clone());
                        self.post(mail, peer, xid, Kind::EagerReq { ready, end });
                        self.pend = Pend::AwaitSettle;
                        false
                    }
                } else {
                    // Rendezvous: RTS is control traffic, run locally.
                    let rts_ready = self.seat.host.cpu(self.node, src_at, p.sw_overhead);
                    match self.ctrl_send(peer as usize, p.ctrl_bytes, rts_ready) {
                        Ok(rts) => {
                            self.post(mail, peer, xid, Kind::Rts { delivered: rts.delivered });
                            self.pend = Pend::AwaitCts { rts_sender_free: rts.sender_free };
                            false
                        }
                        Err(e) => {
                            self.post(mail, peer, xid, Kind::Fail(Fail::Link(e)));
                            self.halted = true;
                            false
                        }
                    }
                }
            }
            Pend::AwaitCts { rts_sender_free } => {
                let Some((mxid, kind)) = mail.take(peer) else { return false };
                assert_eq!(mxid, xid, "protocol: message for a different transfer");
                match kind {
                    Kind::Cts { delivered } => {
                        let cts_seen = delivered.max(rts_sender_free);
                        let src_reg = if self.seat.regcache.needs_registration(bytes, churn) {
                            self.seat.host.mr_register(self.node, cts_seen, bytes)
                        } else {
                            cts_seen
                        };
                        let data_ready = self.seat.host.cpu(self.node, src_reg, p.sw_overhead);
                        let s_src = self.seat.host.dma_stretch(self.node, data_ready);
                        let end = Box::new(self.seat.end.clone());
                        self.post(
                            mail,
                            peer,
                            xid,
                            Kind::DataReq {
                                ready: data_ready,
                                stretch_src_bits: s_src.to_bits(),
                                end,
                            },
                        );
                        self.pend = Pend::AwaitSettle;
                        false
                    }
                    Kind::Fail(Fail::CtsDead { death }) => {
                        let detected_at = death.max(rts_sender_free) + p.peer_timeout;
                        self.fail(
                            xid,
                            RankFailure {
                                rank: peer as usize,
                                observer: self.node,
                                detected_at,
                                cause: crate::failure::FailureCause::NodeDead,
                            },
                        );
                        false
                    }
                    other => panic!("protocol: sender awaiting CTS got {other:?}"),
                }
            }
            Pend::AwaitSettle => {
                let Some((mxid, kind)) = mail.take(peer) else { return false };
                assert_eq!(mxid, xid, "protocol: message for a different transfer");
                match kind {
                    Kind::Settle { sender_free, end } => {
                        self.seat.end = *end;
                        self.finish(merge, sender_free);
                        true
                    }
                    other => panic!("protocol: sender awaiting settle got {other:?}"),
                }
            }
            Pend::AwaitData => unreachable!("AwaitData is a receiver state"),
        }
    }

    /// Advance a Recv op; `false` leaves the op blocked at the cursor.
    #[allow(clippy::too_many_arguments)]
    fn step_recv(
        &mut self,
        mail: &mut Mail<'_>,
        xid: u32,
        peer: u32,
        bytes: u64,
        churn: f64,
        at: At,
        merge: At,
    ) -> bool {
        let p = self.cfg.params;
        let Some((mxid, kind)) = mail.take(peer) else { return false };
        assert_eq!(mxid, xid, "protocol: message for a different transfer");
        match kind {
            Kind::EagerCtrl { delivered } => {
                let recv_start = delivered.max(self.res(at));
                let done = self.seat.host.cpu(
                    self.node,
                    recv_start,
                    p.sw_overhead + p.copy_cost(bytes),
                );
                self.finish(merge, done);
                true
            }
            Kind::EagerBulk { tx_start } => {
                let total = bytes + p.ctrl_bytes;
                let arrival = self.seat.end.port.absorb(&self.cfg.link, total, tx_start);
                let delivered = arrival + self.cfg.link.recv_overhead;
                let recv_start = delivered.max(self.res(at));
                let done = self.seat.host.cpu(
                    self.node,
                    recv_start,
                    p.sw_overhead + p.copy_cost(bytes),
                );
                self.finish(merge, done);
                true
            }
            Kind::EagerReq { ready, mut end } => {
                let total = bytes + p.ctrl_bytes;
                match pair_send(
                    &self.cfg.link,
                    &self.cfg.policy,
                    &self.cfg.view,
                    peer as usize,
                    self.node,
                    total,
                    ready,
                    &mut end,
                    &mut self.seat.end.port,
                ) {
                    Ok(t) => {
                        let recv_start = t.delivered.max(self.res(at));
                        let done = self.seat.host.cpu(
                            self.node,
                            recv_start,
                            p.sw_overhead + p.copy_cost(bytes),
                        );
                        let kind = Kind::Settle { sender_free: t.sender_free, end };
                        self.post(mail, peer, xid, kind);
                        self.finish(merge, done);
                        true
                    }
                    Err(e) => {
                        let f = silent_sender(&p, peer as usize, self.node, self.res(at), e);
                        self.fail(xid, f);
                        false
                    }
                }
            }
            Kind::Rts { delivered } => {
                let rts_seen = delivered.max(self.res(at));
                let dst_reg = if self.seat.regcache.needs_registration(bytes, churn) {
                    self.seat.host.mr_register(self.node, rts_seen, bytes)
                } else {
                    rts_seen
                };
                let cts_ready = self.seat.host.cpu(self.node, dst_reg, p.sw_overhead);
                match self.ctrl_send(peer as usize, p.ctrl_bytes, cts_ready) {
                    Ok(cts) => {
                        self.post(mail, peer, xid, Kind::Cts { delivered: cts.delivered });
                        self.pend = Pend::AwaitData;
                        // Stay on this op; the data leg comes next.
                        self.step_recv(mail, xid, peer, bytes, churn, at, merge)
                    }
                    Err(LinkError::PeerDead { node, gave_up_at, .. }) if node == self.node => {
                        // Walk: the receiver died at/while CTS; the
                        // sender's straggler timer notices.
                        let death = self.cfg.view.dead_at(self.node).unwrap_or(gave_up_at);
                        self.post(mail, peer, xid, Kind::Fail(Fail::CtsDead { death }));
                        self.halted = true;
                        false
                    }
                    Err(e) => {
                        self.fail(xid, RankFailure::from_link(e));
                        false
                    }
                }
            }
            Kind::DataReq { ready, stretch_src_bits, mut end } => {
                assert_eq!(self.pend, Pend::AwaitData, "protocol: data before CTS");
                let s = f64::from_bits(stretch_src_bits)
                    .max(self.seat.host.dma_stretch(self.node, ready));
                let wire_bytes = (bytes as f64 * s) as u64;
                match pair_send(
                    &self.cfg.link,
                    &self.cfg.policy,
                    &self.cfg.view,
                    peer as usize,
                    self.node,
                    wire_bytes,
                    ready,
                    &mut end,
                    &mut self.seat.end.port,
                ) {
                    Ok(t) => {
                        let done = self.seat.host.cpu(self.node, t.delivered, p.sw_overhead);
                        let kind = Kind::Settle { sender_free: t.sender_free, end };
                        self.post(mail, peer, xid, kind);
                        self.finish(merge, done);
                        true
                    }
                    Err(e) => {
                        let f = silent_sender(&p, peer as usize, self.node, self.res(at), e);
                        self.fail(xid, f);
                        false
                    }
                }
            }
            Kind::Fail(Fail::DeadSender { dead_at }) => {
                let detected_at = dead_at.max(self.res(at)) + p.peer_timeout;
                self.fail(
                    xid,
                    RankFailure {
                        rank: peer as usize,
                        observer: self.node,
                        detected_at,
                        cause: crate::failure::FailureCause::NodeDead,
                    },
                );
                false
            }
            Kind::Fail(Fail::Link(e)) => {
                let f = silent_sender(&p, peer as usize, self.node, self.res(at), e);
                self.fail(xid, f);
                false
            }
            other => panic!("protocol: receiver got {other:?}"),
        }
    }
}

/// What [`replay`] hands back: the per-node value logs (or the walk's
/// first failure) plus the seats.
pub type ReplayOutcome<H> = (Result<Vec<Vec<Cycles>>, RankFailure>, Vec<NodeSeat<H>>);

/// Replay recorded per-node op lists. Returns the per-node value logs
/// (index = op index; resolve final clock tokens against them) or the
/// walk's first failure — in *node* space, like [`crate::p2p::send`];
/// callers holding a rank map remap — plus the seats, whose
/// host/cache/port state on success matches the walk's exactly. On
/// failure the seats reflect a partially-drained replay and should be
/// discarded.
///
/// The replay runs on the calling thread and `_threads` is not read:
/// the worklist (see "Scheduling" in the module doc) has no windows to
/// spread over workers, and figure grids parallelize across cells with
/// `HLWK_THREADS` instead.
pub fn replay<H: HostModel>(
    ops: Vec<Vec<ReplayOp>>,
    seats: Vec<NodeSeat<H>>,
    cfg: &ReplayConfig,
    _threads: usize,
) -> ReplayOutcome<H> {
    let n = ops.len();
    assert_eq!(seats.len(), n, "one seat per node");
    let armed = cfg.view.any_armed();
    let mut worlds: Vec<RankWorld<'_, H>> = ops
        .into_iter()
        .zip(seats)
        .enumerate()
        .map(|(node, (ops, seat))| RankWorld {
            node,
            cfg,
            armed,
            cursor: 0,
            log: Vec::with_capacity(ops.len()),
            ops,
            seat,
            pend: Pend::None,
            failure: None,
            halted: false,
        })
        .collect();
    // Inboxes live outside the worlds so that a delivery touches only
    // the destination's inbox, not its whole world.
    let mut inboxes: Vec<Vec<Msg>> = (0..n).map(|_| Vec::new()).collect();
    let mut out = Outbox::new();
    let mut ready: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(node) = ready.pop_front() {
        queued[node] = false;
        worlds[node].pump(&mut Mail { inbox: &mut inboxes[node], out: &mut out });
        for (dst, msg) in out.drain(..) {
            let dst = dst as usize;
            inboxes[dst].push(msg);
            if !queued[dst] {
                queued[dst] = true;
                ready.push_back(dst);
            }
        }
    }
    let first_failure = worlds
        .iter()
        .filter_map(|w| w.failure)
        .min_by_key(|&(xid, _)| xid)
        .map(|(_, f)| f);
    let mut logs = Vec::with_capacity(n);
    let mut seats = Vec::with_capacity(n);
    for w in worlds {
        if first_failure.is_none() {
            assert_eq!(
                w.cursor,
                w.ops.len(),
                "node {} stalled at op {} of {} with no failure",
                w.node,
                w.cursor,
                w.ops.len()
            );
        }
        logs.push(w.log);
        seats.push(w.seat);
    }
    match first_failure {
        Some(f) => (Err(f), seats),
        None => (Ok(logs), seats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{Ctx, Recorder};
    use crate::host::IdealHost;
    use crate::record::{decode, RecordSink};
    use netsim::reliable::ReliableFabric;
    use simcore::StreamRng;

    fn caches(p: usize) -> Vec<RegCache> {
        (0..p).map(|i| RegCache::new(StreamRng::root(42).stream("rank", i as u64))).collect()
    }

    fn seats(p: usize, fabric: &mut ReliableFabric) -> Vec<NodeSeat<IdealHost>> {
        fabric
            .detach_ends()
            .into_iter()
            .zip(caches(p))
            .map(|(end, regcache)| NodeSeat { host: IdealHost::new(), regcache, end })
            .collect()
    }

    fn config(fabric: &ReliableFabric) -> ReplayConfig {
        ReplayConfig {
            params: P2pParams::default(),
            link: *fabric.params(),
            policy: *fabric.policy(),
            lookahead: fabric.lookahead(),
            view: Arc::new(fabric.partition_view().expect("deterministic faults only")),
        }
    }

    /// Walk an allreduce normally and via record+replay; the resolved
    /// final clocks must be identical, and the merged-back fabric state
    /// must match the walk's.
    #[test]
    fn recorded_allreduce_replays_identically() {
        let p = 8;
        let bytes = 64 << 10; // rendezvous with internal churn
        let mut walk_fab = ReliableFabric::new(p, LinkParams::fdr_infiniband());
        let mut walk_host = IdealHost::new();
        let mut walk_caches = caches(p);
        let params = P2pParams::default();
        let mut rec: Recorder = None;
        let start = vec![Cycles::from_us(3); p];
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut walk_fab,
            host: &mut walk_host,
            params: &params,
            regcaches: &mut walk_caches,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: None,
        };
        let clocks = crate::collectives::allreduce::allreduce(&mut ctx, p, bytes, &start)
            .expect("fault-free");

        let mut fab = ReliableFabric::new(p, LinkParams::fdr_infiniband());
        let mut host = IdealHost::new();
        let mut rcs = caches(p);
        let mut rec: Recorder = None;
        let mut sink = RecordSink::new(p);
        let mut rctx = Ctx {
            hybrid_aware: false,
            fabric: &mut fab,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: Some(&mut sink),
        };
        let sym = crate::collectives::allreduce::allreduce(&mut rctx, p, bytes, &start)
            .expect("recording never fails");
        let cfg = config(&fab);
        let (res, back) = replay(sink.into_ops(), seats(p, &mut fab), &cfg, 1);
        let logs = res.expect("fault-free replay");
        for (r, (&tok, &want)) in sym.iter().zip(&clocks).enumerate() {
            assert_eq!(resolve(decode(tok, r), &logs[r]), want, "rank {r} final clock");
        }
        for (r, (s, w)) in back.iter().zip(&walk_caches).enumerate() {
            assert_eq!(s.regcache.stats(), w.stats(), "cache stats of rank {r}");
        }
        fab.absorb_ends(back.into_iter().map(|s| s.end).collect());
        assert_eq!(fab.stats(), walk_fab.stats(), "traffic");
        assert_eq!(fab.reliable_stats(), walk_fab.reliable_stats(), "protocol counters");
    }

    /// A transfer into a node that dies must replay the walk's exact
    /// first failure.
    #[test]
    fn dead_receiver_replays_walk_failure() {
        let p = 4;
        let bytes = 64 << 10;
        let kill = Cycles::from_us(2);
        let mk = || {
            let mut f = ReliableFabric::new(p, LinkParams::fdr_infiniband());
            f.kill_node(2, netsim::CrashTrigger::AtTime(kill));
            f
        };
        let params = P2pParams::default();
        let mut walk_fab = mk();
        let mut host = IdealHost::new();
        let mut rcs = caches(p);
        let mut rec: Recorder = None;
        let start = vec![Cycles::ZERO; p];
        let mut ctx = Ctx {
            hybrid_aware: false,
            fabric: &mut walk_fab,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: None,
        };
        let want = crate::collectives::allreduce::allreduce(&mut ctx, p, bytes, &start)
            .expect_err("rank 2 dies");

        let mut fab = mk();
        let mut host = IdealHost::new();
        let mut rcs = caches(p);
        let mut rec: Recorder = None;
        let mut sink = RecordSink::new(p);
        let mut rctx = Ctx {
            hybrid_aware: false,
            fabric: &mut fab,
            host: &mut host,
            params: &params,
            regcaches: &mut rcs,
            recorder: &mut rec,
            reduce_per_kib: Cycles::from_ns(350),
            churn: 0.0,
            rank_map: None,
            sink: Some(&mut sink),
        };
        crate::collectives::allreduce::allreduce(&mut rctx, p, bytes, &start)
            .expect("recording is oblivious to faults");
        let cfg = config(&fab);
        let (res, _seats) = replay(sink.into_ops(), seats(p, &mut fab), &cfg, 1);
        assert_eq!(res.expect_err("the death must surface"), want, "first failure");
    }

    /// Node 0 posts two eager sends to node 1 (one control-sized, one
    /// bulk) before node 1 runs: the worklist starts at node 0, which
    /// never blocks, so both messages sit in node 1's inbox together.
    /// Node 1 must take them in post order — the receiver's `xid`
    /// assert fires otherwise — and end with the walk's clocks.
    #[test]
    fn back_to_back_sends_are_taken_in_post_order() {
        let sizes = [8u64, 5 << 10];
        let params = P2pParams::default();
        let mut walk_fab = ReliableFabric::new(2, LinkParams::fdr_infiniband());
        let mut host = IdealHost::new();
        let mut rcs = caches(2);
        let walked: Vec<_> = sizes
            .iter()
            .map(|&b| {
                crate::p2p::send(
                    &mut walk_fab,
                    &mut host,
                    &params,
                    &mut rcs,
                    0,
                    1,
                    b,
                    Cycles::ZERO,
                    Cycles::ZERO,
                    0.0,
                )
                .expect("fault-free")
            })
            .collect();
        let zero = At::Lit(Cycles::ZERO);
        let program = |recv: bool| -> Vec<ReplayOp> {
            sizes
                .iter()
                .enumerate()
                .map(|(xid, &bytes)| {
                    let (xid, at, merge) = (xid as u32, zero, zero);
                    if recv {
                        ReplayOp::Recv { xid, peer: 0, bytes, churn: 0.0, at, merge }
                    } else {
                        ReplayOp::Send { xid, peer: 1, bytes, churn: 0.0, at, merge }
                    }
                })
                .collect()
        };
        let mut fab = ReliableFabric::new(2, LinkParams::fdr_infiniband());
        let cfg = config(&fab);
        let ops = vec![program(false), program(true)];
        let (res, _seats) = replay(ops, seats(2, &mut fab), &cfg, 1);
        let logs = res.expect("fault-free replay");
        let sent: Vec<_> = walked.iter().map(|t| t.sender_done).collect();
        let received: Vec<_> = walked.iter().map(|t| t.receiver_done).collect();
        assert_eq!(logs[0], sent, "sender clocks");
        assert_eq!(logs[1], received, "receiver clocks");
    }

    /// A Recv whose Send was never recorded blocks forever: the worklist
    /// drains and the replay reports the stall instead of spinning.
    #[test]
    #[should_panic(expected = "node 1 stalled at op 0 of 1 with no failure")]
    fn recv_without_send_reports_the_stall() {
        let zero = At::Lit(Cycles::ZERO);
        let orphan =
            ReplayOp::Recv { xid: 0, peer: 0, bytes: 8, churn: 0.0, at: zero, merge: zero };
        let mut fab = ReliableFabric::new(2, LinkParams::fdr_infiniband());
        let cfg = config(&fab);
        let _ = replay(vec![Vec::new(), vec![orphan]], seats(2, &mut fab), &cfg, 1);
    }
}
