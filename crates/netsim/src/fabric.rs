//! The switch fabric: timing of messages between node NICs.
//!
//! A non-blocking full-bisection switch (the testbed is a single-switch
//! 64-node cluster): contention exists only at the endpoints. Each NIC
//! port serializes injections (LogGP `g` + byte time) and deliveries.
//! The fabric keeps per-port availability timelines so back-to-back
//! messages queue realistically — this is what makes, e.g., the root of a
//! gather a bottleneck at scale.

use crate::loggp::LinkParams;
use simcore::Cycles;

/// Messages below this size are treated as control traffic: they bypass
/// receive-port serialization (interleaved by the NIC scheduler).
pub const CONTROL_CUTOFF: u64 = 4096;

/// Per-port send/receive availability for one NIC.
///
/// Public so the per-node replay (`mpisim::replay`) can break the shared
/// fabric into per-node link ends (see [`crate::plink`]): the
/// [`PortTimeline::inject`] half runs in the sending node's program, the
/// [`PortTimeline::absorb`] half in the receiving node's. [`Fabric::send`]
/// composes the two halves on the shared state, so both execution modes
/// share one source of truth for the LogGP port arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortTimeline {
    tx_free_at: Cycles,
    rx_free_at: Cycles,
}

impl PortTimeline {
    /// Sender-side half of a transfer: wait for the TX port, pay the send
    /// overhead, and occupy the port for the injection time. Returns
    /// `tx_start` — the instant the first byte leaves, which is also when
    /// the sender's CPU is free again ([`Transfer::sender_free`]).
    pub fn inject(&mut self, p: &LinkParams, bytes: u64, ready: Cycles) -> Cycles {
        let tx_start = ready.max(self.tx_free_at) + p.send_overhead;
        self.tx_free_at = tx_start + p.injection_occupancy(bytes);
        tx_start
    }

    /// Receiver-side half: when the last byte arrives. Bulk transfers
    /// (`bytes >= CONTROL_CUTOFF`) are additionally gated by the receive
    /// port draining earlier bulk arrivals (incast serialization) and
    /// occupy it; control messages interleave and leave the port alone,
    /// so for them this is a pure function of `tx_start`.
    pub fn absorb(&mut self, p: &LinkParams, bytes: u64, tx_start: Cycles) -> Cycles {
        if bytes >= CONTROL_CUTOFF {
            let a = (tx_start + p.wire_time(bytes)).max(self.rx_free_at + p.byte_time(bytes));
            self.rx_free_at = a;
            a
        } else {
            tx_start + p.wire_time(bytes)
        }
    }
}

/// A fabric connecting `n` nodes with identical links.
#[derive(Debug)]
pub struct Fabric {
    params: LinkParams,
    ports: Vec<PortTimeline>,
    messages: u64,
    bytes: u64,
    /// Counter values at the last [`Fabric::take_stats`] call;
    /// `stats()` stays cumulative while `take_stats()` reports deltas.
    taken_messages: u64,
    taken_bytes: u64,
}

/// Timing of one transferred message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transfer {
    /// When the sender's CPU is free again (send overhead done).
    pub sender_free: Cycles,
    /// When the last byte arrives at the receiver NIC.
    pub arrival: Cycles,
    /// When the receiver CPU has absorbed the message (after recv
    /// overhead; the earliest a matching receive can complete).
    pub delivered: Cycles,
}

impl Fabric {
    /// Fabric over `n` node ports.
    pub fn new(n: usize, params: LinkParams) -> Self {
        Fabric {
            params,
            ports: vec![PortTimeline::default(); n],
            messages: 0,
            bytes: 0,
            taken_messages: 0,
            taken_bytes: 0,
        }
    }

    /// Link parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Number of ports.
    pub fn num_nodes(&self) -> usize {
        self.ports.len()
    }

    /// Send `bytes` from `src` to `dst`, with the send-side CPU ready at
    /// `ready`. Updates port timelines; returns the transfer timing.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, ready: Cycles) -> Transfer {
        assert!(src < self.ports.len() && dst < self.ports.len());
        assert_ne!(src, dst, "loopback handled by shared memory, not the NIC");
        let p = self.params;
        // Injection at the sending port, flight + (for bulk) receive-port
        // gating at the destination port; see [`PortTimeline`] for the
        // two halves. Small control messages (RTS/CTS/acks) interleave
        // into bulk streams — HCAs schedule them independently — so they
        // see only the wire and must not queue behind in-flight data.
        let tx_start = self.ports[src].inject(&p, bytes, ready);
        let arrival = self.ports[dst].absorb(&p, bytes, tx_start);
        let delivered = arrival + p.recv_overhead;
        self.messages += 1;
        self.bytes += bytes;
        Transfer {
            sender_free: tx_start,
            arrival,
            delivered,
        }
    }

    /// Move every node's port timeline out of the shared fabric so
    /// per-node owners can evolve them independently;
    /// the fabric is left with no ports and must not route until
    /// [`Fabric::absorb_ports`] reinstalls them. Returned in node-index
    /// order.
    pub fn detach_ports(&mut self) -> Vec<PortTimeline> {
        std::mem::take(&mut self.ports)
    }

    /// Reinstall port timelines detached by [`Fabric::detach_ports`]
    /// (node-index order) and fold the traffic the per-node owners
    /// carried meanwhile back into the shared counters. Merging is a sum
    /// plus an index-ordered reinstall, so the result is independent of
    /// the order the owners ran in.
    pub fn absorb_ports(&mut self, ports: Vec<PortTimeline>, messages: u64, bytes: u64) {
        assert!(self.ports.is_empty(), "ports were never detached");
        self.ports = ports;
        self.messages += messages;
        self.bytes += bytes;
    }

    /// (messages, bytes) carried so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.messages, self.bytes)
    }

    /// (messages, bytes) carried since the previous `take_stats` call —
    /// a snapshot-and-reset window for per-iteration accounting.
    /// `stats()` keeps reporting cumulative totals.
    pub fn take_stats(&mut self) -> (u64, u64) {
        let d = (
            self.messages - self.taken_messages,
            self.bytes - self.taken_bytes,
        );
        self.taken_messages = self.messages;
        self.taken_bytes = self.bytes;
        d
    }

    /// Reset port timelines (new iteration measured from a fresh barrier).
    pub fn reset_timelines(&mut self) {
        for p in &mut self.ports {
            *p = PortTimeline::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fab(n: usize) -> Fabric {
        Fabric::new(n, LinkParams::fdr_infiniband())
    }

    #[test]
    fn isolated_message_matches_loggp() {
        let mut f = fab(4);
        let t = f.send(0, 1, 4096, Cycles::ZERO);
        let p = LinkParams::fdr_infiniband();
        assert_eq!(
            t.delivered,
            p.send_overhead + p.wire_time(4096) + p.recv_overhead
        );
        assert!(t.sender_free < t.arrival);
    }

    #[test]
    fn back_to_back_sends_serialize_at_the_sender() {
        let mut f = fab(4);
        let a = f.send(0, 1, 1 << 20, Cycles::ZERO);
        let b = f.send(0, 2, 1 << 20, Cycles::ZERO);
        // The second 1 MiB message cannot start injecting until the first
        // finished serializing.
        assert!(b.arrival > a.arrival);
        let gap = (b.arrival - a.arrival).as_us_f64();
        let serial = LinkParams::fdr_infiniband().byte_time(1 << 20).as_us_f64();
        assert!((gap - serial).abs() / serial < 0.2, "gap {gap} serial {serial}");
    }

    #[test]
    fn incast_serializes_at_the_receiver() {
        let mut f = fab(8);
        // 7 nodes send 256 KiB to node 0 simultaneously.
        let mut arrivals: Vec<Cycles> = (1..8)
            .map(|src| f.send(src, 0, 256 << 10, Cycles::ZERO).arrival)
            .collect();
        arrivals.sort();
        // Arrivals must be spread, not simultaneous (receiver port gating).
        assert!(arrivals[6] > arrivals[0]);
    }

    #[test]
    fn distinct_pairs_do_not_interfere() {
        let mut f = fab(4);
        let a = f.send(0, 1, 1 << 20, Cycles::ZERO);
        let b = f.send(2, 3, 1 << 20, Cycles::ZERO);
        assert_eq!(a.delivered, b.delivered, "full bisection");
    }

    #[test]
    fn stats_accumulate_and_reset_clears_timelines() {
        let mut f = fab(2);
        f.send(0, 1, 100, Cycles::ZERO);
        f.send(0, 1, 200, Cycles::ZERO);
        assert_eq!(f.stats(), (2, 300));
        f.reset_timelines();
        let t = f.send(0, 1, 100, Cycles::ZERO);
        let fresh = Fabric::new(2, LinkParams::fdr_infiniband())
            .send(0, 1, 100, Cycles::ZERO);
        assert_eq!(t, fresh);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn self_send_rejected() {
        fab(2).send(1, 1, 8, Cycles::ZERO);
    }

    #[test]
    fn split_halves_match_shared_send() {
        // Detached per-node PortTimelines driven by hand must reproduce
        // the shared-fabric walk exactly, bulk and control alike.
        let p = LinkParams::fdr_infiniband();
        let mut f = fab(3);
        let mut ends = Fabric::new(3, p).detach_ports();
        let script = [
            (0usize, 1usize, 1u64 << 20, Cycles::ZERO),
            (2, 1, 256 << 10, Cycles::from_us(1)),
            (0, 2, 64, Cycles::from_us(2)), // control: no rx gating
            (1, 0, 8192, Cycles::from_us(3)),
        ];
        for &(src, dst, bytes, ready) in &script {
            let t = f.send(src, dst, bytes, ready);
            let (tx, rest) = if src < dst {
                let (a, b) = ends.split_at_mut(dst);
                (&mut a[src], &mut b[0])
            } else {
                let (a, b) = ends.split_at_mut(src);
                (&mut b[0], &mut a[dst])
            };
            let tx_start = tx.inject(&p, bytes, ready);
            let arrival = rest.absorb(&p, bytes, tx_start);
            assert_eq!(t.sender_free, tx_start);
            assert_eq!(t.arrival, arrival);
            assert_eq!(t.delivered, arrival + p.recv_overhead);
        }
    }

    #[test]
    fn detach_absorb_round_trips_ports_and_counters() {
        let mut f = fab(2);
        f.send(0, 1, 100, Cycles::ZERO);
        let ports = f.detach_ports();
        f.absorb_ports(ports, 3, 999);
        assert_eq!(f.stats(), (4, 1099));
        // Timelines survived the round trip: a follow-up send still
        // queues behind the pre-detach one.
        let fresh = Fabric::new(2, LinkParams::fdr_infiniband()).send(0, 1, 100, Cycles::ZERO);
        let queued = f.send(0, 1, 100, Cycles::ZERO);
        assert!(queued.sender_free > fresh.sender_free);
    }

    #[test]
    fn take_stats_windows_while_stats_stays_cumulative() {
        let mut f = fab(2);
        f.send(0, 1, 100, Cycles::ZERO);
        f.send(0, 1, 200, Cycles::ZERO);
        assert_eq!(f.take_stats(), (2, 300));
        assert_eq!(f.stats(), (2, 300), "cumulative view unaffected");
        assert_eq!(f.take_stats(), (0, 0), "window was reset");
        f.send(1, 0, 50, Cycles::ZERO);
        assert_eq!(f.take_stats(), (1, 50));
        assert_eq!(f.stats(), (3, 350));
    }
}
