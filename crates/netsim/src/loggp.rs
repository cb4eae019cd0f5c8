//! LogGP-style link cost model.
//!
//! `T(msg) = o_send + L + G * bytes + o_recv`, with a per-message gap `g`
//! limiting NIC injection rate. Parameters ship for the two testbed
//! networks; the numbers are era-plausible and the figure benches only
//! depend on their relative shape.

use simcore::Cycles;

/// Link/NIC timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Wire + switch latency (one traversal).
    pub latency: Cycles,
    /// CPU/NIC overhead on the send side per message.
    pub send_overhead: Cycles,
    /// CPU/NIC overhead on the receive side per message.
    pub recv_overhead: Cycles,
    /// Minimum spacing between message injections (NIC doorbell rate).
    pub gap_msg: Cycles,
    /// Bandwidth expressed as cycles per KiB (so integer math stays exact).
    pub cycles_per_kib: u64,
}

impl LinkParams {
    /// Connect-IB FDR 56 Gb/s: ~1.1 us end-to-end small-message latency,
    /// ~5.8 GB/s effective large-message bandwidth.
    pub fn fdr_infiniband() -> Self {
        LinkParams {
            latency: Cycles::from_ns(700),
            send_overhead: Cycles::from_ns(200),
            recv_overhead: Cycles::from_ns(200),
            gap_msg: Cycles::from_ns(100),
            // 5.8 GB/s -> 1024 B / 5.8e9 B/s = 176.6 ns/KiB = ~494 cycles.
            cycles_per_kib: 494,
        }
    }

    /// Gigabit Ethernet through the TCP stack: ~40 us latency, ~110 MB/s.
    pub fn gige_ethernet() -> Self {
        LinkParams {
            latency: Cycles::from_us(30),
            send_overhead: Cycles::from_us(5),
            recv_overhead: Cycles::from_us(5),
            gap_msg: Cycles::from_us(2),
            // 110 MB/s -> 9.3 us/KiB -> ~26,000 cycles.
            cycles_per_kib: 26_000,
        }
    }

    /// Per-byte serialization time for `bytes`.
    pub fn byte_time(&self, bytes: u64) -> Cycles {
        Cycles(bytes * self.cycles_per_kib / 1024)
    }

    /// Wire time of one message: latency + serialization.
    pub fn wire_time(&self, bytes: u64) -> Cycles {
        self.latency + self.byte_time(bytes)
    }

    /// End-to-end time of an isolated message including CPU overheads.
    pub fn message_time(&self, bytes: u64) -> Cycles {
        self.send_overhead + self.wire_time(bytes) + self.recv_overhead
    }

    /// NIC occupancy per message on the send side (injection gating).
    pub fn injection_occupancy(&self, bytes: u64) -> Cycles {
        self.gap_msg + self.byte_time(bytes)
    }

    /// Conservative lookahead this link guarantees between nodes: nothing
    /// a node does at time `t` can be observed by any other node before
    /// `t + send_overhead + latency` — a message must pay the sender CPU
    /// overhead and one wire traversal before its first byte exists at
    /// the far NIC (serialization and receive overhead only add to this).
    /// [`crate::ReliableFabric::lookahead`] derives the fabric-wide bound
    /// from it.
    pub fn lookahead(&self) -> Cycles {
        self.send_overhead + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_in_band() {
        let ib = LinkParams::fdr_infiniband();
        let t = ib.message_time(8);
        // OSU small-message numbers are ~1-2 us on FDR.
        assert!(t >= Cycles::from_ns(900), "{t}");
        assert!(t <= Cycles::from_us(3), "{t}");
    }

    #[test]
    fn large_message_bandwidth_dominates() {
        let ib = LinkParams::fdr_infiniband();
        let t = ib.message_time(1 << 20);
        // 1 MiB at ~5.8 GB/s ~= 181 us.
        let us = t.as_us_f64();
        assert!((150.0..230.0).contains(&us), "{us} us");
        // Latency is negligible at this size.
        assert!(ib.byte_time(1 << 20).raw() > 50 * ib.latency.raw());
    }

    #[test]
    fn monotone_in_bytes() {
        let ib = LinkParams::fdr_infiniband();
        let mut last = Cycles::ZERO;
        for p in 0..21 {
            let t = ib.message_time(1u64 << p);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn ethernet_is_much_slower() {
        let ib = LinkParams::fdr_infiniband();
        let eth = LinkParams::gige_ethernet();
        assert!(eth.message_time(8).raw() > 10 * ib.message_time(8).raw());
        assert!(eth.byte_time(1 << 20).raw() > 30 * ib.byte_time(1 << 20).raw());
    }

    #[test]
    fn lookahead_lower_bounds_every_message() {
        for p in [LinkParams::fdr_infiniband(), LinkParams::gige_ethernet()] {
            let la = p.lookahead();
            assert!(la >= Cycles(1), "windows need a positive width");
            for bytes in [0u64, 8, 4096, 1 << 20] {
                assert!(p.message_time(bytes) >= la);
                assert!(p.send_overhead + p.wire_time(bytes) >= la);
            }
        }
    }

    #[test]
    fn zero_bytes_still_costs_latency() {
        let ib = LinkParams::fdr_infiniband();
        assert_eq!(ib.wire_time(0), ib.latency);
        assert!(ib.injection_occupancy(0) >= ib.gap_msg);
    }
}
