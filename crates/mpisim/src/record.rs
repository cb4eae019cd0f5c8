//! Symbolic recording of a collectives walk.
//!
//! The collectives advance per-rank virtual clocks by calling
//! [`crate::collectives::Ctx`] hooks in a fixed *walk order*. To run the
//! same operation one program per node, the walk is first executed
//! once against a [`RecordSink`]: every hook returns a fresh **token**
//! instead of a real instant, and the operation it stands for is
//! appended to the per-*node* op list. Control flow in the algorithms
//! never branches on clock values, so the recorded op lists are exactly
//! the walk restricted to each node — and replaying them per node in
//! cursor order (see [`crate::pcoll`]) reproduces every host, cache and
//! fabric interaction in the same per-resource order as the walk,
//! yielding bit-identical times.
//!
//! A token encodes `(node, op index)`; each op produces exactly one
//! value, so a node's op index doubles as the index into its replay
//! value log. Clock *slots* may hold stale tokens when an op departs
//! from an explicit earlier instant (round-based algorithms), which is
//! why transfers record two operands per side: the departure time `at`
//! and the slot's current value `merge` (the walk max-merges completion
//! into the slot rather than overwriting it).

use simcore::Cycles;

/// Discriminating bit: token values have the MSB set (real simulated
/// instants never reach 2^63 cycles).
const FLAG: u64 = 1 << 63;
/// Low-byte tag asserted on decode: arithmetic accidentally performed on
/// a token (instead of routing it through a [`crate::collectives::Ctx`]
/// hook) scrambles the tag and is caught immediately.
const TAG: u64 = 0xA5;
const IDX_SHIFT: u32 = 8;
const NODE_SHIFT: u32 = 40;
const NODE_MASK: u64 = (1 << 23) - 1;

/// A recorded time operand: either a literal instant that existed before
/// recording started (e.g. the collective's start time) or a reference
/// to the value another op of the *same node* produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum At {
    /// A concrete instant.
    Lit(Cycles),
    /// The value of this node's op `i`.
    V(u32),
}

/// Encode op `idx` of `node` as a clock-slot token.
pub fn token(node: usize, idx: u32) -> Cycles {
    assert!(node as u64 <= NODE_MASK, "node id too large for token");
    Cycles(FLAG | ((node as u64) << NODE_SHIFT) | (u64::from(idx) << IDX_SHIFT) | TAG)
}

/// Decode a clock value observed during recording into an operand for
/// `node`. Panics if the value is a token of a *different* node (a
/// cross-node clock leak: the walk used some other rank's completion
/// directly instead of via a transfer) or shows token arithmetic.
pub fn decode(c: Cycles, node: usize) -> At {
    if c.raw() & FLAG == 0 {
        return At::Lit(c);
    }
    assert_eq!(c.raw() & 0xFF, TAG, "arithmetic was performed on a clock token");
    let n = (c.raw() >> NODE_SHIFT) & NODE_MASK;
    assert_eq!(n, node as u64, "clock token of node {n} used as an operand of node {node}");
    At::V(((c.raw() >> IDX_SHIFT) & 0xFFFF_FFFF) as u32)
}

/// Resolve an operand against a node's replay value log.
pub fn resolve(a: At, log: &[Cycles]) -> Cycles {
    match a {
        At::Lit(c) => c,
        At::V(i) => log[i as usize],
    }
}

/// One replayable operation of one node. `xid` is the transfer's global
/// walk-order index — the send and receive halves of one transfer carry
/// the same `xid`, and the first failure of a faulty replay is the
/// failure with the minimum `xid` (walk order restricted to any node is
/// walk order).
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayOp {
    /// Library CPU burst: completes at `at + work` plus host noise.
    Cpu {
        /// Start operand.
        at: At,
        /// Nominal work.
        work: Cycles,
    },
    /// OpenMP region.
    Omp {
        /// Start operand.
        at: At,
        /// Per-thread quantum.
        per_thread: Cycles,
        /// Thread count.
        threads: u32,
    },
    /// Send half of transfer `xid` to node `peer`.
    Send {
        /// Global transfer index.
        xid: u32,
        /// Receiving node.
        peer: u32,
        /// Payload bytes.
        bytes: u64,
        /// Registration-cache churn active for this transfer.
        churn: f64,
        /// Departure operand (`src_at`).
        at: At,
        /// Clock-slot value to max-merge with the sender completion.
        merge: At,
    },
    /// Receive half of transfer `xid` from node `peer`.
    Recv {
        /// Global transfer index.
        xid: u32,
        /// Sending node.
        peer: u32,
        /// Payload bytes.
        bytes: u64,
        /// Registration-cache churn active for this transfer.
        churn: f64,
        /// Receive-post operand (`dst_at`).
        at: At,
        /// Clock-slot value to max-merge with the receiver completion.
        merge: At,
    },
}

/// Accumulates per-node op lists while a walk runs in recording mode.
#[derive(Clone, Debug, Default)]
pub struct RecordSink {
    ops: Vec<Vec<ReplayOp>>,
    xfers: u32,
}

impl RecordSink {
    /// Sink for `nodes` fabric nodes.
    pub fn new(nodes: usize) -> RecordSink {
        RecordSink { ops: vec![Vec::new(); nodes], xfers: 0 }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ops.len()
    }

    /// Transfers recorded so far.
    pub fn num_xfers(&self) -> u32 {
        self.xfers
    }

    /// Total ops recorded across all nodes.
    pub fn num_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// The per-node op lists, node-index order.
    pub fn into_ops(self) -> Vec<Vec<ReplayOp>> {
        self.ops
    }

    fn push(&mut self, node: usize, op: ReplayOp) -> Cycles {
        let idx = u32::try_from(self.ops[node].len()).expect("op list too long");
        self.ops[node].push(op);
        token(node, idx)
    }

    /// Record a CPU burst on `node`; returns its token.
    pub fn record_cpu(&mut self, node: usize, at: Cycles, work: Cycles) -> Cycles {
        let at = decode(at, node);
        self.push(node, ReplayOp::Cpu { at, work })
    }

    /// Record an OpenMP region on `node`; returns its token.
    pub fn record_omp(
        &mut self,
        node: usize,
        at: Cycles,
        per_thread: Cycles,
        threads: u32,
    ) -> Cycles {
        let at = decode(at, node);
        self.push(node, ReplayOp::Omp { at, per_thread, threads })
    }

    /// Record one transfer: a [`ReplayOp::Send`] on `src_node` and a
    /// [`ReplayOp::Recv`] on `dst_node` sharing a fresh `xid`. `src_cur`
    /// and `dst_cur` are the current clock-slot values (merge operands).
    /// Returns the `(send, recv)` tokens the slots should now hold.
    #[allow(clippy::too_many_arguments)]
    pub fn record_xfer(
        &mut self,
        src_node: usize,
        dst_node: usize,
        bytes: u64,
        churn: f64,
        src_at: Cycles,
        dst_at: Cycles,
        src_cur: Cycles,
        dst_cur: Cycles,
    ) -> (Cycles, Cycles) {
        let xid = self.xfers;
        self.xfers += 1;
        let (peer_d, peer_s) = (dst_node as u32, src_node as u32);
        let s = ReplayOp::Send {
            xid,
            peer: peer_d,
            bytes,
            churn,
            at: decode(src_at, src_node),
            merge: decode(src_cur, src_node),
        };
        let r = ReplayOp::Recv {
            xid,
            peer: peer_s,
            bytes,
            churn,
            at: decode(dst_at, dst_node),
            merge: decode(dst_cur, dst_node),
        };
        let s_tok = self.push(src_node, s);
        let d_tok = self.push(dst_node, r);
        (s_tok, d_tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        for (node, idx) in [(0usize, 0u32), (7, 12), (4095, u32::MAX), (123_456, 77)] {
            assert_eq!(decode(token(node, idx), node), At::V(idx));
        }
    }

    #[test]
    fn literals_pass_through() {
        assert_eq!(decode(Cycles::ZERO, 3), At::Lit(Cycles::ZERO));
        let t = Cycles::from_ms(123);
        assert_eq!(decode(t, 0), At::Lit(t));
    }

    #[test]
    #[should_panic(expected = "operand of node")]
    fn cross_node_token_caught() {
        decode(token(3, 1), 4);
    }

    #[test]
    #[should_panic(expected = "arithmetic")]
    fn token_arithmetic_caught() {
        decode(token(2, 5) + Cycles(13), 2);
    }

    #[test]
    fn same_node_tokens_grow_with_index() {
        // The walk max-merges clock slots; within a node, a later op's
        // token must compare greater so a slot never regresses.
        assert!(token(5, 9) > token(5, 8));
        assert!(token(5, 1) > Cycles::from_ms(u32::MAX as u64));
    }

    #[test]
    fn sink_indexes_ops_per_node() {
        let mut s = RecordSink::new(2);
        let a = s.record_cpu(0, Cycles::ZERO, Cycles(10));
        let (b, c) = s.record_xfer(0, 1, 64, 0.0, a, Cycles::ZERO, a, Cycles::ZERO);
        assert_eq!(decode(a, 0), At::V(0));
        assert_eq!(decode(b, 0), At::V(1));
        assert_eq!(decode(c, 1), At::V(0));
        assert_eq!(s.num_xfers(), 1);
        let ops = s.into_ops();
        assert_eq!(ops[0].len(), 2);
        assert_eq!(ops[1].len(), 1);
        match &ops[1][0] {
            ReplayOp::Recv { xid: 0, peer: 0, bytes: 64, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
