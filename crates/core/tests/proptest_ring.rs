//! Property tests for the IKC ring buffer: the fixed-capacity slot ring
//! must be observationally identical to an ideal bounded FIFO (a
//! `VecDeque` reference model) under arbitrary interleavings of sends,
//! receives, and fault-injected corruption — including sustained
//! operation far past the wrap point and full-queue back-pressure.

use hlwk_core::ihk::ikc::{message_checksum, IkcChannel, MsgKind};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
enum RingOp {
    /// Send a payload of the given length, tagged with a running id.
    Send(u8),
    /// Receive one message.
    Recv,
    /// Flip a bit in the newest queued message (fault injection).
    Corrupt(u64),
}

fn ring_ops() -> impl Strategy<Value = Vec<RingOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u8..=96).prop_map(RingOp::Send),
            2 => Just(RingOp::Recv),
            1 => (0u64..4096).prop_map(RingOp::Corrupt),
        ],
        1..400,
    )
}

/// Payload for message `id`: length-varied, deterministic contents.
fn payload(id: u64, len: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (id as u8).wrapping_mul(31).wrapping_add(i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ring agrees with a `VecDeque` reference model op-for-op:
    /// same accept/reject decisions at the capacity bound, same FIFO
    /// order out, same payload bytes, same checksum verdicts under
    /// injected corruption.
    #[test]
    fn ring_matches_vecdeque_model(cap in 1usize..24, ops in ring_ops()) {
        let mut ch = IkcChannel::new(cap);
        // Reference model: (kind, wire bytes, checksum). Corruption is
        // mirrored byte-for-byte, so the expected verify verdict falls
        // out of the checksum rather than a flag (two flips that cancel
        // must read as intact on both sides).
        let mut model: VecDeque<(MsgKind, Vec<u8>, u32)> = VecDeque::new();
        let mut next_id = 0u64;
        for op in ops {
            match op {
                RingOp::Send(len) => {
                    let p = payload(next_id, len);
                    let sent = ch
                        .send_with(MsgKind::SyscallRequest, |b| b.extend_from_slice(&p))
                        .is_ok();
                    // Back-pressure triggers exactly at the requested
                    // capacity, not at the rounded-up slot count.
                    prop_assert_eq!(sent, model.len() < cap);
                    if sent {
                        let ck = message_checksum(MsgKind::SyscallRequest, &p);
                        model.push_back((MsgKind::SyscallRequest, p, ck));
                        next_id += 1;
                    }
                }
                RingOp::Recv => {
                    match (ch.recv_ref(), model.pop_front()) {
                        (None, None) => {}
                        (Some(m), Some((kind, p, ck))) => {
                            prop_assert_eq!(m.kind, kind);
                            prop_assert_eq!(m.payload, &p[..]);
                            prop_assert_eq!(m.verify(), message_checksum(kind, &p) == ck);
                        }
                        (got, want) => prop_assert!(
                            false,
                            "ring/model diverged: ring={:?} model={:?}",
                            got.map(|m| m.kind),
                            want.map(|(k, ..)| k)
                        ),
                    }
                }
                RingOp::Corrupt(flip) => {
                    // Only meaningful with something queued; the channel
                    // no-ops on empty exactly as the model does.
                    ch.corrupt_newest(flip);
                    if let Some((_, p, ck)) = model.back_mut() {
                        if p.is_empty() {
                            *ck ^= 1;
                        } else {
                            let bit = (flip % (p.len() as u64 * 8)) as usize;
                            p[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                }
            }
            prop_assert_eq!(ch.len(), model.len());
            prop_assert_eq!(ch.is_empty(), model.is_empty());
        }
        // Drain: everything still queued comes out in model order.
        while let Some((kind, p, ck)) = model.pop_front() {
            let m = ch.recv_ref().expect("model says non-empty");
            prop_assert_eq!(m.kind, kind);
            prop_assert_eq!(m.payload, &p[..]);
            prop_assert_eq!(m.verify(), message_checksum(kind, &p) == ck);
        }
        prop_assert!(ch.recv_ref().is_none());
    }

    /// Slot reuse never leaks bytes between generations: after the ring
    /// wraps many times, every received payload is exactly what its send
    /// encoded, even when a longer message previously occupied the slot.
    #[test]
    fn slot_reuse_is_clean_across_wraps(cap in 1usize..9, lens in prop::collection::vec(0u8..=96, 64..256)) {
        let mut ch = IkcChannel::new(cap);
        for (id, &len) in lens.iter().enumerate() {
            let p = payload(id as u64, len);
            let ck = ch
                .send_with(MsgKind::Control, |b| b.extend_from_slice(&p))
                .expect("one in, one out: never full");
            prop_assert_eq!(ck, message_checksum(MsgKind::Control, &p));
            let m = ch.recv_ref().expect("just sent");
            prop_assert!(m.verify());
            prop_assert_eq!(m.payload, &p[..]);
        }
        let (sent, received, full_events) = ch.stats();
        prop_assert_eq!(sent, lens.len() as u64);
        prop_assert_eq!(received, lens.len() as u64);
        prop_assert_eq!(full_events, 0);
    }

}
