//! Property tests for the IKC wire formats: decoders must be total
//! (never panic, whatever bytes arrive off the channel), round trips
//! must be lossless, and the message checksum must catch every injected
//! single-bit corruption on the ring path the fault model corrupts.

use hlwk_core::ihk::ikc::{ControlMsg, IkcChannel, MsgKind, WireMsg};
use hlwk_core::mck::syscall::{SyscallReply, SyscallRequest};
use proptest::prelude::*;

/// Arbitrary byte blobs around the interesting sizes (empty, one off the
/// wire sizes, way oversized).
fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255u8, 0..96)
}

fn syscall_request() -> impl Strategy<Value = SyscallRequest> {
    (
        0u64..u64::MAX,
        0u32..u32::MAX,
        0u32..u32::MAX,
        0u32..512,
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(|(seq, pid, tid, sysno, (a, b, c))| SyscallRequest {
            seq,
            pid,
            tid,
            sysno,
            args: [a, b, c, a ^ b, b ^ c, c ^ a],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No decoder panics on arbitrary input; they return `None` or a
    /// value, never abort. (The offload path feeds them bytes straight
    /// off a channel the fault model corrupts.)
    #[test]
    fn decoders_are_total(bytes in wire_bytes()) {
        let _ = SyscallRequest::decode(&bytes);
        let _ = SyscallReply::decode(&bytes);
        let _ = ControlMsg::decode(&bytes);
    }

    /// Wrong-length input is always rejected, and exact-length garbage
    /// decodes to *something* for the header-less fixed layouts rather
    /// than panicking.
    #[test]
    fn decoders_reject_wrong_lengths(bytes in wire_bytes()) {
        if bytes.len() != SyscallRequest::WIRE_SIZE {
            prop_assert!(SyscallRequest::decode(&bytes).is_none());
        }
        if bytes.len() != SyscallReply::WIRE_SIZE {
            prop_assert!(SyscallReply::decode(&bytes).is_none());
        }
        if bytes.len() != 9 {
            prop_assert!(ControlMsg::decode(&bytes).is_none());
        }
    }

    /// encode -> decode is the identity for syscall requests.
    #[test]
    fn syscall_request_round_trips(req in syscall_request()) {
        prop_assert_eq!(SyscallRequest::decode(&req.encode()), Some(req));
    }

    /// encode -> decode is the identity for syscall replies.
    #[test]
    fn small_messages_round_trip(seq in 0u64..u64::MAX, val in 0u64..u64::MAX) {
        let rep = SyscallReply { seq, ret: val as i64 };
        prop_assert_eq!(SyscallReply::decode(&rep.encode()), Some(rep));
    }

    /// encode -> decode is the identity for every control message.
    #[test]
    fn control_messages_round_trip(val in 0u64..u64::MAX, pid in 0u32..u32::MAX) {
        for msg in [
            ControlMsg::Heartbeat { beat: val },
            ControlMsg::HeartbeatAck { beat: val },
            ControlMsg::Nack { seq: val },
            ControlMsg::ProxyDead { proxy_pid: pid },
        ] {
            prop_assert_eq!(ControlMsg::decode(&msg.encode()), Some(msg));
        }
    }

    /// encode -> corrupt -> verify: the CRC catches every injected
    /// corruption of a ring slot, for every kind the offload path sends,
    /// at every flip position.
    #[test]
    fn corruption_is_always_detected(req in syscall_request(), flip in 0u64..u64::MAX) {
        let rep = SyscallReply { seq: req.seq, ret: req.args[0] as i64 };
        let nack = ControlMsg::Nack { seq: req.seq };
        let mut ch = IkcChannel::new(1);
        for kind in [MsgKind::SyscallRequest, MsgKind::SyscallReply, MsgKind::Control] {
            let fill = |b: &mut Vec<u8>| match kind {
                MsgKind::SyscallRequest => req.encode_into(b),
                MsgKind::SyscallReply => rep.encode_into(b),
                MsgKind::Control => nack.encode_into(b),
            };
            ch.send_with(kind, fill).unwrap();
            prop_assert!(ch.recv_ref().unwrap().verify(), "pristine message must verify");
            ch.send_with(kind, fill).unwrap();
            ch.corrupt_newest(flip);
            prop_assert!(!ch.recv_ref().unwrap().verify(), "corruption must be detected");
        }
    }

    /// A corrupted kind tag cannot masquerade as a valid message of
    /// another kind: the tag is part of the checksummed bytes.
    #[test]
    fn kind_is_covered_by_the_checksum(seq in 0u64..u64::MAX) {
        let rep = SyscallReply { seq, ret: 0 };
        let mut ch = IkcChannel::new(1);
        ch.send_with(MsgKind::SyscallReply, |b| rep.encode_into(b)).unwrap();
        let msg = ch.recv_ref().unwrap();
        prop_assert!(msg.verify());
        for kind in [MsgKind::SyscallRequest, MsgKind::Control] {
            let forged = WireMsg { kind, ..msg };
            prop_assert!(!forged.verify());
        }
    }
}
