//! Inter-Kernel Communication: bounded message queues between McKernel and
//! Linux, with typed payloads for syscall delegation and control traffic
//! (heartbeats, NACKs, proxy death).
//!
//! The channel is the single structure every offloaded syscall crosses
//! twice, so it is built for **zero steady-state allocation**: a
//! fixed-capacity power-of-two ring of preallocated slots, each owning a
//! reusable wire buffer. Messages are encoded *once*, directly into the
//! slot ([`IkcChannel::send_with`]), with the CRC computed over that
//! single wire buffer during encode; retransmits replay pre-encoded
//! bytes ([`IkcChannel::send_encoded`]) without re-serializing or
//! re-checksumming. Receivers borrow the slot in place via
//! [`IkcChannel::recv_ref`] — no copy, no refcount traffic.

/// Message discriminator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// LWK -> Linux: offloaded syscall.
    SyscallRequest,
    /// Linux -> LWK: offload result.
    SyscallReply,
    /// Management traffic: a [`ControlMsg`] (heartbeats, NACKs, proxy
    /// death).
    Control,
}

impl MsgKind {
    /// Stable wire tag, mixed into the checksum so a corrupted kind
    /// cannot masquerade as a valid message of another kind. The values
    /// are fixed wire constants (3 and 4 are unused).
    fn tag(self) -> u8 {
        match self {
            MsgKind::SyscallRequest => 1,
            MsgKind::SyscallReply => 2,
            MsgKind::Control => 5,
        }
    }
}

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; table `j` advances a byte through `j` additional zero bytes, so
/// eight bytes fold in one step with identical results to the serial form.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// Streaming CRC-32 (IEEE 802.3 polynomial, reflected). Lets the message
/// checksum cover the kind tag followed by the payload without ever
/// materializing that concatenation in a temporary buffer. The hot loop
/// is slice-by-8: the wire checksums sit directly on the offload round
/// trip (twice per leg), so bytes-per-cycle here is end-to-end latency.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Fold `data` into the running checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            crc = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final checksum value.
    #[inline]
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 of a contiguous buffer (table-driven, compile-time table).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Checksum of a message: CRC-32 over the kind tag followed by the wire
/// payload. Streaming, so no tag+payload temporary is allocated.
pub fn message_checksum(kind: MsgKind, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&[kind.tag()]);
    c.update(payload);
    c.finish()
}

/// A message borrowed straight out of a ring slot — the only form a
/// receiver sees. The checksum covers the kind tag and the payload;
/// receivers must [`verify`](WireMsg::verify) before decoding and NACK
/// on mismatch (the fault model flips payload bits in flight, see
/// [`IkcChannel::corrupt_newest`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireMsg<'a> {
    /// Payload discriminator.
    pub kind: MsgKind,
    /// Wire payload bytes (slot-resident).
    pub payload: &'a [u8],
    /// Checksum as enqueued (stale if the message was corrupted in
    /// flight).
    pub checksum: u32,
}

impl WireMsg<'_> {
    /// True when the checksum matches the payload.
    pub fn verify(&self) -> bool {
        self.checksum == message_checksum(self.kind, self.payload)
    }
}

/// Management traffic riding the Control kind: liveness heartbeats for
/// proxy-death detection and NACKs for the corruption/retransmit
/// protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlMsg {
    /// Linux -> LWK liveness probe for the proxy serving this channel.
    Heartbeat {
        /// Monotone heartbeat number.
        beat: u64,
    },
    /// LWK -> Linux (or reverse) acknowledgment of a heartbeat.
    HeartbeatAck {
        /// Echoed heartbeat number.
        beat: u64,
    },
    /// Receiver saw a checksum mismatch: retransmit offload `seq`.
    Nack {
        /// Sequence number of the corrupted message.
        seq: u64,
    },
    /// Linux announces the proxy died; the LWK must fail over.
    ProxyDead {
        /// Pid of the dead proxy process.
        proxy_pid: u32,
    },
}

impl ControlMsg {
    /// Serialize into `out` (tag byte + one u64 field).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (tag, val) = match *self {
            ControlMsg::Heartbeat { beat } => (1u8, beat),
            ControlMsg::HeartbeatAck { beat } => (2, beat),
            ControlMsg::Nack { seq } => (3, seq),
            ControlMsg::ProxyDead { proxy_pid } => (4, u64::from(proxy_pid)),
        };
        out.push(tag);
        out.extend_from_slice(&val.to_le_bytes());
    }

    /// Serialize: tag byte + one u64 field.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(9);
        self.encode_into(&mut v);
        v
    }

    /// Deserialize; `None` on truncation or an unknown tag.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != 9 {
            return None;
        }
        let val = u64::from_le_bytes(b[1..9].try_into().ok()?);
        match b[0] {
            1 => Some(ControlMsg::Heartbeat { beat: val }),
            2 => Some(ControlMsg::HeartbeatAck { beat: val }),
            3 => Some(ControlMsg::Nack { seq: val }),
            4 => u32::try_from(val).ok().map(|proxy_pid| ControlMsg::ProxyDead { proxy_pid }),
            _ => None,
        }
    }
}

/// Send failure: the bounded queue is full (back-pressure; the sender
/// spins/retries, which the cost model surfaces as delay).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IkcFull;

/// One ring slot: a reusable wire buffer plus the message header. The
/// buffer's capacity is retained across reuse, so after warm-up the
/// channel performs no allocation at any queue depth.
#[derive(Debug, Default)]
struct Slot {
    kind: Option<MsgKind>,
    checksum: u32,
    buf: Vec<u8>,
}

/// A one-directional bounded FIFO channel: a power-of-two ring of
/// preallocated slots.
///
/// `head`/`tail` are absolute (monotone) positions; the slot index is
/// `pos & mask`. Back-pressure triggers at the *requested* capacity even
/// when the slot count was rounded up to a power of two.
#[derive(Debug)]
pub struct IkcChannel {
    slots: Box<[Slot]>,
    mask: u64,
    capacity: usize,
    /// Next slot to dequeue (absolute position).
    head: u64,
    /// Next slot to enqueue (absolute position).
    tail: u64,
    sent: u64,
    received: u64,
    full_events: u64,
    /// MPK protection key tagging the slot arena, if the kernel armed
    /// intra-kernel domains. A tagged ring may only be touched while
    /// the matching domain is open (the fast paths charge a
    /// `domain_switch` to open it); untagged rings behave as before.
    pkey: Option<u8>,
}

impl IkcChannel {
    /// Channel with the given queue depth. The slot arena is sized to
    /// the next power of two, but back-pressure honors `capacity`
    /// exactly.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let nslots = capacity.next_power_of_two();
        let slots: Vec<Slot> = (0..nslots).map(|_| Slot::default()).collect();
        IkcChannel {
            slots: slots.into_boxed_slice(),
            mask: (nslots - 1) as u64,
            capacity,
            head: 0,
            tail: 0,
            sent: 0,
            received: 0,
            full_events: 0,
            pkey: None,
        }
    }

    /// Tag the ring's slot arena with an MPK protection key. Idempotent;
    /// retagging with a different key is a bug (two domains cannot own
    /// one arena).
    pub fn set_pkey(&mut self, key: u8) {
        assert!(
            self.pkey.is_none_or(|k| k == key),
            "IKC ring already tagged with a different pkey"
        );
        self.pkey = Some(key);
    }

    /// Protection key tagging this ring, if domains are armed.
    pub fn pkey(&self) -> Option<u8> {
        self.pkey
    }

    /// Default depth used by the stack (and by `fig_offload_hotpath`'s
    /// `channel_send_recv_ns`).
    pub fn default_depth() -> usize {
        64
    }

    #[inline]
    fn full(&mut self) -> bool {
        if (self.tail - self.head) as usize >= self.capacity {
            self.full_events += 1;
            return true;
        }
        false
    }

    /// Enqueue a message whose payload is produced by `fill`, which
    /// writes wire bytes directly into the slot's reusable buffer. The
    /// checksum is computed over that single buffer during the enqueue
    /// (no re-serialization anywhere later). Returns the checksum.
    pub fn send_with(
        &mut self,
        kind: MsgKind,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u32, IkcFull> {
        if self.full() {
            return Err(IkcFull);
        }
        let slot = &mut self.slots[(self.tail & self.mask) as usize];
        slot.buf.clear();
        fill(&mut slot.buf);
        let checksum = message_checksum(kind, &slot.buf);
        slot.kind = Some(kind);
        slot.checksum = checksum;
        self.tail += 1;
        self.sent += 1;
        Ok(checksum)
    }

    /// Enqueue pre-encoded wire bytes with a precomputed checksum — the
    /// retransmit path: the sender replays the bytes it already encoded
    /// (and their CRC) without touching the serializer again.
    pub fn send_encoded(
        &mut self,
        kind: MsgKind,
        payload: &[u8],
        checksum: u32,
    ) -> Result<(), IkcFull> {
        if self.full() {
            return Err(IkcFull);
        }
        let slot = &mut self.slots[(self.tail & self.mask) as usize];
        slot.buf.clear();
        slot.buf.extend_from_slice(payload);
        slot.kind = Some(kind);
        slot.checksum = checksum;
        self.tail += 1;
        self.sent += 1;
        Ok(())
    }

    /// Dequeue the oldest message, borrowing its bytes in place —
    /// nothing is copied or allocated. The borrow must end before the
    /// next channel operation (slot reuse).
    pub fn recv_ref(&mut self) -> Option<WireMsg<'_>> {
        if self.head == self.tail {
            return None;
        }
        let idx = (self.head & self.mask) as usize;
        self.head += 1;
        self.received += 1;
        let slot = &self.slots[idx];
        Some(WireMsg {
            kind: slot.kind.expect("occupied slot has a kind"),
            payload: &slot.buf,
            checksum: slot.checksum,
        })
    }

    /// Fault injection: flip one payload bit (chosen by `flip`) of the
    /// most recently enqueued message, leaving its checksum stale —
    /// in-flight corruption the receiver's `verify` must catch. Empty
    /// payloads get a corrupted checksum instead. No-op on an empty
    /// channel.
    pub fn corrupt_newest(&mut self, flip: u64) {
        if self.head == self.tail {
            return;
        }
        let slot = &mut self.slots[((self.tail - 1) & self.mask) as usize];
        if slot.buf.is_empty() {
            slot.checksum ^= 1;
            return;
        }
        let bit = (flip % (slot.buf.len() as u64 * 8)) as usize;
        slot.buf[bit / 8] ^= 1 << (bit % 8);
    }

    /// Messages waiting.
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// (sent, received, times-full) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.sent, self.received, self.full_events)
    }
}

/// The bidirectional channel pair between one LWK and Linux.
#[derive(Debug)]
pub struct IkcPair {
    /// LWK -> Linux direction.
    pub to_linux: IkcChannel,
    /// Linux -> LWK direction.
    pub to_lwk: IkcChannel,
}

impl IkcPair {
    /// Pair with symmetric depth.
    pub fn new(depth: usize) -> Self {
        IkcPair {
            to_linux: IkcChannel::new(depth),
            to_lwk: IkcChannel::new(depth),
        }
    }

    /// Tag both directions with one protection key — the rings are one
    /// shared surface as far as the domain model is concerned.
    pub fn set_pkey(&mut self, key: u8) {
        self.to_linux.set_pkey(key);
        self.to_lwk.set_pkey(key);
    }
}

impl Default for IkcPair {
    fn default() -> Self {
        IkcPair::new(IkcChannel::default_depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::Sysno;
    use crate::mck::syscall::{SyscallReply, SyscallRequest};

    fn request(seq: u64) -> SyscallRequest {
        SyscallRequest {
            seq,
            pid: 1,
            tid: 1,
            sysno: Sysno::Read.nr(),
            args: [3, 0x2000, 64, 0, 0, 0],
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ch = IkcChannel::new(8);
        for i in 0..5u64 {
            ch.send_with(MsgKind::SyscallRequest, |b| request(i).encode_into(b))
                .unwrap();
        }
        for i in 0..5u64 {
            let m = ch.recv_ref().unwrap();
            assert_eq!(m.kind, MsgKind::SyscallRequest);
            assert_eq!(SyscallRequest::decode(m.payload).unwrap().seq, i);
        }
        assert!(ch.recv_ref().is_none());
    }

    #[test]
    fn bounded_queue_back_pressures() {
        let mut ch = IkcChannel::new(2);
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
        assert_eq!(ch.send_with(MsgKind::Control, |_| {}), Err(IkcFull));
        assert_eq!(ch.stats(), (2, 0, 1));
        ch.recv_ref().unwrap();
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
    }

    #[test]
    fn non_power_of_two_capacity_back_pressures_exactly() {
        let mut ch = IkcChannel::new(3);
        for _ in 0..3 {
            ch.send_with(MsgKind::Control, |_| {}).unwrap();
        }
        assert_eq!(
            ch.send_with(MsgKind::Control, |_| {}),
            Err(IkcFull),
            "capacity 3, not 4"
        );
        ch.recv_ref().unwrap();
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
        assert_eq!(ch.len(), 3);
    }

    #[test]
    fn ring_wraps_around_many_times() {
        let mut ch = IkcChannel::new(4);
        for round in 0..100u64 {
            for i in 0..3 {
                ch.send_with(MsgKind::SyscallRequest, |b| {
                    request(round * 3 + i).encode_into(b)
                })
                .unwrap();
            }
            for i in 0..3 {
                let m = ch.recv_ref().unwrap();
                assert!(m.verify());
                assert_eq!(
                    SyscallRequest::decode(m.payload).unwrap().seq,
                    round * 3 + i
                );
            }
        }
        assert!(ch.is_empty());
        assert_eq!(ch.stats(), (300, 300, 0));
    }

    #[test]
    fn send_with_encodes_once_into_slot() {
        let mut ch = IkcChannel::new(4);
        let req = SyscallRequest {
            seq: 9,
            pid: 1,
            tid: 1,
            sysno: Sysno::Read.nr(),
            args: [1, 2, 3, 4, 5, 6],
        };
        let ck = ch
            .send_with(MsgKind::SyscallRequest, |buf| req.encode_into(buf))
            .unwrap();
        let m = ch.recv_ref().unwrap();
        assert_eq!(m.checksum, ck);
        assert!(m.verify());
        assert_eq!(SyscallRequest::decode(m.payload), Some(req));
    }

    #[test]
    fn send_encoded_replays_bytes_and_checksum() {
        let mut ch = IkcChannel::new(4);
        let rep = SyscallReply { seq: 5, ret: 42 };
        let wire = rep.encode();
        let ck = message_checksum(MsgKind::SyscallReply, &wire);
        // Original plus one retransmit replay — same bytes, same CRC,
        // no re-encode.
        ch.send_encoded(MsgKind::SyscallReply, &wire, ck).unwrap();
        ch.send_encoded(MsgKind::SyscallReply, &wire, ck).unwrap();
        for _ in 0..2 {
            let m = ch.recv_ref().unwrap();
            assert!(m.verify());
            assert_eq!(SyscallReply::decode(m.payload), Some(rep));
        }
    }

    #[test]
    fn corrupt_newest_is_caught_by_verify() {
        let mut ch = IkcChannel::new(4);
        let rep = SyscallReply { seq: 5, ret: 42 };
        ch.send_with(MsgKind::SyscallReply, |b| rep.encode_into(b))
            .unwrap();
        ch.corrupt_newest(13);
        assert!(!ch.recv_ref().unwrap().verify());
        // Empty payloads corrupt through the checksum.
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
        ch.corrupt_newest(0);
        assert!(!ch.recv_ref().unwrap().verify());
        // Corrupting an empty channel is a no-op.
        ch.corrupt_newest(7);
    }

    #[test]
    fn pkey_tagging_is_sticky_and_pairwise() {
        let mut pair = IkcPair::default();
        assert_eq!(pair.to_linux.pkey(), None, "untagged by default");
        pair.set_pkey(1);
        assert_eq!(pair.to_linux.pkey(), Some(1));
        assert_eq!(pair.to_lwk.pkey(), Some(1));
        pair.set_pkey(1); // idempotent retag is fine
    }

    #[test]
    #[should_panic(expected = "already tagged")]
    fn retagging_with_a_different_pkey_is_a_bug() {
        let mut ch = IkcChannel::new(4);
        ch.set_pkey(1);
        ch.set_pkey(2);
    }

    #[test]
    fn syscall_round_trip_through_channel() {
        let mut pair = IkcPair::default();
        let req = SyscallRequest {
            seq: 42,
            pid: 1,
            tid: 2,
            sysno: Sysno::Read.nr(),
            args: [5, 0x1000, 512, 0, 0, 0],
        };
        pair.to_linux
            .send_with(MsgKind::SyscallRequest, |b| req.encode_into(b))
            .unwrap();
        let m = pair.to_linux.recv_ref().unwrap();
        assert_eq!(m.kind, MsgKind::SyscallRequest);
        assert_eq!(SyscallRequest::decode(m.payload), Some(req));
        let rep = SyscallReply { seq: 42, ret: 512 };
        pair.to_lwk
            .send_with(MsgKind::SyscallReply, |b| rep.encode_into(b))
            .unwrap();
        let m = pair.to_lwk.recv_ref().unwrap();
        assert_eq!(SyscallReply::decode(m.payload), Some(rep));
    }

    #[test]
    fn checksum_catches_single_bit_flips() {
        let req = request(7);
        let mut ch = IkcChannel::new(1);
        for flip in 0..(SyscallRequest::WIRE_SIZE as u64 * 8) {
            ch.send_with(MsgKind::SyscallRequest, |b| req.encode_into(b))
                .unwrap();
            ch.corrupt_newest(flip);
            assert!(!ch.recv_ref().unwrap().verify(), "bit {flip} undetected");
        }
        ch.send_with(MsgKind::SyscallRequest, |b| req.encode_into(b))
            .unwrap();
        assert!(ch.recv_ref().unwrap().verify(), "pristine copy verifies");
        // Empty payloads are covered through the checksum itself.
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
        assert!(ch.recv_ref().unwrap().verify());
        ch.send_with(MsgKind::Control, |_| {}).unwrap();
        ch.corrupt_newest(0);
        assert!(!ch.recv_ref().unwrap().verify());
    }

    #[test]
    fn control_messages_round_trip() {
        let mut ch = IkcChannel::new(1);
        for msg in [
            ControlMsg::Heartbeat { beat: 3 },
            ControlMsg::HeartbeatAck { beat: 3 },
            ControlMsg::Nack { seq: 99 },
            ControlMsg::ProxyDead { proxy_pid: 500 },
        ] {
            assert_eq!(ControlMsg::decode(&msg.encode()), Some(msg));
            ch.send_with(MsgKind::Control, |b| msg.encode_into(b))
                .unwrap();
            let wrapped = ch.recv_ref().unwrap();
            assert!(wrapped.verify());
            assert_eq!(ControlMsg::decode(wrapped.payload), Some(msg));
        }
        assert_eq!(ControlMsg::decode(&[1, 0, 0]), None);
        assert_eq!(ControlMsg::decode(&[9; 9]), None);
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // Streaming over split input matches the one-shot value.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn slice_by_8_matches_serial_reference_at_every_length() {
        // Bit-serial CRC-32 reference (no tables). The slice-by-8 loop
        // plus its remainder handling must agree at every length that
        // exercises a different chunk/tail split, and across arbitrary
        // streaming splits.
        fn reference(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..100u32).map(|i| (i.wrapping_mul(37) ^ 0x5A) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
            // Uneven streaming split must match the one-shot value.
            let split = len / 3;
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..len]);
            assert_eq!(c.finish(), crc32(&data[..len]), "split at {split}/{len}");
        }
    }

    #[test]
    fn message_checksum_matches_legacy_concat() {
        // The streaming checksum must equal CRC over tag || payload —
        // the wire format is unchanged.
        let payload = b"some payload bytes";
        let mut concat = vec![MsgKind::SyscallReply.tag()];
        concat.extend_from_slice(payload);
        assert_eq!(
            message_checksum(MsgKind::SyscallReply, payload),
            crc32(&concat)
        );
    }
}
