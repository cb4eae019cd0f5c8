//! Physical memory: NUMA layout, frame ownership (the IHK partition), and
//! sparse *real* byte storage.
//!
//! Byte storage matters: the unified-address-space claim of the paper is
//! that an offloaded system call executed by the proxy process dereferences
//! pointer arguments and observes exactly the application's memory. With
//! real bytes behind physical frames, that property becomes an executable
//! test instead of an assumption. Frames materialize lazily (zero-filled)
//! on first write, so modeling a 64 GiB node costs only what is touched.

use crate::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};
use crate::cpu::NumaId;
use std::collections::{BTreeMap, HashMap};

/// Physical frame number (`phys >> 12`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FrameId(pub u64);

impl FrameId {
    /// Frame containing `addr`.
    #[inline]
    pub fn containing(addr: PhysAddr) -> FrameId {
        FrameId(addr.raw() >> PAGE_SHIFT)
    }

    /// First byte of this frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

/// Who owns a physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameOwner {
    /// Managed by the host Linux kernel (the default at boot).
    Linux,
    /// Reserved by IHK for the LWK partition.
    Lwk,
    /// Memory-mapped I/O (device BAR) — not RAM.
    Mmio,
}

/// One node's physical memory.
#[derive(Debug)]
pub struct PhysMemory {
    /// Exclusive end of each NUMA domain's range; domain `i` spans
    /// `[ends[i-1], ends[i])` with `ends[-1] == 0`.
    numa_ends: Vec<u64>,
    /// Ownership intervals: start byte -> (end byte, owner). Non-overlapping,
    /// covering `[0, ram_bytes)`; MMIO ranges may lie above RAM.
    owners: BTreeMap<u64, (u64, FrameOwner)>,
    /// Lazily materialized frame contents.
    content: HashMap<FrameId, Box<[u8]>>,
}

impl PhysMemory {
    /// Equal split of `total_bytes` RAM across `numa_domains` domains.
    /// `total_bytes` must be page-aligned and divisible by the domain count.
    pub fn new(total_bytes: u64, numa_domains: u16) -> Self {
        assert!(numa_domains > 0);
        assert_eq!(total_bytes % PAGE_SIZE, 0, "RAM size must be page aligned");
        assert_eq!(
            total_bytes % u64::from(numa_domains),
            0,
            "RAM must split evenly across NUMA domains"
        );
        let per = total_bytes / u64::from(numa_domains);
        let numa_ends = (1..=u64::from(numa_domains)).map(|i| i * per).collect();
        let mut owners = BTreeMap::new();
        owners.insert(0, (total_bytes, FrameOwner::Linux));
        PhysMemory {
            numa_ends,
            owners,
            content: HashMap::new(),
        }
    }

    /// The paper's node: 64 GiB over 2 NUMA domains.
    pub fn paper_testbed() -> Self {
        PhysMemory::new(64 << 30, 2)
    }

    /// Total RAM bytes.
    pub fn ram_bytes(&self) -> u64 {
        *self.numa_ends.last().expect("at least one NUMA domain")
    }

    /// NUMA domain of a RAM address (None for MMIO / out of range).
    pub fn numa_of(&self, addr: PhysAddr) -> Option<NumaId> {
        let a = addr.raw();
        self.numa_ends
            .iter()
            .position(|&end| a < end)
            .map(|i| NumaId(i as u16))
    }

    /// RAM range `[start, end)` of one NUMA domain.
    pub fn numa_range(&self, numa: NumaId) -> (PhysAddr, PhysAddr) {
        let i = usize::from(numa.0);
        assert!(i < self.numa_ends.len(), "{numa} out of range");
        let start = if i == 0 { 0 } else { self.numa_ends[i - 1] };
        (PhysAddr(start), PhysAddr(self.numa_ends[i]))
    }

    /// Mark `[start, start+len)` as owned by `owner`, splitting intervals as
    /// needed. Used by IHK reserve/release and for registering device BARs.
    /// Panics if the range is not page-aligned.
    pub fn set_owner(&mut self, start: PhysAddr, len: u64, owner: FrameOwner) {
        assert!(start.is_page_aligned() && len % PAGE_SIZE == 0 && len > 0);
        let (s, e) = (start.raw(), start.raw() + len);
        // Collect intervals overlapping [s, e).
        let overlapping: Vec<(u64, u64, FrameOwner)> = self
            .owners
            .range(..e)
            .rev()
            .take_while(|(_, (iend, _))| *iend > s)
            .map(|(&istart, &(iend, o))| (istart, iend, o))
            .filter(|&(istart, _, _)| istart < e)
            .collect();
        for (istart, iend, o) in &overlapping {
            if *iend > s && *istart < e {
                self.owners.remove(istart);
                if *istart < s {
                    self.owners.insert(*istart, (s, *o));
                }
                if *iend > e {
                    self.owners.insert(e, (*iend, *o));
                }
            }
        }
        self.owners.insert(s, (e, owner));
        self.coalesce_around(s, e);
    }

    fn coalesce_around(&mut self, s: u64, e: u64) {
        // Merge with the predecessor if contiguous and same owner.
        if let Some((&ps, &(pe, po))) = self.owners.range(..s).next_back() {
            if pe == s && po == self.owners[&s].1 {
                let (end, o) = self.owners.remove(&s).expect("interval present");
                self.owners.insert(ps, (end, o));
                return self.coalesce_around(ps, e);
            }
        }
        // Merge with the successor.
        let (cur_end, cur_owner) = self.owners[&s];
        if let Some(&(ne, no)) = self.owners.get(&cur_end) {
            if no == cur_owner {
                self.owners.remove(&cur_end);
                self.owners.insert(s, (ne, cur_owner));
            }
        }
        let _ = e;
    }

    /// Whether all of `[start, start+len)` lies in intervals owned by
    /// `owner`. O(intervals overlapped), not O(pages).
    pub fn range_uniformly_owned(&self, start: PhysAddr, len: u64, owner: FrameOwner) -> bool {
        let (s, e) = (start.raw(), start.raw() + len);
        let mut cursor = s;
        // Walk intervals from the one containing `s` forward.
        let mut iter = self
            .owners
            .range(..=s)
            .next_back()
            .into_iter()
            .map(|(&k, &v)| (k, v))
            .chain(
                self.owners
                    .range((
                        std::ops::Bound::Excluded(s),
                        std::ops::Bound::Unbounded,
                    ))
                    .map(|(&k, &v)| (k, v)),
            );
        while cursor < e {
            match iter.next() {
                Some((istart, (iend, o))) => {
                    if istart > cursor || o != owner {
                        return false;
                    }
                    cursor = iend;
                }
                None => return false,
            }
        }
        true
    }

    /// Owner of the frame containing `addr` (frames outside any registered
    /// interval — e.g. unregistered MMIO holes — report `Mmio`).
    pub fn owner_of(&self, addr: PhysAddr) -> FrameOwner {
        let a = addr.raw();
        self.owners
            .range(..=a)
            .next_back()
            .filter(|(_, (end, _))| a < *end)
            .map(|(_, (_, o))| *o)
            .unwrap_or(FrameOwner::Mmio)
    }

    /// Total bytes currently owned by `owner`.
    pub fn bytes_owned_by(&self, owner: FrameOwner) -> u64 {
        self.owners
            .values()
            .zip(self.owners.keys())
            .map(|(&(end, o), &start)| if o == owner { end - start } else { 0 })
            .sum()
    }

    /// Number of ownership intervals (diagnostic; coalescing keeps it small).
    pub fn interval_count(&self) -> usize {
        self.owners.len()
    }

    /// Write bytes at a physical address (may span frames). Frames
    /// materialize zero-filled on demand.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut cur = addr;
        let mut rest = data;
        while !rest.is_empty() {
            let frame = FrameId::containing(cur);
            let off = cur.page_offset() as usize;
            let n = rest.len().min(PAGE_SIZE as usize - off);
            let buf = self
                .content
                .entry(frame)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            buf[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            cur = cur + n as u64;
        }
    }

    /// Fill `[addr, addr+len)` with `byte` (may span frames) without a
    /// bounce buffer — the memset runs directly in the backing frames.
    /// The in-LWK promoted `read()` path uses this to produce its
    /// result bytes; a per-call staging buffer would dominate its cost.
    pub fn fill(&mut self, addr: PhysAddr, len: u64, byte: u8) {
        let mut cur = addr;
        let mut rest = len as usize;
        while rest > 0 {
            let frame = FrameId::containing(cur);
            let off = cur.page_offset() as usize;
            let n = rest.min(PAGE_SIZE as usize - off);
            let buf = self
                .content
                .entry(frame)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            buf[off..off + n].fill(byte);
            rest -= n;
            cur = cur + n as u64;
        }
    }

    /// Read bytes at a physical address (may span frames). Unmaterialized
    /// frames read as zero.
    pub fn read(&self, addr: PhysAddr, out: &mut [u8]) {
        let mut cur = addr;
        let mut done = 0;
        while done < out.len() {
            let frame = FrameId::containing(cur);
            let off = cur.page_offset() as usize;
            let n = (out.len() - done).min(PAGE_SIZE as usize - off);
            match self.content.get(&frame) {
                Some(buf) => out[done..done + n].copy_from_slice(&buf[off..off + n]),
                None => out[done..done + n].fill(0),
            }
            done += n;
            cur = cur + n as u64;
        }
    }

    /// Convenience: read a `u64` (little-endian) at `addr`.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: write a `u64` (little-endian) at `addr`.
    pub fn write_u64(&mut self, addr: PhysAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Number of materialized frames (diagnostic / memory accounting).
    pub fn resident_frames(&self) -> usize {
        self.content.len()
    }

    /// Drop the contents of every frame in `[start, start+len)` (e.g. when
    /// the LWK partition is released back to Linux). Costs O(materialized
    /// frames), not O(range): a released 16 GiB partition spans 4M frames
    /// but has touched only a few of them.
    pub fn clear_range(&mut self, start: PhysAddr, len: u64) {
        let lo = start.raw() >> PAGE_SHIFT;
        let hi = (start.raw() + len + PAGE_SIZE - 1) >> PAGE_SHIFT;
        self.content.retain(|f, _| f.0 < lo || f.0 >= hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numa_split() {
        let m = PhysMemory::paper_testbed();
        assert_eq!(m.ram_bytes(), 64 << 30);
        assert_eq!(m.numa_of(PhysAddr(0)), Some(NumaId(0)));
        assert_eq!(m.numa_of(PhysAddr((32 << 30) - 1)), Some(NumaId(0)));
        assert_eq!(m.numa_of(PhysAddr(32 << 30)), Some(NumaId(1)));
        assert_eq!(m.numa_of(PhysAddr(64 << 30)), None);
        let (s, e) = m.numa_range(NumaId(1));
        assert_eq!((s.raw(), e.raw()), (32 << 30, 64 << 30));
    }

    #[test]
    fn ownership_split_and_query() {
        let mut m = PhysMemory::new(1 << 30, 1);
        assert_eq!(m.owner_of(PhysAddr(0x5000)), FrameOwner::Linux);
        m.set_owner(PhysAddr(0x100000), 0x100000, FrameOwner::Lwk);
        assert_eq!(m.owner_of(PhysAddr(0x100000)), FrameOwner::Lwk);
        assert_eq!(m.owner_of(PhysAddr(0x1fffff)), FrameOwner::Lwk);
        assert_eq!(m.owner_of(PhysAddr(0x200000)), FrameOwner::Linux);
        assert_eq!(m.owner_of(PhysAddr(0xfffff)), FrameOwner::Linux);
        assert_eq!(m.bytes_owned_by(FrameOwner::Lwk), 0x100000);
    }

    #[test]
    fn ownership_release_coalesces() {
        let mut m = PhysMemory::new(1 << 30, 1);
        m.set_owner(PhysAddr(0x100000), 0x100000, FrameOwner::Lwk);
        assert_eq!(m.interval_count(), 3);
        m.set_owner(PhysAddr(0x100000), 0x100000, FrameOwner::Linux);
        assert_eq!(m.interval_count(), 1, "release should coalesce back");
        assert_eq!(m.bytes_owned_by(FrameOwner::Linux), 1 << 30);
    }

    #[test]
    fn overlapping_reservation_overwrites() {
        let mut m = PhysMemory::new(1 << 30, 1);
        m.set_owner(PhysAddr(0x100000), 0x200000, FrameOwner::Lwk);
        m.set_owner(PhysAddr(0x200000), 0x200000, FrameOwner::Mmio);
        assert_eq!(m.owner_of(PhysAddr(0x150000)), FrameOwner::Lwk);
        assert_eq!(m.owner_of(PhysAddr(0x250000)), FrameOwner::Mmio);
        assert_eq!(m.owner_of(PhysAddr(0x3f0000)), FrameOwner::Mmio);
        assert_eq!(m.owner_of(PhysAddr(0x400000)), FrameOwner::Linux);
    }

    #[test]
    fn reserve_release_churn_coalesces_fully() {
        // Regression guard for set_owner/coalesce_around bookkeeping:
        // repeated reserve/release churn must never leave adjacent
        // same-owner intervals unmerged (interval_count creeping up
        // round over round would make every later set_owner slower).
        let mut m = PhysMemory::new(64 << 20, 1);
        let blk = 1u64 << 20;
        for round in 0..50u64 {
            // Checkerboard reserve (every other block)...
            for i in (0..32u64).step_by(2) {
                m.set_owner(PhysAddr(i * blk), blk, FrameOwner::Lwk);
            }
            assert_eq!(m.interval_count(), 32, "round {round}: checkerboard");
            // ...then fill the holes: one Lwk run + the Linux tail.
            for i in (1..32u64).step_by(2) {
                m.set_owner(PhysAddr(i * blk), blk, FrameOwner::Lwk);
            }
            assert!(m.range_uniformly_owned(PhysAddr(0), 32 * blk, FrameOwner::Lwk));
            assert_eq!(m.interval_count(), 2, "round {round}: holes filled");
            // Release in descending order: each release must merge with
            // the growing Linux successor immediately.
            for i in (0..32u64).rev() {
                m.set_owner(PhysAddr(i * blk), blk, FrameOwner::Linux);
                assert!(m.interval_count() <= 3, "round {round}: release {i}");
            }
            assert_eq!(m.interval_count(), 1, "round {round}: fully coalesced");
            assert_eq!(m.bytes_owned_by(FrameOwner::Linux), 64 << 20);
        }
    }

    #[test]
    fn same_owner_reinsert_does_not_fragment() {
        let mut m = PhysMemory::new(16 << 20, 1);
        // Re-marking a sub-range with its current owner must stay one
        // interval (pred merge then succ merge across the insert).
        m.set_owner(PhysAddr(4 << 20), 4 << 20, FrameOwner::Linux);
        assert_eq!(m.interval_count(), 1);
        // Same-owner neighbors created independently coalesce too.
        m.set_owner(PhysAddr(0), 2 << 20, FrameOwner::Lwk);
        m.set_owner(PhysAddr(2 << 20), 2 << 20, FrameOwner::Lwk);
        assert_eq!(m.interval_count(), 2);
        assert_eq!(m.bytes_owned_by(FrameOwner::Lwk), 4 << 20);
    }

    #[test]
    fn mmio_above_ram() {
        let m = PhysMemory::new(1 << 30, 1);
        assert_eq!(m.owner_of(PhysAddr(2 << 30)), FrameOwner::Mmio);
    }

    #[test]
    fn read_write_round_trip_across_frames() {
        let mut m = PhysMemory::new(1 << 20, 1);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let addr = PhysAddr(0x0fff); // deliberately unaligned, spans frames
        m.write(addr, &data);
        let mut back = vec![0u8; data.len()];
        m.read(addr, &mut back);
        assert_eq!(back, data);
        assert!(m.resident_frames() >= 3);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = PhysMemory::new(1 << 20, 1);
        let mut buf = [1u8; 64];
        m.read(PhysAddr(0x8000), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(m.resident_frames(), 0, "reads must not materialize frames");
    }

    #[test]
    fn u64_helpers() {
        let mut m = PhysMemory::new(1 << 20, 1);
        m.write_u64(PhysAddr(0x100), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(PhysAddr(0x100)), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn clear_range_drops_content() {
        let mut m = PhysMemory::new(1 << 20, 1);
        m.write_u64(PhysAddr(0x1000), 7);
        // Neighbours one page below and one page above the range.
        m.write_u64(PhysAddr(0x0), 5);
        m.write_u64(PhysAddr(0x2000), 9);
        m.clear_range(PhysAddr(0x1000), PAGE_SIZE);
        assert_eq!(m.read_u64(PhysAddr(0x1000)), 0);
        assert_eq!(m.read_u64(PhysAddr(0x0)), 5);
        assert_eq!(m.read_u64(PhysAddr(0x2000)), 9);
        assert_eq!(m.resident_frames(), 2);
    }
}
