//! Physical page-frame allocation for the LWK partition.
//!
//! Two layers live here:
//!
//! * [`BuddyAllocator`] — a flat, index-based binary buddy over one
//!   physically contiguous range: per-order intrusive free lists threaded
//!   through a flat per-frame metadata table plus a buddy-pair bitmap.
//!   Alloc, free and coalescing are all O(1) with no search; the only
//!   heap activity is the metadata growing by one max-order block when
//!   the virgin watermark advances.
//! * [`FrameAllocator`] — the kernel-facing engine: one buddy over the
//!   partition (IHK reserves it from one NUMA domain) fronted by per-CPU
//!   page-frame caches (PCP lists, Linux-style) for order-0 and 2 MiB
//!   blocks. A cache miss refills a batch, so steady-state faults rarely
//!   touch the shared buddy; frees go straight back to the buddy.
//!
//! Two properties matter for the paper:
//!
//! * **Contiguity**: the buddy structure hands out naturally aligned,
//!   physically contiguous blocks, letting anonymous mappings be backed by
//!   2 MiB extents — the mechanism behind McKernel's TLB/LLC advantage
//!   ("contiguous physical memory behind anonymous mappings", Sec. IV-B3).
//! * **Determinism**: the allocation policy is a pure function of the
//!   operation history. Free lists are LIFO; blocks split low-half-first;
//!   never-touched memory is carved from an ascending *virgin watermark*;
//!   PCP refills happen in fixed batches. Replays are bit-identical.
//!
//! The metadata arrays cover only the frames below the virgin watermark
//! and grow by one max-order block each time it advances, so host memory
//! follows the memory the model touches: a 16 GiB partition that faults a
//! few megabytes holds metadata for a few 4 MiB blocks, not for 4 Mi
//! frames. (A zeroed array sized to the partition is not free: once
//! glibc's mmap threshold has risen, it comes from recycled heap chunks
//! and is memset whole.)

use hwmodel::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};

/// Maximum buddy order: 2^10 pages = 4 MiB blocks.
pub const MAX_ORDER: u8 = 10;

/// Order of a 2 MiB block.
pub const ORDER_2M: u8 = 9;

const NUM_ORDERS: usize = MAX_ORDER as usize + 1;

/// Frames in one max-order block: the unit the watermark and the
/// metadata grow by.
const BLOCK_FRAMES: u64 = 1 << MAX_ORDER;

/// Free-list sentinel ("no frame").
const NIL: u32 = u32::MAX;

/// Frame states stored in the per-frame tag byte (high nibble).
const S_TAIL: u8 = 0; // interior of some block (or never touched)
const S_FREE: u8 = 1; // head of a free block on a free list
const S_ALLOC: u8 = 2; // head of a live allocation
const S_CACHED: u8 = 3; // head of a block parked in a per-CPU cache

/// Errors from the allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// No free block of the requested (or any higher) order.
    OutOfMemory,
    /// `free` of an address that is not an allocated block start.
    BadFree(PhysAddr),
}

/// Binary buddy allocator over `[base, base+len)` — flat metadata, O(1)
/// alloc/free/coalesce.
///
/// Implementation notes (the DESIGN.md frame-metadata section mirrors
/// this):
/// * `tag[f]` holds the frame state in the high nibble and the block
///   order in the low nibble; only block *heads* carry state, interior
///   frames stay `S_TAIL`.
/// * `next`/`prev` are intrusive doubly-linked free-list links, valid
///   only while a frame heads a free block.
/// * `pair_bits` holds one bit per buddy pair per order, toggled whenever
///   either buddy enters or leaves that order's free list. While freeing
///   a block (itself not on a list), the bit is `1` iff its buddy is free
///   at the same order — the O(1) coalesce test. Each max-order block
///   owns 1024 consecutive bits, one per frame, in binary-tree order:
///   order `o`'s pairs start at bit `512 >> o` of them.
/// * `virgin` is the offset of the first never-used frame; everything at
///   or above it is free by definition and is carved in max-order blocks
///   as the free lists run dry. All four arrays cover exactly the frames
///   below it, so a carve appends one block to each.
#[derive(Debug)]
pub struct BuddyAllocator {
    base: PhysAddr,
    len: u64,
    pages: u64,
    /// Intrusive free-list forward links (valid for `S_FREE` heads).
    next: Vec<u32>,
    /// Intrusive free-list back links (valid for `S_FREE` heads).
    prev: Vec<u32>,
    /// state << 4 | order, per frame.
    tag: Vec<u8>,
    /// Buddy-pair bits for orders `0..MAX_ORDER`, 1024 per max-order
    /// block (see `pair_bit`).
    pair_bits: Vec<u64>,
    /// Free-list heads per order.
    heads: [u32; NUM_ORDERS],
    /// First never-touched page offset (ascending watermark).
    virgin: u64,
    free_pages: u64,
    /// Live allocations (excludes cache-parked blocks).
    live: u64,
    /// Blocks parked in per-CPU caches (heads in state `S_CACHED`).
    cached_blocks: u64,
}

impl BuddyAllocator {
    /// Manage `[base, base+len)`. Both must be 4 MiB aligned so every
    /// maximal block is naturally aligned.
    pub fn new(base: PhysAddr, len: u64) -> Self {
        let block = PAGE_SIZE << MAX_ORDER;
        assert!(len > 0 && len % block == 0, "length must be 4MiB aligned");
        assert_eq!(base.raw() % block, 0, "base must be 4MiB aligned");
        let pages = len >> PAGE_SHIFT;
        assert!(pages < u64::from(NIL), "partition too large for u32 links");
        BuddyAllocator {
            base,
            len,
            pages,
            // Empty: metadata arrives with the first carve.
            next: Vec::new(),
            prev: Vec::new(),
            tag: Vec::new(),
            pair_bits: Vec::new(),
            heads: [NIL; NUM_ORDERS],
            virgin: 0,
            free_pages: pages,
            live: 0,
            cached_blocks: 0,
        }
    }

    /// Managed range start.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Managed range length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Free bytes remaining (cache-parked blocks count as *allocated*
    /// here; [`FrameAllocator`] adds them back).
    pub fn free_bytes(&self) -> u64 {
        self.free_pages << PAGE_SHIFT
    }

    /// Largest order with a free block, if any.
    pub fn largest_free_order(&self) -> Option<u8> {
        if self.pages - self.virgin >= 1 << MAX_ORDER {
            return Some(MAX_ORDER);
        }
        (0..=MAX_ORDER).rev().find(|&o| self.heads[o as usize] != NIL)
    }

    /// Frame offset of `addr` if it lies below the watermark, the only
    /// frames with metadata (nothing above it is allocated or cached).
    /// Each entry point that takes an address checks here once, so the
    /// accessors below index directly.
    #[inline]
    fn touched_frame(&self, addr: PhysAddr) -> Result<u64, AllocError> {
        match addr.raw().checked_sub(self.base.raw()) {
            Some(bytes) if bytes >> PAGE_SHIFT < self.virgin => Ok(bytes >> PAGE_SHIFT),
            _ => Err(AllocError::BadFree(addr)),
        }
    }

    #[inline]
    fn state_of(&self, off: u64) -> u8 {
        self.tag[off as usize] >> 4
    }

    #[inline]
    fn order_of(&self, off: u64) -> u8 {
        self.tag[off as usize] & 0xf
    }

    #[inline]
    fn set_tag(&mut self, off: u64, state: u8, order: u8) {
        self.tag[off as usize] = state << 4 | order;
    }

    /// Toggle the buddy-pair bit of `off` at `order` (no pairs exist at
    /// `MAX_ORDER`).
    #[inline]
    fn toggle_pair(&mut self, order: u8, off: u64) {
        if order < MAX_ORDER {
            let (w, mask) = pair_bit(order, off);
            self.pair_bits[w] ^= mask;
        }
    }

    /// Whether exactly one of the pair containing `off` is free at
    /// `order`. Called while `off` itself is *not* free, so a set bit
    /// means "the buddy is free at this order".
    #[inline]
    fn buddy_is_free(&self, order: u8, off: u64) -> bool {
        if order >= MAX_ORDER {
            return false;
        }
        let (w, mask) = pair_bit(order, off);
        self.pair_bits[w] & mask != 0
    }

    /// Push `off` onto `order`'s free list (LIFO) and flag it free.
    #[inline]
    fn push_free(&mut self, order: u8, off: u64) {
        let o = order as usize;
        let head = self.heads[o];
        self.next[off as usize] = head;
        self.prev[off as usize] = NIL;
        if head != NIL {
            self.prev[head as usize] = off as u32;
        }
        self.heads[o] = off as u32;
        self.set_tag(off, S_FREE, order);
        self.toggle_pair(order, off);
    }

    /// Unlink the free block headed at `off` from `order`'s list.
    #[inline]
    fn unlink_free(&mut self, order: u8, off: u64) {
        let (p, n) = (self.prev[off as usize], self.next[off as usize]);
        if p == NIL {
            self.heads[order as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.set_tag(off, S_TAIL, 0);
        self.toggle_pair(order, off);
    }

    /// Allocate a block of `1 << order` pages, naturally aligned.
    ///
    /// Policy (deterministic): the smallest populated order >= the
    /// request is split LIFO-first; when no list can serve it, one
    /// max-order block is carved off the ascending virgin watermark.
    pub fn alloc(&mut self, order: u8) -> Result<PhysAddr, AllocError> {
        assert!(order <= MAX_ORDER, "order {order} > MAX_ORDER");
        let mut o = order;
        while o <= MAX_ORDER && self.heads[o as usize] == NIL {
            o += 1;
        }
        let off = if o <= MAX_ORDER {
            let off = u64::from(self.heads[o as usize]);
            self.unlink_free(o, off);
            off
        } else {
            o = MAX_ORDER;
            self.carve()?
        };
        // Split down to the requested order, freeing the upper halves.
        while o > order {
            o -= 1;
            self.push_free(o, off + (1u64 << o));
        }
        self.set_tag(off, S_ALLOC, order);
        self.free_pages -= 1u64 << order;
        self.live += 1;
        Ok(self.base + (off << PAGE_SHIFT))
    }

    /// Lists dry: carve a pristine max-order block off the watermark and
    /// extend the metadata over it (zeroed: all `S_TAIL`, no pair bit
    /// set). Out of line, so the list path of `alloc` stays small: inline,
    /// the growth made alloc/free churn about 8% slower.
    #[cold]
    #[inline(never)]
    fn carve(&mut self) -> Result<u64, AllocError> {
        if self.pages - self.virgin < BLOCK_FRAMES {
            return Err(AllocError::OutOfMemory);
        }
        let off = self.virgin;
        self.virgin += BLOCK_FRAMES;
        let frames = self.virgin as usize;
        self.next.resize(frames, 0);
        self.prev.resize(frames, 0);
        self.tag.resize(frames, 0);
        self.pair_bits.resize(frames / 64, 0);
        Ok(off)
    }

    /// Free a previously allocated block (identified by its start
    /// address). O(1): the buddy-pair bitmap answers the coalesce
    /// question without any search.
    pub fn free(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        let mut off = self.touched_frame(addr)?;
        if self.state_of(off) != S_ALLOC {
            return Err(AllocError::BadFree(addr));
        }
        let order = self.order_of(off);
        self.set_tag(off, S_TAIL, 0);
        self.free_pages += 1u64 << order;
        self.live -= 1;
        // Coalesce upward while the buddy is free at the same order.
        let mut o = order;
        while o < MAX_ORDER && self.buddy_is_free(o, off) {
            let buddy = off ^ (1u64 << o);
            self.unlink_free(o, buddy);
            off = off.min(buddy);
            o += 1;
        }
        self.push_free(o, off);
        Ok(())
    }

    /// Park an allocated block in a per-CPU cache: the head flips to
    /// `S_CACHED` and stops counting as a live allocation (a second
    /// `free` of the same address is still rejected). Returns the order.
    pub(crate) fn cache_block(&mut self, addr: PhysAddr) -> Result<u8, AllocError> {
        let off = self.touched_frame(addr)?;
        if self.state_of(off) != S_ALLOC {
            return Err(AllocError::BadFree(addr));
        }
        let order = self.order_of(off);
        self.set_tag(off, S_CACHED, order);
        self.live -= 1;
        self.cached_blocks += 1;
        Ok(order)
    }

    /// Take a cache-parked block back out as a live allocation.
    pub(crate) fn uncache_block(&mut self, addr: PhysAddr) -> Result<u8, AllocError> {
        let off = self.touched_frame(addr)?;
        if self.state_of(off) != S_CACHED {
            return Err(AllocError::BadFree(addr));
        }
        let order = self.order_of(off);
        self.set_tag(off, S_ALLOC, order);
        self.live += 1;
        self.cached_blocks -= 1;
        Ok(order)
    }

    /// Number of live allocations (cache-parked blocks excluded).
    pub fn allocation_count(&self) -> usize {
        self.live as usize
    }

    /// Internal consistency check (used by tests and debug assertions):
    /// metadata sized to the watermark, free lists disjoint from
    /// allocations, page accounting exact, buddy-pair bitmap consistent
    /// with the lists.
    pub fn check_invariants(&self) -> Result<(), String> {
        let frames = self.virgin as usize;
        let lens = [
            self.next.len(),
            self.prev.len(),
            self.tag.len(),
            self.pair_bits.len() * 64,
        ];
        if lens != [frames; 4] {
            return Err(format!(
                "metadata covers {lens:?} frames, watermark at {frames}"
            ));
        }
        let mut covered = vec![false; frames];
        let mut free_counted = 0u64;
        let mut live = 0u64;
        let mut cached = 0u64;
        let mut f = 0u64;
        while f < self.virgin {
            let state = self.state_of(f);
            let order = self.order_of(f);
            match state {
                S_TAIL => {
                    f += 1;
                    continue;
                }
                S_FREE | S_ALLOC | S_CACHED => {
                    if f % (1 << order) != 0 {
                        return Err(format!("block {f} misaligned for order {order}"));
                    }
                    if f + (1 << order) > self.virgin {
                        return Err(format!("block {f} crosses the virgin watermark"));
                    }
                    for p in f..f + (1 << order) {
                        if covered[p as usize] {
                            return Err(format!("page {p} covered twice"));
                        }
                        covered[p as usize] = true;
                        if p > f && self.state_of(p) != S_TAIL {
                            return Err(format!("interior page {p} not TAIL"));
                        }
                    }
                    match state {
                        S_FREE => free_counted += 1 << order,
                        S_ALLOC => live += 1,
                        _ => cached += 1,
                    }
                    f += 1 << order;
                }
                s => return Err(format!("frame {f} has invalid state {s}")),
            }
        }
        // Every page below the watermark must belong to some block: heads
        // cover their interiors, and a TAIL page outside any block is a
        // leak. Covered pages were marked above; the only uncovered pages
        // allowed are none.
        if let Some(p) = covered.iter().position(|&c| !c) {
            return Err(format!("page {p} below watermark belongs to no block"));
        }
        if live != self.live {
            return Err(format!("live count {live} vs tracked {}", self.live));
        }
        if cached != self.cached_blocks {
            return Err(format!(
                "cached count {cached} vs tracked {}",
                self.cached_blocks
            ));
        }
        if free_counted + (self.pages - self.virgin) != self.free_pages {
            return Err(format!(
                "free page accounting mismatch: {} listed + {} virgin vs {}",
                free_counted,
                self.pages - self.virgin,
                self.free_pages
            ));
        }
        // Free lists are well-linked and members are S_FREE at the order.
        for o in 0..NUM_ORDERS as u8 {
            let mut cur = self.heads[o as usize];
            let mut prev = NIL;
            while cur != NIL {
                let off = u64::from(cur);
                if self.state_of(off) != S_FREE || self.order_of(off) != o {
                    return Err(format!("list {o} holds non-free block {off}"));
                }
                if self.prev[cur as usize] != prev {
                    return Err(format!("broken prev link at {off} order {o}"));
                }
                prev = cur;
                cur = self.next[cur as usize];
            }
        }
        // Pair bitmap == XOR of the buddies' free-at-order states.
        for o in 0..MAX_ORDER {
            let step = 1u64 << (o + 1);
            let mut off = 0u64;
            while off < self.virgin {
                let left = self.state_of(off) == S_FREE && self.order_of(off) == o;
                let right_off = off + (1 << o);
                let right = right_off < self.virgin
                    && self.state_of(right_off) == S_FREE
                    && self.order_of(right_off) == o;
                let expect = left ^ right;
                let (w, mask) = pair_bit(o, off);
                let got = self.pair_bits[w] & mask != 0;
                if got != expect {
                    return Err(format!("pair bit wrong at off {off} order {o}"));
                }
                off += step;
            }
        }
        Ok(())
    }
}

/// Word index and mask of the buddy-pair bit of frame `off` at `order`
/// (`order < MAX_ORDER`). A max-order block owns 1024 bits, numbered
/// like an implicit binary tree: the pair holding frame `f` at order `o`
/// is bit `(1024 + f % 1024) >> (o + 1)` of its block. Order `o`'s
/// `512 >> o` pairs start at bit `512 >> o`, and bit 0 is unused.
#[inline]
fn pair_bit(order: u8, off: u64) -> (usize, u64) {
    let block = off & !(BLOCK_FRAMES - 1);
    let bit = block | ((off & (BLOCK_FRAMES - 1)) | BLOCK_FRAMES) >> (order + 1);
    ((bit >> 6) as usize, 1 << (bit & 63))
}

/// PCP (per-CPU page-frame cache) refill policy. Small = order-0,
/// large = 2 MiB. A miss pulls `*_BATCH` blocks from the buddy in one
/// trip; a cache only empties by hits or by a drain (core offline,
/// teardown audit). Compile-time policy: replays are deterministic.
pub const PCP_SMALL_BATCH: usize = 16;
/// Refill batch for the 2 MiB cache.
pub const PCP_LARGE_BATCH: usize = 2;

/// Allocator-side mechanism counters, cumulative since boot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Order-0 / 2 MiB allocations served straight from a PCP list.
    pub pcp_hit: u64,
    /// PCP refill trips to the shared buddy (each pulls a batch).
    pub pcp_refill: u64,
}

/// Per-CPU frame cache: LIFO stacks of cache-parked block addresses.
#[derive(Debug, Default)]
struct PcpCache {
    small: Vec<PhysAddr>,
    large: Vec<PhysAddr>,
}

/// The LWK physical-memory engine: the partition's buddy fronted by
/// per-CPU frame caches. See the module docs for the policy.
#[derive(Debug)]
pub struct FrameAllocator {
    buddy: BuddyAllocator,
    pcp: Vec<PcpCache>,
    /// Bytes currently parked in PCP caches (free from the kernel's
    /// point of view).
    cached_bytes: u64,
    /// Mechanism counters.
    pub stats: MemStats,
}

impl FrameAllocator {
    /// Engine over `[base, base+len)` (4 MiB aligned) for `ncpus` CPUs.
    pub fn new(base: PhysAddr, len: u64, ncpus: usize) -> Self {
        FrameAllocator {
            buddy: BuddyAllocator::new(base, len),
            pcp: (0..ncpus.max(1)).map(|_| PcpCache::default()).collect(),
            cached_bytes: 0,
            stats: MemStats::default(),
        }
    }

    /// Partition base.
    pub fn base(&self) -> PhysAddr {
        self.buddy.base()
    }

    /// Managed bytes.
    pub fn len_bytes(&self) -> u64 {
        self.buddy.len_bytes()
    }

    /// Free bytes: buddy free lists + virgin zone + PCP-parked blocks
    /// (parked frames are free, just cached close to a CPU).
    pub fn free_bytes(&self) -> u64 {
        self.buddy.free_bytes() + self.cached_bytes
    }

    /// Allocate a block of `1 << order` pages for `cpu`. Order-0 and
    /// 2 MiB requests go through the CPU's PCP cache; everything else
    /// hits the buddy directly.
    pub fn alloc_on(&mut self, cpu: usize, order: u8) -> Result<PhysAddr, AllocError> {
        let batch = match order {
            0 => PCP_SMALL_BATCH,
            ORDER_2M => PCP_LARGE_BATCH,
            _ => return self.buddy.alloc(order),
        };
        let ci = cpu.min(self.pcp.len() - 1);
        let cache = &mut self.pcp[ci];
        let list = if order == 0 {
            &mut cache.small
        } else {
            &mut cache.large
        };
        if let Some(pa) = list.pop() {
            self.stats.pcp_hit += 1;
            self.cached_bytes -= PAGE_SIZE << order;
            self.buddy.uncache_block(pa).expect("cached frame uncaches");
            return Ok(pa);
        }
        // Miss: refill a batch (minus one — the caller takes the first).
        self.stats.pcp_refill += 1;
        let first = self.buddy.alloc(order)?;
        for _ in 1..batch {
            // A partial refill is fine.
            let Ok(pa) = self.buddy.alloc(order) else {
                break;
            };
            self.buddy.cache_block(pa).expect("fresh block caches");
            self.cached_bytes += PAGE_SIZE << order;
            list.push(pa);
        }
        Ok(first)
    }

    /// Free a block straight to the buddy (munmap, process reap), where
    /// coalescing back to large blocks matters more than cache warmth.
    pub fn free(&mut self, addr: PhysAddr) -> Result<(), AllocError> {
        self.buddy.free(addr)
    }

    /// Live allocations (PCP-parked blocks excluded).
    pub fn allocation_count(&self) -> usize {
        self.buddy.allocation_count()
    }

    /// Largest free order (virgin zone included).
    pub fn largest_free_order(&self) -> Option<u8> {
        self.buddy.largest_free_order()
    }

    /// Return every PCP-parked block to the buddy (tests, teardown
    /// audits: full coalescing only happens once the caches are empty).
    pub fn drain_all(&mut self) {
        for ci in 0..self.pcp.len() {
            self.drain_index(ci);
        }
    }

    /// Return one CPU's parked blocks to the buddy (core going offline:
    /// a released core must not keep frames parked in its cache).
    pub fn drain_cpu(&mut self, cpu: usize) {
        self.drain_index(cpu % self.pcp.len());
    }

    /// Blocks currently parked in one CPU's cache — the release audit.
    pub fn pcp_cached_on(&self, cpu: usize) -> usize {
        let c = &self.pcp[cpu % self.pcp.len()];
        c.small.len() + c.large.len()
    }

    fn drain_index(&mut self, ci: usize) {
        let small = std::mem::take(&mut self.pcp[ci].small);
        let large = std::mem::take(&mut self.pcp[ci].large);
        for (list, order) in [(small, 0u8), (large, ORDER_2M)] {
            for pa in list {
                self.cached_bytes -= PAGE_SIZE << order;
                self.buddy.uncache_block(pa).expect("was cached");
                self.buddy.free(pa).expect("uncached block frees");
            }
        }
    }

    /// Run the buddy's invariant sweep (caches stay parked).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.buddy.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> BuddyAllocator {
        BuddyAllocator::new(PhysAddr(8 << 20), 16 << 20) // 16 MiB at 8 MiB
    }

    #[test]
    fn fresh_allocator_is_all_free() {
        let a = mk();
        assert_eq!(a.free_bytes(), 16 << 20);
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
        a.check_invariants().unwrap();
    }

    #[test]
    fn alloc_is_deterministic_and_aligned() {
        let mut a = mk();
        let p0 = a.alloc(0).unwrap();
        assert_eq!(p0, PhysAddr(8 << 20), "first alloc carves the base block");
        let p2m = a.alloc(ORDER_2M).unwrap();
        assert_eq!(p2m.raw() % (2 << 20), 0, "2M block naturally aligned");
        a.check_invariants().unwrap();
        // Same sequence on a fresh allocator replays identically.
        let mut b = mk();
        assert_eq!(b.alloc(0).unwrap(), p0);
        assert_eq!(b.alloc(ORDER_2M).unwrap(), p2m);
    }

    #[test]
    fn free_coalesces_back_to_max_order() {
        let mut a = mk();
        let mut blocks = Vec::new();
        loop {
            match a.alloc(0) {
                Ok(p) => blocks.push(p),
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("{e:?}"),
            }
        }
        assert_eq!(a.free_bytes(), 0);
        for p in blocks {
            a.free(p).unwrap();
        }
        assert_eq!(a.free_bytes(), 16 << 20);
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
        a.check_invariants().unwrap();
    }

    #[test]
    fn double_free_rejected() {
        let mut a = mk();
        let p = a.alloc(3).unwrap();
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(AllocError::BadFree(p)));
    }

    #[test]
    fn free_of_interior_address_rejected() {
        let mut a = mk();
        let p = a.alloc(2).unwrap();
        assert_eq!(
            a.free(p + PAGE_SIZE),
            Err(AllocError::BadFree(p + PAGE_SIZE))
        );
        assert_eq!(a.free(PhysAddr(0)), Err(AllocError::BadFree(PhysAddr(0))));
    }

    #[test]
    fn exhaustion_then_recovery() {
        let mut a = mk();
        let b1 = a.alloc(MAX_ORDER).unwrap();
        let b2 = a.alloc(MAX_ORDER).unwrap();
        let b3 = a.alloc(MAX_ORDER).unwrap();
        let b4 = a.alloc(MAX_ORDER).unwrap();
        assert_eq!(a.alloc(0), Err(AllocError::OutOfMemory));
        a.free(b2).unwrap();
        assert!(a.alloc(ORDER_2M).is_ok());
        for p in [b1, b3, b4] {
            a.free(p).unwrap();
        }
        a.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_churn_keeps_invariants() {
        let mut a = mk();
        let mut held = Vec::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                if let Ok(p) = a.alloc(((round + i) % 5) as u8) {
                    held.push(p);
                }
            }
            // Free every other block.
            let mut i = 0;
            held.retain(|&p| {
                i += 1;
                if i % 2 == 0 {
                    a.free(p).unwrap();
                    false
                } else {
                    true
                }
            });
        }
        a.check_invariants().unwrap();
        for p in held {
            a.free(p).unwrap();
        }
        assert_eq!(a.free_bytes(), 16 << 20);
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
        a.check_invariants().unwrap();
    }

    #[test]
    fn metadata_follows_the_watermark() {
        // A McKernel node's 16 GiB partition.
        let mut a = BuddyAllocator::new(PhysAddr(1 << 32), 16 << 30);
        let covered = |a: &BuddyAllocator| {
            [
                a.next.len(),
                a.prev.len(),
                a.tag.len(),
                a.pair_bits.len() * 64,
            ]
        };
        assert_eq!(covered(&a), [0; 4], "new allocates no metadata");
        let p = a.alloc(0).unwrap();
        let block = BLOCK_FRAMES as usize;
        assert_eq!(covered(&a), [block; 4], "one carve covers one block");
        // In range but above the watermark: no metadata, so no block.
        let above = a.base() + (BLOCK_FRAMES << PAGE_SHIFT);
        let last = a.base() + (a.len_bytes() - PAGE_SIZE);
        for q in [above, last] {
            assert_eq!(a.free(q), Err(AllocError::BadFree(q)));
            assert_eq!(a.cache_block(q), Err(AllocError::BadFree(q)));
            assert_eq!(a.uncache_block(q), Err(AllocError::BadFree(q)));
        }
        a.check_invariants().unwrap();
        a.free(p).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.free_bytes(), 16 << 30);
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
        // The split halves coalesced: the whole block is on the max-order
        // list, and taking it carves nothing new.
        assert_eq!(a.alloc(MAX_ORDER), Ok(a.base()));
        assert_eq!(covered(&a), [block; 4]);
    }

    fn mk_frames() -> FrameAllocator {
        // 16 MiB at 16 MiB, 4 CPUs.
        FrameAllocator::new(PhysAddr(16 << 20), 16 << 20, 4)
    }

    #[test]
    fn pcp_hits_after_refill() {
        let mut f = mk_frames();
        // First order-0 alloc refills the batch; the rest hit.
        let mut pages = Vec::new();
        for _ in 0..PCP_SMALL_BATCH {
            pages.push(f.alloc_on(1, 0).unwrap());
        }
        assert_eq!(f.stats.pcp_refill, 1);
        assert_eq!(f.stats.pcp_hit as usize, PCP_SMALL_BATCH - 1);
        assert_eq!(f.pcp_cached_on(1), 0, "batch consumed");
        for p in pages {
            f.free(p).unwrap();
        }
        assert_eq!(f.free_bytes(), f.len_bytes());
        f.check_invariants().unwrap();
    }

    #[test]
    fn large_blocks_cache_separately() {
        let mut f = mk_frames();
        // A 2 MiB miss parks the rest of its batch (the buddy half of
        // the first block) in the large cache; a parked block is not live.
        let p = f.alloc_on(0, ORDER_2M).unwrap();
        assert!(p.is_2m_aligned());
        assert_eq!(f.pcp_cached_on(0), PCP_LARGE_BATCH - 1);
        let parked = p + (PAGE_SIZE << ORDER_2M);
        assert_eq!(f.free(parked), Err(AllocError::BadFree(parked)));
        // An order-0 refill leaves the large cache alone...
        let small = f.alloc_on(0, 0).unwrap();
        assert_eq!(f.stats.pcp_refill, 2);
        // ...so the next 2 MiB request hits it.
        let q = f.alloc_on(0, ORDER_2M).unwrap();
        assert_eq!(q, parked);
        assert_eq!(f.stats.pcp_hit, 1);
        for b in [p, small, q] {
            f.free(b).unwrap();
        }
        f.drain_all();
        assert_eq!(f.free_bytes(), f.len_bytes());
        assert_eq!(f.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn replay_is_bit_identical() {
        let run = || {
            let mut f = mk_frames();
            let mut trace = Vec::new();
            let mut held: Vec<PhysAddr> = Vec::new();
            for i in 0..500u64 {
                match i % 7 {
                    0 | 1 | 4 => {
                        if let Ok(p) = f.alloc_on((i % 4) as usize, 0) {
                            trace.push(p.raw());
                            held.push(p);
                        }
                    }
                    2 => {
                        if let Ok(p) = f.alloc_on((i % 4) as usize, ORDER_2M) {
                            trace.push(p.raw());
                            held.push(p);
                        }
                    }
                    _ => {
                        if !held.is_empty() {
                            let p = held.swap_remove((i as usize * 31) % held.len());
                            f.free(p).unwrap();
                            trace.push(u64::MAX - p.raw());
                        }
                    }
                }
            }
            trace
        };
        assert_eq!(run(), run(), "policy is a pure function of history");
    }
}
