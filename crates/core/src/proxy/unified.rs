//! The unified address space (Sec. III-A, Fig. 3).
//!
//! "The entire valid virtual address range of McKernel's application
//! user-space is covered by a special mapping in the proxy process for
//! which we use a pseudo file mapping in Linux... Every time an unmapped
//! address is accessed, the page fault handler of the pseudo mapping
//! consults the page tables corresponding to the application on the LWK
//! and maps it to the exact same physical page."
//!
//! The payoff is testable directly here: offloaded syscalls executed by
//! the proxy read and write **the application's bytes** through
//! [`UnifiedAddressSpace::read`]/[`write`](UnifiedAddressSpace::write),
//! which go va → (LWK page table) → physical frame → `PhysMemory`.
//! [`touch`](UnifiedAddressSpace::touch) resolves the same pages without
//! copying, for a buffer whose bytes nothing in the model reads, and
//! [`fill`](UnifiedAddressSpace::fill) writes one repeated byte without
//! a source buffer.

use crate::costs::CostModel;
use crate::mck::mem::pagetable::PageTable;
use crate::mck::mem::vm::{EXCLUDED_END, EXCLUDED_START, USER_END, USER_START};
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hwmodel::memory::PhysMemory;
use simcore::{Cycles, FastMap};
use std::ops::Range;

/// Faults the pseudo mapping can raise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UasFault {
    /// Address is inside the excluded proxy-image window — by construction
    /// the pseudo mapping does not cover it.
    ExcludedRange(VirtAddr),
    /// Address is outside McKernel's valid user range.
    OutOfRange(VirtAddr),
    /// The LWK page tables have no translation: the *application* never
    /// touched this page either, so the access is a genuine EFAULT (the
    /// app would have passed a bad pointer).
    NotMappedOnLwk(VirtAddr),
}

/// Direct-mapped front-cache size. Every offloaded pointer dereference
/// lands here first; the authoritative `faulted` map is only consulted
/// (and hashed) on a front miss.
const FRONT_SLOTS: usize = 64;

/// Proxy-side pseudo-mapping state: which pages have been faulted in and
/// what they resolve to. `faulted` is authoritative; `front_tags`/
/// `front_base` are a small direct-mapped cache in front of it so the
/// steady-state resolve is an index + compare with no hash at all. It
/// still pays with the unseeded `FastMap` behind it: without it,
/// `fig_offload_hotpath` read `uas_warm_hit_ns` 4.7 ns against 3.2 and
/// `devmap_zero_copy_ns` 85 ns against 79 (medians of 5 alternating
/// rounds on a 2-vCPU host).
/// Observable behavior (fault/hit counts, resident PTEs, returned
/// addresses) is identical with the cache disabled.
#[derive(Debug)]
pub struct UnifiedAddressSpace {
    faulted: FastMap<u64, PhysAddr>,
    front_tags: [u64; FRONT_SLOTS],
    front_base: [PhysAddr; FRONT_SLOTS],
    fault_count: u64,
    hit_count: u64,
    invalidated: u64,
}

impl Default for UnifiedAddressSpace {
    fn default() -> Self {
        UnifiedAddressSpace {
            faulted: FastMap::default(),
            front_tags: [u64::MAX; FRONT_SLOTS],
            front_base: [PhysAddr(0); FRONT_SLOTS],
            fault_count: 0,
            hit_count: 0,
            invalidated: 0,
        }
    }
}

impl UnifiedAddressSpace {
    /// Empty pseudo mapping (no pages faulted).
    pub fn new() -> Self {
        UnifiedAddressSpace::default()
    }

    /// Resolve `va` to the physical page backing the application's memory,
    /// faulting the pseudo-mapping PTE in on first touch. Returns the
    /// physical address of the *byte* and the service cost (near zero for
    /// already-faulted pages).
    pub fn resolve(
        &mut self,
        va: VirtAddr,
        lwk_pt: &PageTable,
        costs: &CostModel,
    ) -> Result<(PhysAddr, Cycles), UasFault> {
        let raw = va.raw();
        if (EXCLUDED_START..EXCLUDED_END).contains(&raw) {
            return Err(UasFault::ExcludedRange(va));
        }
        if !(USER_START..USER_END).contains(&raw) {
            return Err(UasFault::OutOfRange(va));
        }
        let page = va.page_align_down().raw();
        let slot = ((page / PAGE_SIZE) as usize) % FRONT_SLOTS;
        if self.front_tags[slot] == page {
            self.hit_count += 1;
            return Ok((self.front_base[slot] + va.page_offset(), Cycles::ZERO));
        }
        if let Some(&base) = self.faulted.get(&page) {
            self.front_tags[slot] = page;
            self.front_base[slot] = base;
            self.hit_count += 1;
            return Ok((base + va.page_offset(), Cycles::ZERO));
        }
        let tr = lwk_pt
            .translate(va)
            .ok_or(UasFault::NotMappedOnLwk(va))?;
        let page_phys = tr.phys.page_align_down();
        self.faulted.insert(page, page_phys);
        self.front_tags[slot] = page;
        self.front_base[slot] = page_phys;
        self.fault_count += 1;
        Ok((page_phys + va.page_offset(), costs.unified_fault))
    }

    /// Resolve `[va, va+len)` page by page in address order, handing `f`
    /// each page's physical address and the byte range of the span it
    /// covers. Returns total fault cost; stops at the first fault.
    fn walk(
        &mut self,
        va: VirtAddr,
        len: usize,
        lwk_pt: &PageTable,
        costs: &CostModel,
        mut f: impl FnMut(PhysAddr, Range<usize>),
    ) -> Result<Cycles, UasFault> {
        let mut cost = Cycles::ZERO;
        let mut done = 0usize;
        while done < len {
            let cur = va + done as u64;
            let (pa, c) = self.resolve(cur, lwk_pt, costs)?;
            cost += c;
            let n = (len - done).min((PAGE_SIZE - cur.page_offset()) as usize);
            f(pa, done..done + n);
            done += n;
        }
        Ok(cost)
    }

    /// Proxy-side read of application memory (pointer-argument
    /// dereference during an offloaded syscall). Returns total fault cost.
    pub fn read(
        &mut self,
        va: VirtAddr,
        out: &mut [u8],
        lwk_pt: &PageTable,
        mem: &PhysMemory,
        costs: &CostModel,
    ) -> Result<Cycles, UasFault> {
        self.walk(va, out.len(), lwk_pt, costs, |pa, r| mem.read(pa, &mut out[r]))
    }

    /// [`read`](Self::read) of `len` bytes without the bytes: the same
    /// pages resolve in the same order, so the pseudo mapping, the
    /// counters, the cost and any fault are exactly `read`'s.
    pub fn touch(
        &mut self,
        va: VirtAddr,
        len: usize,
        lwk_pt: &PageTable,
        costs: &CostModel,
    ) -> Result<Cycles, UasFault> {
        self.walk(va, len, lwk_pt, costs, |_, _| {})
    }

    /// Proxy-side write into application memory (e.g. `/proc` reads).
    pub fn write(
        &mut self,
        va: VirtAddr,
        data: &[u8],
        lwk_pt: &PageTable,
        mem: &mut PhysMemory,
        costs: &CostModel,
    ) -> Result<Cycles, UasFault> {
        self.walk(va, data.len(), lwk_pt, costs, |pa, r| mem.write(pa, &data[r]))
    }

    /// [`write`](Self::write) of `len` copies of `byte`, set in the
    /// backing frames with no source buffer (regular-file `read()`
    /// results): the same pages, counters, cost and faults as `write`,
    /// and the same bytes on every page before a fault.
    pub fn fill(
        &mut self,
        va: VirtAddr,
        len: usize,
        byte: u8,
        lwk_pt: &PageTable,
        mem: &mut PhysMemory,
        costs: &CostModel,
    ) -> Result<Cycles, UasFault> {
        self.walk(va, len, lwk_pt, costs, |pa, r| mem.fill(pa, r.len() as u64, byte))
    }

    /// Batch-prefault every page of `[start, start+len)` in one sweep —
    /// the Linux-side half of a zero-copy device mmap, where the proxy
    /// pre-populates its pseudo mapping instead of taking one
    /// `unified_fault` per later pointer dereference. Returns the pages
    /// resolved and the total (one-time) fault cost.
    pub fn prefault_range(
        &mut self,
        start: VirtAddr,
        len: u64,
        lwk_pt: &PageTable,
        costs: &CostModel,
    ) -> Result<(u64, Cycles), UasFault> {
        let mut cost = Cycles::ZERO;
        let mut pages = 0u64;
        let mut va = start.page_align_down();
        let end = start.raw() + len;
        while va.raw() < end {
            let (_, c) = self.resolve(va, lwk_pt, costs)?;
            cost += c;
            pages += 1;
            va = va + PAGE_SIZE;
        }
        Ok((pages, cost))
    }

    /// Synchronization on `munmap`: "Linux' page table entries in the
    /// pseudo mapping have to be occasionally synchronized with McKernel,
    /// for instance, when the application calls munmap()". Returns the
    /// number of PTEs shot down.
    pub fn invalidate_range(&mut self, start: VirtAddr, len: u64) -> u64 {
        let s = start.page_align_down().raw();
        let e = start.raw() + len;
        let before = self.faulted.len();
        self.faulted.retain(|&page, _| page < s || page >= e);
        // Shoot down the front cache wholesale: invalidation is the cold
        // path and a full flush can never leave a stale translation behind.
        self.front_tags = [u64::MAX; FRONT_SLOTS];
        let removed = (before - self.faulted.len()) as u64;
        self.invalidated += removed;
        removed
    }

    /// (first-touch faults, cached hits, invalidated PTEs).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.fault_count, self.hit_count, self.invalidated)
    }

    /// Populated pseudo-mapping PTE count.
    pub fn resident_ptes(&self) -> usize {
        self.faulted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mck::mem::pagetable::PteFlags;

    fn setup() -> (PageTable, PhysMemory, CostModel) {
        let mut pt = PageTable::new();
        pt.map_4k(VirtAddr(0x100_0000), PhysAddr(0x20_0000), PteFlags::rw())
            .unwrap();
        pt.map_4k(VirtAddr(0x100_1000), PhysAddr(0x5_0000), PteFlags::rw())
            .unwrap();
        (pt, PhysMemory::new(1 << 30, 1), CostModel::default())
    }

    #[test]
    fn resolves_to_the_exact_same_physical_page() {
        let (pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        let (pa, cost) = uas.resolve(VirtAddr(0x100_0123), &pt, &costs).unwrap();
        assert_eq!(pa, PhysAddr(0x20_0123));
        assert_eq!(cost, costs.unified_fault);
        // Second access: PTE cached, no fault cost.
        let (pa2, cost2) = uas.resolve(VirtAddr(0x100_0456), &pt, &costs).unwrap();
        assert_eq!(pa2, PhysAddr(0x20_0456));
        assert_eq!(cost2, Cycles::ZERO);
        assert_eq!(uas.stats().0, 1);
        assert_eq!(uas.stats().1, 1);
    }

    #[test]
    fn proxy_sees_app_bytes() {
        let (pt, mut mem, costs) = setup();
        // The "application" wrote through its own mapping.
        mem.write(PhysAddr(0x20_0100), b"syscall-arg-buffer");
        let mut uas = UnifiedAddressSpace::new();
        let mut buf = [0u8; 18];
        uas.read(VirtAddr(0x100_0100), &mut buf, &pt, &mem, &costs)
            .unwrap();
        assert_eq!(&buf, b"syscall-arg-buffer");
    }

    #[test]
    fn proxy_writes_are_visible_to_app() {
        let (pt, mut mem, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        uas.write(VirtAddr(0x100_0800), b"result", &pt, &mut mem, &costs)
            .unwrap();
        // The app reads through its own translation.
        let pa = pt.translate(VirtAddr(0x100_0800)).unwrap().phys;
        let mut back = [0u8; 6];
        mem.read(pa, &mut back);
        assert_eq!(&back, b"result");
        // `fill` lands the same way across discontiguous frames, and a
        // fault leaves the pages before it filled, as `write` does.
        let fc = uas
            .fill(VirtAddr(0x100_0ff8), 16, 0xAB, &pt, &mut mem, &costs)
            .unwrap();
        assert_eq!(fc, costs.unified_fault, "second page faults in");
        let mut span = [0u8; 16];
        uas.read(VirtAddr(0x100_0ff8), &mut span, &pt, &mem, &costs)
            .unwrap();
        assert_eq!(span, [0xAB; 16]);
        let tail = VirtAddr(0x100_1ff8);
        assert_eq!(
            uas.fill(tail, 16, 0xCD, &pt, &mut mem, &costs),
            Err(UasFault::NotMappedOnLwk(VirtAddr(0x100_2000)))
        );
        let mut head = [0u8; 8];
        uas.read(tail, &mut head, &pt, &mem, &costs).unwrap();
        assert_eq!(head, [0xCD; 8]);
    }

    #[test]
    fn cross_page_read_spans_discontiguous_frames() {
        let (pt, mut mem, costs) = setup();
        // Pages 0x100_0000 and 0x100_1000 map to wildly different frames.
        mem.write(PhysAddr(0x20_0000 + 0xff0), b"AAAABBBBCCCCDDDD");
        // ... but only the first 16 bytes of that write are on page one;
        // emulate the app writing the tail on the second page.
        mem.write(PhysAddr(0x5_0000), b"tail-on-page-two");
        let mut uas = UnifiedAddressSpace::new();
        let mut buf = [0u8; 32];
        uas.read(VirtAddr(0x100_0ff0), &mut buf, &pt, &mem, &costs)
            .unwrap();
        assert_eq!(&buf[..16], b"AAAABBBBCCCCDDDD");
        assert_eq!(&buf[16..], b"tail-on-page-two");
        assert_eq!(uas.resident_ptes(), 2);
    }

    #[test]
    fn prefault_range_populates_in_one_sweep() {
        let (pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        let (pages, cost) = uas
            .prefault_range(VirtAddr(0x100_0000), 2 * PAGE_SIZE, &pt, &costs)
            .unwrap();
        assert_eq!(pages, 2);
        assert_eq!(cost, costs.unified_fault * 2);
        assert_eq!(uas.resident_ptes(), 2);
        // Later dereferences are all hits: the prefault paid everything.
        let (_, c) = uas.resolve(VirtAddr(0x100_0abc), &pt, &costs).unwrap();
        assert_eq!(c, Cycles::ZERO);
        // Prefaulting again is free (already resident).
        let (pages2, cost2) = uas
            .prefault_range(VirtAddr(0x100_0000), 2 * PAGE_SIZE, &pt, &costs)
            .unwrap();
        assert_eq!((pages2, cost2), (2, Cycles::ZERO));
        // A range the app never mapped propagates the EFAULT.
        assert!(uas
            .prefault_range(VirtAddr(0x7000_0000), PAGE_SIZE, &pt, &costs)
            .is_err());
    }

    #[test]
    fn excluded_range_faults() {
        let (pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        let va = VirtAddr(EXCLUDED_START + 0x1000);
        assert_eq!(
            uas.resolve(va, &pt, &costs),
            Err(UasFault::ExcludedRange(va))
        );
        assert_eq!(
            uas.touch(va, 16, &pt, &costs),
            Err(UasFault::ExcludedRange(va))
        );
    }

    #[test]
    fn unmapped_app_page_is_efault() {
        let (pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        let va = VirtAddr(0x7000_0000);
        assert_eq!(
            uas.resolve(va, &pt, &costs),
            Err(UasFault::NotMappedOnLwk(va))
        );
    }

    #[test]
    fn out_of_user_range_rejected() {
        let (pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        assert_eq!(
            uas.resolve(VirtAddr(0x100), &pt, &costs),
            Err(UasFault::OutOfRange(VirtAddr(0x100)))
        );
        assert_eq!(
            uas.resolve(VirtAddr(USER_END + 0x1000), &pt, &costs),
            Err(UasFault::OutOfRange(VirtAddr(USER_END + 0x1000)))
        );
        assert_eq!(
            uas.touch(VirtAddr(0x100), 16, &pt, &costs),
            Err(UasFault::OutOfRange(VirtAddr(0x100)))
        );
    }

    #[test]
    fn munmap_sync_invalidates_pseudo_ptes() {
        let (pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        uas.resolve(VirtAddr(0x100_0000), &pt, &costs).unwrap();
        uas.resolve(VirtAddr(0x100_1000), &pt, &costs).unwrap();
        assert_eq!(uas.resident_ptes(), 2);
        let n = uas.invalidate_range(VirtAddr(0x100_0000), 0x1000);
        assert_eq!(n, 1);
        assert_eq!(uas.resident_ptes(), 1);
        // After invalidation, a fresh access re-faults (and would observe a
        // *new* translation if McKernel remapped the page).
        let (_, cost) = uas.resolve(VirtAddr(0x100_0000), &pt, &costs).unwrap();
        assert_eq!(cost, costs.unified_fault);
    }

    #[test]
    fn front_cache_aliases_never_mix_pages() {
        // Two pages FRONT_SLOTS apart share a direct-mapped slot; ping-pong
        // accesses must keep returning each page's own frame, with the
        // same counter evolution as the cache-free implementation.
        let (mut pt, _, costs) = setup();
        let stride = FRONT_SLOTS as u64 * PAGE_SIZE;
        pt.map_4k(
            VirtAddr(0x100_0000 + stride),
            PhysAddr(0x9_0000),
            PteFlags::rw(),
        )
        .unwrap();
        let mut uas = UnifiedAddressSpace::new();
        for _ in 0..4 {
            let (a, _) = uas.resolve(VirtAddr(0x100_0000), &pt, &costs).unwrap();
            let (b, _) = uas
                .resolve(VirtAddr(0x100_0000 + stride), &pt, &costs)
                .unwrap();
            assert_eq!(a, PhysAddr(0x20_0000));
            assert_eq!(b, PhysAddr(0x9_0000));
        }
        let (faults, hits, _) = uas.stats();
        assert_eq!(faults, 2, "one first-touch fault per page");
        assert_eq!(hits, 6, "every later access counts as a hit");
    }

    #[test]
    fn stale_translation_detected_after_remap() {
        // Documented semantics: invalidate-then-refault picks up remaps.
        let (mut pt, _, costs) = setup();
        let mut uas = UnifiedAddressSpace::new();
        let va = VirtAddr(0x100_0000);
        let (pa1, _) = uas.resolve(va, &pt, &costs).unwrap();
        // McKernel unmaps and remaps the page to a different frame.
        pt.unmap(va);
        pt.map_4k(va, PhysAddr(0x77_0000), PteFlags::rw()).unwrap();
        uas.invalidate_range(va, PAGE_SIZE);
        let (pa2, _) = uas.resolve(va, &pt, &costs).unwrap();
        assert_ne!(pa1.page_align_down(), pa2.page_align_down());
        assert_eq!(pa2, PhysAddr(0x77_0000));
    }
}
