//! McKernel memory management: buddy allocator, page tables, VMAs, and the
//! demand-paging fault path that ties them together.

pub mod pagetable;
pub mod phys;
pub mod tlb;
pub mod vm;

use crate::abi::Errno;
use crate::costs::CostModel;
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE, PAGE_SIZE_2M};
use pagetable::{PageSize, PageTable, PteFlags, Translation};
use phys::{AllocError, FrameAllocator, ORDER_2M};
use simcore::Cycles;
use tlb::TlbSet;
use vm::{VmSpace, Vma, VmaKind};

/// Default per-CPU software-TLB count for an address space. McKernel
/// partitions model up to a socket's worth of LWK cores per process.
const DEFAULT_TLB_CPUS: usize = 8;

/// Fault-around window: on a 4 KiB fault, up to this many consecutive
/// PTEs are populated in one trap (clipped at the VMA end and the next
/// 2 MiB boundary, and stopping early at an already-mapped page). The
/// value mirrors Linux's `fault_around_bytes` default (64 KiB).
pub const FAULT_AROUND_PAGES: u64 = 16;

/// One process's address space: VMA tree + hardware page table, fronted
/// by per-CPU software TLBs ([`tlb::TlbSet`]). Hot-path callers
/// translate through [`AddressSpace::translate_on`]; every leaf removal
/// below goes through the shootdown hook so the caches never serve a
/// stale mapping.
#[derive(Debug)]
pub struct AddressSpace {
    /// VMA tree and layout policy.
    pub vm: VmSpace,
    /// Four-level page table.
    pub pt: PageTable,
    /// Per-CPU translation caches over `pt`.
    pub tlb: TlbSet,
}

impl AddressSpace {
    /// New space. `on_mckernel` enables the proxy-exclusion hole.
    pub fn new(on_mckernel: bool) -> Self {
        AddressSpace {
            vm: VmSpace::new(on_mckernel),
            pt: PageTable::new(),
            tlb: TlbSet::new(DEFAULT_TLB_CPUS),
        }
    }

    /// Translate `va` through CPU 0's software TLB.
    #[inline]
    pub fn translate(&mut self, va: VirtAddr) -> Option<Translation> {
        self.tlb.translate_on(0, &self.pt, va)
    }

    /// Translate `va` through `cpu`'s software TLB.
    #[inline]
    pub fn translate_on(&mut self, cpu: usize, va: VirtAddr) -> Option<Translation> {
        self.tlb.translate_on(cpu, &self.pt, va)
    }

    /// Remove the leaf containing `va` and shoot it down on every CPU's
    /// TLB. All teardown paths must use this (or call
    /// `tlb.shootdown_page` themselves) rather than `pt.unmap` directly.
    pub fn unmap_page(&mut self, va: VirtAddr) -> Option<(PhysAddr, PageSize)> {
        let r = self.pt.unmap(va);
        if r.is_some() {
            self.tlb.shootdown_page(va);
        }
        r
    }
}

/// Outcome of a page fault on the LWK.
#[derive(Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Anonymous page mapped locally.
    Mapped {
        /// Base physical address of the leaf installed at the faulting
        /// page.
        phys: PhysAddr,
        /// Leaf size installed.
        size: PageSize,
        /// Fault service cost.
        cost: Cycles,
        /// Leaves installed by this trap: 0 for a spurious refault, 1
        /// for a plain or 2 MiB fault, up to [`FAULT_AROUND_PAGES`] when
        /// fault-around populated neighbours.
        pages: u64,
    },
    /// The fault hit a device mapping: resolution requires the Fig. 4
    /// steps 8-10 (IKC round trip to the Linux-side tracking object).
    /// The caller drives that flow and finishes with
    /// [`complete_device_fault`].
    NeedsDeviceResolve {
        /// Device name of the VMA.
        dev_name: String,
        /// Offset into the device file at the faulting page.
        file_off: u64,
        /// Tracking-object id.
        tracking: u64,
        /// Page-aligned faulting address.
        page_va: VirtAddr,
    },
    /// No VMA covers the address.
    SegFault,
}

/// Service an LWK page fault at `va` on behalf of `cpu` (partition-
/// relative index of the faulting core; picks the PCP cache used).
///
/// Anonymous memory is backed from the partition's buddy; when the
/// VMA allows it, a full 2 MiB naturally aligned window is installed at
/// once (the McKernel policy that produces its TLB advantage). The 4 KiB
/// path uses fault-around: up to [`FAULT_AROUND_PAGES`] consecutive PTEs
/// per trap.
pub fn handle_fault(
    aspace: &mut AddressSpace,
    alloc: &mut FrameAllocator,
    costs: &CostModel,
    cpu: usize,
    va: VirtAddr,
) -> FaultOutcome {
    handle_fault_with_window(aspace, alloc, costs, cpu, va, FAULT_AROUND_PAGES)
}

/// [`handle_fault`] with an explicit fault-around window (window 1 ==
/// one-page-at-a-time faulting; property tests compare the two).
pub fn handle_fault_with_window(
    aspace: &mut AddressSpace,
    alloc: &mut FrameAllocator,
    costs: &CostModel,
    cpu: usize,
    va: VirtAddr,
    window: u64,
) -> FaultOutcome {
    // Already mapped (racing fault): treat as spurious, cheap refill.
    // One cached translation instead of three raw walks.
    if let Some(t) = aspace.translate_on(cpu, va) {
        return FaultOutcome::Mapped {
            phys: t.phys.page_align_down(),
            size: t.size,
            cost: costs.lwk_syscall, // TLB refill-ish, nominal
            pages: 0,
        };
    }
    let Some(vma) = aspace.vm.vma_at(va) else {
        return FaultOutcome::SegFault;
    };
    let writable = vma.writable;
    match &vma.kind {
        VmaKind::Device {
            dev_name,
            file_off,
            tracking,
        } => {
            let page_va = va.page_align_down();
            FaultOutcome::NeedsDeviceResolve {
                dev_name: dev_name.clone(),
                file_off: file_off + (page_va - vma.start),
                tracking: *tracking,
                page_va,
            }
        }
        VmaKind::Anon { large_ok } => {
            let large_ok = *large_ok;
            let (vstart, vend) = (vma.start.raw(), vma.end.raw());
            let flags = if writable {
                PteFlags::rw()
            } else {
                PteFlags::ro()
            };
            // Try a 2 MiB leaf when policy and geometry allow.
            if large_ok {
                let win = va.raw() / PAGE_SIZE_2M * PAGE_SIZE_2M;
                if win >= vstart && win + PAGE_SIZE_2M <= vend {
                    if let Ok(pa) = alloc.alloc_on(cpu, ORDER_2M) {
                        aspace
                            .pt
                            .map_2m(VirtAddr(win), pa, flags)
                            .expect("fault path checked translate above");
                        return FaultOutcome::Mapped {
                            phys: pa,
                            size: PageSize::Size2m,
                            cost: costs.lwk_page_fault + costs.page_touch * 4,
                            pages: 1,
                        };
                    }
                }
            }
            fault_around_4k(aspace, alloc, costs, cpu, VirtAddr(vend), va, flags, window)
        }
        VmaKind::Heap | VmaKind::Stack => {
            let vend = vma.end;
            let flags = if writable {
                PteFlags::rw()
            } else {
                PteFlags::ro()
            };
            fault_around_4k(aspace, alloc, costs, cpu, vend, va, flags, window)
        }
    }
}

/// The shared 4 KiB populate loop: install PTEs for `[page, page+n)`
/// where `n <= window`, clipped at the VMA end and the next 2 MiB
/// boundary, stopping early at an already-mapped page or on allocator
/// exhaustion (a partial run is fine as long as the faulting page
/// itself mapped).
///
/// Cost: one trap (`lwk_page_fault`) + `page_touch` per installed page —
/// so a single-page window costs exactly what one-at-a-time faulting
/// does, and wider windows amortize the trap.
#[allow(clippy::too_many_arguments)]
fn fault_around_4k(
    aspace: &mut AddressSpace,
    alloc: &mut FrameAllocator,
    costs: &CostModel,
    cpu: usize,
    vma_end: VirtAddr,
    va: VirtAddr,
    flags: PteFlags,
    window: u64,
) -> FaultOutcome {
    let page = va.page_align_down();
    let next_2m = VirtAddr(page.raw() / PAGE_SIZE_2M * PAGE_SIZE_2M + PAGE_SIZE_2M);
    let limit = vma_end.min(next_2m);
    let max_pages = ((limit - page) >> 12).min(window.max(1));
    let mut first_pa = PhysAddr(0);
    let mut installed = 0u64;
    for i in 0..max_pages {
        let p_va = page + i * PAGE_SIZE;
        // Neighbour already mapped: the run ends (raw walk — no TLB fill
        // for pages nobody touched yet).
        if i > 0 && aspace.pt.translate(p_va).is_some() {
            break;
        }
        match alloc.alloc_on(cpu, 0) {
            Ok(pa) => {
                aspace
                    .pt
                    .map_4k(p_va, pa, flags)
                    .expect("checked unmapped above");
                if i == 0 {
                    first_pa = pa;
                }
                installed += 1;
            }
            Err(AllocError::OutOfMemory) if i == 0 => return FaultOutcome::SegFault,
            Err(_) => break, // partial fault-around on exhaustion
        }
    }
    FaultOutcome::Mapped {
        phys: first_pa,
        size: PageSize::Size4k,
        cost: costs.lwk_page_fault + costs.page_touch * installed,
        pages: installed,
    }
}

/// Finish a device fault after Linux resolved the physical address
/// (Fig. 4, step 11: "fill in the missing page table entry").
pub fn complete_device_fault(
    aspace: &mut AddressSpace,
    page_va: VirtAddr,
    phys: PhysAddr,
) -> Result<(), Errno> {
    aspace
        .pt
        .map_4k(page_va, phys.page_align_down(), PteFlags::device())
        .map_err(|_| Errno::EEXIST)
}

/// Result of an address-space range teardown.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct UnmapStats {
    /// 4 KiB leaves removed.
    pub pages_4k: u64,
    /// 2 MiB leaves removed.
    pub pages_2m: u64,
    /// Buddy blocks returned.
    pub blocks_freed: u64,
    /// Total teardown cost (PTE removal + TLB shootdowns + frees).
    pub cost: Cycles,
    /// The removed VMA fragments (the proxy pseudo-mapping must be
    /// invalidated over exactly these ranges).
    pub removed: Vec<Vma>,
}

/// `munmap` semantics: drop VMAs over `[start, start+len)`, tear down any
/// installed leaves, return anonymous frames to the buddy arenas.
///
/// Frames go back via the direct (cache-bypassing) path: bulk teardown
/// wants immediate coalescing into large blocks, not cache warmth.
///
/// A 2 MiB leaf partially covered by the range is removed in full (VMA
/// geometry guarantees leaves never span VMA boundaries, so this only
/// happens for sub-VMA unmaps; documented simplification).
pub fn unmap_range(
    aspace: &mut AddressSpace,
    alloc: &mut FrameAllocator,
    costs: &CostModel,
    start: VirtAddr,
    len: u64,
) -> Result<UnmapStats, Errno> {
    let removed = aspace.vm.munmap(start, len)?;
    let mut stats = UnmapStats::default();
    for vma in &removed {
        let mut va = vma.start;
        while va < vma.end {
            match aspace.unmap_page(va) {
                Some((pa, PageSize::Size4k)) => {
                    stats.pages_4k += 1;
                    stats.cost += costs.tlb_shootdown_page;
                    if !matches!(vma.kind, VmaKind::Device { .. }) {
                        alloc.free(pa).expect("frame came from this allocator");
                        stats.blocks_freed += 1;
                    }
                    va = va + PAGE_SIZE;
                }
                Some((pa, PageSize::Size2m)) => {
                    stats.pages_2m += 1;
                    stats.cost += costs.tlb_shootdown_page;
                    if !matches!(vma.kind, VmaKind::Device { .. }) {
                        alloc.free(pa).expect("frame came from this allocator");
                        stats.blocks_freed += 1;
                    }
                    // Skip to the end of the 2M window we just removed.
                    let win_end = (va.raw() / PAGE_SIZE_2M + 1) * PAGE_SIZE_2M;
                    va = VirtAddr(win_end);
                }
                None => va = va + PAGE_SIZE,
            }
        }
    }
    stats.removed = removed;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddressSpace, FrameAllocator, CostModel) {
        (
            AddressSpace::new(true),
            FrameAllocator::new(PhysAddr(64 << 20), 32 << 20, 4),
            CostModel::default(),
        )
    }

    #[test]
    fn anon_fault_small_vma_gets_4k() {
        let (mut a, mut alloc, costs) = setup();
        let va = a
            .vm
            .mmap(0x3000, VmaKind::Anon { large_ok: true }, true, None)
            .unwrap();
        match handle_fault(&mut a, &mut alloc, &costs, 0, va + 0x1234) {
            FaultOutcome::Mapped { size, pages, .. } => {
                assert_eq!(size, PageSize::Size4k);
                // Fault at page 1 of 3: pages 1 and 2 populate.
                assert_eq!(pages, 2);
            }
            o => panic!("{o:?}"),
        }
        let t = a.pt.translate(va + 0x1234).unwrap();
        assert!(t.flags.write);
        assert!(a.pt.translate(va + 0x2000).is_some(), "fault-around mapped");
        assert!(a.pt.translate(va).is_none(), "window runs forward only");
    }

    #[test]
    fn anon_fault_large_vma_gets_2m_on_mckernel_policy() {
        let (mut a, mut alloc, costs) = setup();
        let va = a
            .vm
            .mmap(8 << 20, VmaKind::Anon { large_ok: true }, true, None)
            .unwrap();
        match handle_fault(&mut a, &mut alloc, &costs, 0, va + 0x100) {
            FaultOutcome::Mapped { size, phys, pages, .. } => {
                assert_eq!(size, PageSize::Size2m);
                assert!(phys.is_2m_aligned());
                assert_eq!(pages, 1);
            }
            o => panic!("{o:?}"),
        }
        // Whole 2M window now translates.
        assert!(a.pt.translate(va + PAGE_SIZE_2M - 1).is_some());
    }

    #[test]
    fn anon_fault_linux_policy_stays_4k() {
        let (_, mut alloc, costs) = setup();
        let mut a = AddressSpace::new(false);
        let va = a
            .vm
            .mmap(8 << 20, VmaKind::Anon { large_ok: false }, true, None)
            .unwrap();
        match handle_fault(&mut a, &mut alloc, &costs, 0, va) {
            FaultOutcome::Mapped { size, pages, .. } => {
                assert_eq!(size, PageSize::Size4k);
                assert_eq!(pages, FAULT_AROUND_PAGES, "full window inside the VMA");
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn fault_around_stops_at_2m_boundary_and_mapped_pages() {
        let (mut a, mut alloc, costs) = setup();
        let va = a
            .vm
            .mmap(4 << 20, VmaKind::Anon { large_ok: false }, true, None)
            .unwrap();
        // Fault 3 pages shy of a 2 MiB boundary: the run clips there.
        let near_end = va + PAGE_SIZE_2M - 3 * PAGE_SIZE;
        match handle_fault(&mut a, &mut alloc, &costs, 0, near_end) {
            FaultOutcome::Mapped { pages, .. } => assert_eq!(pages, 3),
            o => panic!("{o:?}"),
        }
        assert!(
            a.pt.translate(va + PAGE_SIZE_2M).is_none(),
            "nothing installed past the boundary"
        );
        // Pre-existing mapping ends the run early.
        match handle_fault(&mut a, &mut alloc, &costs, 0, va + PAGE_SIZE_2M - 5 * PAGE_SIZE) {
            FaultOutcome::Mapped { pages, .. } => {
                assert_eq!(pages, 2, "stops at the previously faulted run");
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn fault_around_cost_scales_with_pages() {
        let (mut a, mut alloc, costs) = setup();
        let va = a
            .vm
            .mmap(1 << 20, VmaKind::Anon { large_ok: false }, true, None)
            .unwrap();
        let c_wide = match handle_fault(&mut a, &mut alloc, &costs, 0, va) {
            FaultOutcome::Mapped { cost, pages, .. } => {
                assert_eq!(pages, FAULT_AROUND_PAGES);
                cost
            }
            o => panic!("{o:?}"),
        };
        assert_eq!(
            c_wide,
            costs.lwk_page_fault + costs.page_touch * FAULT_AROUND_PAGES
        );
        // Window 1 costs exactly the classic single-page fault.
        let (mut b, mut alloc2, _) = setup();
        let vb = b
            .vm
            .mmap(1 << 20, VmaKind::Anon { large_ok: false }, true, None)
            .unwrap();
        match handle_fault_with_window(&mut b, &mut alloc2, &costs, 0, vb, 1) {
            FaultOutcome::Mapped { cost, pages, .. } => {
                assert_eq!(pages, 1);
                assert_eq!(cost, costs.lwk_page_fault + costs.page_touch);
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn fault_outside_any_vma_segfaults() {
        let (mut a, mut alloc, costs) = setup();
        assert_eq!(
            handle_fault(&mut a, &mut alloc, &costs, 0, VirtAddr(0x4141_0000)),
            FaultOutcome::SegFault
        );
    }

    #[test]
    fn device_fault_requests_resolution_then_completes() {
        let (mut a, mut alloc, costs) = setup();
        let va = a
            .vm
            .mmap(
                0x4000,
                VmaKind::Device {
                    dev_name: "infiniband/uverbs0".into(),
                    file_off: 0x10000,
                    tracking: 42,
                },
                true,
                None,
            )
            .unwrap();
        let fault_va = va + 0x2345;
        match handle_fault(&mut a, &mut alloc, &costs, 0, fault_va) {
            FaultOutcome::NeedsDeviceResolve {
                dev_name,
                file_off,
                tracking,
                page_va,
            } => {
                assert_eq!(dev_name, "infiniband/uverbs0");
                assert_eq!(file_off, 0x10000 + 0x2000);
                assert_eq!(tracking, 42);
                assert_eq!(page_va, va + 0x2000);
                complete_device_fault(&mut a, page_va, PhysAddr(0x10_0000_4000)).unwrap();
            }
            o => panic!("{o:?}"),
        }
        let t = a.pt.translate(fault_va).unwrap();
        assert!(t.flags.device);
        assert_eq!(t.phys, PhysAddr(0x10_0000_4345).page_align_down() + 0x345);
    }

    #[test]
    fn fragmentation_falls_back_to_4k() {
        let (mut a, mut alloc, costs) = setup();
        // Fragment physical memory: keep odd order-0 allocations so no 2M
        // block remains.
        let mut held = Vec::new();
        while let Ok(p) = alloc.alloc_on(0, ORDER_2M) {
            held.push(p);
        }
        // Release one 2M block, then split it with a 4K allocation so
        // max contiguity is below 2M.
        let p = held.pop().unwrap();
        alloc.free(p).unwrap();
        let _pin = alloc.alloc_on(0, 0).unwrap();
        let va = a
            .vm
            .mmap(4 << 20, VmaKind::Anon { large_ok: true }, true, None)
            .unwrap();
        match handle_fault(&mut a, &mut alloc, &costs, 0, va) {
            FaultOutcome::Mapped { size, .. } => assert_eq!(size, PageSize::Size4k),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn unmap_returns_frames_and_reports_ranges() {
        let (mut a, mut alloc, costs) = setup();
        let free0 = alloc.free_bytes();
        let va = a
            .vm
            .mmap(4 << 20, VmaKind::Anon { large_ok: true }, true, None)
            .unwrap();
        // Touch both 2M windows.
        handle_fault(&mut a, &mut alloc, &costs, 0, va);
        handle_fault(&mut a, &mut alloc, &costs, 0, va + PAGE_SIZE_2M);
        assert_eq!(a.pt.leaf_counts(), (0, 2));
        let stats = unmap_range(&mut a, &mut alloc, &costs, va, 4 << 20).unwrap();
        assert_eq!(stats.pages_2m, 2);
        assert_eq!(stats.blocks_freed, 2);
        assert_eq!(stats.removed.len(), 1);
        assert_eq!(alloc.free_bytes(), free0);
        assert!(a.pt.is_empty());
        assert_eq!(a.vm.count(), 0);
    }

    #[test]
    fn unmap_skips_device_frames() {
        let (mut a, mut alloc, costs) = setup();
        let free0 = alloc.free_bytes();
        let va = a
            .vm
            .mmap(
                0x2000,
                VmaKind::Device {
                    dev_name: "eth0".into(),
                    file_off: 0,
                    tracking: 1,
                },
                true,
                None,
            )
            .unwrap();
        complete_device_fault(&mut a, va, PhysAddr(0x10_0000_0000)).unwrap();
        let stats = unmap_range(&mut a, &mut alloc, &costs, va, 0x2000).unwrap();
        assert_eq!(stats.pages_4k, 1);
        assert_eq!(stats.blocks_freed, 0, "BAR pages are not buddy frames");
        assert_eq!(alloc.free_bytes(), free0);
    }

    #[test]
    fn spurious_refault_is_cheap_noop() {
        let (mut a, mut alloc, costs) = setup();
        let va = a
            .vm
            .mmap(0x1000, VmaKind::Anon { large_ok: false }, true, None)
            .unwrap();
        let first = handle_fault(&mut a, &mut alloc, &costs, 0, va);
        let again = handle_fault(&mut a, &mut alloc, &costs, 0, va);
        match (first, again) {
            (
                FaultOutcome::Mapped { phys: p1, cost: c1, pages: n1, .. },
                FaultOutcome::Mapped { phys: p2, cost: c2, pages: n2, .. },
            ) => {
                assert_eq!(p1, p2, "no second frame allocated");
                assert!(c2 < c1);
                assert_eq!(n1, 1, "one-page VMA: no around");
                assert_eq!(n2, 0, "spurious refault installs nothing");
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(alloc.allocation_count(), 1);
    }
}
