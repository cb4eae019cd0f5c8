//! Property tests for McKernel memory management: the buddy allocator and
//! the page table are checked against simple reference models under random
//! operation sequences.

use hlwk_core::mck::mem::pagetable::{PageSize, PageTable, PteFlags};
use hlwk_core::mck::mem::phys::{AllocError, BuddyAllocator, MAX_ORDER};
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE, PAGE_SIZE_2M};
use proptest::prelude::*;
use simcore::{FastMap, FastSet};

const POOL_BASE: u64 = 64 << 20;
const POOL_LEN: u64 = 8 << 20;

#[derive(Clone, Debug)]
enum AllocOp {
    Alloc(u8),
    FreeNth(usize),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..=MAX_ORDER).prop_map(AllocOp::Alloc),
            (0usize..64).prop_map(AllocOp::FreeNth),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Invariants hold and accounting is exact under arbitrary alloc/free
    /// interleavings; blocks never overlap.
    #[test]
    fn buddy_invariants_under_random_ops(ops in alloc_ops()) {
        let mut a = BuddyAllocator::new(PhysAddr(POOL_BASE), POOL_LEN);
        let mut live: Vec<(PhysAddr, u8)> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                AllocOp::Alloc(order) => match a.alloc(order) {
                    Ok(p) => {
                        // Natural alignment.
                        prop_assert_eq!(
                            (p.raw() - POOL_BASE) % (PAGE_SIZE << order), 0
                        );
                        // No overlap with any live block.
                        for &(q, qo) in &live {
                            let (ps, pe) = (p.raw(), p.raw() + (PAGE_SIZE << order));
                            let (qs, qe) = (q.raw(), q.raw() + (PAGE_SIZE << qo));
                            prop_assert!(pe <= qs || qe <= ps, "overlap");
                        }
                        live.push((p, order));
                    }
                    Err(AllocError::OutOfMemory) => {}
                    Err(e) => prop_assert!(false, "unexpected {e:?}"),
                },
                AllocOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let (p, _) = live.swap_remove(i % live.len());
                        a.free(p).expect("live block frees cleanly");
                    }
                }
            }
            // Full invariant sweep is O(pages); sample it.
            if i % 29 == 0 {
                a.check_invariants().map_err(|e| {
                    TestCaseError::fail(format!("invariant: {e}"))
                })?;
            }
        }
        a.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("invariant: {e}"))
        })?;
        // Free everything: allocator must return to pristine.
        for (p, _) in live {
            a.free(p).unwrap();
        }
        prop_assert_eq!(a.free_bytes(), POOL_LEN);
        prop_assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
    }
}

#[derive(Clone, Debug)]
enum PtOp {
    Map4k { slot: u16, frame: u16 },
    Map2m { slot: u16, frame: u16 },
    Unmap { slot: u16 },
    Translate { slot: u16, off: u32 },
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    // Slots index into a small set of 2 MiB-aligned virtual windows so
    // collisions between 4K and 2M mappings actually happen.
    prop::collection::vec(
        prop_oneof![
            (0u16..32, 0u16..512).prop_map(|(slot, frame)| PtOp::Map4k { slot, frame }),
            (0u16..32, 0u16..64).prop_map(|(slot, frame)| PtOp::Map2m { slot, frame }),
            (0u16..32).prop_map(|slot| PtOp::Unmap { slot }),
            (0u16..32, 0u32..0x20_0000).prop_map(|(slot, off)| PtOp::Translate { slot, off }),
        ],
        1..300,
    )
}

fn slot_va(slot: u16) -> u64 {
    0x4000_0000 + (slot as u64) * PAGE_SIZE_2M
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The page table agrees with a flat reference map under random
    /// map/unmap/translate sequences mixing 4 KiB and 2 MiB leaves.
    #[test]
    fn pagetable_matches_reference_model(ops in pt_ops()) {
        let mut pt = PageTable::new();
        // Reference: page-va -> (phys base, is_2m)
        let mut model: FastMap<u64, (u64, bool)> = FastMap::default();
        for op in ops {
            match op {
                PtOp::Map4k { slot, frame } => {
                    let va = slot_va(slot) + u64::from(frame) * PAGE_SIZE;
                    let pa = 0x100_0000 + u64::from(frame) * PAGE_SIZE
                        + u64::from(slot) * PAGE_SIZE_2M;
                    let conflict = model.contains_key(&va)
                        || model.contains_key(&slot_va(slot))
                            && model[&slot_va(slot)].1;
                    let r = pt.map_4k(VirtAddr(va), PhysAddr(pa), PteFlags::rw());
                    if conflict {
                        prop_assert!(r.is_err(), "model expected conflict at {va:#x}");
                    } else if r.is_ok() {
                        model.insert(va, (pa, false));
                    }
                }
                PtOp::Map2m { slot, frame } => {
                    let va = slot_va(slot);
                    let pa = (0x4000_0000 + u64::from(frame) * PAGE_SIZE_2M)
                        / PAGE_SIZE_2M * PAGE_SIZE_2M;
                    // Conflicts with any 4K page inside the window or an
                    // existing 2M leaf.
                    let window_conflict = model
                        .keys()
                        .any(|&k| k >= va && k < va + PAGE_SIZE_2M);
                    let r = pt.map_2m(VirtAddr(va), PhysAddr(pa), PteFlags::rw());
                    if window_conflict {
                        prop_assert!(r.is_err());
                    } else {
                        prop_assert!(r.is_ok());
                        model.insert(va, (pa, true));
                    }
                }
                PtOp::Unmap { slot } => {
                    let va = slot_va(slot);
                    // Remove whichever leaf covers the window start.
                    let removed = pt.unmap(VirtAddr(va));
                    match removed {
                        Some((pa, PageSize::Size2m)) => {
                            prop_assert_eq!(model.remove(&va), Some((pa.raw(), true)));
                        }
                        Some((pa, PageSize::Size4k)) => {
                            prop_assert_eq!(model.remove(&va), Some((pa.raw(), false)));
                        }
                        None => prop_assert!(!model.contains_key(&va)),
                    }
                }
                PtOp::Translate { slot, off } => {
                    let va = slot_va(slot) + u64::from(off);
                    let got = pt.translate(VirtAddr(va));
                    // Compute expectation from the model.
                    let page_va = va / PAGE_SIZE * PAGE_SIZE;
                    let win_va = va / PAGE_SIZE_2M * PAGE_SIZE_2M;
                    let expected = if let Some(&(pa, true)) = model.get(&win_va) {
                        Some(pa + (va - win_va))
                    } else {
                        model
                            .get(&page_va)
                            .filter(|&&(_, big)| !big)
                            .map(|&(pa, _)| pa + (va - page_va))
                    };
                    prop_assert_eq!(got.map(|t| t.phys.raw()), expected);
                }
            }
        }
        // Leaf accounting matches the model.
        let (n4k, n2m) = pt.leaf_counts();
        let m2m = model.values().filter(|v| v.1).count() as u64;
        let m4k = model.values().filter(|v| !v.1).count() as u64;
        prop_assert_eq!((n4k, n2m), (m4k, m2m));
    }
}

// ---------------------------------------------------------------------------
// FrameAllocator: the buddy + per-CPU refill caches against a reference
// model.
// ---------------------------------------------------------------------------

use hlwk_core::mck::mem::phys::{FrameAllocator, ORDER_2M};

#[derive(Clone, Debug)]
enum FaOp {
    /// Allocate `order` on `cpu` (orders limited to the interesting mix:
    /// PCP-cached 0 and 2M plus a direct mid order).
    Alloc { cpu: u8, order_sel: u8 },
    /// Free the nth live block (straight to the buddy).
    FreeNth { n: usize },
}

fn fa_ops() -> impl Strategy<Value = Vec<FaOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4, 0u8..3).prop_map(|(cpu, order_sel)| FaOp::Alloc { cpu, order_sel }),
            (0usize..64).prop_map(|n| FaOp::FreeNth { n }),
        ],
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The PCP frame engine agrees with a flat reference model under
    /// random alloc/free interleavings across CPUs: exact free-byte
    /// accounting, natural alignment, no overlap, and full coalescing
    /// back to pristine after free-all + cache drain.
    #[test]
    fn frame_allocator_matches_reference_model(ops in fa_ops()) {
        let mut f = FrameAllocator::new(PhysAddr(POOL_BASE), POOL_LEN, 4);
        let total = f.len_bytes();
        // Reference model: the set of live blocks (addr, order).
        let mut live: Vec<(PhysAddr, u8)> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                FaOp::Alloc { cpu, order_sel } => {
                    let order = [0u8, 3, ORDER_2M][order_sel as usize];
                    if let Ok(p) = f.alloc_on(cpu as usize, order) {
                        // Natural alignment, inside the pool.
                        prop_assert_eq!((p.raw() - POOL_BASE) % (PAGE_SIZE << order), 0);
                        prop_assert!(p.raw() + (PAGE_SIZE << order) <= POOL_BASE + POOL_LEN);
                        // No overlap with any live block.
                        for &(q, qo) in &live {
                            let (ps, pe) = (p.raw(), p.raw() + (PAGE_SIZE << order));
                            let (qs, qe) = (q.raw(), q.raw() + (PAGE_SIZE << qo));
                            prop_assert!(pe <= qs || qe <= ps, "overlap");
                        }
                        live.push((p, order));
                    }
                }
                FaOp::FreeNth { n } => {
                    if !live.is_empty() {
                        let (p, _) = live.swap_remove(n % live.len());
                        f.free(p).expect("live block frees");
                        prop_assert_eq!(f.free(p), Err(AllocError::BadFree(p)));
                    }
                }
            }
            // Exact accounting: free (incl. cached) + live == total.
            let live_bytes: u64 = live.iter().map(|&(_, o)| PAGE_SIZE << o).sum();
            prop_assert_eq!(f.free_bytes() + live_bytes, total);
            prop_assert_eq!(f.allocation_count(), live.len());
            if i % 37 == 0 {
                f.check_invariants().map_err(|e| {
                    TestCaseError::fail(format!("invariant: {e}"))
                })?;
            }
        }
        // Free-all + drain: full coalescing back to a pristine buddy.
        for (p, _) in live {
            f.free(p).unwrap();
        }
        f.drain_all();
        prop_assert_eq!(f.free_bytes(), total);
        prop_assert_eq!(f.largest_free_order(), Some(MAX_ORDER));
        f.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("invariant: {e}"))
        })?;
    }
}

// ---------------------------------------------------------------------------
// Fault-around vs one-at-a-time faulting.
// ---------------------------------------------------------------------------

use hlwk_core::costs::CostModel;
use hlwk_core::mck::mem::vm::VmaKind;
use hlwk_core::mck::mem::{handle_fault_with_window, AddressSpace, FaultOutcome};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Fault-around is an optimization, not a semantic change: after the
    /// same sequence of touches, a window-W address space maps a superset
    /// of the window-1 one (same flags), the faulted page is always
    /// mapped, and touching every page leaves both spaces translating
    /// identically (every page mapped, one distinct frame per page).
    #[test]
    fn fault_around_equivalent_to_one_at_a_time(
        npages in 1u64..64,
        window in 2u64..32,
        touches in prop::collection::vec(0u64..64, 1..40),
    ) {
        let costs = CostModel::default();
        let mut wide = AddressSpace::new(true);
        let mut one = AddressSpace::new(true);
        let mut fa_wide = FrameAllocator::new(PhysAddr(64 << 20), 8 << 20, 2);
        let mut fa_one = FrameAllocator::new(PhysAddr(64 << 20), 8 << 20, 2);
        let len = npages * PAGE_SIZE;
        let va_w = wide.vm.mmap(len, VmaKind::Anon { large_ok: false }, true, None).unwrap();
        let va_o = one.vm.mmap(len, VmaKind::Anon { large_ok: false }, true, None).unwrap();
        for &t in &touches {
            let off = (t % npages) * PAGE_SIZE;
            let rw = handle_fault_with_window(
                &mut wide, &mut fa_wide, &costs, 0, va_w + off, window);
            let ro = handle_fault_with_window(
                &mut one, &mut fa_one, &costs, 0, va_o + off, 1);
            prop_assert!(matches!(rw, FaultOutcome::Mapped { .. }));
            prop_assert!(matches!(ro, FaultOutcome::Mapped { .. }));
            // The faulted page itself is mapped in both.
            prop_assert!(wide.pt.translate(va_w + off).is_some());
            prop_assert!(one.pt.translate(va_o + off).is_some());
        }
        // Window-1 mapped set is a subset of the fault-around set, with
        // identical flags.
        for i in 0..npages {
            let tw = wide.pt.translate(va_w + i * PAGE_SIZE);
            let to = one.pt.translate(va_o + i * PAGE_SIZE);
            if let Some(to) = to {
                let tw = tw.expect("window-1-mapped page must be mapped under fault-around");
                prop_assert_eq!(tw.flags, to.flags);
                prop_assert_eq!(tw.size, to.size);
            }
        }
        // Touch every page: both spaces end fully and identically mapped.
        let mut phys_seen = FastSet::default();
        for i in 0..npages {
            let off = i * PAGE_SIZE;
            handle_fault_with_window(&mut wide, &mut fa_wide, &costs, 0, va_w + off, window);
            handle_fault_with_window(&mut one, &mut fa_one, &costs, 0, va_o + off, 1);
            let tw = wide.pt.translate(va_w + off).expect("mapped");
            let to = one.pt.translate(va_o + off).expect("mapped");
            prop_assert_eq!(tw.flags, to.flags);
            prop_assert_eq!(tw.size, to.size);
            prop_assert!(phys_seen.insert(tw.phys.page_align_down().raw()),
                "one distinct frame per page");
        }
        prop_assert_eq!(wide.pt.leaf_counts().0, npages);
        prop_assert_eq!(one.pt.leaf_counts().0, npages);
        prop_assert_eq!(fa_wide.allocation_count() as u64, npages);
        prop_assert_eq!(fa_one.allocation_count() as u64, npages);
    }
}
