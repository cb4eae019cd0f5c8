//! Property tests for the VMA layer and the unified address space,
//! checked against reference models under random operation sequences.

use hlwk_core::costs::CostModel;
use hlwk_core::mck::mem::pagetable::{PageTable, PteFlags};
use hlwk_core::mck::mem::vm::{VmSpace, VmaKind, EXCLUDED_END, EXCLUDED_START};
use hlwk_core::proxy::unified::UnifiedAddressSpace;
use hwmodel::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use hwmodel::memory::PhysMemory;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum VmOp {
    Mmap { pages: u64 },
    MmapFixed { slot: u8, pages: u64 },
    Munmap { slot: u8, off_pages: u64, pages: u64 },
    Query { addr_page: u64 },
}

fn vm_ops() -> impl Strategy<Value = Vec<VmOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..64).prop_map(|pages| VmOp::Mmap { pages }),
            (0u8..16, 1u64..32).prop_map(|(slot, pages)| VmOp::MmapFixed { slot, pages }),
            (0u8..16, 0u64..8, 1u64..40)
                .prop_map(|(slot, off_pages, pages)| VmOp::Munmap { slot, off_pages, pages }),
            (0u64..2048).prop_map(|addr_page| VmOp::Query { addr_page }),
        ],
        1..120,
    )
}

/// Fixed-slot base addresses spaced widely apart.
fn slot_base(slot: u8) -> u64 {
    0x7000_0000 + u64::from(slot) * 0x100_0000
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The VMA tree agrees with a flat page-granular reference model:
    /// mapped pages match exactly, VMAs never overlap, and the excluded
    /// proxy window is never covered.
    #[test]
    fn vmspace_matches_reference(ops in vm_ops()) {
        let mut vs = VmSpace::new(true);
        // Reference: page number -> mapped?
        let mut model: BTreeMap<u64, bool> = BTreeMap::new();
        for op in ops {
            match op {
                VmOp::Mmap { pages } => {
                    let len = pages * PAGE_SIZE;
                    if let Ok(va) = vs.mmap(len, VmaKind::Anon { large_ok: false }, true, None) {
                        for p in 0..pages {
                            let page = (va.raw() + p * PAGE_SIZE) / PAGE_SIZE;
                            prop_assert!(
                                model.insert(page, true).is_none(),
                                "allocator returned an overlapping range"
                            );
                        }
                        prop_assert!(
                            va.raw() + len <= EXCLUDED_START || va.raw() >= EXCLUDED_END,
                            "mapping enters the excluded window"
                        );
                    }
                }
                VmOp::MmapFixed { slot, pages } => {
                    let base = slot_base(slot);
                    let len = pages * PAGE_SIZE;
                    let overlap = (0..pages)
                        .any(|p| model.contains_key(&((base + p * PAGE_SIZE) / PAGE_SIZE)));
                    let r = vs.mmap(
                        len,
                        VmaKind::Anon { large_ok: false },
                        true,
                        Some(VirtAddr(base)),
                    );
                    if overlap {
                        prop_assert!(r.is_err(), "fixed mmap over existing range must fail");
                    } else {
                        prop_assert!(r.is_ok());
                        for p in 0..pages {
                            model.insert((base + p * PAGE_SIZE) / PAGE_SIZE, true);
                        }
                    }
                }
                VmOp::Munmap { slot, off_pages, pages } => {
                    let start = slot_base(slot) + off_pages * PAGE_SIZE;
                    let removed = vs
                        .munmap(VirtAddr(start), pages * PAGE_SIZE)
                        .expect("aligned munmap never errors");
                    // Model removal.
                    let mut model_removed = 0u64;
                    for p in 0..pages {
                        if model.remove(&((start + p * PAGE_SIZE) / PAGE_SIZE)).is_some() {
                            model_removed += 1;
                        }
                    }
                    let vm_removed: u64 =
                        removed.iter().map(|v| v.len() / PAGE_SIZE).sum();
                    prop_assert_eq!(vm_removed, model_removed);
                }
                VmOp::Query { addr_page } => {
                    let va = VirtAddr(0x7000_0000 + addr_page * PAGE_SIZE);
                    prop_assert_eq!(
                        vs.vma_at(va).is_some(),
                        model.contains_key(&(va.raw() / PAGE_SIZE)),
                        "vma_at disagrees with model at {:?}", va
                    );
                }
            }
            // Global invariant: total mapped bytes agree.
            prop_assert_eq!(vs.mapped_bytes(), model.len() as u64 * PAGE_SIZE);
        }
    }
}

#[derive(Clone, Debug)]
enum UasOp {
    MapPage { slot: u16 },
    WriteApp { slot: u16, val: u8 },
    ProxyRead { slot: u16, off: u64, pages: u64 },
    RemapPage { slot: u16 },
}

fn uas_ops() -> impl Strategy<Value = Vec<UasOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..24).prop_map(|slot| UasOp::MapPage { slot }),
            (0u16..24, 1u8..255).prop_map(|(slot, val)| UasOp::WriteApp { slot, val }),
            (0u16..24, 0..PAGE_SIZE, 1u64..=3)
                .prop_map(|(slot, off, pages)| UasOp::ProxyRead { slot, off, pages }),
            (0u16..24).prop_map(|slot| UasOp::RemapPage { slot }),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The unified-address-space coherence property: whatever the app's
    /// memory holds, a proxy read through the pseudo mapping returns it —
    /// across arbitrary interleavings of mapping, writing, reading, and
    /// remapping (with invalidation). A shadow pseudo mapping that only
    /// `touch`es each span stays in lock step with the reading one.
    #[test]
    fn proxy_always_sees_app_bytes(ops in uas_ops()) {
        let mut pt = PageTable::new();
        let mut mem = PhysMemory::new(64 << 20, 1);
        let mut uas = UnifiedAddressSpace::new();
        let mut shadow = UnifiedAddressSpace::new();
        let costs = CostModel::default();
        // Model: slot -> expected byte (if mapped).
        let mut expected: BTreeMap<u16, u8> = BTreeMap::new();
        let mut mapped: BTreeMap<u16, PhysAddr> = BTreeMap::new();
        let mut next_frame = 0x10_0000u64;
        let va_of = |slot: u16| VirtAddr(0x100_0000 + u64::from(slot) * PAGE_SIZE);
        for op in ops {
            match op {
                UasOp::MapPage { slot } => {
                    if let std::collections::btree_map::Entry::Vacant(e) = mapped.entry(slot) {
                        let pa = PhysAddr(next_frame);
                        next_frame += PAGE_SIZE;
                        pt.map_4k(va_of(slot), pa, PteFlags::rw()).expect("fresh");
                        e.insert(pa);
                        expected.insert(slot, 0);
                    }
                }
                UasOp::WriteApp { slot, val } => {
                    if let Some(&pa) = mapped.get(&slot) {
                        // The app writes through its own translation.
                        mem.write(pa, &[val]);
                        expected.insert(slot, val);
                    }
                }
                UasOp::ProxyRead { slot, off, pages } => {
                    // `pages` pages' worth of bytes from `off` into `slot`.
                    let start = va_of(slot) + off;
                    let mut buf = vec![0xEEu8; (pages * PAGE_SIZE) as usize];
                    let r = uas.read(start, &mut buf, &pt, &mem, &costs);
                    let t = shadow.touch(start, buf.len(), &pt, &costs);
                    prop_assert_eq!(t, r, "touch diverges from read");
                    prop_assert_eq!(shadow.stats(), uas.stats());
                    let last = slot + ((off + pages * PAGE_SIZE - 1) / PAGE_SIZE) as u16;
                    if (slot..=last).all(|s| expected.contains_key(&s)) {
                        prop_assert!(r.is_ok());
                        // Each frame holds the app's byte at offset 0 and
                        // zeroes elsewhere.
                        for (i, &b) in buf.iter().enumerate() {
                            let va = start.raw() + i as u64;
                            let s = ((va - va_of(0).raw()) / PAGE_SIZE) as u16;
                            let want = if va % PAGE_SIZE == 0 { expected[&s] } else { 0 };
                            prop_assert_eq!(b, want, "slot {} stale at {:#x}", s, va);
                        }
                    } else {
                        prop_assert!(r.is_err(), "unmapped slot must fault");
                    }
                }
                UasOp::RemapPage { slot } => {
                    if let std::collections::btree_map::Entry::Occupied(mut e) = mapped.entry(slot) {
                        // McKernel moves the page to a fresh frame and
                        // synchronizes the pseudo mapping (munmap sync).
                        pt.unmap(va_of(slot)).expect("was mapped");
                        let pa = PhysAddr(next_frame);
                        next_frame += PAGE_SIZE;
                        pt.map_4k(va_of(slot), pa, PteFlags::rw()).expect("fresh");
                        uas.invalidate_range(va_of(slot), PAGE_SIZE);
                        shadow.invalidate_range(va_of(slot), PAGE_SIZE);
                        e.insert(pa);
                        expected.insert(slot, 0); // new frame reads zero
                    }
                }
            }
        }
    }
}
