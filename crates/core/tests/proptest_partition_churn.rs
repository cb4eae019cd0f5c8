//! Reserve/release churn property for `ihk::partition`: under any
//! random interleaving of CPU reservations, releases and memory
//! reservations, (1) no core is ever double-assigned, (2) every byte of
//! physical memory is owned by exactly Linux or the LWK (byte
//! conservation holds after every operation), (3) releasing something
//! not reserved is the typed `NotReserved` error — never a silent
//! success or a panic — while releasing a tracked set always succeeds,
//! and (4) after any *balanced* schedule (every successful reservation
//! eventually released) the registry and memory fingerprints are
//! identical to a freshly built pair: online resizing can churn forever
//! without leaking state.

use hlwk_core::ihk::partition::{
    release_memory, reserve_memory, CpuRegistry, PartitionError, MEM_ALIGN,
};
use hwmodel::addr::PhysAddr;
use hwmodel::cpu::{CoreId, NumaId};
use hwmodel::memory::{FrameOwner, PhysMemory};
use proptest::collection::vec;
use proptest::prelude::*;

const TOTAL_CORES: u16 = 20;
const MEM_BYTES: u64 = 2 << 30;
const NUMA_DOMAINS: u16 = 2;

fn core_set(a: u64, b: u64) -> Vec<CoreId> {
    let start = (a % u64::from(TOTAL_CORES)) as u16;
    let len = (b % 4 + 1) as u16;
    (start..(start + len).min(TOTAL_CORES)).map(CoreId).collect()
}

fn conservation(mem: &PhysMemory) -> (u64, u64) {
    let linux = mem.bytes_owned_by(FrameOwner::Linux);
    let lwk = mem.bytes_owned_by(FrameOwner::Lwk);
    (linux, lwk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn churn_is_typed_conserving_and_leak_free(
        ops in vec((0u8..4, 0u64..64, 0u64..64), 0..40),
    ) {
        let mut cpus = CpuRegistry::new(TOTAL_CORES);
        let mut mem = PhysMemory::new(MEM_BYTES, NUMA_DOMAINS);
        let fresh_linux_cores = CpuRegistry::new(TOTAL_CORES).linux_cores();
        let fresh_linux_bytes = conservation(&mem).0;

        // Mirror model: sets of cores / memory ranges successfully
        // reserved and not yet released.
        let mut live_sets: Vec<Vec<CoreId>> = Vec::new();
        let mut live_mem: Vec<(PhysAddr, u64)> = Vec::new();

        for &(kind, a, b) in &ops {
            match kind {
                // Reserve a small core run: succeeds iff fully free, and
                // failure must be atomic (no partial assignment).
                0 => {
                    let set = core_set(a, b);
                    let was_free: Vec<bool> =
                        set.iter().map(|&c| !cpus.is_reserved(c)).collect();
                    match cpus.reserve(&set) {
                        Ok(()) => {
                            prop_assert!(was_free.iter().all(|&f| f), "double-assign");
                            live_sets.push(set);
                        }
                        Err(PartitionError::CpuUnavailable(c)) => {
                            prop_assert!(cpus.is_reserved(c) || c.0 >= TOTAL_CORES);
                            // All-or-nothing: previously free cores stay free.
                            for (i, &c2) in set.iter().enumerate() {
                                if was_free[i] {
                                    prop_assert!(!cpus.is_reserved(c2), "partial reserve");
                                }
                            }
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                    }
                }
                // Release a tracked set: always succeeds.
                1 => {
                    if live_sets.is_empty() {
                        continue;
                    }
                    let i = (a as usize) % live_sets.len();
                    let set = live_sets.swap_remove(i);
                    prop_assert_eq!(cpus.release(&set), Ok(()));
                    for &c in &set {
                        prop_assert!(!cpus.is_reserved(c), "release left a core reserved");
                    }
                }
                // Release-after-release (or never-reserved): typed error.
                2 => {
                    let c = CoreId((a % u64::from(TOTAL_CORES)) as u16);
                    if !cpus.is_reserved(c) {
                        prop_assert_eq!(
                            cpus.release(&[c]),
                            Err(PartitionError::NotReserved)
                        );
                    }
                }
                // Memory reserve in a random domain.
                _ => {
                    let numa = NumaId((a % u64::from(NUMA_DOMAINS)) as u16);
                    let bytes = (b % 16 + 1) * MEM_ALIGN;
                    if let Ok(base) = reserve_memory(&mut mem, numa, bytes) {
                        prop_assert_eq!(mem.owner_of(base), FrameOwner::Lwk);
                        live_mem.push((base, bytes));
                    }
                }
            }
            // Byte conservation after every single operation.
            let (linux, lwk) = conservation(&mem);
            prop_assert_eq!(linux + lwk, MEM_BYTES, "memory bytes leaked");
            // Reserved + Linux cores partition the core set exactly.
            let linux_cores = cpus.linux_cores().len();
            let reserved: usize = live_sets.iter().map(Vec::len).sum();
            prop_assert_eq!(linux_cores + reserved, usize::from(TOTAL_CORES));
        }

        // Balance the schedule: release every live reservation (each
        // release succeeds exactly once; a second attempt is the typed
        // error).
        for set in live_sets.drain(..) {
            cpus.release(&set).expect("tracked release succeeds");
            prop_assert_eq!(cpus.release(&set), Err(PartitionError::NotReserved));
        }
        for (base, len) in live_mem.drain(..) {
            release_memory(&mut mem, base, len).expect("balanced release");
            prop_assert_eq!(
                release_memory(&mut mem, base, len),
                Err(PartitionError::NotReserved)
            );
        }

        // Fingerprint: indistinguishable from a fresh build.
        prop_assert_eq!(cpus.linux_cores(), fresh_linux_cores);
        prop_assert_eq!(conservation(&mem).0, fresh_linux_bytes);
        prop_assert_eq!(conservation(&mem).1, 0);
        let mut p = 0;
        while p < MEM_BYTES {
            prop_assert_eq!(mem.owner_of(PhysAddr(p)), FrameOwner::Linux);
            p += MEM_ALIGN;
        }
    }
}
