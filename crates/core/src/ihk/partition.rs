//! Dynamic CPU and memory partitioning.
//!
//! IHK reserves CPU cores and physical memory from the running Linux and
//! hands them to an LWK instance; releasing returns them with no host
//! reboot. CPU ownership is tracked here; memory ownership is delegated to
//! [`hwmodel::memory::PhysMemory`]'s frame-owner intervals.

use hwmodel::addr::PhysAddr;
use hwmodel::cpu::{CoreId, NumaId};
use hwmodel::memory::{FrameOwner, PhysMemory};
use std::collections::BTreeSet;

/// Reservation granularity for LWK memory: buddy max block (4 MiB).
pub const MEM_ALIGN: u64 = 4 << 20;

/// Errors from reservation operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PartitionError {
    /// A requested core is already reserved (or out of range).
    CpuUnavailable(CoreId),
    /// Not enough free contiguous memory in the requested NUMA domain.
    MemUnavailable {
        /// Domain asked for.
        numa: NumaId,
        /// Bytes asked for.
        bytes: u64,
    },
    /// Release of something not reserved.
    NotReserved,
    /// An elastic shrink refused to release a core because offloads are
    /// still in flight in the node's delegator
    /// (`NodeRuntime::shrink_lwk_core`, `Cluster::shrink_lwk_all`). The
    /// caller completes or fails them and retries; nothing was released.
    /// Online resizing depends on this being a typed error rather than a
    /// silent success.
    CoreBusy(CoreId),
}

/// A reserved resource set assigned to one LWK instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    /// Reserved cores (Linux's scheduler no longer sees these).
    pub cores: Vec<CoreId>,
    /// Reserved physical range base (4 MiB aligned).
    pub mem_base: PhysAddr,
    /// Reserved length in bytes.
    pub mem_len: u64,
}

/// Tracks which cores are carved out of Linux.
#[derive(Debug, Default)]
pub struct CpuRegistry {
    reserved: BTreeSet<CoreId>,
    total_cores: u16,
}

impl CpuRegistry {
    /// Registry over `total_cores` cores.
    pub fn new(total_cores: u16) -> Self {
        CpuRegistry {
            reserved: BTreeSet::new(),
            total_cores,
        }
    }

    /// Reserve a set of cores; all-or-nothing.
    pub fn reserve(&mut self, cores: &[CoreId]) -> Result<(), PartitionError> {
        for &c in cores {
            if c.0 >= self.total_cores || self.reserved.contains(&c) {
                return Err(PartitionError::CpuUnavailable(c));
            }
        }
        self.reserved.extend(cores.iter().copied());
        Ok(())
    }

    /// Release cores back to Linux; all-or-nothing.
    pub fn release(&mut self, cores: &[CoreId]) -> Result<(), PartitionError> {
        for &c in cores {
            if !self.reserved.contains(&c) {
                return Err(PartitionError::NotReserved);
            }
        }
        for c in cores {
            self.reserved.remove(c);
        }
        Ok(())
    }

    /// Whether a core is currently reserved away from Linux.
    pub fn is_reserved(&self, core: CoreId) -> bool {
        self.reserved.contains(&core)
    }

    /// Cores Linux still schedules on.
    pub fn linux_cores(&self) -> Vec<CoreId> {
        (0..self.total_cores)
            .map(CoreId)
            .filter(|c| !self.reserved.contains(c))
            .collect()
    }
}

/// Reserve `bytes` of physically contiguous memory in `numa` (searching
/// top-down so Linux keeps the low range it booted with). Returns the base.
pub fn reserve_memory(
    mem: &mut PhysMemory,
    numa: NumaId,
    bytes: u64,
) -> Result<PhysAddr, PartitionError> {
    let bytes = bytes.div_ceil(MEM_ALIGN) * MEM_ALIGN;
    let (dom_start, dom_end) = mem.numa_range(numa);
    if bytes > dom_end - dom_start {
        return Err(PartitionError::MemUnavailable { numa, bytes });
    }
    // Scan candidate bases top-down at MEM_ALIGN granularity. Ownership is
    // stored as coalesced intervals, so probing the first byte and asking
    // "is the whole candidate inside one Linux-owned interval" is O(log n):
    // owner_of on the base plus a check that no boundary cuts the range.
    let mut base = (dom_end.raw() - bytes) / MEM_ALIGN * MEM_ALIGN;
    loop {
        if base < dom_start.raw() {
            return Err(PartitionError::MemUnavailable { numa, bytes });
        }
        if mem.range_uniformly_owned(PhysAddr(base), bytes, FrameOwner::Linux) {
            mem.set_owner(PhysAddr(base), bytes, FrameOwner::Lwk);
            return Ok(PhysAddr(base));
        }
        if base < MEM_ALIGN {
            return Err(PartitionError::MemUnavailable { numa, bytes });
        }
        base -= MEM_ALIGN;
    }
}

/// Return a reserved range to Linux.
pub fn release_memory(
    mem: &mut PhysMemory,
    base: PhysAddr,
    len: u64,
) -> Result<(), PartitionError> {
    if mem.owner_of(base) != FrameOwner::Lwk {
        return Err(PartitionError::NotReserved);
    }
    mem.set_owner(base, len, FrameOwner::Linux);
    mem.clear_range(base, len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_reserve_release_cycle() {
        let mut r = CpuRegistry::new(20);
        let lwk: Vec<CoreId> = (10..19).map(CoreId).collect();
        r.reserve(&lwk).unwrap();
        assert!(r.is_reserved(CoreId(10)));
        assert_eq!(r.linux_cores().len(), 11);
        r.release(&lwk).unwrap();
        assert_eq!(r.linux_cores().len(), 20);
    }

    #[test]
    fn cpu_double_reserve_is_atomic_failure() {
        let mut r = CpuRegistry::new(20);
        r.reserve(&[CoreId(5)]).unwrap();
        let err = r.reserve(&[CoreId(4), CoreId(5)]).unwrap_err();
        assert_eq!(err, PartitionError::CpuUnavailable(CoreId(5)));
        // All-or-nothing: CoreId(4) must not have been taken.
        assert!(!r.is_reserved(CoreId(4)));
    }

    #[test]
    fn cpu_out_of_range_rejected() {
        let mut r = CpuRegistry::new(20);
        assert!(r.reserve(&[CoreId(20)]).is_err());
        assert_eq!(r.release(&[CoreId(3)]), Err(PartitionError::NotReserved));
    }

    #[test]
    fn memory_reserved_top_down_in_numa_domain() {
        let mut mem = PhysMemory::new(2 << 30, 2);
        let base = reserve_memory(&mut mem, NumaId(1), 128 << 20).unwrap();
        let (dstart, dend) = mem.numa_range(NumaId(1));
        assert!(base >= dstart && base.raw() + (128 << 20) <= dend.raw());
        assert_eq!(base.raw() + (128 << 20), dend.raw(), "top-down placement");
        assert_eq!(mem.owner_of(base), FrameOwner::Lwk);
        assert_eq!(mem.bytes_owned_by(FrameOwner::Lwk), 128 << 20);
    }

    #[test]
    fn second_reservation_stacks_below() {
        let mut mem = PhysMemory::new(2 << 30, 2);
        let b1 = reserve_memory(&mut mem, NumaId(1), 64 << 20).unwrap();
        let b2 = reserve_memory(&mut mem, NumaId(1), 64 << 20).unwrap();
        assert_eq!(b2.raw() + (64 << 20), b1.raw());
    }

    #[test]
    fn memory_release_returns_to_linux_and_clears() {
        let mut mem = PhysMemory::new(2 << 30, 2);
        let base = reserve_memory(&mut mem, NumaId(0), 64 << 20).unwrap();
        mem.write_u64(base, 0x1234);
        release_memory(&mut mem, base, 64 << 20).unwrap();
        assert_eq!(mem.owner_of(base), FrameOwner::Linux);
        assert_eq!(mem.read_u64(base), 0, "contents dropped on release");
        assert_eq!(
            release_memory(&mut mem, base, 64 << 20),
            Err(PartitionError::NotReserved)
        );
    }

    #[test]
    fn oversize_reservation_fails_cleanly() {
        let mut mem = PhysMemory::new(1 << 30, 2); // 512 MiB per domain
        let before = mem.bytes_owned_by(FrameOwner::Linux);
        assert!(matches!(
            reserve_memory(&mut mem, NumaId(0), 1 << 30),
            Err(PartitionError::MemUnavailable { .. })
        ));
        assert_eq!(mem.bytes_owned_by(FrameOwner::Linux), before);
    }
}
