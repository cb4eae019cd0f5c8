//! LWK lifecycle management: create an OS instance, assign resources,
//! boot McKernel, shut it down, release resources — all dynamically, with
//! no host reboot.

use crate::costs::CostModel;
use crate::ihk::partition::{
    release_memory, reserve_memory, CpuRegistry, Partition, PartitionError,
};
use crate::mck::McKernel;
use hwmodel::cpu::{CoreId, NumaId};
use hwmodel::memory::PhysMemory;

/// Lifecycle state of an OS instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OsState {
    /// Created, resources assigned, not booted.
    Assigned,
    /// LWK running.
    Booted,
    /// Shut down; resources released.
    Destroyed,
}

/// One managed LWK instance.
#[derive(Debug)]
pub struct OsInstance {
    /// Instance number (mirrors `/dev/mcos0`, `/dev/mcos1`, ...).
    pub index: u32,
    /// Assigned resources.
    pub partition: Partition,
    /// Lifecycle state.
    pub state: OsState,
}

/// Per-node IHK manager.
#[derive(Debug)]
pub struct IhkManager {
    cpus: CpuRegistry,
    instances: Vec<OsInstance>,
}

impl IhkManager {
    /// Manager for a node with `total_cores` cores.
    pub fn new(total_cores: u16) -> Self {
        IhkManager {
            cpus: CpuRegistry::new(total_cores),
            instances: Vec::new(),
        }
    }

    /// Cores Linux currently schedules on.
    pub fn linux_cores(&self) -> Vec<CoreId> {
        self.cpus.linux_cores()
    }

    /// Whether a core is reserved away from Linux.
    pub fn is_reserved(&self, core: CoreId) -> bool {
        self.cpus.is_reserved(core)
    }

    /// Reserve cores + memory and create an OS instance.
    pub fn create_os(
        &mut self,
        mem: &mut PhysMemory,
        cores: &[CoreId],
        numa: NumaId,
        mem_bytes: u64,
    ) -> Result<u32, PartitionError> {
        self.cpus.reserve(cores)?;
        let mem_base = match reserve_memory(mem, numa, mem_bytes) {
            Ok(b) => b,
            Err(e) => {
                self.cpus.release(cores).expect("just reserved");
                return Err(e);
            }
        };
        let index = self.instances.len() as u32;
        self.instances.push(OsInstance {
            index,
            partition: Partition {
                cores: cores.to_vec(),
                mem_base,
                mem_len: mem_bytes.div_ceil(4 << 20) * (4 << 20),
            },
            state: OsState::Assigned,
        });
        Ok(index)
    }

    /// Boot McKernel on an assigned instance.
    pub fn boot(&mut self, index: u32, costs: CostModel) -> Result<McKernel, PartitionError> {
        let inst = self
            .instances
            .get_mut(index as usize)
            .ok_or(PartitionError::NotReserved)?;
        assert_eq!(inst.state, OsState::Assigned, "boot from wrong state");
        inst.state = OsState::Booted;
        Ok(McKernel::boot(
            inst.partition.cores.clone(),
            inst.partition.mem_base,
            inst.partition.mem_len,
            costs,
        ))
    }

    /// Shut the instance down and return its resources to Linux.
    pub fn destroy(&mut self, index: u32, mem: &mut PhysMemory) -> Result<(), PartitionError> {
        let inst = self
            .instances
            .get_mut(index as usize)
            .ok_or(PartitionError::NotReserved)?;
        assert_ne!(inst.state, OsState::Destroyed, "double destroy");
        release_memory(mem, inst.partition.mem_base, inst.partition.mem_len)?;
        self.cpus.release(&inst.partition.cores)?;
        inst.state = OsState::Destroyed;
        Ok(())
    }

    /// Instance accessor.
    pub fn instance(&self, index: u32) -> Option<&OsInstance> {
        self.instances.get(index as usize)
    }

    /// Online expansion: reserve `cores` away from Linux and add them to
    /// a live instance's partition — no reboot, the LWK picks them up
    /// via `McKernel::online_core`. All-or-nothing like `create_os`.
    pub fn grow_os(&mut self, index: u32, cores: &[CoreId]) -> Result<(), PartitionError> {
        let inst = self
            .instances
            .get_mut(index as usize)
            .ok_or(PartitionError::NotReserved)?;
        assert_ne!(inst.state, OsState::Destroyed, "grow of a destroyed instance");
        self.cpus.reserve(cores)?;
        inst.partition.cores.extend_from_slice(cores);
        Ok(())
    }

    /// Online shrink: return `cores` of a live instance to Linux. Each
    /// must belong to the instance ([`PartitionError::NotReserved`]
    /// otherwise). The caller drains the cores first; the node runtime
    /// refuses a shrink with in-flight offloads before it gets here. The
    /// partition must keep at least one core.
    pub fn shrink_os(&mut self, index: u32, cores: &[CoreId]) -> Result<(), PartitionError> {
        let inst = self
            .instances
            .get_mut(index as usize)
            .ok_or(PartitionError::NotReserved)?;
        assert_ne!(inst.state, OsState::Destroyed, "shrink of a destroyed instance");
        for c in cores {
            if !inst.partition.cores.contains(c) {
                return Err(PartitionError::NotReserved);
            }
        }
        assert!(
            inst.partition.cores.len() > cores.len(),
            "shrink would leave the LWK without cores"
        );
        self.cpus.release(cores)?;
        inst.partition.cores.retain(|c| !cores.contains(c));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lwk_cores() -> Vec<CoreId> {
        (10..19).map(CoreId).collect()
    }

    #[test]
    fn full_lifecycle_without_reboot() {
        let mut mem = PhysMemory::new(8 << 30, 2);
        let mut ihk = IhkManager::new(20);
        // Paper configuration: 9 LWK cores in NUMA 1, core 19 left to the
        // proxy, memory from NUMA 1.
        let idx = ihk
            .create_os(&mut mem, &lwk_cores(), NumaId(1), 2 << 30)
            .unwrap();
        assert_eq!(ihk.linux_cores().len(), 11);
        let k = ihk.boot(idx, CostModel::default()).unwrap();
        assert_eq!(k.cores().len(), 9);
        assert_eq!(k.alloc.len_bytes(), 2 << 30);
        // Dynamic release: resources come back with no reboot.
        ihk.destroy(idx, &mut mem).unwrap();
        assert_eq!(ihk.linux_cores().len(), 20);
        // And can be re-reserved immediately (the reinit-between-runs policy).
        let idx2 = ihk
            .create_os(&mut mem, &lwk_cores(), NumaId(1), 2 << 30)
            .unwrap();
        assert_ne!(idx, idx2);
    }

    #[test]
    fn failed_memory_reservation_rolls_back_cpus() {
        let mut mem = PhysMemory::new(2 << 30, 2); // only 1 GiB per domain
        let mut ihk = IhkManager::new(20);
        let err = ihk
            .create_os(&mut mem, &lwk_cores(), NumaId(1), 4 << 30)
            .unwrap_err();
        assert!(matches!(err, PartitionError::MemUnavailable { .. }));
        assert_eq!(ihk.linux_cores().len(), 20, "CPU reservation rolled back");
    }

    #[test]
    fn conflicting_core_sets_rejected() {
        let mut mem = PhysMemory::new(8 << 30, 2);
        let mut ihk = IhkManager::new(20);
        ihk.create_os(&mut mem, &lwk_cores(), NumaId(1), 1 << 30)
            .unwrap();
        let err = ihk
            .create_os(&mut mem, &[CoreId(18), CoreId(19)], NumaId(0), 1 << 30)
            .unwrap_err();
        assert_eq!(err, PartitionError::CpuUnavailable(CoreId(18)));
    }

    #[test]
    fn online_grow_and_shrink_without_reboot() {
        let mut mem = PhysMemory::new(8 << 30, 2);
        let mut ihk = IhkManager::new(20);
        let idx = ihk
            .create_os(&mut mem, &lwk_cores(), NumaId(1), 2 << 30)
            .unwrap();
        ihk.boot(idx, CostModel::default()).unwrap();
        // Shrink a live instance: core 18 goes back to Linux.
        ihk.shrink_os(idx, &[CoreId(18)]).unwrap();
        assert!(!ihk.is_reserved(CoreId(18)));
        assert_eq!(ihk.instance(idx).unwrap().partition.cores.len(), 8);
        assert_eq!(ihk.linux_cores().len(), 12);
        // Grow it back.
        ihk.grow_os(idx, &[CoreId(18)]).unwrap();
        assert!(ihk.is_reserved(CoreId(18)));
        assert_eq!(ihk.instance(idx).unwrap().partition.cores.len(), 9);
        // Shrinking a core the instance does not own is typed.
        assert_eq!(
            ihk.shrink_os(idx, &[CoreId(2)]),
            Err(PartitionError::NotReserved)
        );
        ihk.shrink_os(idx, &[CoreId(18)]).unwrap();
    }

    #[test]
    fn two_instances_coexist() {
        let mut mem = PhysMemory::new(8 << 30, 2);
        let mut ihk = IhkManager::new(20);
        let a = ihk
            .create_os(&mut mem, &[CoreId(10), CoreId(11)], NumaId(1), 1 << 30)
            .unwrap();
        let b = ihk
            .create_os(&mut mem, &[CoreId(12), CoreId(13)], NumaId(1), 1 << 30)
            .unwrap();
        let ka = ihk.boot(a, CostModel::default()).unwrap();
        let kb = ihk.boot(b, CostModel::default()).unwrap();
        // Disjoint physical ranges.
        assert!(
            ka.alloc.base().raw() + ka.alloc.len_bytes() <= kb.alloc.base().raw()
                || kb.alloc.base().raw() + kb.alloc.len_bytes() <= ka.alloc.base().raw()
        );
        assert_eq!(ihk.linux_cores().len(), 16);
    }
}
