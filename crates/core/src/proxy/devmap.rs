//! Transparent device-file mapping — the Fig. 4 flow, executable.
//!
//! Setup (steps 1–5): the application `mmap()`s a device file; McKernel
//! forwards the request; the IHK delegator `vm_mmap()`s the device into
//! the *proxy's* address space and creates a tracking object; McKernel
//! then allocates its own virtual range for the application. The two
//! virtual addresses differ — and that is fine, because the proxy never
//! runs application code and thus never touches its copy of the mapping.
//!
//! Fault (steps 6–11): the application touches the mapping; McKernel's
//! fault handler recognizes the device VMA and asks Linux (through IHK) to
//! resolve the physical address from the tracking object and offset;
//! McKernel fills its own PTE. Afterwards the device is driven entirely by
//! user-space loads/stores — no Linux code on LWK cores.

use crate::abi::{Errno, Pid};
use crate::costs::CostModel;
use crate::ihk::delegator::Delegator;
use crate::mck::mem::vm::VmaKind;
use crate::mck::mem::{self, FaultOutcome};
use crate::mck::McKernel;
use crate::proxy::ProxyProcess;
use hwmodel::addr::{PhysAddr, VirtAddr};
use hwmodel::pci::PciDevice;
use simcore::Cycles;

/// Result of a completed device `mmap` (steps 1–5).
#[derive(Debug, PartialEq, Eq)]
pub struct DevMmapResult {
    /// Application-visible address in the McKernel range.
    pub lwk_va: VirtAddr,
    /// Proxy-side address of the Linux mapping (never dereferenced).
    pub proxy_va: VirtAddr,
    /// Tracking-object id linking the two.
    pub tracking: u64,
    /// Modeled setup cost (IKC round trip + Linux `vm_mmap` + bookkeeping).
    pub cost: Cycles,
}

/// Execute the device-mmap setup flow (Fig. 4 steps 1–5) synchronously.
/// The `cluster` crate performs the same transitions and charges their
/// costs to the node's simulated clock.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's actors
pub fn device_mmap(
    mck: &mut McKernel,
    app_pid: Pid,
    proxy: &mut ProxyProcess,
    delegator: &mut Delegator,
    dev: &PciDevice,
    bar: u8,
    file_off: u64,
    len: u64,
) -> Result<DevMmapResult, Errno> {
    let costs = mck.costs;
    // Steps 1-2 happened: the app called mmap(fd) and McKernel forwarded
    // it. Step 3: Linux memory-maps the device file into the proxy.
    let phys_base = dev.bar_phys(bar, file_off).ok_or(Errno::ENODEV)?;
    let proxy_va = proxy.linux_vm.mmap(
        len,
        VmaKind::Device {
            dev_name: dev.dev_name.clone(),
            file_off,
            tracking: 0, // Linux side: the tracking object *is* the record
        },
        true,
        None,
    )?;
    let tracking = delegator.create_tracking(app_pid, &dev.dev_name, phys_base, len, proxy_va.raw());
    // Steps 4-5: Linux replies; McKernel allocates its own virtual range.
    let lwk_va = mck.complete_device_mmap(app_pid, len, &dev.dev_name, file_off, tracking)?;
    // The unified-address-space invariant: the two ranges differ because
    // the proxy's whole view of app memory is the pseudo mapping.
    debug_assert_ne!(lwk_va, proxy_va);
    let cost = costs.offload_fixed_rtt() + costs.devmap_setup;
    Ok(DevMmapResult {
        lwk_va,
        proxy_va,
        tracking,
        cost,
    })
}

/// Execute the device-fault flow (Fig. 4 steps 6–11) synchronously:
/// returns the physical address now installed in the LWK PTE.
pub fn device_fault(
    mck: &mut McKernel,
    app_pid: Pid,
    delegator: &mut Delegator,
    va: VirtAddr,
) -> Result<(PhysAddr, Cycles), Errno> {
    let costs: CostModel = mck.costs;
    // Steps 6-7: access + page fault; McKernel recognizes the device VMA.
    match mck.page_fault(app_pid, va) {
        FaultOutcome::NeedsDeviceResolve {
            file_off: _,
            tracking,
            page_va,
            ..
        } => {
            // Steps 8-10: IKC request; Linux resolves via the tracking
            // object; reply. The offset key is relative to the mapping.
            let vma_start = {
                let proc = mck.process(app_pid).ok_or(Errno::ENOENT)?;
                let vma = proc.aspace.vm.vma_at(va).ok_or(Errno::EFAULT)?;
                vma.start
            };
            let offset = page_va - vma_start;
            let phys = delegator
                .resolve_pfn(tracking, offset)
                .ok_or(Errno::EFAULT)?;
            // Step 11: fill in the missing PTE.
            let proc = mck.process_mut(app_pid).ok_or(Errno::ENOENT)?;
            mem::complete_device_fault(&mut proc.aspace, page_va, phys)
                .map_err(|_| Errno::EEXIST)?;
            mck.devmap_faults += 1;
            Ok((phys, costs.devmap_fault))
        }
        FaultOutcome::Mapped { phys, .. } => Ok((phys, Cycles::ZERO)),
        FaultOutcome::SegFault => Err(Errno::EFAULT),
    }
}

/// Result of a zero-copy device `mmap`: the ordinary Fig. 4 setup plus
/// an eager, batched population of every PTE in the range.
#[derive(Debug, PartialEq, Eq)]
pub struct DevMmapZeroCopyResult {
    /// The underlying mapping (same fields as the lazy flow).
    pub map: DevMmapResult,
    /// PTEs installed eagerly.
    pub pages: u64,
    /// Modeled cost of the batched population: one PFN-resolve IKC
    /// exchange amortized over the whole range, plus a per-page PTE
    /// install. After this, device touches cost nothing extra — the
    /// lazy flow instead pays `devmap_fault` (an offload-class round
    /// trip) on the first touch of *every* page.
    pub populate_cost: Cycles,
}

/// Zero-copy device mmap: run the Fig. 4 setup, then resolve **all**
/// pages of the mapping through the tracking object in one batched
/// exchange and install the device PTEs up front. The mapped frames are
/// the device's own BAR frames — no bounce buffer, no copy — and the
/// app's first touch of any page is already a plain user-space access.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's actors
pub fn device_mmap_zero_copy(
    mck: &mut McKernel,
    app_pid: Pid,
    proxy: &mut ProxyProcess,
    delegator: &mut Delegator,
    dev: &PciDevice,
    bar: u8,
    file_off: u64,
    len: u64,
) -> Result<DevMmapZeroCopyResult, Errno> {
    let map = device_mmap(mck, app_pid, proxy, delegator, dev, bar, file_off, len)?;
    let pages = len.div_ceil(hwmodel::addr::PAGE_SIZE);
    // One batched resolve trip for the whole range (the request carries
    // the page count; the reply carries every PFN) ...
    let mut populate_cost = mck.costs.devmap_fault;
    for i in 0..pages {
        let offset = i * hwmodel::addr::PAGE_SIZE;
        let phys = delegator
            .resolve_pfn(map.tracking, offset)
            .ok_or(Errno::EFAULT)?;
        let proc = mck.process_mut(app_pid).ok_or(Errno::ENOENT)?;
        mem::complete_device_fault(&mut proc.aspace, map.lwk_va + offset, phys)
            .map_err(|_| Errno::EEXIST)?;
        // ... plus the local PTE install per page.
        populate_cost += mck.costs.page_touch;
    }
    Ok(DevMmapZeroCopyResult {
        map,
        pages,
        populate_cost,
    })
}

/// Tear down a zero-copy mapping: unmap every PTE through the
/// TLB-coherent path (each leaf removal broadcasts a software-TLB
/// shootdown to every CPU) and drop the Linux-side tracking object.
/// Returns the modeled teardown cost.
pub fn device_munmap_zero_copy(
    mck: &mut McKernel,
    app_pid: Pid,
    delegator: &mut Delegator,
    lwk_va: VirtAddr,
    len: u64,
    tracking: u64,
) -> Result<Cycles, Errno> {
    let stats = mck.munmap_range(app_pid, lwk_va, len)?;
    // The tracking object may already be gone (proxy death reclaimed it);
    // the unmap itself must still succeed.
    delegator.drop_tracking(tracking);
    Ok(stats.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostModel;
    use hwmodel::cpu::CoreId;
    use hwmodel::node::{NodeId, NodeSpec};
    use hwmodel::pci::DeviceClass;

    fn setup() -> (McKernel, ProxyProcess, Delegator, PciDevice) {
        let hw = NodeSpec::paper_testbed().build(NodeId(0));
        let dev = hw
            .device_of_class(DeviceClass::InfinibandHca)
            .unwrap()
            .clone();
        let mck = McKernel::boot(
            (10..19).map(CoreId).collect(),
            PhysAddr(1 << 30),
            64 << 20,
            CostModel::default(),
        );
        (mck, ProxyProcess::new(Pid(500), Pid(0)), Delegator::new(), dev)
    }

    #[test]
    fn full_eleven_step_flow() {
        let (mut mck, mut proxy, mut delegator, dev) = setup();
        let pid = mck.create_process(Some(proxy.pid));
        proxy.app_pid = pid;

        // Steps 1-5.
        let res = device_mmap(
            &mut mck,
            pid,
            &mut proxy,
            &mut delegator,
            &dev,
            0,
            0x1000,
            0x4000,
        )
        .unwrap();
        assert_ne!(res.lwk_va, res.proxy_va, "the two mappings differ");
        assert!(res.cost > Cycles::ZERO);

        // Steps 6-11 at an interior page.
        let fault_va = res.lwk_va + 0x2000;
        let (phys, cost) = device_fault(&mut mck, pid, &mut delegator, fault_va).unwrap();
        let bar_base = dev.bars[0].base;
        assert_eq!(phys, bar_base + 0x1000 + 0x2000, "BAR-relative resolution");
        assert_eq!(cost, mck.costs.devmap_fault);

        // The PTE is installed: subsequent access is a plain user-space
        // load/store with no kernel involvement.
        let t = mck
            .process(pid)
            .unwrap()
            .aspace
            .pt
            .translate(fault_va)
            .unwrap();
        assert!(t.flags.device);
        assert_eq!(t.phys, phys);
        let (_, refault_cost) = device_fault(&mut mck, pid, &mut delegator, fault_va).unwrap();
        assert_eq!(refault_cost, Cycles::ZERO, "already mapped: no IKC trip");
    }

    #[test]
    fn zero_copy_mmap_populates_every_pte_eagerly() {
        let (mut mck, mut proxy, mut delegator, dev) = setup();
        let pid = mck.create_process(Some(proxy.pid));
        proxy.app_pid = pid;
        let res = device_mmap_zero_copy(
            &mut mck,
            pid,
            &mut proxy,
            &mut delegator,
            &dev,
            0,
            0x1000,
            0x4000,
        )
        .unwrap();
        assert_eq!(res.pages, 4);
        assert!(res.populate_cost > mck.costs.devmap_fault);
        assert!(
            res.populate_cost < mck.costs.devmap_fault * 4,
            "batched: far cheaper than one resolve trip per page"
        );
        // Every page translates immediately — no faults, no IKC.
        let bar_base = dev.bars[0].base;
        for i in 0..4u64 {
            let (phys, cost) =
                device_fault(&mut mck, pid, &mut delegator, res.map.lwk_va + i * 0x1000)
                    .unwrap();
            assert_eq!(cost, Cycles::ZERO, "page {i} pre-resolved");
            assert_eq!(phys, bar_base + 0x1000 + i * 0x1000);
        }
        assert_eq!(mck.devmap_faults, 0, "no lazy faults were needed");
    }

    #[test]
    fn zero_copy_unmap_shoots_down_every_cpu_tlb() {
        // Regression: a stale software-TLB entry must never survive a
        // devmap unmap. Warm every CPU's TLB on every page, tear the
        // mapping down, then do *cache-only* lookups — any hit means a
        // CPU could still touch device frames through a dead mapping.
        let (mut mck, mut proxy, mut delegator, dev) = setup();
        let pid = mck.create_process(Some(proxy.pid));
        proxy.app_pid = pid;
        let res = device_mmap_zero_copy(
            &mut mck,
            pid,
            &mut proxy,
            &mut delegator,
            &dev,
            0,
            0,
            0x3000,
        )
        .unwrap();
        let ncpus = {
            let proc = mck.process_mut(pid).unwrap();
            let n = proc.aspace.tlb.len();
            for cpu in 0..n {
                for i in 0..3u64 {
                    assert!(proc
                        .aspace
                        .translate_on(cpu, res.map.lwk_va + i * 0x1000)
                        .is_some());
                }
            }
            n
        };
        let cost = device_munmap_zero_copy(
            &mut mck,
            pid,
            &mut delegator,
            res.map.lwk_va,
            0x3000,
            res.map.tracking,
        )
        .unwrap();
        assert!(cost > Cycles::ZERO, "teardown charges shootdown work");
        let proc = mck.process_mut(pid).unwrap();
        for cpu in 0..ncpus {
            for i in 0..3u64 {
                assert!(
                    proc.aspace
                        .tlb
                        .lookup_on(cpu, res.map.lwk_va + i * 0x1000)
                        .is_none(),
                    "stale TLB entry for page {i} survived on cpu {cpu}"
                );
            }
        }
        assert_eq!(delegator.tracking_count(), 0, "tracking object dropped");
        // The VMA itself is gone: a new fault is a clean EFAULT.
        assert_eq!(
            device_fault(&mut mck, pid, &mut delegator, res.map.lwk_va),
            Err(Errno::EFAULT)
        );
    }

    #[test]
    fn mapping_past_bar_end_rejected() {
        let (mut mck, mut proxy, mut delegator, dev) = setup();
        let pid = mck.create_process(Some(proxy.pid));
        let bar_size = dev.bars[0].size;
        assert_eq!(
            device_mmap(
                &mut mck,
                pid,
                &mut proxy,
                &mut delegator,
                &dev,
                0,
                bar_size, // offset at the very end: no space left
                0x1000,
            ),
            Err(Errno::ENODEV)
        );
    }

    #[test]
    fn fault_past_mapping_end_is_efault() {
        let (mut mck, mut proxy, mut delegator, dev) = setup();
        let pid = mck.create_process(Some(proxy.pid));
        let res = device_mmap(
            &mut mck,
            pid,
            &mut proxy,
            &mut delegator,
            &dev,
            0,
            0,
            0x2000,
        )
        .unwrap();
        // The VMA is exactly 0x2000; an address beyond it has no VMA.
        assert_eq!(
            device_fault(&mut mck, pid, &mut delegator, res.lwk_va + 0x3000),
            Err(Errno::EFAULT)
        );
    }

    #[test]
    fn two_mappings_get_distinct_tracking_objects() {
        let (mut mck, mut proxy, mut delegator, dev) = setup();
        let pid = mck.create_process(Some(proxy.pid));
        let a = device_mmap(&mut mck, pid, &mut proxy, &mut delegator, &dev, 0, 0, 0x1000)
            .unwrap();
        let b = device_mmap(
            &mut mck,
            pid,
            &mut proxy,
            &mut delegator,
            &dev,
            0,
            0x10_0000,
            0x1000,
        )
        .unwrap();
        assert_ne!(a.tracking, b.tracking);
        assert_ne!(a.lwk_va, b.lwk_va);
        assert_ne!(a.proxy_va, b.proxy_va);
        // Each resolves to its own BAR offset.
        let (pa, _) = device_fault(&mut mck, pid, &mut delegator, a.lwk_va).unwrap();
        let (pb, _) = device_fault(&mut mck, pid, &mut delegator, b.lwk_va).unwrap();
        assert_eq!(pb - pa, 0x10_0000);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::costs::CostModel;
    use hwmodel::cpu::CoreId;
    use hwmodel::node::{NodeId, NodeSpec};
    use hwmodel::pci::DeviceClass;

    #[test]
    fn fault_after_tracking_dropped_is_efault() {
        // Failure injection: Linux tears down the tracking object (e.g.
        // the proxy died and the delegator cleaned up) while the LWK
        // still holds the VMA. The next fault must fail cleanly, not
        // resolve to stale physical memory.
        let hw = NodeSpec::paper_testbed().build(NodeId(0));
        let dev = hw
            .device_of_class(DeviceClass::InfinibandHca)
            .expect("HCA present")
            .clone();
        let mut mck = McKernel::boot(
            (10..19).map(CoreId).collect(),
            PhysAddr(1 << 30),
            64 << 20,
            CostModel::default(),
        );
        let mut delegator = Delegator::new();
        let pid = mck.create_process(Some(Pid(500)));
        let mut proxy = ProxyProcess::new(Pid(500), pid);
        let map = device_mmap(&mut mck, pid, &mut proxy, &mut delegator, &dev, 0, 0, 0x4000)
            .expect("UAR maps");
        // First page resolves fine.
        device_fault(&mut mck, pid, &mut delegator, map.lwk_va).expect("resolves");
        // Linux drops the tracking object.
        assert!(delegator.drop_tracking(map.tracking));
        // A fault on a *new* page of the same mapping now fails.
        assert_eq!(
            device_fault(&mut mck, pid, &mut delegator, map.lwk_va + 0x2000),
            Err(Errno::EFAULT)
        );
        // But the already-installed PTE keeps working (the paper's point:
        // after setup, the data path needs no Linux at all).
        let (_, cost) = device_fault(&mut mck, pid, &mut delegator, map.lwk_va)
            .expect("installed PTE survives");
        assert_eq!(cost, simcore::Cycles::ZERO);
    }
}
