//! Calibrated cost model.
//!
//! Fixed mechanism costs live here; anything that depends on dynamic state
//! (how long until the proxy gets a Linux timeslice, wire latency) is
//! computed where that state lives. Values are era-appropriate estimates
//! for a 2.8 GHz Sandy/Ivy-Bridge-class part running RHEL 6.5. The A1
//! test in `cluster::node` holds the offload path built from them to at
//! least 50x an in-LWK call.

use simcore::Cycles;

/// Cost table for kernel mechanisms.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// McKernel syscall entry + dispatch + exit for an in-LWK call.
    pub lwk_syscall: Cycles,
    /// Linux syscall entry/exit overhead (before service time).
    pub linux_syscall_entry: Cycles,
    /// Marshal arguments + enqueue an IKC message + ring the doorbell.
    pub ikc_send: Cycles,
    /// Inter-kernel interrupt delivery latency (IPI across the partition).
    pub ikc_ipi: Cycles,
    /// Delegator kernel-module work to dequeue a request and wake the proxy.
    pub delegator_dispatch: Cycles,
    /// Proxy `ioctl()` return path: back to userspace, invoke the syscall.
    pub proxy_dispatch: Cycles,
    /// McKernel anonymous-page fault service (allocate + map, no IKC).
    pub lwk_page_fault: Cycles,
    /// Unified-address-space fault in the proxy: consult LWK page tables and
    /// install the same physical page into the pseudo mapping.
    pub unified_fault: Cycles,
    /// LWK-side device-map fault: IKC query of the tracking object, Linux
    /// resolves the physical address, LWK fills the PTE (steps 7-11, Fig 4).
    pub devmap_fault: Cycles,
    /// Linux-side `vm_mmap()` of a device file + tracking-object creation
    /// (steps 3 of Fig 4).
    pub devmap_setup: Cycles,
    /// TLB shootdown of one page on munmap synchronization.
    pub tlb_shootdown_page: Cycles,
    /// Per-4KiB-page cost of zeroing/copying during fault service.
    pub page_touch: Cycles,
    /// One MPK-style protection-domain switch (a WRPKRU-class register
    /// write plus its serializing cost). Charged on every fast-path
    /// entry/exit when intra-kernel protection domains are enabled, so
    /// the offload-bypass win is reported net of protection.
    pub domain_switch: Cycles,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            lwk_syscall: Cycles::from_ns(120),
            linux_syscall_entry: Cycles::from_ns(250),
            ikc_send: Cycles::from_ns(180),
            ikc_ipi: Cycles::from_ns(1_400),
            delegator_dispatch: Cycles::from_ns(600),
            proxy_dispatch: Cycles::from_ns(500),
            lwk_page_fault: Cycles::from_ns(650),
            unified_fault: Cycles::from_ns(1_800),
            devmap_fault: Cycles::from_ns(2_600),
            devmap_setup: Cycles::from_us(9),
            tlb_shootdown_page: Cycles::from_ns(900),
            page_touch: Cycles::from_ns(300),
            domain_switch: Cycles::from_ns(25),
        }
    }
}

impl CostModel {
    /// Fixed (uncontended) part of a full offload round trip:
    /// marshal → IPI → delegator → proxy dispatch → reply IPI → LWK resume.
    /// Excludes the Linux service time of the call itself and any scheduling
    /// delay of the proxy — those are dynamic.
    pub fn offload_fixed_rtt(&self) -> Cycles {
        self.ikc_send
            + self.ikc_ipi
            + self.delegator_dispatch
            + self.proxy_dispatch
            + self.linux_syscall_entry
            + self.ikc_send
            + self.ikc_ipi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_is_much_dearer_than_lwk_path() {
        let c = CostModel::default();
        // Paper's premise: delegation is fine for non-performance-critical
        // calls precisely because the fast ones stay local. The fixed RTT
        // should be ~one order of magnitude above an in-LWK syscall.
        assert!(c.offload_fixed_rtt().raw() > 10 * c.lwk_syscall.raw());
        // ... but still microseconds, not milliseconds (Sec. III-A works
        // because offload is cheap enough for control-plane calls).
        assert!(c.offload_fixed_rtt() < Cycles::from_us(20));
    }

    #[test]
    fn fault_cost_ordering() {
        let c = CostModel::default();
        // Local LWK fault < unified-AS fault < device-map fault (the last
        // two cross kernels; devmap additionally resolves tracking state).
        assert!(c.lwk_page_fault < c.unified_fault);
        assert!(c.unified_fault < c.devmap_fault);
    }

    #[test]
    fn domain_switch_is_cheap_relative_to_offload() {
        let c = CostModel::default();
        // The whole point of the bypass: an in-LWK call plus two domain
        // switches (enter + exit the protected region) must stay far
        // below the fixed offload round trip, or promotion buys nothing.
        let guarded = c.lwk_syscall + c.domain_switch * 2;
        assert!(guarded.raw() * 3 < c.offload_fixed_rtt().raw());
    }
}
