//! MPK-style intra-kernel protection domains.
//!
//! RustyMPK-flavored model: the LWK tags its unsafe shared surfaces —
//! the IKC ring, the delegator tables, the promoted-fd shared file
//! rings, and the vDSO time page — with protection keys, and every
//! fast-path entry/exit pays a WRPKRU-class register write
//! (`costs.domain_switch`, ~25 ns) to open exactly one key. The model
//! is a cost/accounting model, not an enforcement engine: what matters
//! for the paper-style figures is that the offload-bypass win is
//! reported *net* of the protection the bypass needs, because the
//! whole point of keeping hot syscalls in-LWK is reaching kernel state
//! that offload would have kept on the other side of the IKC boundary.
//!
//! Disabled (the default) the model charges nothing and counts
//! nothing, so paper-reproduction binaries are byte-identical whether
//! or not the machinery is wired in.

use simcore::Cycles;

/// The kernel regions guarded by distinct protection keys.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum DomainId {
    /// Default key: ordinary kernel text/data, always accessible.
    KernelCore = 0,
    /// The IKC rings shared with Linux.
    IkcRing = 1,
    /// The delegator's in-flight table and reply-cache slab.
    DelegatorSlab = 2,
    /// Per-fd shared file rings backing promoted read/write/lseek.
    FdRing = 3,
    /// The vDSO-style shared time page backing promoted clock reads.
    TimePage = 4,
}

/// PKRU-register model: a 2-bits-per-key access mask plus the switch
/// accounting. Same-domain re-entry elides the WRPKRU exactly like the
/// real instruction sequence would (the register already holds the
/// right mask), so tight loops over one fast path pay entry+exit once
/// per call, not per touch.
#[derive(Clone, Copy, Debug)]
pub struct DomainModel {
    /// Master switch; disabled ⇒ zero cost, zero counting.
    pub enabled: bool,
    /// Cost of one WRPKRU-class domain switch.
    pub switch_cost: Cycles,
    /// Domain currently opened in addition to [`DomainId::KernelCore`].
    current: DomainId,
    /// PKRU image: bit `2k` = access-disable, bit `2k+1` = write-disable
    /// for key `k`. Kept for inspection; `current` is the fast path.
    pkru: u32,
    /// WRPKRU writes performed (the figure-visible counter).
    pub switches: u64,
}

/// All keys access-disabled except [`DomainId::KernelCore`].
const PKRU_LOCKED: u32 = 0b11_11_11_11_00;

impl Default for DomainModel {
    fn default() -> Self {
        DomainModel::disabled()
    }
}

impl DomainModel {
    /// The default: protection modeling off, every charge zero.
    pub fn disabled() -> Self {
        DomainModel {
            enabled: false,
            switch_cost: Cycles::ZERO,
            current: DomainId::KernelCore,
            pkru: PKRU_LOCKED,
            switches: 0,
        }
    }

    /// Arm the model with the given WRPKRU cost.
    pub fn enabled(switch_cost: Cycles) -> Self {
        DomainModel {
            enabled: true,
            switch_cost,
            current: DomainId::KernelCore,
            pkru: PKRU_LOCKED,
            switches: 0,
        }
    }

    /// Open `domain` (fast-path entry). Returns the charge: one switch
    /// cost, or zero when disabled or when `domain` is already open
    /// (same-domain re-entry needs no WRPKRU).
    #[inline]
    pub fn enter(&mut self, domain: DomainId) -> Cycles {
        if !self.enabled || self.current == domain {
            return Cycles::ZERO;
        }
        self.pkru = PKRU_LOCKED & !(0b11 << (2 * domain as u32));
        self.current = domain;
        self.switches += 1;
        self.switch_cost
    }

    /// Close the open domain, returning to the locked kernel-core mask
    /// (fast-path exit). Charges like [`enter`](Self::enter).
    #[inline]
    pub fn exit(&mut self) -> Cycles {
        self.enter(DomainId::KernelCore)
    }

    /// The domain currently open.
    pub fn current(&self) -> DomainId {
        self.current
    }

    /// Whether the PKRU image currently permits access to `domain`.
    pub fn accessible(&self, domain: DomainId) -> bool {
        domain == DomainId::KernelCore || self.pkru & (0b1 << (2 * domain as u32)) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_charges_and_counts_nothing() {
        let mut d = DomainModel::disabled();
        assert_eq!(d.enter(DomainId::IkcRing), Cycles::ZERO);
        assert_eq!(d.exit(), Cycles::ZERO);
        assert_eq!(d.switches, 0);
        assert_eq!(d.current(), DomainId::KernelCore);
    }

    #[test]
    fn entry_exit_pair_costs_two_switches() {
        let mut d = DomainModel::enabled(Cycles::from_ns(25));
        let c1 = d.enter(DomainId::DelegatorSlab);
        assert_eq!(c1, Cycles::from_ns(25));
        assert!(d.accessible(DomainId::DelegatorSlab));
        assert!(!d.accessible(DomainId::IkcRing), "one key at a time");
        let c2 = d.exit();
        assert_eq!(c2, Cycles::from_ns(25));
        assert_eq!(d.switches, 2);
        assert!(!d.accessible(DomainId::DelegatorSlab), "locked after exit");
        assert!(d.accessible(DomainId::KernelCore), "core always open");
    }

    #[test]
    fn same_domain_reentry_elides_the_wrpkru() {
        let mut d = DomainModel::enabled(Cycles::from_ns(25));
        d.enter(DomainId::FdRing);
        assert_eq!(d.enter(DomainId::FdRing), Cycles::ZERO, "already open");
        assert_eq!(d.switches, 1);
        // Switching straight to another domain is one write, not two.
        assert_eq!(d.enter(DomainId::TimePage), Cycles::from_ns(25));
        assert_eq!(d.switches, 2);
        assert!(d.accessible(DomainId::TimePage));
        assert!(!d.accessible(DomainId::FdRing));
    }
}
