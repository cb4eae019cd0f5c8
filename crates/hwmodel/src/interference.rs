//! TLB and shared-resource interference models.
//!
//! Two hardware effects in the paper are *not* eliminated by kernel-level
//! isolation and must come from the hardware model:
//!
//! 1. **Memory-management dividend** (Fig. 8): McKernel backs anonymous
//!    memory with physically contiguous extents and 2 MiB mappings, and the
//!    paper measures ~1% fewer TLB misses and ~3% fewer LLC misses,
//!    yielding a 1–8% application-level win. We model the fraction of a
//!    compute quantum lost to TLB walks and LLC misses as a function of the
//!    mapping's page size and contiguity.
//! 2. **Shared-resource pollution** (Sec. IV-B2): "certain hardware
//!    components (e.g., the last level cache) are shared, which we cannot
//!    control in software" — an in-situ workload pollutes the LLC of the
//!    socket it runs on and consumes memory/QPI bandwidth node-wide, so
//!    even McKernel shows a few percent variation under co-location.
//!
//! The model outputs a multiplicative *stretch factor* applied to compute
//! quanta. All parameters are public and documented so ablations can sweep
//! them.

/// How a process's hot anonymous memory is mapped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageBacking {
    /// 4 KiB pages, demand-paged, physically scattered (Linux default).
    Small4k,
    /// 2 MiB mappings over physically contiguous extents (McKernel's buddy
    /// allocator output).
    Large2mContiguous,
}

/// Memory behaviour of a workload's compute phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemProfile {
    /// Fraction of execution that is memory-bound (0 = pure ALU, 1 = pure
    /// streaming). Sparse solvers (HPC-CG) sit high; MD force loops lower.
    pub mem_intensity: f64,
}

impl MemProfile {
    /// A memory-bound profile (sparse matrix kernels).
    pub fn memory_bound() -> Self {
        MemProfile { mem_intensity: 0.8 }
    }
}

/// Pollution pressure exerted by co-located work, per socket.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pollution {
    /// Cache pressure (0..1) from co-runners sharing this core's LLC.
    pub same_socket: f64,
    /// Memory/QPI bandwidth pressure (0..1) from the other socket.
    pub cross_socket: f64,
}

impl Pollution {
    /// No co-located interference.
    pub const NONE: Pollution = Pollution {
        same_socket: 0.0,
        cross_socket: 0.0,
    };
}

/// The interference model; see module docs. Defaults are calibrated so the
/// Linux-vs-McKernel gap lands in the paper's 1–8% band (Fig. 8) and
/// McKernel's residual under co-location stays at a few percent (Fig. 9).
#[derive(Clone, Copy, Debug)]
pub struct InterferenceModel {
    /// Fraction of a fully memory-bound quantum lost to TLB walks with
    /// 4 KiB scattered pages.
    pub tlb_frac_4k: f64,
    /// Multiplier on TLB loss when 2 MiB contiguous mappings are used
    /// (512x fewer leaf entries; walks mostly disappear).
    pub tlb_large_factor: f64,
    /// Fraction of a fully memory-bound quantum lost to LLC misses in the
    /// uncontended, scattered-pages case.
    pub llc_frac: f64,
    /// Multiplier on LLC loss for physically contiguous backing (fewer
    /// conflict misses; better hardware prefetch).
    pub llc_contig_factor: f64,
    /// Extra LLC loss (relative to `llc_frac`) at same-socket pollution 1.0.
    pub llc_pollution_gain: f64,
    /// Runtime stretch at cross-socket bandwidth pressure 1.0 for a fully
    /// memory-bound quantum. This is large: on Linux the co-located job's
    /// page cache and reclaim traffic spill into the HPC socket's memory
    /// (remote allocations over QPI), stealing local DRAM bandwidth. IHK's
    /// memory reservation makes the LWK partition invisible to Linux's
    /// allocator, so McKernel nodes only feel a small residual (the
    /// `cross_socket` *pressure* is set lower there, not this gain).
    pub membw_pollution_gain: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel {
            tlb_frac_4k: 0.030,
            tlb_large_factor: 0.25,
            llc_frac: 0.050,
            llc_contig_factor: 0.94,
            llc_pollution_gain: 0.60,
            membw_pollution_gain: 0.32,
        }
    }
}

impl InterferenceModel {
    /// Multiplicative stretch applied to a compute quantum.
    ///
    /// Always >= 1.0; equals 1.0 only for a zero-memory-intensity workload.
    pub fn stretch(&self, prof: MemProfile, backing: PageBacking, pol: Pollution) -> f64 {
        let mi = prof.mem_intensity.clamp(0.0, 1.0);
        let (tlb_mult, llc_mult) = match backing {
            PageBacking::Small4k => (1.0, 1.0),
            PageBacking::Large2mContiguous => (self.tlb_large_factor, self.llc_contig_factor),
        };
        let tlb = self.tlb_frac_4k * tlb_mult;
        let llc = self.llc_frac
            * llc_mult
            * (1.0 + self.llc_pollution_gain * pol.same_socket.clamp(0.0, 1.0));
        let membw = self.membw_pollution_gain * pol.cross_socket.clamp(0.0, 1.0);
        1.0 + mi * (tlb + llc + membw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_at_least_one() {
        let m = InterferenceModel::default();
        for mi in [0.0, 0.3, 1.0] {
            for backing in [PageBacking::Small4k, PageBacking::Large2mContiguous] {
                let s = m.stretch(MemProfile { mem_intensity: mi }, backing, Pollution::NONE);
                assert!(s >= 1.0, "stretch {s} < 1");
            }
        }
        assert_eq!(
            m.stretch(
                MemProfile { mem_intensity: 0.0 },
                PageBacking::Small4k,
                Pollution::NONE
            ),
            1.0
        );
    }

    #[test]
    fn large_pages_beat_small_pages() {
        let m = InterferenceModel::default();
        let p = MemProfile::memory_bound();
        let small = m.stretch(p, PageBacking::Small4k, Pollution::NONE);
        let large = m.stretch(p, PageBacking::Large2mContiguous, Pollution::NONE);
        assert!(large < small);
        // Paper band: the win should be percent-scale, not 2x.
        let gain = small / large - 1.0;
        assert!((0.005..0.10).contains(&gain), "gain {gain} outside 0.5-10%");
    }

    #[test]
    fn pollution_monotone() {
        let m = InterferenceModel::default();
        let p = MemProfile::memory_bound();
        let quiet = m.stretch(p, PageBacking::Large2mContiguous, Pollution::NONE);
        let cross = m.stretch(
            p,
            PageBacking::Large2mContiguous,
            Pollution {
                same_socket: 0.0,
                cross_socket: 1.0,
            },
        );
        let same = m.stretch(
            p,
            PageBacking::Large2mContiguous,
            Pollution {
                same_socket: 1.0,
                cross_socket: 1.0,
            },
        );
        assert!(quiet < cross && cross < same);
        // Full cross-socket pressure (Linux page-cache spill) is a heavy
        // hit on a memory-bound code...
        assert!(cross / quiet - 1.0 > 0.15);
        // ...while the McKernel residual (pressure ~0.1) stays small.
        let resid = m.stretch(
            p,
            PageBacking::Large2mContiguous,
            Pollution {
                same_socket: 0.0,
                cross_socket: 0.1,
            },
        );
        assert!(resid / quiet - 1.0 < 0.04);
    }

    #[test]
    fn pollution_clamped() {
        let m = InterferenceModel::default();
        let p = MemProfile::memory_bound();
        let over = m.stretch(
            p,
            PageBacking::Small4k,
            Pollution {
                same_socket: 5.0,
                cross_socket: 5.0,
            },
        );
        let unit = m.stretch(
            p,
            PageBacking::Small4k,
            Pollution {
                same_socket: 1.0,
                cross_socket: 1.0,
            },
        );
        assert_eq!(over, unit);
    }
}
