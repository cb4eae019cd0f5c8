//! CFS scheduler tunables and timeslice arithmetic.
//!
//! The fair-share contention model itself lives in
//! [`crate::runtime::LinuxCoreRuntime::execute`]: with `n` other runnable
//! tasks on a core, a task progresses at rate `1/(n+1)` and pays context
//! switches every [`CfsParams::timeslice`]. This is what turns co-located
//! Hadoop tasks into the up-to-16x FWQ slowdowns of Fig. 5c.

use simcore::Cycles;

/// Scheduler tunables (RHEL 6-era defaults).
#[derive(Clone, Copy, Debug)]
pub struct CfsParams {
    /// Target latency: every runnable task runs once per this period.
    pub sched_latency: Cycles,
    /// Lower bound on any timeslice.
    pub min_granularity: Cycles,
    /// Cost of one context switch (direct + cache-refill surcharge).
    pub ctx_switch: Cycles,
}

impl Default for CfsParams {
    fn default() -> Self {
        CfsParams {
            sched_latency: Cycles::from_ms(20),
            min_granularity: Cycles::from_ms(4),
            ctx_switch: Cycles::from_us(5),
        }
    }
}

impl CfsParams {
    /// Timeslice with `nr` runnable tasks.
    pub fn timeslice(&self, nr: u32) -> Cycles {
        if nr == 0 {
            return self.sched_latency;
        }
        (self.sched_latency / u64::from(nr)).max(self.min_granularity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeslice_shrinks_with_load_but_floors() {
        let p = CfsParams::default();
        assert_eq!(p.timeslice(1), Cycles::from_ms(20));
        assert_eq!(p.timeslice(2), Cycles::from_ms(10));
        assert_eq!(p.timeslice(5), Cycles::from_ms(4));
        assert_eq!(p.timeslice(100), Cycles::from_ms(4), "min granularity");
    }
}
