//! The cooperative, tick-less scheduler's per-core run queues.
//!
//! McKernel schedules "with a simple round-robin cooperative (tick-less)
//! scheduler" (Sec. II). What makes the LWK noiseless is structural:
//!
//! * **No timer tick** — there is no periodic event source at all.
//! * **Cooperative** — a running thread is never preempted, so the node
//!   runtime runs each LWK compute quantum to completion on its core.
//! * **Per-core queues, no balancing** — no cross-core locks, no work
//!   stealing, no IPIs between LWK cores. Threads move only when an
//!   elastic shrink migrates them off a core it hands back to Linux.
//!
//! Dispatch is not modelled as state here; the queues record which
//! threads are runnable on which core, which is what core hotplug,
//! migration and the pristine-LWK check read.

use crate::abi::Tid;
use hwmodel::cpu::CoreId;
use std::collections::{BTreeMap, VecDeque};

/// Per-core cooperative run queues.
#[derive(Debug)]
pub struct CoopScheduler {
    queues: BTreeMap<CoreId, VecDeque<Tid>>,
}

impl CoopScheduler {
    /// Scheduler over the LWK's core partition.
    pub fn new(cores: &[CoreId]) -> Self {
        CoopScheduler {
            queues: cores.iter().map(|&c| (c, VecDeque::new())).collect(),
        }
    }

    /// Whether `core` has a run queue here.
    pub fn has_core(&self, core: CoreId) -> bool {
        self.queues.contains_key(&core)
    }

    /// Core hotplug (online expansion): give `core` an empty run queue.
    pub fn add_core(&mut self, core: CoreId) {
        assert!(!self.has_core(core), "{core} already scheduled");
        self.queues.insert(core, VecDeque::new());
    }

    /// Core hotplug (online shrink): remove `core`'s run queue. Refuses
    /// while any thread is still queued on the core — the caller must
    /// migrate threads off first.
    pub fn remove_core(&mut self, core: CoreId) -> Result<(), &'static str> {
        if !self.has_core(core) {
            return Err("core not scheduled here");
        }
        if self.queued(core) > 0 {
            return Err("runnable threads still queued on the core");
        }
        self.queues.remove(&core);
        Ok(())
    }

    /// Remove `tid` from `core`'s run queue (thread migration or reap).
    /// Returns whether it was queued there.
    pub fn dequeue(&mut self, core: CoreId, tid: Tid) -> bool {
        let q = self.queue_mut(core);
        match q.iter().position(|&t| t == tid) {
            Some(i) => {
                q.remove(i);
                true
            }
            None => false,
        }
    }

    fn queue_mut(&mut self, core: CoreId) -> &mut VecDeque<Tid> {
        self.queues
            .get_mut(&core)
            .unwrap_or_else(|| panic!("{core} not in LWK partition"))
    }

    /// Make `tid` runnable on `core` (enqueue at tail).
    pub fn enqueue(&mut self, core: CoreId, tid: Tid) {
        self.queue_mut(core).push_back(tid);
    }

    /// Runnable count on a core.
    pub fn queued(&self, core: CoreId) -> usize {
        self.queues.get(&core).map(VecDeque::len).unwrap_or(0)
    }

    /// Whether every run queue is empty (pristine-LWK check: a reaped
    /// job must leave no thread queued on any core).
    pub fn is_empty(&self) -> bool {
        self.queues.values().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores() -> Vec<CoreId> {
        (10..13).map(CoreId).collect()
    }

    #[test]
    fn cores_are_independent() {
        let mut s = CoopScheduler::new(&cores());
        s.enqueue(CoreId(10), Tid(1));
        s.enqueue(CoreId(11), Tid(2));
        assert!(!s.dequeue(CoreId(10), Tid(2)), "queued on another core");
        assert!(s.dequeue(CoreId(10), Tid(1)));
        assert_eq!(s.queued(CoreId(10)), 0);
        assert_eq!(s.queued(CoreId(11)), 1);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "not in LWK partition")]
    fn foreign_core_rejected() {
        let mut s = CoopScheduler::new(&cores());
        s.enqueue(CoreId(0), Tid(1)); // core 0 belongs to Linux
    }
}
