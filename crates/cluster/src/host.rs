//! Binding MPI ranks to node runtimes.

use crate::node::NodeRuntime;
use mpisim::host::HostModel;
use simcore::Cycles;

/// The cluster-backed [`HostModel`]: rank `r` is node `r` (one MPI
/// process per node, as in the paper's collective benchmarks).
pub struct ClusterHost {
    /// All node runtimes.
    pub nodes: Vec<NodeRuntime>,
}

impl HostModel for ClusterHost {
    fn cpu(&mut self, rank: usize, at: Cycles, work: Cycles) -> Cycles {
        // MPI library code runs on the rank's first application core.
        self.nodes[rank].exec_app_thread(0, at, work)
    }

    fn mr_register(&mut self, rank: usize, at: Cycles, bytes: u64) -> Cycles {
        self.nodes[rank].mr_register(at, bytes)
    }

    fn omp_region(&mut self, rank: usize, at: Cycles, per_thread: Cycles, threads: u32) -> Cycles {
        self.nodes[rank].omp_region(at, per_thread, threads)
    }

    fn dma_stretch(&mut self, rank: usize, at: Cycles) -> f64 {
        self.nodes[rank].dma_stretch(at)
    }
}
