//! # cluster — composition and experiment harness
//!
//! Builds simulated compute nodes in each of the paper's configurations
//! and runs the evaluation workloads on them:
//!
//! * [`config`] — the three OS variants (Linux+cgroup,
//!   Linux+cgroup+isolcpus, IHK/McKernel) and co-location settings;
//! * [`node`] — one node's runtime: hardware + Linux (+ IHK/McKernel
//!   partition, proxy process, HCA doorbell); job setup walks the real
//!   protocols: IHK reservation, LWK boot, proxy spawn, offloaded
//!   `open()` of the uverbs device *through the unified address space*,
//!   and the Fig. 4 device-file mmap of the doorbell page;
//! * [`host`] — the [`mpisim::HostModel`] implementation mapping MPI
//!   ranks onto node runtimes (1 rank per node, 8 OpenMP threads);
//! * [`sim`] — the [`sim::Cluster`]: fabric + nodes + workload entry
//!   points (FWQ, OSU collectives, mini-apps);
//! * [`recovery`] — job-level recovery over node failures (abort /
//!   shrink-and-redo / checkpoint-restart) on top of the typed
//!   detection the fabric and MPI layers provide;
//! * [`experiment`] — deterministic seeding, parallel repetition runner
//!   (the [`simcore::par`] bounded task pool), result tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod host;
pub mod node;
pub mod recovery;
pub mod sim;
pub mod tenancy;

pub use config::{ClusterConfig, OsVariant};
pub use node::NodeError;
pub use recovery::{
    run_resilient, BuddyPlacement, HierarchicalCkpt, RecoveryCosts, RecoveryPolicy, RecoveryReport,
};
pub use sim::Cluster;
pub use tenancy::{run_tenancy, JobSpec, TenancyConfig, TenancyReport};
