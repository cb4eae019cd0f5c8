//! # netsim — the interconnect substrate
//!
//! Models the testbed's Mellanox Connect-IB FDR (56 Gb/s) InfiniBand,
//! which the HPC workload uses exclusively. The in-situ (Hadoop)
//! workload's Gigabit Ethernet is a separate network in the paper
//! (Sec. IV-A), so it enters only as Linux-side interrupt noise
//! (`linuxsim::daemons::DaemonSource::eth_irq`), not as a link model.
//!
//! Layers:
//!
//! * [`loggp`] — the LogGP-style cost model (latency, CPU overheads,
//!   per-message gap, per-byte time);
//! * [`fabric`] — a full-bisection switch connecting node NICs with
//!   per-port serialization; computes message timing;
//! * [`plink`] — per-node link ends and the shareable fault-schedule
//!   view;
//! * [`reliable`] — the IB-RC-style retransmit layer over lossy links.
//!
//! The HCA's user-space data path is not modelled as verbs objects: a
//! node's only verbs state is the doorbell (UAR) page that the core
//! crate's device-file-mapping flow installs
//! (`cluster::node::NodeRuntime::doorbell_phys`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod loggp;
pub mod plink;
pub mod reliable;

pub use fabric::Fabric;
pub use plink::{FaultView, LinkEnd};
pub use loggp::LinkParams;
pub use reliable::{CrashTrigger, LinkError, ReliableFabric, ReliableStats, RetransmitPolicy};
