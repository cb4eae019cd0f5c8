//! # hwmodel — compute-node hardware model
//!
//! Descriptive and functional hardware state for the simulated cluster:
//!
//! * [`addr`] — virtual/physical addresses and page arithmetic.
//! * [`memory`] — sparse physical memory with *real byte storage*, so the
//!   unified-address-space property ("the proxy process sees the same bytes
//!   as the application") is directly testable, plus frame ownership
//!   tracking for the IHK partition.
//! * [`cpu`] — socket/core/NUMA topology.
//! * [`interference`] — the TLB and shared-LLC stretch models behind the
//!   paper's "1% fewer TLB / 3% fewer LLC misses" observation and the
//!   residual noise McKernel cannot eliminate (shared last-level cache).
//! * [`pci`] — PCI devices and BARs (the NIC doorbell pages that get
//!   `mmap()`ed through the device-file path).
//! * [`node`] — one node of the paper's testbed: 2 sockets x 10 cores
//!   Xeon E5-2680v2 @ 2.8 GHz, 64 GiB in 2 NUMA domains, one Connect-IB
//!   FDR HCA + one GbE NIC.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cpu;
pub mod interference;
pub mod memory;
pub mod node;
pub mod pci;

pub use addr::{PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE, PAGE_SIZE_2M};
pub use cpu::{CoreId, CpuTopology, NumaId};
pub use memory::{FrameId, FrameOwner, PhysMemory};
pub use node::{NodeId, NodeSpec};
pub use pci::{Bar, DeviceClass, PciAddress, PciDevice};
