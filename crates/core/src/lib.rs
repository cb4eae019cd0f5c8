//! # hlwk-core — the IHK/McKernel hybrid lightweight kernel
//!
//! This crate models the paper's primary contribution: a lightweight kernel
//! (**McKernel**) running beside an unmodified Linux on a partition of CPU
//! cores and physical memory, glued together by the **Interface for
//! Heterogeneous Kernels (IHK)** and a per-application **proxy process**
//! that executes offloaded system calls on Linux.
//!
//! Module map (mirrors Fig. 2 of the paper):
//!
//! * [`abi`] — the Linux-compatible ABI surface: syscall numbers, errno,
//!   process ids. McKernel is binary-ABI-compatible with Linux; the same
//!   "binaries" (workload descriptions) run on both kernels unmodified.
//! * [`costs`] — the calibrated cost model for kernel entry, IKC hops,
//!   page-fault service and friends.
//! * [`ihk`] — resource partitioning ([`ihk::partition`]), LWK lifecycle
//!   ([`ihk::manager`]), inter-kernel communication ([`ihk::ikc`]) and the
//!   Linux-side system-call delegator ([`ihk::delegator`]).
//! * [`mck`] — the lightweight kernel proper: physical memory management
//!   ([`mck::mem`]), processes and threads ([`mck::process`]), the
//!   cooperative tick-less scheduler's run queues ([`mck::sched`]), the
//!   syscall table with its delegate-vs-implement split ([`mck::syscall`])
//!   and signals ([`mck::signal`]).
//! * [`proxy`] — the proxy process: the unified address space
//!   ([`proxy::unified`]) and transparent device-file mapping
//!   ([`proxy::devmap`]).
//!
//! The crate is *functionally* complete and synchronous; the timing (when
//! an IKC interrupt is delivered, when the proxy gets scheduled) is
//! composed in closed form by the `cluster` crate, which drives these
//! state machines and charges their costs to simulated clocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod costs;
pub mod ihk;
pub mod mck;
pub mod proxy;

pub use abi::{Errno, Fd, Pid, Sysno, Tid};
pub use ihk::manager::{IhkManager, OsInstance};
pub use mck::McKernel;
