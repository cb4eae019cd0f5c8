//! # simcore — deterministic simulation substrate
//!
//! The substrate every other crate in this workspace builds on. It provides:
//!
//! * [`time`] — simulated time as CPU [`time::Cycles`] at a configurable
//!   core frequency (the paper's testbed runs 2.8 GHz Xeon E5-2680v2 parts,
//!   which is the default).
//! * [`par`] — a bounded task pool (one shared claim counter) with
//!   deterministic index-ordered result collection, for running
//!   experiment grids across host cores without changing their output.
//! * [`rng`] — deterministic, stream-splittable random number generation so
//!   that every experiment run is exactly reproducible from its seed.
//! * [`fault`] — seeded fault injection (message drop/delay/corrupt,
//!   back-pressure, proxy crash, delegator stall) on its own RNG stream.
//! * [`hash`] — the unseeded multiply-rotate hasher behind [`FastMap`]
//!   and [`FastSet`], the workspace's only hashed tables.
//! * [`stats`] — the statistics used throughout the evaluation (mean,
//!   standard deviation, percentiles, and the paper's "maximum performance
//!   variation" metric).
//!
//! There is no event engine. Time is closed form: each layer advances its
//! own clocks (per-rank virtual clocks, fabric port timelines, noise per
//! compute quantum) in [`time::Cycles`]. See `DESIGN.md` D1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod hash;
pub mod hist;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;

pub use fault::{
    DomainEvent, DomainEventKind, DomainFaultConfig, DomainScope, DomainTopology, FaultConfig,
    FaultEvent, FaultKind, FaultPlan, LinkFaultConfig, LinkFaultPlan, MsgFault,
};
pub use hash::{FastMap, FastSet};
pub use hist::LogHistogram;
pub use rng::{StreamFamily, StreamRng};
pub use stats::Summary;
pub use time::Cycles;
