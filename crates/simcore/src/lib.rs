//! # simcore — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace builds on. It provides:
//!
//! * [`time`] — simulated time as CPU [`time::Cycles`] at a configurable
//!   core frequency (the paper's testbed runs 2.8 GHz Xeon E5-2680v2 parts,
//!   which is the default).
//! * [`event`] — a cancellable, FIFO-stable event queue (hierarchical
//!   timer wheel with O(1) cancellation).
//! * [`engine`] — the event loop driving a [`engine::World`], and the
//!   only event engine in the workspace: one timer wheel per run, with
//!   host parallelism across independent runs via [`par`].
//! * [`par`] — a bounded work-stealing task pool with deterministic
//!   index-ordered result collection, for running experiment grids
//!   across host cores without changing their output.
//! * [`rng`] — deterministic, stream-splittable random number generation so
//!   that every experiment run is exactly reproducible from its seed.
//! * [`fault`] — seeded fault injection (message drop/delay/corrupt,
//!   back-pressure, proxy crash, delegator stall) on its own RNG stream.
//! * [`stats`] — the statistics used throughout the evaluation (mean,
//!   standard deviation, percentiles, and the paper's "maximum performance
//!   variation" metric).
//! * [`trace`] — lightweight counters and an optional event trace.
//!
//! The design splits *functional* state (plain data structures mutated by
//! plain code; owned by the higher-level crates) from *temporal* behaviour
//! (this engine decides only *when* things happen). See `DESIGN.md` D1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod fault;
pub mod hist;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, RunOutcome, World};
pub use event::{EventKey, EventQueue};
pub use fault::{
    DomainEvent, DomainEventKind, DomainFaultConfig, DomainFaultPlan, DomainScope, DomainTopology,
    FaultConfig, FaultEvent, FaultKind, FaultPlan, LinkFaultConfig, LinkFaultPlan, MsgFault,
};
pub use hist::LogHistogram;
pub use rng::StreamRng;
pub use stats::{RunningStats, Summary};
pub use time::Cycles;
pub use trace::Trace;
