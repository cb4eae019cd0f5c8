//! # mpisim — the MPI library substrate
//!
//! An MVAPICH-shaped MPI model running over [`netsim`]: eager and
//! rendezvous point-to-point protocols, a registration cache, and the six
//! collective operations the paper benchmarks (Fig. 6/7), implemented
//! with their real algorithms (binomial trees, recursive doubling /
//! halving, ring, Bruck, pairwise exchange).
//!
//! Timing is computed on **per-rank virtual clocks**: each collective
//! walks its message DAG, charging CPU-side costs through a [`host::HostModel`]
//! — the hook through which the per-node operating system (Linux noise or
//! McKernel quiet) stretches the library's software overheads. This is how
//! a single slow rank becomes a straggler for the whole operation, the
//! amplification mechanism OS-noise papers study.
//!
//! Collectives also record which *blocks* every message carries, so tests
//! verify semantic correctness (every rank ends up holding exactly the
//! data MPI semantics promise) independently of timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod failure;
pub mod host;
pub mod p2p;
pub mod pcoll;
pub mod record;
pub mod regcache;

pub use failure::{FailureBatch, FailureCause, RankFailure};
pub use host::{HostModel, IdealHost};
pub use p2p::{P2pParams, SendTiming};
pub use pcoll::{replay, NodeSeat, ReplayConfig};
pub use record::{ReplayOp, RecordSink};
pub use regcache::RegCache;
