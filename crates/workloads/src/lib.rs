//! # workloads — everything the paper runs
//!
//! * [`fwq`] — the ASC Sequoia fixed-work quantum noise probe (Fig. 5);
//! * [`osu`] — an OSU-micro-benchmark-style driver for the six collective
//!   operations (Fig. 6/7);
//! * [`miniapps`] — BSP models of miniFE, HPC-CG (Mantevo) and Modylas,
//!   FFVC (Fiber) with the paper's scaling modes (Fig. 8/9);
//! * [`hadoop`] — the in-situ data-analytics noise source: map/shuffle/
//!   reduce task waves, JVM GC pauses, shuffle storms; emitted as
//!   competing core-load intervals plus cache-pollution levels and the
//!   job's busy phases.
//!
//! Workloads are OS-agnostic: they run against closures / the
//! [`mpisim::HostModel`] hook, and the `cluster` crate binds them to a
//! Linux or McKernel node runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fwq;
pub mod hadoop;
pub mod miniapps;
pub mod osu;
