//! Interface for Heterogeneous Kernels.
//!
//! "IHK is a general framework that provides capabilities for partitioning
//! resources in a many-core environment (e.g., CPU cores and physical
//! memory) and it enables management of lightweight kernels... IHK can
//! allocate and release host resources dynamically and no reboot of the
//! host machine is required when altering configuration... Besides resource
//! and LWK management, IHK also provides an Inter-Kernel Communication
//! (IKC) layer, upon which system call delegation is implemented" (Sec. II).

pub mod delegator;
pub mod ikc;
pub mod manager;
pub mod partition;

use simcore::Cycles;

/// How long a peer's death takes to confirm once it is suspected: three
/// 100 µs heartbeat probes go unanswered. A dead peer never acks, so the
/// confirmation is this closed form, whether the LWK confirms its proxy
/// or the job runtime confirms a node.
pub const DEATH_CONFIRMATION: Cycles = Cycles::from_us(300);
