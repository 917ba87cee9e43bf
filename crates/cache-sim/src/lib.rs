//! Set-associative cache hierarchy timing model for the Mallacc reproduction.
//!
//! The Mallacc paper evaluates its accelerator on XIOSim configured like an
//! Intel Haswell. What its results actually depend on from the memory system
//! is (a) load-to-use latencies per level (4 / 12 / 34 cycles, ~200 to DRAM)
//! and (b) *which* allocator data structures get evicted by the surrounding
//! application — the `antagonist` microbenchmark explicitly "evicts the less
//! used half of each set of the L1 and L2 data caches" between calls.
//!
//! This crate models exactly that: a three-level, set-associative, LRU,
//! write-allocate hierarchy over a simulated 64-bit address space, with an
//! [`Hierarchy::evict_antagonist`] hook reproducing the paper's cache
//! trashing callback.
//!
//! # Example
//!
//! ```
//! use mallacc_cache::{Hierarchy, HierarchyConfig, AccessKind};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::haswell());
//! // Cold access goes to DRAM...
//! let miss = mem.access(0x8000, AccessKind::Read);
//! // ...and a re-access hits in L1.
//! let hit = mem.access(0x8000, AccessKind::Read);
//! assert!(miss.latency > hit.latency);
//! assert_eq!(hit.latency, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod shared;
mod tlb;

pub use cache::{CacheConfig, CacheStats, GeometryError, Lookup, SetAssocCache};
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig, Level};
pub use shared::{L3Access, SharedL3};
pub use tlb::{Tlb, TlbConfig, TlbStats};

/// A simulated 64-bit byte address.
///
/// The allocator model hands out addresses from a synthetic address space;
/// they are never dereferenced, only fed to the cache model.
pub type Addr = u64;
