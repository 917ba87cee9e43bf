//! Allocator substrates behind one trait.
//!
//! The paper evaluated Mallacc against TCMalloc's 2014-era fast path; the
//! open question is whether the malloc cache still pays off when the
//! software fast path is already lock-free and two or three loads shorter.
//! This crate makes that question askable:
//!
//! * [`SubstrateKind`] — the canonical substrate axis
//!   (`tcmalloc`/`jemalloc`/`rpmalloc`/`percpu`), shared by the explore
//!   grids, the CLIs, and the conformance suites;
//! * [`Allocator`] — the functional substrate trait every model
//!   implements: request in, outcome (pointer, rounded size, fast/slow
//!   classification) out, with the live-heap introspection the
//!   differential suites replay against;
//! * [`RpMalloc`]/[`RpSubstrate`] — an rpmalloc-style backend: lock-free
//!   single-ownership 64 KiB spans, address-mask metadata lookup (no
//!   table loads on free), per-span deferred cross-thread free lists
//!   adopted lazily by the owner;
//! * [`PerCpuMalloc`]/[`PcSubstrate`] — a TCMalloc-per-CPU variant modeled
//!   on rtmalloc's rseq restartable-sequence per-CPU array cache: ~2-op
//!   push/pop into a contiguous slab, no TLS linked-list pointer chase;
//! * [`AnySim`] — run-time dispatch over the four substrates, each timed
//!   by the same generic `mallacc::Driver` ([`RpSim`] and [`PcSim`] name
//!   two of them) in all four `accel` modes (none/mallacc/offload/both);
//! * [`ShardedMt`] — the documented multi-core approximation for the
//!   non-TCMalloc substrates: per-core engines, cross-core frees routed
//!   to the owning core (rpmalloc routes them through its deferred
//!   lists), no shared-L3 coupling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anysim;
mod kind;
mod pcsim;
mod percpu;
mod rpmalloc;
mod rpsim;
mod sharded;
mod traits;

pub use anysim::AnySim;
pub use kind::SubstrateKind;
pub use pcsim::{PcCallKind, PcSim, PcSubstrate};
pub use percpu::{
    pc_layout, PcFreeOutcome, PcFreePath, PcMallocOutcome, PcMallocPath, PcStats, PerCpuMalloc,
};
pub use rpmalloc::{
    rp_layout, RpFreeOutcome, RpFreePath, RpMalloc, RpMallocOutcome, RpMallocPath, RpSpanView,
    RpStats,
};
pub use rpsim::{RpCallKind, RpSim, RpSubstrate};
pub use sharded::{ShardedMt, ShardedTotals};
pub use traits::{Allocator, AnyAllocator, GenericAlloc, GenericFree};
