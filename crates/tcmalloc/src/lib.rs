//! A functional model of Google's TCMalloc, built for the Mallacc
//! (ASPLOS 2017) reproduction.
//!
//! This crate reimplements, over a *simulated* address space, every
//! TCMalloc structure the paper's evaluation touches:
//!
//! * [`SizeClasses`] — the 2007-era size-class table (≈ 88 classes) and the
//!   exact two-piece class-index function of the paper's Figure 5;
//! * [`FreeList`] — thread-cache free lists that store each free block's
//!   `next` pointer *inside* the block (the dependent-load chain of
//!   Figure 7 that Mallacc's malloc cache short-circuits);
//! * [`CentralFreeList`] — the shared middle pool with batched object
//!   migration and span carving;
//! * [`PageHeap`] — spans, per-length free lists, splitting, coalescing and
//!   a page map;
//! * [`Sampler`] — the bytes-until-sample countdown of §3.3;
//! * [`TcMalloc`] — the assembled allocator. Every call returns a
//!   [`MallocOutcome`]/[`FreeOutcome`] that records the path taken and the
//!   addresses touched, which the timing layer turns into micro-op
//!   programs.
//!
//! The default build has one thread cache, matching the paper's
//! single-core simulations; [`TcMalloc::with_threads`] instantiates the
//! full §3.1 structure — per-thread caches over a per-class
//! [`TransferCache`] over shared central lists — for the multi-core
//! extension. Remote frees (thread B freeing thread A's block) are
//! tracked per call so the timing layer can price cross-thread traffic.
//!
//! # Example
//!
//! ```
//! use mallacc_tcmalloc::{TcMalloc, MallocPath};
//!
//! let mut a = TcMalloc::default();
//! let warm = a.malloc(100);          // cold: central refill
//! a.free(warm.ptr, true);
//! let hit = a.malloc(100);           // warm: thread-cache hit
//! assert!(matches!(hit.path, MallocPath::ThreadCacheHit { .. }));
//! assert_eq!(hit.alloc_size, 104);   // 100 rounds up to its class size
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod central;
mod free_list;
mod hash;
pub mod layout;
mod page_heap;
mod sampler;
mod size_class;
mod transfer;

pub use allocator::{
    AllocStats, FreeOutcome, FreePath, MallocOutcome, MallocPath, TcMalloc, TcMallocConfig,
};
pub use central::{CentralFreeList, CentralStats, Populate, RemoveRange};
pub use free_list::{FreeList, Popped};
pub use page_heap::{PageHeap, PageHeapStats, Span, SpanAlloc, SpanId, SpanState};
pub use sampler::Sampler;
pub use size_class::{class_array_len, class_index, consts, ClassId, ClassInfo, SizeClasses};
pub use transfer::{TransferCache, TransferStats};
