//! A jemalloc-style allocator model for the Mallacc reproduction —
//! the paper's allocator-generality claim, made executable.
//!
//! §2 of the paper argues that modern multithreaded allocators share the
//! design Mallacc exploits: thread-local caches over shared pools, size
//! classes with rounded allocation, and batched object migration — and §4
//! stresses that the malloc cache hard-codes (almost) nothing
//! TCMalloc-specific. This crate tests that claim with a structurally
//! different allocator:
//!
//! * [`SizeClasses`] — classic jemalloc bins (8 B tiny, quantum-spaced
//!   16–512 B, sub-page 1/2 KiB) with a dense one-load size→bin table;
//! * [`Arena`] — chunks, page runs, bitmap object allocation, and a
//!   two-level chunk map;
//! * tcache bins as **array stacks** (not linked lists), filled and
//!   flushed in halves;
//! * [`JeMalloc`] — the functional model, and [`JeSubstrate`] — its
//!   µop emission under the `mallacc` crate's one timing driver
//!   ([`JeSim`]), which reuses the *unchanged* malloc cache in its generic
//!   requested-size keying mode.
//!
//! # Example
//!
//! ```
//! use mallacc::Mode;
//! use mallacc_jemalloc::JeSim;
//!
//! let mut run = |mode| {
//!     let mut sim = JeSim::new(mode);
//!     for phase in 0..2 {
//!         if phase == 1 { sim.reset_totals(); }
//!         for i in 0..300u64 {
//!             let r = sim.malloc(32 + (i % 4) * 32);
//!             sim.free(r.ptr, true);
//!         }
//!     }
//!     sim.totals().malloc_cycles
//! };
//! assert!(run(Mode::mallacc_default()) < run(Mode::Baseline));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod arena;
pub mod layout;
mod sim;
mod size_class;
mod tcache;

pub use allocator::{JeFreeOutcome, JeFreePath, JeMalloc, JeMallocOutcome, JeMallocPath, JeStats};
pub use arena::{Arena, ArenaFill, ArenaStats, PageUse, Run, RunId};
pub use sim::{JeCallKind, JeSim, JeSubstrate};
pub use size_class::{consts, BinId, BinInfo, SizeClasses};
pub use tcache::TcacheBin;
