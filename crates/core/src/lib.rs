//! Mallacc: a model of the ASPLOS 2017 in-core memory-allocation
//! accelerator, with the simulation infrastructure to reproduce the paper's
//! evaluation.
//!
//! Mallacc (Kanev, Xi, Wei & Brooks, *Mallacc: Accelerating Memory
//! Allocation*, ASPLOS 2017) accelerates the three fast-path operations of
//! modern size-class allocators — size-class computation, free-list head
//! retrieval, and allocation sampling — with a tiny in-core **malloc
//! cache** managed by five new instructions, plus a dedicated sampling
//! performance counter. The goal is latency, not throughput: a warm
//! TCMalloc fast path takes ~20 cycles, and Mallacc halves it for under
//! 1500 µm² of silicon.
//!
//! This crate provides:
//!
//! * [`MallocCache`] — the hardware structure (Figure 8) with the exact
//!   instruction semantics of Figures 9 and 11 (`mcszlookup`,
//!   `mcszupdate`, `mchdpop`, `mchdpush`, `mcnxtprefetch`), including
//!   LRU replacement, the class-index keying optimisation, and
//!   prefetch-blocking;
//! * [`Driver`] — the one per-call simulator: it runs an allocator
//!   [`Substrate`]'s functional model and times every call on the
//!   out-of-order core model in one of the [`Mode`]s (baseline, Mallacc,
//!   the paper's limit study, or offload to a helper core). A substrate
//!   supplies only its µop emission, call classification and cache keying;
//!   the shared accelerator sequences are [`Machine`] methods;
//! * [`MallocSim`] — the driver over TCMalloc ([`TcSubstrate`]), which
//!   alone keeps the paper's TCMalloc extras: Figure 5 class-index keying,
//!   predicted fallback branches, the blocking `mcnxtprefetch` and the PMU
//!   sampler;
//! * [`AreaEstimate`] — the §6.4 silicon area accounting.
//!
//! # Example
//!
//! ```
//! use mallacc::{MallocSim, Mode};
//!
//! // Compare a warm fast path with and without the accelerator,
//! // rotating over a few size classes like the paper's tp_small.
//! let mut measure = |mode| {
//!     let mut sim = MallocSim::new(mode);
//!     for phase in 0..2 {
//!         if phase == 1 {
//!             sim.reset_totals();
//!         }
//!         for i in 0..200u64 {
//!             let r = sim.malloc(32 + (i % 4) * 32);
//!             sim.free(r.ptr, true);
//!         }
//!     }
//!     sim.totals().malloc_cycles
//! };
//! let baseline = measure(Mode::Baseline);
//! let mallacc = measure(Mode::mallacc_default());
//! assert!(mallacc < baseline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
mod driver;
mod malloc_cache;
pub mod programs;
mod tcsim;

pub use area::{AreaBits, AreaEstimate, HASWELL_CORE_MM2};
pub use config::{AccelConfig, LimitRemove, Mode, SimMode, CODE_MODEL_VERSION};
pub use driver::{
    CallLabel, CallRecord, Driver, LocalPredictor, Machine, PostList, SimTotals, Substrate,
};
pub use malloc_cache::{
    EntryView, MallocCache, MallocCacheConfig, MallocCacheStats, PopResult, RangeKeying, SizeLookup,
};
pub use tcsim::{CallKind, MallocSim, TcSubstrate};
// Re-exported so downstream layers (profiling, multicore) can speak the
// observability types without depending on the engine crate directly.
pub use mallacc_ooo::{
    Component, OpKind, OpMeta, SamplingPlan, SamplingReport, StallBreakdown, StallReason,
    TraceSink, UopEvent, UopTiming,
};
// Re-exported so downstream layers can name offload configurations and
// read queue conservation counters without a direct dependency.
pub use mallacc_offload::{offload_area_um2, OffloadConfig, OffloadStats, DEFAULT_QUEUE_DEPTH};
