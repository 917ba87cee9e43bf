//! Workloads for the Mallacc reproduction: the paper's six microbenchmarks
//! and synthetic models of its eight macro benchmarks.
//!
//! Everything is trace-based: a workload is a deterministic generator from
//! a seed to a [`Trace`] of allocator and application operations, and a
//! trace is replayed against any [`mallacc::MallocSim`] mode. Replaying the
//! *same* trace on the baseline, Mallacc and limit-study machines is what
//! makes the paper's speedup comparisons apples-to-apples.
//!
//! # Example
//!
//! ```
//! use mallacc::{MallocSim, Mode};
//! use mallacc_workloads::Microbenchmark;
//!
//! let trace = Microbenchmark::TpSmall.trace(200, 42);
//! let mut base = MallocSim::new(Mode::Baseline);
//! let mut accel = MallocSim::new(Mode::mallacc_default());
//! trace.replay(&mut base);  // warm-up
//! trace.replay(&mut accel);
//! let b = trace.replay(&mut base);
//! let a = trace.replay(&mut accel);
//! assert!(a.mean_malloc_cycles() < b.mean_malloc_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod macrob;
mod micro;
mod mt;
mod ops;
mod resolve;
mod trace_io;

pub use macrob::{MacroWorkload, SizePalette};
pub use micro::Microbenchmark;
pub use mt::{MtOp, MtTrace};
pub use ops::{AppWalk, GenericStats, Op, RunStats, SimBackend, Trace};
pub use resolve::{resolve_or_list, AnyWorkload};
pub use trace_io::{
    from_text, to_text, write_mt_ops, write_ops, MtOpReader, OpReader, ParseTraceError,
    TraceWriter, CHUNK_OPS,
};
