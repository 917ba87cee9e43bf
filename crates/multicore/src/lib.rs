//! Multi-core Mallacc simulation: per-core malloc caches, private L1/L2,
//! and cross-thread allocation traffic over an epoch-synchronised shared
//! L3.
//!
//! The paper evaluates Mallacc on a single core, but the accelerator's
//! design is inherently per-core (§4.1: the malloc cache holds *copies* of
//! the core's own thread-cache free list, so it needs no coherence
//! traffic). This crate scales the reproduction to N cores and asks the
//! natural follow-up questions: do malloc-cache hit rates survive
//! cross-thread allocation traffic, and does the speedup hold when cores
//! contend on TCMalloc's shared structures?
//!
//! Simulation is split into two deterministic phases, pipelined an epoch
//! at a time on the calling thread:
//!
//! * **Phase A — serial functional capture** ([`capture_stream`]): the
//!   globally interleaved [`MtTrace`](mallacc_workloads::MtTrace) runs on
//!   one shared [`TcMalloc`](mallacc_tcmalloc::TcMalloc) with a thread cache
//!   per core, producing per-core [`CoreEvent`] streams annotated with
//!   post-call list state and deterministic contention stalls. Cross-core
//!   effects that change *function* — remote frees, transfer-cache
//!   hand-offs, neighbour steals — are resolved here, in trace order.
//! * **Phase B — epoch-by-epoch timing replay** ([`MulticoreSim::run`]):
//!   each core replays its stream on a private out-of-order engine, L1/L2
//!   and malloc cache, [`DEFAULT_EPOCH_EVENTS`] events per epoch, while
//!   phase A captures only as far ahead as the next epoch needs. The cores
//!   share one L3 through the refresh/commit epoch protocol of
//!   [`SharedL3`](mallacc_cache::SharedL3), so cross-core cache pressure is
//!   modelled (with one epoch of lag) while the results stay bit-identical
//!   to replaying a capture of the whole stream.
//!
//! # Example
//!
//! ```
//! use mallacc::Mode;
//! use mallacc_multicore::MulticoreSim;
//! use mallacc_workloads::MtTrace;
//!
//! // A 2-core producer–consumer ring: core 0 allocates, core 1 frees.
//! let trace = MtTrace::producer_consumer(2, 100, 1);
//! let base = MulticoreSim::new(Mode::Baseline, 2).run(&trace);
//! let accel = MulticoreSim::new(Mode::mallacc_default(), 2).run(&trace);
//! assert!(accel.cycles_per_call() < base.cycles_per_call());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod latency;
mod sim;

pub use capture::{capture_stream, Capture, CoreEvent};
pub use latency::{latency_sinks, take_latencies, CallLatencySink};
pub use sim::{CoreReport, MtRunResult, MulticoreSim, DEFAULT_EPOCH_EVENTS};
