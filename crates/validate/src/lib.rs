//! Simulator validation and conformance for the Mallacc reproduction.
//!
//! The paper's credibility rests on validating its simulator against
//! analytically expected fast-path latencies (Table 1) before trusting any
//! speedup claim. Our timing model has golden traces, but a golden trace
//! only pins *yesterday's* numbers — a timing regression that shifts every
//! configuration equally would sail through. This crate adds three
//! independent oracles:
//!
//! * [`oracle`] — an **analytic latency oracle**: closed-form expected
//!   cycle counts for Table-1-style microbenchmark kernels (dependent
//!   chains, port- and width-bound streams, miss penalties), computed from
//!   the same [`mallacc_ooo::CoreConfig`] /
//!   [`mallacc_cache::HierarchyConfig`] the simulator consumes, with
//!   declared per-kernel tolerance bands (documented in
//!   [`mallacc_stats::tol`]);
//! * [`refspec`] — an **executable reference spec** of the five Mallacc
//!   instructions and the malloc-cache state machine: a naive, obviously
//!   correct interpreter ([`refspec::RefMallocCache`]) mirroring the
//!   architectural semantics of Figures 9 and 11, differentially checked
//!   against `mallacc::MallocCache` by [`program`]'s seeded,
//!   coverage-guided random instruction programs;
//! * [`offload`] — **offload-core conformance**: the helper-queue timing
//!   model differentially fuzzed against its from-scratch reference
//!   interpreter ([`mallacc_offload::RefOffloadQueue`]), with conservation
//!   laws on the queue counters and a heap-identity obligation proving the
//!   offload driver modes never change what the allocator returns;
//! * [`substrate`] — **substrate conformance**: executable allocator laws
//!   (span ownership, per-CPU token conservation, deferred-free
//!   linearization) fuzzed over the rpmalloc-style and per-CPU substrate
//!   models via their introspection hooks;
//! * [`laws`] — a **metamorphic law suite**: properties that must hold
//!   across *pairs* of runs (more entries never hurts on canonical traces,
//!   removing prefetches never helps the hit rate, independent ops
//!   commute), plus a constructive counterexample showing why the naive
//!   "more entries never increases miss rate" law needs its canonical-
//!   update precondition.
//!
//! The fuzz suites report failures as one [`Divergence`] record, and
//! [`run_corpus`] runs any of them over a slot range. The `repro
//! validate` CLI (in `mallacc-bench`) drives every section and exits
//! non-zero on any band or conformance violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod laws;
pub mod offload;
pub mod oracle;
pub mod program;
pub mod refspec;
pub mod sample;
pub mod substrate;

pub use laws::{LawId, LawReport};
pub use offload::{offload_fuzz_slot, OffloadFuzzReport};
pub use oracle::{Band, KernelId, KernelOutcome};
pub use program::{fuzz_slot, Coverage, CoverageEvent, FuzzReport, McOp, McProgram};
pub use refspec::RefMallocCache;
pub use sample::{
    sample_fuzz_slot, sampled_kernel_outcomes, SampleFuzzReport, SampledKernelOutcome,
};
pub use substrate::{substrate_fuzz_slot, SubstrateFuzzReport};

/// A failed check of any fuzz suite, on one seeded program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Seed of the offending program.
    pub seed: u64,
    /// Zero-based step (instruction, request or allocator call) at which
    /// the check failed, for checks made step by step.
    pub step: Option<u64>,
    /// Which check failed: a law's name, a rendered reference-spec op, or
    /// a suite's obligation such as `"queue"` or `"timing-band"`.
    pub check: String,
    /// What disagreed.
    pub detail: String,
}

/// The report of one fuzz-suite slot, and of any run of slots merged
/// into it.
pub trait SlotReport: Default + Send {
    /// Folds a later slot's report into this one.
    fn merge(&mut self, other: Self);
}

/// Runs slots `0..slots` of a suite on `jobs` workers and merges their
/// reports in slot order, so the result is the same for every `jobs`.
///
/// # Example
///
/// ```
/// use mallacc_validate::{offload_fuzz_slot, run_corpus};
///
/// let report = run_corpus(4, 2, |i| offload_fuzz_slot(42, i));
/// assert_eq!(report.heap_programs, 4);
/// ```
pub fn run_corpus<R: SlotReport>(slots: u64, jobs: usize, slot: impl Fn(u64) -> R + Sync) -> R {
    let mut report = R::default();
    for r in mallacc_stats::par::run_indexed(slots, jobs, slot) {
        report.merge(r);
    }
    report
}
