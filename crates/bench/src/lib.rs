//! The Mallacc reproduction harness.
//!
//! One generator per table and figure of the paper's evaluation (§6), each
//! returning the rendered text that the `repro` binary prints:
//!
//! | paper artefact | generator |
//! |---|---|
//! | Figure 1 (per-call cost PDF, perlbench)      | [`figures::fig1`] |
//! | Figure 2 (malloc time CDF, all workloads)    | [`figures::fig2`] |
//! | Figure 4 (fast-path component costs)         | [`figures::fig4`] |
//! | Figure 6 (size classes per workload)         | [`figures::fig6`] |
//! | Table 1 (simulator validation)               | [`tables::table1`] |
//! | Figure 13 (allocator time improvement)       | [`figures::improvement_data`] → [`figures::render_fig13`] |
//! | Figure 14 (malloc time improvement)          | [`figures::improvement_data`] → [`figures::render_fig14`] |
//! | Figure 15 (xapian call-duration PDFs)        | [`figures::fig15`] |
//! | Figure 16 (xalancbmk call-duration PDFs)     | [`figures::fig16`] |
//! | Figure 17 (cache-size sweep)                 | [`figures::fig17_data`] → [`figures::render_fig17`] |
//! | Figure 18 (time in allocator)                | [`figures::fig18`] |
//! | Table 2 (full-program speedup, t-tested)     | [`tables::table2_data`] → [`tables::render_table2`] |
//! | §6.4 (silicon area)                          | [`tables::area`] |
//!
//! Plus the [`figures::ablation`] study for the design choices DESIGN.md
//! calls out (per-component accelerator configs, prefetch on/off, generic
//! size keying), and the beyond-the-paper multi-core report
//! ([`mt::mt_data`] → [`mt::render_mt`]: per-core malloc caches over a
//! shared L3 at 1/2/4/8 cores).
//!
//! [`paper_cli`] runs them for `repro <experiment>` and `repro all`. The
//! figures with structured datasets (13, 14, 17, Table 2, mt) split
//! into a `*_data` computation and a `render_*` text function consuming
//! it; `repro --json PATH` serialises the same datasets, so the JSON and
//! the text always carry identical numbers. Every entry point parses its
//! flags with the one declared parser in [`cli`]. `repro explore`
//! ([`explore_cli`]) drives the `mallacc-explore` design-space sweep
//! engine, and `repro profile` ([`profile_cli`]) drives the
//! `mallacc-prof` cycle-attribution layer (per-op stall breakdowns,
//! Figure 2-style component tables, Chrome trace export). `repro
//! validate` ([`validate_cli`]) drives the `mallacc-validate`
//! conformance subsystem (analytic latency oracle, reference-spec
//! differential fuzzing, metamorphic laws). `repro fleet`
//! ([`fleet_cli`]) drives the `mallacc-fleet` datacenter scenario
//! engine (request-driven traffic, strong/weak scaling curves, and
//! per-malloc tail latency on the multi-core simulator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod explore_cli;
pub mod figures;
pub mod fleet_cli;
pub mod mt;
pub mod offload_cli;
pub mod paper_cli;
pub mod profile_cli;
pub mod sample_cli;
pub mod sim_fixture;
pub mod substrate_cli;
pub mod tables;
pub mod validate_cli;

pub use experiments::Scale;
