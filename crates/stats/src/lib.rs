//! Statistics utilities for the Mallacc reproduction.
//!
//! The Mallacc paper ([Kanev et al., ASPLOS 2017]) reports its results as
//! latency *distributions* (PDFs/CDFs of per-call malloc cycles, e.g. Figures
//! 1, 2, 15 and 16), as summary speedups (Figures 13, 14 and 17), and as a
//! statistical significance table (Table 2, a one-sided Student's t-test on
//! full-program speedups). This crate provides exactly those building blocks:
//!
//! * [`LogHistogram`] — a logarithmically-binned histogram of cycle counts,
//!   used for the "time in calls vs. call duration" plots;
//! * [`Cdf`] — an empirical weighted CDF over arbitrary `f64` samples;
//! * [`Summary`] — mean / variance / standard deviation / min / max;
//! * [`ttest`] — one-sided one-sample and two-sample Student's t-tests with
//!   real p-values (via the regularised incomplete beta function);
//! * [`table`] — plain-text table rendering used by the `repro` binary so the
//!   harness prints the same rows the paper reports;
//! * [`json`] — a dependency-free deterministic JSON value (writer and
//!   parser) for the `repro --json` reports and the explore memo store;
//! * [`pareto`] — two-objective dominance, Pareto frontiers and knee
//!   selection for the design-space exploration subsystem;
//! * [`tol`] — the shared tolerance bands used by the validation subsystem
//!   and the differential allocator tests, documented in one place;
//! * [`par`] — the slot runner that fans a report's independent cells out
//!   over `--jobs` worker threads and merges them in slot order.
//!
//! # Example
//!
//! ```
//! use mallacc_stats::{LogHistogram, Summary};
//!
//! let mut h = LogHistogram::new();
//! for cycles in [18u64, 20, 22, 1200, 19] {
//!     h.record(cycles, cycles as f64); // weight by time spent in the call
//! }
//! assert!(h.total_weight() > 0.0);
//! let s = Summary::from_iter([1.0, 2.0, 3.0]);
//! assert_eq!(s.mean(), 2.0);
//! ```
//!
//! [Kanev et al., ASPLOS 2017]: https://doi.org/10.1145/3037697.3037736

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod ci;
mod hist;
pub mod json;
pub mod par;
pub mod pareto;
mod special;
mod summary;
pub mod table;
pub mod tol;
pub mod ttest;

pub use cdf::Cdf;
pub use ci::{mean_ci95, t_quantile, MeanCi};
pub use hist::{Bin, LinearHistogram, LogHistogram};
pub use json::Json;
pub use pareto::{dominates, knee_index, pareto_frontier};
pub use special::{ln_gamma, regularized_incomplete_beta, student_t_cdf};
pub use summary::{geometric_mean, Breakdown, Summary};
