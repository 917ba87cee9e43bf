//! Design-space exploration over the Mallacc accelerator configuration
//! space: declarative parameter grids, a memoised host-parallel sweep
//! engine, and Pareto-frontier analysis of speedup vs. silicon area.
//!
//! The paper fixes one design point (a 16-entry malloc cache with all
//! optimisations on) and sweeps a single axis at a time — cache size in
//! Figure 17, prefetch on/off in §6.2. This crate turns those ad-hoc
//! sweeps into a subsystem:
//!
//! * [`ParamGrid`] declares value lists per axis — cache entries, lookup
//!   latency, prefetch / index / sampling toggles, accelerator kind
//!   (none, mallacc, allocation offload, or both) with offload queue
//!   depth, allocator substrate (tcmalloc, jemalloc, rpmalloc, or the
//!   per-CPU tcmalloc variant), workload, and core count — and expands
//!   their cross product into [`ConfigPoint`]s, skipping combinations
//!   the simulator stack cannot express.
//! * [`run_sweep`] executes the points on scoped host threads. Results
//!   are **bit-identical across `--jobs` values**: every point is a
//!   self-contained simulation seeded from its own configuration, and
//!   results land in fixed per-point slots regardless of completion
//!   order.
//! * [`MemoStore`] memoises each point's result on disk under a content
//!   hash of its full configuration (plus
//!   [`CODE_MODEL_VERSION`](mallacc::CODE_MODEL_VERSION)), so re-runs and
//!   extended grids only pay for new points.
//! * [`SweepReport`] computes the Pareto frontier of allocator-time
//!   improvement vs. malloc-cache area, picks the knee point
//!   (generalising the Figure 17 "where does the curve flatten"
//!   reading), and summarises per-axis sensitivity.
//!
//! # Example
//!
//! ```
//! use mallacc_explore::{run_sweep, ParamGrid, RunScale, SweepOptions};
//!
//! let mut grid = ParamGrid::parse("entries=2,8,16").unwrap();
//! grid.scale = RunScale { calls: 300, warmup: 60 };
//! let report = run_sweep(&grid, &SweepOptions::default()).unwrap();
//! assert_eq!(report.points.len(), 3);
//! assert!(!report.frontier.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod grid;
mod memo;
mod point;
mod report;

pub use engine::{effective_jobs, run_sweep, SweepOptions};
pub use grid::ParamGrid;
pub use memo::MemoStore;
pub use point::{fnv1a64, run_mt_stream, run_single_core, ConfigPoint, PointResult};
pub use point::{AccelKind, RunScale, Substrate};
pub use report::{AxisSensitivity, SweepReport};
