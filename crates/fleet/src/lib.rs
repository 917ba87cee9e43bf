//! Datacenter fleet scenario engine: request-driven service traffic at
//! fleet scale over the multi-core Mallacc simulator.
//!
//! The paper motivates Mallacc with fleet-wide numbers — malloc consumes
//! several percent of all datacenter cycles — but evaluates on single-core
//! microbenchmarks. This crate closes that gap in simulation: it models
//! *service traffic* (requests arriving on a front end and fanning out to
//! worker RPCs, per-tenant size-class mixes, bursty and diurnal load) and
//! replays it on the multi-core simulator to answer the questions a
//! capacity planner would ask:
//!
//! * How do baseline and Mallacc **strong/weak scaling curves** compare as
//!   the fleet grows from 1 to 16 cores?
//! * What happens to **per-malloc tail latency** (p50/p99/p999 cycles)
//!   under cross-core allocation traffic — and at what core count do
//!   per-core malloc caches stop improving p99 (the *knee*)?
//!
//! The moving parts:
//!
//! * [`ArrivalProcess`] / [`Arrivals`] — steady, bursty and diurnal
//!   inter-arrival streams, integer-deterministic (golden-snapshot safe).
//! * [`Tenant`], [`RequestProfile`], [`Topology`] — per-request allocation
//!   graphs: RPC fan-out with producer–consumer or cross-core-free-heavy
//!   retirement.
//! * [`Scenario`] / [`ScenarioStream`] — the named catalogue and the
//!   bounded-memory interleaved op stream
//!   ([`MulticoreSim::run_stream`](mallacc_multicore::MulticoreSim::run_stream)
//!   consumes it; the full trace never materialises).
//! * [`run_fleet`] / [`FleetConfig`] / [`FleetResult`] — the sweep engine:
//!   scenario × cores × {strong, weak} cells, each a pure function of the
//!   seed, farmed to worker threads with `--jobs`-invariant output.
//! * [`render_report`] / [`json_doc`] — the deterministic text report and
//!   JSON document.
//!
//! # Example
//!
//! ```
//! use mallacc_fleet::{run_fleet, FleetConfig, Scenario};
//!
//! let cfg = FleetConfig {
//!     scenarios: vec![Scenario::by_name("rpc-fanout").unwrap()],
//!     core_counts: vec![1, 2],
//!     strong_requests: 16,
//!     weak_requests_per_core: 8,
//!     seed: 42,
//!     jobs: 2,
//!     sim: mallacc::SimMode::Full,
//! };
//! let r = run_fleet(&cfg);
//! assert_eq!(r.cells.len(), 4);
//! for cell in &r.cells {
//!     assert!(cell.accel.cycles_per_call < cell.base.cycles_per_call);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod engine;
mod report;
mod request;
mod scenario;

pub use arrival::{ArrivalProcess, Arrivals};
pub use engine::{
    run_fleet, CellResult, FleetConfig, FleetResult, RunMeasure, Scaling, CORE_COUNTS_FULL,
    CORE_COUNTS_SMOKE, KNEE_THRESHOLD_PCT,
};
pub use report::{json_doc, render_report};
pub use request::{RequestProfile, Tenant, Topology};
pub use scenario::{Scenario, ScenarioStream};
