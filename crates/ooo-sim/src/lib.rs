//! Micro-op-level out-of-order core timing model for the Mallacc
//! reproduction.
//!
//! The paper evaluates Mallacc on XIOSim, a cycle-level x86 simulator
//! configured like an Intel Haswell and validated against real hardware
//! (Table 1, mean error 6.3 %). Reproducing a full x86 simulator is out of
//! scope for a Rust port (there is no mature cycle-accurate x86 ecosystem to
//! build on), but the paper's *results* depend on a narrow set of
//! microarchitectural effects over a ~40-instruction kernel:
//!
//! * dataflow latency of dependent load chains (the free-list `head`/`next`
//!   pops),
//! * overlap of independent work in a 4-wide out-of-order window,
//! * in-order commit stalling behind long-latency load misses,
//! * stores retiring through a senior store queue without stalling,
//! * branch-misprediction redirects.
//!
//! [`Engine`] models exactly those effects: callers push a dynamic stream of
//! [`Uop`]s in program order; each µop's *ready* time is the maximum of its
//! source operands' completion times (programs are generated in SSA form, so
//! there are no false dependencies), loads get their latency from the
//! [`mallacc_cache::Hierarchy`], fetch is width-limited and gated by ROB
//! occupancy, and commit is in-order and width-limited.
//!
//! # Example
//!
//! ```
//! use mallacc_ooo::{CoreConfig, Engine, Uop};
//! use mallacc_cache::Hierarchy;
//!
//! let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
//! let a = cpu.alloc_reg();
//! let b = cpu.alloc_reg();
//! cpu.push(Uop::alu(1, Some(a), &[]));        // a = ...
//! let t = cpu.push(Uop::load(0x1000, b, &[a])); // b = mem[a] (cold miss)
//! assert!(t.complete > 200); // DRAM latency on the critical path
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod sample;
pub mod trace;
mod uop;

pub use engine::{CoreConfig, CoreStats, CpiStack, Engine, UopTiming, LOAD_PORTS, STORE_PORTS};
pub use sample::{SamplingPlan, SamplingReport, WindowSample, FF_SCALE};
pub use trace::{Component, OpMeta, StallBreakdown, StallReason, TraceSink, UopEvent};
pub use uop::{OpKind, Reg, Uop};
