//! Pipeline observability: per-µop retirement events and stall-reason
//! cycle accounting behind a pluggable [`TraceSink`].
//!
//! The engine attributes every cycle of retirement progress to the
//! constraint that bound it (the same decomposition that feeds the
//! [`CpiStack`](crate::CpiStack)), but at full per-µop granularity: each
//! retired µop carries a [`StallBreakdown`] whose slices sum *exactly* to
//! the cycles that µop moved retirement forward. Summed over a window —
//! say, one simulated `malloc` call — the breakdown therefore sums exactly
//! to the window's total latency, which is what makes the paper's
//! Figure 2-style "where do the ~20 cycles go" analysis a first-class
//! report instead of an eyeballed estimate.
//!
//! The engine charges the CPI stack straight from each µop's timeline and
//! builds the breakdown only when a sink is installed, as the sink's
//! input; projected onto the CPI slices, the breakdowns sum to exactly
//! the CPI stack. Without a sink the engine skips the event plumbing
//! entirely, and attaching one is observation-only: it can never change
//! simulated timing.

use std::any::Any;
use std::fmt::Debug;

use mallacc_cache::Level;

use crate::engine::UopTiming;
use crate::uop::OpKind;

/// The constraint a retirement cycle is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Commit advanced smoothly (retirement-width bound): useful work.
    Base,
    /// The front end starved retirement (fetch groups, taken branches,
    /// misprediction redirects).
    Frontend,
    /// Fetch was gated by a full reorder buffer.
    RobFull,
    /// The µop waited on source operands (dataflow dependency).
    Dataflow,
    /// A non-memory execution latency (ALU chains, accelerator ops,
    /// modelled syscalls) held up retirement.
    Execute,
    /// A load served from the L1 held up retirement.
    MemL1,
    /// A load served from the L2 held up retirement.
    MemL2,
    /// A load served from the L3 held up retirement.
    MemL3,
    /// A load served from DRAM held up retirement.
    MemDram,
    /// Simulated time skipped past retirement (application compute,
    /// contention stalls) — only produced by explicit time skips.
    Idle,
}

impl StallReason {
    /// Number of distinct reasons (the length of a [`StallBreakdown`]).
    pub const COUNT: usize = 10;

    /// Every reason, in canonical report order.
    pub const ALL: [StallReason; StallReason::COUNT] = [
        StallReason::Base,
        StallReason::Frontend,
        StallReason::RobFull,
        StallReason::Dataflow,
        StallReason::Execute,
        StallReason::MemL1,
        StallReason::MemL2,
        StallReason::MemL3,
        StallReason::MemDram,
        StallReason::Idle,
    ];

    /// Stable snake_case label, used by reports and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::Base => "base",
            StallReason::Frontend => "frontend",
            StallReason::RobFull => "rob_full",
            StallReason::Dataflow => "dataflow",
            StallReason::Execute => "execute",
            StallReason::MemL1 => "mem_l1",
            StallReason::MemL2 => "mem_l2",
            StallReason::MemL3 => "mem_l3",
            StallReason::MemDram => "mem_dram",
            StallReason::Idle => "idle",
        }
    }

    /// The memory-stall reason for a load served at `level`.
    pub fn for_level(level: Level) -> StallReason {
        match level {
            Level::L1 => StallReason::MemL1,
            Level::L2 => StallReason::MemL2,
            Level::L3 => StallReason::MemL3,
            Level::Memory => StallReason::MemDram,
        }
    }

    fn index(self) -> usize {
        match self {
            StallReason::Base => 0,
            StallReason::Frontend => 1,
            StallReason::RobFull => 2,
            StallReason::Dataflow => 3,
            StallReason::Execute => 4,
            StallReason::MemL1 => 5,
            StallReason::MemL2 => 6,
            StallReason::MemL3 => 7,
            StallReason::MemDram => 8,
            StallReason::Idle => 9,
        }
    }
}

/// Integer cycle counts per [`StallReason`]. The engine guarantees that a
/// µop's breakdown sums exactly to the retirement cycles it accounts for,
/// so breakdowns over any µop window conserve total latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    cycles: [u64; StallReason::COUNT],
}

impl StallBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cycles charged to `reason`.
    pub fn get(&self, reason: StallReason) -> u64 {
        self.cycles[reason.index()]
    }

    /// Charges `cycles` to `reason`.
    pub fn add(&mut self, reason: StallReason, cycles: u64) {
        self.cycles[reason.index()] += cycles;
    }

    /// Adds every slice of `other` into this breakdown.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }

    /// Total attributed cycles (the sum of every slice).
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Cycles charged to any memory level (L1 + L2 + L3 + DRAM).
    pub fn memory(&self) -> u64 {
        self.get(StallReason::MemL1)
            + self.get(StallReason::MemL2)
            + self.get(StallReason::MemL3)
            + self.get(StallReason::MemDram)
    }

    /// Iterates `(reason, cycles)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL.iter().map(move |&r| (r, self.get(r)))
    }
}

/// The allocator-code component a µop belongs to, set by the simulation
/// driver around its µop emitters. This is the axis of the paper's
/// Figure 2/4 fast-path dissection: size-class lookup chain, free-list
/// pointer chase, sampling, and the non-accelerated remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Application code between allocator calls.
    App,
    /// The call/return control transfers at allocator-call boundaries.
    Boundary,
    /// Function prologue/epilogue overhead (§3.3 "remaining").
    Overhead,
    /// Size-class computation: the index arithmetic and the two dependent
    /// table loads (or `mcszlookup`), plus an unsized free's page-map walk.
    SizeClass,
    /// The allocation sampler's decrement-and-branch (or the PMU path).
    Sampling,
    /// The free-list pointer chase: pop/push loads and stores (or
    /// `mchdpop`/`mchdpush`/`mcnxtprefetch`).
    ListOp,
    /// Free-list addressing and metadata updates (never accelerated).
    Metadata,
    /// Slow paths: central refill, span carve, OS growth, large objects.
    SlowPath,
    /// Allocation-offload traffic: request marshalling, queue-full
    /// backpressure, and waits on the helper core's response.
    Offload,
}

impl Component {
    /// Number of distinct components.
    pub const COUNT: usize = 9;

    /// Every component, in canonical report order.
    pub const ALL: [Component; Component::COUNT] = [
        Component::App,
        Component::Boundary,
        Component::Overhead,
        Component::SizeClass,
        Component::Sampling,
        Component::ListOp,
        Component::Metadata,
        Component::SlowPath,
        Component::Offload,
    ];

    /// Stable snake_case label, used by reports and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            Component::App => "app",
            Component::Boundary => "boundary",
            Component::Overhead => "overhead",
            Component::SizeClass => "size_class",
            Component::Sampling => "sampling",
            Component::ListOp => "list_op",
            Component::Metadata => "metadata",
            Component::SlowPath => "slow_path",
            Component::Offload => "offload",
        }
    }

    /// Index into a `[_; Component::COUNT]` array (matches [`Self::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Component::App => 0,
            Component::Boundary => 1,
            Component::Overhead => 2,
            Component::SizeClass => 3,
            Component::Sampling => 4,
            Component::ListOp => 5,
            Component::Metadata => 6,
            Component::SlowPath => 7,
            Component::Offload => 8,
        }
    }
}

/// One retired µop, as delivered to a [`TraceSink`].
#[derive(Debug, Clone, Copy)]
pub struct UopEvent {
    /// Retirement sequence number (0-based, per engine).
    pub seq: u64,
    /// What the µop was.
    pub kind: OpKind,
    /// The driver-assigned component tag in force when it was pushed.
    pub component: Component,
    /// Full pipeline timestamps (fetch/ready/complete/commit + memory).
    pub timing: UopTiming,
    /// The retirement cycles this µop accounts for, by constraint.
    /// `stall.total()` equals the µop's retirement advance exactly.
    pub stall: StallBreakdown,
}

/// Metadata for one completed simulated operation (a malloc or free call),
/// delivered to [`TraceSink::on_op_end`].
#[derive(Debug, Clone, Copy)]
pub struct OpMeta<'a> {
    /// Stable operation label (e.g. `malloc_fast`, `free_release`).
    pub name: &'a str,
    /// True for malloc-side operations.
    pub is_malloc: bool,
    /// Requested size (mallocs) or rounded block size (frees).
    pub size: u64,
    /// Raw size-class number, if small.
    pub cls: Option<u16>,
    /// Retirement cycle when the operation began.
    pub start: u64,
    /// Retirement cycle when the operation ended; `end - start` is the
    /// operation's attributed latency.
    pub end: u64,
}

/// Receiver for pipeline events.
///
/// Installed on an [`Engine`](crate::Engine) with `set_sink`; recovered
/// with `take_sink` and downcast via [`TraceSink::into_any`]. All methods
/// are observation-only: a sink can never change simulated timing.
pub trait TraceSink: Debug + Send {
    /// Called once per retired µop, in retirement order.
    fn on_retire(&mut self, event: &UopEvent);

    /// Called when simulated time skips forward past retirement (app
    /// compute, contention): `to - from` cycles passed with no µops.
    fn on_skip(&mut self, from: u64, to: u64) {
        let _ = (from, to);
    }

    /// Called once per fast-forward region in a sampled run: `uops` µops
    /// executed functionally while `to - from` extrapolated cycles
    /// passed, with no per-µop retirement events. The default treats the
    /// region as a time skip, which keeps skip-aware sinks' cycle
    /// accounting (`attributed + idle == now`) intact under sampling.
    fn on_fast_forward(&mut self, uops: u64, from: u64, to: u64) {
        let _ = uops;
        self.on_skip(from, to);
    }

    /// Called when the driver opens an operation window at `cycle`.
    fn on_op_begin(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Called when the driver closes an operation window.
    fn on_op_end(&mut self, op: &OpMeta<'_>) {
        let _ = op;
    }

    /// Converts the boxed sink into `Any` so callers can downcast back to
    /// the concrete type after `take_sink`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_canonical_order() {
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn breakdown_merge_and_total() {
        let mut a = StallBreakdown::new();
        a.add(StallReason::Base, 3);
        a.add(StallReason::MemDram, 7);
        let mut b = StallBreakdown::new();
        b.add(StallReason::MemL1, 2);
        b.merge(&a);
        assert_eq!(b.total(), 12);
        assert_eq!(b.memory(), 9);
        assert_eq!(b.get(StallReason::Base), 3);
    }

    #[test]
    fn level_mapping_is_exhaustive() {
        assert_eq!(StallReason::for_level(Level::L1), StallReason::MemL1);
        assert_eq!(StallReason::for_level(Level::Memory), StallReason::MemDram);
    }
}
