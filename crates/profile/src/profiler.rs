//! The [`Profiler`]: a [`TraceSink`] that groups retired-µop stall
//! breakdowns into per-operation profiles and running per-kind aggregates.

use std::any::Any;

use mallacc::{Component, OpKind, OpMeta, StallBreakdown, StallReason, TraceSink, UopEvent};

/// Cap on retained per-operation records (aggregates keep exact counts
/// regardless).
pub const DEFAULT_MAX_OPS: usize = 1 << 20;

/// One fully-attributed simulated operation (a malloc or free call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Stable operation label (e.g. `malloc_fast`).
    pub name: String,
    /// True for malloc-side operations.
    pub is_malloc: bool,
    /// Requested size (mallocs) or rounded block size (frees).
    pub size: u64,
    /// Raw size-class number, if small.
    pub cls: Option<u16>,
    /// Retirement cycle at which the operation began.
    pub start: u64,
    /// Retirement cycle at which the operation ended.
    pub end: u64,
    /// Stall-reason cycles; sums exactly to `end - start`.
    pub stall: StallBreakdown,
    /// Cycles by allocator component, indexed by [`Component::index`];
    /// also sums exactly to `end - start`.
    pub components: [u64; Component::COUNT],
}

impl OpProfile {
    /// The operation's total attributed latency.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }

    /// Whether both attribution axes conserve the total latency.
    pub fn conserves(&self) -> bool {
        self.stall.total() == self.cycles() && self.components.iter().sum::<u64>() == self.cycles()
    }
}

/// Running aggregate over every operation sharing a label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpAgg {
    /// The shared operation label.
    pub name: String,
    /// Operations aggregated.
    pub count: u64,
    /// Total cycles across them.
    pub cycles: u64,
    /// Summed stall breakdown (conserves `cycles`).
    pub stall: StallBreakdown,
    /// Summed component cycles (conserves `cycles`).
    pub components: [u64; Component::COUNT],
}

impl OpAgg {
    /// Mean cycles per operation.
    pub fn mean_cycles(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cycles as f64 / self.count as f64
        }
    }
}

/// A retained per-µop sample, for trace export.
#[derive(Debug, Clone, Copy)]
pub struct UopSample {
    /// Retirement sequence number.
    pub seq: u64,
    /// Component label in force when the µop was pushed.
    pub component: &'static str,
    /// µop kind label (`alu`, `load`, ...).
    pub kind: &'static str,
    /// Fetch cycle.
    pub fetch: u64,
    /// Cycle sources were available.
    pub ready: u64,
    /// Completion cycle.
    pub complete: u64,
    /// Retirement cycle.
    pub commit: u64,
    /// The µop's stall breakdown (sums to its retirement advance).
    pub stall: StallBreakdown,
}

/// Stable label for a µop kind.
pub fn kind_label(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Alu { .. } => "alu",
        OpKind::Load { .. } => "load",
        OpKind::Store { .. } => "store",
        OpKind::Prefetch { .. } => "prefetch",
        OpKind::Branch { .. } => "branch",
    }
}

/// Collects per-op and per-kind cycle attribution from an engine.
///
/// Attach with `MallocSim::attach_tracer`, run the workload, then recover
/// it with [`Profiler::from_sink`] on the value `detach_tracer` returns.
#[derive(Debug)]
pub struct Profiler {
    tid: u32,
    keep_uops: usize,
    in_op: bool,
    cur_stall: StallBreakdown,
    cur_components: [u64; Component::COUNT],
    ops: Vec<OpProfile>,
    dropped_ops: u64,
    aggs: Vec<OpAgg>,
    uops: Vec<UopSample>,
    dropped_uops: u64,
    outside: StallBreakdown,
    retired: u64,
    violations: u64,
}

impl Profiler {
    /// A profiler tagged with `tid` (the simulated core id in trace
    /// exports), retaining no per-µop samples.
    pub fn new(tid: u32) -> Self {
        Self {
            tid,
            keep_uops: 0,
            in_op: false,
            cur_stall: StallBreakdown::new(),
            cur_components: [0; Component::COUNT],
            ops: Vec::new(),
            dropped_ops: 0,
            aggs: Vec::new(),
            uops: Vec::new(),
            dropped_uops: 0,
            outside: StallBreakdown::new(),
            retired: 0,
            violations: 0,
        }
    }

    /// Retains up to `n` per-µop samples for trace export.
    pub fn with_uop_samples(mut self, n: usize) -> Self {
        self.keep_uops = n;
        self
    }

    /// The core id this profiler was tagged with.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Retained per-operation profiles, in completion order.
    pub fn ops(&self) -> &[OpProfile] {
        &self.ops
    }

    /// Operations whose records were dropped by the retention cap (they
    /// are still present in [`Profiler::aggregates`]).
    pub fn dropped_ops(&self) -> u64 {
        self.dropped_ops
    }

    /// Per-label aggregates, in first-appearance order. Exact: every
    /// completed operation is aggregated, even past the retention cap.
    pub fn aggregates(&self) -> &[OpAgg] {
        &self.aggs
    }

    /// Retained per-µop samples.
    pub fn uop_samples(&self) -> &[UopSample] {
        &self.uops
    }

    /// µop samples dropped by the retention cap.
    pub fn dropped_uops(&self) -> u64 {
        self.dropped_uops
    }

    /// Attribution of cycles outside any operation window (application
    /// loads, inter-call compute).
    pub fn outside(&self) -> StallBreakdown {
        self.outside
    }

    /// Total retired µops observed.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Operations whose stall or component slices failed to sum to their
    /// latency. Always 0 unless the engine's attribution has a bug.
    pub fn conservation_violations(&self) -> u64 {
        self.violations
    }

    /// Recovers a concrete profiler from a detached sink. Returns `None`
    /// if the sink was not a [`Profiler`].
    pub fn from_sink(sink: Box<dyn TraceSink>) -> Option<Box<Profiler>> {
        sink.into_any().downcast().ok()
    }
}

impl TraceSink for Profiler {
    fn on_retire(&mut self, event: &UopEvent) {
        self.retired += 1;
        let advance = event.stall.total();
        if self.in_op {
            self.cur_stall.merge(&event.stall);
            self.cur_components[event.component.index()] += advance;
        } else {
            self.outside.merge(&event.stall);
        }
        if self.keep_uops > 0 {
            if self.uops.len() < self.keep_uops {
                self.uops.push(UopSample {
                    seq: event.seq,
                    component: event.component.label(),
                    kind: kind_label(event.kind),
                    fetch: event.timing.fetch,
                    ready: event.timing.ready,
                    complete: event.timing.complete,
                    commit: event.timing.commit,
                    stall: event.stall,
                });
            } else {
                self.dropped_uops += 1;
            }
        }
    }

    fn on_skip(&mut self, from: u64, to: u64) {
        let skipped = to - from;
        if self.in_op {
            self.cur_stall.add(StallReason::Idle, skipped);
            self.cur_components[Component::App.index()] += skipped;
        } else {
            self.outside.add(StallReason::Idle, skipped);
        }
    }

    fn on_op_begin(&mut self, _cycle: u64) {
        debug_assert!(!self.in_op, "operation windows must not nest");
        self.in_op = true;
        self.cur_stall = StallBreakdown::new();
        self.cur_components = [0; Component::COUNT];
    }

    fn on_op_end(&mut self, op: &OpMeta<'_>) {
        debug_assert!(self.in_op, "op end without a matching begin");
        self.in_op = false;
        let profile = OpProfile {
            name: op.name.to_string(),
            is_malloc: op.is_malloc,
            size: op.size,
            cls: op.cls,
            start: op.start,
            end: op.end,
            stall: self.cur_stall,
            components: self.cur_components,
        };
        if !profile.conserves() {
            self.violations += 1;
            debug_assert!(
                false,
                "attribution drift on {}: stall {} components {} latency {}",
                profile.name,
                profile.stall.total(),
                profile.components.iter().sum::<u64>(),
                profile.cycles()
            );
        }
        match self.aggs.iter_mut().find(|a| a.name == op.name) {
            Some(a) => {
                a.count += 1;
                a.cycles += profile.cycles();
                a.stall.merge(&profile.stall);
                for (dst, src) in a.components.iter_mut().zip(profile.components.iter()) {
                    *dst += src;
                }
            }
            None => self.aggs.push(OpAgg {
                name: op.name.to_string(),
                count: 1,
                cycles: profile.cycles(),
                stall: profile.stall,
                components: profile.components,
            }),
        }
        if self.ops.len() < DEFAULT_MAX_OPS {
            self.ops.push(profile);
        } else {
            self.dropped_ops += 1;
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::{MallocSim, Mode};

    fn profiled_pairs(mode: Mode, n: usize) -> Box<Profiler> {
        let mut sim = MallocSim::new(mode);
        for i in 0..40u64 {
            let r = sim.malloc(32 + (i % 4) * 32);
            sim.free(r.ptr, true);
        }
        sim.attach_tracer(Box::new(Profiler::new(0).with_uop_samples(64)));
        for i in 0..n as u64 {
            let r = sim.malloc(32 + (i % 4) * 32);
            sim.free(r.ptr, true);
        }
        Profiler::from_sink(sim.detach_tracer().expect("tracer attached")).expect("profiler")
    }

    #[test]
    fn every_op_conserves_latency() {
        let p = profiled_pairs(Mode::Baseline, 100);
        assert_eq!(p.ops().len(), 200, "100 mallocs + 100 frees");
        assert_eq!(p.conservation_violations(), 0);
        for op in p.ops() {
            assert!(op.conserves(), "{op:?}");
        }
    }

    #[test]
    fn aggregates_match_retained_ops() {
        let p = profiled_pairs(Mode::mallacc_default(), 80);
        let agg_cycles: u64 = p.aggregates().iter().map(|a| a.cycles).sum();
        let op_cycles: u64 = p.ops().iter().map(|o| o.cycles()).sum();
        assert_eq!(agg_cycles, op_cycles);
        let agg_count: u64 = p.aggregates().iter().map(|a| a.count).sum();
        assert_eq!(agg_count, p.ops().len() as u64);
    }

    #[test]
    fn fast_path_identifies_size_class_and_pointer_chase() {
        let p = profiled_pairs(Mode::Baseline, 150);
        let mf = p
            .aggregates()
            .iter()
            .find(|a| a.name == "malloc_fast")
            .expect("warm pairs hit the fast path");
        assert!(mf.components[Component::SizeClass.index()] > 0);
        assert!(mf.components[Component::ListOp.index()] > 0);
        assert_eq!(mf.stall.total(), mf.cycles);
    }

    #[test]
    fn uop_sample_cap_is_respected() {
        let p = profiled_pairs(Mode::Baseline, 100);
        assert_eq!(p.uop_samples().len(), 64);
        assert!(p.dropped_uops() > 0);
    }

    #[test]
    fn app_time_lands_outside_op_windows_as_idle() {
        let mut sim = MallocSim::new(Mode::Baseline);
        sim.attach_tracer(Box::new(Profiler::new(3)));
        let r = sim.malloc(64);
        sim.app_run(500);
        sim.free(r.ptr, true);
        let p = Profiler::from_sink(sim.detach_tracer().expect("attached")).expect("profiler");
        assert_eq!(p.tid(), 3);
        assert!(p.outside().get(StallReason::Idle) >= 500);
        for op in p.ops() {
            assert_eq!(
                op.stall.get(StallReason::Idle),
                0,
                "no skips inside {}",
                op.name
            );
            assert!(op.conserves());
        }
    }
}
