//! Operation traces and their replay.
//!
//! Workloads are generated as *traces* — pure functions of a seed — and
//! then replayed against a [`MallocSim`]. This guarantees that the
//! baseline, Mallacc and limit-study simulations of a workload execute the
//! exact same allocation sequence, so cycle differences are attributable to
//! the machine alone (the paper's methodology: same binary, different
//! simulated hardware).

use mallacc::{CallKind, CallRecord, Driver, MallocSim, SimTotals, Substrate};
use mallacc_stats::{LogHistogram, Summary};

/// A simulation backend a [`Trace`] can be replayed on.
///
/// Every substrate's [`Driver`] implements this, which is how the
/// generality experiments run identical workloads on every allocator.
pub trait SimBackend {
    /// Allocates; returns the pointer and the call's attributed cycles.
    fn backend_malloc(&mut self, size: u64) -> (u64, u64);
    /// Frees; returns the call's attributed cycles.
    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64;
    /// The antagonist eviction callback.
    fn backend_antagonize(&mut self, fraction: f64);
    /// A context switch of the given quantum.
    fn backend_context_switch(&mut self, quantum: u64);
    /// Application compute for the given cycles.
    fn backend_app_run(&mut self, cycles: u64);
    /// Application loads of the given addresses.
    fn backend_app_touch(&mut self, addrs: &[u64]);
}

impl<S: Substrate> SimBackend for Driver<S> {
    fn backend_malloc(&mut self, size: u64) -> (u64, u64) {
        let r = self.malloc(size);
        (r.ptr, r.cycles)
    }
    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64 {
        self.free(ptr, sized).cycles
    }
    fn backend_antagonize(&mut self, fraction: f64) {
        self.antagonize(fraction);
    }
    fn backend_context_switch(&mut self, quantum: u64) {
        self.context_switch(quantum);
    }
    fn backend_app_run(&mut self, cycles: u64) {
        self.app_run(cycles);
    }
    fn backend_app_touch(&mut self, addrs: &[u64]) {
        self.app_touch(addrs);
    }
}

/// Reduced, backend-agnostic replay statistics.
#[derive(Debug, Clone, Default)]
pub struct GenericStats {
    /// Per-call malloc cycle summary.
    pub malloc: Summary,
    /// Per-call free cycle summary.
    pub free: Summary,
}

impl GenericStats {
    /// Total allocator cycles.
    pub fn allocator_cycles(&self) -> f64 {
        self.malloc.sum() + self.free.sum()
    }

    /// Mean malloc latency.
    pub fn mean_malloc_cycles(&self) -> f64 {
        self.malloc.mean()
    }
}

/// One operation in a workload trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Allocate `size` bytes (the pointer joins the live pool).
    Malloc {
        /// Requested size in bytes.
        size: u64,
    },
    /// Free the pool entry at `index % pool len` (no-op on an empty pool).
    /// `sized` selects C++14 sized deallocation.
    Free {
        /// Pseudo-random pool index.
        index: u64,
        /// Sized-delete flag.
        sized: bool,
    },
    /// Free the most recently allocated block (no-op on an empty pool).
    FreeNewest {
        /// Sized-delete flag.
        sized: bool,
    },
    /// The antagonist callback: evict this per-mille of each L1/L2 set.
    Antagonize {
        /// Eviction fraction in per-mille (0–1000).
        per_mille: u16,
    },
    /// A context switch: flush the malloc cache, evict half of L1/L2 and
    /// let another thread run for this many cycles.
    ContextSwitch {
        /// The other thread's quantum in cycles.
        quantum: u32,
    },
    /// Application compute: skip this many cycles.
    AppRun {
        /// Cycles of non-allocator work.
        cycles: u32,
    },
    /// Application memory traffic: touch `lines` cache lines of the app's
    /// working set starting at a rotating offset.
    AppTouch {
        /// Number of 64-byte lines to load.
        lines: u16,
        /// Working-set size in lines (the touch pointer wraps over it).
        working_set_lines: u32,
    },
}

/// One core's walk over its application working set: the addresses an
/// [`Op::AppTouch`] (or [`crate::MtOp::AppTouch`]) loads.
///
/// Each core's working set lives in its own region, far from the
/// allocator's structures and the simulated heap, so cores compete for L3
/// capacity without sharing simulated lines. A touch of `lines` lines
/// starts where the previous one stopped and wraps over the working set:
/// line `i` is `base + ((cursor + i) % working_set_lines) * 64`. The walk
/// keeps its address buffer, so a touch allocates nothing once the buffer
/// has grown.
#[derive(Debug, Clone)]
pub struct AppWalk {
    base: u64,
    cursor: u64,
    addrs: Vec<u64>,
}

impl AppWalk {
    /// The walk of core `core`'s working set, from its start.
    pub fn for_core(core: usize) -> Self {
        Self {
            base: 0x7000_0000 + core as u64 * 0x1000_0000,
            cursor: 0,
            addrs: Vec::new(),
        }
    }

    /// The addresses of the next `lines`-line touch of a
    /// `working_set_lines`-line working set (0 counts as 1), in load order.
    pub fn touch(&mut self, lines: u16, working_set_lines: u32) -> &[u64] {
        let ws = u64::from(working_set_lines.max(1));
        let cursor = self.cursor;
        self.addrs.clear();
        self.addrs
            .extend((0..u64::from(lines)).map(|i| self.base + ((cursor + i) % ws) * 64));
        self.cursor = (cursor + u64::from(lines)) % ws;
        &self.addrs
    }
}

/// A replayable operation sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    ops: Vec<Op>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// The operations in order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of malloc operations in the trace.
    pub fn malloc_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Malloc { .. }))
            .count()
    }

    /// Replays the trace against a simulator, collecting statistics.
    pub fn replay(&self, sim: &mut MallocSim) -> RunStats {
        let mut stats = RunStats::new();
        let mut pool: Vec<u64> = Vec::new();
        let mut walk = AppWalk::for_core(0);
        let before = sim.totals();
        for &op in &self.ops {
            match op {
                Op::Malloc { size } => {
                    let r = sim.malloc(size);
                    pool.push(r.ptr);
                    stats.record(&r);
                }
                Op::Free { index, sized } => {
                    if pool.is_empty() {
                        continue;
                    }
                    let i = (index % pool.len() as u64) as usize;
                    let ptr = pool.swap_remove(i);
                    stats.record(&sim.free(ptr, sized));
                }
                Op::FreeNewest { sized } => {
                    if let Some(ptr) = pool.pop() {
                        stats.record(&sim.free(ptr, sized));
                    }
                }
                Op::Antagonize { per_mille } => {
                    sim.antagonize(f64::from(per_mille.min(1000)) / 1000.0);
                }
                Op::ContextSwitch { quantum } => {
                    sim.context_switch(u64::from(quantum));
                }
                Op::AppRun { cycles } => {
                    sim.app_run(u64::from(cycles));
                }
                Op::AppTouch {
                    lines,
                    working_set_lines,
                } => sim.app_touch(walk.touch(lines, working_set_lines)),
            }
        }
        stats.totals = diff_totals(before, sim.totals());
        stats
    }
}

impl Trace {
    /// Replays the trace on any [`SimBackend`], collecting reduced
    /// statistics. (The richer [`Trace::replay`] is specific to the
    /// TCMalloc machine.)
    pub fn replay_on<B: SimBackend + ?Sized>(&self, sim: &mut B) -> GenericStats {
        let mut stats = GenericStats::default();
        let mut pool: Vec<u64> = Vec::new();
        let mut walk = AppWalk::for_core(0);
        for &op in &self.ops {
            match op {
                Op::Malloc { size } => {
                    let (ptr, cycles) = sim.backend_malloc(size);
                    pool.push(ptr);
                    stats.malloc.record(cycles as f64);
                }
                Op::Free { index, sized } => {
                    if pool.is_empty() {
                        continue;
                    }
                    let i = (index % pool.len() as u64) as usize;
                    let ptr = pool.swap_remove(i);
                    stats.free.record(sim.backend_free(ptr, sized) as f64);
                }
                Op::FreeNewest { sized } => {
                    if let Some(ptr) = pool.pop() {
                        stats.free.record(sim.backend_free(ptr, sized) as f64);
                    }
                }
                Op::Antagonize { per_mille } => {
                    sim.backend_antagonize(f64::from(per_mille.min(1000)) / 1000.0);
                }
                Op::ContextSwitch { quantum } => {
                    sim.backend_context_switch(u64::from(quantum));
                }
                Op::AppRun { cycles } => {
                    sim.backend_app_run(u64::from(cycles));
                }
                Op::AppTouch {
                    lines,
                    working_set_lines,
                } => sim.backend_app_touch(walk.touch(lines, working_set_lines)),
            }
        }
        stats
    }
}

impl FromIterator<Op> for Trace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

fn diff_totals(before: SimTotals, after: SimTotals) -> SimTotals {
    SimTotals {
        malloc_calls: after.malloc_calls - before.malloc_calls,
        malloc_cycles: after.malloc_cycles - before.malloc_cycles,
        free_calls: after.free_calls - before.free_calls,
        free_cycles: after.free_cycles - before.free_cycles,
        app_cycles: after.app_cycles - before.app_cycles,
    }
}

/// Aggregated results of a trace replay.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-call malloc cycle summary.
    pub malloc: Summary,
    /// Per-call free cycle summary.
    pub free: Summary,
    /// Time-weighted histogram of malloc call durations (the paper's
    /// "time in calls" PDF).
    pub malloc_hist: LogHistogram,
    /// Time-weighted histogram of free call durations.
    pub free_hist: LogHistogram,
    /// Calls per path kind.
    pub kind_counts: Vec<(CallKind, u64)>,
    /// Cycles per path kind.
    pub kind_cycles: Vec<(CallKind, u64)>,
    /// malloc calls per size class (raw class number → count).
    pub class_counts: Vec<(u16, u64)>,
    /// Simulator totals over the replayed span.
    pub totals: SimTotals,
}

impl RunStats {
    fn new() -> Self {
        Self {
            malloc: Summary::new(),
            free: Summary::new(),
            malloc_hist: LogHistogram::new(),
            free_hist: LogHistogram::new(),
            kind_counts: Vec::new(),
            kind_cycles: Vec::new(),
            class_counts: Vec::new(),
            totals: SimTotals::default(),
        }
    }

    fn bump(vec: &mut Vec<(CallKind, u64)>, kind: CallKind, by: u64) {
        match vec.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += by,
            None => vec.push((kind, by)),
        }
    }

    fn record(&mut self, r: &CallRecord) {
        if r.kind.is_malloc() {
            self.malloc.record(r.cycles as f64);
            self.malloc_hist.record_time_weighted(r.cycles.max(1));
            if let Some(cls) = r.cls {
                match self.class_counts.iter_mut().find(|(c, _)| *c == cls) {
                    Some((_, n)) => *n += 1,
                    None => self.class_counts.push((cls, 1)),
                }
            }
        } else {
            self.free.record(r.cycles as f64);
            self.free_hist.record_time_weighted(r.cycles.max(1));
        }
        Self::bump(&mut self.kind_counts, r.kind, 1);
        Self::bump(&mut self.kind_cycles, r.kind, r.cycles);
    }

    /// Count of calls with the given kind.
    pub fn count_of(&self, kind: CallKind) -> u64 {
        self.kind_counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Mean malloc latency in cycles.
    pub fn mean_malloc_cycles(&self) -> f64 {
        self.malloc.mean()
    }

    /// Mean free latency in cycles.
    pub fn mean_free_cycles(&self) -> f64 {
        self.free.mean()
    }

    /// Total allocator cycles (malloc + free).
    pub fn allocator_cycles(&self) -> u64 {
        self.totals.allocator_cycles()
    }

    /// Number of distinct size classes needed to cover `quantile` (0–1) of
    /// malloc calls — the y-axis walk of the paper's Figure 6.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn classes_for_coverage(&self, quantile: f64) -> usize {
        assert!((0.0..=1.0).contains(&quantile));
        let total: u64 = self.class_counts.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return 0;
        }
        let mut counts: Vec<u64> = self.class_counts.iter().map(|(_, n)| *n).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let target = (quantile * total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, c) in counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return i + 1;
            }
        }
        counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::Mode;

    #[test]
    fn app_walk_wraps_over_each_cores_working_set() {
        let mut walk = AppWalk::for_core(1);
        let base = 0x8000_0000;
        assert_eq!(walk.touch(3, 4), [base, base + 64, base + 128]);
        assert_eq!(walk.touch(3, 4), [base + 192, base, base + 64]);
        // A working set of 0 lines is one line.
        assert_eq!(AppWalk::for_core(0).touch(2, 0), [0x7000_0000; 2]);
    }

    #[test]
    fn replay_is_deterministic_within_mode() {
        let trace: Trace = (0..50)
            .flat_map(|i| {
                [
                    Op::Malloc {
                        size: 32 + (i % 4) * 16,
                    },
                    Op::FreeNewest { sized: true },
                ]
            })
            .collect();
        let run = || {
            let mut sim = MallocSim::new(Mode::Baseline);
            trace.replay(&mut sim).totals
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pool_indices_free_every_block() {
        let mut trace = Trace::new();
        for _ in 0..10 {
            trace.push(Op::Malloc { size: 64 });
        }
        for i in 0..10 {
            trace.push(Op::Free {
                index: i * 7 + 3,
                sized: true,
            });
        }
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = trace.replay(&mut sim);
        assert_eq!(stats.totals.free_calls, 10);
        assert_eq!(sim.allocator().live_blocks(), 0);
    }

    #[test]
    fn free_on_empty_pool_is_skipped() {
        let trace: Trace = [
            Op::FreeNewest { sized: true },
            Op::Free {
                index: 0,
                sized: true,
            },
        ]
        .into_iter()
        .collect();
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = trace.replay(&mut sim);
        assert_eq!(stats.totals.free_calls, 0);
    }

    #[test]
    fn class_coverage_walk() {
        let mut stats = RunStats::new();
        stats.class_counts = vec![(1, 90), (2, 5), (3, 5)];
        assert_eq!(stats.classes_for_coverage(0.9), 1);
        assert_eq!(stats.classes_for_coverage(0.95), 2);
        assert_eq!(stats.classes_for_coverage(1.0), 3);
        assert_eq!(RunStats::new().classes_for_coverage(0.9), 0);
    }

    #[test]
    fn app_ops_accumulate_app_cycles() {
        let trace: Trace = [
            Op::AppRun { cycles: 500 },
            Op::AppTouch {
                lines: 8,
                working_set_lines: 1024,
            },
        ]
        .into_iter()
        .collect();
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = trace.replay(&mut sim);
        assert!(stats.totals.app_cycles >= 500);
    }

    #[test]
    fn kind_accounting_sums_to_calls() {
        let trace: Trace = (0..20)
            .flat_map(|_| [Op::Malloc { size: 64 }, Op::FreeNewest { sized: true }])
            .collect();
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = trace.replay(&mut sim);
        let total: u64 = stats.kind_counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 40);
        assert!(stats.count_of(CallKind::MallocFast) > 0);
    }
}
