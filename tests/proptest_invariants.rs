//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;

use mallacc::{AccelConfig, Driver, MallocSim, Mode, SamplingPlan, Substrate, TcSubstrate};
use mallacc_cache::{
    AccessKind, AccessResult, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, L3Access, Level,
    Lookup, SetAssocCache, SharedL3, TlbConfig, TlbStats,
};
use mallacc_jemalloc::JeSubstrate;
use mallacc_prof::Profiler;
use mallacc_substrate::{PcSubstrate, RpSubstrate, SubstrateKind};
use mallacc_tcmalloc::{SizeClasses, TcMalloc};
use mallacc_test_support::arb_sampling_plan;
use mallacc_workloads::{Op, Trace};

/// Evaluates `$f::<S>($args)` with `S` the substrate `$kind` names.
macro_rules! on_substrate {
    ($kind:expr, $f:ident($($arg:expr),*)) => {
        match $kind {
            SubstrateKind::TcMalloc => $f::<TcSubstrate>($($arg),*),
            SubstrateKind::JeMalloc => $f::<JeSubstrate>($($arg),*),
            SubstrateKind::Rpmalloc => $f::<RpSubstrate>($($arg),*),
            SubstrateKind::PerCpu => $f::<PcSubstrate>($($arg),*),
        }
    };
}

/// Strategy: one of the allocator substrates.
fn arb_substrate() -> impl Strategy<Value = SubstrateKind> {
    (0usize..SubstrateKind::ALL.len()).prop_map(|i| SubstrateKind::ALL[i])
}

/// Strategy: full detail, or sampled execution under an arbitrary plan.
fn arb_sim_plan() -> impl Strategy<Value = Option<SamplingPlan>> {
    prop_oneof![Just(None), arb_sampling_plan().prop_map(Some)]
}

/// Replays `trace` on an `S` driver under `mode` and `plan`, with a
/// profiler attached when `traced`.
fn replay<S: Substrate + Default>(
    trace: &Trace,
    mode: Mode,
    plan: Option<SamplingPlan>,
    traced: bool,
) -> Driver<S> {
    let mut sim = Driver::<S>::new(mode);
    sim.set_sampling(plan);
    if traced {
        sim.attach_tracer(Box::new(Profiler::new(0)));
    }
    trace.replay_on(&mut sim);
    sim
}

/// Per-op stall conservation on one substrate: see
/// `stall_attribution_conserves_every_call`.
fn conserves_every_call<S: Substrate + Default>(
    trace: &Trace,
    plan: Option<SamplingPlan>,
) -> Result<(), TestCaseError> {
    for mode in [Mode::Baseline, Mode::mallacc_default(), Mode::limit_all()] {
        let mut sim = replay::<S>(trace, mode, plan, true);
        let p = Profiler::from_sink(sim.detach_tracer().expect("tracer attached"))
            .expect("profiler comes back");
        prop_assert_eq!(p.conservation_violations(), 0);
        let mut in_ops = 0u64;
        for op in p.ops() {
            prop_assert_eq!(
                op.stall.total(),
                op.cycles(),
                "op {} start {} end {}",
                &op.name,
                op.start,
                op.end
            );
            in_ops += op.cycles();
        }
        prop_assert_eq!(in_ops, sim.totals().allocator_cycles());
    }
    Ok(())
}

/// Tracing is invisible on one substrate: see
/// `tracing_never_changes_simulated_time`.
fn tracing_is_invisible<S: Substrate + Default>(
    trace: &Trace,
    plan: Option<SamplingPlan>,
) -> Result<(), TestCaseError> {
    for mode in [Mode::Baseline, Mode::mallacc_default()] {
        let run = |traced: bool| {
            let sim = replay::<S>(trace, mode, plan, traced);
            (
                sim.totals(),
                sim.cpi_stack(),
                sim.engine().stats(),
                sim.memory().stats(),
                sim.malloc_cache().stats(),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }
    Ok(())
}

/// Strategy: an arbitrary interleaving of mallocs (small and large),
/// frees, antagonism and app activity.
fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        6 => (1u64..300_000).prop_map(|size| Op::Malloc { size }),
        3 => (any::<u64>(), any::<bool>()).prop_map(|(index, sized)| Op::Free { index, sized }),
        1 => any::<bool>().prop_map(|sized| Op::FreeNewest { sized }),
        1 => (0u16..=1000).prop_map(|per_mille| Op::Antagonize { per_mille }),
        1 => (0u32..20_000).prop_map(|quantum| Op::ContextSwitch { quantum }),
        1 => (0u32..2_000).prop_map(|cycles| Op::AppRun { cycles }),
        1 => (1u16..32, 64u32..4_096)
            .prop_map(|(lines, ws)| Op::AppTouch { lines, working_set_lines: ws }),
    ];
    prop::collection::vec(op, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The accelerator never changes functional allocator behaviour: every
    /// mode walks the identical path sequence (same pool hits, refills,
    /// span allocations, frees) for any operation interleaving.
    #[test]
    fn modes_are_functionally_identical(ops in arb_ops(120)) {
        let trace: Trace = ops.into_iter().collect();
        let run = |mode: Mode| {
            let mut sim = MallocSim::new(mode);
            trace.replay(&mut sim);
            (sim.allocator().stats(), sim.allocator().live_blocks())
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        let tiny = run(Mode::Mallacc(AccelConfig::with_entries(2)));
        let limit = run(Mode::limit_all());
        prop_assert_eq!(&base, &accel);
        prop_assert_eq!(&base, &tiny);
        prop_assert_eq!(&base, &limit);
    }

    /// Live allocations never overlap, for any malloc/free interleaving.
    #[test]
    fn live_allocations_never_overlap(ops in arb_ops(100)) {
        let mut a = TcMalloc::default();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match op {
                Op::Malloc { size } => {
                    let o = a.malloc(size);
                    for &(p, s) in &live {
                        let disjoint = o.ptr + o.alloc_size <= p || p + s <= o.ptr;
                        prop_assert!(disjoint, "overlap at {:#x}", o.ptr);
                    }
                    live.push((o.ptr, o.alloc_size));
                }
                Op::Free { index, sized } if !live.is_empty() => {
                    let i = (index % live.len() as u64) as usize;
                    let (p, _) = live.swap_remove(i);
                    a.free(p, sized);
                }
                Op::FreeNewest { sized } => {
                    if let Some((p, _)) = live.pop() {
                        a.free(p, sized);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(a.live_blocks(), live.len());
    }

    /// malloc never hands out a block below the requested size, and the
    /// rounding is exactly the size-class table's.
    #[test]
    fn allocation_size_is_rounded_up(size in 1u64..300_000) {
        let sc = SizeClasses::tcmalloc_2007();
        let mut a = TcMalloc::default();
        let o = a.malloc(size);
        prop_assert!(o.alloc_size >= size);
        if let Some(cls) = o.cls {
            prop_assert_eq!(o.alloc_size, sc.class_to_size(cls));
        } else {
            prop_assert!(size > 256 * 1024);
        }
    }

    /// Call cycle accounting is internally consistent: per-kind cycles sum
    /// to the totals the simulator reports.
    #[test]
    fn cycle_accounting_balances(ops in arb_ops(80)) {
        let trace: Trace = ops.into_iter().collect();
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = trace.replay(&mut sim);
        let kind_total: u64 = stats.kind_cycles.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(kind_total, stats.totals.allocator_cycles());
        let kind_calls: u64 = stats.kind_counts.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(
            kind_calls,
            stats.totals.malloc_calls + stats.totals.free_calls
        );
    }

    /// Multi-threaded allocation preserves the no-overlap invariant and
    /// balances across caches for any producer/consumer interleaving.
    #[test]
    fn multithreaded_allocations_never_overlap(
        ops in prop::collection::vec((0usize..4, 1u64..4096, any::<bool>()), 1..200)
    ) {
        let mut a = TcMalloc::with_threads(Default::default(), 4);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (tid, size, do_free) in ops {
            let o = a.malloc_on(tid, size);
            for &(p, s) in &live {
                let disjoint = o.ptr + o.alloc_size <= p || p + s <= o.ptr;
                prop_assert!(disjoint, "overlap at {:#x}", o.ptr);
            }
            live.push((o.ptr, o.alloc_size));
            if do_free && !live.is_empty() {
                // Free from a *different* thread than allocated (migration).
                let (p, _) = live.swap_remove(size as usize % live.len());
                a.free_on((tid + 1) % 4, p, true);
            }
        }
        prop_assert_eq!(a.live_blocks(), live.len());
    }

    /// Serialisation round-trips every generatable trace.
    #[test]
    fn trace_text_round_trips(ops in arb_ops(100)) {
        let trace: Trace = ops.into_iter().collect();
        let text = mallacc_workloads::to_text(&trace);
        let back = mallacc_workloads::from_text(&text).expect("own output parses");
        prop_assert_eq!(back, trace);
    }

    /// Context switches (malloc-cache flushes) never change functional
    /// behaviour — §4.1's "no writebacks or correctness concerns".
    #[test]
    fn context_switches_are_functionally_invisible(ops in arb_ops(80)) {
        let with_switches: Trace = ops.iter().copied().flat_map(|op| {
            [op, Op::ContextSwitch { quantum: 1_000 }]
        }).collect();
        let without: Trace = ops.into_iter().collect();
        let run = |trace: &Trace| {
            let mut sim = MallocSim::new(Mode::mallacc_default());
            trace.replay(&mut sim);
            (sim.allocator().stats(), sim.allocator().live_blocks())
        };
        prop_assert_eq!(run(&with_switches), run(&without));
    }

    /// Replays are deterministic: identical traces on identical machines
    /// give identical cycle totals.
    #[test]
    fn replay_is_deterministic(ops in arb_ops(60)) {
        let trace: Trace = ops.into_iter().collect();
        let run = || {
            let mut sim = MallocSim::new(Mode::mallacc_default());
            trace.replay(&mut sim);
            (sim.totals(), sim.malloc_cache().stats())
        };
        prop_assert_eq!(run(), run());
    }

    /// Every simulated malloc/free reports stall-reason cycles that sum
    /// *exactly* to its latency, on every substrate, at full detail and
    /// sampled, for any operation interleaving and in every mode — and the
    /// profiled op cycles re-derive the driver's own totals, so the
    /// attribution can never drift from the headline numbers.
    #[test]
    fn stall_attribution_conserves_every_call(
        ops in arb_ops(90),
        kind in arb_substrate(),
        plan in arb_sim_plan(),
    ) {
        let trace: Trace = ops.into_iter().collect();
        on_substrate!(kind, conserves_every_call(&trace, plan))?;
    }

    /// Attaching a tracer is observation-only: on every substrate, at full
    /// detail and sampled, the totals, the CPI stack, the core's statistics
    /// and every cache's statistics are identical with or without one.
    #[test]
    fn tracing_never_changes_simulated_time(
        ops in arb_ops(80),
        kind in arb_substrate(),
        plan in arb_sim_plan(),
    ) {
        let trace: Trace = ops.into_iter().collect();
        on_substrate!(kind, tracing_is_invisible(&trace, plan))?;
    }
}

/// One step of a [`SetAssocCache`] differential run. Lines are reduced
/// modulo the run's line universe.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// An access, which installs the line on a miss.
    Access {
        line: u64,
        offset: u64,
        write: bool,
    },
    Invalidate {
        line: u64,
    },
    EvictLru {
        per_mille: u16,
    },
    Flush,
}

fn arb_cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let op = prop_oneof![
        40 => (0u64..1 << 20, 0u64..64, any::<bool>())
            .prop_map(|(line, offset, write)| CacheOp::Access { line, offset, write }),
        6 => (0u64..1 << 20).prop_map(|line| CacheOp::Invalidate { line }),
        3 => (0u16..=1000).prop_map(|per_mille| CacheOp::EvictLru { per_mille }),
        1 => Just(CacheOp::Flush),
    ];
    prop::collection::vec(op, 1..300)
}

/// The timestamp-LRU cache that `SetAssocCache` replaced, kept as its
/// oracle: every way holds a line number and the clock value of its last
/// touch, a fill takes the first empty way or else the way with the oldest
/// stamp, and the antagonist empties the valid ways with the oldest stamps.
struct StampLru {
    sets: u64,
    ways: usize,
    /// `(line, last use)` per way, `sets × ways` of them.
    slots: Vec<Option<(u64, u64)>>,
    clock: u64,
    stats: CacheStats,
}

impl StampLru {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets,
            ways,
            slots: vec![None; sets as usize * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set(&self, line: u64) -> std::ops::Range<usize> {
        let s = (line % self.sets) as usize;
        s * self.ways..(s + 1) * self.ways
    }

    fn find(&self, line: u64) -> Option<usize> {
        self.set(line)
            .find(|&i| matches!(self.slots[i], Some((l, _)) if l == line))
    }

    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        match self.find(line) {
            Some(i) => {
                self.slots[i] = Some((line, self.clock));
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, line: u64) -> Option<u64> {
        self.clock += 1;
        let ways = self.set(line);
        let victim = ways
            .clone()
            .find(|&i| self.slots[i].is_none())
            .or_else(|| ways.min_by_key(|&i| self.slots[i].map(|(_, t)| t)))
            .expect("at least one way");
        let old = self.slots[victim].replace((line, self.clock));
        if old.is_some() {
            self.stats.evictions += 1;
        }
        old.map(|(l, _)| l)
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.slots[i] = None;
        self.stats.invalidations += 1;
        true
    }

    fn evict_lru_fraction(&mut self, fraction: f64) {
        for set in self.slots.chunks_mut(self.ways) {
            let mut valid: Vec<usize> = (0..set.len()).filter(|&i| set[i].is_some()).collect();
            let n_evict = ((valid.len() as f64) * fraction).floor() as usize;
            valid.sort_by_key(|&i| set[i].map(|(_, t)| t));
            for &i in &valid[..n_evict] {
                set[i] = None;
                self.stats.invalidations += 1;
            }
        }
    }

    fn flush(&mut self) {
        for slot in &mut self.slots {
            if slot.take().is_some() {
                self.stats.invalidations += 1;
            }
        }
    }

    fn resident_lines(&self) -> u64 {
        self.slots.iter().filter(|s| s.is_some()).count() as u64
    }

    /// Copies set `set`'s lines from `src`, which has the same geometry,
    /// restamped on this cache's clock in `src`'s recency order.
    fn copy_set_from(&mut self, src: &StampLru, set: usize) {
        let mut ways: Vec<usize> = (set * self.ways..(set + 1) * self.ways).collect();
        ways.sort_by_key(|&i| src.slots[i].map(|(_, t)| t));
        for i in ways {
            self.slots[i] = src.slots[i].map(|(line, _)| {
                self.clock += 1;
                (line, self.clock)
            });
        }
    }

    /// An access as the two-step walk made it: a lookup, then a fill on a
    /// miss.
    fn access_or_fill(&mut self, line: u64) -> bool {
        let hit = self.access(line);
        if !hit {
            self.fill(line);
        }
        hit
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SetAssocCache`, which keeps each set in recency order and installs
    /// a missed line in the scan that looked it up, is observably identical
    /// to the timestamp-LRU design it replaced, whose callers filled after
    /// a missed lookup: after every access, invalidation, antagonist
    /// eviction and flush on 1–8-way, 1–8-set geometries, both report the
    /// same hit, evicted line, invalidation result, statistics, resident
    /// count and residency of every line.
    #[test]
    fn recency_ordered_cache_matches_timestamp_lru(
        ways in 1usize..=8,
        set_bits in 0u32..=3,
        ops in arb_cache_ops(),
    ) {
        let sets = 1u64 << set_bits;
        // Two more lines per set than it has ways, so sets overflow.
        let universe = sets * (ways as u64 + 2);
        let mut cache = SetAssocCache::new(CacheConfig {
            size_bytes: sets * ways as u64 * LINE,
            line_bytes: LINE,
            associativity: ways as u32,
            hit_latency: 1,
        });
        let mut oracle = StampLru::new(sets, ways);
        for op in ops {
            match op {
                CacheOp::Access { line, offset, write } => {
                    let line = line % universe;
                    let addr = line * LINE + offset;
                    let expected = if oracle.access(line) {
                        Lookup::Hit
                    } else {
                        Lookup::Miss {
                            evicted: oracle.fill(line).map(|l| l * LINE),
                        }
                    };
                    prop_assert_eq!(cache.access(addr, write), expected, "{:?}", op);
                }
                CacheOp::Invalidate { line } => {
                    let line = line % universe;
                    prop_assert_eq!(
                        cache.invalidate(line * LINE),
                        oracle.invalidate(line),
                        "{:?}", op
                    );
                }
                CacheOp::EvictLru { per_mille } => {
                    let fraction = f64::from(per_mille) / 1000.0;
                    cache.evict_lru_fraction(fraction);
                    oracle.evict_lru_fraction(fraction);
                }
                CacheOp::Flush => {
                    cache.flush();
                    oracle.flush();
                }
            }
            prop_assert_eq!(cache.stats(), oracle.stats, "{:?}", op);
            prop_assert_eq!(cache.resident_lines(), oracle.resident_lines());
            for line in 0..universe {
                prop_assert_eq!(
                    cache.probe(line * LINE),
                    oracle.find(line).is_some(),
                    "line {} after {:?}", line, op
                );
            }
        }
    }
}

/// Bytes per cache line in the hierarchy differential run.
const LINE: u64 = 64;

/// One level's shape: `ways` ways in each of `1 << set_bits` sets.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ways: usize,
    set_bits: u32,
}

impl Shape {
    fn sets(self) -> u64 {
        1 << self.set_bits
    }

    /// Entries in the level.
    fn entries(self) -> u64 {
        self.sets() * self.ways as u64
    }

    /// Two more entries per set than the level holds: a universe this
    /// large overflows every set.
    fn overflow(self) -> u64 {
        self.sets() * (self.ways as u64 + 2)
    }

    fn cache(self, unit: u64, hit_latency: u32) -> CacheConfig {
        CacheConfig {
            size_bytes: self.entries() * unit,
            line_bytes: unit,
            associativity: self.ways as u32,
            hit_latency,
        }
    }

    fn oracle(self) -> StampLru {
        StampLru::new(self.sets(), self.ways)
    }
}

fn arb_shape(max_ways: usize) -> impl Strategy<Value = Shape> {
    (1..=max_ways, 0u32..=2).prop_map(|(ways, set_bits)| Shape { ways, set_bits })
}

/// A small hierarchy: every cache and TLB level has 1–4 sets, and a page
/// holds `page_lines` lines so that a few dozen lines span enough pages to
/// overflow both TLB levels.
#[derive(Debug, Clone, Copy)]
struct SmallMachine {
    l1: Shape,
    l2: Shape,
    l3: Shape,
    dtlb: Shape,
    stlb: Shape,
    page_lines: u64,
}

const L1_LATENCY: u32 = 4;
const L2_LATENCY: u32 = 12;
const L3_LATENCY: u32 = 34;
const MEMORY_LATENCY: u32 = 200;
const STLB_LATENCY: u32 = 8;
const WALK_LATENCY: u32 = 30;

impl SmallMachine {
    fn config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1: self.l1.cache(LINE, L1_LATENCY),
            l2: self.l2.cache(LINE, L2_LATENCY),
            l3: self.l3.cache(LINE, L3_LATENCY),
            memory_latency: MEMORY_LATENCY,
            tlb: TlbConfig {
                l1_entries: self.dtlb.entries() as u32,
                l1_associativity: self.dtlb.ways as u32,
                l2_entries: self.stlb.entries() as u32,
                l2_associativity: self.stlb.ways as u32,
                l2_latency: STLB_LATENCY,
                walk_latency: WALK_LATENCY,
                page_bytes: self.page_lines * LINE,
            },
        }
    }

    /// Lines the run draws from: enough to overflow every set of every
    /// cache and TLB level.
    fn universe(&self) -> u64 {
        [
            self.l1.overflow(),
            self.l2.overflow(),
            self.l3.overflow(),
            self.dtlb.overflow() * self.page_lines,
            self.stlb.overflow() * self.page_lines,
        ]
        .into_iter()
        .max()
        .expect("five levels")
    }
}

fn arb_small_machine() -> impl Strategy<Value = SmallMachine> {
    (
        arb_shape(4),
        arb_shape(8),
        arb_shape(16),
        arb_shape(2),
        arb_shape(4),
        0u32..=2,
    )
        .prop_map(|(l1, l2, l3, dtlb, stlb, page_bits)| SmallMachine {
            l1,
            l2,
            l3,
            dtlb,
            stlb,
            page_lines: 1 << page_bits,
        })
}

/// The hierarchy walk that one scan per level replaced, built from
/// timestamp-LRU levels: every level is looked up first and the levels
/// that missed are filled once the servicing level answers.
struct TwoStepHierarchy {
    l1: StampLru,
    l2: StampLru,
    l3: StampLru,
    dtlb: StampLru,
    stlb: StampLru,
    page_lines: u64,
    tlb_stats: TlbStats,
    memory_accesses: u64,
    /// L3-level accesses since the log was last drained, if logging is on.
    l3_log: Option<Vec<L3Access>>,
    /// The shared-L3 master and the sets its commits touched.
    master: StampLru,
    touched: Vec<usize>,
}

impl TwoStepHierarchy {
    fn new(m: &SmallMachine, logging: bool) -> Self {
        Self {
            l1: m.l1.oracle(),
            l2: m.l2.oracle(),
            l3: m.l3.oracle(),
            dtlb: m.dtlb.oracle(),
            stlb: m.stlb.oracle(),
            page_lines: m.page_lines,
            tlb_stats: TlbStats::default(),
            memory_accesses: 0,
            l3_log: logging.then(Vec::new),
            master: m.l3.oracle(),
            touched: Vec::new(),
        }
    }

    fn translate(&mut self, page: u64) -> u32 {
        if self.dtlb.access(page) {
            self.tlb_stats.l1_hits += 1;
            return 0;
        }
        if self.stlb.access(page) {
            self.tlb_stats.l2_hits += 1;
            self.dtlb.fill(page);
            return STLB_LATENCY;
        }
        self.tlb_stats.walks += 1;
        self.stlb.fill(page);
        self.dtlb.fill(page);
        WALK_LATENCY
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let line = addr / LINE;
        let xlat = self.translate(line / self.page_lines);
        let (latency, level) = if self.l1.access(line) {
            (L1_LATENCY, Level::L1)
        } else if self.l2.access(line) {
            self.l1.fill(line);
            (L2_LATENCY, Level::L2)
        } else {
            if let Some(log) = &mut self.l3_log {
                log.push(L3Access {
                    addr,
                    write: kind == AccessKind::Write,
                });
            }
            if self.l3.access(line) {
                self.l2.fill(line);
                self.l1.fill(line);
                (L3_LATENCY, Level::L3)
            } else {
                self.memory_accesses += 1;
                self.l3.fill(line);
                self.l2.fill(line);
                self.l1.fill(line);
                (MEMORY_LATENCY, Level::Memory)
            }
        };
        AccessResult {
            latency: latency + xlat,
            level,
        }
    }

    fn take_l3_log(&mut self) -> Vec<L3Access> {
        self.l3_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// `SharedL3::commit` as the two-step walk made it.
    fn commit(&mut self, log: &[L3Access]) {
        for a in log {
            let line = a.addr / LINE;
            self.touched.push((line % self.master.sets) as usize);
            self.master.access_or_fill(line);
        }
    }

    /// `Hierarchy::refresh_l3` followed by `SharedL3::clear_touched_sets`.
    fn refresh_l3(&mut self) {
        for &set in &self.touched {
            self.l3.copy_set_from(&self.master, set);
        }
        self.touched.clear();
    }

    fn probe(&self, line: u64) -> Level {
        if self.l1.find(line).is_some() {
            Level::L1
        } else if self.l2.find(line).is_some() {
            Level::L2
        } else if self.l3.find(line).is_some() {
            Level::L3
        } else {
            Level::Memory
        }
    }
}

/// One step of a hierarchy differential run. Lines are reduced modulo the
/// run's line universe.
#[derive(Debug, Clone, Copy)]
enum WalkOp {
    Access {
        line: u64,
        offset: u64,
        kind: AccessKind,
    },
    Antagonist {
        per_mille: u16,
    },
    Flush,
    /// The epoch barrier of a one-core shared L3: drain the log, commit it,
    /// refresh the replica and clear the touched-set record.
    SyncL3,
}

fn arb_walk_ops() -> impl Strategy<Value = Vec<WalkOp>> {
    let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Prefetch];
    let op = prop_oneof![
        60 => (0u64..1 << 20, 0u64..LINE, 0usize..3).prop_map(move |(line, offset, k)| {
            WalkOp::Access { line, offset, kind: kinds[k] }
        }),
        3 => (0u16..=1000).prop_map(|per_mille| WalkOp::Antagonist { per_mille }),
        1 => Just(WalkOp::Flush),
        6 => Just(WalkOp::SyncL3),
    ];
    prop::collection::vec(op, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Hierarchy`, which walks each cache and TLB level in one scan that
    /// looks a line up and installs it on a miss, is observably identical
    /// to the walk that looked every level up first and filled the missed
    /// levels afterwards, built from timestamp-LRU levels. Both run the
    /// same reads, writes, prefetches, antagonist evictions, flushes and
    /// shared-L3 epoch barriers on a small geometry whose sets overflow at
    /// every level; after every step they report the same access result,
    /// cache, TLB and memory statistics, L3 log, shared-L3 statistics and
    /// level of every line, in the replica and in the master.
    #[test]
    fn one_scan_walk_matches_the_two_step_walk(
        machine in arb_small_machine(),
        logging in any::<bool>(),
        ops in arb_walk_ops(),
    ) {
        let config = machine.config();
        let universe = machine.universe();
        let mut h = Hierarchy::new(config);
        h.set_l3_logging(logging);
        let mut shared = SharedL3::new(config.l3);
        let mut oracle = TwoStepHierarchy::new(&machine, logging);
        let mut pending: Vec<L3Access> = Vec::new();
        for op in ops {
            match op {
                WalkOp::Access { line, offset, kind } => {
                    let addr = (line % universe) * LINE + offset;
                    prop_assert_eq!(h.access(addr, kind), oracle.access(addr, kind), "{:?}", op);
                }
                WalkOp::Antagonist { per_mille } => {
                    let fraction = f64::from(per_mille) / 1000.0;
                    h.evict_antagonist(fraction);
                    oracle.l1.evict_lru_fraction(fraction);
                    oracle.l2.evict_lru_fraction(fraction);
                }
                WalkOp::Flush => {
                    h.flush();
                    for level in [
                        &mut oracle.l1,
                        &mut oracle.l2,
                        &mut oracle.l3,
                        &mut oracle.dtlb,
                        &mut oracle.stlb,
                    ] {
                        level.flush();
                    }
                }
                WalkOp::SyncL3 => {
                    shared.commit(&pending);
                    oracle.commit(&pending);
                    pending.clear();
                    if logging {
                        h.refresh_l3(&shared);
                        oracle.refresh_l3();
                    }
                    shared.clear_touched_sets();
                }
            }
            let log = h.take_l3_log();
            prop_assert_eq!(&log, &oracle.take_l3_log(), "{:?}", op);
            pending.extend(log);
            prop_assert_eq!(
                h.stats(),
                (oracle.l1.stats, oracle.l2.stats, oracle.l3.stats),
                "{:?}", op
            );
            prop_assert_eq!(h.tlb_stats(), oracle.tlb_stats, "{:?}", op);
            prop_assert_eq!(h.memory_accesses(), oracle.memory_accesses, "{:?}", op);
            prop_assert_eq!(shared.stats(), oracle.master.stats, "{:?}", op);
            for line in 0..universe {
                prop_assert_eq!(h.probe(line * LINE), oracle.probe(line), "line {} after {:?}", line, op);
                prop_assert_eq!(
                    shared.master().probe(line * LINE),
                    oracle.master.find(line).is_some(),
                    "master line {} after {:?}", line, op
                );
            }
        }
    }
}
