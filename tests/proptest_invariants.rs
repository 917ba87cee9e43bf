//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;

use mallacc::{AccelConfig, Driver, MallocSim, Mode, SamplingPlan, Substrate, TcSubstrate};
use mallacc_cache::{CacheConfig, CacheStats, SetAssocCache};
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
    /// An access, with a fill on a miss, as every caller does.
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `SetAssocCache`, which keeps each set in recency order, is
    /// observably identical to the timestamp-LRU design it replaced: after
    /// every access (with a fill on a miss), invalidation, antagonist
    /// eviction and flush on 1–8-way, 1–8-set geometries, both report the
    /// same hit, evicted line, invalidation result, statistics, resident
    /// count and residency of every line.
    #[test]
    fn recency_ordered_cache_matches_timestamp_lru(
        ways in 1usize..=8,
        set_bits in 0u32..=3,
        ops in arb_cache_ops(),
    ) {
        const LINE: u64 = 64;
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
                    let hit = cache.access(addr, write);
                    prop_assert_eq!(hit, oracle.access(line), "{:?}", op);
                    if !hit {
                        prop_assert_eq!(
                            cache.fill(addr, write),
                            oracle.fill(line).map(|l| l * LINE),
                            "{:?}", op
                        );
                    }
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
