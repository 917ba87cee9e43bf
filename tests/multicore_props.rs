//! Property-based tests over the cross-thread invariants the multi-core
//! subsystem leans on.
//!
//! The multi-core timing layer replays per-core streams against state the
//! serial functional phase captured, so its correctness rests on two
//! allocator invariants holding for *every* interleaving of cross-thread
//! traffic:
//!
//! 1. **No double residency** — a block is never on two thread-cache free
//!    lists at once, however it migrates (remote free, release to the
//!    transfer cache, central-list refill, steal).
//! 2. **Conservation** — the remote free → transfer cache → central list
//!    flow never creates or loses blocks: for every size class, the
//!    objects carved out of spans equal the live blocks plus the free
//!    blocks across all tiers.
//!
//! The timing replay's shared L3 leans on a third: refreshing a replica in
//! place from the master's touched sets gives exactly the replica a whole
//! master snapshot would.
//!
//! The replay itself streams: it captures each epoch just before replaying
//! it. [`reference_run`] keeps the design it replaced — capture the whole
//! stream, then replay it in epochs from whole L3 snapshots — and the
//! streamed replay must match it exactly while holding only about an
//! epoch of captured events.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mallacc::{MallocSim, Mode, OpMeta, SimMode, TraceSink, UopEvent};
use mallacc_cache::{AccessKind, CacheConfig, Hierarchy, HierarchyConfig, SharedL3};
use mallacc_multicore::{
    capture_stream, latency_sinks, take_latencies, CallLatencySink, CoreEvent, CoreReport,
    MtRunResult, MulticoreSim, DEFAULT_EPOCH_EVENTS,
};
use mallacc_tcmalloc::{ClassId, TcMalloc, TcMallocConfig};
use mallacc_test_support::arb_cross_thread_ops;
use mallacc_workloads::{AppWalk, MtOp, MtTrace};

const THREADS: usize = 4;

/// A hierarchy small enough that most accesses reach an L3 whose sets
/// conflict and evict: 4 KiB, 4-way L3 (16 sets) behind 512 B L1/L2.
fn tiny_hierarchy() -> HierarchyConfig {
    let level = |size_bytes, associativity, hit_latency| CacheConfig {
        size_bytes,
        line_bytes: 64,
        associativity,
        hit_latency,
    };
    HierarchyConfig {
        l1: level(512, 2, 4),
        l2: level(512, 2, 12),
        l3: level(4096, 4, 34),
        ..HierarchyConfig::haswell()
    }
}

/// One core's accesses in one epoch, as `(line, write)` pairs over twice
/// the L3's capacity; a quarter of the draws are empty.
fn arb_core_epoch() -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop_oneof![
        1 => Just(Vec::new()),
        3 => prop::collection::vec((0u64..128, any::<bool>()), 1..24),
    ]
}

/// The replay design the streamed one replaced, kept as its reference:
/// capture the whole stream with [`capture_stream`], then replay the cores
/// one after another in epochs of [`DEFAULT_EPOCH_EVENTS`] events, each
/// replica installing a whole snapshot of the shared L3 before every epoch
/// and committing its log after it, in core order.
fn reference_run(
    mode: Mode,
    sim_mode: SimMode,
    cores: usize,
    ops: &[(usize, MtOp)],
) -> (MtRunResult, Vec<CallLatencySink>) {
    let cap = capture_stream(cores, ops.iter().copied(), TcMallocConfig::default());
    let mut sims: Vec<(MallocSim, AppWalk)> = (0..cores)
        .map(|core| {
            let mut sim = MallocSim::new(mode);
            sim.set_sampling(sim_mode.plan());
            sim.memory_mut().set_l3_logging(true);
            sim.attach_tracer(Box::new(CallLatencySink::default()));
            (sim, AppWalk::for_core(core))
        })
        .collect();
    let mut shared = SharedL3::new(sims[0].0.memory().config().l3);
    let mut epochs = 0u64;
    let mut start = 0;
    while cap.streams.iter().any(|s| start < s.len()) {
        for (sim, _) in &mut sims {
            sim.memory_mut().install_l3(shared.snapshot());
        }
        for ((sim, walk), stream) in sims.iter_mut().zip(&cap.streams) {
            for event in stream.iter().skip(start).take(DEFAULT_EPOCH_EVENTS) {
                match event {
                    CoreEvent::Malloc {
                        outcome,
                        post,
                        contention,
                    } => {
                        sim.time_malloc(outcome, *post, *contention);
                    }
                    CoreEvent::Free {
                        outcome,
                        post,
                        contention,
                    } => {
                        sim.time_free(outcome, *post, *contention);
                    }
                    CoreEvent::AppRun { cycles } => sim.app_run(*cycles),
                    CoreEvent::AppTouch {
                        lines,
                        working_set_lines,
                    } => sim.app_touch(walk.touch(*lines, *working_set_lines)),
                    CoreEvent::McInvalidate { cls } => sim.invalidate_mc_list(*cls),
                }
            }
        }
        for (sim, _) in &mut sims {
            shared.commit(&sim.memory_mut().take_l3_log());
        }
        start += DEFAULT_EPOCH_EVENTS;
        epochs += 1;
    }
    let per_core = sims
        .iter()
        .map(|(sim, _)| CoreReport {
            totals: sim.totals(),
            mc: sim.malloc_cache().stats(),
            l3: sim.memory().stats().2,
        })
        .collect();
    let sinks = sims
        .iter_mut()
        .map(|(sim, _)| sim.detach_tracer().expect("sink attached"))
        .collect();
    let result = MtRunResult {
        mode,
        per_core,
        alloc: cap.alloc_stats,
        shared_l3: shared.stats(),
        shared_l3_accesses: shared.committed_accesses(),
        epochs,
        steal_invalidates: cap.steal_invalidates,
    };
    (result, take_latencies(sinks))
}

/// `len` ops of one core's private churn: mallocs of a few small classes,
/// frees of its own live blocks, app compute and app touches.
fn local_churn(rng: &mut TestRng, core: usize, len: usize) -> Vec<MtOp> {
    const SIZES: [u64; 6] = [16, 48, 64, 128, 256, 1024];
    let mut live: Vec<u64> = Vec::new();
    let mut next = (core as u64) << 40;
    (0..len)
        .map(|_| match rng.below(8) {
            0..=1 if !live.is_empty() => {
                let token = live.swap_remove(rng.below(live.len() as u64) as usize);
                MtOp::Free {
                    token,
                    sized: rng.below(2) == 0,
                }
            }
            0..=4 => {
                next += 1;
                live.push(next);
                MtOp::Malloc {
                    size: SIZES[rng.below(SIZES.len() as u64) as usize],
                    token: next,
                }
            }
            5..=6 => MtOp::AppRun {
                cycles: 20 + rng.below(200) as u32,
            },
            _ => MtOp::AppTouch {
                lines: 1 + rng.below(8) as u16,
                working_set_lines: 16 + rng.below(512) as u32,
            },
        })
        .collect()
}

/// Interleaves per-core op lists, each in its own order, by drawing the
/// next core uniformly from those with ops left.
fn interleave(rng: &mut TestRng, per_core: Vec<Vec<MtOp>>) -> Vec<(usize, MtOp)> {
    let mut queues: Vec<(usize, std::vec::IntoIter<MtOp>)> = per_core
        .into_iter()
        .map(Vec::into_iter)
        .enumerate()
        .collect();
    let mut ops = Vec::new();
    while !queues.is_empty() {
        let i = rng.below(queues.len() as u64) as usize;
        match queues[i].1.next() {
            Some(op) => ops.push((queues[i].0, op)),
            None => {
                queues.swap_remove(i);
            }
        }
    }
    ops
}

/// Cores `1..cores` each hoard a long 64-byte free list; core 0 then
/// allocates until the central list runs dry and it steals from them,
/// while the victims keep receiving events, so each steal appends its
/// invalidate behind events the victim has not replayed yet.
fn steal_heavy(rng: &mut TestRng, cores: usize) -> Vec<(usize, MtOp)> {
    let hoards: Vec<Vec<MtOp>> = (0..cores)
        .map(|core| {
            if core == 0 {
                return Vec::new();
            }
            let n = 128 + rng.below(192);
            let token = |i: u64| ((core as u64) << 40) | i;
            let mallocs = (0..n).map(|i| MtOp::Malloc {
                size: 64,
                token: token(i),
            });
            let frees = (0..n).map(|i| MtOp::Free {
                token: token(i),
                sized: true,
            });
            mallocs.chain(frees).collect()
        })
        .collect();
    let mut ops = interleave(rng, hoards);
    let mut victim_next = vec![1u64 << 32; cores];
    for i in 0..600 + rng.below(400) {
        ops.push((0, MtOp::Malloc { size: 64, token: i }));
        if cores > 1 && rng.below(3) == 0 {
            let victim = 1 + rng.below(cores as u64 - 1) as usize;
            let op = match rng.below(3) {
                0 => MtOp::AppRun { cycles: 50 },
                _ => {
                    victim_next[victim] += 1;
                    MtOp::Malloc {
                        size: 64,
                        token: ((victim as u64) << 40) | victim_next[victim],
                    }
                }
            };
            ops.push((victim, op));
        }
    }
    ops
}

/// Checks both cross-thread invariants for every class seen so far.
fn check_cross_thread_invariants(
    a: &TcMalloc,
    classes: &HashSet<ClassId>,
) -> Result<(), TestCaseError> {
    for &cls in classes {
        // 1. No block sits on two thread caches (or twice on one) at once.
        let mut seen: HashSet<u64> = HashSet::new();
        for tid in 0..a.num_threads() {
            for block in a.free_list_blocks_on(tid, cls) {
                prop_assert!(
                    seen.insert(block),
                    "block {block:#x} of {cls:?} is on two thread caches"
                );
            }
        }
        // 2. carved = live + free across thread caches, transfer, central.
        prop_assert_eq!(
            a.carved_objects(cls) as usize,
            a.live_blocks_of(cls) + a.free_blocks_of(cls),
            "class {:?} population not conserved",
            cls
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary cross-thread churn — every allocation may be freed from
    /// any *other* thread — never puts a block on two thread caches and
    /// never breaks per-class conservation, at any intermediate state.
    #[test]
    fn cross_thread_churn_preserves_residency_and_conservation(
        ops in arb_cross_thread_ops(THREADS, 120)
    ) {
        let mut a = TcMalloc::with_threads(Default::default(), THREADS);
        let mut live: Vec<u64> = Vec::new();
        let mut classes: HashSet<ClassId> = HashSet::new();
        for (tid, size, sel, do_free, sized) in ops {
            let o = a.malloc_on(tid, size);
            if let Some(cls) = o.cls {
                classes.insert(cls);
            }
            live.push(o.ptr);
            if do_free {
                let i = sel as usize % live.len();
                let p = live.swap_remove(i);
                // Free from a different thread than the one that just
                // allocated — the migration path under test.
                let victim = (tid + 1 + sel as usize % (THREADS - 1)) % THREADS;
                a.free_on(victim, p, sized);
            }
            check_cross_thread_invariants(&a, &classes)?;
        }
    }

    /// The producer–consumer ring drains completely: every remote free
    /// funnels back through the transfer cache and central list without
    /// losing a block, and at the end the entire carved population of
    /// every class is free again.
    #[test]
    fn ring_remote_frees_conserve_blocks_through_drain(
        cores in 1usize..5,
        calls in 1usize..50,
        seed in any::<u64>(),
    ) {
        let trace = MtTrace::producer_consumer(cores, calls, seed);
        let mut a = TcMalloc::with_threads(Default::default(), cores);
        let mut addr_of: HashMap<u64, u64> = HashMap::new();
        let mut classes: HashSet<ClassId> = HashSet::new();
        for &(core, op) in trace.ops() {
            match op {
                MtOp::Malloc { size, token } => {
                    let o = a.malloc_on(core, size);
                    if let Some(cls) = o.cls {
                        classes.insert(cls);
                    }
                    prop_assert!(addr_of.insert(token, o.ptr).is_none());
                }
                MtOp::Free { token, sized } => {
                    let p = addr_of.remove(&token).expect("trace frees known tokens");
                    a.free_on(core, p, sized);
                }
                _ => {}
            }
            check_cross_thread_invariants(&a, &classes)?;
        }
        prop_assert_eq!(a.live_blocks(), 0, "ring must drain fully");
        for &cls in &classes {
            prop_assert_eq!(a.free_blocks_of(cls) as u64, a.carved_objects(cls));
        }
        if cores > 1 {
            prop_assert!(a.stats().remote_frees > 0, "multi-core ring frees remotely");
        }
    }

    /// Ring traces are well-formed for any parameters: every token is
    /// freed exactly once after its malloc, and nothing leaks.
    #[test]
    fn ring_traces_free_every_token_exactly_once(
        cores in 1usize..9,
        calls in 0usize..80,
        seed in any::<u64>(),
    ) {
        let trace = MtTrace::producer_consumer(cores, calls, seed);
        let mut live: HashSet<u64> = HashSet::new();
        for &(_, op) in trace.ops() {
            match op {
                MtOp::Malloc { token, .. } => prop_assert!(live.insert(token)),
                MtOp::Free { token, .. } => prop_assert!(live.remove(&token)),
                _ => {}
            }
        }
        prop_assert!(live.is_empty(), "{} blocks leaked", live.len());
        prop_assert_eq!(trace.malloc_count(), cores * calls);
    }

    /// The two-phase multi-core replay is deterministic for any trace
    /// shape: identical runs give bit-identical timing, epoch counts,
    /// shared-L3 traffic and per-core statistics.
    #[test]
    fn multicore_replay_is_deterministic(
        cores in 1usize..5,
        calls in 4usize..32,
        seed in any::<u64>(),
    ) {
        let trace = MtTrace::producer_consumer(cores, calls, seed);
        let sim = MulticoreSim::new(Mode::mallacc_default(), cores);
        let sig = |r: &MtRunResult| {
            (
                r.cycles_per_call().to_bits(),
                r.makespan_cycles(),
                r.epochs,
                r.shared_l3_accesses,
                r.steal_invalidates,
                r.per_core
                    .iter()
                    .map(|c| (c.totals, c.mc, c.l3))
                    .collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(sig(&sim.run(&trace)), sig(&sim.run(&trace)));
    }

    /// Refreshing a replica in place from the master's touched sets
    /// (`refresh_l3`) leaves it equal — tags, dirty bits, recency order
    /// and statistics — to a twin that installs a whole snapshot
    /// (`install_l3(shared.snapshot())`), after every epoch, including
    /// epochs where a core logs nothing while others do.
    #[test]
    fn incremental_l3_refresh_matches_a_full_snapshot(
        cores in 1..=THREADS,
        epochs in prop::collection::vec(
            prop::collection::vec(arb_core_epoch(), THREADS..THREADS + 1),
            1..8,
        ),
    ) {
        let replica = || {
            let mut h = Hierarchy::new(tiny_hierarchy());
            h.set_l3_logging(true);
            h
        };
        let mut refreshed: Vec<Hierarchy> = (0..cores).map(|_| replica()).collect();
        let mut installed = refreshed.clone();
        let mut shared = SharedL3::new(tiny_hierarchy().l3);
        for epoch in &epochs {
            for (core, accesses) in epoch.iter().take(cores).enumerate() {
                for &(line, write) in accesses {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    refreshed[core].access(line * 64, kind);
                    installed[core].access(line * 64, kind);
                }
            }
            for (a, b) in refreshed.iter_mut().zip(&mut installed) {
                let log = a.take_l3_log();
                prop_assert_eq!(&log, &b.take_l3_log());
                shared.commit(&log);
            }
            for (a, b) in refreshed.iter_mut().zip(&mut installed) {
                a.refresh_l3(&shared);
                b.install_l3(shared.snapshot());
            }
            shared.clear_touched_sets();
            for (a, b) in refreshed.iter().zip(&installed) {
                prop_assert_eq!(a, b);
            }
        }
    }
}

/// The op stream of one [`streamed_replay_matches_the_reference`] case.
fn differential_trace(source: u64, cores: usize, seed: u64) -> Vec<(usize, MtOp)> {
    let mut rng = TestRng::seed_from_u64(seed);
    match source {
        0 => MtTrace::producer_consumer(cores, 40 + rng.below(160) as usize, seed)
            .ops()
            .to_vec(),
        1 => steal_heavy(&mut rng, cores),
        2 => {
            let idle = rng.below(cores as u64) as usize;
            let lists = (0..cores)
                .map(|core| {
                    let len = if core == idle {
                        rng.below(40)
                    } else {
                        300 + rng.below(300)
                    };
                    local_churn(&mut rng, core, len as usize)
                })
                .collect();
            interleave(&mut rng, lists)
        }
        _ => {
            let lists = (0..cores)
                .map(|core| {
                    let len = [255, 256, 257, 512][rng.below(4) as usize];
                    local_churn(&mut rng, core, len)
                })
                .collect();
            interleave(&mut rng, lists)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The streamed replay (each epoch captured just before it replays)
    /// gives exactly the result of [`reference_run`], which captures the
    /// whole stream first: every `MtRunResult` field and every per-call
    /// latency, in every mode, at full detail and sampled, on ring traces,
    /// steal-heavy traces, traces where a core goes idle early and cores
    /// whose streams end just before, on and after an epoch boundary.
    #[test]
    fn streamed_replay_matches_the_reference(
        cores in 1usize..6,
        mode in 0usize..3,
        sampled in any::<bool>(),
        source in 0u64..4,
        seed in any::<u64>(),
    ) {
        let mode = [Mode::Baseline, Mode::mallacc_default(), Mode::offload_default()][mode];
        let sim_mode = if sampled { SimMode::sampled_default() } else { SimMode::Full };
        let ops = differential_trace(source, cores, seed);
        let (want, want_lat) = reference_run(mode, sim_mode, cores, &ops);
        let (got, sinks) = MulticoreSim::new(mode, cores)
            .with_sim(sim_mode)
            .run_stream_with_sinks(ops.iter().copied(), latency_sinks(cores));
        let got_lat = take_latencies(sinks);
        prop_assert_eq!(got.mode, want.mode);
        prop_assert_eq!(got.epochs, want.epochs);
        prop_assert_eq!(got.alloc, want.alloc);
        prop_assert_eq!(got.shared_l3, want.shared_l3);
        prop_assert_eq!(got.shared_l3_accesses, want.shared_l3_accesses);
        prop_assert_eq!(got.steal_invalidates, want.steal_invalidates);
        prop_assert_eq!(got.per_core.len(), cores);
        for (core, (g, w)) in got.per_core.iter().zip(&want.per_core).enumerate() {
            prop_assert_eq!(g.totals, w.totals, "core {} totals", core);
            prop_assert_eq!(g.mc, w.mc, "core {} malloc cache", core);
            prop_assert_eq!(g.l3, w.l3, "core {} L3 replica", core);
        }
        prop_assert_eq!(got_lat.len(), cores);
        for (core, (g, w)) in got_lat.iter().zip(&want_lat).enumerate() {
            prop_assert_eq!(&g.malloc_cycles, &w.malloc_cycles, "core {} mallocs", core);
            prop_assert_eq!(&g.free_cycles, &w.free_cycles, "core {} frees", core);
        }
    }
}

/// Counts the calls its core has replayed into a counter shared with the
/// test.
#[derive(Debug)]
struct ReplayedCalls(Arc<AtomicUsize>);

impl TraceSink for ReplayedCalls {
    fn on_retire(&mut self, _event: &UopEvent) {}

    fn on_op_end(&mut self, _op: &OpMeta<'_>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The streamed replay captures only about an epoch ahead: on a balanced
/// ring, the calls pulled from the op stream never run more than two
/// epochs per core ahead of the calls the cores have replayed.
#[test]
fn streamed_replay_holds_about_one_epoch_of_calls() {
    const CORES: usize = 2;
    let trace = MtTrace::producer_consumer(CORES, 2_000, 17);
    let replayed = Arc::new(AtomicUsize::new(0));
    let sinks: Vec<Box<dyn TraceSink>> = (0..CORES)
        .map(|_| Box::new(ReplayedCalls(Arc::clone(&replayed))) as Box<dyn TraceSink>)
        .collect();
    let mut pulled = 0usize;
    let mut most_ahead = 0usize;
    let ops = trace.ops().iter().copied().inspect(|(_, op)| {
        if matches!(op, MtOp::Malloc { .. } | MtOp::Free { .. }) {
            pulled += 1;
            most_ahead = most_ahead.max(pulled - replayed.load(Ordering::Relaxed));
        }
    });
    let (r, _) =
        MulticoreSim::new(Mode::mallacc_default(), CORES).run_stream_with_sinks(ops, sinks);
    let t = r.aggregate();
    assert_eq!(pulled as u64, t.malloc_calls + t.free_calls);
    assert_eq!(replayed.load(Ordering::Relaxed), pulled);
    assert!(
        most_ahead <= 2 * CORES * DEFAULT_EPOCH_EVENTS,
        "capture ran {most_ahead} calls ahead of the replay"
    );
}
