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

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use mallacc::Mode;
use mallacc_cache::{AccessKind, CacheConfig, Hierarchy, HierarchyConfig, SharedL3};
use mallacc_multicore::{MtRunResult, MulticoreSim};
use mallacc_tcmalloc::{ClassId, TcMalloc};
use mallacc_test_support::arb_cross_thread_ops;
use mallacc_workloads::{MtOp, MtTrace};

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
