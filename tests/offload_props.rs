//! Property suite over the allocation-offload subsystem: bulk differential
//! conformance of the helper-queue model against its reference
//! interpreter, heap bit-identity of the offload driver modes,
//! queue-conservation laws on arbitrary request streams, and byte-identical
//! `repro offload` reports for every `--jobs` value.

use proptest::prelude::*;

use mallacc::{CallRecord, Driver, Mode, OffloadConfig, Substrate, TcSubstrate};
use mallacc_bench::offload_cli::{offload_report, OffloadArgs};
use mallacc_fleet::Scenario;
use mallacc_jemalloc::JeSubstrate;
use mallacc_offload::{OffloadQueue, RefOffloadQueue};
use mallacc_substrate::{PcSubstrate, RpSubstrate, SubstrateKind};
use mallacc_workloads::AnyWorkload;

/// Bulk conformance at the scale the subsystem claims: ≥10k fuzzed
/// programs (queue differentials + heap-identity allocation programs)
/// through the shared `mallacc-validate` slot function, with zero
/// divergences. Slots are merged in index order, so the parallel
/// partitioning cannot change the aggregate.
#[test]
fn ten_thousand_fuzzed_programs_conform() {
    use mallacc_validate::{offload_fuzz_slot, run_corpus};
    const SLOTS: u64 = 3_500; // 2 queue + 1 heap program per slot
    let report = run_corpus(SLOTS, 4, |i| offload_fuzz_slot(42, i));
    let programs = report.queue_programs + report.heap_programs;
    assert!(programs >= 10_000, "only {programs} programs");
    assert!(
        report.divergences.is_empty(),
        "{} divergences; first: {:?}",
        report.divergences.len(),
        report.divergences.first()
    );
}

/// Strategy for a queue configuration spanning depth, helper speed and
/// interface latencies.
fn arb_offload_config() -> impl Strategy<Value = OffloadConfig> {
    (1usize..=32, 0usize..4, 1u32..12, 1u32..12).prop_map(|(depth, ipc, deq, resp)| {
        let mut cfg = OffloadConfig::speedmalloc_default();
        cfg.queue_depth = depth;
        cfg.helper_ipc_milli = [250, 500, 800, 1000][ipc];
        cfg.dequeue_latency = deq;
        cfg.response_latency = resp;
        cfg
    })
}

/// Strategy for a request stream: per-request `(gap to previous, helper
/// service cycles)`.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (Just(0u64), 1u64..150),
            2 => (0u64..40, 1u64..150),
            1 => (100u64..600, 1u64..150),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Step-for-step agreement between the incremental queue and the
    /// from-scratch reference interpreter on arbitrary streams.
    #[test]
    fn incremental_queue_matches_the_reference(
        cfg in arb_offload_config(),
        stream in arb_stream(),
    ) {
        let mut q = OffloadQueue::new(cfg);
        let mut r = RefOffloadQueue::new(cfg);
        let mut now = 0u64;
        for (step, &(gap, service)) in stream.iter().enumerate() {
            now += gap;
            let a = q.enqueue(now, service);
            let b = r.enqueue(now, service);
            prop_assert_eq!(a, b, "divergence at step {}", step);
        }
    }

    /// Queue-conservation laws: every enqueue is retired or still
    /// occupying a slot, occupancy never exceeds the configured depth,
    /// and the stall counters exactly account the per-step outcomes.
    #[test]
    fn queue_counters_conserve(
        cfg in arb_offload_config(),
        stream in arb_stream(),
    ) {
        let mut q = OffloadQueue::new(cfg);
        let mut now = 0u64;
        let (mut stall_sum, mut stall_events, mut busy) = (0u64, 0u64, 0u64);
        let mut last_ready = 0u64;
        for &(gap, service) in &stream {
            now += gap;
            let o = q.enqueue(now, service);
            prop_assert!(o.submitted_at == now + o.stall_cycles);
            prop_assert!(o.response_ready >= last_ready, "responses must stay in order");
            last_ready = o.response_ready;
            stall_sum += o.stall_cycles;
            stall_events += u64::from(o.stall_cycles > 0);
            busy += service;
        }
        let s = q.stats();
        prop_assert_eq!(s.enqueued, stream.len() as u64);
        prop_assert_eq!(s.enqueued, s.retired + q.occupancy() as u64);
        prop_assert_eq!(s.stall_cycles, stall_sum);
        prop_assert_eq!(s.queue_full_stalls, stall_events);
        prop_assert_eq!(s.busy_cycles, busy);
        prop_assert!(s.max_occupancy <= cfg.queue_depth);
    }
}

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

/// Heap identity across modes on one substrate: see
/// `offload_modes_never_change_the_heap`.
fn heap_is_mode_invariant<S: Substrate + Default>(
    cfg: OffloadConfig,
    seed: u64,
) -> Result<(), TestCaseError> {
    let modes = [
        Mode::Baseline,
        Mode::mallacc_default(),
        Mode::Offload(cfg),
        Mode::offload_both(),
    ];
    let mut sims = modes.map(Driver::<S>::new);
    let mut rng = proptest::TestRng::seed_from_u64(seed);
    let mut pool: Vec<u64> = Vec::new();
    let mut calls = 0u64;
    for step in 0..150u32 {
        let recs = if pool.is_empty() || rng.below(10) < 6 {
            let size = 1 + rng.below(64 * 1024);
            let recs = sims.each_mut().map(|sim| sim.malloc(size));
            pool.push(recs[0].ptr);
            recs
        } else {
            let ptr = pool.swap_remove(rng.below(pool.len() as u64) as usize);
            let sized = rng.below(2) == 0;
            sims.each_mut().map(|sim| sim.free(ptr, sized))
        };
        calls += 1;
        let heap = |r: &CallRecord<S::Kind>| (r.kind, r.ptr, r.size, r.cls, r.sampled);
        for r in &recs[1..] {
            prop_assert_eq!(heap(r), heap(&recs[0]), "functional fork at step {}", step);
        }
    }
    for (sim, mode) in sims.iter().zip(modes) {
        prop_assert!(
            sim.totals().allocator_cycles() > 0,
            "{:?} recorded no cycles",
            mode
        );
        match (sim.offload_stats(), mode) {
            (Some(s), Mode::Offload(_)) => {
                prop_assert_eq!(s.enqueued, calls, "the queue must see every call");
                prop_assert!(s.retired <= s.enqueued);
                prop_assert!(s.busy_cycles > 0, "the helper never ran");
            }
            (None, Mode::Offload(_)) => prop_assert!(false, "offload mode without a queue"),
            (stats, _) => prop_assert!(stats.is_none(), "{:?} has a queue", mode),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heap bit-identity on arbitrary allocation programs, on every
    /// substrate: Mallacc and the offload modes must return exactly the
    /// call kinds, pointers, sizes, classes and sampler verdicts of the
    /// baseline — the accelerator and the helper core are timing-only —
    /// and the offload queue must see every call.
    #[test]
    fn offload_modes_never_change_the_heap(
        cfg in arb_offload_config(),
        seed in any::<u64>(),
        kind in (0usize..SubstrateKind::ALL.len()).prop_map(|i| SubstrateKind::ALL[i]),
    ) {
        on_substrate!(kind, heap_is_mode_invariant(cfg, seed))?;
    }
}

proptest! {
    // Each case runs the full four-section report twice, so the volume
    // stays low; the fixed-seed golden test pins the smoke configuration.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `--jobs` parallelism never changes a byte of the `repro offload`
    /// report, for arbitrary seeds, depths and core counts.
    #[test]
    fn report_bytes_are_jobs_invariant(
        seed in any::<u64>(),
        depth in 1usize..=16,
        wide in 0usize..2,
    ) {
        let args = |jobs: usize| OffloadArgs {
            workloads: ["tp_small", "xapian.pages"]
                .map(|n| AnyWorkload::by_name(n).unwrap())
                .to_vec(),
            scenarios: vec![Scenario::by_name("rpc-fanout").unwrap()],
            depths: vec![depth],
            cores: vec![1, if wide == 1 { 32 } else { 2 }],
            calls: 120,
            warmup: 30,
            requests: 16,
            seed,
            jobs,
            ..OffloadArgs::default()
        };
        let (c1, seq) = offload_report(&args(1));
        let (c4, par) = offload_report(&args(4));
        prop_assert_eq!((c1, c4), (0, 0));
        prop_assert_eq!(seq, par, "--jobs changed the report bytes");
    }
}
