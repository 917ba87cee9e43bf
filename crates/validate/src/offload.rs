//! Offload-core conformance: differential fuzzing of the helper-queue
//! timing model plus functional heap identity of the offload driver mode.
//!
//! Two obligations, checked per seeded slot:
//!
//! 1. **Queue differential** — identical request streams replayed through
//!    the incremental [`mallacc_offload::OffloadQueue`] and the
//!    from-scratch [`mallacc_offload::RefOffloadQueue`] reference
//!    interpreter must return identical [`mallacc_offload::EnqueueOutcome`]s
//!    on every step, and the incremental queue's counters must satisfy the
//!    conservation law `enqueued == retired + occupancy` with the stall
//!    totals exactly accounting the per-step stalls.
//! 2. **Heap identity** — the offload modes are *timing only*: replaying
//!    one allocation program through `Mode::Offload` (helper with and
//!    without its own malloc cache) and `Mode::Baseline` must produce
//!    bit-identical functional call records (pointer, size, class, sampler
//!    verdict) on every call. A helper core that changed what the heap
//!    returns would be a functional fork, not an accelerator.
//!
//! Slot results depend only on `(corpus seed, slot index)`, so a parallel
//! driver partitions slots across workers without changing the aggregate
//! report — the same contract as [`crate::program::fuzz_slot`].

use mallacc::{MallocSim, Mode, OffloadConfig};
use mallacc_offload::{OffloadQueue, RefOffloadQueue};

use crate::program::SplitMix64;
use crate::{Divergence, SlotReport};

/// Mergeable aggregate of offload-conformance slots.
#[derive(Debug, Clone, Default)]
pub struct OffloadFuzzReport {
    /// Queue request streams replayed differentially.
    pub queue_programs: u64,
    /// Enqueue steps compared against the reference interpreter.
    pub requests: u64,
    /// Allocation programs replayed for heap identity.
    pub heap_programs: u64,
    /// Allocator calls compared across modes.
    pub heap_calls: u64,
    /// Every divergence found (empty on a conforming model). Its step is
    /// the request or allocator call, its check the obligation that
    /// broke: `"queue"`, `"conservation"` or `"heap"`.
    pub divergences: Vec<Divergence>,
}

impl OffloadFuzzReport {
    /// Records one divergence.
    fn fail(&mut self, seed: u64, step: u64, check: &str, detail: String) {
        self.divergences.push(Divergence {
            seed,
            step: Some(step),
            check: check.to_string(),
            detail,
        });
    }
}

impl SlotReport for OffloadFuzzReport {
    fn merge(&mut self, other: OffloadFuzzReport) {
        self.queue_programs += other.queue_programs;
        self.requests += other.requests;
        self.heap_programs += other.heap_programs;
        self.heap_calls += other.heap_calls;
        self.divergences.extend(other.divergences);
    }
}

/// Draws a queue configuration spanning the interesting corners: depth 1
/// (every second request stalls) through deep, slow through fast helpers,
/// with and without the helper-side malloc cache.
fn arb_config(rng: &mut SplitMix64) -> OffloadConfig {
    let mut cfg = if rng.below(2) == 0 {
        OffloadConfig::speedmalloc_default()
    } else {
        OffloadConfig::both_default()
    };
    cfg.queue_depth = 1 + rng.below(16) as usize;
    cfg.helper_ipc_milli = [250, 500, 800, 1000][rng.below(4) as usize];
    cfg.dequeue_latency = 1 + rng.below(12) as u32;
    cfg.response_latency = 1 + rng.below(12) as u32;
    cfg
}

/// Replays one random request stream through both queue implementations.
fn queue_differential(seed: u64, report: &mut OffloadFuzzReport) {
    let mut rng = SplitMix64::new(seed);
    let cfg = arb_config(&mut rng);
    let mut q = OffloadQueue::new(cfg);
    let mut r = RefOffloadQueue::new(cfg);
    let steps = 64 + rng.below(192);
    let mut now = 0u64;
    let (mut stall_sum, mut stall_events) = (0u64, 0u64);
    report.queue_programs += 1;
    for step in 0..steps {
        // Mostly bursty (gap 0) with occasional long idles, so both the
        // saturated and the drained regimes are exercised.
        now += match rng.below(10) {
            0..=5 => 0,
            6..=8 => rng.below(40),
            _ => 200 + rng.below(400),
        };
        let service = 1 + rng.below(120);
        let a = q.enqueue(now, service);
        let b = r.enqueue(now, service);
        report.requests += 1;
        if a != b {
            report.fail(
                seed,
                step,
                "queue",
                format!("incremental {a:?} != reference {b:?}"),
            );
            return; // later steps would only echo the same fork
        }
        stall_sum += a.stall_cycles;
        stall_events += u64::from(a.stall_cycles > 0);
    }
    let s = q.stats();
    let occupancy = q.occupancy() as u64;
    if s.enqueued != s.retired + occupancy
        || s.stall_cycles != stall_sum
        || s.queue_full_stalls != stall_events
        || s.max_occupancy > cfg.queue_depth
    {
        report.fail(
            seed,
            steps,
            "conservation",
            format!(
                "stats {s:?} vs occupancy {occupancy}, observed stalls {stall_events}/{stall_sum}"
            ),
        );
    }
}

/// Replays one random allocation program through baseline and both offload
/// modes, demanding bit-identical functional records.
fn heap_identity(seed: u64, report: &mut OffloadFuzzReport) {
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_0FF1_0AD0);
    let mut cfg = arb_config(&mut rng);
    cfg.helper_mallacc = rng.below(2) == 0;
    let mut sims = [
        MallocSim::new(Mode::Baseline),
        MallocSim::new(Mode::Offload(cfg)),
        MallocSim::new(Mode::offload_both()),
    ];
    let mut pool: Vec<u64> = Vec::new();
    let calls = 80 + rng.below(120);
    report.heap_programs += 1;
    for step in 0..calls {
        report.heap_calls += 1;
        let diverged = if pool.is_empty() || rng.below(10) < 6 {
            // Mix small classes, class boundaries and the occasional
            // large allocation that bypasses the thread cache.
            let size = match rng.below(8) {
                0..=4 => 8 + rng.below(512),
                5 | 6 => 1 + rng.below(32 * 1024),
                _ => 256 * 1024 + rng.below(64 * 1024),
            };
            let recs = sims.each_mut().map(|sim| sim.malloc(size));
            pool.push(recs[0].ptr);
            functional_mismatch(&recs)
        } else {
            let ptr = pool.swap_remove(rng.below(pool.len() as u64) as usize);
            let sized = rng.below(2) == 0;
            let recs = sims.each_mut().map(|sim| sim.free(ptr, sized));
            functional_mismatch(&recs)
        };
        if let Some(detail) = diverged {
            report.fail(seed, step, "heap", detail);
            return;
        }
    }
}

/// Compares the functional fields of one call across the three modes
/// (timing fields are expected to differ — that is the whole point).
fn functional_mismatch(recs: &[mallacc::CallRecord; 3]) -> Option<String> {
    let key = |r: &mallacc::CallRecord| (r.ptr, r.size, r.cls, r.sampled);
    let base = key(&recs[0]);
    for (name, rec) in [("offload", &recs[1]), ("both", &recs[2])] {
        if key(rec) != base {
            return Some(format!(
                "{name} returned {:?}, baseline {:?}",
                key(rec),
                base
            ));
        }
    }
    None
}

/// Runs one offload-conformance slot: two queue differentials and one
/// heap-identity program, seeded purely from `(corpus seed, slot index)`.
pub fn offload_fuzz_slot(corpus_seed: u64, slot: u64) -> OffloadFuzzReport {
    let mut report = OffloadFuzzReport::default();
    let base = SplitMix64::new(corpus_seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    queue_differential(base, &mut report);
    queue_differential(base ^ 1, &mut report);
    heap_identity(base, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_corpus;

    #[test]
    fn a_thousand_slots_conform() {
        let report = run_corpus(1_000, 1, |slot| offload_fuzz_slot(42, slot));
        assert_eq!(report.queue_programs, 2_000);
        assert_eq!(report.heap_programs, 1_000);
        assert!(report.requests > 100_000, "requests: {}", report.requests);
        assert!(
            report.divergences.is_empty(),
            "first: {:?}",
            report.divergences.first()
        );
    }

    #[test]
    fn slots_are_independent_of_visit_order() {
        let forward = run_corpus(16, 1, |slot| offload_fuzz_slot(7, slot));
        let mut counts = (0, 0);
        for slot in (0..16).rev() {
            let r = offload_fuzz_slot(7, slot);
            counts.0 += r.requests;
            counts.1 += r.heap_calls;
        }
        assert_eq!((forward.requests, forward.heap_calls), counts);
    }

    #[test]
    fn a_broken_reference_contract_would_be_caught() {
        // Sanity that the divergence plumbing works: compare the queue
        // against a reference with a *different* config — divergences
        // must appear almost immediately.
        let cfg_a = OffloadConfig::speedmalloc_default();
        let mut cfg_b = cfg_a;
        cfg_b.response_latency += 1;
        let mut q = OffloadQueue::new(cfg_a);
        let mut r = RefOffloadQueue::new(cfg_b);
        let a = q.enqueue(0, 10);
        let b = r.enqueue(0, 10);
        assert_ne!(a, b, "the checker must be able to see this fork");
    }
}
