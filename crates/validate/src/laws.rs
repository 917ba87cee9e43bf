//! Metamorphic laws for the malloc cache.
//!
//! Differential fuzzing ([`crate::program`]) catches disagreement between
//! the model and its reference spec; it cannot catch a bug both share.
//! Metamorphic laws attack that blind spot: each law relates *pairs* of
//! runs of the same implementation under a transformation whose effect we
//! can prove from the architectural spec, so a shared implementation bug
//! that breaks the relation is caught without any second implementation.
//!
//! * [`LawId::EntriesMonotone`] — growing the cache never hurts: on a
//!   *canonical* trace (every `mcszupdate` for a class carries the same
//!   `(requested, alloc)` pair, lookups probe learned spans, no
//!   prefetches), a cache with more entries scores at least as many lookup
//!   and pop hits. The preconditions are not bureaucratic caution — both
//!   relaxations admit genuine anomalies, demonstrated constructively by
//!   [`range_narrowing_admits_belady_anomaly`](self#tests) (re-learning a
//!   class narrows its range, so the *bigger* cache can lose lookups) and
//!   [`prefetch_fill_admits_pop_anomaly`](self#tests) (a freshly
//!   re-inserted entry accepts an empty-fill prefetch that a longer-lived
//!   entry in the bigger cache rejects).
//! * [`LawId::PrefetchRemoval`] — `mcnxtprefetch` is a pure hint: deleting
//!   every prefetch from a trace leaves lookup/update/eviction behaviour
//!   byte-identical, can only *lower* the pop hit count, and all blocked
//!   cycles vanish. Disabling the hint never improves the cache.
//! * [`LawId::IndependentReorder`] — ops on different size classes
//!   commute: swapping two adjacent same-cycle ops that touch different
//!   classes leaves every counter and every entry's observable state
//!   unchanged, provided the trace triggers no evictions (eviction is the
//!   one cross-class coupling in the machine).

use mallacc::{EntryView, MallocCache, MallocCacheConfig, MallocCacheStats};

use crate::program::{mix, McOp, McProgram};
use crate::{Divergence, SlotReport};

/// Identifies one metamorphic law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LawId {
    /// More entries never lose hits (canonical, prefetch-free traces).
    EntriesMonotone,
    /// Removing prefetches never gains hits and zeroes blocked cycles.
    PrefetchRemoval,
    /// Adjacent same-cycle ops on different classes commute.
    IndependentReorder,
}

impl LawId {
    /// Every law.
    pub fn all() -> [LawId; 3] {
        [
            LawId::EntriesMonotone,
            LawId::PrefetchRemoval,
            LawId::IndependentReorder,
        ]
    }

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            LawId::EntriesMonotone => "entries-monotone",
            LawId::PrefetchRemoval => "prefetch-removal",
            LawId::IndependentReorder => "independent-reorder",
        }
    }
}

/// Aggregate result of a law-suite run.
#[derive(Debug, Clone, Default)]
pub struct LawReport {
    /// Seeded cases examined (per-law cases summed).
    pub cases: u64,
    /// Individual pairwise comparisons made (reorder checks every
    /// swappable pair, so this exceeds `cases`).
    pub comparisons: u64,
    /// Every violation found; its `check` is the law's name.
    pub divergences: Vec<Divergence>,
}

impl SlotReport for LawReport {
    fn merge(&mut self, other: LawReport) {
        self.cases += other.cases;
        self.comparisons += other.comparisons;
        self.divergences.extend(other.divergences);
    }
}

/// A violation of `law` on the trace generated from `seed`.
fn violation(law: LawId, seed: u64, detail: String) -> Option<Divergence> {
    Some(Divergence {
        seed,
        step: None,
        check: law.name().to_string(),
        detail,
    })
}

fn end_state(
    p: &McProgram,
    config: MallocCacheConfig,
    ops: &[(u64, McOp)],
) -> (MallocCacheStats, usize, Vec<Option<EntryView>>, Vec<u64>) {
    let mc: MallocCache = p.replay_with(config, ops);
    let now = ops.last().map(|&(t, _)| t).unwrap_or(0);
    let views = p.classes.iter().map(|c| mc.entry_view(c.class)).collect();
    let delays = p
        .classes
        .iter()
        .map(|c| mc.block_delay(c.class, now))
        .collect();
    (mc.stats(), mc.occupancy(), views, delays)
}

fn check_entries_monotone(seed: u64) -> (u64, Option<Divergence>) {
    let p = McProgram::generate_canonical(seed);
    let small = p.replay_with(p.config, &p.ops).stats();
    let mut comparisons = 0;
    for extra in [1, p.config.entries] {
        let big_config = MallocCacheConfig {
            entries: p.config.entries + extra,
            ..p.config
        };
        let big = p.replay_with(big_config, &p.ops).stats();
        comparisons += 1;
        let ok = big.lookup_hits >= small.lookup_hits
            && big.lookup_misses <= small.lookup_misses
            && big.pop_hits >= small.pop_hits
            && big.pop_misses <= small.pop_misses;
        if !ok {
            return (
                comparisons,
                violation(
                    LawId::EntriesMonotone,
                    seed,
                    format!(
                        "{} entries scored fewer hits than {}: big {:?} vs small {:?}",
                        big_config.entries, p.config.entries, big, small
                    ),
                ),
            );
        }
    }
    (comparisons, None)
}

fn check_prefetch_removal(seed: u64) -> (u64, Option<Divergence>) {
    let p = McProgram::generate(seed);
    let with = p.replay_with(p.config, &p.ops).stats();
    let stripped: Vec<_> = p
        .ops
        .iter()
        .copied()
        .filter(|(_, op)| !matches!(op, McOp::Prefetch { .. }))
        .collect();
    let without = p.replay_with(p.config, &stripped).stats();
    let fail = |detail| violation(LawId::PrefetchRemoval, seed, detail);
    let v = if without.prefetches != 0 || without.blocked_cycles != 0 {
        fail(format!(
            "prefetch-free replay still recorded prefetch effects: {without:?}"
        ))
    } else if (
        without.lookup_hits,
        without.lookup_misses,
        without.inserts,
        without.range_extends,
        without.evictions,
        without.push_hits,
        without.list_invalidations,
    ) != (
        with.lookup_hits,
        with.lookup_misses,
        with.inserts,
        with.range_extends,
        with.evictions,
        with.push_hits,
        with.list_invalidations,
    ) {
        fail(format!(
            "removing prefetches changed non-list-pop behaviour: with {with:?} vs without {without:?}"
        ))
    } else if with.pop_hits < without.pop_hits {
        fail(format!(
            "disabling prefetch improved pop hits: with {} vs without {}",
            with.pop_hits, without.pop_hits
        ))
    } else {
        None
    };
    (1, v)
}

fn check_independent_reorder(seed: u64) -> (u64, Option<Divergence>) {
    let p = McProgram::generate_eviction_free(seed);
    let baseline = end_state(&p, p.config, &p.ops);
    debug_assert_eq!(baseline.0.evictions, 0, "precondition: eviction-free");
    let mut comparisons = 0;
    for i in 0..p.ops.len().saturating_sub(1) {
        let ((now_a, op_a), (now_b, op_b)) = (p.ops[i], p.ops[i + 1]);
        let independent = now_a == now_b
            && matches!(
                (op_a.class_slot(), op_b.class_slot()),
                (Some(a), Some(b)) if a != b
            );
        if !independent {
            continue;
        }
        comparisons += 1;
        let mut swapped = p.ops.clone();
        swapped.swap(i, i + 1);
        let reordered = end_state(&p, p.config, &swapped);
        if reordered != baseline {
            return (
                comparisons,
                violation(
                    LawId::IndependentReorder,
                    seed,
                    format!(
                        "swapping ops {i} and {} changed the outcome: {op_a:?} <-> {op_b:?}",
                        i + 1
                    ),
                ),
            );
        }
    }
    (comparisons, None)
}

/// Checks one law on one seeded trace. Returns the number of pairwise
/// comparisons made and the first violation, if any.
pub fn check_law(law: LawId, seed: u64) -> (u64, Option<Divergence>) {
    match law {
        LawId::EntriesMonotone => check_entries_monotone(seed),
        LawId::PrefetchRemoval => check_prefetch_removal(seed),
        LawId::IndependentReorder => check_independent_reorder(seed),
    }
}

/// Total law-check slots for `cases` traces per law (the unit of work the
/// CLI parallelises over).
pub fn total_slots(cases_per_law: u64) -> u64 {
    LawId::all().len() as u64 * cases_per_law
}

/// Runs one law-check slot. Slot `index` maps to `(law, case)` in
/// law-major order; the case seed depends only on `(seed, law, case)`, so
/// any partition of the slot range yields the same merged report.
pub fn check_slot(seed: u64, cases_per_law: u64, index: u64) -> LawReport {
    let li = index / cases_per_law;
    let case = index % cases_per_law;
    let law = LawId::all()[li as usize];
    let (comparisons, divergence) = check_law(law, mix(seed ^ (li << 56), case));
    LawReport {
        cases: 1,
        comparisons,
        divergences: divergence.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_corpus;
    use mallacc::RangeKeying;

    #[test]
    fn all_laws_hold_over_many_seeds() {
        let report = run_corpus(total_slots(150), 1, |i| check_slot(0xBEEF, 150, i));
        assert!(
            report.divergences.is_empty(),
            "law violated: {:?}",
            report.divergences[0]
        );
        assert_eq!(report.cases, 450);
        // The reorder law must actually find swappable pairs, or it tests
        // nothing.
        assert!(report.comparisons > report.cases);
    }

    fn raw_cache(entries: usize) -> MallocCache {
        MallocCache::new(MallocCacheConfig {
            entries,
            keying: RangeKeying::RequestedSize,
            extra_latency: 0,
        })
    }

    /// Constructive counterexample for the *unrestricted* entries-monotone
    /// law: when software re-learns a class, the fresh entry starts with a
    /// *narrower* range than the one the bigger cache kept, so the bigger
    /// cache spends touches (and LRU freshness) on entries the smaller
    /// cache no longer has — and then evicts the wrong victim. A Belady
    /// anomaly for a fully-associative LRU cache, possible only because
    /// entries carry learned ranges rather than fixed identities. This is
    /// why [`LawId::EntriesMonotone`] demands canonical updates.
    #[test]
    fn range_narrowing_admits_belady_anomaly() {
        let mut small = raw_cache(2);
        let mut big = raw_cache(3);
        for c in [&mut small, &mut big] {
            c.update(100, 120, 1);
            c.update(200, 220, 2);
            c.update(300, 320, 3); // small: evicts class 1
            c.update(118, 120, 1); // small: re-insert, narrow [118,120]
            let _ = c.lookup(300, 0); // hits class 3 in both
            let _ = c.lookup(105, 0); // big-only hit (small's range narrowed)
            let _ = c.lookup(205, 0); // big-only hit (small evicted class 2)
            c.update(400, 420, 4); // big evicts class 3; small keeps it
            for _ in 0..3 {
                let _ = c.lookup(300, 0); // small-only hits
            }
        }
        let (s, b) = (small.stats(), big.stats());
        assert_eq!(s.lookup_hits, 4);
        assert_eq!(b.lookup_hits, 3);
        assert!(
            s.lookup_hits > b.lookup_hits,
            "the anomaly this test documents has disappeared"
        );
    }

    /// Constructive counterexample for pop-hit monotonicity in the
    /// presence of `mcnxtprefetch`: the small cache's freshly re-inserted
    /// (empty) entry accepts an empty-fill prefetch, while the big cache's
    /// longer-lived entry still holds a stale head and rejects the same
    /// prefetch — so the *small* cache pop-hits where the big one misses.
    /// This is why [`LawId::EntriesMonotone`] also excludes prefetches.
    #[test]
    fn prefetch_fill_admits_pop_anomaly() {
        let mut small = raw_cache(1);
        let mut big = raw_cache(2);
        for c in [&mut small, &mut big] {
            c.update(8, 8, 1);
            c.push(1, 0x100, 0); // class 1 caches head 0x100
            c.update(16, 16, 2); // small: evicts class 1
            c.update(8, 8, 1); // small: fresh empty entry; big: keeps head
            c.prefetch(1, 0x200, Some(0x300), 0); // small fills; big rejects
            let _ = c.pop(1, 0);
        }
        assert_eq!(small.stats().pop_hits, 1);
        assert_eq!(big.stats().pop_hits, 0);
    }

    #[test]
    fn law_names_are_stable() {
        let names: Vec<_> = LawId::all().iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            [
                "entries-monotone",
                "prefetch-removal",
                "independent-reorder"
            ]
        );
    }
}
