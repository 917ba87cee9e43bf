//! Substrate conformance: executable allocator laws fuzzed over the
//! rpmalloc-style and TCMalloc-per-CPU substrate models.
//!
//! The substrate backends ([`mallacc_substrate::RpMalloc`],
//! [`mallacc_substrate::PerCpuMalloc`]) expose introspection hooks
//! (`span_views`, `span_owner`, `class_census`) precisely so their
//! internal bookkeeping can be audited from outside. Three law
//! families, one seeded program each per slot:
//!
//! 1. **Span ownership** (rpmalloc) — every small/medium block lies
//!    inside its serving span's payload area, the span mask recovers
//!    that span, the span's recorded owner is the allocating thread,
//!    frees route local-vs-deferred purely by ownership, and every
//!    span's tokens are conserved:
//!    `carved == live + local free + deferred`.
//! 2. **Per-CPU token conservation** — after a random run mixing
//!    context switches and CPU pins, every touched size class
//!    satisfies `slabs + central + live == carved`, checked mid-run
//!    and at the end.
//! 3. **Deferred-free linearization** (rpmalloc cross-thread) — a
//!    block freed by a foreign thread stays on its span's atomic
//!    deferred list until the owner adopts the whole list at once; it
//!    must never be handed out while still deferred, adoption must
//!    drain the exact set of deferred blocks (serving them LIFO over
//!    the deferred pushes), and the shadow ledger must match the
//!    model's own `deferred_len` span views at the end.
//!
//! Slot results depend only on `(corpus seed, slot index)`, so a
//! parallel driver partitions slots across workers without changing
//! the aggregate report — the same contract as
//! [`crate::program::fuzz_slot`].

use std::collections::BTreeMap;

use mallacc_substrate::{rp_layout, PcFreePath, PerCpuMalloc, RpFreePath, RpMalloc, RpMallocPath};
use mallacc_tcmalloc::ClassId;

use crate::program::SplitMix64;
use crate::{Divergence, SlotReport};

/// Mergeable aggregate of substrate-conformance slots.
#[derive(Debug, Clone, Default)]
pub struct SubstrateFuzzReport {
    /// Span-ownership programs run.
    pub span_programs: u64,
    /// Individual span-ownership law evaluations.
    pub span_checks: u64,
    /// Token-conservation programs run.
    pub token_programs: u64,
    /// Individual class-census conservation evaluations.
    pub token_checks: u64,
    /// Deferred-linearization programs run.
    pub linearize_programs: u64,
    /// Individual linearization evaluations.
    pub linearize_checks: u64,
    /// Every violation found (empty on a conforming model). Its step is
    /// the allocator call (or the call count, for end-of-program ledger
    /// checks), its check the law that broke: `"span-ownership"`,
    /// `"token-conservation"` or `"deferred-linearization"`.
    pub divergences: Vec<Divergence>,
}

impl SlotReport for SubstrateFuzzReport {
    fn merge(&mut self, other: SubstrateFuzzReport) {
        self.span_programs += other.span_programs;
        self.span_checks += other.span_checks;
        self.token_programs += other.token_programs;
        self.token_checks += other.token_checks;
        self.linearize_programs += other.linearize_programs;
        self.linearize_checks += other.linearize_checks;
        self.divergences.extend(other.divergences);
    }
}

impl SubstrateFuzzReport {
    /// Total allocator programs across the three law families.
    pub fn programs(&self) -> u64 {
        self.span_programs + self.token_programs + self.linearize_programs
    }

    /// Total individual law evaluations.
    pub fn checks(&self) -> u64 {
        self.span_checks + self.token_checks + self.linearize_checks
    }

    /// Records one violation.
    fn fail(&mut self, seed: u64, step: u64, check: &str, detail: String) {
        self.divergences.push(Divergence {
            seed,
            step: Some(step),
            check: check.to_string(),
            detail,
        });
    }
}

/// Draws a small/medium/large request size, biased toward the
/// span-served classes where the laws have teeth.
fn arb_size(rng: &mut SplitMix64) -> u64 {
    match rng.below(10) {
        0..=5 => 1 + rng.below(rp_layout::SMALL_MAX),
        6..=8 => rp_layout::SMALL_MAX + 1 + rng.below(rp_layout::MEDIUM_MAX - rp_layout::SMALL_MAX),
        _ => rp_layout::MEDIUM_MAX + 1 + rng.below(4 * rp_layout::SPAN_SIZE),
    }
}

/// Replays one random cross-thread program, auditing every outcome
/// against the span-ownership laws and the end-of-program span ledger.
fn span_ownership(seed: u64, report: &mut SubstrateFuzzReport) {
    let mut rng = SplitMix64::new(seed);
    let threads = 1 + rng.below(3) as usize;
    let mut a = RpMalloc::new(threads);
    // (allocating thread, ptr, span) for every live small/medium block.
    let mut pool: Vec<(usize, u64, u64)> = Vec::new();
    let mut large: Vec<u64> = Vec::new();
    let calls = 80 + rng.below(160);
    report.span_programs += 1;
    for step in 0..calls {
        let t = rng.below(threads as u64) as usize;
        if (pool.is_empty() && large.is_empty()) || rng.below(10) < 6 {
            let o = a.malloc_on(t, arb_size(&mut rng));
            let Some(span) = o.span else {
                large.push(o.ptr);
                continue;
            };
            report.span_checks += 1;
            if rp_layout::span_of(o.ptr) != span
                || o.ptr < span + rp_layout::SPAN_HEADER
                || o.ptr + o.alloc_size > span + rp_layout::SPAN_SIZE
            {
                report.fail(
                    seed,
                    step,
                    "span-ownership",
                    format!(
                        "block [{:#x},+{}) escapes span {span:#x} payload",
                        o.ptr, o.alloc_size
                    ),
                );
                return;
            }
            if a.span_owner(o.ptr) != Some(t) {
                report.fail(
                    seed,
                    step,
                    "span-ownership",
                    format!(
                        "thread {t} was served from a span owned by {:?}",
                        a.span_owner(o.ptr)
                    ),
                );
                return;
            }
            pool.push((t, o.ptr, span));
        } else if !pool.is_empty() && (large.is_empty() || rng.below(4) > 0) {
            let (owner, ptr, span) = pool.swap_remove(rng.below(pool.len() as u64) as usize);
            let f = a.free_on(t, ptr, rng.below(2) == 0);
            report.span_checks += 1;
            let local = matches!(f.path, RpFreePath::Local { .. });
            if f.span != Some(span) || local != (t == owner) {
                report.fail(
                    seed,
                    step,
                    "span-ownership",
                    format!(
                        "free on {t} of {ptr:#x} (owner {owner}): span {:?}, path {:?}",
                        f.span, f.path
                    ),
                );
                return;
            }
        } else {
            let ptr = large.swap_remove(rng.below(large.len() as u64) as usize);
            let f = a.free_on(t, ptr, rng.below(2) == 0);
            report.span_checks += 1;
            if !matches!(f.path, RpFreePath::Large { .. }) {
                report.fail(
                    seed,
                    step,
                    "span-ownership",
                    format!("large free of {ptr:#x} took {:?}", f.path),
                );
                return;
            }
        }
    }
    for v in a.span_views() {
        report.span_checks += 1;
        if v.carved != v.live + v.free_len + v.deferred_len || v.carved > v.capacity {
            report.fail(
                seed,
                calls,
                "span-ownership",
                format!(
                    "span {:#x}: carved {} != live {} + free {} + deferred {} (capacity {})",
                    v.base, v.carved, v.live, v.free_len, v.deferred_len, v.capacity
                ),
            );
            return;
        }
    }
}

/// Audits `slabs + central + live == carved` for every touched class.
fn census_ok(
    a: &PerCpuMalloc,
    touched: &[ClassId],
    seed: u64,
    step: u64,
    report: &mut SubstrateFuzzReport,
) -> bool {
    for &cls in touched {
        report.token_checks += 1;
        let (in_slabs, in_central, live, carved) = a.class_census(cls);
        if in_slabs + in_central + live != carved {
            report.fail(
                seed,
                step,
                "token-conservation",
                format!(
                    "{cls}: slabs {in_slabs} + central {in_central} + live {live} != carved {carved}"
                ),
            );
            return false;
        }
    }
    true
}

/// Replays one random program over the per-CPU model, rotating CPUs,
/// and audits token conservation mid-run and at the end.
fn token_conservation(seed: u64, report: &mut SubstrateFuzzReport) {
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00_5EED_F00D);
    let cpus = 1 + rng.below(4) as usize;
    let mut a = PerCpuMalloc::new(cpus);
    let mut pool: Vec<u64> = Vec::new();
    let mut touched: Vec<ClassId> = Vec::new();
    let calls = 100 + rng.below(200);
    report.token_programs += 1;
    for step in 0..calls {
        match rng.below(12) {
            0 => a.context_switch(),
            1 => a.set_cpu(rng.below(cpus as u64) as usize),
            _ => {}
        }
        if pool.is_empty() || rng.below(10) < 6 {
            let o = a.malloc(arb_size(&mut rng));
            if let Some(cls) = o.class {
                if !touched.contains(&cls) {
                    touched.push(cls);
                }
            }
            pool.push(o.ptr);
        } else {
            let ptr = pool.swap_remove(rng.below(pool.len() as u64) as usize);
            let f = a.free(ptr, rng.below(2) == 0);
            if f.class.is_none() && !matches!(f.path, PcFreePath::Large { .. }) {
                report.fail(
                    seed,
                    step,
                    "token-conservation",
                    format!("classless free of {ptr:#x} took {:?}", f.path),
                );
                return;
            }
        }
        if step % 32 == 31 && !census_ok(&a, &touched, seed, step, report) {
            return;
        }
    }
    census_ok(&a, &touched, seed, calls, report);
}

/// Replays a cross-thread program over rpmalloc, shadowing every span's
/// deferred list and demanding the adoption protocol linearizes it.
fn deferred_linearization(seed: u64, report: &mut SubstrateFuzzReport) {
    let mut rng = SplitMix64::new(seed ^ 0xDEFE_44ED_F4EE_1157);
    let threads = 2 + rng.below(3) as usize;
    let mut a = RpMalloc::new(threads);
    // span → deferred pushes in order (the shadow of the atomic list).
    let mut deferred: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    // (owner thread, ptr) for every live small/medium block.
    let mut pool: Vec<(usize, u64)> = Vec::new();
    let calls = 100 + rng.below(200);
    report.linearize_programs += 1;
    for step in 0..calls {
        // Bias toward foreign frees so deferred lists actually grow,
        // and toward re-allocation on the owning thread so they drain.
        if pool.is_empty() || rng.below(10) < 5 {
            let t = rng.below(threads as u64) as usize;
            let o = a.malloc_on(t, 1 + rng.below(rp_layout::MEDIUM_MAX));
            let Some(span) = o.span else { continue };
            report.linearize_checks += 1;
            let shadow = deferred.entry(span).or_default();
            let adopting = matches!(
                o.path,
                RpMallocPath::DeferredAdopt { .. } | RpMallocPath::NewSpan { reused: true, .. }
            );
            if shadow.contains(&o.ptr) {
                // The only legal way to receive a still-deferred block
                // is a whole-list adoption, which serves LIFO.
                if !adopting {
                    report.fail(
                        seed,
                        step,
                        "deferred-linearization",
                        format!("{:#x} served while deferred via {:?}", o.ptr, o.path),
                    );
                    return;
                }
                if shadow.last() != Some(&o.ptr) {
                    report.fail(
                        seed,
                        step,
                        "deferred-linearization",
                        format!(
                            "adoption served {:#x}, not the last deferred push {:#x}",
                            o.ptr,
                            shadow.last().copied().unwrap_or(0)
                        ),
                    );
                    return;
                }
                if let RpMallocPath::DeferredAdopt { adopted } = o.path {
                    if adopted != shadow.len() as u64 {
                        report.fail(
                            seed,
                            step,
                            "deferred-linearization",
                            format!(
                                "adopted {adopted} blocks, shadow list held {}",
                                shadow.len()
                            ),
                        );
                        return;
                    }
                }
                // Adoption moves the whole deferred list to the local
                // free list in one shot.
                shadow.clear();
            } else if adopting && !shadow.is_empty() {
                // An adoption on this span must serve from the adopted
                // blocks first (local list was dry by definition) —
                // unless the span was reclaimed off the partial list,
                // whose local hits never touch the deferred list.
                if matches!(o.path, RpMallocPath::DeferredAdopt { .. }) {
                    report.fail(
                        seed,
                        step,
                        "deferred-linearization",
                        format!("adoption on {span:#x} served non-deferred {:#x}", o.ptr),
                    );
                    return;
                }
            }
            pool.push((t, o.ptr));
        } else {
            let i = rng.below(pool.len() as u64) as usize;
            let (owner, ptr) = pool.swap_remove(i);
            // Mostly foreign frees (grow the deferred lists), sometimes
            // the owner (exercise the local path interleaving).
            let t = if rng.below(10) < 7 {
                (owner + 1 + rng.below(threads as u64 - 1) as usize) % threads
            } else {
                owner
            };
            let f = a.free_on(t, ptr, rng.below(2) == 0);
            report.linearize_checks += 1;
            match f.path {
                RpFreePath::Deferred { depth } => {
                    let shadow = deferred
                        .entry(f.span.expect("small free has a span"))
                        .or_default();
                    shadow.push(ptr);
                    if depth != shadow.len() as u64 {
                        report.fail(
                            seed,
                            step,
                            "deferred-linearization",
                            format!("deferred depth {depth}, shadow holds {}", shadow.len()),
                        );
                        return;
                    }
                }
                RpFreePath::Local { .. } if t != owner => {
                    report.fail(
                        seed,
                        step,
                        "deferred-linearization",
                        format!("foreign free of {ptr:#x} took the local path"),
                    );
                    return;
                }
                _ => {}
            }
        }
    }
    // End-of-program ledger: the shadow lists must agree with the
    // model's own span views, block for block.
    for v in a.span_views() {
        report.linearize_checks += 1;
        let shadow = deferred.get(&v.base).map_or(0, Vec::len) as u64;
        if v.deferred_len != shadow {
            report.fail(
                seed,
                calls,
                "deferred-linearization",
                format!(
                    "span {:#x}: model holds {} deferred, shadow {}",
                    v.base, v.deferred_len, shadow
                ),
            );
            return;
        }
    }
}

/// Runs one substrate-conformance slot: one program per law family,
/// seeded purely from `(corpus seed, slot index)`.
pub fn substrate_fuzz_slot(corpus_seed: u64, slot: u64) -> SubstrateFuzzReport {
    let mut report = SubstrateFuzzReport::default();
    let base = SplitMix64::new(corpus_seed ^ slot.wrapping_mul(0x517C_C1B7_2722_0A95)).next_u64();
    span_ownership(base, &mut report);
    token_conservation(base, &mut report);
    deferred_linearization(base, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_corpus;

    #[test]
    fn a_thousand_slots_conform() {
        let report = run_corpus(1_000, 1, |slot| substrate_fuzz_slot(42, slot));
        assert_eq!(report.span_programs, 1_000);
        assert_eq!(report.token_programs, 1_000);
        assert_eq!(report.linearize_programs, 1_000);
        assert!(report.checks() > 100_000, "checks: {}", report.checks());
        assert!(
            report.divergences.is_empty(),
            "first: {:?}",
            report.divergences.first()
        );
    }

    #[test]
    fn slots_are_independent_of_visit_order() {
        let forward = run_corpus(16, 1, |slot| substrate_fuzz_slot(7, slot));
        let mut checks = 0;
        for slot in (0..16).rev() {
            checks += substrate_fuzz_slot(7, slot).checks();
        }
        assert_eq!(forward.checks(), checks);
    }

    #[test]
    fn every_law_family_actually_fires() {
        // The fuzzer is only as good as the regimes it reaches: across a
        // modest corpus, adoptions, deferred frees and mid-run censuses
        // must all have happened.
        let report = run_corpus(50, 1, |slot| substrate_fuzz_slot(42, slot));
        assert!(report.span_checks > 1_000, "span: {}", report.span_checks);
        assert!(report.token_checks > 200, "token: {}", report.token_checks);
        assert!(
            report.linearize_checks > 1_000,
            "linearize: {}",
            report.linearize_checks
        );
    }

    #[test]
    fn the_checker_sees_a_broken_ledger() {
        // Sanity that the divergence plumbing works: a shadow ledger fed
        // garbage must report, not mask.
        let mut report = SubstrateFuzzReport::default();
        let mut a = RpMalloc::new(2);
        let o = a.malloc(64);
        a.free_on(1, o.ptr, true);
        // Pretend the shadow never saw the deferred free.
        for v in a.span_views() {
            if v.deferred_len != 0 {
                report.fail(
                    0,
                    0,
                    "deferred-linearization",
                    "shadow mismatch".to_string(),
                );
            }
        }
        assert_eq!(report.divergences.len(), 1);
    }
}
