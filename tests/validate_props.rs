//! Property suite over the validation subsystem itself: the differential
//! fuzz at acceptance scale (ten thousand seeded programs against the
//! executable reference spec, zero divergences), the metamorphic laws,
//! and the oracle's sensitivity to injected timing shifts.

use proptest::prelude::*;

use mallacc_validate::laws::{check_law, LawId};
use mallacc_validate::oracle::{run_kernel, Band, KernelId};
use mallacc_validate::program::{diff_program, fuzz_slot, McProgram};
use mallacc_validate::run_corpus;

/// Differential-fuzz volume for the acceptance criterion below. Each of
/// the 2_500 proptest cases derives four program seeds, so a full run
/// replays at least 10_000 distinct programs (plus every guided mutant
/// the corpus driver appends elsewhere).
const CASES: u32 = 2_500;
const PROGRAMS_PER_CASE: u64 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The model and the naive reference interpreter agree on every
    /// result and every piece of observable state, for every generated
    /// instruction program.
    #[test]
    fn model_conforms_to_the_reference_spec(seed in any::<u64>()) {
        for i in 0..PROGRAMS_PER_CASE {
            let s = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let p = McProgram::generate(s);
            let out = diff_program(s, &p);
            prop_assert!(
                out.divergence.is_none(),
                "model diverged from spec: {:?}",
                out.divergence
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// More cache entries never lose lookup or pop hits on canonical,
    /// prefetch-free traces.
    #[test]
    fn entries_monotone_law_holds(seed in any::<u64>()) {
        let (_, v) = check_law(LawId::EntriesMonotone, seed);
        prop_assert!(v.is_none(), "{v:?}");
    }

    /// Removing every prefetch from a trace never improves the cache.
    #[test]
    fn prefetch_removal_law_holds(seed in any::<u64>()) {
        let (_, v) = check_law(LawId::PrefetchRemoval, seed);
        prop_assert!(v.is_none(), "{v:?}");
    }

    /// Adjacent same-cycle ops on different classes commute on
    /// eviction-free traces.
    #[test]
    fn independent_reorder_law_holds(seed in any::<u64>()) {
        let (_, v) = check_law(LawId::IndependentReorder, seed);
        prop_assert!(v.is_none(), "{v:?}");
    }

    /// Every oracle kernel stays inside its tolerance band at arbitrary
    /// scales, not just the two scales the unit tests pin.
    #[test]
    fn oracle_kernels_stay_in_band_at_arbitrary_scale(
        n in 500u64..6_000,
        kernel in 0usize..9,
    ) {
        let id = KernelId::all()[kernel];
        let o = run_kernel(id, n);
        prop_assert!(
            o.pass,
            "{} out of band at n={n}: expected {:.0}, simulated {} ({:+.2}%)",
            id.name(), o.expected, o.simulated, o.error_pct
        );
    }

    /// The band rejects a systematic one-cycle-per-op shift for every
    /// fast-path kernel at validation scale — the sensitivity that makes
    /// the oracle worth running (an injected commit-path bug costs
    /// exactly one cycle per µop). Kernels dominated by triple-digit miss
    /// penalties are excluded: there a single cycle per op sits below the
    /// 2% modeling-noise band by design, and the width-bound kernels are
    /// the ones that pin the commit path anyway.
    #[test]
    fn band_rejects_one_cycle_per_op_shifts(kernel in 0usize..9, up in any::<bool>()) {
        let id = KernelId::all()[kernel];
        let o = run_kernel(id, 2_000);
        let per_op = o.expected / o.n as f64;
        if per_op >= 1.0 / Band::table1().rel {
            return Ok(()); // one cycle per op is inside the noise band
        }
        let shift = if up { o.n as f64 } else { -(o.n as f64) };
        prop_assert!(
            !Band::table1().contains(o.expected, o.simulated as f64 + shift),
            "{}: a {:+.0}-cycle shift stayed in band",
            id.name(),
            shift
        );
    }
}

/// The corpus driver at a few hundred slots: zero divergences and full
/// coverage of every architectural event, merged deterministically.
#[test]
fn fuzz_corpus_converges_with_full_coverage() {
    let report = run_corpus(400, 1, |i| fuzz_slot(0xC0FFEE, i));
    assert!(
        report.divergences.is_empty(),
        "divergence: {:?}",
        report.divergences[0]
    );
    assert!(
        report.coverage.complete(),
        "missing events: {:?}",
        report.coverage.missing()
    );
    assert!(report.programs() >= 400);
}
