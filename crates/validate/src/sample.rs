//! Sampled-vs-full differential validation of the timing engine.
//!
//! Two harnesses, mirroring the crate's other sections:
//!
//! 1. **Sampled oracle kernels** ([`sampled_kernel_outcomes`]) — every
//!    Table-1 kernel is run twice, full detailed and under a sampling
//!    plan, and the sampled extrapolation must land inside the Table-1
//!    band around the *full run* (not the closed-form expectation: the
//!    question here is whether sampling distorts the engine, not whether
//!    the engine matches the analytic model — the kernel section already
//!    gates that).
//! 2. **Random-program differential fuzz** ([`sample_fuzz_slot`]) —
//!    seeded random µop programs replayed through a full engine and a
//!    sampled engine. Three checks per program: the functional
//!    architectural stream must be *identical* (retired-µop and
//!    branch/load/store counts — fast-forward executes everything, it
//!    only skips timing); a degenerate plan (everything detailed) must
//!    reproduce the full run's clock bit-for-bit; and a non-degenerate
//!    plan's extrapolated clock must land inside the
//!    [`mallacc_stats::tol::SAMPLED_DIFF_REL_TOL`] band or inside the
//!    run's own 95 % confidence interval. The CI escape hatch is the
//!    oracle-bounded-error discipline: a sampled run that misses the
//!    fixed band is still sound if its self-reported uncertainty covers
//!    the miss — what must never happen is a miss the run did not
//!    predict.
//!
//! Slots are pure functions of `(seed, index)`, so a parallel driver
//! partitions them freely without changing a byte of the report.

use mallacc_cache::Hierarchy;
use mallacc_ooo::{CoreConfig, CoreStats, Engine, SamplingPlan, Uop};
use mallacc_stats::{mean_ci95, tol};

use crate::oracle::{Band, KernelId};
use crate::program::{mix, SplitMix64};
use crate::{Divergence, SlotReport};

/// The sampled-vs-full verdict on one oracle kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledKernelOutcome {
    /// Which kernel.
    pub id: KernelId,
    /// Iterations simulated.
    pub n: u64,
    /// Full detailed commit cycle of the last µop.
    pub full: u64,
    /// Sampled (extrapolated) commit cycle of the last µop.
    pub sampled: u64,
    /// Signed relative error of sampled vs. full, in %.
    pub error_pct: f64,
    /// Whether sampled landed inside the Table-1 band around full.
    pub pass: bool,
}

/// Runs every Table-1 kernel full and sampled under `plan`, gating the
/// sampled clock against the full run with the shared Table-1 band.
pub fn sampled_kernel_outcomes(n: u64, plan: SamplingPlan) -> Vec<SampledKernelOutcome> {
    let band = Band::table1();
    KernelId::all()
        .into_iter()
        .map(|id| {
            let full = id.simulate(n);
            let sampled = id.simulate_with(n, Some(plan));
            SampledKernelOutcome {
                id,
                n,
                full,
                sampled,
                error_pct: 100.0 * (sampled as f64 - full as f64) / full as f64,
                pass: band.contains(full as f64, sampled as f64),
            }
        })
        .collect()
}

/// Aggregate report over a sampled-differential corpus (or one slot).
#[derive(Debug, Clone, Default)]
pub struct SampleFuzzReport {
    /// Differential programs run (each slot runs one random-plan and one
    /// degenerate-plan differential over its generated program).
    pub programs: u64,
    /// How many of those ran under a degenerate (everything-detailed)
    /// plan and were held to bit-exact equality.
    pub degenerate_programs: u64,
    /// Total µops pushed through the *sampled* engines.
    pub uops: u64,
    /// Sum of |error| in % over non-degenerate programs (for the mean).
    pub abs_error_pct_sum: f64,
    /// Largest |error| in % seen on a non-degenerate program.
    pub max_abs_error_pct: f64,
    /// Violations found. Each is a whole-program check, so it has no
    /// step; its check is `"functional-identity"`, `"timing-band"` or
    /// `"degenerate-exact"`.
    pub divergences: Vec<Divergence>,
}

impl SampleFuzzReport {
    /// Mean |error| over non-degenerate programs, in %.
    pub fn mean_abs_error_pct(&self) -> f64 {
        let n = self.programs - self.degenerate_programs;
        if n == 0 {
            0.0
        } else {
            self.abs_error_pct_sum / n as f64
        }
    }

    /// Records one violation.
    fn fail(&mut self, seed: u64, check: &str, detail: String) {
        self.divergences.push(Divergence {
            seed,
            step: None,
            check: check.to_string(),
            detail,
        });
    }
}

impl SlotReport for SampleFuzzReport {
    fn merge(&mut self, other: SampleFuzzReport) {
        self.programs += other.programs;
        self.degenerate_programs += other.degenerate_programs;
        self.uops += other.uops;
        self.abs_error_pct_sum += other.abs_error_pct_sum;
        self.max_abs_error_pct = self.max_abs_error_pct.max(other.max_abs_error_pct);
        self.divergences.extend(other.divergences);
    }
}

/// A generated µop with everything needed to rebuild it in an engine.
#[derive(Debug, Clone, Copy)]
enum GenUop {
    Alu { latency: u32 },
    Load { addr: u64 },
    Store { addr: u64 },
    Prefetch { addr: u64 },
    Branch { mispredicted: bool },
}

/// Draws a random but statistically stationary µop program: a hot pool of
/// lines plus a cold tail, ALU-dominated with a realistic memory/branch
/// mix. Stationarity matters — it is the precondition the sampling
/// extrapolation needs, the same one SMARTS assumes of real programs.
fn draw_program(rng: &mut SplitMix64, n_uops: usize) -> Vec<GenUop> {
    let hot_lines = 48 + rng.below(64); // working set around the L1 size
    let mut out = Vec::with_capacity(n_uops);
    for _ in 0..n_uops {
        let addr = if rng.below(10) < 8 {
            rng.below(hot_lines) * 64
        } else {
            (1 << 20) + rng.below(1 << 14) * 64
        };
        out.push(match rng.below(100) {
            0..=44 => GenUop::Alu {
                latency: 1 + (rng.below(3) as u32),
            },
            45..=69 => GenUop::Load { addr },
            70..=84 => GenUop::Store { addr },
            85..=89 => GenUop::Prefetch { addr },
            _ => GenUop::Branch {
                mispredicted: rng.below(10) == 0,
            },
        });
    }
    out
}

/// Draws a sampling cadence sized for a program of `n_uops`: warmups of
/// 96–256 µops (the post-fast-forward pipeline transient outlasts
/// shorter warmups — the same floor the default macro plan respects),
/// windows of 96–256, a fast-forward gap of 1–3 window-lengths, and an
/// occasional zero startup interval. The period is capped at a sixth of
/// the program so every run closes enough windows for its confidence
/// interval to mean something; when the cap bites below one
/// warmup+window the plan simply degenerates to all-detailed, which the
/// exactness check covers.
fn draw_plan(rng: &mut SplitMix64, n_uops: usize) -> SamplingPlan {
    let warmup = 96 + rng.below(161);
    let detailed = 96 + rng.below(161);
    let period =
        ((warmup + detailed) * (2 + rng.below(3))).min((n_uops as u64 / 6).max(warmup + detailed));
    let plan = SamplingPlan::new(warmup, detailed, period).expect("non-empty by construction");
    if rng.below(3) == 0 {
        plan.with_startup(0)
    } else {
        plan
    }
}

/// Replays a program on a fresh engine under an optional plan, returning
/// the final extrapolated clock, the functional stats, and (when sampled)
/// the relative 95 % CI half-width of the run's own CPI estimate.
fn run_program(prog: &[GenUop], plan: Option<SamplingPlan>) -> (u64, CoreStats, Option<f64>) {
    let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
    cpu.set_sampling(plan);
    let mut prev = cpu.alloc_reg();
    let mut last = 0;
    for g in prog {
        let d = cpu.alloc_reg();
        let uop = match *g {
            GenUop::Alu { latency } => Uop::alu(latency, Some(d), &[prev]),
            GenUop::Load { addr } => Uop::load(addr, d, &[prev]),
            GenUop::Store { addr } => Uop::store(addr, &[prev]),
            GenUop::Prefetch { addr } => Uop::prefetch(addr, &[prev]),
            GenUop::Branch { mispredicted } => Uop::branch(mispredicted, &[prev]),
        };
        if uop.dst.is_some() {
            prev = d;
        }
        last = cpu.push(uop).commit;
    }
    let ci_rel = cpu.sampling_report().map(|r| {
        let ci = mean_ci95(&r.window_cpis());
        if ci.mean > 0.0 {
            ci.half_width / ci.mean
        } else {
            0.0
        }
    });
    (last, cpu.stats(), ci_rel)
}

/// Runs slot `index` of the sampled-differential corpus: one generated
/// program, replayed full, under a random non-degenerate plan, and under
/// a degenerate (everything-detailed) plan. Fully determined by
/// `(seed, index)`.
pub fn sample_fuzz_slot(seed: u64, index: u64) -> SampleFuzzReport {
    let slot_seed = mix(seed, index).wrapping_add(0x5A3D);
    let mut rng = SplitMix64::new(slot_seed);
    let n_uops = 4_000 + rng.below(4_000) as usize;
    let prog = draw_program(&mut rng, n_uops);
    let plan = draw_plan(&mut rng, n_uops);
    let mut report = SampleFuzzReport::default();

    let (full_clock, full_stats, _) = run_program(&prog, None);

    // Non-degenerate plan: functional identity, banded timing.
    let (sampled_clock, sampled_stats, ci_rel) = run_program(&prog, Some(plan));
    report.programs += 1;
    report.uops += n_uops as u64;
    if sampled_stats != full_stats {
        report.fail(
            slot_seed,
            "functional-identity",
            format!(
                "plan {}: full {full_stats:?} vs sampled {sampled_stats:?}",
                plan.canonical_string()
            ),
        );
    }
    let error_pct = 100.0 * (sampled_clock as f64 - full_clock as f64) / full_clock as f64;
    report.abs_error_pct_sum += error_pct.abs();
    report.max_abs_error_pct = report.max_abs_error_pct.max(error_pct.abs());
    let in_band = tol::within_band(
        full_clock as f64,
        sampled_clock as f64,
        tol::SAMPLED_DIFF_REL_TOL,
        tol::SAMPLED_DIFF_ABS_TOL_CYCLES,
    );
    let within_ci = ci_rel.is_some_and(|rel| error_pct.abs() <= 100.0 * rel);
    if !in_band && !within_ci {
        report.fail(
            slot_seed,
            "timing-band",
            format!(
                "plan {}: full {full_clock} vs sampled {sampled_clock} ({error_pct:+.2}%), \
                 outside band and own ci95 ({:.2}%)",
                plan.canonical_string(),
                100.0 * ci_rel.unwrap_or(0.0)
            ),
        );
    }

    // Degenerate plan: every µop detailed — must be the full run, exactly.
    let degenerate = SamplingPlan::new(plan.warmup_uops, plan.period, plan.period)
        .expect("window fills the period");
    let (degen_clock, degen_stats, _) = run_program(&prog, Some(degenerate));
    report.programs += 1;
    report.degenerate_programs += 1;
    report.uops += n_uops as u64;
    if degen_clock != full_clock || degen_stats != full_stats {
        report.fail(
            slot_seed,
            "degenerate-exact",
            format!(
                "plan {}: full clock {full_clock} vs degenerate {degen_clock}",
                degenerate.canonical_string()
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_corpus;

    #[test]
    fn oracle_kernels_survive_sampling() {
        let plan = SamplingPlan::new(64, 256, 2_048).expect("valid plan");
        for o in sampled_kernel_outcomes(20_000, plan) {
            assert!(
                o.pass,
                "{}: full {} vs sampled {} ({:+.2}%)",
                o.id.name(),
                o.full,
                o.sampled,
                o.error_pct
            );
        }
    }

    #[test]
    fn degenerate_plan_is_the_identity_on_every_kernel() {
        // Window fills the period: no µop is ever fast-forwarded, so the
        // sampled clock must equal the full clock exactly.
        let plan = SamplingPlan::new(0, 512, 512).expect("valid plan");
        for id in KernelId::all() {
            assert_eq!(
                id.simulate(4_000),
                id.simulate_with(4_000, Some(plan)),
                "{} drifted under a degenerate plan",
                id.name()
            );
        }
    }

    #[test]
    fn small_corpus_has_no_violations() {
        let report = run_corpus(60, 1, |i| sample_fuzz_slot(0x5A3D, i));
        assert!(
            report.divergences.is_empty(),
            "sampled engine diverged: {:?}",
            report.divergences[0]
        );
        assert_eq!(report.programs, 120);
        assert_eq!(report.degenerate_programs, 60);
        // Aggressive cadences on ~3k-µop programs: the mean error sits
        // well inside the band even though individual tails (rescued by
        // their own CI) reach past it.
        assert!(
            report.mean_abs_error_pct() < 100.0 * tol::SAMPLED_DIFF_REL_TOL,
            "mean error {:.2}% unexpectedly large",
            report.mean_abs_error_pct()
        );
    }

    #[test]
    fn slots_are_independent_of_visitation_order() {
        let forward: Vec<_> = (0..10).map(|i| sample_fuzz_slot(7, i)).collect();
        let mut backward: Vec<_> = (0..10).rev().map(|i| sample_fuzz_slot(7, i)).collect();
        backward.reverse();
        for (f, b) in forward.iter().zip(&backward) {
            assert_eq!(f.uops, b.uops);
            assert_eq!(f.divergences, b.divergences);
            assert!((f.abs_error_pct_sum - b.abs_error_pct_sum).abs() < 1e-12);
        }
    }
}
