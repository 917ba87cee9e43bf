//! The `repro validate` subcommand: simulator validation and conformance,
//! driven by `mallacc-validate`. Flags: [`COMMAND`].
//!
//! Six independent sections, any of which can fail the run (exit 1):
//!
//! 1. **Analytic latency oracle** — every Table-1 kernel's simulated
//!    latency must land inside the declared tolerance band around its
//!    closed-form expectation.
//! 2. **Reference-spec conformance** — seeded coverage-guided instruction
//!    programs replayed differentially through `mallacc::MallocCache` and
//!    the naive reference interpreter must never diverge. `--full`
//!    additionally requires every coverage event to be exercised.
//! 3. **Metamorphic laws** — entries-monotone, prefetch-removal and
//!    independent-reorder must hold on every generated trace.
//! 4. **Offload-core conformance** — the helper-queue timing model fuzzed
//!    differentially against its reference interpreter, with queue
//!    conservation laws and heap identity of the offload driver modes.
//! 5. **Sampled-execution differential** — every oracle kernel re-run
//!    under a sampling plan must land inside the Table-1 band around its
//!    full run, and random µop programs replayed full-vs-sampled must
//!    keep functional identity, degenerate-plan exactness, and
//!    oracle-bounded timing error (fixed band or the run's own CI).
//! 6. **Substrate conformance** — executable allocator laws fuzzed over
//!    the rpmalloc-style and per-CPU substrate models: span ownership,
//!    per-CPU cache token conservation (`slabs + central + live ==
//!    carved`), and deferred-free linearization of the cross-thread
//!    free protocol.
//!
//! Work is partitioned into slots whose results depend only on `(seed,
//! slot index)`, so the report is byte-identical for every `--jobs` value.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, Command, Flag};
use mallacc_ooo::SamplingPlan;
use mallacc_stats::table::Table;
use mallacc_stats::Json;
use mallacc_validate::program::fuzz_slot;
use mallacc_validate::{
    laws, offload_fuzz_slot, oracle, sample, sample_fuzz_slot, substrate_fuzz_slot, Band,
    CoverageEvent, FuzzReport, KernelOutcome, LawReport, OffloadFuzzReport, SampleFuzzReport,
    SubstrateFuzzReport,
};

/// Command line of `repro validate`.
pub const COMMAND: Command = Command {
    name: "validate",
    head: "repro validate",
    flags: &[
        Flag::switch("--smoke"),
        Flag::switch("--full"),
        Flag::value("--kernel-n", "N"),
        Flag::value("--fuzz", "N"),
        Flag::value("--laws", "N"),
        Flag::value("--offload-fuzz", "N"),
        Flag::value("--sample-fuzz", "N"),
        Flag::value("--substrate-fuzz", "N"),
        Flag::value("--seed", "N"),
        Flag::value("--jobs", "N"),
        Flag::value("--json", "PATH"),
    ],
};

/// Parsed `repro validate` arguments.
#[derive(Debug, Clone)]
pub struct ValidateArgs {
    /// Iterations per oracle kernel.
    pub kernel_n: u64,
    /// Differential-fuzz slots (each runs one base program plus guided
    /// mutants).
    pub fuzz_slots: u64,
    /// Seeded traces per metamorphic law.
    pub law_cases: u64,
    /// Offload-conformance slots (each runs two queue differentials and
    /// one heap-identity program).
    pub offload_slots: u64,
    /// Sampled-differential slots (each runs one random µop program
    /// full, under a random plan, and under a degenerate plan).
    pub sample_slots: u64,
    /// Substrate-conformance slots (each runs one program per law
    /// family: span ownership, token conservation, linearization).
    pub substrate_slots: u64,
    /// Corpus seed.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential).
    pub jobs: usize,
    /// Fail unless the fuzz corpus exercises every coverage event.
    pub require_full_coverage: bool,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl Default for ValidateArgs {
    fn default() -> Self {
        // The defaults are the smoke scale: fast enough for CI on every
        // push, deep enough to exercise every coverage event.
        Self {
            kernel_n: 2_000,
            fuzz_slots: 400,
            law_cases: 60,
            offload_slots: 200,
            sample_slots: 120,
            substrate_slots: 300,
            seed: 42,
            jobs: 1,
            require_full_coverage: false,
            json: None,
        }
    }
}

impl ValidateArgs {
    /// The full sweep: every scale raised, and every coverage event
    /// required.
    pub fn full() -> Self {
        Self {
            kernel_n: 20_000,
            fuzz_slots: 10_000,
            law_cases: 1_000,
            offload_slots: 4_000,
            sample_slots: 600,
            substrate_slots: 10_000,
            require_full_coverage: true,
            ..Self::default()
        }
    }

    /// Parses the argument list after `validate`: the `--smoke` or
    /// `--full` scale, whichever came last, then the explicit values.
    pub fn parse(args: &[String]) -> Result<ValidateArgs, String> {
        let p = COMMAND.parse(args)?;
        let mut a = match p.last_of(&["--smoke", "--full"]) {
            Some("--full") => ValidateArgs::full(),
            _ => ValidateArgs::default(),
        };
        p.set("--kernel-n", &mut a.kernel_n, cli::int)?;
        p.set("--fuzz", &mut a.fuzz_slots, cli::int)?;
        p.set("--laws", &mut a.law_cases, cli::int)?;
        p.set("--offload-fuzz", &mut a.offload_slots, cli::int)?;
        p.set("--sample-fuzz", &mut a.sample_slots, cli::int)?;
        p.set("--substrate-fuzz", &mut a.substrate_slots, cli::int)?;
        p.set("--seed", &mut a.seed, cli::int)?;
        p.set("--jobs", &mut a.jobs, cli::int)?;
        a.json = p.get("--json", cli::path)?;
        if a.kernel_n == 0 {
            return Err("--kernel-n must be at least 1".to_string());
        }
        if a.fuzz_slots == 0
            || a.offload_slots == 0
            || a.sample_slots == 0
            || a.substrate_slots == 0
        {
            return Err(
                "--fuzz, --offload-fuzz, --sample-fuzz and --substrate-fuzz must be at least 1"
                    .to_string(),
            );
        }
        Ok(a)
    }
}

fn kernel_section(args: &ValidateArgs) -> (String, Json, bool, Vec<KernelOutcome>) {
    let ids = oracle::KernelId::all();
    let outcomes: Vec<KernelOutcome> = run_indexed(ids.len() as u64, args.jobs, |i| {
        oracle::run_kernel(ids[i as usize], args.kernel_n)
    });
    let band = Band::table1();
    let mut t = Table::new(&[
        "kernel",
        "bound by",
        "expected",
        "simulated",
        "error",
        "verdict",
    ]);
    let mut json_rows = Vec::new();
    let mut mean_abs_err = 0.0;
    for o in &outcomes {
        t.row_owned(vec![
            o.id.name().to_string(),
            o.id.bound_by().to_string(),
            format!("{:.1}", o.expected),
            o.simulated.to_string(),
            format!("{:+.2}%", o.error_pct),
            if o.pass { "ok" } else { "OUT OF BAND" }.to_string(),
        ]);
        mean_abs_err += o.error_pct.abs() / outcomes.len() as f64;
        json_rows.push(Json::obj([
            ("kernel", Json::from(o.id.name())),
            ("bound_by", Json::from(o.id.bound_by())),
            ("n", Json::from(o.n)),
            ("expected", Json::from(o.expected)),
            ("simulated", Json::from(o.simulated)),
            ("error_pct", Json::from(o.error_pct)),
            ("pass", Json::from(o.pass)),
        ]));
    }
    let pass = outcomes.iter().all(|o| o.pass);
    let text = format!(
        "== analytic latency oracle (band: \u{b1}{:.1}% + {:.0} cyc) ==\n{}mean kernel error: {mean_abs_err:.2}%\n",
        100.0 * band.rel,
        band.abs,
        t.render(),
    );
    let json = Json::obj([
        ("band_rel", Json::from(band.rel)),
        ("band_abs_cycles", Json::from(band.abs)),
        ("mean_abs_error_pct", Json::from(mean_abs_err)),
        ("kernels", Json::Arr(json_rows)),
        ("pass", Json::from(pass)),
    ]);
    (text, json, pass, outcomes)
}

fn fuzz_section(args: &ValidateArgs) -> (String, Json, bool, FuzzReport) {
    let mut report = FuzzReport::default();
    for slot in run_indexed(args.fuzz_slots, args.jobs, |i| fuzz_slot(args.seed, i)) {
        report.merge(slot);
    }
    let missing = report.coverage.missing();
    let coverage_ok = !args.require_full_coverage || missing.is_empty();
    let pass = report.divergences.is_empty() && coverage_ok;
    let mut text = format!(
        "== reference-spec conformance (differential fuzz) ==\nprograms: {} ({} base + {} guided), instructions: {}\ncoverage: {}/{} events{}\ndivergences: {}\n",
        report.programs(),
        report.base_programs,
        report.guided_programs,
        report.ops,
        report.coverage.count(),
        CoverageEvent::ALL.len(),
        if missing.is_empty() {
            String::new()
        } else {
            format!(
                " (missing: {})",
                missing
                    .iter()
                    .map(|e| e.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        },
        report.divergences.len(),
    );
    for d in report.divergences.iter().take(5) {
        text.push_str(&format!(
            "  seed {:#x} step {} ({}): {}\n",
            d.seed, d.step, d.op, d.detail
        ));
    }
    let json = Json::obj([
        ("programs", Json::from(report.programs())),
        ("base_programs", Json::from(report.base_programs)),
        ("guided_programs", Json::from(report.guided_programs)),
        ("instructions", Json::from(report.ops)),
        (
            "coverage",
            Json::obj([
                ("events", Json::from(report.coverage.count())),
                ("total", Json::from(CoverageEvent::ALL.len())),
                (
                    "missing",
                    Json::Arr(missing.iter().map(|e| Json::from(e.name())).collect()),
                ),
            ]),
        ),
        (
            "divergences",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("seed", Json::from(d.seed)),
                            ("step", Json::from(d.step)),
                            ("op", Json::from(d.op.clone())),
                            ("detail", Json::from(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pass", Json::from(pass)),
    ]);
    (text, json, pass, report)
}

fn law_section(args: &ValidateArgs) -> (String, Json, bool, LawReport) {
    let total = laws::total_slots(args.law_cases);
    let mut report = LawReport::default();
    for slot in run_indexed(total, args.jobs, |i| {
        laws::check_slot(args.seed, args.law_cases, i)
    }) {
        report.merge(slot);
    }
    let pass = report.violations.is_empty();
    let mut text = format!(
        "== metamorphic laws ==\ncases: {} ({}/law), comparisons: {}\nviolations: {}\n",
        report.cases,
        args.law_cases,
        report.comparisons,
        report.violations.len(),
    );
    for v in report.violations.iter().take(5) {
        text.push_str(&format!(
            "  {} seed {:#x}: {}\n",
            v.law.name(),
            v.seed,
            v.detail
        ));
    }
    let json = Json::obj([
        ("cases", Json::from(report.cases)),
        ("cases_per_law", Json::from(args.law_cases)),
        ("comparisons", Json::from(report.comparisons)),
        (
            "violations",
            Json::Arr(
                report
                    .violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("law", Json::from(v.law.name())),
                            ("seed", Json::from(v.seed)),
                            ("detail", Json::from(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pass", Json::from(pass)),
    ]);
    (text, json, pass, report)
}

fn offload_section(args: &ValidateArgs) -> (String, Json, bool, OffloadFuzzReport) {
    let mut report = OffloadFuzzReport::default();
    for slot in run_indexed(args.offload_slots, args.jobs, |i| {
        offload_fuzz_slot(args.seed, i)
    }) {
        report.merge(slot);
    }
    let pass = report.divergences.is_empty();
    let mut text = format!(
        "== offload-core conformance (queue differential + heap identity) ==\nqueue programs: {} ({} requests), heap programs: {} ({} calls)\ndivergences: {}\n",
        report.queue_programs,
        report.requests,
        report.heap_programs,
        report.heap_calls,
        report.divergences.len(),
    );
    for d in report.divergences.iter().take(5) {
        text.push_str(&format!(
            "  seed {:#x} step {} ({}): {}\n",
            d.seed, d.step, d.check, d.detail
        ));
    }
    let json = Json::obj([
        ("queue_programs", Json::from(report.queue_programs)),
        ("requests", Json::from(report.requests)),
        ("heap_programs", Json::from(report.heap_programs)),
        ("heap_calls", Json::from(report.heap_calls)),
        (
            "divergences",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("seed", Json::from(d.seed)),
                            ("step", Json::from(d.step)),
                            ("check", Json::from(d.check)),
                            ("detail", Json::from(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pass", Json::from(pass)),
    ]);
    (text, json, pass, report)
}

/// The cadence the sampled-differential section re-runs the oracle
/// kernels under: aggressive enough (12.5 % detailed, short windows)
/// that a sampling-induced distortion of steady-state timing cannot
/// hide, while still closing plenty of windows at the smoke scale. The
/// startup interval is shortened below the default one-period so the
/// cadence engages even at `--kernel-n 2000`.
fn sampled_kernel_plan() -> SamplingPlan {
    SamplingPlan::new(64, 192, 2_048)
        .expect("static plan is valid")
        .with_startup(256)
}

fn sample_section(args: &ValidateArgs) -> (String, Json, bool, SampleFuzzReport) {
    // Kernel half: full vs. sampled on every Table-1 kernel.
    let plan = sampled_kernel_plan();
    let outcomes = sample::sampled_kernel_outcomes(args.kernel_n, plan);
    let band = Band::table1();
    let mut t = Table::new(&["kernel", "full", "sampled", "error", "verdict"]);
    let mut kernel_rows = Vec::new();
    for o in &outcomes {
        t.row_owned(vec![
            o.id.name().to_string(),
            o.full.to_string(),
            o.sampled.to_string(),
            format!("{:+.2}%", o.error_pct),
            if o.pass { "ok" } else { "OUT OF BAND" }.to_string(),
        ]);
        kernel_rows.push(Json::obj([
            ("kernel", Json::from(o.id.name())),
            ("full", Json::from(o.full)),
            ("sampled", Json::from(o.sampled)),
            ("error_pct", Json::from(o.error_pct)),
            ("pass", Json::from(o.pass)),
        ]));
    }
    let kernels_pass = outcomes.iter().all(|o| o.pass);

    // Fuzz half: random µop programs, full vs. sampled vs. degenerate.
    let mut report = SampleFuzzReport::default();
    for slot in run_indexed(args.sample_slots, args.jobs, |i| {
        sample_fuzz_slot(args.seed, i)
    }) {
        report.merge(slot);
    }
    let fuzz_pass = report.divergences.is_empty();
    let pass = kernels_pass && fuzz_pass;
    let mut text = format!(
        "== sampled-execution differential (plan {}, band: \u{b1}{:.1}% + {:.0} cyc, or own ci95) ==\n{}programs: {} ({} degenerate), \u{b5}ops: {}, mean |error|: {:.2}%, max: {:.2}%\nviolations: {}\n",
        plan.canonical_string(),
        100.0 * band.rel,
        band.abs,
        t.render(),
        report.programs,
        report.degenerate_programs,
        report.uops,
        report.mean_abs_error_pct(),
        report.max_abs_error_pct,
        report.divergences.len(),
    );
    for d in report.divergences.iter().take(5) {
        text.push_str(&format!(
            "  seed {:#x} ({}): {}\n",
            d.seed, d.check, d.detail
        ));
    }
    let json = Json::obj([
        ("plan", Json::from(plan.canonical_string())),
        ("kernels", Json::Arr(kernel_rows)),
        ("programs", Json::from(report.programs)),
        (
            "degenerate_programs",
            Json::from(report.degenerate_programs),
        ),
        ("uops", Json::from(report.uops)),
        (
            "mean_abs_error_pct",
            Json::from(report.mean_abs_error_pct()),
        ),
        ("max_abs_error_pct", Json::from(report.max_abs_error_pct)),
        (
            "violations",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("seed", Json::from(d.seed)),
                            ("check", Json::from(d.check)),
                            ("detail", Json::from(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pass", Json::from(pass)),
    ]);
    (text, json, pass, report)
}

fn substrate_section(args: &ValidateArgs) -> (String, Json, bool, SubstrateFuzzReport) {
    let mut report = SubstrateFuzzReport::default();
    for slot in run_indexed(args.substrate_slots, args.jobs, |i| {
        substrate_fuzz_slot(args.seed, i)
    }) {
        report.merge(slot);
    }
    let pass = report.divergences.is_empty();
    let rows = [
        ("span-ownership", report.span_programs, report.span_checks),
        (
            "token-conservation",
            report.token_programs,
            report.token_checks,
        ),
        (
            "deferred-linearization",
            report.linearize_programs,
            report.linearize_checks,
        ),
    ];
    let mut t = Table::new(&["law", "programs", "checks", "violations", "verdict"]);
    let mut json_rows = Vec::new();
    for (law, programs, checks) in rows {
        let violations = report.divergences.iter().filter(|d| d.check == law).count() as u64;
        t.row_owned(vec![
            law.to_string(),
            programs.to_string(),
            checks.to_string(),
            violations.to_string(),
            if violations == 0 { "ok" } else { "VIOLATED" }.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("law", Json::from(law)),
            ("programs", Json::from(programs)),
            ("checks", Json::from(checks)),
            ("violations", Json::from(violations)),
        ]));
    }
    let mut text = format!(
        "== substrate conformance (allocator laws) ==\n{}programs: {}, checks: {}\nviolations: {}\n",
        t.render(),
        report.programs(),
        report.checks(),
        report.divergences.len(),
    );
    for d in report.divergences.iter().take(5) {
        text.push_str(&format!(
            "  seed {:#x} step {} ({}): {}\n",
            d.seed, d.step, d.check, d.detail
        ));
    }
    let json = Json::obj([
        ("laws", Json::Arr(json_rows)),
        ("programs", Json::from(report.programs())),
        ("checks", Json::from(report.checks())),
        (
            "violations",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("seed", Json::from(d.seed)),
                            ("step", Json::from(d.step)),
                            ("check", Json::from(d.check)),
                            ("detail", Json::from(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pass", Json::from(pass)),
    ]);
    (text, json, pass, report)
}

/// Runs `repro validate` and returns `(exit code, report text)`.
pub fn validate_report(args: &ValidateArgs) -> (i32, String) {
    let mut out = format!(
        "repro validate: kernels n={}, fuzz slots={}, law cases={}/law, offload slots={}, sample slots={}, substrate slots={}, seed {}\n\n",
        args.kernel_n, args.fuzz_slots, args.law_cases, args.offload_slots, args.sample_slots,
        args.substrate_slots, args.seed
    );
    let (kernel_text, kernel_json, kernels_pass, _) = kernel_section(args);
    let (fuzz_text, fuzz_json, fuzz_pass, _) = fuzz_section(args);
    let (law_text, law_json, laws_pass, _) = law_section(args);
    let (offload_text, offload_json, offload_pass, _) = offload_section(args);
    let (sample_text, sample_json, sample_pass, _) = sample_section(args);
    let (substrate_text, substrate_json, substrate_pass, _) = substrate_section(args);
    out.push_str(&kernel_text);
    out.push('\n');
    out.push_str(&fuzz_text);
    out.push('\n');
    out.push_str(&law_text);
    out.push('\n');
    out.push_str(&offload_text);
    out.push('\n');
    out.push_str(&sample_text);
    out.push('\n');
    out.push_str(&substrate_text);
    let pass =
        kernels_pass && fuzz_pass && laws_pass && offload_pass && sample_pass && substrate_pass;
    out.push_str(&format!(
        "\nverdict: {}\n",
        if pass { "PASS" } else { "FAIL" }
    ));

    cli::finish("validate", out, pass, args.json.as_deref(), || {
        Json::obj([
            ("schema", Json::from("mallacc-validate/1")),
            (
                "scale",
                Json::obj([
                    ("kernel_n", Json::from(args.kernel_n)),
                    ("fuzz_slots", Json::from(args.fuzz_slots)),
                    ("law_cases", Json::from(args.law_cases)),
                    ("offload_slots", Json::from(args.offload_slots)),
                    ("sample_slots", Json::from(args.sample_slots)),
                    ("substrate_slots", Json::from(args.substrate_slots)),
                    ("seed", Json::from(args.seed)),
                    (
                        "require_full_coverage",
                        Json::from(args.require_full_coverage),
                    ),
                ]),
            ),
            ("oracle", kernel_json),
            ("conformance", fuzz_json),
            ("laws", law_json),
            ("offload", offload_json),
            ("sampled", sample_json),
            ("substrate", substrate_json),
            ("pass", Json::from(pass)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> ValidateArgs {
        ValidateArgs {
            kernel_n: 400,
            fuzz_slots: 40,
            law_cases: 8,
            offload_slots: 16,
            sample_slots: 12,
            substrate_slots: 16,
            ..ValidateArgs::default()
        }
    }

    #[test]
    fn parse_scales_and_rejections() {
        let a = ValidateArgs::parse(&s(&["--smoke"])).unwrap();
        assert_eq!((a.kernel_n, a.fuzz_slots, a.law_cases), (2_000, 400, 60));
        assert_eq!((a.offload_slots, a.substrate_slots), (200, 300));
        assert!(!a.require_full_coverage);
        let f = ValidateArgs::parse(&s(&["--full", "--jobs", "4"])).unwrap();
        assert_eq!(
            (f.kernel_n, f.fuzz_slots, f.law_cases),
            (20_000, 10_000, 1_000)
        );
        assert_eq!((f.offload_slots, f.substrate_slots), (4_000, 10_000));
        assert!(f.require_full_coverage);
        assert_eq!(f.jobs, 4);
        let o = ValidateArgs::parse(&s(&["--fuzz", "7", "--offload-fuzz", "11", "--seed", "9"]))
            .unwrap();
        assert_eq!((o.fuzz_slots, o.offload_slots, o.seed), (7, 11, 9));
        assert!(ValidateArgs::parse(&s(&["--nope"])).is_err());
        assert!(ValidateArgs::parse(&s(&["--fuzz", "0"])).is_err());
        assert!(ValidateArgs::parse(&s(&["--offload-fuzz", "0"])).is_err());
        assert!(ValidateArgs::parse(&s(&["--sample-fuzz", "0"])).is_err());
        assert!(ValidateArgs::parse(&s(&["--substrate-fuzz", "0"])).is_err());
        assert!(ValidateArgs::parse(&s(&["--kernel-n"])).is_err());
        let sf =
            ValidateArgs::parse(&s(&["--sample-fuzz", "33", "--substrate-fuzz", "21"])).unwrap();
        assert_eq!((sf.sample_slots, sf.substrate_slots), (33, 21));
    }

    #[test]
    fn smoke_passes_and_report_names_all_sections() {
        let (code, text) = validate_report(&tiny());
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("analytic latency oracle"), "{text}");
        assert!(text.contains("reference-spec conformance"), "{text}");
        assert!(text.contains("metamorphic laws"), "{text}");
        assert!(text.contains("offload-core conformance"), "{text}");
        assert!(text.contains("sampled-execution differential"), "{text}");
        assert!(text.contains("substrate conformance"), "{text}");
        assert!(text.contains("deferred-linearization"), "{text}");
        assert!(text.contains("verdict: PASS"), "{text}");
        assert!(text.contains("mean kernel error:"), "{text}");
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = tiny();
        let (c1, seq) = validate_report(&a);
        a.jobs = 4;
        let (c2, par) = validate_report(&a);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn json_export_parses_and_carries_the_verdict() {
        let dir = std::env::temp_dir().join(format!("repro-validate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = ValidateArgs {
            json: Some(dir.join("validate.json")),
            ..tiny()
        };
        let (code, _) = validate_report(&a);
        assert_eq!(code, 0);
        let data = mallacc_stats::json::parse(
            &std::fs::read_to_string(dir.join("validate.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-validate/1")
        );
        assert_eq!(data.get("pass").and_then(Json::as_f64), None);
        assert_eq!(
            data.get("oracle")
                .and_then(|o| o.get("kernels"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(9)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_coverage_requirement_is_enforced() {
        // One slot cannot exercise all 19 events; with the requirement on,
        // the run must fail even though nothing diverged.
        let a = ValidateArgs {
            fuzz_slots: 1,
            require_full_coverage: true,
            ..tiny()
        };
        let (code, text) = validate_report(&a);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("missing:"), "{text}");
    }
}
