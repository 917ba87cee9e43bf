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
//! A run first computes every section into one outcome value, then renders
//! the text, the JSON document and the verdict from it.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, Command, Flag};
use mallacc_ooo::SamplingPlan;
use mallacc_stats::table::Table;
use mallacc_stats::Json;
use mallacc_validate::{
    fuzz_slot, laws, offload_fuzz_slot, oracle, run_corpus, sample, sample_fuzz_slot,
    substrate_fuzz_slot, Band, CoverageEvent, Divergence, FuzzReport, KernelOutcome, LawReport,
    OffloadFuzzReport, SampleFuzzReport, SampledKernelOutcome, SubstrateFuzzReport,
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
            || a.law_cases == 0
            || a.offload_slots == 0
            || a.sample_slots == 0
            || a.substrate_slots == 0
        {
            return Err(
                "--fuzz, --laws, --offload-fuzz, --sample-fuzz and --substrate-fuzz must be at least 1"
                    .to_string(),
            );
        }
        Ok(a)
    }
}

/// Everything one `repro validate` run computed, before any of it is
/// rendered.
struct Outcome {
    kernels: Vec<KernelOutcome>,
    fuzz: FuzzReport,
    laws: LawReport,
    offload: OffloadFuzzReport,
    sampled_kernels: Vec<SampledKernelOutcome>,
    sample: SampleFuzzReport,
    substrate: SubstrateFuzzReport,
}

impl Outcome {
    /// Runs every section at the scale of `args`.
    fn run(args: &ValidateArgs) -> Outcome {
        let (seed, jobs) = (args.seed, args.jobs);
        let ids = oracle::KernelId::all();
        Outcome {
            kernels: run_indexed(ids.len() as u64, jobs, |i| {
                oracle::run_kernel(ids[i as usize], args.kernel_n)
            }),
            fuzz: run_corpus(args.fuzz_slots, jobs, |i| fuzz_slot(seed, i)),
            laws: run_corpus(laws::total_slots(args.law_cases), jobs, |i| {
                laws::check_slot(seed, args.law_cases, i)
            }),
            offload: run_corpus(args.offload_slots, jobs, |i| offload_fuzz_slot(seed, i)),
            sampled_kernels: sample::sampled_kernel_outcomes(args.kernel_n, sampled_kernel_plan()),
            sample: run_corpus(args.sample_slots, jobs, |i| sample_fuzz_slot(seed, i)),
            substrate: run_corpus(args.substrate_slots, jobs, |i| substrate_fuzz_slot(seed, i)),
        }
    }
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

/// One section of the report: its JSON key, its text and JSON fields up
/// to its divergence list, that list under its label (the text's count
/// line and the JSON key), and whether the section passes.
struct Section<'a> {
    key: &'static str,
    text: String,
    fields: Vec<(&'static str, Json)>,
    divergences: Option<(&'static str, &'a [Divergence])>,
    pass: bool,
}

/// How many of a suite's divergences the text report prints; the JSON
/// carries them all.
const SHOWN_DIVERGENCES: usize = 5;

/// The report lines of a suite's first divergences.
fn divergence_lines(list: &[Divergence]) -> String {
    list.iter()
        .take(SHOWN_DIVERGENCES)
        .map(|d| {
            let step = d.step.map(|s| format!(" step {s}")).unwrap_or_default();
            format!("  seed {:#x}{step} ({}): {}\n", d.seed, d.check, d.detail)
        })
        .collect()
}

/// Every divergence of a suite as a JSON entry. The seed is the hex
/// string the report line prints: a JSON number would round it.
fn divergence_json(list: &[Divergence]) -> Json {
    Json::Arr(
        list.iter()
            .map(|d| {
                let mut entry = vec![("seed", Json::from(format!("{:#x}", d.seed)))];
                entry.extend(d.step.map(|s| ("step", Json::from(s))));
                entry.push(("check", Json::from(d.check.as_str())));
                entry.push(("detail", Json::from(d.detail.as_str())));
                Json::obj(entry)
            })
            .collect(),
    )
}

/// The verdict column of a kernel table.
fn band_verdict(pass: bool) -> String {
    if pass { "ok" } else { "OUT OF BAND" }.to_string()
}

fn kernel_section(kernels: &[KernelOutcome]) -> Section<'_> {
    let band = Band::table1();
    let mut t = Table::new(&[
        "kernel",
        "bound by",
        "expected",
        "simulated",
        "error",
        "verdict",
    ]);
    let mut rows = Vec::new();
    let mut mean_abs_err = 0.0;
    for o in kernels {
        t.row_owned(vec![
            o.id.name().to_string(),
            o.id.bound_by().to_string(),
            format!("{:.1}", o.expected),
            o.simulated.to_string(),
            format!("{:+.2}%", o.error_pct),
            band_verdict(o.pass),
        ]);
        mean_abs_err += o.error_pct.abs() / kernels.len() as f64;
        rows.push(Json::obj([
            ("kernel", Json::from(o.id.name())),
            ("bound_by", Json::from(o.id.bound_by())),
            ("n", Json::from(o.n)),
            ("expected", Json::from(o.expected)),
            ("simulated", Json::from(o.simulated)),
            ("error_pct", Json::from(o.error_pct)),
            ("pass", Json::from(o.pass)),
        ]));
    }
    Section {
        key: "oracle",
        text: format!(
            "== analytic latency oracle (band: \u{b1}{:.1}% + {:.0} cyc) ==\n{}mean kernel error: {mean_abs_err:.2}%\n",
            100.0 * band.rel,
            band.abs,
            t.render(),
        ),
        fields: vec![
            ("band_rel", Json::from(band.rel)),
            ("band_abs_cycles", Json::from(band.abs)),
            ("mean_abs_error_pct", Json::from(mean_abs_err)),
            ("kernels", Json::Arr(rows)),
        ],
        divergences: None,
        pass: kernels.iter().all(|o| o.pass),
    }
}

fn fuzz_section<'a>(args: &ValidateArgs, r: &'a FuzzReport) -> Section<'a> {
    let missing: Vec<&str> = r.coverage.missing().iter().map(|e| e.name()).collect();
    Section {
        key: "conformance",
        text: format!(
            "== reference-spec conformance (differential fuzz) ==\nprograms: {} ({} base + {} guided), instructions: {}\ncoverage: {}/{} events{}\n",
            r.programs(),
            r.base_programs,
            r.guided_programs,
            r.ops,
            r.coverage.count(),
            CoverageEvent::ALL.len(),
            if missing.is_empty() {
                String::new()
            } else {
                format!(" (missing: {})", missing.join(", "))
            },
        ),
        fields: vec![
            ("programs", Json::from(r.programs())),
            ("base_programs", Json::from(r.base_programs)),
            ("guided_programs", Json::from(r.guided_programs)),
            ("instructions", Json::from(r.ops)),
            (
                "coverage",
                Json::obj([
                    ("events", Json::from(r.coverage.count())),
                    ("total", Json::from(CoverageEvent::ALL.len())),
                    (
                        "missing",
                        Json::Arr(missing.iter().map(|&e| Json::from(e)).collect()),
                    ),
                ]),
            ),
        ],
        divergences: Some(("divergences", &r.divergences)),
        pass: r.divergences.is_empty() && (!args.require_full_coverage || missing.is_empty()),
    }
}

fn law_section<'a>(args: &ValidateArgs, r: &'a LawReport) -> Section<'a> {
    Section {
        key: "laws",
        text: format!(
            "== metamorphic laws ==\ncases: {} ({}/law), comparisons: {}\n",
            r.cases, args.law_cases, r.comparisons,
        ),
        fields: vec![
            ("cases", Json::from(r.cases)),
            ("cases_per_law", Json::from(args.law_cases)),
            ("comparisons", Json::from(r.comparisons)),
        ],
        divergences: Some(("violations", &r.divergences)),
        pass: r.divergences.is_empty(),
    }
}

fn offload_section(r: &OffloadFuzzReport) -> Section<'_> {
    Section {
        key: "offload",
        text: format!(
            "== offload-core conformance (queue differential + heap identity) ==\nqueue programs: {} ({} requests), heap programs: {} ({} calls)\n",
            r.queue_programs, r.requests, r.heap_programs, r.heap_calls,
        ),
        fields: vec![
            ("queue_programs", Json::from(r.queue_programs)),
            ("requests", Json::from(r.requests)),
            ("heap_programs", Json::from(r.heap_programs)),
            ("heap_calls", Json::from(r.heap_calls)),
        ],
        divergences: Some(("divergences", &r.divergences)),
        pass: r.divergences.is_empty(),
    }
}

fn sample_section<'a>(kernels: &[SampledKernelOutcome], r: &'a SampleFuzzReport) -> Section<'a> {
    let plan = sampled_kernel_plan().canonical_string();
    let band = Band::table1();
    let mut t = Table::new(&["kernel", "full", "sampled", "error", "verdict"]);
    let mut rows = Vec::new();
    for o in kernels {
        t.row_owned(vec![
            o.id.name().to_string(),
            o.full.to_string(),
            o.sampled.to_string(),
            format!("{:+.2}%", o.error_pct),
            band_verdict(o.pass),
        ]);
        rows.push(Json::obj([
            ("kernel", Json::from(o.id.name())),
            ("full", Json::from(o.full)),
            ("sampled", Json::from(o.sampled)),
            ("error_pct", Json::from(o.error_pct)),
            ("pass", Json::from(o.pass)),
        ]));
    }
    Section {
        key: "sampled",
        text: format!(
            "== sampled-execution differential (plan {plan}, band: \u{b1}{:.1}% + {:.0} cyc, or own ci95) ==\n{}programs: {} ({} degenerate), \u{b5}ops: {}, mean |error|: {:.2}%, max: {:.2}%\n",
            100.0 * band.rel,
            band.abs,
            t.render(),
            r.programs,
            r.degenerate_programs,
            r.uops,
            r.mean_abs_error_pct(),
            r.max_abs_error_pct,
        ),
        fields: vec![
            ("plan", Json::from(plan)),
            ("kernels", Json::Arr(rows)),
            ("programs", Json::from(r.programs)),
            ("degenerate_programs", Json::from(r.degenerate_programs)),
            ("uops", Json::from(r.uops)),
            ("mean_abs_error_pct", Json::from(r.mean_abs_error_pct())),
            ("max_abs_error_pct", Json::from(r.max_abs_error_pct)),
        ],
        divergences: Some(("violations", &r.divergences)),
        pass: kernels.iter().all(|o| o.pass) && r.divergences.is_empty(),
    }
}

fn substrate_section(r: &SubstrateFuzzReport) -> Section<'_> {
    let laws = [
        ("span-ownership", r.span_programs, r.span_checks),
        ("token-conservation", r.token_programs, r.token_checks),
        (
            "deferred-linearization",
            r.linearize_programs,
            r.linearize_checks,
        ),
    ];
    let mut t = Table::new(&["law", "programs", "checks", "violations", "verdict"]);
    let mut rows = Vec::new();
    for (law, programs, checks) in laws {
        let violations = r.divergences.iter().filter(|d| d.check == law).count() as u64;
        t.row_owned(vec![
            law.to_string(),
            programs.to_string(),
            checks.to_string(),
            violations.to_string(),
            if violations == 0 { "ok" } else { "VIOLATED" }.to_string(),
        ]);
        rows.push(Json::obj([
            ("law", Json::from(law)),
            ("programs", Json::from(programs)),
            ("checks", Json::from(checks)),
            ("violations", Json::from(violations)),
        ]));
    }
    Section {
        key: "substrate",
        text: format!(
            "== substrate conformance (allocator laws) ==\n{}programs: {}, checks: {}\n",
            t.render(),
            r.programs(),
            r.checks(),
        ),
        fields: vec![
            ("laws", Json::Arr(rows)),
            ("programs", Json::from(r.programs())),
            ("checks", Json::from(r.checks())),
        ],
        divergences: Some(("violations", &r.divergences)),
        pass: r.divergences.is_empty(),
    }
}

/// Renders `o` as the report text and verdict and, with `--json`, the
/// document; returns the exit code and the text.
fn render(args: &ValidateArgs, o: &Outcome) -> (i32, String) {
    let sections = [
        kernel_section(&o.kernels),
        fuzz_section(args, &o.fuzz),
        law_section(args, &o.laws),
        offload_section(&o.offload),
        sample_section(&o.sampled_kernels, &o.sample),
        substrate_section(&o.substrate),
    ];
    let mut out = format!(
        "repro validate: kernels n={}, fuzz slots={}, law cases={}/law, offload slots={}, sample slots={}, substrate slots={}, seed {}\n\n",
        args.kernel_n, args.fuzz_slots, args.law_cases, args.offload_slots, args.sample_slots,
        args.substrate_slots, args.seed
    );
    let mut doc = vec![
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
    ];
    let mut pass = true;
    for s in sections {
        let mut fields = s.fields;
        out.push_str(&s.text);
        if let Some((label, list)) = s.divergences {
            out.push_str(&format!("{label}: {}\n", list.len()));
            out.push_str(&divergence_lines(list));
            fields.push((label, divergence_json(list)));
        }
        out.push('\n');
        fields.push(("pass", Json::from(s.pass)));
        doc.push((s.key, Json::obj(fields)));
        pass &= s.pass;
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if pass { "PASS" } else { "FAIL" }
    ));
    doc.push(("pass", Json::from(pass)));
    cli::finish("validate", out, pass, args.json.as_deref(), || {
        Json::obj(doc)
    })
}

/// Runs `repro validate` and returns `(exit code, report text)`.
pub fn validate_report(args: &ValidateArgs) -> (i32, String) {
    render(args, &Outcome::run(args))
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
        assert!(ValidateArgs::parse(&s(&["--laws", "0"])).is_err());
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
        assert_eq!(data.get("pass"), Some(&Json::Bool(true)));
        assert_eq!(
            data.get("oracle")
                .and_then(|o| o.get("kernels"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(9)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A seed above 2^53, which a JSON number would round.
    const SEED: u64 = 0x629a_f85f_ac46_19d6;

    fn divergence(i: u64, step: Option<u64>, check: &str) -> Divergence {
        Divergence {
            seed: SEED + i,
            step,
            check: check.to_string(),
            detail: format!("detail {i}"),
        }
    }

    /// One divergence in every suite and six in the reference-spec one,
    /// one kernel and one sampled kernel out of band.
    fn failing_outcome() -> Outcome {
        let id = oracle::KernelId::all()[0];
        let mut o = Outcome {
            kernels: vec![KernelOutcome {
                id,
                n: 100,
                expected: 400.0,
                simulated: 600,
                error_pct: 50.0,
                pass: false,
            }],
            fuzz: FuzzReport::default(),
            laws: LawReport::default(),
            offload: OffloadFuzzReport::default(),
            sampled_kernels: vec![SampledKernelOutcome {
                id,
                n: 100,
                full: 400,
                sampled: 600,
                error_pct: 50.0,
                pass: false,
            }],
            sample: SampleFuzzReport::default(),
            substrate: SubstrateFuzzReport::default(),
        };
        o.fuzz.divergences = (0..6)
            .map(|i| divergence(i, Some(10 + i), "Flush"))
            .collect();
        o.laws.divergences = vec![divergence(6, None, "entries-monotone")];
        o.offload.divergences = vec![divergence(7, Some(3), "queue")];
        o.sample.divergences = vec![divergence(8, None, "timing-band")];
        o.substrate.divergences = vec![divergence(9, Some(0), "span-ownership")];
        o
    }

    #[test]
    fn failures_render_as_report_lines_and_json_entries() {
        let dir = std::env::temp_dir().join(format!("repro-validate-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let o = failing_outcome();
        let args = ValidateArgs {
            json: Some(dir.join("validate.json")),
            ..ValidateArgs::default()
        };
        let (code, text) = render(&args, &o);
        let doc = std::fs::read_to_string(dir.join("validate.json"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("\nverdict: FAIL\n"), "{text}");
        assert_eq!(text.matches("OUT OF BAND").count(), 2, "{text}");

        // The five lines shown of the six reference-spec divergences, then
        // one line for each other suite, each under its count line.
        let shown = [
            "divergences: 6",
            "  seed 0x629af85fac4619d6 step 10 (Flush): detail 0",
            "  seed 0x629af85fac4619d7 step 11 (Flush): detail 1",
            "  seed 0x629af85fac4619d8 step 12 (Flush): detail 2",
            "  seed 0x629af85fac4619d9 step 13 (Flush): detail 3",
            "  seed 0x629af85fac4619da step 14 (Flush): detail 4",
            "violations: 1",
            "  seed 0x629af85fac4619dc (entries-monotone): detail 6",
            "divergences: 1",
            "  seed 0x629af85fac4619dd step 3 (queue): detail 7",
            "violations: 1",
            "  seed 0x629af85fac4619de (timing-band): detail 8",
            "violations: 1",
            "  seed 0x629af85fac4619df step 0 (span-ownership): detail 9",
        ];
        let printed: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.starts_with("  seed ")
                    || l.starts_with("divergences: ")
                    || l.starts_with("violations: ")
            })
            .collect();
        assert_eq!(printed, shown, "{text}");

        let doc = mallacc_stats::json::parse(&doc.expect("the report wrote its JSON")).unwrap();
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
        let suites = [
            ("conformance", "divergences", &o.fuzz.divergences),
            ("laws", "violations", &o.laws.divergences),
            ("offload", "divergences", &o.offload.divergences),
            ("sampled", "violations", &o.sample.divergences),
            ("substrate", "violations", &o.substrate.divergences),
        ];
        for (section, key, list) in suites {
            let section = doc.get(section).unwrap();
            assert_eq!(section.get("pass"), Some(&Json::Bool(false)));
            let entries = section.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), list.len(), "every divergence is in the JSON");
            for (i, (entry, d)) in entries.iter().zip(list.iter()).enumerate() {
                let seed = entry.get("seed").and_then(Json::as_str).unwrap();
                assert_eq!(seed, format!("{:#x}", d.seed));
                let step = entry.get("step").and_then(Json::as_f64);
                assert_eq!(step, d.step.map(|s| s as f64));
                let check = entry.get("check").and_then(Json::as_str).unwrap();
                let detail = entry.get("detail").and_then(Json::as_str).unwrap();
                assert_eq!((check, detail), (d.check.as_str(), d.detail.as_str()));
                let keys: Vec<&str> = match entry {
                    Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => panic!("entry is an object"),
                };
                let expected_keys: &[&str] = if d.step.is_some() {
                    &["seed", "step", "check", "detail"]
                } else {
                    &["seed", "check", "detail"]
                };
                assert_eq!(keys, expected_keys);
                // A shown entry's seed is the one its report line prints.
                let step = d.step.map(|s| format!(" step {s}")).unwrap_or_default();
                let line = format!("  seed {seed}{step} ({check}): {detail}");
                assert_eq!(printed.contains(&line.as_str()), i < SHOWN_DIVERGENCES);
            }
        }
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
