//! The `repro sample` subcommand: sampled-vs-full simulation error
//! report. Flags: [`COMMAND`].
//!
//! `--substrate` picks the allocator under test (tcmalloc, jemalloc,
//! rpmalloc, or the per-CPU tcmalloc variant); the sampled-execution
//! fidelity contract must hold on every substrate's µop stream, not just
//! the paper's TCMalloc.
//!
//! Replays every selected workload trace twice per machine mode — once
//! through full detailed simulation, once under the sampled execution
//! plan — and reports, per row:
//!
//! * attributed cycles of both runs and the sampled-vs-full error;
//! * the 95 % Student-t confidence half-width over the measured windows'
//!   CPIs (the SMARTS-style error estimate the sampled run can compute
//!   *without* a full reference run);
//! * a functional-identity check: execution statistics (µops, loads,
//!   stores, branches, mispredicts) and call counts must match the full
//!   run exactly, because sampling is a pure timing-fidelity axis.
//!
//! The error gate is *oracle-bounded*: a row passes when its error sits
//! inside the same ±2 % + 32-cycle band the analytic latency oracle uses,
//! **or** inside the row's own CI95 — the full run is the oracle that
//! checks the sampled run's self-reported uncertainty is honest. Short
//! traces have few windows and wide (honest) intervals; as traces grow
//! the interval shrinks roughly with 1/√windows and the fixed band takes
//! over. Any row failing both bounds, or any functional mismatch, fails
//! the run (exit 1). So does a row that closed fewer than the two windows
//! an interval needs under a plan that fast-forwards: such a trace is too
//! short to sample, and its sampled run checks nothing. A degenerate plan
//! runs everything in detail and closes no window by construction, so its
//! rows keep the error verdicts.
//! Rows are computed as pure functions of their index, so the report is
//! byte-identical for every `--jobs` value. A run computes every row
//! first, then renders the text, the JSON document and the verdict from
//! them.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, Command, Flag};
use mallacc::{Mode, SamplingPlan};
use mallacc_stats::table::Table;
use mallacc_stats::{mean_ci95, tol, Json};
use mallacc_substrate::{AnySim, SubstrateKind};
use mallacc_workloads::{AnyWorkload, MacroWorkload};

/// Command line of `repro sample`.
pub const COMMAND: Command = Command {
    name: "sample",
    head: "repro sample",
    flags: &[
        Flag::switch("--smoke"),
        Flag::switch("--full"),
        Flag::value("--substrate", "NAME"),
        Flag::list("--workload", "NAME"),
        Flag::value("--mallocs", "N"),
        Flag::value("--plan", "W:D:P[:S]"),
        Flag::value("--seed", "N"),
        Flag::value("--jobs", "N"),
        Flag::value("--json", "PATH"),
    ],
};

/// Parsed `repro sample` arguments.
#[derive(Debug, Clone)]
pub struct SampleArgs {
    /// Allocator substrate under test.
    pub substrate: SubstrateKind,
    /// Workloads under test (defaults to the eight macro workloads).
    pub workloads: Vec<AnyWorkload>,
    /// Allocations per workload trace.
    pub mallocs: usize,
    /// The sampling cadence under test.
    pub plan: SamplingPlan,
    /// Base trace seed.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential).
    pub jobs: usize,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl Default for SampleArgs {
    fn default() -> Self {
        Self {
            substrate: SubstrateKind::TcMalloc,
            workloads: (MacroWorkload::all().into_iter())
                .map(AnyWorkload::Macro)
                .collect(),
            mallocs: 4_000,
            plan: SamplingPlan::default_plan(),
            seed: 42,
            jobs: 1,
            json: None,
        }
    }
}

impl SampleArgs {
    /// Parses the argument list after `sample`: the `--smoke` or
    /// `--full` trace length, whichever came last, then the explicit
    /// values.
    pub fn parse(args: &[String]) -> Result<SampleArgs, String> {
        let p = COMMAND.parse(args)?;
        let mut a = SampleArgs::default();
        if p.last_of(&["--smoke", "--full"]) == Some("--full") {
            a.mallocs = 30_000;
        }
        p.set("--substrate", &mut a.substrate, cli::substrate)?;
        p.set_all("--workload", &mut a.workloads, cli::workload)?;
        p.set("--mallocs", &mut a.mallocs, cli::int)?;
        p.set("--plan", &mut a.plan, |_, v| SamplingPlan::parse(v))?;
        p.set("--seed", &mut a.seed, cli::int)?;
        p.set("--jobs", &mut a.jobs, cli::int)?;
        a.json = p.get("--json", cli::path)?;
        if a.mallocs == 0 {
            return Err("--mallocs must be at least 1".to_string());
        }
        Ok(a)
    }
}

/// A machine-mode row: display label and mode constructor.
type ModeRow = (&'static str, fn() -> Mode);

/// The machine modes every workload is checked under.
const MODES: [ModeRow; 2] = [
    ("baseline", || Mode::Baseline),
    ("mallacc", Mode::mallacc_default),
];

/// Windows a sampled row must close: a 95 % interval needs two.
const MIN_WINDOWS: usize = 2;

/// One workload × mode comparison row.
#[derive(Debug, Clone)]
struct Row {
    workload: String,
    mode: &'static str,
    full_cycles: u64,
    sampled_cycles: u64,
    error_pct: f64,
    ci95_rel_pct: f64,
    windows: usize,
    ff_fraction: f64,
    functional_ok: bool,
    in_band: bool,
    within_ci: bool,
}

fn run_row(args: &SampleArgs, workload: &AnyWorkload, mode_ix: usize) -> Row {
    let (mode_label, mode) = MODES[mode_ix];
    let trace = workload.trace(args.mallocs, args.seed);

    let mut full = AnySim::new(args.substrate, mode());
    trace.replay_on(&mut full);
    let full_cycles = full.engine().cpi_stack().total();

    let mut sampled = AnySim::new(args.substrate, mode());
    sampled.set_sampling(Some(args.plan));
    trace.replay_on(&mut sampled);
    let sampled_cycles = sampled.engine().cpi_stack().total();
    let report = sampled
        .engine()
        .sampling_report()
        .expect("sampling installed");

    // Sampling must not perturb functional execution: same µop mix, same
    // call counts, only the cycle numbers may differ.
    let functional_ok = full.engine().stats() == sampled.engine().stats()
        && full.call_counts() == sampled.call_counts();

    let uops = sampled.engine().stats().uops;
    let ff_fraction = if uops == 0 {
        0.0
    } else {
        report.ff_uops as f64 / uops as f64
    };
    let ci = mean_ci95(&report.window_cpis());
    let error_pct = if full_cycles == 0 {
        0.0
    } else {
        100.0 * (sampled_cycles as f64 - full_cycles as f64) / full_cycles as f64
    };
    let in_band = tol::within_band(
        full_cycles as f64,
        sampled_cycles as f64,
        tol::KERNEL_REL_TOL,
        tol::KERNEL_ABS_TOL_CYCLES,
    );
    // The oracle-bounded fallback: the window-mean CI95 is the sampled
    // run's own claim about its extrapolation uncertainty; the full run
    // checks that claim instead of holding short runs to a band their
    // window count cannot support.
    let within_ci = error_pct.abs() <= 100.0 * ci.relative();
    Row {
        workload: workload.name().to_string(),
        mode: mode_label,
        full_cycles,
        sampled_cycles,
        error_pct,
        ci95_rel_pct: 100.0 * ci.relative(),
        windows: report.windows.len(),
        ff_fraction,
        functional_ok,
        in_band,
        within_ci,
    }
}

/// Runs `repro sample` and returns `(exit code, report text)`.
pub fn sample_report(args: &SampleArgs) -> (i32, String) {
    let n = MODES.len();
    let rows: Vec<Row> = run_indexed((args.workloads.len() * n) as u64, args.jobs, |i| {
        run_row(args, &args.workloads[i as usize / n], i as usize % n)
    });
    render(args, &rows)
}

/// Renders `rows` as the report text and verdict and, with `--json`, the
/// document; returns the exit code and the text.
fn render(args: &SampleArgs, rows: &[Row]) -> (i32, String) {
    let mut out = format!(
        "repro sample: substrate {}, plan {} ({:.1}% detailed steady-state), mallocs={}, seed {}\n\n",
        args.substrate.name(),
        args.plan.canonical_string(),
        100.0 * args.plan.detailed_fraction(),
        args.mallocs,
        args.seed
    );
    out.push_str(&format!(
        "== sampled vs full attributed cycles (band: \u{b1}{:.1}% + {:.0} cyc, or own ci95) ==\n",
        100.0 * tol::KERNEL_REL_TOL,
        tol::KERNEL_ABS_TOL_CYCLES
    ));
    let mut t = Table::new(&[
        "workload", "mode", "full", "sampled", "error", "ci95", "windows", "ff", "verdict",
    ]);
    let mut mean_abs = 0.0;
    let mut max_abs = 0.0f64;
    let mut json_rows = Vec::new();
    let mut pass = true;
    for r in rows {
        let too_few_windows = !args.plan.is_degenerate() && r.windows < MIN_WINDOWS;
        let verdict = match (r.in_band, r.within_ci, r.functional_ok) {
            (_, _, false) => "FUNCTIONAL DRIFT",
            _ if too_few_windows => "TOO FEW WINDOWS",
            (true, _, true) => "ok",
            (false, true, true) => "ok(ci)",
            (false, false, true) => "OUT OF BAND",
        };
        pass &= (r.in_band || r.within_ci) && r.functional_ok && !too_few_windows;
        t.row_owned(vec![
            r.workload.clone(),
            r.mode.to_string(),
            r.full_cycles.to_string(),
            r.sampled_cycles.to_string(),
            format!("{:+.2}%", r.error_pct),
            format!("\u{b1}{:.2}%", r.ci95_rel_pct),
            r.windows.to_string(),
            format!("{:.1}%", 100.0 * r.ff_fraction),
            verdict.to_string(),
        ]);
        mean_abs += r.error_pct.abs() / rows.len() as f64;
        max_abs = max_abs.max(r.error_pct.abs());
        json_rows.push(Json::obj([
            ("workload", Json::from(r.workload.as_str())),
            ("mode", Json::from(r.mode)),
            ("full_cycles", Json::from(r.full_cycles)),
            ("sampled_cycles", Json::from(r.sampled_cycles)),
            ("error_pct", Json::from(r.error_pct)),
            ("ci95_rel_pct", Json::from(r.ci95_rel_pct)),
            ("windows", Json::from(r.windows as u64)),
            ("ff_fraction", Json::from(r.ff_fraction)),
            ("functional_ok", Json::from(r.functional_ok)),
            ("in_band", Json::from(r.in_band)),
            ("within_ci", Json::from(r.within_ci)),
        ]));
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "mean abs error: {mean_abs:.2}%, max abs error: {max_abs:.2}%\n"
    ));
    out.push_str(&format!(
        "\nverdict: {}\n",
        if pass { "PASS" } else { "FAIL" }
    ));

    cli::finish("sample", out, pass, args.json.as_deref(), || {
        Json::obj([
            ("schema", Json::from("mallacc-sample/1")),
            ("substrate", Json::from(args.substrate.name())),
            (
                "scale",
                Json::obj([
                    ("plan", Json::from(args.plan.canonical_string())),
                    (
                        "detailed_fraction",
                        Json::from(args.plan.detailed_fraction()),
                    ),
                    ("mallocs", Json::from(args.mallocs as u64)),
                    ("seed", Json::from(args.seed)),
                ]),
            ),
            ("band_rel", Json::from(tol::KERNEL_REL_TOL)),
            ("band_abs_cycles", Json::from(tol::KERNEL_ABS_TOL_CYCLES)),
            ("rows", Json::Arr(json_rows)),
            ("mean_abs_error_pct", Json::from(mean_abs)),
            ("max_abs_error_pct", Json::from(max_abs)),
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

    fn tiny() -> SampleArgs {
        SampleArgs {
            workloads: ["471.omnetpp", "483.xalancbmk"]
                .map(|n| AnyWorkload::by_name(n).unwrap())
                .to_vec(),
            mallocs: 1_200,
            ..SampleArgs::default()
        }
    }

    #[test]
    fn parse_scales_flags_and_rejections() {
        let a = SampleArgs::parse(&s(&["--smoke"])).unwrap();
        assert_eq!(a.mallocs, 4_000);
        assert_eq!(a.workloads.len(), 8);
        let f = SampleArgs::parse(&s(&["--full", "--jobs", "3", "--seed", "7"])).unwrap();
        assert_eq!((f.mallocs, f.jobs, f.seed), (30_000, 3, 7));
        let w = SampleArgs::parse(&s(&[
            "--workload",
            "gauss",
            "--mallocs",
            "500",
            "--plan",
            "64:256:4096",
        ]))
        .unwrap();
        let names: Vec<&str> = w.workloads.iter().map(AnyWorkload::name).collect();
        assert_eq!(names, ["gauss"]);
        assert_eq!(w.mallocs, 500);
        assert_eq!(w.plan.period, 4_096);
        let sub = SampleArgs::parse(&s(&["--substrate", "percpu"])).unwrap();
        assert_eq!(sub.substrate, SubstrateKind::PerCpu);
        assert!(SampleArgs::parse(&s(&["--substrate", "dlmalloc"])).is_err());
        assert!(SampleArgs::parse(&s(&["--workload", "nope"])).is_err());
        assert!(SampleArgs::parse(&s(&["--mallocs", "0"])).is_err());
        assert!(SampleArgs::parse(&s(&["--plan", "1:2"])).is_err());
        assert!(SampleArgs::parse(&s(&["--what"])).is_err());
    }

    #[test]
    fn smoke_rows_pass_and_report_names_the_band() {
        let (code, text) = sample_report(&tiny());
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("sampled vs full attributed cycles"), "{text}");
        assert!(text.contains("471.omnetpp"), "{text}");
        assert!(text.contains("mallacc"), "{text}");
        assert!(text.contains("verdict: PASS"), "{text}");
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = tiny();
        let (c1, seq) = sample_report(&a);
        a.jobs = 4;
        let (c2, par) = sample_report(&a);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn json_export_parses_and_carries_the_verdict() {
        let dir = std::env::temp_dir().join(format!("repro-sample-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = SampleArgs {
            json: Some(dir.join("sample.json")),
            ..tiny()
        };
        let (code, _) = sample_report(&a);
        assert_eq!(code, 0);
        let data =
            mallacc_stats::json::parse(&std::fs::read_to_string(dir.join("sample.json")).unwrap())
                .unwrap();
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-sample/1")
        );
        assert_eq!(
            data.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_rows_render_their_verdicts_and_fail_the_run() {
        let dir = std::env::temp_dir().join(format!("repro-sample-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let row = |workload: &str, in_band, within_ci, functional_ok, windows| Row {
            workload: workload.to_string(),
            mode: "baseline",
            full_cycles: 1_000,
            sampled_cycles: 1_100,
            error_pct: 10.0,
            ci95_rel_pct: 12.0,
            windows,
            ff_fraction: 0.5,
            functional_ok,
            in_band,
            within_ci,
        };
        let rows = [
            row("w-ci", false, true, true, 3),
            row("w-band", false, false, true, 3),
            row("w-drift", true, true, false, 3),
            row("w-none", true, true, true, 0),
            row("w-one", true, true, true, 1),
            row("w-two", true, true, true, 2),
        ];
        let args = SampleArgs {
            json: Some(dir.join("sample.json")),
            ..SampleArgs::default()
        };
        let (code, text) = render(&args, &rows);
        let doc = std::fs::read_to_string(dir.join("sample.json"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("\nverdict: FAIL\n"), "{text}");
        let verdicts = [
            "ok(ci)",
            "OUT OF BAND",
            "FUNCTIONAL DRIFT",
            "TOO FEW WINDOWS",
            "TOO FEW WINDOWS",
            "ok",
        ];
        for (r, verdict) in rows.iter().zip(verdicts) {
            let line = text
                .lines()
                .find(|l| l.starts_with(&r.workload))
                .unwrap_or_else(|| panic!("no row for {}:\n{text}", r.workload));
            assert!(line.ends_with(verdict), "{line}");
        }

        let doc = mallacc_stats::json::parse(&doc.expect("the report wrote its JSON")).unwrap();
        assert_eq!(doc.get("pass"), Some(&Json::Bool(false)));
        let json_rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(json_rows.len(), rows.len());
        for (j, r) in json_rows.iter().zip(&rows) {
            assert_eq!(
                j.get("workload").and_then(Json::as_str),
                Some(r.workload.as_str())
            );
            for (key, value) in [
                ("in_band", r.in_band),
                ("within_ci", r.within_ci),
                ("functional_ok", r.functional_ok),
            ] {
                assert_eq!(j.get(key), Some(&Json::Bool(value)), "{key}");
            }
        }
    }

    #[test]
    fn a_trace_too_short_to_sample_fails() {
        let a = SampleArgs {
            workloads: vec![AnyWorkload::by_name("tp_small").unwrap()],
            mallocs: 50,
            ..SampleArgs::default()
        };
        let (code, text) = sample_report(&a);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("TOO FEW WINDOWS"), "{text}");
        assert!(text.contains("\nverdict: FAIL\n"), "{text}");
    }

    #[test]
    fn sampling_fidelity_holds_on_every_substrate() {
        // The oracle-bounded error gate and the functional-identity
        // check must pass on every substrate's µop stream — sampling is
        // a timing axis, never a functional one, regardless of which
        // allocator generated the µops.
        for kind in SubstrateKind::ALL {
            let a = SampleArgs {
                substrate: kind,
                workloads: vec![AnyWorkload::by_name("471.omnetpp").unwrap()],
                mallocs: 1_200,
                ..SampleArgs::default()
            };
            let (code, text) = sample_report(&a);
            assert_eq!(code, 0, "{kind:?}:\n{text}");
            assert!(!text.contains("FUNCTIONAL DRIFT"), "{kind:?}:\n{text}");
        }
    }

    #[test]
    fn degenerate_plan_rows_have_zero_error() {
        let a = SampleArgs {
            plan: SamplingPlan::new(64, 64, 128).unwrap(),
            workloads: vec![AnyWorkload::by_name("gauss").unwrap()],
            mallocs: 400,
            ..SampleArgs::default()
        };
        let (code, text) = sample_report(&a);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("+0.00%"), "{text}");
    }
}
