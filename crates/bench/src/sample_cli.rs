//! The `repro sample` subcommand: sampled-vs-full simulation error
//! report. Flags: [`USAGE`].
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
//! the run (exit 1).
//! Rows are computed as pure functions of their index, so the report is
//! byte-identical for every `--jobs` value.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, CommonFlags, CommonSpec, ScaleFlag};
use mallacc::{Mode, SamplingPlan};
use mallacc_stats::table::Table;
use mallacc_stats::{mean_ci95, tol, Json};
use mallacc_substrate::{AnySim, SubstrateKind};
use mallacc_workloads::AnyWorkload;

/// Command line of `repro sample`.
pub const USAGE: &str = "repro sample [--smoke] [--full] [--substrate NAME] \
    [--workload NAME]... [--mallocs N] [--plan W:D:P[:S]] [--seed N] [--jobs N] \
    [--json PATH]";

/// Parsed `repro sample` arguments.
#[derive(Debug, Clone)]
pub struct SampleArgs {
    /// Allocator substrate under test.
    pub substrate: SubstrateKind,
    /// Workload names (defaults to the eight macro workloads).
    pub workloads: Vec<String>,
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
            workloads: Vec::new(),
            mallocs: 4_000,
            plan: SamplingPlan::default_plan(),
            seed: 42,
            jobs: 1,
            json: None,
        }
    }
}

impl SampleArgs {
    /// Parses the argument list after `sample`. Shared flags are applied
    /// after the loop, explicit overrides win regardless of flag order.
    pub fn parse(args: &[String]) -> Result<SampleArgs, String> {
        let mut parsed = SampleArgs::default();
        let mut common = CommonFlags::default();
        let mut mallocs = None;
        let mut i = 0;
        while i < args.len() {
            if cli::take_common(args, &mut i, &CommonSpec::ALL, &mut common)? {
                i += 1;
                continue;
            }
            match args[i].as_str() {
                "--substrate" => {
                    parsed.substrate = cli::substrate(&cli::value(args, &mut i, "--substrate")?)?;
                }
                "--workload" => {
                    let name = cli::value(args, &mut i, "--workload")?;
                    cli::workload(&name)?;
                    parsed.workloads.push(name);
                }
                "--mallocs" => {
                    mallocs = Some(
                        cli::int(cli::value(args, &mut i, "--mallocs")?, "--mallocs")? as usize,
                    );
                }
                "--plan" => {
                    parsed.plan = SamplingPlan::parse(&cli::value(args, &mut i, "--plan")?)?;
                }
                other => return Err(format!("unknown sample flag {other:?}")),
            }
            i += 1;
        }
        match common.scale {
            Some(ScaleFlag::Smoke) => parsed.mallocs = 4_000,
            Some(ScaleFlag::Full) => parsed.mallocs = 30_000,
            None => {}
        }
        if let Some(v) = mallocs {
            parsed.mallocs = v;
        }
        if let Some(seed) = common.seed {
            parsed.seed = seed;
        }
        if let Some(jobs) = common.jobs {
            parsed.jobs = jobs;
        }
        parsed.json = common.json;
        if parsed.mallocs == 0 {
            return Err("--mallocs must be at least 1".to_string());
        }
        Ok(parsed)
    }

    /// The workload list actually run (explicit names, or all eight macro
    /// workloads).
    pub fn workload_names(&self) -> Vec<String> {
        if self.workloads.is_empty() {
            mallacc_workloads::MacroWorkload::all()
                .iter()
                .map(|w| w.name.to_string())
                .collect()
        } else {
            self.workloads.clone()
        }
    }
}

/// A machine-mode row: display label and mode constructor.
type ModeRow = (&'static str, fn() -> Mode);

/// The machine modes every workload is checked under.
const MODES: [ModeRow; 2] = [
    ("baseline", || Mode::Baseline),
    ("mallacc", Mode::mallacc_default),
];

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

fn run_row(args: &SampleArgs, workload: &str, mode_ix: usize) -> Row {
    let (mode_label, mode) = MODES[mode_ix];
    let w = AnyWorkload::by_name(workload).expect("workload validated at parse time");
    let trace = w.trace(args.mallocs, args.seed);

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
        workload: workload.to_string(),
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
    let names = args.workload_names();
    let rows: Vec<Row> = run_indexed((names.len() * MODES.len()) as u64, args.jobs, |i| {
        let (wi, mi) = ((i as usize) / MODES.len(), (i as usize) % MODES.len());
        run_row(args, &names[wi], mi)
    });

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
    for r in &rows {
        let verdict = match (r.in_band, r.within_ci, r.functional_ok) {
            (_, _, false) => "FUNCTIONAL DRIFT",
            (true, _, true) => "ok",
            (false, true, true) => "ok(ci)",
            (false, false, true) => "OUT OF BAND",
        };
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
    let pass = rows
        .iter()
        .all(|r| (r.in_band || r.within_ci) && r.functional_ok);
    out.push_str(&format!(
        "\nverdict: {}\n",
        if pass { "PASS" } else { "FAIL" }
    ));

    if let Some(path) = &args.json {
        let doc = Json::obj([
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
        ]);
        if !cli::write_json("sample", path, &doc, &mut out) {
            return (1, out);
        }
    }
    (if pass { 0 } else { 1 }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> SampleArgs {
        SampleArgs {
            workloads: vec!["471.omnetpp".to_string(), "483.xalancbmk".to_string()],
            mallocs: 1_200,
            ..SampleArgs::default()
        }
    }

    #[test]
    fn parse_scales_flags_and_rejections() {
        let a = SampleArgs::parse(&s(&["--smoke"])).unwrap();
        assert_eq!(a.mallocs, 4_000);
        assert_eq!(a.workload_names().len(), 8);
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
        assert_eq!(w.workload_names(), vec!["gauss".to_string()]);
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
    fn sampling_fidelity_holds_on_every_substrate() {
        // The oracle-bounded error gate and the functional-identity
        // check must pass on every substrate's µop stream — sampling is
        // a timing axis, never a functional one, regardless of which
        // allocator generated the µops.
        for kind in SubstrateKind::ALL {
            let a = SampleArgs {
                substrate: kind,
                workloads: vec!["471.omnetpp".to_string()],
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
            workloads: vec!["gauss".to_string()],
            mallocs: 400,
            ..SampleArgs::default()
        };
        let (code, text) = sample_report(&a);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("+0.00%"), "{text}");
    }
}
