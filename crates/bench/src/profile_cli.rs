//! The `repro profile` subcommand: per-operation cycle attribution for
//! baseline vs. Mallacc configurations, driven by `mallacc-prof`.
//! Flags: [`COMMAND`].
//!
//! Prints the paper's Figure 2-style breakdown — where the cycles of a
//! warm fast-path malloc/free go — as stall-reason and allocator-component
//! tables, one column set per configuration, plus the malloc-cache event
//! counters and a two-core attribution summary. `--trace` additionally
//! exports a Chrome trace-event JSON (validated against the schema before
//! writing); `--json` exports the same integers the tables print. A run
//! computes every profile first, then renders the report, the exports
//! and the exit code from them: a conservation violation in any
//! profiler, single-core or two-core, exits 1.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, Command, Flag};
use mallacc::{Mode, StallReason};
use mallacc_prof::chrome::{chrome_trace, validate_chrome_trace};
use mallacc_prof::mt::profile_multicore;
use mallacc_prof::report::{
    mode_json, profile_fastpath, render_component_table, render_mc_table, render_stall_table,
    ModeProfile,
};
use mallacc_prof::Profiler;
use mallacc_stats::table::Table;
use mallacc_stats::Json;
use mallacc_workloads::MtTrace;

/// Command line of `repro profile`.
pub const COMMAND: Command = Command {
    name: "profile",
    head: "repro profile",
    flags: &[
        Flag::switch("--smoke"),
        Flag::switch("--quick"),
        Flag::value("--pairs", "N"),
        Flag::value("--warmup", "N"),
        Flag::value("--mt-calls", "N"),
        Flag::value("--seed", "N"),
        Flag::value("--jobs", "N"),
        Flag::value("--uops", "N"),
        Flag::value("--trace", "PATH"),
        Flag::value("--json", "PATH"),
    ],
};

/// Parsed `repro profile` arguments.
#[derive(Debug, Clone)]
pub struct ProfileArgs {
    /// Warm fast-path malloc/free pairs to attribute per mode.
    pub pairs: u64,
    /// Untraced warm-up pairs before attribution starts.
    pub warmup: u64,
    /// Calls per core in the two-core section.
    pub mt_calls: usize,
    /// Seed for the multi-core trace.
    pub seed: u64,
    /// Per-µop samples retained per mode for the trace export.
    pub uops: usize,
    /// Worker threads for the per-mode runs (0 or 1 = sequential).
    pub jobs: usize,
    /// Chrome trace-event JSON output file.
    pub trace: Option<PathBuf>,
    /// Machine-readable dataset output file.
    pub json: Option<PathBuf>,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        Self {
            pairs: 2_000,
            warmup: 200,
            mt_calls: 200,
            seed: 42,
            uops: 256,
            jobs: 1,
            trace: None,
            json: None,
        }
    }
}

impl ProfileArgs {
    /// Parses the argument list after `profile`: `--smoke`, then
    /// `--quick`, then the explicit sizes.
    pub fn parse(args: &[String]) -> Result<ProfileArgs, String> {
        let p = COMMAND.parse(args)?;
        let mut a = ProfileArgs::default();
        if p.has("--smoke") {
            (a.pairs, a.warmup, a.mt_calls, a.uops) = (200, 50, 60, 128);
        }
        if p.has("--quick") {
            (a.pairs, a.warmup, a.mt_calls) = (500, 100, 100);
        }
        p.set("--pairs", &mut a.pairs, cli::int)?;
        p.set("--warmup", &mut a.warmup, cli::int)?;
        p.set("--mt-calls", &mut a.mt_calls, cli::int)?;
        p.set("--uops", &mut a.uops, cli::int)?;
        p.set("--seed", &mut a.seed, cli::int)?;
        p.set("--jobs", &mut a.jobs, cli::int)?;
        a.trace = p.get("--trace", cli::path)?;
        a.json = p.get("--json", cli::path)?;
        if a.pairs == 0 {
            return Err("--pairs must be at least 1".to_string());
        }
        Ok(a)
    }
}

/// The three configurations every profile run compares.
fn modes() -> [(Mode, &'static str); 3] {
    [
        (Mode::Baseline, "baseline"),
        (Mode::mallacc_default(), "mallacc"),
        (Mode::limit_all(), "limit"),
    ]
}

/// One core's row of the two-core section.
struct CoreRow {
    core: u32,
    ops: usize,
    op_cycles: u64,
    idle_in_op: u64,
    outside_cycles: u64,
    violations: u64,
}

/// Everything one `repro profile` run computed, before any of it is
/// rendered.
struct Outcome {
    /// Each configuration's profile, with its profiler's conservation
    /// violations.
    modes: Vec<(ModeProfile, u64)>,
    /// The Chrome trace of the single-core profilers, when `--trace` asks
    /// for one.
    trace: Option<Json>,
    /// Synchronisation epochs of the two-core run.
    mt_epochs: u64,
    /// One row per core of the two-core run.
    mt_cores: Vec<CoreRow>,
}

impl Outcome {
    /// Runs the per-mode fast-path kernels, in parallel across `jobs`
    /// workers, then the two-core producer/consumer ring. Each mode's
    /// simulation is independent and deterministic, so the outcome is
    /// identical for every `jobs` value.
    fn run(args: &ProfileArgs) -> Outcome {
        let runs = modes();
        let results = run_indexed(runs.len() as u64, args.jobs, |i| {
            let (mode, label) = runs[i as usize];
            profile_fastpath(mode, label, args.pairs, args.warmup, args.uops)
        });
        let trace = args.trace.as_ref().map(|_| {
            let profilers: Vec<&Profiler> = results.iter().map(|(_, p)| p.as_ref()).collect();
            let labels: Vec<&str> = results.iter().map(|(p, _)| p.label.as_str()).collect();
            chrome_trace(&profilers, &labels)
        });
        let ring = MtTrace::producer_consumer(2, args.mt_calls, args.seed);
        let (result, profilers) = profile_multicore(Mode::mallacc_default(), &ring, 0);
        let mt_cores = profilers
            .iter()
            .map(|p| CoreRow {
                core: p.tid(),
                ops: p.ops().len(),
                op_cycles: p.ops().iter().map(|o| o.cycles()).sum(),
                idle_in_op: p.ops().iter().map(|o| o.stall.get(StallReason::Idle)).sum(),
                outside_cycles: p.outside().total(),
                violations: p.conservation_violations(),
            })
            .collect();
        Outcome {
            modes: (results.into_iter())
                .map(|(p, profiler)| (p, profiler.conservation_violations()))
                .collect(),
            trace,
            mt_epochs: result.epochs,
            mt_cores,
        }
    }
}

/// Renders `o` as the report text and, with `--trace` and `--json`, the
/// exports; returns the exit code and the text. Any conservation
/// violation, single-core or two-core, fails the run before the exports.
fn render(args: &ProfileArgs, o: &Outcome) -> (i32, String) {
    let profiles: Vec<&ModeProfile> = o.modes.iter().map(|(p, _)| p).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "repro profile: {} warm fast-path pairs per mode ({} warm-up)\n\n",
        args.pairs, args.warmup
    ));
    for p in &profiles {
        let mean = p.op_cycles() as f64 / p.op_count().max(1) as f64;
        out.push_str(&format!(
            "== {} == ({} ops, {} cycles, mean {:.1} cyc/op)\n{}\n",
            p.label,
            p.op_count(),
            p.op_cycles(),
            mean,
            render_stall_table(p)
        ));
    }
    out.push_str(&format!(
        "== component attribution (Figure 2/4-style) ==\n{}\n",
        render_component_table(&profiles)
    ));
    out.push_str(&format!(
        "== malloc-cache events ==\n{}\n",
        render_mc_table(&profiles)
    ));
    let mut t = Table::new(&[
        "core",
        "ops",
        "op cyc",
        "idle-in-op",
        "outside cyc",
        "violations",
    ]);
    let mut cores_json = Vec::new();
    for c in &o.mt_cores {
        t.row_owned(vec![
            c.core.to_string(),
            c.ops.to_string(),
            c.op_cycles.to_string(),
            c.idle_in_op.to_string(),
            c.outside_cycles.to_string(),
            c.violations.to_string(),
        ]);
        cores_json.push(Json::obj([
            ("core", Json::from(u64::from(c.core))),
            ("ops", Json::from(c.ops)),
            ("op_cycles", Json::from(c.op_cycles)),
            ("idle_in_op", Json::from(c.idle_in_op)),
            ("outside_cycles", Json::from(c.outside_cycles)),
            ("violations", Json::from(c.violations)),
        ]));
    }
    out.push_str(&format!(
        "== two-core attribution (producer/consumer ring, mallacc) ==\n{}",
        t.render()
    ));

    let single_core = (o.modes.iter()).map(|(p, n)| (format!("mode {}", p.label), *n));
    let two_core =
        (o.mt_cores.iter()).map(|c| (format!("core {} of the two-core run", c.core), c.violations));
    let mut conserved = true;
    for (profiler, violations) in single_core.chain(two_core) {
        if violations > 0 {
            eprintln!("repro profile: {violations} conservation violations in {profiler}");
            conserved = false;
        }
    }
    if !conserved {
        return (1, out);
    }

    if let (Some(path), Some(doc)) = (&args.trace, &o.trace) {
        if let Err(e) = validate_chrome_trace(doc) {
            eprintln!("repro profile: emitted trace failed validation: {e}");
            return (1, out);
        }
        if !cli::write_json("profile", path, doc, &mut out) {
            return (1, out);
        }
    }
    cli::finish("profile", out, true, args.json.as_deref(), || {
        Json::obj([
            ("schema", Json::from("mallacc-profile/1")),
            (
                "scale",
                Json::obj([
                    ("pairs", Json::from(args.pairs)),
                    ("warmup", Json::from(args.warmup)),
                    ("mt_calls", Json::from(args.mt_calls)),
                    ("seed", Json::from(args.seed)),
                ]),
            ),
            (
                "modes",
                Json::Arr(profiles.iter().map(|p| mode_json(p)).collect()),
            ),
            (
                "mt",
                Json::obj([
                    ("epochs", Json::from(o.mt_epochs)),
                    ("cores", Json::Arr(cores_json)),
                ]),
            ),
        ])
    })
}

/// Runs `repro profile` and returns `(exit code, report text)`.
pub fn profile_report(args: &ProfileArgs) -> (i32, String) {
    render(args, &Outcome::run(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_smoke_and_overrides() {
        let a = ProfileArgs::parse(&s(&["--smoke", "--jobs", "2", "--uops", "64"])).unwrap();
        assert_eq!(a.pairs, 200);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.uops, 64);
        assert!(ProfileArgs::parse(&s(&["--nope"])).is_err());
        assert!(ProfileArgs::parse(&s(&["--pairs", "0"])).is_err());
        assert!(ProfileArgs::parse(&s(&["--pairs"])).is_err());
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = ProfileArgs::parse(&s(&["--smoke"])).unwrap();
        a.pairs = 60;
        a.warmup = 20;
        a.mt_calls = 40;
        let (c1, seq) = profile_report(&a);
        a.jobs = 3;
        let (c2, par) = profile_report(&a);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn smoke_report_names_the_figure2_slices() {
        let a = ProfileArgs {
            pairs: 80,
            warmup: 20,
            mt_calls: 40,
            ..ProfileArgs::default()
        };
        let (code, text) = profile_report(&a);
        assert_eq!(code, 0);
        assert!(text.contains("malloc_fast"), "{text}");
        assert!(text.contains("size_class"), "{text}");
        assert!(text.contains("list_op"), "{text}");
        assert!(text.contains("szlookup hit"), "{text}");
    }

    #[test]
    fn a_violation_in_any_profiler_fails_the_run() {
        let dir = std::env::temp_dir().join(format!("repro-profile-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = ProfileArgs {
            pairs: 40,
            warmup: 10,
            mt_calls: 30,
            uops: 32,
            trace: Some(dir.join("trace.json")),
            json: Some(dir.join("profile.json")),
            ..ProfileArgs::default()
        };
        let clean = Outcome::run(&a);
        assert_eq!(clean.mt_cores.len(), 2);

        let mut two_core = Outcome::run(&a);
        two_core.mt_cores[1].violations = 1;
        let (code, text) = render(&a, &two_core);
        assert_eq!(code, 1, "{text}");
        let row = text.lines().last().unwrap();
        assert!(row.starts_with('1') && row.ends_with(" 1"), "{row}");

        let mut single_core = clean;
        single_core.modes[2].1 = 3;
        let (code, text) = render(&a, &single_core);
        assert_eq!(code, 1, "{text}");

        // A failing run writes neither export.
        let written = std::fs::read_dir(&dir).unwrap().count();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(written, 0);
    }

    #[test]
    fn trace_and_json_exports_validate_and_parse() {
        let dir = std::env::temp_dir().join(format!("repro-profile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = ProfileArgs {
            pairs: 40,
            warmup: 10,
            mt_calls: 30,
            uops: 32,
            trace: Some(dir.join("trace.json")),
            json: Some(dir.join("profile.json")),
            ..ProfileArgs::default()
        };
        let (code, _) = profile_report(&a);
        assert_eq!(code, 0);
        let trace =
            mallacc_stats::json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap())
                .unwrap();
        validate_chrome_trace(&trace).unwrap();
        let data =
            mallacc_stats::json::parse(&std::fs::read_to_string(dir.join("profile.json")).unwrap())
                .unwrap();
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-profile/1")
        );
        assert_eq!(
            data.get("modes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
