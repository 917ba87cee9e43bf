//! The `repro profile` subcommand: per-operation cycle attribution for
//! baseline vs. Mallacc configurations, driven by `mallacc-prof`.
//! Flags: [`USAGE`].
//!
//! Prints the paper's Figure 2-style breakdown — where the cycles of a
//! warm fast-path malloc/free go — as stall-reason and allocator-component
//! tables, one column set per configuration, plus the malloc-cache event
//! counters and a two-core attribution summary. `--trace` additionally
//! exports a Chrome trace-event JSON (validated against the schema before
//! writing); `--json` exports the same integers the tables print.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, CommonFlags, CommonSpec, ScaleFlag};
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
pub const USAGE: &str = "repro profile [--smoke] [--quick] [--pairs N] [--warmup N] \
    [--mt-calls N] [--seed N] [--jobs N] [--uops N] [--trace PATH] [--json PATH]";

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
    /// Parses the argument list after `profile`. Shared flags are
    /// collected via [`crate::cli`] and applied after the loop, so
    /// explicit sizes win over `--smoke`/`--quick` regardless of flag
    /// order.
    pub fn parse(args: &[String]) -> Result<ProfileArgs, String> {
        let mut parsed = ProfileArgs::default();
        let mut common = CommonFlags::default();
        let mut quick = false;
        let (mut pairs, mut warmup, mut mt_calls, mut uops) = (None, None, None, None);
        let mut i = 0;
        while i < args.len() {
            if cli::take_common(args, &mut i, &CommonSpec::NO_FULL, &mut common)? {
                i += 1;
                continue;
            }
            match args[i].as_str() {
                "--quick" => quick = true,
                "--pairs" => {
                    pairs = Some(cli::int(cli::value(args, &mut i, "--pairs")?, "--pairs")?)
                }
                "--warmup" => {
                    warmup = Some(cli::int(cli::value(args, &mut i, "--warmup")?, "--warmup")?);
                }
                "--mt-calls" => {
                    mt_calls = Some(
                        cli::int(cli::value(args, &mut i, "--mt-calls")?, "--mt-calls")? as usize,
                    );
                }
                "--uops" => {
                    uops = Some(cli::int(cli::value(args, &mut i, "--uops")?, "--uops")? as usize);
                }
                "--trace" => {
                    parsed.trace = Some(PathBuf::from(cli::value(args, &mut i, "--trace")?));
                }
                other => return Err(format!("unknown profile flag {other:?}")),
            }
            i += 1;
        }
        if common.scale == Some(ScaleFlag::Smoke) {
            parsed.pairs = 200;
            parsed.warmup = 50;
            parsed.mt_calls = 60;
            parsed.uops = 128;
        }
        if quick {
            parsed.pairs = 500;
            parsed.warmup = 100;
            parsed.mt_calls = 100;
        }
        if let Some(v) = pairs {
            parsed.pairs = v;
        }
        if let Some(v) = warmup {
            parsed.warmup = v;
        }
        if let Some(v) = mt_calls {
            parsed.mt_calls = v;
        }
        if let Some(v) = uops {
            parsed.uops = v;
        }
        if let Some(seed) = common.seed {
            parsed.seed = seed;
        }
        if let Some(jobs) = common.jobs {
            parsed.jobs = jobs;
        }
        parsed.json = common.json;
        if parsed.pairs == 0 {
            return Err("--pairs must be at least 1".to_string());
        }
        Ok(parsed)
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

/// Runs the per-mode fast-path kernels, in parallel across `jobs`
/// workers. Each mode's simulation is independent and deterministic, so
/// the output is identical for every `jobs` value.
fn run_modes(args: &ProfileArgs) -> Vec<(ModeProfile, Box<Profiler>)> {
    let runs = modes();
    run_indexed(runs.len() as u64, args.jobs, |i| {
        let (mode, label) = runs[i as usize];
        profile_fastpath(mode, label, args.pairs, args.warmup, args.uops)
    })
}

fn render_mt_section(args: &ProfileArgs) -> (String, Json) {
    let trace = MtTrace::producer_consumer(2, args.mt_calls, args.seed);
    let (result, profilers) = profile_multicore(Mode::mallacc_default(), &trace, 0);
    let mut t = Table::new(&[
        "core",
        "ops",
        "op cyc",
        "idle-in-op",
        "outside cyc",
        "violations",
    ]);
    let mut cores_json = Vec::new();
    for p in &profilers {
        let op_cycles: u64 = p.ops().iter().map(|o| o.cycles()).sum();
        let idle: u64 = p.ops().iter().map(|o| o.stall.get(StallReason::Idle)).sum();
        t.row_owned(vec![
            p.tid().to_string(),
            p.ops().len().to_string(),
            op_cycles.to_string(),
            idle.to_string(),
            p.outside().total().to_string(),
            p.conservation_violations().to_string(),
        ]);
        cores_json.push(Json::obj([
            ("core", Json::from(u64::from(p.tid()))),
            ("ops", Json::from(p.ops().len())),
            ("op_cycles", Json::from(op_cycles)),
            ("idle_in_op", Json::from(idle)),
            ("outside_cycles", Json::from(p.outside().total())),
            ("violations", Json::from(p.conservation_violations())),
        ]));
    }
    let text = format!(
        "== two-core attribution (producer/consumer ring, mallacc) ==\n{}",
        t.render()
    );
    let json = Json::obj([
        ("epochs", Json::from(result.epochs)),
        ("cores", Json::Arr(cores_json)),
    ]);
    (text, json)
}

/// Runs `repro profile` and returns `(exit code, report text)`.
pub fn profile_report(args: &ProfileArgs) -> (i32, String) {
    let results = run_modes(args);
    let profiles: Vec<&ModeProfile> = results.iter().map(|(p, _)| p).collect();
    let profilers: Vec<&Profiler> = results.iter().map(|(_, p)| p.as_ref()).collect();
    let labels: Vec<&str> = profiles.iter().map(|p| p.label.as_str()).collect();

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
    let (mt_text, mt_json) = render_mt_section(args);
    out.push_str(&mt_text);

    for (p, profiler) in &results {
        if profiler.conservation_violations() > 0 {
            eprintln!(
                "repro profile: {} conservation violations in mode {}",
                profiler.conservation_violations(),
                p.label
            );
            return (1, out);
        }
    }

    if let Some(path) = &args.trace {
        let doc = chrome_trace(&profilers, &labels);
        if let Err(e) = validate_chrome_trace(&doc) {
            eprintln!("repro profile: emitted trace failed validation: {e}");
            return (1, out);
        }
        if !cli::write_json("profile", path, &doc, &mut out) {
            return (1, out);
        }
    }
    if let Some(path) = &args.json {
        let doc = Json::obj([
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
            ("mt", mt_json),
        ]);
        if !cli::write_json("profile", path, &doc, &mut out) {
            return (1, out);
        }
    }
    (0, out)
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
