//! `bench_check`: the committed-benchmark gate CI runs on every push.
//!
//! ```text
//! bench_check [--dir PATH] [--measure] [--trials N]
//! ```
//!
//! Discovers every `BENCH_*.json` at the repo root by glob and validates
//! each one: schema tag derived from the file name, fixture block,
//! non-empty results with positive medians and rates. Known files get
//! extra file-specific checks — `BENCH_sim.json`'s recorded
//! sampled-over-full speedup must match its own medians — and the three
//! original baselines (`fleet`, `offload`, `sim`) plus `substrate` must
//! exist; a new `BENCH_foo.json` is picked up and schema-checked with no
//! code change here.
//!
//! With `--measure`, additionally re-times the pinned sim fixture
//! in-process (see [`mallacc_bench::sim_fixture`]) and fails if the
//! measured sampled-over-full speedup has regressed more than 10 % below
//! the committed ratio. The committed ratio is a median of per-run
//! medians, so the measured one is a median too: of the full/sampled
//! ratios of at least [`MIN_TRIALS`] interleaved trial pairs, each of
//! which is printed. The gate compares *ratios*, never absolute
//! wall-clock: absolutes drift across hosts, the ratio is a property of
//! the engine's fast-forward path.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mallacc_bench::cli::{self, Command, Flag};
use mallacc_bench::sim_fixture;
use mallacc_stats::json::{self, Json};

/// Fractional speedup-ratio loss tolerated before `--measure` fails.
const RATIO_REGRESSION_TOL: f64 = 0.10;

/// The fewest trial pairs `--measure` takes the median of: one noisy
/// pair in nine cannot move it.
const MIN_TRIALS: usize = 9;

/// Command line of `bench_check`.
const COMMAND: Command = Command {
    name: "bench_check",
    head: "bench_check",
    flags: &[
        Flag::value("--dir", "PATH"),
        Flag::switch("--measure"),
        Flag::value("--trials", "N"),
    ],
};

struct Args {
    dir: PathBuf,
    measure: bool,
    trials: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let p = COMMAND.parse(args)?;
    let trials = p
        .get("--trials", |_, v| {
            v.parse().map_err(|_| format!("bad --trials {v:?}"))
        })?
        .unwrap_or(MIN_TRIALS);
    if trials < MIN_TRIALS {
        return Err(format!("--trials must be at least {MIN_TRIALS}"));
    }
    Ok(Args {
        dir: p
            .get("--dir", cli::path)?
            .unwrap_or_else(|| PathBuf::from(".")),
        measure: p.has("--measure"),
        trials,
    })
}

fn need<'a>(doc: &'a Json, key: &str, file: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("{file}: missing key {key:?}"))
}

fn need_str<'a>(doc: &'a Json, key: &str, file: &str) -> Result<&'a str, String> {
    need(doc, key, file)?
        .as_str()
        .ok_or_else(|| format!("{file}: {key:?} must be a string"))
}

fn need_pos(doc: &Json, key: &str, file: &str) -> Result<f64, String> {
    let v = need(doc, key, file)?
        .as_f64()
        .ok_or_else(|| format!("{file}: {key:?} must be a number"))?;
    if v > 0.0 {
        Ok(v)
    } else {
        Err(format!("{file}: {key:?} must be positive, got {v}"))
    }
}

/// Checks the layout every `BENCH_*.json` shares: schema tag, bench
/// command, note, and a non-empty result list whose rows carry an id,
/// exactly one positive `median_*` duration, and a positive rate.
/// Returns the rows for file-specific checks.
fn check_common<'a>(doc: &'a Json, file: &str, schema: &str) -> Result<&'a [Json], String> {
    let tag = need_str(doc, "schema", file)?;
    if tag != schema {
        return Err(format!("{file}: schema is {tag:?}, expected {schema:?}"));
    }
    let bench = need_str(doc, "bench", file)?;
    if !bench.starts_with("cargo bench") {
        return Err(format!("{file}: bench command {bench:?} looks wrong"));
    }
    need_str(doc, "metric", file)?;
    need_str(doc, "note", file)?;
    let results = need(doc, "results", file)?
        .as_arr()
        .ok_or_else(|| format!("{file}: results must be an array"))?;
    if results.is_empty() {
        return Err(format!("{file}: results must not be empty"));
    }
    for row in results {
        let id = need_str(row, "id", file)?;
        let medians = ["median_ms", "median_us"]
            .iter()
            .filter(|k| row.get(k).is_some())
            .count();
        if medians != 1 {
            return Err(format!(
                "{file}: result {id:?} needs exactly one median_ms/median_us"
            ));
        }
        for key in ["median_ms", "median_us", "uops_per_sec", "elements_per_sec"] {
            if row.get(key).is_some() {
                need_pos(row, key, file)?;
            }
        }
        let rates = ["uops_per_sec", "elements_per_sec"]
            .iter()
            .filter(|k| row.get(k).is_some())
            .count();
        if rates != 1 {
            return Err(format!(
                "{file}: result {id:?} needs exactly one uops_per_sec/elements_per_sec"
            ));
        }
    }
    Ok(results)
}

fn load(dir: &Path, file: &str) -> Result<Json, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text)
        .map_err(|e| format!("{file}: invalid JSON at offset {}: {}", e.offset, e.message))
}

/// Baselines that must exist at the root (discovery finding extras is
/// fine; one of these missing is a broken checkout).
const REQUIRED: [&str; 4] = [
    "BENCH_fleet.json",
    "BENCH_offload.json",
    "BENCH_sim.json",
    "BENCH_substrate.json",
];

/// Every `BENCH_*.json` directly under `dir`, sorted by name.
fn discover(dir: &Path) -> Result<Vec<String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    files.sort();
    for required in REQUIRED {
        if !files.iter().any(|f| f == required) {
            return Err(format!("required baseline {required} is missing"));
        }
    }
    Ok(files)
}

/// The schema tag a baseline's file name pins: `BENCH_foo.json` must
/// declare `mallacc-bench-foo/1`.
fn expected_schema(file: &str) -> String {
    let stem = file.trim_start_matches("BENCH_").trim_end_matches(".json");
    format!("mallacc-bench-{stem}/1")
}

fn check_fleet(dir: &Path) -> Result<(), String> {
    let doc = load(dir, "BENCH_fleet.json")?;
    check_common(&doc, "BENCH_fleet.json", "mallacc-bench-fleet/1")?;
    need(&doc, "fixture", "BENCH_fleet.json")?;
    Ok(())
}

fn check_offload(dir: &Path) -> Result<(), String> {
    let doc = load(dir, "BENCH_offload.json")?;
    check_common(&doc, "BENCH_offload.json", "mallacc-bench-offload/1")?;
    need(&doc, "fixtures", "BENCH_offload.json")?;
    Ok(())
}

/// Validates `BENCH_substrate.json`: common layout plus one result per
/// substrate × {baseline, mallacc}.
fn check_substrate(dir: &Path) -> Result<(), String> {
    let file = "BENCH_substrate.json";
    let doc = load(dir, file)?;
    let results = check_common(&doc, file, "mallacc-bench-substrate/1")?;
    need(&doc, "fixture", file)?;
    for kind in ["tcmalloc", "jemalloc", "rpmalloc", "percpu"] {
        for mode in ["baseline", "mallacc"] {
            let id = format!("substrate/simulated_calls/{kind}/{mode}");
            if !results
                .iter()
                .any(|r| r.get("id").and_then(Json::as_str) == Some(id.as_str()))
            {
                return Err(format!("{file}: missing result {id:?}"));
            }
        }
    }
    Ok(())
}

/// Validates a discovered baseline with no file-specific checker: the
/// common layout against the schema its name pins.
fn check_generic(dir: &Path, file: &str) -> Result<(), String> {
    let doc = load(dir, file)?;
    check_common(&doc, file, &expected_schema(file))?;
    Ok(())
}

/// Validates `BENCH_sim.json` and returns its committed
/// sampled-over-full speedup ratio for the regression gate.
fn check_sim(dir: &Path) -> Result<f64, String> {
    let file = "BENCH_sim.json";
    let doc = load(dir, file)?;
    let results = check_common(&doc, file, "mallacc-bench-sim/1")?;
    let fixture = need(&doc, "fixture", file)?;
    for key in ["workload", "plan"] {
        need_str(fixture, key, file)?;
    }
    for key in ["mallocs", "seed"] {
        need_pos(fixture, key, file)?;
    }

    let median_of = |id: &str| -> Result<f64, String> {
        results
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
            .ok_or_else(|| format!("{file}: missing result {id:?}"))
            .and_then(|r| need_pos(r, "median_ms", file))
    };
    let full = median_of("sim/engine_uops/full")?;
    let sampled = median_of("sim/engine_uops/sampled")?;
    let ratio = need_pos(&doc, "sampled_over_full_speedup", file)?;
    let from_medians = full / sampled;
    if (ratio - from_medians).abs() > 0.05 {
        return Err(format!(
            "{file}: sampled_over_full_speedup {ratio:.2} disagrees with its own \
             medians ({full:.3} ms / {sampled:.3} ms = {from_medians:.2})"
        ));
    }
    Ok(ratio)
}

/// Runs the checks, printing the report as it goes, so the measured
/// trials are on stdout even when the gate fails.
fn run(args: &Args) -> Result<(), String> {
    let files = discover(&args.dir)?;
    let mut committed = 0.0;
    for file in &files {
        match file.as_str() {
            "BENCH_fleet.json" => check_fleet(&args.dir)?,
            "BENCH_offload.json" => check_offload(&args.dir)?,
            "BENCH_sim.json" => committed = check_sim(&args.dir)?,
            "BENCH_substrate.json" => check_substrate(&args.dir)?,
            other => check_generic(&args.dir, other)?,
        }
    }
    println!(
        "bench_check: {} baseline files ok (committed sim speedup {committed:.2}x)",
        files.len()
    );
    if args.measure {
        let m = sim_fixture::quick_speedup(args.trials);
        let trials = m.full_ms.iter().zip(&m.sampled_ms).zip(m.ratios());
        for (i, ((full, sampled), ratio)) in trials.enumerate() {
            println!(
                "bench_check: trial {}: full {full:.3} ms, sampled {sampled:.3} ms -> {ratio:.2}x",
                i + 1
            );
        }
        println!(
            "bench_check: measured speedup {:.2}x over {} uops (median of {} trial ratios)",
            m.ratio(),
            m.uops,
            args.trials
        );
        let floor = committed * (1.0 - RATIO_REGRESSION_TOL);
        if m.ratio() < floor {
            return Err(format!(
                "sim speedup regression: measured {:.2}x is more than {:.0}% below \
                 the committed {committed:.2}x (floor {floor:.2}x)",
                m.ratio(),
                100.0 * RATIO_REGRESSION_TOL
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_check: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The committed baselines at the repo root must always validate —
    /// this is the same check CI runs, wired as a test so a malformed
    /// edit fails locally first.
    #[test]
    fn committed_baselines_validate() {
        let files = discover(&repo_root()).unwrap();
        assert!(files.len() >= REQUIRED.len(), "found: {files:?}");
        check_fleet(&repo_root()).unwrap();
        check_offload(&repo_root()).unwrap();
        check_substrate(&repo_root()).unwrap();
        let ratio = check_sim(&repo_root()).unwrap();
        assert!(ratio > 1.0, "committed sim speedup should beat full detail");
    }

    #[test]
    fn discovery_enforces_required_files_and_schema_naming() {
        let dir = std::env::temp_dir().join("bench_check_discover_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Missing required files must fail discovery outright.
        let err = discover(&dir).unwrap_err();
        assert!(err.contains("missing"), "unexpected error: {err}");
        // A novel baseline is schema-checked against its file name.
        assert_eq!(
            expected_schema("BENCH_widget.json"),
            "mallacc-bench-widget/1"
        );
        std::fs::write(
            dir.join("BENCH_widget.json"),
            r#"{"schema": "mallacc-bench-gadget/1"}"#,
        )
        .unwrap();
        let err = check_generic(&dir, "BENCH_widget.json").unwrap_err();
        assert!(err.contains("schema"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flags_parse_and_reject_garbage() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let a = parse_args(&s(&["--measure", "--trials", "11", "--dir", "x"])).unwrap();
        assert!(a.measure);
        assert_eq!(a.trials, 11);
        assert_eq!(a.dir, PathBuf::from("x"));
        assert_eq!(parse_args(&[]).unwrap().trials, MIN_TRIALS);
        assert!(parse_args(&s(&["--trials", "0"])).is_err());
        assert!(parse_args(&s(&["--trials", "8"])).is_err());
        assert!(parse_args(&s(&["--wat"])).is_err());
    }

    #[test]
    fn schema_violations_are_caught() {
        let dir = std::env::temp_dir().join("bench_check_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_fleet.json"),
            r#"{"schema": "mallacc-bench-fleet/2"}"#,
        )
        .unwrap();
        let err = check_fleet(&dir).unwrap_err();
        assert!(err.contains("schema"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
