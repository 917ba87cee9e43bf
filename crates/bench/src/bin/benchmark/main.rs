//! `benchmark` — the repository benchmark: end-to-end host throughput of
//! the Mallacc simulator on four workloads, and a traced per-layer budget of
//! where its host time goes.
//!
//! ```text
//! benchmark run     [--workload NAME]... [--seed N] [--seconds S]
//!                   [--trace 0|1] [--json PATH] [--chrome PATH]
//! benchmark trace   [same flags as run; tracing on]
//! benchmark check
//! benchmark compare PARENT.json CHANGE.json [PARENT.json CHANGE.json]...
//! ```
//!
//! `run` prints every end-to-end metric of every workload, checks that the
//! simulated results are correct, and ends its standard output with one
//! JSON line: `correct`, `attempted`, `failed` and the `BENCHMARK.json`
//! metrics (per-layer ones with `--trace 1`). `--seconds` and `--trace`
//! are the flags the `BENCHMARK.json` command is run with; `trace` is
//! `run --trace 1`. See `README.md` beside this file for the workloads,
//! the metrics and how the bounds were set.

mod affinity;
mod committed;
mod compare;
mod layers;
mod measure;
mod probe;
mod spec;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use mallacc_stats::Json;

use crate::measure::{Metric, Options, WorkloadRun};
use crate::workload::{Size, Workload};

const USAGE: &str = "usage: benchmark run [--workload NAME]... [--seed N] \
     [--seconds S] [--trace 0|1] [--json PATH] [--chrome PATH]\n\
     \x20      benchmark trace [same flags as run]\n\
     \x20      benchmark check\n\
     \x20      benchmark compare PARENT.json CHANGE.json [PARENT.json CHANGE.json]...";

/// Parsed `run`/`trace` flags.
#[derive(Debug)]
struct RunArgs {
    opts: Options,
    json: Option<PathBuf>,
    chrome: Option<PathBuf>,
}

fn parse_run(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut workloads = Vec::new();
    let mut seed = committed::REFERENCE_SEED;
    let mut seconds = None;
    let mut trace = trace;
    let mut json = None;
    let mut chrome = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))
            .map(String::as_str);
        match flag {
            "--workload" => {
                let v = value?;
                workloads.push(Workload::by_name(v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; pick one of {names:?}")
                })?);
            }
            "--seed" => seed = value?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                let s: f64 = value?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--json" => json = Some(PathBuf::from(value?)),
            "--chrome" => chrome = Some(PathBuf::from(value?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    if chrome.is_some() && !trace {
        return Err("--chrome needs tracing (use `trace` or --trace 1)".to_string());
    }
    Ok(RunArgs {
        opts: Options {
            workloads,
            seed,
            seconds,
            trace,
        },
        json,
        chrome,
    })
}

/// One workload's reported metrics.
type Report = (Workload, Vec<Metric>);

fn print_table(reports: &[Report], trace: bool) {
    println!(
        "{:<16} {:<28} {:>18} {:<9} {:>5}",
        "workload", "metric", "value", "unit", "n"
    );
    for (w, metrics) in reports {
        for m in metrics {
            println!(
                "{:<16} {:<28} {:>18.6} {:<9} {:>5}{}",
                w.name(),
                m.name,
                m.value,
                m.unit,
                m.n,
                if m.estimated { "  (est)" } else { "" }
            );
        }
        if trace {
            let shares: f64 = metrics
                .iter()
                .filter(|m| m.name.starts_with("share."))
                .map(|m| m.value)
                .sum();
            println!("{:<16} shares sum to {shares:.6}", w.name());
        }
    }
}

fn print_digests(runs: &[WorkloadRun]) {
    for run in runs {
        let reference = match run.reference {
            Some(true) => "matches its committed digests",
            Some(false) => "DIFFERS from its committed digests",
            None => "not checked",
        };
        println!(
            "{:<16} reference seed {}: {reference}; {}/{} jobs failed",
            run.workload.name(),
            committed::REFERENCE_SEED,
            run.failed,
            run.attempted
        );
    }
}

/// The `--json` record `compare` reads: every metric of every workload.
fn run_record(opts: &Options, reports: &[Report], correct: bool) -> Json {
    let workloads = reports
        .iter()
        .map(|(w, metrics)| {
            let metrics = metrics
                .iter()
                .map(|m| {
                    let fields = Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::from(m.unit)),
                        ("n", Json::Num(m.n as f64)),
                    ]);
                    (m.name.to_string(), fields)
                })
                .collect();
            (w.name().to_string(), Json::Obj(metrics))
        })
        .collect();
    Json::obj([
        ("schema", Json::from("mallacc-benchmark-run/1")),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// The last stdout line: `correct`, `attempted`, `failed` and the
/// `BENCHMARK.json` metrics. A one-workload run keys metrics by name; a
/// multi-workload run prefixes `workload/`.
fn result_line(spec: &spec::Spec, runs: &[WorkloadRun], reports: &[Report], trace: bool) -> Json {
    let names: Vec<&str> = if trace {
        spec.per_layer.iter().map(|m| m.name.as_str()).collect()
    } else {
        spec.end_to_end.iter().map(|m| m.name.as_str()).collect()
    };
    let mut metrics = Vec::new();
    for (w, all) in reports {
        for name in &names {
            let m = all
                .iter()
                .find(|m| m.name == *name)
                .expect("spec metrics are computed (checked by spec::parse)");
            let key = if reports.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", w.name())
            };
            metrics.push((
                key,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            ));
        }
    }
    let sum = |f: fn(&WorkloadRun) -> u64| Json::Num(runs.iter().map(f).sum::<u64>() as f64);
    Json::obj([
        ("correct", Json::Bool(runs.iter().all(WorkloadRun::correct))),
        ("attempted", sum(|r| r.attempted)),
        ("failed", sum(|r| r.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn write_chrome(path: &PathBuf, runs: &[WorkloadRun]) -> Result<usize, String> {
    let run = runs
        .iter()
        .find(|r| !r.spans().is_empty())
        .ok_or("no traced round recorded spans")?;
    let labels: Vec<String> = run.list.jobs.iter().map(|j| j.label.clone()).collect();
    let doc = layers::chrome_trace(run.spans(), &labels);
    mallacc_prof::chrome::validate_chrome_trace(&doc)
        .map_err(|e| format!("chrome trace fails validation: {e}"))?;
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(run.spans().len())
}

fn cmd_run(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let spec = spec::spec()?;
    let args = parse_run(args, trace)?;
    let opts = &args.opts;
    let rounds: Vec<String> = opts
        .workloads
        .iter()
        .map(|&w| format!("{} {}", w.name(), opts.rounds(w)))
        .collect();
    println!(
        "benchmark: seed {}, timed rounds: {}; tracing {}, rounds pinned in turn to CPUs {:?}",
        opts.seed,
        rounds.join(", "),
        if opts.trace { "on" } else { "off" },
        affinity::cpus()
    );
    let runs = measure::run(opts);
    for run in &runs {
        let (done, planned) = (run.rounds_s.len(), opts.rounds(run.workload));
        if done < planned {
            println!(
                "{:<16} stopped after {done} of {planned} rounds: the host ran slower than the nominal round times",
                run.workload.name()
            );
        }
    }
    let reports: Vec<Report> = runs
        .iter()
        .map(|r| {
            let metrics = if opts.trace { r.layers() } else { r.e2e() };
            (r.workload, metrics)
        })
        .collect();
    print_table(&reports, opts.trace);
    print_digests(&runs);
    if let Some(path) = &args.chrome {
        let n = write_chrome(path, &runs)?;
        println!("chrome trace: {n} spans -> {}", path.display());
    }
    if let Some(path) = &args.json {
        let correct = runs.iter().all(WorkloadRun::correct);
        std::fs::write(path, run_record(opts, &reports, correct).render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        result_line(&spec, &runs, &reports, opts.trace).render()
    );
    Ok(ExitCode::SUCCESS)
}

/// Per-job digests of one round of `list`, untraced or traced.
fn round_digests(list: &workload::JobList, traced: bool) -> Result<Vec<u64>, String> {
    let results = if traced {
        layers::traced_round(list, &mut layers::Recorder::new(), false)
    } else {
        measure::run_jobs(list)
    };
    results
        .into_iter()
        .zip(&list.jobs)
        .map(|(r, j)| {
            r.map(|r| r.digest)
                .ok_or(format!("job {} panicked", j.label))
        })
        .collect()
}

fn cmd_check() -> Result<ExitCode, String> {
    let spec = spec::spec()?;
    println!(
        "BENCHMARK.json: {} workloads, {} end-to-end and {} per-layer metrics follow the rules",
        spec.workloads.len(),
        spec.end_to_end.len(),
        spec.per_layer.len()
    );
    let mut ok = true;
    for w in Workload::ALL {
        let list = workload::JobList::build(w, Size::TINY, committed::REFERENCE_SEED);
        let a = round_digests(&list, false)?;
        let b = round_digests(
            &workload::JobList::build(w, Size::TINY, committed::REFERENCE_SEED),
            false,
        )?;
        let t = round_digests(&list, true)?;
        let same = a == b && a == t;
        ok &= same;
        println!(
            "{:<16} tiny runs repeat and tracing reproduces them: {}",
            w.name(),
            if same { "yes" } else { "NO" }
        );
    }
    for seed in [committed::REFERENCE_SEED, committed::HELD_OUT_SEED] {
        let mut actual = Vec::new();
        for w in Workload::ALL {
            let d = round_digests(&workload::JobList::build(w, Size::FULL, seed), false)?;
            let matches = committed::digests(seed, w).as_ref() == Some(&d);
            ok &= matches;
            println!(
                "{:<16} seed {seed}: {}",
                w.name(),
                if matches {
                    "matches committed digests"
                } else {
                    "DIFFERS from committed digests"
                }
            );
            actual.push((w, d));
        }
        if actual
            .iter()
            .any(|(w, d)| committed::digests(seed, *w).as_ref() != Some(d))
        {
            println!(
                "digests measured at seed {seed}:\n{}",
                committed::render(seed, &actual)
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(files: &[String]) -> Result<ExitCode, String> {
    let spec = spec::spec()?;
    let (report, regressed) = compare::compare(&spec, files)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("trace") => cmd_run(&args[1..], true),
        Some("check") if args.len() == 1 => cmd_check(),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYER_METRICS;
    use crate::workload::{Driver, Input, Job, JobList};
    use mallacc::Mode;
    use mallacc_workloads::MtOp;

    #[test]
    fn benchmark_json_follows_the_rules() {
        let spec = spec::spec().expect("BENCHMARK.json is valid");
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let good = include_str!("../../../../../BENCHMARK.json");
        assert!(spec::parse(good).is_ok());
        for (from, to) in [
            ("\"setup_s\"", "\"setup s\""),
            ("\"calls_per_s\"", "\"uops_per_s\""),
            ("\"per_layer\"", "\"per_layers\""),
            ("\"workloads.gen_s\"", "\"workloads.gen_seconds\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert!(spec::parse(&bad).is_err(), "accepted {from} -> {to}");
        }
    }

    /// The benchmark's own package must build with the repository's
    /// release profile, so that it measures the build users run.
    #[test]
    fn the_package_uses_the_repository_release_profile() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let root = profile(include_str!("../../../../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(root, profile(include_str!("Cargo.toml")));
    }

    #[test]
    fn run_length_is_a_round_count_set_by_the_flags() {
        let opts = |seconds, trace| Options {
            workloads: Workload::ALL.to_vec(),
            seed: 1,
            seconds,
            trace,
        };
        for w in Workload::ALL {
            let n = opts(Some(20.0), false).rounds(w);
            assert_eq!(n, (20.0 / w.nominal_round_s()).round() as usize);
            assert!(opts(Some(20.0), true).rounds(w) < n);
            assert_eq!(opts(Some(0.01), false).rounds(w), 3);
            assert_eq!(opts(None, false).rounds(w), 48);
        }
    }

    #[test]
    fn every_layer_metric_is_computed_in_table_order() {
        let list = JobList::build(Workload::Fleet2Core, Size::TINY, 3);
        let mut rec = layers::Recorder::new();
        layers::traced_round(&list, &mut rec, true);
        let est = layers::estimates(&list);
        let ctx = layers::RunContext {
            gen_s: 0.01,
            untraced_s: 0.1,
            traced_s: 0.12,
            requests: 48,
        };
        let names: Vec<&str> = layers::layer_metrics(&list, &rec.totals, &est, ctx)
            .iter()
            .map(|m| m.name)
            .collect();
        let table: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names, table);
        let doc = layers::chrome_trace(rec.spans(), &[]);
        mallacc_prof::chrome::validate_chrome_trace(&doc).expect("valid chrome trace");
    }

    fn tiny_digests(w: Workload, seed: u64, traced: bool) -> Vec<u64> {
        round_digests(&JobList::build(w, Size::TINY, seed), traced).expect("no job panics")
    }

    #[test]
    fn tiny_runs_repeat_exactly() {
        for w in Workload::ALL {
            assert_eq!(
                tiny_digests(w, 5, false),
                tiny_digests(w, 5, false),
                "{w:?}"
            );
        }
    }

    #[test]
    fn tracing_reproduces_untraced_results() {
        for w in Workload::ALL {
            assert_eq!(tiny_digests(w, 9, false), tiny_digests(w, 9, true), "{w:?}");
        }
    }

    #[test]
    fn an_injected_panic_counts_as_failed_and_the_run_goes_on() {
        let mut list = JobList::build(Workload::Fleet2Core, Size::TINY, 1);
        // Freeing a token that was never allocated panics inside the
        // multicore capture.
        list.inputs.push(Input::Fleet(vec![(
            0,
            MtOp::Free {
                token: 7,
                sized: true,
            },
        )]));
        list.input_names.push("broken");
        list.jobs.push(Job {
            input: list.inputs.len() - 1,
            driver: Driver::Fleet,
            mode: Mode::Baseline,
            label: "broken/baseline".to_string(),
        });
        let jobs = list.jobs.len() as u64;
        let mut run = WorkloadRun::new(Workload::Fleet2Core, list, vec![0.001]);
        let mut probe = probe::Probe::new();
        run.timed_round(&mut probe);
        run.timed_round(&mut probe);
        assert_eq!((run.attempted, run.failed), (2 * jobs, 2));
        assert_eq!(run.rounds_s.len(), 2, "both rounds completed");
        assert!(!run.correct());
        let failed_frac = run
            .e2e()
            .into_iter()
            .find(|m| m.name == "failed_frac")
            .expect("failed_frac is reported")
            .value;
        assert_eq!(failed_frac, 1.0 / jobs as f64);
        // The traced round and its isolation replays fail on the same
        // input, and still report every per-layer metric.
        run.traced_round(false);
        assert_eq!((run.attempted, run.failed), (3 * jobs + 1, 4));
        assert_eq!(run.layers().len(), LAYER_METRICS.len());
    }

    #[test]
    fn run_flags_parse_and_reject_garbage() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let a = parse_run(
            &s(&[
                "--workload",
                "fleet-2core",
                "--seed",
                "3",
                "--seconds",
                "2",
                "--trace",
                "1",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(a.opts.workloads, vec![Workload::Fleet2Core]);
        assert_eq!((a.opts.seed, a.opts.trace), (3, true));
        assert_eq!(a.opts.seconds, Some(2.0));
        assert_eq!(parse_run(&[], false).unwrap().opts.workloads.len(), 4);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--chrome", "x.json"],
            &["--wat", "1"],
        ] {
            assert!(parse_run(&s(bad), false).is_err(), "accepted {bad:?}");
        }
    }
}
