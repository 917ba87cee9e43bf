//! Shared flag plumbing for the `repro` subcommands.
//!
//! Every subcommand CLI (`explore`, `profile`, `validate`, `fleet`,
//! `offload`, plus the generic experiment path serving `mt` and the
//! figures/tables) accepts some subset of the same flags — `--smoke`,
//! `--full`, `--seed N`, `--jobs N`, `--json PATH` — and before this
//! module each carried its own copy of the cursor/value/integer
//! boilerplate; they drifted in error wording and in which flags were
//! recognised. The shared pieces live here:
//!
//! * [`value`] / [`int`] — the flag-value cursor helpers;
//! * [`CommonFlags`] + [`take_common`] — one-pass recognition of the
//!   shared flags, gated per subcommand by a [`CommonSpec`] so a CLI
//!   that never had `--full` or `--json` keeps rejecting them;
//! * [`substrate`] / [`workload`] / [`scenario`] / [`counts`] — the
//!   flag values more than one subcommand takes;
//! * [`run`] / [`write_json`] — the parse → report → print entry point
//!   and the `--json` write every report shares;
//! * [`run_indexed`] — the strided-worker slot runner behind every
//!   "byte-identical across `--jobs`" report.
//!
//! The shared flags are *collected*, not applied: each CLI applies
//! `scale` first and explicit overrides after, so `--smoke --fuzz 7`
//! and `--fuzz 7 --smoke` both mean "smoke scale, but 7 fuzz slots".

use std::path::{Path, PathBuf};

use mallacc_fleet::Scenario;
use mallacc_stats::Json;
use mallacc_substrate::SubstrateKind;
use mallacc_workloads::AnyWorkload;

/// The run scale selected by `--smoke`/`--full` (whichever came last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFlag {
    /// CI-sized runs.
    Smoke,
    /// Paper-sized runs.
    Full,
}

/// Values of the shared subcommand flags, as collected by
/// [`take_common`]. `None` means the flag did not appear.
#[derive(Debug, Clone, Default)]
pub struct CommonFlags {
    /// `--smoke`/`--full`.
    pub scale: Option<ScaleFlag>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--json PATH`.
    pub json: Option<PathBuf>,
}

/// Which shared flags a subcommand accepts. Disabled flags fall through
/// [`take_common`] to the subcommand's own matcher, which rejects them
/// as unknown — preserving each CLI's historical surface.
#[derive(Debug, Clone, Copy)]
pub struct CommonSpec {
    /// Accept `--smoke`.
    pub smoke: bool,
    /// Accept `--full`.
    pub full: bool,
    /// Accept `--seed`.
    pub seed: bool,
    /// Accept `--jobs`.
    pub jobs: bool,
    /// Accept `--json`.
    pub json: bool,
}

impl CommonSpec {
    /// Every shared flag enabled (`validate`, `fleet`, `offload`).
    pub const ALL: CommonSpec = CommonSpec {
        smoke: true,
        full: true,
        seed: true,
        jobs: true,
        json: true,
    };

    /// Everything but `--full` (`profile`, whose second scale is
    /// `--quick`).
    pub const NO_FULL: CommonSpec = CommonSpec {
        full: false,
        ..CommonSpec::ALL
    };

    /// Only `--smoke`, `--seed` and `--jobs` (`explore`, whose output
    /// file is `--out` and whose scales are grid presets).
    pub const SMOKE_SEED_JOBS: CommonSpec = CommonSpec {
        smoke: true,
        full: false,
        seed: true,
        jobs: true,
        json: false,
    };

    /// Only `--seed` and `--json` (the generic experiment path in the
    /// `repro` binary — `mt`, the figures and the tables — whose scale
    /// flag is `--quick` and which runs serially, so no `--jobs`).
    pub const SEED_JSON: CommonSpec = CommonSpec {
        smoke: false,
        full: false,
        seed: true,
        jobs: false,
        json: true,
    };
}

/// Fetches the value of the flag at `args[*i]`, advancing the cursor
/// past it.
pub fn value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses an integer flag value.
pub fn int(v: String, flag: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("{flag} needs an integer"))
}

/// Parses a comma-separated list of counts, each in `1..=64` (the core
/// and queue-depth caps).
pub fn counts(v: String, flag: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|part| match part.trim().parse::<usize>() {
            Ok(n) if (1..=64).contains(&n) => Ok(n),
            Ok(_) => Err(format!("{flag}: values must be in 1..=64")),
            Err(_) => Err(format!("{flag}: bad value {part:?}")),
        })
        .collect()
}

/// Resolves a `--substrate` value.
pub fn substrate(name: &str) -> Result<SubstrateKind, String> {
    SubstrateKind::by_name(name).ok_or_else(|| {
        unknown(
            "substrate",
            name,
            SubstrateKind::ALL.map(SubstrateKind::name),
        )
    })
}

/// Resolves a `--workload` value.
pub fn workload(name: &str) -> Result<AnyWorkload, String> {
    AnyWorkload::by_name(name).ok_or_else(|| unknown("workload", name, AnyWorkload::all_names()))
}

/// Resolves a `--scenario` value.
pub fn scenario(name: &str) -> Result<&'static Scenario, String> {
    Scenario::by_name(name)
        .ok_or_else(|| unknown("scenario", name, Scenario::all().iter().map(|s| s.name)))
}

fn unknown<'a>(what: &str, name: &str, known: impl IntoIterator<Item = &'a str>) -> String {
    let known: Vec<&str> = known.into_iter().collect();
    format!("unknown {what} {name:?} (available: {})", known.join(", "))
}

/// The `repro <cmd>` entry point of a report subcommand: parses `args`,
/// prints the report and returns its exit code, or prints the parse
/// error and returns 2.
pub fn run<A>(
    cmd: &str,
    args: &[String],
    parse: fn(&[String]) -> Result<A, String>,
    report: fn(&A) -> (i32, String),
) -> i32 {
    match parse(args) {
        Ok(parsed) => {
            let (code, text) = report(&parsed);
            println!("{text}");
            code
        }
        Err(e) => {
            eprintln!("repro {cmd}: {e}");
            2
        }
    }
}

/// Writes `doc` to `path` and appends a `wrote PATH` line to the report
/// `out`. On failure, prints the error and returns `false`: the report
/// then exits 1.
pub fn write_json(cmd: &str, path: &Path, doc: &Json, out: &mut String) -> bool {
    match std::fs::write(path, doc.render_pretty()) {
        Ok(()) => {
            out.push_str(&format!("\nwrote {}", path.display()));
            true
        }
        Err(e) => {
            eprintln!("repro {cmd}: writing {}: {e}", path.display());
            false
        }
    }
}

/// If `args[*i]` is a shared flag `spec` enables, consumes it (and its
/// value) into `flags` and returns `true`; otherwise leaves the cursor
/// untouched and returns `false` so the caller's matcher runs.
pub fn take_common(
    args: &[String],
    i: &mut usize,
    spec: &CommonSpec,
    flags: &mut CommonFlags,
) -> Result<bool, String> {
    match args[*i].as_str() {
        "--smoke" if spec.smoke => flags.scale = Some(ScaleFlag::Smoke),
        "--full" if spec.full => flags.scale = Some(ScaleFlag::Full),
        "--seed" if spec.seed => flags.seed = Some(int(value(args, i, "--seed")?, "--seed")?),
        "--jobs" if spec.jobs => {
            flags.jobs = Some(int(value(args, i, "--jobs")?, "--jobs")? as usize);
        }
        "--json" if spec.json => flags.json = Some(PathBuf::from(value(args, i, "--json")?)),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Runs `total` independent slots, optionally across `jobs` workers, and
/// merges results in slot order. Each slot's result must be a pure
/// function of its index, so the merged output is identical for every
/// `jobs` value — the invariant behind every jobs-invariance golden.
pub fn run_indexed<T: Send>(total: u64, jobs: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let total = total as usize;
    if jobs <= 1 || total <= 1 {
        return (0..total as u64).map(f).collect();
    }
    let workers = jobs.min(total);
    // Worker w takes indices w, w+workers, w+2*workers, … and keeps its
    // results tagged by index; the merge below restores slot order.
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || {
                    (w..total)
                        .step_by(workers)
                        .map(|i| (i, f(i as u64)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for chunk in per_worker {
        for (i, value) in chunk {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn common_flags_are_collected_and_gated() {
        let args = s(&[
            "--smoke", "--seed", "7", "--jobs", "4", "--json", "out.json",
        ]);
        let mut flags = CommonFlags::default();
        let mut i = 0;
        while i < args.len() {
            assert!(take_common(&args, &mut i, &CommonSpec::ALL, &mut flags).unwrap());
            i += 1;
        }
        assert_eq!(flags.scale, Some(ScaleFlag::Smoke));
        assert_eq!(flags.seed, Some(7));
        assert_eq!(flags.jobs, Some(4));
        assert_eq!(
            flags.json.as_deref().and_then(|p| p.to_str()),
            Some("out.json")
        );

        // A disabled flag falls through to the caller untouched.
        let args = s(&["--json", "out.json"]);
        let mut i = 0;
        let taken = take_common(&args, &mut i, &CommonSpec::SMOKE_SEED_JOBS, &mut flags).unwrap();
        assert!(!taken);
        assert_eq!(i, 0, "cursor must not move on fall-through");
    }

    #[test]
    fn last_scale_flag_wins() {
        let args = s(&["--smoke", "--full"]);
        let mut flags = CommonFlags::default();
        let mut i = 0;
        while i < args.len() {
            assert!(take_common(&args, &mut i, &CommonSpec::ALL, &mut flags).unwrap());
            i += 1;
        }
        assert_eq!(flags.scale, Some(ScaleFlag::Full));
    }

    #[test]
    fn missing_values_error_with_the_flag_name() {
        let args = s(&["--seed"]);
        let mut flags = CommonFlags::default();
        let mut i = 0;
        let err = take_common(&args, &mut i, &CommonSpec::ALL, &mut flags).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert_eq!(
            int("x".to_string(), "--n").unwrap_err(),
            "--n needs an integer"
        );
    }

    /// Asserts that `usage` names exactly the flags its parser knows:
    /// every flag it names reaches the parser, and so does no flag it
    /// leaves out, whether matched in the parser's `source` or shared.
    fn assert_usage_matches<A>(
        usage: &str,
        source: &str,
        parse: fn(&[String]) -> Result<A, String>,
    ) {
        let named: Vec<&str> = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        // A value flag without its value errs with "needs a value".
        let unknown = |flag: &str| parse(&s(&[flag])).is_err_and(|e| e.starts_with("unknown"));
        for flag in &named {
            assert!(!unknown(flag), "{usage}\nthe parser rejects {flag}");
        }
        let matched = source.split("\"--").skip(1).filter_map(|rest| {
            let (name, after) = rest.split_once('"')?;
            after.starts_with(" =>").then(|| format!("--{name}"))
        });
        let shared = ["--smoke", "--full", "--seed", "--jobs", "--json"]
            .into_iter()
            .filter(|flag| !unknown(flag))
            .map(String::from);
        for flag in matched.chain(shared) {
            assert!(named.contains(&flag.as_str()), "{usage}\nleaves out {flag}");
        }
    }

    #[test]
    fn usage_lines_name_exactly_the_parsed_flags() {
        use crate::{
            explore_cli, fleet_cli, offload_cli, profile_cli, sample_cli, substrate_cli,
            validate_cli,
        };
        assert_usage_matches(
            explore_cli::USAGE,
            include_str!("explore_cli.rs"),
            explore_cli::ExploreArgs::parse,
        );
        assert_usage_matches(
            fleet_cli::USAGE,
            include_str!("fleet_cli.rs"),
            fleet_cli::FleetArgs::parse,
        );
        assert_usage_matches(
            offload_cli::USAGE,
            include_str!("offload_cli.rs"),
            offload_cli::OffloadArgs::parse,
        );
        assert_usage_matches(
            profile_cli::USAGE,
            include_str!("profile_cli.rs"),
            profile_cli::ProfileArgs::parse,
        );
        assert_usage_matches(
            sample_cli::USAGE,
            include_str!("sample_cli.rs"),
            sample_cli::SampleArgs::parse,
        );
        assert_usage_matches(
            substrate_cli::USAGE,
            include_str!("substrate_cli.rs"),
            substrate_cli::SubstrateArgs::parse,
        );
        assert_usage_matches(
            validate_cli::USAGE,
            include_str!("validate_cli.rs"),
            validate_cli::ValidateArgs::parse,
        );
    }

    #[test]
    fn run_indexed_is_jobs_invariant() {
        let f = |i: u64| i * i + 1;
        let serial = run_indexed(23, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(23, jobs, f), serial, "jobs={jobs}");
        }
        assert!(run_indexed(0, 4, f).is_empty());
    }
}
