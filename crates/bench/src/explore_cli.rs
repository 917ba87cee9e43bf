//! The `repro explore` subcommand: design-space sweeps over the
//! accelerator configuration, driven by `mallacc-explore`. Flags:
//! [`USAGE`].

use std::path::PathBuf;

use crate::cli::{self, CommonFlags, CommonSpec, ScaleFlag};
use mallacc_explore::{run_sweep, ParamGrid, RunScale, SweepOptions};

/// Command line of `repro explore`.
pub const USAGE: &str = "repro explore [--smoke] [--grid SPEC] [--preset NAME] [--quick] \
    [--seed N] [--jobs N] [--memo PATH] [--out PATH] [--assert-memo-frac F]";

/// Parsed `repro explore` arguments.
#[derive(Debug, Clone, Default)]
pub struct ExploreArgs {
    /// The sweep grid.
    pub grid: ParamGrid,
    /// Worker threads (0 = one per CPU).
    pub jobs: usize,
    /// Memo-store file.
    pub memo: Option<PathBuf>,
    /// JSON report output file.
    pub out: Option<PathBuf>,
    /// Fail unless at least this fraction of points came from the memo
    /// store (the CI warm-cache assertion).
    pub assert_memo_frac: Option<f64>,
}

impl ExploreArgs {
    /// Parses the argument list after `explore`. Shared flags are
    /// collected via [`crate::cli`] and applied after the loop, so an
    /// explicit `--grid`/`--preset` wins over `--smoke` regardless of
    /// flag order.
    pub fn parse(args: &[String]) -> Result<ExploreArgs, String> {
        let mut parsed = ExploreArgs {
            grid: ParamGrid::default(),
            ..ExploreArgs::default()
        };
        let mut common = CommonFlags::default();
        let mut quick = false;
        let mut grid_spec: Option<String> = None;
        let mut preset: Option<String> = None;
        let mut i = 0;
        while i < args.len() {
            if cli::take_common(args, &mut i, &CommonSpec::SMOKE_SEED_JOBS, &mut common)? {
                i += 1;
                continue;
            }
            match args[i].as_str() {
                "--grid" => grid_spec = Some(cli::value(args, &mut i, "--grid")?),
                "--preset" => preset = Some(cli::value(args, &mut i, "--preset")?),
                "--quick" => quick = true,
                "--memo" => parsed.memo = Some(PathBuf::from(cli::value(args, &mut i, "--memo")?)),
                "--out" => parsed.out = Some(PathBuf::from(cli::value(args, &mut i, "--out")?)),
                "--assert-memo-frac" => {
                    parsed.assert_memo_frac = Some(
                        cli::value(args, &mut i, "--assert-memo-frac")?
                            .parse::<f64>()
                            .map_err(|_| "--assert-memo-frac needs a number".to_string())?,
                    );
                }
                other => return Err(format!("unknown explore flag {other:?}")),
            }
            i += 1;
        }
        if common.scale == Some(ScaleFlag::Smoke) {
            parsed.grid = ParamGrid::smoke();
        }
        if let Some(name) = preset {
            parsed.grid = match name.as_str() {
                "micro-entries" => ParamGrid::micro_entries(),
                name => return Err(format!("unknown preset {name:?}; available: micro-entries")),
            };
        }
        if let Some(spec) = grid_spec {
            parsed.grid = ParamGrid::parse(&spec)?;
        }
        if quick {
            parsed.grid.scale = RunScale::quick();
        }
        if let Some(seed) = common.seed {
            parsed.grid.seed = seed;
        }
        if let Some(jobs) = common.jobs {
            parsed.jobs = jobs;
        }
        Ok(parsed)
    }
}

/// Runs `repro explore`; returns the process exit code.
pub fn explore(args: &[String]) -> i32 {
    let parsed = match ExploreArgs::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro explore: {e}");
            return 2;
        }
    };
    let opts = SweepOptions {
        jobs: parsed.jobs,
        memo_path: parsed.memo.clone(),
    };
    let report = match run_sweep(&parsed.grid, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repro explore: {e}");
            return 2;
        }
    };
    print!("{}", report.render());
    if let Some(out) = &parsed.out {
        if let Err(e) = std::fs::write(out, report.to_json().render_pretty()) {
            eprintln!("repro explore: writing {}: {e}", out.display());
            return 1;
        }
        println!("wrote {}", out.display());
    }
    if let Some(frac) = parsed.assert_memo_frac {
        let got = report.memo_hit_fraction();
        if got < frac {
            eprintln!("repro explore: memo hit fraction {got:.2} below required {frac:.2}");
            return 1;
        }
        println!("memo hit fraction {got:.2} ≥ required {frac:.2}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_smoke_and_flags() {
        let a = ExploreArgs::parse(&s(&["--smoke", "--jobs", "4", "--assert-memo-frac", "0.9"]))
            .unwrap();
        assert_eq!(a.grid, ParamGrid::smoke());
        assert_eq!(a.jobs, 4);
        assert_eq!(a.assert_memo_frac, Some(0.9));
    }

    #[test]
    fn parse_grid_spec_with_quick_and_seed() {
        let a =
            ExploreArgs::parse(&s(&["--grid", "entries=2,4", "--quick", "--seed", "7"])).unwrap();
        assert_eq!(a.grid.entries, vec![2, 4]);
        assert_eq!(a.grid.scale, RunScale::quick());
        assert_eq!(a.grid.seed, 7);
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(ExploreArgs::parse(&s(&["--frobnicate"])).is_err());
        assert!(ExploreArgs::parse(&s(&["--grid"])).is_err());
        assert!(ExploreArgs::parse(&s(&["--preset", "nope"])).is_err());
    }

    #[test]
    fn explore_smoke_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("repro-explore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let code = explore(&s(&[
            "--grid",
            "entries=4",
            "--quick",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        let doc = mallacc_stats::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(mallacc_stats::Json::as_str),
            Some("mallacc-explore-sweep/1")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
