//! The `repro explore` subcommand: design-space sweeps over the
//! accelerator configuration, driven by `mallacc-explore`. Flags:
//! [`COMMAND`].

use std::path::PathBuf;

use crate::cli::{self, Command, Flag};
use mallacc_explore::{run_sweep, ParamGrid, RunScale, SweepOptions};

/// Command line of `repro explore`.
pub const COMMAND: Command = Command {
    name: "explore",
    head: "repro explore",
    flags: &[
        Flag::switch("--smoke"),
        Flag::value("--grid", "SPEC"),
        Flag::value("--preset", "NAME"),
        Flag::switch("--quick"),
        Flag::value("--seed", "N"),
        Flag::value("--jobs", "N"),
        Flag::value("--memo", "PATH"),
        Flag::value("--out", "PATH"),
        Flag::value("--assert-memo-frac", "F"),
    ],
};

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
    /// Parses the argument list after `explore`. The grid is `--smoke`'s,
    /// then `--preset`'s, then `--grid`'s, whichever are given, with
    /// `--quick` and `--seed` applied on top.
    pub fn parse(args: &[String]) -> Result<ExploreArgs, String> {
        let p = COMMAND.parse(args)?;
        let mut grid = if p.has("--smoke") {
            ParamGrid::smoke()
        } else {
            ParamGrid::default()
        };
        p.set("--preset", &mut grid, |_, name| match name {
            "micro-entries" => Ok(ParamGrid::micro_entries()),
            name => Err(format!("unknown preset {name:?}; available: micro-entries")),
        })?;
        p.set("--grid", &mut grid, |_, spec| ParamGrid::parse(spec))?;
        if p.has("--quick") {
            grid.scale = RunScale::quick();
        }
        p.set("--seed", &mut grid.seed, cli::int)?;
        Ok(ExploreArgs {
            grid,
            jobs: p.get("--jobs", cli::int)?.unwrap_or_default(),
            memo: p.get("--memo", cli::path)?,
            out: p.get("--out", cli::path)?,
            assert_memo_frac: p.get("--assert-memo-frac", |flag, v| match v.parse() {
                Ok(frac) if (0.0..=1.0).contains(&frac) => Ok(frac),
                _ => Err(format!("{flag} needs a fraction from 0 to 1, got {v:?}")),
            })?,
        })
    }
}

/// Runs `repro explore` and returns `(exit code, report text)`.
pub fn explore_report(args: &ExploreArgs) -> (i32, String) {
    let opts = SweepOptions {
        jobs: args.jobs,
        memo_path: args.memo.clone(),
    };
    let report = match run_sweep(&args.grid, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repro explore: {e}");
            return (2, String::new());
        }
    };
    // The rendered report ends in a newline; printing the text adds it back.
    let mut out = report.render();
    out.pop();
    if let Some(path) = &args.out {
        if !cli::write_json("explore", path, &report.to_json(), &mut out) {
            return (1, out);
        }
    }
    if let Some(frac) = args.assert_memo_frac {
        let got = report.memo_hit_fraction();
        if got < frac {
            eprintln!("repro explore: memo hit fraction {got:.2} below required {frac:.2}");
            return (1, out);
        }
        out.push_str(&format!(
            "\nmemo hit fraction {got:.2} ≥ required {frac:.2}"
        ));
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
    fn parse_smoke_and_flags() {
        let a = ExploreArgs::parse(&s(&["--smoke", "--jobs", "4", "--assert-memo-frac", "0.9"]))
            .unwrap();
        assert_eq!(a.grid, ParamGrid::smoke());
        assert_eq!(a.jobs, 4);
        assert_eq!(a.assert_memo_frac, Some(0.9));
    }

    #[test]
    fn assert_memo_frac_must_be_a_fraction() {
        let frac = |v: &str| ExploreArgs::parse(&s(&["--assert-memo-frac", v]));
        for bad in ["nan", "-0.1", "1.5"] {
            let err = frac(bad).unwrap_err();
            assert!(err.contains("--assert-memo-frac"), "{bad}: {err}");
        }
        for (good, want) in [("0", 0.0), ("1", 1.0), ("0.9", 0.9)] {
            assert_eq!(frac(good).unwrap().assert_memo_frac, Some(want));
        }
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
        let args = ExploreArgs::parse(&s(&[
            "--grid",
            "entries=4",
            "--quick",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let (code, text) = explore_report(&args);
        assert_eq!(code, 0, "{text}");
        assert!(
            text.ends_with(&format!("\nwrote {}", out.display())),
            "{text}"
        );
        let doc = mallacc_stats::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(mallacc_stats::Json::as_str),
            Some("mallacc-explore-sweep/1")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
