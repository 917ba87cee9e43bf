//! The paper experiments: `repro <experiment>` regenerates one table or
//! figure of the paper's evaluation, and `repro all` every one of them.
//! Flags: [`COMMAND`].
//!
//! `--json PATH` additionally writes the machine-readable datasets of the
//! experiments that have one (fig13, fig14, fig17, table2, mt): the same
//! numbers the text renders, not a re-run.

use std::path::PathBuf;

use crate::cli::{self, Command, Flag};
use crate::{figures, mt, tables, Scale};
use mallacc_stats::Json;

/// Command line of the paper experiments.
pub const COMMAND: Command = Command {
    name: "paper",
    head: "repro <fig1|fig2|fig4|fig6|fig13|fig14|fig15|fig16|fig17|fig18|\
        table1|table2|area|ablate|generality|resilience|sensitivity|sized-delete|cpi|mt|all>",
    flags: &[
        Flag::switch("--quick"),
        Flag::value("--calls", "N"),
        Flag::value("--trials", "N"),
        Flag::value("--seed", "N"),
        Flag::switch("--no-index-opt"),
        Flag::value("--json", "PATH"),
    ],
};

/// Parsed arguments of a paper experiment.
#[derive(Debug, Clone)]
pub struct PaperArgs {
    /// The experiment to run, or `all`.
    pub experiment: String,
    /// Run sizes and base seed.
    pub scale: Scale,
    /// Figure 17's per-class index keying (`--no-index-opt` turns it off).
    pub index_keying: bool,
    /// Machine-readable dataset output file.
    pub json: Option<PathBuf>,
}

/// Runs an experiment: its text and, if it has one, its JSON dataset.
type Experiment = fn(&PaperArgs) -> (String, Option<Json>);

/// Every experiment, in the order `all` runs them. The experiments with
/// structured datasets compute the data once and derive both the text
/// and the JSON from it.
const EXPERIMENTS: [(&str, Experiment); 20] = [
    ("fig1", |a| (figures::fig1(a.scale), None)),
    ("fig2", |a| (figures::fig2(a.scale), None)),
    ("fig4", |a| (figures::fig4(a.scale), None)),
    ("fig6", |a| (figures::fig6(a.scale), None)),
    ("table1", |a| (tables::table1(a.scale), None)),
    ("fig13", |a| {
        let d = figures::improvement_data(a.scale, false);
        (figures::render_fig13(&d), Some(d.to_json()))
    }),
    ("fig14", |a| {
        let d = figures::improvement_data(a.scale, true);
        (figures::render_fig14(&d), Some(d.to_json()))
    }),
    ("fig15", |a| (figures::fig15(a.scale), None)),
    ("fig16", |a| (figures::fig16(a.scale), None)),
    ("fig17", |a| {
        let d = figures::fig17_data(a.scale, a.index_keying);
        (figures::render_fig17(&d), Some(d.to_json()))
    }),
    ("fig18", |a| (figures::fig18(a.scale), None)),
    ("table2", |a| {
        let d = tables::table2_data(a.scale);
        (
            tables::render_table2(&d, a.scale),
            Some(tables::table2_json(&d)),
        )
    }),
    ("area", |_| (tables::area(), None)),
    ("ablate", |a| (figures::ablation(a.scale), None)),
    ("generality", |a| (figures::generality(a.scale), None)),
    ("resilience", |a| (figures::resilience(a.scale), None)),
    ("sensitivity", |a| (figures::sensitivity(a.scale), None)),
    ("sized-delete", |a| (figures::sized_delete(a.scale), None)),
    ("cpi", |a| (figures::cpi(a.scale), None)),
    ("mt", |a| {
        let d = mt::mt_data(a.scale);
        (mt::render_mt(&d), Some(mt::mt_json(&d)))
    }),
];

impl PaperArgs {
    /// Parses `repro`'s arguments: the experiment, then its flags. The
    /// scale is `--quick`'s or the full one, with the explicit values on
    /// top.
    pub fn parse(args: &[String]) -> Result<PaperArgs, String> {
        let (experiment, flags) = args
            .split_first()
            .ok_or_else(|| "missing experiment".to_string())?;
        let p = COMMAND.parse(flags)?;
        let mut scale = if p.has("--quick") {
            Scale::quick()
        } else {
            Scale::full()
        };
        p.set("--calls", &mut scale.calls, cli::int)?;
        p.set("--trials", &mut scale.trials, cli::int)?;
        p.set("--seed", &mut scale.seed, cli::int)?;
        if scale.calls == 0 {
            return Err("--calls must be at least 1".to_string());
        }
        if scale.trials == 0 {
            return Err("--trials must be at least 1".to_string());
        }
        if experiment != "all" && !EXPERIMENTS.iter().any(|(name, _)| name == experiment) {
            return Err(format!("unknown experiment {experiment:?}"));
        }
        Ok(PaperArgs {
            experiment: experiment.clone(),
            scale,
            index_keying: !p.has("--no-index-opt"),
            json: p.get("--json", cli::path)?,
        })
    }
}

/// Runs the paper experiment(s) `args` names and returns `(exit code,
/// report text)`. `all` follows every experiment with a blank line.
pub fn paper_report(args: &PaperArgs) -> (i32, String) {
    let all = args.experiment == "all";
    let mut texts = Vec::new();
    let mut datasets = Vec::new();
    for (name, run) in EXPERIMENTS {
        if all || name == args.experiment {
            let (text, data) = run(args);
            texts.push(text);
            if let Some(data) = data {
                datasets.push((name.to_string(), data));
            }
        }
    }
    let mut out = texts.join("\n\n");
    if all {
        out.push('\n');
    }
    cli::finish(&args.experiment, out, true, args.json.as_deref(), || {
        Json::obj([
            ("schema", "mallacc-repro/1".into()),
            (
                "scale",
                Json::obj([
                    ("calls", args.scale.calls.into()),
                    ("warmup", args.scale.warmup.into()),
                    ("trials", args.scale.trials.into()),
                    ("seed", args.scale.seed.into()),
                ]),
            ),
            ("experiments", Json::Obj(datasets)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<PaperArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        PaperArgs::parse(&args)
    }

    #[test]
    fn zero_calls_or_trials_are_rejected() {
        assert_eq!(
            parse("fig13 --calls 0").unwrap_err(),
            "--calls must be at least 1"
        );
        assert_eq!(
            parse("table2 --quick --trials 0").unwrap_err(),
            "--trials must be at least 1"
        );
    }

    #[test]
    fn unknown_experiments_and_flags_are_rejected() {
        assert_eq!(parse("fig99").unwrap_err(), "unknown experiment \"fig99\"");
        assert_eq!(
            parse("fig13 --nope").unwrap_err(),
            "unknown paper flag \"--nope\""
        );
        assert_eq!(parse("").unwrap_err(), "missing experiment");
    }

    #[test]
    fn one_experiment_reports_itself_and_writes_its_dataset() {
        let dir = std::env::temp_dir().join(format!("repro-paper-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("paper.json");
        let a = parse(&format!(
            "fig13 --quick --calls 100 --json {}",
            json.display()
        ))
        .unwrap();
        let (code, text) = paper_report(&a);
        assert_eq!(code, 0, "{text}");
        assert!(text.starts_with("Figure 13"), "{text}");
        assert!(
            text.ends_with(&format!("\nwrote {}", json.display())),
            "{text}"
        );
        let doc = mallacc_stats::json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mallacc-repro/1")
        );
        let experiments = doc.get("experiments").unwrap();
        assert!(experiments.get("fig13").is_some());
        assert!(experiments.get("fig14").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
