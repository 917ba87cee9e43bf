//! `repro` — regenerate every table and figure of the Mallacc paper.
//!
//! `repro <experiment>` runs one figure or table (flags: `USAGE` below);
//! `--json PATH` additionally writes the machine-readable datasets of the
//! experiments that have one (fig13, fig14, fig17, table2, mt) — the same
//! numbers the text renders, not a re-run. Each subcommand's flags are
//! the `USAGE` line of its module (`mallacc_bench::offload_cli::USAGE`
//! and so on); `repro` without arguments prints them all.

use mallacc_bench::explore_cli;
use mallacc_bench::fleet_cli::{self, fleet_report, FleetArgs};
use mallacc_bench::offload_cli::{self, offload_report, OffloadArgs};
use mallacc_bench::profile_cli::{self, profile_report, ProfileArgs};
use mallacc_bench::sample_cli::{self, sample_report, SampleArgs};
use mallacc_bench::substrate_cli::{self, substrate_report, SubstrateArgs};
use mallacc_bench::validate_cli::{self, validate_report, ValidateArgs};
use mallacc_bench::{cli, figures, mt, tables, Scale};
use mallacc_stats::Json;

/// Command line of the paper experiments.
const USAGE: &str = "repro <fig1|fig2|fig4|fig6|fig13|fig14|fig15|fig16|fig17|fig18|\
    table1|table2|area|ablate|generality|resilience|sensitivity|sized-delete|cpi|mt|all> \
    [--quick] [--calls N] [--trials N] [--seed N] [--no-index-opt] [--json PATH]";

fn usage() -> ! {
    eprintln!("usage: {USAGE}");
    for line in [
        explore_cli::USAGE,
        profile_cli::USAGE,
        validate_cli::USAGE,
        fleet_cli::USAGE,
        offload_cli::USAGE,
        sample_cli::USAGE,
        substrate_cli::USAGE,
    ] {
        eprintln!("       {line}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };

    let sub = &args[1..];
    let code = match cmd.as_str() {
        "explore" => explore_cli::explore(sub),
        "profile" => cli::run("profile", sub, ProfileArgs::parse, profile_report),
        "validate" => cli::run("validate", sub, ValidateArgs::parse, validate_report),
        "fleet" => cli::run("fleet", sub, FleetArgs::parse, fleet_report),
        "offload" => cli::run("offload", sub, OffloadArgs::parse, offload_report),
        "sample" => cli::run("sample", sub, SampleArgs::parse, sample_report),
        "substrate" => cli::run("substrate", sub, SubstrateArgs::parse, substrate_report),
        _ => experiments(cmd, &args),
    };
    std::process::exit(code);
}

/// Runs the paper experiment `cmd`; returns the process exit code.
fn experiments(cmd: &str, args: &[String]) -> i32 {
    // The generic experiment path (mt, figures, tables) shares the
    // `--seed`/`--json` plumbing with the subcommand CLIs; its scale
    // flag is `--quick` rather than `--smoke`/`--full`.
    let mut scale = Scale::full();
    let mut index_keying = true;
    let mut common = cli::CommonFlags::default();
    let mut i = 1;
    while i < args.len() {
        let taken = cli::take_common(args, &mut i, &cli::CommonSpec::SEED_JSON, &mut common)
            .unwrap_or_else(|e| {
                eprintln!("repro: {e}");
                usage()
            });
        if !taken {
            match args[i].as_str() {
                "--quick" => scale = Scale::quick(),
                "--no-index-opt" => index_keying = false,
                "--calls" => {
                    scale.calls = cli::value(args, &mut i, "--calls")
                        .and_then(|v| cli::int(v, "--calls"))
                        .map(|n| n as usize)
                        .unwrap_or_else(|_| usage());
                }
                "--trials" => {
                    scale.trials = cli::value(args, &mut i, "--trials")
                        .and_then(|v| cli::int(v, "--trials"))
                        .map(|n| n as usize)
                        .unwrap_or_else(|_| usage());
                }
                _ => usage(),
            }
        }
        i += 1;
    }
    if let Some(seed) = common.seed {
        scale.seed = seed;
    }
    let json_path = common.json;

    // Experiments with structured datasets compute the data once and
    // derive both the text and (when `--json` is given) the JSON from it.
    let mut datasets: Vec<(String, Json)> = Vec::new();
    let mut run = |name: &str| -> Option<String> {
        let (text, data) = match name {
            "fig1" => (figures::fig1(scale), None),
            "fig2" => (figures::fig2(scale), None),
            "fig4" => (figures::fig4(scale), None),
            "fig6" => (figures::fig6(scale), None),
            "fig13" => {
                let d = figures::improvement_data(scale, false);
                (figures::render_fig13(&d), Some(d.to_json()))
            }
            "fig14" => {
                let d = figures::improvement_data(scale, true);
                (figures::render_fig14(&d), Some(d.to_json()))
            }
            "fig15" => (figures::fig15(scale), None),
            "fig16" => (figures::fig16(scale), None),
            "fig17" => {
                let d = figures::fig17_data(scale, index_keying);
                (figures::render_fig17(&d), Some(d.to_json()))
            }
            "fig18" => (figures::fig18(scale), None),
            "table1" => (tables::table1(scale), None),
            "table2" => {
                let d = tables::table2_data(scale);
                (
                    tables::render_table2(&d, scale),
                    Some(tables::table2_json(&d)),
                )
            }
            "area" => (tables::area(), None),
            "ablate" => (figures::ablation(scale), None),
            "generality" => (figures::generality(scale), None),
            "resilience" => (figures::resilience(scale), None),
            "sized-delete" => (figures::sized_delete(scale), None),
            "cpi" => (figures::cpi(scale), None),
            "sensitivity" => (figures::sensitivity(scale), None),
            "mt" => {
                let d = mt::mt_data(scale);
                (mt::render_mt(&d), Some(mt::mt_json(&d)))
            }
            _ => return None,
        };
        if let Some(data) = data {
            datasets.push((name.to_string(), data));
        }
        Some(text)
    };

    match cmd {
        "all" => {
            for name in [
                "fig1",
                "fig2",
                "fig4",
                "fig6",
                "table1",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "table2",
                "area",
                "ablate",
                "generality",
                "resilience",
                "sensitivity",
                "sized-delete",
                "cpi",
                "mt",
            ] {
                println!("{}", run(name).expect("known experiment"));
                println!();
            }
        }
        other => match run(other) {
            Some(s) => println!("{s}"),
            None => usage(),
        },
    }

    if let Some(path) = json_path {
        let doc = Json::obj([
            ("schema", "mallacc-repro/1".into()),
            (
                "scale",
                Json::obj([
                    ("calls", scale.calls.into()),
                    ("warmup", scale.warmup.into()),
                    ("trials", scale.trials.into()),
                    ("seed", scale.seed.into()),
                ]),
            ),
            ("experiments", Json::Obj(datasets.into_iter().collect())),
        ]);
        if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
            eprintln!("repro: writing {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    0
}
