//! `repro` — regenerate every table and figure of the Mallacc paper, and
//! run the reports that go beyond it.
//!
//! `repro <experiment>` runs one paper figure or table
//! ([`mallacc_bench::paper_cli`]); `repro <subcommand>` runs one of the
//! [`SUBCOMMANDS`]. Each entry point's flags are the `COMMAND` of its
//! module; `repro` without arguments prints them all.

use mallacc_bench::cli::{self, Command};
use mallacc_bench::explore_cli::{self, explore_report, ExploreArgs};
use mallacc_bench::fleet_cli::{self, fleet_report, FleetArgs};
use mallacc_bench::offload_cli::{self, offload_report, OffloadArgs};
use mallacc_bench::paper_cli::{self, paper_report, PaperArgs};
use mallacc_bench::profile_cli::{self, profile_report, ProfileArgs};
use mallacc_bench::sample_cli::{self, sample_report, SampleArgs};
use mallacc_bench::substrate_cli::{self, substrate_report, SubstrateArgs};
use mallacc_bench::validate_cli::{self, validate_report, ValidateArgs};

/// An entry point: runs its report from the arguments after its name.
type Entry = fn(&[String]) -> Result<i32, String>;

/// Every subcommand, in usage order.
const SUBCOMMANDS: [(&Command, Entry); 7] = [
    (&explore_cli::COMMAND, |a| {
        cli::run(a, ExploreArgs::parse, explore_report)
    }),
    (&profile_cli::COMMAND, |a| {
        cli::run(a, ProfileArgs::parse, profile_report)
    }),
    (&validate_cli::COMMAND, |a| {
        cli::run(a, ValidateArgs::parse, validate_report)
    }),
    (&fleet_cli::COMMAND, |a| {
        cli::run(a, FleetArgs::parse, fleet_report)
    }),
    (&offload_cli::COMMAND, |a| {
        cli::run(a, OffloadArgs::parse, offload_report)
    }),
    (&sample_cli::COMMAND, |a| {
        cli::run(a, SampleArgs::parse, sample_report)
    }),
    (&substrate_cli::COMMAND, |a| {
        cli::run(a, SubstrateArgs::parse, substrate_report)
    }),
];

fn usage() -> ! {
    eprintln!("usage: {}", paper_cli::COMMAND.usage());
    for (command, _) in SUBCOMMANDS {
        eprintln!("       {}", command.usage());
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let code = match SUBCOMMANDS.iter().find(|(command, _)| command.name == cmd) {
        Some((command, entry)) => entry(&args[1..]).unwrap_or_else(|e| {
            eprintln!("repro {}: {e}", command.name);
            2
        }),
        None => cli::run(&args, PaperArgs::parse, paper_report).unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            usage()
        }),
    };
    std::process::exit(code);
}
