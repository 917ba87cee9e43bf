//! The one flag parser, and the plumbing every `repro` entry point
//! shares: the seven subcommands, the paper experiments and
//! `bench_check`.
//!
//! Each entry point declares its flags once, as a [`Command`]: each
//! flag's name, whether it takes a value, and whether it may repeat.
//! The usage line ([`Command::usage`]) and the set of accepted flags both
//! come from that declaration. [`Command::parse`] scans the whole command
//! line first; the entry point then reads the values by name from the
//! [`Parsed`] result. It applies its preset (`--smoke`, `--full`,
//! `--quick`, ...) first and the explicit values after, so
//! `--smoke --fuzz 7` and `--fuzz 7 --smoke` mean the same. A scalar
//! flag's last occurrence wins; a repeatable flag collects its values in
//! order.
//!
//! The rest of the module:
//!
//! * [`int`] / [`path`] / [`counts`] / [`substrate`] / [`workload`] /
//!   [`scenario`] — the flag values more than one entry point takes;
//! * [`run`] — parse → report → print;
//! * [`finish`] — the tail every report ends with: the `--json` write
//!   and the exit code;
//! * [`run_indexed`] — the strided-worker slot runner behind every
//!   "byte-identical across `--jobs`" report (re-exported from
//!   [`mallacc_stats::par`]).

use std::path::{Path, PathBuf};
use std::str::FromStr;

use mallacc_fleet::Scenario;
pub use mallacc_stats::par::run_indexed;
use mallacc_stats::Json;
use mallacc_substrate::SubstrateKind;
use mallacc_workloads::AnyWorkload;

/// One flag of a [`Command`].
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage line; empty for a switch.
    arg: &'static str,
    repeats: bool,
}

impl Flag {
    /// A switch: `name` takes no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag::value(name, "")
    }

    /// A flag with one value, shown as `arg` in the usage line. Given
    /// more than once, the last value wins.
    pub const fn value(name: &'static str, arg: &'static str) -> Flag {
        Flag {
            name,
            arg,
            repeats: false,
        }
    }

    /// A flag that may repeat; its values are collected in order.
    pub const fn list(name: &'static str, arg: &'static str) -> Flag {
        Flag {
            repeats: true,
            ..Flag::value(name, arg)
        }
    }
}

/// An entry point's command line, declared once.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The entry point's name in its errors (`unknown fleet flag`).
    pub name: &'static str,
    /// The usage line before the flags (`repro fleet`).
    pub head: &'static str,
    /// Every flag the entry point accepts, in usage order.
    pub flags: &'static [Flag],
}

impl Command {
    /// The usage line: the head, then `[--flag ARG]` per flag, with
    /// `...` after a repeatable one.
    pub fn usage(&self) -> String {
        let mut line = self.head.to_string();
        for flag in self.flags {
            line.push_str(" [");
            line.push_str(flag.name);
            if !flag.arg.is_empty() {
                line.push(' ');
                line.push_str(flag.arg);
            }
            line.push(']');
            if flag.repeats {
                line.push_str("...");
            }
        }
        line
    }

    /// Scans `args`: every word must be a declared flag, followed by its
    /// value if it takes one.
    pub fn parse<'a>(&self, args: &'a [String]) -> Result<Parsed<'a>, String> {
        let mut given = Vec::new();
        let mut words = args.iter();
        while let Some(word) = words.next() {
            let flag = self
                .flags
                .iter()
                .find(|flag| flag.name == word)
                .ok_or_else(|| format!("unknown {} flag {word:?}", self.name))?;
            let value = if flag.arg.is_empty() {
                ""
            } else {
                words
                    .next()
                    .ok_or_else(|| format!("{} needs a value", flag.name))?
                    .as_str()
            };
            given.push((flag.name, value));
        }
        Ok(Parsed {
            name: self.name,
            flags: self.flags,
            given,
        })
    }
}

/// A scanned command line: the flags it gave, in order, each with its
/// value (empty for a switch). Values are read by name, so the order of
/// the flags only matters between occurrences of the same flag.
#[derive(Debug)]
pub struct Parsed<'a> {
    name: &'static str,
    flags: &'static [Flag],
    given: Vec<(&'static str, &'a str)>,
}

impl<'a> Parsed<'a> {
    /// Panics unless the command declares `name`: a read of an undeclared
    /// flag would silently never see a value.
    fn declared(&self, name: &str) {
        assert!(
            self.flags.iter().any(|flag| flag.name == name),
            "{} does not declare {name}",
            self.name
        );
    }

    /// The values `name` was given, in order.
    fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.declared(name);
        self.given
            .iter()
            .filter(move |(given, _)| *given == name)
            .map(|(_, value)| *value)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values(name).next().is_some()
    }

    /// Of the switches `names`, the one given last.
    pub fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        for name in names {
            self.declared(name);
        }
        self.given
            .iter()
            .rev()
            .map(|(given, _)| *given)
            .find(|given| names.contains(given))
    }

    /// Every value of `name`, in order, each converted by `conv(name,
    /// value)`.
    fn all<T>(
        &self,
        name: &str,
        conv: impl Fn(&str, &'a str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.values(name).map(|value| conv(name, value)).collect()
    }

    /// The last value of `name`, converted by `conv(name, value)`. Every
    /// earlier value must convert too.
    pub fn get<T>(
        &self,
        name: &str,
        conv: impl Fn(&str, &'a str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        Ok(self.all(name, conv)?.pop())
    }

    /// Overwrites `slot` with the last value of `name`, if it was given.
    pub fn set<T>(
        &self,
        name: &str,
        slot: &mut T,
        conv: impl Fn(&str, &'a str) -> Result<T, String>,
    ) -> Result<(), String> {
        if let Some(value) = self.get(name, conv)? {
            *slot = value;
        }
        Ok(())
    }

    /// Replaces `slot` with every value of the repeatable `name`, if it
    /// was given at all.
    pub fn set_all<T>(
        &self,
        name: &str,
        slot: &mut Vec<T>,
        conv: impl Fn(&str, &'a str) -> Result<T, String>,
    ) -> Result<(), String> {
        let values = self.all(name, conv)?;
        if !values.is_empty() {
            *slot = values;
        }
        Ok(())
    }
}

/// Parses the integer value of `flag`.
pub fn int<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs an integer"))
}

/// Takes the value of `flag` as a file path.
pub fn path(_flag: &str, value: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(value))
}

/// Parses a comma-separated list of counts, each in `1..=64` (the core
/// and queue-depth caps).
pub fn counts(flag: &str, value: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .map(|part| match part.trim().parse::<usize>() {
            Ok(n) if (1..=64).contains(&n) => Ok(n),
            Ok(_) => Err(format!("{flag}: values must be in 1..=64")),
            Err(_) => Err(format!("{flag}: bad value {part:?}")),
        })
        .collect()
}

/// Resolves a `--substrate` value.
pub fn substrate(_flag: &str, name: &str) -> Result<SubstrateKind, String> {
    SubstrateKind::by_name(name).ok_or_else(|| {
        unknown(
            "substrate",
            name,
            SubstrateKind::ALL.map(SubstrateKind::name),
        )
    })
}

/// Resolves a `--workload` value.
pub fn workload(_flag: &str, name: &str) -> Result<AnyWorkload, String> {
    AnyWorkload::by_name(name).ok_or_else(|| unknown("workload", name, AnyWorkload::all_names()))
}

/// Resolves a `--scenario` value.
pub fn scenario(_flag: &str, name: &str) -> Result<&'static Scenario, String> {
    Scenario::by_name(name)
        .ok_or_else(|| unknown("scenario", name, Scenario::all().iter().map(|s| s.name)))
}

fn unknown<'a>(what: &str, name: &str, known: impl IntoIterator<Item = &'a str>) -> String {
    let known: Vec<&str> = known.into_iter().collect();
    format!("unknown {what} {name:?} (available: {})", known.join(", "))
}

/// Runs an entry point: parses `args`, prints the report and returns its
/// exit code. A parse error is returned for the caller to print. A
/// report that failed before it had any text prints nothing.
pub fn run<A>(
    args: &[String],
    parse: fn(&[String]) -> Result<A, String>,
    report: fn(&A) -> (i32, String),
) -> Result<i32, String> {
    let (code, text) = report(&parse(args)?);
    if !text.is_empty() {
        println!("{text}");
    }
    Ok(code)
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

/// The tail every report ends with: when `json` is given, writes `doc()`
/// there with [`write_json`]. Returns the exit code, 0 if `pass` and 1 if
/// a check or the write failed, and the report text.
pub fn finish(
    cmd: &str,
    mut out: String,
    pass: bool,
    json: Option<&Path>,
    doc: impl FnOnce() -> Json,
) -> (i32, String) {
    if let Some(path) = json {
        if !write_json(cmd, path, &doc(), &mut out) {
            return (1, out);
        }
    }
    (i32::from(!pass), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        explore_cli, fleet_cli, offload_cli, paper_cli, profile_cli, sample_cli, substrate_cli,
        validate_cli,
    };

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    const DEMO: Command = Command {
        name: "demo",
        head: "demo",
        flags: &[
            Flag::switch("--smoke"),
            Flag::switch("--full"),
            Flag::value("--seed", "N"),
            Flag::list("--workload", "NAME"),
        ],
    };

    #[test]
    fn usage_comes_from_the_declaration() {
        assert_eq!(
            DEMO.usage(),
            "demo [--smoke] [--full] [--seed N] [--workload NAME]..."
        );
    }

    #[test]
    fn values_are_read_by_name_last_scalar_wins_lists_keep_order() {
        let args = s(&[
            "--workload",
            "b",
            "--seed",
            "1",
            "--smoke",
            "--workload",
            "a",
            "--seed",
            "7",
        ]);
        let p = DEMO.parse(&args).unwrap();
        assert!(p.has("--smoke"));
        assert!(!p.has("--full"));
        assert_eq!(p.get("--seed", int::<u64>), Ok(Some(7)));
        assert_eq!(
            p.all("--workload", |_, v| Ok(v.to_string())),
            Ok(vec!["b".to_string(), "a".to_string()])
        );
        // Every occurrence of a scalar must convert, not just the last.
        let args = s(&["--seed", "x", "--seed", "7"]);
        let p = DEMO.parse(&args).unwrap();
        assert_eq!(
            p.get("--seed", int::<u64>),
            Err("--seed needs an integer".to_string())
        );
    }

    #[test]
    fn last_scale_flag_wins() {
        let args = s(&["--smoke", "--full"]);
        let p = DEMO.parse(&args).unwrap();
        assert_eq!(p.last_of(&["--smoke", "--full"]), Some("--full"));
        let args = s(&["--full", "--seed", "3", "--smoke"]);
        let p = DEMO.parse(&args).unwrap();
        assert_eq!(p.last_of(&["--smoke", "--full"]), Some("--smoke"));
        let args = s(&["--seed", "3"]);
        assert_eq!(DEMO.parse(&args).unwrap().last_of(&["--smoke"]), None);
    }

    #[test]
    fn undeclared_flags_are_unknown_and_missing_values_name_the_flag() {
        assert_eq!(
            DEMO.parse(&s(&["--json", "x"])).unwrap_err(),
            "unknown demo flag \"--json\""
        );
        assert_eq!(
            DEMO.parse(&s(&["--smoke", "--seed"])).unwrap_err(),
            "--seed needs a value"
        );
        assert_eq!(int::<u64>("--n", "x").unwrap_err(), "--n needs an integer");
    }

    #[test]
    #[should_panic(expected = "demo does not declare --jobs")]
    fn reading_an_undeclared_flag_panics() {
        let args = s(&["--smoke"]);
        let _ = DEMO.parse(&args).unwrap().get("--jobs", int::<u64>);
    }

    /// A parser of every entry point, behind its command line. The paper
    /// path's flags follow an experiment name.
    type Check = fn(&[String]) -> Result<(), String>;
    const ENTRY_POINTS: [(&Command, Check); 8] = [
        (&explore_cli::COMMAND, |a| {
            explore_cli::ExploreArgs::parse(a).map(drop)
        }),
        (&profile_cli::COMMAND, |a| {
            profile_cli::ProfileArgs::parse(a).map(drop)
        }),
        (&validate_cli::COMMAND, |a| {
            validate_cli::ValidateArgs::parse(a).map(drop)
        }),
        (&fleet_cli::COMMAND, |a| {
            fleet_cli::FleetArgs::parse(a).map(drop)
        }),
        (&offload_cli::COMMAND, |a| {
            offload_cli::OffloadArgs::parse(a).map(drop)
        }),
        (&sample_cli::COMMAND, |a| {
            sample_cli::SampleArgs::parse(a).map(drop)
        }),
        (&substrate_cli::COMMAND, |a| {
            substrate_cli::SubstrateArgs::parse(a).map(drop)
        }),
        (&paper_cli::COMMAND, |a| {
            let args: Vec<String> = std::iter::once("fig1".to_string())
                .chain(a.iter().cloned())
                .collect();
            paper_cli::PaperArgs::parse(&args).map(drop)
        }),
    ];

    /// Every usage line names exactly the flags its parser accepts: each
    /// flag it names reaches the parser, and each flag of any entry point
    /// that it leaves out is rejected as unknown.
    #[test]
    fn usage_lines_name_exactly_the_parsed_flags() {
        let mut every: Vec<&str> = ENTRY_POINTS
            .iter()
            .flat_map(|(command, _)| command.flags.iter().map(|flag| flag.name))
            .collect();
        every.sort_unstable();
        every.dedup();
        for (command, parse) in ENTRY_POINTS {
            let usage = command.usage();
            let named: Vec<&str> = usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--"))
                .collect();
            // A value flag without its value errs with "needs a value".
            let unknown = |flag: &str| parse(&s(&[flag])).is_err_and(|e| e.starts_with("unknown"));
            for flag in &named {
                assert!(!unknown(flag), "{usage}\nthe parser rejects {flag}");
            }
            for flag in every.iter().filter(|flag| !named.contains(flag)) {
                assert!(unknown(flag), "{usage}\nleaves out {flag}");
            }
        }
    }
}
