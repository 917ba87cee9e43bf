//! The `repro fleet` subcommand: datacenter fleet scenarios, driven by
//! `mallacc-fleet`. Flags: [`COMMAND`].
//!
//! Runs request-driven service-traffic scenarios on the multi-core
//! simulator and reports, per scenario, strong/weak scaling curves and
//! per-malloc tail latency (p50/p99/p999 cycles) for baseline vs. Mallacc,
//! plus the p99 *knee*: the core count at which per-core malloc caches
//! stop improving p99.
//!
//! Every cell's result is a pure function of `(seed, scenario, cores,
//! scaling)`, so the report is byte-identical for every `--jobs` value —
//! the smoke report is golden-snapshotted on exactly that promise.

use std::path::PathBuf;

use crate::cli::{self, Command, Flag};
use mallacc::SimMode;
use mallacc_fleet::{json_doc, render_report, run_fleet, FleetConfig};

/// Command line of `repro fleet`.
pub const COMMAND: Command = Command {
    name: "fleet",
    head: "repro fleet",
    flags: &[
        Flag::switch("--smoke"),
        Flag::switch("--full"),
        Flag::value("--cores", "A,B,..."),
        Flag::list("--scenario", "NAME"),
        Flag::value("--requests", "N"),
        Flag::value("--weak-requests", "N"),
        Flag::value("--seed", "N"),
        Flag::value("--jobs", "N"),
        Flag::value("--sim", "full|sampled[:W:D:P[:S]]"),
        Flag::value("--json", "PATH"),
    ],
};

/// Parsed `repro fleet` arguments.
#[derive(Debug, Clone)]
pub struct FleetArgs {
    /// The sweep to run.
    pub config: FleetConfig,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl FleetArgs {
    /// Parses the argument list after `fleet`: the `--smoke` or `--full`
    /// sweep (full by default), whichever came last, then the explicit
    /// values.
    pub fn parse(args: &[String]) -> Result<FleetArgs, String> {
        let p = COMMAND.parse(args)?;
        let seed = p.get("--seed", cli::int)?.unwrap_or(42);
        let jobs = p.get("--jobs", cli::int)?.unwrap_or(1);
        let mut config = match p.last_of(&["--smoke", "--full"]) {
            Some("--smoke") => FleetConfig::smoke(seed, jobs),
            _ => FleetConfig::full(seed, jobs),
        };
        p.set("--cores", &mut config.core_counts, cli::counts)?;
        p.set_all("--scenario", &mut config.scenarios, cli::scenario)?;
        p.set("--requests", &mut config.strong_requests, cli::int)?;
        p.set(
            "--weak-requests",
            &mut config.weak_requests_per_core,
            cli::int,
        )?;
        p.set("--sim", &mut config.sim, |_, v| SimMode::parse(v))?;
        if config.strong_requests == 0 || config.weak_requests_per_core == 0 {
            return Err("request volumes must be at least 1".to_string());
        }
        Ok(FleetArgs {
            config,
            json: p.get("--json", cli::path)?,
        })
    }
}

/// Runs `repro fleet` and returns `(exit code, report text)`.
pub fn fleet_report(args: &FleetArgs) -> (i32, String) {
    let result = run_fleet(&args.config);
    cli::finish(
        "fleet",
        render_report(&result),
        true,
        args.json.as_deref(),
        || json_doc(&result),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> FleetArgs {
        FleetArgs {
            config: FleetConfig {
                scenarios: vec![cli::scenario("--scenario", "rpc-fanout").unwrap()],
                core_counts: vec![1, 2],
                strong_requests: 24,
                weak_requests_per_core: 8,
                ..FleetConfig::full(42, 1)
            },
            json: None,
        }
    }

    #[test]
    fn parse_covers_scales_and_rejections() {
        let a = FleetArgs::parse(&s(&["--smoke", "--jobs", "4"])).unwrap();
        let smoke = FleetConfig::smoke(42, 4);
        assert_eq!(a.config.core_counts, smoke.core_counts);
        assert_eq!(a.config.jobs, 4);
        assert_eq!(a.config.strong_requests, smoke.strong_requests);

        let b = FleetArgs::parse(&s(&[
            "--cores",
            "1,4,16",
            "--scenario",
            "tenant-mix",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(b.config.core_counts, [1, 4, 16]);
        assert_eq!(b.config.scenarios.len(), 1);
        assert_eq!(b.config.scenarios[0].name, "tenant-mix");
        assert_eq!(b.config.seed, 7);

        let wide = FleetArgs::parse(&s(&["--cores", "1,32,64"])).unwrap();
        assert_eq!(wide.config.core_counts, [1, 32, 64]);

        assert!(FleetArgs::parse(&s(&["--nope"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "0"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "65"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "x"])).is_err());
        assert!(FleetArgs::parse(&s(&["--scenario"])).is_err());
        assert!(FleetArgs::parse(&s(&["--requests", "0"])).is_err());
    }

    #[test]
    fn unknown_scenario_lists_the_catalogue() {
        let e = FleetArgs::parse(&s(&["--scenario", "no-such"])).unwrap_err();
        assert!(e.contains("unknown scenario"), "{e}");
        assert!(e.contains("rpc-fanout"), "{e}");
    }

    #[test]
    fn report_names_the_load_bearing_sections() {
        let (code, text) = fleet_report(&tiny());
        assert_eq!(code, 0, "{text}");
        for needle in [
            "fleet report",
            "strong scaling",
            "weak scaling",
            "malloc tail latency",
            "p99 knee",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = tiny();
        a.config.jobs = 1;
        let (c1, seq) = fleet_report(&a);
        a.config.jobs = 4;
        let (c2, par) = fleet_report(&a);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn json_export_parses_and_carries_cells() {
        use mallacc_stats::Json;
        let dir = std::env::temp_dir().join(format!("repro-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = FleetArgs {
            json: Some(dir.join("fleet.json")),
            ..tiny()
        };
        let (code, _) = fleet_report(&a);
        assert_eq!(code, 0);
        let data =
            mallacc_stats::json::parse(&std::fs::read_to_string(dir.join("fleet.json")).unwrap())
                .unwrap();
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-fleet/1")
        );
        assert_eq!(
            data.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
