//! The `repro fleet` subcommand: datacenter fleet scenarios, driven by
//! `mallacc-fleet`. Flags: [`USAGE`].
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

use crate::cli::{self, CommonFlags, CommonSpec, ScaleFlag};
use mallacc::SimMode;
use mallacc_fleet::{json_doc, render_report, run_fleet, FleetConfig, Scenario};

/// Command line of `repro fleet`.
pub const USAGE: &str = "repro fleet [--smoke] [--full] [--cores A,B,...] \
    [--scenario NAME]... [--requests N] [--weak-requests N] [--seed N] [--jobs N] \
    [--sim full|sampled[:W:D:P[:S]]] [--json PATH]";

/// Parsed `repro fleet` arguments.
#[derive(Debug, Clone)]
pub struct FleetArgs {
    /// Scenario names to run (empty = the whole catalogue).
    pub scenarios: Vec<String>,
    /// Core counts to sweep (`None` = the scale's default).
    pub cores: Option<Vec<usize>>,
    /// Total requests of every strong-scaling cell.
    pub strong_requests: u64,
    /// Requests per core of every weak-scaling cell.
    pub weak_requests_per_core: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential). Output-invariant.
    pub jobs: usize,
    /// Smoke scale (1/2/4 cores) instead of the full 1..16 sweep.
    pub smoke: bool,
    /// Timing execution mode of every cell (`full` or `sampled[:plan]`).
    pub sim: SimMode,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        let full = FleetConfig::full(42, 1);
        Self {
            scenarios: Vec::new(),
            cores: None,
            strong_requests: full.strong_requests,
            weak_requests_per_core: full.weak_requests_per_core,
            seed: 42,
            jobs: 1,
            smoke: false,
            sim: SimMode::Full,
            json: None,
        }
    }
}

impl FleetArgs {
    /// Parses the argument list after `fleet`. Shared flags are
    /// collected via [`crate::cli`] and applied after the loop, so
    /// explicit request volumes win over `--smoke`/`--full` regardless
    /// of flag order.
    pub fn parse(args: &[String]) -> Result<FleetArgs, String> {
        let mut parsed = FleetArgs::default();
        let mut common = CommonFlags::default();
        let (mut strong, mut weak) = (None, None);
        let mut i = 0;
        while i < args.len() {
            if cli::take_common(args, &mut i, &CommonSpec::ALL, &mut common)? {
                i += 1;
                continue;
            }
            match args[i].as_str() {
                "--cores" => {
                    parsed.cores = Some(cli::counts(
                        cli::value(args, &mut i, "--cores")?,
                        "--cores",
                    )?);
                }
                "--scenario" => parsed
                    .scenarios
                    .push(cli::value(args, &mut i, "--scenario")?),
                "--sim" => {
                    parsed.sim = SimMode::parse(&cli::value(args, &mut i, "--sim")?)?;
                }
                "--requests" => {
                    strong = Some(cli::int(
                        cli::value(args, &mut i, "--requests")?,
                        "--requests",
                    )?);
                }
                "--weak-requests" => {
                    weak = Some(cli::int(
                        cli::value(args, &mut i, "--weak-requests")?,
                        "--weak-requests",
                    )?);
                }
                other => return Err(format!("unknown fleet flag {other:?}")),
            }
            i += 1;
        }
        if let Some(seed) = common.seed {
            parsed.seed = seed;
        }
        if let Some(jobs) = common.jobs {
            parsed.jobs = jobs;
        }
        match common.scale {
            Some(ScaleFlag::Smoke) => {
                let smoke = FleetConfig::smoke(parsed.seed, parsed.jobs);
                parsed.smoke = true;
                parsed.strong_requests = smoke.strong_requests;
                parsed.weak_requests_per_core = smoke.weak_requests_per_core;
            }
            Some(ScaleFlag::Full) => {
                let full = FleetConfig::full(parsed.seed, parsed.jobs);
                parsed.smoke = false;
                parsed.strong_requests = full.strong_requests;
                parsed.weak_requests_per_core = full.weak_requests_per_core;
            }
            None => {}
        }
        if let Some(v) = strong {
            parsed.strong_requests = v;
        }
        if let Some(v) = weak {
            parsed.weak_requests_per_core = v;
        }
        parsed.json = common.json;
        if parsed.strong_requests == 0 || parsed.weak_requests_per_core == 0 {
            return Err("request volumes must be at least 1".to_string());
        }
        Ok(parsed)
    }

    /// Resolves the arguments into an engine configuration.
    fn config(&self) -> Result<FleetConfig, String> {
        let scenarios: Vec<&'static Scenario> = if self.scenarios.is_empty() {
            Scenario::all().iter().collect()
        } else {
            self.scenarios
                .iter()
                .map(|name| cli::scenario(name))
                .collect::<Result<_, _>>()?
        };
        let default = if self.smoke {
            FleetConfig::smoke(self.seed, self.jobs)
        } else {
            FleetConfig::full(self.seed, self.jobs)
        };
        Ok(FleetConfig {
            scenarios,
            core_counts: self.cores.clone().unwrap_or(default.core_counts),
            strong_requests: self.strong_requests,
            weak_requests_per_core: self.weak_requests_per_core,
            seed: self.seed,
            jobs: self.jobs,
            sim: self.sim,
        })
    }
}

/// Runs `repro fleet` and returns `(exit code, report text)`.
pub fn fleet_report(args: &FleetArgs) -> (i32, String) {
    let config = match args.config() {
        Ok(config) => config,
        Err(e) => return (2, format!("repro fleet: {e}")),
    };
    let result = run_fleet(&config);
    let mut out = render_report(&result);
    if let Some(path) = &args.json {
        if !cli::write_json("fleet", path, &json_doc(&result), &mut out) {
            return (1, out);
        }
    }
    (0, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> FleetArgs {
        FleetArgs {
            scenarios: vec!["rpc-fanout".to_string()],
            cores: Some(vec![1, 2]),
            strong_requests: 24,
            weak_requests_per_core: 8,
            ..FleetArgs::default()
        }
    }

    #[test]
    fn parse_covers_scales_and_rejections() {
        let a = FleetArgs::parse(&s(&["--smoke", "--jobs", "4"])).unwrap();
        assert!(a.smoke);
        assert_eq!(a.jobs, 4);
        let smoke = FleetConfig::smoke(42, 1);
        assert_eq!(a.strong_requests, smoke.strong_requests);

        let b = FleetArgs::parse(&s(&[
            "--cores",
            "1,4,16",
            "--scenario",
            "tenant-mix",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(b.cores.as_deref(), Some(&[1, 4, 16][..]));
        assert_eq!(b.scenarios, vec!["tenant-mix"]);
        assert_eq!(b.seed, 7);

        let wide = FleetArgs::parse(&s(&["--cores", "1,32,64"])).unwrap();
        assert_eq!(wide.cores.as_deref(), Some(&[1, 32, 64][..]));

        assert!(FleetArgs::parse(&s(&["--nope"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "0"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "65"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "x"])).is_err());
        assert!(FleetArgs::parse(&s(&["--scenario"])).is_err());
        assert!(FleetArgs::parse(&s(&["--requests", "0"])).is_err());
    }

    #[test]
    fn unknown_scenario_lists_the_catalogue() {
        let a = FleetArgs {
            scenarios: vec!["no-such".to_string()],
            ..tiny()
        };
        let (code, text) = fleet_report(&a);
        assert_eq!(code, 2);
        assert!(text.contains("unknown scenario"), "{text}");
        assert!(text.contains("rpc-fanout"), "{text}");
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
        a.jobs = 1;
        let (c1, seq) = fleet_report(&a);
        a.jobs = 4;
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
