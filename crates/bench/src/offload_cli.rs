//! The `repro offload` subcommand: the SpeedMalloc-style allocation
//! offload helper core vs. Mallacc, head to head. Flags: [`COMMAND`].
//!
//! `--substrate` picks the allocator every section runs on (tcmalloc,
//! jemalloc, rpmalloc, or the per-CPU tcmalloc variant); the default is
//! tcmalloc, the paper's target.
//!
//! Four sections, all computed from pure per-slot functions so the
//! report is byte-identical for every `--jobs` value:
//!
//! 1. **Single-core head-to-head** — per workload, allocator cycles for
//!    baseline vs. Mallacc vs. offload vs. both (offload helper with its
//!    own malloc cache), and which accelerator wins. Microbenchmarks
//!    allocate back-to-back and saturate the offload queue (the helper's
//!    low IPC becomes the bottleneck); macro workloads interleave
//!    application compute, which hides the helper round-trip.
//! 2. **Queue-depth sweep** — offload cycles and queue backpressure
//!    counters across `--depths`, on one queue-bound and one
//!    compute-bound workload.
//! 3. **Fleet scenarios** — datacenter request streams across `--cores`,
//!    per-call cycles for all four machine variants.
//! 4. **Area vs. speedup Pareto** — each accelerator's mean improvement
//!    against its silicon cost from the core/offload area models, with
//!    the frontier and knee marked.
//!
//! `HeadToHead` is the single-core duel `repro substrate` runs too.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, Command, Flag};
use mallacc::{offload_area_um2, AreaEstimate, Mode, OffloadConfig, SimMode};
use mallacc_explore::run_mt_stream;
use mallacc_stats::table::Table;
use mallacc_stats::{knee_index, pareto_frontier, Json};
use mallacc_substrate::{AnySim, SubstrateKind};
use mallacc_workloads::AnyWorkload;

/// Command line of `repro offload`.
pub const COMMAND: Command = Command {
    name: "offload",
    head: "repro offload",
    flags: &[
        Flag::switch("--smoke"),
        Flag::switch("--full"),
        Flag::value("--substrate", "NAME"),
        Flag::list("--workload", "NAME"),
        Flag::list("--scenario", "NAME"),
        Flag::value("--depths", "A,B,..."),
        Flag::value("--cores", "A,B,..."),
        Flag::value("--calls", "N"),
        Flag::value("--warmup", "N"),
        Flag::value("--requests", "N"),
        Flag::value("--seed", "N"),
        Flag::value("--jobs", "N"),
        Flag::value("--sim", "full|sampled[:W:D:P[:S]]"),
        Flag::value("--json", "PATH"),
    ],
};

/// Parsed `repro offload` arguments.
#[derive(Debug, Clone)]
pub struct OffloadArgs {
    /// Allocator substrate every section runs on.
    pub substrate: SubstrateKind,
    /// Workloads of the single-core head-to-head (empty = scale default).
    pub workloads: Vec<String>,
    /// Fleet scenarios to stream (empty = scale default).
    pub scenarios: Vec<String>,
    /// Queue depths of the sweep section.
    pub depths: Vec<usize>,
    /// Core counts of the fleet section.
    pub cores: Vec<usize>,
    /// Measured malloc calls per single-core cell.
    pub calls: usize,
    /// Warm-up malloc calls before measurement.
    pub warmup: usize,
    /// Requests per fleet cell.
    pub requests: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential). Output-invariant.
    pub jobs: usize,
    /// Timing execution mode applied to every cell's simulators.
    pub sim: SimMode,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl Default for OffloadArgs {
    fn default() -> Self {
        // The defaults are the smoke scale: one queue-bound and one
        // compute-bound workload per family, CI-sized volumes.
        Self {
            substrate: SubstrateKind::TcMalloc,
            workloads: vec![
                "tp_small".to_string(),
                "gauss_free".to_string(),
                "471.omnetpp".to_string(),
                "xapian.pages".to_string(),
            ],
            scenarios: vec!["rpc-fanout".to_string(), "tenant-mix".to_string()],
            depths: vec![1, 4, 8, 32],
            cores: vec![1, 2, 4],
            calls: 600,
            warmup: 120,
            requests: 96,
            seed: 42,
            jobs: 1,
            sim: SimMode::Full,
            json: None,
        }
    }
}

impl OffloadArgs {
    /// The full-grid scale: every workload, every catalogue scenario,
    /// the complete depth ladder, and core counts up to the lifted cap.
    pub fn full() -> Self {
        Self {
            workloads: AnyWorkload::all_names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
            scenarios: mallacc_fleet::Scenario::all()
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
            depths: vec![1, 2, 4, 8, 16, 32],
            cores: vec![1, 2, 4, 8, 16, 32],
            calls: 12_000,
            warmup: 2_000,
            requests: 1_200,
            ..Self::default()
        }
    }

    /// Parses the argument list after `offload`: the `--smoke` or
    /// `--full` scale, whichever came last, then the explicit values.
    pub fn parse(args: &[String]) -> Result<OffloadArgs, String> {
        let p = COMMAND.parse(args)?;
        let mut a = match p.last_of(&["--smoke", "--full"]) {
            Some("--full") => OffloadArgs::full(),
            _ => OffloadArgs::default(),
        };
        p.set("--substrate", &mut a.substrate, cli::substrate)?;
        p.set_all("--workload", &mut a.workloads, cli::workload)?;
        p.set_all("--scenario", &mut a.scenarios, |flag, name| {
            cli::scenario(flag, name).map(|_| name.to_string())
        })?;
        p.set("--depths", &mut a.depths, cli::counts)?;
        p.set("--cores", &mut a.cores, cli::counts)?;
        p.set("--calls", &mut a.calls, cli::int)?;
        p.set("--warmup", &mut a.warmup, cli::int)?;
        p.set("--requests", &mut a.requests, cli::int)?;
        p.set("--seed", &mut a.seed, cli::int)?;
        p.set("--jobs", &mut a.jobs, cli::int)?;
        p.set("--sim", &mut a.sim, |_, v| SimMode::parse(v))?;
        a.json = p.get("--json", cli::path)?;
        if a.calls == 0 || a.requests == 0 {
            return Err("--calls and --requests must be at least 1".to_string());
        }
        Ok(a)
    }
}

/// The four machine variants every head-to-head compares, in table
/// order: baseline, Mallacc, offload, and offload with a malloc cache.
fn modes() -> [Mode; 4] {
    [
        Mode::Baseline,
        Mode::mallacc_default(),
        Mode::offload_default(),
        Mode::offload_both(),
    ]
}

/// A fresh `substrate` simulator under `mode` that has replayed `warmup`
/// calls of `workload` and then `calls` measured ones, with the measured
/// calls' allocator cycles.
fn warm_then_measure(
    substrate: SubstrateKind,
    mode: Mode,
    workload: &AnyWorkload,
    warmup: usize,
    calls: usize,
    seed: u64,
    sim: SimMode,
) -> (AnySim, f64) {
    let mut s = AnySim::new(substrate, mode);
    s.set_sampling(sim.plan());
    workload.trace(warmup, seed).replay_on(&mut s);
    let measure = workload.trace(calls, seed.wrapping_add(1));
    let cycles = measure.replay_on(&mut s).allocator_cycles();
    (s, cycles)
}

/// Allocator cycles of one run under each of the four [`modes`], and
/// the verdict of the Mallacc-vs-offload duel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeadToHead(pub(crate) [f64; 4]);

impl HeadToHead {
    /// `workload` on `substrate` under each mode, warmed and measured by
    /// [`warm_then_measure`].
    pub(crate) fn single_core(
        substrate: SubstrateKind,
        workload: &AnyWorkload,
        warmup: usize,
        calls: usize,
        seed: u64,
        sim: SimMode,
    ) -> Self {
        HeadToHead(
            modes().map(|mode| {
                warm_then_measure(substrate, mode, workload, warmup, calls, seed, sim).1
            }),
        )
    }

    /// Improvement over baseline, percent, for variant `i` of [`modes`].
    pub(crate) fn improvement_pct(&self, i: usize) -> f64 {
        if self.0[0] > 0.0 {
            100.0 * (1.0 - self.0[i] / self.0[0])
        } else {
            0.0
        }
    }

    /// Which accelerator wins the Mallacc-vs-offload duel.
    pub(crate) fn winner(&self) -> &'static str {
        if self.0[2] < self.0[1] {
            "offload"
        } else {
            "mallacc"
        }
    }

    /// The `mallacc`, `offload`, `both` and `winner` table cells.
    pub(crate) fn cells(&self) -> [String; 4] {
        [
            format!("{:+.1}%", self.improvement_pct(1)),
            format!("{:+.1}%", self.improvement_pct(2)),
            format!("{:+.1}%", self.improvement_pct(3)),
            self.winner().to_string(),
        ]
    }

    /// The JSON fields of [`cells`](Self::cells).
    pub(crate) fn json_fields(&self) -> [(&'static str, Json); 4] {
        [
            ("mallacc_improvement_pct", self.improvement_pct(1).into()),
            ("offload_improvement_pct", self.improvement_pct(2).into()),
            ("both_improvement_pct", self.improvement_pct(3).into()),
            ("winner", self.winner().into()),
        ]
    }
}

fn head_to_head_section(args: &OffloadArgs) -> (String, Json, Vec<HeadToHead>) {
    let rows: Vec<HeadToHead> = run_indexed(args.workloads.len() as u64, args.jobs, |i| {
        let workload =
            AnyWorkload::by_name(&args.workloads[i as usize]).expect("validated at parse time");
        HeadToHead::single_core(
            args.substrate,
            &workload,
            args.warmup,
            args.calls,
            args.seed,
            args.sim,
        )
    });
    let mut t = Table::new(&[
        "workload", "base cyc", "mallacc", "offload", "both", "winner",
    ]);
    let mut json_rows = Vec::new();
    for (workload, r) in args.workloads.iter().zip(&rows) {
        let row = [workload.clone(), format!("{:.0}", r.0[0])];
        t.row_owned(row.into_iter().chain(r.cells()).collect());
        let fields = [
            ("workload", Json::from(workload.as_str())),
            ("base_cycles", Json::from(r.0[0])),
        ];
        json_rows.push(Json::obj(fields.into_iter().chain(r.json_fields())));
    }
    let offload_wins = rows.iter().filter(|r| r.winner() == "offload").count();
    let text = format!(
        "== single-core head-to-head (improvement vs. baseline) ==\n{}offload wins {}/{} workloads, mallacc wins {}\n",
        t.render(),
        offload_wins,
        rows.len(),
        rows.len() - offload_wins,
    );
    let json = Json::obj([
        ("rows", Json::Arr(json_rows)),
        ("offload_wins", Json::from(offload_wins)),
        ("mallacc_wins", Json::from(rows.len() - offload_wins)),
    ]);
    (text, json, rows)
}

fn depth_sweep_section(args: &OffloadArgs) -> (String, Json) {
    // One queue-bound and one compute-bound probe: the first and last of
    // the head-to-head list (micro first, macro last, in both scales).
    let probes: Vec<&String> = if args.workloads.len() > 1 {
        vec![
            &args.workloads[0],
            &args.workloads[args.workloads.len() - 1],
        ]
    } else {
        vec![&args.workloads[0]]
    };
    let cells: Vec<(String, usize, f64, u64, u64)> =
        run_indexed((probes.len() * args.depths.len()) as u64, args.jobs, |i| {
            let probe = probes[i as usize / args.depths.len()];
            let depth = args.depths[i as usize % args.depths.len()];
            let workload = AnyWorkload::by_name(probe).expect("validated at parse time");
            let mut cfg = OffloadConfig::speedmalloc_default();
            cfg.queue_depth = depth;
            let (sim, cycles) = warm_then_measure(
                args.substrate,
                Mode::Offload(cfg),
                &workload,
                args.warmup,
                args.calls,
                args.seed,
                args.sim,
            );
            let stats = sim.offload_stats().expect("offload mode has a queue");
            (
                probe.clone(),
                depth,
                cycles,
                stats.queue_full_stalls,
                stats.stall_cycles,
            )
        });
    let mut t = Table::new(&[
        "workload",
        "qdepth",
        "alloc cyc",
        "full stalls",
        "stall cyc",
    ]);
    let mut json_rows = Vec::new();
    for (workload, depth, cycles, stalls, stall_cycles) in &cells {
        t.row_owned(vec![
            workload.clone(),
            depth.to_string(),
            format!("{cycles:.0}"),
            stalls.to_string(),
            stall_cycles.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(workload.as_str())),
            ("queue_depth", Json::from(*depth)),
            ("alloc_cycles", Json::from(*cycles)),
            ("queue_full_stalls", Json::from(*stalls)),
            ("stall_cycles", Json::from(*stall_cycles)),
        ]));
    }
    let text = format!("== offload queue-depth sweep ==\n{}", t.render());
    (text, Json::obj([("cells", Json::Arr(json_rows))]))
}

fn fleet_section(args: &OffloadArgs) -> (String, Json) {
    let cells: Vec<(String, usize, HeadToHead)> = run_indexed(
        (args.scenarios.len() * args.cores.len()) as u64,
        args.jobs,
        |i| {
            let scenario_name = &args.scenarios[i as usize / args.cores.len()];
            let cores = args.cores[i as usize % args.cores.len()];
            let scenario =
                mallacc_fleet::Scenario::by_name(scenario_name).expect("validated at parse time");
            let per_call = modes().map(|mode| {
                let stream = scenario.stream(cores, args.requests, args.seed);
                let (cycles, calls) = run_mt_stream(args.substrate, mode, cores, args.sim, stream);
                cycles as f64 / calls.max(1) as f64
            });
            (scenario_name.clone(), cores, HeadToHead(per_call))
        },
    );
    let mut t = Table::new(&[
        "scenario",
        "cores",
        "base c/call",
        "mallacc",
        "offload",
        "both",
        "winner",
    ]);
    let mut json_rows = Vec::new();
    for (scenario, cores, h) in &cells {
        let row = [
            scenario.clone(),
            cores.to_string(),
            format!("{:.1}", h.0[0]),
        ];
        t.row_owned(row.into_iter().chain(h.cells()).collect());
        let fields = [
            ("scenario", Json::from(scenario.as_str())),
            ("cores", Json::from(*cores)),
            ("base_cycles_per_call", Json::from(h.0[0])),
        ];
        json_rows.push(Json::obj(fields.into_iter().chain(h.json_fields())));
    }
    let text = format!(
        "== fleet scenario streams (per-call cycles, all cores) ==\n{}",
        t.render()
    );
    (text, Json::obj([("cells", Json::Arr(json_rows))]))
}

fn pareto_section(rows: &[HeadToHead]) -> (String, Json) {
    // Mean single-core improvement per accelerator vs. its silicon cost:
    // the malloc cache from the core area model, the helper core + queue
    // from the offload area model, `both` paying for the pair.
    let cache = AreaEstimate::for_entries(16).total_um2();
    let offload = offload_area_um2(mallacc::DEFAULT_QUEUE_DEPTH);
    let mean = |i: usize| {
        if rows.is_empty() {
            0.0
        } else {
            rows.iter().map(|r| r.improvement_pct(i)).sum::<f64>() / rows.len() as f64
        }
    };
    let designs = [
        ("none", 0.0, 0.0),
        ("mallacc", cache, mean(1)),
        ("offload", offload, mean(2)),
        ("both", offload + cache, mean(3)),
    ];
    let points: Vec<(f64, f64)> = designs.iter().map(|&(_, a, g)| (a, g)).collect();
    let frontier = pareto_frontier(&points);
    let knee = knee_index(&points);
    let mut t = Table::new(&["design", "area um2", "mean impr", ""]);
    let mut json_rows = Vec::new();
    for (i, &(name, area, gain)) in designs.iter().enumerate() {
        let mark = if knee == Some(i) {
            "knee"
        } else if frontier.contains(&i) {
            "*"
        } else {
            ""
        };
        t.row_owned(vec![
            name.to_string(),
            format!("{area:.0}"),
            format!("{gain:+.1}%"),
            mark.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("design", Json::from(name)),
            ("area_um2", Json::from(area)),
            ("mean_improvement_pct", Json::from(gain)),
            ("on_frontier", Json::from(frontier.contains(&i))),
            ("knee", Json::from(knee == Some(i))),
        ]));
    }
    let text = format!(
        "== area vs. speedup ('*' = Pareto frontier, 'knee' = selected) ==\n{}",
        t.render()
    );
    (text, Json::obj([("designs", Json::Arr(json_rows))]))
}

/// Runs `repro offload` and returns `(exit code, report text)`.
pub fn offload_report(args: &OffloadArgs) -> (i32, String) {
    let mut out = format!(
        "repro offload: substrate {}, {} workloads x 4 variants, calls {}, requests {}, seed {}\n\n",
        args.substrate.name(),
        args.workloads.len(),
        args.calls,
        args.requests,
        args.seed
    );
    let (h2h_text, h2h_json, rows) = head_to_head_section(args);
    let (depth_text, depth_json) = depth_sweep_section(args);
    let (fleet_text, fleet_json) = fleet_section(args);
    let (pareto_text, pareto_json) = pareto_section(&rows);
    out.push_str(&h2h_text);
    out.push('\n');
    out.push_str(&depth_text);
    out.push('\n');
    out.push_str(&fleet_text);
    out.push('\n');
    out.push_str(&pareto_text);

    cli::finish("offload", out, true, args.json.as_deref(), || {
        Json::obj([
            ("schema", Json::from("mallacc-offload/1")),
            ("substrate", Json::from(args.substrate.name())),
            (
                "scale",
                Json::obj([
                    ("calls", Json::from(args.calls)),
                    ("warmup", Json::from(args.warmup)),
                    ("requests", Json::from(args.requests)),
                    ("seed", Json::from(args.seed)),
                ]),
            ),
            ("head_to_head", h2h_json),
            ("depth_sweep", depth_json),
            ("fleet", fleet_json),
            ("pareto", pareto_json),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> OffloadArgs {
        OffloadArgs {
            workloads: vec!["tp_small".to_string(), "xapian.pages".to_string()],
            scenarios: vec!["rpc-fanout".to_string()],
            depths: vec![1, 8],
            cores: vec![1, 2],
            calls: 200,
            warmup: 40,
            requests: 24,
            ..OffloadArgs::default()
        }
    }

    #[test]
    fn parse_scales_and_rejections() {
        let a = OffloadArgs::parse(&s(&["--smoke", "--jobs", "3"])).unwrap();
        assert_eq!(a.jobs, 3);
        assert_eq!(a.calls, 600);
        let f = OffloadArgs::parse(&s(&["--full"])).unwrap();
        assert_eq!(f.workloads.len(), 14);
        assert!(f.cores.contains(&32));
        let o = OffloadArgs::parse(&s(&[
            "--workload",
            "gauss",
            "--depths",
            "2,16",
            "--cores",
            "1,64",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(o.workloads, vec!["gauss"]);
        assert_eq!(o.depths, vec![2, 16]);
        assert_eq!(o.cores, vec![1, 64]);
        assert_eq!(o.seed, 7);

        let sub = OffloadArgs::parse(&s(&["--substrate", "rpmalloc"])).unwrap();
        assert_eq!(sub.substrate, SubstrateKind::Rpmalloc);
        assert!(OffloadArgs::parse(&s(&["--substrate", "dlmalloc"])).is_err());

        assert!(OffloadArgs::parse(&s(&["--nope"])).is_err());
        assert!(OffloadArgs::parse(&s(&["--workload", "bogus"])).is_err());
        assert!(OffloadArgs::parse(&s(&["--scenario", "bogus"])).is_err());
        assert!(OffloadArgs::parse(&s(&["--depths", "0"])).is_err());
        assert!(OffloadArgs::parse(&s(&["--depths", "65"])).is_err());
        assert!(OffloadArgs::parse(&s(&["--cores", "65"])).is_err());
        assert!(OffloadArgs::parse(&s(&["--calls", "0"])).is_err());

        let sampled = OffloadArgs::parse(&s(&["--sim", "sampled"])).unwrap();
        assert_eq!(sampled.sim, SimMode::sampled_default());
        assert!(OffloadArgs::parse(&s(&["--sim", "fast"])).is_err());
    }

    #[test]
    fn report_names_the_load_bearing_sections() {
        let (code, text) = offload_report(&tiny());
        assert_eq!(code, 0, "{text}");
        for needle in [
            "single-core head-to-head",
            "queue-depth sweep",
            "fleet scenario streams",
            "area vs. speedup",
            "knee",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn head_to_head_finds_wins_on_both_sides() {
        // The acceptance criterion in miniature: the back-to-back
        // microbenchmark saturates the offload queue (mallacc wins), the
        // compute-heavy macro workload hides the helper round-trip
        // (offload wins).
        let (_, text) = offload_report(&tiny());
        assert!(text.contains("offload wins 1/2"), "{text}");
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = tiny();
        let (c1, seq) = offload_report(&a);
        a.jobs = 4;
        let (c2, par) = offload_report(&a);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn every_substrate_completes_the_full_report() {
        // Every section — head-to-head, depth sweep, sharded fleet
        // streams, Pareto — must run on every substrate, and the header
        // must say which one it was.
        for kind in SubstrateKind::ALL {
            let a = OffloadArgs {
                substrate: kind,
                cores: vec![1, 2],
                requests: 12,
                ..tiny()
            };
            let (code, text) = offload_report(&a);
            assert_eq!(code, 0, "{kind:?}:\n{text}");
            assert!(
                text.starts_with(&format!("repro offload: substrate {}", kind.name())),
                "{kind:?} header:\n{text}"
            );
            assert!(text.contains("fleet scenario streams"), "{kind:?}:\n{text}");
        }
    }

    #[test]
    fn json_export_parses_and_carries_all_sections() {
        let dir = std::env::temp_dir().join(format!("repro-offload-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = OffloadArgs {
            json: Some(dir.join("offload.json")),
            ..tiny()
        };
        let (code, _) = offload_report(&a);
        assert_eq!(code, 0);
        let data =
            mallacc_stats::json::parse(&std::fs::read_to_string(dir.join("offload.json")).unwrap())
                .unwrap();
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-offload/1")
        );
        assert_eq!(
            data.get("head_to_head")
                .and_then(|h| h.get("rows"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        for section in ["depth_sweep", "fleet", "pareto"] {
            assert!(data.get(section).is_some(), "missing {section}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
