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
//! A run first simulates the first three sections into one outcome
//! value, then renders the text and the JSON document from it, deriving
//! the Pareto section from the head-to-head. [`HeadToHead`] is the
//! single-core duel `repro substrate` runs too, and the two reports share
//! its table and its mean.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, Command, Flag};
use mallacc::{offload_area_um2, AreaEstimate, Mode, OffloadConfig, OffloadStats, SimMode};
use mallacc_explore::{run_mt_stream, run_single_core};
use mallacc_fleet::Scenario;
use mallacc_stats::table::Table;
use mallacc_stats::{knee_index, pareto_frontier, Json};
use mallacc_substrate::SubstrateKind;
use mallacc_workloads::{AnyWorkload, MacroWorkload, Microbenchmark};

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
    /// Workloads of the single-core head-to-head.
    pub workloads: Vec<AnyWorkload>,
    /// Fleet scenarios to stream.
    pub scenarios: Vec<&'static Scenario>,
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

/// The smoke-scale duel workloads of `repro offload` and `repro
/// substrate`: one queue-bound and one compute-bound workload per family.
pub(crate) fn smoke_workloads() -> Vec<AnyWorkload> {
    ["tp_small", "gauss_free", "471.omnetpp", "xapian.pages"]
        .map(|name| AnyWorkload::by_name(name).expect("a catalogue workload"))
        .to_vec()
}

/// The full-scale duel workloads: every workload, micro then macro.
pub(crate) fn all_workloads() -> Vec<AnyWorkload> {
    Microbenchmark::ALL
        .into_iter()
        .map(AnyWorkload::Micro)
        .chain(MacroWorkload::all().into_iter().map(AnyWorkload::Macro))
        .collect()
}

impl Default for OffloadArgs {
    fn default() -> Self {
        // The defaults are the smoke scale, with CI-sized volumes.
        Self {
            substrate: SubstrateKind::TcMalloc,
            workloads: smoke_workloads(),
            scenarios: ["rpc-fanout", "tenant-mix"]
                .map(|name| Scenario::by_name(name).expect("a catalogue scenario"))
                .to_vec(),
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
            workloads: all_workloads(),
            scenarios: Scenario::all().iter().collect(),
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
        p.set_all("--scenario", &mut a.scenarios, cli::scenario)?;
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

    /// The depth sweep's probes: the first and the last head-to-head
    /// workload, one queue-bound and one compute-bound (micro first,
    /// macro last, in both scales).
    fn probes(&self) -> Vec<&AnyWorkload> {
        let w = &self.workloads;
        w[..1].iter().chain(w[1..].last()).collect()
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

/// Allocator cycles of one run under each of the four machine variants
/// (baseline, Mallacc, offload, and offload with a malloc cache), and
/// the verdict of the Mallacc-vs-offload duel.
#[derive(Debug, Clone, Copy)]
pub struct HeadToHead(pub [f64; 4]);

impl HeadToHead {
    /// `workload` on `substrate` under each variant, each run by
    /// [`run_single_core`] over the same `warmup`-call warm-up trace and
    /// `calls`-call measured trace.
    pub fn single_core(
        substrate: SubstrateKind,
        workload: &AnyWorkload,
        warmup: usize,
        calls: usize,
        seed: u64,
        sim: SimMode,
    ) -> Self {
        let warm = workload.trace(warmup, seed);
        let measure = workload.trace(calls, seed.wrapping_add(1));
        HeadToHead(modes().map(|mode| run_single_core(substrate, mode, sim, &warm, &measure).1))
    }

    /// Improvement over baseline, percent, of variant `i`.
    fn improvement_pct(&self, i: usize) -> f64 {
        if self.0[0] > 0.0 {
            100.0 * (1.0 - self.0[i] / self.0[0])
        } else {
            0.0
        }
    }

    /// Which accelerator wins the Mallacc-vs-offload duel.
    fn winner(&self) -> &'static str {
        if self.0[2] < self.0[1] {
            "offload"
        } else {
            "mallacc"
        }
    }
}

/// Mean improvement over baseline, percent, of Mallacc, offload and
/// both across `duels`; zeros for none.
pub(crate) fn mean_improvements(duels: &[HeadToHead]) -> [f64; 3] {
    [1, 2, 3].map(|i| {
        if duels.is_empty() {
            0.0
        } else {
            duels.iter().map(|d| d.improvement_pct(i)).sum::<f64>() / duels.len() as f64
        }
    })
}

/// The baseline column of a duel table: its header, its JSON key and
/// its decimals.
pub(crate) type BaseColumn = (&'static str, &'static str, usize);

/// Allocator cycles of a single-core cell.
pub(crate) const BASE_CYCLES: BaseColumn = ("base cyc", "base_cycles", 0);

/// Per-call cycles of a fleet stream, over all cores.
const BASE_PER_CALL: BaseColumn = ("base c/call", "base_cycles_per_call", 1);

/// The text table and the JSON rows of a list of duels. Each row leads
/// with its values of the `lead` columns (a header is also its JSON key,
/// and a string value prints as itself), then the `base` column, then
/// the Mallacc, offload and both improvements and the winner.
pub(crate) fn duel_table<'a>(
    lead: &[&'static str],
    base: BaseColumn,
    rows: impl IntoIterator<Item = (Vec<Json>, &'a HeadToHead)>,
) -> (String, Vec<Json>) {
    let (base_header, base_key, decimals) = base;
    let mut headers = lead.to_vec();
    headers.extend([base_header, "mallacc", "offload", "both", "winner"]);
    let mut t = Table::new(&headers);
    let mut json_rows = Vec::new();
    for (values, h) in rows {
        let mut cells: Vec<String> = values
            .iter()
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                v => v.render(),
            })
            .collect();
        cells.push(format!("{:.*}", decimals, h.0[0]));
        cells.extend((1..4).map(|i| format!("{:+.1}%", h.improvement_pct(i))));
        cells.push(h.winner().to_string());
        t.row_owned(cells);
        let mut fields: Vec<(&'static str, Json)> = lead.iter().copied().zip(values).collect();
        fields.extend([
            (base_key, Json::from(h.0[0])),
            ("mallacc_improvement_pct", h.improvement_pct(1).into()),
            ("offload_improvement_pct", h.improvement_pct(2).into()),
            ("both_improvement_pct", h.improvement_pct(3).into()),
            ("winner", h.winner().into()),
        ]);
        json_rows.push(Json::obj(fields));
    }
    (t.render(), json_rows)
}

/// Everything one `repro offload` run computed, before any of it is
/// rendered.
struct Outcome {
    /// One duel per workload.
    head_to_head: Vec<HeadToHead>,
    /// Offload allocator cycles and queue counters per probe and queue
    /// depth, probe-major.
    depth_sweep: Vec<(f64, OffloadStats)>,
    /// Per-call cycles of one duel per scenario and core count,
    /// scenario-major.
    fleet: Vec<HeadToHead>,
}

impl Outcome {
    /// Runs every section at the scale of `args`.
    fn run(args: &OffloadArgs) -> Outcome {
        let (substrate, sim, seed) = (args.substrate, args.sim, args.seed);
        let (probes, depths, cores) = (args.probes(), &args.depths, &args.cores);
        let head_to_head = run_indexed(args.workloads.len() as u64, args.jobs, |i| {
            let workload = &args.workloads[i as usize];
            HeadToHead::single_core(substrate, workload, args.warmup, args.calls, seed, sim)
        });
        let depth_sweep = run_indexed((probes.len() * depths.len()) as u64, args.jobs, |i| {
            let probe = probes[i as usize / depths.len()];
            let mut cfg = OffloadConfig::speedmalloc_default();
            cfg.queue_depth = depths[i as usize % depths.len()];
            let warm = probe.trace(args.warmup, seed);
            let measure = probe.trace(args.calls, seed.wrapping_add(1));
            let (machine, cycles) =
                run_single_core(substrate, Mode::Offload(cfg), sim, &warm, &measure);
            let stats = machine.offload_stats().expect("offload mode has a queue");
            (cycles, stats)
        });
        let fleet_cells = (args.scenarios.len() * cores.len()) as u64;
        let fleet = run_indexed(fleet_cells, args.jobs, |i| {
            let scenario = args.scenarios[i as usize / cores.len()];
            let cores = cores[i as usize % cores.len()];
            HeadToHead(modes().map(|mode| {
                let stream = scenario.stream(cores, args.requests, seed);
                let (cycles, calls) = run_mt_stream(substrate, mode, cores, sim, stream);
                cycles as f64 / calls.max(1) as f64
            }))
        });
        Outcome {
            head_to_head,
            depth_sweep,
            fleet,
        }
    }
}

fn depth_sweep_section(args: &OffloadArgs, cells: &[(f64, OffloadStats)]) -> (String, Json) {
    let mut t = Table::new(&[
        "workload",
        "qdepth",
        "alloc cyc",
        "full stalls",
        "stall cyc",
    ]);
    let mut json_rows = Vec::new();
    let keys = (args.probes().into_iter()).flat_map(|p| args.depths.iter().map(move |&d| (p, d)));
    for ((workload, depth), (cycles, stats)) in keys.zip(cells) {
        t.row_owned(vec![
            workload.name().to_string(),
            depth.to_string(),
            format!("{cycles:.0}"),
            stats.queue_full_stalls.to_string(),
            stats.stall_cycles.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("workload", Json::from(workload.name())),
            ("queue_depth", Json::from(depth)),
            ("alloc_cycles", Json::from(*cycles)),
            ("queue_full_stalls", Json::from(stats.queue_full_stalls)),
            ("stall_cycles", Json::from(stats.stall_cycles)),
        ]));
    }
    let text = format!("== offload queue-depth sweep ==\n{}", t.render());
    (text, Json::obj([("cells", Json::Arr(json_rows))]))
}

fn pareto_section(rows: &[HeadToHead]) -> (String, Json) {
    // Mean single-core improvement per accelerator vs. its silicon cost:
    // the malloc cache from the core area model, the helper core + queue
    // from the offload area model, `both` paying for the pair.
    let cache = AreaEstimate::for_entries(16).total_um2();
    let offload = offload_area_um2(mallacc::DEFAULT_QUEUE_DEPTH);
    let [mallacc, offload_gain, both] = mean_improvements(rows);
    let designs = [
        ("none", 0.0, 0.0),
        ("mallacc", cache, mallacc),
        ("offload", offload, offload_gain),
        ("both", offload + cache, both),
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

/// Renders `o` as the report text and, with `--json`, the document;
/// returns the exit code and the text.
fn render(args: &OffloadArgs, o: &Outcome) -> (i32, String) {
    let h2h = &o.head_to_head;
    let names = args.workloads.iter().map(|w| vec![Json::from(w.name())]);
    let (h2h_table, h2h_rows) = duel_table(&["workload"], BASE_CYCLES, names.zip(h2h));
    let offload_wins = h2h.iter().filter(|d| d.winner() == "offload").count();
    let mallacc_wins = h2h.len() - offload_wins;
    let (depth_text, depth_json) = depth_sweep_section(args, &o.depth_sweep);
    let keys = (args.scenarios.iter())
        .flat_map(|s| (args.cores.iter()).map(|&c| vec![Json::from(s.name), Json::from(c)]));
    let (fleet_table, fleet_rows) =
        duel_table(&["scenario", "cores"], BASE_PER_CALL, keys.zip(&o.fleet));
    let (pareto_text, pareto_json) = pareto_section(h2h);
    let out = format!(
        "repro offload: substrate {}, {} workloads x 4 variants, calls {}, requests {}, seed {}\n\n\
         == single-core head-to-head (improvement vs. baseline) ==\n{h2h_table}\
         offload wins {offload_wins}/{} workloads, mallacc wins {mallacc_wins}\n\n\
         {depth_text}\n\
         == fleet scenario streams (per-call cycles, all cores) ==\n{fleet_table}\n\
         {pareto_text}",
        args.substrate.name(),
        args.workloads.len(),
        args.calls,
        args.requests,
        args.seed,
        h2h.len(),
    );
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
            (
                "head_to_head",
                Json::obj([
                    ("rows", Json::Arr(h2h_rows)),
                    ("offload_wins", Json::from(offload_wins)),
                    ("mallacc_wins", Json::from(mallacc_wins)),
                ]),
            ),
            ("depth_sweep", depth_json),
            ("fleet", Json::obj([("cells", Json::Arr(fleet_rows))])),
            ("pareto", pareto_json),
        ])
    })
}

/// Runs `repro offload` and returns `(exit code, report text)`.
pub fn offload_report(args: &OffloadArgs) -> (i32, String) {
    render(args, &Outcome::run(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> OffloadArgs {
        OffloadArgs {
            workloads: ["tp_small", "xapian.pages"]
                .map(|n| AnyWorkload::by_name(n).unwrap())
                .to_vec(),
            scenarios: vec![Scenario::by_name("rpc-fanout").unwrap()],
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
        let names: Vec<&str> = o.workloads.iter().map(AnyWorkload::name).collect();
        assert_eq!(names, ["gauss"]);
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
