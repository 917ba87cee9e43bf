//! The `repro substrate` subcommand: the Mallacc-vs-offload-vs-both
//! head-to-head across every allocator substrate. Flags: [`USAGE`].
//!
//! The paper evaluates the malloc cache on TCMalloc only and argues the
//! design generalises because it keys on requested size, not on any
//! TCMalloc data structure. This report checks the claim on four
//! functional substrates — TCMalloc, jemalloc, rpmalloc (lock-free
//! single-ownership spans), and the rseq per-CPU TCMalloc variant —
//! running the same workload traces under all four accelerator modes:
//!
//! 1. **Per-substrate head-to-head** — for every `substrate × workload`
//!    cell, allocator cycles for baseline vs. Mallacc vs. offload vs.
//!    both, and which accelerator wins.
//! 2. **Per-substrate summary** — mean improvement per accelerator over
//!    the workload list, the headline table: where each substrate's fast
//!    path already resolves in a couple of loads (rpmalloc's span mask,
//!    per-CPU's rseq slab), Mallacc's margin shrinks but never goes
//!    negative; where size-class lookup and free-list chases dominate
//!    (TCMalloc, jemalloc), it is largest.
//!
//! Every cell is a pure function of its index, so the report is
//! byte-identical for every `--jobs` value.

use std::path::PathBuf;

use crate::cli::{self, run_indexed, CommonFlags, CommonSpec, ScaleFlag};
use crate::offload_cli::HeadToHead;
use mallacc::SimMode;
use mallacc_stats::table::Table;
use mallacc_stats::Json;
use mallacc_substrate::SubstrateKind;
use mallacc_workloads::AnyWorkload;

/// Command line of `repro substrate`.
pub const USAGE: &str = "repro substrate [--smoke] [--full] [--substrate NAME]... \
    [--workload NAME]... [--calls N] [--warmup N] [--seed N] [--jobs N] \
    [--sim full|sampled[:W:D:P[:S]]] [--json PATH]";

/// Parsed `repro substrate` arguments.
#[derive(Debug, Clone)]
pub struct SubstrateArgs {
    /// Substrates to compare (defaults to all four).
    pub substrates: Vec<SubstrateKind>,
    /// Workloads of the head-to-head (empty never happens post-parse).
    pub workloads: Vec<String>,
    /// Measured malloc calls per cell.
    pub calls: usize,
    /// Warm-up malloc calls before measurement.
    pub warmup: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential). Output-invariant.
    pub jobs: usize,
    /// Timing execution mode applied to every cell's simulators.
    pub sim: SimMode,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl Default for SubstrateArgs {
    fn default() -> Self {
        // The defaults are the smoke scale: one queue-bound and one
        // compute-bound workload per family, CI-sized volumes.
        Self {
            substrates: SubstrateKind::ALL.to_vec(),
            workloads: vec![
                "tp_small".to_string(),
                "gauss_free".to_string(),
                "471.omnetpp".to_string(),
                "xapian.pages".to_string(),
            ],
            calls: 600,
            warmup: 120,
            seed: 42,
            jobs: 1,
            sim: SimMode::Full,
            json: None,
        }
    }
}

impl SubstrateArgs {
    /// The full scale: every workload at paper-sized volumes.
    pub fn full() -> Self {
        Self {
            workloads: AnyWorkload::all_names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
            calls: 12_000,
            warmup: 2_000,
            ..Self::default()
        }
    }

    /// Parses the argument list after `substrate`. Shared flags are
    /// collected via [`crate::cli`] and applied after the loop, so
    /// explicit lists win over `--smoke`/`--full` regardless of order.
    pub fn parse(args: &[String]) -> Result<SubstrateArgs, String> {
        let mut common = CommonFlags::default();
        let mut substrates = Vec::new();
        let mut workloads = Vec::new();
        let (mut calls, mut warmup) = (None, None);
        let mut sim = None;
        let mut i = 0;
        while i < args.len() {
            if cli::take_common(args, &mut i, &CommonSpec::ALL, &mut common)? {
                i += 1;
                continue;
            }
            match args[i].as_str() {
                "--substrate" => {
                    substrates.push(cli::substrate(&cli::value(args, &mut i, "--substrate")?)?);
                }
                "--workload" => workloads.push(cli::value(args, &mut i, "--workload")?),
                "--calls" => {
                    calls =
                        Some(cli::int(cli::value(args, &mut i, "--calls")?, "--calls")? as usize);
                }
                "--warmup" => {
                    warmup =
                        Some(cli::int(cli::value(args, &mut i, "--warmup")?, "--warmup")? as usize);
                }
                "--sim" => {
                    sim = Some(SimMode::parse(&cli::value(args, &mut i, "--sim")?)?);
                }
                other => return Err(format!("unknown substrate flag {other:?}")),
            }
            i += 1;
        }
        let mut parsed = match common.scale {
            Some(ScaleFlag::Full) => SubstrateArgs::full(),
            _ => SubstrateArgs::default(),
        };
        if !substrates.is_empty() {
            parsed.substrates = substrates;
        }
        if !workloads.is_empty() {
            parsed.workloads = workloads;
        }
        if let Some(v) = calls {
            parsed.calls = v;
        }
        if let Some(v) = warmup {
            parsed.warmup = v;
        }
        if let Some(seed) = common.seed {
            parsed.seed = seed;
        }
        if let Some(jobs) = common.jobs {
            parsed.jobs = jobs;
        }
        if let Some(sim) = sim {
            parsed.sim = sim;
        }
        parsed.json = common.json;
        if parsed.calls == 0 {
            return Err("--calls must be at least 1".to_string());
        }
        for name in &parsed.workloads {
            cli::workload(name)?;
        }
        Ok(parsed)
    }
}

/// One head-to-head cell: a `substrate × workload` pair.
#[derive(Debug, Clone)]
struct Cell {
    substrate: SubstrateKind,
    workload: String,
    h2h: HeadToHead,
}

fn run_cells(args: &SubstrateArgs) -> Vec<Cell> {
    let total = (args.substrates.len() * args.workloads.len()) as u64;
    run_indexed(total, args.jobs, |i| {
        let substrate = args.substrates[i as usize / args.workloads.len()];
        let name = &args.workloads[i as usize % args.workloads.len()];
        let workload = AnyWorkload::by_name(name).expect("validated at parse time");
        let h2h = HeadToHead::single_core(
            substrate,
            &workload,
            args.warmup,
            args.calls,
            args.seed,
            args.sim,
        );
        Cell {
            substrate,
            workload: name.clone(),
            h2h,
        }
    })
}

fn head_to_head_section(cells: &[Cell]) -> (String, Json) {
    let mut t = Table::new(&[
        "substrate",
        "workload",
        "base cyc",
        "mallacc",
        "offload",
        "both",
        "winner",
    ]);
    let mut json_rows = Vec::new();
    for c in cells {
        let base = c.h2h.0[0];
        let row = [
            c.substrate.name().to_string(),
            c.workload.clone(),
            format!("{base:.0}"),
        ];
        t.row_owned(row.into_iter().chain(c.h2h.cells()).collect());
        let fields = [
            ("substrate", Json::from(c.substrate.name())),
            ("workload", Json::from(c.workload.as_str())),
            ("base_cycles", Json::from(base)),
        ];
        json_rows.push(Json::obj(fields.into_iter().chain(c.h2h.json_fields())));
    }
    let text = format!(
        "== per-substrate head-to-head (improvement vs. that substrate's baseline) ==\n{}",
        t.render()
    );
    (text, Json::obj([("rows", Json::Arr(json_rows))]))
}

fn summary_section(args: &SubstrateArgs, cells: &[Cell]) -> (String, Json) {
    let mut t = Table::new(&[
        "substrate",
        "workloads",
        "mean mallacc",
        "mean offload",
        "mean both",
        "best",
    ]);
    let mut json_rows = Vec::new();
    for &substrate in &args.substrates {
        let rows: Vec<&Cell> = cells.iter().filter(|c| c.substrate == substrate).collect();
        let mean = |i: usize| {
            if rows.is_empty() {
                0.0
            } else {
                rows.iter().map(|c| c.h2h.improvement_pct(i)).sum::<f64>() / rows.len() as f64
            }
        };
        let (m, o, b) = (mean(1), mean(2), mean(3));
        let best = [("mallacc", m), ("offload", o), ("both", b)]
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| name)
            .unwrap_or("mallacc");
        t.row_owned(vec![
            substrate.name().to_string(),
            rows.len().to_string(),
            format!("{m:+.1}%"),
            format!("{o:+.1}%"),
            format!("{b:+.1}%"),
            best.to_string(),
        ]);
        json_rows.push(Json::obj([
            ("substrate", Json::from(substrate.name())),
            ("workloads", Json::from(rows.len())),
            ("mean_mallacc_improvement_pct", Json::from(m)),
            ("mean_offload_improvement_pct", Json::from(o)),
            ("mean_both_improvement_pct", Json::from(b)),
            ("best", Json::from(best)),
        ]));
    }
    let text = format!(
        "== per-substrate summary (mean improvement across workloads) ==\n{}",
        t.render()
    );
    (text, Json::obj([("rows", Json::Arr(json_rows))]))
}

/// Runs `repro substrate` and returns `(exit code, report text)`.
pub fn substrate_report(args: &SubstrateArgs) -> (i32, String) {
    let mut out = format!(
        "repro substrate: {} substrates x {} workloads x 4 variants, calls {}, seed {}\n\n",
        args.substrates.len(),
        args.workloads.len(),
        args.calls,
        args.seed
    );
    let cells = run_cells(args);
    let (h2h_text, h2h_json) = head_to_head_section(&cells);
    let (sum_text, sum_json) = summary_section(args, &cells);
    out.push_str(&h2h_text);
    out.push('\n');
    out.push_str(&sum_text);

    // The generality gate: Mallacc's mean loss on any substrate must stay
    // inside the probe-overhead bound. A thin fast path (rpmalloc's
    // intrusive pop is one hot load + one chase) leaves little to
    // accelerate, and depth-alternating churn keeps the cached pair
    // incomplete — the paper's Figure 17 tp effect — so small negatives
    // are honest; a mean beyond -2% would mean the integration is doing
    // real damage, not just paying its probes.
    let regressed: Vec<&str> = sum_json
        .get("rows")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter(|r| {
                    r.get("mean_mallacc_improvement_pct")
                        .and_then(Json::as_f64)
                        .is_some_and(|v| v < -2.0)
                })
                .filter_map(|r| r.get("substrate").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    let pass = regressed.is_empty();
    out.push_str(&format!(
        "\nverdict: {}\n",
        if pass {
            "PASS (mallacc inside the probe-overhead bound on every substrate)".to_string()
        } else {
            format!("FAIL (mallacc regresses: {})", regressed.join(", "))
        }
    ));

    if let Some(path) = &args.json {
        let doc = Json::obj([
            ("schema", Json::from("mallacc-substrate/1")),
            (
                "scale",
                Json::obj([
                    ("calls", Json::from(args.calls)),
                    ("warmup", Json::from(args.warmup)),
                    ("seed", Json::from(args.seed)),
                ]),
            ),
            ("head_to_head", h2h_json),
            ("summary", sum_json),
            ("pass", Json::from(pass)),
        ]);
        if !cli::write_json("substrate", path, &doc, &mut out) {
            return (1, out);
        }
    }
    (if pass { 0 } else { 1 }, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> SubstrateArgs {
        SubstrateArgs {
            workloads: vec!["tp_small".to_string(), "471.omnetpp".to_string()],
            calls: 200,
            warmup: 40,
            ..SubstrateArgs::default()
        }
    }

    #[test]
    fn parse_scales_and_rejections() {
        let a = SubstrateArgs::parse(&s(&["--smoke", "--jobs", "3"])).unwrap();
        assert_eq!(a.jobs, 3);
        assert_eq!(a.calls, 600);
        assert_eq!(a.substrates.len(), 4);
        let f = SubstrateArgs::parse(&s(&["--full"])).unwrap();
        assert_eq!(f.workloads.len(), 14);
        assert_eq!(f.calls, 12_000);
        let o = SubstrateArgs::parse(&s(&[
            "--substrate",
            "rpmalloc",
            "--substrate",
            "percpu",
            "--workload",
            "gauss",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            o.substrates,
            vec![SubstrateKind::Rpmalloc, SubstrateKind::PerCpu]
        );
        assert_eq!(o.workloads, vec!["gauss"]);
        assert_eq!(o.seed, 7);

        assert!(SubstrateArgs::parse(&s(&["--nope"])).is_err());
        assert!(SubstrateArgs::parse(&s(&["--substrate", "dlmalloc"])).is_err());
        assert!(SubstrateArgs::parse(&s(&["--workload", "bogus"])).is_err());
        assert!(SubstrateArgs::parse(&s(&["--calls", "0"])).is_err());
        assert!(SubstrateArgs::parse(&s(&["--sim", "fast"])).is_err());
    }

    #[test]
    fn report_covers_every_substrate_and_passes() {
        let (code, text) = substrate_report(&tiny());
        assert_eq!(code, 0, "{text}");
        for needle in [
            "per-substrate head-to-head",
            "per-substrate summary",
            "tcmalloc",
            "jemalloc",
            "rpmalloc",
            "percpu",
            "PASS",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = tiny();
        let (c1, seq) = substrate_report(&a);
        a.jobs = 4;
        let (c2, par) = substrate_report(&a);
        assert_eq!((c1, c2), (0, 0));
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn json_export_parses_and_carries_the_summary() {
        let dir = std::env::temp_dir().join(format!("repro-substrate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = SubstrateArgs {
            json: Some(dir.join("substrate.json")),
            ..tiny()
        };
        let (code, _) = substrate_report(&a);
        assert_eq!(code, 0);
        let data = mallacc_stats::json::parse(
            &std::fs::read_to_string(dir.join("substrate.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-substrate/1")
        );
        assert_eq!(
            data.get("summary")
                .and_then(|h| h.get("rows"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4)
        );
        assert!(matches!(data.get("pass"), Some(Json::Bool(true))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
