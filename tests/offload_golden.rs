//! Golden snapshots for the `repro offload --smoke` report: the full text
//! output — the Mallacc-vs-offload head-to-head, queue-depth sweep, fleet
//! streams and area/speedup Pareto table — and its `--json` document
//! must be byte-identical on every run, on every host, and at every
//! `--jobs` value.
//! `tests/golden/mod.rs` says how to regenerate the snapshot after an
//! intentional change.

mod golden;

use std::sync::OnceLock;

use golden::{assert_golden, run_report, Runs};
use mallacc_bench::offload_cli::{offload_report, OffloadArgs};

fn smoke() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| run_report("--smoke", OffloadArgs::parse, offload_report))
}

#[test]
fn smoke_report_matches_snapshot() {
    assert_golden("offload_smoke.txt", smoke().text());
}

#[test]
fn smoke_json_matches_snapshot() {
    assert_golden("offload_smoke.json", smoke().json());
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    smoke().assert_jobs_invariant();
}

#[test]
fn smoke_head_to_head_has_wins_on_both_sides() {
    // The acceptance bar of the head-to-head: at least one workload where
    // the offload core beats Mallacc and at least one where it loses,
    // visible in the pinned smoke report itself.
    let text = smoke().text();
    let verdicts: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("== offload queue-depth"))
        .filter_map(|l| l.split_whitespace().last())
        .collect();
    assert!(verdicts.contains(&"offload"), "no offload win:\n{text}");
    assert!(verdicts.contains(&"mallacc"), "no mallacc win:\n{text}");
}
