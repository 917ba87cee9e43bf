//! Golden snapshot for the `repro validate --smoke` report: the full text
//! output must be byte-identical on every run, on every host, and at
//! every `--jobs` value. `tests/golden/mod.rs` says how to regenerate the
//! snapshots after an intentional change.

mod golden;

use std::sync::OnceLock;

use golden::{assert_golden, run_report, Runs};
use mallacc_bench::validate_cli::{validate_report, ValidateArgs};

fn smoke() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| run_report("--smoke", ValidateArgs::parse, validate_report))
}

#[test]
fn smoke_report_matches_snapshot_and_passes() {
    assert_golden("validate_smoke.txt", smoke().text());
}

#[test]
fn substrate_table_matches_snapshot() {
    // The substrate-conformance section gets its own snapshot so drift
    // in the allocator-law corpus is visible independently of the
    // (much larger) full report.
    let section = smoke()
        .text()
        .split("== ")
        .find(|s| s.starts_with("substrate conformance"))
        .map(|s| format!("== {s}"))
        .expect("report has a substrate section");
    assert_golden("validate_substrate_table.txt", &section);
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    smoke().assert_jobs_invariant();
}
