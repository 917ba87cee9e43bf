//! Golden snapshots for the `repro fleet --smoke` report: the full text
//! output — scaling curves, tail-latency tables and p99 knees for every
//! catalogue scenario — and its `--json` document must be byte-identical
//! on every run, on every host, and at every `--jobs` value. `tests/golden/mod.rs` says how to
//! regenerate the snapshot after an intentional change.

mod golden;

use std::sync::OnceLock;

use golden::{assert_golden, run_report, Runs};
use mallacc_bench::fleet_cli::{fleet_report, FleetArgs};

fn smoke() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| run_report("--smoke", FleetArgs::parse, fleet_report))
}

#[test]
fn smoke_report_matches_snapshot() {
    assert_golden("fleet_smoke.txt", smoke().text());
}

#[test]
fn smoke_json_matches_snapshot() {
    assert_golden("fleet_smoke.json", smoke().json());
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    smoke().assert_jobs_invariant();
}
