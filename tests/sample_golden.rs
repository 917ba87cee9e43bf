//! Golden snapshot for the `repro sample --smoke` report: the sampled-vs-
//! full error table for every macro workload, under the default cadence,
//! must be byte-identical on every run, on every host, and at every
//! `--jobs` value. `tests/golden/mod.rs` says how to regenerate the
//! snapshot after an intentional change.

mod golden;

use std::sync::OnceLock;

use golden::{assert_golden, run_report, Runs};
use mallacc_bench::sample_cli::{sample_report, SampleArgs};

fn smoke() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| run_report("--smoke", SampleArgs::parse, sample_report))
}

#[test]
fn smoke_report_matches_snapshot_and_passes() {
    assert_golden("sample_smoke.txt", smoke().text());
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    smoke().assert_jobs_invariant();
}
