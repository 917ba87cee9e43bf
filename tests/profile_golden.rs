//! Golden-trace snapshot tests: the canonical fast-path malloc/free
//! kernels must produce byte-identical stall breakdowns and Chrome trace
//! JSON on every run, on every host, and at every `--jobs` value.
//! `tests/golden/mod.rs` says how to regenerate the snapshots after an
//! intentional change: the whole point is that *unintentional*
//! attribution drift fails CI.

mod golden;

use golden::{assert_golden, run_report};
use mallacc::Mode;
use mallacc_bench::profile_cli::{profile_report, ProfileArgs};
use mallacc_prof::chrome::{chrome_trace, validate_chrome_trace};
use mallacc_prof::report::{profile_fastpath, render_component_table, render_stall_table};

/// Kernel scale for the snapshots: small enough to run in milliseconds,
/// large enough that every fast-path component shows up.
const PAIRS: u64 = 32;
const WARMUP: u64 = 8;
const UOPS: usize = 48;

#[test]
fn baseline_fastpath_stall_breakdown_matches_snapshot() {
    let (p, _) = profile_fastpath(Mode::Baseline, "baseline", PAIRS, WARMUP, 0);
    assert_golden("fastpath_baseline.txt", &render_stall_table(&p));
}

#[test]
fn mallacc_fastpath_stall_breakdown_matches_snapshot() {
    let (p, _) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, 0);
    assert_golden("fastpath_mallacc.txt", &render_stall_table(&p));
}

#[test]
fn component_attribution_matches_snapshot() {
    let (base, _) = profile_fastpath(Mode::Baseline, "baseline", PAIRS, WARMUP, 0);
    let (mall, _) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, 0);
    let (limit, _) = profile_fastpath(Mode::limit_all(), "limit", PAIRS, WARMUP, 0);
    assert_golden(
        "fastpath_components.txt",
        &render_component_table(&[&base, &mall, &limit]),
    );
}

#[test]
fn chrome_trace_json_matches_snapshot_and_schema() {
    let (_, base) = profile_fastpath(Mode::Baseline, "baseline", PAIRS, WARMUP, UOPS);
    let (_, mall) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, UOPS);
    let doc = chrome_trace(&[&base, &mall], &["baseline", "mallacc"]);
    validate_chrome_trace(&doc).expect("snapshot trace must satisfy the schema");
    assert_golden("fastpath_trace.json", &doc.render_pretty());
}

#[test]
fn repeated_runs_are_byte_identical() {
    let run = || {
        let (p, prof) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, UOPS);
        let trace = chrome_trace(&[&prof], &["mallacc"]);
        (render_stall_table(&p), trace.render())
    };
    assert_eq!(run(), run());
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    let flags = format!("--pairs {PAIRS} --warmup {WARMUP} --mt-calls 40 --uops 0");
    run_report(&flags, ProfileArgs::parse, profile_report).assert_jobs_invariant();
}
