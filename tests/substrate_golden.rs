//! Golden snapshots for the `repro substrate --smoke` report: the
//! four-substrate Mallacc-vs-offload-vs-both head-to-head and the
//! per-substrate summary, text and `--json` document, must be
//! byte-identical on every run, on every host, and at every `--jobs`
//! value. `tests/golden/mod.rs` says how to
//! regenerate the snapshots after an intentional change.

mod golden;

use std::sync::OnceLock;

use golden::{assert_golden, run_report, Runs};
use mallacc_bench::substrate_cli::{substrate_report, SubstrateArgs};

fn smoke() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| run_report("--smoke", SubstrateArgs::parse, substrate_report))
}

/// `repro substrate --smoke --sim sampled`.
fn sampled_smoke() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        run_report(
            "--smoke --sim sampled",
            SubstrateArgs::parse,
            substrate_report,
        )
    })
}

#[test]
fn smoke_report_matches_snapshot() {
    assert_golden("substrate_smoke.txt", smoke().text());
}

#[test]
fn smoke_json_matches_snapshot() {
    assert_golden("substrate_smoke.json", smoke().json());
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    smoke().assert_jobs_invariant();
}

/// The same report with every substrate under the default sampling plan,
/// so the fast-forward path of every substrate's emission is pinned too.
/// This snapshot pins *identity*, not accuracy: its sampled numbers are
/// not checked against full detail here, and the allocator cycles of the
/// app-traffic workloads read several times their full-detail value.
#[test]
fn sampled_smoke_report_matches_snapshot() {
    assert_golden("substrate_smoke_sampled.txt", sampled_smoke().text());
}

#[test]
fn sampled_smoke_json_matches_snapshot() {
    assert_golden("substrate_smoke_sampled.json", sampled_smoke().json());
}

#[test]
fn sampled_jobs_value_does_not_change_a_byte() {
    sampled_smoke().assert_jobs_invariant();
}

#[test]
fn mallacc_wins_where_fast_paths_are_fat() {
    // The generality story in one assertion: the substrates whose fast
    // paths chase size-class tables and free lists (tcmalloc, jemalloc,
    // percpu) must show a positive mean Mallacc improvement; rpmalloc's
    // thin intrusive pop may sit at ~zero but stays inside the
    // probe-overhead bound enforced by the report's own verdict.
    let text = smoke().text();
    let summary: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("== per-substrate summary"))
        .collect();
    for fat in ["tcmalloc", "jemalloc", "percpu"] {
        let row = summary
            .iter()
            .find(|l| l.starts_with(fat))
            .unwrap_or_else(|| panic!("no summary row for {fat}:\n{text}"));
        let mean: f64 = row
            .split_whitespace()
            .nth(2)
            .and_then(|v| v.trim_end_matches('%').parse().ok())
            .unwrap_or_else(|| panic!("unparseable row {row:?}"));
        assert!(mean > 0.0, "{fat} should gain from Mallacc:\n{text}");
    }
}
