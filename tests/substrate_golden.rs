//! Golden snapshot for the `repro substrate --smoke` report: the
//! four-substrate Mallacc-vs-offload-vs-both head-to-head and the
//! per-substrate summary must be byte-identical on every run, on every
//! host, and at every `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional model or
//! generator change shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test substrate_golden
//! ```
//!
//! and review the diff like any other code change — unintentional drift
//! in any substrate's fast-path timing fails CI.

use std::path::PathBuf;

use mallacc_bench::substrate_cli::{substrate_report, SubstrateArgs};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the named snapshot, regenerating it when
/// `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test substrate_golden",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "substrate report drift against {}:\n--- expected ---\n{expected}\n--- actual ---\n{actual}\n\
         If this change is intentional, regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}

fn smoke_args(jobs: usize) -> SubstrateArgs {
    let args: Vec<String> = ["--smoke", "--jobs", &jobs.to_string()]
        .iter()
        .map(|a| a.to_string())
        .collect();
    SubstrateArgs::parse(&args).unwrap()
}

/// `repro substrate --smoke --sim sampled`.
fn sampled_smoke_args(jobs: usize) -> SubstrateArgs {
    SubstrateArgs {
        sim: mallacc::SimMode::sampled_default(),
        ..smoke_args(jobs)
    }
}

#[test]
fn smoke_report_matches_snapshot() {
    let (code, text) = substrate_report(&smoke_args(1));
    assert_eq!(code, 0, "smoke substrate run must pass on main:\n{text}");
    assert_golden("substrate_smoke.txt", &text);
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    let (c1, seq) = substrate_report(&smoke_args(1));
    let (c4, par) = substrate_report(&smoke_args(4));
    assert_eq!((c1, c4), (0, 0));
    assert_eq!(seq, par, "--jobs must not change the report");
}

/// The same report with every substrate under the default sampling plan,
/// so the fast-forward path of every substrate's emission is pinned too.
/// This snapshot pins *identity*, not accuracy: its sampled numbers are
/// not checked against full detail here, and the allocator cycles of the
/// app-traffic workloads read several times their full-detail value.
#[test]
fn sampled_smoke_report_matches_snapshot() {
    let (code, text) = substrate_report(&sampled_smoke_args(1));
    assert_eq!(code, 0, "sampled smoke substrate run must pass:\n{text}");
    assert_golden("substrate_smoke_sampled.txt", &text);
}

#[test]
fn sampled_jobs_value_does_not_change_a_byte() {
    let (c1, seq) = substrate_report(&sampled_smoke_args(1));
    let (c4, par) = substrate_report(&sampled_smoke_args(4));
    assert_eq!((c1, c4), (0, 0));
    assert_eq!(seq, par, "--jobs must not change the sampled report");
}

#[test]
fn mallacc_wins_where_fast_paths_are_fat() {
    // The generality story in one assertion: the substrates whose fast
    // paths chase size-class tables and free lists (tcmalloc, jemalloc,
    // percpu) must show a positive mean Mallacc improvement; rpmalloc's
    // thin intrusive pop may sit at ~zero but stays inside the
    // probe-overhead bound enforced by the report's own verdict.
    let (code, text) = substrate_report(&smoke_args(1));
    assert_eq!(code, 0);
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
