//! Golden snapshots for the paper's own tables and figures: `repro all
//! --quick --calls 200 --trials 2` must print and write (`--json`) the
//! same bytes on every run and every host, so a model change that moves
//! a Figure 13 or Table 2 number fails here. The paper path runs serially
//! (it has no `--jobs`), so this compares one run against the snapshots.
//! `tests/golden/mod.rs` says how to regenerate them after an intentional
//! change.

mod golden;

use golden::{assert_golden, run_with_json};
use mallacc_bench::paper_cli::{paper_report, PaperArgs};

#[test]
fn quick_report_matches_snapshot() {
    let args: Vec<String> = "all --quick --calls 200 --trials 2"
        .split_whitespace()
        .map(String::from)
        .collect();
    let run = run_with_json(args, PaperArgs::parse, paper_report);
    assert_eq!(run.code, 0, "{}", run.text);
    assert_golden("paper_quick.txt", &run.text);
    assert_golden("paper_quick.json", &run.doc);
}
