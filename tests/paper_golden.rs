//! Golden snapshot for the paper's own tables and figures: `repro all
//! --quick --calls 200 --trials 2` must print the same bytes on every
//! run and every host, so a model change that moves a Figure 13 or
//! Table 2 number fails here. The paper path runs serially (it has no
//! `--jobs`), so this compares one run against the snapshot.
//! `tests/golden/mod.rs` says how to regenerate it after an intentional
//! change.

mod golden;

use golden::assert_golden;
use mallacc_bench::paper_cli::{paper_report, PaperArgs};

#[test]
fn quick_report_matches_snapshot() {
    let args: Vec<String> = "all --quick --calls 200 --trials 2"
        .split_whitespace()
        .map(String::from)
        .collect();
    let (code, text) = paper_report(&PaperArgs::parse(&args).unwrap());
    assert_eq!(code, 0, "{text}");
    assert_golden("paper_quick.txt", &text);
}
