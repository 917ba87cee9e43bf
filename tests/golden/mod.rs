//! The one snapshot comparer and report runner behind every
//! `tests/*_golden.rs` binary. Snapshots live beside this file in
//! `tests/golden/`: every report must match its snapshot byte for byte,
//! on every run and every host, and print the same bytes at `--jobs 1`
//! and `--jobs 4`.
//!
//! When an intentional model or generator change shifts a report,
//! regenerate the snapshots with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test '*_golden'
//! ```
//!
//! and review the diff like any other code change: unintentional drift
//! fails CI.

// Each test binary uses only part of this module.
#![allow(dead_code)]

use std::path::PathBuf;

/// Compares `actual` against the named snapshot, regenerating it when
/// `UPDATE_GOLDEN` is set.
pub fn assert_golden(name: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test '*_golden'",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "drift against {}:\n--- expected ---\n{expected}\n--- actual ---\n{actual}\n\
         If this change is intentional, regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}

/// A report's exit code and text at `--jobs 1` and at `--jobs 4`. A test
/// binary keeps one per report in a `OnceLock`, so the report runs twice
/// however many tests read it.
pub struct Runs {
    flags: String,
    seq: (i32, String),
    par: (i32, String),
}

impl Runs {
    /// The `--jobs 1` text, after asserting that the run exited 0.
    pub fn text(&self) -> &str {
        let (code, text) = &self.seq;
        assert_eq!(*code, 0, "`{}` must pass:\n{text}", self.flags);
        text
    }

    /// Asserts that both runs exit 0 and print identical bytes.
    pub fn assert_jobs_invariant(&self) {
        assert_eq!(
            (self.seq.0, self.par.0),
            (0, 0),
            "`{}` must pass at --jobs 1 and 4",
            self.flags
        );
        assert_eq!(
            self.seq.1, self.par.1,
            "--jobs must not change the report of `{}`",
            self.flags
        );
    }
}

/// Runs a report from its command-line `flags` at `--jobs 1` and, on a
/// second thread, at `--jobs 4`.
pub fn run_report<A>(
    flags: &str,
    parse: fn(&[String]) -> Result<A, String>,
    report: fn(&A) -> (i32, String),
) -> Runs {
    let run = |jobs: usize| {
        let mut args: Vec<String> = flags.split_whitespace().map(String::from).collect();
        args.extend(["--jobs".to_string(), jobs.to_string()]);
        report(&parse(&args).expect("golden flags parse"))
    };
    let (seq, par) = std::thread::scope(|s| {
        let par = s.spawn(|| run(4));
        let seq = run(1);
        let par = par.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (seq, par)
    });
    Runs {
        flags: flags.to_string(),
        seq,
        par,
    }
}
