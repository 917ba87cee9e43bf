//! The one snapshot comparer and report runner behind every
//! `tests/*_golden.rs` binary. Snapshots live beside this file in
//! `tests/golden/`: every report must match its snapshot byte for byte,
//! on every run and every host, and so must the `--json` document it
//! writes. Reports with a `--jobs` flag go through [`run_report`] and
//! must also print and write the same bytes at `--jobs 1` and `--jobs 4`;
//! the paper figures run serially, so `paper_golden` calls
//! [`run_with_json`] and [`assert_golden`] directly.
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
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// One run of a report: its exit code, its text without the `wrote PATH`
/// line of the `--json` write, and the document it wrote.
pub struct Run {
    pub code: i32,
    pub text: String,
    pub doc: String,
}

/// Runs a report from its command line `args` plus `--json` at a fresh
/// temporary path, and returns the run with the document it wrote.
pub fn run_with_json<A>(
    mut args: Vec<String>,
    parse: fn(&[String]) -> Result<A, String>,
    report: fn(&A) -> (i32, String),
) -> Run {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "repro-golden-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    args.extend(["--json".to_string(), path.display().to_string()]);
    let (code, mut text) = report(&parse(&args).expect("golden flags parse"));
    let doc = std::fs::read_to_string(&path);
    std::fs::remove_dir_all(&dir).ok();
    let wrote = format!("\nwrote {}", path.display());
    assert!(
        text.ends_with(&wrote),
        "`{}` must end with {wrote:?}:\n{text}",
        args.join(" ")
    );
    text.truncate(text.len() - wrote.len());
    Run {
        code,
        text,
        doc: doc.expect("the report wrote its JSON"),
    }
}

/// A report's runs at `--jobs 1` and at `--jobs 4`. A test binary keeps
/// one per report in a `OnceLock`, so the report runs twice however many
/// tests read it.
pub struct Runs {
    flags: String,
    seq: Run,
    par: Run,
}

impl Runs {
    /// The `--jobs 1` run, after asserting that it exited 0.
    fn passed(&self) -> &Run {
        assert_eq!(
            self.seq.code, 0,
            "`{}` must pass:\n{}",
            self.flags, self.seq.text
        );
        &self.seq
    }

    /// The `--jobs 1` text, after asserting that the run exited 0.
    pub fn text(&self) -> &str {
        &self.passed().text
    }

    /// The `--jobs 1` `--json` document, after asserting that the run
    /// exited 0.
    pub fn json(&self) -> &str {
        &self.passed().doc
    }

    /// Asserts that both runs exit 0 and print and write identical bytes.
    pub fn assert_jobs_invariant(&self) {
        assert_eq!(
            (self.seq.code, self.par.code),
            (0, 0),
            "`{}` must pass at --jobs 1 and 4",
            self.flags
        );
        assert_eq!(
            self.seq.text, self.par.text,
            "--jobs must not change the report of `{}`",
            self.flags
        );
        assert_eq!(
            self.seq.doc, self.par.doc,
            "--jobs must not change the --json document of `{}`",
            self.flags
        );
    }
}

/// Runs a report from its command-line `flags` at `--jobs 1` and, on a
/// second thread, at `--jobs 4`, each with [`run_with_json`].
pub fn run_report<A>(
    flags: &str,
    parse: fn(&[String]) -> Result<A, String>,
    report: fn(&A) -> (i32, String),
) -> Runs {
    let run = |jobs: usize| {
        let mut args: Vec<String> = flags.split_whitespace().map(String::from).collect();
        args.extend(["--jobs".to_string(), jobs.to_string()]);
        run_with_json(args, parse, report)
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
