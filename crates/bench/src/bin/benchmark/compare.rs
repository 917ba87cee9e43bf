//! `benchmark compare`: parent-versus-change verdicts over paired runs.
//!
//! The rules: at least ten pairs, run in alternating order (the caller
//! runs them; the files come in parent, change, parent, change, … order).
//! A metric is a **gain** only when the change wins at least nine tenths
//! of the pairs (ties count for neither) and the medians differ by more
//! than the parent's interquartile range. It is **unresolved** when the
//! parent's spread exceeds the metric's bound, unless every change run
//! beats every parent run. It is a **regression** when the change's
//! median is worse than the parent's by more than the bound. Every ratio
//! is printed with its base, and each workload gets its own rows. When a
//! change run is not correct, or the change runs fail a larger share of
//! jobs than the parent runs, every verdict is **invalid**.

use mallacc_stats::json::{self, Json};

use crate::spec::Spec;
use crate::stats::quartiles;

/// Fewest pairs a comparison accepts.
pub const MIN_PAIRS: usize = 10;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the gain rule.
    Gain,
    /// Within the bound.
    NoChange,
    /// Worse than the bound allows.
    Regression,
    /// Run-to-run spread exceeds the bound.
    Unresolved,
    /// The change runs are not correct or fail more jobs than the parent.
    Invalid,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoChange => "no change",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Invalid => "INVALID",
        }
    }
}

/// Judges one metric from paired samples (`parent[i]` ran next to
/// `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], higher: bool, bound: f64) -> Verdict {
    let sign = if higher { 1.0 } else { -1.0 };
    let (p1, pm, p3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let improvement = sign * (cm - pm);
    if wins * 10 >= 9 * parent.len() && improvement > p3 - p1 {
        return Verdict::Gain;
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let worst_change = change
        .iter()
        .map(|c| sign * c)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|p| sign * p)
        .fold(f64::NEG_INFINITY, f64::max);
    if (p3 - p1) / scale > bound && worst_change <= best_parent {
        Verdict::Unresolved
    } else if -improvement / scale > bound {
        Verdict::Regression
    } else {
        Verdict::NoChange
    }
}

/// One workload's metric values from a `run --json` file.
fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compares paired result files; returns the report and whether the change
/// failed: a metric regressed, or the change runs are invalid.
pub fn compare(spec: &Spec, files: &[String]) -> Result<(String, bool), String> {
    if !files.len().is_multiple_of(2) || files.len() < 2 * MIN_PAIRS {
        return Err(format!(
            "need at least {MIN_PAIRS} PARENT CHANGE pairs of `run --json` files, got {} files",
            files.len()
        ));
    }
    let docs = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{f}: invalid JSON: {}", e.message))
        })
        .collect::<Result<Vec<Json>, String>>()?;
    compare_docs(spec, files, &docs)
}

/// Why the change runs support no verdict: a change run whose simulated
/// results are not correct, or a workload on which the change runs failed
/// a larger share of jobs than the parent runs did. A gain does not count
/// when more jobs fail than at the parent.
fn invalid_changes(spec: &Spec, files: &[String], docs: &[Json]) -> Result<Vec<String>, String> {
    let mut reasons = Vec::new();
    for (file, doc) in files.iter().zip(docs).skip(1).step_by(2) {
        if !matches!(doc.get("correct"), Some(Json::Bool(true))) {
            reasons.push(format!("{file}: the change run is not correct"));
        }
    }
    for workload in &spec.workloads {
        if docs[0]
            .get("workloads")
            .and_then(|w| w.get(workload))
            .is_none()
        {
            continue;
        }
        let failed = |offset: usize| -> Result<f64, String> {
            (offset..docs.len())
                .step_by(2)
                .map(|i| {
                    value(&docs[i], workload, "failed_frac")
                        .ok_or_else(|| format!("{}: no {workload}/failed_frac", files[i]))
                })
                .sum()
        };
        let (parent, change) = (failed(0)?, failed(1)?);
        if change > parent {
            reasons.push(format!(
                "{workload}: change runs failed more jobs than parent runs \
                 (failed_frac summed over runs: {change} against {parent})"
            ));
        }
    }
    Ok(reasons)
}

/// [`compare`] over already parsed files.
fn compare_docs(spec: &Spec, files: &[String], docs: &[Json]) -> Result<(String, bool), String> {
    let pairs = docs.len() / 2;
    let invalid = invalid_changes(spec, files, docs)?;
    let mut out = String::new();
    for reason in &invalid {
        out.push_str(&format!("INVALID: {reason}\n"));
    }
    out.push_str(&format!(
        "compare: {pairs} pairs; ratio = change median / parent median (the base)\n{:<16} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "parent median", "change median", "ratio", "wins"
    ));
    let mut failed = !invalid.is_empty();
    for workload in &spec.workloads {
        if docs[0]
            .get("workloads")
            .and_then(|w| w.get(workload))
            .is_none()
        {
            continue;
        }
        for m in &spec.end_to_end {
            let series = |offset: usize| -> Result<Vec<f64>, String> {
                (0..pairs)
                    .map(|i| {
                        value(&docs[2 * i + offset], workload, &m.name).ok_or_else(|| {
                            format!("{}: no {workload}/{}", files[2 * i + offset], m.name)
                        })
                    })
                    .collect()
            };
            let (parent, change) = (series(0)?, series(1)?);
            let v = if invalid.is_empty() {
                verdict(&parent, &change, m.higher, m.bound)
            } else {
                Verdict::Invalid
            };
            failed |= v == Verdict::Regression;
            let sign = if m.higher { 1.0 } else { -1.0 };
            let wins = parent
                .iter()
                .zip(&change)
                .filter(|(p, c)| sign * (*c - *p) > 0.0)
                .count();
            let (_, pm, _) = quartiles(&parent);
            let (_, cm, _) = quartiles(&change);
            out.push_str(&format!(
                "{workload:<16} {:<20} {pm:>14.6} {cm:>14.6} {:>8.4} {:>3}/{:<2}  {} (bound {}, unit {})\n",
                m.name,
                cm / pm,
                wins,
                pairs,
                v.label(),
                m.bound,
                m.unit
            ));
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // Identical samples: neither a gain nor a regression.
        assert_eq!(verdict(&parent, &parent, true, 0.1), Verdict::NoChange);
        // 20 % better in every pair, far beyond the parent's IQR.
        let better: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(verdict(&parent, &better, true, 0.1), Verdict::Gain);
        // The same numbers are a gain for lower-is-better only when lower.
        assert_eq!(verdict(&parent, &better, false, 0.1), Verdict::Regression);
        // 8 wins of 10 is not enough for a gain, even far apart.
        let mut mostly = better.clone();
        mostly[0] = 90.0;
        mostly[1] = 90.0;
        assert_ne!(verdict(&parent, &mostly, true, 0.5), Verdict::Gain);
        // Wide parent spread: unresolved unless every change run wins.
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        let flat = vec![100.0; 10];
        assert_eq!(verdict(&noisy, &flat, true, 0.1), Verdict::Unresolved);
    }

    /// A `run --json` record of one workload whose end-to-end metrics all
    /// read `value`.
    fn run_doc(spec: &Spec, value: f64, correct: bool, failed_frac: f64) -> Json {
        let num = |v: f64| Json::obj([("value", Json::Num(v))]);
        let mut metrics: Vec<(String, Json)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), num(value)))
            .collect();
        metrics.push(("failed_frac".to_string(), num(failed_frac)));
        Json::obj([
            ("correct", Json::Bool(correct)),
            (
                "workloads",
                Json::Obj(vec![(spec.workloads[0].clone(), Json::Obj(metrics))]),
            ),
        ])
    }

    #[test]
    fn failing_change_runs_get_no_verdict() {
        let spec = crate::spec::spec().expect("BENCHMARK.json is valid");
        let files: Vec<String> = (0..2 * MIN_PAIRS).map(|i| format!("r{i}.json")).collect();
        // Every change run reads 20 % better on every metric.
        let docs = |correct: bool, failed_frac: f64| -> Vec<Json> {
            (0..MIN_PAIRS)
                .flat_map(|i| {
                    let p = 100.0 + i as f64 % 3.0;
                    [
                        run_doc(&spec, p, true, 0.0),
                        run_doc(&spec, p * 1.2, correct || i != 4, failed_frac),
                    ]
                })
                .collect()
        };
        let (report, failed) = compare_docs(&spec, &files, &docs(true, 0.0)).unwrap();
        assert!(!failed && !report.contains("INVALID"), "{report}");
        assert!(report.contains(" gain "), "{report}");
        // One change run is not correct: nothing is a gain, and it fails.
        let (report, failed) = compare_docs(&spec, &files, &docs(false, 0.0)).unwrap();
        assert!(failed && report.contains("r9.json: the change run is not correct"));
        assert!(!report.contains(" gain "), "{report}");
        // Every change run correct, but more jobs failed than at the parent.
        let (report, failed) = compare_docs(&spec, &files, &docs(true, 0.01)).unwrap();
        assert!(failed && report.contains("failed more jobs"), "{report}");
        assert!(!report.contains(" gain "), "{report}");
    }
}
