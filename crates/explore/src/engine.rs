//! The sweep engine: expand a grid, serve memoised points, execute the
//! rest host-parallel, and hand the combined results to the report layer.
//!
//! Determinism contract: results are **bit-identical across host thread
//! counts**. Every point is a self-contained simulation seeded from its
//! own configuration, and [`run_indexed`] hands each result back in the
//! point's fixed slot — so neither the host schedule nor the completion
//! order can leak into the output.

use std::path::PathBuf;

use mallacc_stats::par::run_indexed;

use crate::grid::ParamGrid;
use crate::memo::MemoStore;
use crate::point::PointResult;
use crate::report::SweepReport;

/// Execution options for one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Host worker threads; 0 means one per available CPU.
    pub jobs: usize,
    /// Memo-store file; `None` memoises in-process only.
    pub memo_path: Option<PathBuf>,
}

/// Runs `grid` and returns the analysed report.
///
/// Fails when the grid names unknown workloads or expands to nothing,
/// or when the memo store cannot be read or written.
pub fn run_sweep(grid: &ParamGrid, opts: &SweepOptions) -> Result<SweepReport, String> {
    let unknown = grid.unknown_workloads();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown workloads {unknown:?}; valid names: {}",
            mallacc_workloads::AnyWorkload::all_names().join(", ")
        ));
    }
    let points = grid.expand();
    if points.is_empty() {
        return Err("the grid expands to zero runnable points".to_string());
    }

    let mut memo = match &opts.memo_path {
        Some(path) => {
            MemoStore::open(path).map_err(|e| format!("memo store {}: {e}", path.display()))?
        }
        None => MemoStore::in_memory(),
    };

    // Serve what we can from the store; collect the rest for execution.
    let mut results: Vec<Option<PointResult>> =
        points.iter().map(|p| memo.get(p).cloned()).collect();
    let memo_hits = results.iter().filter(|r| r.is_some()).count();
    let pending: Vec<usize> = (0..points.len())
        .filter(|&i| results[i].is_none())
        .collect();

    let computed = run_indexed(pending.len() as u64, effective_jobs(opts.jobs), |k| {
        points[pending[k as usize]].run()
    });
    for (&idx, result) in pending.iter().zip(computed) {
        memo.insert(&points[idx], result.clone());
        results[idx] = Some(result);
    }
    memo.save().map_err(|e| format!("saving memo store: {e}"))?;

    let results: Vec<PointResult> = results
        .into_iter()
        .map(|r| r.expect("every point ran or was memoised"))
        .collect();
    Ok(SweepReport::new(points, results, memo_hits))
}

/// Resolves a `--jobs` value: 0 means one worker per available CPU.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::RunScale;

    fn tiny_grid() -> ParamGrid {
        ParamGrid {
            entries: vec![2, 16],
            workloads: vec!["tp_small".to_string(), "gauss_free".to_string()],
            scale: RunScale {
                calls: 300,
                warmup: 60,
            },
            ..ParamGrid::default()
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_job_counts() {
        let grid = tiny_grid();
        let run = |jobs| {
            run_sweep(
                &grid,
                &SweepOptions {
                    jobs,
                    memo_path: None,
                },
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.points, parallel.points);
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn unknown_workloads_fail_up_front() {
        let grid = ParamGrid {
            workloads: vec!["bogus".to_string()],
            ..ParamGrid::default()
        };
        let err = run_sweep(&grid, &SweepOptions::default()).unwrap_err();
        assert!(err.contains("bogus"), "unhelpful error: {err}");
    }

    #[test]
    fn second_run_is_served_from_the_memo_store() {
        let dir =
            std::env::temp_dir().join(format!("mallacc-explore-engine-{}", std::process::id()));
        let opts = SweepOptions {
            jobs: 2,
            memo_path: Some(dir.join("memo.json")),
        };
        let grid = tiny_grid();
        let first = run_sweep(&grid, &opts).unwrap();
        assert_eq!(first.memo_hits, 0);
        let second = run_sweep(&grid, &opts).unwrap();
        assert_eq!(second.memo_hits, second.points.len(), "all points memoised");
        assert_eq!(first.results, second.results);
        std::fs::remove_dir_all(&dir).ok();
    }
}
