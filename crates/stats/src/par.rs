//! The strided-worker slot runner behind every report that is
//! byte-identical across `--jobs`.

/// Runs `total` independent slots, optionally across `jobs` workers, and
/// merges results in slot order. Each slot's result must be a pure
/// function of its index, so the merged output is identical for every
/// `jobs` value — the invariant behind every jobs-invariance golden.
///
/// # Example
///
/// ```
/// use mallacc_stats::par::run_indexed;
///
/// assert_eq!(run_indexed(4, 3, |i| i * 10), [0, 10, 20, 30]);
/// ```
pub fn run_indexed<T: Send>(total: u64, jobs: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let total = total as usize;
    if jobs <= 1 || total <= 1 {
        return (0..total as u64).map(f).collect();
    }
    let workers = jobs.min(total);
    // Worker w takes indices w, w+workers, w+2*workers, … and keeps its
    // results tagged by index; the merge below restores slot order.
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || {
                    (w..total)
                        .step_by(workers)
                        .map(|i| (i, f(i as u64)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for chunk in per_worker {
        for (i, value) in chunk {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_is_jobs_invariant() {
        let f = |i: u64| i * i + 1;
        let serial = run_indexed(23, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(23, jobs, f), serial, "jobs={jobs}");
        }
        assert!(run_indexed(0, 4, f).is_empty());
    }
}
