//! The paper's six microbenchmarks (§5, "Microbenchmarks").
//!
//! Two families: *strided* benchmarks (`tp`, `tp_small`, `sized_deletes`)
//! that fit in L1 and represent the best-case fast path, and *Gaussian*
//! benchmarks (`gauss`, `gauss_free`, `antagonist`) with more realistic
//! allocation-size distributions and caching behaviour. All minimise the
//! instructions between allocator calls.

use rand::distributions::Distribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ops::{Op, Trace};

/// The microbenchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microbenchmark {
    /// Back-to-back malloc/free pairs striding 32–512 B in 16 B steps
    /// (25 size classes) — throughput-oriented.
    Tp,
    /// Strides 32–128 B only (4 size classes): the fastest possible fast
    /// path on the allocation side.
    TpSmall,
    /// A `tp_small` variant using 8 size classes and sized deletes.
    SizedDeletes,
    /// 90 % small (16–64 B) / 10 % large (256–512 B) Gaussian allocations,
    /// never freed — free lists are useless; lower bound for list caching.
    Gauss,
    /// Same allocation mix, but each allocation is followed by a free of a
    /// random live block with 50 % probability.
    GaussFree,
    /// `gauss_free` plus the cache-trashing callback after every
    /// allocation (evicts the LRU half of each L1/L2 set).
    Antagonist,
}

impl Microbenchmark {
    /// All six, in the paper's order.
    pub const ALL: [Microbenchmark; 6] = [
        Microbenchmark::Antagonist,
        Microbenchmark::Gauss,
        Microbenchmark::GaussFree,
        Microbenchmark::SizedDeletes,
        Microbenchmark::Tp,
        Microbenchmark::TpSmall,
    ];

    /// The benchmark's name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Microbenchmark::Tp => "tp",
            Microbenchmark::TpSmall => "tp_small",
            Microbenchmark::SizedDeletes => "sized_deletes",
            Microbenchmark::Gauss => "gauss",
            Microbenchmark::GaussFree => "gauss_free",
            Microbenchmark::Antagonist => "antagonist",
        }
    }

    /// Parses a paper-style name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Generates a deterministic trace with roughly `mallocs` allocations.
    pub fn trace(self, mallocs: usize, seed: u64) -> Trace {
        match self {
            // tp "allocates and deallocates from the same size class in a
            // very tight loop" (§6.2) before striding to the next size —
            // the pattern that exposes prefetch blocking: the second pop of
            // a class lands while its entry is still blocked by the
            // previous pair's prefetch.
            Microbenchmark::Tp => strided_repeat_trace(mallocs, 32, 512, 16, 16, true),
            Microbenchmark::TpSmall => strided_trace(mallocs, 32, 128, 32, true),
            Microbenchmark::SizedDeletes => strided_trace(mallocs, 32, 256, 32, true),
            Microbenchmark::Gauss => gauss_trace(mallocs, seed, GaussKind::NoFree),
            Microbenchmark::GaussFree => gauss_trace(mallocs, seed, GaussKind::FreeHalf),
            Microbenchmark::Antagonist => gauss_trace(mallocs, seed, GaussKind::Trashing),
        }
    }
}

impl std::fmt::Display for Microbenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn strided_repeat_trace(
    mallocs: usize,
    lo: u64,
    hi: u64,
    step: u64,
    repeats: usize,
    sized: bool,
) -> Trace {
    let mut t = Trace::new();
    let mut n = 0;
    'outer: loop {
        let mut size = lo;
        while size <= hi {
            for _ in 0..repeats {
                t.push(Op::Malloc { size });
                t.push(Op::FreeNewest { sized });
                n += 1;
                if n >= mallocs {
                    break 'outer;
                }
            }
            size += step;
        }
    }
    t
}

fn strided_trace(mallocs: usize, lo: u64, hi: u64, step: u64, sized: bool) -> Trace {
    let mut t = Trace::new();
    let mut n = 0;
    'outer: loop {
        let mut size = lo;
        while size <= hi {
            t.push(Op::Malloc { size });
            t.push(Op::FreeNewest { sized });
            n += 1;
            if n >= mallocs {
                break 'outer;
            }
            size += step;
        }
    }
    t
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum GaussKind {
    NoFree,
    FreeHalf,
    Trashing,
}

/// Truncated normal sampler over `[lo, hi]`.
fn truncated_normal(rng: &mut SmallRng, mean: f64, sd: f64, lo: u64, hi: u64) -> u64 {
    // Box–Muller via two uniforms; resample until inside the range.
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = mean + sd * z;
        if v >= lo as f64 && v <= hi as f64 {
            return v.round() as u64;
        }
    }
}

fn gauss_trace(mallocs: usize, seed: u64, kind: GaussKind) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut t = Trace::new();
    for _ in 0..mallocs {
        // 90% small (16–64 B), 10% large (256–512 B), Gaussian within each.
        let size = if rng.gen_bool(0.9) {
            truncated_normal(&mut rng, 40.0, 10.0, 16, 64)
        } else {
            truncated_normal(&mut rng, 384.0, 55.0, 256, 512)
        };
        t.push(Op::Malloc { size });
        match kind {
            GaussKind::NoFree => {}
            GaussKind::FreeHalf | GaussKind::Trashing => {
                if rng.gen_bool(0.5) {
                    t.push(Op::Free {
                        index: rng.gen(),
                        sized: true,
                    });
                }
            }
        }
        if kind == GaussKind::Trashing {
            t.push(Op::Antagonize { per_mille: 500 });
        }
    }
    t
}

/// The `rand` Distribution trait is intentionally unused for sizes (we
/// need exact reproducibility across rand versions), but re-exported here
/// so workload authors can plug their own.
pub use rand::distributions::Uniform as SizeUniform;

#[allow(unused)]
fn _assert_distribution_usable(d: SizeUniform<u64>, rng: &mut SmallRng) -> u64 {
    d.sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::{MallocSim, Mode};

    #[test]
    fn names_round_trip() {
        for m in Microbenchmark::ALL {
            assert_eq!(Microbenchmark::from_name(m.name()), Some(m));
        }
        assert_eq!(Microbenchmark::from_name("nope"), None);
    }

    #[test]
    fn traces_have_requested_mallocs() {
        for m in Microbenchmark::ALL {
            let t = m.trace(500, 42);
            assert_eq!(t.malloc_count(), 500, "{m}");
        }
    }

    #[test]
    fn traces_are_deterministic() {
        for m in Microbenchmark::ALL {
            assert_eq!(m.trace(200, 7), m.trace(200, 7), "{m}");
        }
    }

    #[test]
    fn gauss_seeds_differ() {
        let a = Microbenchmark::Gauss.trace(200, 1);
        let b = Microbenchmark::Gauss.trace(200, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn strided_classes_match_paper_counts() {
        for (m, expect) in [
            (Microbenchmark::Tp, 23),
            (Microbenchmark::TpSmall, 4),
            (Microbenchmark::SizedDeletes, 8),
        ] {
            let t = m.trace(2000, 0);
            let mut sim = MallocSim::new(Mode::Baseline);
            let stats = t.replay(&mut sim);
            assert_eq!(
                stats.class_counts.len(),
                expect,
                "{m} used {:?}",
                stats.class_counts
            );
        }
    }

    #[test]
    fn gauss_never_frees() {
        let t = Microbenchmark::Gauss.trace(300, 3);
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = t.replay(&mut sim);
        assert_eq!(stats.totals.free_calls, 0);
        assert_eq!(sim.allocator().live_blocks(), 300);
    }

    #[test]
    fn gauss_free_frees_about_half() {
        let t = Microbenchmark::GaussFree.trace(1000, 4);
        let mut sim = MallocSim::new(Mode::Baseline);
        let stats = t.replay(&mut sim);
        let frees = stats.totals.free_calls;
        assert!((400..=600).contains(&frees), "freed {frees}");
    }

    #[test]
    fn gauss_sizes_follow_ninety_ten_split() {
        let t = Microbenchmark::Gauss.trace(2000, 5);
        let small = t
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::Malloc { size } if *size <= 64))
            .count();
        let frac = small as f64 / 2000.0;
        assert!((0.87..=0.93).contains(&frac), "small fraction {frac}");
    }

    #[test]
    fn tp_small_is_fastest_strided() {
        let run = |m: Microbenchmark| {
            let t = m.trace(400, 0);
            let mut sim = MallocSim::new(Mode::Baseline);
            // Warm.
            t.replay(&mut sim);
            let stats = t.replay(&mut sim);
            stats.mean_malloc_cycles()
        };
        let tp_small = run(Microbenchmark::TpSmall);
        assert!(
            (8.0..=26.0).contains(&tp_small),
            "tp_small mean malloc {tp_small}"
        );
    }

    #[test]
    fn antagonist_is_slower_than_gauss_free() {
        let run = |m: Microbenchmark| {
            let t = m.trace(600, 9);
            let mut sim = MallocSim::new(Mode::Baseline);
            t.replay(&mut sim);
            let stats = t.replay(&mut sim);
            stats.mean_malloc_cycles()
        };
        let calm = run(Microbenchmark::GaussFree);
        let trashed = run(Microbenchmark::Antagonist);
        assert!(
            trashed > calm,
            "antagonist {trashed} should exceed gauss_free {calm}"
        );
    }
}
