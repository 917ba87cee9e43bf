//! Multi-core experiments: the `repro mt` report.
//!
//! This goes beyond the paper (which simulates one core) and asks whether
//! Mallacc's per-core malloc caches hold up under multi-threaded
//! allocation: a producer–consumer ring (remote frees through the
//! transfer cache) and N-way scaled macro workloads (central-structure and
//! L3 contention only), each at 1/2/4/8 cores.
//!
//! Scaling is *strong*: total allocator calls stay fixed while the core
//! count grows, so both the simulated work and the host work are
//! comparable across rows (and an 8-core run costs nowhere near 8× the
//! 1-core run).

use mallacc::Mode;
use mallacc_multicore::{latency_sinks, take_latencies, MtRunResult, MulticoreSim};
use mallacc_stats::table::Table;
use mallacc_stats::{Cdf, Json};
use mallacc_workloads::{MacroWorkload, MtTrace};

use crate::experiments::{improvement_pct, Scale};

const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One core-count row of a multi-core block.
#[derive(Debug, Clone, PartialEq)]
pub struct MtRow {
    /// Simulated core count.
    pub cores: usize,
    /// Baseline allocator cycles per call.
    pub base_cpc: f64,
    /// Mallacc allocator cycles per call.
    pub accel_cpc: f64,
    /// Mallacc improvement, percent.
    pub accel_impr: f64,
    /// Limit-study allocator cycles per call.
    pub limit_cpc: f64,
    /// Limit-study improvement, percent.
    pub limit_impr: f64,
    /// Cross-core frees observed in the baseline run.
    pub remote_frees: u64,
    /// Neighbour-steal refills observed in the baseline run.
    pub steals: u64,
    /// Per-core malloc-cache `(lookup hit %, pop hit %)` under Mallacc.
    pub hit_rates: Vec<(f64, f64)>,
    /// Baseline per-malloc `(p99, p999)` cycles across all cores.
    pub base_tail: (u64, u64),
    /// Mallacc per-malloc `(p99, p999)` cycles across all cores.
    pub accel_tail: (u64, u64),
}

/// One workload's multi-core scaling block.
#[derive(Debug, Clone, PartialEq)]
pub struct MtBlock {
    /// Block title (workload / trace shape).
    pub name: String,
    /// One row per swept core count.
    pub rows: Vec<MtRow>,
}

fn run(mode: Mode, trace: &MtTrace) -> MtRunResult {
    MulticoreSim::new(mode, trace.cores()).run(trace)
}

/// Runs `trace` with per-call latency sinks attached and returns the
/// result plus the malloc-latency `(p99, p999)` across all cores.
fn run_with_tails(mode: Mode, trace: &MtTrace) -> (MtRunResult, (u64, u64)) {
    let sim = MulticoreSim::new(mode, trace.cores());
    let (r, sinks) = sim.run_with_sinks(trace, latency_sinks(trace.cores()));
    let mut cdf = Cdf::new();
    for lat in take_latencies(sinks) {
        for &c in &lat.malloc_cycles {
            cdf.record(c as f64, 1.0);
        }
    }
    let tails = (
        cdf.p99().unwrap_or(0.0) as u64,
        cdf.p999().unwrap_or(0.0) as u64,
    );
    (r, tails)
}

fn mc_hit_rates(r: &MtRunResult) -> Vec<(f64, f64)> {
    r.per_core
        .iter()
        .map(|c| (100.0 * c.mc.lookup_hit_rate(), 100.0 * c.mc.pop_hit_rate()))
        .collect()
}

fn workload_block(name: &str, scale: Scale, make: impl Fn(usize, usize) -> MtTrace) -> MtBlock {
    let mut rows = Vec::new();
    for &cores in &CORE_COUNTS {
        // Strong scaling: the same total calls, split across cores.
        let calls_per_core = (scale.calls / cores).max(40);
        let trace = make(cores, calls_per_core);
        let (base, base_tail) = run_with_tails(Mode::Baseline, &trace);
        let (accel, accel_tail) = run_with_tails(Mode::mallacc_default(), &trace);
        let limit = run(Mode::limit_all(), &trace);
        rows.push(MtRow {
            cores,
            base_cpc: base.cycles_per_call(),
            accel_cpc: accel.cycles_per_call(),
            accel_impr: improvement_pct(base.cycles_per_call(), accel.cycles_per_call()),
            limit_cpc: limit.cycles_per_call(),
            limit_impr: improvement_pct(base.cycles_per_call(), limit.cycles_per_call()),
            remote_frees: base.alloc.remote_frees,
            steals: base.alloc.steals,
            hit_rates: mc_hit_rates(&accel),
            base_tail,
            accel_tail,
        });
    }
    MtBlock {
        name: name.to_string(),
        rows,
    }
}

/// Computes the `repro mt` dataset: one block per multi-core scenario.
pub fn mt_data(scale: Scale) -> Vec<MtBlock> {
    let seed = scale.seed_for(21);
    let mut blocks = vec![workload_block(
        "producer-consumer ring (cross-core frees)",
        scale,
        |cores, calls| MtTrace::producer_consumer(cores, calls, seed),
    )];
    for name in ["483.xalancbmk", "xapian.abstracts"] {
        let w = MacroWorkload::by_name(name).expect("workload exists");
        blocks.push(workload_block(
            &format!("{name} ×N (scaled, core-local frees)"),
            scale,
            |cores, calls| MtTrace::scaled(&w, cores, calls, seed),
        ));
    }
    blocks
}

/// Serialises the multi-core dataset — exactly the numbers the text
/// rendering prints.
pub fn mt_json(blocks: &[MtBlock]) -> Json {
    Json::Arr(
        blocks
            .iter()
            .map(|b| {
                Json::obj([
                    ("name", b.name.as_str().into()),
                    (
                        "rows",
                        Json::Arr(
                            b.rows
                                .iter()
                                .map(|r| {
                                    Json::obj([
                                        ("cores", r.cores.into()),
                                        ("base_cycles_per_call", r.base_cpc.into()),
                                        ("mallacc_cycles_per_call", r.accel_cpc.into()),
                                        ("mallacc_improvement_pct", r.accel_impr.into()),
                                        ("limit_cycles_per_call", r.limit_cpc.into()),
                                        ("limit_improvement_pct", r.limit_impr.into()),
                                        ("remote_frees", r.remote_frees.into()),
                                        ("steals", r.steals.into()),
                                        ("base_malloc_p99", r.base_tail.0.into()),
                                        ("base_malloc_p999", r.base_tail.1.into()),
                                        ("mallacc_malloc_p99", r.accel_tail.0.into()),
                                        ("mallacc_malloc_p999", r.accel_tail.1.into()),
                                        (
                                            "mc_hit_rates_pct",
                                            Json::Arr(
                                                r.hit_rates
                                                    .iter()
                                                    .map(|&(lookup, pop)| {
                                                        Json::obj([
                                                            ("lookup", lookup.into()),
                                                            ("pop", pop.into()),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// The `repro mt` experiment: per-core and aggregate allocator-time
/// improvement and malloc-cache hit rates vs. core count, rendered from
/// its [`mt_data`] dataset.
pub fn render_mt(blocks: &[MtBlock]) -> String {
    let mut out = String::from(
        "Multi-core — allocator time, malloc tail latency and malloc-cache \
         hit rates vs. core count\n(strong scaling: total calls fixed as \
         cores grow; tail columns are per-malloc p99/p999 cycles, \
         baseline→mallacc; hit-rates column is lookup%/pop% per core)\n\n",
    );
    for (i, b) in blocks.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let mut t = Table::new(&[
            "cores",
            "base cyc/call",
            "mallacc",
            "impr",
            "limit",
            "impr",
            "remote frees",
            "steals",
            "malloc p99 b→m",
            "p999 b→m",
            "mc lookup/pop hit% per core",
        ]);
        for r in &b.rows {
            let rates: Vec<String> = r
                .hit_rates
                .iter()
                .map(|(lookup, pop)| format!("{lookup:.0}/{pop:.0}"))
                .collect();
            t.row_owned(vec![
                r.cores.to_string(),
                format!("{:.1}", r.base_cpc),
                format!("{:.1}", r.accel_cpc),
                format!("{:.1}%", r.accel_impr),
                format!("{:.1}", r.limit_cpc),
                format!("{:.1}%", r.limit_impr),
                r.remote_frees.to_string(),
                r.steals.to_string(),
                format!("{}→{}", r.base_tail.0, r.accel_tail.0),
                format!("{}→{}", r.base_tail.1, r.accel_tail.1),
                rates.join(" "),
            ]);
        }
        out.push_str(&format!("{}\n{}", b.name, t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mt_report_renders_all_blocks() {
        let s = render_mt(&mt_data(Scale {
            calls: 320,
            warmup: 0,
            trials: 1,
            seed: 0,
        }));
        assert!(s.contains("producer-consumer ring"));
        assert!(s.contains("483.xalancbmk"));
        assert!(s.contains("xapian.abstracts"));
        // One row per core count per block.
        for cores in ["1", "2", "4", "8"] {
            assert!(s.lines().any(|l| l.trim_start().starts_with(cores)));
        }
    }

    #[test]
    fn mt_report_is_seed_stable() {
        let s = Scale {
            calls: 160,
            warmup: 0,
            trials: 1,
            seed: 3,
        };
        assert_eq!(render_mt(&mt_data(s)), render_mt(&mt_data(s)));
    }
}
