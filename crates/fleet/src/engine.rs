//! The fleet engine: scenario × core-count × scaling sweeps with
//! baseline/Mallacc comparison and per-malloc tail latency.
//!
//! A *cell* is one (scenario, core count, scaling regime) point. Each cell
//! streams its scenario through the multi-core simulator twice — baseline
//! and Mallacc — collecting per-call latencies through
//! [`CallLatencySink`](mallacc_multicore::CallLatencySink)s, and distils
//! both runs into a [`CellResult`]. Cells are pure functions of the fleet
//! seed and their own coordinates, so [`run_fleet`] can farm them out to
//! any number of worker threads and reassemble the result in enumeration
//! order: reports are byte-identical for every `--jobs` value.

use mallacc::{Mode, SimMode};
use mallacc_multicore::{latency_sinks, take_latencies, MulticoreSim};
use mallacc_stats::par::run_indexed;
use mallacc_stats::Cdf;

use crate::scenario::Scenario;

/// Core counts of the full (non-smoke) sweep.
pub const CORE_COUNTS_FULL: &[usize] = &[1, 2, 4, 8, 16];
/// Core counts of the smoke sweep.
pub const CORE_COUNTS_SMOKE: &[usize] = &[1, 2, 4];

/// A p99 improvement below this (in percent) counts as "Mallacc stopped
/// helping" when locating the scaling knee.
pub const KNEE_THRESHOLD_PCT: f64 = 5.0;

/// Scaling regime of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Fixed total request count, split across however many cores.
    Strong,
    /// Fixed requests *per core*: the offered load grows with the fleet.
    Weak,
}

impl Scaling {
    /// Stable lowercase name (reports, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Scaling::Strong => "strong",
            Scaling::Weak => "weak",
        }
    }
}

/// What to sweep: scenarios, core counts, request volumes, seed, workers.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scenarios to run, in report order.
    pub scenarios: Vec<&'static Scenario>,
    /// Core counts to sweep, ascending.
    pub core_counts: Vec<usize>,
    /// Total requests of every strong-scaling cell.
    pub strong_requests: u64,
    /// Requests per core of every weak-scaling cell.
    pub weak_requests_per_core: u64,
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Worker threads for the cell sweep (≥ 1). Output-invariant.
    pub jobs: usize,
    /// Timing execution mode of every cell's cores: full detailed, or
    /// sampled under a plan. A sweep axis like the rest — sampled cells
    /// report extrapolated cycle totals, everything functional is
    /// unchanged.
    pub sim: SimMode,
}

impl FleetConfig {
    /// The CI-sized sweep: all scenarios on 1/2/4 cores, small volumes.
    pub fn smoke(seed: u64, jobs: usize) -> FleetConfig {
        FleetConfig {
            scenarios: Scenario::all().iter().collect(),
            core_counts: CORE_COUNTS_SMOKE.to_vec(),
            strong_requests: 96,
            weak_requests_per_core: 24,
            seed,
            jobs,
            sim: SimMode::Full,
        }
    }

    /// The full sweep: all scenarios on 1/2/4/8/16 cores.
    pub fn full(seed: u64, jobs: usize) -> FleetConfig {
        FleetConfig {
            scenarios: Scenario::all().iter().collect(),
            core_counts: CORE_COUNTS_FULL.to_vec(),
            strong_requests: 768,
            weak_requests_per_core: 96,
            seed,
            jobs,
            sim: SimMode::Full,
        }
    }
}

/// One mode's distilled measurements within a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasure {
    /// Mean cycles per allocator call across all cores.
    pub cycles_per_call: f64,
    /// Slowest core's program cycles (simulated wall clock).
    pub makespan: u64,
    /// Malloc calls across all cores.
    pub malloc_calls: u64,
    /// Free calls across all cores.
    pub free_calls: u64,
    /// Median per-malloc cycles.
    pub p50: u64,
    /// 99th-percentile per-malloc cycles.
    pub p99: u64,
    /// 99.9th-percentile per-malloc cycles.
    pub p999: u64,
    /// Malloc-cache size lookup hit rate in percent (0 for baseline).
    pub mc_hit_pct: f64,
}

/// One (scenario, cores, scaling) point: baseline vs. Mallacc.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// Core count.
    pub cores: usize,
    /// Scaling regime.
    pub scaling: Scaling,
    /// Requests offered (and, by conservation, retired).
    pub requests: u64,
    /// Baseline measurements.
    pub base: RunMeasure,
    /// Mallacc (default config) measurements.
    pub accel: RunMeasure,
}

impl CellResult {
    /// Percent p99 improvement of Mallacc over baseline (positive = faster).
    pub fn p99_improvement_pct(&self) -> f64 {
        if self.base.p99 == 0 {
            0.0
        } else {
            (self.base.p99 as f64 - self.accel.p99 as f64) / self.base.p99 as f64 * 100.0
        }
    }

    /// Cycles-per-call speedup of Mallacc over baseline.
    pub fn call_speedup(&self) -> f64 {
        if self.accel.cycles_per_call == 0.0 {
            0.0
        } else {
            self.base.cycles_per_call / self.accel.cycles_per_call
        }
    }
}

/// A full sweep's cells, in enumeration order (scenario-major, then cores
/// ascending, strong before weak).
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The configuration that produced this result.
    pub config: FleetConfig,
    /// All cells, in enumeration order.
    pub cells: Vec<CellResult>,
}

impl FleetResult {
    /// Cells of `scenario` under `scaling`, cores ascending.
    pub fn curve(&self, scenario: &str, scaling: Scaling) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.scenario == scenario && c.scaling == scaling)
            .collect()
    }

    /// The p99 knee of `scenario`: the smallest strong-scaling core count
    /// at which Mallacc's p99 improvement falls below
    /// [`KNEE_THRESHOLD_PCT`], or `None` if it never does within the swept
    /// range (per-core malloc caches keep helping throughout).
    pub fn p99_knee(&self, scenario: &str) -> Option<usize> {
        self.curve(scenario, Scaling::Strong)
            .iter()
            .find(|c| c.p99_improvement_pct() < KNEE_THRESHOLD_PCT)
            .map(|c| c.cores)
    }
}

/// FNV-1a, used to give every scenario an independent seed stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs one mode of a cell and distils the measurements.
fn measure(
    mode: Mode,
    sim_mode: SimMode,
    scenario: &Scenario,
    cores: usize,
    requests: u64,
    seed: u64,
) -> RunMeasure {
    let mut stream = scenario.stream(cores, requests, seed);
    let sim = MulticoreSim::new(mode, cores).with_sim(sim_mode);
    let (res, sinks) = sim.run_stream_with_sinks(&mut stream, latency_sinks(cores));
    assert_eq!(
        stream.requests_issued(),
        stream.requests_retired(),
        "conservation: every issued request must retire"
    );
    assert_eq!(stream.requests_retired(), requests, "wrong request volume");

    let mut cdf = Cdf::new();
    for lat in take_latencies(sinks) {
        for &c in &lat.malloc_cycles {
            cdf.record(c as f64, 1.0);
        }
    }
    let t = res.aggregate();
    let (mut hits, mut lookups) = (0u64, 0u64);
    for c in &res.per_core {
        hits += c.mc.lookup_hits;
        lookups += c.mc.lookup_hits + c.mc.lookup_misses;
    }
    RunMeasure {
        cycles_per_call: res.cycles_per_call(),
        makespan: res.makespan_cycles(),
        malloc_calls: t.malloc_calls,
        free_calls: t.free_calls,
        p50: cdf.p50().unwrap_or(0.0) as u64,
        p99: cdf.p99().unwrap_or(0.0) as u64,
        p999: cdf.p999().unwrap_or(0.0) as u64,
        mc_hit_pct: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64 * 100.0
        },
    }
}

/// Runs the cell at `(scenario, cores, scaling)`.
fn run_cell(
    scenario: &'static Scenario,
    cores: usize,
    scaling: Scaling,
    config: &FleetConfig,
) -> CellResult {
    let requests = match scaling {
        Scaling::Strong => config.strong_requests,
        Scaling::Weak => config.weak_requests_per_core * cores as u64,
    };
    let seed = config.seed ^ fnv1a(scenario.name.as_bytes());
    CellResult {
        scenario: scenario.name,
        cores,
        scaling,
        requests,
        base: measure(Mode::Baseline, config.sim, scenario, cores, requests, seed),
        accel: measure(
            Mode::mallacc_default(),
            config.sim,
            scenario,
            cores,
            requests,
            seed,
        ),
    }
}

/// Runs the whole sweep. Deterministic: the result is a pure function of
/// `config` minus `jobs`.
///
/// # Panics
///
/// Panics if the configuration has no scenarios or no core counts.
pub fn run_fleet(config: &FleetConfig) -> FleetResult {
    assert!(!config.scenarios.is_empty(), "no scenarios configured");
    assert!(!config.core_counts.is_empty(), "no core counts configured");
    let mut coords = Vec::new();
    for &scenario in &config.scenarios {
        for &cores in &config.core_counts {
            for scaling in [Scaling::Strong, Scaling::Weak] {
                coords.push((scenario, cores, scaling));
            }
        }
    }
    let cells = run_indexed(coords.len() as u64, config.jobs, |i| {
        let (scenario, cores, scaling) = coords[i as usize];
        run_cell(scenario, cores, scaling, config)
    });
    FleetResult {
        config: config.clone(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            scenarios: vec![Scenario::by_name("rpc-fanout").unwrap()],
            core_counts: vec![1, 2],
            strong_requests: 24,
            weak_requests_per_core: 8,
            seed: 42,
            jobs: 1,
            sim: mallacc::SimMode::Full,
        }
    }

    #[test]
    fn sweep_enumerates_all_cells_in_order() {
        let r = run_fleet(&tiny());
        let got: Vec<_> = r
            .cells
            .iter()
            .map(|c| (c.scenario, c.cores, c.scaling.name()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("rpc-fanout", 1, "strong"),
                ("rpc-fanout", 1, "weak"),
                ("rpc-fanout", 2, "strong"),
                ("rpc-fanout", 2, "weak"),
            ]
        );
    }

    #[test]
    fn jobs_do_not_change_results() {
        let mut c1 = tiny();
        c1.jobs = 1;
        let mut c4 = tiny();
        c4.jobs = 4;
        let a = run_fleet(&c1);
        let b = run_fleet(&c4);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.base, y.base);
            assert_eq!(x.accel, y.accel);
        }
    }

    #[test]
    fn mallacc_improves_the_fleet_fast_path() {
        let r = run_fleet(&tiny());
        for c in &r.cells {
            assert!(c.base.malloc_calls > 0, "cell ran nothing");
            assert_eq!(c.base.malloc_calls, c.accel.malloc_calls);
            assert!(
                c.accel.cycles_per_call < c.base.cycles_per_call,
                "{} x{} {}: accel {:.1} !< base {:.1}",
                c.scenario,
                c.cores,
                c.scaling.name(),
                c.accel.cycles_per_call,
                c.base.cycles_per_call
            );
            assert!(c.accel.mc_hit_pct > 0.0, "malloc cache never hit");
        }
    }

    #[test]
    fn weak_scaling_grows_volume_with_cores() {
        let r = run_fleet(&tiny());
        let weak = r.curve("rpc-fanout", Scaling::Weak);
        assert_eq!(weak[0].requests, 8);
        assert_eq!(weak[1].requests, 16);
        let strong = r.curve("rpc-fanout", Scaling::Strong);
        assert!(strong.iter().all(|c| c.requests == 24));
    }

    #[test]
    fn tail_percentiles_are_ordered() {
        let r = run_fleet(&tiny());
        for c in &r.cells {
            for m in [&c.base, &c.accel] {
                assert!(m.p50 <= m.p99, "p50 {} > p99 {}", m.p50, m.p99);
                assert!(m.p99 <= m.p999, "p99 {} > p999 {}", m.p99, m.p999);
                assert!(m.p50 > 0, "zero-latency malloc");
            }
        }
    }
}
