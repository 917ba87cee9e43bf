//! Rounds, correctness, and the end-to-end metrics.
//!
//! Load shape: closed loop, one client, one process. Every workload is set
//! up, warmed by one untimed round, then timed round after round; rounds
//! rotate round-robin across the workloads of a run so that drift in host
//! speed spreads over all of them. Each round runs on one host CPU, the
//! allowed CPUs taken in turn; the fleet replay threads a round spawns
//! inherit its CPU and take turns on it. The host-speed [`Probe`] runs on
//! that CPU right before and after every timed round. The set-up is timed
//! again before every timed round (`setup_s`), so that its samples span
//! the run as the rounds do, and a burst of host load in the first
//! milliseconds of a process cannot decide the metric.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mallacc::Mode;

use crate::affinity;
use crate::committed::{self, REFERENCE_SEED};
use crate::layers::{self, Estimates, Recorder, RunContext};
use crate::probe::{self, Probe};
use crate::stats::{median, quartiles};
use crate::workload::{Driver, JobList, JobResult, Size, Workload};

/// Each `setup_s` sample is the fastest of this many set-ups.
const SETUP_TRIES: usize = 3;

/// Timed rounds per workload of a run without `--seconds`, untraced and
/// traced.
const DEFAULT_ROUNDS: usize = 48;
const DEFAULT_TRACE_ROUNDS: usize = 6;

/// Timed rounds every workload gets, however short the run.
const MIN_ROUNDS: usize = 3;

/// A run given `--seconds S` starts no round after `RUN_CAP × S` seconds
/// of timing per workload, so that a host far slower than the nominal
/// round times still ends the run in bounded time; it then reports fewer
/// samples.
const RUN_CAP: f64 = 1.25;

/// Host time of a timed round plus the traced round that follows it, in
/// untraced rounds.
const TRACED_ROUND_COST: f64 = 2.2;

/// Runs `f`, turning a panic into `None`.
pub fn catch<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The CPU the `turn`-th round is pinned to: the allowed CPUs in rotation
/// (none where they are unknown).
fn cpu_for(cpus: &[usize], turn: usize) -> Option<usize> {
    (!cpus.is_empty()).then(|| cpus[turn % cpus.len()])
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads, in rotation order.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to spend timing each workload on the calibration host,
    /// or `None` for the default round counts.
    pub seconds: Option<f64>,
    /// Run the traced pass: every timed round is followed by a traced one.
    pub trace: bool,
}

impl Options {
    /// Timed rounds `workload` gets. `seconds` is turned into a round count
    /// through the workload's nominal round time, not through the clock,
    /// so that run length is the same on every commit: a faster commit
    /// finishes sooner instead of timing more rounds. Only [`RUN_CAP`] can
    /// end a run sooner.
    pub fn rounds(&self, workload: Workload) -> usize {
        match self.seconds {
            None if self.trace => DEFAULT_TRACE_ROUNDS,
            None => DEFAULT_ROUNDS,
            Some(s) => {
                let cost = if self.trace { TRACED_ROUND_COST } else { 1.0 };
                ((s / (workload.nominal_round_s() * cost)).round() as usize).max(MIN_ROUNDS)
            }
        }
    }
}

/// One end-to-end metric definition: name, unit, and which way is better.
pub const E2E_METRICS: [(&str, &str, &str); 10] = [
    ("calls_per_s", "1/s", "higher"),
    ("uops_per_s", "1/s", "higher"),
    ("round_s_p50", "s", "lower"),
    ("round_s_p75", "s", "lower"),
    ("probe_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles_per_call", "cycles", "lower"),
    ("mallacc_gain_pct", "%", "higher"),
    ("failed_frac", "fraction", "lower"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Samples the value summarises.
    pub n: usize,
    /// Derived from an isolation replay (per-layer metrics only).
    pub estimated: bool,
}

/// Everything measured for one workload in one run.
#[derive(Debug)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// Its job list at the run's seed.
    pub list: JobList,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed (untraced) round.
    pub rounds_s: Vec<f64>,
    /// Host seconds of the faster of the two probes around each timed
    /// round, parallel to `rounds_s`.
    pub probes_s: Vec<f64>,
    /// Host seconds of each traced round.
    pub traced_s: Vec<f64>,
    /// Peak RSS of each timed round, KiB.
    pub rss_kb: Vec<u64>,
    /// Results of the first timed round.
    pub first: Vec<Option<JobResult>>,
    /// Digest every job must reproduce: committed, or else the first seen.
    expected: Vec<Option<u64>>,
    /// Whether the reference seed matched its committed digests (`None`
    /// when it was not checked).
    pub reference: Option<bool>,
    /// Jobs run, reference and traced rounds included.
    pub attempted: u64,
    /// Jobs that panicked or disagreed with their expected digest.
    pub failed: u64,
    recorder: Option<Recorder>,
    estimates: Option<Estimates>,
}

/// Runs every job of `list` once, untraced and untimed.
pub fn run_jobs(list: &JobList) -> Vec<Option<JobResult>> {
    list.jobs
        .iter()
        .map(|j| catch(|| list.run_job(j)))
        .collect()
}

/// Starts a new peak-RSS interval. Best effort: without the reset, VmHWM
/// is the peak since process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set since the last reset, KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

impl WorkloadRun {
    /// A run over an already set-up job list, expecting every job to
    /// repeat its first result.
    pub fn new(workload: Workload, list: JobList, setup_s: Vec<f64>) -> WorkloadRun {
        let jobs = list.jobs.len();
        WorkloadRun {
            workload,
            expected: vec![None; jobs],
            list,
            setup_s,
            rounds_s: Vec::new(),
            probes_s: Vec::new(),
            traced_s: Vec::new(),
            rss_kb: Vec::new(),
            first: Vec::new(),
            reference: None,
            attempted: 0,
            failed: 0,
            recorder: None,
            estimates: None,
        }
    }

    /// Sets the workload up, taking the first `setup_s` sample, then checks
    /// the reference seed against its committed digests in one untimed
    /// round that doubles as the warm-up.
    pub fn prepare(workload: Workload, opts: &Options) -> WorkloadRun {
        let (list, secs) = set_up(workload, opts.seed);
        let mut run = WorkloadRun::new(workload, list, vec![secs]);
        let jobs = run.list.jobs.len();
        if let Some(d) = committed::digests(opts.seed, workload).filter(|d| d.len() == jobs) {
            run.expected = d.into_iter().map(Some).collect();
        }
        // The reference round doubles as the warm-up.
        let reference = JobList::build(workload, Size::FULL, REFERENCE_SEED);
        let results = run_jobs(&reference);
        match committed::digests(REFERENCE_SEED, workload) {
            Some(d) if d.len() == reference.jobs.len() => {
                let mut expected: Vec<Option<u64>> = d.into_iter().map(Some).collect();
                judge(&results, &mut expected, &mut run.attempted, &mut run.failed);
                run.reference = Some(run.failed == 0);
            }
            _ => {
                run.attempted += results.len() as u64;
                run.reference = Some(false);
            }
        }
        run
    }

    fn judge(&mut self, results: &[Option<JobResult>]) {
        judge(
            results,
            &mut self.expected,
            &mut self.attempted,
            &mut self.failed,
        );
    }

    /// Runs one timed, untraced round between two host-speed probes.
    pub fn timed_round(&mut self, probe: &mut Probe) {
        let before = probe.time();
        reset_peak_rss();
        let t = Instant::now();
        let results = run_jobs(&self.list);
        self.rounds_s.push(t.elapsed().as_secs_f64());
        self.probes_s.push(before.min(probe.time()));
        if let Some(kb) = peak_rss_kb() {
            self.rss_kb.push(kb);
        }
        self.judge(&results);
        if self.first.is_empty() {
            self.first = results;
        }
    }

    /// Runs one traced round; the first one also runs the isolation
    /// replays. `export` keeps the round's spans for the Chrome trace.
    pub fn traced_round(&mut self, export: bool) {
        let rec = self.recorder.get_or_insert_with(Recorder::new);
        let t = Instant::now();
        let results = layers::traced_round(&self.list, rec, export);
        self.traced_s.push(t.elapsed().as_secs_f64());
        // Tracing must reproduce the untraced results exactly.
        self.judge(&results);
        if self.estimates.is_none() {
            // Isolation replays that panic leave zero estimates and count
            // as one more failed attempt.
            self.attempted += 1;
            self.estimates = Some(catch(|| layers::estimates(&self.list)).unwrap_or_else(|| {
                self.failed += 1;
                Estimates::default()
            }));
        }
    }

    /// The spans kept for export, if this workload's recorder kept any.
    pub fn spans(&self) -> &[layers::Span] {
        self.recorder.as_ref().map_or(&[], |r| r.spans())
    }

    /// Whether every job reproduced its expected result.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reference != Some(false)
    }

    /// The end-to-end metrics, from the timed rounds.
    pub fn e2e(&self) -> Vec<Metric> {
        let rounds = self.rounds_s.len();
        let round_s = self.reference_round_s();
        let (_, med, p75) = quartiles(&self.rounds_s);
        let ok: Vec<&JobResult> = self.first.iter().flatten().collect();
        let calls: u64 = ok.iter().map(|r| r.calls).sum();
        let uops: u64 = ok.iter().map(|r| r.uops).sum();
        let cycles: u64 = ok.iter().map(|r| r.alloc_cycles).sum();
        let rss: Vec<f64> = self.rss_kb.iter().map(|&kb| kb as f64 / 1024.0).collect();
        let values = [
            (calls as f64 / round_s, rounds),
            (uops as f64 / round_s, rounds),
            (med, rounds),
            (p75, rounds),
            (median(&self.probes_s) * 1e3, rounds),
            (median(&self.setup_s), self.setup_s.len()),
            (if rss.is_empty() { 0.0 } else { median(&rss) }, rss.len()),
            (cycles as f64 / calls.max(1) as f64, ok.len()),
            (self.mallacc_gain_pct(), ok.len()),
            (
                self.failed as f64 / self.attempted.max(1) as f64,
                self.attempted as usize,
            ),
        ];
        E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), (value, n))| Metric {
                name,
                unit,
                value,
                n,
                estimated: false,
            })
            .collect()
    }

    /// Host seconds of a round on the reference host: the median over
    /// rounds of round time in units of the probe time around it, times
    /// the probe's reference time. A host running at a fraction of its
    /// speed stretches round and probe alike, so the ratio stays put.
    fn reference_round_s(&self) -> f64 {
        let ratios: Vec<f64> = self
            .rounds_s
            .iter()
            .zip(&self.probes_s)
            .map(|(r, p)| r / p)
            .collect();
        median(&ratios) * probe::REFERENCE_S
    }

    /// Allocator-cycle reduction of every mallacc job against the baseline
    /// job that replays the same input on the same simulator, percent.
    fn mallacc_gain_pct(&self) -> f64 {
        let jobs = &self.list.jobs;
        let (mut base, mut accel) = (0u64, 0u64);
        for (i, job) in jobs.iter().enumerate() {
            if !matches!(job.mode, Mode::Mallacc(_)) {
                continue;
            }
            let pair = jobs.iter().position(|b| {
                b.input == job.input && b.driver == job.driver && b.mode == Mode::Baseline
            });
            if let (Some(Some(a)), Some(Some(b))) =
                (self.first.get(i), pair.and_then(|p| self.first.get(p)))
            {
                accel += a.alloc_cycles;
                base += b.alloc_cycles;
            }
        }
        if base == 0 {
            0.0
        } else {
            100.0 * (1.0 - accel as f64 / base as f64)
        }
    }

    /// The per-layer metrics, from the traced rounds.
    ///
    /// # Panics
    ///
    /// Panics if no traced round ran.
    pub fn layers(&self) -> Vec<Metric> {
        let rec = self.recorder.as_ref().expect("a traced round ran");
        let est = self.estimates.as_ref().expect("estimates ran");
        let requests = if self.list.jobs.iter().any(|j| j.driver == Driver::Fleet) {
            self.list.inputs.len() as u64 * self.list.size.fleet_requests
        } else {
            0
        };
        let ctx = RunContext {
            gen_s: median(&self.setup_s),
            untraced_s: median(&self.rounds_s),
            traced_s: median(&self.traced_s),
            requests,
        };
        let n = self.traced_s.len();
        layers::layer_metrics(&self.list, &rec.totals, est, ctx)
            .into_iter()
            .map(|m| Metric { n, ..m })
            .collect()
    }
}

/// Builds `workload`'s job list `SETUP_TRIES` times; returns the last build
/// and the fastest build's host seconds.
fn set_up(workload: Workload, seed: u64) -> (JobList, f64) {
    let mut best = f64::INFINITY;
    let mut list = None;
    for _ in 0..SETUP_TRIES {
        let t = Instant::now();
        let built = JobList::build(workload, Size::FULL, seed);
        best = best.min(t.elapsed().as_secs_f64());
        list = Some(built);
    }
    (list.expect("SETUP_TRIES is positive"), best)
}

/// Counts each job as attempted, and as failed when it panicked or its
/// digest differs from the expected one; unknown expectations are learnt
/// from the first successful run.
fn judge(
    results: &[Option<JobResult>],
    expected: &mut [Option<u64>],
    attempted: &mut u64,
    failed: &mut u64,
) {
    for (r, e) in results.iter().zip(expected.iter_mut()) {
        *attempted += 1;
        match (r, *e) {
            (None, _) => *failed += 1,
            (Some(r), Some(d)) if r.digest != d => *failed += 1,
            (Some(r), None) => *e = Some(r.digest),
            _ => {}
        }
    }
}

/// Runs every workload of `opts`: set-up, warm-up, then a set-up sample and
/// a timed (and, when tracing, traced) round at a time, in round-robin
/// order until each workload has its round count or [`RUN_CAP`] is hit.
pub fn run(opts: &Options) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = opts
        .workloads
        .iter()
        .map(|&w| WorkloadRun::prepare(w, opts))
        .collect();
    let cpus = affinity::cpus();
    let mut probe = Probe::new();
    let cap_s = opts
        .seconds
        .map(|s| s * RUN_CAP * opts.workloads.len() as f64);
    let start = Instant::now();
    let mut exported = false;
    loop {
        let over_cap = cap_s.is_some_and(|c| start.elapsed().as_secs_f64() > c);
        let mut pending = runs
            .iter_mut()
            .filter(|r| {
                let done = r.rounds_s.len();
                done < opts.rounds(r.workload) && (done < MIN_ROUNDS || !over_cap)
            })
            .peekable();
        if pending.peek().is_none() {
            break;
        }
        for run in pending {
            let export = opts.trace && !exported;
            let cpu = cpu_for(&cpus, run.rounds_s.len());
            affinity::run_on(cpu, || {
                run.setup_s.push(set_up(run.workload, opts.seed).1);
                run.timed_round(&mut probe);
                if opts.trace {
                    run.traced_round(export);
                }
            });
            exported |= opts.trace;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_time_is_the_median_round_in_probe_units() {
        let list = JobList::build(Workload::Fleet2Core, Size::TINY, 1);
        let mut run = WorkloadRun::new(Workload::Fleet2Core, list, vec![0.001]);
        // A host at half speed doubles round and probe alike.
        run.rounds_s = vec![0.3, 0.8, 0.6, 0.1];
        run.probes_s = vec![0.01, 0.02, 0.02, 0.005];
        let expected = 30.0 * probe::REFERENCE_S;
        assert!((run.reference_round_s() - expected).abs() < 1e-12);
    }
}
