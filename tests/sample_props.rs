//! Property suite over sampled execution: for arbitrary seeds ×
//! workloads × cadences, sampling never perturbs functional state, the
//! sampled clock stays inside the error the run itself claims (or the
//! fixed differential band), degenerate plans are the identity on the
//! full detailed run, and the `repro sample` report is byte-identical
//! for every `--jobs` value.
//!
//! At the engine level, the engine is checked µop by µop against an
//! oracle of the retired designs, on a randomly drawn core. Its detailed
//! µops run on `RefEngine`, the retired detailed model: a `VecDeque` ROB,
//! sources walked as `Option`s, and a CPI stack projected from every µop's
//! full stall breakdown. Its fast-forward is the retired per-µop design:
//! the reference re-synced at every fast-forward region, plus per-µop
//! floor-carry accumulation of the extrapolated cycles. The engine keeps
//! its ROB in a ring, charges its CPI stack directly, reads absent sources
//! from a sentinel slot, keeps the fast-forward clock in closed form and
//! writes no registers while fast-forwarding; the oracle pins all of it as
//! exact. A second property runs `Engine::push_loads` against one `push`
//! per load on twin engines, with the same µop generator. `FF_ORACLE_CASES`
//! sets both case counts.
//!
//! Cadences come from the shared
//! [`mallacc_test_support::arb_sampling_plan`] generator, so this suite
//! draws from the same plan distribution as the generator's own unit
//! tests and the sweep-point strategies.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use mallacc::{MallocSim, Mode, SamplingPlan};
use mallacc_bench::sample_cli::{sample_report, SampleArgs};
use mallacc_cache::{AccessKind, Hierarchy};
use mallacc_ooo::{
    Component, CoreConfig, CoreStats, CpiStack, Engine, OpKind, OpMeta, Reg, SamplingReport,
    StallBreakdown, StallReason, TraceSink, Uop, UopEvent, UopTiming, WindowSample, FF_SCALE,
    LOAD_PORTS, STORE_PORTS,
};
use mallacc_stats::{mean_ci95, tol};
use mallacc_test_support::arb_sampling_plan;
use mallacc_workloads::{AnyWorkload, MacroWorkload};

/// One run of `workload` under `mode`, optionally sampled: attributed
/// cycles, execution stats, malloc/free call counts, and (when sampled)
/// the run's own CI95 over window CPIs.
struct RunOutcome {
    cycles: u64,
    stats: mallacc_ooo::CoreStats,
    malloc_calls: u64,
    free_calls: u64,
    ci95_rel: Option<f64>,
}

fn run_workload(
    workload: &MacroWorkload,
    mallocs: usize,
    seed: u64,
    mode: Mode,
    plan: Option<SamplingPlan>,
) -> RunOutcome {
    let trace = AnyWorkload::by_name(workload.name)
        .expect("macro workloads are always resolvable")
        .trace(mallocs, seed);
    let mut sim = MallocSim::new(mode);
    sim.set_sampling(plan);
    trace.replay(&mut sim);
    let ci95_rel = sim.sampling_report().map(|r| {
        let ci = mean_ci95(&r.window_cpis());
        ci.relative()
    });
    RunOutcome {
        cycles: sim.cpi_stack().total(),
        stats: sim.engine().stats(),
        malloc_calls: sim.totals().malloc_calls,
        free_calls: sim.totals().free_calls,
        ci95_rel,
    }
}

/// Strategy: a (workload, mode, mallocs, seed) tuple small enough that a
/// property case simulates in milliseconds even unoptimized.
fn arb_run() -> impl Strategy<Value = (usize, bool, usize, u64)> {
    let n = MacroWorkload::all().len();
    (0..n, any::<bool>(), 150usize..500, any::<u64>())
}

fn mode_of(accel: bool) -> Mode {
    if accel {
        Mode::mallacc_default()
    } else {
        Mode::Baseline
    }
}

/// Conditions an arbitrary generated plan into one whose error estimate
/// is statistically meaningful on a trace of `uops` µops: at least 96
/// warmup µops per window (below that the post-fast-forward pipeline
/// transient dominates the window) and at least ~6 measured windows (a
/// Student-t interval over fewer windows is too noisy to be a usable
/// error claim). The same conditioning the validation crate's
/// sampled-differential fuzzer applies to its drawn plans.
fn conditioned(plan: SamplingPlan, uops: u64) -> SamplingPlan {
    let warmup = plan.warmup_uops.max(96);
    let detailed = plan.detailed_uops.max(96);
    let window = warmup + detailed;
    let period = plan.period.max(window).min((uops / 6).max(window));
    SamplingPlan::new(warmup, detailed, period)
        .expect("conditioned plan keeps a non-empty window and period")
        .with_startup(plan.startup_uops.min(period))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sampling is a pure timing-fidelity axis: under *any* cadence —
    /// including aggressive ones whose timing error would be large —
    /// the µop mix, memory-op counts, branch outcomes and allocator
    /// call counts are bit-identical to the full detailed run.
    #[test]
    fn sampling_never_perturbs_functional_state(
        run in arb_run(),
        plan in arb_sampling_plan(),
    ) {
        let (w, accel, mallocs, seed) = run;
        let workload = &MacroWorkload::all()[w];
        let full = run_workload(workload, mallocs, seed, mode_of(accel), None);
        let sampled = run_workload(workload, mallocs, seed, mode_of(accel), Some(plan));
        prop_assert_eq!(full.stats, sampled.stats, "µop stats drifted under sampling");
        prop_assert_eq!(full.malloc_calls, sampled.malloc_calls);
        prop_assert_eq!(full.free_calls, sampled.free_calls);
    }

    /// A degenerate plan (warmup + window covers the whole period, so
    /// nothing is ever fast-forwarded) reproduces the full detailed run
    /// exactly — same clock, cycle for cycle. Every generated plan is
    /// collapsed to its degenerate counterpart; plans the generator
    /// already drew degenerate must also be exact as-is.
    #[test]
    fn degenerate_plans_reproduce_the_full_run_exactly(
        run in arb_run(),
        plan in arb_sampling_plan(),
    ) {
        let (w, accel, mallocs, seed) = run;
        let workload = &MacroWorkload::all()[w];
        let full = run_workload(workload, mallocs, seed, mode_of(accel), None);

        let degenerate = SamplingPlan::new(plan.warmup_uops, plan.period, plan.period)
            .expect("window and period stay non-zero");
        let run = run_workload(workload, mallocs, seed, mode_of(accel), Some(degenerate));
        prop_assert_eq!(full.cycles, run.cycles, "degenerate plan changed the clock");
        prop_assert_eq!(full.stats, run.stats);

        if plan.is_degenerate() {
            let as_is = run_workload(workload, mallocs, seed, mode_of(accel), Some(plan));
            prop_assert_eq!(full.cycles, as_is.cycles, "drawn degenerate plan changed the clock");
        }
    }

    /// The oracle-bounded accuracy property: under any statistically
    /// meaningful cadence, the sampled clock lands inside the fixed
    /// differential band (±10% + 64 cycles) **or** inside the error the
    /// sampled run itself claims via its window-CPI CI95. What must
    /// never happen is a miss the run did not predict.
    #[test]
    fn sampled_cpi_stays_inside_its_own_error_claim(
        run in arb_run(),
        plan in arb_sampling_plan(),
    ) {
        let (w, accel, mallocs, seed) = run;
        let workload = &MacroWorkload::all()[w];
        let mode = mode_of(accel);
        let full = run_workload(workload, mallocs, seed, mode, None);
        let plan = conditioned(plan, full.stats.uops);
        let sampled = run_workload(workload, mallocs, seed, mode, Some(plan));

        let error_pct = if full.cycles == 0 {
            0.0
        } else {
            100.0 * (sampled.cycles as f64 - full.cycles as f64) / full.cycles as f64
        };
        let in_band = tol::within_band(
            full.cycles as f64,
            sampled.cycles as f64,
            tol::SAMPLED_DIFF_REL_TOL,
            tol::SAMPLED_DIFF_ABS_TOL_CYCLES,
        );
        let within_ci = sampled
            .ci95_rel
            .is_some_and(|rel| error_pct.abs() <= 100.0 * rel);
        prop_assert!(
            in_band || within_ci,
            "unpredicted sampling error on {} ({mode:?}, mallocs={mallocs}, seed={seed}): \
             plan {} missed by {error_pct:+.2}% with ci95 ±{:.2}%",
            workload.name,
            plan.canonical_string(),
            100.0 * sampled.ci95_rel.unwrap_or(0.0),
        );
    }
}

proptest! {
    // Each case runs the full 2-mode report for one workload at two jobs
    // values; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The `repro sample` report is a pure function of its arguments:
    /// re-running it changes nothing, and neither does the `--jobs`
    /// value — rows are computed as pure functions of their index, so
    /// parallel and sequential schedules must agree byte for byte.
    #[test]
    fn sample_reports_are_deterministic_and_jobs_invariant(
        w in 0..MacroWorkload::all().len(),
        mallocs in 200usize..600,
        seed in any::<u64>(),
    ) {
        let args = |jobs| SampleArgs {
            workloads: vec![AnyWorkload::Macro(MacroWorkload::all()[w].clone())],
            mallocs,
            seed,
            jobs,
            ..SampleArgs::default()
        };
        let (code_seq, seq) = sample_report(&args(1));
        let (code_rerun, rerun) = sample_report(&args(1));
        let (code_par, par) = sample_report(&args(3));
        prop_assert_eq!(code_seq, code_rerun, "exit code drifted across reruns");
        prop_assert_eq!(&seq, &rerun, "report drifted across reruns");
        prop_assert_eq!(code_seq, code_par, "exit code depends on --jobs");
        prop_assert_eq!(&seq, &par, "--jobs changed a report byte");
    }
}

/// Cases for the fast-forward oracle property: 32 unless `FF_ORACLE_CASES`
/// says otherwise.
fn ff_oracle_cases() -> u32 {
    std::env::var("FF_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// One sink callback. `UopEvent` has no `PartialEq`, so a retire event
/// keeps its fields.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Retire(u64, OpKind, Component, UopTiming, StallBreakdown),
    Skip(u64, u64),
    FastForward(u64, u64, u64),
    OpBegin(u64),
    OpEnd(u64, u64),
}

type Log = Arc<Mutex<Vec<Ev>>>;

/// A sink that appends every callback to a shared log.
#[derive(Debug)]
struct Recorder(Log);

impl Recorder {
    fn record(&self, ev: Ev) {
        self.0.lock().unwrap().push(ev);
    }
}

impl TraceSink for Recorder {
    fn on_retire(&mut self, e: &UopEvent) {
        self.record(Ev::Retire(e.seq, e.kind, e.component, e.timing, e.stall));
    }
    fn on_skip(&mut self, from: u64, to: u64) {
        self.record(Ev::Skip(from, to));
    }
    fn on_fast_forward(&mut self, uops: u64, from: u64, to: u64) {
        self.record(Ev::FastForward(uops, from, to));
    }
    fn on_op_begin(&mut self, cycle: u64) {
        self.record(Ev::OpBegin(cycle));
    }
    fn on_op_end(&mut self, op: &OpMeta<'_>) {
        self.record(Ev::OpEnd(op.start, op.end));
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A per-cycle issue-port budget as a plain map from cycle to µops
/// issued, never pruned. The engine's cycle-tagged ring claims to be
/// exactly this; scans start at most 1,000 cycles behind the latest cycle
/// issued, as in the engine.
#[derive(Default)]
struct RefPorts {
    used: HashMap<u64, usize>,
    watermark: u64,
}

impl RefPorts {
    fn issue_at(&mut self, ready: u64, cap: usize) -> u64 {
        let mut cycle = ready.max(self.watermark.saturating_sub(1_000));
        while self.used.get(&cycle).is_some_and(|&n| n >= cap) {
            cycle += 1;
        }
        *self.used.entry(cycle).or_default() += 1;
        self.watermark = self.watermark.max(cycle);
        cycle
    }
}

/// The retired detailed model, as a test-side reference: a `VecDeque` of
/// in-flight commit times for the ROB, sources walked as `Option`s, and a
/// CPI stack projected from each µop's full [`StallBreakdown`], which
/// `push` returns with the timing. Store forwarding and the issue ports
/// are plain maps. It has no sampler and no sink; the oracle around it
/// counts the execution statistics.
struct RefEngine {
    config: CoreConfig,
    mem: Hierarchy,
    /// Completion cycle of each register, at index `Reg::index`.
    reg_complete: Vec<u64>,
    rob: VecDeque<u64>,
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    fetch_barrier: u64,
    commit_cycle: u64,
    committed_this_cycle: u32,
    last_commit: u64,
    /// Completion of the last store to each cache line.
    store_complete: HashMap<u64, u64>,
    load_ports: RefPorts,
    store_ports: RefPorts,
    cpi: CpiStack,
}

impl RefEngine {
    fn new(config: CoreConfig) -> Self {
        Self {
            config,
            mem: Hierarchy::default(),
            reg_complete: Vec::new(),
            rob: VecDeque::new(),
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            fetch_barrier: 0,
            commit_cycle: 0,
            committed_this_cycle: 0,
            last_commit: 0,
            store_complete: HashMap::new(),
            load_ports: RefPorts::default(),
            store_ports: RefPorts::default(),
            cpi: CpiStack::default(),
        }
    }

    fn alloc_reg(&mut self) -> u32 {
        self.reg_complete.push(0);
        self.reg_complete.len() as u32 - 1
    }

    fn fetch_slot(&mut self, earliest: u64) -> u64 {
        let mut cycle = self.fetch_cycle.max(earliest).max(self.fetch_barrier);
        if cycle > self.fetch_cycle {
            self.fetch_cycle = cycle;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle >= self.config.fetch_width {
            cycle += 1;
            self.fetch_cycle = cycle;
            self.fetched_this_cycle = 0;
        }
        self.fetched_this_cycle += 1;
        cycle
    }

    fn commit_slot(&mut self, earliest: u64) -> u64 {
        let mut cycle = self.commit_cycle.max(earliest);
        if cycle > self.commit_cycle {
            self.commit_cycle = cycle;
            self.committed_this_cycle = 0;
        }
        if self.committed_this_cycle >= self.config.commit_width {
            cycle += 1;
            self.commit_cycle = cycle;
            self.committed_this_cycle = 0;
        }
        self.committed_this_cycle += 1;
        cycle
    }

    fn push(&mut self, uop: &Uop) -> (UopTiming, StallBreakdown) {
        let rob_gate = if self.rob.len() >= self.config.rob_size as usize {
            self.rob.pop_front().expect("rob non-empty")
        } else {
            0
        };
        let rob_delay = rob_gate.saturating_sub(self.fetch_cycle.max(self.fetch_barrier));
        let fetch = self.fetch_slot(rob_gate);

        let mut ready = fetch + self.config.frontend_latency as u64;
        for src in uop.srcs.iter().flatten() {
            ready = ready.max(self.reg_complete[src.index() as usize]);
        }

        let mut mem = None;
        let complete = match uop.kind {
            OpKind::Alu { latency } => ready + latency as u64,
            OpKind::Load { addr } => {
                if let Some(&s) = self.store_complete.get(&(addr >> 6)) {
                    ready = ready.max(s);
                }
                let issue = self.load_ports.issue_at(ready, LOAD_PORTS);
                let r = self.mem.access(addr, AccessKind::Read);
                mem = Some(r);
                issue + r.latency as u64
            }
            OpKind::Store { addr } => {
                let issue = self.store_ports.issue_at(ready, STORE_PORTS);
                mem = Some(self.mem.access(addr, AccessKind::Write));
                self.store_complete.insert(addr >> 6, issue + 1);
                issue + 1
            }
            OpKind::Prefetch { addr } => {
                let issue = self.load_ports.issue_at(ready, LOAD_PORTS);
                mem = Some(self.mem.access(addr, AccessKind::Prefetch));
                issue + 1
            }
            OpKind::Branch {
                mispredicted,
                taken,
                penalty,
            } => {
                let c = ready + 1;
                if mispredicted {
                    let pen = penalty.unwrap_or(self.config.mispredict_penalty);
                    self.fetch_barrier = self.fetch_barrier.max(c + pen as u64);
                } else if taken {
                    self.fetch_cycle = fetch + 1;
                    self.fetched_this_cycle = 0;
                }
                c
            }
        };
        if let Some(dst) = uop.dst {
            self.reg_complete[dst.index() as usize] = complete;
        }

        let prev_commit = self.last_commit;
        let commit = self.commit_slot(complete.max(prev_commit));
        self.last_commit = commit;
        self.rob.push_back(commit);

        let advance = commit.saturating_sub(prev_commit);
        let mut stall = StallBreakdown::new();
        if advance > 0 {
            let stalled = complete.saturating_sub(prev_commit).min(advance);
            stall.add(StallReason::Base, advance - stalled);
            let mut rest = stalled;
            let mut take = |reason, span: u64| {
                let t = span.min(rest);
                rest -= t;
                stall.add(reason, t);
            };
            let exec_reason = match (uop.kind, mem) {
                (OpKind::Load { .. }, Some(m)) => StallReason::for_level(m.level),
                _ => StallReason::Execute,
            };
            take(exec_reason, complete.saturating_sub(ready));
            let frontend_done = fetch + self.config.frontend_latency as u64;
            take(StallReason::Dataflow, ready.saturating_sub(frontend_done));
            take(StallReason::RobFull, rob_delay);
            stall.add(StallReason::Frontend, rest);
        }
        self.cpi.base += stall.get(StallReason::Base);
        self.cpi.memory += stall.memory();
        self.cpi.execute += stall.get(StallReason::Execute);
        self.cpi.frontend += stall.get(StallReason::Dataflow)
            + stall.get(StallReason::RobFull)
            + stall.get(StallReason::Frontend);

        let timing = UopTiming {
            fetch,
            ready,
            complete,
            commit,
            mem,
        };
        (timing, stall)
    }

    fn skip_to_cycle(&mut self, cycle: u64) {
        if cycle > self.fetch_cycle {
            self.fetch_cycle = cycle;
            self.fetched_this_cycle = 0;
        }
        self.fetch_barrier = self.fetch_barrier.max(cycle);
        self.last_commit = self.last_commit.max(cycle);
        if cycle > self.commit_cycle {
            self.commit_cycle = cycle;
            self.committed_this_cycle = 0;
        }
    }
}

fn count(stats: &mut CoreStats, kind: OpKind) {
    stats.uops += 1;
    match kind {
        OpKind::Alu { .. } => {}
        OpKind::Load { .. } => stats.loads += 1,
        OpKind::Store { .. } => stats.stores += 1,
        OpKind::Prefetch { .. } => stats.prefetches += 1,
        OpKind::Branch { mispredicted, .. } => {
            stats.branches += 1;
            stats.mispredicts += u64::from(mispredicted);
        }
    }
}

fn slices(c: CpiStack) -> [u64; 4] {
    [c.base, c.memory, c.execute, c.frontend]
}

fn add_slices(c: &mut CpiStack, d: [u64; 4]) {
    c.base += d[0];
    c.memory += d[1];
    c.execute += d[2];
    c.frontend += d[3];
}

/// The phase the retired design gave a µop: it asked the sampler once
/// per µop.
enum Step {
    /// Unsampled, or warmup.
    Detailed,
    Measured {
        closes: bool,
    },
    FastForward,
}

/// The retired fast-forward design, as a test-side model.
///
/// Detailed µops run on `full`, the [`RefEngine`]. Wherever the retired
/// design closed a fast-forward region, `skip_to_cycle` re-syncs `full` to
/// the fast-forward clock, which is all a region did to the pipeline.
/// Fast-forwarded µops access `full`'s hierarchy and step one floor-carry
/// accumulator per CPI slice, per µop. The rates come from each measured
/// window's CPI-stack deltas; the model knows the plan, so it knows where
/// each window sits.
struct Oracle {
    full: RefEngine,
    plan: Option<SamplingPlan>,
    startup_left: u64,
    pos: u64,
    /// CPI stack at the open of the current measured window.
    window_start: Option<CpiStack>,
    rate: [u64; 4],
    accum: [u64; 4],
    /// Open fast-forward region: µops and the cycle it started from.
    pending: Option<(u64, u64)>,
    report: Option<SamplingReport>,
    now: u64,
    cpi: CpiStack,
    skipped: u64,
    stats: CoreStats,
    retired: u64,
    component: Component,
    sink_on: bool,
    /// Events the engine's sink should have received since the last check.
    expected: Vec<Ev>,
    /// Per register: the cycle the retired design wrote to it when a
    /// fast-forwarded µop produced it.
    ff_written: Vec<Option<u64>>,
}

impl Oracle {
    fn new(config: CoreConfig) -> Self {
        Self {
            full: RefEngine::new(config),
            plan: None,
            startup_left: 0,
            pos: 0,
            window_start: None,
            rate: [0; 4],
            accum: [0; 4],
            pending: None,
            report: None,
            now: 0,
            cpi: CpiStack::default(),
            skipped: 0,
            stats: CoreStats::default(),
            retired: 0,
            component: Component::App,
            sink_on: false,
            expected: Vec::new(),
            ff_written: Vec::new(),
        }
    }

    fn alloc_reg(&mut self) -> u32 {
        self.ff_written.push(None);
        self.full.alloc_reg()
    }

    fn set_sampling(&mut self, plan: Option<SamplingPlan>) {
        self.flush();
        self.plan = plan;
        self.startup_left = plan.map_or(0, |p| p.startup_uops);
        self.pos = 0;
        self.window_start = None;
        self.rate = [0; 4];
        self.accum = [0; 4];
        self.report = plan.map(|plan| SamplingReport {
            plan,
            windows: Vec::new(),
            warmup_uops: 0,
            ff_uops: 0,
            ff_cycles: 0,
        });
    }

    fn next_step(&mut self) -> Step {
        let Some(plan) = self.plan.filter(|p| !p.is_degenerate()) else {
            return Step::Detailed;
        };
        let report = self.report.as_mut().expect("a plan has a report");
        if self.startup_left > 0 {
            self.startup_left -= 1;
            report.warmup_uops += 1;
            return Step::Detailed;
        }
        let pos = self.pos;
        self.pos = (pos + 1) % plan.period;
        let meas_end = plan.warmup_uops + plan.detailed_uops;
        if pos < plan.warmup_uops {
            report.warmup_uops += 1;
            Step::Detailed
        } else if pos < meas_end {
            Step::Measured {
                closes: pos + 1 == meas_end,
            }
        } else {
            Step::FastForward
        }
    }

    /// Closes the open fast-forward region, if any.
    fn flush(&mut self) {
        if let Some((uops, from)) = self.pending.take() {
            self.full.skip_to_cycle(self.now);
            if self.sink_on {
                self.expected.push(Ev::FastForward(uops, from, self.now));
            }
        }
    }

    fn push(&mut self, uop: &Uop) -> UopTiming {
        count(&mut self.stats, uop.kind);
        let step = self.next_step();
        if let Step::FastForward = step {
            return self.push_ff(uop);
        }
        self.flush();
        if let Step::Measured { .. } = step {
            self.window_start.get_or_insert(self.cpi);
        }
        let before = slices(self.full.cpi);
        let (t, stall) = self.full.push(uop);
        let after = slices(self.full.cpi);
        add_slices(&mut self.cpi, std::array::from_fn(|i| after[i] - before[i]));
        // The no-register-write proof: no value a fast-forwarded producer
        // would have written can raise this µop's ready time.
        for src in uop.srcs.iter().flatten() {
            if let Some(written) = self.ff_written[src.index() as usize] {
                assert!(
                    t.ready >= written,
                    "{src} was fast-forwarded at {written}, read at {}",
                    t.ready
                );
            }
        }
        self.now = t.commit;
        if self.sink_on {
            self.expected
                .push(Ev::Retire(self.retired, uop.kind, self.component, t, stall));
        }
        self.retired += 1;
        if let Step::Measured { closes: true } = step {
            let start = slices(self.window_start.take().expect("window open"));
            let end = slices(self.cpi);
            let d: [u64; 4] = std::array::from_fn(|i| end[i] - start[i]);
            let plan = self.plan.expect("measured under a plan");
            self.report
                .as_mut()
                .expect("a plan has a report")
                .windows
                .push(WindowSample {
                    uops: plan.detailed_uops,
                    cycles: d.iter().sum(),
                });
            self.rate = d.map(|slice| slice * FF_SCALE / plan.detailed_uops);
        }
        t
    }

    /// The retired per-µop fast-forward step.
    fn push_ff(&mut self, uop: &Uop) -> UopTiming {
        let mut access = |addr, kind| Some(self.full.mem.access(addr, kind));
        let mem = match uop.kind {
            OpKind::Load { addr } => access(addr, AccessKind::Read),
            OpKind::Store { addr } => access(addr, AccessKind::Write),
            OpKind::Prefetch { addr } => access(addr, AccessKind::Prefetch),
            OpKind::Alu { .. } | OpKind::Branch { .. } => None,
        };
        let from = self.now;
        let adv: [u64; 4] = std::array::from_fn(|i| {
            self.accum[i] += self.rate[i];
            let whole = self.accum[i] / FF_SCALE;
            self.accum[i] %= FF_SCALE;
            whole
        });
        let advance: u64 = adv.iter().sum();
        add_slices(&mut self.cpi, adv);
        self.now += advance;
        let report = self.report.as_mut().expect("fast-forward under a plan");
        report.ff_uops += 1;
        report.ff_cycles += advance;
        self.pending.get_or_insert((0, from)).0 += 1;
        self.retired += 1;
        if let Some(dst) = uop.dst {
            self.ff_written[dst.index() as usize] = Some(self.now);
        }
        let now = self.now;
        UopTiming {
            fetch: now,
            ready: now,
            complete: now,
            commit: now,
            mem,
        }
    }

    fn skip_to_cycle(&mut self, cycle: u64) {
        self.flush();
        self.full.skip_to_cycle(cycle);
        let from = self.now;
        self.now = from.max(cycle);
        if self.now > from {
            self.skipped += self.now - from;
            if self.sink_on {
                self.expected.push(Ev::Skip(from, self.now));
            }
        }
    }

    /// The engine closes a region before its sink changes hands, so the
    /// region's event reaches the sink installed until then.
    fn set_sink(&mut self, on: bool) {
        self.flush();
        self.sink_on = on;
    }

    fn op_begin(&mut self) {
        self.flush();
        if self.sink_on {
            self.expected.push(Ev::OpBegin(self.now));
        }
    }

    fn op_end(&mut self, start: u64, end: u64) {
        self.flush();
        if self.sink_on {
            self.expected.push(Ev::OpEnd(start, end));
        }
    }

    fn set_component(&mut self, c: Component) {
        self.component = c;
    }
}

/// Random µops over the registers drawn so far.
struct UopGen {
    rng: TestRng,
    regs: Vec<Reg>,
}

impl UopGen {
    /// A source list: up to three registers, mostly recent ones.
    fn srcs(&mut self) -> Vec<Reg> {
        let n = self.rng.below(4).min(self.regs.len() as u64);
        (0..n)
            .map(|_| {
                let back = if self.rng.below(4) == 0 {
                    self.regs.len()
                } else {
                    self.regs.len().min(16)
                };
                self.regs[self.regs.len() - 1 - self.rng.below(back as u64) as usize]
            })
            .collect()
    }

    fn addr(&mut self) -> u64 {
        if self.rng.below(16) == 0 {
            self.rng.below(1 << 32)
        } else {
            self.rng.below(4_096) * 64 + self.rng.below(64)
        }
    }

    /// A random µop; `alloc` names each destination register it needs.
    fn uop(&mut self, mut alloc: impl FnMut() -> Reg) -> Uop {
        let srcs = self.srcs();
        let mut fresh = |regs: &mut Vec<Reg>| {
            let r = alloc();
            regs.push(r);
            r
        };
        match self.rng.below(20) {
            0..=4 => {
                let a = self.addr();
                Uop::load(a, fresh(&mut self.regs), &srcs)
            }
            5..=7 => Uop::store(self.addr(), &srcs),
            8 => Uop::prefetch(self.addr(), &srcs),
            9 => Uop::branch(self.rng.below(8) == 0, &srcs),
            10 => {
                Uop::branch_penalized(self.rng.below(2) == 0, 1 + self.rng.below(20) as u32, &srcs)
            }
            11 => Uop::jump(&srcs),
            12..=13 => Uop::alu(1 + self.rng.below(3) as u32, None, &srcs),
            _ => {
                let latency = if self.rng.below(32) == 0 {
                    20 + self.rng.below(300)
                } else {
                    1 + self.rng.below(4)
                };
                Uop::alu(latency as u32, Some(fresh(&mut self.regs)), &srcs)
            }
        }
    }
}

/// Allocates the next register in `cpu` and in `oracle`, which must agree
/// on its name.
fn alloc_in_both(cpu: &mut Engine, oracle: &mut Oracle) -> Reg {
    let r = cpu.alloc_reg();
    assert_eq!(r.index(), oracle.alloc_reg(), "register names diverged");
    r
}

/// A sampled engine driven in lockstep with the [`Oracle`].
struct Lockstep {
    cpu: Engine,
    log: Log,
    oracle: Oracle,
    gen: UopGen,
    plan: SamplingPlan,
    op_start: u64,
}

impl Lockstep {
    /// Starts both on `config`, sampled under `plan` or, if `sampled` is
    /// false, in full detail; `plan` is still the one plan changes pick.
    fn new(config: CoreConfig, plan: SamplingPlan, sampled: bool, seed: u64) -> Self {
        let mut h = Self {
            cpu: Engine::new(config, Hierarchy::default()),
            log: Log::default(),
            oracle: Oracle::new(config),
            gen: UopGen {
                rng: TestRng::seed_from_u64(seed),
                regs: Vec::new(),
            },
            plan,
            op_start: 0,
        };
        let start = sampled.then_some(plan);
        h.cpu.set_sampling(start);
        h.oracle.set_sampling(start);
        if h.gen.rng.below(2) == 0 {
            h.set_sink(true);
        }
        h
    }

    fn alloc(&mut self) -> Reg {
        let r = alloc_in_both(&mut self.cpu, &mut self.oracle);
        self.gen.regs.push(r);
        r
    }

    fn set_sink(&mut self, on: bool) {
        if on {
            self.cpu.set_sink(Box::new(Recorder(self.log.clone())));
        } else {
            self.cpu.take_sink().expect("sink installed");
        }
        self.oracle.set_sink(on);
    }

    /// Pushes `uop` into both and compares everything observable.
    fn push(&mut self, uop: Uop) -> Result<(), TestCaseError> {
        let got = self.cpu.push(uop.clone());
        let want = self.oracle.push(&uop);
        prop_assert_eq!(got, want, "timing of {:?}", uop);
        self.check()
    }

    fn check(&mut self) -> Result<(), TestCaseError> {
        let o = &mut self.oracle;
        prop_assert_eq!(self.cpu.now(), o.now);
        prop_assert_eq!(self.cpu.cpi_stack(), o.cpi);
        prop_assert_eq!(self.cpu.stats(), o.stats);
        prop_assert_eq!(self.cpu.skipped_cycles(), o.skipped);
        prop_assert_eq!(self.cpu.sampling_report(), o.report.clone());
        let got: Vec<Ev> = self.log.lock().unwrap().drain(..).collect();
        prop_assert_eq!(got, std::mem::take(&mut o.expected));
        Ok(())
    }

    fn random_uop(&mut self) -> Uop {
        let (cpu, oracle) = (&mut self.cpu, &mut self.oracle);
        self.gen.uop(|| alloc_in_both(cpu, oracle))
    }

    /// One interleaved engine call other than `push`. Plan changes are
    /// rare, because each one restarts the startup interval.
    fn control(&mut self) -> Result<(), TestCaseError> {
        match self.gen.rng.below(1_000) {
            0..=399 => {
                let now = self.cpu.now();
                let cycle = (now + self.gen.rng.below(200)).saturating_sub(20);
                self.cpu.skip_to_cycle(cycle);
                self.oracle.skip_to_cycle(cycle);
            }
            400..=599 => {
                self.op_start = self.cpu.now();
                self.cpu.trace_op_begin();
                self.oracle.op_begin();
            }
            600..=799 => {
                let (start, end) = (self.op_start, self.cpu.now());
                let meta = OpMeta {
                    name: "op",
                    is_malloc: true,
                    size: 16,
                    cls: None,
                    start,
                    end,
                };
                self.cpu.trace_op_end(&meta);
                self.oracle.op_end(start, end);
            }
            800..=929 => {
                // Attach, replace or detach.
                let on = !self.oracle.sink_on || self.gen.rng.below(2) == 0;
                self.set_sink(on);
            }
            930..=995 => {
                let c = Component::ALL[self.gen.rng.below(Component::ALL.len() as u64) as usize];
                self.cpu.set_component(c);
                self.oracle.set_component(c);
            }
            _ => {
                let plan = match self.gen.rng.below(3) {
                    0 => None,
                    1 => Some(self.plan),
                    _ => Some(SamplingPlan::new(1, 1, 8).unwrap().with_startup(0)),
                };
                self.cpu.set_sampling(plan);
                self.oracle.set_sampling(plan);
            }
        }
        self.check()
    }

    fn run(&mut self, steps: u64) -> Result<(), TestCaseError> {
        for _ in 0..steps {
            if self.gen.rng.below(64) == 0 {
                self.control()?;
            } else {
                let uop = self.random_uop();
                self.push(uop)?;
            }
        }
        self.finish()
    }

    /// Closes any open region through the sink and compares the caches.
    fn finish(&mut self) -> Result<(), TestCaseError> {
        if !self.oracle.sink_on {
            self.set_sink(true);
        }
        self.set_sink(false);
        self.check()?;
        prop_assert!(
            *self.cpu.mem() == self.oracle.full.mem,
            "cache hierarchy diverged"
        );
        Ok(())
    }
}

/// Plans for the oracle: the shared generator, plus the corners a closed
/// form gets wrong first.
fn arb_oracle_plan() -> impl Strategy<Value = SamplingPlan> {
    let plan = |w, d, p| SamplingPlan::new(w, d, p).expect("non-empty window and period");
    prop_oneof![
        3 => arb_sampling_plan(),
        // No startup, short periods: many stretches.
        1 => (0u64..=32, 1u64..=32, 1u64..=96)
            .prop_map(move |(w, d, ff)| plan(w, d, w + d + ff).with_startup(0)),
        // Zero warmup.
        1 => (1u64..=64, 1u64..=256, 0u64..=2).prop_map(move |(d, ff, periods)| {
            let p = plan(0, d, d + ff);
            p.with_startup(periods * p.period)
        }),
        // One-µop windows.
        1 => (0u64..=16, 1u64..=128)
            .prop_map(move |(w, ff)| plan(w, 1, w + 1 + ff).with_startup(0)),
    ]
}

/// Cores for the oracle: any ROB from 1 to 320 entries, powers of two and
/// tiny windows drawn more often, fetch and commit 1–6 wide, a front end
/// 0–8 cycles deep and a 0–20-cycle mispredict penalty.
fn arb_core_config() -> impl Strategy<Value = CoreConfig> {
    let rob = prop_oneof![
        2 => 1u32..=320,
        1 => 1u32..=8,
        1 => (0u32..=8).prop_map(|k| 1 << k),
    ];
    (rob, 1u32..=6, 1u32..=6, 0u32..=8, 0u32..=20).prop_map(
        |(rob_size, fetch_width, commit_width, frontend_latency, mispredict_penalty)| CoreConfig {
            fetch_width,
            commit_width,
            rob_size,
            mispredict_penalty,
            frontend_latency,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ff_oracle_cases()))]

    /// The engine is exactly the retired designs on any core, sampled
    /// or, in one case of four, starting in full detail: after every µop
    /// and every interleaved call (time skips, operation windows, sink
    /// changes, plan changes), `now`, `cpi_stack`, `stats`,
    /// `skipped_cycles`, `sampling_report`, the returned `UopTiming` and
    /// every sink event equal the oracle's, and so does the cache
    /// hierarchy at the end.
    #[test]
    fn fast_forward_matches_the_per_uop_oracle(
        plan in arb_oracle_plan(),
        seed in any::<u64>(),
        config in arb_core_config(),
        sampled in prop_oneof![3 => Just(true), 1 => Just(false)],
    ) {
        // Long enough to leave the startup interval and cross two periods.
        let steps = (plan.startup_uops + 2 * plan.period + 64).min(30_000);
        Lockstep::new(config, plan, sampled, seed).run(steps)?;
    }
}

/// A one-µop window on a `u32::MAX`-latency ALU sets an execute rate near
/// 4.3·10¹⁵ FF_SCALEths of a cycle per µop. Over 5,000 fast-forwarded
/// µops in one region, `accum + k·rate` passes `u64::MAX`; the per-µop
/// accumulator never does, and the closed form must not either.
#[test]
fn a_huge_window_rate_over_a_long_region_matches_the_oracle() -> Result<(), TestCaseError> {
    let plan = SamplingPlan::new(0, 1, 6_000).unwrap().with_startup(0);
    let mut h = Lockstep::new(CoreConfig::haswell(), plan, true, 1);
    let d = h.alloc();
    h.push(Uop::alu(u32::MAX, Some(d), &[]))?;
    for _ in 0..5_500 {
        let uop = h.random_uop();
        h.push(uop)?;
    }
    prop_assert!(h.cpu.now() > 5_000 * u64::from(u32::MAX));
    h.finish()
}

/// Twin engines on one core and one plan: `bulk` pushes each run of
/// application loads with one `push_loads` call, `each` pushes them one
/// `push(Uop::load(a, fresh_reg, &[]))` at a time. Every other µop goes to
/// both, with `each`'s registers standing in for `bulk`'s.
struct Twins {
    bulk: Engine,
    each: Engine,
    bulk_log: Log,
    each_log: Log,
    sink_on: bool,
    gen: UopGen,
    /// `each`'s register for each of `bulk`'s, by `bulk`'s index.
    each_reg: Vec<Reg>,
    op_start: u64,
}

impl Twins {
    fn new(config: CoreConfig, plan: Option<SamplingPlan>, seed: u64) -> Self {
        let mut t = Self {
            bulk: Engine::new(config, Hierarchy::default()),
            each: Engine::new(config, Hierarchy::default()),
            bulk_log: Log::default(),
            each_log: Log::default(),
            sink_on: false,
            gen: UopGen {
                rng: TestRng::seed_from_u64(seed),
                regs: Vec::new(),
            },
            each_reg: Vec::new(),
            op_start: 0,
        };
        t.bulk.set_sampling(plan);
        t.each.set_sampling(plan);
        t
    }

    fn set_sink(&mut self, on: bool) {
        if on {
            self.bulk
                .set_sink(Box::new(Recorder(self.bulk_log.clone())));
            self.each
                .set_sink(Box::new(Recorder(self.each_log.clone())));
        } else {
            self.bulk.take_sink().expect("sink installed");
            self.each.take_sink().expect("sink installed");
        }
        self.sink_on = on;
    }

    /// A run of 0–80 application loads: consecutive lines from one base,
    /// so most repeat the last page, or scattered addresses.
    fn loads(&mut self) {
        let n = self.gen.rng.below(81);
        let addrs: Vec<u64> = if self.gen.rng.below(2) == 0 {
            let base = self.gen.addr();
            (0..n).map(|i| base + i * 64).collect()
        } else {
            (0..n).map(|_| self.gen.addr()).collect()
        };
        self.bulk.push_loads(&addrs);
        for &a in &addrs {
            let r = self.each.alloc_reg();
            self.each.push(Uop::load(a, r, &[]));
        }
    }

    fn uop(&mut self) -> Result<(), TestCaseError> {
        let (bulk, each, each_reg) = (&mut self.bulk, &mut self.each, &mut self.each_reg);
        let uop = self.gen.uop(|| {
            each_reg.push(each.alloc_reg());
            bulk.alloc_reg()
        });
        let map = |r: Option<Reg>| r.map(|r| self.each_reg[r.index() as usize]);
        let twin = Uop {
            kind: uop.kind,
            srcs: uop.srcs.map(map),
            dst: map(uop.dst),
        };
        prop_assert_eq!(
            self.bulk.push(uop.clone()),
            self.each.push(twin),
            "{:?}",
            uop
        );
        Ok(())
    }

    fn control(&mut self) {
        match self.gen.rng.below(4) {
            0 => {
                let now = self.bulk.now();
                let cycle = (now + self.gen.rng.below(200)).saturating_sub(20);
                self.bulk.skip_to_cycle(cycle);
                self.each.skip_to_cycle(cycle);
            }
            1 => {
                self.op_start = self.bulk.now();
                self.bulk.trace_op_begin();
                self.each.trace_op_begin();
            }
            2 => {
                let meta = OpMeta {
                    name: "op",
                    is_malloc: false,
                    size: 0,
                    cls: None,
                    start: self.op_start,
                    end: self.bulk.now(),
                };
                self.bulk.trace_op_end(&meta);
                self.each.trace_op_end(&meta);
            }
            _ => {
                let on = !self.sink_on || self.gen.rng.below(2) == 0;
                self.set_sink(on);
            }
        }
    }

    fn check(&mut self) -> Result<(), TestCaseError> {
        let (b, e) = (&self.bulk, &self.each);
        prop_assert_eq!(b.now(), e.now());
        prop_assert_eq!(b.stats(), e.stats());
        prop_assert_eq!(b.cpi_stack(), e.cpi_stack());
        prop_assert_eq!(b.skipped_cycles(), e.skipped_cycles());
        prop_assert_eq!(b.sampling_report(), e.sampling_report());
        let got: Vec<Ev> = self.bulk_log.lock().unwrap().drain(..).collect();
        let want: Vec<Ev> = self.each_log.lock().unwrap().drain(..).collect();
        prop_assert_eq!(got, want);
        Ok(())
    }

    /// Runs until `bulk` has pushed `uops` µops, then closes any open
    /// region through a sink and compares the caches.
    fn run(&mut self, uops: u64) -> Result<(), TestCaseError> {
        while self.bulk.stats().uops < uops {
            match self.gen.rng.below(16) {
                0 => self.control(),
                1..=5 => self.loads(),
                _ => self.uop()?,
            }
            self.check()?;
        }
        if !self.sink_on {
            self.set_sink(true);
        }
        self.set_sink(false);
        self.check()?;
        prop_assert!(
            *self.bulk.mem() == *self.each.mem(),
            "cache hierarchy diverged"
        );
        Ok(())
    }
}

/// Plans for `push_loads`: full detail, the shared generator, or short
/// periods with no startup, so that stretches end inside a run of loads.
fn arb_push_loads_plan() -> impl Strategy<Value = Option<SamplingPlan>> {
    let plan = |w, d, p| SamplingPlan::new(w, d, p).expect("non-empty window and period");
    prop_oneof![
        1 => Just(None),
        2 => arb_sampling_plan().prop_map(Some),
        2 => (0u64..=16, 1u64..=16, 1u64..=64)
            .prop_map(move |(w, d, ff)| Some(plan(w, d, w + d + ff).with_startup(0))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ff_oracle_cases()))]

    /// `Engine::push_loads` is exactly one `push` of a load with a fresh
    /// register per address, on any core, in full detail or sampled:
    /// after every run of loads, random µop and interleaved call (time
    /// skips, operation windows, sink changes), `now`, `stats`,
    /// `cpi_stack`, `skipped_cycles`, `sampling_report` and every sink
    /// event agree, and so do the cache hierarchies at the end.
    #[test]
    fn push_loads_match_the_per_load_oracle(
        plan in arb_push_loads_plan(),
        seed in any::<u64>(),
        config in arb_core_config(),
    ) {
        // Past the startup interval and across three periods.
        let uops = plan.map_or(4_000, |p| (p.startup_uops + 3 * p.period + 256).min(40_000));
        Twins::new(config, plan, seed).run(uops)?;
    }
}
