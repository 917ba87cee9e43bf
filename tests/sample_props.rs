//! Property suite over sampled execution: for arbitrary seeds ×
//! workloads × cadences, sampling never perturbs functional state, the
//! sampled clock stays inside the error the run itself claims (or the
//! fixed differential band), degenerate plans are the identity on the
//! full detailed run, and the `repro sample` report is byte-identical
//! for every `--jobs` value.
//!
//! At the engine level, a sampled engine is checked µop by µop against
//! an oracle of the retired fast-forward design: a full-detail engine
//! re-synced at every fast-forward region, plus per-µop floor-carry
//! accumulation of the extrapolated cycles. The engine keeps that clock
//! in closed form and writes no registers while fast-forwarding, and the
//! oracle pins both as exact. `FF_ORACLE_CASES` sets its case count.
//!
//! Cadences come from the shared
//! [`mallacc_test_support::arb_sampling_plan`] generator, so this suite
//! draws from the same plan distribution as the generator's own unit
//! tests and the sweep-point strategies.

use std::any::Any;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use mallacc::{MallocSim, Mode, SamplingPlan};
use mallacc_bench::sample_cli::{sample_report, SampleArgs};
use mallacc_cache::{AccessKind, Hierarchy};
use mallacc_ooo::{
    Component, CoreConfig, CoreStats, CpiStack, Engine, OpKind, OpMeta, Reg, SamplingReport,
    StallBreakdown, TraceSink, Uop, UopEvent, UopTiming, WindowSample, FF_SCALE,
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
            workloads: vec![MacroWorkload::all()[w].name.to_string()],
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

fn engine() -> Engine {
    Engine::new(CoreConfig::haswell(), Hierarchy::default())
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
/// Detailed µops run on `full`, an engine without sampling. Wherever the
/// retired design closed a fast-forward region, `skip_to_cycle` re-syncs
/// `full` to the fast-forward clock, which is all a region did to the
/// pipeline. Fast-forwarded µops access `full`'s hierarchy and step one
/// floor-carry accumulator per CPI slice, per µop. The rates come from
/// each measured window's `cpi_stack()` deltas; the model knows the plan,
/// so it knows where each window sits.
struct Oracle {
    full: Engine,
    /// `full`'s own sink, the source of each detailed µop's breakdown.
    full_log: Log,
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
    fn new() -> Self {
        let full_log = Log::default();
        let mut full = engine();
        full.set_sink(Box::new(Recorder(full_log.clone())));
        Self {
            full,
            full_log,
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

    fn alloc_reg(&mut self) -> Reg {
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
        let before = slices(self.full.cpi_stack());
        let t = self.full.push(uop.clone());
        let after = slices(self.full.cpi_stack());
        add_slices(&mut self.cpi, std::array::from_fn(|i| after[i] - before[i]));
        let stall = match self.full_log.lock().unwrap().drain(..).next_back() {
            Some(Ev::Retire(_, _, _, timing, stall)) if timing == t => stall,
            other => panic!("reference engine retired {other:?} for {t:?}"),
        };
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
        let mut access = |addr, kind| Some(self.full.mem_mut().access(addr, kind));
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
        self.full.set_component(c);
    }
}

/// A sampled engine driven in lockstep with the [`Oracle`].
struct Lockstep {
    cpu: Engine,
    log: Log,
    oracle: Oracle,
    regs: Vec<Reg>,
    rng: TestRng,
    plan: SamplingPlan,
    op_start: u64,
}

impl Lockstep {
    fn new(plan: SamplingPlan, seed: u64) -> Self {
        let mut h = Self {
            cpu: engine(),
            log: Log::default(),
            oracle: Oracle::new(),
            regs: Vec::new(),
            rng: TestRng::seed_from_u64(seed),
            plan,
            op_start: 0,
        };
        h.cpu.set_sampling(Some(plan));
        h.oracle.set_sampling(Some(plan));
        if h.rng.below(2) == 0 {
            h.set_sink(true);
        }
        h
    }

    fn alloc(&mut self) -> Reg {
        let r = self.cpu.alloc_reg();
        assert_eq!(r, self.oracle.alloc_reg(), "register names diverged");
        self.regs.push(r);
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

    fn random_uop(&mut self) -> Uop {
        let srcs = self.srcs();
        match self.rng.below(20) {
            0..=4 => {
                let (a, d) = (self.addr(), self.alloc());
                Uop::load(a, d, &srcs)
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
                let d = self.alloc();
                Uop::alu(latency as u32, Some(d), &srcs)
            }
        }
    }

    /// One interleaved engine call other than `push`. Plan changes are
    /// rare, because each one restarts the startup interval.
    fn control(&mut self) -> Result<(), TestCaseError> {
        match self.rng.below(1_000) {
            0..=399 => {
                let now = self.cpu.now();
                let cycle = (now + self.rng.below(200)).saturating_sub(20);
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
                let on = !self.oracle.sink_on || self.rng.below(2) == 0;
                self.set_sink(on);
            }
            930..=995 => {
                let c = Component::ALL[self.rng.below(Component::ALL.len() as u64) as usize];
                self.cpu.set_component(c);
                self.oracle.set_component(c);
            }
            _ => {
                let plan = match self.rng.below(3) {
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
            if self.rng.below(64) == 0 {
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
            self.cpu.mem() == self.oracle.full.mem(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ff_oracle_cases()))]

    /// A sampled engine is exactly the retired design: after every µop
    /// and every interleaved call (time skips, operation windows, sink
    /// changes, plan changes), `now`, `cpi_stack`, `stats`,
    /// `skipped_cycles`, `sampling_report`, the returned `UopTiming` and
    /// every sink event equal the oracle's, and so does the cache
    /// hierarchy at the end.
    #[test]
    fn fast_forward_matches_the_per_uop_oracle(
        plan in arb_oracle_plan(),
        seed in any::<u64>(),
    ) {
        // Long enough to leave the startup interval and cross two periods.
        let steps = (plan.startup_uops + 2 * plan.period + 64).min(30_000);
        Lockstep::new(plan, seed).run(steps)?;
    }
}

/// A one-µop window on a `u32::MAX`-latency ALU sets an execute rate near
/// 4.3·10¹⁵ FF_SCALEths of a cycle per µop. Over 5,000 fast-forwarded
/// µops in one region, `accum + k·rate` passes `u64::MAX`; the per-µop
/// accumulator never does, and the closed form must not either.
#[test]
fn a_huge_window_rate_over_a_long_region_matches_the_oracle() -> Result<(), TestCaseError> {
    let plan = SamplingPlan::new(0, 1, 6_000).unwrap().with_startup(0);
    let mut h = Lockstep::new(plan, 1);
    let d = h.alloc();
    h.push(Uop::alu(u32::MAX, Some(d), &[]))?;
    for _ in 0..5_500 {
        let uop = h.random_uop();
        h.push(uop)?;
    }
    prop_assert!(h.cpu.now() > 5_000 * u64::from(u32::MAX));
    h.finish()
}
