//! The traced pass: host time per simulator layer.
//!
//! Every layer is a black box here. A traced round runs the workload's real
//! jobs with a span around each call the benchmark makes into a layer's
//! public API; TCMalloc jobs run as a *split replay* — the functional
//! `TcMalloc::malloc/free` and the driver's `MallocSim::time_malloc/
//! time_free` called separately, which reproduces `Trace::replay` cycle for
//! cycle. Layers the benchmark cannot wrap from outside (the engine and the
//! cache hierarchy inside a driver call, the per-core replay threads of the
//! multicore simulator) are measured by *isolation replays* once per traced
//! run and scaled by the round's own counts; every number derived that way
//! is an estimate and is labelled `(est)` in the report.

use std::any::Any;
use std::time::Instant;

use mallacc::{MallocCacheStats, MallocSim, Mode, OpKind, PostList, TraceSink, UopEvent};
use mallacc_cache::{AccessKind, Hierarchy, SharedL3};
use mallacc_multicore::{capture_stream, CoreEvent, MulticoreSim};
use mallacc_ooo::{CoreConfig, Engine, SamplingPlan, Uop};
use mallacc_stats::Json;
use mallacc_substrate::{Allocator, AnyAllocator, AnySim, SubstrateKind};
use mallacc_tcmalloc::{ClassId, TcMalloc, TcMallocConfig};
use mallacc_workloads::{MtOp, SimBackend, Trace};

use crate::measure::Metric;
use crate::stats::median;
use crate::workload::{fleet_sinks, Driver, Input, JobList, JobResult, FLEET_CORES};

/// Call-level spans kept for the Chrome export; round and job spans come
/// on top, so an export stays under 50 k spans.
const CALL_SPAN_BUDGET: usize = 49_000;

/// Samples of the shared-L3 epoch refresh behind `multicore.epoch_sync_us`.
const SYNC_SAMPLES: usize = 24;

/// Functional isolation replays per substrate; the median is kept.
const FUNCTIONAL_REPEATS: usize = 3;

/// Index of a substrate in [`SubstrateKind::ALL`].
fn kind_index(kind: SubstrateKind) -> usize {
    SubstrateKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

const TC: usize = 0;

/// One recorded host span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// The enclosing span's id.
    pub parent: u32,
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Index of the job (the request) the span belongs to.
    pub req: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Host time and simulated counts summed over every traced round.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Traced rounds summed.
    pub rounds: u64,
    /// Host time inside job spans.
    pub job_ns: u64,
    /// Host time inside job spans spent on measurement only (a second
    /// fleet capture, the split replay's own allocator), not on the job.
    pub measure_ns: u64,
    /// Simulator construction time and count.
    pub construct_ns: u64,
    /// Simulators constructed.
    pub constructs: u64,
    /// Functional TCMalloc time in split replays.
    pub alloc_tc_ns: u64,
    /// Calls in split replays.
    pub alloc_tc_calls: u64,
    /// Driver call time per substrate: `time_malloc/time_free` for
    /// TCMalloc, `AnySim::malloc/free` (functional model included) for the
    /// others.
    pub core_ns: [u64; 4],
    /// Calls per substrate.
    pub core_calls: [u64; 4],
    /// Application-op time (`app_run`, `app_touch`, antagonist, context
    /// switch) and count.
    pub app_ns: u64,
    /// Application ops replayed.
    pub app_ops: u64,
    /// `capture_stream` time (fleet).
    pub capture_ns: u64,
    /// `run_stream_with_sinks` time (fleet).
    pub fleet_run_ns: u64,
    /// Simulated allocator calls.
    pub calls: u64,
    /// Simulated µops, fast-forwarded included.
    pub uops: u64,
    /// Fast-forwarded µops.
    pub ff_uops: u64,
    /// L1 accesses of single-core jobs.
    pub l1_accesses: u64,
    /// L1 misses of single-core jobs.
    pub l1_misses: u64,
    /// Accesses that reached DRAM, single-core jobs.
    pub dram: u64,
    /// Malloc-cache counters, summed.
    pub mc: MallocCacheStats,
    /// Offload requests enqueued.
    pub offload_enqueued: u64,
    /// Enqueues that found the queue full.
    pub offload_full: u64,
    /// Highest queue occupancy seen.
    pub offload_max_occupancy: u64,
    /// Shared-L3 epochs (fleet).
    pub epochs: u64,
    /// L3 accesses committed to the shared master (fleet).
    pub l3_commits: u64,
}

/// Records spans and layer totals during traced rounds.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: u32,
    job: u32,
    job_span: u32,
    /// True while the round whose spans are exported is running.
    recording: bool,
    spans: Vec<Span>,
    calls_recorded: usize,
    /// Totals over every traced round so far.
    pub totals: LayerTotals,
}

impl Recorder {
    /// A recorder whose time origin is now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: 0,
            job: 0,
            job_span: 0,
            recording: false,
            spans: Vec::new(),
            calls_recorded: 0,
            totals: LayerTotals::default(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn push(&mut self, id: u32, parent: u32, name: &'static str, start: u64, end: u64) {
        if self.recording {
            self.spans.push(Span {
                id,
                parent,
                name,
                req: self.job,
                start_ns: start,
                dur_ns: end.saturating_sub(start),
            });
        }
    }

    /// Records a call-level span under the current job, within budget.
    fn call(&mut self, name: &'static str, start: u64, end: u64) {
        if self.recording && self.calls_recorded < CALL_SPAN_BUDGET {
            self.calls_recorded += 1;
            let id = self.open();
            self.push(id, self.job_span, name, start, end);
        }
    }

    /// The spans of the exported round (empty if none was exported).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs one traced round of `list`, recording its spans when `export` is
/// set. Returns each job's result (`None` for a job that panicked).
pub fn traced_round(list: &JobList, rec: &mut Recorder, export: bool) -> Vec<Option<JobResult>> {
    rec.recording = export;
    let round = rec.open();
    let round_start = rec.now();
    let mut results = Vec::with_capacity(list.jobs.len());
    for (i, job) in list.jobs.iter().enumerate() {
        rec.job = i as u32;
        rec.job_span = rec.open();
        let start = rec.now();
        let r = crate::measure::catch(|| match job.driver {
            Driver::TcMalloc(sim) => split_job(list.trace(job), job.mode, sim.plan(), rec),
            Driver::Substrate(SubstrateKind::TcMalloc) => {
                split_job(list.trace(job), job.mode, None, rec)
            }
            Driver::Substrate(kind) => any_job(list.trace(job), kind, job.mode, rec),
            Driver::Fleet => fleet_job(list.fleet_ops(job), job.mode, rec),
        });
        let end = rec.now();
        rec.totals.job_ns += end - start;
        let id = rec.job_span;
        rec.push(id, round, "job", start, end);
        results.push(r);
    }
    let end = rec.now();
    rec.push(round, 0, "round", round_start, end);
    rec.totals.rounds += 1;
    rec.recording = false;
    results
}

/// The split replay, driven by `Trace::replay_on`: the functional allocator
/// and the timing driver are called separately, exactly as
/// `MallocSim::malloc/free` call them, and every call and application op is
/// timed.
struct Split<'r> {
    sim: MallocSim,
    alloc: TcMalloc,
    rec: &'r mut Recorder,
}

fn post_list(alloc: &TcMalloc, cls: Option<ClassId>) -> PostList {
    match cls {
        Some(c) => PostList {
            head: alloc.list_head(c),
            next: alloc.list_next_after_head(c),
        },
        None => PostList::default(),
    }
}

impl SimBackend for Split<'_> {
    fn backend_malloc(&mut self, size: u64) -> (u64, u64) {
        let t0 = self.rec.now();
        let outcome = self.alloc.malloc(size);
        let post = post_list(&self.alloc, outcome.cls);
        let t1 = self.rec.now();
        let r = self.sim.time_malloc(&outcome, post, 0);
        self.rec.split_call(t0, t1, self.rec.now());
        (r.ptr, r.cycles)
    }

    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64 {
        let t0 = self.rec.now();
        let outcome = self.alloc.free(ptr, sized);
        let post = post_list(&self.alloc, outcome.cls);
        let t1 = self.rec.now();
        let r = self.sim.time_free(&outcome, post, 0);
        self.rec.split_call(t0, t1, self.rec.now());
        r.cycles
    }

    fn backend_antagonize(&mut self, fraction: f64) {
        self.rec.app(|| self.sim.antagonize(fraction));
    }

    fn backend_context_switch(&mut self, quantum: u64) {
        self.rec.app(|| self.sim.context_switch(quantum));
    }

    fn backend_app_run(&mut self, cycles: u64) {
        self.rec.app(|| self.sim.app_run(cycles));
    }

    fn backend_app_touch(&mut self, addrs: &[u64]) {
        self.rec.app(|| self.sim.app_touch(addrs));
    }
}

/// A substrate driver, driven by `Trace::replay_on`, with every `AnySim`
/// call and application op timed.
struct AnyTimed<'r> {
    sim: AnySim,
    kind: usize,
    rec: &'r mut Recorder,
}

impl SimBackend for AnyTimed<'_> {
    fn backend_malloc(&mut self, size: u64) -> (u64, u64) {
        let t0 = self.rec.now();
        let r = self.sim.backend_malloc(size);
        self.rec.driver_call(self.kind, t0, self.rec.now());
        r
    }

    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64 {
        let t0 = self.rec.now();
        let cycles = self.sim.backend_free(ptr, sized);
        self.rec.driver_call(self.kind, t0, self.rec.now());
        cycles
    }

    fn backend_antagonize(&mut self, fraction: f64) {
        self.rec.app(|| self.sim.backend_antagonize(fraction));
    }

    fn backend_context_switch(&mut self, quantum: u64) {
        self.rec.app(|| self.sim.backend_context_switch(quantum));
    }

    fn backend_app_run(&mut self, cycles: u64) {
        self.rec.app(|| self.sim.backend_app_run(cycles));
    }

    fn backend_app_touch(&mut self, addrs: &[u64]) {
        self.rec.app(|| self.sim.backend_app_touch(addrs));
    }
}

impl Recorder {
    fn split_call(&mut self, t0: u64, t1: u64, t2: u64) {
        self.totals.alloc_tc_ns += t1 - t0;
        self.totals.alloc_tc_calls += 1;
        self.call("alloc.tcmalloc", t0, t1);
        self.driver_call(TC, t1, t2);
    }

    fn driver_call(&mut self, kind: usize, t0: u64, t1: u64) {
        self.totals.core_ns[kind] += t1 - t0;
        self.totals.core_calls[kind] += 1;
        const NAMES: [&str; 4] = [
            "core.tcmalloc",
            "core.jemalloc",
            "core.rpmalloc",
            "core.percpu",
        ];
        self.call(NAMES[kind], t0, t1);
    }

    /// Runs one application op, timed.
    fn app(&mut self, op: impl FnOnce()) {
        let t0 = self.now();
        op();
        let t1 = self.now();
        self.totals.app_ns += t1 - t0;
        self.totals.app_ops += 1;
        self.call("core.app", t0, t1);
    }

    fn construct(&mut self, t0: u64) {
        let t1 = self.now();
        self.totals.construct_ns += t1 - t0;
        self.totals.constructs += 1;
        self.call("core.construct", t0, t1);
    }

    fn measure_only(&mut self, t0: u64) {
        self.totals.measure_ns += self.now() - t0;
    }

    /// Adds one finished single-core simulator's counts.
    fn single_core(&mut self, engine: &Engine, mc: MallocCacheStats, r: &JobResult) {
        let t = &mut self.totals;
        let (l1, _, _) = engine.mem().stats();
        t.calls += r.calls;
        t.uops += r.uops;
        t.ff_uops += engine.sampling_report().map_or(0, |s| s.ff_uops);
        t.l1_accesses += l1.hits + l1.misses;
        t.l1_misses += l1.misses;
        t.dram += engine.mem().memory_accesses();
        add_mc(&mut t.mc, mc);
    }
}

fn add_mc(into: &mut MallocCacheStats, s: MallocCacheStats) {
    into.lookup_hits += s.lookup_hits;
    into.lookup_misses += s.lookup_misses;
    into.pop_hits += s.pop_hits;
    into.pop_misses += s.pop_misses;
}

/// The application working set's base address, as `Trace::replay` uses it.
const APP_BASE: u64 = 0x7000_0000;

fn split_job(
    trace: &Trace,
    mode: Mode,
    plan: Option<SamplingPlan>,
    rec: &mut Recorder,
) -> JobResult {
    let t0 = rec.now();
    let mut sim = MallocSim::new(mode);
    sim.set_sampling(plan);
    rec.construct(t0);
    // `MallocSim::new` builds its own allocator; this second one is the
    // split replay's and costs the job nothing.
    let t0 = rec.now();
    let alloc = TcMalloc::new(TcMallocConfig::default());
    rec.measure_only(t0);
    let mut split = Split { sim, alloc, rec };
    trace.replay_on(&mut split);
    let sim = split.sim;
    let r = JobResult::of_tcmalloc(&sim);
    rec.single_core(sim.engine(), sim.malloc_cache().stats(), &r);
    r
}

fn any_mc(sim: &AnySim) -> MallocCacheStats {
    match sim {
        AnySim::TcMalloc(s) => s.malloc_cache().stats(),
        AnySim::JeMalloc(s) => s.malloc_cache().stats(),
        AnySim::Rpmalloc(s) => s.malloc_cache().stats(),
        AnySim::PerCpu(s) => s.malloc_cache().stats(),
    }
}

fn any_job(trace: &Trace, kind: SubstrateKind, mode: Mode, rec: &mut Recorder) -> JobResult {
    let t0 = rec.now();
    let sim = AnySim::new(kind, mode);
    rec.construct(t0);
    let mut timed = AnyTimed {
        sim,
        kind: kind_index(kind),
        rec,
    };
    trace.replay_on(&mut timed);
    let sim = timed.sim;
    let r = JobResult::of_substrate(&sim);
    rec.single_core(sim.engine(), any_mc(&sim), &r);
    if let Some(q) = sim.offload_stats() {
        let t = &mut rec.totals;
        t.offload_enqueued += q.enqueued;
        t.offload_full += q.queue_full_stalls;
        t.offload_max_occupancy = t.offload_max_occupancy.max(q.max_occupancy as u64);
    }
    r
}

fn fleet_job(ops: &[(usize, MtOp)], mode: Mode, rec: &mut Recorder) -> JobResult {
    // The capture inside `run_stream_with_sinks` cannot be timed from
    // outside, so the same capture is run once more on its own.
    let t0 = rec.now();
    drop(capture_stream(
        FLEET_CORES,
        ops.iter().copied(),
        TcMallocConfig::default(),
    ));
    let t1 = rec.now();
    rec.totals.capture_ns += t1 - t0;
    rec.measure_only(t0);
    rec.call("multicore.capture", t0, t1);
    let sim = MulticoreSim::new(mode, FLEET_CORES);
    let (res, sinks) = sim.run_stream_with_sinks(ops.iter().copied(), fleet_sinks());
    let t2 = rec.now();
    rec.totals.fleet_run_ns += t2 - t1;
    rec.call("multicore.run", t1, t2);
    let r = JobResult::of_fleet(&res, sinks);
    let t = &mut rec.totals;
    t.calls += r.calls;
    t.uops += r.uops;
    t.epochs += res.epochs;
    t.l3_commits += res.shared_l3_accesses;
    for c in &res.per_core {
        add_mc(&mut t.mc, c.mc);
    }
    r
}

// ---------------------------------------------------------------------
// Isolation replays
// ---------------------------------------------------------------------

/// One allocator call of an input, with frees naming the malloc they
/// release by its ordinal.
#[derive(Debug, Clone, Copy)]
enum Call {
    Malloc(u64),
    Free(usize, bool),
}

/// Logs the allocator calls of a replay, handing out each malloc's ordinal
/// as its pointer; application ops are dropped.
#[derive(Debug, Default)]
struct CallLog {
    calls: Vec<Call>,
    mallocs: u64,
}

impl SimBackend for CallLog {
    fn backend_malloc(&mut self, size: u64) -> (u64, u64) {
        self.calls.push(Call::Malloc(size));
        self.mallocs += 1;
        (self.mallocs - 1, 0)
    }

    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64 {
        self.calls.push(Call::Free(ptr as usize, sized));
        0
    }

    fn backend_antagonize(&mut self, _fraction: f64) {}

    fn backend_context_switch(&mut self, _quantum: u64) {}

    fn backend_app_run(&mut self, _cycles: u64) {}

    fn backend_app_touch(&mut self, _addrs: &[u64]) {}
}

/// The malloc/free sequence of an input, without application ops.
fn calls_of(input: &Input) -> Vec<Call> {
    let mut log = CallLog::default();
    match input {
        Input::Trace(trace) => {
            trace.replay_on(&mut log);
        }
        Input::Fleet(ops) => {
            let mut live = std::collections::HashMap::new();
            for &(_, op) in ops {
                match op {
                    MtOp::Malloc { size, token } => {
                        live.insert(token, log.backend_malloc(size).0);
                    }
                    MtOp::Free { token, sized } => {
                        let ord = live.remove(&token).expect("fleet streams free live tokens");
                        log.backend_free(ord, sized);
                    }
                    _ => {}
                }
            }
        }
    }
    log.calls
}

/// Replays `calls` on a functional allocator; returns the slow-path count.
fn replay_functional(calls: &[Call], a: &mut AnyAllocator) -> u64 {
    let mut ptrs = Vec::with_capacity(calls.len());
    let mut slow = 0;
    for &c in calls {
        match c {
            Call::Malloc(size) => {
                let g = a.alloc(size);
                slow += u64::from(!g.fast);
                ptrs.push(g.ptr);
            }
            Call::Free(ord, sized) => slow += u64::from(!a.dealloc(ptrs[ord], sized).fast),
        }
    }
    slow
}

/// Replays `calls` on a timing driver.
fn replay_driver(calls: &[Call], sim: &mut AnySim) {
    let mut ptrs = Vec::with_capacity(calls.len());
    for &c in calls {
        match c {
            Call::Malloc(size) => ptrs.push(sim.malloc(size).0),
            Call::Free(ord, sized) => {
                sim.free(ptrs[ord], sized);
            }
        }
    }
}

/// Records every retired µop's kind.
#[derive(Debug, Default)]
struct KindRecorder(Vec<OpKind>);

impl TraceSink for KindRecorder {
    fn on_retire(&mut self, event: &UopEvent) {
        self.0.push(event.kind);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

fn take_kinds(sink: Box<dyn TraceSink>) -> Vec<OpKind> {
    sink.into_any()
        .downcast::<KindRecorder>()
        .expect("kind recorder")
        .0
}

/// Engine and cache isolation timings of one recorded µop stream.
#[derive(Debug, Default, Clone, Copy)]
struct EngineSample {
    engine_ns: f64,
    cache_ns: f64,
    uops: u64,
    accesses: u64,
}

impl EngineSample {
    fn add(&mut self, o: EngineSample) {
        self.engine_ns += o.engine_ns;
        self.cache_ns += o.cache_ns;
        self.uops += o.uops;
        self.accesses += o.accesses;
    }
}

/// µops built per timed batch of the engine isolation replay: small
/// enough to stay in the host's caches, as µops the driver pushes right
/// after building them do.
const ENGINE_BATCH: usize = 4096;

/// Pushes a recorded µop stream through a fresh engine under `plan`, then
/// its memory addresses through a fresh hierarchy. As in the repository's
/// engine-throughput fixture, each µop depends on the previous result, so
/// the stream keeps the recorded kinds and addresses but not the driver's
/// exact dataflow.
fn time_engine(kinds: &[OpKind], plan: Option<SamplingPlan>) -> EngineSample {
    let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
    cpu.set_sampling(plan);
    let mut prev = cpu.alloc_reg();
    let mut engine_ns = 0.0;
    let mut uops = Vec::with_capacity(ENGINE_BATCH);
    for batch in kinds.chunks(ENGINE_BATCH) {
        for &kind in batch {
            let d = cpu.alloc_reg();
            let uop = match kind {
                OpKind::Alu { latency } => Uop::alu(latency.max(1), Some(d), &[prev]),
                OpKind::Load { addr } => Uop::load(addr, d, &[prev]),
                OpKind::Store { addr } => Uop::store(addr, &[prev]),
                OpKind::Prefetch { addr } => Uop::prefetch(addr, &[prev]),
                OpKind::Branch { mispredicted, .. } => Uop::branch(mispredicted, &[prev]),
            };
            if uop.dst.is_some() {
                prev = d;
            }
            uops.push(uop);
        }
        let t = Instant::now();
        for uop in uops.drain(..) {
            std::hint::black_box(cpu.push(uop));
        }
        engine_ns += t.elapsed().as_nanos() as f64;
    }

    let mut mem = Hierarchy::default();
    let mut accesses = 0;
    let t = Instant::now();
    for &kind in kinds {
        let (addr, how) = match kind {
            OpKind::Load { addr } => (addr, AccessKind::Read),
            OpKind::Store { addr } => (addr, AccessKind::Write),
            OpKind::Prefetch { addr } => (addr, AccessKind::Prefetch),
            _ => continue,
        };
        std::hint::black_box(mem.access(addr, how));
        accesses += 1;
    }
    EngineSample {
        engine_ns,
        cache_ns: t.elapsed().as_nanos() as f64,
        uops: kinds.len() as u64,
        accesses,
    }
}

/// The fleet workload's per-core driver replay, run serially.
#[derive(Debug, Default, Clone, Copy)]
struct FleetSerial {
    driver_ns: f64,
    driver_calls: u64,
    app_ns: f64,
    app_ops: u64,
    construct_ns: f64,
    constructs: u64,
    uops: u64,
    l1_accesses: u64,
    l1_misses: u64,
    dram: u64,
}

/// Replays every fleet job's captured per-core streams on private
/// single-core drivers, one after another and with no shared L3: the
/// driver, engine and cache work the replay threads do, without their
/// synchronisation.
fn fleet_serial(list: &JobList) -> FleetSerial {
    let mut f = FleetSerial::default();
    for job in &list.jobs {
        let cap = capture_stream(
            FLEET_CORES,
            list.fleet_ops(job).iter().copied(),
            TcMallocConfig::default(),
        );
        for (core, stream) in cap.streams.iter().enumerate() {
            let t = Instant::now();
            let mut sim = MallocSim::new(job.mode);
            f.construct_ns += t.elapsed().as_nanos() as f64;
            f.constructs += 1;
            let base = APP_BASE + core as u64 * 0x1000_0000;
            let mut cursor = 0u64;
            for ev in stream {
                let t = Instant::now();
                match ev {
                    CoreEvent::Malloc {
                        outcome,
                        post,
                        contention,
                    } => {
                        sim.time_malloc(outcome, *post, *contention);
                        f.driver_ns += t.elapsed().as_nanos() as f64;
                        f.driver_calls += 1;
                    }
                    CoreEvent::Free {
                        outcome,
                        post,
                        contention,
                    } => {
                        sim.time_free(outcome, *post, *contention);
                        f.driver_ns += t.elapsed().as_nanos() as f64;
                        f.driver_calls += 1;
                    }
                    CoreEvent::AppRun { cycles } => {
                        sim.app_run(*cycles);
                        f.app_ns += t.elapsed().as_nanos() as f64;
                        f.app_ops += 1;
                    }
                    CoreEvent::AppTouch {
                        lines,
                        working_set_lines,
                    } => {
                        let ws = u64::from(*working_set_lines).max(1);
                        let addrs: Vec<u64> = (0..u64::from(*lines))
                            .map(|i| base + ((cursor + i) % ws) * 64)
                            .collect();
                        cursor = (cursor + u64::from(*lines)) % ws;
                        let t = Instant::now();
                        sim.app_touch(&addrs);
                        f.app_ns += t.elapsed().as_nanos() as f64;
                        f.app_ops += 1;
                    }
                    CoreEvent::McInvalidate { cls } => sim.invalidate_mc_list(*cls),
                }
            }
            let (l1, _, _) = sim.memory().stats();
            f.uops += sim.engine().stats().uops;
            f.l1_accesses += l1.hits + l1.misses;
            f.l1_misses += l1.misses;
            f.dram += sim.memory().memory_accesses();
        }
    }
    f
}

/// Per-unit host costs measured once per traced run by isolation replays.
#[derive(Debug, Clone, Default)]
pub struct Estimates {
    /// Functional allocator ns per call, per substrate.
    alloc_ns: [f64; 4],
    /// Slow-path share of the calls on the substrates the jobs use.
    slow_frac: f64,
    /// `AnySim` ns per call (driver, engine, cache and functional model)
    /// for substrates the workload's own jobs do not drive.
    driver_ns: [Option<f64>; 4],
    engine: EngineSample,
    epoch_sync_us: f64,
    fleet: Option<FleetSerial>,
}

/// Which substrates the workload's jobs drive.
fn substrates_used(list: &JobList) -> [bool; 4] {
    let mut used = [false; 4];
    for job in &list.jobs {
        match job.driver {
            Driver::TcMalloc(_) | Driver::Fleet => used[TC] = true,
            Driver::Substrate(k) => used[kind_index(k)] = true,
        }
    }
    used
}

/// Runs the isolation replays for `list`.
pub fn estimates(list: &JobList) -> Estimates {
    let calls: Vec<Vec<Call>> = list.inputs.iter().map(calls_of).collect();
    let total_calls: usize = calls.iter().map(Vec::len).sum();
    let used = substrates_used(list);

    let mut alloc_ns = [0.0; 4];
    let (mut slow, mut slow_of) = (0u64, 0u64);
    for (k, kind) in SubstrateKind::ALL.into_iter().enumerate() {
        let mut samples = Vec::new();
        for _ in 0..FUNCTIONAL_REPEATS {
            let t = Instant::now();
            let mut s = 0;
            for c in &calls {
                s += replay_functional(c, &mut AnyAllocator::new(kind));
            }
            samples.push(t.elapsed().as_nanos() as f64);
            if used[k] && samples.len() == 1 {
                slow += s;
                slow_of += total_calls as u64;
            }
        }
        alloc_ns[k] = median(&samples) / total_calls.max(1) as f64;
    }

    let mut driver_ns = [None; 4];
    for (k, kind) in SubstrateKind::ALL.into_iter().enumerate() {
        if used[k] {
            continue;
        }
        let t = Instant::now();
        for c in &calls {
            replay_driver(c, &mut AnySim::new(kind, Mode::Baseline));
        }
        driver_ns[k] = Some(t.elapsed().as_nanos() as f64 / total_calls.max(1) as f64);
    }

    let mut engine = EngineSample::default();
    for job in &list.jobs {
        match job.driver {
            Driver::TcMalloc(_) | Driver::Substrate(SubstrateKind::TcMalloc) => {
                let plan = match job.driver {
                    Driver::TcMalloc(sim) => sim.plan(),
                    _ => None,
                };
                let mut sim = MallocSim::new(job.mode);
                sim.attach_tracer(Box::new(KindRecorder::default()));
                list.trace(job).replay(&mut sim);
                let kinds = take_kinds(sim.detach_tracer().expect("recorder attached"));
                engine.add(time_engine(&kinds, plan));
            }
            Driver::Substrate(_) => {}
            Driver::Fleet => {
                let sinks = (0..FLEET_CORES)
                    .map(|_| Box::new(KindRecorder::default()) as Box<dyn TraceSink>)
                    .collect();
                let (_, sinks) = MulticoreSim::new(job.mode, FLEET_CORES)
                    .run_stream_with_sinks(list.fleet_ops(job).iter().copied(), sinks);
                for sink in sinks {
                    engine.add(time_engine(&take_kinds(sink), None));
                }
            }
        }
    }

    let is_fleet = list.jobs.iter().any(|j| matches!(j.driver, Driver::Fleet));
    Estimates {
        alloc_ns,
        slow_frac: slow as f64 / slow_of.max(1) as f64,
        driver_ns,
        engine,
        epoch_sync_us: epoch_sync_us(),
        fleet: is_fleet.then(|| fleet_serial(list)),
    }
}

/// Median host time of one shared-L3 epoch refresh of one core:
/// `SharedL3::snapshot` plus `Hierarchy::install_l3`.
fn epoch_sync_us() -> f64 {
    let mut mem = Hierarchy::default();
    let shared = SharedL3::new(mem.config().l3);
    let samples: Vec<f64> = (0..SYNC_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            mem.install_l3(shared.snapshot());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

/// Every per-layer metric the traced pass reports, in report order: name,
/// unit, the end-to-end metric it should move, the workload where that
/// shows, and a workload that bypasses the mechanism (where the prediction
/// is no change). `check` requires a row, with the same unit, for every
/// per-layer metric in `BENCHMARK.json`.
pub const LAYER_METRICS: &[(&str, &str, &str, &str, &str)] = &[
    (
        "workloads.gen_s",
        "s",
        "setup_s",
        "paper-macro",
        "fleet-2core",
    ),
    (
        "workloads.ops",
        "count",
        "setup_s",
        "paper-macro",
        "fleet-2core",
    ),
    (
        "fleet.requests",
        "count",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "fleet.stream_s",
        "s",
        "setup_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "alloc.tcmalloc.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "alloc.jemalloc.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "alloc.rpmalloc.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "alloc.percpu.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "alloc.slow_frac",
        "fraction",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "core.tcmalloc.ns_per_call",
        "ns",
        "calls_per_s",
        "paper-macro",
        "fleet-2core",
    ),
    (
        "core.jemalloc.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "core.rpmalloc.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "core.percpu.ns_per_call",
        "ns",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "core.construct_ms",
        "ms",
        "round_s_p75",
        "substrate-micro",
        "fleet-2core",
    ),
    (
        "core.app_ns_per_op",
        "ns",
        "calls_per_s",
        "paper-macro",
        "substrate-micro",
    ),
    (
        "core.uops_per_call",
        "count",
        "uops_per_s",
        "paper-macro",
        "substrate-micro",
    ),
    (
        "core.mc_lookup_hit_frac",
        "fraction",
        "mallacc_gain_pct",
        "paper-macro",
        "sampled-macro",
    ),
    (
        "core.mc_pop_hit_frac",
        "fraction",
        "mallacc_gain_pct",
        "paper-macro",
        "sampled-macro",
    ),
    (
        "ooo.ns_per_uop",
        "ns",
        "uops_per_s",
        "paper-macro",
        "sampled-macro",
    ),
    (
        "ooo.detailed_frac",
        "fraction",
        "uops_per_s",
        "sampled-macro",
        "paper-macro",
    ),
    (
        "cache.ns_per_access",
        "ns",
        "uops_per_s",
        "sampled-macro",
        "substrate-micro",
    ),
    (
        "cache.accesses_per_call",
        "count",
        "uops_per_s",
        "paper-macro",
        "substrate-micro",
    ),
    (
        "cache.l1_miss_frac",
        "fraction",
        "uops_per_s",
        "paper-macro",
        "substrate-micro",
    ),
    (
        "cache.dram_frac",
        "fraction",
        "uops_per_s",
        "paper-macro",
        "substrate-micro",
    ),
    (
        "multicore.capture_s",
        "s",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.replay_s",
        "s",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.capture_frac",
        "fraction",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.replay_frac",
        "fraction",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.epochs",
        "count",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.epoch_sync_us",
        "us",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.epoch_sync_share",
        "fraction",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "multicore.l3_commits",
        "count",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "offload.queue_full_frac",
        "fraction",
        "sim_cycles_per_call",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "offload.max_occupancy",
        "count",
        "sim_cycles_per_call",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "share.workloads",
        "fraction",
        "setup_s",
        "paper-macro",
        "fleet-2core",
    ),
    (
        "share.alloc",
        "fraction",
        "calls_per_s",
        "substrate-micro",
        "paper-macro",
    ),
    (
        "share.core_self",
        "fraction",
        "calls_per_s",
        "substrate-micro",
        "fleet-2core",
    ),
    (
        "share.ooo_self",
        "fraction",
        "uops_per_s",
        "paper-macro",
        "sampled-macro",
    ),
    (
        "share.cache",
        "fraction",
        "uops_per_s",
        "sampled-macro",
        "substrate-micro",
    ),
    (
        "share.multicore_sync",
        "fraction",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "share.unattributed",
        "fraction",
        "calls_per_s",
        "fleet-2core",
        "paper-macro",
    ),
    (
        "trace.overhead_frac",
        "fraction",
        "round_s_p75",
        "substrate-micro",
        "fleet-2core",
    ),
];

fn layer_unit(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("{name} has no LAYER_METRICS row"))
}

/// Everything the per-layer report needs besides the traced totals.
#[derive(Debug, Clone, Copy)]
pub struct RunContext {
    /// Median input-generation time of one set-up, seconds.
    pub gen_s: f64,
    /// Median untraced round, seconds.
    pub untraced_s: f64,
    /// Median traced round, seconds.
    pub traced_s: f64,
    /// Requests per round (fleet), else 0.
    pub requests: u64,
}

/// Derives every per-layer metric of one workload, in [`LAYER_METRICS`]
/// order; the sample count is left for the caller.
pub fn layer_metrics(
    list: &JobList,
    t: &LayerTotals,
    est: &Estimates,
    ctx: RunContext,
) -> Vec<Metric> {
    let rounds = t.rounds.max(1) as f64;
    let per = |x: u64| x as f64 / rounds;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let fleet = est.fleet;
    let is_fleet = fleet.is_some();
    let calls = per(t.calls);
    let ooo_self_ns = ratio(
        (est.engine.engine_ns - est.engine.cache_ns).max(0.0),
        est.engine.uops as f64,
    );
    let cache_ns = ratio(est.engine.cache_ns, est.engine.accesses as f64);

    let mut m = Vec::new();
    let mut push = |name: &'static str, value: f64, estimated: bool| {
        m.push(Metric {
            name,
            unit: layer_unit(name),
            value,
            n: 0,
            estimated,
        })
    };

    push("workloads.gen_s", ctx.gen_s, false);
    push("workloads.ops", list.ops() as f64, false);
    push("fleet.requests", ctx.requests as f64, false);
    push(
        "fleet.stream_s",
        if is_fleet { ctx.gen_s } else { 0.0 },
        false,
    );

    const ALLOC: [&str; 4] = [
        "alloc.tcmalloc.ns_per_call",
        "alloc.jemalloc.ns_per_call",
        "alloc.rpmalloc.ns_per_call",
        "alloc.percpu.ns_per_call",
    ];
    const CORE: [&str; 4] = [
        "core.tcmalloc.ns_per_call",
        "core.jemalloc.ns_per_call",
        "core.rpmalloc.ns_per_call",
        "core.percpu.ns_per_call",
    ];
    for (k, name) in ALLOC.into_iter().enumerate() {
        if k == TC && t.alloc_tc_calls > 0 {
            push(
                name,
                ratio(t.alloc_tc_ns as f64, t.alloc_tc_calls as f64),
                false,
            );
        } else {
            push(name, est.alloc_ns[k], true);
        }
    }
    push("alloc.slow_frac", est.slow_frac, true);
    for (k, name) in CORE.into_iter().enumerate() {
        let (value, estimated) = if t.core_calls[k] > 0 {
            // Substrate drivers are timed with their functional model
            // inside; take the isolated functional cost back out.
            let functional = if k == TC { 0.0 } else { est.alloc_ns[k] };
            let spanned = ratio(t.core_ns[k] as f64, t.core_calls[k] as f64);
            (spanned - functional, k != TC)
        } else if let (TC, Some(f)) = (k, fleet) {
            (ratio(f.driver_ns, f.driver_calls as f64), true)
        } else {
            (est.driver_ns[k].unwrap_or(0.0) - est.alloc_ns[k], true)
        };
        push(name, value, estimated);
    }
    let (construct_ms, app_ns) = match fleet {
        Some(f) => (
            ratio(f.construct_ns, f.constructs as f64) / 1e6,
            ratio(f.app_ns, f.app_ops as f64),
        ),
        None => (
            ratio(t.construct_ns as f64, t.constructs as f64) / 1e6,
            ratio(t.app_ns as f64, t.app_ops as f64),
        ),
    };
    push("core.construct_ms", construct_ms, is_fleet);
    push("core.app_ns_per_op", app_ns, is_fleet);
    push(
        "core.uops_per_call",
        ratio(t.uops as f64, t.calls as f64),
        false,
    );
    let mc = t.mc;
    let lookups = (mc.lookup_hits + mc.lookup_misses) as f64;
    push(
        "core.mc_lookup_hit_frac",
        ratio(mc.lookup_hits as f64, lookups),
        false,
    );
    let pops = (mc.pop_hits + mc.pop_misses) as f64;
    push(
        "core.mc_pop_hit_frac",
        ratio(mc.pop_hits as f64, pops),
        false,
    );

    push(
        "ooo.ns_per_uop",
        ratio(est.engine.engine_ns, est.engine.uops as f64),
        true,
    );
    push(
        "ooo.detailed_frac",
        1.0 - ratio(t.ff_uops as f64, t.uops as f64),
        false,
    );
    let (l1, l1_miss, dram) = match fleet {
        Some(f) => (f.l1_accesses as f64, f.l1_misses as f64, f.dram as f64),
        None => (per(t.l1_accesses), per(t.l1_misses), per(t.dram)),
    };
    push("cache.ns_per_access", cache_ns, true);
    push("cache.accesses_per_call", ratio(l1, calls), is_fleet);
    push("cache.l1_miss_frac", ratio(l1_miss, l1), is_fleet);
    push("cache.dram_frac", ratio(dram, l1), is_fleet);

    // The layer rollup, over one set-up plus one round of the job list.
    // Rounds run pinned to one host CPU, so the fleet replay threads take
    // turns on it and their serial isolation cost adds up as measured.
    let gen_ns = ctx.gen_s * 1e9;
    let total_ns = gen_ns + per(t.job_ns.saturating_sub(t.measure_ns));
    let capture_ns = per(t.capture_ns);
    let replay_ns = (per(t.fleet_run_ns) - capture_ns).max(0.0);
    let epochs = per(t.epochs);
    let sync_ns = epochs * FLEET_CORES as f64 * est.epoch_sync_us * 1e3;
    let (alloc, driver, uops, accesses) = match fleet {
        Some(f) => (
            calls * est.alloc_ns[TC],
            f.driver_ns + f.app_ns + f.construct_ns,
            f.uops as f64,
            f.l1_accesses as f64,
        ),
        None => {
            let mut alloc = per(t.alloc_tc_ns);
            let mut driver = per(t.core_ns[TC] + t.app_ns + t.construct_ns);
            for k in 1..4 {
                let functional = per(t.core_calls[k]) * est.alloc_ns[k];
                alloc += functional;
                driver += per(t.core_ns[k]) - functional;
            }
            (alloc, driver, per(t.uops), per(t.l1_accesses))
        }
    };
    // The engine and the hierarchy run inside driver calls: when their
    // isolation estimates exceed the measured driver time, scale them to
    // fit inside it.
    let driver = driver.max(0.0);
    let mut ooo = uops * ooo_self_ns;
    let mut cache = accesses * cache_ns;
    if ooo + cache > driver {
        let fit = driver / (ooo + cache);
        ooo *= fit;
        cache *= fit;
    }
    let core_self = driver - ooo - cache;
    let mut parts = [gen_ns, alloc, core_self, ooo, cache, sync_ns];
    let attributed: f64 = parts.iter().sum();
    if attributed > total_ns {
        // Estimates overshoot the measured time: scale them to fit.
        for p in &mut parts {
            *p *= total_ns / attributed;
        }
    }
    let unattributed = (total_ns - parts.iter().sum::<f64>()).max(0.0);

    push("multicore.capture_s", capture_ns / 1e9, false);
    push("multicore.replay_s", replay_ns / 1e9, false);
    push("multicore.capture_frac", ratio(capture_ns, total_ns), false);
    push("multicore.replay_frac", ratio(replay_ns, total_ns), false);
    push("multicore.epochs", epochs, false);
    push("multicore.epoch_sync_us", est.epoch_sync_us, true);
    push(
        "multicore.epoch_sync_share",
        ratio(sync_ns, replay_ns),
        true,
    );
    push("multicore.l3_commits", per(t.l3_commits), false);
    push(
        "offload.queue_full_frac",
        ratio(t.offload_full as f64, t.offload_enqueued as f64),
        false,
    );
    push(
        "offload.max_occupancy",
        t.offload_max_occupancy as f64,
        false,
    );
    const SHARES: [&str; 6] = [
        "share.workloads",
        "share.alloc",
        "share.core_self",
        "share.ooo_self",
        "share.cache",
        "share.multicore_sync",
    ];
    for (i, name) in SHARES.into_iter().enumerate() {
        push(name, ratio(parts[i], total_ns), i != 0);
    }
    push("share.unattributed", ratio(unattributed, total_ns), true);
    push(
        "trace.overhead_frac",
        ratio(ctx.traced_s, ctx.untraced_s) - 1.0,
        false,
    );
    m
}

/// The recorded spans as a Chrome trace-event document: one `X` event per
/// span on one thread, with the span id, its parent and its job (request)
/// id in `args`.
pub fn chrome_trace(spans: &[Span], labels: &[String]) -> Json {
    let num = |v: f64| Json::Num(v);
    let mut events = vec![Json::obj([
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("ts", num(0.0)),
        ("pid", num(0.0)),
        ("tid", num(0.0)),
        ("args", Json::obj([("name", Json::from("benchmark host"))])),
    ])];
    for s in spans {
        let mut args = vec![
            ("id", num(f64::from(s.id))),
            ("parent", num(f64::from(s.parent))),
            ("req", num(f64::from(s.req))),
        ];
        if let Some(label) = labels.get(s.req as usize) {
            args.push(("job", Json::from(label.as_str())));
        }
        events.push(Json::obj([
            ("name", Json::from(s.name)),
            ("ph", Json::from("X")),
            ("ts", num(s.start_ns as f64 / 1e3)),
            ("dur", num(s.dur_ns as f64 / 1e3)),
            ("pid", num(0.0)),
            ("tid", num(0.0)),
            ("args", Json::obj(args)),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ns")),
        (
            "otherData",
            Json::obj([
                ("generator", Json::from("mallacc benchmark trace")),
                ("timeUnit", Json::from("host microsecond")),
            ]),
        ),
    ])
}
