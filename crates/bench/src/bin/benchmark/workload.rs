//! The four benchmark workloads: how their inputs are generated from the
//! seed, the fixed job list each round runs, and the simulated result of
//! every job.
//!
//! A round runs its workload's job list back to back, one fresh simulator
//! per job, the way `repro` runs an experiment. Inputs (traces and fleet op
//! streams) are generated once per set-up and shared by every job and round
//! that replays them, so a round times the simulator alone.

use std::any::Any;

use mallacc::{MallocSim, Mode, OpMeta, SimMode, TraceSink, UopEvent};
use mallacc_fleet::Scenario;
use mallacc_multicore::{CallLatencySink, MulticoreSim};
use mallacc_substrate::{AnySim, SubstrateKind};
use mallacc_workloads::{MacroWorkload, Microbenchmark, MtOp, Trace};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight Figure-13 macro traces × {baseline, mallacc}, full detail.
    PaperMacro,
    /// The same sixteen jobs under the default sampling plan.
    SampledMacro,
    /// Three back-to-back micros × four substrates × four accel modes.
    SubstrateMicro,
    /// Three fleet scenarios × {baseline, mallacc} on two simulated cores.
    Fleet2Core,
}

impl Workload {
    /// Every workload, in the order rounds rotate through them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMacro,
        Workload::SampledMacro,
        Workload::SubstrateMicro,
        Workload::Fleet2Core,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMacro => "paper-macro",
            Workload::SampledMacro => "sampled-macro",
            Workload::SubstrateMicro => "substrate-micro",
            Workload::Fleet2Core => "fleet-2core",
        }
    }

    /// Parses a workload name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds of a median timed round at full size on the
    /// calibration host under other tenants' load (see `README.md`). It
    /// only turns `--seconds` into a fixed round count; nothing is
    /// measured against it.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::PaperMacro => 0.45,
            Workload::SampledMacro => 0.33,
            Workload::SubstrateMicro => 0.30,
            Workload::Fleet2Core => 0.42,
        }
    }

    /// The timing fidelity every single-core job of this workload runs at.
    pub fn sim_mode(self) -> SimMode {
        match self {
            Workload::SampledMacro => SimMode::sampled_default(),
            _ => SimMode::Full,
        }
    }
}

/// The micros of `substrate-micro`: a 4-class strided fast path, a
/// Gaussian mix with random frees, and sized deletes over 8 classes.
const MICROS: [Microbenchmark; 3] = [
    Microbenchmark::TpSmall,
    Microbenchmark::GaussFree,
    Microbenchmark::SizedDeletes,
];

/// The fleet scenarios of `fleet-2core`.
const SCENARIOS: [&str; 3] = ["rpc-fanout", "tenant-mix", "diurnal-burst"];

/// Simulated cores of `fleet-2core`.
pub const FLEET_CORES: usize = 2;

/// How much each job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// mallocs per macro trace.
    pub macro_mallocs: usize,
    /// mallocs per micro trace.
    pub micro_mallocs: usize,
    /// Strong-scaling requests per fleet scenario.
    pub fleet_requests: u64,
}

impl Size {
    /// The size every committed number is measured at.
    pub const FULL: Size = Size {
        macro_mallocs: 4_000,
        micro_mallocs: 6_000,
        fleet_requests: 1_024,
    };

    /// A few milliseconds per round, for unit tests.
    pub const TINY: Size = Size {
        macro_mallocs: 150,
        micro_mallocs: 200,
        fleet_requests: 16,
    };
}

/// One generated input, replayed by one or more jobs.
#[derive(Debug)]
pub enum Input {
    /// A single-core allocator trace.
    Trace(Trace),
    /// A globally interleaved `(core, op)` fleet stream.
    Fleet(Vec<(usize, MtOp)>),
}

/// Which simulator a job drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Driver {
    /// `MallocSim` through `Trace::replay`, at the given fidelity.
    TcMalloc(SimMode),
    /// `AnySim` through `Trace::replay_on`.
    Substrate(SubstrateKind),
    /// `MulticoreSim::run_stream_with_sinks` with per-core latency sinks.
    Fleet,
}

/// One job of a round: a fresh simulator replaying one input.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into [`JobList::inputs`].
    pub input: usize,
    /// The simulator it drives.
    pub driver: Driver,
    /// The accelerator mode.
    pub mode: Mode,
    /// `input/variant`, for reports and spans.
    pub label: String,
}

/// A workload's generated inputs and its fixed job list.
#[derive(Debug)]
pub struct JobList {
    /// The size the inputs were generated at.
    pub size: Size,
    /// Generated inputs, by index.
    pub inputs: Vec<Input>,
    /// Input names, parallel to `inputs`.
    pub input_names: Vec<&'static str>,
    /// Jobs in round order.
    pub jobs: Vec<Job>,
}

/// The generator seed of one input: distinct per input for any base seed.
fn input_seed(seed: u64, name: &str) -> u64 {
    seed ^ Digest::new().bytes(name.as_bytes()).value()
}

fn accel_label(mode: Mode) -> &'static str {
    match mode {
        Mode::Baseline => "baseline",
        Mode::Mallacc(_) => "mallacc",
        Mode::Offload(cfg) if cfg.helper_mallacc => "both",
        Mode::Offload(_) => "offload",
        Mode::Limit(_) => "limit",
    }
}

impl JobList {
    /// Generates `workload`'s inputs from `seed` and lays out its jobs.
    ///
    /// # Panics
    ///
    /// Panics if a fleet stream fails its request-conservation check.
    pub fn build(workload: Workload, size: Size, seed: u64) -> JobList {
        let mut list = JobList {
            size,
            inputs: Vec::new(),
            input_names: Vec::new(),
            jobs: Vec::new(),
        };
        let paired = [Mode::Baseline, Mode::mallacc_default()];
        match workload {
            Workload::PaperMacro | Workload::SampledMacro => {
                for w in MacroWorkload::all() {
                    let trace = w.trace(size.macro_mallocs, input_seed(seed, w.name));
                    list.push_input(w.name, Input::Trace(trace));
                    for mode in paired {
                        list.push_job(Driver::TcMalloc(workload.sim_mode()), mode);
                    }
                }
            }
            Workload::SubstrateMicro => {
                for m in MICROS {
                    let trace = m.trace(size.micro_mallocs, input_seed(seed, m.name()));
                    list.push_input(m.name(), Input::Trace(trace));
                    for kind in SubstrateKind::ALL {
                        for mode in [
                            Mode::Baseline,
                            Mode::mallacc_default(),
                            Mode::offload_default(),
                            Mode::offload_both(),
                        ] {
                            list.push_job(Driver::Substrate(kind), mode);
                        }
                    }
                }
            }
            Workload::Fleet2Core => {
                for name in SCENARIOS {
                    let scenario = Scenario::by_name(name).expect("catalogue scenario");
                    let mut stream =
                        scenario.stream(FLEET_CORES, size.fleet_requests, input_seed(seed, name));
                    let ops: Vec<(usize, MtOp)> = stream.by_ref().collect();
                    assert_eq!(
                        (stream.requests_issued(), stream.requests_retired()),
                        (size.fleet_requests, size.fleet_requests),
                        "{name}: every requested request must issue and retire"
                    );
                    list.push_input(name, Input::Fleet(ops));
                    for mode in paired {
                        list.push_job(Driver::Fleet, mode);
                    }
                }
            }
        }
        list
    }

    fn push_input(&mut self, name: &'static str, input: Input) {
        self.inputs.push(input);
        self.input_names.push(name);
    }

    /// Adds a job on the most recently pushed input.
    fn push_job(&mut self, driver: Driver, mode: Mode) {
        let input = self.inputs.len() - 1;
        let sub = match driver {
            Driver::Substrate(kind) => format!("{}/", kind.name()),
            _ => String::new(),
        };
        let label = format!("{}/{sub}{}", self.input_names[input], accel_label(mode));
        self.jobs.push(Job {
            input,
            driver,
            mode,
            label,
        });
    }

    /// The trace a single-core job replays.
    pub fn trace(&self, job: &Job) -> &Trace {
        match &self.inputs[job.input] {
            Input::Trace(t) => t,
            Input::Fleet(_) => panic!("{} has no single-core trace", job.label),
        }
    }

    /// The fleet stream a fleet job replays.
    pub fn fleet_ops(&self, job: &Job) -> &[(usize, MtOp)] {
        match &self.inputs[job.input] {
            Input::Fleet(ops) => ops,
            Input::Trace(_) => panic!("{} has no fleet stream", job.label),
        }
    }

    /// Total operations across the generated inputs.
    pub fn ops(&self) -> usize {
        self.inputs
            .iter()
            .map(|i| match i {
                Input::Trace(t) => t.len(),
                Input::Fleet(ops) => ops.len(),
            })
            .sum()
    }

    /// Runs one job untraced.
    pub fn run_job(&self, job: &Job) -> JobResult {
        match job.driver {
            Driver::TcMalloc(sim_mode) => {
                let mut sim = MallocSim::new(job.mode);
                sim.set_sampling(sim_mode.plan());
                self.trace(job).replay(&mut sim);
                JobResult::of_tcmalloc(&sim)
            }
            Driver::Substrate(kind) => {
                let mut sim = AnySim::new(kind, job.mode);
                self.trace(job).replay_on(&mut sim);
                JobResult::of_substrate(&sim)
            }
            Driver::Fleet => {
                let sim = MulticoreSim::new(job.mode, FLEET_CORES);
                let (res, sinks) =
                    sim.run_stream_with_sinks(self.fleet_ops(job).iter().copied(), fleet_sinks());
                JobResult::of_fleet(&res, sinks)
            }
        }
    }
}

/// The simulated result of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResult {
    /// malloc + free calls simulated.
    pub calls: u64,
    /// Simulated allocator cycles (malloc + free).
    pub alloc_cycles: u64,
    /// Simulated µops, fast-forwarded ones included.
    pub uops: u64,
    /// FNV-1a over every simulated number the job reports.
    pub digest: u64,
}

/// Incremental FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds bytes in.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds one word in, little-endian.
    pub fn word(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl JobResult {
    /// Reads a finished single-core TCMalloc simulator.
    pub fn of_tcmalloc(sim: &MallocSim) -> JobResult {
        let t = sim.totals();
        let uops = sim.engine().stats().uops;
        JobResult {
            calls: t.malloc_calls + t.free_calls,
            alloc_cycles: t.allocator_cycles(),
            uops,
            digest: Digest::new()
                .word(t.malloc_calls)
                .word(t.malloc_cycles)
                .word(t.free_calls)
                .word(t.free_cycles)
                .word(t.app_cycles)
                .word(uops)
                .value(),
        }
    }

    /// Reads a finished substrate simulator. For the TCMalloc substrate
    /// this equals [`JobResult::of_tcmalloc`] of the same run.
    pub fn of_substrate(sim: &AnySim) -> JobResult {
        if let AnySim::TcMalloc(s) = sim {
            return JobResult::of_tcmalloc(s);
        }
        let (mallocs, frees) = sim.call_counts();
        let cycles = sim.allocator_cycles();
        let uops = sim.engine().stats().uops;
        JobResult {
            calls: mallocs + frees,
            alloc_cycles: cycles,
            uops,
            digest: Digest::new()
                .word(mallocs)
                .word(frees)
                .word(cycles)
                .word(uops)
                .value(),
        }
    }

    /// Reads a finished fleet run and its per-core sinks.
    pub fn of_fleet(
        res: &mallacc_multicore::MtRunResult,
        sinks: Vec<Box<dyn TraceSink>>,
    ) -> JobResult {
        let t = res.aggregate();
        let mut d = Digest::new()
            .word(res.epochs)
            .word(res.shared_l3_accesses)
            .word(res.steal_invalidates);
        for c in &res.per_core {
            d = d
                .word(c.totals.malloc_cycles)
                .word(c.totals.free_cycles)
                .word(c.totals.app_cycles);
        }
        let mut uops = 0;
        for sink in take_fleet_sinks(sinks) {
            uops += sink.uops;
            d = d.word(sink.uops);
            for &c in sink
                .latency
                .malloc_cycles
                .iter()
                .chain(&sink.latency.free_cycles)
            {
                d = d.word(c);
            }
        }
        JobResult {
            calls: t.malloc_calls + t.free_calls,
            alloc_cycles: t.allocator_cycles(),
            uops,
            digest: d.word(uops).value(),
        }
    }
}

/// The per-core sink a fleet job attaches: the fleet engine's per-call
/// latency record plus a retired-µop count (the multicore report has no
/// µop total of its own).
#[derive(Debug, Default)]
pub struct FleetSink {
    /// Per-call latencies, as `repro fleet` collects them.
    pub latency: CallLatencySink,
    /// µops retired or fast-forwarded on this core.
    pub uops: u64,
}

impl TraceSink for FleetSink {
    fn on_retire(&mut self, _event: &UopEvent) {
        self.uops += 1;
    }

    fn on_fast_forward(&mut self, uops: u64, _from: u64, _to: u64) {
        self.uops += uops;
    }

    fn on_op_end(&mut self, op: &OpMeta<'_>) {
        self.latency.on_op_end(op);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// One [`FleetSink`] per simulated core.
pub fn fleet_sinks() -> Vec<Box<dyn TraceSink>> {
    (0..FLEET_CORES)
        .map(|_| Box::new(FleetSink::default()) as Box<dyn TraceSink>)
        .collect()
}

/// Downcasts the sinks a fleet run hands back.
pub fn take_fleet_sinks(sinks: Vec<Box<dyn TraceSink>>) -> Vec<FleetSink> {
    sinks
        .into_iter()
        .map(|s| *s.into_any().downcast::<FleetSink>().expect("fleet sink"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_cycles_are_part_of_the_digest() {
        let trace = MacroWorkload::all()[0].trace(50, 3);
        let run = |extra_app_cycles: u64| {
            let mut sim = MallocSim::new(Mode::Baseline);
            trace.replay(&mut sim);
            sim.app_run(extra_app_cycles);
            (sim.totals(), JobResult::of_tcmalloc(&sim))
        };
        let (base_totals, base) = run(0);
        let (more_totals, more) = run(1);
        // Only the application cycles differ between the two runs.
        assert_eq!(base_totals.app_cycles + 1, more_totals.app_cycles);
        assert_eq!(
            (base.calls, base.alloc_cycles, base.uops),
            (more.calls, more.alloc_cycles, more.uops)
        );
        assert_ne!(base.digest, more.digest);
    }
}
