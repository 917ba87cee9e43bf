//! The pinned engine-throughput fixture behind the per-PR simulator
//! perf trajectory, shared by the `sim_throughput` criterion bench and
//! the `bench_check` regression gate so both time exactly the same
//! work.
//!
//! The fixture never changes — workload, trace length, seed and
//! sampling plan are pinned — so numbers are comparable across commits;
//! `BENCH_sim.json` at the repo root holds the committed baseline. The
//! measured stream is the real µop-kind sequence of a macro workload
//! replay (recorded once through an observability sink, the simulation
//! being deterministic), re-pushed into a bare engine with a light
//! rotating dependency chain. That keeps the functional allocator out
//! of the timed loop: the trajectory claim is about the engine's
//! fast-forward path, and driver-level wall clock is dominated by the
//! functional model.

use std::any::Any;
use std::time::Instant;

use mallacc::{MallocSim, Mode, OpMeta, SamplingPlan, TraceSink, UopEvent};
use mallacc_cache::Hierarchy;
use mallacc_ooo::{CoreConfig, Engine, OpKind, Uop};
use mallacc_workloads::AnyWorkload;

/// The pinned fixture: one `471.omnetpp` replay.
pub const WORKLOAD: &str = "471.omnetpp";
/// Allocations in the fixture trace.
pub const MALLOCS: usize = 2_000;
/// Fixture trace seed.
pub const SEED: u64 = 42;

#[derive(Debug, Default)]
struct KindRecorder(Vec<OpKind>);

impl TraceSink for KindRecorder {
    fn on_retire(&mut self, event: &UopEvent) {
        self.0.push(event.kind);
    }
    fn on_op_end(&mut self, _op: &OpMeta<'_>) {}
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Records the µop-kind stream of one full-detail fixture replay.
fn fixture_kinds() -> Vec<OpKind> {
    let w = AnyWorkload::by_name(WORKLOAD).expect("pinned workload exists");
    let trace = w.trace(MALLOCS, SEED);
    let mut sim = MallocSim::new(Mode::Baseline);
    sim.attach_tracer(Box::new(KindRecorder::default()));
    trace.replay(&mut sim);
    let kinds = sim
        .detach_tracer()
        .expect("tracer installed")
        .into_any()
        .downcast::<KindRecorder>()
        .expect("kind recorder")
        .0;
    assert!(kinds.len() > 100_000, "fixture stream too short");
    kinds
}

/// Materializes the fixture's µop stream, once, outside any timed loop.
/// Each µop gets a fresh destination register and a short dependency
/// chain on the previous destination, approximating the driver's
/// dataflow without the functional allocator in the loop. Register
/// names are a deterministic counter, so a stream minted against one
/// engine replays on any fresh engine that pre-allocates the same
/// register count (returned alongside).
pub fn fixture_uops() -> (Vec<Uop>, usize) {
    let kinds = fixture_kinds();
    let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
    let mut prev = cpu.alloc_reg();
    let mut uops = Vec::with_capacity(kinds.len());
    for kind in &kinds {
        let d = cpu.alloc_reg();
        let uop = match *kind {
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
    (uops, kinds.len() + 1)
}

/// Pushes the prebuilt stream through a fresh engine, returning its
/// retired-µop count. The timed loop is register pre-allocation plus
/// `push` — the paths whose cost the trajectory tracks — with no µop
/// construction inside it.
pub fn run_engine(uops: &[Uop], regs: usize, plan: Option<SamplingPlan>) -> u64 {
    let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
    cpu.set_sampling(plan);
    for _ in 0..regs {
        cpu.alloc_reg();
    }
    for uop in uops {
        cpu.push(uop.clone());
    }
    cpu.stats().uops
}

/// A quick in-process measurement of the sampled-over-full engine
/// speedup: `trials` pairs of one full and one sampled run, interleaved
/// so a host frequency ramp cannot bias one side. Each pair yields one
/// full/sampled ratio, and [`SpeedupSample::ratio`] is their median: the
/// statistic `BENCH_sim.json` records, a median of per-run medians. Load
/// from other tenants slows both runs of a pair alike, so the ratio of a
/// pair is steadier than a ratio of two independently chosen times.
pub fn quick_speedup(trials: usize) -> SpeedupSample {
    let (uops, regs) = fixture_uops();
    let plan = SamplingPlan::default_plan();
    let mut full_ms = Vec::new();
    let mut sampled_ms = Vec::new();
    for _ in 0..trials.max(1) {
        let t = Instant::now();
        std::hint::black_box(run_engine(&uops, regs, None));
        full_ms.push(1e3 * t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(run_engine(&uops, regs, Some(plan)));
        sampled_ms.push(1e3 * t.elapsed().as_secs_f64());
    }
    SpeedupSample {
        uops: uops.len() as u64,
        full_ms,
        sampled_ms,
    }
}

/// One [`quick_speedup`] measurement.
#[derive(Debug, Clone)]
pub struct SpeedupSample {
    /// µops pushed per run.
    pub uops: u64,
    /// Wall time of each trial's full detailed run, in milliseconds.
    pub full_ms: Vec<f64>,
    /// Wall time of each trial's sampled run, in milliseconds.
    pub sampled_ms: Vec<f64>,
}

impl SpeedupSample {
    /// Each trial's sampled-over-full speedup (> 1 means sampling is
    /// faster), in trial order.
    pub fn ratios(&self) -> Vec<f64> {
        self.full_ms
            .iter()
            .zip(&self.sampled_ms)
            .map(|(full, sampled)| full / sampled)
            .collect()
    }

    /// The median of [`SpeedupSample::ratios`].
    pub fn ratio(&self) -> f64 {
        let mut r = self.ratios();
        r.sort_by(f64::total_cmp);
        let mid = r.len() / 2;
        if r.len() % 2 == 1 {
            r[mid]
        } else {
            (r[mid - 1] + r[mid]) / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ratio_is_the_median_of_the_per_trial_ratios() {
        let m = SpeedupSample {
            uops: 1,
            full_ms: vec![4.0, 9.0, 6.0],
            sampled_ms: vec![2.0, 3.0, 1.0],
        };
        assert_eq!(m.ratios(), [2.0, 3.0, 6.0]);
        assert_eq!(m.ratio(), 3.0);
        let even = SpeedupSample {
            full_ms: vec![4.0, 9.0],
            sampled_ms: vec![2.0, 3.0],
            ..m
        };
        assert_eq!(even.ratio(), 2.5);
    }

    /// The fixture stream is deterministic and both modes retire every
    /// µop of it — the throughput comparison is element-for-element
    /// fair.
    #[test]
    fn both_modes_retire_the_full_fixture_stream() {
        let (uops, regs) = fixture_uops();
        let n = uops.len() as u64;
        assert_eq!(run_engine(&uops, regs, None), n);
        assert_eq!(
            run_engine(&uops, regs, Some(SamplingPlan::default_plan())),
            n
        );
    }
}
