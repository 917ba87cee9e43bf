//! Multi-core profiling: one [`Profiler`] per simulated core, attached to
//! that core's engine for the epoch-by-epoch replay via
//! `MulticoreSim::run_with_sinks`.

use mallacc::{Mode, TraceSink};
use mallacc_multicore::{MtRunResult, MulticoreSim};
use mallacc_workloads::MtTrace;

use crate::profiler::Profiler;

/// Runs `trace` under `mode` with per-core attribution. Returns the run
/// result and one recovered profiler per core, in core order. Each
/// profiler retains up to `keep_uops` µop samples.
pub fn profile_multicore(
    mode: Mode,
    trace: &MtTrace,
    keep_uops: usize,
) -> (MtRunResult, Vec<Box<Profiler>>) {
    let cores = trace.cores();
    let sim = MulticoreSim::new(mode, cores);
    let sinks: Vec<Box<dyn TraceSink>> = (0..cores)
        .map(|core| {
            Box::new(Profiler::new(core as u32).with_uop_samples(keep_uops)) as Box<dyn TraceSink>
        })
        .collect();
    let (result, sinks) = sim.run_with_sinks(trace, sinks);
    let profilers: Vec<Box<Profiler>> = sinks
        .into_iter()
        .map(|s| Profiler::from_sink(s).expect("run_with_sinks returns what it was given"))
        .collect();
    (result, profilers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::StallReason;

    #[test]
    fn per_core_attribution_conserves_program_time() {
        let trace = MtTrace::producer_consumer(2, 150, 21);
        let (result, profilers) = profile_multicore(Mode::mallacc_default(), &trace, 0);
        assert_eq!(profilers.len(), 2);
        for (core, (report, p)) in result.per_core.iter().zip(&profilers).enumerate() {
            assert_eq!(p.tid(), core as u32);
            assert_eq!(p.conservation_violations(), 0);
            let in_ops: u64 = p.ops().iter().map(|o| o.cycles()).sum();
            assert_eq!(
                in_ops,
                report.totals.allocator_cycles(),
                "core {core}: profiled op cycles must equal the driver's totals"
            );
            let everywhere = in_ops + p.outside().total();
            assert_eq!(
                everywhere,
                report.totals.program_cycles(),
                "core {core}: attribution covers the whole replay"
            );
        }
    }

    #[test]
    fn contention_shows_up_as_in_op_idle_on_the_consumer() {
        // The producer/consumer ring forces remote frees, whose
        // central-list contention is modelled as an in-op skip.
        let trace = MtTrace::producer_consumer(2, 200, 5);
        let (_, profilers) = profile_multicore(Mode::Baseline, &trace, 0);
        let idle: u64 = profilers
            .iter()
            .flat_map(|p| p.ops())
            .map(|o| o.stall.get(StallReason::Idle))
            .sum();
        assert!(idle > 0, "remote frees must pay contention inside the op");
    }
}
