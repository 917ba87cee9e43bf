//! The sharded multi-core harness for non-TCMalloc substrates.
//!
//! The full TCMalloc multi-core simulator models shared central lists,
//! transfer caches and L3 coupling — structures the other substrates
//! don't have (rpmalloc is shared-nothing by design; jemalloc and the
//! per-CPU build shard differently). For them, the multicore/fleet
//! streams run on this documented approximation instead: one
//! [`AnySim`] per core, each with its own engine and malloc cache,
//! cross-core frees routed to the owning core's simulator
//! ([`AnySim::free_foreign`] — rpmalloc prices these as deferred-list
//! pushes), and **no shared-L3 coupling** between cores. Per-core cycle
//! totals are exact under that approximation; cross-core cache
//! contention is not modeled.

use std::collections::HashMap;

use mallacc::Mode;
use mallacc_cache::Addr;
use mallacc_ooo::SamplingPlan;
use mallacc_workloads::{AppWalk, MtOp, SimBackend};

use crate::anysim::AnySim;
use crate::kind::SubstrateKind;

/// Totals of one sharded run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardedTotals {
    /// Allocator cycles per core.
    pub per_core_cycles: Vec<u64>,
    /// malloc calls across cores.
    pub malloc_calls: u64,
    /// free calls across cores.
    pub free_calls: u64,
    /// Frees whose issuing core was not the allocating core.
    pub remote_frees: u64,
}

impl ShardedTotals {
    /// Summed allocator cycles across cores.
    pub fn allocator_cycles(&self) -> u64 {
        self.per_core_cycles.iter().sum()
    }
}

/// The sharded multi-core runner: `cores` independent [`AnySim`]s over
/// one logical heap namespace, consuming `(core, MtOp)` streams.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_substrate::{ShardedMt, SubstrateKind};
/// use mallacc_workloads::MtTrace;
///
/// let trace = MtTrace::producer_consumer(2, 200, 7);
/// let mut sim = ShardedMt::new(SubstrateKind::Rpmalloc, Mode::mallacc_default(), 2);
/// sim.run_stream(trace.ops().iter().cloned());
/// assert!(sim.totals().remote_frees > 0);
/// ```
#[derive(Debug)]
pub struct ShardedMt {
    cores: Vec<AnySim>,
    /// Each core's working-set walk, the one the multicore simulator uses.
    walks: Vec<AppWalk>,
    owner: HashMap<u64, (usize, Addr)>,
    totals: ShardedTotals,
}

impl ShardedMt {
    /// Builds `cores` simulators of `kind` under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(kind: SubstrateKind, mode: Mode, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self {
            cores: (0..cores).map(|_| AnySim::new(kind, mode)).collect(),
            walks: (0..cores).map(AppWalk::for_core).collect(),
            owner: HashMap::new(),
            totals: ShardedTotals {
                per_core_cycles: vec![0; cores],
                ..Default::default()
            },
        }
    }

    /// Switches every core's engine to sampled execution under `plan`.
    pub fn set_sampling(&mut self, plan: Option<SamplingPlan>) {
        for c in &mut self.cores {
            c.set_sampling(plan);
        }
    }

    /// Accumulated totals.
    pub fn totals(&self) -> ShardedTotals {
        let mut t = self.totals.clone();
        for (i, c) in self.cores.iter().enumerate() {
            t.per_core_cycles[i] = c.allocator_cycles();
        }
        t
    }

    /// Consumes one `(core, op)` stream in program order.
    ///
    /// Unknown or already-freed tokens panic, like every functional model
    /// in the repo — the generators never emit them.
    pub fn run_stream<I: IntoIterator<Item = (usize, MtOp)>>(&mut self, stream: I) {
        for (core, op) in stream {
            self.step(core, op);
        }
    }

    /// Applies one op on `core`.
    pub fn step(&mut self, core: usize, op: MtOp) {
        assert!(core < self.cores.len(), "core {core} out of range");
        match op {
            MtOp::Malloc { size, token } => {
                let (ptr, _) = self.cores[core].malloc(size);
                let prev = self.owner.insert(token, (core, ptr));
                assert!(prev.is_none(), "token {token:#x} double-allocated");
                self.totals.malloc_calls += 1;
            }
            MtOp::Free { token, sized } => {
                let (owner_core, ptr) = self
                    .owner
                    .remove(&token)
                    .unwrap_or_else(|| panic!("free of unknown token {token:#x}"));
                self.totals.free_calls += 1;
                if owner_core == core {
                    self.cores[core].free(ptr, sized);
                } else {
                    // The block belongs to another core's heap shard: the
                    // owning simulator prices it as a foreign free
                    // (rpmalloc's deferred push, a plain push elsewhere).
                    self.totals.remote_frees += 1;
                    self.cores[owner_core].free_foreign(ptr, sized);
                }
            }
            MtOp::AppRun { cycles } => {
                self.cores[core].backend_app_run(u64::from(cycles));
            }
            MtOp::AppTouch {
                lines,
                working_set_lines,
            } => {
                let addrs = self.walks[core].touch(lines, working_set_lines);
                self.cores[core].backend_app_touch(addrs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc_workloads::MtTrace;

    #[test]
    fn producer_consumer_routes_remote_frees() {
        for kind in SubstrateKind::ALL {
            let trace = MtTrace::producer_consumer(2, 300, 11);
            let mut sim = ShardedMt::new(kind, Mode::Baseline, 2);
            sim.run_stream(trace.ops().iter().cloned());
            let t = sim.totals();
            assert!(t.remote_frees > 0, "{kind:?}: no remote frees");
            assert!(t.allocator_cycles() > 0, "{kind:?}: no cycles");
        }
    }

    #[test]
    fn scaled_traffic_stays_local() {
        let workload =
            mallacc_workloads::MacroWorkload::by_name("471.omnetpp").expect("known workload");
        let trace = MtTrace::scaled(&workload, 4, 400, 3);
        let mut sim = ShardedMt::new(SubstrateKind::PerCpu, Mode::mallacc_default(), 4);
        sim.run_stream(trace.ops().iter().cloned());
        let t = sim.totals();
        assert_eq!(t.remote_frees, 0, "scaled traffic must be core-local");
        assert!(t.per_core_cycles.iter().all(|&c| c > 0), "idle core");
    }

    #[test]
    fn totals_are_deterministic() {
        let run = || {
            let trace = MtTrace::producer_consumer(2, 250, 5);
            let mut sim = ShardedMt::new(SubstrateKind::Rpmalloc, Mode::mallacc_default(), 2);
            sim.run_stream(trace.ops().iter().cloned());
            sim.totals()
        };
        assert_eq!(run(), run());
    }
}
