//! Run-time dispatch over every substrate's timing driver.

use mallacc::{MallocSim, Mode};
use mallacc_cache::Addr;
use mallacc_jemalloc::JeSim;
use mallacc_offload::OffloadStats;
use mallacc_ooo::SamplingPlan;

use crate::kind::SubstrateKind;
use crate::pcsim::PcSim;
use crate::rpsim::RpSim;

/// One timing simulator of any substrate, under any [`Mode`].
///
/// This is what the explore grids and CLIs drive: pick a
/// [`SubstrateKind`] and an accelerator mode, get a
/// [`SimBackend`](mallacc_workloads::SimBackend) that replays traces.
/// Every variant holds the same generic driver ([`mallacc::Driver`]), so
/// each method below is one call through the `dispatch!` macro.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_substrate::{AnySim, SubstrateKind};
///
/// let mut sim = AnySim::new(SubstrateKind::Rpmalloc, Mode::mallacc_default());
/// let (ptr, _cycles) = sim.malloc(64);
/// sim.free(ptr, true);
/// ```
#[derive(Debug)]
pub enum AnySim {
    /// The TCMalloc driver.
    TcMalloc(Box<MallocSim>),
    /// The jemalloc driver.
    JeMalloc(Box<JeSim>),
    /// The rpmalloc driver.
    Rpmalloc(Box<RpSim>),
    /// The per-CPU TCMalloc driver.
    PerCpu(Box<PcSim>),
}

/// Evaluates `$body` with `$s` bound to the variant's driver: the one
/// place that matches on the substrate.
macro_rules! dispatch {
    ($sim:expr, $s:ident => $body:expr) => {
        match $sim {
            AnySim::TcMalloc($s) => $body,
            AnySim::JeMalloc($s) => $body,
            AnySim::Rpmalloc($s) => $body,
            AnySim::PerCpu($s) => $body,
        }
    };
}

impl AnySim {
    /// Builds the `kind` substrate's simulator under `mode`.
    pub fn new(kind: SubstrateKind, mode: Mode) -> Self {
        match kind {
            SubstrateKind::TcMalloc => AnySim::TcMalloc(Box::new(MallocSim::new(mode))),
            SubstrateKind::JeMalloc => AnySim::JeMalloc(Box::new(JeSim::new(mode))),
            SubstrateKind::Rpmalloc => AnySim::Rpmalloc(Box::new(RpSim::new(mode))),
            SubstrateKind::PerCpu => AnySim::PerCpu(Box::new(PcSim::new(mode))),
        }
    }

    /// Switches the timing engine between detailed and sampled execution.
    pub fn set_sampling(&mut self, plan: Option<SamplingPlan>) {
        dispatch!(self, s => s.set_sampling(plan))
    }

    /// Simulates one malloc; returns `(ptr, cycles)`.
    pub fn malloc(&mut self, size: u64) -> (Addr, u64) {
        dispatch!(self, s => {
            let r = s.malloc(size);
            (r.ptr, r.cycles)
        })
    }

    /// Simulates one free; returns its cycles.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> u64 {
        dispatch!(self, s => s.free(ptr, sized).cycles)
    }

    /// Simulates a free issued by a *different* core/thread than the one
    /// this simulator models (see [`mallacc::Driver::free_foreign`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free_foreign(&mut self, ptr: Addr, sized: bool) -> u64 {
        dispatch!(self, s => s.free_foreign(ptr, sized).cycles)
    }

    /// malloc + free cycles accumulated so far.
    pub fn allocator_cycles(&self) -> u64 {
        dispatch!(self, s => s.totals().allocator_cycles())
    }

    /// malloc and free call counts accumulated so far.
    pub fn call_counts(&self) -> (u64, u64) {
        let t = dispatch!(self, s => s.totals());
        (t.malloc_calls, t.free_calls)
    }

    /// The out-of-order engine (CPI stacks, execution statistics,
    /// sampling reports).
    pub fn engine(&self) -> &mallacc_ooo::Engine {
        dispatch!(self, s => s.engine())
    }

    /// Offload-queue statistics, when running in offload mode.
    pub fn offload_stats(&self) -> Option<OffloadStats> {
        dispatch!(self, s => s.offload_stats())
    }
}

impl mallacc_workloads::SimBackend for AnySim {
    fn backend_malloc(&mut self, size: u64) -> (u64, u64) {
        self.malloc(size)
    }
    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64 {
        self.free(ptr, sized)
    }
    fn backend_antagonize(&mut self, fraction: f64) {
        dispatch!(self, s => s.antagonize(fraction))
    }
    fn backend_context_switch(&mut self, quantum: u64) {
        dispatch!(self, s => s.context_switch(quantum))
    }
    fn backend_app_run(&mut self, cycles: u64) {
        dispatch!(self, s => s.app_run(cycles))
    }
    fn backend_app_touch(&mut self, addrs: &[Addr]) {
        dispatch!(self, s => s.app_touch(addrs))
    }
}
