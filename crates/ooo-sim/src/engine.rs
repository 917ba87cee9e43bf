//! The out-of-order dataflow scheduling engine.

use mallacc_cache::{AccessKind, AccessResult, Addr, Hierarchy};

use crate::sample::{FfClock, Phase, Sampler, SamplingPlan, SamplingReport};
use crate::trace::{Component, OpMeta, StallBreakdown, StallReason, TraceSink, UopEvent};
use crate::uop::{OpKind, Reg, Uop};

/// Load-issue ports per cycle (Haswell: ports 2 and 3).
pub const LOAD_PORTS: usize = 2;

/// Store-data ports per cycle (Haswell: port 4).
pub const STORE_PORTS: usize = 1;

/// Slots in a [`PortTracker`] ring. Must exceed the scan window: issue
/// scans start at most 1000 cycles behind the watermark and never travel
/// past it by more than one cycle (a slot beyond the watermark has never
/// been filled), so live occupancy spans under 1002 distinct cycles.
const PORT_RING: usize = 2_048;

/// Tracks a per-cycle issue-port budget (Haswell: [`LOAD_PORTS`] load
/// ports, [`STORE_PORTS`] store port). Finds the earliest cycle at or
/// after `ready` with spare capacity.
///
/// Cycle-tagged ring buffer: slot `cycle % PORT_RING` holds the count for
/// `cycle` iff its tag matches; a mismatched tag reads as zero. Writes at
/// cycle `c` make any later touch of `c - PORT_RING` impossible (scans
/// start at `watermark - 1000` and the watermark is monotone), so stale
/// tags are never misread — this is exactly the dense-window semantics of
/// a map pruned far behind the frontier, without per-access hashing.
#[derive(Debug)]
struct PortTracker {
    tags: Vec<u64>,
    counts: Vec<u8>,
    watermark: u64,
}

impl Default for PortTracker {
    fn default() -> Self {
        Self {
            tags: vec![0; PORT_RING],
            counts: vec![0; PORT_RING],
            watermark: 0,
        }
    }
}

impl PortTracker {
    fn issue_at(&mut self, ready: u64, cap: u8) -> u64 {
        let mut cycle = ready.max(self.watermark.saturating_sub(1_000));
        loop {
            let slot = (cycle % PORT_RING as u64) as usize;
            if self.tags[slot] != cycle {
                self.tags[slot] = cycle;
                self.counts[slot] = 1;
                break;
            }
            if self.counts[slot] < cap {
                self.counts[slot] += 1;
                break;
            }
            cycle += 1;
        }
        if cycle > self.watermark {
            self.watermark = cycle;
        }
        cycle
    }
}

/// Key marking an empty [`LineMap`] slot. Unreachable as a real key:
/// keys are cache-line numbers (`addr >> DEP_LINE_SHIFT`), which cannot
/// exceed `u64::MAX >> 6`.
const LINE_EMPTY: u64 = u64::MAX;

/// Open-addressed cache-line → completion-cycle map for store→load
/// forwarding. Exactly a hash map specialised to `u64` keys: the std map's
/// DoS-resistant hashing was the simulator's dispatch hot spot, and store
/// forwarding needs neither resistance nor removal.
#[derive(Debug)]
struct LineMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
}

impl Default for LineMap {
    fn default() -> Self {
        Self {
            keys: vec![LINE_EMPTY; 1_024],
            vals: vec![0; 1_024],
            len: 0,
        }
    }
}

impl LineMap {
    /// Fibonacci-hash start slot; the table size is a power of two.
    fn slot(&self, key: u64) -> usize {
        let shift = 64 - self.keys.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    fn get(&self, key: u64) -> Option<u64> {
        let mask = self.keys.len() - 1;
        let mut i = self.slot(key);
        loop {
            match self.keys[i] {
                k if k == key => return Some(self.vals[i]),
                LINE_EMPTY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn insert(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, LINE_EMPTY);
        let mask = self.keys.len() - 1;
        let mut i = self.slot(key);
        loop {
            match self.keys[i] {
                k if k == key => {
                    self.vals[i] = val;
                    return;
                }
                LINE_EMPTY => break,
                _ => i = (i + 1) & mask,
            }
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![LINE_EMPTY; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        let cap = old_keys.len() * 2;
        self.keys = vec![LINE_EMPTY; cap];
        self.vals = vec![0; cap];
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != LINE_EMPTY {
                self.insert(k, v);
            }
        }
    }
}

/// Core width/size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Micro-ops fetched/renamed per cycle.
    pub fetch_width: u32,
    /// Micro-ops retired per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries; fetch stalls when the window is full.
    pub rob_size: u32,
    /// Cycles from branch resolution to fetching down the right path.
    pub mispredict_penalty: u32,
    /// Front-end depth: cycles between fetching a µop and its earliest issue.
    pub frontend_latency: u32,
}

impl CoreConfig {
    /// An aggressive Haswell-like core: 4-wide fetch and commit, 192-entry
    /// ROB, 15-cycle mispredict penalty, 5-stage front end.
    pub fn haswell() -> Self {
        Self {
            fetch_width: 4,
            commit_width: 4,
            rob_size: 192,
            mispredict_penalty: 15,
            frontend_latency: 5,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::haswell()
    }
}

/// When one micro-op moved through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopTiming {
    /// Cycle the µop was fetched.
    pub fetch: u64,
    /// Cycle all its sources were available.
    pub ready: u64,
    /// Cycle its result was produced.
    pub complete: u64,
    /// Cycle it retired (in order).
    pub commit: u64,
    /// For loads/stores/prefetches: the hierarchy's answer. For prefetches,
    /// `complete` is early (senior-store-queue style) and
    /// `ready + mem.latency` is when the data actually arrives.
    pub mem: Option<AccessResult>,
}

impl UopTiming {
    /// For memory µops, the cycle the cache line actually arrives
    /// (`ready + mem latency`); otherwise `complete`.
    pub fn data_arrival(&self) -> u64 {
        match self.mem {
            Some(m) => self.ready + m.latency as u64,
            None => self.complete,
        }
    }
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Micro-ops pushed.
    pub uops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Prefetches executed.
    pub prefetches: u64,
    /// Branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
}

/// A retirement-side CPI stack: every cycle of forward commit progress is
/// attributed to the constraint that bound it. Sums to the total elapsed
/// cycles, so `stack.memory / stack.total()` is "the fraction of time the
/// machine was waiting on loads" — the lens behind the paper's §3.2/§3.3
/// cost analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpiStack {
    /// Commit advanced smoothly (retirement-width bound): useful work.
    pub base: u64,
    /// Commit waited on a load's data.
    pub memory: u64,
    /// Commit waited on a non-memory execution latency (ALU chains,
    /// accelerator ops, modelled syscalls).
    pub execute: u64,
    /// Commit waited on the front end (fetch groups, taken branches,
    /// misprediction redirects).
    pub frontend: u64,
}

impl CpiStack {
    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.base + self.memory + self.execute + self.frontend
    }
}

/// The out-of-order core model.
///
/// Push µops in program order; the engine returns each µop's pipeline timing
/// immediately (the model is analytic per µop, so no separate "run" step is
/// needed). Loads and stores access the owned [`Hierarchy`] in program
/// order.
///
/// # Example
///
/// ```
/// use mallacc_ooo::{CoreConfig, Engine, Uop};
/// use mallacc_cache::Hierarchy;
///
/// let mut cpu = Engine::new(CoreConfig::haswell(), Hierarchy::default());
/// let v = cpu.alloc_reg();
/// let w = cpu.alloc_reg();
/// cpu.mem_mut().warm(0x100);
/// let t1 = cpu.push(Uop::load(0x100, v, &[]));
/// let t2 = cpu.push(Uop::alu(1, Some(w), &[v]));
/// assert!(t2.ready >= t1.complete); // dataflow dependency respected
/// ```
#[derive(Debug)]
pub struct Engine {
    config: CoreConfig,
    mem: Hierarchy,
    /// Completion cycle of each virtual register, at its [`Reg::slot`],
    /// one past its index. Slot 0 is a sentinel that no µop writes: an
    /// absent source reads it as cycle 0, so every source is one
    /// unconditional load.
    reg_complete: Vec<u64>,
    /// Commit times of the last detailed µops: µop `n` sits at slot
    /// `n & rob_mask`. The ring is a power of two no shorter than
    /// `rob_size`, so the commit of µop `n - rob_size` is still there
    /// when µop `n` fetches.
    rob: Box<[u64]>,
    rob_mask: u64,
    /// Detailed µops pushed so far: the ROB sequence number of the next.
    detailed: u64,
    /// Fetch bookkeeping: cycle and how many µops were fetched in it.
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    /// Earliest cycle the next µop may fetch (branch redirects push this).
    fetch_barrier: u64,
    /// Commit bookkeeping (in-order, width-limited).
    commit_cycle: u64,
    committed_this_cycle: u32,
    last_commit: u64,
    /// Completion time of the most recent store to each cache line, for
    /// store→load memory dependencies (forwarding).
    store_complete: LineMap,
    load_ports: PortTracker,
    store_ports: PortTracker,
    stats: CoreStats,
    cpi: CpiStack,
    /// Cycles explicitly skipped via [`Engine::skip_to_cycle`] (never
    /// attributed to the CPI stack).
    skipped: u64,
    /// Ambient component tag stamped on every event (set by the driver).
    component: Component,
    /// Retirement sequence counter for trace events.
    retired: u64,
    /// Optional observability sink; `None` costs nothing per µop.
    sink: Option<Box<dyn TraceSink>>,
    /// Sampled-execution controller; `None` runs everything detailed.
    sampling: Option<Sampler>,
    /// µops left in the current fast-forward stretch. While non-zero,
    /// [`Engine::push`] fast-forwards without asking the sampler.
    ff_left: u64,
    /// The fast-forward clock. Its pending µops are not yet charged to
    /// `last_commit`, `cpi` or `retired`; readers add them in closed form
    /// and [`Engine::flush_ff`] charges them.
    ff: FfClock,
}

/// Cache-line granularity used for memory dependence tracking.
const DEP_LINE_SHIFT: u32 = 6;

impl Engine {
    /// Creates a core with a cold pipeline at cycle 0.
    pub fn new(config: CoreConfig, mem: Hierarchy) -> Self {
        assert!(config.fetch_width >= 1 && config.commit_width >= 1 && config.rob_size >= 1);
        let ring = (config.rob_size as usize).next_power_of_two();
        Self {
            config,
            mem,
            reg_complete: vec![0],
            rob: vec![0; ring].into_boxed_slice(),
            rob_mask: ring as u64 - 1,
            detailed: 0,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            fetch_barrier: 0,
            commit_cycle: 0,
            committed_this_cycle: 0,
            last_commit: 0,
            store_complete: LineMap::default(),
            load_ports: PortTracker::default(),
            store_ports: PortTracker::default(),
            stats: CoreStats::default(),
            cpi: CpiStack::default(),
            skipped: 0,
            component: Component::App,
            retired: 0,
            sink: None,
            sampling: None,
            ff_left: 0,
            ff: FfClock::default(),
        }
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Read-only view of the memory hierarchy.
    pub fn mem(&self) -> &Hierarchy {
        &self.mem
    }

    /// Mutable access to the hierarchy (warming, antagonist eviction).
    pub fn mem_mut(&mut self) -> &mut Hierarchy {
        &mut self.mem
    }

    /// Allocates a fresh virtual register.
    pub fn alloc_reg(&mut self) -> Reg {
        let r = Reg::new((self.reg_complete.len() - 1) as u32);
        self.reg_complete.push(0);
        r
    }

    /// Commit time of the most recently pushed µop.
    #[inline]
    pub fn now(&self) -> u64 {
        self.last_commit + self.ff.advance().iter().sum::<u64>()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The retirement-side CPI stack accumulated so far. In sampled mode
    /// the fast-forwarded slices are included (extrapolated at the last
    /// measured window's rates), so `total() + skipped_cycles() == now()`
    /// holds in every mode.
    pub fn cpi_stack(&self) -> CpiStack {
        let [base, memory, execute, frontend] = self.ff.advance();
        CpiStack {
            base: self.cpi.base + base,
            memory: self.cpi.memory + memory,
            execute: self.cpi.execute + execute,
            frontend: self.cpi.frontend + frontend,
        }
    }

    /// Cycles explicitly skipped via [`Engine::skip_to_cycle`].
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped
    }

    /// Switches between full detailed execution (`None`) and sampled
    /// execution under `plan`. Resets any previous sampling state; the
    /// timing/CPI state accumulated so far is kept.
    pub fn set_sampling(&mut self, plan: Option<SamplingPlan>) {
        self.flush_ff();
        self.sampling = plan.map(Sampler::new);
        self.ff_left = 0;
        self.ff = FfClock::default();
    }

    /// The sampling plan in force, if any.
    pub fn sampling_plan(&self) -> Option<SamplingPlan> {
        self.sampling.as_ref().map(|s| s.plan)
    }

    /// The sampled run's measurement report: closed windows, warmup and
    /// fast-forward totals. `None` unless sampling is enabled.
    pub fn sampling_report(&self) -> Option<SamplingReport> {
        self.sampling.as_ref().map(|s| {
            let mut report = s.report();
            report.ff_uops += self.ff.pending;
            report.ff_cycles += self.ff.advance().iter().sum::<u64>();
            report
        })
    }

    /// Installs an observability sink. Replaces any existing sink.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.flush_ff();
        self.sink = Some(sink);
    }

    /// Removes and returns the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush_ff();
        self.sink.take()
    }

    /// Sets the component tag stamped on subsequently pushed µops.
    pub fn set_component(&mut self, component: Component) {
        self.component = component;
    }

    /// Notifies the sink that an operation window opens at the current
    /// retirement cycle. No-op without a sink.
    pub fn trace_op_begin(&mut self) {
        self.flush_ff();
        let now = self.last_commit;
        if let Some(sink) = &mut self.sink {
            sink.on_op_begin(now);
        }
    }

    /// Notifies the sink that an operation window closed. No-op without a
    /// sink.
    pub fn trace_op_end(&mut self, op: &OpMeta<'_>) {
        self.flush_ff();
        if let Some(sink) = &mut self.sink {
            sink.on_op_end(op);
        }
    }

    /// Closes a pending fast-forward region: charges its cycles to the
    /// clock and the CPI stack, re-syncs the pipeline bookkeeping to the
    /// fast-forwarded time (exactly as an explicit time skip would) and
    /// delivers the batched sink notification.
    fn flush_ff(&mut self) {
        let uops = self.ff.pending;
        if uops == 0 {
            return;
        }
        let [base, memory, execute, frontend] = self.ff.settle();
        let advance = base + memory + execute + frontend;
        self.cpi.base += base;
        self.cpi.memory += memory;
        self.cpi.execute += execute;
        self.cpi.frontend += frontend;
        self.retired += uops;
        let s = self
            .sampling
            .as_mut()
            .expect("fast-forward runs under a sampler");
        s.ff_uops += uops;
        s.ff_cycles += advance;
        let from = self.last_commit;
        let to = from + advance;
        self.last_commit = to;
        if to > self.fetch_cycle {
            self.fetch_cycle = to;
            self.fetched_this_cycle = 0;
        }
        self.fetch_barrier = self.fetch_barrier.max(to);
        if to > self.commit_cycle {
            self.commit_cycle = to;
            self.committed_this_cycle = 0;
        }
        if let Some(sink) = &mut self.sink {
            sink.on_fast_forward(uops, from, to);
        }
    }

    /// Takes a fetch slot at or after `earliest`, which the caller has
    /// already raised to `fetch_cycle` and `fetch_barrier`.
    fn fetch_slot(&mut self, earliest: u64) -> u64 {
        let mut cycle = earliest;
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

    /// Pushes the next µop in program order and returns its timing.
    ///
    /// Without sampling (or under a degenerate plan) every µop runs
    /// through the detailed pipeline model. Under a non-degenerate
    /// [`SamplingPlan`] the µop is dispatched by phase: detailed for
    /// warmup and measured windows, functional fast-forward otherwise.
    /// Inside a fast-forward stretch the push is a countdown step and a
    /// few counter bumps, inlined at the call site.
    ///
    /// # Panics
    ///
    /// Panics if the µop's destination register was never allocated by
    /// this engine. A µop that runs in detail also panics on a source
    /// register that was never allocated; a fast-forwarded µop does not
    /// read its sources, so it does not check them.
    #[inline(always)]
    pub fn push(&mut self, uop: Uop) -> UopTiming {
        if self.ff_left > 0 {
            self.ff_left -= 1;
            return self.push_ff(uop);
        }
        self.push_dispatch(uop)
    }

    /// Pushes one load per address, in program order, each with no sources
    /// and no destination register: the application's memory traffic
    /// between allocator calls. Inside a fast-forward stretch the loads the
    /// stretch still covers run as one loop and the countdown drops by
    /// their number at once; each load past it is dispatched by phase as
    /// [`Engine::push`] would, and without a sampler it runs in detail.
    ///
    /// # Why this is exactly one `push` per address
    ///
    /// It equals pushing `Uop::load(addr, r, &[])` for each address with a
    /// freshly allocated `r`. Registers are SSA and no µop ever names an
    /// application load's register as a source, so not allocating it
    /// changes no ready time; no [`UopEvent`], statistic or report carries
    /// a register. A load the stretch covers does what [`Engine::push`]
    /// does with it: a countdown step and the fast-forward path. Without a
    /// sampler, phase dispatch is the detailed model. Sinks therefore still
    /// see one retire event per detailed load and one fast-forward
    /// notification per region.
    pub fn push_loads(&mut self, addrs: &[Addr]) {
        let load = |addr| Uop {
            kind: OpKind::Load { addr },
            srcs: [None; 3],
            dst: None,
        };
        if self.sampling.is_none() {
            for &addr in addrs {
                self.push_detailed(load(addr));
            }
            return;
        }
        let mut rest = addrs;
        while let Some((&first, tail)) = rest.split_first() {
            if self.ff_left == 0 {
                self.push_dispatch(load(first));
                rest = tail;
                continue;
            }
            let n = self.ff_left.min(rest.len() as u64);
            let (covered, tail) = rest.split_at(n as usize);
            self.ff_left -= n;
            for &addr in covered {
                self.push_ff(load(addr));
            }
            rest = tail;
        }
    }

    /// Every µop outside a fast-forward stretch: phase dispatch, then the
    /// detailed model, or the first µop of a new stretch.
    #[inline(never)]
    fn push_dispatch(&mut self, uop: Uop) -> UopTiming {
        let phase = match &mut self.sampling {
            Some(s) if !s.plan.is_degenerate() => Some(s.next_phase()),
            _ => None,
        };
        let mut closes = false;
        match phase {
            Some(Phase::FastForward { len }) => {
                self.ff_left = len - 1;
                return self.push_ff(uop);
            }
            Some(Phase::Warmup) => self.flush_ff(),
            Some(Phase::Measured { closes: last }) => {
                self.flush_ff();
                let cpi = self.cpi;
                let s = self.sampling.as_mut().expect("sampler in force");
                if !s.window_open {
                    s.open_window(cpi);
                }
                closes = last;
            }
            None => {}
        }
        let t = self.push_detailed(uop);
        if closes {
            let cpi = self.cpi;
            let s = self.sampling.as_mut().expect("sampler in force");
            self.ff.rate = s.close_window(cpi);
        }
        t
    }

    /// The functional fast-forward path: performs every memory access (so
    /// cache and TLB state stay bit-identical to a full run), updates the
    /// execution statistics and counts the µop on the fast-forward clock.
    /// Nothing else happens per µop; simulated time advances at the last
    /// measured window's per-slice CPI rates, in closed form. The returned
    /// timing evaluates that clock, so it compiles away at call sites
    /// that drop it.
    ///
    /// # Why writing no register is exact
    ///
    /// The detailed model writes a destination's completion cycle for
    /// later µops that read it; this path writes nothing. Registers are
    /// SSA: each is written at most once and reads 0 until then, so a
    /// register a fast-forwarded µop would have written reads 0 instead
    /// of a cycle `t` no later than the fast-forward clock `T` at the end
    /// of the region. Any µop that reads it later runs in detail, and a
    /// region always ends in [`Engine::flush_ff`] before the next
    /// detailed µop. That flush raises `fetch_cycle` and `fetch_barrier`
    /// to `T`, so the reader fetches at or after `T`, and its ready time
    /// is at least `fetch + frontend_latency >= T >= t`. The skipped
    /// write could therefore never have raised a ready time. Stores skip
    /// their store-forwarding entry for the same reason.
    #[inline(always)]
    fn push_ff(&mut self, uop: Uop) -> UopTiming {
        if let Some(dst) = uop.dst {
            if dst.slot() >= self.reg_complete.len() {
                unallocated(dst);
            }
        }
        self.stats.uops += 1;
        let mem = match uop.kind {
            OpKind::Alu { .. } => None,
            OpKind::Load { addr } => {
                self.stats.loads += 1;
                Some(self.mem.access(addr, AccessKind::Read))
            }
            OpKind::Store { addr } => {
                self.stats.stores += 1;
                Some(self.mem.access(addr, AccessKind::Write))
            }
            OpKind::Prefetch { addr } => {
                self.stats.prefetches += 1;
                Some(self.mem.access(addr, AccessKind::Prefetch))
            }
            OpKind::Branch { mispredicted, .. } => {
                self.stats.branches += 1;
                if mispredicted {
                    self.stats.mispredicts += 1;
                }
                None
            }
        };
        self.ff.pending += 1;
        let now = self.now();
        UopTiming {
            fetch: now,
            ready: now,
            complete: now,
            commit: now,
            mem,
        }
    }

    /// The full detailed pipeline model behind [`Engine::push`].
    #[inline(always)]
    fn push_detailed(&mut self, uop: Uop) -> UopTiming {
        self.stats.uops += 1;

        // ROB gating: the window holds at most rob_size µops, so µop n
        // fetches no earlier than µop n - rob_size commits. Until the
        // window first fills, the ring slot read here has never been
        // written (the ring is at least rob_size long) and reads 0.
        let n = self.detailed;
        self.detailed += 1;
        let gate_slot = n.wrapping_sub(u64::from(self.config.rob_size)) & self.rob_mask;
        let rob_gate = self.rob[gate_slot as usize];
        let front = self.fetch_cycle.max(self.fetch_barrier);
        let fetch = self.fetch_slot(front.max(rob_gate));

        // Dataflow readiness: sources plus front-end depth. An absent
        // source reads the sentinel slot.
        let frontend_done = fetch + u64::from(self.config.frontend_latency);
        let mut ready = frontend_done;
        for src in uop.srcs {
            ready = ready.max(self.reg_complete[src.map_or(0, Reg::slot)]);
        }

        let mut mem = None;
        let complete = match uop.kind {
            OpKind::Alu { latency } => ready + u64::from(latency),
            OpKind::Load { addr } => {
                self.stats.loads += 1;
                // Memory dependence: a load cannot see data before the last
                // store to its line has produced it (forwarding).
                if let Some(s) = self.store_complete.get(addr >> DEP_LINE_SHIFT) {
                    ready = ready.max(s);
                }
                let issue = self.load_ports.issue_at(ready, LOAD_PORTS as u8);
                let r = self.mem.access(addr, AccessKind::Read);
                mem = Some(r);
                issue + u64::from(r.latency)
            }
            OpKind::Store { addr } => {
                self.stats.stores += 1;
                let issue = self.store_ports.issue_at(ready, STORE_PORTS as u8);
                mem = Some(self.mem.access(addr, AccessKind::Write));
                // Senior store queue: the store completes and may retire one
                // cycle after its operands are ready; the cache update
                // happens in the background.
                let c = issue + 1;
                self.store_complete.insert(addr >> DEP_LINE_SHIFT, c);
                c
            }
            OpKind::Prefetch { addr } => {
                self.stats.prefetches += 1;
                let issue = self.load_ports.issue_at(ready, LOAD_PORTS as u8);
                mem = Some(self.mem.access(addr, AccessKind::Prefetch));
                // Like a store: commits without waiting for the data.
                issue + 1
            }
            OpKind::Branch {
                mispredicted,
                taken,
                penalty,
            } => {
                self.stats.branches += 1;
                let c = ready + 1;
                if mispredicted {
                    self.stats.mispredicts += 1;
                    let pen = penalty.unwrap_or(self.config.mispredict_penalty);
                    self.fetch_barrier = self.fetch_barrier.max(c + pen as u64);
                } else if taken {
                    // A taken branch ends its fetch group: the front end
                    // resteers and resumes at the target next cycle.
                    self.fetch_cycle = fetch + 1;
                    self.fetched_this_cycle = 0;
                }
                c
            }
        };

        if let Some(dst) = uop.dst {
            self.reg_complete[dst.slot()] = complete;
        }

        // In-order commit: cannot retire before the previous µop, nor before
        // this µop's own completion.
        let prev_commit = self.last_commit;
        let commit = self.commit_slot(complete.max(prev_commit));
        self.last_commit = commit;
        self.rob[(n & self.rob_mask) as usize] = commit;

        // Stall attribution: the cycles this µop moved retirement forward
        // (`advance`, never negative: commit is in order), charged to
        // whatever bound them. The stalled part, completion trailing the
        // previous retirement, is covered by walking the µop's own
        // timeline backwards from completion: its execution (memory for a
        // load) as far as that reaches, then the front end. The remainder
        // is width-limited useful work. `complete >= ready` always holds.
        let advance = commit - prev_commit;
        let stalled = complete.saturating_sub(prev_commit).min(advance);
        let exec = (complete - ready).min(stalled);
        let is_load = matches!(uop.kind, OpKind::Load { .. });
        self.cpi.base += advance - stalled;
        if is_load {
            self.cpi.memory += exec;
        } else {
            self.cpi.execute += exec;
        }
        self.cpi.frontend += stalled - exec;

        let timing = UopTiming {
            fetch,
            ready,
            complete,
            commit,
            mem,
        };
        let seq = self.retired;
        self.retired += 1;
        if let Some(sink) = &mut self.sink {
            // The sink's finer breakdown splits the front-end share into
            // the wait for operands, ROB gating and the front end proper,
            // each capped by what is left, and the memory share by level.
            // It projects onto exactly the CPI slices charged above.
            let mut stall = StallBreakdown::new();
            stall.add(StallReason::Base, advance - stalled);
            let exec_reason = match mem {
                Some(m) if is_load => StallReason::for_level(m.level),
                _ => StallReason::Execute,
            };
            stall.add(exec_reason, exec);
            let mut rest = stalled - exec;
            let rob_delay = rob_gate.saturating_sub(front);
            for (reason, span) in [
                (StallReason::Dataflow, ready - frontend_done),
                (StallReason::RobFull, rob_delay),
            ] {
                let t = span.min(rest);
                rest -= t;
                stall.add(reason, t);
            }
            stall.add(StallReason::Frontend, rest);
            sink.on_retire(&UopEvent {
                seq,
                kind: uop.kind,
                component: self.component,
                timing,
                stall,
            });
        }
        timing
    }

    /// Advances fetch to at least `cycle` (models time passing between
    /// allocator calls while the application runs).
    pub fn skip_to_cycle(&mut self, cycle: u64) {
        self.flush_ff();
        let from = self.last_commit;
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
        let to = self.last_commit;
        if to > from {
            self.skipped += to - from;
            if let Some(sink) = &mut self.sink {
                sink.on_skip(from, to);
            }
        }
    }
}

/// The "never allocated" panic of [`Engine::push`], out of line so that
/// the fast-forward path inlined at every call site stays small.
#[cold]
#[inline(never)]
fn unallocated(reg: Reg) -> ! {
    panic!("register {reg} was never allocated by this engine")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(CoreConfig::haswell(), Hierarchy::default())
    }

    #[test]
    fn independent_alus_pack_by_fetch_width() {
        let mut cpu = engine();
        // 8 independent 1-cycle ALU ops on a 4-wide machine: fetched over
        // two cycles.
        let mut timings = Vec::new();
        for _ in 0..8 {
            let d = cpu.alloc_reg();
            timings.push(cpu.push(Uop::alu(1, Some(d), &[])));
        }
        assert_eq!(timings[0].fetch, 0);
        assert_eq!(timings[3].fetch, 0);
        assert_eq!(timings[4].fetch, 1);
        assert_eq!(timings[7].fetch, 1);
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut cpu = engine();
        let mut prev: Option<Reg> = None;
        let mut last = None;
        for _ in 0..10 {
            let d = cpu.alloc_reg();
            let srcs: Vec<Reg> = prev.into_iter().collect();
            last = Some(cpu.push(Uop::alu(3, Some(d), &srcs)));
            prev = Some(d);
        }
        let t = last.unwrap();
        // 10 ops × 3 cycles on the dataflow chain.
        assert!(t.complete >= 30);
    }

    #[test]
    fn load_latency_comes_from_hierarchy() {
        let mut cpu = engine();
        let d = cpu.alloc_reg();
        let t = cpu.push(Uop::load(0x100, d, &[]));
        assert_eq!(t.mem.unwrap().latency, 230); // cold DRAM + page walk
        let d2 = cpu.alloc_reg();
        let t2 = cpu.push(Uop::load(0x100, d2, &[]));
        assert_eq!(t2.mem.unwrap().latency, 4); // now L1 (and TLB)
    }

    #[test]
    fn store_commits_without_waiting_for_memory() {
        let mut cpu = engine();
        let v = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(v), &[]));
        let t = cpu.push(Uop::store(0x2000, &[v]));
        // Cold store to DRAM, yet it retires almost immediately.
        assert!(t.commit < 20, "store stalled commit: {t:?}");
    }

    #[test]
    fn load_miss_stalls_commit_of_younger_uops() {
        let mut cpu = engine();
        let d = cpu.alloc_reg();
        let tl = cpu.push(Uop::load(0x3000, d, &[])); // cold miss
        let e = cpu.alloc_reg();
        let ta = cpu.push(Uop::alu(1, Some(e), &[])); // independent
                                                      // The ALU op completes early but cannot retire before the load.
        assert!(ta.complete < tl.complete);
        assert!(ta.commit >= tl.commit);
    }

    #[test]
    fn mispredict_redirects_fetch() {
        let mut cpu = engine();
        let f = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(f), &[]));
        let tb = cpu.push(Uop::branch(true, &[f]));
        let d = cpu.alloc_reg();
        let tn = cpu.push(Uop::alu(1, Some(d), &[]));
        assert!(tn.fetch >= tb.complete + 15);
    }

    #[test]
    fn predicted_branch_is_cheap() {
        let mut cpu = engine();
        let f = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(f), &[]));
        cpu.push(Uop::branch(false, &[f]));
        let d = cpu.alloc_reg();
        let tn = cpu.push(Uop::alu(1, Some(d), &[]));
        assert_eq!(tn.fetch, 0, "predicted branch should not stall fetch");
    }

    #[test]
    fn rob_limits_runahead() {
        let mut cpu = Engine::new(
            CoreConfig {
                rob_size: 4,
                ..CoreConfig::haswell()
            },
            Hierarchy::default(),
        );
        // A long-latency cold load at the head of the window...
        let d = cpu.alloc_reg();
        let tl = cpu.push(Uop::load(0x4000, d, &[]));
        // ...followed by many independent ALU ops. With a 4-entry ROB the
        // 6th op cannot even fetch until the load commits.
        let mut last = None;
        for _ in 0..8 {
            let r = cpu.alloc_reg();
            last = Some(cpu.push(Uop::alu(1, Some(r), &[])));
        }
        assert!(last.unwrap().fetch >= tl.commit);
    }

    #[test]
    fn commit_is_width_limited_and_monotone() {
        let mut cpu = engine();
        let mut commits = Vec::new();
        for _ in 0..12 {
            let d = cpu.alloc_reg();
            commits.push(cpu.push(Uop::alu(1, Some(d), &[])).commit);
        }
        for w in commits.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // At most 4 retire in any single cycle.
        for &c in &commits {
            assert!(commits.iter().filter(|&&x| x == c).count() <= 4);
        }
    }

    #[test]
    fn prefetch_data_arrival_is_later_than_commit() {
        let mut cpu = engine();
        let t = cpu.push(Uop::prefetch(0x5000, &[]));
        assert!(t.commit <= t.ready + 2);
        assert_eq!(t.data_arrival(), t.ready + 230);
    }

    #[test]
    fn skip_to_cycle_moves_time_forward() {
        let mut cpu = engine();
        cpu.skip_to_cycle(1000);
        let d = cpu.alloc_reg();
        let t = cpu.push(Uop::alu(1, Some(d), &[]));
        assert!(t.fetch >= 1000);
        assert!(t.commit >= 1000);
    }

    #[test]
    fn stats_accumulate() {
        let mut cpu = engine();
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(0x0, d, &[]));
        cpu.push(Uop::store(0x40, &[d]));
        cpu.push(Uop::prefetch(0x80, &[]));
        cpu.push(Uop::branch(true, &[d]));
        let s = cpu.stats();
        assert_eq!(s.uops, 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.prefetches, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.mispredicts, 1);
    }

    #[test]
    fn cpi_stack_sums_to_elapsed_cycles() {
        let mut cpu = engine();
        let mut prev = None;
        for i in 0..200u64 {
            let d = cpu.alloc_reg();
            let t = if i % 7 == 0 {
                cpu.push(Uop::load(i * 64, d, &[]))
            } else {
                let srcs: Vec<Reg> = prev.into_iter().collect();
                cpu.push(Uop::alu(2, Some(d), &srcs))
            };
            let _ = t;
            prev = Some(d);
        }
        let stack = cpu.cpi_stack();
        assert_eq!(stack.total(), cpu.now(), "attribution must cover time");
        assert!(stack.memory > 0, "cold loads must charge memory cycles");
        assert!(stack.execute > 0, "alu chain must charge execute cycles");
    }

    #[test]
    fn memory_bound_code_charges_memory() {
        let mut cpu = engine();
        let mut prev: Option<Reg> = None;
        for i in 0..32u64 {
            let d = cpu.alloc_reg();
            let srcs: Vec<Reg> = prev.into_iter().collect();
            cpu.push(Uop::load(i * 1_000_000, d, &srcs));
            prev = Some(d);
        }
        let stack = cpu.cpi_stack();
        assert!(
            stack.memory as f64 > 0.8 * stack.total() as f64,
            "dependent cold loads should dominate: {stack:?}"
        );
    }

    #[derive(Debug, Default)]
    struct CollectSink {
        attributed: u64,
        events: u64,
        idle: u64,
    }

    impl crate::trace::TraceSink for CollectSink {
        fn on_retire(&mut self, event: &crate::trace::UopEvent) {
            self.attributed += event.stall.total();
            self.events += 1;
        }
        fn on_skip(&mut self, from: u64, to: u64) {
            self.idle += to - from;
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    fn mixed_stream(cpu: &mut Engine) -> Vec<UopTiming> {
        let mut timings = Vec::new();
        let mut prev: Option<Reg> = None;
        for i in 0..300u64 {
            let d = cpu.alloc_reg();
            let t = match i % 11 {
                0 => cpu.push(Uop::load(i * 64, d, &[])),
                1 => {
                    let srcs: Vec<Reg> = prev.into_iter().collect();
                    cpu.push(Uop::load(i * 1_024, d, &srcs))
                }
                2 => cpu.push(Uop::store(i * 64, &[])),
                3 => cpu.push(Uop::branch(i % 33 == 3, &[])),
                4 => cpu.push(Uop::prefetch(i * 4_096, &[])),
                _ => {
                    let srcs: Vec<Reg> = prev.into_iter().collect();
                    cpu.push(Uop::alu(1 + (i % 3) as u32, Some(d), &srcs))
                }
            };
            if i % 17 == 0 {
                let now = cpu.now();
                cpu.skip_to_cycle(now + 40);
            }
            prev = Some(d);
            timings.push(t);
        }
        timings
    }

    #[test]
    fn per_uop_stall_breakdowns_conserve_elapsed_cycles() {
        let mut cpu = engine();
        cpu.set_sink(Box::new(CollectSink::default()));
        mixed_stream(&mut cpu);
        let sink = cpu.take_sink().expect("sink installed");
        let sink = sink.into_any().downcast::<CollectSink>().unwrap();
        assert_eq!(sink.events, 300);
        assert_eq!(
            sink.attributed + sink.idle,
            cpu.now(),
            "per-µop breakdowns plus skips must cover every elapsed cycle"
        );
        // The CPI stack, charged directly, covers the same cycles.
        assert_eq!(cpu.cpi_stack().total() + sink.idle, cpu.now());
    }

    /// The CPI stack is charged straight from each µop's timeline, and the
    /// sink's breakdown is built from the same timeline only when a sink
    /// is attached. Projected slice by slice, the breakdowns must add up
    /// to exactly the CPI stack, on any ROB size.
    #[test]
    fn stall_breakdowns_project_onto_the_cpi_stack() {
        #[derive(Debug, Default)]
        struct ProjectSink(CpiStack);
        impl crate::trace::TraceSink for ProjectSink {
            fn on_retire(&mut self, event: &crate::trace::UopEvent) {
                let s = &event.stall;
                self.0.base += s.get(StallReason::Base);
                self.0.memory += s.memory();
                self.0.execute += s.get(StallReason::Execute);
                self.0.frontend += s.get(StallReason::Dataflow)
                    + s.get(StallReason::RobFull)
                    + s.get(StallReason::Frontend);
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        for rob_size in [3, 192] {
            let mut cpu = Engine::new(
                CoreConfig {
                    rob_size,
                    ..CoreConfig::haswell()
                },
                Hierarchy::default(),
            );
            cpu.set_sink(Box::new(ProjectSink::default()));
            mixed_stream(&mut cpu);
            let sink = cpu.take_sink().unwrap().into_any();
            let projected = sink.downcast::<ProjectSink>().unwrap().0;
            assert_eq!(projected, cpu.cpi_stack(), "rob_size {rob_size}");
            assert!(projected.memory > 0 && projected.execute > 0 && projected.frontend > 0);
        }
    }

    #[test]
    fn sink_is_observation_only() {
        let mut with = engine();
        with.set_sink(Box::new(CollectSink::default()));
        let a = mixed_stream(&mut with);
        let mut without = engine();
        let b = mixed_stream(&mut without);
        assert_eq!(a, b, "attaching a sink must not change any timing");
        assert_eq!(with.now(), without.now());
        assert_eq!(with.cpi_stack(), without.cpi_stack());
    }

    #[test]
    fn rob_full_cycles_are_attributed() {
        #[derive(Debug, Default)]
        struct ReasonSink(StallBreakdown);
        impl crate::trace::TraceSink for ReasonSink {
            fn on_retire(&mut self, event: &crate::trace::UopEvent) {
                self.0.merge(&event.stall);
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut cpu = Engine::new(
            CoreConfig {
                rob_size: 4,
                ..CoreConfig::haswell()
            },
            Hierarchy::default(),
        );
        cpu.set_sink(Box::new(ReasonSink::default()));
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(0x4000, d, &[])); // cold miss heads the window
        for _ in 0..16 {
            let r = cpu.alloc_reg();
            cpu.push(Uop::alu(1, Some(r), &[]));
        }
        let sink = cpu.take_sink().unwrap().into_any();
        let b = sink.downcast::<ReasonSink>().unwrap().0;
        assert!(
            b.get(StallReason::RobFull) > 0,
            "tiny ROB behind a cold miss must gate fetch: {b:?}"
        );
        assert!(b.get(StallReason::MemDram) > 0, "cold miss charges DRAM");
        assert_eq!(b.total(), cpu.now());
    }

    /// A long, statistically stationary µop stream: dependent ALU work,
    /// strided loads over a bounded working set, stores, branches and the
    /// occasional mispredict — the shape of allocator fast-path code.
    fn long_stream(cpu: &mut Engine, n: u64) {
        let mut prev: Option<Reg> = None;
        for i in 0..n {
            let d = cpu.alloc_reg();
            match i % 13 {
                0 => {
                    cpu.push(Uop::load((i % 512) * 64, d, &[]));
                }
                1 => {
                    let srcs: Vec<Reg> = prev.into_iter().collect();
                    cpu.push(Uop::load((i % 256) * 64 + 0x10_0000, d, &srcs));
                }
                2 => {
                    cpu.push(Uop::store((i % 128) * 64, &[]));
                }
                3 => {
                    cpu.push(Uop::branch(i % 91 == 3, &[]));
                }
                _ => {
                    let srcs: Vec<Reg> = prev.into_iter().collect();
                    cpu.push(Uop::alu(1 + (i % 3) as u32, Some(d), &srcs));
                }
            }
            if i % 37 == 0 {
                let now = cpu.now();
                cpu.skip_to_cycle(now + 25);
            }
            prev = Some(d);
        }
    }

    #[test]
    fn degenerate_plan_reproduces_full_run_exactly() {
        let mut full = engine();
        long_stream(&mut full, 3_000);
        let mut sampled = engine();
        // period <= warmup + detailed: every µop stays detailed.
        sampled.set_sampling(Some(crate::SamplingPlan::new(64, 64, 128).unwrap()));
        long_stream(&mut sampled, 3_000);
        assert_eq!(full.now(), sampled.now());
        assert_eq!(full.cpi_stack(), sampled.cpi_stack());
        assert_eq!(full.stats(), sampled.stats());
        let report = sampled.sampling_report().unwrap();
        assert_eq!(report.ff_uops, 0, "degenerate plans never fast-forward");
    }

    #[test]
    fn sampled_cpi_stack_conserves_elapsed_cycles() {
        let mut cpu = engine();
        cpu.set_sampling(Some(crate::SamplingPlan::new(32, 128, 1_024).unwrap()));
        long_stream(&mut cpu, 20_000);
        assert_eq!(
            cpu.cpi_stack().total() + cpu.skipped_cycles(),
            cpu.now(),
            "attributed + skipped must cover elapsed time in sampled mode"
        );
        let r = cpu.sampling_report().unwrap();
        assert!(r.ff_uops > 10_000, "most µops must fast-forward: {r:?}");
        assert!(r.windows.len() >= 15, "every period closes a window");
        assert_eq!(
            r.ff_uops + r.warmup_uops + r.measured_uops(),
            cpu.stats().uops
        );
    }

    #[test]
    fn sampled_execution_statistics_match_full_run() {
        let mut full = engine();
        long_stream(&mut full, 20_000);
        let mut sampled = engine();
        sampled.set_sampling(Some(crate::SamplingPlan::new(32, 128, 1_024).unwrap()));
        long_stream(&mut sampled, 20_000);
        assert_eq!(full.stats(), sampled.stats());
    }

    #[test]
    fn sampled_cpi_tracks_full_cpi() {
        let mut full = engine();
        long_stream(&mut full, 40_000);
        let mut sampled = engine();
        sampled.set_sampling(Some(crate::SamplingPlan::default_plan()));
        long_stream(&mut sampled, 40_000);
        let f = full.cpi_stack().total() as f64;
        let s = sampled.cpi_stack().total() as f64;
        let err = (s - f).abs() / f;
        assert!(
            err < 0.02,
            "sampled attributed cycles {s} vs full {f}: {:.2}% off",
            err * 100.0
        );
    }

    #[test]
    fn sampled_sink_accounting_still_covers_elapsed_time() {
        let mut cpu = engine();
        cpu.set_sampling(Some(crate::SamplingPlan::new(16, 64, 512).unwrap()));
        cpu.set_sink(Box::new(CollectSink::default()));
        long_stream(&mut cpu, 10_000);
        let sink = cpu.take_sink().expect("sink installed");
        let sink = sink.into_any().downcast::<CollectSink>().unwrap();
        // Fast-forward regions fold into on_skip by default, so the
        // skip-aware invariant holds under sampling too.
        assert_eq!(sink.attributed + sink.idle, cpu.now());
        assert!(sink.events < 10_000, "ff µops must not emit retire events");
    }

    #[test]
    fn set_sampling_none_resumes_detailed_execution() {
        let mut cpu = engine();
        cpu.set_sampling(Some(crate::SamplingPlan::new(0, 16, 256).unwrap()));
        long_stream(&mut cpu, 2_000);
        cpu.set_sampling(None);
        assert!(cpu.sampling_plan().is_none());
        let before = cpu.stats().uops;
        let d = cpu.alloc_reg();
        let t = cpu.push(Uop::load(0x42_0000, d, &[]));
        assert!(t.mem.is_some(), "detailed µops carry memory results");
        assert_eq!(cpu.stats().uops, before + 1);
    }

    #[test]
    fn ipc_of_microbenchmark_like_code_is_high() {
        // Mirrors the paper's observation that back-to-back allocation
        // microbenchmark code reaches IPC ≈ 3 on a 4-wide core: mostly
        // independent short ops with an occasional dependent load.
        let mut cpu = engine();
        for i in 0..64u64 {
            cpu.mem_mut().warm(i * 64);
        }
        let n = 400;
        let mut last = 0;
        for i in 0..n {
            let d = cpu.alloc_reg();
            let t = if i % 4 == 0 {
                cpu.push(Uop::load((i as u64 % 64) * 64, d, &[]))
            } else {
                cpu.push(Uop::alu(1, Some(d), &[]))
            };
            last = t.commit;
        }
        let ipc = n as f64 / last as f64;
        assert!(ipc > 2.0, "ipc too low: {ipc}");
    }
}
