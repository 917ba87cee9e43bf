//! The TCMalloc-per-CPU substrate.
//!
//! Same size classes as the paper's baseline, different fast path: the
//! rseq per-CPU array cache replaces the TLS linked list. A pop is a
//! cpu-id read, a header load, an array-slot load and a header store —
//! the slot load is *independent* of the header load (both address off
//! the slab base), so the dependent-load chain `mchdpop` was built to
//! cut simply is not there. The size-class table loads and the sampling
//! countdown, however, are TCMalloc's — `mcszlookup` and the sampling
//! optimisation keep their targets.
//!
//! The integration mirrors jemalloc's ([`mallacc_jemalloc::JeSubstrate`]):
//! requested-size keying and array-top caching via `sync_list`. A context
//! switch migrates the thread to the next CPU's slab set.

use mallacc::{
    programs as prog, CallLabel, CallRecord, Driver, Machine, PopResult, PostList, Substrate,
};
use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Engine, Reg, Uop};

use crate::percpu::{
    pc_layout, PcFreeOutcome, PcFreePath, PcMallocOutcome, PcMallocPath, PerCpuMalloc,
};

/// Classification of a simulated per-CPU call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcCallKind {
    /// Slab-array pop.
    MallocFast,
    /// Slab refill (central fetch and/or carve).
    MallocRefill,
    /// Page-level allocation.
    MallocLarge,
    /// Slab-array push.
    FreeFast,
    /// Push that drained half the array to the central list.
    FreeDrain,
    /// Page-level free.
    FreeLarge,
}

impl CallLabel for PcCallKind {
    fn label(self) -> &'static str {
        match self {
            PcCallKind::MallocFast => "malloc_fast",
            PcCallKind::MallocRefill => "malloc_refill",
            PcCallKind::MallocLarge => "malloc_large",
            PcCallKind::FreeFast => "free_fast",
            PcCallKind::FreeDrain => "free_drain",
            PcCallKind::FreeLarge => "free_large",
        }
    }
}

/// The per-CPU TCMalloc simulator.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_substrate::{PcSim, PcCallKind};
///
/// let mut sim = PcSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, PcCallKind::MallocFast);
/// ```
pub type PcSim = Driver<PcSubstrate>;

/// The per-CPU model as a [`Substrate`].
#[derive(Debug)]
pub struct PcSubstrate {
    alloc: PerCpuMalloc,
}

impl Default for PcSubstrate {
    fn default() -> Self {
        Self {
            alloc: PerCpuMalloc::new(2),
        }
    }
}

/// TCMalloc's sampling countdown, unchanged in the per-CPU build.
const SAMPLE_COUNTER: Addr = pc_layout::SLAB_BASE - 0x40;

/// One CPU's slab array of one size class, as the emitters address it.
#[derive(Debug, Clone, Copy)]
struct Slab {
    cpu: usize,
    class: u8,
    num_classes: usize,
}

impl Slab {
    fn header(self) -> Addr {
        pc_layout::slab_header(self.cpu, self.class, self.num_classes)
    }

    fn slot(self, idx: u64) -> Addr {
        pc_layout::slab_slot(self.cpu, self.class, self.num_classes, idx as usize)
    }
}

impl PcSubstrate {
    /// `cpu`'s slab of class `raw`.
    fn slab(&self, cpu: usize, raw: u16) -> Slab {
        Slab {
            cpu,
            class: raw as u8,
            num_classes: self.alloc.classes().num_classes(),
        }
    }
}

fn raw_class(class: Option<mallacc_tcmalloc::ClassId>) -> Option<u16> {
    class.map(|c| u16::from(c.as_u8()))
}

impl Substrate for PcSubstrate {
    type Alloc = PerCpuMalloc;
    type Kind = PcCallKind;
    type MallocOutcome = PcMallocOutcome;
    type FreeOutcome = PcFreeOutcome;

    fn allocator(&self) -> &PerCpuMalloc {
        &self.alloc
    }

    fn malloc(&mut self, size: u64) -> (PcMallocOutcome, PostList) {
        let outcome = self.alloc.malloc(size);
        let post = PostList {
            head: outcome.post_head,
            next: outcome.post_next,
        };
        (outcome, post)
    }

    fn free(&mut self, ptr: Addr, sized: bool) -> (PcFreeOutcome, PostList) {
        let outcome = self.alloc.free(ptr, sized);
        let post = outcome.class.map_or_else(PostList::default, |c| {
            let (head, next) = self.alloc.slab_top2(c);
            PostList { head, next }
        });
        (outcome, post)
    }

    /// Migrates to the next CPU's slab set.
    fn context_switch(&mut self) {
        self.alloc.context_switch();
    }

    fn malloc_record(outcome: &PcMallocOutcome) -> CallRecord<PcCallKind> {
        let kind = match &outcome.path {
            PcMallocPath::SlabHit { .. } => PcCallKind::MallocFast,
            PcMallocPath::SlabRefill { .. } => PcCallKind::MallocRefill,
            PcMallocPath::Large { .. } => PcCallKind::MallocLarge,
        };
        CallRecord::untimed(
            kind,
            outcome.ptr,
            outcome.requested,
            raw_class(outcome.class),
        )
    }

    fn free_record(outcome: &PcFreeOutcome) -> CallRecord<PcCallKind> {
        let kind = match &outcome.path {
            PcFreePath::SlabPush { .. } => PcCallKind::FreeFast,
            PcFreePath::SlabDrain { .. } => PcCallKind::FreeDrain,
            PcFreePath::Large { .. } => PcCallKind::FreeLarge,
        };
        CallRecord::untimed(
            kind,
            outcome.ptr,
            outcome.alloc_size,
            raw_class(outcome.class),
        )
    }

    fn malloc_service(outcome: &PcMallocOutcome) -> ServicePath {
        match &outcome.path {
            PcMallocPath::SlabHit { .. } => ServicePath::MallocFast,
            PcMallocPath::SlabRefill {
                from_central,
                carved,
                grew,
            } => {
                let batch = (from_central + carved).max(1);
                if *grew {
                    ServicePath::MallocOs {
                        batch,
                        objects: *carved,
                        pages: 1,
                    }
                } else if *carved > 0 {
                    ServicePath::MallocSpan {
                        batch,
                        objects: *carved,
                        pages: 1,
                    }
                } else {
                    ServicePath::MallocCentral { batch }
                }
            }
            PcMallocPath::Large { pages, grew } => ServicePath::MallocLarge {
                pages: *pages,
                grew_heap: *grew,
            },
        }
    }

    fn free_service(outcome: &PcFreeOutcome) -> ServicePath {
        let unsized_walk = outcome.pagemap.is_some();
        match &outcome.path {
            PcFreePath::SlabPush { .. } => ServicePath::FreeFast { unsized_walk },
            PcFreePath::SlabDrain { moved } => ServicePath::FreeRelease {
                moved: *moved,
                unsized_walk,
            },
            PcFreePath::Large { pages } => ServicePath::FreeLarge { pages: *pages },
        }
    }

    fn emit_malloc(&mut self, m: &mut Machine, outcome: &PcMallocOutcome, post: PostList) {
        let size_reg = prog::emit_prologue(&mut m.cpu, 4);
        match &outcome.path {
            PcMallocPath::Large { pages, grew } => emit_large(&mut m.cpu, *pages, *grew),
            PcMallocPath::SlabHit { depth } => {
                let raw = raw_class(outcome.class).expect("small path");
                let slab = self.slab(outcome.cpu, raw);
                let cls_reg =
                    emit_size_class(m, size_reg, outcome.requested, outcome.alloc_size, raw);
                m.emit_sampling(SAMPLE_COUNTER, cls_reg, false);
                if m.limit().push_pop {
                    prog::emit_overhead(&mut m.cpu, 1);
                } else if m.accel().is_some_and(|a| a.list_opt) {
                    let (pop, result) = m.mchdpop(raw, cls_reg, None);
                    match result {
                        PopResult::Hit { head, next } => {
                            debug_assert_eq!(head, outcome.ptr, "per-cpu cache pop mismatch");
                            debug_assert_eq!(Some(next), post.head);
                            m.cpu.push(Uop::store(slab.header(), &[pop]));
                        }
                        PopResult::Miss => {
                            emit_pop_sw(&mut m.cpu, slab, *depth, cls_reg);
                        }
                    }
                    if m.accel().is_some_and(|a| a.prefetch) {
                        // The array is contiguous: reconstruct the cached
                        // pair with one cheap slot load + two pushes.
                        if let Some(new_top) = post.head {
                            let below = slab.slot(depth.saturating_sub(2));
                            m.repush_pair(raw, Some(below), pop, new_top, post.next);
                        }
                    }
                } else {
                    emit_pop_sw(&mut m.cpu, slab, *depth, cls_reg);
                }
            }
            PcMallocPath::SlabRefill {
                from_central,
                carved,
                grew,
            } => {
                let raw = raw_class(outcome.class).expect("small path");
                let slab = self.slab(outcome.cpu, raw);
                let cls_reg =
                    emit_size_class(m, size_reg, outcome.requested, outcome.alloc_size, raw);
                m.emit_sampling(SAMPLE_COUNTER, cls_reg, false);
                m.cpu.push(Uop::branch(true, &[cls_reg]));
                emit_refill(&mut m.cpu, slab, *from_central, *carved, *grew);
                emit_pop_sw(&mut m.cpu, slab, from_central + carved, cls_reg);
                m.resync(raw, post);
            }
        }
        let large = matches!(outcome.path, PcMallocPath::Large { .. });
        prog::emit_overhead(&mut m.cpu, if large { 6 } else { 4 });
    }

    fn emit_free(&mut self, m: &mut Machine, outcome: &PcFreeOutcome, post: PostList) {
        let ptr_reg = prog::emit_prologue(&mut m.cpu, 3);
        match &outcome.path {
            PcFreePath::Large { pages } => emit_large(&mut m.cpu, *pages, false),
            PcFreePath::SlabPush { depth } => {
                let raw = raw_class(outcome.class).expect("small path");
                let cls_reg = emit_free_class(m, ptr_reg, outcome, raw);
                if !m.limit().push_pop {
                    if m.accel().is_some_and(|a| a.list_opt) {
                        m.mchdpush(raw, outcome.ptr, cls_reg);
                    }
                    let slab = self.slab(outcome.cpu, raw);
                    emit_push_sw(&mut m.cpu, slab, *depth, ptr_reg, cls_reg);
                }
            }
            PcFreePath::SlabDrain { moved } => {
                let raw = raw_class(outcome.class).expect("small path");
                let cls_reg = emit_free_class(m, ptr_reg, outcome, raw);
                m.cpu.push(Uop::branch(true, &[cls_reg]));
                // Drain: central lock, then stream the bottom half out.
                let lock = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(30, Some(lock), &[cls_reg]));
                let mut dep = lock;
                for i in 0..*moved {
                    let d = m.cpu.alloc_reg();
                    m.cpu.push(Uop::alu(1, Some(d), &[dep]));
                    m.cpu
                        .push(Uop::store(pc_layout::CENTRAL_BASE + i * 8, &[d]));
                    dep = d;
                }
                let depth = 1 + pc_layout::SLAB_CAP as u64 / 2;
                emit_push_sw(&mut m.cpu, self.slab(outcome.cpu, raw), depth, ptr_reg, dep);
                // Half the array left with the drain; resync the pair.
                m.resync(raw, post);
            }
        }
        let large = matches!(outcome.path, PcFreePath::Large { .. });
        prog::emit_overhead(&mut m.cpu, if large { 5 } else { 3 });
    }
}

/// The malloc-side size-class component under the machine's mode.
fn emit_size_class(m: &mut Machine, dep: Reg, key: u64, alloc_size: u64, raw: u16) -> Reg {
    m.emit_size_class(key, alloc_size, raw, dep, None, emit_class_sw)
}

/// The free-side class discovery: sized deletes use the table, unsized
/// ones walk the pagemap (two dependent loads).
fn emit_free_class(m: &mut Machine, ptr_reg: Reg, outcome: &PcFreeOutcome, raw: u16) -> Reg {
    match outcome.pagemap {
        Some(nodes) => prog::emit_pagemap_walk(&mut m.cpu, nodes, ptr_reg),
        None => emit_size_class(m, ptr_reg, outcome.alloc_size, outcome.alloc_size, raw),
    }
}

/// TCMalloc's two dependent table loads (Figure 5's class-index array
/// then the class array).
fn emit_class_sw(cpu: &mut Engine, size_reg: Reg) -> Reg {
    let idx = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(idx), &[size_reg]));
    let a = cpu.alloc_reg();
    cpu.push(Uop::load(pc_layout::STATIC_BASE, a, &[idx]));
    let b = cpu.alloc_reg();
    cpu.push(Uop::load(pc_layout::STATIC_BASE + 0x1000, b, &[a]));
    cpu.push(Uop::branch(false, &[b]));
    b
}

/// The rseq pop from a slab `depth` deep: cpu-id read, slab-header load,
/// slot load (address computed from the header — but served from the same
/// cache line region, not chased through the block), header store.
fn emit_pop_sw(cpu: &mut Engine, slab: Slab, depth: u64, dep: Reg) -> Reg {
    let id = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(id), &[dep]));
    let hdr = cpu.alloc_reg();
    cpu.push(Uop::load(slab.header(), hdr, &[id]));
    cpu.push(Uop::branch(false, &[hdr]));
    let ptr = cpu.alloc_reg();
    cpu.push(Uop::load(slab.slot(depth.saturating_sub(1)), ptr, &[hdr]));
    cpu.push(Uop::store(slab.header(), &[hdr]));
    ptr
}

/// The rseq push of `ptr_reg` onto a slab left `depth_after` deep.
fn emit_push_sw(cpu: &mut Engine, slab: Slab, depth_after: u64, ptr_reg: Reg, dep: Reg) {
    let id = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(id), &[dep]));
    let hdr = cpu.alloc_reg();
    cpu.push(Uop::load(slab.header(), hdr, &[id]));
    cpu.push(Uop::branch(false, &[hdr]));
    let slot = slab.slot(depth_after.saturating_sub(1));
    cpu.push(Uop::store(slot, &[ptr_reg, hdr]));
    cpu.push(Uop::store(slab.header(), &[hdr]));
}

/// Slab refill: central-list lock, OS growth, the central fetch and the
/// carve, streamed into the slab, then the header store.
fn emit_refill(cpu: &mut Engine, slab: Slab, from_central: u64, carved: u64, grew: bool) {
    let lock = cpu.alloc_reg();
    cpu.push(Uop::alu(30, Some(lock), &[]));
    prog::emit_os_growth(cpu, grew);
    let mut dep = lock;
    for i in 0..from_central {
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(pc_layout::CENTRAL_BASE + i * 8, d, &[dep]));
        cpu.push(Uop::store(slab.slot(i), &[d]));
        dep = d;
    }
    for i in 0..carved {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(d), &[dep]));
        cpu.push(Uop::store(slab.slot(from_central + i), &[d]));
        dep = d;
    }
    cpu.push(Uop::store(slab.header(), &[dep]));
}

fn emit_large(cpu: &mut Engine, pages: u64, grew: bool) {
    let lock = cpu.alloc_reg();
    cpu.push(Uop::alu(30, Some(lock), &[]));
    prog::emit_os_growth(cpu, grew);
    let mut dep = lock;
    for p in (0..pages).step_by(16) {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(d), &[dep]));
        cpu.push(Uop::store(pc_layout::PAGEMAP_BASE + p * 16, &[d]));
        dep = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::Mode;

    fn warm_rotating(sim: &mut PcSim, n: usize) {
        for i in 0..n {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn baseline_fast_path_is_fast() {
        let mut sim = PcSim::new(Mode::Baseline);
        warm_rotating(&mut sim, 100);
        sim.reset_totals();
        warm_rotating(&mut sim, 400);
        let t = sim.totals();
        let per = t.malloc_cycles as f64 / t.malloc_calls as f64;
        assert!((6.0..=24.0).contains(&per), "per-cpu fast malloc = {per}");
    }

    #[test]
    fn mallacc_accelerates_the_percpu_build() {
        let run = |mode: Mode| {
            let mut sim = PcSim::new(mode);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            warm_rotating(&mut sim, 600);
            let t = sim.totals();
            t.allocator_cycles() as f64 / (t.malloc_calls + t.free_calls) as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        assert!(
            accel < base,
            "mallacc should not slow the per-cpu build down: {base} → {accel}"
        );
    }

    #[test]
    fn cache_pops_hit_after_warmup() {
        let mut sim = PcSim::new(Mode::mallacc_default());
        warm_rotating(&mut sim, 200);
        let s = sim.malloc_cache().stats();
        assert!(s.pop_hits > 50, "pop hits {}", s.pop_hits);
    }

    #[test]
    fn context_switch_moves_cpus_and_flushes() {
        let mut sim = PcSim::new(Mode::mallacc_default());
        warm_rotating(&mut sim, 50);
        assert_eq!(sim.allocator().cur_cpu(), 0);
        sim.context_switch(1000);
        assert_eq!(sim.allocator().cur_cpu(), 1);
        // The other CPU's slab is cold: first malloc refills.
        let r = sim.malloc(64);
        assert_eq!(r.kind, PcCallKind::MallocRefill);
    }

    #[test]
    fn unsized_free_pays_the_pagemap() {
        let run = |sized: bool| {
            let mut sim = PcSim::new(Mode::Baseline);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            for _ in 0..200 {
                let r = sim.malloc(64);
                sim.free(r.ptr, sized);
            }
            sim.totals().free_cycles
        };
        assert!(run(false) > run(true));
    }

    #[test]
    fn drains_are_classified() {
        let mut sim = PcSim::new(Mode::Baseline);
        let ptrs: Vec<Addr> = (0..200).map(|_| sim.malloc(64).ptr).collect();
        let kinds: Vec<PcCallKind> = ptrs.iter().map(|&p| sim.free(p, true).kind).collect();
        assert!(
            kinds.contains(&PcCallKind::FreeDrain),
            "no drain in {kinds:?}"
        );
    }

    #[test]
    fn sampling_consts_match_tcmalloc() {
        assert_eq!(mallacc_tcmalloc::consts::PAGE_SIZE, 8 * 1024);
    }
}
