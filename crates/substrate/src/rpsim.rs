//! The rpmalloc substrate: Mallacc and SpeedMalloc-style offload over a
//! lock-free fast path.
//!
//! This is the substrate the paper could not evaluate: rpmalloc's fast
//! path has no size-class table loads (pure arithmetic), no pagemap walk
//! on free (an address mask recovers the span), and no locks (span
//! single-ownership plus deferred cross-thread lists). What *remains* is
//! the dependent-load chain through free blocks — exactly the structure
//! `mchdpop` caches — so the malloc cache still has a target, just a
//! smaller share of the call.
//!
//! The integration mirrors jemalloc's ([`mallacc_jemalloc::JeSubstrate`]):
//! requested-size keying (no Figure 5 index hardware here), cache pushes
//! only for frees landing on the *active* span (the only list the next pop
//! consults), `sync_list` resyncs on span installs and deferred adoptions.
//! Foreign frees take thread 1's deferred-list path.

use mallacc::{
    programs as prog, CallLabel, CallRecord, Driver, Machine, PopResult, PostList, Substrate,
};
use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Engine, Reg, Uop};

use crate::rpmalloc::{
    rp_layout, RpFreeOutcome, RpFreePath, RpMalloc, RpMallocOutcome, RpMallocPath,
};

/// Classification of a simulated rpmalloc call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpCallKind {
    /// Local free-list pop or bump carve.
    MallocFast,
    /// Deferred-list adoption.
    MallocAdopt,
    /// Span install (partial reuse or fresh mapping).
    MallocSpan,
    /// Whole-span allocation.
    MallocLarge,
    /// Owner free onto the span's local list.
    FreeFast,
    /// Foreign free onto the span's deferred list.
    FreeDeferred,
    /// Whole-span free.
    FreeLarge,
}

impl CallLabel for RpCallKind {
    fn label(self) -> &'static str {
        match self {
            RpCallKind::MallocFast => "malloc_fast",
            RpCallKind::MallocAdopt => "malloc_adopt",
            RpCallKind::MallocSpan => "malloc_span",
            RpCallKind::MallocLarge => "malloc_large",
            RpCallKind::FreeFast => "free_fast",
            RpCallKind::FreeDeferred => "free_deferred",
            RpCallKind::FreeLarge => "free_large",
        }
    }
}

/// The rpmalloc simulator.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_substrate::{RpSim, RpCallKind};
///
/// let mut sim = RpSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, RpCallKind::MallocFast);
/// ```
pub type RpSim = Driver<RpSubstrate>;

/// The rpmalloc model as a [`Substrate`].
#[derive(Debug)]
pub struct RpSubstrate {
    alloc: RpMalloc,
}

impl Default for RpSubstrate {
    fn default() -> Self {
        // Thread 0 runs the app; thread 1 stands in for every foreign
        // thread whose frees land on the deferred lists.
        Self {
            alloc: RpMalloc::new(2),
        }
    }
}

/// Span pages as the helper core's cost model counts them.
const SPAN_PAGES: u64 = rp_layout::SPAN_SIZE / 8192;

impl Substrate for RpSubstrate {
    type Alloc = RpMalloc;
    type Kind = RpCallKind;
    type MallocOutcome = RpMallocOutcome;
    type FreeOutcome = RpFreeOutcome;

    fn allocator(&self) -> &RpMalloc {
        &self.alloc
    }

    fn malloc(&mut self, size: u64) -> (RpMallocOutcome, PostList) {
        let outcome = self.alloc.malloc_on(0, size);
        let post = PostList {
            head: outcome.post_head,
            next: outcome.post_next,
        };
        (outcome, post)
    }

    fn free(&mut self, ptr: Addr, sized: bool) -> (RpFreeOutcome, PostList) {
        (self.alloc.free_on(0, ptr, sized), PostList::default())
    }

    /// A foreign thread pushing the block onto its span's deferred list.
    fn free_foreign(&mut self, ptr: Addr, sized: bool) -> (RpFreeOutcome, PostList) {
        (self.alloc.free_on(1, ptr, sized), PostList::default())
    }

    fn malloc_record(outcome: &RpMallocOutcome) -> CallRecord<RpCallKind> {
        let kind = match &outcome.path {
            RpMallocPath::LocalHit { .. } | RpMallocPath::Carve { .. } => RpCallKind::MallocFast,
            RpMallocPath::DeferredAdopt { .. } => RpCallKind::MallocAdopt,
            RpMallocPath::NewSpan { .. } => RpCallKind::MallocSpan,
            RpMallocPath::Large { .. } => RpCallKind::MallocLarge,
        };
        CallRecord::untimed(kind, outcome.ptr, outcome.requested, outcome.class)
    }

    fn free_record(outcome: &RpFreeOutcome) -> CallRecord<RpCallKind> {
        let kind = match &outcome.path {
            RpFreePath::Local { .. } => RpCallKind::FreeFast,
            RpFreePath::Deferred { .. } => RpCallKind::FreeDeferred,
            RpFreePath::Large { .. } => RpCallKind::FreeLarge,
        };
        CallRecord::untimed(kind, outcome.ptr, outcome.alloc_size, outcome.class)
    }

    fn malloc_service(outcome: &RpMallocOutcome) -> ServicePath {
        match &outcome.path {
            RpMallocPath::LocalHit { .. } | RpMallocPath::Carve { .. } => ServicePath::MallocFast,
            RpMallocPath::DeferredAdopt { adopted } => ServicePath::MallocCentral {
                batch: (*adopted).max(1),
            },
            RpMallocPath::NewSpan { grew: true, .. } => ServicePath::MallocOs {
                batch: 1,
                objects: 1,
                pages: SPAN_PAGES,
            },
            RpMallocPath::NewSpan { grew: false, .. } => ServicePath::MallocSpan {
                batch: 1,
                objects: 1,
                pages: SPAN_PAGES,
            },
            RpMallocPath::Large { spans, grew } => ServicePath::MallocLarge {
                pages: spans * SPAN_PAGES,
                grew_heap: *grew,
            },
        }
    }

    fn free_service(outcome: &RpFreeOutcome) -> ServicePath {
        match &outcome.path {
            // The address mask makes unsized frees cost-identical.
            RpFreePath::Local { .. } | RpFreePath::Deferred { .. } => ServicePath::FreeFast {
                unsized_walk: false,
            },
            RpFreePath::Large { spans } => ServicePath::FreeLarge {
                pages: spans * SPAN_PAGES,
            },
        }
    }

    fn emit_malloc(&mut self, m: &mut Machine, outcome: &RpMallocOutcome, post: PostList) {
        let size_reg = prog::emit_prologue(&mut m.cpu, 4);
        match &outcome.path {
            RpMallocPath::Large { spans, grew } => emit_large(&mut m.cpu, *spans, *grew),
            RpMallocPath::LocalHit { .. } => {
                let raw = outcome.class.expect("small path");
                let span = outcome.span.expect("small path");
                let cls_reg = emit_size_class(m, size_reg, outcome);
                let heap = emit_heap_entry(&mut m.cpu, raw, cls_reg);
                if m.limit().push_pop {
                    prog::emit_overhead(&mut m.cpu, 1);
                } else if m.accel().is_some_and(|a| a.list_opt) {
                    let (pop, result) = m.mchdpop(raw, heap, None);
                    let pop_hit = matches!(result, PopResult::Hit { .. });
                    let head_reg = match result {
                        PopResult::Hit { head, next } => {
                            debug_assert_eq!(head, outcome.ptr, "rpmalloc cache pop mismatch");
                            debug_assert_eq!(Some(next), post.head);
                            m.cpu.push(Uop::store(rp_layout::span_header(span), &[pop]));
                            pop
                        }
                        PopResult::Miss => emit_pop_sw(&mut m.cpu, span, outcome.ptr, heap),
                    };
                    if m.accel().is_some_and(|a| a.prefetch) {
                        if let Some(new_top) = post.head {
                            // After a hit the pop consumed the cached pair:
                            // refill by chasing one load for the entry under
                            // the new top. After a miss the software pop
                            // already loaded it. rpmalloc's fast path is too
                            // short to hide a blocking mcnxtprefetch (the
                            // Figure 17 tp effect), so the refill stays in
                            // the ordinary load pipeline.
                            let reload = pop_hit.then_some(new_top);
                            m.repush_pair(raw, reload, head_reg, new_top, post.next);
                        }
                    }
                } else {
                    emit_pop_sw(&mut m.cpu, span, outcome.ptr, heap);
                }
            }
            RpMallocPath::Carve { .. } => {
                let raw = outcome.class.expect("small path");
                let cls_reg = emit_size_class(m, size_reg, outcome);
                let heap = emit_heap_entry(&mut m.cpu, raw, cls_reg);
                // Bump carve: offset add, counter increment, header store —
                // no memory chain at all.
                let off = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(1, Some(off), &[heap]));
                let ctr = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(1, Some(ctr), &[off]));
                m.cpu.push(Uop::branch(false, &[ctr]));
                if let Some(span) = outcome.span {
                    m.cpu.push(Uop::store(rp_layout::span_header(span), &[ctr]));
                }
            }
            RpMallocPath::DeferredAdopt { .. } => {
                let cls_reg = emit_size_class(m, size_reg, outcome);
                let span = outcome.span.expect("small path");
                let raw = outcome.class.expect("small path");
                // Atomic exchange of the deferred head (rare branch), then
                // the adopted list serves like a local one.
                let heap = emit_heap_entry(&mut m.cpu, raw, cls_reg);
                m.cpu.push(Uop::branch(true, &[heap]));
                let xchg = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(8, Some(xchg), &[heap]));
                emit_pop_sw(&mut m.cpu, span, outcome.ptr, xchg);
                m.resync(raw, post);
            }
            RpMallocPath::NewSpan { reused, grew } => {
                let cls_reg = emit_size_class(m, size_reg, outcome);
                m.cpu.push(Uop::branch(true, &[cls_reg]));
                prog::emit_os_growth(&mut m.cpu, *grew);
                // Span install: unlink from the partial/reserve list, write
                // the header, point the heap's class entry at it.
                let mut dep = cls_reg;
                let loads = if *reused { 2 } else { 1 };
                for _ in 0..loads {
                    let d = m.cpu.alloc_reg();
                    m.cpu.push(Uop::load(rp_layout::STATIC_BASE, d, &[dep]));
                    dep = d;
                }
                for _ in 0..8 {
                    let d = m.cpu.alloc_reg();
                    m.cpu.push(Uop::alu(1, Some(d), &[dep]));
                    dep = d;
                }
                if let Some(span) = outcome.span {
                    m.cpu.push(Uop::store(rp_layout::span_header(span), &[dep]));
                }
                if let Some(raw) = outcome.class {
                    m.cpu
                        .push(Uop::store(rp_layout::heap_class_entry(raw), &[dep]));
                    m.resync(raw, post);
                }
            }
        }
        let large = matches!(outcome.path, RpMallocPath::Large { .. });
        prog::emit_overhead(&mut m.cpu, if large { 5 } else { 4 });
    }

    fn emit_free(&mut self, m: &mut Machine, outcome: &RpFreeOutcome, _post: PostList) {
        let ptr_reg = prog::emit_prologue(&mut m.cpu, 3);
        match &outcome.path {
            RpFreePath::Large { spans } => emit_large(&mut m.cpu, *spans, false),
            RpFreePath::Local { to_active, .. } => {
                let span = outcome.span.expect("small path");
                let raw = outcome.class.expect("small path");
                let owner = emit_span_owner(&mut m.cpu, span, ptr_reg);
                if !m.limit().push_pop {
                    if *to_active && m.accel().is_some_and(|a| a.list_opt) {
                        m.mchdpush(raw, outcome.ptr, owner);
                    }
                    // Software push: write the old head into the block,
                    // repoint the span's list head.
                    m.cpu.push(Uop::store(outcome.ptr, &[owner]));
                    m.cpu
                        .push(Uop::store(rp_layout::span_header(span), &[owner]));
                }
            }
            RpFreePath::Deferred { .. } => {
                let span = outcome.span.expect("small path");
                let owner = emit_span_owner(&mut m.cpu, span, ptr_reg);
                // CAS loop on the deferred head (uncontended here).
                let cas = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(8, Some(cas), &[owner]));
                m.cpu.push(Uop::store(outcome.ptr, &[cas]));
            }
        }
        let large = matches!(outcome.path, RpFreePath::Large { .. });
        prog::emit_overhead(&mut m.cpu, if large { 4 } else { 3 });
    }
}

/// The size-class component under the machine's mode. With no memory
/// accesses to hide, `mcszlookup` can at best shave one ALU op here.
fn emit_size_class(m: &mut Machine, size_reg: Reg, outcome: &RpMallocOutcome) -> Reg {
    let raw = outcome.class.expect("small path");
    m.emit_size_class(
        outcome.requested,
        outcome.alloc_size,
        raw,
        size_reg,
        None,
        emit_class_sw,
    )
}

/// rpmalloc's size→class: two ALU ops (round, shift) — no table load.
fn emit_class_sw(cpu: &mut Engine, size_reg: Reg) -> Reg {
    let a = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(a), &[size_reg]));
    let b = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(b), &[a]));
    cpu.push(Uop::branch(false, &[b]));
    b
}

/// `ptr & SPAN_MASK`: one ALU op, sized and unsized alike — the lookup
/// the malloc cache cannot improve on — then the span header's owner load.
fn emit_span_owner(cpu: &mut Engine, span: Addr, ptr_reg: Reg) -> Reg {
    let mask = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(mask), &[ptr_reg]));
    let owner = cpu.alloc_reg();
    cpu.push(Uop::load(rp_layout::span_header(span), owner, &[mask]));
    cpu.push(Uop::branch(false, &[owner]));
    owner
}

/// The heap's class-entry load that locates the active span.
fn emit_heap_entry(cpu: &mut Engine, raw: u16, cls_reg: Reg) -> Reg {
    let heap = cpu.alloc_reg();
    cpu.push(Uop::load(
        rp_layout::heap_class_entry(raw),
        heap,
        &[cls_reg],
    ));
    heap
}

/// The software list pop: head load from the span header, then the
/// dependent chase through the block for the next pointer — the one
/// memory chain rpmalloc's fast path retains. The free list is intrusive
/// (threaded through the blocks), so the chase lands on the popped block
/// itself, not the hot span header.
fn emit_pop_sw(cpu: &mut Engine, span: Addr, block: Addr, heap_reg: Reg) -> Reg {
    let head = cpu.alloc_reg();
    cpu.push(Uop::load(rp_layout::span_header(span), head, &[heap_reg]));
    cpu.push(Uop::branch(false, &[head]));
    let next = cpu.alloc_reg();
    cpu.push(Uop::load(block, next, &[head]));
    cpu.push(Uop::store(rp_layout::span_header(span), &[next]));
    head
}

fn emit_large(cpu: &mut Engine, spans: u64, grew: bool) {
    let d = cpu.alloc_reg();
    cpu.push(Uop::load(rp_layout::STATIC_BASE, d, &[]));
    prog::emit_os_growth(cpu, grew);
    let mut dep = d;
    for _ in 0..spans.min(8) {
        let s = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(s), &[dep]));
        dep = s;
    }
    cpu.push(Uop::store(rp_layout::STATIC_BASE, &[dep]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::Mode;

    fn warm_rotating(sim: &mut RpSim, n: usize) {
        for i in 0..n {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
        }
    }

    /// Builds a deep free list first: the malloc cache's head/next pair
    /// only completes when the list holds at least two entries.
    fn churn_deep(sim: &mut RpSim, n: usize) {
        let ptrs: Vec<Addr> = (0..16).map(|_| sim.malloc(64).ptr).collect();
        for p in ptrs {
            sim.free(p, true);
        }
        for _ in 0..n {
            let r = sim.malloc(64);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn baseline_fast_path_is_faster_than_tcmalloc_era() {
        let mut sim = RpSim::new(Mode::Baseline);
        warm_rotating(&mut sim, 100);
        sim.reset_totals();
        warm_rotating(&mut sim, 400);
        let t = sim.totals();
        let per = t.malloc_cycles as f64 / t.malloc_calls as f64;
        assert!((3.0..=18.0).contains(&per), "rpmalloc fast malloc = {per}");
    }

    #[test]
    fn mallacc_does_not_slow_rpmalloc_down() {
        let run = |mode: Mode| {
            let mut sim = RpSim::new(mode);
            churn_deep(&mut sim, 100);
            sim.reset_totals();
            churn_deep(&mut sim, 600);
            let t = sim.totals();
            t.allocator_cycles() as f64 / (t.malloc_calls + t.free_calls) as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        assert!(
            accel <= base,
            "mallacc should not slow rpmalloc down: {base} → {accel}"
        );
    }

    #[test]
    fn cache_pops_hit_after_warmup() {
        let mut sim = RpSim::new(Mode::mallacc_default());
        churn_deep(&mut sim, 200);
        let s = sim.malloc_cache().stats();
        assert!(s.pop_hits > 50, "pop hits {}", s.pop_hits);
    }

    #[test]
    fn remote_free_defers_then_adopts() {
        let mut sim = RpSim::new(Mode::mallacc_default());
        // Carve the span dry so adoption is the only in-span source left.
        let mut ptrs = Vec::new();
        loop {
            let r = sim.malloc(2048);
            ptrs.push(r.ptr);
            if sim.allocator().stats().new_spans > 1 {
                break;
            }
        }
        let victim = ptrs[0];
        let f = sim.free_foreign(victim, true);
        assert_eq!(f.kind, RpCallKind::FreeDeferred);
    }

    #[test]
    fn unsized_free_costs_the_same_as_sized() {
        let run = |sized: bool| {
            let mut sim = RpSim::new(Mode::Baseline);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            for _ in 0..200 {
                let r = sim.malloc(64);
                sim.free(r.ptr, sized);
            }
            sim.totals().free_cycles
        };
        assert_eq!(
            run(false),
            run(true),
            "the span mask erases the sized/unsized gap"
        );
    }

    #[test]
    fn large_calls_are_slow() {
        let mut sim = RpSim::new(Mode::Baseline);
        let r = sim.malloc(1 << 20);
        assert_eq!(r.kind, RpCallKind::MallocLarge);
        let f = sim.free(r.ptr, false);
        assert_eq!(f.kind, RpCallKind::FreeLarge);
    }
}
