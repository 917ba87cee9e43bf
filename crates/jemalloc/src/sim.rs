//! The jemalloc substrate: the same Mallacc hardware, a different
//! allocator.
//!
//! This is the paper's generality claim made executable (§4: "we would
//! like to hard-code as few allocator-dependent details as possible ...
//! so that many current and future allocators can benefit"). The malloc
//! cache is reused *unchanged* — only the software integration differs:
//!
//! * `mcszlookup` runs in its generic requested-size keying mode (the
//!   paper's configuration register), because jemalloc's size→bin mapping
//!   is not TCMalloc's Figure 5 index function;
//! * `mchdpop`/`mchdpush` cache the top two entries of the tcache bin's
//!   *array stack* instead of a linked list's head/next — the cached pair
//!   is still "the value a pop returns" and "the value after it", so the
//!   hardware semantics carry over verbatim;
//! * the fallback paths emit jemalloc's actual µop shapes: a single
//!   size→bin table load (vs TCMalloc's two), a header + stack-slot load
//!   pair on pops, a two-level chunk-map walk on unsized frees, and
//!   streaming array refills on fills.

use mallacc::{
    programs as prog, CallLabel, CallRecord, Driver, Machine, PopResult, PostList, Substrate,
};
use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Engine, Reg, Uop};

use crate::allocator::{JeFreeOutcome, JeFreePath, JeMalloc, JeMallocOutcome, JeMallocPath};
use crate::arena::ArenaFill;
use crate::layout;
use crate::size_class::BinId;

/// Classification of a simulated jemalloc call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JeCallKind {
    /// tcache hit.
    MallocFast,
    /// tcache fill from the arena.
    MallocFill,
    /// Large/huge allocation.
    MallocLarge,
    /// tcache push.
    FreeFast,
    /// tcache push that flushed a batch.
    FreeFlush,
    /// Large free.
    FreeLarge,
}

impl CallLabel for JeCallKind {
    fn label(self) -> &'static str {
        match self {
            JeCallKind::MallocFast => "malloc_fast",
            JeCallKind::MallocFill => "malloc_fill",
            JeCallKind::MallocLarge => "malloc_large",
            JeCallKind::FreeFast => "free_fast",
            JeCallKind::FreeFlush => "free_flush",
            JeCallKind::FreeLarge => "free_large",
        }
    }
}

/// The jemalloc simulator.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_jemalloc::{JeSim, JeCallKind};
///
/// let mut sim = JeSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, JeCallKind::MallocFast);
/// ```
pub type JeSim = Driver<JeSubstrate>;

/// The jemalloc model as a [`Substrate`].
#[derive(Debug, Default)]
pub struct JeSubstrate {
    alloc: JeMalloc,
}

/// The prof-sampling countdown (structurally TCMalloc's).
const SAMPLE_COUNTER: Addr = layout::TLS_BASE + 0x8;

impl JeSubstrate {
    /// The bin's top two stack slots after a call.
    fn post_list(&self, bin: Option<BinId>) -> PostList {
        bin.map_or_else(PostList::default, |b| PostList {
            head: self.alloc.tcache_top(b),
            next: self.alloc.tcache_below_top(b),
        })
    }
}

fn raw_bin(bin: Option<BinId>) -> Option<u16> {
    bin.map(|b| u16::from(b.as_u8()))
}

impl Substrate for JeSubstrate {
    type Alloc = JeMalloc;
    type Kind = JeCallKind;
    type MallocOutcome = JeMallocOutcome;
    type FreeOutcome = JeFreeOutcome;

    fn allocator(&self) -> &JeMalloc {
        &self.alloc
    }

    fn malloc(&mut self, size: u64) -> (JeMallocOutcome, PostList) {
        let outcome = self.alloc.malloc(size);
        let post = self.post_list(outcome.bin);
        (outcome, post)
    }

    fn free(&mut self, ptr: Addr, sized: bool) -> (JeFreeOutcome, PostList) {
        let outcome = self.alloc.free(ptr, sized);
        let post = self.post_list(outcome.bin);
        (outcome, post)
    }

    fn malloc_record(outcome: &JeMallocOutcome) -> CallRecord<JeCallKind> {
        let kind = match &outcome.path {
            JeMallocPath::TcacheHit { .. } => JeCallKind::MallocFast,
            JeMallocPath::TcacheFill { .. } => JeCallKind::MallocFill,
            JeMallocPath::Large { .. } => JeCallKind::MallocLarge,
        };
        CallRecord::untimed(kind, outcome.ptr, outcome.requested, raw_bin(outcome.bin))
    }

    fn free_record(outcome: &JeFreeOutcome) -> CallRecord<JeCallKind> {
        let kind = match &outcome.path {
            JeFreePath::TcachePush {
                flushed: Some(_), ..
            } => JeCallKind::FreeFlush,
            JeFreePath::TcachePush { .. } => JeCallKind::FreeFast,
            JeFreePath::Large { .. } => JeCallKind::FreeLarge,
        };
        CallRecord::untimed(kind, outcome.ptr, outcome.alloc_size, raw_bin(outcome.bin))
    }

    fn malloc_service(outcome: &JeMallocOutcome) -> ServicePath {
        match &outcome.path {
            JeMallocPath::TcacheHit { .. } => ServicePath::MallocFast,
            JeMallocPath::TcacheFill { fill, .. } => {
                let batch = (fill.batch.len() as u64).max(1);
                if fill.grew {
                    ServicePath::MallocOs {
                        batch,
                        objects: batch,
                        pages: u64::from(fill.new_runs.max(1)),
                    }
                } else if fill.new_runs > 0 {
                    ServicePath::MallocSpan {
                        batch,
                        objects: batch,
                        pages: u64::from(fill.new_runs),
                    }
                } else {
                    ServicePath::MallocCentral { batch }
                }
            }
            JeMallocPath::Large { pages, grew } => ServicePath::MallocLarge {
                pages: *pages,
                grew_heap: *grew,
            },
        }
    }

    fn free_service(outcome: &JeFreeOutcome) -> ServicePath {
        let unsized_walk = outcome.chunk_map.is_some();
        match &outcome.path {
            JeFreePath::TcachePush { flushed, .. } => match flushed {
                Some(fl) => ServicePath::FreeRelease {
                    moved: fl.len() as u64,
                    unsized_walk,
                },
                None => ServicePath::FreeFast { unsized_walk },
            },
            JeFreePath::Large { pages } => ServicePath::FreeLarge { pages: *pages },
        }
    }

    fn emit_malloc(&mut self, m: &mut Machine, outcome: &JeMallocOutcome, post: PostList) {
        let size_reg = prog::emit_prologue(&mut m.cpu, 5);
        match &outcome.path {
            JeMallocPath::Large { pages, grew } => emit_large(&mut m.cpu, *pages, *grew),
            JeMallocPath::TcacheHit { ncached, below } => {
                let bin = outcome.bin.expect("small path");
                let raw = u16::from(bin.as_u8());
                let bin_reg =
                    emit_size_class(m, size_reg, outcome.requested, outcome.alloc_size, raw);
                m.emit_sampling(SAMPLE_COUNTER, bin_reg, false);
                let tls = m.cpu.alloc_reg();
                m.cpu.push(Uop::load(layout::TLS_BASE, tls, &[bin_reg]));
                if m.limit().push_pop {
                    prog::emit_overhead(&mut m.cpu, 1);
                } else if m.accel().is_some_and(|a| a.list_opt) {
                    let head_reg = match m.mchdpop(raw, tls, None) {
                        (pop, PopResult::Hit { head, next }) => {
                            debug_assert_eq!(head, outcome.ptr, "jemalloc cache pop mismatch");
                            debug_assert_eq!(Some(next), *below);
                            // Software still maintains ncached.
                            m.cpu
                                .push(Uop::store(layout::tcache_bin_header(bin), &[pop]));
                            pop
                        }
                        (_, PopResult::Miss) => emit_pop_sw(&mut m.cpu, bin, *ncached, tls),
                    };
                    if m.accel().is_some_and(|a| a.prefetch) {
                        if let Some(new_top) = *below {
                            // jemalloc's avail slots are contiguous and
                            // L1-hot, so instead of a blocking mcnxtprefetch
                            // the integration reloads the next slot with an
                            // ordinary (cheap) load and republishes the pair.
                            let slot = layout::tcache_avail_slot(bin, ncached.saturating_sub(2));
                            m.repush_pair(raw, Some(slot), head_reg, new_top, post.next);
                        }
                    }
                } else {
                    emit_pop_sw(&mut m.cpu, bin, *ncached, tls);
                }
            }
            JeMallocPath::TcacheFill { fill, below: _ } => {
                let bin = outcome.bin.expect("small path");
                let raw = u16::from(bin.as_u8());
                let bin_reg =
                    emit_size_class(m, size_reg, outcome.requested, outcome.alloc_size, raw);
                m.emit_sampling(SAMPLE_COUNTER, bin_reg, false);
                // Empty-bin branch mispredicts (rare).
                let n = m.cpu.alloc_reg();
                m.cpu
                    .push(Uop::load(layout::tcache_bin_header(bin), n, &[bin_reg]));
                m.cpu.push(Uop::branch(true, &[n]));
                emit_fill(&mut m.cpu, bin, fill);
                emit_pop_sw(&mut m.cpu, bin, fill.batch.len() as u64, bin_reg);
                m.resync(raw, post);
            }
        }
        prog::emit_overhead(&mut m.cpu, 6);
    }

    fn emit_free(&mut self, m: &mut Machine, outcome: &JeFreeOutcome, post: PostList) {
        let ptr_reg = prog::emit_prologue(&mut m.cpu, 4);
        match &outcome.path {
            JeFreePath::Large { pages } => emit_large(&mut m.cpu, *pages, false),
            JeFreePath::TcachePush { ncached, flushed } => {
                let bin = outcome.bin.expect("small path");
                let raw = u16::from(bin.as_u8());
                let bin_reg = match outcome.chunk_map {
                    // Unsized: the two-level chunk-map walk.
                    Some(nodes) => prog::emit_pagemap_walk(&mut m.cpu, nodes, ptr_reg),
                    None => {
                        emit_size_class(m, ptr_reg, outcome.alloc_size, outcome.alloc_size, raw)
                    }
                };
                if !m.limit().push_pop {
                    if m.accel().is_some_and(|a| a.list_opt) {
                        m.mchdpush(raw, outcome.ptr, bin_reg);
                    }
                    emit_push_sw(&mut m.cpu, bin, *ncached, bin_reg, ptr_reg);
                }
                if let Some(fl) = flushed {
                    emit_flush(&mut m.cpu, fl);
                    m.resync(raw, post);
                }
            }
        }
        prog::emit_overhead(&mut m.cpu, 5);
    }
}

/// The size→bin component under the machine's mode, keyed on `key`.
fn emit_size_class(m: &mut Machine, dep: Reg, key: u64, alloc_size: u64, raw: u16) -> Reg {
    m.emit_size_class(key, alloc_size, raw, dep, None, |cpu, dep| {
        emit_bin_lookup_sw(cpu, dep, key)
    })
}

/// jemalloc's size→bin: one shift plus one dense-table load.
fn emit_bin_lookup_sw(cpu: &mut Engine, size_reg: Reg, size: u64) -> Reg {
    let idx = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(idx), &[size_reg]));
    let bin = cpu.alloc_reg();
    cpu.push(Uop::load(layout::lookup_entry(size), bin, &[idx]));
    cpu.push(Uop::branch(false, &[bin]));
    bin
}

/// The software stack pop: header load → slot-address arithmetic →
/// slot load → header store.
fn emit_pop_sw(cpu: &mut Engine, bin: BinId, ncached: u64, bin_reg: Reg) -> Reg {
    let header = layout::tcache_bin_header(bin);
    let n = cpu.alloc_reg();
    cpu.push(Uop::load(header, n, &[bin_reg]));
    cpu.push(Uop::branch(false, &[n]));
    let slot_addr = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(slot_addr), &[n]));
    let ptr = cpu.alloc_reg();
    cpu.push(Uop::load(
        layout::tcache_avail_slot(bin, ncached.saturating_sub(1)),
        ptr,
        &[slot_addr],
    ));
    cpu.push(Uop::store(header, &[n]));
    ptr
}

fn emit_push_sw(cpu: &mut Engine, bin: BinId, ncached_after: u64, bin_reg: Reg, ptr_reg: Reg) {
    let header = layout::tcache_bin_header(bin);
    let n = cpu.alloc_reg();
    cpu.push(Uop::load(header, n, &[bin_reg]));
    cpu.push(Uop::branch(false, &[n]));
    cpu.push(Uop::store(
        layout::tcache_avail_slot(bin, ncached_after.saturating_sub(1)),
        &[ptr_reg, n],
    ));
    cpu.push(Uop::store(header, &[n]));
}

/// Arena fill: bin lock, streaming stores into the avail array, bitmap
/// updates, chunk-map registration for new runs, OS growth.
fn emit_fill(cpu: &mut Engine, bin: BinId, fill: &ArenaFill) {
    let lock_addr = layout::arena_bin_header(bin);
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(lock_addr, lock, &[]));
    cpu.push(Uop::branch(false, &[lock]));
    cpu.push(Uop::store(lock_addr, &[lock]));
    prog::emit_os_growth(cpu, fill.grew);
    let mut dep = lock;
    for (i, &obj) in fill.batch.iter().enumerate() {
        // Bitmap word probe + set for the object's run.
        if i % 16 == 0 {
            let page = layout::addr_to_page(obj);
            let [c0, _] = layout::chunk_map_entries(page);
            let w = cpu.alloc_reg();
            cpu.push(Uop::load(c0, w, &[dep]));
            dep = w;
        }
        let b = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(b), &[dep]));
        // Streaming store into the avail array.
        cpu.push(Uop::store(layout::tcache_avail_slot(bin, i as u64), &[b]));
    }
    for _ in 0..fill.new_runs {
        // Run headers + chunk-map registration.
        for j in 0..4u64 {
            cpu.push(Uop::store(layout::CHUNK_MAP_BASE + j * 64, &[dep]));
        }
    }
    cpu.push(Uop::store(lock_addr, &[dep]));
}

/// Flush of the oldest half of a bin back to the arena.
fn emit_flush(cpu: &mut Engine, flushed: &[Addr]) {
    let mut dep = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(dep), &[]));
    for &obj in flushed {
        let page = layout::addr_to_page(obj);
        let [c0, c1] = layout::chunk_map_entries(page);
        let a = cpu.alloc_reg();
        cpu.push(Uop::load(c0, a, &[dep]));
        let b = cpu.alloc_reg();
        cpu.push(Uop::load(c1, b, &[a]));
        cpu.push(Uop::store(c1, &[b]));
        dep = b;
    }
}

fn emit_large(cpu: &mut Engine, pages: u64, grew: bool) {
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(layout::ARENA_BASE, lock, &[]));
    prog::emit_os_growth(cpu, grew);
    let mut dep = lock;
    for p in (0..pages).step_by(16) {
        let [_, c1] = layout::chunk_map_entries(p);
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(d), &[dep]));
        cpu.push(Uop::store(c1, &[d]));
        dep = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc::Mode;

    fn warm_rotating(sim: &mut JeSim, n: usize) {
        for i in 0..n {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn baseline_fast_path_is_fast() {
        let mut sim = JeSim::new(Mode::Baseline);
        warm_rotating(&mut sim, 100);
        sim.reset_totals();
        warm_rotating(&mut sim, 400);
        let t = sim.totals();
        let per = t.malloc_cycles as f64 / t.malloc_calls as f64;
        assert!((8.0..=26.0).contains(&per), "jemalloc fast malloc = {per}");
    }

    #[test]
    fn mallacc_accelerates_jemalloc() {
        let run = |mode: Mode| {
            let mut sim = JeSim::new(mode);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            warm_rotating(&mut sim, 600);
            let t = sim.totals();
            t.malloc_cycles as f64 / t.malloc_calls as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        assert!(
            accel < base * 0.9,
            "mallacc should speed jemalloc up: {base} → {accel}"
        );
    }

    #[test]
    fn cache_pops_hit_after_warmup() {
        let mut sim = JeSim::new(Mode::mallacc_default());
        warm_rotating(&mut sim, 200);
        let s = sim.malloc_cache().stats();
        assert!(s.pop_hits > 100, "pop hits {}", s.pop_hits);
        assert!(s.lookup_hits > 300, "lookup hits {}", s.lookup_hits);
    }

    #[test]
    fn fill_and_flush_paths_are_classified() {
        let mut sim = JeSim::new(Mode::Baseline);
        let r = sim.malloc(2048);
        assert_eq!(r.kind, JeCallKind::MallocFill);
        assert!(r.cycles > 50, "fill should be slow: {}", r.cycles);
        let r2 = sim.malloc(2048);
        assert_eq!(r2.kind, JeCallKind::MallocFast);
    }

    #[test]
    fn large_calls_take_the_arena_path() {
        let mut sim = JeSim::new(Mode::Baseline);
        let r = sim.malloc(1 << 20);
        assert_eq!(r.kind, JeCallKind::MallocLarge);
        assert!(r.cycles > 1000);
        let f = sim.free(r.ptr, false);
        assert_eq!(f.kind, JeCallKind::FreeLarge);
    }

    #[test]
    fn unsized_free_pays_chunk_map_walk() {
        let run = |sized: bool| {
            let mut sim = JeSim::new(Mode::Baseline);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            for _ in 0..200 {
                let r = sim.malloc(64);
                sim.free(r.ptr, sized);
            }
            sim.totals().free_cycles as f64 / 200.0
        };
        assert!(run(false) > run(true));
    }
}
