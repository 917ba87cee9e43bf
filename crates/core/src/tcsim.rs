//! The TCMalloc substrate: the paper's allocator under the [`Driver`].
//!
//! Everything the paper built for TCMalloc specifically lives here rather
//! than in the shared driver: the Figure 5 class-index keying of the
//! malloc cache, the `mcszupdate` µop software issues after a lookup miss,
//! the predicted fallback branches, the blocking `mcnxtprefetch`, and the
//! dedicated sampling counter's PMU interrupt on sampled calls.

use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Component, CoreConfig, Reg, Uop};
use mallacc_tcmalloc::{
    layout, ClassId, FreeOutcome, FreePath, MallocOutcome, MallocPath, TcMalloc, TcMallocConfig,
};

use crate::config::Mode;
use crate::driver::{CallLabel, CallRecord, Driver, LocalPredictor, Machine, PostList, Substrate};
use crate::malloc_cache::PopResult;
use crate::programs as prog;

/// Classification of a simulated call, for histograms and path accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// malloc served by a thread-cache hit (the fast path).
    MallocFast,
    /// malloc that refilled from the central free list.
    MallocCentral,
    /// malloc whose refill carved a new span.
    MallocSpan,
    /// malloc that had to grow the heap with an OS grant.
    MallocOs,
    /// malloc of a large (> 256 KiB) request.
    MallocLarge,
    /// free onto the thread-cache list.
    FreeFast,
    /// free that released a batch to the central list.
    FreeRelease,
    /// free of a large allocation.
    FreeLarge,
}

impl CallKind {
    /// Every kind, in canonical report order.
    pub const ALL: [CallKind; 8] = [
        CallKind::MallocFast,
        CallKind::MallocCentral,
        CallKind::MallocSpan,
        CallKind::MallocOs,
        CallKind::MallocLarge,
        CallKind::FreeFast,
        CallKind::FreeRelease,
        CallKind::FreeLarge,
    ];

    /// True for malloc-side kinds.
    pub fn is_malloc(self) -> bool {
        matches!(
            self,
            CallKind::MallocFast
                | CallKind::MallocCentral
                | CallKind::MallocSpan
                | CallKind::MallocOs
                | CallKind::MallocLarge
        )
    }
}

impl CallLabel for CallKind {
    fn label(self) -> &'static str {
        match self {
            CallKind::MallocFast => "malloc_fast",
            CallKind::MallocCentral => "malloc_central",
            CallKind::MallocSpan => "malloc_span",
            CallKind::MallocOs => "malloc_os",
            CallKind::MallocLarge => "malloc_large",
            CallKind::FreeFast => "free_fast",
            CallKind::FreeRelease => "free_release",
            CallKind::FreeLarge => "free_large",
        }
    }
}

/// The TCMalloc simulator.
pub type MallocSim = Driver<TcSubstrate>;

impl MallocSim {
    /// Creates a simulator with explicit configurations.
    pub fn with_configs(mode: Mode, alloc_cfg: TcMallocConfig, core_cfg: CoreConfig) -> Self {
        Self::with_substrate(mode, TcSubstrate::new(alloc_cfg), core_cfg)
    }

    /// Invalidates the malloc cache's cached list for `cls` (the size
    /// mapping survives). The multi-core layer issues this on the victim
    /// core when a neighbour-cache steal mutates its free list out from
    /// under the accelerator — the §4.1 copies-only design makes the drop
    /// free of writebacks, so it costs no µops.
    pub fn invalidate_mc_list(&mut self, cls: ClassId) {
        self.m.mc.invalidate_list(u16::from(cls.as_u8()));
    }
}

/// Cycles for a prefetched line to travel from the cache hierarchy into
/// the malloc cache (the senior-store-queue-style completion path of
/// §4.1 "Core integration").
const MC_TRANSFER_LATENCY: u64 = 20;

/// TCMalloc's functional model plus its two fallback-branch predictors.
#[derive(Debug)]
pub struct TcSubstrate {
    alloc: TcMalloc,
    /// Branch predictor for the `mcszlookup` fallback branch.
    lookup_bp: LocalPredictor,
    /// Branch predictor for the `mchdpop` fallback branch.
    pop_bp: LocalPredictor,
}

impl Default for TcSubstrate {
    fn default() -> Self {
        Self::new(TcMallocConfig::default())
    }
}

impl TcSubstrate {
    /// A substrate over a TCMalloc model built from `cfg`.
    pub fn new(cfg: TcMallocConfig) -> Self {
        Self {
            alloc: TcMalloc::new(cfg),
            lookup_bp: LocalPredictor::new(),
            pop_bp: LocalPredictor::new(),
        }
    }

    /// Post-call list state of `cls` on this substrate's own allocator.
    fn post_list(&self, cls: Option<ClassId>) -> PostList {
        cls.map_or_else(PostList::default, |c| PostList {
            head: self.alloc.list_head(c),
            next: self.alloc.list_next_after_head(c),
        })
    }

    /// Emits a malloc's size-class component; returns `(cls_reg,
    /// alloc_size_reg)`.
    fn emit_malloc_size_class(
        &mut self,
        m: &mut Machine,
        size_reg: Reg,
        outcome: &MallocOutcome,
    ) -> (Reg, Reg) {
        m.cpu.set_component(Component::SizeClass);
        let cls = outcome.cls.expect("small path only");
        let raw = u16::from(cls.as_u8());
        let idx = outcome.class_index.expect("small path has an index");

        if m.limit().size_class {
            // Limit study: the µops vanish; dependencies resolve to the
            // argument register.
            return (size_reg, size_reg);
        }
        let Some(a) = m.accel() else {
            return prog::emit_size_class_sw(&mut m.cpu, size_reg, idx, raw);
        };
        if !a.size_class_opt {
            let regs = prog::emit_size_class_sw(&mut m.cpu, size_reg, idx, raw);
            if a.needs_cache() {
                // list_opt still needs entries to exist; software issues
                // mcszupdate after its computation.
                m.mc.update(outcome.requested, outcome.alloc_size, raw);
                let d = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(1, Some(d), &[regs.0]));
            }
            return regs;
        }
        // mcszlookup. The je-to-fallback branch predicts well in steady
        // state but mispredicts when hits and misses alternate — exactly
        // what a too-small, thrashing malloc cache produces (the paper's
        // Figure 17 slowdowns).
        match m.mcszlookup(outcome.requested, size_reg, Some(&mut self.lookup_bp)) {
            (lk, Some(h)) => {
                debug_assert_eq!(h.size_class, raw, "size-class cache inconsistency");
                debug_assert_eq!(h.alloc_size, outcome.alloc_size);
                (lk, lk)
            }
            (_, None) => {
                // Fallback software computation + mcszupdate.
                let (cls_reg, sz_reg) = prog::emit_size_class_sw(&mut m.cpu, size_reg, idx, raw);
                m.mc.update(outcome.requested, outcome.alloc_size, raw);
                let d = m.cpu.alloc_reg();
                m.cpu.push(Uop::alu(1, Some(d), &[cls_reg, sz_reg]));
                (cls_reg, sz_reg)
            }
        }
    }

    /// Emits the fast-path pop from `list`, whose element after the
    /// returned block is `next`.
    fn emit_fast_pop(
        &mut self,
        m: &mut Machine,
        outcome: &MallocOutcome,
        cls_reg: Reg,
        list: Addr,
        next: Option<Addr>,
        post_next: Option<Addr>,
    ) {
        let raw = u16::from(outcome.cls.expect("small path").as_u8());
        let block = outcome.ptr;
        m.cpu.set_component(Component::Metadata);
        let la = prog::emit_list_addr(&mut m.cpu, cls_reg);
        if m.limit().push_pop {
            prog::emit_metadata(&mut m.cpu, list, la);
            return;
        }
        let Some(a) = m.accel().filter(|a| a.list_opt) else {
            m.cpu.set_component(Component::ListOp);
            prog::emit_pop_sw(&mut m.cpu, list, block, la);
            m.cpu.set_component(Component::Metadata);
            prog::emit_metadata(&mut m.cpu, list, la);
            return;
        };
        m.cpu.set_component(Component::ListOp);
        let (pop, result) = m.mchdpop(raw, cls_reg, Some(&mut self.pop_bp));
        let head_reg = match result {
            PopResult::Hit {
                head,
                next: cached_next,
            } => {
                debug_assert_eq!(head, block, "malloc cache returned the wrong block");
                debug_assert_eq!(
                    Some(cached_next),
                    next,
                    "cached next diverged from the list"
                );
                // Software still publishes the new head (store only — the
                // two loads are gone).
                m.cpu.push(Uop::store(list, &[pop, la]));
                pop
            }
            PopResult::Miss => prog::emit_pop_sw(&mut m.cpu, list, block, la),
        };
        if a.prefetch {
            if let Some(new_head) = next {
                // mcnxtprefetch rax, QWORD PTR [new_head]: hardware learns
                // (new_head, *new_head) and blocks the entry until arrival.
                let t = m.cpu.push(Uop::prefetch(new_head, &[head_reg]));
                m.mc.prefetch(
                    raw,
                    new_head,
                    post_next,
                    t.data_arrival() + MC_TRANSFER_LATENCY,
                );
            }
        }
        m.cpu.set_component(Component::Metadata);
        prog::emit_metadata(&mut m.cpu, list, la);
    }
}

impl Substrate for TcSubstrate {
    type Alloc = TcMalloc;
    type Kind = CallKind;
    type MallocOutcome = MallocOutcome;
    type FreeOutcome = FreeOutcome;

    const INDEX_KEYING: bool = true;

    fn allocator(&self) -> &TcMalloc {
        &self.alloc
    }

    fn malloc(&mut self, size: u64) -> (MallocOutcome, PostList) {
        let outcome = self.alloc.malloc(size);
        let post = self.post_list(outcome.cls);
        (outcome, post)
    }

    fn free(&mut self, ptr: Addr, sized: bool) -> (FreeOutcome, PostList) {
        let outcome = self.alloc.free(ptr, sized);
        let post = self.post_list(outcome.cls);
        (outcome, post)
    }

    fn malloc_record(outcome: &MallocOutcome) -> CallRecord {
        let kind = match &outcome.path {
            MallocPath::Large { .. } => CallKind::MallocLarge,
            MallocPath::ThreadCacheHit { .. } => CallKind::MallocFast,
            MallocPath::CentralRefill { populate, .. } => match populate {
                Some(p) if p.span.grew_heap => CallKind::MallocOs,
                Some(_) => CallKind::MallocSpan,
                None => CallKind::MallocCentral,
            },
        };
        let cls = outcome.cls.map(|c| u16::from(c.as_u8()));
        CallRecord {
            sampled: outcome.sampled,
            ..CallRecord::untimed(kind, outcome.ptr, outcome.requested, cls)
        }
    }

    fn free_record(outcome: &FreeOutcome) -> CallRecord {
        let kind = match &outcome.path {
            FreePath::Large { .. } => CallKind::FreeLarge,
            FreePath::ThreadCachePush { released, .. } => match released {
                Some(_) => CallKind::FreeRelease,
                None => CallKind::FreeFast,
            },
        };
        CallRecord::untimed(
            kind,
            outcome.ptr,
            outcome.alloc_size,
            outcome.cls.map(|c| u16::from(c.as_u8())),
        )
    }

    fn malloc_service(outcome: &MallocOutcome) -> ServicePath {
        match &outcome.path {
            MallocPath::Large { pages, grew_heap } => ServicePath::MallocLarge {
                pages: *pages,
                grew_heap: *grew_heap,
            },
            MallocPath::ThreadCacheHit { .. } => ServicePath::MallocFast,
            MallocPath::CentralRefill {
                batch, populate, ..
            } => match populate {
                Some(p) if p.span.grew_heap => ServicePath::MallocOs {
                    batch: batch.len() as u64,
                    objects: p.object_count,
                    pages: p.span.pages,
                },
                Some(p) => ServicePath::MallocSpan {
                    batch: batch.len() as u64,
                    objects: p.object_count,
                    pages: p.span.pages,
                },
                None => ServicePath::MallocCentral {
                    batch: batch.len() as u64,
                },
            },
        }
    }

    fn free_service(outcome: &FreeOutcome) -> ServicePath {
        let unsized_walk = outcome.pagemap_addrs.is_some();
        match &outcome.path {
            FreePath::Large { pages } => ServicePath::FreeLarge { pages: *pages },
            FreePath::ThreadCachePush { released, .. } => match released {
                Some(moved) => ServicePath::FreeRelease {
                    moved: moved.len() as u64,
                    unsized_walk,
                },
                None => ServicePath::FreeFast { unsized_walk },
            },
        }
    }

    fn emit_malloc(&mut self, m: &mut Machine, outcome: &MallocOutcome, post: PostList) {
        m.cpu.set_component(Component::Overhead);
        let size_reg = prog::emit_prologue(&mut m.cpu, prog::PROLOGUE_UOPS);

        match &outcome.path {
            MallocPath::Large { pages, grew_heap } => {
                m.cpu.set_component(Component::SlowPath);
                let start_page = layout::addr_to_page(outcome.ptr);
                prog::emit_large_path(&mut m.cpu, *pages, *grew_heap, start_page);
            }
            MallocPath::ThreadCacheHit { list, next } => {
                let (cls_reg, sz_reg) = self.emit_malloc_size_class(m, size_reg, outcome);
                m.cpu.set_component(Component::Sampling);
                m.emit_sampling(layout::sampler_counter(), sz_reg, outcome.sampled);
                self.emit_fast_pop(m, outcome, cls_reg, *list, *next, post.next);
            }
            MallocPath::CentralRefill {
                list,
                central,
                batch,
                populate,
                ..
            } => {
                let (cls_reg, sz_reg) = self.emit_malloc_size_class(m, size_reg, outcome);
                m.cpu.set_component(Component::Sampling);
                m.emit_sampling(layout::sampler_counter(), sz_reg, outcome.sampled);
                let cls = outcome.cls.expect("small path");
                // The fast-path attempt finds an empty list: the emptiness
                // branch mispredicts (rare event).
                m.cpu.set_component(Component::SlowPath);
                let la = prog::emit_list_addr(&mut m.cpu, cls_reg);
                let head = m.cpu.alloc_reg();
                m.cpu.push(Uop::load(*list, head, &[la]));
                m.cpu.push(Uop::branch(true, &[head]));
                if let Some(p) = populate {
                    prog::emit_populate(&mut m.cpu, p);
                }
                prog::emit_refill(&mut m.cpu, *central, *list, batch);
                prog::emit_pop_sw(&mut m.cpu, *list, outcome.ptr, la);
                prog::emit_metadata(&mut m.cpu, *list, la);
                // Software rebuilds the cached copy with mchdpush-style
                // updates as it relinks the list.
                if m.resync(u16::from(cls.as_u8()), post) {
                    let d = m.cpu.alloc_reg();
                    m.cpu.push(Uop::alu(1, Some(d), &[cls_reg]));
                }
            }
        }
        m.cpu.set_component(Component::Overhead);
        prog::emit_overhead(&mut m.cpu, prog::EPILOGUE_UOPS);
    }

    fn emit_free(&mut self, m: &mut Machine, outcome: &FreeOutcome, post: PostList) {
        m.cpu.set_component(Component::Overhead);
        let ptr_reg = prog::emit_prologue(&mut m.cpu, prog::PROLOGUE_UOPS - 1);

        match &outcome.path {
            FreePath::Large { pages } => {
                m.cpu.set_component(Component::SlowPath);
                let start_page = layout::addr_to_page(outcome.ptr);
                prog::emit_large_path(&mut m.cpu, *pages, false, start_page);
            }
            FreePath::ThreadCachePush { list, released, .. } => {
                let cls = outcome.cls.expect("small free");
                let raw = u16::from(cls.as_u8());
                // Size-class resolution: the unsized delete's poorly-caching
                // radix walk, or mcszlookup on the static size.
                m.cpu.set_component(Component::SizeClass);
                let cls_reg = match outcome.pagemap_addrs {
                    Some(nodes) => prog::emit_pagemap_walk(&mut m.cpu, nodes, ptr_reg),
                    None => {
                        let size = outcome.alloc_size;
                        m.emit_size_class(
                            size,
                            size,
                            raw,
                            ptr_reg,
                            Some(&mut self.lookup_bp),
                            |cpu, dep| {
                                let idx = mallacc_tcmalloc::class_index(size).expect("small size");
                                prog::emit_size_class_sw(cpu, dep, idx, raw).0
                            },
                        )
                    }
                };

                // The push itself.
                m.cpu.set_component(Component::Metadata);
                let la = prog::emit_list_addr(&mut m.cpu, cls_reg);
                if !m.limit().push_pop {
                    m.cpu.set_component(Component::ListOp);
                    if m.accel().is_some_and(|a| a.list_opt) {
                        m.mchdpush(raw, outcome.ptr, cls_reg);
                    }
                    prog::emit_push_sw(&mut m.cpu, *list, outcome.ptr, la, ptr_reg);
                }
                m.cpu.set_component(Component::Metadata);
                prog::emit_metadata(&mut m.cpu, *list, la);

                if let Some(moved) = released {
                    m.cpu.set_component(Component::SlowPath);
                    prog::emit_release(&mut m.cpu, layout::central_list(cls), *list, moved);
                    m.resync(raw, post);
                }
            }
        }
        m.cpu.set_component(Component::Overhead);
        prog::emit_overhead(&mut m.cpu, prog::EPILOGUE_UOPS - 1);
    }
}
