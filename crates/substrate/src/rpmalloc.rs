//! The rpmalloc-style functional model.
//!
//! Models the design facts SNIPPETS.md's allocator-comparison doc
//! attributes to rpmalloc:
//!
//! * **single-ownership spans** — every 64 KiB span belongs to the thread
//!   that mapped it; only the owner ever touches its free list;
//! * **address-mask metadata lookup** — `span = ptr & SPAN_MASK`, so a
//!   free needs zero table loads to find its metadata (unsized deletes
//!   cost the same as sized ones);
//! * **deferred cross-thread frees** — a foreign thread pushes the block
//!   onto the span's atomic deferred list; the owner adopts the whole
//!   list lazily, the next time the span's local free list runs dry;
//! * **bump carving** — fresh spans hand out blocks by pointer increment
//!   until the span is fully carved, after which allocation is pure
//!   free-list reuse.
//!
//! Mirrors the functional-first contract of the TCMalloc/jemalloc models:
//! every call returns an outcome describing the path taken, for the
//! timing layer to replay.

use std::collections::BTreeMap;

use mallacc_cache::Addr;

/// Address-space and size-class layout of the rpmalloc model.
pub mod rp_layout {
    use mallacc_cache::Addr;

    /// log2 of the span size.
    pub const SPAN_SHIFT: u32 = 16;
    /// Span size: 64 KiB, the metadata-lookup granule.
    pub const SPAN_SIZE: u64 = 1 << SPAN_SHIFT;
    /// The address mask that recovers a block's span base.
    pub const SPAN_MASK: u64 = !(SPAN_SIZE - 1);
    /// Bytes reserved at the head of every span for its header.
    pub const SPAN_HEADER: u64 = 0x40;
    /// Small-class granularity.
    pub const SMALL_GRANULARITY: u64 = 16;
    /// Largest small-class size.
    pub const SMALL_MAX: u64 = 2048;
    /// Medium-class granularity.
    pub const MEDIUM_GRANULARITY: u64 = 512;
    /// Largest medium-class size; anything bigger takes whole spans.
    pub const MEDIUM_MAX: u64 = 32 * 1024;
    /// Spans mapped per OS reservation (the "map granularity").
    pub const RESERVE_SPANS: u64 = 16;
    /// Heap base (span-aligned; disjoint from the other substrates).
    pub const HEAP_BASE: Addr = 0x40_0000_0000;
    /// Static data (global span cache, class constants).
    pub const STATIC_BASE: Addr = 0x4100_0000;
    /// Per-thread heap structures.
    pub const TLS_BASE: Addr = 0x4200_0000;

    /// The span base of a block address.
    pub fn span_of(ptr: Addr) -> Addr {
        ptr & SPAN_MASK
    }

    /// Per-class free-list header slot in the owning thread's heap.
    pub fn heap_class_entry(class: u16) -> Addr {
        TLS_BASE + u64::from(class) * 16
    }

    /// A span's header word (owner, used count, free/deferred heads).
    pub fn span_header(span: Addr) -> Addr {
        span
    }

    /// Number of size classes (small + medium).
    pub fn class_count() -> u16 {
        let small = (SMALL_MAX / SMALL_GRANULARITY) as u16;
        let medium = ((MEDIUM_MAX - SMALL_MAX) / MEDIUM_GRANULARITY) as u16;
        small + medium
    }

    /// Pure-arithmetic size→class mapping (no table loads): 16-byte
    /// granularity through 2 KiB, then 512-byte granularity through
    /// 32 KiB. Returns `None` above [`MEDIUM_MAX`].
    pub fn class_of(size: u64) -> Option<u16> {
        if size == 0 || size > MEDIUM_MAX {
            return None;
        }
        if size <= SMALL_MAX {
            Some((size.div_ceil(SMALL_GRANULARITY) - 1) as u16)
        } else {
            let m = (size - SMALL_MAX).div_ceil(MEDIUM_GRANULARITY);
            Some((SMALL_MAX / SMALL_GRANULARITY + m - 1) as u16)
        }
    }

    /// Rounded block size of a class.
    pub fn class_size(class: u16) -> u64 {
        let small_classes = (SMALL_MAX / SMALL_GRANULARITY) as u16;
        if class < small_classes {
            u64::from(class + 1) * SMALL_GRANULARITY
        } else {
            SMALL_MAX + u64::from(class - small_classes + 1) * MEDIUM_GRANULARITY
        }
    }

    /// Blocks a span of `class` can hold.
    pub fn span_capacity(class: u16) -> u64 {
        (SPAN_SIZE - SPAN_HEADER) / class_size(class)
    }
}

/// Which path an rpmalloc malloc took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpMallocPath {
    /// Popped the active span's local free list.
    LocalHit {
        /// Free-list depth before the pop.
        depth: u64,
    },
    /// Local list dry: adopted the span's deferred list, then popped.
    DeferredAdopt {
        /// Blocks adopted from the deferred list.
        adopted: u64,
    },
    /// Bump-carved a fresh block from the active span.
    Carve {
        /// Uncarved blocks remaining after this one.
        remaining: u64,
    },
    /// Active span exhausted: installed another span, then served.
    NewSpan {
        /// The span came off the partial/full-reclaim lists rather than
        /// a fresh OS mapping.
        reused: bool,
        /// A fresh OS reservation was needed.
        grew: bool,
    },
    /// Whole-span (large) allocation.
    Large {
        /// Spans consumed.
        spans: u64,
        /// A fresh OS reservation was needed.
        grew: bool,
    },
}

/// Result of one rpmalloc malloc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpMallocOutcome {
    /// The address handed out.
    pub ptr: Addr,
    /// Requested size.
    pub requested: u64,
    /// Rounded size.
    pub alloc_size: u64,
    /// Size class, if small/medium.
    pub class: Option<u16>,
    /// The serving span's base, if small/medium.
    pub span: Option<Addr>,
    /// Active span's free-list head after the call (the value the next
    /// accelerated pop should return).
    pub post_head: Option<Addr>,
    /// The entry after `post_head`.
    pub post_next: Option<Addr>,
    /// The path taken.
    pub path: RpMallocPath,
}

/// Which path an rpmalloc free took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpFreePath {
    /// Owner free: pushed the span's local free list.
    Local {
        /// Free-list depth after the push.
        depth: u64,
        /// The span is the class's active span, so the block is the next
        /// pop's answer (the only case the malloc cache may cache).
        to_active: bool,
    },
    /// Foreign free: pushed the span's atomic deferred list.
    Deferred {
        /// Deferred-list depth after the push.
        depth: u64,
    },
    /// Whole-span free.
    Large {
        /// Spans returned.
        spans: u64,
    },
}

/// Result of one rpmalloc free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpFreeOutcome {
    /// The freed address.
    pub ptr: Addr,
    /// Size class, if small/medium.
    pub class: Option<u16>,
    /// Rounded size of the block.
    pub alloc_size: u64,
    /// Sized delete requested (cost-identical here: the span mask
    /// recovers the metadata either way).
    pub sized: bool,
    /// The block's span base, if small/medium.
    pub span: Option<Addr>,
    /// The path taken.
    pub path: RpFreePath,
}

/// rpmalloc model statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RpStats {
    /// malloc calls.
    pub mallocs: u64,
    /// Local free-list hits.
    pub local_hits: u64,
    /// Deferred-list adoptions.
    pub adopts: u64,
    /// Blocks adopted across all adoptions.
    pub adopted_blocks: u64,
    /// Bump carves.
    pub carves: u64,
    /// Span installations (fresh or reused).
    pub new_spans: u64,
    /// Large allocations.
    pub large_allocs: u64,
    /// free calls.
    pub frees: u64,
    /// Owner (local) frees.
    pub local_frees: u64,
    /// Foreign (deferred) frees.
    pub deferred_frees: u64,
    /// Large frees.
    pub large_frees: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanSlot {
    Active,
    Partial,
    Full,
}

#[derive(Debug, Clone)]
struct Span {
    owner: usize,
    class: u16,
    block_size: u64,
    capacity: u64,
    carved: u64,
    free: Vec<Addr>,
    deferred: Vec<Addr>,
    live: u64,
    slot: SpanSlot,
}

#[derive(Debug, Clone, Copy)]
struct Live {
    span: Addr,
    class: u16,
    alloc_size: u64,
}

/// Read-only view of one span, for the conformance suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpSpanView {
    /// Span base address.
    pub base: Addr,
    /// Owning thread.
    pub owner: usize,
    /// Size class.
    pub class: u16,
    /// Blocks bump-carved so far.
    pub carved: u64,
    /// Total block capacity.
    pub capacity: u64,
    /// Local free-list depth.
    pub free_len: u64,
    /// Deferred-list depth.
    pub deferred_len: u64,
    /// Live blocks carved from this span.
    pub live: u64,
}

/// The rpmalloc-style model: `threads` logical owners over one address
/// space. Single-threaded users call [`RpMalloc::malloc`]/[`RpMalloc::free`]
/// (thread 0); the cross-thread suites use the `_on` variants.
///
/// # Example
///
/// ```
/// use mallacc_substrate::{RpMalloc, RpMallocPath, RpFreePath};
///
/// let mut a = RpMalloc::new(2);
/// let cold = a.malloc(100);
/// assert!(matches!(cold.path, RpMallocPath::NewSpan { .. }));
/// assert_eq!(cold.alloc_size, 112);
/// // A foreign free lands on the deferred list; the owner adopts it
/// // once its local list runs dry.
/// let f = a.free_on(1, cold.ptr, false);
/// assert!(matches!(f.path, RpFreePath::Deferred { .. }));
/// let again = a.malloc(100);
/// assert_eq!(again.ptr, cold.ptr);
/// assert!(matches!(again.path, RpMallocPath::DeferredAdopt { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct RpMalloc {
    threads: usize,
    spans: BTreeMap<Addr, Span>,
    active: Vec<Vec<Option<Addr>>>,
    partial: Vec<Vec<Vec<Addr>>>,
    full: Vec<Vec<Vec<Addr>>>,
    live: BTreeMap<Addr, Live>,
    large_live: BTreeMap<Addr, u64>,
    next_span: Addr,
    reserved_end: Addr,
    stats: RpStats,
}

impl RpMalloc {
    /// Creates a cold heap with `threads` logical owner threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        let nclasses = usize::from(rp_layout::class_count());
        Self {
            threads,
            spans: BTreeMap::new(),
            active: vec![vec![None; nclasses]; threads],
            partial: vec![vec![Vec::new(); nclasses]; threads],
            full: vec![vec![Vec::new(); nclasses]; threads],
            live: BTreeMap::new(),
            large_live: BTreeMap::new(),
            next_span: rp_layout::HEAP_BASE,
            reserved_end: rp_layout::HEAP_BASE,
            stats: RpStats::default(),
        }
    }

    /// Number of logical threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RpStats {
        self.stats
    }

    /// Live (allocated, unfreed) block count, large blocks included.
    pub fn live_blocks(&self) -> usize {
        self.live.len() + self.large_live.len()
    }

    /// Views of every span, in address order (conformance suites).
    pub fn span_views(&self) -> Vec<RpSpanView> {
        self.spans
            .iter()
            .map(|(&base, s)| RpSpanView {
                base,
                owner: s.owner,
                class: s.class,
                carved: s.carved,
                capacity: s.capacity,
                free_len: s.free.len() as u64,
                deferred_len: s.deferred.len() as u64,
                live: s.live,
            })
            .collect()
    }

    /// The owning thread of `ptr`'s span, if it is a live small/medium
    /// span.
    pub fn span_owner(&self, ptr: Addr) -> Option<usize> {
        self.spans.get(&rp_layout::span_of(ptr)).map(|s| s.owner)
    }

    /// Top two entries of the active span's free list for `(thread,
    /// class)` — what an accelerated pop would return, and the entry
    /// after it.
    pub fn list_top2(&self, thread: usize, class: u16) -> (Option<Addr>, Option<Addr>) {
        let Some(base) = self.active[thread][usize::from(class)] else {
            return (None, None);
        };
        let s = &self.spans[&base];
        let n = s.free.len();
        (
            n.checked_sub(1).map(|i| s.free[i]),
            n.checked_sub(2).map(|i| s.free[i]),
        )
    }

    /// Allocates `requested` bytes on thread 0.
    pub fn malloc(&mut self, requested: u64) -> RpMallocOutcome {
        self.malloc_on(0, requested)
    }

    /// Frees `ptr` on thread 0.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> RpFreeOutcome {
        self.free_on(0, ptr, sized)
    }

    fn reserve(&mut self, spans: u64) -> bool {
        let need = self.next_span + spans * rp_layout::SPAN_SIZE;
        if need > self.reserved_end {
            let chunk = rp_layout::RESERVE_SPANS.max(spans) * rp_layout::SPAN_SIZE;
            self.reserved_end += chunk;
            true
        } else {
            false
        }
    }

    fn map_span(&mut self, thread: usize, class: u16) -> (Addr, bool) {
        let grew = self.reserve(1);
        let base = self.next_span;
        self.next_span += rp_layout::SPAN_SIZE;
        self.spans.insert(
            base,
            Span {
                owner: thread,
                class,
                block_size: rp_layout::class_size(class),
                capacity: rp_layout::span_capacity(class),
                carved: 0,
                free: Vec::new(),
                deferred: Vec::new(),
                live: 0,
                slot: SpanSlot::Active,
            },
        );
        (base, grew)
    }

    /// Serves one block from span `base` (which must have a free,
    /// deferred, or uncarved block). Returns the block and the inner
    /// path taken.
    fn serve_from(&mut self, base: Addr) -> (Addr, RpMallocPath) {
        let span = self.spans.get_mut(&base).expect("span exists");
        if let Some(ptr) = span.free.pop() {
            let depth = span.free.len() as u64 + 1;
            span.live += 1;
            return (ptr, RpMallocPath::LocalHit { depth });
        }
        if !span.deferred.is_empty() {
            let adopted = span.deferred.len() as u64;
            span.free = std::mem::take(&mut span.deferred);
            let ptr = span.free.pop().expect("adopted at least one block");
            span.live += 1;
            return (ptr, RpMallocPath::DeferredAdopt { adopted });
        }
        assert!(span.carved < span.capacity, "serve_from needs room");
        let ptr = base + rp_layout::SPAN_HEADER + span.carved * span.block_size;
        span.carved += 1;
        span.live += 1;
        let remaining = span.capacity - span.carved;
        (ptr, RpMallocPath::Carve { remaining })
    }

    fn span_has_room(&self, base: Addr) -> bool {
        let s = &self.spans[&base];
        !s.free.is_empty() || !s.deferred.is_empty() || s.carved < s.capacity
    }

    /// Allocates `requested` bytes on `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or `requested` is zero.
    pub fn malloc_on(&mut self, thread: usize, requested: u64) -> RpMallocOutcome {
        assert!(thread < self.threads, "thread {thread} out of range");
        assert!(requested > 0, "zero-byte malloc");
        self.stats.mallocs += 1;
        let Some(class) = rp_layout::class_of(requested) else {
            let spans = (requested + rp_layout::SPAN_HEADER).div_ceil(rp_layout::SPAN_SIZE);
            let grew = self.reserve(spans);
            let base = self.next_span;
            self.next_span += spans * rp_layout::SPAN_SIZE;
            let ptr = base + rp_layout::SPAN_HEADER;
            self.large_live.insert(ptr, spans);
            self.stats.large_allocs += 1;
            return RpMallocOutcome {
                ptr,
                requested,
                alloc_size: spans * rp_layout::SPAN_SIZE - rp_layout::SPAN_HEADER,
                class: None,
                span: None,
                post_head: None,
                post_next: None,
                path: RpMallocPath::Large { spans, grew },
            };
        };
        let c = usize::from(class);
        let (base, ptr, path) = match self.active[thread][c] {
            Some(base) if self.span_has_room(base) => {
                let (ptr, path) = self.serve_from(base);
                (base, ptr, path)
            }
            stale => {
                // Exhausted (or no) active span: retire it, install the
                // next one — partial first, then full spans holding
                // deferred blocks (lazy reclamation), then a fresh map.
                if let Some(old) = stale {
                    let s = self.spans.get_mut(&old).expect("span exists");
                    s.slot = SpanSlot::Full;
                    self.full[thread][c].push(old);
                }
                let (base, reused, grew) = if let Some(base) = self.partial[thread][c].pop() {
                    (base, true, false)
                } else if let Some(i) = self.full[thread][c]
                    .iter()
                    .position(|b| !self.spans[b].deferred.is_empty())
                {
                    (self.full[thread][c].remove(i), true, false)
                } else {
                    let (base, grew) = self.map_span(thread, class);
                    (base, false, grew)
                };
                self.spans.get_mut(&base).expect("span exists").slot = SpanSlot::Active;
                self.active[thread][c] = Some(base);
                self.stats.new_spans += 1;
                let (ptr, _) = self.serve_from(base);
                (base, ptr, RpMallocPath::NewSpan { reused, grew })
            }
        };
        match path {
            RpMallocPath::LocalHit { .. } => self.stats.local_hits += 1,
            RpMallocPath::DeferredAdopt { adopted } => {
                self.stats.adopts += 1;
                self.stats.adopted_blocks += adopted;
            }
            RpMallocPath::Carve { .. } => self.stats.carves += 1,
            _ => {}
        }
        let block_size = self.spans[&base].block_size;
        self.live.insert(
            ptr,
            Live {
                span: base,
                class,
                alloc_size: block_size,
            },
        );
        let (post_head, post_next) = self.list_top2(thread, class);
        RpMallocOutcome {
            ptr,
            requested,
            alloc_size: block_size,
            class: Some(class),
            span: Some(base),
            post_head,
            post_next,
            path,
        }
    }

    /// Frees `ptr` on `thread`: the owner pushes the span's local list,
    /// a foreign thread pushes the deferred list.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free, or an out-of-range thread.
    pub fn free_on(&mut self, thread: usize, ptr: Addr, sized: bool) -> RpFreeOutcome {
        assert!(thread < self.threads, "thread {thread} out of range");
        self.stats.frees += 1;
        if let Some(spans) = self.large_live.remove(&ptr) {
            self.stats.large_frees += 1;
            return RpFreeOutcome {
                ptr,
                class: None,
                alloc_size: spans * rp_layout::SPAN_SIZE - rp_layout::SPAN_HEADER,
                sized,
                span: None,
                path: RpFreePath::Large { spans },
            };
        }
        let live = self
            .live
            .remove(&ptr)
            .unwrap_or_else(|| panic!("invalid or double free of {ptr:#x}"));
        let base = rp_layout::span_of(ptr);
        debug_assert_eq!(base, live.span, "span mask must recover the span");
        let span = self.spans.get_mut(&base).expect("span exists");
        span.live -= 1;
        let path = if span.owner == thread {
            self.stats.local_frees += 1;
            span.free.push(ptr);
            let depth = span.free.len() as u64;
            let to_active = span.slot == SpanSlot::Active;
            if span.slot == SpanSlot::Full {
                span.slot = SpanSlot::Partial;
                let owner = span.owner;
                let c = usize::from(live.class);
                self.full[owner][c].retain(|&b| b != base);
                self.partial[owner][c].push(base);
            }
            RpFreePath::Local { depth, to_active }
        } else {
            self.stats.deferred_frees += 1;
            span.deferred.push(ptr);
            RpFreePath::Deferred {
                depth: self.spans[&base].deferred.len() as u64,
            }
        };
        RpFreeOutcome {
            ptr,
            class: Some(live.class),
            alloc_size: live.alloc_size,
            sized,
            span: Some(base),
            path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carve_then_hit() {
        let mut a = RpMalloc::new(1);
        let o1 = a.malloc(64);
        assert!(matches!(
            o1.path,
            RpMallocPath::NewSpan { reused: false, .. }
        ));
        let o2 = a.malloc(64);
        assert!(matches!(o2.path, RpMallocPath::Carve { .. }));
        a.free(o2.ptr, true);
        let o3 = a.malloc(64);
        assert_eq!(o3.ptr, o2.ptr, "free list is LIFO");
        assert!(matches!(o3.path, RpMallocPath::LocalHit { .. }));
    }

    #[test]
    fn rounding_is_monotone_and_covers_granularities() {
        assert_eq!(rp_layout::class_of(1), Some(0));
        assert_eq!(rp_layout::class_size(0), 16);
        assert_eq!(rp_layout::class_of(2048), Some(127));
        assert_eq!(rp_layout::class_of(2049), Some(128));
        assert_eq!(rp_layout::class_size(128), 2048 + 512);
        assert_eq!(rp_layout::class_of(rp_layout::MEDIUM_MAX + 1), None);
        let mut prev = 0;
        for size in 1..=rp_layout::MEDIUM_MAX {
            let cls = rp_layout::class_of(size).unwrap();
            let rounded = rp_layout::class_size(cls);
            assert!(rounded >= size, "rounded {rounded} < size {size}");
            assert!(rounded >= prev, "rounding must be monotone");
            prev = rounded;
        }
    }

    #[test]
    fn span_mask_recovers_every_block() {
        let mut a = RpMalloc::new(1);
        for i in 0..500u64 {
            let o = a.malloc(16 + (i % 40) * 48);
            let span = o.span.unwrap();
            assert_eq!(rp_layout::span_of(o.ptr), span);
            assert!(o.ptr + o.alloc_size <= span + rp_layout::SPAN_SIZE);
        }
    }

    #[test]
    fn foreign_free_defers_and_owner_adopts() {
        let mut a = RpMalloc::new(2);
        let ptrs: Vec<Addr> = (0..4).map(|_| a.malloc(64).ptr).collect();
        // Exhaust carving so the next malloc must consult the lists.
        while matches!(
            a.malloc(64).path,
            RpMallocPath::Carve { remaining } if remaining > 0
        ) {}
        for &p in &ptrs {
            let f = a.free_on(1, p, true);
            assert!(matches!(f.path, RpFreePath::Deferred { .. }));
        }
        let o = a.malloc(64);
        assert!(matches!(o.path, RpMallocPath::DeferredAdopt { adopted: 4 }));
        // Adoption is LIFO over the deferred pushes.
        assert_eq!(o.ptr, ptrs[3]);
    }

    #[test]
    fn exhausted_span_is_replaced_and_reclaimed() {
        let mut a = RpMalloc::new(1);
        let cap = rp_layout::span_capacity(rp_layout::class_of(2048).unwrap());
        let ptrs: Vec<Addr> = (0..cap + 2).map(|_| a.malloc(2048).ptr).collect();
        assert!(a.stats().new_spans >= 2, "second span must be mapped");
        // Free a block of the first (now Full) span: it becomes Partial
        // and is reused once the active span exhausts.
        a.free(ptrs[0], true);
        for _ in 0..(cap - 2) {
            a.malloc(2048);
        }
        let o = a.malloc(2048);
        assert_eq!(o.ptr, ptrs[0], "partial span reclaimed");
        assert!(matches!(o.path, RpMallocPath::NewSpan { reused: true, .. }));
    }

    #[test]
    fn large_round_trip() {
        let mut a = RpMalloc::new(1);
        let o = a.malloc(1 << 20);
        assert!(matches!(o.path, RpMallocPath::Large { .. }));
        assert!(o.alloc_size >= 1 << 20);
        let f = a.free(o.ptr, false);
        assert!(matches!(f.path, RpFreePath::Large { .. }));
        assert_eq!(a.live_blocks(), 0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = RpMalloc::new(1);
        let mut ranges: Vec<(Addr, u64)> = Vec::new();
        for &size in &[8u64, 64, 100, 512, 2048, 4096, 40_000, 600_000, 64] {
            let o = a.malloc(size);
            for &(p, s) in &ranges {
                let disjoint = o.ptr + o.alloc_size <= p || p + s <= o.ptr;
                assert!(disjoint, "overlap at {:#x}", o.ptr);
            }
            ranges.push((o.ptr, o.alloc_size));
        }
    }

    #[test]
    fn span_conservation_holds() {
        let mut a = RpMalloc::new(2);
        let mut live = Vec::new();
        for i in 0..800u64 {
            if i % 3 != 2 {
                live.push(a.malloc_on((i % 2) as usize, 16 + (i % 64) * 16).ptr);
            } else if let Some(p) = live.pop() {
                a.free_on(((i / 3) % 2) as usize, p, i % 2 == 0);
            }
        }
        for v in a.span_views() {
            assert_eq!(
                v.carved,
                v.live + v.free_len + v.deferred_len,
                "span {:#x} leaks blocks",
                v.base
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid or double free")]
    fn double_free_panics() {
        let mut a = RpMalloc::new(1);
        let o = a.malloc(64);
        a.free(o.ptr, true);
        a.free(o.ptr, true);
    }
}
