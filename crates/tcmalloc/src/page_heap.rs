//! The span-based page heap.
//!
//! The lowest allocator pool (§3.1): memory is obtained from the "OS" in
//! large grants, tracked as *spans* (contiguous runs of 8 KiB pages), kept
//! in per-length free lists, split on allocation and coalesced with
//! neighbouring free spans on deallocation, with a page map resolving any
//! page to its owning span (this is the structure `free()` consults when no
//! sized delete is available).

use crate::hash::IntMap;

/// Slab index of a span.
pub type SpanId = usize;

/// Lifecycle state of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanState {
    /// On a page-heap free list.
    Free,
    /// Handed out (to a central free list or a large allocation).
    InUse,
    /// Merged into another span during coalescing; slot is dead.
    Dead,
}

/// A contiguous run of pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First page number.
    pub start_page: u64,
    /// Length in pages.
    pub pages: u64,
    /// Current state.
    pub state: SpanState,
}

/// Result of allocating a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAlloc {
    /// Slab id of the allocated span.
    pub id: SpanId,
    /// First page.
    pub start_page: u64,
    /// Length in pages.
    pub pages: u64,
    /// Whether satisfying this request required growing the heap with a
    /// fresh OS grant (the most expensive malloc path of Figure 1).
    pub grew_heap: bool,
}

/// Page-heap statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageHeapStats {
    /// Spans handed out.
    pub span_allocs: u64,
    /// Spans returned.
    pub span_frees: u64,
    /// OS grants requested.
    pub os_grows: u64,
    /// Pages obtained from the OS in total.
    pub os_pages: u64,
    /// Coalescing merges performed.
    pub coalesces: u64,
    /// Span splits performed.
    pub splits: u64,
}

/// Spans shorter than this live in exact per-length free lists; longer ones
/// go to a single "large" list (TCMalloc's `kMaxPages`).
pub const MAX_SMALL_SPAN_PAGES: u64 = 128;

/// Minimum OS grant, in pages (1 MiB of 8 KiB pages).
pub const MIN_OS_GROW_PAGES: u64 = 128;

/// The page heap.
///
/// # Example
///
/// ```
/// use mallacc_tcmalloc::PageHeap;
///
/// let mut heap = PageHeap::new();
/// let a = heap.allocate(2);
/// assert!(a.grew_heap); // first allocation pulls an OS grant
/// let b = heap.allocate(2);
/// assert!(!b.grew_heap); // carved from the grant's remainder
/// heap.free(a.id);
/// heap.free(b.id);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageHeap {
    spans: Vec<Span>,
    /// Exact-length free lists, index = pages (0 unused).
    free_small: Vec<Vec<SpanId>>,
    free_large: Vec<SpanId>,
    /// page → owning span, maintained for every page of live spans.
    pagemap: IntMap<u64, SpanId>,
    next_page: u64,
    stats: PageHeapStats,
}

impl PageHeap {
    /// Creates an empty heap; the first allocation will grow it.
    pub fn new() -> Self {
        Self {
            spans: Vec::new(),
            free_small: vec![Vec::new(); (MAX_SMALL_SPAN_PAGES + 1) as usize],
            free_large: Vec::new(),
            pagemap: IntMap::default(),
            next_page: 0,
            stats: PageHeapStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PageHeapStats {
        self.stats
    }

    /// The span slab entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn span(&self, id: SpanId) -> Span {
        self.spans[id]
    }

    /// Total pages currently obtained from the OS.
    pub fn heap_pages(&self) -> u64 {
        self.next_page
    }

    /// Resolves a page to its owning span, as `free()` does via the page
    /// map.
    pub fn span_of_page(&self, page: u64) -> Option<SpanId> {
        self.pagemap.get(&page).copied()
    }

    fn register(&mut self, id: SpanId) {
        let span = self.spans[id];
        for p in span.start_page..span.start_page + span.pages {
            self.pagemap.insert(p, id);
        }
    }

    fn push_free(&mut self, id: SpanId) {
        let pages = self.spans[id].pages;
        self.spans[id].state = SpanState::Free;
        if pages <= MAX_SMALL_SPAN_PAGES {
            self.free_small[pages as usize].push(id);
        } else {
            self.free_large.push(id);
        }
    }

    fn take_free(&mut self, id: SpanId) {
        let pages = self.spans[id].pages;
        let list = if pages <= MAX_SMALL_SPAN_PAGES {
            &mut self.free_small[pages as usize]
        } else {
            &mut self.free_large
        };
        let pos = list
            .iter()
            .position(|&x| x == id)
            .expect("free span must be on its free list");
        list.swap_remove(pos);
    }

    fn grow(&mut self, min_pages: u64) -> SpanId {
        let pages = min_pages.max(MIN_OS_GROW_PAGES);
        let id = self.spans.len();
        self.spans.push(Span {
            start_page: self.next_page,
            pages,
            state: SpanState::Free,
        });
        self.next_page += pages;
        self.stats.os_grows += 1;
        self.stats.os_pages += pages;
        self.register(id);
        self.push_free(id);
        id
    }

    /// Splits `pages` off the front of free span `id`, returning the id of
    /// the span that now has exactly `pages` pages.
    fn split(&mut self, id: SpanId, pages: u64) -> SpanId {
        let span = self.spans[id];
        debug_assert!(span.pages > pages);
        self.stats.splits += 1;
        // Shrink the original to the remainder...
        let rest_id = self.spans.len();
        self.spans.push(Span {
            start_page: span.start_page + pages,
            pages: span.pages - pages,
            state: SpanState::Free,
        });
        self.register(rest_id);
        self.push_free(rest_id);
        // ...and retarget the original as the carved head.
        self.spans[id].pages = pages;
        self.register(id);
        id
    }

    /// Allocates a span of exactly `pages` pages, growing the heap if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn allocate(&mut self, pages: u64) -> SpanAlloc {
        assert!(pages > 0, "cannot allocate an empty span");
        let (found, grew) = match self.find_free(pages) {
            Some(id) => (id, false),
            None => (self.grow(pages), true),
        };
        self.take_free(found);
        let id = if self.spans[found].pages > pages {
            self.split(found, pages)
        } else {
            found
        };
        self.spans[id].state = SpanState::InUse;
        self.stats.span_allocs += 1;
        let s = self.spans[id];
        SpanAlloc {
            id,
            start_page: s.start_page,
            pages: s.pages,
            grew_heap: grew,
        }
    }

    fn find_free(&self, pages: u64) -> Option<SpanId> {
        if pages <= MAX_SMALL_SPAN_PAGES {
            for len in pages..=MAX_SMALL_SPAN_PAGES {
                if let Some(&id) = self.free_small[len as usize].last() {
                    return Some(id);
                }
            }
        }
        // First fit in the large list.
        self.free_large
            .iter()
            .copied()
            .find(|&id| self.spans[id].pages >= pages)
    }

    /// Returns span `id` to the heap, coalescing with free neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the span is not currently in use (double free).
    pub fn free(&mut self, id: SpanId) {
        assert_eq!(
            self.spans[id].state,
            SpanState::InUse,
            "span {id} freed while not in use"
        );
        self.stats.span_frees += 1;
        let mut start = self.spans[id].start_page;
        let mut pages = self.spans[id].pages;

        // Coalesce with the span ending just before us.
        if start > 0 {
            if let Some(prev) = self.span_of_page(start - 1) {
                if self.spans[prev].state == SpanState::Free {
                    self.take_free(prev);
                    start = self.spans[prev].start_page;
                    pages += self.spans[prev].pages;
                    self.spans[prev].state = SpanState::Dead;
                    self.stats.coalesces += 1;
                }
            }
        }
        // Coalesce with the span starting just after us.
        if let Some(next) = self.span_of_page(start + pages) {
            if self.spans[next].state == SpanState::Free {
                self.take_free(next);
                pages += self.spans[next].pages;
                self.spans[next].state = SpanState::Dead;
                self.stats.coalesces += 1;
            }
        }

        self.spans[id].start_page = start;
        self.spans[id].pages = pages;
        self.register(id);
        self.push_free(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    #[test]
    fn first_allocation_grows_heap() {
        let mut h = PageHeap::new();
        let a = h.allocate(1);
        assert!(a.grew_heap);
        assert_eq!(a.pages, 1);
        assert_eq!(h.stats().os_grows, 1);
        assert_eq!(h.heap_pages(), MIN_OS_GROW_PAGES);
    }

    #[test]
    fn subsequent_allocations_carve_grant() {
        let mut h = PageHeap::new();
        let _ = h.allocate(1);
        for _ in 0..10 {
            let a = h.allocate(2);
            assert!(!a.grew_heap);
        }
        assert_eq!(h.stats().os_grows, 1);
    }

    #[test]
    fn spans_do_not_overlap() {
        let mut h = PageHeap::new();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for pages in [1u64, 3, 7, 2, 128, 130, 5] {
            let a = h.allocate(pages);
            for &(s, p) in &ranges {
                let disjoint = a.start_page + a.pages <= s || s + p <= a.start_page;
                assert!(
                    disjoint,
                    "span overlap: ({s},{p}) vs ({},{})",
                    a.start_page, a.pages
                );
            }
            ranges.push((a.start_page, a.pages));
        }
    }

    #[test]
    fn pagemap_resolves_every_page() {
        let mut h = PageHeap::new();
        let a = h.allocate(5);
        for p in a.start_page..a.start_page + 5 {
            assert_eq!(h.span_of_page(p), Some(a.id));
        }
    }

    #[test]
    fn free_and_reuse() {
        let mut h = PageHeap::new();
        let a = h.allocate(4);
        h.free(a.id);
        let b = h.allocate(4);
        assert!(!b.grew_heap);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut h = PageHeap::new();
        let a = h.allocate(2);
        let b = h.allocate(2);
        // b is right after a. Free both; the second free should coalesce
        // with the first (and with the grant remainder).
        h.free(a.id);
        let before = h.stats().coalesces;
        h.free(b.id);
        assert!(h.stats().coalesces > before);
        // A large allocation should now fit without growing.
        let c = h.allocate(MIN_OS_GROW_PAGES);
        assert!(
            !c.grew_heap,
            "coalesced grant should satisfy full-size span"
        );
    }

    #[test]
    #[should_panic(expected = "freed while not in use")]
    fn double_free_panics() {
        let mut h = PageHeap::new();
        let a = h.allocate(1);
        h.free(a.id);
        h.free(a.id);
    }

    #[test]
    fn large_span_allocation() {
        let mut h = PageHeap::new();
        let a = h.allocate(1000);
        assert_eq!(a.pages, 1000);
        assert!(a.grew_heap);
        h.free(a.id);
        let b = h.allocate(900);
        assert!(!b.grew_heap, "should reuse the freed large span");
    }

    #[test]
    fn page_addresses_are_heap_addresses() {
        let mut h = PageHeap::new();
        let a = h.allocate(1);
        let addr = layout::page_addr(a.start_page);
        assert_eq!(layout::addr_to_page(addr), a.start_page);
    }

    #[test]
    fn exhaustive_alloc_free_cycle_is_stable() {
        let mut h = PageHeap::new();
        for round in 0..50 {
            let ids: Vec<_> = (1..=8u64).map(|p| h.allocate(p).id).collect();
            for id in ids {
                h.free(id);
            }
            // Heap growth must stabilise after the first round.
            if round > 0 {
                assert_eq!(h.stats().os_grows, 1, "round {round} grew again");
            }
        }
    }
}
