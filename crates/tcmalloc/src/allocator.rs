//! The assembled TCMalloc model: thread cache over central free lists over
//! the page heap, with sampling.
//!
//! [`TcMalloc::malloc`] and [`TcMalloc::free`] are *functional*: they
//! maintain real free lists, spans and a page map over a simulated address
//! space and return an *outcome* describing exactly which path the request
//! took and which addresses it touched. The timing layer (the `mallacc`
//! crate) translates outcomes into micro-op programs for the core model —
//! so the cycle distributions of the paper's Figure 1 emerge from the same
//! pool hierarchy that produced them in the original system.

use mallacc_cache::Addr;

use crate::central::{CentralFreeList, Populate};
use crate::free_list::FreeList;
use crate::hash::IntMap;
use crate::layout;
use crate::page_heap::{PageHeap, SpanId};
use crate::sampler::Sampler;
use crate::size_class::{class_index, consts, ClassId, SizeClasses};
use crate::transfer::TransferCache;

/// Which pool ultimately served a malloc call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MallocPath {
    /// Fast path: popped straight off the thread-cache free list.
    ThreadCacheHit {
        /// Address of the free-list header in the thread cache.
        list: Addr,
        /// The new head loaded from inside the popped block (`*head`).
        next: Option<Addr>,
    },
    /// Thread-cache miss: fetched a batch from the central free list.
    CentralRefill {
        /// Address of the thread-cache free-list header.
        list: Addr,
        /// Address of the central list's lock-protected header.
        central: Addr,
        /// Objects moved into the thread cache (last becomes the head).
        batch: Vec<Addr>,
        /// Present when the central list had to carve a fresh span.
        populate: Option<Populate>,
        /// New head after popping the returned object.
        next: Option<Addr>,
        /// The batch came from a transfer-cache slot, not the central
        /// list's span free lists — a cheaper, lower-contention fetch.
        via_transfer: bool,
        /// A dry central list was restocked by stealing from this
        /// neighbour's thread cache. The victim's list head changed
        /// underneath it, so the multi-core timing layer must invalidate
        /// the victim core's malloc-cache entry for this class.
        stole_from: Option<usize>,
    },
    /// Large request (> 256 KiB): served by the page heap directly.
    Large {
        /// Pages allocated.
        pages: u64,
        /// Whether an OS grant was needed.
        grew_heap: bool,
    },
}

/// Result of one malloc call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MallocOutcome {
    /// The address handed to the application.
    pub ptr: Addr,
    /// The requested size.
    pub requested: u64,
    /// The rounded allocation size.
    pub alloc_size: u64,
    /// Size class (None for large allocations).
    pub cls: Option<ClassId>,
    /// The Figure 5 class index (None for large allocations).
    pub class_index: Option<u64>,
    /// Whether the sampler fired on this request.
    pub sampled: bool,
    /// Which pool served the request.
    pub path: MallocPath,
}

/// Which path a free call took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreePath {
    /// Fast path: pushed onto the thread-cache free list.
    ThreadCachePush {
        /// Address of the free-list header.
        list: Addr,
        /// The previous head, stored into the freed block as its `next`.
        old_head: Option<Addr>,
        /// Objects released to the central list when the list overflowed.
        released: Option<Vec<Addr>>,
        /// The released batch parked in a transfer-cache slot instead of
        /// going through the central list's lock.
        released_to_transfer: bool,
    },
    /// Large free: span returned to the page heap.
    Large {
        /// Pages returned.
        pages: u64,
    },
}

/// Result of one free call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeOutcome {
    /// The freed address.
    pub ptr: Addr,
    /// Size class of the freed block (None for large).
    pub cls: Option<ClassId>,
    /// Rounded size of the freed block.
    pub alloc_size: u64,
    /// Whether the size class came from a sized delete (compile-time size)
    /// rather than a page-map lookup.
    pub sized: bool,
    /// The freeing thread is not the thread that allocated the block (the
    /// producer–consumer cross-thread pattern). Remote frees migrate
    /// memory between caches and are priced differently by the multi-core
    /// timing layer.
    pub remote: bool,
    /// Radix nodes visited when `sized` is false.
    pub pagemap_addrs: Option<[Addr; 3]>,
    /// Which path the free took.
    pub path: FreePath,
}

/// Allocator-wide statistics, one counter per interesting event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// malloc calls.
    pub mallocs: u64,
    /// Fast-path (thread cache hit) mallocs.
    pub fast_hits: u64,
    /// Thread-cache misses refilled from the central list.
    pub central_refills: u64,
    /// Refills that had to carve a new span.
    pub populates: u64,
    /// Large allocations.
    pub large_allocs: u64,
    /// Sampled allocations.
    pub sampled: u64,
    /// free calls.
    pub frees: u64,
    /// Fast-path frees.
    pub fast_frees: u64,
    /// Frees that triggered a release to the central list.
    pub list_releases: u64,
    /// Batches stolen from neighbouring thread caches on a refill.
    pub steals: u64,
    /// Refills served from a transfer-cache slot.
    pub transfer_hits: u64,
    /// Released batches parked in a transfer-cache slot.
    pub transfer_inserts: u64,
    /// Frees issued by a thread other than the allocating one.
    pub remote_frees: u64,
    /// Large frees.
    pub large_frees: u64,
    /// Bytes handed out.
    pub bytes_allocated: u64,
    /// Bytes returned.
    pub bytes_freed: u64,
}

#[derive(Debug, Clone, Copy)]
struct LiveAlloc {
    alloc_size: u64,
    cls: Option<ClassId>,
    span: Option<SpanId>,
    /// The thread whose cache served the allocation; a free from any
    /// other thread is a remote free.
    owner: usize,
}

/// Configuration knobs for the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcMallocConfig {
    /// Sampling interval in bytes.
    pub sampling_interval: u64,
    /// Thread-cache size cap before scavenging (2 MiB in the paper).
    pub max_cache_bytes: u64,
}

impl Default for TcMallocConfig {
    fn default() -> Self {
        Self {
            sampling_interval: Sampler::DEFAULT_INTERVAL,
            max_cache_bytes: consts::MAX_THREAD_CACHE_BYTES,
        }
    }
}

/// One thread's private cache: per-class free lists with adaptive length
/// caps, a byte budget and the allocation sampler.
#[derive(Debug, Clone)]
struct ThreadCache {
    /// Free lists, indexed by class id (slot 0 unused).
    lists: Vec<FreeList>,
    /// Adaptive per-class max list length (slow-start like TCMalloc).
    max_len: Vec<usize>,
    cache_bytes: u64,
    sampler: Sampler,
}

impl ThreadCache {
    fn new(size_classes: &SizeClasses, config: &TcMallocConfig) -> Self {
        let n = size_classes.num_classes() + 1;
        let mut lists = Vec::with_capacity(n);
        let mut max_len = Vec::with_capacity(n);
        lists.push(FreeList::new());
        max_len.push(0);
        for (_, info) in size_classes.iter() {
            lists.push(FreeList::new());
            max_len.push(info.num_to_move as usize);
        }
        Self {
            lists,
            max_len,
            cache_bytes: 0,
            sampler: Sampler::new(config.sampling_interval),
        }
    }
}

/// The TCMalloc model. By default it has a single thread cache (the
/// paper's simulations are single-core); [`TcMalloc::with_threads`] builds
/// the full §3.1 structure — one cache per thread over shared central
/// lists, with neighbour stealing and cross-thread memory migration.
///
/// # Example
///
/// ```
/// use mallacc_tcmalloc::{TcMalloc, MallocPath};
///
/// let mut a = TcMalloc::new(Default::default());
/// let first = a.malloc(48);
/// // Cold caches: the first call of a class refills from central.
/// assert!(matches!(first.path, MallocPath::CentralRefill { .. }));
/// let second = a.malloc(48);
/// assert!(matches!(second.path, MallocPath::ThreadCacheHit { .. }));
/// a.free(second.ptr, true);
/// a.free(first.ptr, true);
/// ```
#[derive(Debug, Clone)]
pub struct TcMalloc {
    size_classes: SizeClasses,
    threads: Vec<ThreadCache>,
    /// Per-class batch slots in front of the central lists (slot 0 dummy).
    transfer: Vec<TransferCache>,
    central: Vec<CentralFreeList>,
    heap: PageHeap,
    span_class: IntMap<SpanId, ClassId>,
    live: IntMap<Addr, LiveAlloc>,
    /// Objects carved out of spans so far, per class (slot 0 unused).
    /// Small-class blocks never return to the page heap, so at any point
    /// `carved[c] == live(c) + thread lists + transfer cache + central`.
    carved: Vec<u64>,
    config: TcMallocConfig,
    stats: AllocStats,
}

impl TcMalloc {
    /// Creates a cold single-thread allocator.
    pub fn new(config: TcMallocConfig) -> Self {
        Self::with_threads(config, 1)
    }

    /// Creates a cold allocator with `num_threads` thread caches sharing
    /// the central free lists and the page heap.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn with_threads(config: TcMallocConfig, num_threads: usize) -> Self {
        assert!(num_threads > 0, "need at least one thread cache");
        let size_classes = SizeClasses::tcmalloc_2007();
        let n = size_classes.num_classes() + 1;
        let mut central = Vec::with_capacity(n);
        let mut transfer = Vec::with_capacity(n);
        // Slot 0 is a dummy so ClassId indexes directly.
        central.push(CentralFreeList::new(
            ClassId(1),
            size_classes.class_info(ClassId(1)),
        ));
        transfer.push(TransferCache::new(1));
        for (cls, info) in size_classes.iter() {
            central.push(CentralFreeList::new(cls, info));
            transfer.push(TransferCache::new(info.num_to_move as usize));
        }
        let threads = (0..num_threads)
            .map(|_| ThreadCache::new(&size_classes, &config))
            .collect();
        Self {
            size_classes,
            threads,
            transfer,
            central,
            heap: PageHeap::new(),
            span_class: IntMap::default(),
            live: IntMap::default(),
            carved: vec![0; n],
            config,
            stats: AllocStats::default(),
        }
    }

    /// Number of thread caches.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The size-class table in use.
    pub fn size_classes(&self) -> &SizeClasses {
        &self.size_classes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// The page heap (for inspection in tests and figures).
    pub fn page_heap(&self) -> &PageHeap {
        &self.heap
    }

    /// Bytes currently cached in thread 0's cache.
    pub fn thread_cache_bytes(&self) -> u64 {
        self.thread_cache_bytes_on(0)
    }

    /// Bytes currently cached in thread `tid`'s cache.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn thread_cache_bytes_on(&self, tid: usize) -> u64 {
        self.threads[tid].cache_bytes
    }

    /// Current head of a class's free list in thread 0's cache.
    pub fn list_head(&self, cls: ClassId) -> Option<Addr> {
        self.list_head_on(0, cls)
    }

    /// Current head of a class's free list in thread `tid`'s cache.
    pub fn list_head_on(&self, tid: usize, cls: ClassId) -> Option<Addr> {
        self.threads[tid].lists[cls.0 as usize].head()
    }

    /// Second element of a class's free list in thread 0's cache.
    pub fn list_next_after_head(&self, cls: ClassId) -> Option<Addr> {
        self.list_next_after_head_on(0, cls)
    }

    /// Second element of a class's free list in thread `tid`'s cache.
    pub fn list_next_after_head_on(&self, tid: usize, cls: ClassId) -> Option<Addr> {
        self.threads[tid].lists[cls.0 as usize].next_after_head()
    }

    /// Length of a class's free list in thread 0's cache.
    pub fn list_len(&self, cls: ClassId) -> usize {
        self.list_len_on(0, cls)
    }

    /// Length of a class's free list in thread `tid`'s cache.
    pub fn list_len_on(&self, tid: usize, cls: ClassId) -> usize {
        self.threads[tid].lists[cls.0 as usize].len()
    }

    /// Every block on thread `tid`'s free list for `cls`, head first.
    /// Used by the cross-thread invariant tests: a block must never sit
    /// on two thread caches at once.
    pub fn free_list_blocks_on(&self, tid: usize, cls: ClassId) -> Vec<Addr> {
        self.threads[tid].lists[cls.0 as usize].iter().collect()
    }

    /// Objects currently parked in the transfer cache for `cls`.
    pub fn transfer_len(&self, cls: ClassId) -> usize {
        self.transfer[cls.0 as usize].len()
    }

    /// Objects currently in the central free list for `cls`.
    pub fn central_len(&self, cls: ClassId) -> usize {
        self.central[cls.0 as usize].len()
    }

    /// Total objects carved out of spans for `cls` since construction.
    /// Small-class objects never return to the page heap, so this is the
    /// conserved total of the class's block population.
    pub fn carved_objects(&self, cls: ClassId) -> u64 {
        self.carved[cls.0 as usize]
    }

    /// Live (allocated, not yet freed) blocks of class `cls`.
    pub fn live_blocks_of(&self, cls: ClassId) -> usize {
        self.live.values().filter(|l| l.cls == Some(cls)).count()
    }

    /// Free blocks of `cls` across every tier: all thread caches, the
    /// transfer cache and the central list. Together with
    /// [`TcMalloc::live_blocks_of`] this must equal
    /// [`TcMalloc::carved_objects`] at all times.
    pub fn free_blocks_of(&self, cls: ClassId) -> usize {
        let in_threads: usize = (0..self.threads.len())
            .map(|tid| self.list_len_on(tid, cls))
            .sum();
        in_threads + self.transfer_len(cls) + self.central_len(cls)
    }

    /// Number of live (allocated, not yet freed) blocks.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Allocates `requested` bytes from thread 0's cache.
    pub fn malloc(&mut self, requested: u64) -> MallocOutcome {
        self.malloc_on(0, requested)
    }

    /// Allocates `requested` bytes from thread `tid`'s cache.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn malloc_on(&mut self, tid: usize, requested: u64) -> MallocOutcome {
        self.stats.mallocs += 1;
        if requested > consts::MAX_SIZE {
            return self.malloc_large(tid, requested);
        }
        let cls = self
            .size_classes
            .size_class(requested)
            .expect("small sizes always map to a class");
        let info = self.size_classes.class_info(cls);
        let alloc_size = info.size;
        let idx = class_index(requested).expect("small size has an index");
        let sampled = self.threads[tid].sampler.record_allocation(alloc_size);
        if sampled {
            self.stats.sampled += 1;
        }
        self.stats.bytes_allocated += alloc_size;
        let list_addr = layout::thread_list_header_on(tid, cls);

        let list = &mut self.threads[tid].lists[cls.0 as usize];
        if let Some(p) = list.pop() {
            self.threads[tid].cache_bytes -= alloc_size;
            self.stats.fast_hits += 1;
            self.live.insert(
                p.block,
                LiveAlloc {
                    alloc_size,
                    cls: Some(cls),
                    span: None,
                    owner: tid,
                },
            );
            return MallocOutcome {
                ptr: p.block,
                requested,
                alloc_size,
                cls: Some(cls),
                class_index: Some(idx),
                sampled,
                path: MallocPath::ThreadCacheHit {
                    list: list_addr,
                    next: p.new_head,
                },
            };
        }

        // Miss: refill a batch. A parked transfer-cache batch (from another
        // thread's release) is cheapest; otherwise steal from a flush
        // neighbour cache (§3.1: "it either attempts to 'steal' some memory
        // from neighboring thread caches, or gets it from a central free
        // list") and go through the central list.
        self.stats.central_refills += 1;
        let batch_size = info.num_to_move as usize;
        let (batch, populate, via_transfer, stole_from) =
            if let Some(b) = self.transfer[cls.0 as usize].try_remove(batch_size) {
                self.stats.transfer_hits += 1;
                (b, None, true, None)
            } else {
                let stole_from = if self.central[cls.0 as usize].len() < batch_size {
                    self.try_steal(tid, cls, batch_size, alloc_size)
                } else {
                    None
                };
                let r = self.central[cls.0 as usize].remove_range(batch_size, &mut self.heap);
                if let Some(p) = &r.populate {
                    self.stats.populates += 1;
                    self.span_class.insert(p.span.id, cls);
                    self.carved[cls.0 as usize] += p.object_count;
                }
                (r.batch, r.populate, false, stole_from)
            };
        let t = &mut self.threads[tid];
        let list = &mut t.lists[cls.0 as usize];
        list.push_batch(batch.iter().copied());
        let p = list.pop().expect("refill guarantees at least one object");
        t.cache_bytes += (batch.len() as u64 - 1) * alloc_size;
        self.live.insert(
            p.block,
            LiveAlloc {
                alloc_size,
                cls: Some(cls),
                span: None,
                owner: tid,
            },
        );
        MallocOutcome {
            ptr: p.block,
            requested,
            alloc_size,
            cls: Some(cls),
            class_index: Some(idx),
            sampled,
            path: MallocPath::CentralRefill {
                list: list_addr,
                central: layout::central_list(cls),
                batch,
                populate,
                next: p.new_head,
                via_transfer,
                stole_from,
            },
        }
    }

    /// Moves a batch from the best-stocked *other* thread cache into the
    /// central list, if any neighbour can spare one. Returns the victim.
    fn try_steal(
        &mut self,
        tid: usize,
        cls: ClassId,
        batch: usize,
        alloc_size: u64,
    ) -> Option<usize> {
        let victim = (0..self.threads.len())
            .filter(|&v| v != tid)
            .max_by_key(|&v| self.threads[v].lists[cls.0 as usize].len())?;
        if self.threads[victim].lists[cls.0 as usize].len() < 2 * batch {
            return None;
        }
        let moved = self.threads[victim].lists[cls.0 as usize].pop_batch(batch);
        self.threads[victim].cache_bytes -= moved.len() as u64 * alloc_size;
        self.central[cls.0 as usize].insert_range(moved);
        self.stats.steals += 1;
        Some(victim)
    }

    fn malloc_large(&mut self, tid: usize, requested: u64) -> MallocOutcome {
        let pages = requested.div_ceil(consts::PAGE_SIZE);
        let span = self.heap.allocate(pages);
        let ptr = layout::page_addr(span.start_page);
        let alloc_size = pages * consts::PAGE_SIZE;
        self.stats.large_allocs += 1;
        self.stats.bytes_allocated += alloc_size;
        let sampled = self.threads[tid].sampler.record_allocation(alloc_size);
        if sampled {
            self.stats.sampled += 1;
        }
        self.live.insert(
            ptr,
            LiveAlloc {
                alloc_size,
                cls: None,
                span: Some(span.id),
                owner: tid,
            },
        );
        MallocOutcome {
            ptr,
            requested,
            alloc_size,
            cls: None,
            class_index: None,
            sampled,
            path: MallocPath::Large {
                pages,
                grew_heap: span.grew_heap,
            },
        }
    }

    /// Frees `ptr`. `sized` models C++14 sized deallocation: when true the
    /// size class is computed from the compile-time size; when false the
    /// allocator performs the page-map lookup the paper calls out as
    /// caching poorly.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> FreeOutcome {
        self.free_on(0, ptr, sized)
    }

    /// Frees `ptr` from thread `tid` (the freeing thread's cache receives
    /// the block — this is how memory migrates between threads).
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free, or if `tid` is out of range.
    pub fn free_on(&mut self, tid: usize, ptr: Addr, sized: bool) -> FreeOutcome {
        self.stats.frees += 1;
        let live = self
            .live
            .remove(&ptr)
            .unwrap_or_else(|| panic!("invalid or double free of {ptr:#x}"));
        self.stats.bytes_freed += live.alloc_size;
        let remote = tid != live.owner;
        if remote {
            self.stats.remote_frees += 1;
        }

        let Some(cls) = live.cls else {
            // Large free.
            let span = live.span.expect("large allocations track their span");
            let pages = self.heap.span(span).pages;
            self.heap.free(span);
            self.stats.large_frees += 1;
            return FreeOutcome {
                ptr,
                cls: None,
                alloc_size: live.alloc_size,
                sized,
                remote,
                pagemap_addrs: (!sized)
                    .then(|| layout::pagemap_node_addrs(layout::addr_to_page(ptr))),
                path: FreePath::Large { pages },
            };
        };

        let pagemap_addrs = (!sized).then(|| layout::pagemap_node_addrs(layout::addr_to_page(ptr)));
        let list_addr = layout::thread_list_header_on(tid, cls);
        let t = &mut self.threads[tid];
        let list = &mut t.lists[cls.0 as usize];
        let old_head = list.head();
        list.push(ptr);
        t.cache_bytes += live.alloc_size;
        self.stats.fast_frees += 1;

        // Overflow heuristics: release a batch to the central list when the
        // list outgrows its (slow-start) max length, or when the whole
        // cache exceeds its byte budget.
        let info = self.size_classes.class_info(cls);
        let over_len = list.len() > t.max_len[cls.0 as usize];
        let over_bytes = t.cache_bytes > self.config.max_cache_bytes;
        let (released, released_to_transfer) = if over_len || over_bytes {
            if over_len {
                // Slow-start growth, capped so lists cannot grow unbounded.
                let cap = (8192 / info.size).max(2) as usize * 4;
                let grown = t.max_len[cls.0 as usize] + info.num_to_move as usize;
                t.max_len[cls.0 as usize] = grown.min(cap.max(info.num_to_move as usize));
            }
            let batch = list.pop_batch(info.num_to_move as usize);
            t.cache_bytes -= batch.len() as u64 * info.size;
            self.stats.list_releases += 1;
            // Full batches park in a transfer-cache slot; partial batches
            // and slot overflow spill through the central list's lock.
            let released = batch.clone();
            let to_transfer = match self.transfer[cls.0 as usize].try_insert(batch) {
                Ok(()) => {
                    self.stats.transfer_inserts += 1;
                    true
                }
                Err(spill) => {
                    self.central[cls.0 as usize].insert_range(spill);
                    false
                }
            };
            (Some(released), to_transfer)
        } else {
            (None, false)
        };

        FreeOutcome {
            ptr,
            cls: Some(cls),
            alloc_size: live.alloc_size,
            sized,
            remote,
            pagemap_addrs,
            path: FreePath::ThreadCachePush {
                list: list_addr,
                old_head,
                released,
                released_to_transfer,
            },
        }
    }
}

impl Default for TcMalloc {
    fn default() -> Self {
        Self::new(TcMallocConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> TcMalloc {
        TcMalloc::new(TcMallocConfig::default())
    }

    #[test]
    fn first_malloc_refills_then_hits() {
        let mut a = alloc();
        let o1 = a.malloc(64);
        assert!(matches!(o1.path, MallocPath::CentralRefill { .. }));
        let o2 = a.malloc(64);
        assert!(matches!(o2.path, MallocPath::ThreadCacheHit { .. }));
        assert_eq!(a.stats().fast_hits, 1);
        assert_eq!(a.stats().central_refills, 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = alloc();
        let mut ranges: Vec<(Addr, u64)> = Vec::new();
        for &size in &[8u64, 16, 64, 100, 1024, 9000, 300_000, 64, 8] {
            let o = a.malloc(size);
            for &(p, s) in &ranges {
                let disjoint = o.ptr + o.alloc_size <= p || p + s <= o.ptr;
                assert!(disjoint, "overlap at {:#x}", o.ptr);
            }
            ranges.push((o.ptr, o.alloc_size));
        }
    }

    #[test]
    fn free_then_malloc_recycles_lifo() {
        let mut a = alloc();
        let o1 = a.malloc(48);
        let o2 = a.malloc(48);
        a.free(o2.ptr, true);
        a.free(o1.ptr, true);
        let o3 = a.malloc(48);
        assert_eq!(o3.ptr, o1.ptr, "most recently freed is reused first");
    }

    #[test]
    fn malloc_outcome_reports_next_head() {
        let mut a = alloc();
        let o1 = a.malloc(32);
        let o2 = a.malloc(32);
        a.free(o1.ptr, true);
        a.free(o2.ptr, true);
        let o3 = a.malloc(32);
        match o3.path {
            MallocPath::ThreadCacheHit { next, .. } => assert_eq!(next, Some(o1.ptr)),
            ref p => panic!("expected hit, got {p:?}"),
        }
    }

    #[test]
    fn large_allocation_bypasses_caches() {
        let mut a = alloc();
        let o = a.malloc(1_000_000);
        assert!(matches!(o.path, MallocPath::Large { .. }));
        assert_eq!(o.cls, None);
        let f = a.free(o.ptr, false);
        assert!(matches!(f.path, FreePath::Large { .. }));
        assert_eq!(a.stats().large_frees, 1);
    }

    #[test]
    #[should_panic(expected = "invalid or double free")]
    fn double_free_panics() {
        let mut a = alloc();
        let o = a.malloc(64);
        a.free(o.ptr, true);
        a.free(o.ptr, true);
    }

    #[test]
    fn unsized_free_reports_pagemap_walk() {
        let mut a = alloc();
        let o = a.malloc(64);
        let f = a.free(o.ptr, false);
        assert!(!f.sized);
        let addrs = f.pagemap_addrs.expect("unsized free walks the page map");
        assert_eq!(addrs.len(), 3);
        let g = a.malloc(64);
        let f2 = a.free(g.ptr, true);
        assert!(f2.pagemap_addrs.is_none());
    }

    #[test]
    fn list_overflow_releases_to_central() {
        let mut a = alloc();
        // Allocate many, then free all: the list must overflow its max
        // length at least once and release a batch.
        let ptrs: Vec<Addr> = (0..200).map(|_| a.malloc(64).ptr).collect();
        for p in ptrs {
            a.free(p, true);
        }
        assert!(a.stats().list_releases > 0);
    }

    #[test]
    fn cache_byte_cap_is_enforced_loosely() {
        let mut a = TcMalloc::new(TcMallocConfig {
            max_cache_bytes: 64 * 1024,
            ..Default::default()
        });
        // Free far more than the cap: releases must kick in and keep the
        // cache bounded within one batch of the cap.
        let ptrs: Vec<Addr> = (0..4000).map(|_| a.malloc(1024).ptr).collect();
        for p in ptrs {
            a.free(p, true);
        }
        assert!(
            a.thread_cache_bytes() <= 64 * 1024 + 64 * 1024,
            "cache grew to {}",
            a.thread_cache_bytes()
        );
    }

    #[test]
    fn sampling_counts_allocations() {
        let mut a = TcMalloc::new(TcMallocConfig {
            sampling_interval: 4096,
            ..Default::default()
        });
        for _ in 0..1000 {
            let o = a.malloc(64);
            a.free(o.ptr, true);
        }
        // 1000 × 64 bytes = 64000 bytes → 15 full 4 KiB intervals.
        assert_eq!(a.stats().sampled, 15);
    }

    #[test]
    fn stats_balance() {
        let mut a = alloc();
        let mut ptrs = Vec::new();
        for i in 0..100u64 {
            ptrs.push(a.malloc(8 + (i % 32) * 8).ptr);
        }
        for p in ptrs {
            a.free(p, true);
        }
        let s = a.stats();
        assert_eq!(s.mallocs, 100);
        assert_eq!(s.frees, 100);
        assert_eq!(s.bytes_allocated, s.bytes_freed);
        assert_eq!(a.live_blocks(), 0);
    }

    #[test]
    fn refill_batch_matches_num_to_move() {
        let mut a = alloc();
        let o = a.malloc(64);
        match o.path {
            MallocPath::CentralRefill { ref batch, .. } => {
                let cls = o.cls.unwrap();
                let info = a.size_classes().class_info(cls);
                assert_eq!(batch.len(), info.num_to_move as usize);
            }
            ref p => panic!("expected refill, got {p:?}"),
        }
    }

    #[test]
    fn threads_have_disjoint_caches() {
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 2);
        let o0 = a.malloc_on(0, 64);
        let o1 = a.malloc_on(1, 64);
        match (&o0.path, &o1.path) {
            (
                MallocPath::CentralRefill { list: l0, .. },
                MallocPath::CentralRefill { list: l1, .. },
            ) => assert_ne!(l0, l1, "each thread owns its list header"),
            other => panic!("expected two refills, got {other:?}"),
        }
        assert_ne!(o0.ptr, o1.ptr);
    }

    #[test]
    fn producer_consumer_memory_migrates() {
        // Thread 0 allocates, thread 1 frees: blocks land in thread 1's
        // cache, overflow to the central list, and get refilled back to
        // thread 0 — the §3.1 migration loop. Memory must not blow up.
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 2);
        let mut queue = std::collections::VecDeque::new();
        for _ in 0..5000 {
            queue.push_back(a.malloc_on(0, 64).ptr);
            if queue.len() > 32 {
                let p = queue.pop_front().unwrap();
                a.free_on(1, p, true);
            }
        }
        while let Some(p) = queue.pop_front() {
            a.free_on(1, p, true);
        }
        assert_eq!(a.live_blocks(), 0);
        let s = a.stats();
        assert!(
            s.list_releases > 0,
            "consumer cache must overflow to central"
        );
        // Bounded footprint: the heap must not grow linearly with the 5000
        // allocations (5000 × 64 B = 320 KiB would be 40+ pages per round
        // without migration).
        let pages = a.page_heap().stats().os_pages;
        assert!(pages <= 256, "memory blow-up: {pages} pages from the OS");
    }

    #[test]
    fn stealing_rescues_an_empty_central_list() {
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 2);
        // Thread 1 hoards a long free list (allocate a lot, free it all).
        let ptrs: Vec<Addr> = (0..128).map(|_| a.malloc_on(1, 64).ptr).collect();
        // Drain the central list into thread 0 first so it is empty.
        while a.stats().populates < 2 {
            let _ = a.malloc_on(0, 64);
        }
        for p in ptrs {
            a.free_on(1, p, true);
        }
        let victim_len_before =
            a.list_len(ClassId(a.size_classes().size_class(64).unwrap().as_u8()));
        let _ = victim_len_before;
        let before = a.stats().steals;
        // Force thread 0 to miss repeatedly; at some point central runs
        // dry and a steal from thread 1 must occur.
        let mut grabbed = Vec::new();
        let mut victims = Vec::new();
        for _ in 0..512 {
            let o = a.malloc_on(0, 64);
            if let MallocPath::CentralRefill {
                stole_from: Some(v),
                ..
            } = o.path
            {
                victims.push(v);
            }
            grabbed.push(o.ptr);
        }
        assert!(
            a.stats().steals > before,
            "expected a neighbour steal: {:?}",
            a.stats()
        );
        assert!(
            victims.iter().all(|&v| v == 1),
            "the only possible victim is thread 1: {victims:?}"
        );
        assert_eq!(victims.len() as u64, a.stats().steals - before);
        for p in grabbed {
            a.free_on(0, p, true);
        }
    }

    #[test]
    fn remote_free_is_detected() {
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 2);
        let o = a.malloc_on(0, 64);
        let f = a.free_on(1, o.ptr, true);
        assert!(f.remote, "cross-thread free must be remote");
        assert_eq!(a.stats().remote_frees, 1);
        let o2 = a.malloc_on(0, 64);
        let f2 = a.free_on(0, o2.ptr, true);
        assert!(!f2.remote, "same-thread free is local");
        assert_eq!(a.stats().remote_frees, 1);
    }

    #[test]
    fn released_batches_park_in_transfer_cache() {
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 2);
        // Overflow thread 1's list until a full batch is released; it must
        // park in a transfer slot rather than the central list.
        let ptrs: Vec<Addr> = (0..200).map(|_| a.malloc_on(0, 64).ptr).collect();
        for p in ptrs {
            a.free_on(1, p, true);
        }
        let s = a.stats();
        assert!(s.transfer_inserts > 0, "no batch parked: {s:?}");
        let cls = a.size_classes().size_class(64).unwrap();
        assert!(a.transfer_len(cls) > 0);
    }

    #[test]
    fn refill_prefers_transfer_cache() {
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 2);
        let ptrs: Vec<Addr> = (0..200).map(|_| a.malloc_on(0, 64).ptr).collect();
        for p in ptrs {
            a.free_on(1, p, true);
        }
        assert!(a.stats().transfer_inserts > 0);
        // Allocate on thread 0 until its leftover list drains and it
        // refills; that refill must come from a parked batch.
        let before = a.stats().transfer_hits;
        loop {
            let o = a.malloc_on(0, 64);
            if let MallocPath::CentralRefill { via_transfer, .. } = o.path {
                assert!(via_transfer, "refill should hit the transfer cache");
                break;
            }
        }
        assert_eq!(a.stats().transfer_hits, before + 1);
    }

    #[test]
    fn block_population_is_conserved() {
        let mut a = TcMalloc::with_threads(TcMallocConfig::default(), 3);
        let cls = a.size_classes().size_class(64).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..500u64 {
            ptrs.push(a.malloc_on((i % 3) as usize, 64).ptr);
            if i % 7 == 0 {
                if let Some(p) = ptrs.pop() {
                    a.free_on(((i + 1) % 3) as usize, p, true);
                }
            }
            let carved = a.carved_objects(cls) as usize;
            let accounted = a.live_blocks_of(cls) + a.free_blocks_of(cls);
            assert_eq!(carved, accounted, "leak or duplication at step {i}");
        }
    }

    #[test]
    fn single_thread_api_is_thread_zero() {
        let mut a = TcMalloc::new(TcMallocConfig::default());
        assert_eq!(a.num_threads(), 1);
        let o = a.malloc(64);
        match o.path {
            MallocPath::CentralRefill { list, .. } => {
                assert_eq!(list, layout::thread_list_header(o.cls.unwrap()));
            }
            ref p => panic!("unexpected path {p:?}"),
        }
        a.free(o.ptr, true);
    }

    #[test]
    fn distinct_classes_use_distinct_lists() {
        let mut a = alloc();
        let o8 = a.malloc(8);
        let o64 = a.malloc(64);
        match (&o8.path, &o64.path) {
            (
                MallocPath::CentralRefill { list: l1, .. },
                MallocPath::CentralRefill { list: l2, .. },
            ) => assert_ne!(l1, l2),
            _ => panic!("expected two refills"),
        }
    }
}
