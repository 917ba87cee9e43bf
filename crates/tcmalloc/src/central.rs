//! Central free lists: the shared pool between thread caches and the page
//! heap.
//!
//! When a thread cache misses, it fetches a *batch* of objects
//! (`num_objects_to_move`) from the central free list of the class; when
//! the central list itself is empty it *populates* by allocating a span
//! from the page heap and carving it into objects (§3.1). Both operations
//! require locking in real TCMalloc and are orders of magnitude slower
//! than a thread-cache hit — they form the second and third peaks of the
//! paper's Figure 1.

use mallacc_cache::Addr;

use crate::layout;
use crate::page_heap::{PageHeap, SpanAlloc};
use crate::size_class::{ClassId, ClassInfo};

/// A span freshly carved into objects during a central-list populate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Populate {
    /// The span obtained from the page heap.
    pub span: SpanAlloc,
    /// Address of the first carved object.
    pub first_object: Addr,
    /// Number of objects carved.
    pub object_count: u64,
    /// Size of each object.
    pub object_size: u64,
}

/// Result of a batch fetch from the central list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoveRange {
    /// Objects handed to the thread cache (most-recently-freed first).
    pub batch: Vec<Addr>,
    /// Set when the fetch had to populate from the page heap.
    pub populate: Option<Populate>,
}

/// Central free list statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CentralStats {
    /// Batches handed to thread caches.
    pub removes: u64,
    /// Batches returned by thread caches.
    pub inserts: u64,
    /// Spans carved.
    pub populates: u64,
}

/// The central free list for one size class.
#[derive(Debug, Clone)]
pub struct CentralFreeList {
    cls: ClassId,
    info: ClassInfo,
    objects: Vec<Addr>,
    stats: CentralStats,
}

impl CentralFreeList {
    /// Creates an empty central list for `cls`.
    pub fn new(cls: ClassId, info: ClassInfo) -> Self {
        Self {
            cls,
            info,
            objects: Vec::new(),
            stats: CentralStats::default(),
        }
    }

    /// The class this list serves.
    pub fn class(&self) -> ClassId {
        self.cls
    }

    /// Objects currently available.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if no objects are available.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CentralStats {
        self.stats
    }

    /// Fetches up to `n` objects, populating from the page heap if the list
    /// is empty.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn remove_range(&mut self, n: usize, heap: &mut PageHeap) -> RemoveRange {
        assert!(n > 0, "batch size must be positive");
        let populate = if self.objects.len() < n {
            Some(self.populate(heap))
        } else {
            None
        };
        let take = n.min(self.objects.len());
        let batch = self.objects.split_off(self.objects.len() - take);
        self.stats.removes += 1;
        RemoveRange { batch, populate }
    }

    /// Returns a batch of objects from a thread cache.
    pub fn insert_range(&mut self, objects: Vec<Addr>) {
        self.stats.inserts += 1;
        self.objects.extend(objects);
    }

    fn populate(&mut self, heap: &mut PageHeap) -> Populate {
        let span = heap.allocate(self.info.pages);
        let first_object = layout::page_addr(span.start_page);
        let span_bytes = span.pages * crate::size_class::consts::PAGE_SIZE;
        let object_count = span_bytes / self.info.size;
        // Carve in address order; the freshly carved objects sit at the
        // *bottom* so recycled (cache-warm) objects are handed out first.
        let mut carved: Vec<Addr> = (0..object_count)
            .rev()
            .map(|i| first_object + i * self.info.size)
            .collect();
        carved.append(&mut self.objects);
        self.objects = carved;
        self.stats.populates += 1;
        Populate {
            span,
            first_object,
            object_count,
            object_size: self.info.size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::SizeClasses;

    fn fixture() -> (CentralFreeList, PageHeap) {
        let sc = SizeClasses::tcmalloc_2007();
        let cls = sc.size_class(64).unwrap();
        (
            CentralFreeList::new(cls, sc.class_info(cls)),
            PageHeap::new(),
        )
    }

    #[test]
    fn empty_list_populates() {
        let (mut c, mut heap) = fixture();
        let r = c.remove_range(32, &mut heap);
        assert_eq!(r.batch.len(), 32);
        let p = r.populate.expect("first fetch must populate");
        assert_eq!(p.object_size, 64);
        assert_eq!(p.object_count, 8192 / 64);
        assert!(!c.is_empty(), "leftover carved objects stay central");
    }

    #[test]
    fn second_fetch_reuses_population() {
        let (mut c, mut heap) = fixture();
        let _ = c.remove_range(32, &mut heap);
        let r = c.remove_range(32, &mut heap);
        assert!(r.populate.is_none());
        assert_eq!(r.batch.len(), 32);
    }

    #[test]
    fn carved_objects_are_distinct_and_in_span() {
        let (mut c, mut heap) = fixture();
        let r = c.remove_range(32, &mut heap);
        let p = r.populate.unwrap();
        let span_lo = p.first_object;
        let span_hi = span_lo + p.object_count * p.object_size;
        let mut seen = std::collections::HashSet::new();
        for &o in &r.batch {
            assert!((span_lo..span_hi).contains(&o));
            assert!(seen.insert(o), "duplicate object {o:#x}");
            assert_eq!((o - span_lo) % 64, 0, "object misaligned");
        }
    }

    #[test]
    fn insert_then_remove_is_lifo_batchwise() {
        let (mut c, mut heap) = fixture();
        let _ = c.remove_range(2, &mut heap);
        c.insert_range(vec![0x9990_0000, 0x9990_0040]);
        let r = c.remove_range(2, &mut heap);
        assert!(r.populate.is_none());
        assert_eq!(r.batch, vec![0x9990_0000, 0x9990_0040]);
    }

    #[test]
    fn undersized_population_is_topped_up() {
        // A batch larger than one span's objects triggers populate and
        // returns what is available.
        let sc = SizeClasses::tcmalloc_2007();
        // Largest class: 256 KiB objects, 2 to move, span holds few.
        let cls = sc.largest_class();
        let mut c = CentralFreeList::new(cls, sc.class_info(cls));
        let mut heap = PageHeap::new();
        let r = c.remove_range(2, &mut heap);
        assert!(!r.batch.is_empty());
        assert!(r.populate.is_some());
    }

    #[test]
    fn stats_count_operations() {
        let (mut c, mut heap) = fixture();
        let _ = c.remove_range(4, &mut heap);
        c.insert_range(vec![0xAAA0_0000]);
        let s = c.stats();
        assert_eq!(s.removes, 1);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.populates, 1);
    }
}
