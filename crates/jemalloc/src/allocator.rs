//! The assembled jemalloc model: tcache over arena bins over chunks.
//!
//! Mirrors [`mallacc_tcmalloc::TcMalloc`]'s functional-first contract:
//! every call returns an outcome describing the path taken and the
//! addresses touched, for the timing layer to replay.

use std::collections::HashMap;

use mallacc_cache::Addr;

use crate::arena::{Arena, ArenaFill};
use crate::layout;
use crate::size_class::{consts, BinId, SizeClasses};
use crate::tcache::TcacheBin;

/// Which path a jemalloc malloc took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JeMallocPath {
    /// tcache hit: popped the top of the bin's avail stack.
    TcacheHit {
        /// Stack depth before the pop (top slot index + 1).
        ncached: u64,
        /// The new top after the pop, if any.
        below: Option<Addr>,
    },
    /// tcache miss: filled a batch from the arena bin, then popped.
    TcacheFill {
        /// The arena fill performed.
        fill: ArenaFill,
        /// New top after the pop.
        below: Option<Addr>,
    },
    /// Large or huge allocation (page runs / own chunk).
    Large {
        /// Pages allocated.
        pages: u64,
        /// Whether a fresh chunk was required.
        grew: bool,
    },
}

/// Result of one jemalloc malloc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JeMallocOutcome {
    /// The address handed out.
    pub ptr: Addr,
    /// Requested size.
    pub requested: u64,
    /// Rounded size.
    pub alloc_size: u64,
    /// Small bin, if any.
    pub bin: Option<BinId>,
    /// The path taken.
    pub path: JeMallocPath,
}

/// Which path a jemalloc free took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JeFreePath {
    /// Pushed onto the tcache bin.
    TcachePush {
        /// Stack depth after the push.
        ncached: u64,
        /// Objects flushed to the arena when the bin was full.
        flushed: Option<Vec<Addr>>,
    },
    /// Large free straight to the arena.
    Large {
        /// Pages returned.
        pages: u64,
    },
}

/// Result of one jemalloc free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JeFreeOutcome {
    /// The freed address.
    pub ptr: Addr,
    /// Small bin, if any.
    pub bin: Option<BinId>,
    /// Rounded size of the block.
    pub alloc_size: u64,
    /// Whether a sized delete supplied the size (otherwise the chunk map
    /// is walked).
    pub sized: bool,
    /// Chunk-map nodes walked when `sized` is false.
    pub chunk_map: Option<[Addr; 2]>,
    /// The path taken.
    pub path: JeFreePath,
}

/// jemalloc model statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JeStats {
    /// malloc calls.
    pub mallocs: u64,
    /// tcache hits.
    pub tcache_hits: u64,
    /// tcache fills.
    pub tcache_fills: u64,
    /// Large allocations.
    pub large_allocs: u64,
    /// free calls.
    pub frees: u64,
    /// tcache flushes triggered by full bins.
    pub tcache_flushes: u64,
    /// Large frees.
    pub large_frees: u64,
}

#[derive(Debug, Clone, Copy)]
struct Live {
    alloc_size: u64,
    bin: Option<BinId>,
}

/// The jemalloc model (single thread, single arena).
///
/// # Example
///
/// ```
/// use mallacc_jemalloc::{JeMalloc, JeMallocPath};
///
/// let mut a = JeMalloc::new();
/// let cold = a.malloc(100);
/// assert!(matches!(cold.path, JeMallocPath::TcacheFill { .. }));
/// assert_eq!(cold.alloc_size, 112);
/// a.free(cold.ptr, true);
/// let warm = a.malloc(100);
/// assert!(matches!(warm.path, JeMallocPath::TcacheHit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct JeMalloc {
    classes: SizeClasses,
    arena: Arena,
    bins: Vec<TcacheBin>,
    live: HashMap<Addr, Live>,
    stats: JeStats,
}

impl JeMalloc {
    /// Creates a cold allocator.
    pub fn new() -> Self {
        let classes = SizeClasses::classic();
        let bins = classes
            .iter()
            .map(|(b, info)| TcacheBin::new(b, info))
            .collect();
        Self {
            arena: Arena::new(classes.clone()),
            classes,
            bins,
            live: HashMap::new(),
            stats: JeStats::default(),
        }
    }

    /// The size-class table.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> JeStats {
        self.stats
    }

    /// Live (allocated, unfreed) block count.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Current top of a bin's avail stack.
    pub fn tcache_top(&self, bin: BinId) -> Option<Addr> {
        self.bins[bin.as_u8() as usize].top()
    }

    /// Element below the top (the accelerator's `Next`).
    pub fn tcache_below_top(&self, bin: BinId) -> Option<Addr> {
        self.bins[bin.as_u8() as usize].below_top()
    }

    /// Allocates `requested` bytes.
    pub fn malloc(&mut self, requested: u64) -> JeMallocOutcome {
        self.stats.mallocs += 1;
        let Some(bin) = self.classes.bin_of(requested) else {
            let (ptr, pages, grew) = self.arena.alloc_large(requested);
            self.stats.large_allocs += 1;
            self.live.insert(
                ptr,
                Live {
                    alloc_size: pages * consts::PAGE_SIZE,
                    bin: None,
                },
            );
            return JeMallocOutcome {
                ptr,
                requested,
                alloc_size: pages * consts::PAGE_SIZE,
                bin: None,
                path: JeMallocPath::Large { pages, grew },
            };
        };
        let info = self.classes.bin_info(bin);
        let tbin = &mut self.bins[bin.as_u8() as usize];
        let (ptr, path) = if let Some(ptr) = tbin.pop() {
            self.stats.tcache_hits += 1;
            (
                ptr,
                JeMallocPath::TcacheHit {
                    ncached: tbin.len() as u64 + 1,
                    below: tbin.top(),
                },
            )
        } else {
            self.stats.tcache_fills += 1;
            let fill = self.arena.fill(bin, info.fill_count as usize);
            let tbin = &mut self.bins[bin.as_u8() as usize];
            tbin.refill(&fill.batch);
            let ptr = tbin.pop().expect("fill produced objects");
            let below = tbin.top();
            (ptr, JeMallocPath::TcacheFill { fill, below })
        };
        self.live.insert(
            ptr,
            Live {
                alloc_size: info.size,
                bin: Some(bin),
            },
        );
        JeMallocOutcome {
            ptr,
            requested,
            alloc_size: info.size,
            bin: Some(bin),
            path,
        }
    }

    /// Frees `ptr`; `sized` selects sized deallocation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> JeFreeOutcome {
        self.stats.frees += 1;
        let live = self
            .live
            .remove(&ptr)
            .unwrap_or_else(|| panic!("invalid or double free of {ptr:#x}"));
        let chunk_map = (!sized).then(|| layout::chunk_map_entries(layout::addr_to_page(ptr)));
        let Some(bin) = live.bin else {
            let pages = self.arena.dalloc_large(ptr);
            self.stats.large_frees += 1;
            return JeFreeOutcome {
                ptr,
                bin: None,
                alloc_size: live.alloc_size,
                sized,
                chunk_map,
                path: JeFreePath::Large { pages },
            };
        };
        let info = self.classes.bin_info(bin);
        let tbin = &mut self.bins[bin.as_u8() as usize];
        let flushed = if !tbin.push(ptr) {
            // Full: flush the oldest half, then retry.
            let old = tbin.take_oldest(info.fill_count as usize);
            self.arena.flush(&old);
            self.stats.tcache_flushes += 1;
            let tbin = &mut self.bins[bin.as_u8() as usize];
            assert!(tbin.push(ptr), "bin has room after a flush");
            Some(old)
        } else {
            None
        };
        let ncached = self.bins[bin.as_u8() as usize].len() as u64;
        JeFreeOutcome {
            ptr,
            bin: Some(bin),
            alloc_size: live.alloc_size,
            sized,
            chunk_map,
            path: JeFreePath::TcachePush { ncached, flushed },
        }
    }
}

impl Default for JeMalloc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut a = JeMalloc::new();
        let o1 = a.malloc(64);
        assert!(matches!(o1.path, JeMallocPath::TcacheFill { .. }));
        let o2 = a.malloc(64);
        assert!(matches!(o2.path, JeMallocPath::TcacheHit { .. }));
        assert_eq!(a.stats().tcache_fills, 1);
        assert_eq!(a.stats().tcache_hits, 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = JeMalloc::new();
        let mut ranges: Vec<(Addr, u64)> = Vec::new();
        for &size in &[8u64, 64, 100, 512, 2048, 4096, 600_000, 64] {
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
        let mut a = JeMalloc::new();
        let o1 = a.malloc(48);
        let o2 = a.malloc(48);
        a.free(o2.ptr, true);
        a.free(o1.ptr, true);
        let o3 = a.malloc(48);
        assert_eq!(o3.ptr, o1.ptr, "tcache stack is LIFO");
    }

    #[test]
    fn bin_overflow_flushes_to_arena() {
        let mut a = JeMalloc::new();
        let bin = a.classes().bin_of(2048).unwrap();
        let cap = a.classes().bin_info(bin).fill_count as usize * 2;
        let ptrs: Vec<Addr> = (0..cap + 8).map(|_| a.malloc(2048).ptr).collect();
        for p in ptrs {
            a.free(p, true);
        }
        assert!(a.stats().tcache_flushes > 0);
    }

    #[test]
    fn large_round_trip() {
        let mut a = JeMalloc::new();
        let o = a.malloc(1 << 20);
        assert!(matches!(o.path, JeMallocPath::Large { .. }));
        let f = a.free(o.ptr, false);
        assert!(matches!(f.path, JeFreePath::Large { .. }));
        assert!(f.chunk_map.is_some());
    }

    #[test]
    #[should_panic(expected = "invalid or double free")]
    fn double_free_panics() {
        let mut a = JeMalloc::new();
        let o = a.malloc(64);
        a.free(o.ptr, true);
        a.free(o.ptr, true);
    }

    #[test]
    fn outcome_below_matches_tcache_state() {
        let mut a = JeMalloc::new();
        let o1 = a.malloc(32);
        let o2 = a.malloc(32);
        a.free(o1.ptr, true);
        a.free(o2.ptr, true);
        let o3 = a.malloc(32);
        match o3.path {
            JeMallocPath::TcacheHit { below, .. } => {
                assert_eq!(o3.ptr, o2.ptr);
                assert_eq!(below, Some(o1.ptr));
            }
            ref p => panic!("expected hit, got {p:?}"),
        }
    }

    #[test]
    fn stats_balance() {
        let mut a = JeMalloc::new();
        let ptrs: Vec<Addr> = (0..200).map(|i| a.malloc(8 + (i % 50) * 8).ptr).collect();
        for p in ptrs {
            a.free(p, true);
        }
        assert_eq!(a.stats().mallocs, 200);
        assert_eq!(a.stats().frees, 200);
        assert_eq!(a.live_blocks(), 0);
    }
}
