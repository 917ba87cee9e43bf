//! The three-level cache hierarchy plus DRAM.

use crate::cache::{CacheConfig, CacheStats, SetAssocCache};
use crate::shared::{L3Access, SharedL3};
use crate::tlb::{Tlb, TlbConfig, TlbStats};
use crate::Addr;

/// How an access touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load. Its latency is on the critical path.
    Read,
    /// A store. Write-allocate; latency is absorbed by the store queue.
    Write,
    /// A software/accelerator prefetch. Fills like a read.
    Prefetch,
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// First-level data cache.
    L1,
    /// Unified second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Memory,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
            Level::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// Outcome of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Load-to-use latency in cycles.
    pub latency: u32,
    /// The level that had the data.
    pub level: Level,
}

/// Geometry and latencies for the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 cache.
    pub l2: CacheConfig,
    /// L3 cache.
    pub l3: CacheConfig,
    /// Latency of a demand miss all the way to DRAM, in cycles.
    pub memory_latency: u32,
    /// Data TLB configuration.
    pub tlb: TlbConfig,
}

impl HierarchyConfig {
    /// An Intel Haswell-like configuration: 32 KiB/8-way L1 at 4 cycles,
    /// 256 KiB/8-way L2 at 12 cycles, 8 MiB/16-way L3 at 34 cycles (the
    /// paper quotes 34 cycles for Haswell's L3), 200-cycle DRAM.
    pub fn haswell() -> Self {
        Self {
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                associativity: 8,
                hit_latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                line_bytes: 64,
                associativity: 8,
                hit_latency: 12,
            },
            l3: CacheConfig {
                size_bytes: 8 * 1024 * 1024,
                line_bytes: 64,
                associativity: 16,
                hit_latency: 34,
            },
            memory_latency: 200,
            tlb: TlbConfig::haswell(),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::haswell()
    }
}

/// A three-level cache hierarchy with LRU replacement, write-allocate fills
/// and a non-inclusive (fill-all-levels) policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    tlb: Tlb,
    memory_accesses: u64,
    /// When `Some`, every access that misses L1 and L2 (and therefore
    /// reaches the L3 level) is recorded here for the multi-core shared-L3
    /// epoch merge. `None` (the default) costs nothing.
    l3_log: Option<Vec<L3Access>>,
}

impl Hierarchy {
    /// Builds an empty (cold) hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            l3: SetAssocCache::new(config.l3),
            tlb: Tlb::new(config.tlb),
            memory_accesses: 0,
            l3_log: None,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs one access, updating residency/LRU and returning its
    /// latency and the servicing level. Misses fill every level above the
    /// servicing one (write-allocate).
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let write = kind == AccessKind::Write;
        // Address translation first: a DTLB miss adds STLB or page-walk
        // latency to whatever the data access costs.
        let xlat = self.tlb.translate(addr);
        if self.l1.access(addr, write) {
            return AccessResult {
                latency: self.config.l1.hit_latency + xlat,
                level: Level::L1,
            };
        }
        if self.l2.access(addr, write) {
            self.l1.fill(addr, write);
            return AccessResult {
                latency: self.config.l2.hit_latency + xlat,
                level: Level::L2,
            };
        }
        // The access reaches the L3 level: record it for the shared-L3
        // epoch merge if logging is on (hit or miss — the master must see
        // both to keep its LRU state faithful).
        if let Some(log) = &mut self.l3_log {
            log.push(L3Access { addr, write });
        }
        if self.l3.access(addr, write) {
            self.l2.fill(addr, write);
            self.l1.fill(addr, write);
            return AccessResult {
                latency: self.config.l3.hit_latency + xlat,
                level: Level::L3,
            };
        }
        self.memory_accesses += 1;
        self.l3.fill(addr, write);
        self.l2.fill(addr, write);
        self.l1.fill(addr, write);
        AccessResult {
            latency: self.config.memory_latency + xlat,
            level: Level::Memory,
        }
    }

    /// Checks where `addr` would hit, without changing any state.
    pub fn probe(&self, addr: Addr) -> Level {
        if self.l1.probe(addr) {
            Level::L1
        } else if self.l2.probe(addr) {
            Level::L2
        } else if self.l3.probe(addr) {
            Level::L3
        } else {
            Level::Memory
        }
    }

    /// Latency an access to `addr` *would* take right now, without
    /// performing it.
    pub fn peek_latency(&self, addr: Addr) -> u32 {
        match self.probe(addr) {
            Level::L1 => self.config.l1.hit_latency,
            Level::L2 => self.config.l2.hit_latency,
            Level::L3 => self.config.l3.hit_latency,
            Level::Memory => self.config.memory_latency,
        }
    }

    /// Warms `addr` into all levels without counting statistics noise
    /// (it still counts as an access internally).
    pub fn warm(&mut self, addr: Addr) {
        let _ = self.access(addr, AccessKind::Prefetch);
    }

    /// The paper's antagonist callback: invalidate the least-recently-used
    /// `fraction` of each set in L1 and L2.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn evict_antagonist(&mut self, fraction: f64) {
        self.l1.evict_lru_fraction(fraction);
        self.l2.evict_lru_fraction(fraction);
    }

    /// Flushes all levels (cold restart).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        self.tlb.flush();
    }

    /// TLB statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Per-level statistics `(L1, L2, L3)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1.stats(), self.l2.stats(), self.l3.stats())
    }

    /// Number of accesses that went all the way to DRAM.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Resets all statistics counters (contents untouched).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.memory_accesses = 0;
    }

    /// Turns recording of L3-level accesses on or off. Turning it on
    /// starts with an empty log; turning it off discards any entries.
    pub fn set_l3_logging(&mut self, on: bool) {
        self.l3_log = if on { Some(Vec::new()) } else { None };
    }

    /// Drains and returns the accesses recorded since logging was enabled
    /// or last drained. Empty if logging is off.
    pub fn take_l3_log(&mut self) -> Vec<L3Access> {
        match &mut self.l3_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Replaces the private L3 replica with `snapshot` — the epoch refresh
    /// from a [`crate::SharedL3`] master. The replica's accumulated
    /// statistics are carried over so per-core L3 hit rates survive epoch
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's geometry differs from this hierarchy's L3.
    pub fn install_l3(&mut self, mut snapshot: SetAssocCache) {
        assert_eq!(
            *snapshot.config(),
            self.config.l3,
            "shared-L3 snapshot geometry must match the hierarchy's L3"
        );
        snapshot.add_stats(self.l3.stats());
        self.l3 = snapshot;
    }

    /// Brings the private L3 replica up to date with `shared`'s master in
    /// place: copies the sets [`SharedL3::commit`] touched since the record
    /// was last cleared, plus the master's LRU clock. Statistics carry over
    /// as in [`Hierarchy::install_l3`], and the result equals
    /// `install_l3(shared.snapshot())`.
    ///
    /// That equality holds only while every change to this replica's L3
    /// since its last refresh (or since it was built, empty, beside an
    /// empty master) went through a logged access whose log has since been
    /// committed to `shared`, and the record has not been cleared since
    /// that refresh. L3 logging must therefore be on; a
    /// [`Hierarchy::flush`], or an [`Hierarchy::install_l3`] of anything
    /// but a master snapshot, breaks the precondition.
    ///
    /// # Panics
    ///
    /// Panics if the master's geometry differs from this hierarchy's L3.
    pub fn refresh_l3(&mut self, shared: &SharedL3) {
        debug_assert!(
            self.l3_log.is_some(),
            "refresh_l3 is exact only for a replica with L3 logging on"
        );
        assert_eq!(
            *shared.config(),
            self.config.l3,
            "shared-L3 master geometry must match the hierarchy's L3"
        );
        self.l3
            .copy_sets_from(shared.master(), shared.touched_sets());
    }
}

impl Default for Hierarchy {
    fn default() -> Self {
        Self::new(HierarchyConfig::haswell())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_warm_hits() {
        let mut h = Hierarchy::default();
        let r = h.access(0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::Memory);
        // DRAM plus the cold page walk.
        assert_eq!(r.latency, 200 + 30);
        let r = h.access(0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::L1);
        assert_eq!(r.latency, 4, "warm access: TLB and L1 both hit");
        assert_eq!(h.tlb_stats().walks, 1);
    }

    #[test]
    fn l2_hit_after_l1_antagonism() {
        let mut h = Hierarchy::default();
        h.warm(0x1000);
        // Kick everything out of L1 but leave L2.
        h.l1.flush();
        let r = h.access(0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::L2);
        assert_eq!(r.latency, 12);
        // And it is refilled into L1.
        assert_eq!(h.probe(0x1000), Level::L1);
    }

    #[test]
    fn l3_hit_after_l1_l2_antagonism() {
        let mut h = Hierarchy::default();
        h.warm(0x1000);
        h.evict_antagonist(1.0);
        let r = h.access(0x1000, AccessKind::Read);
        assert_eq!(r.level, Level::L3);
        assert_eq!(r.latency, 34);
    }

    #[test]
    fn antagonist_half_keeps_mru() {
        let mut h = Hierarchy::default();
        // One recently-touched line per set: it ranks in the MRU half and
        // must survive a half-set eviction.
        h.warm(0x0);
        h.warm(0x40);
        h.evict_antagonist(0.5);
        assert_eq!(h.probe(0x0), Level::L1);
        assert_eq!(h.probe(0x40), Level::L1);
        // A full-set eviction takes them out of L1/L2 (but not L3).
        h.evict_antagonist(1.0);
        assert_eq!(h.probe(0x0), Level::L3);
    }

    #[test]
    fn peek_latency_matches_access() {
        let mut h = Hierarchy::default();
        assert_eq!(h.peek_latency(0x2000), 200);
        h.warm(0x2000);
        assert_eq!(h.peek_latency(0x2000), 4);
        let r = h.access(0x2000, AccessKind::Read);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn writes_allocate() {
        let mut h = Hierarchy::default();
        let r = h.access(0x3000, AccessKind::Write);
        assert_eq!(r.level, Level::Memory);
        assert_eq!(h.probe(0x3000), Level::L1);
    }

    #[test]
    fn memory_access_counter() {
        let mut h = Hierarchy::default();
        h.access(0x0, AccessKind::Read);
        h.access(0x0, AccessKind::Read);
        h.access(0x10000, AccessKind::Read);
        assert_eq!(h.memory_accesses(), 2);
    }

    #[test]
    fn flush_makes_everything_cold() {
        let mut h = Hierarchy::default();
        h.warm(0x4000);
        h.flush();
        assert_eq!(h.probe(0x4000), Level::Memory);
    }

    #[test]
    fn stats_reset() {
        let mut h = Hierarchy::default();
        h.access(0x0, AccessKind::Read);
        h.reset_stats();
        let (l1, _, _) = h.stats();
        assert_eq!(l1.hits + l1.misses, 0);
        assert_eq!(h.memory_accesses(), 0);
    }

    #[test]
    fn prefetch_fills_like_read() {
        let mut h = Hierarchy::default();
        h.access(0x5000, AccessKind::Prefetch);
        assert_eq!(h.probe(0x5000), Level::L1);
    }
}
