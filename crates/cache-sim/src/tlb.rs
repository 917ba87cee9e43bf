//! A two-level data TLB.
//!
//! §3.3 of the paper singles the TLB out: the address-to-size-class page
//! map that `free()` walks "tends to cache poorly, especially in the TLB,
//! leading to expensive losses". The model is Haswell-like: a small L1
//! DTLB backed by a large unified STLB, with a fixed page-walk cost past
//! both. Translations piggyback on every access
//! ([`crate::Hierarchy::access`] adds the returned penalty to the access
//! latency).

use crate::cache::{CacheConfig, GeometryError, SetAssocCache};
use crate::Addr;

/// TLB geometry and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 DTLB entries.
    pub l1_entries: u32,
    /// L1 DTLB associativity.
    pub l1_associativity: u32,
    /// STLB entries.
    pub l2_entries: u32,
    /// STLB associativity.
    pub l2_associativity: u32,
    /// Extra cycles for an access that hits the STLB but missed L1.
    pub l2_latency: u32,
    /// Extra cycles for a full page walk.
    pub walk_latency: u32,
    /// Page size in bytes (4 KiB hardware pages).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// Haswell-like: 64-entry 4-way L1 DTLB, 1024-entry 8-way STLB at
    /// 8 extra cycles, ~30-cycle page walk, 4 KiB pages.
    pub fn haswell() -> Self {
        Self {
            l1_entries: 64,
            l1_associativity: 4,
            l2_entries: 1024,
            l2_associativity: 8,
            l2_latency: 8,
            walk_latency: 30,
            page_bytes: 4096,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::haswell()
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Translations that hit the L1 DTLB.
    pub l1_hits: u64,
    /// Translations that fell to the STLB and hit.
    pub l2_hits: u64,
    /// Full page walks.
    pub walks: u64,
}

/// The two-level TLB.
///
/// # Example
///
/// ```
/// use mallacc_cache::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::haswell());
/// let cold = tlb.translate(0x123_4000);
/// let warm = tlb.translate(0x123_4008); // same page
/// assert_eq!(cold, 30);
/// assert_eq!(warm, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    config: TlbConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    stats: TlbStats,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two set
    /// counts).
    pub fn new(config: TlbConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an empty TLB, rejecting zero-entry/zero-way (or otherwise
    /// inconsistent) geometries with a [`GeometryError`] instead of
    /// panicking.
    pub fn try_new(config: TlbConfig) -> Result<Self, GeometryError> {
        let level = |entries: u32, assoc: u32, lat: u32| {
            SetAssocCache::try_new(CacheConfig {
                size_bytes: u64::from(entries) * config.page_bytes,
                line_bytes: config.page_bytes,
                associativity: assoc,
                hit_latency: lat,
            })
        };
        Ok(Self {
            config,
            l1: level(config.l1_entries, config.l1_associativity, 0)?,
            l2: level(
                config.l2_entries,
                config.l2_associativity,
                config.l2_latency,
            )?,
            stats: TlbStats::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Translates `addr`, returning the extra access latency (0 on an L1
    /// hit) and updating residency.
    pub fn translate(&mut self, addr: Addr) -> u32 {
        if self.l1.access(addr, false) {
            self.stats.l1_hits += 1;
            return 0;
        }
        if self.l2.access(addr, false) {
            self.stats.l2_hits += 1;
            self.l1.fill(addr, false);
            return self.config.l2_latency;
        }
        self.stats.walks += 1;
        self.l2.fill(addr, false);
        self.l1.fill(addr, false);
        self.config.walk_latency
    }

    /// Flushes both levels (full address-space switch).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_then_l1_hit() {
        let mut t = Tlb::new(TlbConfig::haswell());
        assert_eq!(t.translate(0x8000), 30);
        assert_eq!(t.translate(0x8FFF), 0, "same 4 KiB page");
        assert_eq!(t.translate(0x9000), 30, "next page walks");
        assert_eq!(t.stats().walks, 2);
        assert_eq!(t.stats().l1_hits, 1);
    }

    #[test]
    fn stlb_catches_l1_capacity_misses() {
        let mut t = Tlb::new(TlbConfig::haswell());
        // Touch 256 pages: far beyond L1 (64) but within STLB (1024).
        for p in 0..256u64 {
            t.translate(p * 4096);
        }
        let before = t.stats();
        assert_eq!(before.walks, 256);
        // Second pass: L1 thrashes, STLB covers.
        for p in 0..256u64 {
            let lat = t.translate(p * 4096);
            assert!(lat == 0 || lat == 8, "unexpected latency {lat}");
        }
        assert_eq!(t.stats().walks, 256, "no new walks on the second pass");
        assert!(t.stats().l2_hits > before.l2_hits);
    }

    #[test]
    fn sparse_pages_always_walk() {
        let mut t = Tlb::new(TlbConfig::haswell());
        // 4096 distinct pages exceed even the STLB.
        for p in 0..4096u64 {
            t.translate(p * 4096);
        }
        let w = t.stats().walks;
        for p in 0..64u64 {
            t.translate(p * 4096 * 64); // strided revisit, mostly evicted
        }
        assert!(t.stats().walks > w, "striding past the reach must walk");
    }

    #[test]
    fn zero_entry_and_zero_way_tlbs_are_rejected_not_panicked() {
        let zero_entries = TlbConfig {
            l1_entries: 0,
            ..TlbConfig::haswell()
        };
        assert_eq!(
            Tlb::try_new(zero_entries).err(),
            Some(GeometryError::ZeroDimension)
        );
        let zero_ways = TlbConfig {
            l2_associativity: 0,
            ..TlbConfig::haswell()
        };
        assert_eq!(
            Tlb::try_new(zero_ways).err(),
            Some(GeometryError::ZeroDimension)
        );
        assert!(Tlb::try_new(TlbConfig::haswell()).is_ok());
    }

    #[test]
    fn page_straddling_accesses_translate_each_side_separately() {
        // The last byte of one page and the first byte of the next are one
        // byte apart but live on different pages: each side of the boundary
        // must walk independently, and warming one side must not warm the
        // other. (Cache lines are 64 B-aligned so a single *line* never
        // straddles a 4 KiB page; what straddles are access patterns, and
        // the TLB must key strictly on the page number.)
        let mut t = Tlb::new(TlbConfig::haswell());
        assert_eq!(t.translate(0x1FFF), 30, "low side of the boundary walks");
        assert_eq!(t.translate(0x2000), 30, "high side still walks");
        assert_eq!(t.translate(0x1FC0), 0, "low page is now warm");
        assert_eq!(t.translate(0x2FFF), 0, "high page warm across its span");
        assert_eq!(t.stats().walks, 2);
        assert_eq!(t.stats().l1_hits, 2);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = Tlb::new(TlbConfig::haswell());
        t.translate(0x8000);
        t.flush();
        assert_eq!(t.translate(0x8000), 30);
    }
}
