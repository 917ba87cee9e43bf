//! A single set-associative cache with true-LRU replacement.

use crate::Addr;

/// Why a cache/TLB geometry is unusable.
///
/// Returned by [`CacheConfig::validate`] and the `try_new` constructors so
/// callers building geometries from external input (the explore grid, the
/// `repro` CLI) can reject them with a message instead of unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// Capacity, line size or associativity is zero.
    ZeroDimension,
    /// The line size is not a power of two.
    LineNotPowerOfTwo,
    /// The capacity is not a whole number of lines.
    PartialLine,
    /// The capacity is not a whole number of ways.
    PartialWay,
    /// The implied set count is not a power of two.
    SetsNotPowerOfTwo,
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroDimension => {
                write!(f, "capacity, line size and associativity must be non-zero")
            }
            Self::LineNotPowerOfTwo => write!(f, "line size must be a power of two"),
            Self::PartialLine => write!(f, "capacity must be a whole number of lines"),
            Self::PartialWay => write!(f, "capacity must be a whole number of ways"),
            Self::SetsNotPowerOfTwo => write!(f, "set count must be a power of two"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes (64 on Haswell).
    pub line_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Load-to-use latency of a hit in this level, in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Checks the geometry and returns the implied number of sets, or a
    /// [`GeometryError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<u64, GeometryError> {
        if self.size_bytes == 0 || self.line_bytes == 0 || self.associativity == 0 {
            return Err(GeometryError::ZeroDimension);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(GeometryError::LineNotPowerOfTwo);
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines * self.line_bytes != self.size_bytes {
            return Err(GeometryError::PartialLine);
        }
        let sets = lines / self.associativity as u64;
        if sets * self.associativity as u64 != lines {
            return Err(GeometryError::PartialWay);
        }
        if !sets.is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo);
        }
        Ok(sets)
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, non-power-of-two
    /// line/sets, or capacity not divisible by `line × ways`); use
    /// [`CacheConfig::validate`] for a fallible check.
    pub fn num_sets(&self) -> u64 {
        self.validate().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Hit/miss/eviction counters for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that did not.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Lines invalidated by the antagonist hook or a flush.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Packed per-line state: the tag in the low 62 bits (tags are block
/// addresses shifted right by the set bits, so they never reach bit 62),
/// validity and dirtiness in the top two. A whole-word compare against
/// `tag | VALID` (masking `DIRTY` off) decides a hit in one instruction.
const VALID: u64 = 1 << 63;
const DIRTY: u64 = 1 << 62;
const FLAGS: u64 = VALID | DIRTY;

/// One set-associative, true-LRU cache level.
///
/// # Example
///
/// ```
/// use mallacc_cache::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig {
///     size_bytes: 1024,
///     line_bytes: 64,
///     associativity: 2,
///     hit_latency: 4,
/// });
/// assert!(!c.probe(0));
/// c.fill(0, false);
/// assert!(c.probe(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// All ways of all sets in one flat allocation, `associativity`
    /// entries per set, split structure-of-arrays style: `tags` holds the
    /// packed tag+flag words the lookup scan reads, `last_use` the LRU
    /// timestamps only hits and fills touch. `Hierarchy::access` runs on
    /// every simulated memory µop (and every fast-forwarded one), and the
    /// allocator workloads miss far more than they hit, so the scan is the
    /// hot loop of the whole simulator: keeping it to one or two host
    /// cache lines per set (8 bytes per way instead of a padded
    /// four-field struct) is the difference between the hierarchy walk
    /// being a few nanoseconds and dominating the engine.
    tags: Vec<u64>,
    /// Monotonic timestamp of last touch per way; smaller = older.
    last_use: Vec<u64>,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; see [`CacheConfig::num_sets`].
    pub fn new(config: CacheConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an empty cache, rejecting inconsistent geometries (zero
    /// dimensions, non-power-of-two line/sets, partial lines or ways) with
    /// a [`GeometryError`] instead of panicking.
    pub fn try_new(config: CacheConfig) -> Result<Self, GeometryError> {
        let sets = config.validate()?;
        Ok(Self {
            config,
            tags: vec![0; (sets * config.associativity as u64) as usize],
            last_use: vec![0; (sets * config.associativity as u64) as usize],
            set_mask: sets - 1,
            set_bits: (sets - 1).count_ones(),
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// The ways of `addr`'s set, as a flat-slice range.
    #[inline]
    fn set_range(&self, set_idx: usize) -> std::ops::Range<usize> {
        let assoc = self.config.associativity as usize;
        set_idx * assoc..(set_idx + 1) * assoc
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (but not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Adds `other`'s counters onto this cache's statistics. Used when a
    /// shared-L3 snapshot replaces a per-core replica: the replica's
    /// accumulated hit/miss history is folded into the fresh copy.
    pub fn add_stats(&mut self, other: CacheStats) {
        self.stats.hits += other.hits;
        self.stats.misses += other.misses;
        self.stats.evictions += other.evictions;
        self.stats.invalidations += other.invalidations;
    }

    #[inline]
    fn index_and_tag(&self, addr: Addr) -> (usize, u64) {
        let block = addr >> self.line_shift;
        ((block & self.set_mask) as usize, block >> self.set_bits)
    }

    /// The index of the set `addr` maps to.
    #[inline]
    pub(crate) fn set_of(&self, addr: Addr) -> usize {
        self.index_and_tag(addr).0
    }

    /// Copies the ways (tags, flags and LRU stamps) of every set in `sets`,
    /// and the LRU clock, from `src`, which must have the same geometry.
    /// Statistics are left alone.
    pub(crate) fn copy_sets_from(&mut self, src: &SetAssocCache, sets: &[usize]) {
        for &set_idx in sets {
            let range = self.set_range(set_idx);
            self.tags[range.clone()].copy_from_slice(&src.tags[range.clone()]);
            self.last_use[range.clone()].copy_from_slice(&src.last_use[range]);
        }
        self.clock = src.clock;
    }

    /// Looks up `addr`; on a hit, refreshes LRU state and returns `true`.
    /// Counts a hit or a miss.
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        self.clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let want = tag | VALID;
        let range = self.set_range(set_idx);
        for i in range {
            if self.tags[i] & !DIRTY == want {
                self.last_use[i] = self.clock;
                if write {
                    self.tags[i] |= DIRTY;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Checks residency without perturbing LRU state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        let want = tag | VALID;
        self.tags[self.set_range(set_idx)]
            .iter()
            .any(|&t| t & !DIRTY == want)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the set
    /// is full. Returns the evicted line's base address, if any.
    pub fn fill(&mut self, addr: Addr, write: bool) -> Option<Addr> {
        self.clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let range = self.set_range(set_idx);
        let set_tags = &self.tags[range.clone()];
        // Prefer an invalid way; otherwise evict LRU.
        let victim = range.start
            + set_tags
                .iter()
                .position(|&t| t & VALID == 0)
                .unwrap_or_else(|| {
                    let lru = &self.last_use[range.clone()];
                    (0..lru.len())
                        .min_by_key(|&i| lru[i])
                        .expect("associativity > 0")
                });
        let old = self.tags[victim];
        self.tags[victim] = tag | VALID | if write { DIRTY } else { 0 };
        self.last_use[victim] = self.clock;
        if old & VALID != 0 {
            self.stats.evictions += 1;
            let old_block = ((old & !FLAGS) << self.set_bits) | set_idx as u64;
            Some(old_block << self.line_shift)
        } else {
            None
        }
    }

    /// Invalidates `addr`'s line if resident. Returns whether it was.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        let want = tag | VALID;
        for i in self.set_range(set_idx) {
            if self.tags[i] & !DIRTY == want {
                self.tags[i] = 0;
                self.stats.invalidations += 1;
                return true;
            }
        }
        false
    }

    /// Invalidates the least-recently-used `fraction` of ways in every set.
    ///
    /// This reproduces the paper's `antagonist` simulator callback, which
    /// "evicts the less used half of each set" to mimic an application
    /// striding through a large working set.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn evict_lru_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction {fraction} outside [0, 1]"
        );
        let ways = self.config.associativity as usize;
        // "The less used half of each set": in the paper's simulator the
        // sets are full of application data, so evicting the LRU half kills
        // every line that was not touched very recently. We model that by
        // evicting the least-recently-used `fraction` of the *valid* lines
        // in each set (rounded down — a set holding a single hot line keeps
        // it, just as a just-touched line ranks in the kept half).
        for set_start in (0..self.tags.len()).step_by(ways) {
            let mut order: Vec<usize> = (set_start..set_start + ways)
                .filter(|&i| self.tags[i] & VALID != 0)
                .collect();
            let n_evict = ((order.len() as f64) * fraction).floor() as usize;
            if n_evict == 0 {
                continue;
            }
            order.sort_by_key(|&i| self.last_use[i]);
            for &i in order.iter().take(n_evict) {
                self.tags[i] = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Invalidates everything (e.g. a context switch in the model).
    pub fn flush(&mut self) {
        for t in &mut self.tags {
            if *t & VALID != 0 {
                *t = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t & VALID != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            associativity: 2,
            hit_latency: 4,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(tiny().config().num_sets(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 48,
            associativity: 2,
            hit_latency: 1,
        });
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = tiny();
        assert!(!c.access(100, false));
        c.fill(100, false);
        // Same 64-byte line.
        assert!(c.access(127, false));
        assert!(c.access(64, false));
        // Next line misses.
        assert!(!c.access(128, false));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three conflicting lines in set 0 (stride = sets * line = 256).
        c.fill(0, false);
        c.fill(256, false);
        // Touch line 0 so 256 becomes LRU.
        assert!(c.access(0, false));
        let evicted = c.fill(512, false);
        assert_eq!(evicted, Some(256));
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn fill_prefers_invalid_ways() {
        let mut c = tiny();
        c.fill(0, false);
        assert_eq!(c.fill(256, false), None); // second way free
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn invalidate_specific_line() {
        let mut c = tiny();
        c.fill(0, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
        assert!(!c.probe(0));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn antagonist_evicts_lru_half() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(256, false);
        c.access(256, false); // 0 is now LRU in set 0
        c.evict_lru_fraction(0.5);
        assert!(!c.probe(0), "LRU way should be evicted");
        assert!(c.probe(256), "MRU way should survive");
    }

    #[test]
    fn antagonist_zero_fraction_is_noop() {
        let mut c = tiny();
        c.fill(0, false);
        c.evict_lru_fraction(0.0);
        assert!(c.probe(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.fill(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 8);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.fill(0, false);
        c.fill(256, false);
        // Probing 0 must NOT make it MRU.
        assert!(c.probe(0));
        let evicted = c.fill(512, false);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn zero_dimension_geometries_are_rejected_not_panicked() {
        for cfg in [
            CacheConfig {
                size_bytes: 0,
                line_bytes: 64,
                associativity: 2,
                hit_latency: 1,
            },
            CacheConfig {
                size_bytes: 512,
                line_bytes: 0,
                associativity: 2,
                hit_latency: 1,
            },
            CacheConfig {
                size_bytes: 512,
                line_bytes: 64,
                associativity: 0,
                hit_latency: 1,
            },
        ] {
            assert_eq!(cfg.validate(), Err(GeometryError::ZeroDimension));
            assert!(SetAssocCache::try_new(cfg).is_err());
        }
    }

    #[test]
    fn inconsistent_geometries_report_the_right_error() {
        let base = CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            associativity: 2,
            hit_latency: 1,
        };
        assert_eq!(
            CacheConfig {
                line_bytes: 48,
                ..base
            }
            .validate(),
            Err(GeometryError::LineNotPowerOfTwo)
        );
        assert_eq!(
            CacheConfig {
                size_bytes: 96,
                line_bytes: 64,
                associativity: 1,
                hit_latency: 1,
            }
            .validate(),
            Err(GeometryError::PartialLine)
        );
        assert_eq!(
            CacheConfig {
                size_bytes: 192,
                associativity: 2,
                ..base
            }
            .validate(),
            Err(GeometryError::PartialWay)
        );
        assert_eq!(
            CacheConfig {
                size_bytes: 384,
                associativity: 2,
                ..base
            }
            .validate(),
            Err(GeometryError::SetsNotPowerOfTwo)
        );
        assert_eq!(base.validate(), Ok(4));
    }

    #[test]
    fn eviction_starts_exactly_at_the_associativity_boundary() {
        // 2-way set: the first `associativity` conflicting fills must not
        // evict anything; fill number associativity+1 must evict exactly
        // one line, and it must be the LRU one.
        let mut c = tiny();
        assert_eq!(c.fill(0, false), None);
        assert_eq!(c.fill(256, false), None, "boundary fill must not evict");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_lines(), 2);
        let evicted = c.fill(512, false);
        assert_eq!(evicted, Some(0), "one past the boundary evicts the LRU");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.resident_lines(), 2, "occupancy is capped at the ways");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.fill(i * 64, false);
        }
        for i in 0..4u64 {
            assert!(c.probe(i * 64), "set {i} lost its line");
        }
    }
}
