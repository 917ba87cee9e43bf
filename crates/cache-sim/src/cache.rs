//! A single set-associative cache with true-LRU replacement.
//!
//! Each set stores its valid lines packed at the front of its ways, in
//! order from most to least recently used, with the empty ways after them.
//! That order is the whole LRU state, so each way is one word.

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
    /// Valid lines displaced by misses into full sets.
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
/// An empty way holds the word 0.
const VALID: u64 = 1 << 63;
const DIRTY: u64 = 1 << 62;
const FLAGS: u64 = VALID | DIRTY;

/// The outcome of one [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was resident.
    Hit,
    /// The line was not resident and has been installed.
    Miss {
        /// The base address of the line the install displaced from a full
        /// set, if any.
        evicted: Option<Addr>,
    },
}

impl Lookup {
    /// Whether the line was resident.
    #[inline]
    pub fn is_hit(self) -> bool {
        self == Lookup::Hit
    }
}

/// Writes `word` into way 0 of `set`, moves ways `0..way` down one way and
/// returns the word way `way` held. A plain element loop: for the handful
/// of ways a set moves, it beats both `rotate_right` and `copy_within`.
#[inline]
fn push_front(set: &mut [u64], way: usize, word: u64) -> u64 {
    let mut carry = word;
    for w in &mut set[..=way] {
        carry = std::mem::replace(w, carry);
    }
    carry
}

/// One set-associative, true-LRU cache level.
///
/// Every set keeps its recency order in the positions of its ways: way 0
/// holds the most recently used line, the valid lines are packed at the
/// front, and empty ways follow them. A hit moves its line to way 0; a
/// miss installs its line at way 0 and, in a full set, evicts the last way;
/// an invalidation closes the gap it leaves. A lookup therefore stops at
/// the first empty way, and the least recently used lines of a set are the
/// tail of its valid prefix.
///
/// # Example
///
/// ```
/// use mallacc_cache::{CacheConfig, Lookup, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig {
///     size_bytes: 1024,
///     line_bytes: 64,
///     associativity: 2,
///     hit_latency: 4,
/// });
/// assert!(!c.probe(0));
/// assert_eq!(c.access(0, false), Lookup::Miss { evicted: None });
/// assert!(c.probe(0));
/// assert_eq!(c.access(0, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// All ways of all sets in one flat allocation: `associativity`
    /// packed tag+flag words per set, each set in recency order.
    /// `Hierarchy::access` runs on every simulated memory µop, fast-forwarded
    /// ones included, so this scan is the hot loop of the whole simulator;
    /// at one word per way a 16-way set spans two host cache lines.
    tags: Vec<u64>,
    set_mask: u64,
    set_bits: u32,
    line_shift: u32,
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
            set_mask: sets - 1,
            set_bits: (sets - 1).count_ones(),
            line_shift: config.line_bytes.trailing_zeros(),
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

    /// Copies the ways (tags, flags and recency order) of every set in
    /// `sets` from `src`, which must have the same geometry. Statistics are
    /// left alone.
    pub(crate) fn copy_sets_from(&mut self, src: &SetAssocCache, sets: &[usize]) {
        for &set_idx in sets {
            let range = self.set_range(set_idx);
            self.tags[range.clone()].copy_from_slice(&src.tags[range]);
        }
    }

    /// Looks up `addr` and makes its line the most recently used of its set,
    /// installing it on a miss. Counts a hit or a miss, and an eviction when
    /// the miss displaced a line from a full set.
    ///
    /// One scan serves both cases. It stops at the line, at the first empty
    /// way or at the end of a full set; the lines in front of that way then
    /// move down one way and the accessed line takes way 0, dirty on a
    /// write. A miss into a full set pushes out its last way, the least
    /// recently used line.
    // Forced inline: a hierarchy walk calls this for up to five levels, and
    // the out-of-line call the compiler chose cost more than the shift.
    #[inline(always)]
    pub fn access(&mut self, addr: Addr, write: bool) -> Lookup {
        let (set_idx, tag) = self.index_and_tag(addr);
        let want = tag | VALID;
        let dirty = if write { DIRTY } else { 0 };
        let range = self.set_range(set_idx);
        let set = &mut self.tags[range];
        let mut way = 0;
        while way < set.len() {
            let t = set[way];
            if t & !DIRTY == want {
                push_front(set, way, t | dirty);
                self.stats.hits += 1;
                return Lookup::Hit;
            }
            if t == 0 {
                break;
            }
            way += 1;
        }
        self.stats.misses += 1;
        if way < set.len() {
            push_front(set, way, want | dirty);
            return Lookup::Miss { evicted: None };
        }
        let old = push_front(set, way - 1, want | dirty);
        self.stats.evictions += 1;
        let old_block = ((old & !FLAGS) << self.set_bits) | set_idx as u64;
        Lookup::Miss {
            evicted: Some(old_block << self.line_shift),
        }
    }

    /// Counts a read hit on a line the caller knows is in way 0 of its
    /// set, without scanning: such a hit moves and marks nothing.
    #[inline]
    pub(crate) fn count_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Checks residency without perturbing the recency order or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        let want = tag | VALID;
        self.tags[self.set_range(set_idx)]
            .iter()
            .any(|&t| t & !DIRTY == want)
    }

    /// Invalidates `addr`'s line if resident. Returns whether it was.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        let want = tag | VALID;
        let range = self.set_range(set_idx);
        let set = &mut self.tags[range];
        let Some(i) = set.iter().position(|&t| t & !DIRTY == want) else {
            return false;
        };
        // Close the gap: every less recently used line moves up one way.
        let last = set.len() - 1;
        set.copy_within(i + 1.., i);
        set[last] = 0;
        self.stats.invalidations += 1;
        true
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
        // it, just as a just-touched line ranks in the kept half): the tail
        // of the set's valid prefix.
        for set in self.tags.chunks_exact_mut(ways) {
            let valid = set.iter().position(|&t| t == 0).unwrap_or(ways);
            let n_evict = ((valid as f64) * fraction).floor() as usize;
            set[valid - n_evict..valid].fill(0);
            self.stats.invalidations += n_evict as u64;
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
        assert!(!c.access(100, false).is_hit());
        // Same 64-byte line.
        assert!(c.access(127, false).is_hit());
        assert!(c.access(64, false).is_hit());
        // Next line misses.
        assert!(!c.access(128, false).is_hit());
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three conflicting lines in set 0 (stride = sets * line = 256).
        c.access(0, false);
        c.access(256, false);
        // Touch line 0 so 256 becomes LRU.
        assert!(c.access(0, false).is_hit());
        let evicted = c.access(512, false);
        assert_eq!(evicted, Lookup::Miss { evicted: Some(256) });
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn hit_shifts_the_lines_in_front_of_it() {
        // One 4-way set: after a, b, c, d its order is d c b a. A hit on b
        // gives b d c a, so the next two misses evict a, then c; a swap
        // with way 0 would give b c d a and evict d second.
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            associativity: 4,
            hit_latency: 1,
        });
        for line in 0..4 {
            c.access(line * 64, false);
        }
        assert!(c.access(64, true).is_hit());
        assert_eq!(c.access(256, false), Lookup::Miss { evicted: Some(0) });
        assert_eq!(c.access(320, false), Lookup::Miss { evicted: Some(128) });
        assert!(c.probe(64) && c.probe(192));
    }

    #[test]
    fn miss_prefers_invalid_ways() {
        let mut c = tiny();
        c.access(0, false);
        // Second way free.
        assert_eq!(c.access(256, false), Lookup::Miss { evicted: None });
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn invalidate_specific_line() {
        let mut c = tiny();
        c.access(0, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
        assert!(!c.probe(0));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn antagonist_evicts_lru_half() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        c.access(256, false); // 0 is now LRU in set 0
        c.evict_lru_fraction(0.5);
        assert!(!c.probe(0), "LRU way should be evicted");
        assert!(c.probe(256), "MRU way should survive");
    }

    #[test]
    fn antagonist_zero_fraction_is_noop() {
        let mut c = tiny();
        c.access(0, false);
        c.evict_lru_fraction(0.0);
        assert!(c.probe(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 8);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        // Probing 0 must NOT make it MRU.
        assert!(c.probe(0));
        let evicted = c.access(512, false);
        assert_eq!(evicted, Lookup::Miss { evicted: Some(0) });
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
        // 2-way set: the first `associativity` conflicting misses must not
        // evict anything; miss number associativity+1 must evict exactly
        // one line, and it must be the LRU one.
        let mut c = tiny();
        let none = Lookup::Miss { evicted: None };
        assert_eq!(c.access(0, false), none);
        assert_eq!(c.access(256, false), none, "boundary miss must not evict");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_lines(), 2);
        let evicted = c.access(512, false);
        assert_eq!(
            evicted,
            Lookup::Miss { evicted: Some(0) },
            "one past the boundary evicts the LRU"
        );
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.resident_lines(), 2, "occupancy is capped at the ways");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 64, false);
        }
        for i in 0..4u64 {
            assert!(c.probe(i * 64), "set {i} lost its line");
        }
    }
}
