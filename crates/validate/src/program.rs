//! Seeded, coverage-guided random instruction programs for differential
//! fuzzing of the malloc cache against its reference spec.
//!
//! A [`McProgram`] is a self-contained trace: a cache configuration, a
//! *class universe* of table-consistent `(requested, alloc_size, class)`
//! tuples drawn from the real TCMalloc 2007 size-class table, and a list of
//! timestamped instructions over that universe. Table-consistency matters:
//! distinct classes then have provably disjoint key ranges in both keying
//! modes, so every lookup matches at most one entry and the model's
//! slot-array scan order cannot be distinguished from the reference's
//! `Vec` order (see the spec note in [`crate::refspec`]).
//!
//! Generation is deterministic: the same seed yields the same program, and
//! the corpus driver ([`fuzz_slot`]) derives each slot's seed purely from
//! `(corpus seed, slot index)`, so a parallel run partitions slots across
//! workers without changing a single byte of the aggregate report.
//!
//! Coverage guidance is *per slot* and feedback-driven: after the base
//! program runs, the slot inspects which [`CoverageEvent`]s it failed to
//! exercise and appends targeted mutant programs (an eviction-churn
//! profile, a prefetch-heavy profile, a maintenance-heavy profile) until
//! the gap closes or the mutation budget runs out. Keeping the feedback
//! loop inside the slot preserves cross-job determinism.

use mallacc::{MallocCache, MallocCacheConfig, PopResult, RangeKeying};
use mallacc_tcmalloc::SizeClasses;

use crate::refspec::RefMallocCache;
use crate::{Divergence, SlotReport};

/// SplitMix64: a tiny, high-quality deterministic generator. Local to this
/// crate so program generation does not depend on the proptest shim (which
/// is a dev-style dependency elsewhere in the workspace).
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// One class of the program's universe: a table-consistent mapping with two
/// canonical requested sizes (the low and high ends of the class's span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// The size class id.
    pub class: u16,
    /// Smallest requested size that rounds to this class.
    pub lo: u64,
    /// Largest requested size that rounds to this class (== `alloc`).
    pub hi: u64,
    /// The rounded allocation size.
    pub alloc: u64,
}

/// One malloc-cache instruction (or maintenance op) over the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOp {
    /// `mcszlookup` with an arbitrary (in-table) requested size.
    Lookup {
        /// Requested size, ≤ `consts::MAX_SIZE`.
        requested: u64,
    },
    /// `mcszupdate` with the slot's table-consistent tuple; `hi_key`
    /// selects the high or low canonical requested size.
    Update {
        /// Index into the program's class universe.
        class_slot: usize,
        /// Use the high end of the class span as the requested size.
        hi_key: bool,
    },
    /// `mchdpop`.
    Pop {
        /// Index into the class universe.
        class_slot: usize,
    },
    /// `mchdpush`.
    Push {
        /// Index into the class universe.
        class_slot: usize,
        /// The freed pointer being installed as the new head.
        addr: u64,
    },
    /// `mcnxtprefetch`.
    Prefetch {
        /// Index into the class universe.
        class_slot: usize,
        /// Effective address of the memory operand.
        addr: u64,
        /// The loaded value (`None` models a list that ends at `addr`).
        value: Option<u64>,
        /// Cycles after the op's `now` at which the line arrives.
        arrival_delta: u64,
    },
    /// Slow-path list resynchronisation.
    SyncList {
        /// Index into the class universe.
        class_slot: usize,
        /// New cached head.
        head: Option<u64>,
        /// New cached next.
        next: Option<u64>,
    },
    /// Multi-core steal consistency: drop one class's list copy.
    InvalidateList {
        /// Index into the class universe.
        class_slot: usize,
    },
    /// Context switch: drop everything.
    Flush,
    /// Query the block delay (pure observation, must agree too).
    BlockDelay {
        /// Index into the class universe.
        class_slot: usize,
    },
}

impl McOp {
    /// The universe slot this op touches, if exactly one.
    pub fn class_slot(&self) -> Option<usize> {
        match *self {
            McOp::Update { class_slot, .. }
            | McOp::Pop { class_slot }
            | McOp::Push { class_slot, .. }
            | McOp::Prefetch { class_slot, .. }
            | McOp::SyncList { class_slot, .. }
            | McOp::InvalidateList { class_slot }
            | McOp::BlockDelay { class_slot } => Some(class_slot),
            McOp::Lookup { .. } | McOp::Flush => None,
        }
    }
}

/// A complete differential-fuzz program.
#[derive(Debug, Clone)]
pub struct McProgram {
    /// Cache configuration under test.
    pub config: MallocCacheConfig,
    /// The class universe.
    pub classes: Vec<ClassSpec>,
    /// `(now, op)` pairs; `now` is non-decreasing.
    pub ops: Vec<(u64, McOp)>,
}

/// Knobs for one generated program.
#[derive(Debug, Clone, Copy)]
pub struct GenProfile {
    /// Cache entries (small values force evictions).
    pub entries: usize,
    /// Keying mode.
    pub keying: RangeKeying,
    /// Universe size.
    pub n_classes: usize,
    /// Instruction count.
    pub n_ops: usize,
    /// Weights for [lookup, update, pop, push, prefetch, sync,
    /// invalidate, flush, block-delay].
    pub weights: [u32; 9],
    /// Update always uses the class's low canonical size, and lookups only
    /// probe canonical spans — the precondition of the entries-monotone
    /// law (see [`crate::laws`]).
    pub canonical: bool,
    /// Suppress `mcnxtprefetch` (precondition of the pop half of the
    /// entries-monotone law).
    pub no_prefetch: bool,
}

impl GenProfile {
    /// A balanced mix over a mid-sized cache.
    pub fn balanced() -> Self {
        Self {
            entries: 8,
            keying: RangeKeying::ClassIndex,
            n_classes: 6,
            n_ops: 40,
            weights: [6, 5, 5, 5, 3, 1, 1, 1, 1],
            canonical: false,
            no_prefetch: false,
        }
    }

    /// Tiny cache, many classes: exercises eviction heavily.
    pub fn churn() -> Self {
        Self {
            entries: 2,
            n_classes: 8,
            weights: [4, 8, 2, 2, 1, 1, 1, 1, 1],
            ..Self::balanced()
        }
    }

    /// Prefetch- and pop-heavy: exercises fills, blocking and the
    /// incomplete-entry fallback.
    pub fn prefetch_heavy() -> Self {
        Self {
            weights: [2, 3, 8, 4, 8, 1, 1, 0, 3],
            ..Self::balanced()
        }
    }

    /// Maintenance-heavy: flushes, invalidations, syncs.
    pub fn maintenance() -> Self {
        Self {
            weights: [3, 4, 3, 3, 2, 4, 4, 3, 1],
            ..Self::balanced()
        }
    }

    fn draw(rng: &mut SplitMix64) -> Self {
        let mut p = match rng.below(4) {
            0 => Self::balanced(),
            1 => Self::churn(),
            2 => Self::prefetch_heavy(),
            _ => Self::maintenance(),
        };
        p.entries = [1, 2, 3, 4, 8, 16][rng.below(6) as usize];
        if rng.chance(1, 3) {
            p.keying = RangeKeying::RequestedSize;
        }
        p.n_classes = 1 + rng.below(9) as usize;
        p.n_ops = 4 + rng.below(44) as usize;
        p
    }
}

/// Builds a universe of `n` distinct table-consistent classes.
fn draw_universe(rng: &mut SplitMix64, n: usize) -> Vec<ClassSpec> {
    let table = SizeClasses::tcmalloc_2007();
    let all: Vec<ClassSpec> = {
        let mut prev_size = 0u64;
        table
            .iter()
            .map(|(cls, info)| {
                let spec = ClassSpec {
                    class: cls.as_u8() as u16,
                    lo: prev_size + 1,
                    hi: info.size,
                    alloc: info.size,
                };
                prev_size = info.size;
                spec
            })
            .collect()
    };
    let mut picked = Vec::with_capacity(n);
    while picked.len() < n.min(all.len()) {
        let c = all[rng.below(all.len() as u64) as usize];
        if !picked.contains(&c) {
            picked.push(c);
        }
    }
    picked
}

impl McProgram {
    /// Generates a program from a seed, drawing the profile from the seed
    /// as well.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let profile = GenProfile::draw(&mut rng);
        Self::generate_from_rng(&mut rng, profile)
    }

    /// Generates a program under an explicit profile.
    pub fn generate_with(seed: u64, profile: GenProfile) -> Self {
        Self::generate_from_rng(&mut SplitMix64::new(seed), profile)
    }

    fn generate_from_rng(rng: &mut SplitMix64, profile: GenProfile) -> Self {
        let classes = draw_universe(rng, profile.n_classes);
        let config = MallocCacheConfig {
            entries: profile.entries,
            keying: profile.keying,
            extra_latency: 0,
        };
        let total: u32 = profile.weights.iter().sum();
        assert!(total > 0, "profile must enable at least one op kind");
        let mut ops = Vec::with_capacity(profile.n_ops);
        let mut now = 0u64;
        // Last address pushed per class. Prefetches target it half the
        // time: a fresh entry's head is exactly the last push, which is
        // the only way to reach the fill-`Next` path with realistic odds.
        let mut last_push: Vec<Option<u64>> = vec![None; classes.len()];
        for _ in 0..profile.n_ops {
            now += rng.below(9);
            let mut pick = rng.below(total as u64) as u32;
            let kind = profile
                .weights
                .iter()
                .position(|&w| {
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("weights sum to total");
            let slot = rng.below(classes.len() as u64) as usize;
            let c = classes[slot];
            let addr = (1 + rng.below(4_000)) * 64;
            let op = match kind {
                0 => McOp::Lookup {
                    requested: if profile.canonical || rng.chance(7, 10) {
                        // Inside some universe class's span.
                        c.lo + rng.below(c.hi - c.lo + 1)
                    } else {
                        // Anywhere in the table: exercises whole-cache
                        // misses without ever leaving the table.
                        1 + rng.below(mallacc_tcmalloc::consts::MAX_SIZE)
                    },
                },
                1 => McOp::Update {
                    class_slot: slot,
                    hi_key: !profile.canonical && rng.chance(1, 2),
                },
                2 => McOp::Pop { class_slot: slot },
                3 => {
                    last_push[slot] = Some(addr);
                    McOp::Push {
                        class_slot: slot,
                        addr,
                    }
                }
                4 if !profile.no_prefetch => McOp::Prefetch {
                    class_slot: slot,
                    addr: match last_push[slot] {
                        Some(a) if rng.chance(1, 2) => a,
                        _ => addr,
                    },
                    value: if rng.chance(4, 5) {
                        Some((1 + rng.below(4_000)) * 64)
                    } else {
                        None
                    },
                    arrival_delta: rng.below(50),
                },
                4 => McOp::Pop { class_slot: slot },
                5 => McOp::SyncList {
                    class_slot: slot,
                    head: rng.chance(2, 3).then_some(addr),
                    next: rng.chance(1, 2).then_some((1 + rng.below(4_000)) * 64),
                },
                6 => McOp::InvalidateList { class_slot: slot },
                7 => McOp::Flush,
                _ => McOp::BlockDelay { class_slot: slot },
            };
            ops.push((now, op));
        }
        Self {
            config,
            classes,
            ops,
        }
    }

    /// Generates a program satisfying the entries-monotone law's
    /// preconditions: canonical updates and lookups, no prefetches.
    pub fn generate_canonical(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut profile = GenProfile::draw(&mut rng);
        profile.canonical = true;
        profile.no_prefetch = true;
        Self::generate_from_rng(&mut rng, profile)
    }

    /// Generates a program satisfying the independent-reorder law's
    /// preconditions: no evictions (entries ≥ classes) and no flushes.
    pub fn generate_eviction_free(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut profile = GenProfile::draw(&mut rng);
        profile.weights[7] = 0; // no flush
        profile.entries = profile.entries.max(profile.n_classes);
        Self::generate_from_rng(&mut rng, profile)
    }
}

/// Applies one op to a model cache. The law suite replays mutated op lists
/// through this; [`diff_program`] inlines the same dispatch so it can
/// classify coverage and compare results as it goes.
pub fn apply_op(mc: &mut MallocCache, classes: &[ClassSpec], now: u64, op: McOp) {
    match op {
        McOp::Lookup { requested } => {
            let _ = mc.lookup(requested, now);
        }
        McOp::Update { class_slot, hi_key } => {
            let c = classes[class_slot];
            let requested = if hi_key { c.hi } else { c.lo };
            mc.update(requested, c.alloc, c.class);
        }
        McOp::Pop { class_slot } => {
            let _ = mc.pop(classes[class_slot].class, now);
        }
        McOp::Push { class_slot, addr } => mc.push(classes[class_slot].class, addr, now),
        McOp::Prefetch {
            class_slot,
            addr,
            value,
            arrival_delta,
        } => mc.prefetch(classes[class_slot].class, addr, value, now + arrival_delta),
        McOp::SyncList {
            class_slot,
            head,
            next,
        } => mc.sync_list(classes[class_slot].class, head, next),
        McOp::InvalidateList { class_slot } => mc.invalidate_list(classes[class_slot].class),
        McOp::Flush => mc.flush(),
        McOp::BlockDelay { class_slot } => {
            let _ = mc.block_delay(classes[class_slot].class, now);
        }
    }
}

impl McProgram {
    /// Replays an op list (usually a mutation of `self.ops`) on a fresh
    /// model cache under `config`, returning the cache for inspection.
    pub fn replay_with(&self, config: MallocCacheConfig, ops: &[(u64, McOp)]) -> MallocCache {
        let mut mc = MallocCache::new(config);
        for &(now, op) in ops {
            apply_op(&mut mc, &self.classes, now, op);
        }
        mc
    }
}

/// Everything the differential runner can observe happening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageEvent {
    /// `mcszlookup` hit.
    LookupHit,
    /// `mcszlookup` miss.
    LookupMiss,
    /// `mcszupdate` inserted a fresh entry.
    Insert,
    /// `mcszupdate` widened a resident entry.
    RangeExtend,
    /// An insert evicted the LRU entry.
    Eviction,
    /// `mchdpop` hit.
    PopHit,
    /// `mchdpop` missed because the class was absent.
    PopMissAbsent,
    /// `mchdpop` missed on an incomplete entry (and invalidated it).
    PopMissIncomplete,
    /// `mchdpush` found its entry.
    PushHit,
    /// `mchdpush` on an absent class (no-op).
    PushAbsent,
    /// `mcnxtprefetch` filled an empty entry with `(addr, value)`.
    PrefetchFillEmpty,
    /// `mcnxtprefetch` filled `Next` behind a matching head.
    PrefetchFillNext,
    /// `mcnxtprefetch` dropped (complete or inconsistent entry).
    PrefetchIgnored,
    /// `mcnxtprefetch` on an absent class (no-op).
    PrefetchUnknownClass,
    /// A pop/push paid a positive prefetch-block delay.
    BlockedAccess,
    /// `sync_list` reached a resident entry.
    SyncList,
    /// `invalidate_list` reached a resident entry.
    InvalidateList,
    /// A flush cleared a non-empty cache.
    Flush,
    /// `block_delay` observed a positive wait.
    BlockDelayPositive,
}

impl CoverageEvent {
    /// Every event, in bit order.
    pub const ALL: [CoverageEvent; 19] = [
        CoverageEvent::LookupHit,
        CoverageEvent::LookupMiss,
        CoverageEvent::Insert,
        CoverageEvent::RangeExtend,
        CoverageEvent::Eviction,
        CoverageEvent::PopHit,
        CoverageEvent::PopMissAbsent,
        CoverageEvent::PopMissIncomplete,
        CoverageEvent::PushHit,
        CoverageEvent::PushAbsent,
        CoverageEvent::PrefetchFillEmpty,
        CoverageEvent::PrefetchFillNext,
        CoverageEvent::PrefetchIgnored,
        CoverageEvent::PrefetchUnknownClass,
        CoverageEvent::BlockedAccess,
        CoverageEvent::SyncList,
        CoverageEvent::InvalidateList,
        CoverageEvent::Flush,
        CoverageEvent::BlockDelayPositive,
    ];

    fn bit(self) -> u32 {
        1 << Self::ALL.iter().position(|&e| e == self).expect("listed") as u32
    }

    /// Stable display name (kebab-case).
    pub fn name(self) -> &'static str {
        match self {
            CoverageEvent::LookupHit => "lookup-hit",
            CoverageEvent::LookupMiss => "lookup-miss",
            CoverageEvent::Insert => "insert",
            CoverageEvent::RangeExtend => "range-extend",
            CoverageEvent::Eviction => "eviction",
            CoverageEvent::PopHit => "pop-hit",
            CoverageEvent::PopMissAbsent => "pop-miss-absent",
            CoverageEvent::PopMissIncomplete => "pop-miss-incomplete",
            CoverageEvent::PushHit => "push-hit",
            CoverageEvent::PushAbsent => "push-absent",
            CoverageEvent::PrefetchFillEmpty => "prefetch-fill-empty",
            CoverageEvent::PrefetchFillNext => "prefetch-fill-next",
            CoverageEvent::PrefetchIgnored => "prefetch-ignored",
            CoverageEvent::PrefetchUnknownClass => "prefetch-unknown-class",
            CoverageEvent::BlockedAccess => "blocked-access",
            CoverageEvent::SyncList => "sync-list",
            CoverageEvent::InvalidateList => "invalidate-list",
            CoverageEvent::Flush => "flush",
            CoverageEvent::BlockDelayPositive => "block-delay-positive",
        }
    }
}

/// A set of observed [`CoverageEvent`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage(u32);

impl Coverage {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event.
    pub fn add(&mut self, e: CoverageEvent) {
        self.0 |= e.bit();
    }

    /// Whether an event has been observed.
    pub fn contains(self, e: CoverageEvent) -> bool {
        self.0 & e.bit() != 0
    }

    /// Merges another set in.
    pub fn merge(&mut self, other: Coverage) {
        self.0 |= other.0;
    }

    /// Number of distinct events observed.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Events not yet observed.
    pub fn missing(self) -> Vec<CoverageEvent> {
        CoverageEvent::ALL
            .into_iter()
            .filter(|&e| !self.contains(e))
            .collect()
    }

    /// Whether every event has been observed.
    pub fn complete(self) -> bool {
        self.count() == CoverageEvent::ALL.len()
    }
}

/// Outcome of one program's differential run.
#[derive(Debug, Clone)]
pub struct ProgramOutcome {
    /// Events the program exercised.
    pub coverage: Coverage,
    /// Instructions executed.
    pub ops: u64,
    /// The first model/reference disagreement, if any; its `check` is
    /// the offending op, rendered.
    pub divergence: Option<Divergence>,
}

fn state_divergence(
    p: &McProgram,
    mc: &MallocCache,
    rc: &RefMallocCache,
    now: u64,
) -> Option<String> {
    if mc.occupancy() != rc.occupancy() {
        return Some(format!(
            "occupancy: model {} vs ref {}",
            mc.occupancy(),
            rc.occupancy()
        ));
    }
    if mc.stats() != rc.stats() {
        return Some(format!(
            "stats: model {:?} vs ref {:?}",
            mc.stats(),
            rc.stats()
        ));
    }
    for c in &p.classes {
        let m = mc.entry_view(c.class);
        let r = rc.entry_view(c.class);
        if m != r {
            return Some(format!("class {}: model {m:?} vs ref {r:?}", c.class));
        }
        let (md, rd) = (mc.block_delay(c.class, now), rc.block_delay(c.class, now));
        if md != rd {
            return Some(format!("class {} delay: model {md} vs ref {rd}", c.class));
        }
    }
    None
}

/// Replays `p` through the model and the reference spec in lockstep,
/// comparing every result and the full observable state after every op.
pub fn diff_program(seed: u64, p: &McProgram) -> ProgramOutcome {
    let mut mc = MallocCache::new(p.config);
    let mut rc = RefMallocCache::new(p.config);
    let mut cov = Coverage::new();
    let mut divergence = None;

    for (step, &(now, op)) in p.ops.iter().enumerate() {
        // Pre-state (from the model; the two were equal after the previous
        // step) drives event classification.
        let mut mismatch: Option<String> = None;
        match op {
            McOp::Lookup { requested } => {
                let (a, b) = (mc.lookup(requested, now), rc.lookup(requested, now));
                cov.add(if a.is_some() {
                    CoverageEvent::LookupHit
                } else {
                    CoverageEvent::LookupMiss
                });
                if a != b {
                    mismatch = Some(format!("lookup: model {a:?} vs ref {b:?}"));
                }
            }
            McOp::Update { class_slot, hi_key } => {
                let c = p.classes[class_slot];
                let requested = if hi_key { c.hi } else { c.lo };
                let before = mc.stats();
                let full = mc.occupancy() == p.config.entries;
                let resident = mc.entry_view(c.class).is_some();
                mc.update(requested, c.alloc, c.class);
                rc.update(requested, c.alloc, c.class);
                cov.add(if resident {
                    CoverageEvent::RangeExtend
                } else {
                    CoverageEvent::Insert
                });
                if !resident && full {
                    cov.add(CoverageEvent::Eviction);
                }
                let _ = before;
            }
            McOp::Pop { class_slot } => {
                let c = p.classes[class_slot];
                let view = mc.entry_view(c.class);
                if mc.block_delay(c.class, now) > 0 {
                    cov.add(CoverageEvent::BlockedAccess);
                }
                let (a, b) = (mc.pop(c.class, now), rc.pop(c.class, now));
                cov.add(match (a, view) {
                    (PopResult::Hit { .. }, _) => CoverageEvent::PopHit,
                    (PopResult::Miss, None) => CoverageEvent::PopMissAbsent,
                    (PopResult::Miss, Some(_)) => CoverageEvent::PopMissIncomplete,
                });
                if a != b {
                    mismatch = Some(format!("pop: model {a:?} vs ref {b:?}"));
                }
            }
            McOp::Push { class_slot, addr } => {
                let c = p.classes[class_slot];
                let resident = mc.entry_view(c.class).is_some();
                if resident && mc.block_delay(c.class, now) > 0 {
                    cov.add(CoverageEvent::BlockedAccess);
                }
                mc.push(c.class, addr, now);
                rc.push(c.class, addr, now);
                cov.add(if resident {
                    CoverageEvent::PushHit
                } else {
                    CoverageEvent::PushAbsent
                });
            }
            McOp::Prefetch {
                class_slot,
                addr,
                value,
                arrival_delta,
            } => {
                let c = p.classes[class_slot];
                let arrival = now + arrival_delta;
                cov.add(match mc.entry_view(c.class) {
                    None => CoverageEvent::PrefetchUnknownClass,
                    Some(v) => match (v.head, v.next) {
                        (None, _) => CoverageEvent::PrefetchFillEmpty,
                        (Some(h), None) if h == addr => CoverageEvent::PrefetchFillNext,
                        _ => CoverageEvent::PrefetchIgnored,
                    },
                });
                mc.prefetch(c.class, addr, value, arrival);
                rc.prefetch(c.class, addr, value, arrival);
            }
            McOp::SyncList {
                class_slot,
                head,
                next,
            } => {
                let c = p.classes[class_slot];
                if mc.entry_view(c.class).is_some() {
                    cov.add(CoverageEvent::SyncList);
                }
                mc.sync_list(c.class, head, next);
                rc.sync_list(c.class, head, next);
            }
            McOp::InvalidateList { class_slot } => {
                let c = p.classes[class_slot];
                if mc.entry_view(c.class).is_some() {
                    cov.add(CoverageEvent::InvalidateList);
                }
                mc.invalidate_list(c.class);
                rc.invalidate_list(c.class);
            }
            McOp::Flush => {
                if mc.occupancy() > 0 {
                    cov.add(CoverageEvent::Flush);
                }
                mc.flush();
                rc.flush();
            }
            McOp::BlockDelay { class_slot } => {
                let c = p.classes[class_slot];
                let (a, b) = (mc.block_delay(c.class, now), rc.block_delay(c.class, now));
                if a > 0 {
                    cov.add(CoverageEvent::BlockDelayPositive);
                }
                if a != b {
                    mismatch = Some(format!("block_delay: model {a} vs ref {b}"));
                }
            }
        }
        let mismatch = mismatch.or_else(|| state_divergence(p, &mc, &rc, now));
        if let Some(detail) = mismatch {
            divergence = Some(Divergence {
                seed,
                step: Some(step as u64),
                check: format!("{op:?}"),
                detail,
            });
            break;
        }
    }
    ProgramOutcome {
        coverage: cov,
        ops: p.ops.len() as u64,
        divergence,
    }
}

/// Aggregate report over a fuzz corpus (or one slot of it).
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Base (non-guided) programs run.
    pub base_programs: u64,
    /// Coverage-guided mutant programs appended by slots.
    pub guided_programs: u64,
    /// Total instructions replayed.
    pub ops: u64,
    /// Union of all programs' coverage.
    pub coverage: Coverage,
    /// Divergences found (each slot reports at most one per program).
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Total programs run.
    pub fn programs(&self) -> u64 {
        self.base_programs + self.guided_programs
    }
}

impl SlotReport for FuzzReport {
    fn merge(&mut self, other: FuzzReport) {
        self.base_programs += other.base_programs;
        self.guided_programs += other.guided_programs;
        self.ops += other.ops;
        self.coverage.merge(other.coverage);
        self.divergences.extend(other.divergences);
    }
}

/// Maximum targeted mutants appended per slot.
const GUIDED_BUDGET: usize = 3;

pub(crate) fn mix(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Runs slot `index` of a corpus: one base program plus coverage-guided
/// mutants targeting whatever the base program failed to exercise. Fully
/// determined by `(seed, index)` — never by which worker runs it.
pub fn fuzz_slot(seed: u64, index: u64) -> FuzzReport {
    let base_seed = mix(seed, index);
    let mut report = FuzzReport::default();
    let run = |report: &mut FuzzReport, program: &McProgram, s: u64, guided: bool| {
        let out = diff_program(s, program);
        if guided {
            report.guided_programs += 1;
        } else {
            report.base_programs += 1;
        }
        report.ops += out.ops;
        report.coverage.merge(out.coverage);
        report.divergences.extend(out.divergence);
    };
    let base = McProgram::generate(base_seed);
    run(&mut report, &base, base_seed, false);

    // Feedback: pick targeted profiles for events the base program missed.
    let mut used = 0usize;
    for (i, profile) in [
        (
            report.coverage.contains(CoverageEvent::Eviction),
            GenProfile::churn(),
        ),
        (
            report.coverage.contains(CoverageEvent::PrefetchFillNext)
                && report.coverage.contains(CoverageEvent::BlockedAccess),
            GenProfile::prefetch_heavy(),
        ),
        (
            report.coverage.contains(CoverageEvent::Flush)
                && report.coverage.contains(CoverageEvent::InvalidateList),
            GenProfile::maintenance(),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let (already_covered, profile) = profile;
        if already_covered || used == GUIDED_BUDGET {
            continue;
        }
        used += 1;
        let s = mix(base_seed, 1 + i as u64);
        let p = McProgram::generate_with(s, profile);
        run(&mut report, &p, s, true);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_corpus;

    #[test]
    fn generation_is_deterministic() {
        let a = McProgram::generate(42);
        let b = McProgram::generate(42);
        assert_eq!(a.config, b.config);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.ops, b.ops);
        let c = McProgram::generate(43);
        assert!(a.ops != c.ops || a.classes != c.classes);
    }

    #[test]
    fn universe_classes_are_distinct_and_consistent() {
        let table = SizeClasses::tcmalloc_2007();
        for seed in 0..50u64 {
            let p = McProgram::generate(seed);
            for (i, c) in p.classes.iter().enumerate() {
                // Distinct classes.
                assert!(p.classes[..i].iter().all(|d| d.class != c.class));
                // Table-consistent: lo and hi both round to this class.
                for s in [c.lo, c.hi] {
                    let cls = table.size_class(s).expect("in-table size");
                    assert_eq!(cls.as_u8() as u16, c.class, "size {s} rounds elsewhere");
                    assert_eq!(table.class_to_size(cls), c.alloc);
                }
            }
        }
    }

    #[test]
    fn small_corpus_converges_and_agrees() {
        let report = run_corpus(300, 1, |i| fuzz_slot(0xA110C, i));
        assert!(
            report.divergences.is_empty(),
            "model diverged from reference spec: {:?}",
            report.divergences[0]
        );
        assert!(
            report.coverage.complete(),
            "300 slots must exercise every event; missing: {:?}",
            report.coverage.missing()
        );
        assert!(report.programs() >= 300);
    }

    #[test]
    fn slots_are_independent_of_visitation_order() {
        let forward: Vec<_> = (0..20).map(|i| fuzz_slot(7, i)).collect();
        let mut backward: Vec<_> = (0..20).rev().map(|i| fuzz_slot(7, i)).collect();
        backward.reverse();
        for (f, b) in forward.iter().zip(&backward) {
            assert_eq!(f.coverage, b.coverage);
            assert_eq!(f.ops, b.ops);
            assert_eq!(f.programs(), b.programs());
        }
    }

    #[test]
    fn divergence_reporting_would_fire() {
        // Sanity-check the comparator itself: a program replayed against a
        // reference with a different configuration must diverge. (Entries
        // count changes eviction behaviour.)
        let p = McProgram::generate_with(1, GenProfile::churn());
        let mut smaller = p.clone();
        smaller.config.entries = 1;
        let mut mc = MallocCache::new(p.config);
        let mut rc = RefMallocCache::new(smaller.config);
        let mut diverged = false;
        for &(now, op) in &p.ops {
            if let McOp::Update { class_slot, hi_key } = op {
                let c = p.classes[class_slot];
                let req = if hi_key { c.hi } else { c.lo };
                mc.update(req, c.alloc, c.class);
                rc.update(req, c.alloc, c.class);
            } else if let McOp::Lookup { requested } = op {
                if mc.lookup(requested, now) != rc.lookup(requested, now) {
                    diverged = true;
                    break;
                }
            }
            if mc.occupancy() != rc.occupancy() {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "a 8-vs-1-entry pair must be distinguishable");
    }
}
