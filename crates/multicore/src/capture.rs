//! Phase A: the serial functional pass.
//!
//! The globally interleaved [`MtTrace`](mallacc_workloads::MtTrace) is
//! executed, in trace order, on one shared [`TcMalloc`] with a thread cache
//! per core. Every allocator call is captured as a per-core [`CoreEvent`]
//! holding everything the timing layer needs to replay it later without
//! touching the allocator again:
//!
//! * the functional [`MallocOutcome`]/[`FreeOutcome`];
//! * the serving list's post-call `(head, next)` ([`PostList`]) — the
//!   values software republishes and the malloc-cache sync/prefetch paths
//!   consume;
//! * a deterministic *contention stall* priced from the trace-order
//!   neighbourhood (see [`ContentionModel`]).
//!
//! Separating function from timing this way is exact for everything except
//! lock/coherence wait times, which real multi-threaded allocators resolve
//! non-deterministically anyway — the contention model replaces them with a
//! reproducible estimate, which is what keeps the whole simulation
//! bit-stable across host thread schedules.

use std::collections::{HashMap, VecDeque};

use mallacc::PostList;
use mallacc_cache::Addr;
use mallacc_tcmalloc::{
    AllocStats, ClassId, FreeOutcome, FreePath, MallocOutcome, MallocPath, TcMalloc, TcMallocConfig,
};
use mallacc_workloads::MtOp;

/// One event of a core's private replay stream.
#[derive(Debug, Clone)]
pub enum CoreEvent {
    /// Replay the timing of a captured malloc.
    Malloc {
        /// The functional result of the call.
        outcome: MallocOutcome,
        /// Serving list state right after the call.
        post: PostList,
        /// Up-front stall from contention on shared allocator structures.
        contention: u64,
    },
    /// Replay the timing of a captured free.
    Free {
        /// The functional result of the call.
        outcome: FreeOutcome,
        /// Serving list state right after the call.
        post: PostList,
        /// Up-front stall (lock contention and/or the remote-free line pull).
        contention: u64,
    },
    /// Application compute: skip cycles.
    AppRun {
        /// Cycles of non-allocator work.
        cycles: u64,
    },
    /// Application loads over the core's private working set.
    AppTouch {
        /// Lines to load.
        lines: u16,
        /// Working-set size in lines.
        working_set_lines: u32,
    },
    /// A neighbour-cache steal popped blocks off this core's free list for
    /// `cls` from another core. The victim's malloc-cache copy of the list
    /// head is stale and must be dropped before the next accelerated pop.
    McInvalidate {
        /// The class whose cached list must be dropped.
        cls: ClassId,
    },
}

/// Which shared allocator structure an operation serialises on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SharedRes {
    /// The central free list's lock (refill from spans, or a spilled
    /// release).
    Central,
    /// A transfer-cache slot (lock-free CAS in real TCMalloc — much
    /// cheaper, but still a shared cache line).
    Transfer,
}

/// Cycles a central-lock operation stalls per recent contender (§3.1's
/// "central free lists, one per size class, protected by locks").
const CENTRAL_LOCK_CYCLES: u64 = 40;
/// Cycles a transfer-cache operation stalls per recent contender (a CAS on
/// a shared line, not a lock hand-off).
const TRANSFER_SLOT_CYCLES: u64 = 12;
/// Flat cost of a remote free: the freed block's cache line (its embedded
/// `next` pointer is written) must be pulled from the allocating core.
const REMOTE_FREE_CYCLES: u64 = 30;
/// Sliding window of recent shared-structure operations that count as
/// concurrent. Trace order stands in for time: two operations within the
/// window are "simultaneous enough" to collide.
const WINDOW: usize = 64;
/// Stall ceiling — even a pathological window cannot stall a call forever.
const MAX_STALL: u64 = 400;

/// Deterministic contention pricing over the global trace order.
///
/// Real lock wait times depend on the host scheduler; this model replaces
/// them with a reproducible estimate: an operation on a shared structure
/// stalls in proportion to how many *other cores* touched the same
/// structure within the last [`WINDOW`] shared-structure operations.
#[derive(Debug, Default)]
struct ContentionModel {
    window: VecDeque<(usize, SharedRes)>,
}

impl ContentionModel {
    fn charge(&mut self, core: usize, res: Option<SharedRes>, remote: bool) -> u64 {
        let mut stall = if remote { REMOTE_FREE_CYCLES } else { 0 };
        if let Some(r) = res {
            let contenders = self
                .window
                .iter()
                .filter(|&&(c, w)| c != core && w == r)
                .count() as u64;
            stall += contenders
                * match r {
                    SharedRes::Central => CENTRAL_LOCK_CYCLES,
                    SharedRes::Transfer => TRANSFER_SLOT_CYCLES,
                };
            self.window.push_back((core, r));
            if self.window.len() > WINDOW {
                self.window.pop_front();
            }
        }
        stall.min(MAX_STALL)
    }
}

/// Everything phase A hands to phase B.
#[derive(Debug)]
pub struct Capture {
    /// Per-core event streams, in each core's program order.
    pub streams: Vec<Vec<CoreEvent>>,
    /// The shared allocator's statistics over the whole trace.
    pub alloc_stats: AllocStats,
    /// Steal-induced malloc-cache invalidations inserted into victim
    /// streams.
    pub steal_invalidates: u64,
}

fn post_list(alloc: &TcMalloc, core: usize, cls: Option<ClassId>) -> PostList {
    match cls {
        Some(c) => PostList {
            head: alloc.list_head_on(core, c),
            next: alloc.list_next_after_head_on(core, c),
        },
        None => PostList::default(),
    }
}

/// Runs `(core, op)` pairs from any iterator on a shared `cores`-thread
/// allocator and captures the per-core replay streams. The iterator may be
/// a generator, so the full op sequence never has to exist in memory: the
/// fleet scenario engine feeds million-request service streams through
/// this entry point.
///
/// # Panics
///
/// Panics if an op names a core `>= cores`, frees a token it never
/// allocated, or allocates a token twice (malformed stream).
pub fn capture_stream(
    cores: usize,
    ops: impl IntoIterator<Item = (usize, MtOp)>,
    config: TcMallocConfig,
) -> Capture {
    assert!(cores > 0, "need at least one core");
    let mut alloc = TcMalloc::with_threads(config, cores);
    let mut streams: Vec<Vec<CoreEvent>> = vec![Vec::new(); cores];
    let mut blocks: HashMap<u64, Addr> = HashMap::new();
    let mut contention = ContentionModel::default();
    let mut steal_invalidates = 0u64;

    for (core, op) in ops {
        assert!(core < cores, "op names core {core} >= {cores}");
        match op {
            MtOp::Malloc { size, token } => {
                let outcome = alloc.malloc_on(core, size);
                let post = post_list(&alloc, core, outcome.cls);
                let prev = blocks.insert(token, outcome.ptr);
                assert!(prev.is_none(), "token {token:#x} allocated twice");
                let res = match &outcome.path {
                    MallocPath::CentralRefill {
                        via_transfer: true, ..
                    } => Some(SharedRes::Transfer),
                    MallocPath::CentralRefill { .. } => Some(SharedRes::Central),
                    _ => None,
                };
                if let MallocPath::CentralRefill {
                    stole_from: Some(victim),
                    ..
                } = outcome.path
                {
                    // The steal happened *now* in global order: the
                    // invalidate lands between the victim's past and future
                    // events, which is exactly where per-core replay needs
                    // it for the malloc cache to stay consistent.
                    let cls = outcome.cls.expect("refills are small-path");
                    streams[victim].push(CoreEvent::McInvalidate { cls });
                    steal_invalidates += 1;
                }
                let stall = contention.charge(core, res, false);
                streams[core].push(CoreEvent::Malloc {
                    outcome,
                    post,
                    contention: stall,
                });
            }
            MtOp::Free { token, sized } => {
                let ptr = blocks
                    .remove(&token)
                    .unwrap_or_else(|| panic!("free of unknown token {token:#x}"));
                let outcome = alloc.free_on(core, ptr, sized);
                let post = post_list(&alloc, core, outcome.cls);
                let res = match &outcome.path {
                    FreePath::ThreadCachePush {
                        released: Some(_),
                        released_to_transfer,
                        ..
                    } => Some(if *released_to_transfer {
                        SharedRes::Transfer
                    } else {
                        SharedRes::Central
                    }),
                    _ => None,
                };
                let stall = contention.charge(core, res, outcome.remote);
                streams[core].push(CoreEvent::Free {
                    outcome,
                    post,
                    contention: stall,
                });
            }
            MtOp::AppRun { cycles } => streams[core].push(CoreEvent::AppRun {
                cycles: u64::from(cycles),
            }),
            MtOp::AppTouch {
                lines,
                working_set_lines,
            } => streams[core].push(CoreEvent::AppTouch {
                lines,
                working_set_lines,
            }),
        }
    }

    Capture {
        streams,
        alloc_stats: alloc.stats(),
        steal_invalidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc_workloads::MtTrace;

    fn capture_trace(t: &MtTrace) -> Capture {
        capture_stream(
            t.cores(),
            t.ops().iter().copied(),
            TcMallocConfig::default(),
        )
    }

    #[test]
    fn capture_is_deterministic() {
        let t = MtTrace::producer_consumer(3, 120, 5);
        let a = capture_trace(&t);
        let b = capture_trace(&t);
        assert_eq!(a.alloc_stats, b.alloc_stats);
        assert_eq!(a.streams.len(), b.streams.len());
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn remote_frees_are_captured_and_priced() {
        let t = MtTrace::producer_consumer(2, 200, 1);
        let c = capture_trace(&t);
        assert!(c.alloc_stats.remote_frees > 0, "ring must free remotely");
        let some_free_stalled = c.streams.iter().flatten().any(|e| {
            matches!(e, CoreEvent::Free { contention, outcome, .. }
                if outcome.remote && *contention >= REMOTE_FREE_CYCLES)
        });
        assert!(
            some_free_stalled,
            "remote frees must carry a line-pull cost"
        );
    }

    #[test]
    fn contention_model_charges_cross_core_only() {
        let mut m = ContentionModel::default();
        assert_eq!(m.charge(0, Some(SharedRes::Central), false), 0);
        // Same core again: its own history does not contend with itself.
        assert_eq!(m.charge(0, Some(SharedRes::Central), false), 0);
        // Another core: one contender in the window.
        assert_eq!(
            m.charge(1, Some(SharedRes::Central), false),
            2 * CENTRAL_LOCK_CYCLES
        );
        // Different resource: no collision.
        assert_eq!(m.charge(2, Some(SharedRes::Transfer), false), 0);
        // Fast-path op: free of charge, window untouched.
        assert_eq!(m.charge(3, None, false), 0);
        assert_eq!(m.charge(3, None, true), REMOTE_FREE_CYCLES);
    }

    #[test]
    fn steal_emits_invalidate_into_victim_stream() {
        use mallacc_workloads::MtOp::*;
        // Core 1 hoards a long 64-byte free list; core 0 then allocates
        // enough to drain the central list and force a steal from core 1.
        let mut ops = Vec::new();
        for n in 0..256u64 {
            ops.push((1usize, Malloc { size: 64, token: n }));
        }
        for n in 0..256u64 {
            ops.push((
                1usize,
                Free {
                    token: n,
                    sized: true,
                },
            ));
        }
        for n in 0..768u64 {
            ops.push((
                0usize,
                Malloc {
                    size: 64,
                    token: (1 << 32) | n,
                },
            ));
        }
        for n in 0..768u64 {
            ops.push((
                0usize,
                Free {
                    token: (1 << 32) | n,
                    sized: true,
                },
            ));
        }
        let t = MtTrace::from_ops(2, ops);
        let c = capture_trace(&t);
        assert!(c.alloc_stats.steals > 0, "trace must force a steal");
        assert_eq!(c.steal_invalidates, c.alloc_stats.steals);
        let victims = c.streams[1]
            .iter()
            .filter(|e| matches!(e, CoreEvent::McInvalidate { .. }))
            .count() as u64;
        assert_eq!(victims, c.steal_invalidates);
    }

    #[test]
    fn post_lists_match_refill_batches() {
        // After a CentralRefill, the captured post-list head must be the
        // outcome's `next` (the head after popping the returned object).
        let t = MtTrace::producer_consumer(2, 100, 3);
        let c = capture_trace(&t);
        for e in c.streams.iter().flatten() {
            if let CoreEvent::Malloc { outcome, post, .. } = e {
                if let MallocPath::CentralRefill { next, .. } = &outcome.path {
                    assert_eq!(post.head, *next, "post head diverged from refill");
                }
            }
        }
    }
}
