//! A shared last-level cache coordinator for multi-core simulation.
//!
//! The multi-core layer gives every simulated core a private [`Hierarchy`]
//! (L1 + L2 + an L3 *replica*) so cores can be timed on separate host
//! threads without locking. Sharing of the L3 is modelled with an epoch
//! protocol built from the primitives here:
//!
//! 1. At the start of an epoch, each core's replica is brought up to date
//!    with the master in place by
//!    [`Hierarchy::refresh_l3`](crate::Hierarchy::refresh_l3), which copies
//!    only the sets [`SharedL3::commit`] touched since the last refresh,
//!    plus the master's LRU clock. Every other set already equals the
//!    master: a replica changes only at its own logged accesses, and the
//!    master only at the union of all cores' logs. Once every core has
//!    been refreshed, [`SharedL3::clear_touched_sets`] starts the next
//!    record. The result is exactly what installing a whole
//!    [`SharedL3::snapshot`] via
//!    [`Hierarchy::install_l3`](crate::Hierarchy::install_l3) gives.
//! 2. During the epoch each core runs privately, recording every access
//!    that misses its L1 and L2 (and therefore reaches the L3 level) via
//!    [`Hierarchy::set_l3_logging`](crate::Hierarchy::set_l3_logging).
//! 3. At the epoch barrier, the per-core logs are drained with
//!    [`Hierarchy::take_l3_log`](crate::Hierarchy::take_l3_log) and merged
//!    into the master with [`SharedL3::commit`] in **fixed core order**,
//!    making the merged contents independent of host scheduling.
//!
//! Cross-core interference (a core's fills evicting another core's lines)
//! therefore becomes visible with one epoch of delay — the standard
//! trade-off of deterministic parallel cache simulation.

use crate::cache::{CacheConfig, CacheStats, SetAssocCache};
use crate::Addr;

/// One access that reached the L3 level (i.e. missed L1 and L2) inside a
/// private hierarchy, recorded for later replay into the shared master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Access {
    /// The accessed byte address.
    pub addr: Addr,
    /// Whether the access was a store (write-allocate on fill).
    pub write: bool,
}

/// The master copy of a shared L3 plus merge bookkeeping.
#[derive(Debug, Clone)]
pub struct SharedL3 {
    master: SetAssocCache,
    /// The set of every access [`SharedL3::commit`] has merged since the
    /// record was last cleared (a set may repeat).
    touched: Vec<usize>,
    committed_accesses: u64,
    commits: u64,
}

impl SharedL3 {
    /// Builds an empty shared L3 with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; see
    /// [`CacheConfig::num_sets`].
    pub fn new(config: CacheConfig) -> Self {
        Self {
            master: SetAssocCache::new(config),
            touched: Vec::new(),
            committed_accesses: 0,
            commits: 0,
        }
    }

    /// The geometry of the master cache.
    pub fn config(&self) -> &CacheConfig {
        self.master.config()
    }

    /// A copy of the master contents for one core's private replica, with
    /// statistics zeroed so the replica accumulates only its own epoch's
    /// hits and misses.
    pub fn snapshot(&self) -> SetAssocCache {
        let mut copy = self.master.clone();
        copy.reset_stats();
        copy
    }

    /// Replays one core's epoch log into the master: hits refresh LRU
    /// state, misses fill (displacing LRU lines). Call once per core per
    /// epoch, always in the same core order, so the merged contents are
    /// deterministic. The set of every merged access is recorded for
    /// [`Hierarchy::refresh_l3`](crate::Hierarchy::refresh_l3).
    pub fn commit(&mut self, log: &[L3Access]) {
        for a in log {
            self.touched.push(self.master.set_of(a.addr));
            if !self.master.access(a.addr, a.write) {
                self.master.fill(a.addr, a.write);
            }
        }
        self.committed_accesses += log.len() as u64;
        self.commits += 1;
    }

    /// Direct read access to the master cache (tests, warmup).
    pub fn master(&self) -> &SetAssocCache {
        &self.master
    }

    /// The sets [`SharedL3::commit`] has changed since the record was last
    /// cleared, with repeats.
    pub(crate) fn touched_sets(&self) -> &[usize] {
        &self.touched
    }

    /// Empties the touched-set record. Call it only once every replica has
    /// been refreshed with
    /// [`Hierarchy::refresh_l3`](crate::Hierarchy::refresh_l3) since the
    /// last commit: a replica refreshed later would miss the cleared sets.
    pub fn clear_touched_sets(&mut self) {
        self.touched.clear();
    }

    /// Master-side statistics accumulated by [`SharedL3::commit`] replays.
    pub fn stats(&self) -> CacheStats {
        self.master.stats()
    }

    /// Total L3-level accesses merged so far.
    pub fn committed_accesses(&self) -> u64 {
        self.committed_accesses
    }

    /// Number of [`SharedL3::commit`] calls so far (cores × epochs).
    pub fn commits(&self) -> u64 {
        self.commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{AccessKind, Hierarchy, HierarchyConfig};

    fn tiny_l3() -> CacheConfig {
        CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            associativity: 4,
            hit_latency: 34,
        }
    }

    #[test]
    fn snapshot_reflects_master_contents_with_clean_stats() {
        let mut shared = SharedL3::new(tiny_l3());
        shared.commit(&[L3Access {
            addr: 0x1000,
            write: false,
        }]);
        let snap = shared.snapshot();
        assert!(snap.probe(0x1000));
        assert_eq!(shared.stats().misses, 1);
        assert_eq!(snap.stats().hits + snap.stats().misses, 0);
    }

    #[test]
    fn commit_records_touched_sets_until_cleared() {
        // 16 sets of 64-byte lines: 0x0 and 0x400 share set 0, 0x40 is set 1.
        let mut shared = SharedL3::new(tiny_l3());
        let log: Vec<L3Access> = [0x0, 0x40, 0x400, 0x0]
            .into_iter()
            .map(|addr| L3Access { addr, write: false })
            .collect();
        shared.commit(&log);
        assert_eq!(shared.touched_sets(), &[0, 1, 0, 0]);
        shared.clear_touched_sets();
        assert!(shared.touched_sets().is_empty());
        shared.commit(&log[1..2]);
        assert_eq!(shared.touched_sets(), &[1]);
    }

    #[test]
    fn commit_makes_lines_visible_to_next_snapshot() {
        let mut shared = SharedL3::new(tiny_l3());
        shared.commit(&[L3Access {
            addr: 0x2000,
            write: false,
        }]);
        assert!(shared.snapshot().probe(0x2000));
        assert_eq!(shared.committed_accesses(), 1);
        assert_eq!(shared.commits(), 1);
    }

    #[test]
    fn fixed_commit_order_is_deterministic() {
        let log_a: Vec<L3Access> = (0..64)
            .map(|i| L3Access {
                addr: 0x10_0000 + i * 64,
                write: i % 3 == 0,
            })
            .collect();
        let log_b: Vec<L3Access> = (0..64)
            .map(|i| L3Access {
                addr: 0x20_0000 + i * 64,
                write: i % 5 == 0,
            })
            .collect();
        let run = || {
            let mut s = SharedL3::new(tiny_l3());
            s.commit(&log_a);
            s.commit(&log_b);
            let snap = s.snapshot();
            (0..0x40u64)
                .map(|i| {
                    snap.probe(0x10_0000 + i * 64) as u8 + snap.probe(0x20_0000 + i * 64) as u8
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hierarchy_logs_only_l1_l2_misses() {
        let mut h = Hierarchy::new(HierarchyConfig::haswell());
        h.set_l3_logging(true);
        // Cold access reaches memory through L3: logged.
        h.access(0x3000, AccessKind::Read);
        // Warm re-access hits L1: not logged.
        h.access(0x3000, AccessKind::Read);
        let log = h.take_l3_log();
        assert_eq!(
            log,
            vec![L3Access {
                addr: 0x3000,
                write: false,
            }]
        );
        // Draining empties the log.
        assert!(h.take_l3_log().is_empty());
    }

    #[test]
    fn install_l3_refreshes_replica_from_master() {
        let mut shared = SharedL3::new(HierarchyConfig::haswell().l3);
        shared.commit(&[L3Access {
            addr: 0x9000,
            write: false,
        }]);
        let mut h = Hierarchy::new(HierarchyConfig::haswell());
        assert_eq!(h.peek_latency(0x9000), 200, "cold: would go to DRAM");
        h.install_l3(shared.snapshot());
        // Now the line another "core" brought in hits in (replica) L3.
        let r = h.access(0x9000, AccessKind::Read);
        assert_eq!(r.latency, 34 + 30, "L3 hit plus cold page walk");
    }

    #[test]
    fn epoch_round_trip_two_cores() {
        // Core 0 misses a line in epoch 1; after the barrier commit, core 1
        // sees it as an L3 hit in epoch 2.
        let mut shared = SharedL3::new(HierarchyConfig::haswell().l3);
        let mut core0 = Hierarchy::new(HierarchyConfig::haswell());
        let mut core1 = Hierarchy::new(HierarchyConfig::haswell());
        for c in [&mut core0, &mut core1] {
            c.set_l3_logging(true);
        }
        core0.access(0xA000, AccessKind::Read);
        // Barrier: commit in fixed core order, then refresh every replica.
        shared.commit(&core0.take_l3_log());
        shared.commit(&core1.take_l3_log());
        core0.refresh_l3(&shared);
        core1.refresh_l3(&shared);
        shared.clear_touched_sets();
        // TLB is private and cold in core 1; the data itself is an L3 hit.
        let r = core1.access(0xA000, AccessKind::Read);
        assert_eq!(r.latency, 34 + 30);
    }
}
