//! The host-speed probe that throughput is measured against.
//!
//! On a shared host the speed the simulator gets swings by a third over
//! minutes, with next to no steal time to show for it: other tenants
//! contend for the last-level cache, memory bandwidth and sibling
//! hyperthreads. A minimum or median over a run's rounds absorbs short
//! bursts, not load that lasts the whole run. So every timed round is
//! bracketed by this probe, on the same CPU, and throughput is computed
//! from round time in units of probe time (see `README.md`).
//!
//! The probe does what the simulator's hot loop does: a set-associative
//! tag scan at pseudo-random addresses over a table larger than a core's
//! private caches, so it slows down under the same contention. An untimed
//! sweep first brings its whole table in, so its time does not depend on
//! what the round before it left in the host caches. It uses no crate of
//! the repository, so a change to the simulator cannot change it.

use std::time::Instant;

/// Sets of the probe table.
const SETS: usize = 1 << 16;

/// Ways per set: the table is `SETS × WAYS` 8-byte tags, 4 MiB.
const WAYS: usize = 8;

/// Lookups per probe: 4.8–9.7 ms on the calibration host.
const LOOKUPS: usize = 200_000;

/// Host seconds of a probe on a reference host: the calibration host ran it
/// in 4.8–9.7 ms (see `README.md`). Throughput is reported in seconds of a
/// host on which the probe takes this long; it is a fixed scale and must
/// never change, or results before and after the change stop being
/// comparable.
pub const REFERENCE_S: f64 = 0.006;

/// The probe's table, allocated once per run.
#[derive(Debug)]
pub struct Probe {
    tags: Vec<u64>,
}

impl Probe {
    /// A probe with an empty table.
    pub fn new() -> Probe {
        Probe {
            tags: vec![0; SETS * WAYS],
        }
    }

    /// Host seconds one probe takes now. The same lookups every time.
    pub fn time(&mut self) -> f64 {
        let sweep = self.tags.iter().fold(0u64, |a, &t| a.wrapping_add(t));
        std::hint::black_box(sweep);
        let start = Instant::now();
        let mut x = 7u64;
        let mut hits = 0u64;
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let set = (x >> 6) as usize & (SETS - 1);
            let tag = x >> 22;
            let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            match ways.iter_mut().find(|w| **w == tag) {
                Some(way) => {
                    hits += 1;
                    *way = tag;
                }
                None => ways[x as usize % WAYS] = tag,
            }
        }
        std::hint::black_box(hits);
        start.elapsed().as_secs_f64()
    }
}
