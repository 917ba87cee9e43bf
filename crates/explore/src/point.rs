//! A single design point: its configuration axes, its content-hash
//! memoisation key, and its execution on the right simulator stack.

use mallacc::{
    offload_area_um2, AccelConfig, AreaEstimate, Mode, OffloadConfig, RangeKeying, SimMode,
    CODE_MODEL_VERSION,
};
use mallacc_multicore::MulticoreSim;
use mallacc_stats::Json;
use mallacc_substrate::{AnySim, ShardedMt};
use mallacc_workloads::{AnyWorkload, MtOp, MtTrace, Trace};

/// Which allocator model the point runs on.
///
/// This is [`mallacc_substrate::SubstrateKind`] re-exported under the
/// sweep engine's historical name: `tcmalloc` (the paper's allocator),
/// `jemalloc`, `rpmalloc`, and the per-CPU TCMalloc variant `percpu`.
/// Non-TCMalloc substrates always run the malloc cache with generic
/// requested-size keying.
pub use mallacc_substrate::SubstrateKind as Substrate;

/// Which acceleration hardware the point compares against baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelKind {
    /// No accelerator — a zero-improvement, zero-area control point.
    None,
    /// The Mallacc in-core malloc cache.
    Mallacc,
    /// The SpeedMalloc-style allocation-offload helper core.
    Offload,
    /// The offload helper equipped with its own malloc cache.
    Both,
}

impl AccelKind {
    /// Every kind, in canonical sweep order.
    pub const ALL: [AccelKind; 4] = [
        AccelKind::None,
        AccelKind::Mallacc,
        AccelKind::Offload,
        AccelKind::Both,
    ];

    /// The kind's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            AccelKind::None => "none",
            AccelKind::Mallacc => "mallacc",
            AccelKind::Offload => "offload",
            AccelKind::Both => "both",
        }
    }

    /// Parses a CLI name.
    pub fn by_name(name: &str) -> Option<AccelKind> {
        AccelKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True when the kind's timing goes through the offload queue, making
    /// the `qdepth` axis meaningful.
    pub fn uses_queue(self) -> bool {
        matches!(self, AccelKind::Offload | AccelKind::Both)
    }
}

/// Run sizing for one point: measured malloc calls and warm-up calls.
///
/// Part of the memoisation key — results at different scales are
/// different results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// malloc calls per measured run.
    pub calls: usize,
    /// malloc calls of warm-up before measurement.
    pub warmup: usize,
}

impl RunScale {
    /// The full-size sweep (matches `repro`'s full scale).
    pub fn full() -> Self {
        Self {
            calls: 12_000,
            warmup: 2_000,
        }
    }

    /// Small runs for smoke tests and CI.
    pub fn quick() -> Self {
        Self {
            calls: 1_500,
            warmup: 300,
        }
    }
}

/// One fully specified configuration point of the design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigPoint {
    /// Malloc-cache entries (the paper sweeps 2–32; we allow 2–64).
    pub entries: usize,
    /// Extra malloc-cache lookup latency in cycles (0 = paper design).
    pub extra_latency: u32,
    /// `mcnxtprefetch` issued after pops.
    pub prefetch: bool,
    /// Class-index CAM keying (`false` = generic requested-size keying).
    pub index_opt: bool,
    /// Dedicated sampling counter.
    pub sampling: bool,
    /// Which accelerator this point pits against baseline.
    pub accel: AccelKind,
    /// Offload request-queue depth (meaningful for the queue-using
    /// kinds; grids normalise it to the default elsewhere).
    pub queue_depth: usize,
    /// Allocator substrate.
    pub substrate: Substrate,
    /// Workload name (micro or macro; see `AnyWorkload`).
    pub workload: String,
    /// Simulated core count (1 = the paper's single-core setup).
    pub cores: usize,
    /// Base trace seed.
    pub seed: u64,
    /// Run sizing.
    pub scale: RunScale,
    /// Timing execution mode: full detailed, or sampled under a plan.
    /// Part of the key — sampled results are estimates, never silently
    /// interchangeable with full-run numbers.
    pub sim: SimMode,
}

impl ConfigPoint {
    /// The accelerator configuration this point describes.
    pub fn accel_config(&self) -> AccelConfig {
        let mut cfg = AccelConfig::with_entries(self.entries);
        cfg.cache.keying = if self.index_opt {
            RangeKeying::ClassIndex
        } else {
            RangeKeying::RequestedSize
        };
        cfg.cache.extra_latency = self.extra_latency;
        cfg.prefetch = self.prefetch;
        cfg.sampling_opt = self.sampling;
        cfg
    }

    /// The offload configuration this point describes. The `Both` kind
    /// equips the helper with a malloc cache; every queue-using kind
    /// takes its queue depth from the point.
    pub fn offload_config(&self) -> OffloadConfig {
        let mut cfg = if self.accel == AccelKind::Both {
            OffloadConfig::both_default()
        } else {
            OffloadConfig::speedmalloc_default()
        };
        cfg.queue_depth = self.queue_depth;
        cfg
    }

    /// The accelerated machine [`Mode`] this point compares to baseline.
    pub fn accel_mode(&self) -> Mode {
        match self.accel {
            AccelKind::None => Mode::Baseline,
            AccelKind::Mallacc => Mode::Mallacc(self.accel_config()),
            AccelKind::Offload | AccelKind::Both => Mode::Offload(self.offload_config()),
        }
    }

    /// Canonical textual form of the whole point — the accelerator
    /// config's canonical string plus every run axis and the code-model
    /// version. Two points collide iff they describe the same run of the
    /// same simulation code.
    pub fn canonical_string(&self) -> String {
        format!(
            "v{};accel={};qdepth={};{};substrate={};workload={};cores={};seed={};calls={};warmup={};sim={}",
            CODE_MODEL_VERSION,
            self.accel.name(),
            self.queue_depth,
            self.accel_config().canonical_string(),
            self.substrate.name(),
            self.workload,
            self.cores,
            self.seed,
            self.scale.calls,
            self.scale.warmup,
            self.sim.canonical_string()
        )
    }

    /// 64-bit FNV-1a content hash of [`canonical_string`](Self::canonical_string).
    pub fn key(&self) -> u64 {
        fnv1a64(self.canonical_string().as_bytes())
    }

    /// The key as fixed-width hex — the memo store's map key.
    pub fn key_hex(&self) -> String {
        format!("{:016x}", self.key())
    }

    /// Total silicon cost of this point: the per-core accelerator
    /// hardware (malloc cache, helper core + queue, or both — nothing
    /// for the `none` control) times the core count.
    pub fn area_um2(&self) -> f64 {
        let per_core = match self.accel {
            AccelKind::None => 0.0,
            AccelKind::Mallacc => AreaEstimate::for_entries(self.entries).total_um2(),
            AccelKind::Offload => offload_area_um2(self.queue_depth),
            AccelKind::Both => {
                offload_area_um2(self.queue_depth)
                    + AreaEstimate::for_entries(self.entries).total_um2()
            }
        };
        per_core * self.cores as f64
    }

    /// Requests a `fleet:` point streams, derived from the scale so quick
    /// and full sweeps stay proportionate (a request is ~8 allocator
    /// calls through the fan-out graph).
    fn fleet_requests(&self) -> u64 {
        (self.scale.calls as u64 / 8).max(8)
    }

    /// Runs the point: baseline vs. accelerated allocator cycles on the
    /// substrate/core-count the point names.
    ///
    /// # Panics
    ///
    /// Panics if the workload name does not resolve, or if the point
    /// names a combination [`crate::ParamGrid::expand`] filters out
    /// (multi-core microbenchmarks — they have no multi-threaded trace
    /// generator). The engine validates grids before running.
    ///
    /// Single-core points run through [`run_single_core`]; multi-core
    /// points, fleet scenarios included, through [`run_mt_stream`].
    pub fn run(&self) -> PointResult {
        let accel = self.accel_mode();
        if let Some(name) = self.workload.strip_prefix("fleet:") {
            let scenario = mallacc_fleet::Scenario::by_name(name)
                .unwrap_or_else(|| panic!("unknown fleet scenario {name}"));
            let requests = self.fleet_requests();
            let run = |mode: Mode| {
                let stream = scenario.stream(self.cores, requests, self.seed);
                run_mt_stream(self.substrate, mode, self.cores, self.sim, stream).0 as f64
            };
            let (base_cycles, accel_cycles) = (run(Mode::Baseline), run(accel));
            return self.result_from(base_cycles, accel_cycles);
        }
        let workload = AnyWorkload::by_name(&self.workload)
            .unwrap_or_else(|| panic!("unknown workload {}", self.workload));
        let (base_cycles, accel_cycles) = if self.cores > 1 {
            let AnyWorkload::Macro(w) = &workload else {
                panic!("multi-core sweeps need a macro workload");
            };
            let calls_per_core = (self.scale.calls / self.cores).max(40);
            let trace = MtTrace::scaled(w, self.cores, calls_per_core, self.seed);
            let run = |mode: Mode| {
                let stream = trace.ops().iter().copied();
                run_mt_stream(self.substrate, mode, self.cores, self.sim, stream).0 as f64
            };
            (run(Mode::Baseline), run(accel))
        } else {
            let warm = workload.trace(self.scale.warmup, self.seed);
            let measure = workload.trace(self.scale.calls, self.seed.wrapping_add(1));
            let run = |mode| run_single_core(self.substrate, mode, self.sim, &warm, &measure).1;
            (run(Mode::Baseline), run(accel))
        };
        self.result_from(base_cycles, accel_cycles)
    }

    /// Packs raw cycle totals into a [`PointResult`].
    fn result_from(&self, base_cycles: f64, accel_cycles: f64) -> PointResult {
        PointResult {
            base_cycles,
            accel_cycles,
            improvement_pct: if base_cycles > 0.0 {
                100.0 * (1.0 - accel_cycles / base_cycles)
            } else {
                0.0
            },
            area_um2: self.area_um2(),
        }
    }
}

/// A fresh `substrate` simulator under `mode` and `sim` that has replayed
/// `warmup` and then `measure`, with the allocator cycles of `measure`:
/// one single-core cell of every accelerator duel.
pub fn run_single_core(
    substrate: Substrate,
    mode: Mode,
    sim: SimMode,
    warmup: &Trace,
    measure: &Trace,
) -> (AnySim, f64) {
    let mut s = AnySim::new(substrate, mode);
    s.set_sampling(sim.plan());
    warmup.replay_on(&mut s);
    let cycles = measure.replay_on(&mut s).allocator_cycles();
    (s, cycles)
}

/// Allocator cycles and calls (malloc + free, summed over cores) of one
/// multi-core `(core, op)` stream of `substrate` under `mode`. TCMalloc
/// goes through the shared-heap [`MulticoreSim`]; the other substrates
/// run their cores as independent [`ShardedMt`] heaps with cross-core
/// frees routed to the owning core.
pub fn run_mt_stream(
    substrate: Substrate,
    mode: Mode,
    cores: usize,
    sim: SimMode,
    stream: impl IntoIterator<Item = (usize, MtOp)>,
) -> (u64, u64) {
    if substrate == Substrate::TcMalloc {
        let multicore = MulticoreSim::new(mode, cores).with_sim(sim);
        let t = multicore.run_stream(stream).aggregate();
        return (t.allocator_cycles(), t.malloc_calls + t.free_calls);
    }
    let mut sharded = ShardedMt::new(substrate, mode, cores);
    sharded.set_sampling(sim.plan());
    sharded.run_stream(stream);
    let t = sharded.totals();
    (t.allocator_cycles(), t.malloc_calls + t.free_calls)
}

/// The measured outcome of one configuration point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Baseline allocator cycles (malloc + free) over the measured run.
    pub base_cycles: f64,
    /// Accelerated allocator cycles over the same trace.
    pub accel_cycles: f64,
    /// Allocator-time improvement, percent (positive = faster).
    pub improvement_pct: f64,
    /// Total silicon cost (per-core malloc-cache area × cores), µm².
    pub area_um2: f64,
}

impl PointResult {
    /// Serialises for the memo store / sweep output.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("base_cycles", self.base_cycles.into()),
            ("accel_cycles", self.accel_cycles.into()),
            ("improvement_pct", self.improvement_pct.into()),
            ("area_um2", self.area_um2.into()),
        ])
    }

    /// Deserialises a memo-store record; `None` on any missing field.
    pub fn from_json(json: &Json) -> Option<PointResult> {
        Some(PointResult {
            base_cycles: json.get("base_cycles")?.as_f64()?,
            accel_cycles: json.get("accel_cycles")?.as_f64()?,
            improvement_pct: json.get("improvement_pct")?.as_f64()?,
            area_um2: json.get("area_um2")?.as_f64()?,
        })
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> ConfigPoint {
        ConfigPoint {
            entries: 16,
            extra_latency: 0,
            prefetch: true,
            index_opt: true,
            sampling: true,
            accel: AccelKind::Mallacc,
            queue_depth: 8,
            substrate: Substrate::TcMalloc,
            workload: "tp_small".to_string(),
            cores: 1,
            seed: 0,
            scale: RunScale::quick(),
            sim: SimMode::Full,
        }
    }

    #[test]
    fn key_is_stable_and_axis_sensitive() {
        let p = point();
        assert_eq!(p.key(), point().key(), "same point, same key");
        let variants: Vec<ConfigPoint> = vec![
            ConfigPoint {
                entries: 8,
                ..point()
            },
            ConfigPoint {
                extra_latency: 1,
                ..point()
            },
            ConfigPoint {
                prefetch: false,
                ..point()
            },
            ConfigPoint {
                index_opt: false,
                ..point()
            },
            ConfigPoint {
                sampling: false,
                ..point()
            },
            ConfigPoint {
                substrate: Substrate::JeMalloc,
                ..point()
            },
            ConfigPoint {
                accel: AccelKind::Offload,
                ..point()
            },
            ConfigPoint {
                queue_depth: 4,
                ..point()
            },
            ConfigPoint {
                workload: "gauss".to_string(),
                ..point()
            },
            ConfigPoint {
                cores: 4,
                ..point()
            },
            ConfigPoint { seed: 1, ..point() },
            ConfigPoint {
                scale: RunScale::full(),
                ..point()
            },
            ConfigPoint {
                sim: SimMode::sampled_default(),
                ..point()
            },
        ];
        for v in variants {
            assert_ne!(
                v.key(),
                p.key(),
                "axis change missed: {}",
                v.canonical_string()
            );
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = PointResult {
            base_cycles: 123_456.0,
            accel_cycles: 100_000.5,
            improvement_pct: 19.0,
            area_um2: 1484.2,
        };
        assert_eq!(PointResult::from_json(&r.to_json()), Some(r));
    }

    #[test]
    fn accel_config_reflects_the_axes() {
        let p = ConfigPoint {
            entries: 8,
            extra_latency: 2,
            prefetch: false,
            index_opt: false,
            sampling: false,
            ..point()
        };
        let cfg = p.accel_config();
        assert_eq!(cfg.cache.entries, 8);
        assert_eq!(cfg.cache.extra_latency, 2);
        assert_eq!(cfg.cache.keying, RangeKeying::RequestedSize);
        assert!(!cfg.prefetch && !cfg.sampling_opt);
        assert!(cfg.size_class_opt && cfg.list_opt);
    }

    #[test]
    fn running_a_fleet_point_shows_a_gain_on_two_cores() {
        let r = ConfigPoint {
            workload: "fleet:rpc-fanout".to_string(),
            cores: 2,
            scale: RunScale {
                calls: 200,
                warmup: 0,
            },
            ..point()
        }
        .run();
        assert!(r.base_cycles > 0.0);
        assert!(r.improvement_pct > 0.0, "fleet traffic should accelerate");
    }

    #[test]
    fn fleet_points_key_on_the_scenario_name() {
        let a = ConfigPoint {
            workload: "fleet:rpc-fanout".to_string(),
            ..point()
        };
        let b = ConfigPoint {
            workload: "fleet:tenant-mix".to_string(),
            ..point()
        };
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn accel_kind_names_round_trip() {
        for k in AccelKind::ALL {
            assert_eq!(AccelKind::by_name(k.name()), Some(k));
        }
        assert_eq!(AccelKind::by_name("warp"), None);
        assert!(AccelKind::Offload.uses_queue() && AccelKind::Both.uses_queue());
        assert!(!AccelKind::Mallacc.uses_queue() && !AccelKind::None.uses_queue());
    }

    #[test]
    fn area_reflects_the_accel_kind() {
        let mallacc = point().area_um2();
        let none = ConfigPoint {
            accel: AccelKind::None,
            ..point()
        }
        .area_um2();
        let offload = ConfigPoint {
            accel: AccelKind::Offload,
            ..point()
        }
        .area_um2();
        let both = ConfigPoint {
            accel: AccelKind::Both,
            ..point()
        }
        .area_um2();
        assert_eq!(none, 0.0);
        assert!(offload > 50.0 * mallacc, "helper core dwarfs the cache");
        assert!(
            (both - offload - mallacc).abs() < 1e-6,
            "both = sum of parts"
        );
    }

    #[test]
    fn none_kind_is_a_zero_improvement_control() {
        let r = ConfigPoint {
            accel: AccelKind::None,
            scale: RunScale {
                calls: 200,
                warmup: 50,
            },
            ..point()
        }
        .run();
        assert!(r.base_cycles > 0.0);
        assert_eq!(r.improvement_pct, 0.0);
        assert_eq!(r.area_um2, 0.0);
    }

    #[test]
    fn offload_point_runs_on_micro_and_fleet_workloads() {
        let micro = ConfigPoint {
            accel: AccelKind::Offload,
            scale: RunScale {
                calls: 300,
                warmup: 50,
            },
            ..point()
        }
        .run();
        assert!(micro.base_cycles > 0.0 && micro.accel_cycles > 0.0);
        let fleet = ConfigPoint {
            accel: AccelKind::Offload,
            workload: "fleet:rpc-fanout".to_string(),
            cores: 2,
            scale: RunScale {
                calls: 200,
                warmup: 0,
            },
            ..point()
        }
        .run();
        assert!(fleet.base_cycles > 0.0 && fleet.accel_cycles > 0.0);
    }

    #[test]
    fn running_a_quick_point_shows_a_gain() {
        let r = ConfigPoint {
            scale: RunScale {
                calls: 400,
                warmup: 100,
            },
            ..point()
        }
        .run();
        assert!(r.base_cycles > 0.0);
        assert!(r.improvement_pct > 0.0, "tp_small should accelerate");
        assert!(r.area_um2 > 0.0);
    }
}
