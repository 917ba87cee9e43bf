//! SMARTS/interval-style sampled execution: cadence plans, the per-engine
//! sampling controller, and the measurement report.
//!
//! Full detailed simulation prices every µop through the out-of-order
//! pipeline model. That fidelity is only needed *statistically*: allocator
//! fast paths are short, periodic kernels, so a small measured fraction
//! predicts the whole run. A [`SamplingPlan`] divides the µop stream into
//! fixed-length periods of three phases, in SMARTS order:
//!
//! 1. **warmup** — detailed execution, unmeasured. Re-primes the pipeline
//!    and re-touches the hot cache lines after a fast-forward region, so
//!    the measured window does not see functional-warming artefacts.
//! 2. **detailed window** — detailed execution, measured. The window's
//!    attributed cycles (CPI-stack delta, which excludes explicit time
//!    skips) become one sample and set the extrapolation rates.
//! 3. **fast-forward** — functional execution only. Architectural state
//!    that feeds *functional* decisions stays bit-identical (the driver's
//!    heap, malloc cache and branch history live outside the engine;
//!    inside it, every memory access still reaches the cache hierarchy
//!    and the execution statistics still count), while pipeline and
//!    register bookkeeping is skipped and simulated time advances at the
//!    last measured window's per-slice CPI rates.
//!
//! Apart from its memory access, a fast-forwarded µop costs a few counter
//! bumps. The sampler hands the engine each fast-forward stretch whole, as
//! a countdown, so no phase dispatch runs inside it. The stretch's clock is kept in closed form
//! (`FfClock`): the engine counts the µops and evaluates the time they
//! account for only when something reads it.
//!
//! A sampled run additionally opens with `startup_uops` of detailed,
//! unmeasured execution (one full period by default) before the periodic
//! cadence begins. Cold-start transients — the initial burst of compulsory
//! cache misses — are therefore *simulated*, not extrapolated: without the
//! startup interval the very first measured window prices the cold caches
//! and its inflated CPI is stretched over the first fast-forward region,
//! which is the classic sampling cold-start bias.
//!
//! Degenerate plans (`period <= warmup + detailed`) never reach phase 3
//! and therefore reproduce full detailed runs exactly — the property the
//! sampled-vs-full differential suites pin.

use crate::engine::CpiStack;

/// Fixed-point scale for fast-forward cycle accumulation: rates are kept
/// in micro-cycles per µop, so extrapolation rounding error is bounded by
/// one cycle per million fast-forwarded µops per slice.
pub const FF_SCALE: u64 = 1_000_000;

/// Cadence of a sampled run, in µops: every `period` pushed µops run
/// `warmup_uops` detailed-but-unmeasured, then `detailed_uops` measured,
/// then fast-forward to the end of the period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplingPlan {
    /// Detailed µops executed before each measured window, unmeasured
    /// (pipeline and cache re-warming after a fast-forward region).
    pub warmup_uops: u64,
    /// Measured detailed µops per window.
    pub detailed_uops: u64,
    /// Total µops per period; `period - warmup_uops - detailed_uops` are
    /// fast-forwarded (none, if the plan is degenerate).
    pub period: u64,
    /// Detailed, unmeasured µops executed once before the periodic cadence
    /// starts, so cold-start transients are simulated rather than
    /// extrapolated. [`SamplingPlan::new`] defaults this to one period.
    pub startup_uops: u64,
}

impl SamplingPlan {
    /// Builds a plan, validating the phase lengths.
    ///
    /// # Errors
    ///
    /// Rejects zero-length measured windows and zero-length periods (a
    /// period *shorter* than warmup + detailed is allowed: it is the
    /// degenerate, run-everything-detailed plan).
    pub fn new(warmup_uops: u64, detailed_uops: u64, period: u64) -> Result<Self, String> {
        if detailed_uops == 0 {
            return Err("sampling plan needs a non-empty detailed window".to_string());
        }
        if period == 0 {
            return Err("sampling plan needs a non-zero period".to_string());
        }
        Ok(Self {
            warmup_uops,
            detailed_uops,
            period,
            startup_uops: period,
        })
    }

    /// Overrides the startup interval (0 disables it).
    pub fn with_startup(mut self, startup_uops: u64) -> Self {
        self.startup_uops = startup_uops;
        self
    }

    /// The default cadence: 384 µops of warmup and a 1024-µop measured
    /// window every 16384 µops (8.6 % detailed), after a 16384-µop
    /// detailed startup interval. The warmup length matters more than the
    /// window count: the post-fast-forward pipeline transient outlasts
    /// shorter warmups on some macro workloads (465.tonto's full-scale
    /// error halves going from 192 to 384+), while halving the window
    /// count only widens the confidence interval.
    pub fn default_plan() -> Self {
        Self {
            warmup_uops: 384,
            detailed_uops: 1_024,
            period: 16_384,
            startup_uops: 16_384,
        }
    }

    /// True when the period is covered entirely by warmup + detailed
    /// execution: no µop is ever fast-forwarded and the run is exactly a
    /// full detailed run.
    pub fn is_degenerate(&self) -> bool {
        self.period <= self.warmup_uops + self.detailed_uops
    }

    /// Fraction of each period executed in detail (warmup + measured).
    pub fn detailed_fraction(&self) -> f64 {
        let det = (self.warmup_uops + self.detailed_uops).min(self.period);
        det as f64 / self.period as f64
    }

    /// Parses `"W:D:P"` (startup defaults to one period) or `"W:D:P:S"`
    /// with an explicit startup interval (e.g. `"192:512:8192:0"`).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 && parts.len() != 4 {
            return Err(format!(
                "bad sampling plan {spec:?}: use <warmup>:<detailed>:<period>[:<startup>]"
            ));
        }
        let field = |s: &str, name: &str| -> Result<u64, String> {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad sampling plan {name} {s:?}"))
        };
        let plan = Self::new(
            field(parts[0], "warmup")?,
            field(parts[1], "detailed")?,
            field(parts[2], "period")?,
        )?;
        if let Some(s) = parts.get(3) {
            Ok(plan.with_startup(field(s, "startup")?))
        } else {
            Ok(plan)
        }
    }

    /// Canonical form; `parse` round-trips it. Prints `"W:D:P"` when the
    /// startup interval has its default length (one period), `"W:D:P:S"`
    /// otherwise.
    pub fn canonical_string(&self) -> String {
        if self.startup_uops == self.period {
            format!(
                "{}:{}:{}",
                self.warmup_uops, self.detailed_uops, self.period
            )
        } else {
            format!(
                "{}:{}:{}:{}",
                self.warmup_uops, self.detailed_uops, self.period, self.startup_uops
            )
        }
    }
}

/// One closed measured window: how many µops it retired and the cycles
/// attributed to them (time skips excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Measured µops in the window.
    pub uops: u64,
    /// Attributed cycles those µops account for.
    pub cycles: u64,
}

impl WindowSample {
    /// The window's cycles-per-µop.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.uops as f64
    }
}

/// What a sampled run measured and extrapolated, as returned by
/// [`Engine::sampling_report`](crate::Engine::sampling_report).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingReport {
    /// The plan the run executed under.
    pub plan: SamplingPlan,
    /// Every closed measured window, in execution order. Feed the
    /// per-window CPIs to `mallacc_stats::mean_ci95` for the confidence
    /// interval on the extrapolated CPI.
    pub windows: Vec<WindowSample>,
    /// Detailed µops spent on (unmeasured) warmup, including the startup
    /// interval.
    pub warmup_uops: u64,
    /// Fast-forwarded µops.
    pub ff_uops: u64,
    /// Cycles charged during fast-forward (extrapolated at measured
    /// window rates).
    pub ff_cycles: u64,
}

impl SamplingReport {
    /// Total measured µops across all closed windows.
    pub fn measured_uops(&self) -> u64 {
        self.windows.iter().map(|w| w.uops).sum()
    }

    /// Total attributed cycles across all closed windows.
    pub fn measured_cycles(&self) -> u64 {
        self.windows.iter().map(|w| w.cycles).sum()
    }

    /// Pooled CPI over the measured windows (0 when nothing measured).
    pub fn measured_cpi(&self) -> f64 {
        let u = self.measured_uops();
        if u == 0 {
            0.0
        } else {
            self.measured_cycles() as f64 / u as f64
        }
    }

    /// Per-window CPI samples, the input shape of the CI helper.
    pub fn window_cpis(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.cpi()).collect()
    }
}

/// Which execution phase the next µop falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Detailed, unmeasured.
    Warmup,
    /// Detailed, measured; `closes` marks the window's last µop. The
    /// engine opens the window lazily on the first measured µop (tracked
    /// by [`Sampler::window_open`]), so a one-µop window still works.
    Measured {
        /// True when the window must be closed after this µop retires.
        closes: bool,
    },
    /// Functional fast-forward for the rest of the period: this µop and
    /// the `len - 1` after it.
    FastForward {
        /// µops in the stretch, this one included (at least 1).
        len: u64,
    },
}

/// The fast-forward clock in closed form.
///
/// Fast-forwarded time is defined per µop: each CPI slice adds its rate
/// to a fixed-point accumulator, emits `accum / FF_SCALE` whole cycles
/// and keeps `accum % FF_SCALE`. Floor carries telescope: after `k` µops
/// slice `i` has emitted exactly `⌊(accum_i + k·rate_i) / FF_SCALE⌋`
/// cycles and its accumulator reads `(accum_i + k·rate_i) mod FF_SCALE`.
/// So the clock only counts µops (`pending`) and evaluates that
/// expression when something reads it.
///
/// The sum is formed in `u128`: a one-µop window on a `u32::MAX`-latency
/// ALU sets a rate near 4.3·10¹⁵, so about 4,300 such µops would overflow
/// `u64`.
#[derive(Debug, Default)]
pub(crate) struct FfClock {
    /// Per-slice rates in [`FF_SCALE`]ths of a cycle per µop: base,
    /// memory, execute, frontend — from the last closed window.
    ///
    /// Deliberately *not* pooled over window history: allocator runs have
    /// long CPI trends (heap and cache warm-in, free lists filling), and a
    /// cumulative mean lags those trends, which measured as a +35–80 %
    /// systematic bias on the macro workloads. Last-window rates make each
    /// period a self-contained stratum, so trend error cancels per period.
    pub(crate) rate: [u64; 4],
    /// Per-slice fractional-cycle accumulators, as of the last settle.
    accum: [u64; 4],
    /// Fast-forwarded µops whose cycles are not yet charged.
    pub(crate) pending: u64,
}

impl FfClock {
    /// Whole cycles each slice has advanced over the pending µops. Pure,
    /// so it compiles away where its result is unused.
    #[inline]
    pub(crate) fn advance(&self) -> [u64; 4] {
        if self.pending == 0 {
            return [0; 4];
        }
        self.split().map(|(whole, _)| whole)
    }

    /// Charges the pending µops: returns each slice's whole-cycle advance
    /// and keeps the fractions.
    pub(crate) fn settle(&mut self) -> [u64; 4] {
        let split = self.split();
        self.accum = split.map(|(_, frac)| frac);
        self.pending = 0;
        split.map(|(whole, _)| whole)
    }

    #[inline]
    fn split(&self) -> [(u64, u64); 4] {
        let k = u128::from(self.pending);
        std::array::from_fn(|i| {
            let total = u128::from(self.accum[i]) + k * u128::from(self.rate[i]);
            // Dividing a u64 by a constant is a multiply; dividing a u128
            // is a library call.
            match u64::try_from(total) {
                Ok(total) => (total / FF_SCALE, total % FF_SCALE),
                Err(_) => {
                    let scale = u128::from(FF_SCALE);
                    ((total / scale) as u64, (total % scale) as u64)
                }
            }
        })
    }
}

/// Per-engine sampling state: period position, window accumulation and the
/// fast-forward totals.
#[derive(Debug)]
pub(crate) struct Sampler {
    pub(crate) plan: SamplingPlan,
    /// Detailed startup µops still to run before the periodic cadence.
    startup_left: u64,
    /// µop index within the current period.
    pos: u64,
    /// CPI stack snapshot when the current window opened.
    window_start: CpiStack,
    /// Whether a measured window is currently open.
    pub(crate) window_open: bool,
    /// Closed window samples.
    pub(crate) windows: Vec<WindowSample>,
    /// Totals for the report. The fast-forward ones exclude the engine's
    /// pending µops.
    pub(crate) warmup_uops: u64,
    pub(crate) ff_uops: u64,
    pub(crate) ff_cycles: u64,
}

impl Sampler {
    pub(crate) fn new(plan: SamplingPlan) -> Self {
        Self {
            plan,
            startup_left: plan.startup_uops,
            pos: 0,
            window_start: CpiStack::default(),
            window_open: false,
            windows: Vec::new(),
            warmup_uops: 0,
            ff_uops: 0,
            ff_cycles: 0,
        }
    }

    /// Classifies the next µop and advances the period position. The
    /// degenerate-plan check lives in the caller (degenerate plans never
    /// construct a sampler in the hot path).
    ///
    /// A fast-forward stretch is reported once, on its first µop, with its
    /// length; the position then moves to the next period, and the caller
    /// runs the rest of the stretch without asking again.
    ///
    /// The startup interval is detailed *and unmeasured*: a window inside
    /// it would price cold compulsory misses and stretch that outlier CPI
    /// over its fast-forward region. The rates therefore only ever come
    /// from post-startup (warm) windows.
    pub(crate) fn next_phase(&mut self) -> Phase {
        if self.startup_left > 0 {
            self.startup_left -= 1;
            self.warmup_uops += 1;
            return Phase::Warmup;
        }
        let pos = self.pos;
        let warm_end = self.plan.warmup_uops;
        let meas_end = warm_end + self.plan.detailed_uops;
        if pos >= meas_end {
            self.pos = 0;
            return Phase::FastForward {
                len: self.plan.period - pos,
            };
        }
        self.pos += 1;
        if self.pos >= self.plan.period {
            self.pos = 0;
        }
        if pos < warm_end {
            self.warmup_uops += 1;
            Phase::Warmup
        } else {
            Phase::Measured {
                closes: pos + 1 == meas_end,
            }
        }
    }

    /// Records the CPI stack at window open.
    pub(crate) fn open_window(&mut self, cpi: CpiStack) {
        self.window_start = cpi;
        self.window_open = true;
    }

    /// Closes the window against the current CPI stack: stores the sample
    /// and returns the new per-slice fast-forward rates ([`FfClock::rate`]).
    pub(crate) fn close_window(&mut self, cpi: CpiStack) -> [u64; 4] {
        self.window_open = false;
        let uops = self.plan.detailed_uops;
        let d = [
            cpi.base - self.window_start.base,
            cpi.memory - self.window_start.memory,
            cpi.execute - self.window_start.execute,
            cpi.frontend - self.window_start.frontend,
        ];
        let cycles = d.iter().sum();
        self.windows.push(WindowSample { uops, cycles });
        d.map(|slice| slice * FF_SCALE / uops)
    }

    pub(crate) fn report(&self) -> SamplingReport {
        SamplingReport {
            plan: self.plan,
            windows: self.windows.clone(),
            warmup_uops: self.warmup_uops,
            ff_uops: self.ff_uops,
            ff_cycles: self.ff_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_round_trips() {
        let p = SamplingPlan::parse("384:1024:16384").unwrap();
        assert_eq!(p, SamplingPlan::default_plan());
        assert_eq!(SamplingPlan::parse(&p.canonical_string()).unwrap(), p);
        assert!(!p.is_degenerate());
        assert!((p.detailed_fraction() - 1408.0 / 16384.0).abs() < 1e-12);
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        assert!(SamplingPlan::parse("1:2").is_err());
        assert!(SamplingPlan::parse("a:2:3").is_err());
        assert!(SamplingPlan::parse("1:0:3").is_err());
        assert!(SamplingPlan::parse("1:2:0").is_err());
        assert!(SamplingPlan::new(0, 1, 1).unwrap().is_degenerate());
    }

    #[test]
    fn degenerate_plans_cover_the_period() {
        let p = SamplingPlan::new(100, 100, 150).unwrap();
        assert!(p.is_degenerate());
        assert_eq!(p.detailed_fraction(), 1.0);
    }

    #[test]
    fn phase_sequence_follows_the_plan() {
        let plan = SamplingPlan::new(2, 3, 8).unwrap().with_startup(0);
        let mut s = Sampler::new(plan);
        let seq: Vec<Phase> = (0..13).map(|_| s.next_phase()).collect();
        use Phase::*;
        let open = Measured { closes: false };
        let close = Measured { closes: true };
        // Each fast-forward stretch is reported once, whole.
        let ff = FastForward { len: 3 };
        assert_eq!(
            seq,
            vec![
                Warmup, Warmup, open, open, close, ff, // first period
                Warmup, Warmup, open, open, close, ff, // second period
                Warmup,
            ]
        );
        assert_eq!(s.warmup_uops, 5);
    }

    #[test]
    fn zero_warmup_measures_immediately() {
        let plan = SamplingPlan::new(0, 2, 4).unwrap().with_startup(0);
        let mut s = Sampler::new(plan);
        assert_eq!(s.next_phase(), Phase::Measured { closes: false });
        assert_eq!(s.next_phase(), Phase::Measured { closes: true });
        assert_eq!(s.next_phase(), Phase::FastForward { len: 2 });
        assert_eq!(s.next_phase(), Phase::Measured { closes: false });
    }

    #[test]
    fn single_uop_window_opens_and_closes_on_one_uop() {
        let plan = SamplingPlan::new(1, 1, 4).unwrap().with_startup(0);
        let mut s = Sampler::new(plan);
        assert_eq!(s.next_phase(), Phase::Warmup);
        assert_eq!(s.next_phase(), Phase::Measured { closes: true });
    }

    #[test]
    fn startup_interval_runs_detailed_and_unmeasured() {
        // new() defaults the startup interval to one period; no window
        // opens inside it (cold-start CPI must not seed the rates).
        let plan = SamplingPlan::new(1, 2, 8).unwrap();
        assert_eq!(plan.startup_uops, 8);
        let mut s = Sampler::new(plan);
        for _ in 0..8 {
            assert_eq!(s.next_phase(), Phase::Warmup);
        }
        // Startup exhausted: the first real period begins.
        assert_eq!(s.next_phase(), Phase::Warmup);
        assert_eq!(s.next_phase(), Phase::Measured { closes: false });
        assert_eq!(s.next_phase(), Phase::Measured { closes: true });
        assert_eq!(s.next_phase(), Phase::FastForward { len: 5 });
        assert_eq!(s.warmup_uops, 9);
    }

    #[test]
    fn ff_rates_track_the_latest_window() {
        // Rates follow the most recent window (no pooling across history
        // — see the field comment on `ff_rate` for the measured why).
        let plan = SamplingPlan::new(0, 4, 16).unwrap().with_startup(0);
        let mut s = Sampler::new(plan);
        s.open_window(CpiStack::default());
        let rate = s.close_window(CpiStack {
            base: 8,
            memory: 0,
            execute: 0,
            frontend: 0,
        });
        assert_eq!(rate, [2 * FF_SCALE, 0, 0, 0]);
        let mid = CpiStack {
            base: 8,
            memory: 0,
            execute: 0,
            frontend: 0,
        };
        s.open_window(mid);
        let rate = s.close_window(CpiStack {
            base: 12,
            memory: 4,
            execute: 0,
            frontend: 0,
        });
        assert_eq!(rate, [FF_SCALE, FF_SCALE, 0, 0]);
    }

    #[test]
    fn closed_form_clock_matches_per_uop_floor_carries() {
        // The per-µop accumulator, stepped by hand, against the
        // closed form — across a settle, with rates far above FF_SCALE,
        // and with one large enough that k·rate overflows u64 once more
        // than 4,295 µops are pending.
        for rate in [
            0,
            1,
            333_333,
            999_999,
            7_654_321,
            u64::from(u32::MAX) * FF_SCALE,
        ] {
            let mut clock = FfClock {
                rate: [rate, rate / 3, 1, FF_SCALE - 1],
                ..FfClock::default()
            };
            let mut accum = [0u64; 4];
            let mut emitted = [0u64; 4];
            let mut charged = [0u64; 4];
            for k in 1..=6_000u64 {
                for ((a, e), r) in accum.iter_mut().zip(&mut emitted).zip(clock.rate) {
                    *a += r;
                    *e += *a / FF_SCALE;
                    *a %= FF_SCALE;
                }
                clock.pending += 1;
                if k == 700 {
                    for (c, a) in charged.iter_mut().zip(clock.settle()) {
                        *c += a;
                    }
                }
                let adv = clock.advance();
                let now: Vec<u64> = (0..4).map(|i| charged[i] + adv[i]).collect();
                assert_eq!(now, emitted, "rate {rate}, k {k}");
            }
            clock.settle();
            assert_eq!(clock.accum, accum);
        }
    }

    #[test]
    fn startup_round_trips_through_the_spec_string() {
        let p = SamplingPlan::parse("192:512:8192:0").unwrap();
        assert_eq!(p.startup_uops, 0);
        assert_eq!(p.canonical_string(), "192:512:8192:0");
        assert_eq!(SamplingPlan::parse(&p.canonical_string()).unwrap(), p);
        // Default startup (one period) stays in the three-field form.
        let q = SamplingPlan::parse("192:512:8192").unwrap();
        assert_eq!(q.startup_uops, 8192);
        assert_eq!(q.canonical_string(), "192:512:8192");
        assert!(SamplingPlan::parse("1:2:3:x").is_err());
    }

    #[test]
    fn window_sample_records_cpi_delta() {
        let plan = SamplingPlan::new(0, 4, 16).unwrap();
        let mut s = Sampler::new(plan);
        s.open_window(CpiStack {
            base: 10,
            memory: 5,
            execute: 0,
            frontend: 1,
        });
        let rate = s.close_window(CpiStack {
            base: 14,
            memory: 9,
            execute: 2,
            frontend: 1,
        });
        assert_eq!(
            s.windows,
            vec![WindowSample {
                uops: 4,
                cycles: 10
            }]
        );
        assert_eq!(rate, [FF_SCALE, FF_SCALE, FF_SCALE / 2, 0]);
        let r = s.report();
        assert_eq!(r.measured_uops(), 4);
        assert_eq!(r.measured_cycles(), 10);
        assert!((r.measured_cpi() - 2.5).abs() < 1e-12);
        assert_eq!(r.window_cpis(), vec![2.5]);
    }
}
