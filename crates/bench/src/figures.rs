//! Generators for every figure in the paper's evaluation.

use mallacc::{AccelConfig, Mode, RangeKeying};
use mallacc_stats::table::{bar, pct, Table};
use mallacc_stats::{geometric_mean, Json, LogHistogram};
use mallacc_workloads::{MacroWorkload, Microbenchmark};

use crate::experiments::{improvement_pct, run_macro, run_micro, Scale};

fn histogram_rows(out: &mut String, title: &str, hist: &LogHistogram) {
    out.push_str(title);
    out.push('\n');
    let pdf = hist.pdf_percent();
    let max = pdf.iter().map(|&(_, p)| p).fold(0.0, f64::max);
    for (mid, p) in pdf.iter().filter(|&&(_, p)| p >= 0.25) {
        out.push_str(&format!(
            "  {:>9.0} cyc {:6.2}%  {}\n",
            mid,
            p,
            bar(*p, max, 40)
        ));
    }
}

/// Figure 1: PDF of time spent in malloc calls by call duration, for the
/// perlbench-like workload. Three cost regimes emerge: thread-cache hits,
/// central-list refills, and span/OS allocations.
pub fn fig1(scale: Scale) -> String {
    let w = MacroWorkload::by_name("400.perlbench").expect("workload exists");
    let stats = run_macro(Mode::Baseline, &w, scale, scale.seed_for(1));
    let mut out = String::from(
        "Figure 1 — the costs of hits and misses in the allocation pools \
         (400.perlbench)\n",
    );
    histogram_rows(
        &mut out,
        "time in malloc calls (PDF %):",
        &stats.malloc_hist,
    );
    out.push_str(&format!(
        "\npath mix: {:?}\n",
        stats
            .kind_counts
            .iter()
            .map(|(k, c)| format!("{k:?}={c}"))
            .collect::<Vec<_>>()
    ));
    out.push_str(&format!(
        "fast path carries {} of malloc time; slowest calls exceed {} cycles\n",
        pct(stats.malloc_hist.weight_fraction_below(100)),
        stats.malloc.max().unwrap_or(0.0) as u64
    ));
    out
}

/// Figure 2: CDF of malloc time over call duration for every macro
/// workload; the paper's headline is that most workloads spend > 60 % of
/// malloc time on calls shorter than 100 cycles.
pub fn fig2(scale: Scale) -> String {
    let mut t = Table::new(&["workload", "<30cyc", "<100cyc", "<1000cyc", "mean(cyc)"]);
    for w in MacroWorkload::all() {
        let s = run_macro(Mode::Baseline, &w, scale, scale.seed_for(2));
        t.row_owned(vec![
            w.name.to_string(),
            pct(s.malloc_hist.weight_fraction_below(30)),
            pct(s.malloc_hist.weight_fraction_below(100)),
            pct(s.malloc_hist.weight_fraction_below(1000)),
            format!("{:.0}", s.mean_malloc_cycles()),
        ]);
    }
    format!(
        "Figure 2 — cumulative fraction of malloc time in calls below a \
         duration\n{}",
        t.render()
    )
}

/// Figure 4: cost of the three fast-path components per microbenchmark,
/// estimated — as the paper does — by removing each component's
/// instructions from performance simulation and subtracting.
pub fn fig4(scale: Scale) -> String {
    use mallacc::LimitRemove;
    let mut t = Table::new(&[
        "ubench",
        "baseline",
        "size class",
        "sampling",
        "push/pop",
        "combined",
        "combined %",
    ]);
    for m in Microbenchmark::ALL {
        let pair = |mode: Mode| {
            let s = run_micro(mode, m, scale, scale.seed_for(3));
            (s.totals.malloc_cycles + s.totals.free_cycles) as f64
                / s.totals.malloc_calls.max(1) as f64
        };
        let base = pair(Mode::Baseline);
        let d = |l: LimitRemove| (base - pair(Mode::Limit(l))).max(0.0);
        let sc = d(LimitRemove {
            size_class: true,
            ..Default::default()
        });
        let smp = d(LimitRemove {
            sampling: true,
            ..Default::default()
        });
        let pp = d(LimitRemove {
            push_pop: true,
            ..Default::default()
        });
        let all = d(LimitRemove::all());
        t.row_owned(vec![
            m.name().to_string(),
            format!("{base:.1}"),
            format!("{sc:.1}"),
            format!("{smp:.1}"),
            format!("{pp:.1}"),
            format!("{all:.1}"),
            pct(all / base),
        ]);
    }
    format!(
        "Figure 4 — fast-path cycles per malloc/free pair and the share of \
         the three accelerated components\n{}",
        t.render()
    )
}

/// Figure 6: how many size classes cover the bulk of each workload's malloc
/// calls.
pub fn fig6(scale: Scale) -> String {
    let mut t = Table::new(&["workload", "50%", "90%", "99%", "distinct"]);
    for w in MacroWorkload::all() {
        let s = run_macro(Mode::Baseline, &w, scale, scale.seed_for(4));
        t.row_owned(vec![
            w.name.to_string(),
            s.classes_for_coverage(0.5).to_string(),
            s.classes_for_coverage(0.9).to_string(),
            s.classes_for_coverage(0.99).to_string(),
            s.class_counts.len().to_string(),
        ]);
    }
    format!(
        "Figure 6 — size classes needed to cover a fraction of malloc calls\n{}",
        t.render()
    )
}

/// One workload's row of Figure 13/14: improvement means and run-to-run
/// standard deviations over the trial seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementRow {
    /// Workload name.
    pub workload: String,
    /// Mean Mallacc improvement, percent.
    pub mallacc_mean: f64,
    /// Sample standard deviation of the Mallacc improvement.
    pub mallacc_sd: f64,
    /// Mean limit-study improvement, percent.
    pub limit_mean: f64,
    /// Sample standard deviation of the limit-study improvement.
    pub limit_sd: f64,
}

/// The full Figure 13/14 dataset — the per-workload rows plus the
/// geometric-mean summary the figures print as their last row.
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementData {
    /// Per-workload improvements.
    pub rows: Vec<ImprovementRow>,
    /// Geomean Mallacc improvement over all workloads, percent.
    pub geomean_mallacc: f64,
    /// Geomean limit-study improvement over all workloads, percent.
    pub geomean_limit: f64,
}

impl ImprovementData {
    /// Serialises exactly the numbers the text rendering prints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("workload", r.workload.as_str().into()),
                                ("mallacc_mean_pct", r.mallacc_mean.into()),
                                ("mallacc_sd", r.mallacc_sd.into()),
                                ("limit_mean_pct", r.limit_mean.into()),
                                ("limit_sd", r.limit_sd.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("geomean_mallacc_pct", self.geomean_mallacc.into()),
            ("geomean_limit_pct", self.geomean_limit.into()),
        ])
    }
}

/// Computes the Figure 13 (`malloc_only = false`, allocator time) or
/// Figure 14 (`malloc_only = true`, malloc time) dataset.
pub fn improvement_data(scale: Scale, malloc_only: bool) -> ImprovementData {
    use mallacc_stats::Summary;

    // The paper evaluates Figures 13/14 with a 32-entry cache, and plots
    // run-to-run variation as error bars; we re-run with three trace seeds.
    let accel = Mode::Mallacc(AccelConfig::with_entries(32));
    let seeds = [scale.seed_for(5), scale.seed_for(105), scale.seed_for(205)];
    let mut rows = Vec::new();
    let mut accel_ratios = Vec::new();
    let mut limit_ratios = Vec::new();
    for w in MacroWorkload::all() {
        let mut a_impr = Summary::new();
        let mut l_impr = Summary::new();
        for seed in seeds {
            let metric = |mode: Mode| {
                let s = run_macro(mode, &w, scale, seed);
                if malloc_only {
                    s.totals.malloc_cycles as f64
                } else {
                    s.allocator_cycles() as f64
                }
            };
            let base = metric(Mode::Baseline);
            a_impr.record(improvement_pct(base, metric(accel)));
            l_impr.record(improvement_pct(base, metric(Mode::limit_all())));
        }
        accel_ratios.push(1.0 - a_impr.mean() / 100.0);
        limit_ratios.push(1.0 - l_impr.mean() / 100.0);
        rows.push(ImprovementRow {
            workload: w.name.to_string(),
            mallacc_mean: a_impr.mean(),
            mallacc_sd: a_impr.sample_std_dev(),
            limit_mean: l_impr.mean(),
            limit_sd: l_impr.sample_std_dev(),
        });
    }
    let g = |rs: &[f64]| 100.0 * (1.0 - geometric_mean(rs.iter().copied()).unwrap_or(1.0));
    ImprovementData {
        rows,
        geomean_mallacc: g(&accel_ratios),
        geomean_limit: g(&limit_ratios),
    }
}

/// Renders an [`ImprovementData`] as the figure's table.
pub fn render_improvement(data: &ImprovementData) -> String {
    let mut t = Table::new(&["workload", "mallacc", "±sd", "limit study", "±sd"]);
    for r in &data.rows {
        t.row_owned(vec![
            r.workload.clone(),
            format!("{:.1}%", r.mallacc_mean),
            format!("{:.1}", r.mallacc_sd),
            format!("{:.1}%", r.limit_mean),
            format!("{:.1}", r.limit_sd),
        ]);
    }
    t.row_owned(vec![
        "geomean".to_string(),
        format!("{:.1}%", data.geomean_mallacc),
        String::new(),
        format!("{:.1}%", data.geomean_limit),
        String::new(),
    ]);
    t.render()
}

/// Figure 13: improvement of total time spent in the allocator (malloc and
/// free), Mallacc (32-entry cache) vs the limit study, rendered from its
/// [`improvement_data`] dataset (`malloc_only = false`).
pub fn render_fig13(data: &ImprovementData) -> String {
    format!(
        "Figure 13 — improvement of time spent in the allocator\n{}",
        render_improvement(data)
    )
}

/// Figure 14: improvement of time spent in malloc() calls only, rendered
/// from its [`improvement_data`] dataset (`malloc_only = true`).
pub fn render_fig14(data: &ImprovementData) -> String {
    format!(
        "Figure 14 — improvement in time spent on malloc() calls\n{}",
        render_improvement(data)
    )
}

fn duration_pdf_figure(name: &str, scale: Scale, seed: u64) -> String {
    let w = MacroWorkload::by_name(name).expect("workload exists");
    let mut out = format!("call-duration distributions for {name}\n");
    for (label, mode) in [
        ("baseline", Mode::Baseline),
        ("limit study", Mode::limit_all()),
        (
            "all optimizations (Mallacc)",
            Mode::Mallacc(AccelConfig::with_entries(32)),
        ),
    ] {
        let s = run_macro(mode, &w, scale, seed);
        out.push_str(&format!(
            "\n{label}: mean {:.1} cyc, median ≈ {:.0} cyc, {} of time below 100 cyc\n",
            s.mean_malloc_cycles(),
            s.malloc_hist.quantile_value(0.5).unwrap_or(0.0),
            pct(s.malloc_hist.weight_fraction_below(100))
        ));
        histogram_rows(&mut out, "  time in malloc calls (PDF %):", &s.malloc_hist);
    }
    out
}

/// Figure 15: xapian sees a significant improvement on already-fast calls.
pub fn fig15(scale: Scale) -> String {
    format!(
        "Figure 15 — {}",
        duration_pdf_figure("xapian.pages", scale, scale.seed_for(6))
    )
}

/// Figure 16: xalancbmk benefits both from latency reduction and from
/// cache isolation.
pub fn fig16(scale: Scale) -> String {
    format!(
        "Figure 16 — {}",
        duration_pdf_figure("483.xalancbmk", scale, scale.seed_for(7))
    )
}

/// One microbenchmark's Figure 17 row: malloc speedup per cache size,
/// plus the limit study.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17Row {
    /// Microbenchmark name.
    pub ubench: String,
    /// Improvement percent per entry in [`Fig17Data::sizes`].
    pub gains: Vec<f64>,
    /// Limit-study improvement, percent.
    pub limit: f64,
}

/// The Figure 17 dataset: the swept cache sizes and one row per
/// microbenchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17Data {
    /// Swept malloc-cache entry counts.
    pub sizes: Vec<usize>,
    /// True for the paper's class-index keying, false for the generic
    /// requested-size ablation.
    pub index_keying: bool,
    /// One row per microbenchmark.
    pub rows: Vec<Fig17Row>,
}

impl Fig17Data {
    /// Serialises exactly the numbers the text rendering prints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "sizes",
                Json::Arr(self.sizes.iter().map(|&n| n.into()).collect()),
            ),
            ("index_keying", self.index_keying.into()),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("ubench", r.ubench.as_str().into()),
                                (
                                    "gains_pct",
                                    Json::Arr(r.gains.iter().map(|&g| g.into()).collect()),
                                ),
                                ("limit_pct", r.limit.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Computes the Figure 17 dataset. Set `index_keying` to `false` for the
/// generic (allocator-agnostic) range-keying ablation.
pub fn fig17_data(scale: Scale, index_keying: bool) -> Fig17Data {
    let sizes = vec![2usize, 4, 6, 8, 12, 16, 24, 32];
    let mut rows = Vec::new();
    for m in Microbenchmark::ALL {
        let base = run_micro(Mode::Baseline, m, scale, scale.seed_for(8))
            .totals
            .malloc_cycles as f64;
        let gains = sizes
            .iter()
            .map(|&n| {
                let mut cfg = AccelConfig::with_entries(n);
                if !index_keying {
                    cfg.cache.keying = RangeKeying::RequestedSize;
                }
                let a = run_micro(Mode::Mallacc(cfg), m, scale, scale.seed_for(8))
                    .totals
                    .malloc_cycles as f64;
                improvement_pct(base, a)
            })
            .collect();
        let l = run_micro(Mode::limit_all(), m, scale, scale.seed_for(8))
            .totals
            .malloc_cycles as f64;
        rows.push(Fig17Row {
            ubench: m.name().to_string(),
            gains,
            limit: improvement_pct(base, l),
        });
    }
    Fig17Data {
        sizes,
        index_keying,
        rows,
    }
}

/// Figure 17: malloc speedup of each microbenchmark as the malloc cache
/// grows from 2 to 32 entries, plus the limit study, rendered from its
/// [`fig17_data`] dataset.
pub fn render_fig17(data: &Fig17Data) -> String {
    let mut headers: Vec<String> = vec!["ubench".into()];
    headers.extend(data.sizes.iter().map(|n| n.to_string()));
    headers.push("limit".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    for r in &data.rows {
        let mut row = vec![r.ubench.clone()];
        row.extend(r.gains.iter().map(|g| format!("{g:.0}%")));
        row.push(format!("{:.0}%", r.limit));
        t.row_owned(row);
    }
    format!(
        "Figure 17 — effect of malloc cache size on malloc speedup \
         ({} keying)\n{}",
        if data.index_keying {
            "class-index"
        } else {
            "requested-size"
        },
        t.render()
    )
}

/// Figure 18: fraction of time spent in the allocator, with the
/// warehouse-scale-computer reference point from Kanev et al.
pub fn fig18(scale: Scale) -> String {
    let mut t = Table::new(&["workload", "time in tcmalloc"]);
    t.row(&["WSC (Kanev et al.)", "6.9%"]);
    for w in MacroWorkload::all() {
        let s = run_macro(Mode::Baseline, &w, scale, scale.seed_for(9));
        t.row_owned(vec![w.name.to_string(), pct(s.totals.allocator_fraction())]);
    }
    format!(
        "Figure 18 — fraction of time spent in the allocator\n{}",
        t.render()
    )
}

/// Component ablation (beyond the paper's headline): which of Mallacc's
/// optimisations carries each workload's gain.
pub fn ablation(scale: Scale) -> String {
    let full = AccelConfig::paper_default;
    let configs: Vec<(&str, AccelConfig)> = vec![
        ("full", full()),
        (
            "size-class only",
            AccelConfig {
                list_opt: false,
                sampling_opt: false,
                prefetch: false,
                ..full()
            },
        ),
        (
            "list only",
            AccelConfig {
                size_class_opt: false,
                sampling_opt: false,
                ..full()
            },
        ),
        (
            "sampling only",
            AccelConfig {
                size_class_opt: false,
                list_opt: false,
                prefetch: false,
                ..full()
            },
        ),
        (
            "no prefetch",
            AccelConfig {
                prefetch: false,
                ..full()
            },
        ),
        (
            "generic keying",
            AccelConfig {
                cache: mallacc::MallocCacheConfig {
                    keying: RangeKeying::RequestedSize,
                    ..mallacc::MallocCacheConfig::paper_default()
                },
                ..full()
            },
        ),
    ];
    let mut headers: Vec<&str> = vec!["workload"];
    headers.extend(configs.iter().map(|(n, _)| *n));
    let mut t = Table::new(&headers);

    let micro = [
        Microbenchmark::TpSmall,
        Microbenchmark::GaussFree,
        Microbenchmark::Antagonist,
    ];
    for m in micro {
        let base =
            run_micro(Mode::Baseline, m, scale, scale.seed_for(10)).allocator_cycles() as f64;
        let mut row = vec![m.name().to_string()];
        for (_, cfg) in &configs {
            let a = run_micro(Mode::Mallacc(*cfg), m, scale, scale.seed_for(10)).allocator_cycles()
                as f64;
            row.push(format!("{:.0}%", improvement_pct(base, a)));
        }
        t.row_owned(row);
    }
    for name in ["xapian.abstracts", "483.xalancbmk"] {
        let w = MacroWorkload::by_name(name).expect("workload exists");
        let base =
            run_macro(Mode::Baseline, &w, scale, scale.seed_for(10)).allocator_cycles() as f64;
        let mut row = vec![name.to_string()];
        for (_, cfg) in &configs {
            let a = run_macro(Mode::Mallacc(*cfg), &w, scale, scale.seed_for(10)).allocator_cycles()
                as f64;
            row.push(format!("{:.0}%", improvement_pct(base, a)));
        }
        t.row_owned(row);
    }
    format!(
        "Ablation — allocator-time improvement per accelerator component\n{}",
        t.render()
    )
}

/// Allocator generality (beyond the paper's headline): the identical
/// malloc-cache hardware accelerating a jemalloc-style allocator with a
/// structurally different fast path (array-stack tcache bins, one-load
/// size→bin table, generic requested-size CAM keying).
pub fn generality(scale: Scale) -> String {
    use mallacc::MallocSim;
    use mallacc_jemalloc::JeSim;
    use mallacc_workloads::SimBackend;

    let mut t = Table::new(&[
        "workload / allocator",
        "baseline malloc",
        "mallacc malloc",
        "speedup",
    ]);
    for m in [
        Microbenchmark::TpSmall,
        Microbenchmark::GaussFree,
        Microbenchmark::Antagonist,
    ] {
        let warm = m.trace(scale.warmup.max(200), scale.seed_for(23));
        let measure = m.trace(scale.calls, scale.seed_for(24));
        let run = |sim: &mut dyn SimBackend| {
            warm.replay_on(sim);
            measure.replay_on(sim).mean_malloc_cycles()
        };
        let tc_base = run(&mut MallocSim::new(Mode::Baseline));
        let tc_accel = run(&mut MallocSim::new(Mode::mallacc_default()));
        t.row_owned(vec![
            format!("{m} / tcmalloc (index keying)"),
            format!("{tc_base:.1}"),
            format!("{tc_accel:.1}"),
            format!("{:.1}%", improvement_pct(tc_base, tc_accel)),
        ]);
        let je_base = run(&mut JeSim::new(Mode::Baseline));
        let je_accel = run(&mut JeSim::new(Mode::mallacc_default()));
        t.row_owned(vec![
            format!("{m} / jemalloc (generic keying)"),
            format!("{je_base:.1}"),
            format!("{je_accel:.1}"),
            format!("{:.1}%", improvement_pct(je_base, je_accel)),
        ]);
    }
    format!(
        "Generality — the unchanged malloc cache accelerating two allocators on identical traces
{}",
        t.render()
    )
}

/// Context-switch resilience (beyond the paper's headline): §4.1 notes the
/// malloc cache can always be flushed wholesale at interrupts and context
/// switches. This sweep measures how much of the accelerator's gain
/// survives as switches become frequent.
pub fn resilience(scale: Scale) -> String {
    use mallacc::MallocSim;
    use mallacc_workloads::{Op, Trace};

    let base_trace = Microbenchmark::GaussFree.trace(scale.calls, scale.seed_for(13));
    let mut t = Table::new(&[
        "switch every N mallocs",
        "baseline",
        "mallacc",
        "improvement",
    ]);
    for period in [0usize, 1000, 200, 50, 10] {
        let mut trace = Trace::new();
        let mut since = 0usize;
        for &op in base_trace.ops() {
            trace.push(op);
            if matches!(op, Op::Malloc { .. }) {
                since += 1;
                if period > 0 && since >= period {
                    trace.push(Op::ContextSwitch { quantum: 5_000 });
                    since = 0;
                }
            }
        }
        let run = |mode: Mode| {
            let mut sim = MallocSim::new(mode);
            trace.replay(&mut sim);
            sim.reset_totals();
            trace.replay(&mut sim).allocator_cycles() as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        t.row_owned(vec![
            if period == 0 {
                "never".into()
            } else {
                period.to_string()
            },
            format!("{base:.0}"),
            format!("{accel:.0}"),
            format!("{:.1}%", improvement_pct(base, accel)),
        ]);
    }
    format!(
        "Context-switch resilience — gauss_free allocator cycles as the malloc cache is flushed ever more often
{}",
        t.render()
    )
}

/// CPI stacks (beyond the paper's headline): where the machine's cycles
/// go per workload, baseline vs Mallacc. The accelerator's signature is a
/// shrinking memory-stall share — the dependent table and free-list loads
/// it removes.
pub fn cpi(scale: Scale) -> String {
    use mallacc::MallocSim;

    let mut t = Table::new(&[
        "workload / machine",
        "base%",
        "memory%",
        "execute%",
        "frontend%",
        "cycles",
    ]);
    for name in ["400.perlbench", "483.xalancbmk", "xapian.abstracts"] {
        let w = MacroWorkload::by_name(name).expect("workload exists");
        for (label, mode) in [
            ("baseline", Mode::Baseline),
            ("mallacc", Mode::mallacc_default()),
        ] {
            let mut sim = MallocSim::new(mode);
            w.trace(scale.warmup, scale.seed_for(18)).replay(&mut sim);
            let before = sim.cpi_stack();
            w.trace(scale.calls, scale.seed_for(19)).replay(&mut sim);
            let after = sim.cpi_stack();
            // One integer accounting drives both the percentages and the
            // total, so the row can never disagree with itself.
            let d = mallacc_stats::Breakdown::from_parts([
                ("base", after.base - before.base),
                ("memory", after.memory - before.memory),
                ("execute", after.execute - before.execute),
                ("frontend", after.frontend - before.frontend),
            ]);
            t.row_owned(vec![
                format!("{name} / {label}"),
                d.pct(0),
                d.pct(1),
                d.pct(2),
                d.pct(3),
                format!("{}", d.total()),
            ]);
        }
    }
    format!(
        "CPI stacks — retirement-cycle attribution, baseline vs Mallacc\n{}",
        t.render()
    )
}

/// Sized-deallocation study (§3.3): without C++14 sized delete, `free()`
/// must walk the page map — scattered radix nodes that miss the caches and
/// the TLB — to recover the size class. The paper assumes sized delete
/// "when applicable"; this quantifies what that assumption is worth.
pub fn sized_delete(scale: Scale) -> String {
    use mallacc::MallocSim;

    let mut t = Table::new(&[
        "workload",
        "free sized",
        "free unsized",
        "penalty",
        "mallacc sized",
        "mallacc unsized",
    ]);
    for name in ["400.perlbench", "483.xalancbmk", "xapian.abstracts"] {
        let base = MacroWorkload::by_name(name).expect("workload exists");
        let run = |mode: Mode, unsized_frac: f64| {
            let mut w = base.clone();
            w.unsized_frac = unsized_frac;
            let mut sim = MallocSim::new(mode);
            w.trace(scale.warmup, scale.seed_for(16)).replay(&mut sim);
            sim.reset_totals();
            let s = w.trace(scale.calls, scale.seed_for(17)).replay(&mut sim);
            s.mean_free_cycles()
        };
        let b_sized = run(Mode::Baseline, 0.0);
        let b_unsized = run(Mode::Baseline, 1.0);
        let a_sized = run(Mode::mallacc_default(), 0.0);
        let a_unsized = run(Mode::mallacc_default(), 1.0);
        t.row_owned(vec![
            name.to_string(),
            format!("{b_sized:.1}"),
            format!("{b_unsized:.1}"),
            format!("{:.0}%", 100.0 * (b_unsized / b_sized - 1.0)),
            format!("{a_sized:.1}"),
            format!("{a_unsized:.1}"),
        ]);
    }
    // A fragmented-heap scenario: a large live pool spanning thousands of
    // heap pages, so the page-map walk touches many scattered radix leaves
    // — the regime where §3.3's TLB complaint bites.
    {
        use mallacc_workloads::{Op, Trace};
        let run = |mode: Mode, sized: bool| {
            let mut tr = Trace::new();
            for _ in 0..6_000 {
                tr.push(Op::Malloc { size: 2048 });
            }
            let mut seed = 0x1234_5678_9ABC_DEF0u64 ^ scale.seed;
            for _ in 0..scale.calls {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                tr.push(Op::Free { index: seed, sized });
                tr.push(Op::Malloc { size: 2048 });
            }
            let mut sim = MallocSim::new(mode);
            tr.replay(&mut sim).mean_free_cycles()
        };
        let b_sized = run(Mode::Baseline, true);
        let b_unsized = run(Mode::Baseline, false);
        let a_sized = run(Mode::mallacc_default(), true);
        let a_unsized = run(Mode::mallacc_default(), false);
        t.row_owned(vec![
            "fragmented (12 MiB pool)".to_string(),
            format!("{b_sized:.1}"),
            format!("{b_unsized:.1}"),
            format!("{:.0}%", 100.0 * (b_unsized / b_sized - 1.0)),
            format!("{a_sized:.1}"),
            format!("{a_unsized:.1}"),
        ]);
    }
    format!(
        "Sized deallocation — mean free() cycles with and without compile-time sizes (the page-map walk misses caches and the TLB)
{}",
        t.render()
    )
}

/// Core-design sensitivity (beyond the paper's headline): how the
/// accelerator's gain varies with the host core's aggressiveness.
pub fn sensitivity(scale: Scale) -> String {
    use mallacc::MallocSim;
    use mallacc_ooo::CoreConfig;
    use mallacc_tcmalloc::TcMallocConfig;

    let cores: Vec<(&str, CoreConfig)> = vec![
        ("haswell (4-wide, 192 ROB)", CoreConfig::haswell()),
        (
            "little (2-wide, 64 ROB)",
            CoreConfig {
                fetch_width: 2,
                commit_width: 2,
                rob_size: 64,
                ..CoreConfig::haswell()
            },
        ),
        (
            "big (6-wide, 320 ROB)",
            CoreConfig {
                fetch_width: 6,
                commit_width: 6,
                rob_size: 320,
                ..CoreConfig::haswell()
            },
        ),
        (
            "deep-flush (25-cycle redirect)",
            CoreConfig {
                mispredict_penalty: 25,
                ..CoreConfig::haswell()
            },
        ),
    ];
    let w = MacroWorkload::by_name("400.perlbench").expect("workload exists");
    let mut t = Table::new(&["core", "baseline malloc", "mallacc malloc", "improvement"]);
    for (name, core) in cores {
        let run = |mode: Mode| {
            let mut sim = MallocSim::with_configs(mode, TcMallocConfig::default(), core);
            w.trace(scale.warmup, scale.seed_for(14)).replay(&mut sim);
            sim.reset_totals();
            let s = w.trace(scale.calls, scale.seed_for(15)).replay(&mut sim);
            s.mean_malloc_cycles()
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        t.row_owned(vec![
            name.to_string(),
            format!("{base:.1}"),
            format!("{accel:.1}"),
            format!("{:.1}%", improvement_pct(base, accel)),
        ]);
    }
    format!(
        "Core sensitivity — Mallacc's malloc-latency gain across host core designs (400.perlbench)
{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reports_all_workloads() {
        let s = fig2(Scale::quick());
        for w in MacroWorkload::all() {
            assert!(s.contains(w.name), "missing {} in:\n{s}", w.name);
        }
    }

    #[test]
    fn fig6_shape() {
        let s = fig6(Scale::quick());
        assert!(s.contains("483.xalancbmk"));
        assert!(s.contains("90%"));
    }

    #[test]
    fn fig17_has_sweep_columns() {
        let s = render_fig17(&fig17_data(Scale::quick(), true));
        assert!(s.contains("tp_small"));
        assert!(s.contains("limit"));
    }

    #[test]
    fn cpi_stacks_cover_time() {
        let s = cpi(Scale::quick());
        assert!(s.contains("memory%"));
        assert!(s.contains("400.perlbench / baseline"));
    }

    #[test]
    fn sized_delete_shows_a_penalty() {
        let s = sized_delete(Scale::quick());
        assert!(s.contains("penalty"));
        assert!(s.contains("400.perlbench"));
    }

    #[test]
    fn resilience_reports_all_periods() {
        let s = resilience(Scale::quick());
        assert!(s.contains("never"));
        assert!(s.contains("1000"));
    }

    #[test]
    fn sensitivity_covers_all_cores() {
        let s = sensitivity(Scale::quick());
        assert!(s.contains("little"));
        assert!(s.contains("big"));
    }

    #[test]
    fn generality_covers_both_allocators() {
        let s = generality(Scale::quick());
        assert!(s.contains("tcmalloc"));
        assert!(s.contains("jemalloc"));
    }

    #[test]
    fn fig18_includes_wsc_reference() {
        let s = fig18(Scale::quick());
        assert!(s.contains("WSC (Kanev et al.)"));
        assert!(s.contains("6.9%"));
    }
}
