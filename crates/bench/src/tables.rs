//! Generators for the paper's tables and the §6.4 area accounting.

use mallacc_stats::table::Table;
use mallacc_stats::ttest;
use mallacc_validate::oracle;
use mallacc_workloads::{MacroWorkload, Microbenchmark};

use mallacc::{AreaBits, AreaEstimate, MallocSim, Mode};

use crate::experiments::{run_micro, Scale};

/// Table 1 — simulator validation.
///
/// The paper validates XIOSim against a physical Haswell on the malloc
/// microbenchmarks (mean error 6.3 %). Without x86 hardware in the loop we
/// validate the core model two ways:
///
/// 1. against closed-form expected cycle counts for the analytic oracle's
///    kernels ([`mallacc_validate::oracle`]): fetch- and commit-bound ALU
///    streams, dependent chains, port-bound streams, cold-miss and
///    mispredict penalties — this checks the simulator implements its own
///    timing specification (the `repro validate` subcommand additionally
///    enforces the per-kernel tolerance bands);
/// 2. against the paper's published native calibration point: tp_small's
///    ~18-cycle average malloc latency on real Haswell.
pub fn table1(scale: Scale) -> String {
    let mut t = Table::new(&["kernel", "bound by", "expected", "simulated", "error"]);
    let outcomes = oracle::run_all(4_000);
    let mut mean_err = 0.0;
    for o in &outcomes {
        mean_err += o.error_pct.abs() / outcomes.len() as f64;
        t.row_owned(vec![
            o.id.name().to_string(),
            o.id.bound_by().to_string(),
            format!("{:.1}", o.expected),
            o.simulated.to_string(),
            format!("{:.2}%", o.error_pct.abs()),
        ]);
    }
    let mut out = format!(
        "Table 1 — simulator validation against analytic kernels\n{}\nmean \
         kernel error: {mean_err:.2}%\n",
        t.render()
    );

    // Native calibration point from the paper's text.
    let s = run_micro(
        Mode::Baseline,
        Microbenchmark::TpSmall,
        scale,
        scale.seed_for(11),
    );
    out.push_str(&format!(
        "\ncalibration vs paper's native Haswell: tp_small mean malloc = \
         {:.1} cyc simulated vs ~18 cyc reported (retirement-attributed \
         pairs overlap in the window, so the simulated figure sits below \
         the isolated-call latency)\n",
        s.mean_malloc_cycles()
    ));
    out
}

/// One workload's Table 2 row: full-program speedup statistics and the
/// paper's significance filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Workload name.
    pub workload: String,
    /// Mean full-program speedup over the trials, percent.
    pub mean: f64,
    /// Sample standard deviation of the speedup.
    pub sd: f64,
    /// One-sided p-value against "no speedup"; `None` when the test is
    /// degenerate (zero variance).
    pub p_value: Option<f64>,
    /// Whether the speedup is significant at 95 % (the paper's row
    /// filter); `None` for a degenerate test.
    pub significant: Option<bool>,
}

/// Computes the Table 2 dataset: one [`Table2Row`] per macro workload.
pub fn table2_data(scale: Scale) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for w in MacroWorkload::all() {
        let mut speedups = Vec::with_capacity(scale.trials);
        for trial in 0..scale.trials as u64 {
            let seed = scale.seed_for(100 + trial * 17);
            let program = |mode: Mode| {
                let mut sim = MallocSim::new(mode);
                w.trace(scale.warmup, seed).replay(&mut sim);
                sim.reset_totals();
                w.trace(scale.calls, seed + 1).replay(&mut sim);
                sim.totals().program_cycles() as f64
            };
            let base = program(Mode::Baseline);
            let accel = program(Mode::mallacc_default());
            speedups.push(100.0 * (base - accel) / base);
        }
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let sd = mallacc_stats::Summary::from_iter(speedups.iter().copied()).sample_std_dev();
        let test = ttest::one_sample(&speedups, 0.0);
        rows.push(Table2Row {
            workload: w.name.to_string(),
            mean,
            sd,
            p_value: test.as_ref().map(|tt| tt.p_greater),
            significant: test.as_ref().map(|tt| tt.significant_at(0.05)),
        });
    }
    rows
}

/// Serialises the Table 2 dataset — exactly the numbers the text prints.
pub fn table2_json(rows: &[Table2Row]) -> mallacc_stats::Json {
    use mallacc_stats::Json;
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("workload", r.workload.as_str().into()),
                    ("speedup_mean_pct", r.mean.into()),
                    ("speedup_sd", r.sd.into()),
                    ("p_value", r.p_value.map_or(Json::Null, Json::from)),
                    ("significant", r.significant.map_or(Json::Null, Json::from)),
                ])
            })
            .collect(),
    )
}

/// Table 2 — full-program speedup with run-to-run variance and a
/// one-sided Student's t-test, exactly as the paper filters its rows:
/// workloads are reported only when the test rejects a hypothesis of
/// slowdown at 95 %+ probability. Rendered from its [`table2_data`]
/// dataset.
pub fn render_table2(rows: &[Table2Row], scale: Scale) -> String {
    let mut t = Table::new(&["workload", "speedup", "stddev", "p-value", ""]);
    for r in rows {
        let (p, verdict) = match (r.p_value, r.significant) {
            (Some(p), Some(sig)) => (
                format!("{p:.3}"),
                if sig {
                    "significant"
                } else {
                    "not significant (excluded in the paper)"
                },
            ),
            _ => ("n/a".to_string(), "degenerate"),
        };
        t.row_owned(vec![
            r.workload.clone(),
            format!("{:.2}%", r.mean),
            format!("{:.2}%", r.sd),
            p,
            verdict.to_string(),
        ]);
    }
    format!(
        "Table 2 — full program speedup over {} trials\n{}",
        scale.trials,
        t.render()
    )
}

/// §6.4 — the silicon-area accounting of the malloc cache.
pub fn area() -> String {
    let mut t = Table::new(&[
        "entries",
        "CAM bytes",
        "SRAM bytes",
        "CAM um2",
        "SRAM um2",
        "logic um2",
        "total um2",
        "core frac",
    ]);
    for n in [2usize, 4, 8, 16, 32] {
        let bits = AreaBits::for_entries(n);
        let a = AreaEstimate::for_entries(n);
        t.row_owned(vec![
            n.to_string(),
            bits.cam_bytes().to_string(),
            bits.sram_bytes().to_string(),
            format!("{:.0}", a.cam_um2),
            format!("{:.0}", a.sram_um2),
            format!("{:.0}", a.index_logic_um2),
            format!("{:.0}", a.total_um2()),
            format!("{:.5}%", 100.0 * a.core_fraction()),
        ]);
    }
    let a16 = AreaEstimate::for_entries(16);
    format!(
        "Section 6.4 — area cost of Mallacc (28 nm, CACTI-calibrated \
         constants)\n{}\npaper reference at 16 entries: 72 B CAM + 234 B \
         SRAM, 873 + 346 + 265 um2 ≈ 1484 um2 (< 1500 um2); this model: \
         {:.0} um2 = {:.4}% of a Haswell core\n",
        t.render(),
        a16.total_um2(),
        100.0 * a16.core_fraction()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_validates_within_ten_percent() {
        let s = table1(Scale::quick());
        assert!(s.contains("mean kernel error"));
        // Extract the mean error.
        let line = s
            .lines()
            .find(|l| l.starts_with("mean kernel error"))
            .unwrap();
        let v: f64 = line
            .trim_start_matches("mean kernel error: ")
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(v < 10.0, "mean kernel error {v}% too high");
    }

    #[test]
    fn area_matches_paper_bound() {
        let s = area();
        assert!(s.contains("1484"));
        assert!(s.contains("72"));
        assert!(s.contains("234"));
    }

    #[test]
    fn table2_has_all_rows() {
        let scale = Scale {
            calls: 800,
            warmup: 200,
            trials: 2,
            seed: 0,
        };
        let s = render_table2(&table2_data(scale), scale);
        assert!(s.starts_with("Table 2 — full program speedup over 2 trials\n"));
        for w in MacroWorkload::all() {
            assert!(s.contains(w.name));
        }
    }
}
