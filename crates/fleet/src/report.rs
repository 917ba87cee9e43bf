//! Deterministic text and JSON rendering of a fleet sweep.
//!
//! Both renderers are pure functions of the [`FleetResult`], formatted
//! with fixed precision, so reports are byte-identical across hosts and
//! `--jobs` values — which is what makes them golden-snapshot material.

use std::fmt::Write as _;

use mallacc_stats::Json;

use crate::engine::{CellResult, FleetResult, RunMeasure, Scaling, KNEE_THRESHOLD_PCT};
use crate::scenario::Scenario;

/// Renders the human-readable fleet report.
pub fn render_report(r: &FleetResult) -> String {
    let mut out = String::new();
    let cores: Vec<String> = r.config.core_counts.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "fleet report");
    let _ = writeln!(
        out,
        "seed {} | cores {} | strong {} req | weak {} req/core",
        r.config.seed,
        cores.join(","),
        r.config.strong_requests,
        r.config.weak_requests_per_core
    );
    for &scenario in &r.config.scenarios {
        render_scenario(&mut out, r, scenario);
    }
    out
}

fn render_scenario(out: &mut String, r: &FleetResult, s: &Scenario) {
    let _ = writeln!(out);
    let _ = writeln!(out, "== {}: {}", s.name, s.description);
    let _ = writeln!(
        out,
        "   topology {} | inflight {}",
        s.profile.topology.name(),
        s.inflight
    );

    for scaling in [Scaling::Strong, Scaling::Weak] {
        let curve = r.curve(s.name, scaling);
        let volume = match scaling {
            Scaling::Strong => format!("{} requests total", r.config.strong_requests),
            Scaling::Weak => format!("{} requests/core", r.config.weak_requests_per_core),
        };
        let _ = writeln!(out);
        let _ = writeln!(out, "{} scaling ({volume})", scaling.name());
        let _ = writeln!(
            out,
            " cores  base cyc/call  mallacc cyc/call  speedup  base makespan  mallacc makespan  mc hit%"
        );
        for c in curve {
            let _ = writeln!(
                out,
                " {:>5}  {:>13.1}  {:>16.1}  {:>6.2}x  {:>13}  {:>16}  {:>7.1}",
                c.cores,
                c.base.cycles_per_call,
                c.accel.cycles_per_call,
                c.call_speedup(),
                c.base.makespan,
                c.accel.makespan,
                c.accel.mc_hit_pct
            );
        }
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "malloc tail latency, strong scaling (cycles)");
    let _ = writeln!(
        out,
        " cores  base p50/p99/p999     mallacc p50/p99/p999  d-p99%"
    );
    for c in r.curve(s.name, Scaling::Strong) {
        let _ = writeln!(
            out,
            " {:>5}  {:>19}  {:>20}  {:>6.1}",
            c.cores,
            format!("{}/{}/{}", c.base.p50, c.base.p99, c.base.p999),
            format!("{}/{}/{}", c.accel.p50, c.accel.p99, c.accel.p999),
            c.p99_improvement_pct()
        );
    }
    match r.p99_knee(s.name) {
        Some(cores) => {
            let _ = writeln!(
                out,
                "p99 knee: mallacc p99 gain drops below {KNEE_THRESHOLD_PCT:.1}% at {cores} cores"
            );
        }
        None => {
            let max = r.config.core_counts.iter().max().unwrap_or(&0);
            let _ = writeln!(
                out,
                "p99 knee: not reached — mallacc keeps >= {KNEE_THRESHOLD_PCT:.1}% p99 gain through {max} cores"
            );
        }
    }
}

/// Builds the machine-readable report (stable key order; render with
/// [`Json::render_pretty`]).
pub fn json_doc(r: &FleetResult) -> Json {
    Json::obj([
        ("schema", Json::from("mallacc-fleet/1")),
        ("seed", Json::from(r.config.seed)),
        (
            "core_counts",
            Json::Arr(
                r.config
                    .core_counts
                    .iter()
                    .map(|&c| Json::from(c))
                    .collect(),
            ),
        ),
        ("strong_requests", Json::from(r.config.strong_requests)),
        (
            "weak_requests_per_core",
            Json::from(r.config.weak_requests_per_core),
        ),
        ("knee_threshold_pct", Json::from(KNEE_THRESHOLD_PCT)),
        (
            "knees",
            Json::Obj(
                r.config
                    .scenarios
                    .iter()
                    .map(|s| {
                        let knee = match r.p99_knee(s.name) {
                            Some(c) => Json::from(c),
                            None => Json::Null,
                        };
                        (s.name.to_string(), knee)
                    })
                    .collect(),
            ),
        ),
        ("cells", Json::Arr(r.cells.iter().map(cell_json).collect())),
    ])
}

fn measure_json(m: &RunMeasure) -> Json {
    Json::obj([
        ("cycles_per_call", Json::from(m.cycles_per_call)),
        ("makespan", Json::from(m.makespan)),
        ("malloc_calls", Json::from(m.malloc_calls)),
        ("free_calls", Json::from(m.free_calls)),
        ("p50", Json::from(m.p50)),
        ("p99", Json::from(m.p99)),
        ("p999", Json::from(m.p999)),
        ("mc_hit_pct", Json::from(m.mc_hit_pct)),
    ])
}

fn cell_json(c: &CellResult) -> Json {
    Json::obj([
        ("scenario", Json::from(c.scenario)),
        ("cores", Json::from(c.cores)),
        ("scaling", Json::from(c.scaling.name())),
        ("requests", Json::from(c.requests)),
        ("base", measure_json(&c.base)),
        ("mallacc", measure_json(&c.accel)),
        ("p99_improvement_pct", Json::from(c.p99_improvement_pct())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_fleet, FleetConfig};

    fn small_result() -> FleetResult {
        run_fleet(&FleetConfig {
            scenarios: vec![Scenario::by_name("rpc-fanout").unwrap()],
            core_counts: vec![1, 2],
            strong_requests: 16,
            weak_requests_per_core: 8,
            seed: 7,
            jobs: 2,
            sim: mallacc::SimMode::Full,
        })
    }

    #[test]
    fn report_mentions_every_section() {
        let text = render_report(&small_result());
        for needle in [
            "fleet report",
            "== rpc-fanout",
            "strong scaling",
            "weak scaling",
            "malloc tail latency",
            "p99 knee",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn report_is_a_pure_function_of_the_result() {
        let r = small_result();
        assert_eq!(render_report(&r), render_report(&r));
        assert_eq!(json_doc(&r).render_pretty(), json_doc(&r).render_pretty());
    }

    #[test]
    fn json_is_structurally_sound() {
        let j = json_doc(&small_result()).render_pretty();
        // Cheap structural checks (no JSON parser in-tree): balanced
        // braces/brackets and the expected keys.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"seed\"",
            "\"knees\"",
            "\"cells\"",
            "\"p99\"",
            "\"mallacc\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches("\"scenario\"").count(), 4, "4 cells expected");
    }
}
