//! `BENCHMARK.json`: the benchmark's contract, parsed and checked against
//! the naming rules and against the metrics this program computes.

use mallacc_stats::json::{self, Json};

use crate::layers::LAYER_METRICS;
use crate::measure::E2E_METRICS;
use crate::workload::Workload;

const SPEC: &str = include_str!("../../../../../BENCHMARK.json");

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when higher is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// One per-layer metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<PerLayer>,
}

/// The committed `BENCHMARK.json`, checked.
pub fn spec() -> Result<Spec, String> {
    parse(SPEC)
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn valid_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|p| p == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn keys_exactly(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{what} must be an object"))?;
    let mut have: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = keys.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!(
            "{what} must have exactly the keys {keys:?}, has {have:?}"
        ))
    }
}

fn str_of<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: {key:?} must be a string"))
}

fn list<'a>(doc: &'a Json, key: &str, lo: usize, hi: usize) -> Result<&'a [Json], String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{key} must be an array"))?;
    if (lo..=hi).contains(&items.len()) {
        Ok(items)
    } else {
        Err(format!(
            "{key} needs {lo} to {hi} entries, has {}",
            items.len()
        ))
    }
}

fn better(v: &Json, what: &str) -> Result<bool, String> {
    match str_of(v, "better", what)? {
        "higher" => Ok(true),
        "lower" => Ok(false),
        other => Err(format!(
            "{what}: better must be higher or lower, not {other:?}"
        )),
    }
}

/// Parses and checks a contract document.
pub fn parse(text: &str) -> Result<Spec, String> {
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json exceeds 64 KiB".to_string());
    }
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {}", e.message))?;
    keys_exactly(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;

    let command = list(&doc, "command", 1, 32)?;
    for part in command {
        let s = part.as_str().ok_or("command entries must be strings")?;
        if s.len() > 200 || s.starts_with('/') || s.split('/').any(|p| p == "..") {
            return Err(format!("command entry {s:?} is not allowed"));
        }
    }
    for p in list(&doc, "paths", 1, 16)? {
        let s = p.as_str().ok_or("paths entries must be strings")?;
        if !valid_path(s) {
            return Err(format!("path {s:?} is not allowed"));
        }
    }
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("run_seconds must be a number")?;
    if secs.fract() != 0.0 || !(1.0..=60.0).contains(&secs) {
        return Err(format!(
            "run_seconds must be a whole number in 1..=60, is {secs}"
        ));
    }

    let mut seen: Vec<String> = Vec::new();
    let mut name_of = |v: &Json, what: &str| -> Result<String, String> {
        let name = str_of(v, "name", what)?;
        if !valid_name(name) {
            return Err(format!("{what}: bad name {name:?}"));
        }
        if seen.iter().any(|s| s == name) {
            return Err(format!("{what}: name {name:?} is used twice"));
        }
        seen.push(name.to_string());
        Ok(name.to_string())
    };

    let mut workloads = Vec::new();
    for w in list(&doc, "workloads", 2, 8)? {
        keys_exactly(w, &["name", "why"], "workload")?;
        let name = name_of(w, "workload")?;
        let why = str_of(w, "why", &name)?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "{name}: why must be one line of at most 200 characters"
            ));
        }
        workloads.push(name);
    }

    let mut end_to_end = Vec::new();
    for m in list(&doc, "end_to_end", 1, 16)? {
        keys_exactly(m, &["name", "unit", "better", "bound"], "end_to_end metric")?;
        let name = name_of(m, "end_to_end metric")?;
        let unit = str_of(m, "unit", &name)?.to_string();
        if !valid_unit(&unit) {
            return Err(format!("{name}: bad unit {unit:?}"));
        }
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{name}: bound must be a number"))?;
        if !(0.0..=0.25).contains(&bound) {
            return Err(format!("{name}: bound {bound} is outside 0..=0.25"));
        }
        let higher = better(m, &name)?;
        end_to_end.push(EndToEnd {
            name,
            unit,
            higher,
            bound,
        });
    }

    let mut per_layer = Vec::new();
    for m in list(&doc, "per_layer", 1, 128)? {
        keys_exactly(m, &["name", "unit", "better"], "per_layer metric")?;
        let name = name_of(m, "per_layer metric")?;
        let unit = str_of(m, "unit", &name)?.to_string();
        if !valid_unit(&unit) {
            return Err(format!("{name}: bad unit {unit:?}"));
        }
        better(m, &name)?;
        per_layer.push(PerLayer { name, unit });
    }

    let spec = Spec {
        workloads,
        end_to_end,
        per_layer,
    };
    spec.check_against_code()?;
    Ok(spec)
}

impl Spec {
    /// Checks that the contract names what this program computes: the
    /// same workloads, metrics it reports with the same units, a set-up
    /// metric with the largest bound, and a layer-to-end-to-end prediction
    /// for every per-layer metric.
    fn check_against_code(&self) -> Result<(), String> {
        let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if self.workloads != code {
            return Err(format!(
                "workloads {:?} differ from the benchmark's {code:?}",
                self.workloads
            ));
        }
        for m in &self.end_to_end {
            let Some(&(_, unit, better)) = E2E_METRICS.iter().find(|e| e.0 == m.name) else {
                return Err(format!("end_to_end metric {} is not computed", m.name));
            };
            if unit != m.unit || (better == "higher") != m.higher {
                return Err(format!(
                    "{}: unit or direction differs from the code",
                    m.name
                ));
            }
        }
        let setup = self
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("end_to_end must include setup_s")?;
        if setup.unit != "s" || setup.higher {
            return Err("setup_s must be in s with better = lower".to_string());
        }
        if self.end_to_end.iter().any(|m| m.bound > setup.bound) {
            return Err("setup_s must have the largest bound".to_string());
        }
        for m in &self.per_layer {
            let Some(&(_, unit, moves, on, flat_on)) = LAYER_METRICS.iter().find(|l| l.0 == m.name)
            else {
                return Err(format!("per_layer metric {} is not computed", m.name));
            };
            if unit != m.unit {
                return Err(format!(
                    "{}: unit {} differs from the code's {unit}",
                    m.name, m.unit
                ));
            }
            if !E2E_METRICS.iter().any(|e| e.0 == moves) {
                return Err(format!("{}: moves unknown metric {moves}", m.name));
            }
            for w in [on, flat_on] {
                if Workload::by_name(w).is_none() {
                    return Err(format!("{}: names unknown workload {w}", m.name));
                }
            }
        }
        Ok(())
    }
}
