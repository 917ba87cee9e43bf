//! The simulated-result digests committed beside the benchmark.
//!
//! `baseline.json` holds, per pinned seed and workload, the digest of every
//! job's simulated result at full size. A run checks the reference seed
//! against them before timing anything, so a change that alters a single
//! simulated cycle reads `"correct": false` whatever seed it is measured
//! with. The file also records the host the bounds were calibrated on.

use mallacc_stats::json::{self, Json};

use crate::workload::Workload;

const BASELINE: &str = include_str!("baseline.json");

/// The seed whose digests every full-size run checks first.
pub const REFERENCE_SEED: u64 = 42;

/// The held-out seed: used for nothing but the determinism check.
pub const HELD_OUT_SEED: u64 = 7;

fn doc() -> Json {
    json::parse(BASELINE).expect("baseline.json is valid JSON")
}

/// The committed per-job digests of `workload` at `seed`, if recorded.
pub fn digests(seed: u64, workload: Workload) -> Option<Vec<u64>> {
    doc()
        .get("digests")?
        .get(&seed.to_string())?
        .get(workload.name())?
        .as_arr()?
        .iter()
        .map(|d| d.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
        .collect()
}

/// `digests` entries for `seed`, rendered the way `baseline.json` stores
/// them, for refreshing the file after an intended model change.
pub fn render(seed: u64, per_workload: &[(Workload, Vec<u64>)]) -> String {
    let body = per_workload
        .iter()
        .map(|(w, d)| {
            let hex: Vec<Json> = d.iter().map(|x| Json::Str(format!("{x:016x}"))).collect();
            (w.name().to_string(), Json::Arr(hex))
        })
        .collect();
    Json::Obj(vec![(seed.to_string(), Json::Obj(body))]).render_pretty()
}
