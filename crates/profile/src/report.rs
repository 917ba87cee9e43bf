//! Kernel runners and attribution reports: the Figure 2-style breakdown
//! of where fast-path malloc/free cycles go, per configuration.

use mallacc::{
    CallKind, CallLabel, Component, MallocCacheStats, MallocSim, Mode, SimTotals, StallBreakdown,
    StallReason,
};
use mallacc_stats::table::{pct, Table};
use mallacc_stats::{Breakdown, Json};

use crate::profiler::{OpAgg, Profiler};

/// Everything measured for one simulator configuration.
#[derive(Debug)]
pub struct ModeProfile {
    /// Configuration label (`baseline`, `mallacc`, `limit`).
    pub label: String,
    /// Per-call-kind aggregates, in [`CallKind::ALL`] order (kinds that
    /// never occurred are absent).
    pub ops: Vec<OpAgg>,
    /// Attribution of cycles outside any malloc/free window.
    pub outside: StallBreakdown,
    /// Malloc-cache event counters (all zero for the baseline).
    pub mc: MallocCacheStats,
    /// The driver's own cycle totals, for cross-checking.
    pub totals: SimTotals,
}

impl ModeProfile {
    /// Cycles across all profiled operations.
    pub fn op_cycles(&self) -> u64 {
        self.ops.iter().map(|a| a.cycles).sum()
    }

    /// Operation count across all kinds.
    pub fn op_count(&self) -> u64 {
        self.ops.iter().map(|a| a.count).sum()
    }

    /// The aggregate for one call-kind label, if it occurred.
    pub fn agg(&self, name: &str) -> Option<&OpAgg> {
        self.ops.iter().find(|a| a.name == name)
    }

    /// Component cycles summed over every profiled operation, as an
    /// integer [`Breakdown`] (same numbers in table and JSON).
    pub fn component_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::new();
        for comp in Component::ALL {
            let cycles: u64 = self.ops.iter().map(|a| a.components[comp.index()]).sum();
            if cycles > 0 {
                b.push(comp.label(), cycles);
            }
        }
        b
    }

    /// Stall-reason cycles summed over every profiled operation.
    pub fn stall_breakdown(&self) -> Breakdown {
        let mut stall = StallBreakdown::new();
        for a in &self.ops {
            stall.merge(&a.stall);
        }
        let mut b = Breakdown::new();
        for (reason, cycles) in stall.iter() {
            if cycles > 0 {
                b.push(reason.label(), cycles);
            }
        }
        b
    }
}

/// Runs the canonical warm fast-path kernel — rotating malloc/free pairs
/// over four small size classes, the shape of the paper's `tp_small`
/// microbenchmark — under `mode`, with attribution enabled after
/// `warmup` untraced pairs. Returns the mode profile and the raw
/// profiler (which retains up to `keep_uops` µop samples for traces).
pub fn profile_fastpath(
    mode: Mode,
    label: &str,
    pairs: u64,
    warmup: u64,
    keep_uops: usize,
) -> (ModeProfile, Box<Profiler>) {
    let mut sim = MallocSim::new(mode);
    for i in 0..warmup {
        let r = sim.malloc(32 + (i % 4) * 32);
        sim.free(r.ptr, true);
    }
    sim.reset_totals();
    let mc_before = sim.malloc_cache().stats();
    sim.attach_tracer(Box::new(Profiler::new(0).with_uop_samples(keep_uops)));
    for i in 0..pairs {
        let r = sim.malloc(32 + (i % 4) * 32);
        sim.free(r.ptr, true);
    }
    let profiler =
        Profiler::from_sink(sim.detach_tracer().expect("tracer attached")).expect("profiler");
    let mc_after = sim.malloc_cache().stats();
    let profile = ModeProfile {
        label: label.to_string(),
        ops: canonical_order(profiler.aggregates()),
        outside: profiler.outside(),
        mc: mc_delta(&mc_before, &mc_after),
        totals: sim.totals(),
    };
    (profile, profiler)
}

/// Sorts aggregates into [`CallKind::ALL`] order, unknown labels last.
fn canonical_order(aggs: &[OpAgg]) -> Vec<OpAgg> {
    let rank = |name: &str| {
        CallKind::ALL
            .iter()
            .position(|k| k.label() == name)
            .unwrap_or(CallKind::ALL.len())
    };
    let mut out = aggs.to_vec();
    out.sort_by_key(|a| rank(&a.name));
    out
}

fn mc_delta(before: &MallocCacheStats, after: &MallocCacheStats) -> MallocCacheStats {
    MallocCacheStats {
        lookup_hits: after.lookup_hits - before.lookup_hits,
        lookup_misses: after.lookup_misses - before.lookup_misses,
        inserts: after.inserts - before.inserts,
        range_extends: after.range_extends - before.range_extends,
        evictions: after.evictions - before.evictions,
        pop_hits: after.pop_hits - before.pop_hits,
        pop_misses: after.pop_misses - before.pop_misses,
        push_hits: after.push_hits - before.push_hits,
        prefetches: after.prefetches - before.prefetches,
        blocked_cycles: after.blocked_cycles - before.blocked_cycles,
        list_invalidations: after.list_invalidations - before.list_invalidations,
    }
}

/// Renders the per-operation stall-reason attribution table for one mode:
/// one row per call kind, one column per stall reason, with mean cycles
/// and the conservation check (`sum == total`) made visible.
pub fn render_stall_table(profile: &ModeProfile) -> String {
    let mut headers: Vec<&str> = vec!["op", "count", "mean cyc"];
    headers.extend(StallReason::ALL.iter().map(|r| r.label()));
    headers.push("sum");
    let mut t = Table::new(&headers);
    for a in &profile.ops {
        let mut cells = vec![
            a.name.clone(),
            a.count.to_string(),
            format!("{:.1}", a.mean_cycles()),
        ];
        for reason in StallReason::ALL {
            cells.push(a.stall.get(reason).to_string());
        }
        cells.push(format!("{}/{}", a.stall.total(), a.cycles));
        t.row_owned(cells);
    }
    t.render()
}

/// Renders the Figure 2-style component table: for each mode, the share
/// of profiled allocator cycles spent in each component (size-class
/// lookup, free-list pointer chase, sampling, metadata, ...).
pub fn render_component_table(profiles: &[&ModeProfile]) -> String {
    let mut headers: Vec<String> = vec!["component".to_string()];
    for p in profiles {
        headers.push(format!("{} cyc", p.label));
        headers.push(format!("{} %", p.label));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let breakdowns: Vec<Breakdown> = profiles.iter().map(|p| p.component_breakdown()).collect();
    for comp in Component::ALL {
        if breakdowns
            .iter()
            .all(|b| b.cycles_of(comp.label()).is_none())
        {
            continue;
        }
        let mut cells = vec![comp.label().to_string()];
        for b in &breakdowns {
            let cycles = b.cycles_of(comp.label()).unwrap_or(0);
            cells.push(cycles.to_string());
            let total = b.total();
            let frac = if total == 0 {
                0.0
            } else {
                cycles as f64 / total as f64
            };
            cells.push(pct(frac));
        }
        t.row_owned(cells);
    }
    let mut cells = vec!["total".to_string()];
    for b in &breakdowns {
        cells.push(b.total().to_string());
        cells.push(pct(if b.total() > 0 { 1.0 } else { 0.0 }));
    }
    t.row_owned(cells);
    t.render()
}

/// Renders the malloc-cache event counters for one mode.
pub fn render_mc_table(profiles: &[&ModeProfile]) -> String {
    let mut headers: Vec<&str> = vec!["counter"];
    for p in profiles {
        headers.push(&p.label);
    }
    let mut t = Table::new(&headers);
    type Getter = fn(&MallocCacheStats) -> u64;
    let rows: [(&str, Getter); 10] = [
        ("szlookup hit", |m| m.lookup_hits),
        ("szlookup miss", |m| m.lookup_misses),
        ("szupdate insert", |m| m.inserts),
        ("szupdate extend", |m| m.range_extends),
        ("evict", |m| m.evictions),
        ("hdpop hit", |m| m.pop_hits),
        ("hdpop miss", |m| m.pop_misses),
        ("hdpush hit", |m| m.push_hits),
        ("prefetch issued", |m| m.prefetches),
        ("prefetch-block cyc", |m| m.blocked_cycles),
    ];
    for (name, get) in rows {
        let mut cells = vec![name.to_string()];
        for p in profiles {
            cells.push(get(&p.mc).to_string());
        }
        t.row_owned(cells);
    }
    t.render()
}

fn stall_json(stall: &StallBreakdown) -> Json {
    let mut b = Breakdown::new();
    for (reason, cycles) in stall.iter() {
        b.push(reason.label(), cycles);
    }
    b.to_json()
}

fn agg_json(a: &OpAgg) -> Json {
    let mut comps = Breakdown::new();
    for comp in Component::ALL {
        comps.push(comp.label(), a.components[comp.index()]);
    }
    Json::obj([
        ("name", Json::from(a.name.as_str())),
        ("count", Json::from(a.count)),
        ("cycles", Json::from(a.cycles)),
        (
            "mean_cycles",
            Json::Num((a.cycles as f64 / a.count.max(1) as f64 * 1000.0).round() / 1000.0),
        ),
        ("stall", stall_json(&a.stall)),
        ("components", comps.to_json()),
    ])
}

fn mc_json(m: &MallocCacheStats) -> Json {
    Json::obj([
        ("lookup_hits", Json::from(m.lookup_hits)),
        ("lookup_misses", Json::from(m.lookup_misses)),
        ("inserts", Json::from(m.inserts)),
        ("range_extends", Json::from(m.range_extends)),
        ("evictions", Json::from(m.evictions)),
        ("pop_hits", Json::from(m.pop_hits)),
        ("pop_misses", Json::from(m.pop_misses)),
        ("push_hits", Json::from(m.push_hits)),
        ("prefetches", Json::from(m.prefetches)),
        ("blocked_cycles", Json::from(m.blocked_cycles)),
        ("list_invalidations", Json::from(m.list_invalidations)),
    ])
}

/// The machine-readable dataset for one mode — the same shape family as
/// `repro --json`: every cycle count is an integer read from the same
/// accumulators the tables print.
pub fn mode_json(profile: &ModeProfile) -> Json {
    Json::obj([
        ("label", Json::from(profile.label.as_str())),
        ("ops", Json::Arr(profile.ops.iter().map(agg_json).collect())),
        ("op_count", Json::from(profile.op_count())),
        ("op_cycles", Json::from(profile.op_cycles())),
        ("components", profile.component_breakdown().to_json()),
        ("stall", profile.stall_breakdown().to_json()),
        ("outside", stall_json(&profile.outside)),
        ("malloc_cache", mc_json(&profile.mc)),
        (
            "totals",
            Json::obj([
                ("malloc_calls", Json::from(profile.totals.malloc_calls)),
                ("malloc_cycles", Json::from(profile.totals.malloc_cycles)),
                ("free_calls", Json::from(profile.totals.free_calls)),
                ("free_cycles", Json::from(profile.totals.free_cycles)),
                ("app_cycles", Json::from(profile.totals.app_cycles)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastpath_profile_conserves_against_driver_totals() {
        let (p, prof) = profile_fastpath(Mode::Baseline, "baseline", 200, 50, 0);
        assert_eq!(prof.conservation_violations(), 0);
        // Profiled op cycles equal the driver's own malloc+free totals:
        // two independent accountings of the same run.
        assert_eq!(p.op_cycles(), p.totals.allocator_cycles());
        assert_eq!(p.op_count(), p.totals.malloc_calls + p.totals.free_calls);
    }

    #[test]
    fn mallacc_shrinks_size_class_and_list_op_slices() {
        let (base, _) = profile_fastpath(Mode::Baseline, "baseline", 300, 50, 0);
        let (mall, _) = profile_fastpath(Mode::mallacc_default(), "mallacc", 300, 50, 0);
        let b = base.component_breakdown();
        let m = mall.component_breakdown();
        let slice = |bd: &Breakdown, label: &str| bd.cycles_of(label).unwrap_or(0);
        assert!(slice(&m, "size_class") < slice(&b, "size_class"));
        assert!(m.total() < b.total(), "mallacc is faster overall");
        assert!(mall.mc.lookup_hits > 0, "malloc cache saw traffic");
    }

    #[test]
    fn tables_and_json_are_deterministic() {
        let run = || {
            let (p, _) = profile_fastpath(Mode::mallacc_default(), "mallacc", 64, 16, 0);
            (render_stall_table(&p), mode_json(&p).render())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn component_table_mentions_the_figure2_slices() {
        let (p, _) = profile_fastpath(Mode::Baseline, "baseline", 100, 20, 0);
        let table = render_component_table(&[&p]);
        assert!(table.contains("size_class"), "{table}");
        assert!(table.contains("list_op"), "{table}");
    }
}
