//! Property suite over the fleet scenario engine: arrival determinism,
//! request/block conservation on arbitrary scenario parameters, and
//! byte-identical reports for every `--jobs` value.
//!
//! Scenario parameters come from the shared
//! [`mallacc_test_support::arb_fleet_params`] generator so this suite,
//! the unit tests and future suites draw from the same distribution.

use std::collections::HashMap;

use proptest::prelude::*;

use mallacc_bench::fleet_cli::{fleet_report, FleetArgs};
use mallacc_fleet::{Arrivals, FleetConfig, Scenario};
use mallacc_test_support::{arb_fleet_params, FleetParams};
use mallacc_workloads::MtOp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fixed seed fully determines the arrival gap sequence, and the
    /// whole op stream built on top of it: two streams with identical
    /// parameters are equal op for op.
    #[test]
    fn arrivals_and_streams_are_deterministic(p in arb_fleet_params()) {
        let FleetParams { scenario, cores, requests, seed } = p;
        let s = Scenario::by_name(scenario).unwrap();

        let gaps_a: Vec<u32> = Arrivals::new(s.arrival, seed).take(64).collect();
        let gaps_b: Vec<u32> = Arrivals::new(s.arrival, seed).take(64).collect();
        prop_assert_eq!(gaps_a, gaps_b, "arrival gaps drifted for a fixed seed");

        let ops_a: Vec<_> = s.stream(cores, requests, seed).collect();
        let ops_b: Vec<_> = s.stream(cores, requests, seed).collect();
        prop_assert_eq!(ops_a, ops_b, "op stream drifted for a fixed seed");
    }

    /// Conservation on arbitrary parameters: every issued request
    /// retires, every malloc'd token is freed exactly once, and every
    /// emitted core index is in range.
    #[test]
    fn streams_conserve_requests_and_blocks(p in arb_fleet_params()) {
        let FleetParams { scenario, cores, requests, seed } = p;
        let s = Scenario::by_name(scenario).unwrap();
        let mut stream = s.stream(cores, requests, seed);
        let mut live: HashMap<u64, ()> = HashMap::new();
        for (core, op) in &mut stream {
            prop_assert!(core < cores, "core {core} out of range");
            match op {
                MtOp::Malloc { token, .. } => {
                    prop_assert!(live.insert(token, ()).is_none(), "token reused live");
                }
                MtOp::Free { token, .. } => {
                    prop_assert!(live.remove(&token).is_some(), "freed unknown token");
                }
                _ => {}
            }
        }
        prop_assert!(live.is_empty(), "leaked {} blocks", live.len());
        prop_assert_eq!(stream.requests_issued(), requests);
        prop_assert_eq!(stream.requests_retired(), requests);
    }
}

proptest! {
    // Each case runs four full multi-core simulations (2 cells × 2
    // modes, twice), so the volume stays low; the fixed-seed golden test
    // covers the smoke configuration exhaustively.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `--jobs` parallelism never changes a byte of the report, for
    /// arbitrary seeds and scenarios — the invariant the golden snapshot
    /// pins for one configuration, generalised.
    /// The core axis rides the generator's full range — including the
    /// wide 16/32-core draws of the lifted cap — so jobs-invariance is
    /// not a small-machine artefact.
    #[test]
    fn report_bytes_are_jobs_invariant(p in arb_fleet_params()) {
        let args = |jobs: usize| FleetArgs {
            config: FleetConfig {
                scenarios: vec![Scenario::by_name(p.scenario).unwrap()],
                core_counts: vec![1, p.cores.clamp(2, 32)],
                strong_requests: p.requests.max(8),
                weak_requests_per_core: (p.requests / 2).max(4),
                ..FleetConfig::full(p.seed, jobs)
            },
            json: None,
        };
        let (c1, seq) = fleet_report(&args(1));
        let (c4, par) = fleet_report(&args(4));
        prop_assert_eq!((c1, c4), (0, 0));
        prop_assert_eq!(seq, par, "--jobs changed the report bytes");
    }
}
