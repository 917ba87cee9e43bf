//! Flag order never changes what a `repro` command line means: each
//! entry point applies its preset (`--smoke`, `--full`, `--quick`,
//! `--preset`) first and the explicit values after, wherever they stand.
//! Every order of each command line below must parse to the same
//! arguments, and the explicit values must survive the preset.

use mallacc_bench::explore_cli::ExploreArgs;
use mallacc_bench::fleet_cli::FleetArgs;
use mallacc_bench::offload_cli::OffloadArgs;
use mallacc_bench::paper_cli::PaperArgs;
use mallacc_bench::profile_cli::ProfileArgs;
use mallacc_bench::sample_cli::SampleArgs;
use mallacc_bench::substrate_cli::SubstrateArgs;
use mallacc_bench::validate_cli::ValidateArgs;
use mallacc_workloads::AnyWorkload;

/// Every order of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

/// The names of resolved workloads.
fn names(workloads: &[AnyWorkload]) -> Vec<&str> {
    workloads.iter().map(AnyWorkload::name).collect()
}

/// Parses `prefix` followed by every order of the flag `groups` (a flag
/// with its value, if any) and asserts that all orders agree. Returns
/// the arguments the first order parsed to.
fn same_in_every_order<A: std::fmt::Debug>(
    parse: fn(&[String]) -> Result<A, String>,
    prefix: &[&str],
    groups: &[&str],
) -> A {
    let mut first: Option<(String, A)> = None;
    for order in permutations(groups) {
        let args: Vec<String> = prefix
            .iter()
            .copied()
            .chain(order.iter().flat_map(|group| group.split_whitespace()))
            .map(String::from)
            .collect();
        let parsed = parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        let debug = format!("{parsed:?}");
        match &first {
            None => first = Some((debug, parsed)),
            Some((expected, _)) => assert_eq!(&debug, expected, "{args:?}"),
        }
    }
    first.expect("at least one order").1
}

#[test]
fn paper_flags_override_quick_in_any_order() {
    let a = same_in_every_order(
        PaperArgs::parse,
        &["fig13"],
        &[
            "--quick",
            "--calls 300",
            "--trials 2",
            "--seed 5",
            "--no-index-opt",
            "--json out.json",
        ],
    );
    assert_eq!((a.scale.calls, a.scale.warmup), (300, 300));
    assert_eq!((a.scale.trials, a.scale.seed), (2, 5));
    assert!(!a.index_keying);
}

#[test]
fn profile_sizes_override_smoke_and_quick_in_any_order() {
    let a = same_in_every_order(
        ProfileArgs::parse,
        &[],
        &["--smoke", "--quick", "--pairs 7", "--uops 9", "--jobs 3"],
    );
    assert_eq!((a.pairs, a.warmup, a.mt_calls), (7, 100, 100));
    assert_eq!((a.uops, a.jobs), (9, 3));
}

#[test]
fn explore_grid_overrides_smoke_in_any_order() {
    let a = same_in_every_order(
        ExploreArgs::parse,
        &[],
        &[
            "--smoke",
            "--grid entries=2,4",
            "--quick",
            "--seed 7",
            "--jobs 2",
        ],
    );
    assert_eq!(a.grid.entries, [2, 4]);
    assert_eq!((a.grid.seed, a.jobs), (7, 2));
}

#[test]
fn validate_values_override_full_in_any_order() {
    let a = same_in_every_order(
        ValidateArgs::parse,
        &[],
        &["--full", "--fuzz 7", "--laws 3", "--seed 9", "--jobs 2"],
    );
    assert_eq!((a.fuzz_slots, a.law_cases, a.seed), (7, 3, 9));
    assert_eq!(a.kernel_n, 20_000);
    assert!(a.require_full_coverage);
}

#[test]
fn fleet_values_override_smoke_in_any_order() {
    let a = same_in_every_order(
        FleetArgs::parse,
        &[],
        &[
            "--smoke",
            "--requests 50",
            "--cores 1,2",
            "--scenario rpc-fanout",
            "--seed 7",
        ],
    );
    assert_eq!(a.config.strong_requests, 50);
    assert_eq!(a.config.core_counts, [1, 2]);
    assert_eq!(a.config.scenarios.len(), 1);
    assert_eq!(a.config.seed, 7);
}

#[test]
fn offload_values_override_full_in_any_order() {
    let a = same_in_every_order(
        OffloadArgs::parse,
        &[],
        &[
            "--full",
            "--calls 300",
            "--workload tp",
            "--depths 2,4",
            "--substrate rpmalloc",
        ],
    );
    assert_eq!((a.calls, a.warmup), (300, 2_000));
    assert_eq!(names(&a.workloads), ["tp"]);
    assert_eq!(a.depths, [2, 4]);
}

#[test]
fn sample_values_override_full_in_any_order() {
    let a = same_in_every_order(
        SampleArgs::parse,
        &[],
        &[
            "--full",
            "--mallocs 500",
            "--workload gauss",
            "--plan 64:256:4096",
            "--seed 3",
        ],
    );
    assert_eq!((a.mallocs, a.plan.period, a.seed), (500, 4_096, 3));
    assert_eq!(names(&a.workloads), ["gauss"]);
}

#[test]
fn substrate_values_override_full_in_any_order() {
    let a = same_in_every_order(
        SubstrateArgs::parse,
        &[],
        &[
            "--full",
            "--calls 300",
            "--substrate rpmalloc",
            "--workload gauss",
            "--sim sampled",
        ],
    );
    assert_eq!((a.calls, a.warmup), (300, 2_000));
    assert_eq!(a.substrates.len(), 1);
    assert_eq!(names(&a.workloads), ["gauss"]);
}
