//! Tier-1 smoke of the bench layer: every kernel in the registry builds
//! and runs at tiny N — no timing assertions, just "bench code cannot
//! bit-rot". Also pins the properties `bench compare` relies on:
//! per-kernel determinism across iterations and thread-budget invariance
//! of the treesort checksums.

use optipart_bench::kernels::{self, checksum_cells, shuffled};
use optipart_bench::report::{compare_reports, KernelResult, Report};
use optipart_core::treesort::{treesort_reference, treesort_scoped};
use optipart_sfc::{Curve, MAX_DEPTH};

/// Every registry kernel runs at tiny N and returns the same checksum on
/// consecutive iterations (the determinism `bench compare` gates on).
#[test]
fn every_kernel_runs_and_is_deterministic_at_tiny_n() {
    let reg = kernels::registry();
    assert!(reg.len() >= 12, "registry shrank to {}", reg.len());
    for k in reg {
        let mut prep = (k.build)(k.tiny_n);
        assert!(prep.elements > 0, "{}: zero elements", k.name);
        let first = (prep.run)();
        let second = (prep.run)();
        assert_eq!(
            first, second,
            "{}: checksum changed between iterations",
            k.name
        );
    }
}

/// The treesort kernel family computes the same permutation: optimised
/// (any thread budget) and reference checksums agree on the bench input.
#[test]
fn treesort_kernel_checksums_agree_across_variants() {
    let input = shuffled(3_000, Curve::Hilbert);
    let mut reference = input.clone();
    treesort_reference(&mut reference);
    let expected = checksum_cells(&reference);
    for threads in [1usize, 2, 4] {
        let mut a = input.clone();
        treesort_scoped(&mut a, &mut Vec::new(), 0, MAX_DEPTH, threads);
        assert_eq!(
            checksum_cells(&a),
            expected,
            "treesort checksum diverged at {threads} threads"
        );
    }
    let mut std_sorted = input.clone();
    std_sorted.sort_unstable();
    assert_eq!(
        checksum_cells(&std_sorted),
        expected,
        "sort_unstable disagrees with treesort on leaf-only input"
    );
}

/// End-to-end compare gate: a report compared against itself passes; the
/// same report with a >10% injected slowdown (or an allocation jump) fails.
#[test]
fn compare_gate_trips_on_injected_regression() {
    let kernels = vec![KernelResult {
        name: "treesort_seq".into(),
        group: "treesort".into(),
        n: 3_000,
        elements: 2_990,
        min_iter_ns: 100_000,
        ns_per_elem: 33.44,
        melem_per_s: 29.9,
        allocs_per_iter: 0,
        alloc_bytes_per_iter: 0,
        checksum: "0x00000000deadbeef".into(),
    }];
    let base = Report {
        schema: Report::SCHEMA.into(),
        host: "smoke".into(),
        mode: "tiny".into(),
        samples: 3,
        threads: 4,
        cores: 4,
        kernels,
        derived: Default::default(),
    };
    // Round-trip through JSON, as the real compare path does.
    let mut cur = Report::from_json(&base.to_json()).expect("round trip");
    assert!(compare_reports(&base, &cur, 10.0, false).is_empty());
    cur.kernels[0].ns_per_elem *= 1.2;
    assert_eq!(compare_reports(&base, &cur, 10.0, false).len(), 1);
    cur.kernels[0].ns_per_elem /= 1.2;
    cur.kernels[0].allocs_per_iter = 100;
    assert_eq!(compare_reports(&base, &cur, 10.0, true).len(), 1);
}

/// The committed reports survive the reader and the writer: parse →
/// serialise → parse is the identity on `BENCH_vm.json`, and the committed
/// baseline compares clean against itself (the reader feeds the gate the
/// same numbers the writer recorded).
#[test]
fn committed_reports_round_trip_through_the_codec() {
    let read = |name: &str| {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Report::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let vm = read("BENCH_vm.json");
    assert!(vm.kernels.len() >= 20 && !vm.derived.is_empty());
    assert_eq!(Report::from_json(&vm.to_json()), Ok(vm));
    let baseline = read("BENCH_baseline.json");
    assert_eq!(
        compare_reports(&baseline, &baseline, 10.0, false),
        [],
        "a report must compare clean against itself"
    );
}
