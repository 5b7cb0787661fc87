//! Tier-1 wiring of the `optipart-testkit` correctness layer: every
//! differential oracle sweeps 100+ generated scenarios, the metamorphic
//! properties sweep a smaller band, and the whole-stack checks smoke a
//! handful — all deterministic, all reporting a copy-pastable
//! `testkit replay` command on failure.
//!
//! Each sweep uses its own seed stream (`mix(stream + i)`), so every
//! oracle covers its own disjoint slice of the scenario space rather than
//! re-checking the same 100 meshes each time.

use optipart_testkit::mpisim::rng::mix;
use optipart_testkit::scenario::Scenario;
use optipart_testkit::{metamorphic, oracles, soak};

fn sweep(check: fn(&Scenario), stream: u64, count: usize) {
    for i in 0..count {
        let scn = Scenario::from_seed(mix(stream.wrapping_add(i as u64)));
        check(&scn);
    }
}

/// Oracle 1, two legs: sequential TreeSort vs a comparison sort, and the
/// distributed run vs the sorted multiset, its owners and the tolerance
/// its delivered counts realise.
#[test]
fn oracle_treesort_differential() {
    sweep(oracles::treesort_differential, 0x0175_0001, 100);
}

/// Oracle 2: OptiPart's Eq. (3) prediction vs a brute-force tolerance
/// grid of fully-converged TreeSort partitions.
#[test]
fn oracle_optipart_bruteforce() {
    sweep(oracles::optipart_bruteforce, 0x0175_0002, 100);
}

/// Oracle 3: SampleSort and TreeSort agree on the sorted global multiset.
#[test]
fn oracle_samplesort_equivalence() {
    sweep(oracles::samplesort_equivalence, 0x0175_0003, 100);
}

/// Oracle 4: a killed-and-recovered run reproduces the fault-free
/// solution bit-for-bit (within the FT comparison tolerance).
#[test]
fn oracle_fault_recovery() {
    sweep(oracles::fault_recovery, 0x0175_0004, 100);
}

/// Oracle 5: the sequential ping-pong TreeSort is bit-identical to the
/// retained pre-optimisation reference, through both entry points, with a
/// reused caller scratch and on inputs tiled so duplicate keys occur.
#[test]
fn oracle_treesort_optimized() {
    sweep(oracles::treesort_optimized, 0x0175_0005, 100);
}

/// Oracle 6: a warm-started AMR partition sequence is bit-identical to
/// cold per-step ladders — replayed decisions, exact-hit reuse, report
/// floats compared by bits — across 100 generated scenarios.
#[test]
fn oracle_warm_vs_cold() {
    sweep(oracles::warm_vs_cold, 0x0175_0006, 100);
}

/// Oracle 7: a live optipart-serve server — across worker counts,
/// batching on/off, paused bursts, deadlines and armed fail-stop kills —
/// returns payloads bit-identical to direct library calls, and every
/// request survives a flat-JSON wire round-trip.
#[test]
fn oracle_serve_vs_library() {
    sweep(oracles::serve_vs_library, 0x0175_0007, 100);
}

/// Oracle 8: the flat-arena and routed all-to-alls deliver bit-identical
/// payloads, comm matrices and virtual-clock charges to the dense p×p
/// reference, for every staging algorithm, clean and faulted.
#[test]
fn oracle_sparse_vs_dense_collectives() {
    sweep(oracles::sparse_vs_dense_collectives, 0x0175_0008, 100);
}

/// Metamorphic: splitters ignore the input's distribution across ranks.
#[test]
fn property_permutation_invariance() {
    sweep(metamorphic::permutation_invariance, 0x0175_0011, 50);
}

/// Metamorphic: duplicating every element keeps ranks non-straddling and
/// the tolerance envelope within one element-grain.
#[test]
fn property_duplication_robustness() {
    sweep(metamorphic::duplication_robustness, 0x0175_0012, 50);
}

/// Metamorphic: Cmax and comm-matrix NNZ do not grow as the tolerance
/// relaxes (Fig. 11/12 trend, per-step slack).
#[test]
fn property_tolerance_monotonicity() {
    sweep(metamorphic::tolerance_monotonicity, 0x0175_0013, 50);
}

/// Metamorphic: rescaling tc/tw by powers of two rescales every Eq. (3)
/// attribution exactly, without moving a single splitter.
#[test]
fn property_scale_invariance() {
    sweep(metamorphic::scale_invariance, 0x0175_0014, 50);
}

/// Metamorphic: TreeSort and the engine's fork–join primitive produce
/// bit-identical output for every explicit worker-thread budget.
#[test]
fn property_thread_count_invariance() {
    sweep(metamorphic::thread_count_invariance, 0x0175_0015, 50);
}

/// Metamorphic: a corrupted or stale `PartitionState` is detected and
/// falls back to a cold ladder with identical output, including the
/// shrink case where the surviving rank count no longer matches.
#[test]
fn property_warm_state_fallback() {
    sweep(metamorphic::warm_state_fallback, 0x0175_0016, 50);
}

/// Metamorphic: padding a hypercube-staged exchange's communicator with
/// idle ranks (2^k, 2^k ± 1, doubling) changes the stage schedule but
/// never the deliveries, comm-matrix entries or conservation totals.
#[test]
fn property_rank_count_scale_invariance() {
    sweep(metamorphic::rank_count_scale_invariance, 0x0175_0017, 50);
}

/// Whole stack: faulted + checkpointed + traced AMR, deterministic twice
/// over, with a critical path that tiles the makespan.
#[test]
fn stack_smoke() {
    sweep(soak::stack_check, 0x0175_0021, 6);
}

/// Trace byte-identity under benign fault plans.
#[test]
fn trace_identity_smoke() {
    sweep(soak::trace_identity, 0x0175_0022, 12);
}
