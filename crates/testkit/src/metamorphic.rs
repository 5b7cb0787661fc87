//! Metamorphic properties: transform the input in a way whose effect on
//! the output is known, and check the relation — no external oracle needed.
//!
//! * [`permutation_invariance`] — splitter search consumes only globally
//!   summed bucket counts, so *any* redistribution/permutation of the same
//!   multiset (including ragged and empty ranks) yields bit-identical
//!   splitters and partitions.
//! * [`duplication_robustness`] — doubling every element keeps the output a
//!   valid partition of the doubled multiset: globally sorted, ownership
//!   consistent (all copies of a key land on one rank) and within the
//!   tolerance envelope. (Bit-identical splitters are *not* implied:
//!   integer targets `⌊r·2n/p⌋` round differently from `2⌊r·n/p⌋`.)
//! * [`tolerance_monotonicity`] — on the paper's §4.2 workload class,
//!   relaxing the tolerance monotonically (with slack for small-mesh
//!   noise) reduces boundary surface: `Cmax`, comm-matrix NNZ and total
//!   volume do not grow as the tolerance grows.
//! * [`scale_invariance`] — Eq. (3) is homogeneous of degree 1 in
//!   `tc`/`ts`/`tw`: a machine uniformly rescaled by a *power of two*
//!   induces bit-identical OptiPart decisions with every predicted and
//!   measured time scaled exactly, down to the trace attribution's byte
//!   counters.
//! * [`thread_count_invariance`] — the worker-thread budget is a pure
//!   execution detail: TreeSort and the fork–join primitive underneath the
//!   engine produce bit-identical output at 1 and 4 threads (the CI
//!   determinism matrix additionally runs the whole suite under both
//!   `RAYON_NUM_THREADS` values).
//! * [`warm_state_fallback`] — a corrupted or stale [`PartitionState`] is
//!   *detected* (payload self-check, rank-count fingerprint) and the run
//!   falls back to a cold ladder whose output is bit-identical to a run
//!   that never saw the state.
//! * [`rank_count_scale_invariance`] — padding the communicator with idle
//!   ranks (power-of-two boundaries, doubling, `2^k ± 1`) never perturbs a
//!   hypercube-staged exchange's deliveries, comm-matrix entries or
//!   conservation — the stage count changes, the data does not.
//! * [`front_advection`] — advancing the moving-front workload by a
//!   lattice vector translates the mesh cell-for-cell (mesh generation
//!   commutes with the translation); over a full period the partition and
//!   its quality metrics return bit-identically.

use crate::scenario::{ElemFamily, MeshShape, NamedCheck, Scenario, Workload};
use crate::{tk_assert, tk_assert_eq};
use optipart_core::metrics::{assignment, communication_matrix};
use optipart_core::optipart::{optipart_with_state, PartitionState};
use optipart_core::partition::{
    distribute_shuffled, distribute_tree, treesort_partition, PartitionOptions, PartitionOutcome,
};
use optipart_core::quality::partition_quality;
use optipart_core::treesort::treesort_scoped;
use optipart_core::{optipart, OptiPartOptions};
use optipart_mpisim::par::par_map_mut_n;
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::{AllToAllAlgo, DistVec, Engine};
use optipart_octree::LinearTree;
use optipart_sfc::{Cell, KeyedCell, SfcKey, MAX_DEPTH};

/// The registry the soak driver and the tier-1 harness iterate over.
pub const PROPERTIES: &[NamedCheck] = &[
    ("permutation-invariance", permutation_invariance),
    ("duplication-robustness", duplication_robustness),
    ("tolerance-monotonicity", tolerance_monotonicity),
    ("scale-invariance", scale_invariance),
    ("thread-count-invariance", thread_count_invariance),
    ("warm-state-fallback", warm_state_fallback),
    ("rank-count-scale-invariance", rank_count_scale_invariance),
    ("front-advection", front_advection),
];

/// Metamorphic relation for the moving-front workload: advancing the front
/// by step `t` translates the point cloud by the exact lattice vector
/// `(1<<29) · (t & 1, (t>>1) & 1, (t>>2) & 1)` (wrapping mod `1<<30`), and
/// adaptive mesh generation *commutes* with that translation — so the
/// step-`t` mesh must equal, cell for cell, the base mesh with the same
/// bit flipped in every anchor (level-0 cells map to themselves). Over a
/// full period (8 steps) the translation is the identity, so the mesh,
/// the partition and its quality metrics must all return bit-identically.
///
/// Sub-period translations *permute* the level-0 octant blocks, which
/// legitimately moves splitters and `Cmax` — the invariants there are the
/// mesh-level bijection and leaf-count conservation, not partition bits.
/// The Hybrid element family hashes each leaf's key for its per-leaf mix,
/// which is deliberately not translation-invariant, so the property pins
/// the Tet family in its place.
pub fn front_advection(scn: &Scenario) {
    let mut s = scn.clone();
    s.workload = Workload::MovingFront { steps: 8 };
    if s.family == ElemFamily::Hybrid {
        s.family = ElemFamily::Tet;
    }
    const HALF: u32 = 1 << (MAX_DEPTH - 1);
    let base = s.mesh_at(0);
    for t in 1..8usize {
        let translated: Vec<Cell<3>> = base
            .leaves()
            .iter()
            .map(|kc| {
                let c = kc.cell;
                if c.level() == 0 {
                    return c;
                }
                let mut a = c.anchor();
                for (d, coord) in a.iter_mut().enumerate() {
                    if (t >> d) & 1 == 1 {
                        *coord ^= HALF;
                    }
                }
                Cell::new(a, c.level())
            })
            .collect();
        let expected = LinearTree::from_cells(translated, s.curve);
        let got = s.mesh_at(t);
        tk_assert_eq!(
            scn,
            got.len(),
            base.len(),
            "step {t}: front advection must conserve the leaf count"
        );
        tk_assert!(
            scn,
            got.leaves() == expected.leaves(),
            "step {t}: mesh generation does not commute with the lattice translation"
        );
    }

    // Full period: the translation is the identity, so mesh, partition and
    // quality must all come back bit-identical.
    let run = |tree: &LinearTree<3>, stream: u64| {
        let mut e = Engine::new(s.p, s.perf());
        let out = optipart(
            &mut e,
            distribute_shuffled(tree, s.p, s.shuffle_seed(stream)),
            OptiPartOptions {
                curve: s.curve,
                max_split_per_round: s.split_budget,
                ..Default::default()
            },
        );
        let mut eq = Engine::new(s.p, s.perf());
        let mut block = distribute_tree(tree, s.p);
        let q = partition_quality(&mut eq, &mut block, &out.splitters, s.curve);
        (out, q)
    };
    for t in [1usize, 5] {
        let a = s.mesh_at(t);
        let b = s.mesh_at(t + 8);
        tk_assert!(
            scn,
            a.leaves() == b.leaves(),
            "step {t}: the period-8 mesh identity is broken"
        );
        let (oa, qa) = run(&a, 41);
        let (ob, qb) = run(&b, 41);
        tk_assert!(
            scn,
            oa.splitters == ob.splitters,
            "step {t}: full-period splitters diverge"
        );
        tk_assert_eq!(
            scn,
            oa.report.counts,
            ob.report.counts,
            "step {t}: full-period partition counts diverge"
        );
        tk_assert!(
            scn,
            qa.wmax == qb.wmax
                && qa.cmax == qb.cmax
                && qa.cmax_intra == qb.cmax_intra
                && qa.c_total == qb.c_total
                && qa.c_intra_total == qb.c_intra_total
                && qa.mmax == qb.mmax
                && qa.tp.to_bits() == qb.tp.to_bits(),
            "step {t}: full-period quality diverges ({qa:?} vs {qb:?})"
        );
    }
}

/// Hypercube stage count for a `p`-rank exchange — an independent
/// re-statement of the engine's staging schedule (`⌈log₂ p⌉`).
fn hypercube_stages(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Metamorphic relation: a hypercube-staged exchange is a function of the
/// *routes*, not of the communicator size. Padding the same logical
/// traffic (among ranks `0..p`) out to a larger communicator — the next
/// power of two, one past it, one short of the double, and the double —
/// changes the stage schedule and the forwarding paths, but must leave
/// every delivered payload, every comm-matrix entry and the conservation
/// totals bit-identical, with all pad ranks silent. The per-element
/// routing itself is re-derived analytically: walking a route's holder
/// through all `⌈log₂ p⌉` stages lands on its destination at every padded
/// rank count.
pub fn rank_count_scale_invariance(scn: &Scenario) {
    let p0 = scn.p;
    let traffic = crate::oracles::collective_traffic(scn);
    let sent_elems: usize = traffic.iter().flatten().map(|(_, b)| b.len()).sum();

    // Analytic leg: the stage walk `holder += 2^k (mod p)` for every set
    // bit of `(dst − src) mod p` reaches `dst` at every padded count.
    let pow2 = p0.next_power_of_two();
    let mut pads = vec![pow2, pow2 + 1, 2 * pow2 - 1, 2 * pow2];
    pads.dedup();
    for &p in &pads {
        for (src, row) in traffic.iter().enumerate() {
            for (dst, _) in row {
                let off = (dst + p - src) % p;
                let mut holder = src;
                for k in 0..hypercube_stages(p) {
                    let hop = 1usize << k;
                    if off & hop != 0 {
                        holder = (holder + hop) % p;
                    }
                }
                tk_assert_eq!(
                    scn,
                    holder,
                    *dst,
                    "p = {p}: stage walk for route {src}->{dst} strands at {holder}"
                );
            }
        }
    }

    // Engine leg: the same routes through the real hypercube staging at
    // every padded count, compared field by field against the base run.
    let run = |p: usize| {
        let mut e = Engine::new(p, scn.perf()).record_comm_matrix();
        let mut arena = crate::oracles::stage_traffic(&traffic);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        let recv: Vec<(usize, usize, Vec<u64>)> = arena
            .recv()
            .map(|(src, dst, items)| (src, dst, items.to_vec()))
            .collect();
        let mut entries: Vec<(usize, usize, u64)> =
            e.comm_matrix().expect("recording on").entries().collect();
        entries.sort_unstable();
        let bytes = e.stats().bytes_total;
        (recv, entries, bytes)
    };
    let (base_recv, base_entries, base_bytes) = run(p0);
    let got_elems: usize = base_recv.iter().map(|(_, _, b)| b.len()).sum();
    tk_assert_eq!(
        scn,
        got_elems,
        sent_elems,
        "base run lost or duplicated elements"
    );
    for &p in &pads {
        let (recv, entries, bytes) = run(p);
        // Segment for segment the same delivery — which also says no pad
        // rank (they own no route) received anything.
        tk_assert!(
            scn,
            recv == base_recv,
            "p = {p}: delivery diverges from the {p0}-rank run"
        );
        tk_assert_eq!(
            scn,
            entries,
            base_entries,
            "p = {p}: comm-matrix entries diverge from the {p0}-rank run"
        );
        tk_assert_eq!(
            scn,
            bytes,
            base_bytes,
            "p = {p}: byte conservation diverges from the {p0}-rank run"
        );
    }
}

/// Shuffles `leaves` and cuts them into `p` ragged (possibly empty) rank
/// buffers — the adversarial initial distribution.
fn ragged_distribution(leaves: &[KeyedCell<3>], p: usize, seed: u64) -> DistVec<KeyedCell<3>> {
    let mut rng = SplitMix64::new(seed);
    let mut shuffled = leaves.to_vec();
    rng.shuffle(&mut shuffled);
    let mut cuts: Vec<usize> = (0..p - 1)
        .map(|_| rng.next_below(shuffled.len() as u64 + 1) as usize)
        .collect();
    cuts.sort_unstable();
    let mut parts: Vec<Vec<KeyedCell<3>>> = Vec::with_capacity(p);
    let mut lo = 0;
    for &c in &cuts {
        parts.push(shuffled[lo..c].to_vec());
        lo = c;
    }
    parts.push(shuffled[lo..].to_vec());
    DistVec::from_parts(parts)
}

/// Splitter refinement sees only global bucket counts, so the initial
/// placement of elements — block, shuffled, ragged, even empty ranks — must
/// not leak into the result: bit-identical splitters and slices.
pub fn permutation_invariance(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    let a = {
        let mut e = scn.engine();
        treesort_partition(&mut e, distribute_tree(&tree, p), scn.opts())
    };
    let b = {
        let mut e = scn.engine();
        let ragged = ragged_distribution(tree.leaves(), p, scn.shuffle_seed(10));
        treesort_partition(&mut e, ragged, scn.opts())
    };
    tk_assert!(
        scn,
        a.splitters == b.splitters,
        "initial distribution leaked into the splitters"
    );
    for r in 0..p {
        tk_assert!(
            scn,
            a.dist.rank(r) == b.dist.rank(r),
            "initial distribution leaked into rank {r}'s slice"
        );
    }
}

/// Duplicating every element must still yield a valid partition of the
/// doubled multiset — sorted global order, all copies of a key on one
/// rank, tolerance honoured (in the doubled grain).
pub fn duplication_robustness(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    let mut doubled: Vec<KeyedCell<3>> = tree.leaves().to_vec();
    doubled.extend_from_slice(tree.leaves());
    let mut expected = doubled.clone();
    expected.sort_unstable();

    let mut e = scn.engine();
    let out = treesort_partition(
        &mut e,
        ragged_distribution(&doubled, p, scn.shuffle_seed(11)),
        scn.opts(),
    );
    tk_assert!(
        scn,
        out.dist.concat() == expected,
        "duplicated input: output is not the sorted doubled multiset"
    );
    // No key straddles a rank boundary: owner_of is a function of the key,
    // so the last key of rank r must be strictly below the first key of
    // the next non-empty rank.
    let mut prev_last: Option<SfcKey> = None;
    for r in 0..p {
        let buf = out.dist.rank(r);
        if buf.is_empty() {
            continue;
        }
        if let Some(last) = prev_last {
            tk_assert!(
                scn,
                last < buf[0].key,
                "duplicated key straddles the boundary into rank {r}"
            );
        }
        prev_last = Some(buf[buf.len() - 1].key);
    }
    // With fewer distinct keys than ranks the search pads tail splitters
    // with `SfcKey::MAX` and reports achieved tolerance 1.0 — the envelope
    // claim only applies when p − 1 distinct boundaries exist at all.
    let distinct = {
        let mut keys: Vec<SfcKey> = expected.iter().map(|c| c.key).collect();
        keys.dedup();
        keys.len()
    };
    if scn.tolerance < 0.45 && doubled.len() >= p && distinct >= p {
        // Duplicated keys shift every splittable boundary to an even
        // count, so an odd target can sit one element off its nearest
        // boundary no matter how far the search refines — allow exactly
        // that one grain of slack on top of the request.
        let one_element = p as f64 / doubled.len() as f64;
        tk_assert!(
            scn,
            out.report.achieved_tolerance <= scn.tolerance + one_element + 1e-9,
            "duplicated input: achieved tolerance {} exceeds requested {} + 1 element",
            out.report.achieved_tolerance,
            scn.tolerance
        );
    }
}

/// Slack factors for the monotone-surface claim: the trend is the paper's
/// (Fig. 2/3, Fig. 12), but at fuzz-scale meshes (hundreds to a few
/// thousand leaves, grains of tens of elements) individual partitions are
/// surface-noisy — soak calibration saw legitimate local upticks of ~35%
/// (e.g. Cmax [96, 82, 111] on a 1.1K-leaf log-normal mesh). Each value
/// is therefore checked against the running *minimum* so far times this
/// factor plus a small absolute allowance: noise passes, while an
/// implementation whose surface genuinely grows with tolerance compounds
/// past the envelope within a step or two.
const MONO_REL: f64 = 1.6;
const MONO_ABS: f64 = 8.0;

/// Relaxing the tolerance must not (beyond noise) grow `Cmax`, the
/// comm-matrix NNZ or the total communication volume. Restricted to the
/// §4.2 workload class the paper makes the claim for, and to scenarios
/// with enough elements per rank for the trend to be meaningful.
pub fn tolerance_monotonicity(scn: &Scenario) {
    if matches!(scn.shape, MeshShape::Surface | MeshShape::Skewed) {
        return;
    }
    let tree = scn.build_tree();
    let p = scn.p;
    if tree.len() < 8 * p {
        return;
    }
    let mut cmax = Vec::new();
    let mut nnz = Vec::new();
    let mut volume = Vec::new();
    for tol in [0.0, 0.3, 0.6] {
        let mut e = scn.engine();
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, p),
            PartitionOptions {
                tolerance: tol,
                max_split_per_round: scn.split_budget,
                ..Default::default()
            },
        );
        let mut eq = scn.engine();
        let mut block = distribute_tree(&tree, p);
        let q = partition_quality(&mut eq, &mut block, &out.splitters, scn.curve);
        cmax.push(q.cmax);
        let m = communication_matrix(&tree, &assignment(&tree, &out.splitters), p);
        nnz.push(m.nnz() as u64);
        volume.push(m.total_bytes());
    }
    for (name, series) in [("Cmax", &cmax), ("NNZ", &nnz), ("volume", &volume)] {
        let mut floor = series[0] as f64;
        for &w in &series[1..] {
            tk_assert!(
                scn,
                (w as f64) <= floor * MONO_REL + MONO_ABS,
                "{name} grew with tolerance beyond noise: {series:?}"
            );
            floor = floor.min(w as f64);
        }
    }
}

/// The thread budget must never leak into results. Checked with *explicit*
/// budgets (`par_map_mut_n`, [`treesort_scoped`]) so the property is
/// deterministic regardless of the environment the test runs under; the CI
/// determinism matrix covers the `RAYON_NUM_THREADS` env path by running
/// the whole tier-1 suite at 1 and 4 threads.
pub fn thread_count_invariance(scn: &Scenario) {
    let tree = scn.build_tree();
    let mut cells: Vec<KeyedCell<3>> = tree.leaves().to_vec();
    if cells.is_empty() {
        return;
    }
    SplitMix64::new(scn.shuffle_seed(15)).shuffle(&mut cells);
    // Tile past the parallel-recursion cutoff so the multi-threaded sort
    // actually fans out (fuzz meshes alone stay below it).
    while cells.len() <= optipart_core::treesort::PAR_CUTOFF {
        let copy = cells.clone();
        cells.extend_from_slice(&copy);
    }
    let mut expected = cells.clone();
    treesort_scoped(&mut expected, &mut Vec::new(), 0, MAX_DEPTH, 1);
    for threads in [2usize, 4] {
        let mut a = cells.clone();
        treesort_scoped(&mut a, &mut Vec::new(), 0, MAX_DEPTH, threads);
        tk_assert!(
            scn,
            a == expected,
            "treesort output changed between 1 and {threads} threads ({} cells)",
            cells.len()
        );
    }
    // The fork–join primitive the engine's compute phases are built on:
    // per-rank buffers mutated under different budgets must stitch back
    // bit-identically.
    let buffers: Vec<Vec<u64>> = (0..scn.p)
        .map(|r| (0..64).map(|i| (r * 1000 + i) as u64).collect())
        .collect();
    let mut expected_buffers = buffers.clone();
    let expected_sums = par_map_mut_n(1, &mut expected_buffers, |i, buf| {
        buf.iter_mut()
            .for_each(|x| *x = x.wrapping_mul(31) ^ i as u64);
        buf.iter().fold(0u64, |a, &x| a.wrapping_add(x))
    });
    for threads in [2usize, 4] {
        let mut b = buffers.clone();
        let sums = par_map_mut_n(threads, &mut b, |i, buf| {
            buf.iter_mut()
                .for_each(|x| *x = x.wrapping_mul(31) ^ i as u64);
            buf.iter().fold(0u64, |a, &x| a.wrapping_add(x))
        });
        tk_assert_eq!(
            scn,
            &sums,
            &expected_sums,
            "par_map_mut_n results changed at {threads} threads"
        );
        tk_assert!(
            scn,
            b == expected_buffers,
            "par_map_mut_n mutations changed at {threads} threads"
        );
    }
}

/// A warm-start cache must be safe by construction: tamper with it or
/// offer it to the wrong machine and the partitioner *detects* the problem
/// and produces output bit-identical to a run that never saw the state.
///
/// Three metamorphic legs on the scenario's own mesh:
/// 1. *Corrupted*: prime a state, flip a bit in its payload behind the
///    signature's back — the self-check rejects it (`stats.rejected`) and
///    the cold fallback matches the reference.
/// 2. *Re-seeded*: the rejection re-seeds the cache; an immediate rerun is
///    an exact hit and still matches.
/// 3. *Stale rank count*: the cache offered to a `p − 1` engine is
///    invalidated (`stats.invalidated`, the shrink-recovery path) and the
///    cold fallback matches a fresh `p − 1` reference.
pub fn warm_state_fallback(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    let opts = OptiPartOptions {
        curve: scn.curve,
        max_split_per_round: scn.split_budget,
        ..Default::default()
    };
    let assert_identical = |what: &str, got: &PartitionOutcome<3>, want: &PartitionOutcome<3>| {
        tk_assert!(
            scn,
            got.splitters == want.splitters,
            "{what}: splitters diverge from the state-free reference"
        );
        tk_assert!(
            scn,
            got.dist.concat() == want.dist.concat(),
            "{what}: partitioned data diverges from the state-free reference"
        );
        tk_assert!(
            scn,
            got.report.counts == want.report.counts
                && got.report.predicted_tp.to_bits() == want.report.predicted_tp.to_bits(),
            "{what}: report diverges from the state-free reference"
        );
    };

    let input = distribute_shuffled(&tree, p, scn.shuffle_seed(16));
    let mut ec = scn.engine();
    let want = optipart(&mut ec, input.clone(), opts);

    // Leg 1: corrupted payload → detected → cold fallback identical.
    let mut state = PartitionState::new();
    let mut e1 = scn.engine();
    let _ = optipart_with_state(&mut e1, input.clone(), opts, &mut state);
    tk_assert!(
        scn,
        state.corrupt_for_test(),
        "the priming run must seed a cache entry"
    );
    let mut e2 = scn.engine();
    let got = optipart_with_state(&mut e2, input.clone(), opts, &mut state);
    tk_assert_eq!(
        scn,
        state.stats.rejected,
        1,
        "the payload self-check must fire exactly once"
    );
    assert_identical("corrupted state", &got, &want);

    // Leg 2: the rejection re-seeded the cache cold — a rerun is an exact
    // hit and still identical.
    let hits_before = state.stats.hits;
    let mut e3 = scn.engine();
    let got = optipart_with_state(&mut e3, input.clone(), opts, &mut state);
    tk_assert_eq!(
        scn,
        state.stats.hits,
        hits_before + 1,
        "the re-seeded entry must serve an exact hit"
    );
    assert_identical("re-seeded state", &got, &want);

    // Leg 3: the same cache offered to a shrunk machine (p − 1 ranks, the
    // post-recovery configuration) is invalidated and falls back cold.
    if p > 2 {
        let q = p - 1;
        let input_q = distribute_shuffled(&tree, q, scn.shuffle_seed(17));
        let mut eq_cold = Engine::new(q, scn.perf());
        let want_q = optipart(&mut eq_cold, input_q.clone(), opts);
        let invalidated_before = state.stats.invalidated;
        let mut eq_warm = Engine::new(q, scn.perf());
        let got_q = optipart_with_state(&mut eq_warm, input_q, opts, &mut state);
        tk_assert!(
            scn,
            state.stats.invalidated > invalidated_before,
            "a rank-count change must invalidate the cache"
        );
        assert_identical("stale rank count", &got_q, &want_q);
    }
}

/// Power-of-two factors keep `x * c` bit-exact in IEEE 754 (pure exponent
/// shift), so every comparison OptiPart makes on the scaled machine is
/// *identical*, not merely close.
const SCALE_FACTORS: [f64; 2] = [4.0, 0.25];

/// A machine with `tc`/`ts`/`tw` uniformly rescaled by a power of two must
/// produce bit-identical OptiPart decisions (splitters, counts) with
/// `predicted_tp` scaled exactly, and a trace attribution whose byte
/// counters are unchanged while every modelled time scales exactly.
pub fn scale_invariance(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    let run = |machine: optipart_machine::MachineModel| {
        let mut e = Engine::new(
            p,
            optipart_machine::PerfModel::new(machine, scn.app.model()),
        )
        .with_tracing();
        let out = optipart(
            &mut e,
            distribute_tree(&tree, p),
            OptiPartOptions {
                curve: scn.curve,
                max_split_per_round: scn.split_budget,
                ..Default::default()
            },
        );
        let attrib = e.model_attribution();
        (out, e.makespan(), attrib)
    };
    let (base, base_makespan, base_attrib) = run(scn.machine.clone());
    for c in SCALE_FACTORS {
        let (scaled, makespan, attrib) = run(scn.machine.scaled(c));
        tk_assert!(
            scn,
            scaled.splitters == base.splitters,
            "×{c}: machine rescaling changed the splitters"
        );
        tk_assert_eq!(
            scn,
            scaled.report.counts,
            base.report.counts,
            "×{c}: machine rescaling changed the partition counts"
        );
        let rel = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(f64::MIN_POSITIVE);
        tk_assert!(
            scn,
            rel(scaled.report.predicted_tp, c * base.report.predicted_tp),
            "×{c}: predicted_tp {} is not exactly {} × {}",
            scaled.report.predicted_tp,
            c,
            base.report.predicted_tp
        );
        tk_assert!(
            scn,
            rel(makespan, c * base_makespan),
            "×{c}: makespan {makespan} is not {c} × {base_makespan}"
        );
        tk_assert_eq!(
            scn,
            attrib.phases.len(),
            base_attrib.phases.len(),
            "×{c}: attribution phase sets diverge"
        );
        for (a, b) in attrib.phases.iter().zip(&base_attrib.phases) {
            tk_assert_eq!(
                scn,
                &a.phase,
                &b.phase,
                "×{c}: attribution phase order diverges"
            );
            tk_assert_eq!(
                scn,
                a.wmax_bytes,
                b.wmax_bytes,
                "×{c}: phase {} Wmax bytes changed under rescaling",
                a.phase
            );
            tk_assert_eq!(
                scn,
                a.cmax_bytes,
                b.cmax_bytes,
                "×{c}: phase {} Cmax bytes changed under rescaling",
                a.phase
            );
            tk_assert!(
                scn,
                rel(a.measured_s, c * b.measured_s),
                "×{c}: phase {} measured time {} is not {c} × {}",
                a.phase,
                a.measured_s,
                b.measured_s
            );
            tk_assert!(
                scn,
                rel(a.predicted_compute_s, c * b.predicted_compute_s),
                "×{c}: phase {} predicted compute does not scale exactly",
                a.phase
            );
        }
    }
}
