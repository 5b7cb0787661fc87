//! Differential oracles: every generated scenario is checked against an
//! *independent* computation of the same answer.
//!
//! | oracle | claim under test | independent reference |
//! |---|---|---|
//! | [`treesort_differential`] | distributed TreeSort partitions correctly (§3.1–3.2) | sequential comparison sort + the tolerance realised by the delivered counts |
//! | [`optipart_bruteforce`] | OptiPart's stopping point minimises Eq. (3) (Alg. 3) | brute-force sweep over the induced tolerance grid |
//! | [`samplesort_equivalence`] | SampleSort ≡ TreeSort as a sorting network (§5.2) | multiset/order equality of outputs |
//! | [`fault_recovery`] | faults never corrupt data; fail-stop recovery is exact | fault-free runs of the same scenario |
//! | [`treesort_optimized`] | the ping-pong TreeSort is a pure optimisation | bit-identity vs the retained `treesort_reference` |
//! | [`warm_vs_cold`] | the warm-started tolerance ladder is a pure optimisation | a cold ladder run on every step of the same AMR loop |
//! | [`serve_vs_library`] | optipart-serve responses are bit-identical to direct calls | [`optipart_serve::direct`] on a fresh engine and state |
//! | [`sparse_vs_dense_collectives`] | the flat-arena and routed (`_by`) all-to-alls are pure optimisations | the dense p×p `Engine::alltoallv` (the `reference` feature) |
//! | [`hierarchy_flattening`] | a degenerate two-level machine is the flat model | the same scenario with no hierarchy, bit for bit |
//!
//! All failures panic through [`tk_assert!`], so the message always carries
//! the scenario and its one-line replay command.

use crate::scenario::{HierKind, NamedCheck, Scenario, Workload};
use crate::{tk_assert, tk_assert_eq};
use optipart_core::metrics::realised_tolerance;
use optipart_core::optipart::{optipart_with_state, PartitionState, PATIENCE};
use optipart_core::partition::{
    audit_splitters, distribute_by_splitters, distribute_shuffled, distribute_tree, owner_of,
    treesort_partition,
};
use optipart_core::quality::partition_quality;
use optipart_core::samplesort::samplesort_partition;
use optipart_core::treesort::{treesort, treesort_reference, treesort_scoped};
use optipart_core::{optipart, OptiPartOptions};
use optipart_fem::amr::{step_mesh, AmrConfig};
use optipart_fem::{run_matvec_ft, DistMesh};
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::{AllToAllAlgo, AlltoallvArena, CheckpointPolicy, Engine, FaultPlan};
use optipart_octree::LinearTree;
use optipart_sfc::{KeyedCell, SfcKey};

/// The registry the soak driver and the tier-1 harness iterate over.
pub const ORACLES: &[NamedCheck] = &[
    ("treesort-differential", treesort_differential),
    ("optipart-bruteforce", optipart_bruteforce),
    ("samplesort-equivalence", samplesort_equivalence),
    ("fault-recovery", fault_recovery),
    ("treesort-optimized", treesort_optimized),
    ("warm-vs-cold", warm_vs_cold),
    ("serve-vs-library", serve_vs_library),
    ("sparse-vs-dense-collectives", sparse_vs_dense_collectives),
    ("hierarchy-flattening", hierarchy_flattening),
];

/// **Oracle 9 — hierarchy flattening.** A two-level machine whose
/// intra-node figures *equal* the inter-node ones ([`HierKind::Flat`],
/// i.e. `MachineModel::hierarchical_flat`) must be indistinguishable from
/// the flat model down to the last bit: every hierarchical term in the
/// codebase is written in the additive-discount form
/// `flat + (intra − inter) · intra_quantity`, so the degenerate hierarchy
/// contributes exactly `+0.0` everywhere. The oracle runs the full
/// OptiPart ladder plus an Algorithm 2 quality evaluation under both
/// machines and asserts identical splitters, per-rank slices, report
/// fields, quality fields (including `Tp` bits), per-rank clocks, makespan
/// bits and the complete energy report.
pub fn hierarchy_flattening(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    let opts = OptiPartOptions {
        curve: scn.curve,
        max_split_per_round: scn.split_budget,
        ..Default::default()
    };
    let run = |hier: HierKind| {
        let mut s = scn.clone();
        s.hier = hier;
        let mut e = Engine::new(p, s.perf());
        let out = optipart(
            &mut e,
            distribute_shuffled(&tree, p, scn.shuffle_seed(40)),
            opts,
        );
        let mut eq = Engine::new(p, s.perf());
        let mut block = distribute_tree(&tree, p);
        let q = partition_quality(&mut eq, &mut block, &out.splitters, scn.curve);
        let energy = e.energy_report();
        (out, e.makespan(), e.clocks().to_vec(), q, energy)
    };
    let (a, mk_a, clk_a, qa, en_a) = run(HierKind::None);
    let (b, mk_b, clk_b, qb, en_b) = run(HierKind::Flat);

    tk_assert!(
        scn,
        a.splitters == b.splitters,
        "degenerate hierarchy changed the splitters"
    );
    for r in 0..p {
        tk_assert!(
            scn,
            a.dist.rank(r) == b.dist.rank(r),
            "degenerate hierarchy changed rank {r}'s partition slice"
        );
    }
    let (ra, rb) = (&a.report, &b.report);
    tk_assert!(
        scn,
        ra.counts == rb.counts
            && ra.rounds == rb.rounds
            && ra.splitter_level == rb.splitter_level
            && ra.wmax == rb.wmax
            && ra.cmax == rb.cmax
            && ra.achieved_tolerance.to_bits() == rb.achieved_tolerance.to_bits()
            && ra.lambda.to_bits() == rb.lambda.to_bits()
            && ra.predicted_tp.to_bits() == rb.predicted_tp.to_bits(),
        "degenerate hierarchy changed the partition report ({ra:?} vs {rb:?})"
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
        "degenerate hierarchy changed the quality metrics ({qa:?} vs {qb:?})"
    );
    tk_assert!(
        scn,
        mk_a.to_bits() == mk_b.to_bits(),
        "degenerate hierarchy changed the makespan ({mk_a} vs {mk_b})"
    );
    tk_assert!(
        scn,
        clk_a == clk_b,
        "degenerate hierarchy changed the per-rank clocks"
    );
    let same_vec = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    };
    tk_assert!(
        scn,
        same_vec(&en_a.per_node_j, &en_b.per_node_j)
            && en_a.total_j.to_bits() == en_b.total_j.to_bits()
            && en_a.comm_j.to_bits() == en_b.comm_j.to_bits()
            && en_a.makespan_s.to_bits() == en_b.makespan_s.to_bits(),
        "degenerate hierarchy changed the energy report ({en_a:?} vs {en_b:?})"
    );
}

/// The scenario's sparse traffic pattern for the collectives oracle: ring
/// neighbours, a seeded long-range route, a self-message and ragged
/// payload lengths including empty buffers — at most one buffer per
/// `(src, dst)` link, so the dense, flat-arena and routed views of the
/// same exchange stay directly comparable. Every element carries its
/// link (`src << 32 | dst << 16 | index`), which is what lets
/// [`Engine::alltoallv_by`] route it without a side table.
pub(crate) fn collective_traffic(scn: &Scenario) -> Vec<Vec<(usize, Vec<u64>)>> {
    let p = scn.p;
    let mut rng = SplitMix64::new(scn.shuffle_seed(30));
    let mut rows: Vec<Vec<(usize, Vec<u64>)>> = (0..p).map(|_| Vec::new()).collect();
    for (src, row) in rows.iter_mut().enumerate() {
        let mut dsts = vec![
            (src + 1) % p,
            (src + p - 1) % p,
            src,
            rng.next_below(p as u64) as usize,
        ];
        dsts.sort_unstable();
        dsts.dedup();
        for dst in dsts {
            let len = rng.next_below(5) as usize;
            let buf: Vec<u64> = (0..len as u64)
                .map(|i| ((src as u64) << 32) | ((dst as u64) << 16) | i)
                .collect();
            row.push((dst, buf));
        }
    }
    rows
}

/// [`collective_traffic`] staged into a flat arena, in the pattern's own
/// `(src, dst)` order (empty buffers are dropped at staging time).
pub(crate) fn stage_traffic(traffic: &[Vec<(usize, Vec<u64>)>]) -> AlltoallvArena<u64> {
    let mut arena = AlltoallvArena::new();
    for (src, row) in traffic.iter().enumerate() {
        for (dst, buf) in row {
            arena.send(src, *dst, buf.iter().copied());
        }
    }
    arena
}

/// **Oracle 8 — sparse vs dense collectives.** The production all-to-all
/// entry points (the flat-arena [`Engine::alltoallv_flat`] and the routed
/// [`Engine::alltoallv_by`]) must be *pure* optimisations of the dense
/// `p × p` reference [`Engine::alltoallv`] retained behind the `reference`
/// feature: on the same scenario-derived neighbourhood traffic, all three
/// must deliver
/// bit-identical payloads, record equal communication matrices and run
/// statistics, and charge bit-identical per-rank virtual clocks — for
/// both schedules (Direct, Hypercube) and both on a clean
/// machine and under the scenario's benign fault plan (stragglers, `tw`
/// jitter, transient retries). The machine is always two-level (a flat
/// scenario is run as SMP), so the intra-node byte share is exercised too.
pub fn sparse_vs_dense_collectives(scn: &Scenario) {
    let scn = &Scenario {
        hier: match scn.hier {
            HierKind::None => HierKind::Smp,
            hier => hier,
        },
        ..scn.clone()
    };
    let p = scn.p;
    let traffic = collective_traffic(scn);
    // Expected delivery, straight from the pattern: per destination, the
    // non-empty (src, buf) pairs in ascending source order.
    let mut expected: Vec<Vec<(usize, Vec<u64>)>> = (0..p).map(|_| Vec::new()).collect();
    for (src, row) in traffic.iter().enumerate() {
        for (dst, buf) in row {
            if !buf.is_empty() {
                expected[*dst].push((src, buf.clone()));
            }
        }
    }

    for faulted in [false, true] {
        let engine = || {
            let e = if faulted {
                scn.engine_faulted()
            } else {
                scn.engine()
            };
            e.record_comm_matrix()
        };
        for algo in [AllToAllAlgo::Direct, AllToAllAlgo::Hypercube] {
            let what = format!("algo {algo:?}, faulted {faulted}");

            // Dense reference: one p × p buffer grid.
            let mut ed = engine();
            let mut dense: Vec<Vec<Vec<u64>>> = (0..p).map(|_| vec![Vec::new(); p]).collect();
            for (src, row) in traffic.iter().enumerate() {
                for (dst, buf) in row {
                    dense[src][*dst] = buf.clone();
                }
            }
            let got_d = ed.alltoallv(dense, algo);

            // Flat-arena production path, staged in the same order.
            let mut ef = engine();
            let mut arena = stage_traffic(&traffic);
            ef.alltoallv_flat(&mut arena, algo);

            // Routed production path: every rank's elements in one buffer,
            // the destination read back out of each element.
            let mut eb = engine();
            let routed: Vec<Vec<u64>> = traffic
                .iter()
                .map(|row| row.iter().flat_map(|(_, buf)| buf).copied().collect())
                .collect();
            let got_b = eb.alltoallv_by(routed, |_, v| (v >> 16) as usize & 0xffff, algo);

            // Payload bit-identity against the independently built
            // expectation (empty buffers normalised away — the arena drops
            // them at staging time, the dense grid delivers them).
            for (dst, want) in expected.iter().enumerate() {
                let d: Vec<(usize, Vec<u64>)> = got_d[dst]
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(src, b)| (src, b.clone()))
                    .collect();
                tk_assert!(
                    scn,
                    &d == want,
                    "{what}: dense delivery to rank {dst} diverges"
                );
                let by: Vec<u64> = want.iter().flat_map(|(_, b)| b).copied().collect();
                tk_assert!(
                    scn,
                    got_b[dst] == by,
                    "{what}: routed delivery to rank {dst} diverges"
                );
            }
            let flat: Vec<(usize, usize, Vec<u64>)> = arena
                .recv()
                .map(|(src, dst, items)| (src, dst, items.to_vec()))
                .collect();
            let want_flat: Vec<(usize, usize, Vec<u64>)> = expected
                .iter()
                .enumerate()
                .flat_map(|(dst, row)| row.iter().map(move |(src, buf)| (*src, dst, buf.clone())))
                .collect();
            tk_assert!(
                scn,
                flat == want_flat,
                "{what}: flat-arena delivery diverges from the pattern"
            );

            // Identical virtual-time charges, down to float bits.
            for (label, e) in [("flat", &ef), ("by", &eb)] {
                tk_assert!(
                    scn,
                    e.clocks() == ed.clocks(),
                    "{what}: {label} clocks diverge from the dense reference"
                );
                tk_assert_eq!(
                    scn,
                    e.stats(),
                    ed.stats(),
                    "{what}: {label} run stats diverge from the dense reference"
                );
                // Entry iteration order is insertion order, which
                // legitimately differs between entry points — the *matrix*
                // must be equal, so compare the sorted entry sets.
                let sorted = |e: &Engine| {
                    let mut v: Vec<_> = e.comm_matrix().expect("recording on").entries().collect();
                    v.sort_unstable();
                    v
                };
                tk_assert_eq!(
                    scn,
                    sorted(e),
                    sorted(&ed),
                    "{what}: {label} comm matrix diverges from the dense reference"
                );
            }
        }
    }
}

/// **Oracle 5 — optimised TreeSort vs retained reference.** The hot-path
/// rework (single ping-pong scratch, small-sort cutoff) must be a *pure*
/// optimisation: both public entry points produce output bit-identical to
/// the pre-optimisation implementation retained as `treesort_reference`.
///
/// The scenario's shuffled leaves are sorted as they are and tiled twice,
/// so duplicate keys are compared too. One caller scratch serves both
/// inputs, larger one first, so the second sort reuses a scratch longer
/// than its input.
pub fn treesort_optimized(scn: &Scenario) {
    let tree = scn.build_tree();
    let mut base: Vec<KeyedCell<3>> = tree.leaves().to_vec();
    if base.is_empty() {
        return;
    }
    SplitMix64::new(scn.shuffle_seed(14)).shuffle(&mut base);
    let tiled = [base.as_slice(), base.as_slice()].concat();
    let mut scratch = Vec::new();
    for (what, input) in [("tiled", &tiled), ("raw", &base)] {
        let mut expected = input.clone();
        treesort_reference(&mut expected);
        let mut a = input.clone();
        treesort(&mut a);
        tk_assert!(
            scn,
            a == expected,
            "{what} input ({} cells): treesort diverged from reference",
            input.len()
        );
        let mut a = input.clone();
        treesort_scoped(&mut a, &mut scratch);
        tk_assert!(
            scn,
            a == expected,
            "{what} input: treesort with caller scratch diverged from reference"
        );
    }
}

/// Steps of the moving-front loop the warm-vs-cold oracle replays. Each
/// step runs a full cold ladder *and* a warm one, so this is deliberately
/// shorter than the bench kernel's 10-step loop to keep 100 scenarios
/// inside the tier-1 budget — the decision paths (cold seed, table replay,
/// exact hit) are all exercised from step 2 onwards.
const WARM_STEPS: usize = 4;

/// **Oracle 6 — warm vs cold.** The warm-started tolerance ladder
/// ([`optipart_with_state`]) must be a *pure* optimisation: over an AMR
/// loop, every step's warm outcome — splitters, per-rank slices, counts
/// and all report fields down to float bits — must be identical to an
/// independent cold ladder on the same input, for both the
/// table-accelerated replay path (pass 1: the mesh changes every step) and
/// the exact fingerprint-hit path (pass 2: the same meshes resubmitted).
///
/// Static scenarios replay the canonical `fem::amr` moving-front loop;
/// time-varying scenarios ([`Workload::MovingFront`] /
/// [`Workload::BoundaryLayer`]) drive the scenario's own
/// [`Scenario::mesh_at`] sequence, whose expected cold/replay/hit split is
/// derived independently from the leaf multisets (a frozen boundary layer
/// legitimately produces exact hits mid-pass-1).
pub fn warm_vs_cold(scn: &Scenario) {
    let p = scn.p;
    let cfg = AmrConfig {
        steps: WARM_STEPS,
        max_level: 3 + (scn.seed & 1) as u8,
        curve: scn.curve,
        ..Default::default()
    };
    let opts = OptiPartOptions {
        curve: scn.curve,
        max_split_per_round: scn.split_budget,
        ..Default::default()
    };
    let trees: Vec<LinearTree<3>> = if matches!(scn.workload, Workload::Static) {
        (0..cfg.steps).map(|t| step_mesh(t, &cfg)).collect()
    } else {
        (0..WARM_STEPS).map(|t| scn.mesh_at(t)).collect()
    };
    // Expected warm-path split, derived straight from the meshes: the first
    // never-seen multiset is cold, later never-seen ones replay, repeats of
    // any cached multiset are exact fingerprint hits.
    let (mut want_colds, mut want_replays, mut want_hits) = (0u64, 0u64, 0u64);
    {
        let mut seen: Vec<&[KeyedCell<3>]> = Vec::new();
        for tree in &trees {
            if seen.iter().any(|s| *s == tree.leaves()) {
                want_hits += 1;
            } else {
                if seen.is_empty() {
                    want_colds += 1;
                } else {
                    want_replays += 1;
                }
                seen.push(tree.leaves());
            }
        }
    }

    // Elements start where the previous step's splitters put their region —
    // the same redistribution policy as `fem::amr_simulation`.
    let input_for = |prev: &Option<Vec<SfcKey>>, tree: &LinearTree<3>| {
        distribute_by_splitters(tree, p, prev.as_deref())
    };

    let assert_identical =
        |what: &str,
         warm: &optipart_core::partition::PartitionOutcome<3>,
         cold: &optipart_core::partition::PartitionOutcome<3>| {
            tk_assert!(
                scn,
                warm.splitters == cold.splitters,
                "{what}: warm splitters diverge from cold"
            );
            for r in 0..p {
                tk_assert!(
                    scn,
                    warm.dist.rank(r) == cold.dist.rank(r),
                    "{what}: warm rank {r} slice diverges from cold"
                );
            }
            let (w, c) = (&warm.report, &cold.report);
            tk_assert!(
                scn,
                w.counts == c.counts
                    && w.rounds == c.rounds
                    && w.splitter_level == c.splitter_level
                    && w.wmax == c.wmax
                    && w.cmax == c.cmax
                    && w.achieved_tolerance.to_bits() == c.achieved_tolerance.to_bits()
                    && w.lambda.to_bits() == c.lambda.to_bits()
                    && w.predicted_tp.to_bits() == c.predicted_tp.to_bits(),
                "{what}: warm report diverges from cold ({w:?} vs {c:?})"
            );
        };

    // Pass 1: step 1 seeds the cache cold; every later step takes the
    // table-accelerated replay path (or an exact hit, when the workload
    // resubmits a mesh it already froze on).
    let mut state = PartitionState::new();
    let mut prev: Option<Vec<SfcKey>> = None;
    let mut pass1 = Vec::with_capacity(trees.len());
    for (t, tree) in trees.iter().enumerate() {
        let input = input_for(&prev, tree);
        let mut ec = scn.engine();
        let cold = optipart(&mut ec, input.clone(), opts);
        let mut ew = scn.engine();
        let warm = optipart_with_state(&mut ew, input, opts, &mut state);
        assert_identical(&format!("step {t}"), &warm, &cold);
        prev = Some(cold.splitters);
        pass1.push(warm);
    }
    tk_assert_eq!(scn, state.stats.colds, want_colds, "cold-seed count");
    tk_assert_eq!(scn, state.stats.replays, want_replays, "replay-path count");
    tk_assert_eq!(scn, state.stats.hits, want_hits, "pass-1 exact-hit count");
    tk_assert_eq!(scn, state.stats.rejected, 0, "no self-check rejections");
    tk_assert_eq!(scn, state.stats.invalidated, 0, "no rank-count churn");

    // Pass 2: the same meshes resubmitted — every step must be an exact
    // fingerprint hit (the ladder skipped entirely) and still identical.
    let hits_after_pass1 = state.stats.hits;
    let mut prev: Option<Vec<SfcKey>> = None;
    for (t, (tree, first)) in trees.iter().zip(&pass1).enumerate() {
        let input = input_for(&prev, tree);
        let mut ew = scn.engine();
        let warm = optipart_with_state(&mut ew, input, opts, &mut state);
        assert_identical(&format!("pass 2 step {t}"), &warm, first);
        prev = Some(warm.splitters);
    }
    tk_assert_eq!(
        scn,
        state.stats.hits,
        hits_after_pass1 + trees.len() as u64,
        "pass 2 must be exact fingerprint hits throughout"
    );
}

/// The globally SFC-sorted leaf multiset — the ground-truth output of every
/// partitioner on `tree`.
pub fn sorted_leaves(tree: &LinearTree<3>) -> Vec<KeyedCell<3>> {
    let mut v = tree.leaves().to_vec();
    v.sort_unstable();
    v
}

/// `|a - b| ≤ tol` relative to the solution's ∞-norm, with identical key
/// multisets (per-element relative error is meaningless where the stencil
/// cancels to ~0 — same contract as `tests/recovery.rs`).
pub fn assert_solutions_match(
    scn: &Scenario,
    what: &str,
    want: &[(SfcKey, f64)],
    got: &[(SfcKey, f64)],
) {
    tk_assert!(
        scn,
        want.len() == got.len(),
        "{what}: solution lengths diverge ({} vs {})",
        want.len(),
        got.len()
    );
    let norm = want
        .iter()
        .map(|(_, v)| v.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    for ((ka, a), (kb, b)) in want.iter().zip(got) {
        tk_assert!(scn, ka == kb, "{what}: octant multiset diverged");
        tk_assert!(
            scn,
            (a - b).abs() <= 1e-12 * norm,
            "{what}: solution diverged: {a} vs {b} (norm {norm:e})"
        );
    }
}

/// **Oracle 1 — TreeSort differential.** Two legs check the same
/// partitioning problem against references that share no code with it:
///
/// 1. sequential [`treesort`] vs a comparison sort (Algorithm 1);
/// 2. the distributed virtual-engine run vs the sorted global multiset,
///    with every element on its `owner_of` rank, audited splitters, and
///    the reported tolerance re-derived bit for bit from the delivered
///    counts ([`realised_tolerance`]).
pub fn treesort_differential(scn: &Scenario) {
    let tree = scn.build_tree();
    let expected = sorted_leaves(&tree);
    let n = expected.len();
    let p = scn.p;

    // Leg 1: sequential TreeSort == comparison sort on a shuffled copy.
    let mut shuffled = tree.leaves().to_vec();
    SplitMix64::new(scn.shuffle_seed(1)).shuffle(&mut shuffled);
    let mut by_treesort = shuffled.clone();
    treesort(&mut by_treesort);
    tk_assert!(
        scn,
        by_treesort == expected,
        "sequential TreeSort diverged from comparison sort ({n} cells)"
    );

    // Leg 2: distributed run on the virtual engine.
    let input = distribute_shuffled(&tree, p, scn.shuffle_seed(2));
    let mut e = scn.engine();
    let virt = treesort_partition(&mut e, input, scn.opts());
    tk_assert!(
        scn,
        virt.dist.concat() == expected,
        "distributed TreeSort output is not the sorted global multiset"
    );
    audit_splitters(&virt.splitters, n, p);
    for (r, buf) in virt.dist.parts().iter().enumerate() {
        for kc in buf {
            tk_assert_eq!(
                scn,
                owner_of(&virt.splitters, &kc.key),
                r,
                "element on rank {r} not owned by it"
            );
        }
    }
    tk_assert_eq!(
        scn,
        virt.report.counts.iter().sum::<u64>(),
        n as u64,
        "partition counts must conserve the element count"
    );
    // The achieved tolerance honours the request whenever the non-empty
    // constraint cannot interfere (request < 0.5) and the input is not
    // degenerate (§3.2; `choose_splitters` docs).
    if scn.tolerance < 0.45 && n >= p {
        tk_assert!(
            scn,
            virt.report.achieved_tolerance <= scn.tolerance + 1e-9,
            "achieved tolerance {} exceeds requested {}",
            virt.report.achieved_tolerance,
            scn.tolerance
        );
    }
    // The search reports the tolerance its bucket counts promised; the
    // delivered counts must realise exactly that. A reduction that
    // permutes or drops a contribution breaks this even when the sums
    // still conserve. (A `MAX` splitter is the give-up sentinel, charged
    // as a full grain rather than measured.)
    if !virt.splitters.contains(&SfcKey::MAX) {
        let realised = realised_tolerance(&virt.report.counts);
        tk_assert!(
            scn,
            realised.to_bits() == virt.report.achieved_tolerance.to_bits(),
            "delivered counts realise tolerance {realised}, search reported {}",
            virt.report.achieved_tolerance
        );
    }
}

/// Slack for the differential greedy emulation on the §4.2 workload
/// class. OptiPart descends the same 0.1-step tolerance ladder the
/// brute-force sweep samples, so the oracle replays Algorithm 3's exact
/// stopping rule over the independently computed grid candidates and
/// compares endpoints. The residual divergence is the global feasibility
/// forcing: which bucket it splits first depends on the refinement order,
/// so OptiPart's incremental ladder state can differ slightly from a
/// from-scratch TreeSort at the same tolerance, shifting a candidate or
/// the stop point by one rung. A 1.10× envelope absorbs that while still
/// flagging wired-wrong models, which miss by integer factors.
const OPTIPART_SLACK: f64 = 1.10;

/// On adversarial shapes (surface shells, skewed corners with duplicate
/// keys) the ladder states diverge more (feasibility forcing fires often,
/// duplicate runs make bucket splits degenerate) — the paper makes no
/// claim there. The oracle still pins a sanity envelope: never worse than
/// 2× the emulated greedy.
const OPTIPART_SLACK_ADVERSARIAL: f64 = 2.0;

/// **Oracle 2 — OptiPart vs brute force.** Algorithm 3's chosen partition,
/// as measured by its own Eq. (3) prediction, must match a brute-force
/// re-enactment of the greedy over the paper's tolerance grid `[0, 0.7]` —
/// each grid point being a full TreeSort partition scored by Algorithm 2,
/// walked coarse-to-fine under the same admissibility cap, candidate
/// dedup and patience rule OptiPart itself uses. On unimodal `Tp(tol)`
/// profiles this equals the global grid optimum (the paper's Fig. 10
/// claim); on non-unimodal ones it is exactly what the greedy contract
/// promises.
pub fn optipart_bruteforce(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    // Traced, so a failure can print the ladder's `optipart.probe` decisions.
    let mut e = scn.engine().with_tracing();
    let chosen = optipart(
        &mut e,
        distribute_shuffled(&tree, p, scn.shuffle_seed(3)),
        OptiPartOptions {
            curve: scn.curve,
            max_split_per_round: scn.split_budget,
            ..Default::default()
        },
    );
    tk_assert!(
        scn,
        chosen.dist.concat() == sorted_leaves(&tree),
        "OptiPart output is not the sorted global multiset"
    );

    // Full grid: (tolerance, achieved, splitters, tp) per rung.
    let grid: Vec<_> = (0..=7)
        .map(|k| {
            let tol = 0.1 * k as f64;
            let mut es = scn.engine();
            let out = treesort_partition(
                &mut es,
                distribute_shuffled(&tree, p, scn.shuffle_seed(3)),
                optipart_core::partition::PartitionOptions {
                    tolerance: tol,
                    max_split_per_round: scn.split_budget,
                    ..Default::default()
                },
            );
            let mut eq = scn.engine();
            let mut block = distribute_tree(&tree, p);
            let q = partition_quality(&mut eq, &mut block, &out.splitters, scn.curve);
            (tol, out.report.achieved_tolerance, out.splitters, q.tp)
        })
        .collect();

    // Re-enact the greedy over the grid, coarse to fine: skip candidates
    // the admissibility cap rejects (at loose tolerances two targets can
    // contend for one shared bucket edge and TreeSort then *achieves* more
    // imbalance than requested), skip unchanged candidates, and stop after
    // `PATIENCE` consecutive evaluations that failed to improve.
    let defaults = OptiPartOptions::default();
    let mut best = f64::INFINITY;
    let mut best_tol = 0.0;
    let mut worse = 0usize;
    let mut prev: Option<&[optipart_sfc::SfcKey]> = None;
    for (tol, achieved, splitters, tp) in grid.iter().rev() {
        if *achieved > defaults.max_tolerance {
            continue;
        }
        if prev.is_some_and(|s| s == &splitters[..]) {
            continue;
        }
        prev = Some(splitters);
        if *tp < best {
            best = *tp;
            best_tol = *tol;
            worse = 0;
        } else {
            worse += 1;
            if best.is_finite() && worse > PATIENCE {
                break;
            }
        }
    }
    let slack = if matches!(
        scn.shape,
        crate::MeshShape::Surface | crate::MeshShape::Skewed
    ) {
        OPTIPART_SLACK_ADVERSARIAL
    } else {
        OPTIPART_SLACK
    };
    tk_assert!(
        scn,
        chosen.report.predicted_tp <= best * slack + 1e-15,
        "OptiPart tp {} beaten by the emulated greedy's tol {best_tol}: {best} (slack ×{slack})\n  \
         grid (tol, achieved, tp): {:?}\n  ladder probes:{}",
        chosen.report.predicted_tp,
        grid.iter()
            .map(|(tol, achieved, _, tp)| (*tol, *achieved, *tp))
            .collect::<Vec<_>>(),
        render_decisions(&e, "optipart.probe")
    );
}

/// The engine's traced decisions named `name`, one `key=value …` line each.
fn render_decisions(e: &Engine, name: &str) -> String {
    let tracer = e.tracer();
    let mut out = String::new();
    for d in tracer.decisions() {
        if tracer.name(d.name) == name {
            out.push_str("\n    ");
            for (k, v) in &d.args {
                out.push_str(&format!("{}={v:e} ", tracer.name(*k)));
            }
        }
    }
    out
}

/// **Oracle 3 — SampleSort vs TreeSort.** The baseline partitioner and the
/// paper's partitioner are both distributed sorts: from independently
/// shuffled inputs they must produce the identical global sequence, and
/// both must conserve the element count rank-by-rank sum.
pub fn samplesort_equivalence(scn: &Scenario) {
    let tree = scn.build_tree();
    let p = scn.p;
    let mut e1 = scn.engine();
    let a = treesort_partition(
        &mut e1,
        distribute_shuffled(&tree, p, scn.shuffle_seed(4)),
        scn.opts(),
    );
    let mut e2 = scn.engine();
    let b = samplesort_partition(&mut e2, distribute_shuffled(&tree, p, scn.shuffle_seed(5)));
    tk_assert!(
        scn,
        a.dist.concat() == b.dist.concat(),
        "SampleSort and TreeSort disagree on the global order"
    );
    tk_assert_eq!(
        scn,
        b.dist.total_len(),
        tree.len(),
        "SampleSort lost or duplicated elements"
    );
}

/// Points for the fail-stop leg's balanced mesh — recovery re-runs whole
/// iteration windows, so this is deliberately smaller than the scenario
/// mesh to keep 100 scenarios inside the tier-1 budget.
const FT_POINTS: usize = 72;
/// Iterations of the fail-stop matvec run.
const FT_ITERS: usize = 5;

/// **Oracle 4 — faulted vs fault-free.** Two independent guarantees:
///
/// 1. *Benign faults never touch payload data*: a run under the scenario's
///    straggler/jitter/transient plan produces bit-identical splitters and
///    partition slices to the fault-free run (only clocks differ).
/// 2. *Fail-stop recovery is exact*: a checkpointed matvec run that loses
///    a rank mid-solve reproduces the fault-free solution to `1e-12`
///    relative on a 2:1-balanced mesh, finishing on `p − 1` survivors.
pub fn fault_recovery(scn: &Scenario) {
    // Leg 1: benign-fault data identity on the scenario's own mesh.
    let tree = scn.build_tree();
    let input = distribute_shuffled(&tree, scn.p, scn.shuffle_seed(6));
    let mut clean = scn.engine();
    let want = treesort_partition(&mut clean, input.clone(), scn.opts());
    let plan = scn.faults.clone().unwrap_or_else(|| {
        FaultPlan::new(scn.seed)
            .with_stragglers(0.5, 3.0)
            .with_tw_jitter(0.2)
    });
    let mut faulted = scn.engine().with_faults(plan);
    let got = treesort_partition(&mut faulted, input, scn.opts());
    tk_assert!(
        scn,
        got.splitters == want.splitters,
        "benign faults changed the splitters"
    );
    for r in 0..scn.p {
        tk_assert!(
            scn,
            got.dist.rank(r) == want.dist.rank(r),
            "benign faults changed rank {r}'s partition slice"
        );
    }

    // Leg 2: fail-stop recovery on a small balanced mesh.
    let p = scn.p.clamp(2, 8);
    let btree = crate::gen::balanced_tree::<3>(scn.shuffle_seed(7), FT_POINTS, scn.curve);
    let built = |e: &mut Engine| -> DistMesh<3> {
        let out = treesort_partition(
            e,
            distribute_tree(&btree, e.p()),
            optipart_core::partition::PartitionOptions::exact(),
        );
        DistMesh::build(e, out.dist, scn.curve)
    };

    let mut ec = Engine::new(p, scn.perf());
    let mesh_c = built(&mut ec);
    let want_ft = run_matvec_ft(&mut ec, &mesh_c, FT_ITERS, CheckpointPolicy::EveryN(2));
    tk_assert!(
        scn,
        want_ft.deaths.is_empty(),
        "clean run must see no deaths"
    );
    let mid = ec.sync_points() / 2;
    tk_assert!(scn, mid >= 2, "clean run too short to aim a mid-solve kill");

    let victim = (scn.seed % p as u64) as usize;
    let mut ef = Engine::new(p, scn.perf());
    let mesh_f = built(&mut ef);
    let mut ef = ef.with_faults(FaultPlan::new(scn.seed).kill_rank(victim, mid));
    let got_ft = run_matvec_ft(&mut ef, &mesh_f, FT_ITERS, CheckpointPolicy::EveryN(2));
    tk_assert_eq!(scn, got_ft.deaths.len(), 1, "the scheduled kill must fire");
    tk_assert_eq!(scn, got_ft.deaths[0].rank, victim, "wrong victim died");
    tk_assert_eq!(scn, got_ft.final_p, p - 1, "survivor count after one kill");
    assert_solutions_match(
        scn,
        "fail-stop recovery",
        &want_ft.solution,
        &got_ft.solution,
    );
}

/// **Oracle 7 — serve-vs-library.** Every response a live optipart-serve
/// server produces must carry a [`optipart_serve::Payload`] bit-identical
/// to a *direct* library call on a fresh engine and default state
/// ([`optipart_serve::direct`]) — regardless of worker count, batching,
/// warm-cache history, deadlines, or fail-stop kills absorbed mid-serve.
///
/// Per scenario the oracle builds a small adversarial request set — the
/// scenario itself three times (same-key batching + warm exact-hit), a
/// sibling scenario (cross-key sharding), a deadline-carrying repeat, and
/// (when the communicator can survive a shrink) a killed variant — and
/// streams it through three server shapes: a paused single-worker burst
/// with batching (must actually merge same-key requests into one engine
/// pass), a three-worker pool with batching off, and a two-worker pool
/// with batching on. All three exchanges verify against one shared
/// [`optipart_serve::soak::DirectCache`], and every request must survive
/// a wire round-trip through the flat-JSON protocol unchanged.
pub fn serve_vs_library(scn: &Scenario) {
    use optipart_serve::soak::{verify_responses_with, DirectCache};
    use optipart_serve::{Request, ServeConfig, Server};

    let mut killed = scn.clone();
    let mut reqs = vec![
        Request {
            id: 0,
            scn: scn.clone(),
            deadline_s: None,
        },
        Request {
            id: 1,
            scn: scn.clone(),
            deadline_s: None,
        },
        Request {
            id: 2,
            scn: Scenario::from_seed(scn.shuffle_seed(21)),
            deadline_s: None,
        },
        Request {
            id: 3,
            scn: scn.clone(),
            deadline_s: Some(if scn.seed.is_multiple_of(2) {
                1e-9
            } else {
                1e9
            }),
        },
    ];
    if scn.p >= 3 {
        // A shrink must leave a working communicator, so only arm the kill
        // when at least two ranks survive it.
        let victim = (scn.seed % scn.p as u64) as usize;
        let plan = killed
            .faults
            .take()
            .unwrap_or_else(|| FaultPlan::new(scn.seed));
        killed.faults = Some(plan.kill_rank(victim, 4));
        reqs.push(Request {
            id: 4,
            scn: killed,
            deadline_s: None,
        });
    }

    for req in &reqs {
        let wire = Request::from_json(&req.to_json());
        match wire {
            Err(e) => tk_assert!(scn, false, "request does not round-trip the wire: {e}"),
            Ok(back) => {
                tk_assert_eq!(scn, back.id, req.id, "wire round-trip changed the id");
                tk_assert_eq!(
                    scn,
                    back.key(),
                    req.key(),
                    "wire round-trip changed the scenario key"
                );
                tk_assert!(
                    scn,
                    back.deadline_s == req.deadline_s,
                    "wire round-trip changed the deadline"
                );
            }
        }
    }

    let mut cache = DirectCache::new();
    let shapes: [(&str, usize, bool, bool); 3] = [
        ("1 worker, batching, paused burst", 1, true, true),
        ("3 workers, no batching", 3, false, false),
        ("2 workers, batching", 2, true, false),
    ];
    for (label, workers, batching, burst) in shapes {
        let server = Server::start(ServeConfig {
            workers,
            queue_cap: 64,
            state_cap: 8,
            engine_cache: 4,
            batching,
            admission: Default::default(),
        });
        if burst {
            server.pause();
        }
        for r in &reqs {
            tk_assert!(
                scn,
                server.submit(r.clone()),
                "{label}: queue_cap 64 must not shed {} requests",
                reqs.len()
            );
        }
        if burst {
            server.release();
        }
        let resps = server.drain(reqs.len());
        let stats = server.shutdown();
        if let Err(e) = verify_responses_with(&reqs, &resps, &mut cache) {
            tk_assert!(scn, false, "{label}: {e}");
        }
        tk_assert_eq!(
            scn,
            stats.completed,
            reqs.len() as u64,
            "{label}: all requests must complete"
        );
        if burst && batching {
            // The paused burst queues three same-key requests before the
            // worker wakes: batching must fold them into fewer passes.
            tk_assert!(
                scn,
                stats.engine_passes < reqs.len() as u64,
                "{label}: batching never merged a same-key burst ({stats:?})"
            );
            tk_assert!(
                scn,
                stats.batched_extra >= 2,
                "{label}: expected >= 2 batched riders ({stats:?})"
            );
        }
    }

    // Shape 4 — chaos-panicked: the single worker's first pass is armed to
    // panic *after* it completes (caches already mutated, the harshest
    // quarantine point). The first wave fails loudly with replay + panic
    // summary; a repeat wave on the respawned worker must then serve every
    // request bit-identically, and the whole exchange must conserve.
    {
        use optipart_serve::chaos::{PanicPoint, PanicSchedule};
        use optipart_serve::Status;
        let label = "1 worker, chaos panic at pass 0";
        let server = Server::start_chaos(
            ServeConfig {
                workers: 1,
                queue_cap: 64,
                state_cap: 8,
                engine_cache: 4,
                batching: false,
                admission: Default::default(),
            },
            PanicSchedule::default().arm(0, 0, PanicPoint::After),
        );
        for r in &reqs {
            server.submit(r.clone());
        }
        let first = server.drain(reqs.len());
        let failed: Vec<_> = first
            .iter()
            .filter(|r| r.status == Status::Failed)
            .collect();
        tk_assert_eq!(scn, failed.len(), 1, "{label}: exactly pass 0 panics");
        for f in &failed {
            tk_assert!(
                scn,
                f.replay.as_deref().is_some_and(|c| c.contains("--seed")),
                "{label}: failed response must carry a replay command"
            );
            tk_assert!(
                scn,
                f.error.as_deref().is_some_and(|e| e.contains("chaos")),
                "{label}: failed response must name its panic ({:?})",
                f.error
            );
        }
        let repeat: Vec<Request> = reqs
            .iter()
            .map(|r| Request {
                id: r.id + 100,
                scn: r.scn.clone(),
                deadline_s: r.deadline_s,
            })
            .collect();
        for r in &repeat {
            server.submit(r.clone());
        }
        let second = server.drain(repeat.len());
        if let Err(e) = verify_responses_with(&repeat, &second, &mut cache) {
            tk_assert!(scn, false, "{label}: respawned worker diverges: {e}");
        }
        let stats = server.shutdown();
        tk_assert_eq!(scn, stats.panics, 1, "{label}: one armed panic fires");
        tk_assert!(
            scn,
            stats.failed >= 1,
            "{label}: the panicked pass must fail its request ({stats:?})"
        );
        if let Err(e) = stats.conservation() {
            tk_assert!(scn, false, "{label}: conservation broken: {e}");
        }
    }
}
