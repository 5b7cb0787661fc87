//! Shape-level assertions for the paper's experimental claims — the same
//! trends the figure harness prints, pinned as tests at small scale.

use optipart::core::metrics::{
    assignment, boundary_counts, comm_imbalance, communication_matrix, load_imbalance,
    partition_counts,
};
use optipart::core::optipart::{optipart, OptiPartOptions};
use optipart::core::partition::{
    distribute_tree, treesort_partition, PartitionOptions, PHASE_SPLITTER,
};
use optipart::core::quality::partition_quality;
use optipart::core::samplesort::samplesort_partition;
use optipart::fem::{run_matvec_experiment, DistMesh};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::Engine;
use optipart::octree::{LinearTree, MeshParams};
use optipart::sfc::{Curve, SfcKey};

fn engine(machine: MachineModel, p: usize) -> Engine {
    Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()))
}

fn split(tree: &LinearTree<3>, p: usize, tol: f64, machine: MachineModel) -> Vec<SfcKey> {
    let mut e = engine(machine, p);
    treesort_partition(
        &mut e,
        distribute_tree(tree, p),
        PartitionOptions::with_tolerance(tol),
    )
    .splitters
}

/// Fig. 11: load and communication imbalance grow with tolerance.
#[test]
fn imbalances_grow_with_tolerance() {
    let p = 24;
    let tree = MeshParams::normal(20_000, 21).build::<3>(Curve::Hilbert);
    let mut lambdas = Vec::new();
    let mut comm = Vec::new();
    for tol in [0.0, 0.25, 0.5] {
        let s = split(&tree, p, tol, MachineModel::cloudlab_clemson());
        let a = assignment(&tree, &s);
        lambdas.push(load_imbalance(&partition_counts(&a, p)));
        comm.push(comm_imbalance(&boundary_counts(&tree, &a, p)));
    }
    assert!(
        lambdas[0] <= lambdas[1] + 1e-9 && lambdas[1] <= lambdas[2] + 1e-9,
        "λ not non-decreasing: {lambdas:?}"
    );
    assert!(
        comm[2] >= comm[0] - 1e-9,
        "comm imbalance should grow overall: {comm:?}"
    );
}

/// Fig. 12: NNZ and total communication decrease with tolerance, and
/// Hilbert stays at or below Morton.
#[test]
fn nnz_decreases_with_tolerance_and_hilbert_wins() {
    let p = 32;
    let nnz_at = |curve: Curve, tol: f64| -> (usize, u64) {
        let tree = MeshParams::normal(20_000, 23).build::<3>(curve);
        let s = split(&tree, p, tol, MachineModel::titan());
        let a = assignment(&tree, &s);
        let m = communication_matrix(&tree, &a, p);
        (m.nnz(), m.total_bytes())
    };
    let (h0, v0) = nnz_at(Curve::Hilbert, 0.0);
    let (h5, v5) = nnz_at(Curve::Hilbert, 0.5);
    let (m0, w0) = nnz_at(Curve::Morton, 0.0);
    assert!(
        h5 <= h0,
        "hilbert nnz should not grow with tolerance: {h0} -> {h5}"
    );
    assert!(
        v5 <= v0,
        "hilbert volume should not grow with tolerance: {v0} -> {v5}"
    );
    assert!(h0 <= m0, "hilbert nnz {h0} should be <= morton {m0}");
    assert!(v0 <= w0, "hilbert volume {v0} should be <= morton {w0}");
}

/// Fig. 11 across seeds: the achieved load imbalance is bounded by the
/// requested flexible tolerance. Every splitter sits within `tol·grain`
/// of its target, so the largest partition is at most
/// `grain·(1 + 2·tol)` (both of a rank's boundaries displaced outward)
/// plus integer rounding — for every mesh seed and every tolerance in the
/// contention-free regime (below 0.5, no two targets can share a bucket
/// edge, so TreeSort honours the request exactly).
#[test]
fn fig11_imbalance_bounded_by_tolerance_across_seeds() {
    let p = 16;
    for seed in [41, 42, 43] {
        let tree = MeshParams::normal(8_000, seed).build::<3>(Curve::Hilbert);
        let grain = tree.len() as f64 / p as f64;
        for tol in [0.1, 0.25, 0.4] {
            let mut e = engine(MachineModel::cloudlab_clemson(), p);
            let out = treesort_partition(
                &mut e,
                distribute_tree(&tree, p),
                PartitionOptions::with_tolerance(tol),
            );
            assert!(
                out.report.achieved_tolerance <= tol + 1e-9,
                "seed {seed} tol {tol}: achieved {} exceeds request",
                out.report.achieved_tolerance
            );
            assert!(
                (out.report.wmax as f64) <= grain * (1.0 + 2.0 * tol) + 2.0,
                "seed {seed} tol {tol}: Wmax {} exceeds grain (1 + 2 tol)",
                out.report.wmax
            );
        }
    }
}

/// Fig. 12 across seeds: relaxing the tolerance never grows the
/// communication surface — both the comm-matrix NNZ and the total bytes
/// moved are non-increasing from exact balance to tol 0.5, for every mesh
/// seed (Hilbert keys, the curve the paper plots).
#[test]
fn fig12_comm_surface_non_increasing_across_seeds() {
    let p = 16;
    for seed in [51, 52, 53] {
        let tree = MeshParams::normal(8_000, seed).build::<3>(Curve::Hilbert);
        let surface = |tol: f64| {
            let s = split(&tree, p, tol, MachineModel::titan());
            let m = communication_matrix(&tree, &assignment(&tree, &s), p);
            (m.nnz(), m.total_bytes())
        };
        let (nnz0, vol0) = surface(0.0);
        let (nnz5, vol5) = surface(0.5);
        assert!(
            nnz5 <= nnz0,
            "seed {seed}: NNZ grew with tolerance: {nnz0} -> {nnz5}"
        );
        assert!(
            vol5 <= vol0,
            "seed {seed}: volume grew with tolerance: {vol0} -> {vol5}"
        );
    }
}

/// Fig. 10: OptiPart's model-chosen partition is essentially as good (in
/// its own predicted time) as every fixed-tolerance alternative on the
/// grid. The stopping rule is greedy (it halts at the first predicted
/// uptick, like Algorithm 3), so allow a small slack rather than exact
/// dominance.
#[test]
fn optipart_prediction_dominates_tolerance_grid() {
    let p = 24;
    let tree = MeshParams::normal(20_000, 29).build::<3>(Curve::Hilbert);
    let mut e = engine(MachineModel::cloudlab_wisconsin(), p);
    let chosen = optipart(
        &mut e,
        distribute_tree(&tree, p),
        OptiPartOptions::default(),
    );

    for tol in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let s = split(&tree, p, tol, MachineModel::cloudlab_wisconsin());
        let mut eq = engine(MachineModel::cloudlab_wisconsin(), p);
        let mut d = distribute_tree(&tree, p);
        let q = partition_quality(&mut eq, &mut d, &s, Curve::Hilbert);
        assert!(
            chosen.report.predicted_tp <= q.tp * 1.02,
            "optipart tp {} beaten by tol {tol}: {}",
            chosen.report.predicted_tp,
            q.tp
        );
    }
}

/// Fig. 6: OptiPart's splitter phase scales better than SampleSort's.
#[test]
fn optipart_splitter_phase_scales_better_than_samplesort() {
    let grain = 500;
    let splitter_times = |p: usize| -> (f64, f64) {
        let tree = MeshParams::normal(grain * p, 31).build::<3>(Curve::Morton);
        let mut e1 = engine(MachineModel::stampede(), p);
        let _ = optipart(
            &mut e1,
            distribute_tree(&tree, p),
            OptiPartOptions::for_curve(Curve::Morton),
        );
        let mut e2 = engine(MachineModel::stampede(), p);
        let _ = samplesort_partition(&mut e2, distribute_tree(&tree, p));
        (e1.phase_time(PHASE_SPLITTER), e2.phase_time(PHASE_SPLITTER))
    };
    let (o_small, s_small) = splitter_times(8);
    let (o_large, s_large) = splitter_times(64);
    // SampleSort's splitter phase grows much faster with p.
    let samplesort_growth = s_large / s_small;
    let optipart_growth = o_large / o_small;
    assert!(
        samplesort_growth > optipart_growth,
        "samplesort growth {samplesort_growth} vs optipart growth {optipart_growth}"
    );
}

/// §5.4: energy and runtime are strongly correlated across tolerances.
#[test]
fn energy_and_runtime_correlate_across_tolerances() {
    let p = 16;
    let tree = MeshParams::normal(10_000, 37).build::<3>(Curve::Hilbert);
    let mut times = Vec::new();
    let mut energies = Vec::new();
    for tol in [0.0, 0.2, 0.4] {
        let mut e = engine(MachineModel::cloudlab_wisconsin(), p);
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, p),
            PartitionOptions::with_tolerance(tol),
        );
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
        let rep = run_matvec_experiment(&mut e, &mesh, 10);
        times.push(rep.seconds);
        energies.push(rep.energy.total_j);
    }
    // Pearson correlation over the three points must be positive and strong.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mt, me) = (mean(&times), mean(&energies));
    let cov: f64 = times
        .iter()
        .zip(&energies)
        .map(|(t, e)| (t - mt) * (e - me))
        .sum();
    let st: f64 = times.iter().map(|t| (t - mt).powi(2)).sum::<f64>().sqrt();
    let se: f64 = energies
        .iter()
        .map(|e| (e - me).powi(2))
        .sum::<f64>()
        .sqrt();
    let r = cov / (st * se).max(f64::MIN_POSITIVE);
    assert!(r > 0.9, "energy–time correlation too weak: r = {r}");
}

/// §3.2: with increasing TreeSort level, the induced partition boundary is
/// non-decreasing while λ approaches 1 — the Fig. 2 trade.
#[test]
fn boundary_grows_and_lambda_shrinks_with_level() {
    use optipart::octree::neighbors::segment_surface;
    let p = 3;
    for curve in Curve::ALL {
        let mut prev_surface = 0u64;
        let mut prev_lambda = f64::INFINITY;
        for level in 2u8..=4 {
            let tree: LinearTree<2> =
                LinearTree::root(curve).refine_where(|c| c.level() < level, level);
            let n = tree.len();
            let mut bounds = vec![0usize];
            for r in 1..p {
                bounds.push(r * n / p);
            }
            bounds.push(n);
            let sizes: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
            let lambda = *sizes.iter().max().unwrap() as f64 / *sizes.iter().min().unwrap() as f64;
            let surface: u64 = bounds
                .windows(2)
                .map(|w| segment_surface(tree.leaves(), w[0], w[1], curve))
                .sum();
            // Normalise surface to the level's edge length so levels compare.
            let edge = 1u64 << (optipart::sfc::MAX_DEPTH - level);
            let surface = surface / edge;
            assert!(
                lambda <= prev_lambda + 1e-9,
                "{curve} level {level}: λ must not grow ({prev_lambda} -> {lambda})"
            );
            assert!(
                surface >= prev_surface,
                "{curve} level {level}: boundary must not shrink ({prev_surface} -> {surface})"
            );
            prev_surface = surface;
            prev_lambda = lambda;
        }
    }
}

/// Acceptance: a 20-step moving-front AMR sequence under the warm-started
/// ladder. The front translates the point cloud on an exact lattice with
/// period 8, so the warm path is fully predictable *per step* — one cold
/// seed, seven table-accelerated replays, then exact fingerprint hits for
/// the rest of the horizon — and a fail-stop kill in step 10's solve
/// shrinks to the survivor set, invalidates every cached partition (they
/// were fingerprinted for the dead rank count), re-seeds the warm state on
/// the new communicator, and still reproduces every fault-free step
/// solution to `1e-12` relative.
#[test]
fn moving_front_warm_replay_and_mid_sequence_recovery() {
    use optipart::core::optipart::{optipart_with_state, PartitionState, WarmStats};
    use optipart::fem::run_matvec_ft;
    use optipart::mpisim::{CheckpointPolicy, DistVec, FaultPlan};
    use optipart::octree::balance::balance21;
    use optipart::scenario::{HierKind, Scenario, Workload};

    const STEPS: usize = 20;
    const KILL_STEP: usize = 10;
    const ITERS: usize = 4;

    let mut scn = Scenario::from_seed(0xF057);
    scn.n = 500;
    scn.p = 6;
    scn.curve = Curve::Hilbert;
    scn.machine = MachineModel::cloudlab_wisconsin();
    scn.hier = HierKind::Smp;
    scn.workload = Workload::MovingFront {
        steps: STEPS as u32,
    };
    scn.faults = None;
    scn.split_budget = None;
    let opts = OptiPartOptions {
        curve: scn.curve,
        ..Default::default()
    };
    // 2:1-balance each step's mesh, as an AMR code would. The FEM
    // stencil's coupling set is partition independent on any complete
    // octree, so the cross-communicator solution compare needs no
    // balance; its bits are not, hence the 1e-12 compare. Balancing is
    // per-mesh, so the front's period-8 repetition survives it.
    let trees: Vec<LinearTree<3>> = (0..STEPS).map(|t| balance21(&scn.mesh_at(t))).collect();

    // One letter per step, from the warm counters' deltas: (C)old seed,
    // table-accelerated (R)eplay, exact fingerprint (H)it.
    let class = |before: WarmStats, after: WarmStats| -> char {
        match (
            after.colds - before.colds,
            after.replays - before.replays,
            after.hits - before.hits,
        ) {
            (1, 0, 0) => 'C',
            (0, 1, 0) => 'R',
            (0, 0, 1) => 'H',
            d => panic!("one step must take exactly one warm path, got {d:?}"),
        }
    };
    let matches_to_1e12 = |what: &str, want: &[(SfcKey, f64)], got: &[(SfcKey, f64)]| {
        assert_eq!(want.len(), got.len(), "{what}: solution lengths diverge");
        let norm = want
            .iter()
            .map(|(_, v)| v.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        for ((ka, a), (kb, b)) in want.iter().zip(got) {
            assert_eq!(ka, kb, "{what}: octant multiset diverged");
            assert!(
                (a - b).abs() <= 1e-12 * norm,
                "{what}: solution diverged: {a} vs {b} (norm {norm:e})"
            );
        }
    };

    // Fault-free pass: reference per-step solutions, per-step warm classes,
    // and the sync-point timeline of step 10's solve (to aim the kill).
    let mut state = PartitionState::new();
    let mut classes = String::new();
    let mut solutions = Vec::with_capacity(STEPS);
    let mut kill_mid = 0u64;
    for (t, tree) in trees.iter().enumerate() {
        let mut e = Engine::new(scn.p, scn.perf());
        let before = state.stats;
        let out = optipart_with_state(
            &mut e,
            DistVec::from_global(tree.leaves(), scn.p),
            opts,
            &mut state,
        );
        classes.push(class(before, state.stats));
        let mesh = DistMesh::build(&mut e, out.dist, scn.curve);
        let rep = run_matvec_ft(&mut e, &mesh, ITERS, CheckpointPolicy::EveryN(2));
        assert!(rep.deaths.is_empty(), "clean step {t} must see no deaths");
        if t == KILL_STEP {
            kill_mid = e.sync_points() / 2;
        }
        solutions.push(rep.solution);
    }
    // Period 8: step 0 cold, 1–7 replays, 8–19 exact hits — a 60% exact-hit
    // rate over the horizon, and the front never forces a second cold run.
    assert_eq!(classes, "CRRRRRRRHHHHHHHHHHHH");
    assert_eq!(
        state.stats,
        WarmStats {
            hits: 12,
            replays: 7,
            colds: 1,
            rejected: 0,
            invalidated: 0,
        }
    );
    assert!(kill_mid >= 2, "step {KILL_STEP} too short to aim a kill");

    // Faulted pass: same sequence, fresh warm state, one rank killed in the
    // middle of step 10's solve. Steps after the shrink run on the survivor
    // communicator: the cached partitions are invalidated wholesale, the
    // ladder re-seeds cold once, and the replay/hit cadence resumes.
    let victim = scn.p - 1;
    let mut state = PartitionState::new();
    let mut classes = String::new();
    let mut cur_p = scn.p;
    for (t, tree) in trees.iter().enumerate() {
        let mut e = Engine::new(cur_p, scn.perf());
        let before = state.stats;
        let out = optipart_with_state(
            &mut e,
            DistVec::from_global(tree.leaves(), cur_p),
            opts,
            &mut state,
        );
        classes.push(class(before, state.stats));
        let mesh = DistMesh::build(&mut e, out.dist, scn.curve);
        let rep = if t == KILL_STEP {
            let mut e = e.with_faults(FaultPlan::new(0x5EED).kill_rank(victim, kill_mid));
            let rep = run_matvec_ft(&mut e, &mesh, ITERS, CheckpointPolicy::EveryN(2));
            assert_eq!(rep.deaths.len(), 1, "the scheduled kill must fire");
            assert_eq!(rep.deaths[0].rank, victim, "wrong victim died");
            assert_eq!(rep.final_p, cur_p - 1, "survivor count after the kill");
            cur_p -= 1;
            rep
        } else {
            let rep = run_matvec_ft(&mut e, &mesh, ITERS, CheckpointPolicy::EveryN(2));
            assert!(rep.deaths.is_empty(), "faulted step {t}: no extra deaths");
            rep
        };
        matches_to_1e12(&format!("step {t}"), &solutions[t], &rep.solution);
    }
    // Steps 0–10 mirror the clean pass; the shrink then invalidates all 8
    // cached partitions, step 11 re-seeds cold, 12–18 replay, and step 19
    // (same front phase as 11) is the first exact hit on the new
    // communicator.
    assert_eq!(classes, "CRRRRRRRHHHCRRRRRRRH");
    assert_eq!(
        state.stats,
        WarmStats {
            hits: 4,
            replays: 14,
            colds: 2,
            rejected: 0,
            invalidated: 8,
        }
    );
}
