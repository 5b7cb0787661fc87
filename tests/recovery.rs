//! Fail-stop recovery end-to-end: seeded kills remove ranks mid-run, the
//! checkpointed drivers shrink to the survivor set, re-run OptiPart and
//! continue — conserving the global octant multiset, reproducing the
//! fault-free FEM solution to round-off, and staying bit-deterministic
//! (byte-identical Chrome trace, identical makespan) across host thread
//! counts. The critical path must tile `[0, makespan]` exactly *through*
//! the detection, restore and repartition events.

use optipart::core::optipart::WarmStats;
use optipart::core::partition::{distribute_tree, treesort_partition, PartitionOptions};
use optipart::fem::{
    amr_simulation, amr_simulation_ft, run_matvec_experiment, run_matvec_ft, AmrConfig, DistMesh,
};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::{CheckpointPolicy, Engine, FaultPlan, RunStats};
use optipart::octree::{balance::balance21, LinearTree, MeshParams};
use optipart::sfc::{Curve, SfcKey};
use optipart::trace::{chrome_trace_digest, fnv1a};

fn engine(p: usize) -> Engine {
    Engine::new(
        p,
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        ),
    )
}

/// 2:1-balanced test mesh — the class (Dendro's) on which the FEM stencil
/// is partition-independent, so faulted and fault-free solutions compare.
fn balanced_tree(n: usize, seed: u64) -> LinearTree<3> {
    balance21(&MeshParams::normal(n, seed).build::<3>(Curve::Hilbert))
}

fn built(e: &mut Engine, tree: &LinearTree<3>) -> DistMesh<3> {
    let out = treesort_partition(e, distribute_tree(tree, e.p()), PartitionOptions::exact());
    DistMesh::build(e, out.dist, Curve::Hilbert)
}

/// `|a - b| ≤ 1e-12` relative to the solution's ∞-norm (per-element relative
/// error is meaningless where the stencil cancels to ~0).
fn assert_solutions_match(want: &[(SfcKey, f64)], got: &[(SfcKey, f64)]) {
    assert_eq!(want.len(), got.len());
    let norm = want
        .iter()
        .map(|(_, v)| v.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    for ((ka, a), (kb, b)) in want.iter().zip(got) {
        assert_eq!(ka, kb, "octant multiset diverged");
        assert!(
            (a - b).abs() <= 1e-12 * norm,
            "solution diverged: {a} vs {b} (norm {norm:e})"
        );
    }
}

/// Everything a driver leaves on its engine: makespan bits, per-rank clock
/// bits, traffic stats, sync-point count and the Chrome-trace digest.
fn engine_footprint(e: &Engine) -> (u64, Vec<u64>, RunStats, u64, u64) {
    (
        e.makespan().to_bits(),
        e.clocks().iter().map(|c| c.to_bits()).collect(),
        e.stats().clone(),
        e.sync_points(),
        chrome_trace_digest(e.tracer()),
    )
}

#[test]
fn fault_free_amr_driver_is_the_ft_driver_with_checkpointing_off() {
    // `amr_simulation` must be `amr_simulation_ft(.., Never)` projected:
    // same report to the last bit, same charges, same collective sequence,
    // same trace bytes — with the partitioner warm-started or not.
    for warm_start in [true, false] {
        let cfg = AmrConfig {
            steps: 4,
            max_level: 4,
            matvecs_per_step: 3,
            warm_start,
            ..Default::default()
        };
        let mut ep = engine(8).with_tracing();
        let plain = amr_simulation(&mut ep, &cfg);
        let mut ef = engine(8).with_tracing();
        let ft = amr_simulation_ft(&mut ef, &cfg, CheckpointPolicy::Never);

        assert!(ft.deaths.is_empty());
        assert_eq!(ft.checkpoint.saves, 0);
        assert_eq!(plain.steps.len(), ft.steps.len());
        for (a, b) in plain.steps.iter().zip(&ft.steps) {
            assert_eq!(
                (a.step, a.elements, a.migrated),
                (b.step, b.elements, b.migrated)
            );
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "step {}", a.step);
            assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "step {}", a.step);
        }
        assert_eq!(plain.total_seconds.to_bits(), ft.total_seconds.to_bits());
        assert_eq!(plain.total_energy_j.to_bits(), ft.total_energy_j.to_bits());
        assert_eq!(plain.total_ghosts, ft.total_ghosts);
        assert_eq!(plain.warm, ft.warm);
        assert_eq!(
            engine_footprint(&ep),
            engine_footprint(&ef),
            "warm_start = {warm_start}"
        );
    }
}

#[test]
fn fault_free_matvec_driver_is_the_ft_driver_with_checkpointing_off() {
    // Same pin for `run_matvec_experiment` against `run_matvec_ft(.., Never)`;
    // 23 iterations cross the every-tenth rescale twice.
    let tree = balanced_tree(1_500, 67);
    let mut ep = engine(8).with_tracing().record_comm_matrix();
    let mesh_p = built(&mut ep, &tree);
    let plain = run_matvec_experiment(&mut ep, &mesh_p, 23);
    let mut ef = engine(8).with_tracing().record_comm_matrix();
    let mesh_f = built(&mut ef, &tree);
    let ft = run_matvec_ft(&mut ef, &mesh_f, 23, CheckpointPolicy::Never);

    assert!(ft.deaths.is_empty());
    assert_eq!(plain.iterations, ft.iterations);
    assert_eq!(plain.seconds.to_bits(), ft.seconds.to_bits());
    assert_eq!(plain.ghost_elements, ft.ghost_elements);
    // The plain report's remaining fields are read-outs of the engine.
    let energy = ef.energy_report();
    assert_eq!(plain.energy.total_j.to_bits(), energy.total_j.to_bits());
    assert_eq!(plain.energy.comm_j.to_bits(), energy.comm_j.to_bits());
    assert_eq!(plain.energy.per_node_j, energy.per_node_j);
    assert_eq!(plain.comm_nnz, ef.comm_matrix().map(|m| m.nnz()));
    assert_eq!(plain.bytes_total, ef.stats().bytes_total);
    assert_eq!(plain.retries, ef.stats().retries_total);
    assert_eq!(plain.rank_clocks, ef.clocks());
    assert_eq!(engine_footprint(&ep), engine_footprint(&ef));
}

#[test]
fn checkpointed_amr_run_is_pinned() {
    // A checkpoint mirrors octants, the solution vector and the warm-start
    // cache at their declared sizes; no other pin sees the cache's
    // footprint. Pinned: the bytes saved and a digest of the engine.
    let cfg = AmrConfig {
        steps: 4,
        max_level: 4,
        matvecs_per_step: 3,
        ..Default::default()
    };
    let mut e = engine(8).with_tracing();
    let rep = amr_simulation_ft(&mut e, &cfg, CheckpointPolicy::EveryStep);
    assert_eq!(rep.checkpoint.saves, 4);
    let digest = fnv1a(format!("{:?}", engine_footprint(&e)).as_bytes());
    assert_eq!(
        (e.stats().checkpoint_bytes, digest),
        (500_480, 0xa3a1_f7fb_9595_ad38),
        "footprint moved (got {digest:#018x})"
    );
}

#[test]
fn killed_amr_run_completes_on_survivors() {
    // The acceptance scenario: a faulted AMR run that kills one rank
    // mid-solve completes on the survivor set with the same global octant
    // multiset and a FEM solution matching the fault-free run.
    let cfg = AmrConfig {
        steps: 4,
        max_level: 4,
        matvecs_per_step: 3,
        ..Default::default()
    };
    let mut clean = engine(8);
    let want = amr_simulation_ft(&mut clean, &cfg, CheckpointPolicy::EveryStep);
    assert!(want.deaths.is_empty());
    let mid = clean.sync_points() / 2;

    let mut e = engine(8).with_faults(FaultPlan::new(17).kill_rank(5, mid));
    let got = amr_simulation_ft(&mut e, &cfg, CheckpointPolicy::EveryStep);
    assert_eq!(got.deaths.len(), 1);
    assert_eq!(got.deaths[0].rank, 5);
    assert_eq!(got.final_p, 7);
    assert_eq!(got.checkpoint.restores, 1);
    assert_eq!(got.steps.last().unwrap().step, cfg.steps - 1);
    assert!(got.total_seconds > want.total_seconds);
    assert_solutions_match(&want.solution, &got.solution);
}

#[test]
fn shrink_invalidates_warm_state_and_stays_bit_identical() {
    // A mid-run kill shrinks the communicator, so every cached
    // `PartitionState` entry is fingerprinted for a rank count that no
    // longer exists: the recovery repartition must invalidate them all,
    // run cold, and re-seed for the survivor machine — and the whole
    // warm-started faulted run must stay bit-identical to the same run
    // with warm-start disabled.
    let cfg = AmrConfig {
        steps: 4,
        max_level: 4,
        matvecs_per_step: 3,
        ..Default::default()
    };
    let mut clean = engine(8);
    let want = amr_simulation_ft(&mut clean, &cfg, CheckpointPolicy::EveryStep);
    let mid = clean.sync_points() / 2;

    let run = |cfg: &AmrConfig| {
        let mut e = engine(8).with_faults(FaultPlan::new(43).kill_rank(3, mid));
        let rep = amr_simulation_ft(&mut e, cfg, CheckpointPolicy::EveryStep);
        assert_eq!(rep.deaths.len(), 1, "the scheduled kill must fire");
        assert_eq!(rep.final_p, 7);
        rep
    };
    let warm = run(&cfg);
    let cold = run(&AmrConfig {
        warm_start: false,
        ..cfg
    });

    // The shrink dropped the pre-death entries and forced a cold re-seed;
    // nothing was ever rejected as corrupt.
    assert!(
        warm.warm.invalidated >= 1,
        "shrink must invalidate stale state: {:?}",
        warm.warm
    );
    assert!(warm.warm.colds >= 2, "post-shrink ladder must run cold");
    assert_eq!(warm.warm.rejected, 0);
    assert_eq!(cold.warm, WarmStats::default(), "cold run must not warm");

    // Bit-identical faulted trajectories (virtual clocks differ — the warm
    // path charges for fingerprinting), round-off-identical to clean.
    assert_eq!(warm.solution, cold.solution);
    assert_solutions_match(&want.solution, &warm.solution);
}

#[test]
fn seeded_double_kill_shrinks_twice_and_still_matches() {
    // `with_rank_failures(0.25)` on p = 8 seeds two kills early in the run;
    // each is survived by a separate shrink + restore + repartition.
    let tree = balanced_tree(1_500, 53);

    let mut clean = engine(8);
    let mesh_c = built(&mut clean, &tree);
    let want = run_matvec_ft(&mut clean, &mesh_c, 20, CheckpointPolicy::EveryStep);

    let mut e = engine(8);
    let mesh = built(&mut e, &tree);
    let mut e = e.with_faults(FaultPlan::new(29).with_rank_failures(0.25));
    let got = run_matvec_ft(&mut e, &mesh, 20, CheckpointPolicy::EveryStep);
    assert_eq!(got.deaths.len(), 2, "0.25 × 8 ranks ⇒ two seeded kills");
    assert_eq!(got.final_p, 6);
    assert_eq!(got.checkpoint.restores, 2);
    assert_solutions_match(&want.solution, &got.solution);
}

#[test]
fn recovery_is_deterministic_across_thread_counts() {
    // Same seed + kill schedule ⇒ byte-identical Chrome trace and identical
    // makespan at any host thread count, with the critical path tiling
    // [0, makespan] exactly through detection, restore and repartition.
    let tree = balanced_tree(1_200, 59);

    // Probe a clean run's sync-point timeline to aim the kill mid-solve.
    let mut probe = engine(8);
    let mesh_p = built(&mut probe, &tree);
    let _ = run_matvec_ft(&mut probe, &mesh_p, 12, CheckpointPolicy::EveryN(2));
    let mid = probe.sync_points() / 2;
    assert!(mid >= 2);

    let run = || {
        let mut e = engine(8).with_tracing();
        let mesh = built(&mut e, &tree);
        let mut e = e.with_faults(FaultPlan::new(31).kill_rank(4, mid));
        let rep = run_matvec_ft(&mut e, &mesh, 12, CheckpointPolicy::EveryN(2));
        assert_eq!(rep.deaths.len(), 1, "the scheduled kill must fire");
        assert_eq!(rep.final_p, 7);

        // Critical path must tile the whole timeline through the recovery.
        let cp = e.critical_path();
        let makespan = e.makespan();
        assert!(
            (cp.covered_s() - makespan).abs() <= 1e-12 * makespan,
            "critical path ({}) must equal the virtual makespan ({})",
            cp.covered_s(),
            makespan
        );
        (e.trace_json(), makespan, rep.solution.clone())
    };

    let (json, makespan, solution) = run();
    assert!(
        json.contains("fault.death"),
        "the victim's death must be annotated in the trace"
    );
    assert!(
        json.contains("fault.detect"),
        "the survivors' detection sync must be in the trace"
    );
    assert!(
        json.contains("checkpoint"),
        "checkpoint syncs must be traced"
    );
    assert!(json.contains("restore"), "the restore sync must be traced");
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let (json2, makespan2, solution2) = run();
        assert_eq!(json, json2, "trace diverged at RAYON_NUM_THREADS={threads}");
        assert_eq!(makespan, makespan2);
        assert_eq!(solution, solution2);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn checkpoint_interval_trades_overhead_for_lost_work() {
    // The Young/Daly trade-off the recovery ablation measures: frequent
    // checkpoints cost clean-run time but lose fewer iterations at a death.
    let tree = balanced_tree(1_000, 61);

    let clean_secs = |policy: CheckpointPolicy| {
        let mut e = engine(8);
        let mesh = built(&mut e, &tree);
        let rep = run_matvec_ft(&mut e, &mesh, 20, policy);
        (rep.seconds, e.sync_points())
    };
    let (t_none, _) = clean_secs(CheckpointPolicy::Never);
    let (t_every, _) = clean_secs(CheckpointPolicy::EveryStep);
    let (t_sparse, sync_sparse) = clean_secs(CheckpointPolicy::EveryN(10));
    assert!(t_every > t_sparse, "denser checkpoints must cost more");
    assert!(t_sparse > t_none, "any checkpointing costs virtual time");

    let lost = |policy: CheckpointPolicy, mid: u64| {
        let mut e = engine(8);
        let mesh = built(&mut e, &tree);
        let mut e = e.with_faults(FaultPlan::new(5).kill_rank(1, mid));
        let rep = run_matvec_ft(&mut e, &mesh, 20, policy);
        assert_eq!(rep.deaths.len(), 1);
        rep.lost_iterations
    };
    // Aim both kills at the same point of the sparse run's timeline.
    let mid = sync_sparse / 2;
    assert!(
        lost(CheckpointPolicy::EveryN(10), mid) > lost(CheckpointPolicy::EveryStep, mid),
        "sparse checkpoints must lose more work at a death"
    );
}
