//! Fail-stop recovery drivers: checkpointed solve loops that survive rank
//! deaths by shrinking to the survivor set and re-running OptiPart.
//!
//! The protocol (DESIGN.md, *fem* and *mpisim*) on top of the engine's fail-stop machinery:
//!
//! 1. **Checkpoint** — at each opportunity the [`CheckpointStore`] deems due,
//!    snapshot the partitioned octant buffer plus the solver vector
//!    (in-memory partner mirror, charged `tc·bytes + ts + tw·bytes` on the
//!    virtual clocks).
//! 2. **Detect** — a scheduled kill makes the victim stop arriving at sync
//!    points; survivors charge a detection timeout at the next collective and
//!    the engine unwinds with a [`RankDeath`](optipart_mpisim::RankDeath).
//! 3. **Shrink** — each driver runs its loop body under
//!    [`survive_rank_death`], which catches the unwind and drops the
//!    victim's slot ([`Engine::shrink_after_death`]): the same engine
//!    continues as a `p − 1`-rank machine (original rank ids are kept for
//!    fault factors, placement and trace tracks).
//! 4. **Restore + repartition** — survivors re-fetch the lost parts
//!    (charged), globally re-run OptiPart over the survivor set, rebuild the
//!    distributed mesh, and resume from the snapshot's progress label.
//!
//! Everything stays on the virtual BSP clock, so a faulted run with a fixed
//! seed and kill schedule is bit-deterministic at any host thread count, and
//! the recovery cost shows up in the critical path and model attribution.
//!
//! The fault-free drivers ([`crate::amr::amr_simulation`],
//! [`crate::driver::run_matvec_experiment`]) are these loops under
//! [`CheckpointPolicy::Never`]: with no death and nothing to checkpoint the
//! recovery machinery charges nothing and emits nothing.

use crate::amr::{amr_step, AmrConfig, AmrStep};
use crate::driver::{initial_vector, optipart_from};
use crate::matvec::laplacian_matvec;
use crate::mesh::DistMesh;
use optipart_core::optipart::{OptiPartOptions, PartitionState, WarmStats};
use optipart_mpisim::{
    survive_rank_death, CheckpointPolicy, CheckpointStats, CheckpointStore, DistVec, Engine,
    Replicated,
};
use optipart_sfc::{Curve, KeyedCell, SfcKey};

/// Checkpointed state: the partitioned octant buffer plus the solver vector.
type SolveState<const D: usize> = (DistVec<KeyedCell<D>>, DistVec<f64>);

/// The AMR driver's checkpointed state: octants + solver vector + the
/// partitioner's warm-start cache (rank-replicated), so a rollback restores
/// the ladder memory alongside the data it was derived from.
type AmrSolveState = (
    DistVec<KeyedCell<3>>,
    DistVec<f64>,
    Replicated<PartitionState>,
);

/// One recovered rank death.
#[derive(Clone, Debug)]
pub struct DeathRecord {
    /// Original rank id of the victim.
    pub rank: usize,
    /// Virtual time at which survivors detected the death.
    pub detected_at_s: f64,
    /// Progress label (iteration or AMR step) the run resumed from.
    pub resumed_from: u64,
    /// Completed progress units (iterations / steps) invalidated by the
    /// rollback — work done since the restored snapshot, excluding the
    /// partially-executed unit the death interrupted.
    pub lost_units: u64,
    /// Virtual seconds spent on restore + survivor repartition + remesh
    /// (detection timeout is charged separately, before the unwind).
    pub recovery_s: f64,
}

impl DeathRecord {
    /// A record for a just-detected death; the recovery fields are filled
    /// in once the (possibly retried) recovery completes.
    fn detected(death: &optipart_mpisim::RankDeath) -> Self {
        DeathRecord {
            rank: death.rank,
            detected_at_s: death.t_detect,
            resumed_from: 0,
            lost_units: 0,
            recovery_s: 0.0,
        }
    }
}

/// Report of a fault-tolerant matvec run ([`run_matvec_ft`]).
#[derive(Clone, Debug)]
pub struct FtReport {
    /// Iterations completed (the requested count — recovery re-runs lost ones).
    pub iterations: usize,
    /// Total simulated seconds, including checkpoints and recoveries.
    pub seconds: f64,
    /// Every death survived, in order.
    pub deaths: Vec<DeathRecord>,
    /// Checkpoint/restore accounting.
    pub checkpoint: CheckpointStats,
    /// Total iterations re-executed due to rollbacks.
    pub lost_iterations: u64,
    /// Ranks still alive at the end.
    pub final_p: usize,
    /// Ghost elements actually moved (re-executed iterations count again).
    pub ghost_elements: u64,
    /// The final solver vector as globally key-sorted `(octant, value)`
    /// pairs — partition-independent, for comparing faulted vs. fault-free.
    pub solution: Vec<(SfcKey, f64)>,
    /// Warm-start decisions taken by recovery repartitions (a shrink always
    /// invalidates the cache, so the first recovery after a death is cold).
    pub warm: WarmStats,
}

/// Report of a fault-tolerant AMR run ([`amr_simulation_ft`]).
#[derive(Clone, Debug)]
pub struct FtAmrReport {
    /// One entry per *executed* step attempt, in execution order — a step
    /// re-run after a rollback appears again, so with deaths
    /// `steps.len() > cfg.steps`.
    pub steps: Vec<AmrStep>,
    /// Total simulated seconds, including checkpoints and recoveries.
    pub total_seconds: f64,
    /// Total energy, Joules.
    pub total_energy_j: f64,
    /// Ghost elements moved by all executed matvecs.
    pub total_ghosts: u64,
    /// Every death survived, in order.
    pub deaths: Vec<DeathRecord>,
    /// Checkpoint/restore accounting.
    pub checkpoint: CheckpointStats,
    /// Completed AMR steps re-executed due to rollbacks.
    pub lost_steps: u64,
    /// Ranks still alive at the end.
    pub final_p: usize,
    /// Final step's solution as globally key-sorted `(octant, value)` pairs;
    /// its keys are the final mesh's global octant multiset.
    pub solution: Vec<(SfcKey, f64)>,
    /// Warm-start decisions over the whole run (per-step repartitions and
    /// recovery repartitions; all zeros with `warm_start` off).
    pub warm: WarmStats,
}

/// `‖x‖∞` rescale keeping the repeated matvec chain in range (the physics
/// is irrelevant; only the compute/comm pattern matters) — an
/// order-independent max-reduction, so the result is partition-invariant.
fn rescale(e: &mut Engine, x: &mut DistVec<f64>) {
    let max = e
        .allreduce_max_f64(
            &x.parts()
                .iter()
                .map(|b| b.iter().fold(0.0f64, |m, v| m.max(v.abs())))
                .collect::<Vec<_>>(),
        )
        .max(f64::MIN_POSITIVE);
    e.compute(x, |_r, buf| {
        for v in buf.iter_mut() {
            *v /= max;
        }
        buf.len() as f64 * 16.0
    });
}

/// The all-ones vector over a mesh's cells (the AMR per-step initial state).
fn ones<const D: usize>(mesh: &DistMesh<D>) -> DistVec<f64> {
    DistVec::from_parts(
        mesh.cells
            .counts()
            .iter()
            .map(|&c| vec![1.0f64; c])
            .collect(),
    )
}

/// Flattens `(mesh, x)` into globally key-sorted `(octant, value)` pairs.
fn global_solution<const D: usize>(mesh: &DistMesh<D>, x: &DistVec<f64>) -> Vec<(SfcKey, f64)> {
    let mut out: Vec<(SfcKey, f64)> = mesh
        .cells
        .parts()
        .iter()
        .zip(x.parts())
        .flat_map(|(cells, vals)| cells.iter().zip(vals).map(|(kc, &v)| (kc.key, v)))
        .collect();
    out.sort_unstable_by_key(|a| a.0);
    out
}

/// The shared tail of a recovery: block-distribute the restored (globally
/// sorted) cells over the survivors and re-run OptiPart exactly as at
/// startup — the same machine-aware Eq. (3) search, now sized to the
/// survivor machine. Warm-started when a [`PartitionState`] is threaded
/// through: the rank count changed, so its entries are invalidated and the
/// repartition runs cold, re-seeding the cache for the shrunk machine.
/// Then rebuild the mesh and re-scatter the solver vector onto the new
/// partition by octant key.
fn repartition_survivors<const D: usize>(
    engine: &mut Engine,
    cells: &[KeyedCell<D>],
    vals: &[f64],
    curve: Curve,
    warm: Option<&mut PartitionState>,
) -> (DistMesh<D>, DistVec<f64>, f64) {
    debug_assert!(
        cells.windows(2).all(|w| w[0].key <= w[1].key),
        "a restored snapshot concatenates to globally sorted cells"
    );
    let input = DistVec::from_global(cells, engine.p());
    let opts = OptiPartOptions::for_curve(curve);
    let out = engine.phase("ft.partition", |e| optipart_from(e, input, opts, warm));
    let lambda = out.report.lambda;
    let mesh = engine.phase("ft.mesh", |e| DistMesh::build(e, out.dist, curve));
    let keys: Vec<SfcKey> = cells.iter().map(|kc| kc.key).collect();
    let x = DistVec::from_parts(
        mesh.cells
            .parts()
            .iter()
            .map(|buf| {
                buf.iter()
                    .map(|kc| {
                        let i = keys
                            .binary_search(&kc.key)
                            .expect("restored octant missing from snapshot");
                        vals[i]
                    })
                    .collect()
            })
            .collect(),
    );
    (mesh, x, lambda)
}

/// Post-shrink recovery for the matvec driver: restore the latest snapshot
/// (charged) and repartition the survivors. Returns
/// `(label, mesh, x, lambda, recovery_seconds)`.
fn recover<const D: usize>(
    engine: &mut Engine,
    store: &mut CheckpointStore<SolveState<D>>,
    curve: Curve,
    warm: &mut PartitionState,
) -> (u64, DistMesh<D>, DistVec<f64>, f64, f64) {
    let t0 = engine.makespan();
    let (label, cells, vals) = {
        let snap = store.restore(engine);
        (snap.label, snap.state.0.concat(), snap.state.1.concat())
    };
    let (mesh, x, lambda) = repartition_survivors(engine, &cells, &vals, curve, Some(warm));
    (label, mesh, x, lambda, engine.makespan() - t0)
}

/// Post-shrink recovery for the AMR driver: like [`recover`], but the
/// snapshot also carries the partitioner's warm-start cache — the payload
/// rolls back with the data it was derived from, while the decision
/// counters (run-scoped accounting) keep going.
fn recover_amr(
    engine: &mut Engine,
    store: &mut CheckpointStore<AmrSolveState>,
    curve: Curve,
    mut warm: Option<&mut PartitionState>,
) -> (u64, DistMesh<3>, DistVec<f64>, f64, f64) {
    let t0 = engine.makespan();
    let (label, cells, vals, saved) = {
        let snap = store.restore(engine);
        (
            snap.label,
            snap.state.0.concat(),
            snap.state.1.concat(),
            snap.state.2.value.clone(),
        )
    };
    if let Some(w) = warm.as_deref_mut() {
        let stats = w.stats;
        *w = saved;
        w.stats = stats;
    }
    let (mesh, x, lambda) = repartition_survivors(engine, &cells, &vals, curve, warm);
    (label, mesh, x, lambda, engine.makespan() - t0)
}

/// [`crate::driver::run_matvec_experiment`] hardened against fail-stop
/// deaths: the iteration loop checkpoints under `policy` (labels are global
/// iteration indices), and every death scheduled in the engine's
/// [`FaultPlan`](optipart_mpisim::FaultPlan) is survived by shrinking,
/// restoring the last snapshot, repartitioning the survivors with OptiPart
/// and re-running the lost iterations.
///
/// The rescale cadence is keyed to the *absolute* iteration index, so a
/// replayed segment applies exactly the ops the fault-free run would — the
/// stencil is partition-independent on any complete octree, so final
/// solutions agree to round-off (`≤ 1e-12` relative) regardless of where
/// deaths strike.
///
/// Panics (from [`CheckpointStore::restore`]) if a death strikes under
/// [`CheckpointPolicy::Never`] or before the first save.
pub fn run_matvec_ft<const D: usize>(
    engine: &mut Engine,
    mesh: &DistMesh<D>,
    iterations: usize,
    policy: CheckpointPolicy,
) -> FtReport {
    engine.reset();
    let curve = mesh.curve;
    let mut store: CheckpointStore<SolveState<D>> = CheckpointStore::new(policy);
    let mut warm = PartitionState::new();
    let mut deaths: Vec<DeathRecord> = Vec::new();
    let mut owned_mesh: Option<DistMesh<D>> = None;
    let mut x = initial_vector(mesh);
    let mut next_it: u64 = 0;
    let total = iterations as u64;
    let mut ghosts = 0u64;

    // A death anywhere — in the solve loop *or inside a recovery's own
    // collectives* — ends the pass; the next pass starts by recovering, and
    // is itself retried until it completes on a live survivor set.
    let mut recovering = false;
    loop {
        let pass = survive_rank_death(engine, |engine| {
            if recovering {
                let (label, new_mesh, new_x, _lambda, recovery_s) =
                    recover(engine, &mut store, curve, &mut warm);
                let d = deaths.last_mut().expect("recovery follows a death");
                d.resumed_from = label;
                d.lost_units = next_it - label;
                d.recovery_s += recovery_s;
                next_it = label;
                x = new_x;
                owned_mesh = Some(new_mesh);
                recovering = false;
            }
            let m = owned_mesh.as_ref().unwrap_or(mesh);
            while next_it < total {
                if store.due(engine) {
                    let state = (m.cells.clone(), x.clone());
                    engine.phase("ft.checkpoint", |e| store.save(e, next_it, &state));
                }
                let it = next_it;
                let (y, stats) = engine.phase("matvec", |e| laplacian_matvec(e, m, &mut x));
                ghosts += stats.ghost_elements;
                x = y;
                if it % 10 == 9 {
                    engine.phase("rescale", |e| rescale(e, &mut x));
                }
                next_it = it + 1;
            }
        });
        match pass {
            Ok(()) => break,
            Err(death) => {
                deaths.push(DeathRecord::detected(&death));
                recovering = true;
            }
        }
    }

    let final_mesh = owned_mesh.as_ref().unwrap_or(mesh);
    let solution = global_solution(final_mesh, &x);
    let lost_iterations = deaths.iter().map(|d| d.lost_units).sum();
    FtReport {
        iterations,
        seconds: engine.makespan(),
        deaths,
        checkpoint: store.stats(),
        lost_iterations,
        final_p: engine.p(),
        ghost_elements: ghosts,
        solution,
        warm: warm.stats,
    }
}

/// [`crate::amr::amr_simulation`] hardened against fail-stop deaths.
///
/// Checkpoint opportunities come once per AMR step, right after the step's
/// mesh is built (label = step index, state = partitioned octants + initial
/// solver vector). A death anywhere in a step — partition, mesh build,
/// checkpoint or solve — rolls back to the latest snapshot: survivors
/// restore its octants, repartition them with OptiPart, rebuild the mesh
/// *without* redistributing from scratch, and re-run the snapshot's step
/// solve before continuing. Since each step's refinement derives from the
/// global front (not from rank count), the surviving run produces the same
/// global octant multiset and a solution matching the fault-free run.
pub fn amr_simulation_ft(
    engine: &mut Engine,
    cfg: &AmrConfig,
    policy: CheckpointPolicy,
) -> FtAmrReport {
    engine.reset();
    let mut store: CheckpointStore<AmrSolveState> = CheckpointStore::new(policy);
    let mut steps: Vec<AmrStep> = Vec::new();
    let mut deaths: Vec<DeathRecord> = Vec::new();
    let mut warm = cfg
        .warm_start
        .then(|| PartitionState::with_cap(cfg.state_cap));
    let mut prev_splitters: Option<Vec<SfcKey>> = None;
    let mut solution = Vec::new();
    let mut total_ghosts = 0u64;
    let mut t = 0usize;

    // Like [`run_matvec_ft`]: a death ends the pass at the step it struck
    // (`rollback_from`), and the next pass starts by rolling back — retried
    // until it completes, so a death during a recovery's own collectives is
    // survived too.
    let mut rollback_from: Option<u64> = None;
    while t < cfg.steps {
        let pass = survive_rank_death(engine, |engine| {
            let recovered = rollback_from.take().map(|before| {
                let (label, mesh, x, lambda, recovery_s) =
                    recover_amr(engine, &mut store, cfg.curve, warm.as_mut());
                let d = deaths.last_mut().expect("recovery follows a death");
                d.resumed_from = label;
                d.lost_units = before - label;
                d.recovery_s += recovery_s;
                t = label as usize;
                prev_splitters = Some(mesh.splitters.clone());
                (mesh, x, lambda)
            });

            let t_start = engine.makespan();
            let (mesh, x0, migrated, lambda) = match recovered {
                // Rolled back: the recovery already rebuilt this step's
                // partition over the survivors — go straight to the solve.
                Some((mesh, x, lambda)) => (mesh, x, 0u64, lambda),
                None => {
                    let (mesh, migrated, lambda, splitters) =
                        amr_step(engine, cfg, t, prev_splitters.as_deref(), warm.as_mut());
                    // (A death later in this step rolls back, which resets
                    // the placement to the recovered mesh's splitters.)
                    prev_splitters = Some(splitters);
                    let x = ones(&mesh);
                    (mesh, x, migrated, lambda)
                }
            };
            if store.due(engine) {
                // The warm-start cache snapshots alongside the data it
                // was derived from (zero wire bytes when warm-start is
                // off — the wrapper still keeps the state type uniform).
                let cache = warm.clone().unwrap_or_default();
                let bytes = warm.as_ref().map_or(0, |w| w.footprint_bytes());
                let state = (
                    mesh.cells.clone(),
                    x0.clone(),
                    Replicated::new(cache, bytes, engine.p()),
                );
                engine.phase("ft.checkpoint", |e| store.save(e, t as u64, &state));
            }
            let (x, ghosts) = engine.phase("amr.solve", |e| {
                let mut x = x0;
                let mut g = 0u64;
                for _ in 0..cfg.matvecs_per_step {
                    let (y, stats) = laplacian_matvec(e, &mesh, &mut x);
                    g += stats.ghost_elements;
                    x = y;
                }
                (x, g)
            });
            let elements = mesh.cells.total_len();
            engine.trace_decision(
                "amr.step",
                &[
                    ("step", t as f64),
                    ("elements", elements as f64),
                    ("migrated", migrated as f64),
                    ("lambda", lambda),
                ],
            );

            // The step is complete: commit it. Only the final step's
            // solution is kept — no mesh outlives its step.
            total_ghosts += ghosts;
            steps.push(AmrStep {
                step: t,
                elements,
                migrated,
                lambda,
                seconds: engine.makespan() - t_start,
            });
            t += 1;
            if t == cfg.steps {
                solution = global_solution(&mesh, &x);
            }
        });
        if let Err(death) = pass {
            deaths.push(DeathRecord::detected(&death));
            rollback_from = Some(t as u64);
        }
    }

    let lost_steps = deaths.iter().map(|d| d.lost_units).sum();
    FtAmrReport {
        steps,
        total_seconds: engine.makespan(),
        total_energy_j: engine.energy_report().total_j,
        total_ghosts,
        deaths,
        checkpoint: store.stats(),
        lost_steps,
        final_p: engine.p(),
        solution,
        warm: warm.map(|s| s.stats).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_core::partition::{distribute_tree, treesort_partition, PartitionOptions};
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_mpisim::FaultPlan;
    use optipart_octree::{balance::balance21, MeshParams};

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(
                MachineModel::cloudlab_wisconsin(),
                AppModel::laplacian_matvec(),
            ),
        )
    }

    /// Values must agree to `1e-12` relative to the solution's ∞-norm
    /// (per-element relative error is meaningless where the stencil
    /// cancels to ~0).
    fn assert_solutions_match(want: &[(SfcKey, f64)], got: &[(SfcKey, f64)]) {
        let norm = want
            .iter()
            .map(|(_, v)| v.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        for ((_, a), (_, b)) in want.iter().zip(got) {
            assert!(
                (a - b).abs() <= 1e-12 * norm,
                "solution diverged: {a} vs {b} (norm {norm:e})"
            );
        }
    }

    fn meshed(e: &mut Engine, n: usize, seed: u64) -> DistMesh<3> {
        // 2:1-balanced like Dendro's meshes. The stencil (and thus the
        // solution) does not depend on the partition on any complete
        // octree, which faulted-vs-clean matching requires.
        let tree = balance21(&MeshParams::normal(n, seed).build::<3>(Curve::Hilbert));
        let out = treesort_partition(e, distribute_tree(&tree, e.p()), PartitionOptions::exact());
        DistMesh::build(e, out.dist, Curve::Hilbert)
    }

    #[test]
    fn clean_ft_run_matches_plain_driver_solution() {
        let mut e = engine(8);
        let mesh = meshed(&mut e, 1500, 41);
        let ft = run_matvec_ft(&mut e, &mesh, 12, CheckpointPolicy::Never);
        assert!(ft.deaths.is_empty());
        assert_eq!(ft.final_p, 8);
        assert_eq!(ft.checkpoint.saves, 0);
        // Same mesh + same ops ⇒ the plain driver's x is reproduced exactly.
        let mut e2 = engine(8);
        let mesh2 = meshed(&mut e2, 1500, 41);
        let ft2 = run_matvec_ft(&mut e2, &mesh2, 12, CheckpointPolicy::EveryN(3));
        assert_eq!(ft.solution, ft2.solution, "checkpoints must not touch data");
        assert!(ft2.checkpoint.saves >= 4);
        assert!(ft2.seconds > ft.seconds, "checkpoints cost virtual time");
    }

    #[test]
    fn killed_rank_recovers_and_matches_fault_free() {
        // Fault-free reference, which also probes the sync-point timeline so
        // the kill can be aimed at the middle of the run.
        let mut clean = engine(6);
        let mesh_c = meshed(&mut clean, 1200, 43);
        let want = run_matvec_ft(&mut clean, &mesh_c, 15, CheckpointPolicy::EveryStep);
        let mid = clean.sync_points() / 2;
        assert!(mid >= 2, "probe run too short to aim a mid-run kill");

        // Arm the plan only after the mesh is built, so the kill lands in
        // the solve loop (run_matvec_ft's reset re-arms the schedule).
        let mut e = engine(6);
        let mesh = meshed(&mut e, 1200, 43);
        let mut e = e.with_faults(FaultPlan::new(7).kill_rank(2, mid));
        let got = run_matvec_ft(&mut e, &mesh, 15, CheckpointPolicy::EveryStep);
        assert_eq!(got.deaths.len(), 1);
        assert_eq!(got.deaths[0].rank, 2);
        assert_eq!(got.final_p, 5);
        assert_eq!(got.checkpoint.restores, 1);
        assert!(got.seconds > want.seconds);

        // Same octant multiset…
        let keys_w: Vec<SfcKey> = want.solution.iter().map(|(k, _)| *k).collect();
        let keys_g: Vec<SfcKey> = got.solution.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys_w, keys_g, "recovery must conserve the octants");
        // …and the same values to round-off (relative to the ∞-norm, which
        // keeps cancellation-dominated near-zero entries comparable).
        assert_solutions_match(&want.solution, &got.solution);
    }

    #[test]
    fn amr_ft_survives_mid_run_death() {
        let cfg = AmrConfig {
            steps: 4,
            max_level: 4,
            matvecs_per_step: 3,
            ..Default::default()
        };
        let mut clean = engine(8);
        let want = amr_simulation_ft(&mut clean, &cfg, CheckpointPolicy::EveryStep);
        assert!(want.deaths.is_empty());
        assert_eq!(want.steps.len(), 4);

        // Kill a rank halfway through the run's sync-point timeline.
        let mid = clean.sync_points() / 2;
        let mut e = engine(8).with_faults(FaultPlan::new(11).kill_rank(3, mid));
        let got = amr_simulation_ft(&mut e, &cfg, CheckpointPolicy::EveryStep);
        assert_eq!(got.deaths.len(), 1);
        assert_eq!(got.final_p, 7);
        assert!(got.steps.len() >= 4, "redone steps are recorded");
        assert_eq!(got.steps.last().unwrap().step, 3);
        let keys_w: Vec<SfcKey> = want.solution.iter().map(|(k, _)| *k).collect();
        let keys_g: Vec<SfcKey> = got.solution.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys_w, keys_g, "final octant multiset must match");
        assert_solutions_match(&want.solution, &got.solution);
        assert!(got.total_seconds > want.total_seconds);
    }

    #[test]
    #[should_panic(expected = "no checkpoint to restore")]
    fn death_without_checkpoint_is_unrecoverable() {
        let mut e = engine(4);
        let mesh = meshed(&mut e, 800, 47);
        let mut e = e.with_faults(FaultPlan::new(3).kill_rank(1, 5));
        let _ = run_matvec_ft(&mut e, &mesh, 20, CheckpointPolicy::Never);
    }
}
