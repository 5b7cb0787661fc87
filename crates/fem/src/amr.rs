//! Adaptive time-stepping driver: the repeated-partitioning scenario that
//! motivates SFC partitioners in the first place.
//!
//! "…performance and parallel scalability is challenging, especially for
//! applications requiring repeated partitioning, such as Adaptive Mesh
//! Refinement (AMR). In many such cases, SFC are used as a scalable and
//! effective partitioning technique." (§1, Related Work)
//!
//! Each step moves a spherical refinement front through the unit cube,
//! rebuilds the adaptive mesh around it, redistributes the elements starting
//! from where their ancestors lived (so migration volume is what a real AMR
//! code would pay), repartitions with a chosen strategy, and runs a few
//! matvecs. The report aggregates partition time, migration volume, solve
//! time and energy over the whole run — the end-to-end quantity OptiPart is
//! supposed to minimise.

use crate::driver::optipart_from;
use crate::mesh::DistMesh;
use crate::recovery::amr_simulation_ft;
use optipart_core::optipart::{OptiPartOptions, PartitionState, WarmStats};
use optipart_core::partition::{
    distribute_by_splitters, owner_of, treesort_partition, PartitionOptions, PartitionOutcome,
};
use optipart_mpisim::{CheckpointPolicy, DistVec, Engine};
use optipart_octree::{balance::balance21, LinearTree};
use optipart_sfc::{Cell, Curve, KeyedCell, SfcKey, MAX_DEPTH};

/// Repartitioning strategy per step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Conventional equal-work SFC partitioning (tolerance 0).
    EqualWork,
    /// Fixed user tolerance.
    Tolerance(f64),
    /// OptiPart: the machine/application model picks the tolerance.
    OptiPart,
    /// OptiPart with the latency-extended model (`ts·Mmax` term).
    OptiPartLatencyAware,
}

impl Strategy {
    /// Short name for table output.
    pub fn name(&self) -> String {
        match self {
            Strategy::EqualWork => "equal-work".into(),
            Strategy::Tolerance(t) => format!("tol={t}"),
            Strategy::OptiPart => "optipart".into(),
            Strategy::OptiPartLatencyAware => "optipart+lat".into(),
        }
    }
}

/// Configuration of an AMR run.
#[derive(Clone, Copy, Debug)]
pub struct AmrConfig {
    /// Time steps (front positions).
    pub steps: usize,
    /// Refinement depth at the front.
    pub max_level: u8,
    /// Matvecs per step (solver work between remeshings).
    pub matvecs_per_step: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Curve.
    pub curve: Curve,
    /// Carry a [`PartitionState`] across steps so the OptiPart strategies
    /// warm-start each repartition (bit-identical to cold; see
    /// [`optipart_core::optipart_with_state`]). Ignored by the TreeSort
    /// strategies.
    pub warm_start: bool,
    /// LRU bound of the carried [`PartitionState`] (entries, not bytes);
    /// a loop cycling through `k` distinct meshes wants `state_cap ≥ k` to
    /// stay on the exact-hit path. Ignored with `warm_start` off.
    pub state_cap: usize,
}

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            steps: 6,
            max_level: 5,
            matvecs_per_step: 10,
            strategy: Strategy::OptiPart,
            curve: Curve::Hilbert,
            warm_start: true,
            state_cap: optipart_core::optipart::DEFAULT_STATE_CAP,
        }
    }
}

/// Per-step measurements.
#[derive(Clone, Debug)]
pub struct AmrStep {
    /// Step index.
    pub step: usize,
    /// Elements in this step's mesh.
    pub elements: usize,
    /// Elements that changed owner during redistribution.
    pub migrated: u64,
    /// Load imbalance after partitioning.
    pub lambda: f64,
    /// Seconds of simulated time the step took (partition + mesh + solve).
    pub seconds: f64,
}

/// Whole-run report.
#[derive(Clone, Debug)]
pub struct AmrReport {
    /// Per-step data.
    pub steps: Vec<AmrStep>,
    /// Total simulated seconds.
    pub total_seconds: f64,
    /// Total energy, Joules.
    pub total_energy_j: f64,
    /// Total ghost elements moved by matvecs.
    pub total_ghosts: u64,
    /// Warm-start decisions taken by the partitioner over the run (all
    /// zeros when `warm_start` is off or the strategy is not OptiPart).
    pub warm: WarmStats,
}

/// The refinement front at step `t`: a sphere orbiting the cube centre.
fn front_center(t: usize, steps: usize) -> [f64; 3] {
    let phase = t as f64 / steps.max(1) as f64 * std::f64::consts::TAU;
    [0.5 + 0.22 * phase.cos(), 0.5 + 0.22 * phase.sin(), 0.5]
}

/// Builds the step-`t` mesh: refined in a shell around the moving front,
/// then 2:1 face-balanced — the invariant Dendro meshes carry. Ghost
/// discovery does not need it: it finds every face neighbour of any
/// complete octree, so the stencil is independent of the partition either
/// way.
pub fn step_mesh(t: usize, cfg: &AmrConfig) -> LinearTree<3> {
    let c = front_center(t, cfg.steps);
    let radius = 0.18;
    balance21(&LinearTree::root(cfg.curve).refine_where(
        |cell: &Cell<3>| {
            let ctr = cell.center_unit();
            let d = (0..3).map(|k| (ctr[k] - c[k]).powi(2)).sum::<f64>().sqrt();
            let half_diag = 3f64.sqrt() * 0.5 * cell.side() as f64 / (1u64 << MAX_DEPTH) as f64;
            (d - radius).abs() <= half_diag * 1.5
        },
        cfg.max_level,
    ))
}

/// Runs the AMR loop on the engine and reports aggregate cost.
///
/// This is [`amr_simulation_ft`] with checkpointing off, projected onto
/// the fault-free report: same loop, same charges, same trace. With nothing
/// to restore from, a fail-stop death scheduled on the engine is
/// unrecoverable here and panics — use the `_ft` driver with a real
/// [`CheckpointPolicy`] for survivable runs.
pub fn amr_simulation(engine: &mut Engine, cfg: &AmrConfig) -> AmrReport {
    let run = amr_simulation_ft(engine, cfg, CheckpointPolicy::Never);
    AmrReport {
        steps: run.steps,
        total_seconds: run.total_seconds,
        total_energy_j: run.total_energy_j,
        total_ghosts: run.total_ghosts,
        warm: run.warm,
    }
}

/// The forward half of AMR step `t`: remesh around the moved front, start
/// the new elements where their region lived last step, repartition under
/// `cfg.strategy` and build the distributed mesh. Returns the mesh, the
/// number of elements that changed rank, the partition's λ and its
/// splitters (the next step's starting placement).
pub(crate) fn amr_step(
    engine: &mut Engine,
    cfg: &AmrConfig,
    t: usize,
    prev_splitters: Option<&[SfcKey]>,
    warm: Option<&mut PartitionState>,
) -> (DistMesh<3>, u64, f64, Vec<SfcKey>) {
    let p = engine.p();
    let tree = step_mesh(t, cfg);
    let n = tree.len();
    let input = distribute_by_splitters(&tree, p, prev_splitters);
    let out = engine.phase("amr.partition", |e| partition_step(e, input, cfg, warm));

    // Migration = elements whose final owner differs from where the
    // block/previous distribution had put them. (Sequential check over the
    // global view — measurement, not simulation.)
    let mut migrated = 0u64;
    let mut idx = 0usize;
    for (r, buf) in out.dist.parts().iter().enumerate() {
        for kc in buf {
            let was = match prev_splitters {
                None => (idx * p / n.max(1)).min(p - 1),
                Some(sp) => owner_of(sp, &kc.key),
            };
            if was != r {
                migrated += 1;
            }
            idx += 1;
        }
    }

    let lambda = out.report.lambda;
    let mesh = engine.phase("amr.mesh", |e| DistMesh::build(e, out.dist, cfg.curve));
    (mesh, migrated, lambda, out.splitters)
}

/// One step's repartition under `cfg.strategy`. With `state`, the OptiPart
/// strategies resume from the previous step's ladder (the TreeSort
/// strategies have no ladder and ignore it).
fn partition_step(
    e: &mut Engine,
    input: DistVec<KeyedCell<3>>,
    cfg: &AmrConfig,
    state: Option<&mut PartitionState>,
) -> PartitionOutcome<3> {
    let opti = |latency_aware| OptiPartOptions {
        latency_aware,
        ..OptiPartOptions::for_curve(cfg.curve)
    };
    match cfg.strategy {
        Strategy::EqualWork => treesort_partition(e, input, PartitionOptions::exact()),
        Strategy::Tolerance(tol) => {
            treesort_partition(e, input, PartitionOptions::with_tolerance(tol))
        }
        Strategy::OptiPart => optipart_from(e, input, opti(false), state),
        Strategy::OptiPartLatencyAware => optipart_from(e, input, opti(true), state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_machine::{AppModel, MachineModel, PerfModel};

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(
                MachineModel::cloudlab_wisconsin(),
                AppModel::laplacian_matvec(),
            ),
        )
    }

    #[test]
    fn amr_loop_runs_and_tracks_migration() {
        let cfg = AmrConfig {
            steps: 4,
            max_level: 4,
            matvecs_per_step: 3,
            ..Default::default()
        };
        let mut e = engine(8);
        let rep = amr_simulation(&mut e, &cfg);
        assert_eq!(rep.steps.len(), 4);
        assert!(rep.total_seconds > 0.0);
        assert!(rep.total_energy_j > 0.0);
        assert!(rep.total_ghosts > 0);
        // The front moves, so later steps must migrate something.
        assert!(
            rep.steps[1..].iter().any(|s| s.migrated > 0),
            "front movement should cause migration: {:?}",
            rep.steps
        );
        // Meshes stay modest but non-trivial.
        assert!(rep.steps.iter().all(|s| s.elements > 100));
    }

    #[test]
    fn warm_amr_run_matches_cold_bit_for_bit() {
        let cold_cfg = AmrConfig {
            steps: 4,
            max_level: 4,
            matvecs_per_step: 2,
            warm_start: false,
            ..Default::default()
        };
        let warm_cfg = AmrConfig {
            warm_start: true,
            ..cold_cfg
        };
        let mut ec = engine(8);
        let cold = amr_simulation(&mut ec, &cold_cfg);
        let mut ew = engine(8);
        let warm = amr_simulation(&mut ew, &warm_cfg);

        assert_eq!(cold.warm, WarmStats::default());
        // Step 0 seeds the state cold; every later step replays it on the
        // moved front's mesh.
        assert_eq!(warm.warm.colds, 1);
        assert_eq!(warm.warm.replays as usize, warm_cfg.steps - 1);
        assert_eq!(warm.warm.rejected, 0);
        // Identical partitions ⇒ identical migration counts and imbalance.
        for (c, w) in cold.steps.iter().zip(&warm.steps) {
            assert_eq!(c.elements, w.elements);
            assert_eq!(c.migrated, w.migrated, "step {}", c.step);
            assert_eq!(c.lambda.to_bits(), w.lambda.to_bits(), "step {}", c.step);
        }
        assert_eq!(cold.total_ghosts, warm.total_ghosts);
    }

    #[test]
    fn step_meshes_are_complete_and_move() {
        let cfg = AmrConfig::default();
        let a = step_mesh(0, &cfg);
        let b = step_mesh(cfg.steps / 2, &cfg);
        assert!(a.is_complete());
        assert!(b.is_complete());
        // Leaves are curve-sorted and unique, so slices compare as sets.
        assert_ne!(a.leaves(), b.leaves(), "the refinement front must move");
    }

    #[test]
    fn strategies_produce_same_meshes_different_partitions() {
        let mut cfgs = vec![];
        for strategy in [
            Strategy::EqualWork,
            Strategy::Tolerance(0.3),
            Strategy::OptiPart,
        ] {
            cfgs.push(AmrConfig {
                steps: 3,
                max_level: 4,
                matvecs_per_step: 2,
                strategy,
                ..Default::default()
            });
        }
        let reports: Vec<AmrReport> = cfgs
            .iter()
            .map(|cfg| {
                let mut e = engine(8);
                amr_simulation(&mut e, cfg)
            })
            .collect();
        // Same element counts per step across strategies.
        for step in 0..3 {
            let n0 = reports[0].steps[step].elements;
            assert!(reports.iter().all(|r| r.steps[step].elements == n0));
        }
        // Tolerance strategy tolerates more imbalance than equal-work.
        let max_lambda = |r: &AmrReport| r.steps.iter().map(|s| s.lambda).fold(1.0f64, f64::max);
        assert!(max_lambda(&reports[1]) >= max_lambda(&reports[0]) - 1e-9);
    }
}
