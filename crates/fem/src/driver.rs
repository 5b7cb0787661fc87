//! The §5.4 measurement driver: `k` matvecs on a given partition, reporting
//! simulated time, per-node energy and traffic — the data behind Figs. 7–10.

use crate::mesh::DistMesh;
use crate::recovery::run_matvec_ft;
use optipart_core::optipart::{optipart, optipart_with_state, OptiPartOptions, PartitionState};
use optipart_core::partition::{distribute_by_splitters, PartitionOutcome};
use optipart_machine::EnergyReport;
use optipart_mpisim::{CheckpointPolicy, DistVec, Engine};
use optipart_octree::LinearTree;
use optipart_sfc::{KeyedCell, SfcKey};

/// Results of one matvec experiment.
#[derive(Clone, Debug)]
pub struct MatvecExperiment {
    /// Iterations run (the paper uses 100).
    pub iterations: usize,
    /// Simulated seconds for the matvec loop only.
    pub seconds: f64,
    /// Whole-run energy (matvec loop only; the engine is reset first).
    pub energy: EnergyReport,
    /// Total ghost elements moved over all iterations.
    pub ghost_elements: u64,
    /// NNZ of the engine's communication matrix, if recording was enabled.
    pub comm_nnz: Option<usize>,
    /// Total bytes over the network.
    pub bytes_total: u64,
    /// Per-rank virtual clocks at the end of the loop — `seconds` is their
    /// maximum. Under an injected fault plan the spread between ranks shows
    /// who straggled; on a clean machine matvec's trailing collective leaves
    /// them (nearly) equal.
    pub rank_clocks: Vec<f64>,
    /// Transient-failure retries charged during the loop (0 without faults).
    pub retries: u64,
}

/// The driver's deterministic initial vector: a cell-centre based linear
/// ramp, so the value attached to an octant depends only on the octant —
/// not on which rank holds it or how many ranks exist. Recovery drivers
/// rely on this to compare faulted and fault-free solutions.
pub fn initial_vector<const D: usize>(mesh: &DistMesh<D>) -> DistVec<f64> {
    DistVec::from_parts(
        (0..mesh.p())
            .map(|r| {
                mesh.cells
                    .rank(r)
                    .iter()
                    .map(|kc| {
                        let c = kc.cell.center_unit();
                        1.0 + c[0] * 0.5 - c[D - 1] * 0.25
                    })
                    .collect()
            })
            .collect(),
    )
}

/// OptiPart resuming from `state` when the caller carries one
/// ([`optipart_with_state`]), cold otherwise — bit-identical outcomes
/// either way; the state only changes what the search costs.
pub(crate) fn optipart_from<const D: usize>(
    engine: &mut Engine,
    input: DistVec<KeyedCell<D>>,
    opts: OptiPartOptions,
    state: Option<&mut PartitionState>,
) -> PartitionOutcome<D> {
    match state {
        Some(st) => optipart_with_state(engine, input, opts, st),
        None => optipart(engine, input, opts),
    }
}

/// Repartitions a sequence of meshes (successive AMR fronts) with OptiPart:
/// each step's elements start where the previous step's splitters put their
/// region (first step: block distribution), exactly as
/// [`crate::amr::amr_simulation`] redistributes — but without the solve, so
/// this is the pure repeated-partitioning cost an AMR run pays.
///
/// With `state`, the ladder warm-starts from the previous step; with `None`
/// every step runs the full cold tolerance ladder. The two modes produce
/// identical splitters — the amortized-cost benchmark compares only their
/// partitioning cost.
pub fn repartition_sequence<const D: usize>(
    engine: &mut Engine,
    steps: &[LinearTree<D>],
    opts: OptiPartOptions,
    mut state: Option<&mut PartitionState>,
) -> Vec<PartitionOutcome<D>> {
    let p = engine.p();
    let mut prev: Option<Vec<SfcKey>> = None;
    let mut outs = Vec::with_capacity(steps.len());
    for tree in steps {
        let input = distribute_by_splitters(tree, p, prev.as_deref());
        let out = engine.phase("amr.partition", |e| {
            optipart_from(e, input, opts, state.as_deref_mut())
        });
        prev = Some(out.splitters.clone());
        outs.push(out);
    }
    outs
}

/// Runs `iterations` Laplacian matvecs (`y ← A x; x ← y/‖y‖∞`-ish chain,
/// keeping values bounded) and reports time, energy and traffic.
///
/// This is [`run_matvec_ft`] with checkpointing off, plus the engine
/// read-outs the figures plot. The engine's clocks/energy are reset at
/// entry so the report covers the matvec loop alone, matching the paper's
/// measurement of the matvec phase. With nothing to restore from, a
/// fail-stop death scheduled on the engine is unrecoverable here and
/// panics — use the `_ft` driver with a real [`CheckpointPolicy`].
pub fn run_matvec_experiment<const D: usize>(
    engine: &mut Engine,
    mesh: &DistMesh<D>,
    iterations: usize,
) -> MatvecExperiment {
    let run = run_matvec_ft(engine, mesh, iterations, CheckpointPolicy::Never);
    MatvecExperiment {
        iterations,
        seconds: run.seconds,
        energy: engine.energy_report(),
        ghost_elements: run.ghost_elements,
        comm_nnz: engine.comm_matrix().map(|m| m.nnz()),
        bytes_total: engine.stats().bytes_total,
        rank_clocks: engine.clocks().to_vec(),
        retries: engine.stats().retries_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_core::optipart::{optipart, OptiPartOptions};
    use optipart_core::partition::{distribute_tree, treesort_partition, PartitionOptions};
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_octree::MeshParams;
    use optipart_sfc::Curve;

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(
                MachineModel::cloudlab_wisconsin(),
                AppModel::laplacian_matvec(),
            ),
        )
        .record_comm_matrix()
    }

    #[test]
    fn experiment_reports_consistent_numbers() {
        let tree = MeshParams::normal(2000, 107).build::<3>(Curve::Hilbert);
        let p = 8;
        let mut e = engine(p);
        let out = treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact());
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
        let rep = run_matvec_experiment(&mut e, &mesh, 10);
        assert_eq!(rep.iterations, 10);
        assert!(rep.seconds > 0.0);
        assert!(rep.energy.total_j > 0.0);
        assert!(rep.energy.comm_j > 0.0);
        assert!(rep.energy.comm_j < rep.energy.total_j);
        assert!(rep.ghost_elements > 0);
        assert_eq!(rep.energy.per_node_j.len(), 1); // 8 ranks @ 32/node
        assert!(rep.comm_nnz.unwrap() > 0);
    }

    #[test]
    fn energy_tracks_runtime() {
        // §3.3: "the overall energy will be strongly correlated with the
        // overall runtime". Double the iterations ⇒ roughly double both.
        let tree = MeshParams::normal(1500, 109).build::<3>(Curve::Hilbert);
        let p = 4;
        let mut e = engine(p);
        let out = treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact());
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
        let r1 = run_matvec_experiment(&mut e, &mesh, 5);
        let r2 = run_matvec_experiment(&mut e, &mesh, 10);
        let time_ratio = r2.seconds / r1.seconds;
        let energy_ratio = r2.energy.total_j / r1.energy.total_j;
        assert!((time_ratio - 2.0).abs() < 0.3, "time ratio {time_ratio}");
        assert!(
            (energy_ratio - 2.0).abs() < 0.3,
            "energy ratio {energy_ratio}"
        );
    }

    #[test]
    fn optipart_partition_not_slower_than_exact() {
        // The paper's headline: the flexible partition reduces (simulated)
        // matvec time on the communication-bound cluster.
        let tree = MeshParams::normal(4000, 113).build::<3>(Curve::Hilbert);
        let p = 16;

        let mut e1 = engine(p);
        let exact = treesort_partition(
            &mut e1,
            distribute_tree(&tree, p),
            PartitionOptions::exact(),
        );
        let mesh1 = DistMesh::build(&mut e1, exact.dist, Curve::Hilbert);
        let t_exact = run_matvec_experiment(&mut e1, &mesh1, 20).seconds;

        let mut e2 = engine(p);
        let opti = optipart(
            &mut e2,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        let mesh2 = DistMesh::build(&mut e2, opti.dist, Curve::Hilbert);
        let t_opti = run_matvec_experiment(&mut e2, &mesh2, 20).seconds;

        assert!(
            t_opti <= t_exact * 1.05,
            "optipart {t_opti:e} should not lose to exact {t_exact:e}"
        );
    }
}
