//! Cross-crate integration tests: full pipeline from mesh generation through
//! partitioning, FEM mesh construction, matvec and energy reporting.

use optipart::core::optipart::{optipart, OptiPartOptions};
use optipart::core::partition::{distribute_tree, treesort_partition, PartitionOptions};
use optipart::core::samplesort::samplesort_partition;
use optipart::fem::{cg_solve, run_matvec_experiment, DistMesh};
use optipart::machine::{AppModel, IpmiSampler, MachineModel, PerfModel};
use optipart::mpisim::{DistVec, Engine};
use optipart::octree::balance::{balance21, is_balanced21};
use optipart::octree::{gaussian_ball, Distribution, MeshParams};
use optipart::sfc::{Curve, KeyedCell};

fn engine(machine: MachineModel, p: usize) -> Engine {
    Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()))
}

/// All three partitioners produce the identical global SFC order.
#[test]
fn all_partitioners_agree_on_global_order() {
    let tree = MeshParams::normal(3_000, 5).build::<3>(Curve::Hilbert);
    let p = 12;
    let mut expected: Vec<KeyedCell<3>> = tree.leaves().to_vec();
    expected.sort_unstable();

    let mut e1 = engine(MachineModel::titan(), p);
    let a = treesort_partition(
        &mut e1,
        distribute_tree(&tree, p),
        PartitionOptions::exact(),
    );
    let mut e2 = engine(MachineModel::titan(), p);
    let b = optipart(
        &mut e2,
        distribute_tree(&tree, p),
        OptiPartOptions::default(),
    );
    let mut e3 = engine(MachineModel::titan(), p);
    let c = samplesort_partition(&mut e3, distribute_tree(&tree, p));

    assert_eq!(a.dist.concat(), expected);
    assert_eq!(b.dist.concat(), expected);
    assert_eq!(c.dist.concat(), expected);
}

/// Full pipeline on every distribution of §4.2 and both curves.
#[test]
fn pipeline_runs_for_all_distributions_and_curves() {
    for dist in Distribution::ALL {
        for curve in Curve::ALL {
            let tree = MeshParams {
                distribution: dist,
                num_points: 1_200,
                seed: 11,
            }
            .build::<3>(curve);
            let p = 6;
            let mut e = engine(MachineModel::cloudlab_wisconsin(), p);
            let out = optipart(
                &mut e,
                distribute_tree(&tree, p),
                OptiPartOptions::for_curve(curve),
            );
            let mesh = DistMesh::build(&mut e, out.dist, curve);
            let rep = run_matvec_experiment(&mut e, &mesh, 5);
            assert!(rep.seconds > 0.0, "{} {curve}", dist.name());
            assert!(rep.ghost_elements > 0, "{} {curve}", dist.name());
        }
    }
}

/// The whole-application story of the paper: on a communication-bound
/// machine, OptiPart's partition must not lose to equal-work partitioning
/// in simulated matvec time, and must move fewer ghost elements.
#[test]
fn optipart_reduces_communication_on_cloudlab() {
    let tree = MeshParams::normal(20_000, 3).build::<3>(Curve::Hilbert);
    let p = 32;

    let mut e1 = engine(MachineModel::cloudlab_wisconsin(), p);
    let exact = treesort_partition(
        &mut e1,
        distribute_tree(&tree, p),
        PartitionOptions::exact(),
    );
    let mesh1 = DistMesh::build(&mut e1, exact.dist, Curve::Hilbert);
    let r_exact = run_matvec_experiment(&mut e1, &mesh1, 10);

    let mut e2 = engine(MachineModel::cloudlab_wisconsin(), p);
    let flex = treesort_partition(
        &mut e2,
        distribute_tree(&tree, p),
        PartitionOptions::with_tolerance(0.2),
    );
    let mesh2 = DistMesh::build(&mut e2, flex.dist, Curve::Hilbert);
    let r_flex = run_matvec_experiment(&mut e2, &mesh2, 10);

    assert!(
        r_flex.ghost_elements <= r_exact.ghost_elements,
        "tolerance must reduce ghosts: {} vs {}",
        r_flex.ghost_elements,
        r_exact.ghost_elements
    );
}

/// Poisson solve on a 2:1-balanced Gaussian-ball mesh: the AMR showcase.
#[test]
fn poisson_on_gaussian_ball() {
    let tree = balance21(&gaussian_ball::<3>(4, Curve::Hilbert));
    assert!(is_balanced21(&tree));
    let p = 8;
    let mut e = engine(MachineModel::cloudlab_clemson(), p);
    let out = optipart(
        &mut e,
        distribute_tree(&tree, p),
        OptiPartOptions::default(),
    );
    let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
    let b = DistVec::from_parts(mesh.cells.counts().iter().map(|&c| vec![1.0; c]).collect());
    let (u, rep) = cg_solve(&mut e, &mesh, &b, 1e-7, 2000);
    assert!(rep.converged, "residual {}", rep.rel_residual);
    // Maximum principle: positive interior solution.
    assert!(u.parts().iter().flatten().all(|&v| v > 0.0));
}

/// IPMI-sampled energy agrees with the engine's exact accounting.
#[test]
fn ipmi_sampling_matches_exact_energy() {
    let tree = MeshParams::normal(2_000, 17).build::<3>(Curve::Hilbert);
    let p = 8;
    let mut e = engine(MachineModel::cloudlab_wisconsin(), p).record_trace();
    let out = treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact());
    let machine = e.perf().machine.clone();
    let exact = e.energy_report();
    let sampled = IpmiSampler {
        period_s: exact.makespan_s / 10_000.0,
    }
    .measure(
        e.trace().unwrap(),
        &machine.power,
        None,
        machine.ranks_per_node,
        machine.nodes_for(p),
    );
    let _ = out;
    let rel = (sampled.total_j - exact.total_j).abs() / exact.total_j;
    assert!(
        rel < 0.05,
        "sampled {} vs exact {} (rel {rel})",
        sampled.total_j,
        exact.total_j
    );
}

/// The facade crate re-exports everything needed for the README quickstart.
#[test]
fn facade_reexports_work() {
    let _ = optipart::sfc::Curve::Hilbert;
    let _ = optipart::machine::MachineModel::titan();
    let tree = optipart::octree::MeshParams::normal(100, 1).build::<3>(Curve::Morton);
    assert!(!tree.leaves().is_empty());
}
