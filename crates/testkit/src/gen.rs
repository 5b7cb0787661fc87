//! Shared seeded generators — the engine and mesh builders the root
//! `tests/properties.rs` suite and the fault-recovery oracle draw from.
//!
//! Everything here is deterministic in its arguments; no global state, no
//! host entropy.

use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::Engine;
use optipart_octree::balance::balance21;
use optipart_octree::{sample_points, tree_from_points, Distribution, LinearTree};
use optipart_sfc::Curve;

/// An engine on an arbitrary machine with the Laplacian matvec app model.
pub fn engine_on(machine: MachineModel, p: usize) -> Engine {
    Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()))
}

/// The default engine of the core and fem properties (CloudLab Wisconsin).
pub fn engine_wisconsin(p: usize) -> Engine {
    engine_on(MachineModel::cloudlab_wisconsin(), p)
}

/// A normally-distributed adaptive octree capped at `max_level` — the
/// generic mesh generator behind [`tree`] and [`balanced_tree`].
pub fn normal_tree<const D: usize>(
    seed: u64,
    n: usize,
    max_level: u8,
    curve: Curve,
) -> LinearTree<D> {
    let pts = sample_points::<D>(Distribution::Normal, n, seed);
    tree_from_points(&pts, 1, max_level, curve)
}

/// The partitioning properties' mesh: normal distribution, refinement cap 14.
pub fn tree(seed: u64, n: usize, curve: Curve) -> LinearTree<3> {
    normal_tree::<3>(seed, n, 14, curve)
}

/// The fem properties' balanced mesh: 2:1-balanced (the class Dendro
/// produces and the paper uses), cap 8. Generic in `D` for the quadtree
/// instantiation.
pub fn balanced_tree<const D: usize>(seed: u64, n: usize, curve: Curve) -> LinearTree<D> {
    balance21(&normal_tree::<D>(seed, n, 8, curve))
}
