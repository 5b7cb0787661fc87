//! Rank-view distributed TreeSort on the real threaded runtime.
//!
//! The same algorithm as [`crate::partition::treesort_partition`], written
//! the way an MPI code would write it: each rank owns only its local slice,
//! exchanges bucket counts with true `Allreduce`s, and replays the
//! deterministic splitter-search state machine locally. Since every rank
//! reduces identical global counts, all ranks hold identical bucket state —
//! the SPMD pattern the paper's C++/MPI implementation uses.
//!
//! Purpose: **ground truth** for the virtual-process engine. The
//! cross-validation tests assert that this real-threads execution produces
//! bit-identical partitions to the global-view simulation.

use crate::partition::{count_children, owner_of, PartitionOptions, SplitterSearch};
use crate::treesort::treesort;
use optipart_mpisim::threaded::ThreadComm;
use optipart_sfc::{KeyedCell, SfcKey};

/// Flexible-tolerance distributed TreeSort, rank view.
///
/// Returns this rank's partition slice (SFC-sorted) and the splitters
/// (identical on every rank).
pub fn threaded_treesort_partition<const D: usize>(
    comm: &mut ThreadComm,
    mut local: Vec<KeyedCell<D>>,
    opts: PartitionOptions,
) -> (Vec<KeyedCell<D>>, Vec<SfcKey>) {
    let p = comm.p();
    let n = comm.allreduce_sum_u64(local.len() as u64);
    let mut search = SplitterSearch::replicated(n);
    let tol_units = opts.tolerance * (n as f64 / p as f64);

    loop {
        let mut violating = search.pending_splits(p, tol_units);
        if violating.is_empty() {
            break;
        }
        if let Some(k) = opts.max_split_per_round {
            violating.truncate((k / (1 << D)).max(1));
        }
        let bounds = search.split_bounds::<D>(&violating);
        let local_counts = count_children::<D>(&local, &bounds);
        let global = comm.allreduce_sum_vec_u64(local_counts);
        search.apply_split::<D>(&violating, &global);
    }
    let (splitters, _) = search.choose_splitters(p);

    // Personalised exchange by ownership, then the local TreeSort.
    let mut bufs: Vec<Vec<KeyedCell<D>>> = (0..p).map(|_| Vec::new()).collect();
    for kc in local.drain(..) {
        bufs[owner_of(&splitters, &kc.key)].push(kc);
    }
    let recv = comm.alltoallv(bufs);
    let mut mine: Vec<KeyedCell<D>> = recv.into_iter().flatten().collect();
    treesort(&mut mine);
    (mine, splitters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{distribute_shuffled, treesort_partition};
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_mpisim::{threaded, Engine};
    use optipart_octree::MeshParams;
    use optipart_sfc::Curve;

    /// The headline validation: real threads and the virtual engine produce
    /// bit-identical partitions (same splitters, same per-rank slices).
    #[test]
    fn threads_match_virtual_engine() {
        for curve in Curve::ALL {
            for tol in [0.0, 0.3] {
                let tree = MeshParams::normal(3_000, 163).build::<3>(curve);
                let p = 6;

                // Virtual engine run.
                let mut e = Engine::new(
                    p,
                    PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
                );
                let input = distribute_shuffled(&tree, p, 17);
                let virt = treesort_partition(
                    &mut e,
                    input.clone(),
                    PartitionOptions::with_tolerance(tol),
                );

                // Real threads run on the identical input.
                let parts = input.into_parts();
                let results = threaded::run(p, |comm| {
                    let local = parts[comm.rank()].clone();
                    threaded_treesort_partition(comm, local, PartitionOptions::with_tolerance(tol))
                });

                for (r, (mine, splitters)) in results.into_iter().enumerate() {
                    assert_eq!(
                        &splitters, &virt.splitters,
                        "{curve} tol {tol}: splitters diverge on rank {r}"
                    );
                    assert_eq!(
                        mine,
                        *virt.dist.rank(r),
                        "{curve} tol {tol}: rank {r} slice diverges"
                    );
                }
            }
        }
    }

    /// Staged selection (Eq. 2): with a tight `max_split_per_round` both
    /// paths must truncate the *same* pending-split list each round —
    /// including the forced refinement rounds past the tolerance test
    /// (shared-edge contention at tolerance ≥ 0.5, chooser feasibility) —
    /// or their splitter state machines silently diverge.
    #[test]
    fn threads_match_virtual_engine_under_split_budget() {
        let tree = MeshParams::normal(2_000, 211).build::<3>(Curve::Morton);
        for p in [5, 11] {
            for budget in [8, 16] {
                for tol in [0.0, 0.25, 0.6] {
                    let opts = PartitionOptions {
                        tolerance: tol,
                        max_split_per_round: Some(budget),
                        ..Default::default()
                    };
                    let mut e = Engine::new(
                        p,
                        PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
                    );
                    let input = distribute_shuffled(&tree, p, 29);
                    let virt = treesort_partition(&mut e, input.clone(), opts);

                    let parts = input.into_parts();
                    let results = threaded::run(p, |comm| {
                        let local = parts[comm.rank()].clone();
                        threaded_treesort_partition(comm, local, opts)
                    });
                    for (r, (mine, splitters)) in results.into_iter().enumerate() {
                        assert_eq!(
                            &splitters, &virt.splitters,
                            "p {p} budget {budget} tol {tol}: splitters diverge on rank {r}"
                        );
                        assert_eq!(
                            mine,
                            *virt.dist.rank(r),
                            "p {p} budget {budget} tol {tol}: rank {r} slice diverges"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_partition_is_globally_sorted() {
        let tree = MeshParams::normal(1_500, 167).build::<3>(Curve::Hilbert);
        let p = 4;
        let parts = distribute_shuffled(&tree, p, 3).into_parts();
        let results = threaded::run(p, |comm| {
            threaded_treesort_partition(comm, parts[comm.rank()].clone(), PartitionOptions::exact())
                .0
        });
        let flat: Vec<_> = results.into_iter().flatten().collect();
        let mut expected: Vec<_> = tree.leaves().to_vec();
        expected.sort_unstable();
        assert_eq!(flat, expected);
    }
}
