//! Partition-quality analysis (§5.5): communication matrix, NNZ, imbalance,
//! boundary counts, realised tolerance.
//!
//! These are *global* (sequential) analyses over the full tree, used by the
//! figure harness and tests to characterise a partition exactly — the
//! distributed estimates live in [`crate::quality`].

use optipart_mpisim::CommMatrix;
use optipart_octree::neighbors::face_adjacent_leaves;
use optipart_octree::LinearTree;
use optipart_sfc::SfcKey;
use std::collections::HashSet;

/// Owner rank of every leaf under the splitters.
pub fn assignment<const D: usize>(tree: &LinearTree<D>, splitters: &[SfcKey]) -> Vec<usize> {
    tree.leaves()
        .iter()
        .map(|kc| crate::partition::owner_of(splitters, &kc.key))
        .collect()
}

/// Elements owned per partition.
pub fn partition_counts(assign: &[usize], p: usize) -> Vec<u64> {
    let mut counts = vec![0u64; p];
    for &a in assign {
        counts[a] += 1;
    }
    counts
}

/// Load imbalance `λ = max/min` over non-empty interpretation of Table 1
/// (`work max / work min`; infinite if some partition is empty).
pub fn load_imbalance(counts: &[u64]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0);
    if max == 0 {
        1.0
    } else if min == 0 {
        f64::INFINITY
    } else {
        max as f64 / min as f64
    }
}

/// The tolerance a partition realises, read off its per-partition counts
/// alone (an SFC partition is its offset array): `max_r |prefix_r − r·N/p|`
/// in units of the grain `max(N/p, 1)`, with the integer targets `r·N/p`
/// the splitter search aims at. Shares no code with that search, so a test
/// can hold its reported `achieved_tolerance` to this, bit for bit.
pub fn realised_tolerance(counts: &[u64]) -> f64 {
    let n: u64 = counts.iter().sum();
    let p = counts.len() as u64;
    let grain = (n as f64 / p as f64).max(1.0);
    let mut prefix = 0u64;
    let mut worst = 0.0f64;
    for (r, &c) in (1..p).zip(counts) {
        prefix += c;
        worst = worst.max(prefix.abs_diff(r * n / p) as f64 / grain);
    }
    worst
}

/// The communication matrix `M` of §5.5 for a face-stencil application:
/// `M[j][i] = m_ij` counts the *distinct elements* partition `i` needs from
/// partition `j` (stored sender→receiver, matching data flow).
///
/// Exact: uses true cross-level face adjacency of the tree, not the
/// same-size approximation of Algorithm 2.
pub fn communication_matrix<const D: usize>(
    tree: &LinearTree<D>,
    assign: &[usize],
    p: usize,
) -> CommMatrix {
    let leaves = tree.leaves();
    assert_eq!(leaves.len(), assign.len());
    let mut needed: HashSet<(usize, usize)> = HashSet::new(); // (receiver rank, ghost leaf)
    for (i, _kc) in leaves.iter().enumerate() {
        let oi = assign[i];
        for j in face_adjacent_leaves(leaves, i, tree.curve()) {
            if assign[j] != oi {
                needed.insert((oi, j));
            }
        }
    }
    let mut m = CommMatrix::new(p);
    for (receiver, ghost) in needed {
        m.add(assign[ghost], receiver, 1);
    }
    m
}

/// Number of *boundary elements* per partition: elements with at least one
/// face neighbour in another partition (what a halo exchange must send).
pub fn boundary_counts<const D: usize>(
    tree: &LinearTree<D>,
    assign: &[usize],
    p: usize,
) -> Vec<u64> {
    let leaves = tree.leaves();
    let mut counts = vec![0u64; p];
    for i in 0..leaves.len() {
        let oi = assign[i];
        if face_adjacent_leaves(leaves, i, tree.curve())
            .into_iter()
            .any(|j| assign[j] != oi)
        {
            counts[oi] += 1;
        }
    }
    counts
}

/// Exact per-iteration runtime prediction from the *true* communication
/// structure of a partition: `α·tc·Wmax·b + max_r(ts·msgs_r + tw·b·max(send_r,
/// recv_r))`, with ghost volumes and message counts taken from the exact
/// [`communication_matrix`] rather than Algorithm 2's same-size-neighbour
/// estimate.
///
/// This is the reference against which Algorithm 2's cheap distributed
/// estimate can be judged (Fig. 10's "predicted" curve, exact flavour).
pub fn exact_predicted_time<const D: usize>(
    tree: &optipart_octree::LinearTree<D>,
    assign: &[usize],
    p: usize,
    perf: &optipart_machine::PerfModel,
) -> f64 {
    let m = communication_matrix(tree, assign, p);
    let counts = partition_counts(assign, p);
    let wmax = counts.iter().copied().max().unwrap_or(0);
    let b = perf.app.elem_bytes;
    let comm_max = m
        .per_rank_traffic()
        .into_iter()
        .map(|(send, recv, msgs)| {
            perf.machine.ts * msgs as f64 + perf.machine.tw * b * send.max(recv) as f64
        })
        .fold(0.0f64, f64::max);
    perf.compute_time(wmax) + comm_max
}

/// Communication imbalance `bdy max / bdy min` (Fig. 11).
pub fn comm_imbalance(bdy_counts: &[u64]) -> f64 {
    load_imbalance(bdy_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{distribute_tree, treesort_partition, PartitionOptions};
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_mpisim::Engine;
    use optipart_octree::MeshParams;
    use optipart_sfc::Curve;

    fn partitioned(n: usize, p: usize, curve: Curve, tol: f64) -> (LinearTree<3>, Vec<SfcKey>) {
        let tree = MeshParams::normal(n, 83).build::<3>(curve);
        let mut e = Engine::new(
            p,
            PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
        );
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, p),
            PartitionOptions::with_tolerance(tol),
        );
        (tree, out.splitters)
    }

    #[test]
    fn comm_matrix_is_structurally_symmetric() {
        // Face adjacency is symmetric, so i needs j ⇔ j needs i as *pairs of
        // ranks* (entry values may differ across levels).
        let (tree, splitters) = partitioned(2000, 8, Curve::Hilbert, 0.0);
        let assign = assignment(&tree, &splitters);
        let m = communication_matrix(&tree, &assign, 8);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(m.get(a, b) > 0, m.get(b, a) > 0, "({a},{b})");
            }
        }
        assert!(m.nnz() > 0);
    }

    #[test]
    fn neighbor_ranks_communicate() {
        let (tree, splitters) = partitioned(2000, 4, Curve::Hilbert, 0.0);
        let assign = assignment(&tree, &splitters);
        let m = communication_matrix(&tree, &assign, 4);
        // Curve-consecutive partitions always share boundary.
        for r in 0..3 {
            assert!(m.get(r, r + 1) > 0, "ranks {r} and {} must talk", r + 1);
        }
    }

    #[test]
    fn hilbert_nnz_not_worse_than_morton() {
        // §5.5 / Fig. 12: Hilbert's locality gives a sparser comm matrix.
        // This is an aggregate property — individual meshes fluctuate by a
        // few percent either way — so compare totals over a panel of seeded
        // meshes instead of betting on one instance.
        let p = 16;
        let (mut nnz_h, mut nnz_m) = (0usize, 0usize);
        let (mut vol_h, mut vol_m) = (0u64, 0u64);
        for seed in [1u64, 2, 3, 5, 7, 11, 13] {
            for (curve, nnz, vol) in [
                (Curve::Hilbert, &mut nnz_h, &mut vol_h),
                (Curve::Morton, &mut nnz_m, &mut vol_m),
            ] {
                let tree = MeshParams {
                    seed,
                    num_points: 8000,
                    ..Default::default()
                }
                .build::<3>(curve);
                let mut e = Engine::new(
                    p,
                    PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
                );
                let out = treesort_partition(
                    &mut e,
                    distribute_tree(&tree, p),
                    PartitionOptions::exact(),
                );
                let m = communication_matrix(&tree, &assignment(&tree, &out.splitters), p);
                *nnz += m.nnz();
                *vol += m.total_bytes();
            }
        }
        assert!(
            nnz_h <= nnz_m,
            "hilbert nnz {nnz_h} vs morton nnz {nnz_m} over the panel"
        );
        // Communicated volume tracks partition surface, where the curves
        // are near-equivalent; just require Hilbert stays within 5%.
        assert!(
            vol_h as f64 <= vol_m as f64 * 1.05,
            "hilbert volume {vol_h} vs morton volume {vol_m}"
        );
    }

    #[test]
    fn tolerance_reduces_total_communication() {
        // Fig. 12 (right): data volume decreases with tolerance.
        let p = 16;
        let (t0, s0) = partitioned(8000, p, Curve::Hilbert, 0.0);
        let (t5, s5) = partitioned(8000, p, Curve::Hilbert, 0.5);
        let v0 = communication_matrix(&t0, &assignment(&t0, &s0), p).total_bytes();
        let v5 = communication_matrix(&t5, &assignment(&t5, &s5), p).total_bytes();
        assert!(v5 <= v0, "tol 0.5 volume {v5} vs tol 0 volume {v0}");
    }

    #[test]
    fn counts_and_assignment_agree() {
        let (tree, splitters) = partitioned(3000, 8, Curve::Morton, 0.1);
        let assign = assignment(&tree, &splitters);
        let counts = partition_counts(&assign, 8);
        assert_eq!(counts.iter().sum::<u64>() as usize, tree.len());
        assert!(load_imbalance(&counts) >= 1.0);
    }

    #[test]
    fn load_imbalance_cases() {
        assert_eq!(load_imbalance(&[2, 2]), 1.0);
        assert_eq!(load_imbalance(&[3, 1]), 3.0);
        assert!(load_imbalance(&[1, 0]).is_infinite());
        assert_eq!(load_imbalance(&[0, 0, 0, 0]), 1.0);
    }

    #[test]
    fn boundary_counts_bounded_by_partition_counts() {
        let (tree, splitters) = partitioned(3000, 8, Curve::Hilbert, 0.0);
        let assign = assignment(&tree, &splitters);
        let counts = partition_counts(&assign, 8);
        let bdy = boundary_counts(&tree, &assign, 8);
        for (b, c) in bdy.iter().zip(&counts) {
            assert!(b <= c);
        }
        assert!(bdy.iter().sum::<u64>() > 0);
    }
}
