//! PartitionQuality — Algorithm 2 of the paper.
//!
//! Estimates the runtime a *candidate* partition (given by splitters) would
//! deliver, without moving any data: one linear pass over the local elements
//! counts those on partition boundaries (`computeLocalBdyOctants`), the
//! partition sizes follow from the same pass, and two all-reduces yield
//! `Wmax` and `Cmax` for Eq. (3).
//!
//! A cell is a *boundary octant* of its partition if any of its `2D`
//! same-size face neighbours falls into a different partition — exactly the
//! cells whose data must be ghosted for a face-stencil application, so their
//! count is the communication-volume proxy the performance model consumes.

use crate::partition::owner_of;
use optipart_mpisim::{DistVec, Engine, Wire};
use optipart_sfc::{Curve, KeyedCell, SfcKey};

/// Result of a quality evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    /// Maximum elements owned by any partition.
    pub wmax: u64,
    /// Boundary octants of the *critical* partition (the `Cmax` proxy).
    /// On a flat (or degenerate-hierarchy) machine the critical partition
    /// is simply the one with the most boundary octants; on a two-level
    /// machine it is the one with the largest `tw`-weighted exchange
    /// `tw·inter + tw_intra·intra`, which is what Eq. (3) actually charges.
    pub cmax: u64,
    /// Of the `Cmax` partition's boundary octants, those whose every
    /// foreign neighbour partition lives on the same node — exchanged over
    /// the cheap intra-node fabric under a hierarchical machine. Always
    /// `<= cmax`; ties in the `Cmax` argmax break toward the lowest
    /// partition index.
    pub cmax_intra: u64,
    /// Global boundary octants summed over all partitions.
    pub c_total: u64,
    /// Of [`Quality::c_total`], the octants whose every foreign neighbour
    /// is on-node. `c_total − c_intra_total` is the inter-node surface the
    /// two-level model penalises.
    pub c_intra_total: u64,
    /// Maximum number of distinct neighbouring partitions any partition
    /// talks to (message-count proxy; locally estimated, see
    /// [`partition_quality`]).
    pub mmax: u64,
    /// Predicted runtime `Tp = α·tc·Wmax + tw·Cmax` (Eq. 3), with the
    /// intra-node discount `(tw_intra − tw)·Cmax_intra` applied when the
    /// machine carries a hierarchy.
    pub tp: f64,
}

impl Quality {
    /// Eq. (3) extended with a per-message latency term,
    /// `Tp + ts·Mmax` — the "additional information about the machine"
    /// the paper's future-work section calls for. Useful on
    /// high-latency interconnects where message count rivals volume.
    pub fn tp_with_latency(&self, ts: f64) -> f64 {
        self.tp + ts * self.mmax as f64
    }
}

/// Evaluates the quality of candidate `splitters` for the (still
/// block-distributed) data — Algorithm 2.
///
/// Every rank classifies its local elements into future partitions and
/// counts sizes and boundary octants per partition; vector all-reduces
/// produce the global per-partition totals, whose maxima feed Eq. (3).
pub fn partition_quality<const D: usize>(
    engine: &mut Engine,
    dist: &mut DistVec<KeyedCell<D>>,
    splitters: &[SfcKey],
    curve: Curve,
) -> Quality {
    let p = engine.p();
    assert_eq!(splitters.len(), p - 1, "need p-1 splitters");
    let elem_bytes = KeyedCell::<D>::BYTES as f64;
    // Partition → node placement mirrors the engine's rank placement. The
    // intra split is computed unconditionally (and reduced in the same
    // concatenated collective) so a flat machine and a degenerate hierarchy
    // see bit-identical clocks.
    let rpn = engine.perf().machine.ranks_per_node.max(1);

    // Line 1–2: one linear pass computing local boundary-octant (total and
    // all-neighbours-on-node) and size contributions per future partition.
    let local: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> = engine.compute_map(dist, |_r, buf| {
        // bdy packs [bdy_total ++ bdy_intra], length 2p.
        let mut bdy = vec![0u64; 2 * p];
        let mut sz = vec![0u64; p];
        // Foreign partitions touched by this rank's elements: a hash map
        // from each partition the rank holds elements of (a handful — a
        // block maps to few partitions) to the hash set of neighbour
        // partitions seen from those elements. A partition whose elements
        // span several ranks has its set split across them, and only set
        // sizes are reduced (by max, below), so `Mmax` is approximate.
        let mut nbr_sets: std::collections::HashMap<usize, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        for kc in buf.iter() {
            let own = owner_of(splitters, &kc.key);
            sz[own] += 1;
            let mut is_bdy = false;
            let mut off_node = false;
            for axis in 0..D {
                for dir in [-1i8, 1] {
                    if let Some(nb) = kc.cell.face_neighbor(axis, dir) {
                        let nk = SfcKey::of(&nb, curve);
                        let other = owner_of(splitters, &nk);
                        if other != own {
                            is_bdy = true;
                            if other / rpn != own / rpn {
                                off_node = true;
                            }
                            nbr_sets.entry(own).or_default().insert(other);
                        }
                    }
                }
            }
            if is_bdy {
                bdy[own] += 1;
                if !off_node {
                    bdy[p + own] += 1;
                }
            }
        }
        let mut nbrs = vec![0u64; p];
        for (part, set) in nbr_sets {
            nbrs[part] = set.len() as u64;
        }
        // One pass over elements + 2D neighbour probes.
        (
            buf.len() as f64 * elem_bytes * (1.0 + 2.0 * D as f64),
            (bdy, sz, nbrs),
        )
    });

    // Lines 3–4: ReduceAll to global per-partition vectors, take maxima.
    let bdy_contrib: Vec<Vec<u64>> = local.iter().map(|(b, _, _)| b.clone()).collect();
    let sz_contrib: Vec<Vec<u64>> = local.iter().map(|(_, s, _)| s.clone()).collect();
    let nbr_contrib: Vec<Vec<u64>> = local.into_iter().map(|(_, _, n)| n).collect();
    let bdy = engine.allreduce_sum_vec_u64(&bdy_contrib);
    let sz = engine.allreduce_sum_vec_u64(&sz_contrib);
    // Neighbour sets observed by different source ranks overlap, so neither
    // a sum (overcounts, increasingly for larger partitions) nor a max
    // (undercounts for scattered inputs) is exact; the max is the less
    // biased choice for the near-sorted inputs the refinement loop sees.
    let nbrs = engine.allreduce_max_vec_u64(&nbr_contrib);
    // Split the concatenated reduce back into [total | intra]; the Cmax
    // argmax (strict >, lowest index on ties) carries its intra count along.
    // On a two-level machine the critical partition is the one whose
    // *weighted* exchange `tw·inter + tw_intra·intra` is largest — an
    // interior partition with a big but all-on-node surface is not the
    // bottleneck when on-node bytes are nearly free. The weight ratio is
    // exactly 1.0 for a degenerate hierarchy (and for no hierarchy), where
    // `(total − intra) + 1.0·intra` reproduces the unweighted total bit for
    // bit, so the flattening contract is preserved.
    let tw = engine.perf().machine.tw;
    let ratio = match &engine.perf().machine.hierarchy {
        Some(h) if tw > 0.0 => h.tw_intra / tw,
        _ => 1.0,
    };
    let mut cmax = 0u64;
    let mut cmax_intra = 0u64;
    let mut cmax_weighted = f64::NEG_INFINITY;
    let mut c_total = 0u64;
    let mut c_intra_total = 0u64;
    for i in 0..p {
        let weighted = (bdy[i] - bdy[p + i]) as f64 + ratio * bdy[p + i] as f64;
        if weighted > cmax_weighted {
            cmax_weighted = weighted;
            cmax = bdy[i];
            cmax_intra = bdy[p + i];
        }
        c_total += bdy[i];
        c_intra_total += bdy[p + i];
    }
    let wmax = sz.into_iter().max().unwrap_or(0);
    let mmax = nbrs.into_iter().max().unwrap_or(0);

    // Line 5: the performance model (hierarchy-aware; degenerates to
    // Eq. (3) exactly on a flat machine).
    let tp = engine.perf().predict_hier(wmax, cmax, cmax_intra);
    Quality {
        wmax,
        cmax,
        cmax_intra,
        c_total,
        c_intra_total,
        mmax,
        tp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{distribute_tree, treesort_partition, PartitionOptions};
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
    }

    #[test]
    fn quality_reflects_balance() {
        let tree = MeshParams::normal(3000, 17).build::<3>(Curve::Hilbert);
        let p = 8;
        let mut e = engine(p);
        let out = treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact());
        let mut dist = distribute_tree(&tree, p);
        let q = partition_quality(&mut e, &mut dist, &out.splitters, Curve::Hilbert);
        let grain = tree.len() as u64 / p as u64;
        assert!(q.wmax >= grain);
        assert!(q.wmax <= grain * 2, "wmax {} vs grain {grain}", q.wmax);
        assert!(q.cmax > 0, "partitions must have boundaries");
        assert!(
            q.cmax <= q.wmax,
            "boundary octants are a subset of owned octants"
        );
        assert!(q.tp > 0.0);
    }

    #[test]
    fn coarser_splitters_trade_imbalance_for_surface() {
        // The §3.2 trade-off: a loose tolerance aligns partitions to coarse
        // subtree boundaries, so each partition carries *less boundary per
        // owned element* — at the price of a larger Wmax. Absolute Cmax is
        // noisy across instances (bigger partitions have more surface), so
        // assert the density, which is the claim that actually generalises.
        for seed in [23u64, 7, 42] {
            let tree = MeshParams::normal(6000, seed).build::<3>(Curve::Hilbert);
            let p = 16;
            let exact = {
                let mut e = engine(p);
                treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact())
            };
            let loose = {
                let mut e = engine(p);
                treesort_partition(
                    &mut e,
                    distribute_tree(&tree, p),
                    PartitionOptions::with_tolerance(0.5),
                )
            };
            let mut e = engine(p);
            let mut d0 = distribute_tree(&tree, p);
            let q_exact = partition_quality(&mut e, &mut d0, &exact.splitters, Curve::Hilbert);
            let mut d1 = distribute_tree(&tree, p);
            let q_loose = partition_quality(&mut e, &mut d1, &loose.splitters, Curve::Hilbert);
            assert!(
                q_loose.wmax > q_exact.wmax,
                "loose tolerance must relax balance"
            );
            let density = |q: &Quality| q.cmax as f64 / q.wmax as f64;
            assert!(
                density(&q_loose) < density(&q_exact),
                "seed {seed}: loose boundary density {} vs exact {}",
                density(&q_loose),
                density(&q_exact)
            );
            // And the absolute boundary must not blow up either.
            assert!(
                q_loose.cmax as f64 <= q_exact.cmax as f64 * 1.25,
                "seed {seed}: loose cmax {} vs exact {}",
                q_loose.cmax,
                q_exact.cmax
            );
        }
    }

    #[test]
    fn quality_matches_direct_count() {
        // Cross-check Algorithm 2 against a brute-force global count.
        let tree = MeshParams::normal(1000, 29).build::<3>(Curve::Morton);
        let p = 4;
        let mut e = engine(p);
        let out = treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact());
        let mut dist = distribute_tree(&tree, p);
        let q = partition_quality(&mut e, &mut dist, &out.splitters, Curve::Morton);

        let mut sizes = vec![0u64; p];
        let mut bdy = vec![0u64; p];
        for kc in tree.leaves() {
            let own = owner_of(&out.splitters, &kc.key);
            sizes[own] += 1;
            let mut is_bdy = false;
            for axis in 0..3 {
                for dir in [-1i8, 1] {
                    if let Some(nb) = kc.cell.face_neighbor(axis, dir) {
                        let nk = SfcKey::of(&nb, Curve::Morton);
                        if owner_of(&out.splitters, &nk) != own {
                            is_bdy = true;
                        }
                    }
                }
            }
            if is_bdy {
                bdy[own] += 1;
            }
        }
        assert_eq!(q.wmax, sizes.into_iter().max().unwrap());
        assert_eq!(q.cmax, bdy.into_iter().max().unwrap());
    }

    #[test]
    #[should_panic]
    fn wrong_splitter_count_panics() {
        let mut e = engine(4);
        let mut d: DistVec<KeyedCell<3>> = DistVec::new(4);
        let _ = partition_quality(&mut e, &mut d, &[], Curve::Morton);
    }
}
