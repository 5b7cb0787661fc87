//! PartitionQuality — Algorithm 2 of the paper.
//!
//! Estimates the runtime a *candidate* partition (given by splitters) would
//! deliver, without moving any data: one linear pass over the local elements
//! counts those on partition boundaries (`computeLocalBdyOctants`), the
//! partition sizes follow from the same pass, and three vector all-reduces
//! yield `Cmax`, `Wmax` and the neighbour count `Mmax` for Eq. (3).
//!
//! A cell is a *boundary octant* of its partition if any of its `2D`
//! same-size face neighbours falls into a different partition — exactly the
//! cells whose data must be ghosted for a face-stencil application, so their
//! count is the communication-volume proxy the performance model consumes.
//!
//! The pass runs in two steps. `NeighbourKeys` keys every element's `2D`
//! face neighbours; none of those keys depends on the splitters, so
//! OptiPart (Alg. 3) builds **one table per ladder** and scores each
//! tolerance rung with `partition_quality_keyed`, a **keyed sweep** of
//! `owner_of` searches over it — the only counting body;
//! [`partition_quality`] is "build the table, run the sweep". The table is
//! host bookkeeping and is charged nothing: each sweep still charges what
//! the paper's Alg. 2 pays per candidate — one read of every element plus
//! its `2D` neighbour probes — so the virtual clocks are those of an MPI
//! program that keys neighbours per rung. Lowering that modelled charge
//! would move every clock, and is a separate decision.

use crate::partition::owner_of;
use optipart_mpisim::{par, DistVec, Engine, Wire};
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

/// The face-neighbour keys of every local element: `2·D` keys per element,
/// each element's keys sorted ascending, and [`SfcKey::MAX`] for a face on
/// the domain boundary (its level byte is 255, so it is never a cell's key,
/// and it sorts last). One pool holds every rank's run back to back, rank
/// `r`'s at `starts[r]..starts[r + 1]`. The table depends on the mesh, its
/// distribution and the curve — never on the splitters — so it stays valid
/// for as long as `dist` is not reordered.
pub(crate) struct NeighbourKeys {
    keys: Vec<SfcKey>,
    starts: Vec<usize>,
}

impl NeighbourKeys {
    /// Keys the face neighbours of `dist`'s elements on `curve`, one rank
    /// per host task (uncharged; see the module header).
    pub(crate) fn new<const D: usize>(dist: &DistVec<KeyedCell<D>>, curve: Curve) -> Self {
        let mut starts = vec![0];
        for buf in dist.parts() {
            starts.push(starts[starts.len() - 1] + 2 * D * buf.len());
        }
        let mut keys = vec![SfcKey::MIN; starts[starts.len() - 1]];
        let mut rest = keys.as_mut_slice();
        let mut runs = Vec::with_capacity(dist.parts().len());
        for buf in dist.parts() {
            let (run, tail) = rest.split_at_mut(2 * D * buf.len());
            runs.push((run, buf));
            rest = tail;
        }
        par::par_map_mut(&mut runs, |_r, (run, buf)| {
            for (kc, nks) in buf.iter().zip(run.chunks_exact_mut(2 * D)) {
                let faces = (0..D).flat_map(|axis| [(axis, -1i8), (axis, 1)]);
                for (nk, (axis, dir)) in nks.iter_mut().zip(faces) {
                    *nk = kc
                        .cell
                        .face_neighbor(axis, dir)
                        .map_or(SfcKey::MAX, |nb| SfcKey::of(&nb, curve));
                }
                nks.sort_unstable();
            }
        });
        NeighbourKeys { keys, starts }
    }

    /// Rank `r`'s run: `2·D` keys per local element, in element order.
    fn rank(&self, r: usize) -> &[SfcKey] {
        &self.keys[self.starts[r]..self.starts[r + 1]]
    }
}

/// Evaluates the quality of candidate `splitters` for the (still
/// block-distributed) data — Algorithm 2.
///
/// Every rank classifies its local elements into future partitions and
/// counts sizes and boundary octants per partition; vector all-reduces
/// produce the global per-partition totals, whose maxima feed Eq. (3).
/// `Mmax` is the largest number of distinct foreign partitions one source
/// rank sees from its elements of one partition — a partition whose
/// elements span several ranks has its neighbour set split across them,
/// and only the per-rank set sizes are reduced (by max), so it is an
/// estimate. Builds the neighbour-key table and runs one keyed sweep.
pub fn partition_quality<const D: usize>(
    engine: &mut Engine,
    dist: &mut DistVec<KeyedCell<D>>,
    splitters: &[SfcKey],
    curve: Curve,
) -> Quality {
    let keys = NeighbourKeys::new(dist, curve);
    partition_quality_keyed(engine, dist, &keys, splitters)
}

/// [`partition_quality`] over a neighbour table built from this very
/// `dist` — the keyed sweep, one per ladder rung.
pub(crate) fn partition_quality_keyed<const D: usize>(
    engine: &mut Engine,
    dist: &mut DistVec<KeyedCell<D>>,
    keys: &NeighbourKeys,
    splitters: &[SfcKey],
) -> Quality {
    let p = engine.p();
    assert_eq!(splitters.len(), p - 1, "need p-1 splitters");
    assert_eq!(
        keys.starts.len(),
        p + 1,
        "neighbour table built for another rank count"
    );
    let elem_bytes = KeyedCell::<D>::BYTES as f64;
    // Partition → node placement mirrors the engine's rank placement. The
    // intra split is computed unconditionally (and reduced in the same
    // concatenated collective) so a flat machine and a degenerate hierarchy
    // see bit-identical clocks.
    let rpn = engine.perf().machine.ranks_per_node.max(1);

    // Line 1–2: one linear pass computing local boundary-octant (total and
    // all-neighbours-on-node) and size contributions per future partition.
    let local: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> = engine.compute_map(dist, |r, buf| {
        let nbr_keys = keys.rank(r);
        debug_assert_eq!(
            nbr_keys.len(),
            2 * D * buf.len(),
            "rank {r}: neighbour table out of step with its elements"
        );
        // bdy packs [bdy_total ++ bdy_intra], length 2p.
        let mut bdy = vec![0u64; 2 * p];
        let mut sz = vec![0u64; p];
        // Every `(own, other)` partition pair seen from this rank's
        // elements, deduplicated at the end; a partition's neighbour count
        // is its run length. Starts with room for one element's faces.
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(2 * D);
        for (kc, nks) in buf.iter().zip(nbr_keys.chunks_exact(2 * D)) {
            let own = owner_of(splitters, &kc.key);
            sz[own] += 1;
            let inside = &nks[..nks.partition_point(|k| *k < SfcKey::MAX)];
            let (Some(first), Some(last)) = (inside.first(), inside.last()) else {
                continue;
            };
            // Owners are monotone in the key, so when the smallest and the
            // largest neighbour are both `own`, every neighbour is.
            let hi = owner_of(splitters, last);
            let mut other = owner_of(splitters, first);
            if other == own && hi == own {
                continue;
            }
            // A boundary octant: walk the sorted owners, each key's owner
            // lying in `[previous owner, hi]`.
            let mut off_node = false;
            for nk in inside {
                other += splitters[other..hi].partition_point(|s| s <= nk);
                if other != own {
                    off_node |= other / rpn != own / rpn;
                    push_pair(&mut pairs, (own, other));
                }
            }
            bdy[own] += 1;
            if !off_node {
                bdy[p + own] += 1;
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut nbrs = vec![0u64; p];
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            nbrs[run[0].0] = run.len() as u64;
        }
        // One pass over elements + 2D neighbour probes.
        (
            buf.len() as f64 * elem_bytes * (1.0 + 2.0 * D as f64),
            (bdy, sz, nbrs),
        )
    });

    // Lines 3–4: ReduceAll to global per-partition vectors, take maxima.
    let mut bdy_contrib: Vec<Vec<u64>> = Vec::with_capacity(local.len());
    let mut sz_contrib: Vec<Vec<u64>> = Vec::with_capacity(local.len());
    let mut nbr_contrib: Vec<Vec<u64>> = Vec::with_capacity(local.len());
    for (b, s, n) in local {
        bdy_contrib.push(b);
        sz_contrib.push(s);
        nbr_contrib.push(n);
    }
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

/// Records a partition pair, skipping a repeat of the last one (an
/// element's sorted owners repeat adjacently). A full buffer is
/// deduplicated before it may grow, so its size follows the number of
/// distinct pairs, not the number of boundary faces.
fn push_pair(pairs: &mut Vec<(usize, usize)>, pair: (usize, usize)) {
    if pairs.last() == Some(&pair) {
        return;
    }
    if pairs.len() == pairs.capacity() {
        pairs.sort_unstable();
        pairs.dedup();
        pairs.reserve(pairs.len());
    }
    pairs.push(pair);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{
        distribute_shuffled, distribute_tree, treesort_partition, PartitionOptions,
    };
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_octree::MeshParams;
    use optipart_sfc::Curve;
    use std::collections::BTreeSet;

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

    /// Algorithm 2 by its definition: every element keys its face
    /// neighbours on the spot, sets hold the foreign partitions, and `Mmax`
    /// is the largest neighbour set one source rank sees for one partition.
    fn direct_count(
        e: &Engine,
        dist: &DistVec<KeyedCell<3>>,
        splitters: &[SfcKey],
        curve: Curve,
    ) -> Quality {
        let p = e.p();
        let machine = &e.perf().machine;
        let rpn = machine.ranks_per_node.max(1);
        let mut sz = vec![0u64; p];
        let mut bdy = vec![0u64; p];
        let mut intra = vec![0u64; p];
        let mut mmax = 0;
        for part in dist.parts() {
            let mut seen = vec![BTreeSet::new(); p];
            for kc in part {
                let own = owner_of(splitters, &kc.key);
                sz[own] += 1;
                let foreign: BTreeSet<usize> = (0..3)
                    .flat_map(|axis| [-1i8, 1].map(|dir| kc.cell.face_neighbor(axis, dir)))
                    .flatten()
                    .map(|nb| owner_of(splitters, &SfcKey::of(&nb, curve)))
                    .filter(|&o| o != own)
                    .collect();
                if !foreign.is_empty() {
                    bdy[own] += 1;
                    if foreign.iter().all(|&o| o / rpn == own / rpn) {
                        intra[own] += 1;
                    }
                }
                seen[own].extend(foreign);
            }
            mmax = seen.iter().map(|s| s.len() as u64).fold(mmax, u64::max);
        }
        // The critical partition: largest weighted exchange, lowest index
        // on ties.
        let ratio = machine
            .hierarchy
            .as_ref()
            .map_or(1.0, |h| h.tw_intra / machine.tw);
        let weighted = |i: usize| (bdy[i] - intra[i]) as f64 + ratio * intra[i] as f64;
        let crit = (0..p).fold(0, |c, i| if weighted(i) > weighted(c) { i } else { c });
        let wmax = sz.into_iter().max().unwrap();
        Quality {
            wmax,
            cmax: bdy[crit],
            cmax_intra: intra[crit],
            c_total: bdy.iter().sum(),
            c_intra_total: intra.iter().sum(),
            mmax,
            tp: e.perf().predict_hier(wmax, bdy[crit], intra[crit]),
        }
    }

    #[test]
    fn quality_matches_direct_count() {
        // Every count and the Tp bits against the definition, on both
        // curves, a flat and a two-level machine, a power-of-two and an
        // uneven rank count (7 ranks on 3-rank nodes leaves a short last
        // node), block and shuffled inputs. TreeSort's splitters are
        // level-0 bucket keys, which no leaf's key equals; leaf keys as
        // splitters (SampleSort's kind) make `owner_of`'s `s <= key` edge
        // decide which partition owns the leaf at each boundary.
        let w = MachineModel::cloudlab_wisconsin();
        let flat = MachineModel::custom("test-3pn", w.tc, w.ts, w.tw, 3);
        let machines = [flat.clone(), flat.hierarchical_smp()];
        for curve in Curve::ALL {
            let tree = MeshParams::normal(1000, 29).build::<3>(curve);
            for p in [4usize, 7] {
                let treesort = {
                    let mut e = engine(p);
                    treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact())
                        .splitters
                };
                let leaf_keys: Vec<SfcKey> = (1..p)
                    .map(|i| tree.leaves()[i * tree.len() / p].key)
                    .collect();
                for ((kind, splitters), machine, shuffled) in
                    [("treesort", &treesort), ("leaf-key", &leaf_keys)]
                        .into_iter()
                        .flat_map(|s| machines.iter().map(move |m| (s, m)))
                        .flat_map(|(s, m)| [(s, m, false), (s, m, true)])
                {
                    let mut e = Engine::new(
                        p,
                        PerfModel::new(machine.clone(), AppModel::laplacian_matvec()),
                    );
                    let mut dist = if shuffled {
                        distribute_shuffled(&tree, p, 11)
                    } else {
                        distribute_tree(&tree, p)
                    };
                    let want = direct_count(&e, &dist, splitters, curve);
                    let got = partition_quality(&mut e, &mut dist, splitters, curve);
                    let ctx = format!(
                        "{curve} p={p} {} shuffled={shuffled} {kind} splitters",
                        machine.name
                    );
                    assert!(got.cmax > 0 && got.mmax > 0, "{ctx}: degenerate case");
                    assert_eq!(got.wmax, want.wmax, "{ctx}: wmax");
                    assert_eq!(got.cmax, want.cmax, "{ctx}: cmax");
                    assert_eq!(got.cmax_intra, want.cmax_intra, "{ctx}: cmax_intra");
                    assert_eq!(got.c_total, want.c_total, "{ctx}: c_total");
                    assert_eq!(got.c_intra_total, want.c_intra_total, "{ctx}: c_intra");
                    assert_eq!(got.mmax, want.mmax, "{ctx}: mmax");
                    assert_eq!(got.tp.to_bits(), want.tp.to_bits(), "{ctx}: tp");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_splitter_count_panics() {
        let mut e = engine(4);
        let mut d: DistVec<KeyedCell<3>> = DistVec::new(4);
        let _ = partition_quality(&mut e, &mut d, &[], Curve::Morton);
    }
}
