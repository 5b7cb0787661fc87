//! SampleSort-based SFC partitioning — the Dendro baseline of §5.2.
//!
//! "Most existing SFC-based partitioning algorithms rely on parallel sorting
//! algorithms such as SampleSort along with an ordering defined based on the
//! SFC. … We compare against the SFC-based partitioning implemented in
//! Dendro. This implementation uses the Morton ordering along with
//! SampleSort to partition data."
//!
//! The classic regular-sampling structure: sort locally (comparisons), pick
//! `p − 1` regular samples per rank, allgather and sort the `p(p−1)` samples,
//! select every `(p−1)`-th as a splitter, exchange, merge. The
//! `O(p²)`-sample splitter phase is precisely what limits its scalability
//! against TreeSort's count-based selection (Fig. 6).

use crate::partition::{
    owner_of, PartitionOutcome, PartitionReport, SearchSummary, PHASE_ALL2ALL, PHASE_LOCAL_SORT,
    PHASE_SPLITTER,
};
use optipart_mpisim::{AllToAllAlgo, DistVec, Engine, Wire};
use optipart_sfc::{KeyedCell, SfcKey};

/// Partitions by parallel SampleSort on the SFC keys: the classic `p − 1`
/// regular samples per rank (exact balance guarantees, quadratic total
/// samples) and a hypercube exchange.
pub fn samplesort_partition<const D: usize>(
    engine: &mut Engine,
    mut dist: DistVec<KeyedCell<D>>,
) -> PartitionOutcome<D> {
    let p = engine.p();
    let elem_bytes = KeyedCell::<D>::BYTES as f64;
    let s = (p - 1).max(1);

    // Local comparison sort (n log n memory traffic).
    engine.phase(PHASE_LOCAL_SORT, |e| {
        e.compute(&mut dist, |_r, buf| {
            buf.sort_unstable();
            buf.len() as f64 * elem_bytes * (buf.len().max(2) as f64).log2()
        });
    });

    // Splitter selection by regular sampling.
    let splitters: Vec<SfcKey> = engine.phase(PHASE_SPLITTER, |e| {
        if p == 1 {
            return Vec::new();
        }
        let local_samples: Vec<Vec<SfcKey>> = e.compute_map(&mut dist, |_r, buf| {
            let mut samples = Vec::with_capacity(s);
            if !buf.is_empty() {
                for i in 1..=s {
                    let idx = (i * buf.len() / (s + 1)).min(buf.len() - 1);
                    samples.push(buf[idx].key);
                }
            }
            (s as f64 * 24.0, samples)
        });
        // The O(p·s) gather that hurts at scale.
        let mut all = e.allgather(&local_samples);
        all.sort_unstable();
        if all.is_empty() {
            return vec![SfcKey::MAX; p - 1];
        }
        (1..p)
            .map(|r| all[(r * all.len() / p).min(all.len() - 1)])
            .collect()
    });

    // Exchange and final local merge (modelled as a comparison sort of the
    // received runs).
    let recv = engine.phase(PHASE_ALL2ALL, |e| {
        e.alltoallv_by(
            dist.into_parts(),
            |_src, kc: &KeyedCell<D>| owner_of(&splitters, &kc.key),
            AllToAllAlgo::Hypercube,
        )
    });
    let mut out = DistVec::from_parts(recv);
    engine.phase(PHASE_LOCAL_SORT, |e| {
        e.compute(&mut out, |_r, buf| {
            buf.sort_unstable();
            // p-way merge traffic: n log p.
            buf.len() as f64 * elem_bytes * (p.max(2) as f64).log2()
        });
    });

    // One sampling round, no bucket refinement, exact by construction.
    let search = SearchSummary {
        rounds: 1,
        splitter_level: 0,
        achieved_tolerance: 0.0,
        cmax: 0,
        predicted_tp: 0.0,
    };
    PartitionOutcome {
        report: PartitionReport::new(&out, search),
        dist: out,
        splitters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::distribute_tree;
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_octree::MeshParams;
    use optipart_sfc::Curve;

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(MachineModel::stampede(), AppModel::laplacian_matvec()),
        )
    }

    #[test]
    fn samplesort_produces_global_order() {
        for curve in Curve::ALL {
            let tree = MeshParams::normal(2000, 61).build::<3>(curve);
            let mut e = engine(8);
            let out = samplesort_partition(&mut e, distribute_tree(&tree, 8));
            let mut expected: Vec<KeyedCell<3>> = tree.leaves().to_vec();
            expected.sort_unstable();
            assert_eq!(out.dist.concat(), expected, "{curve}");
        }
    }

    #[test]
    fn samplesort_is_roughly_balanced() {
        let tree = MeshParams::normal(8000, 67).build::<3>(Curve::Morton);
        let mut e = engine(16);
        let out = samplesort_partition(&mut e, distribute_tree(&tree, 16));
        // Regular sampling bounds the partition size by ~2 N/p.
        assert!(out.report.lambda < 3.0, "λ = {}", out.report.lambda);
        assert_eq!(out.dist.total_len(), tree.len());
    }

    #[test]
    fn splitter_phase_costs_grow_with_p() {
        // The quadratic sample volume must show up in the splitter phase.
        let tree = MeshParams::normal(4000, 71).build::<3>(Curve::Morton);
        let t_small = {
            let mut e = engine(4);
            let _ = samplesort_partition(&mut e, distribute_tree(&tree, 4));
            e.phase_time(PHASE_SPLITTER)
        };
        let t_large = {
            let mut e = engine(64);
            let _ = samplesort_partition(&mut e, distribute_tree(&tree, 64));
            e.phase_time(PHASE_SPLITTER)
        };
        assert!(
            t_large > t_small * 4.0,
            "small {t_small:e} vs large {t_large:e}"
        );
    }

    #[test]
    fn single_rank_samplesort() {
        let tree = MeshParams::normal(400, 79).build::<3>(Curve::Hilbert);
        let mut e = engine(1);
        let out = samplesort_partition(&mut e, distribute_tree(&tree, 1));
        assert_eq!(out.dist.total_len(), tree.len());
    }
}
