//! Leaf lookup and face-neighbour enumeration on linear octrees.
//!
//! These primitives back both the ghost-layer construction of the FEM
//! substrate and the partition-boundary metrics of the paper's Algorithm 2.
//! All queries are `O(log n)` binary searches on the curve keys, exploiting
//! the fact that the descendants of any region occupy a contiguous key range
//! and a containing ancestor (if present as a leaf) is the immediate key
//! predecessor of that range.

use optipart_sfc::{Cell, Curve, KeyedCell, Point, SfcKey};
use std::ops::Range;

/// [`overlapping_leaves_keyed`] for a region whose key is not yet known.
fn overlapping_leaves<const D: usize>(
    leaves: &[KeyedCell<D>],
    region: &Cell<D>,
    curve: Curve,
) -> Range<usize> {
    overlapping_leaves_keyed(leaves, region, SfcKey::of(region, curve))
}

/// Indices of all leaves overlapping `region` (descendants, the region
/// itself, or one containing ancestor) in a sorted linear leaf array —
/// always one contiguous index run. `key` is the region's precomputed
/// curve key: callers in hot loops often already hold it (e.g. after an
/// ownership check).
pub fn overlapping_leaves_keyed<const D: usize>(
    leaves: &[KeyedCell<D>],
    region: &Cell<D>,
    key: SfcKey,
) -> Range<usize> {
    debug_assert_eq!(key.level(), region.level());
    let start = leaves.partition_point(|kc| kc.key < key);
    let mut end = start;
    while end < leaves.len() && region.contains(&leaves[end].cell) {
        end += 1;
    }
    if end == start && start > 0 && leaves[start - 1].cell.contains(region) {
        return start - 1..start;
    }
    start..end
}

/// Index of the unique leaf containing `point`, if any.
pub fn find_leaf<const D: usize>(
    leaves: &[KeyedCell<D>],
    point: Point<D>,
    curve: Curve,
) -> Option<usize> {
    let cell = Cell::<D>::from_point(point);
    overlapping_leaves(leaves, &cell, curve).next()
}

/// Indices of all leaves sharing a face with `leaves[idx]`.
///
/// Works for arbitrary (not necessarily 2:1-balanced) linear trees: for each
/// of the `2D` face directions, the same-size virtual neighbour region is
/// located and its overlapping leaves filtered by true face adjacency.
pub fn face_adjacent_leaves<const D: usize>(
    leaves: &[KeyedCell<D>],
    idx: usize,
    curve: Curve,
) -> Vec<usize> {
    let cell = leaves[idx].cell;
    let mut out = Vec::new();
    for axis in 0..D {
        for dir in [-1i8, 1] {
            let Some(region) = cell.face_neighbor(axis, dir) else {
                continue;
            };
            for j in overlapping_leaves(leaves, &region, curve) {
                if cell.shares_face_with(&leaves[j].cell) {
                    out.push(j);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Total face area each leaf exposes to leaves *outside* the index range
/// `[lo, hi)` — the partition surface `s` of Fig. 2 for the partition
/// holding that contiguous curve segment. Domain boundary faces are not
/// counted (they need no communication).
pub fn segment_surface<const D: usize>(
    leaves: &[KeyedCell<D>],
    lo: usize,
    hi: usize,
    curve: Curve,
) -> u64 {
    let mut area = 0u64;
    for idx in lo..hi {
        let cell = leaves[idx].cell;
        for axis in 0..D {
            for dir in [-1i8, 1] {
                let Some(region) = cell.face_neighbor(axis, dir) else {
                    continue;
                };
                for j in overlapping_leaves(leaves, &region, curve) {
                    if (j < lo || j >= hi) && cell.shares_face_with(&leaves[j].cell) {
                        area += cell.shared_face_area(&leaves[j].cell);
                    }
                }
            }
        }
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearTree;
    use optipart_sfc::{Cell3, MAX_DEPTH};

    fn uniform(level: u8, curve: Curve) -> LinearTree<3> {
        LinearTree::root(curve).refine_where(|c| c.level() < level, level)
    }

    #[test]
    fn find_leaf_on_uniform_grid() {
        for curve in Curve::ALL {
            let t = uniform(2, curve);
            let leaves = t.leaves();
            // Every leaf's own anchor maps back to it.
            for (i, kc) in leaves.iter().enumerate() {
                assert_eq!(find_leaf(leaves, kc.cell.anchor(), curve), Some(i));
            }
            // An interior point of leaf 0.
            let a = leaves[0].cell.anchor();
            let mid = [a[0] + 1, a[1] + 1, a[2] + 1];
            assert_eq!(find_leaf(leaves, mid, curve), Some(0));
        }
    }

    #[test]
    fn find_leaf_in_adaptive_tree() {
        for curve in Curve::ALL {
            let t = LinearTree::root(curve)
                .refine_where(|c: &Cell3| c.contains_point([0, 0, 0]) && c.level() < 6, 6);
            let leaves = t.leaves();
            // Origin lives in the level-6 leaf.
            let i = find_leaf(leaves, [0, 0, 0], curve).unwrap();
            assert_eq!(leaves[i].cell.level(), 6);
            // Far corner lives in a level-1 leaf.
            let far = [(1u32 << MAX_DEPTH) - 1; 3];
            let j = find_leaf(leaves, far, curve).unwrap();
            assert_eq!(leaves[j].cell.level(), 1);
        }
    }

    #[test]
    fn interior_cell_has_six_neighbors_on_uniform_grid() {
        for curve in Curve::ALL {
            let t = uniform(2, curve);
            let leaves = t.leaves();
            // Find an interior cell (anchor not on the domain boundary).
            let side = leaves[0].cell.side();
            let max = (1u32 << MAX_DEPTH) - side;
            let (i, _) = leaves
                .iter()
                .enumerate()
                .find(|(_, kc)| kc.cell.anchor().iter().all(|&a| a > 0 && a < max))
                .expect("interior cell exists at level 2");
            assert_eq!(face_adjacent_leaves(leaves, i, curve).len(), 6, "{curve}");
        }
    }

    #[test]
    fn corner_cell_has_three_neighbors() {
        for curve in Curve::ALL {
            let t = uniform(1, curve);
            let leaves = t.leaves();
            for i in 0..leaves.len() {
                assert_eq!(face_adjacent_leaves(leaves, i, curve).len(), 3);
            }
        }
    }

    #[test]
    fn neighbors_across_refinement_levels() {
        // Refine one corner octant: the coarse neighbours see the fine cells
        // and vice versa.
        let curve = Curve::Hilbert;
        let t = LinearTree::root(curve)
            .refine_where(|c: &Cell3| c.level() < 1, 1)
            .refine_where(|c: &Cell3| c.contains_point([0, 0, 0]) && c.level() < 2, 2);
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 15);
        // A level-2 cell on the +x face of the refined octant.
        let half = 1u32 << (MAX_DEPTH - 2);
        let fine = leaves
            .iter()
            .position(|kc| kc.cell.anchor() == [half, 0, 0] && kc.cell.level() == 2)
            .unwrap();
        let nbrs = face_adjacent_leaves(leaves, fine, curve);
        // Neighbours: -x (fine), +x (coarse level-1), ±y ±z (fine) = at least
        // one coarse neighbour among them.
        assert!(nbrs.iter().any(|&j| leaves[j].cell.level() == 1));
        assert!(nbrs.iter().any(|&j| leaves[j].cell.level() == 2));
        // Adjacency is symmetric.
        for &j in &nbrs {
            assert!(
                face_adjacent_leaves(leaves, j, curve).contains(&fine),
                "symmetry violated for neighbour {j}"
            );
        }
    }

    #[test]
    fn segment_surface_whole_domain_is_zero() {
        let t = uniform(2, Curve::Hilbert);
        let n = t.len();
        assert_eq!(segment_surface(t.leaves(), 0, n, Curve::Hilbert), 0);
    }

    #[test]
    fn segment_surface_halves_are_symmetric() {
        for curve in Curve::ALL {
            let t = uniform(2, curve);
            let n = t.len();
            let a = segment_surface(t.leaves(), 0, n / 2, curve);
            let b = segment_surface(t.leaves(), n / 2, n, curve);
            assert_eq!(a, b, "{curve}: the two halves share the same interface");
            assert!(a > 0);
        }
    }

    #[test]
    fn hilbert_segment_surface_no_worse_than_morton() {
        let th = uniform(3, Curve::Hilbert);
        let tm = uniform(3, Curve::Morton);
        let n = th.len();
        let sh = segment_surface(th.leaves(), 0, n / 2, Curve::Hilbert);
        let sm = segment_surface(tm.leaves(), 0, n / 2, Curve::Morton);
        assert!(sh <= sm, "hilbert {sh} vs morton {sm}");
    }

    #[test]
    fn overlapping_leaves_finds_ancestor() {
        let curve = Curve::Morton;
        let t = uniform(1, curve);
        let leaves = t.leaves();
        // Query a level-3 region inside leaf 0.
        let region = leaves[0].cell.child(0).child(0);
        let hits = overlapping_leaves(leaves, &region, curve);
        assert_eq!(hits, 0..1);
    }

    #[test]
    fn overlapping_leaves_finds_descendants() {
        let curve = Curve::Hilbert;
        let t = uniform(2, curve);
        let leaves = t.leaves();
        // Query a level-1 region: must hit exactly 8 level-2 leaves.
        let region = Cell3::new([0, 0, 0], 1);
        let hits = overlapping_leaves(leaves, &region, curve);
        assert_eq!(hits.len(), 8);
        for h in hits {
            assert!(region.contains(&leaves[h].cell));
        }
    }
}
