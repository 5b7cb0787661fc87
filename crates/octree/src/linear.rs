//! Linear octrees: sorted, non-overlapping leaf arrays.
//!
//! A *linear* octree stores only leaves, ordered along a space-filling curve
//! — the representation of Dendro and p4est that all the paper's algorithms
//! assume. A *complete* linear octree additionally tiles the whole domain.

use optipart_sfc::{Cell, Curve, KeyedCell, MAX_DEPTH};

/// A linear (sorted, non-overlapping) tree of leaf cells on a chosen curve.
#[derive(Clone, Debug)]
pub struct LinearTree<const D: usize> {
    curve: Curve,
    leaves: Vec<KeyedCell<D>>,
}

impl<const D: usize> LinearTree<D> {
    /// Builds a linear tree from arbitrary cells: keys, sorts, removes
    /// duplicates and resolves overlaps by keeping the **finest** cell
    /// (matching AMR semantics where refined regions win).
    ///
    /// ```
    /// use optipart_octree::LinearTree;
    /// use optipart_sfc::{Cell3, Curve};
    /// let coarse = Cell3::new([0, 0, 0], 1);
    /// let fine = coarse.child(0); // overlaps `coarse`
    /// let tree = LinearTree::from_cells(vec![coarse, fine], Curve::Hilbert);
    /// assert_eq!(tree.len(), 1);
    /// assert_eq!(tree.leaves()[0].cell, fine);
    /// ```
    pub fn from_cells(cells: Vec<Cell<D>>, curve: Curve) -> Self {
        let mut keyed = KeyedCell::key_all(&cells, curve);
        keyed.sort_unstable();
        keyed.dedup_by(|a, b| a.cell == b.cell);
        // Ancestors sort immediately before their descendants; a linear scan
        // keeping the latest (finest) covering cell removes them.
        let mut out: Vec<KeyedCell<D>> = Vec::with_capacity(keyed.len());
        for kc in keyed {
            while let Some(last) = out.last() {
                if last.cell.contains(&kc.cell) {
                    out.pop();
                } else {
                    break;
                }
            }
            out.push(kc);
        }
        LinearTree { curve, leaves: out }
    }

    /// The complete tree with a single leaf: the root.
    pub fn root(curve: Curve) -> Self {
        LinearTree {
            curve,
            leaves: vec![KeyedCell::new(Cell::root(), curve)],
        }
    }

    /// Curve used for ordering.
    #[inline]
    pub fn curve(&self) -> Curve {
        self.curve
    }

    /// The sorted leaves.
    #[inline]
    pub fn leaves(&self) -> &[KeyedCell<D>] {
        &self.leaves
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the tree has no leaves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Consumes into the sorted leaf vector.
    pub fn into_leaves(self) -> Vec<KeyedCell<D>> {
        self.leaves
    }

    /// Whether the leaves tile the entire domain.
    pub fn is_complete(&self) -> bool {
        let total: u128 = self
            .leaves
            .iter()
            .map(|kc| volume_u128::<D>(&kc.cell))
            .sum();
        total == domain_volume::<D>()
    }

    /// Refines every leaf for which `pred` holds, repeatedly, until no leaf
    /// satisfies the predicate or `max_level` is reached.
    pub fn refine_where(&self, mut pred: impl FnMut(&Cell<D>) -> bool, max_level: u8) -> Self {
        let max_level = max_level.min(MAX_DEPTH);
        let mut work: Vec<Cell<D>> = self.leaves.iter().map(|kc| kc.cell).collect();
        let mut done: Vec<Cell<D>> = Vec::with_capacity(work.len());
        while let Some(c) = work.pop() {
            if c.level() < max_level && pred(&c) {
                work.extend(c.children());
            } else {
                done.push(c);
            }
        }
        Self::from_cells(done, self.curve)
    }
}

/// Whether a keyed slice is sorted and non-overlapping.
pub fn is_linear<const D: usize>(leaves: &[KeyedCell<D>]) -> bool {
    leaves
        .windows(2)
        .all(|w| w[0].key < w[1].key && !w[0].cell.overlaps(&w[1].cell))
}

/// Domain volume in finest-cell units (`2^(D·MAX_DEPTH)`).
pub fn domain_volume<const D: usize>() -> u128 {
    1u128 << (D as u32 * MAX_DEPTH as u32)
}

/// Cell volume as `u128` (no saturation, unlike `Cell::volume`).
pub fn volume_u128<const D: usize>(cell: &Cell<D>) -> u128 {
    1u128 << ((MAX_DEPTH - cell.level()) as u32 * D as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_sfc::Cell3;

    #[test]
    fn from_cells_sorts_and_dedups() {
        let c1 = Cell3::new([0, 0, 0], 2);
        let c2 = Cell3::new([1 << 28, 0, 0], 2);
        let t = LinearTree::from_cells(vec![c2, c1, c2], Curve::Morton);
        assert_eq!(t.len(), 2);
        assert!(is_linear(t.leaves()));
    }

    #[test]
    fn overlap_resolution_keeps_finest() {
        let coarse = Cell3::new([0, 0, 0], 1);
        let fine = Cell3::new([0, 0, 0], 3);
        let unrelated = Cell3::new([1 << 29, 1 << 29, 1 << 29], 1);
        for curve in Curve::ALL {
            let t = LinearTree::from_cells(vec![coarse, fine, unrelated], curve);
            assert_eq!(t.len(), 2, "{curve}");
            assert!(t.leaves().iter().any(|kc| kc.cell == fine));
            assert!(!t.leaves().iter().any(|kc| kc.cell == coarse));
        }
    }

    #[test]
    fn root_tree_is_complete() {
        let t: LinearTree<3> = LinearTree::root(Curve::Hilbert);
        assert!(t.is_complete());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn refine_where_targets_region() {
        let t: LinearTree<3> = LinearTree::root(Curve::Hilbert);
        // Refine anything containing the origin to level 5.
        let r = t.refine_where(|c| c.contains_point([0, 0, 0]), 5);
        assert!(r.is_complete());
        let finest = r.leaves().iter().map(|kc| kc.cell.level()).max().unwrap();
        assert_eq!(finest, 5);
        // Leaf at origin has level 5.
        let origin_leaf = r
            .leaves()
            .iter()
            .find(|kc| kc.cell.contains_point([0, 0, 0]))
            .unwrap();
        assert_eq!(origin_leaf.cell.level(), 5);
    }

    #[test]
    fn volume_u128_no_saturation() {
        let root = Cell3::root();
        assert_eq!(volume_u128::<3>(&root), domain_volume::<3>());
    }
}
