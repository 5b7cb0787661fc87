//! Materialised SFC keys with ancestor-first ordering of cells.

use crate::cell::{Cell, MAX_DEPTH};
use crate::{hilbert, morton};

/// The space-filling curve used for ordering, the two evaluated in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Curve {
    /// Z-order / Lebesgue curve: fixed child ordering, cheap, discontinuous.
    Morton,
    /// Hilbert curve: level-dependent child ordering, face-continuous,
    /// better clustering (Moon et al. 2001).
    Hilbert,
}

impl Curve {
    /// Both curves, handy for sweeps.
    pub const ALL: [Curve; 2] = [Curve::Morton, Curve::Hilbert];

    /// Short lowercase name for table output.
    pub fn name(self) -> &'static str {
        match self {
            Curve::Morton => "morton",
            Curve::Hilbert => "hilbert",
        }
    }
}

impl std::fmt::Display for Curve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Position of a cell on a space-filling curve, packed into one word
/// `(path << 8) | level`.
///
/// `path` stores `MAX_DEPTH` digits of `D` bits each (at most 90 bits), most
/// significant digit (coarsest split) first; digits at or below the cell's
/// `level` are zero. With the path above the level, the word's derived
/// order is the lexicographic order `(path, level)`, which realises the
/// standard *ancestor-before-descendant* ordering of linear octrees: an
/// ancestor's zero-padded path is `<=` every descendant path, and the
/// `level` tie-break puts the ancestor first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SfcKey(u128);

impl SfcKey {
    /// Key of `cell` on `curve`.
    ///
    /// For Hilbert, the digits of the anchor's Skilling path above the cell's
    /// level are exactly the curve-order child ranks of the cell's ancestor
    /// chain (the anchor lies inside the cell, and all points inside a cell
    /// share the path prefix leading to it); digits below the level are
    /// masked off.
    ///
    /// ```
    /// use optipart_sfc::{Cell3, Curve, SfcKey};
    /// let parent = Cell3::new([0, 0, 0], 3);
    /// let child = parent.child(5);
    /// for curve in Curve::ALL {
    ///     let kp = SfcKey::of(&parent, curve);
    ///     let kc = SfcKey::of(&child, curve);
    ///     assert!(kp < kc, "ancestors order before descendants");
    ///     assert_eq!(kc.prefix::<3>(3).path(), kp.path());
    /// }
    /// ```
    pub fn of<const D: usize>(cell: &Cell<D>, curve: Curve) -> SfcKey {
        let full = match curve {
            Curve::Morton => morton::interleave(cell.anchor()),
            Curve::Hilbert => hilbert::hilbert_path(cell.anchor()),
        };
        SfcKey::from_parts(mask_below_level::<D>(full, cell.level()), cell.level())
    }

    /// The smallest possible key (root's position).
    pub const MIN: SfcKey = SfcKey(0);

    /// A key strictly greater than every cell key (used as a sentinel
    /// splitter for the last partition): path `2^120 − 1`, level 255.
    pub const MAX: SfcKey = SfcKey(u128::MAX);

    /// The raw digit path.
    #[inline]
    pub fn path(&self) -> u128 {
        self.0 >> 8
    }

    /// The cell level this key was built from.
    #[inline]
    pub fn level(&self) -> u8 {
        self.0 as u8
    }

    /// Digit (curve-order child rank) at split level `k`, i.e. which child of
    /// the level-`k` ancestor the cell lies in, ranked along the curve.
    ///
    /// This equals Algorithm 1's `Rh(child_num(a))` at that level.
    #[inline]
    pub fn digit<const D: usize>(&self, k: u8) -> usize {
        debug_assert!(k < MAX_DEPTH);
        ((self.path() >> ((MAX_DEPTH - 1 - k) as u32 * D as u32)) & ((1 << D) - 1)) as usize
    }

    /// The key truncated to the first `level` digits (its ancestor's key on
    /// the same curve).
    #[inline]
    pub fn prefix<const D: usize>(&self, level: u8) -> SfcKey {
        let l = level.min(self.level());
        SfcKey::from_parts(mask_below_level::<D>(self.path(), l), l)
    }

    /// Reconstructs the cell this key addresses.
    ///
    /// The zero-padded digits below `level` address the curve's first visit
    /// inside the cell — a point inside the cell — so taking that point's
    /// ancestor at `level` recovers the cell for either curve.
    pub fn to_cell<const D: usize>(&self, curve: Curve) -> Cell<D> {
        let point = match curve {
            Curve::Morton => morton::deinterleave::<D>(self.path()),
            Curve::Hilbert => hilbert::hilbert_point::<D>(self.path()),
        };
        Cell::new(point, MAX_DEPTH).ancestor_at(self.level())
    }

    /// Builds a key directly from raw parts (for splitters). `path` must fit
    /// in 120 bits.
    #[inline]
    pub fn from_parts(path: u128, level: u8) -> SfcKey {
        debug_assert!(path >> 120 == 0, "path {path:#x} exceeds 120 bits");
        SfcKey(path << 8 | level as u128)
    }
}

#[inline]
fn mask_below_level<const D: usize>(path: u128, level: u8) -> u128 {
    if level >= MAX_DEPTH {
        return path;
    }
    let low_bits = (MAX_DEPTH - level) as u32 * D as u32;
    path & !((1u128 << low_bits) - 1)
}

impl std::fmt::Debug for SfcKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SfcKey(l={}, path={:#x})", self.level(), self.path())
    }
}

/// A cell bundled with its key on a chosen curve — the element type flowing
/// through TreeSort and the partitioners.
///
/// Ordering is by key alone, so sorting `KeyedCell`s realises the SFC order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KeyedCell<const D: usize> {
    /// Curve position; the sort key.
    pub key: SfcKey,
    /// The underlying cell.
    pub cell: Cell<D>,
}

impl<const D: usize> KeyedCell<D> {
    /// Keys a cell on the given curve.
    #[inline]
    pub fn new(cell: Cell<D>, curve: Curve) -> Self {
        KeyedCell {
            key: SfcKey::of(&cell, curve),
            cell,
        }
    }

    /// Keys every cell of a slice (convenience for building inputs).
    pub fn key_all(cells: &[Cell<D>], curve: Curve) -> Vec<Self> {
        cells.iter().map(|c| Self::new(*c, curve)).collect()
    }
}

impl<const D: usize> PartialOrd for KeyedCell<D> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const D: usize> Ord for KeyedCell<D> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell3;

    #[test]
    fn ancestor_orders_before_descendants() {
        for curve in Curve::ALL {
            let parent = Cell3::new([1 << 29, 0, 1 << 28], 4);
            let kp = SfcKey::of(&parent, curve);
            for i in 0..8 {
                let kc = SfcKey::of(&parent.child(i), curve);
                assert!(kp < kc, "{curve}: parent key must precede child {i}");
                assert_eq!(kc.prefix::<3>(4).path(), kp.path());
            }
        }
    }

    #[test]
    fn digits_match_morton_child_number() {
        let c = Cell3::new([123 << 20, 45 << 20, 67 << 20], 10);
        let k = SfcKey::of(&c, Curve::Morton);
        for lvl in 0..10 {
            let anc_child = c.ancestor_at(lvl + 1);
            assert_eq!(k.digit::<3>(lvl), anc_child.child_number());
        }
    }

    #[test]
    fn hilbert_digits_are_curve_ranks() {
        // The 8 children of the root, sorted by Hilbert key, must each have a
        // distinct top digit 0..8 in that order.
        let root = Cell3::root();
        let mut keyed: Vec<_> = root
            .children()
            .into_iter()
            .map(|c| KeyedCell::new(c, Curve::Hilbert))
            .collect();
        keyed.sort();
        for (rank, kc) in keyed.iter().enumerate() {
            assert_eq!(kc.key.digit::<3>(0), rank);
        }
    }

    #[test]
    fn key_to_cell_roundtrip() {
        for curve in Curve::ALL {
            for (a, l) in [
                ([0u32, 0, 0], 0u8),
                ([5 << 24, 3 << 24, 1 << 24], 6),
                ([1, 2, 3], MAX_DEPTH),
            ] {
                let cell = Cell3::new(a, l);
                let key = SfcKey::of(&cell, curve);
                assert_eq!(key.to_cell::<3>(curve), cell, "{curve} roundtrip failed");
            }
        }
    }

    #[test]
    fn sorted_keys_realise_depth_first_preorder() {
        // Build a small complete tree (root split twice, one child split
        // again); sorted keys must give a valid pre-order: every ancestor
        // before its descendants, siblings grouped.
        for curve in Curve::ALL {
            let mut cells = vec![];
            for c1 in Cell3::root().children() {
                for c2 in c1.children() {
                    cells.push(c2);
                }
            }
            let mut keyed = KeyedCell::key_all(&cells, curve);
            keyed.sort();
            // All 64 level-2 cells present, and consecutive runs of 8 share a
            // level-1 parent.
            assert_eq!(keyed.len(), 64);
            for chunk in keyed.chunks(8) {
                let p = chunk[0].cell.parent().unwrap();
                assert!(chunk.iter().all(|kc| kc.cell.parent().unwrap() == p));
            }
        }
    }

    #[test]
    fn min_max_sentinels() {
        let c = Cell3::new([(1 << MAX_DEPTH) - 1; 3], MAX_DEPTH);
        for curve in Curve::ALL {
            let k = SfcKey::of(&c, curve);
            assert!(SfcKey::MIN <= k);
            assert!(k < SfcKey::MAX);
        }
    }
}
