//! Quadtree/octree cells addressed by anchor corner + refinement level.
//!
//! A cell of level `l` occupies the half-open cube
//! `[anchor, anchor + 2^(MAX_DEPTH - l))^D` in the discrete coordinate space
//! `[0, 2^MAX_DEPTH)^D`. Level 0 is the root (the whole domain); level
//! `MAX_DEPTH` is the finest representable cell (a single lattice point).

/// Maximum refinement depth of the tree.
///
/// The paper evaluates trees of depth 30 so that coordinates fit in an
/// `unsigned int`; we mirror that: every coordinate uses bits
/// `[0, MAX_DEPTH)` of a `u32`.
pub const MAX_DEPTH: u8 = 30;

/// One coordinate of the discrete domain, `0 <= c < 2^MAX_DEPTH`.
pub type Coord = u32;

/// A point in the discrete domain (finest-level lattice coordinates).
pub type Point<const D: usize> = [Coord; D];

/// A quadtree (`D = 2`) or octree (`D = 3`) cell: anchor corner + level.
///
/// The anchor is the corner with the smallest coordinate along every
/// dimension. Invariant: all anchor bits below the cell's level are zero
/// (the anchor is aligned to the level-`l` lattice); constructors uphold it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell<const D: usize> {
    anchor: [Coord; D],
    level: u8,
}

/// A quadtree cell.
pub type Cell2 = Cell<2>;
/// An octree cell (an *octant* in the paper's terminology).
pub type Cell3 = Cell<3>;

impl<const D: usize> Cell<D> {
    /// Number of children of an internal cell (`2^D`; 8 for octrees).
    pub const NUM_CHILDREN: usize = 1 << D;

    /// The root cell covering the whole domain.
    #[inline]
    pub const fn root() -> Self {
        Cell {
            anchor: [0; D],
            level: 0,
        }
    }

    /// Builds a cell from an anchor and level, aligning the anchor to the
    /// level's lattice (clears coordinate bits below the level).
    ///
    /// # Panics
    /// Panics if `level > MAX_DEPTH` or any coordinate is out of domain.
    #[inline]
    pub fn new(anchor: [Coord; D], level: u8) -> Self {
        assert!(
            level <= MAX_DEPTH,
            "level {level} exceeds MAX_DEPTH {MAX_DEPTH}"
        );
        let mask = !(side_len(level) - 1);
        let mut a = anchor;
        for c in &mut a {
            assert!(*c < (1 << MAX_DEPTH), "coordinate {c} out of domain");
            *c &= mask;
        }
        Cell { anchor: a, level }
    }

    /// The finest-level cell containing the given lattice point.
    #[inline]
    pub fn from_point(p: Point<D>) -> Self {
        Self::new(p, MAX_DEPTH)
    }

    /// Anchor corner (smallest coordinates).
    #[inline]
    pub fn anchor(&self) -> [Coord; D] {
        self.anchor
    }

    /// Refinement level, `0 ..= MAX_DEPTH`.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Edge length of the cell in lattice units: `2^(MAX_DEPTH - level)`.
    #[inline]
    pub fn side(&self) -> Coord {
        side_len(self.level)
    }

    /// Number of finest-level lattice cells covered, as a weight measure.
    ///
    /// Saturates at `u64::MAX` for very coarse 3D cells (level < 9 needs more
    /// than 64 bits at D = 3; the saturation is irrelevant for balancing,
    /// which only compares weights of near-leaf cells).
    #[inline]
    pub fn volume(&self) -> u64 {
        let bits = (MAX_DEPTH - self.level) as u32 * D as u32;
        if bits >= 64 {
            u64::MAX
        } else {
            1u64 << bits
        }
    }

    /// The parent cell, or `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<Self> {
        if self.level == 0 {
            return None;
        }
        Some(Self::new(self.anchor, self.level - 1))
    }

    /// The ancestor of this cell at `level` (≤ the cell's own level).
    ///
    /// # Panics
    /// Panics if `level > self.level()`.
    #[inline]
    pub fn ancestor_at(&self, level: u8) -> Self {
        assert!(level <= self.level, "ancestor level must be coarser");
        Self::new(self.anchor, level)
    }

    /// Child number of this cell within its parent, in *coordinate* (Morton
    /// Z) order: bit `d` of the result is bit `MAX_DEPTH - level` of
    /// coordinate `d`.
    ///
    /// This is the `child_num(a)` of Algorithm 1 *before* the `Rh`
    /// permutation. Returns 0 for the root.
    #[inline]
    pub fn child_number(&self) -> usize {
        if self.level == 0 {
            return 0;
        }
        self.coordinate_digit(self.level - 1)
    }

    /// The coordinate-order (Morton) digit of this cell's anchor at split
    /// level `k` (i.e. which child of the level-`k` ancestor contains it).
    ///
    /// `k` must be `< MAX_DEPTH`; digits at or below the cell's own level are
    /// zero because the anchor is aligned.
    #[inline]
    pub fn coordinate_digit(&self, k: u8) -> usize {
        debug_assert!(k < MAX_DEPTH);
        let bit = MAX_DEPTH - 1 - k;
        let mut d = 0usize;
        for (i, &c) in self.anchor.iter().enumerate() {
            d |= (((c >> bit) & 1) as usize) << i;
        }
        d
    }

    /// The `i`-th child in coordinate (Morton Z) order.
    ///
    /// # Panics
    /// Panics if the cell is at `MAX_DEPTH` or `i >= 2^D`.
    #[inline]
    pub fn child(&self, i: usize) -> Self {
        assert!(self.level < MAX_DEPTH, "cannot refine a finest-level cell");
        assert!(i < Self::NUM_CHILDREN);
        let half = side_len(self.level + 1);
        let mut a = self.anchor;
        for (d, c) in a.iter_mut().enumerate() {
            if (i >> d) & 1 == 1 {
                *c += half;
            }
        }
        Cell {
            anchor: a,
            level: self.level + 1,
        }
    }

    /// All `2^D` children in coordinate order.
    pub fn children(&self) -> Vec<Self> {
        (0..Self::NUM_CHILDREN).map(|i| self.child(i)).collect()
    }

    /// Whether `self` is an ancestor of `other` (proper: not equal).
    #[inline]
    fn is_ancestor_of(&self, other: &Self) -> bool {
        if self.level >= other.level {
            return false;
        }
        let mask = !(side_len(self.level) - 1);
        (0..D).all(|d| (other.anchor[d] & mask) == self.anchor[d])
    }

    /// Whether `self` contains `other` (ancestor-or-equal).
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// Whether the lattice point `p` lies inside this cell.
    #[inline]
    pub fn contains_point(&self, p: Point<D>) -> bool {
        let s = self.side();
        (0..D).all(|d| p[d] >= self.anchor[d] && p[d] - self.anchor[d] < s)
    }

    /// Whether two cells overlap (one contains the other, or equal).
    #[inline]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.contains(other) || other.is_ancestor_of(self)
    }

    /// The face neighbour of the same size in direction `dir` along
    /// dimension `axis` (`dir = -1` or `+1`), or `None` at the domain
    /// boundary.
    #[inline]
    pub fn face_neighbor(&self, axis: usize, dir: i8) -> Option<Self> {
        debug_assert!(axis < D);
        let s = self.side();
        let mut a = self.anchor;
        match dir {
            1 => {
                let max = (1u32 << MAX_DEPTH) - s;
                if a[axis] >= max {
                    return None;
                }
                a[axis] += s;
            }
            -1 => {
                if a[axis] < s {
                    return None;
                }
                a[axis] -= s;
            }
            _ => panic!("dir must be -1 or +1"),
        }
        Some(Cell {
            anchor: a,
            level: self.level,
        })
    }

    /// Whether two cells of *any* levels share a face (touch across a
    /// `(D-1)`-dimensional face with positive measure and do not overlap).
    pub fn shares_face_with(&self, other: &Self) -> bool {
        if self.overlaps(other) {
            return false;
        }
        let (sa, sb) = (self.side() as u64, other.side() as u64);
        let mut touching_axis = None;
        for d in 0..D {
            let (a0, a1) = (self.anchor[d] as u64, self.anchor[d] as u64 + sa);
            let (b0, b1) = (other.anchor[d] as u64, other.anchor[d] as u64 + sb);
            if a1 == b0 || b1 == a0 {
                // Abutting along this axis.
                if touching_axis.is_some() {
                    return false; // touches along 2 axes => edge/corner only
                }
                touching_axis = Some(d);
            } else if a1 <= b0 || b1 <= a0 {
                return false; // disjoint with a gap
            }
            // else: overlapping extent along this axis — fine.
        }
        touching_axis.is_some()
    }

    /// Surface area shared between two face-adjacent cells, in units of
    /// finest-level faces; 0 if they don't share a face.
    pub fn shared_face_area(&self, other: &Self) -> u64 {
        if !self.shares_face_with(other) {
            return 0;
        }
        let (sa, sb) = (self.side() as u64, other.side() as u64);
        let mut area = 1u64;
        for d in 0..D {
            let (a0, a1) = (self.anchor[d] as u64, self.anchor[d] as u64 + sa);
            let (b0, b1) = (other.anchor[d] as u64, other.anchor[d] as u64 + sb);
            if a1 == b0 || b1 == a0 {
                continue; // the touching axis contributes no extent
            }
            area *= a1.min(b1) - a0.max(b0);
        }
        area
    }

    /// Centre of the cell in unit-cube coordinates, for diagnostics.
    pub fn center_unit(&self) -> [f64; D] {
        let scale = 1.0 / (1u64 << MAX_DEPTH) as f64;
        let half = self.side() as f64 * 0.5;
        let mut c = [0.0; D];
        for (ci, &a) in c.iter_mut().zip(self.anchor.iter()) {
            *ci = (a as f64 + half) * scale;
        }
        c
    }
}

/// Edge length of a cell at `level`, in lattice units.
#[inline]
pub const fn side_len(level: u8) -> Coord {
    1 << (MAX_DEPTH - level)
}

impl<const D: usize> std::fmt::Debug for Cell<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cell(l={}, a={:?})", self.level, self.anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_covers_domain() {
        let r = Cell3::root();
        assert_eq!(r.level(), 0);
        assert_eq!(r.side(), 1 << MAX_DEPTH);
        assert!(r.contains_point([0, 0, 0]));
        assert!(r.contains_point([(1 << MAX_DEPTH) - 1; 3]));
    }

    #[test]
    fn child_parent_roundtrip() {
        let c = Cell3::new([1 << 29, 0, 1 << 28], 3);
        for i in 0..8 {
            let ch = c.child(i);
            assert_eq!(ch.parent().unwrap(), c);
            assert_eq!(ch.child_number(), i);
            assert!(c.is_ancestor_of(&ch));
            assert!(c.contains(&ch));
            assert!(!ch.is_ancestor_of(&c));
        }
    }

    #[test]
    fn children_partition_parent() {
        let c = Cell2::new([0, 0], 1);
        let kids = c.children();
        assert_eq!(kids.len(), 4);
        let vol: u64 = kids.iter().map(|k| k.volume()).sum();
        assert_eq!(vol, c.volume());
        for (i, a) in kids.iter().enumerate() {
            for (j, b) in kids.iter().enumerate() {
                if i != j {
                    assert!(!a.overlaps(b));
                }
            }
        }
    }

    #[test]
    fn anchor_aligned_on_construction() {
        let c = Cell3::new([7, 9, 13], 28);
        let s = c.side();
        for d in 0..3 {
            assert_eq!(c.anchor()[d] % s, 0);
        }
    }

    #[test]
    fn face_neighbor_at_boundary_is_none() {
        let c = Cell3::new([0, 0, 0], 1);
        assert!(c.face_neighbor(0, -1).is_none());
        assert!(c.face_neighbor(0, 1).is_some());
        let top = Cell3::new([1 << 29, 1 << 29, 1 << 29], 1);
        assert!(top.face_neighbor(2, 1).is_none());
    }

    #[test]
    fn face_sharing_same_level() {
        let a = Cell3::new([0, 0, 0], 2);
        let b = a.face_neighbor(1, 1).unwrap();
        assert!(a.shares_face_with(&b));
        assert!(b.shares_face_with(&a));
        assert_eq!(a.shared_face_area(&b), (a.side() as u64).pow(2));
        // Diagonal neighbour: shares an edge, not a face.
        let diag = Cell3::new([a.side(), a.side(), 0], 2);
        assert!(!a.shares_face_with(&diag));
    }

    #[test]
    fn face_sharing_cross_level() {
        let coarse = Cell3::new([0, 0, 0], 2);
        // A fine cell abutting coarse's +x face.
        let fine = Cell3::new([coarse.side(), 0, 0], 4);
        assert!(coarse.shares_face_with(&fine));
        assert_eq!(coarse.shared_face_area(&fine), (fine.side() as u64).pow(2));
        // A fine cell inside coarse does not "share a face".
        let inside = Cell3::new([0, 0, 0], 4);
        assert!(!coarse.shares_face_with(&inside));
    }

    #[test]
    #[should_panic]
    fn refining_finest_cell_panics() {
        let c = Cell3::new([0, 0, 0], MAX_DEPTH);
        let _ = c.child(0);
    }

    #[test]
    fn volume_saturates_for_coarse_3d() {
        assert_eq!(Cell3::root().volume(), u64::MAX);
        let fine = Cell3::new([0, 0, 0], MAX_DEPTH);
        assert_eq!(fine.volume(), 1);
    }

    #[test]
    fn ancestor_at_levels() {
        let c = Cell3::new([12345 << 10, 777 << 10, 31 << 20], 20);
        let a = c.ancestor_at(5);
        assert!(a.contains(&c));
        assert_eq!(a.level(), 5);
        assert_eq!(c.ancestor_at(20), c);
    }
}
