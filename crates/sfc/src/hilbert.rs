//! Hilbert curve via Skilling's transpose transform.
//!
//! J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707 (2004).
//! The transform converts between axis coordinates and the *transpose* of the
//! Hilbert index in place with O(D · MAX_DEPTH) bit operations — no lookup
//! tables, any dimension. The paper notes (§2.1) that level-dependent child
//! orderings like Hilbert's "can be applied at this level with an O(1) cost";
//! Skilling's per-level loop body is exactly that O(1) state update.
//!
//! The defining property (verified by the crate's property tests):
//! consecutive Hilbert indices map to lattice points
//! that differ by exactly 1 in exactly one coordinate, i.e. the curve is a
//! Hamiltonian path of face-adjacent cells.

use crate::cell::{Coord, MAX_DEPTH};

/// Converts axis coordinates (each `MAX_DEPTH` bits) into the transposed
/// Hilbert index, in place.
///
/// After the call, bit `b` of `x[i]` holds Hilbert-index bit
/// `b * D + (D - 1 - i)`: interleaving the transformed words MSB-first with
/// `x[0]` first yields the Hilbert index.
fn axes_to_transpose<const D: usize>(x: &mut [Coord; D]) {
    let m: Coord = 1 << (MAX_DEPTH - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t: Coord = 0;
    let mut q = m;
    while q > 1 {
        if x[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Inverse of [`axes_to_transpose`]: converts a transposed Hilbert index back
/// into axis coordinates, in place.
fn transpose_to_axes<const D: usize>(x: &mut [Coord; D]) {
    let n: u64 = 2u64 << (MAX_DEPTH - 1);
    // Gray decode by H ^ (H/2).
    let mut t = x[D - 1] >> 1;
    for i in (1..D).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q: u64 = 2;
    while q != n {
        let p = (q - 1) as Coord;
        for i in (0..D).rev() {
            if x[i] & q as Coord != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Packs a transposed index into a single path integer: digit `k`
/// (split level `k`) occupies bits `[(MAX_DEPTH-1-k)*D, (MAX_DEPTH-k)*D)`,
/// with `x[0]`'s bit as the most significant bit of each digit.
fn transpose_to_path<const D: usize>(x: &[Coord; D]) -> u128 {
    let mut path: u128 = 0;
    for k in 0..MAX_DEPTH {
        let bit = MAX_DEPTH - 1 - k;
        let mut digit: u128 = 0;
        for (i, &xi) in x.iter().enumerate() {
            digit |= (((xi >> bit) & 1) as u128) << (D - 1 - i);
        }
        path |= digit << ((MAX_DEPTH - 1 - k) as u32 * D as u32);
    }
    path
}

/// Inverse of [`transpose_to_path`].
fn path_to_transpose<const D: usize>(path: u128) -> [Coord; D] {
    let mut x = [0 as Coord; D];
    for k in 0..MAX_DEPTH {
        let digit = (path >> ((MAX_DEPTH - 1 - k) as u32 * D as u32)) & ((1 << D) - 1);
        let bit = MAX_DEPTH - 1 - k;
        for (i, xi) in x.iter_mut().enumerate() {
            *xi |= (((digit >> (D - 1 - i)) & 1) as Coord) << bit;
        }
    }
    x
}

/// Hilbert path of a lattice point: `axes_to_transpose` + packing.
pub fn hilbert_path<const D: usize>(coords: [Coord; D]) -> u128 {
    let mut x = coords;
    axes_to_transpose(&mut x);
    transpose_to_path(&x)
}

/// Inverse of [`hilbert_path`]: lattice point visited at the given path.
pub fn hilbert_point<const D: usize>(path: u128) -> [Coord; D] {
    let mut x = path_to_transpose::<D>(path);
    transpose_to_axes(&mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_3d() {
        for p in [
            [0u32, 0, 0],
            [123456, 654321, 42],
            [(1 << MAX_DEPTH) - 1; 3],
        ] {
            assert_eq!(hilbert_point::<3>(hilbert_path::<3>(p)), p);
        }
    }

    #[test]
    fn roundtrip_2d() {
        for p in [[0u32, 0], [99999, 1], [(1 << MAX_DEPTH) - 1, 12345]] {
            assert_eq!(hilbert_point::<2>(hilbert_path::<2>(p)), p);
        }
    }

    #[test]
    fn curve_is_bijection_on_coarse_grid_2d() {
        // Enumerate the curve over the 4x4 top-level grid (digits at levels
        // 0 and 1); every cell must be visited exactly once, consecutively
        // adjacent.
        let step = 1u128 << ((MAX_DEPTH - 2) as u32 * 2); // one level-2 cell
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<[Coord; 2]> = None;
        for i in 0..16u128 {
            let p = hilbert_point::<2>(i * step);
            let cell = [p[0] >> (MAX_DEPTH - 2), p[1] >> (MAX_DEPTH - 2)];
            assert!(seen.insert(cell), "cell {cell:?} visited twice");
            if let Some(q) = prev {
                let d = (cell[0] as i64 - q[0] as i64).abs() + (cell[1] as i64 - q[1] as i64).abs();
                assert_eq!(d, 1, "consecutive level-2 cells must be face-adjacent");
            }
            prev = Some(cell);
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn curve_is_bijection_on_coarse_grid_3d() {
        let step = 1u128 << ((MAX_DEPTH - 2) as u32 * 3);
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<[Coord; 3]> = None;
        for i in 0..64u128 {
            let p = hilbert_point::<3>(i * step);
            let cell = [
                p[0] >> (MAX_DEPTH - 2),
                p[1] >> (MAX_DEPTH - 2),
                p[2] >> (MAX_DEPTH - 2),
            ];
            assert!(seen.insert(cell), "cell {cell:?} visited twice");
            if let Some(q) = prev {
                let d: i64 = (0..3).map(|k| (cell[k] as i64 - q[k] as i64).abs()).sum();
                assert_eq!(d, 1, "consecutive level-2 octants must be face-adjacent");
            }
            prev = Some(cell);
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn origin_is_curve_start() {
        assert_eq!(hilbert_path::<3>([0, 0, 0]), 0);
        assert_eq!(hilbert_path::<2>([0, 0]), 0);
    }
}
