//! Sequential TreeSort — Algorithm 1 of the paper.
//!
//! An MSD radix sort over SFC key digits, equivalent to a top-down
//! quadtree/octree construction (Fig. 1 of the paper). Each recursion level
//! buckets the elements by `child_num` permuted into curve order — with
//! materialised keys (see `optipart-sfc`), that permuted child number *is*
//! the key digit at the level, so lines 3–4 of Algorithm 1 ("increment
//! counts[child_num(a)]; counts ← Rh(counts)") collapse into a digit
//! histogram.
//!
//! Cells whose own level equals the current split level are *parked* in a
//! leading bucket (the ancestor-first convention of linear octrees);
//! Algorithm 1's recursion then descends into each curve-ordered child
//! bucket ("TreeSort(Ai, l1 − 1, l2)").
//!
//! As in the paper, the sort is sequential: each of the `p` ranks runs one,
//! and the ranks already run in parallel through the engine's per-rank
//! compute phases.
//!
//! # Hot-path engineering
//!
//! The scatter phase ping-pongs between the input slice and a single
//! scratch buffer allocated once per top-level sort: a recursion whose data
//! lives in `a` scatters into `scratch` and recurses with the roles
//! swapped, instead of allocating a fresh `to_vec()` copy and copying back
//! at every node of the recursion tree. The pre-optimisation implementation
//! is retained as [`treesort_reference`] (under
//! `cfg(any(test, feature = "reference"))`) so differential oracles can
//! check bit-identity forever.

use optipart_sfc::{KeyedCell, MAX_DEPTH};

/// Buckets below this size switch to a comparison sort — the standard MSD
/// radix cutoff (the asymptotics of Algorithm 1 are unaffected; this is the
/// "local sort" constant-factor engineering every radix implementation does).
const SMALL_CUTOFF: usize = 48;

/// Sorts cells into SFC order (ancestor-first) with TreeSort.
///
/// Equivalent to `a.sort_unstable()` on keyed cells, but top-down by digit,
/// which is what gives the *distributed* variant its induced partitions.
/// Allocates one scratch buffer; [`treesort_scoped`] takes the caller's.
pub fn treesort<const D: usize>(a: &mut [KeyedCell<D>]) {
    treesort_scoped(a, &mut Vec::new());
}

/// [`treesort`] with a caller-owned `scratch`: grown to `a.len()` on first
/// use, never shrunk, so repeated sorts of same-or-smaller inputs allocate
/// nothing.
pub fn treesort_scoped<const D: usize>(a: &mut [KeyedCell<D>], scratch: &mut Vec<KeyedCell<D>>) {
    if a.len() <= 1 {
        return;
    }
    if a.len() <= SMALL_CUTOFF {
        a.sort_unstable();
        return;
    }
    if scratch.len() < a.len() {
        scratch.resize(a.len(), a[0]);
    }
    let n = a.len();
    sort_in_place(a, &mut scratch[..n], 0);
}

/// Level-`l` bucket index: 0 parks ancestors (cells at level ≤ `l`),
/// 1..=2^D are the curve-ordered children (Rh-permuted child numbers).
#[inline]
fn bucket_of<const D: usize>(kc: &KeyedCell<D>, l: u8) -> usize {
    if kc.key.level() <= l {
        0
    } else {
        1 + kc.key.digit::<D>(l)
    }
}

/// counts / scan / stable scatter of `src` into `dst` by level-`l` bucket —
/// lines 1–11 of Algorithm 1. Returns the bucket offsets (`nb + 1` valid
/// entries for `nb = 2^D + 1` buckets). Writes every position of `dst`.
fn scatter<const D: usize>(src: &[KeyedCell<D>], dst: &mut [KeyedCell<D>], l: u8) -> [usize; 10] {
    let nb = (1usize << D) + 1;
    let mut counts = [0usize; 9]; // nb ≤ 9 for D ≤ 3
    debug_assert!(nb <= counts.len());
    for kc in src {
        counts[bucket_of(kc, l)] += 1;
    }
    let mut offsets = [0usize; 10];
    for i in 0..nb {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    let mut cursor = offsets;
    for kc in src {
        let b = bucket_of(kc, l);
        dst[cursor[b]] = *kc;
        cursor[b] += 1;
    }
    offsets
}

/// Sorts `a` from split level `l` down, using `scratch` as the scatter
/// target: data is in `a` on entry *and* on exit. `a` and `scratch` have
/// equal length.
fn sort_in_place<const D: usize>(a: &mut [KeyedCell<D>], scratch: &mut [KeyedCell<D>], l: u8) {
    if l >= MAX_DEPTH || a.len() <= 1 {
        return;
    }
    if a.len() <= SMALL_CUTOFF {
        a.sort_unstable();
        return;
    }
    let nb = (1usize << D) + 1;
    let offsets = scatter(a, scratch, l);
    // Parked ancestors come home. No sort: a shallower cell was parked at
    // its own level, so at level `l` they are all copies of one cell.
    a[offsets[0]..offsets[1]].copy_from_slice(&scratch[offsets[0]..offsets[1]]);
    debug_assert!(a[offsets[0]..offsets[1]]
        .windows(2)
        .all(|w| w[0].key == w[1].key));
    // Child buckets now live in `scratch`; each recursion sorts one back
    // into its `a` slice (line 14 of Algorithm 1, roles swapped per level).
    for i in 1..nb {
        let (s, e) = (offsets[i], offsets[i + 1]);
        if e > s {
            sort_out_of_place(&mut scratch[s..e], &mut a[s..e], l + 1);
        }
    }
}

/// Sorts `src` into `dst` (equal lengths) from split level `l` down: data
/// is in `src` on entry and in `dst` — fully written — on exit. `src` is
/// clobbered (it becomes the deeper levels' scratch).
fn sort_out_of_place<const D: usize>(src: &mut [KeyedCell<D>], dst: &mut [KeyedCell<D>], l: u8) {
    if l >= MAX_DEPTH || src.len() <= SMALL_CUTOFF {
        dst.copy_from_slice(src);
        if l < MAX_DEPTH && dst.len() > 1 {
            dst.sort_unstable();
        }
        return;
    }
    let nb = (1usize << D) + 1;
    let offsets = scatter(src, dst, l);
    // Parked cells are copies of one cell (see `sort_in_place`): no sort.
    debug_assert!(dst[offsets[0]..offsets[1]]
        .windows(2)
        .all(|w| w[0].key == w[1].key));
    for i in 1..nb {
        let (s, e) = (offsets[i], offsets[i + 1]);
        if e > s {
            sort_in_place(&mut dst[s..e], &mut src[s..e], l + 1);
        }
    }
}

/// The pre-optimisation TreeSort, retained as the differential oracle's
/// ground truth: per-recursion `to_vec()` scratch, sequential child
/// recursion. The optimised sort must stay bit-identical to this.
#[cfg(any(test, feature = "reference"))]
pub fn treesort_reference<const D: usize>(a: &mut [KeyedCell<D>]) {
    fn from_level<const D: usize>(a: &mut [KeyedCell<D>], l: u8) {
        if l >= MAX_DEPTH || a.len() <= 1 {
            return;
        }
        if a.len() <= SMALL_CUTOFF {
            a.sort_unstable();
            return;
        }
        let nb = (1usize << D) + 1;
        let mut counts = [0usize; 9];
        debug_assert!(nb <= counts.len());
        for kc in a.iter() {
            counts[bucket_of(kc, l)] += 1;
        }
        let mut offsets = [0usize; 10];
        for i in 0..nb {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut scratch = a.to_vec();
        let mut cursor = offsets;
        for kc in a.iter() {
            let b = bucket_of(kc, l);
            scratch[cursor[b]] = *kc;
            cursor[b] += 1;
        }
        a.copy_from_slice(&scratch);
        a[offsets[0]..offsets[1]].sort_unstable();
        for i in 1..nb {
            from_level(&mut a[offsets[i]..offsets[i + 1]], l + 1);
        }
    }
    from_level(a, 0);
}

/// Per-leaf element populations of `buf` over an octree-aligned leaf
/// tiling — leaf start paths sorted ascending, spanning the whole key
/// domain from path 0 (the final bucket tiling a splitter search leaves
/// behind). Each element is placed by one binary search over the leaf
/// starts, sorted input or not. This is the population diff OptiPart's
/// warm-start replay uses to find the buckets the refinement front
/// actually moved.
pub fn bucket_populations<const D: usize>(buf: &[KeyedCell<D>], leaf_starts: &[u128]) -> Vec<u64> {
    let mut counts = vec![0u64; leaf_starts.len()];
    if leaf_starts.is_empty() {
        return counts;
    }
    debug_assert_eq!(leaf_starts[0], 0, "leaf tiling must start at path 0");
    for kc in buf {
        let i = leaf_starts.partition_point(|&p| p <= kc.key.path());
        counts[i - 1] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_mpisim::rng::SplitMix64;
    use optipart_octree::generate::Distribution;
    use optipart_octree::{sample_points, tree_from_points};
    use optipart_sfc::{Cell3, Curve, KeyedCell};

    fn shuffled_mesh(n: usize, seed: u64, curve: Curve) -> Vec<KeyedCell<3>> {
        let pts = sample_points::<3>(Distribution::Normal, n, seed);
        let tree = tree_from_points(&pts, 1, 12, curve);
        let mut cells: Vec<KeyedCell<3>> = tree.leaves().to_vec();
        SplitMix64::new(seed ^ 0xDEAD).shuffle(&mut cells);
        cells
    }

    #[test]
    fn treesort_matches_comparison_sort() {
        for curve in Curve::ALL {
            for seed in [1u64, 2, 3] {
                let mut a = shuffled_mesh(700, seed, curve);
                let mut expected = a.clone();
                expected.sort_unstable();
                treesort(&mut a);
                assert_eq!(a, expected, "{curve} seed {seed}");
            }
        }
    }

    #[test]
    fn treesort_is_bit_identical_to_reference() {
        for curve in Curve::ALL {
            for seed in [1u64, 7, 42] {
                let base = shuffled_mesh(4000, seed, curve);
                let mut expected = base.clone();
                treesort_reference(&mut expected);
                let mut a = base.clone();
                treesort(&mut a);
                assert_eq!(a, expected, "{curve} seed {seed}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_allocation_free_shape() {
        // Behavioural proxy for allocation-freedom (the counting allocator
        // lives in the bench binary): the scratch vec keeps its capacity
        // and the sort result is unchanged across reuses.
        let mut scratch = Vec::new();
        for seed in [3u64, 4, 5] {
            let mut a = shuffled_mesh(1200, seed, Curve::Morton);
            let mut expected = a.clone();
            expected.sort_unstable();
            treesort_scoped(&mut a, &mut scratch);
            assert_eq!(a, expected, "seed {seed}");
        }
        assert!(scratch.capacity() >= 1);
    }

    #[test]
    fn treesort_handles_mixed_levels_with_ancestors() {
        // Non-linear input containing ancestors and descendants together.
        let parent = Cell3::new([1 << 29, 0, 0], 3);
        let mut cells = vec![parent];
        for c in parent.children() {
            cells.push(c);
            for g in c.children() {
                cells.push(g);
            }
        }
        for curve in Curve::ALL {
            let mut keyed = KeyedCell::key_all(&cells, curve);
            let mut expected = keyed.clone();
            expected.sort_unstable();
            treesort(&mut keyed);
            assert_eq!(keyed, expected, "{curve}");
            // Ancestor-first: parent precedes every child.
            let pi = keyed.iter().position(|kc| kc.cell == parent).unwrap();
            assert_eq!(pi, 0);
        }
    }

    #[test]
    fn treesort_small_and_empty_inputs() {
        let mut empty: Vec<KeyedCell<3>> = vec![];
        treesort(&mut empty);
        let mut one = KeyedCell::key_all(&[Cell3::root()], Curve::Morton);
        treesort(&mut one);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn treesort_is_idempotent() {
        let mut a = shuffled_mesh(300, 5, Curve::Morton);
        treesort(&mut a);
        let once = a.clone();
        treesort(&mut a);
        assert_eq!(a, once);
    }
}
