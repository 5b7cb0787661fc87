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
//! # Hot-path engineering
//!
//! The scatter phase ping-pongs between the input slice and a single
//! scratch buffer allocated once per top-level sort: a recursion whose data
//! lives in `a` scatters into `scratch` and recurses with the roles
//! swapped, instead of allocating a fresh `to_vec()` copy and copying back
//! at every node of the recursion tree. Buckets at or above [`PAR_CUTOFF`]
//! recurse in parallel over disjoint child slices via
//! [`optipart_mpisim::par::par_map_mut_n`]; because the child slices are
//! disjoint and each is sorted independently, the output is bit-identical
//! for every thread count. The pre-optimisation implementation is retained
//! as [`treesort_reference`] (under `cfg(any(test, feature = "reference"))`)
//! so differential oracles can check bit-identity forever.

use optipart_mpisim::par;
use optipart_sfc::{KeyedCell, MAX_DEPTH};

/// Buckets below this size switch to a comparison sort — the standard MSD
/// radix cutoff (the asymptotics of Algorithm 1 are unaffected; this is the
/// "local sort" constant-factor engineering every radix implementation does).
const SMALL_CUTOFF: usize = 48;

/// Buckets at or above this size fan their child-bucket recursions out over
/// worker threads; smaller buckets recurse sequentially (thread spawn costs
/// more than the sort). Exposed so boundary tests and corpus seeds can pin
/// workloads just above/below the threshold.
pub const PAR_CUTOFF: usize = 2048;

/// Sorts cells into SFC order (ancestor-first) with TreeSort.
///
/// Equivalent to `a.sort_unstable()` on keyed cells, but top-down by digit,
/// which is what gives the *distributed* variant its induced partitions.
/// Allocates one scratch buffer and uses the host's thread budget; every
/// other configuration is [`treesort_scoped`].
pub fn treesort<const D: usize>(a: &mut [KeyedCell<D>]) {
    let mut scratch = Vec::new();
    treesort_scoped(a, &mut scratch, 0, MAX_DEPTH, par::num_threads());
}

/// The `TreeSort(A, l1, l2)` of Algorithm 1 with every argument explicit:
/// sorts by digits in split levels `[l1, l2)` only (levels here count
/// downward from the root; the paper counts upward from the leaves), so
/// elements must already agree on digits above `l1` (they share a bucket).
///
/// `scratch` is caller-owned: grown to `a.len()` on first use, never
/// shrunk, so repeated sorts of same-or-smaller inputs allocate nothing.
/// `threads` is the worker budget (1 = fully sequential); the output is
/// bit-identical for every budget.
pub fn treesort_scoped<const D: usize>(
    a: &mut [KeyedCell<D>],
    scratch: &mut Vec<KeyedCell<D>>,
    l1: u8,
    l2: u8,
    threads: usize,
) {
    let l2 = l2.min(MAX_DEPTH);
    if l1 >= l2 || a.len() <= 1 {
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
    sort_in_place(a, &mut scratch[..n], l1, l2, threads);
}

/// Level-`l1` bucket index: 0 parks ancestors (cells at level ≤ `l1`),
/// 1..=2^D are the curve-ordered children (Rh-permuted child numbers).
#[inline]
fn bucket_of<const D: usize>(kc: &KeyedCell<D>, l1: u8) -> usize {
    if kc.key.level() <= l1 {
        0
    } else {
        1 + kc.key.digit::<D>(l1)
    }
}

/// counts / scan / stable scatter of `src` into `dst` by level-`l1` bucket —
/// lines 1–11 of Algorithm 1. Returns the bucket offsets (`nb + 1` valid
/// entries for `nb = 2^D + 1` buckets). Writes every position of `dst`.
fn scatter<const D: usize>(src: &[KeyedCell<D>], dst: &mut [KeyedCell<D>], l1: u8) -> [usize; 10] {
    let nb = (1usize << D) + 1;
    let mut counts = [0usize; 9]; // nb ≤ 9 for D ≤ 3
    debug_assert!(nb <= counts.len());
    for kc in src {
        counts[bucket_of(kc, l1)] += 1;
    }
    let mut offsets = [0usize; 10];
    for i in 0..nb {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    let mut cursor = offsets;
    for kc in src {
        let b = bucket_of(kc, l1);
        dst[cursor[b]] = *kc;
        cursor[b] += 1;
    }
    offsets
}

/// Carves matching child-bucket sub-slice pairs out of `x` and `y` (both
/// bucketed by the same `offsets`) into a caller-provided stack array —
/// no heap allocation on the parallel fan-out path. Skips the
/// parked-ancestor bucket 0 and empty buckets; returns the pair count
/// (≤ 2^D ≤ 8).
#[allow(clippy::type_complexity)]
fn child_pairs_into<'s, K>(
    x: &'s mut [K],
    y: &'s mut [K],
    offsets: &[usize; 10],
    nb: usize,
    out: &mut [Option<(&'s mut [K], &'s mut [K])>; 8],
) -> usize {
    let (_, mut rest_x) = x.split_at_mut(offsets[1]);
    let (_, mut rest_y) = y.split_at_mut(offsets[1]);
    let mut base = offsets[1];
    let mut n = 0usize;
    for i in 1..nb {
        let w = offsets[i + 1] - base;
        let (hx, tx) = rest_x.split_at_mut(w);
        let (hy, ty) = rest_y.split_at_mut(w);
        if w > 0 {
            out[n] = Some((hx, hy));
            n += 1;
        }
        rest_x = tx;
        rest_y = ty;
        base = offsets[i + 1];
    }
    n
}

/// Sorts `a` using `scratch` as the scatter target: data is in `a` on entry
/// *and* on exit. `a` and `scratch` have equal length.
fn sort_in_place<const D: usize>(
    a: &mut [KeyedCell<D>],
    scratch: &mut [KeyedCell<D>],
    l1: u8,
    l2: u8,
    threads: usize,
) {
    if l1 >= l2 || a.len() <= 1 {
        return;
    }
    if a.len() <= SMALL_CUTOFF {
        a.sort_unstable();
        return;
    }
    let nb = (1usize << D) + 1;
    let offsets = scatter(a, scratch, l1);
    // Parked ancestors come home and order among themselves by (path, level).
    a[offsets[0]..offsets[1]].copy_from_slice(&scratch[offsets[0]..offsets[1]]);
    a[offsets[0]..offsets[1]].sort_unstable();
    // Child buckets now live in `scratch`; each recursion sorts one back
    // into its `a` slice (line 14 of Algorithm 1, roles swapped per level).
    if threads > 1 && a.len() >= PAR_CUTOFF {
        let mut pairs: [Option<(&mut [KeyedCell<D>], &mut [KeyedCell<D>])>; 8] =
            [const { None }; 8];
        let np = child_pairs_into(scratch, a, &offsets, nb, &mut pairs);
        par::par_map_mut_n(threads, &mut pairs[..np], |_, p| {
            let (src, dst) = p.as_mut().expect("non-empty pair");
            sort_out_of_place(src, dst, l1 + 1, l2, 1);
        });
    } else {
        // `a` and `scratch` are disjoint slices, so the child ranges can be
        // indexed directly — the sequential path allocates nothing.
        for i in 1..nb {
            let (s, e) = (offsets[i], offsets[i + 1]);
            if e > s {
                sort_out_of_place(&mut scratch[s..e], &mut a[s..e], l1 + 1, l2, 1);
            }
        }
    }
}

/// Sorts `src` into `dst` (equal lengths): data is in `src` on entry and in
/// `dst` — fully written — on exit. `src` is clobbered (it becomes the
/// deeper levels' scratch).
fn sort_out_of_place<const D: usize>(
    src: &mut [KeyedCell<D>],
    dst: &mut [KeyedCell<D>],
    l1: u8,
    l2: u8,
    threads: usize,
) {
    if l1 >= l2 || src.len() <= SMALL_CUTOFF {
        dst.copy_from_slice(src);
        if l1 < l2 && dst.len() > 1 {
            dst.sort_unstable();
        }
        return;
    }
    let nb = (1usize << D) + 1;
    let offsets = scatter(src, dst, l1);
    dst[offsets[0]..offsets[1]].sort_unstable();
    if threads > 1 && dst.len() >= PAR_CUTOFF {
        let mut pairs: [Option<(&mut [KeyedCell<D>], &mut [KeyedCell<D>])>; 8] =
            [const { None }; 8];
        let np = child_pairs_into(dst, src, &offsets, nb, &mut pairs);
        par::par_map_mut_n(threads, &mut pairs[..np], |_, p| {
            let (a, scratch) = p.as_mut().expect("non-empty pair");
            sort_in_place(a, scratch, l1 + 1, l2, 1);
        });
    } else {
        for i in 1..nb {
            let (s, e) = (offsets[i], offsets[i + 1]);
            if e > s {
                sort_in_place(&mut dst[s..e], &mut src[s..e], l1 + 1, l2, 1);
            }
        }
    }
}

/// The pre-optimisation TreeSort, retained verbatim as the differential
/// oracle's ground truth: per-recursion `to_vec()` scratch, sequential
/// child recursion. The optimised sort must stay bit-identical to this.
#[cfg(any(test, feature = "reference"))]
pub fn treesort_reference<const D: usize>(a: &mut [KeyedCell<D>]) {
    treesort_levels_reference(a, 0, MAX_DEPTH);
}

/// Level-windowed form of [`treesort_reference`].
#[cfg(any(test, feature = "reference"))]
pub fn treesort_levels_reference<const D: usize>(a: &mut [KeyedCell<D>], l1: u8, l2: u8) {
    let l2 = l2.min(MAX_DEPTH);
    if l1 >= l2 || a.len() <= 1 {
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
        counts[bucket_of(kc, l1)] += 1;
    }
    let mut offsets = [0usize; 10];
    for i in 0..nb {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    let mut scratch = a.to_vec();
    let mut cursor = offsets;
    for kc in a.iter() {
        let b = bucket_of(kc, l1);
        scratch[cursor[b]] = *kc;
        cursor[b] += 1;
    }
    a.copy_from_slice(&scratch);
    a[offsets[0]..offsets[1]].sort_unstable();
    for i in 1..nb {
        treesort_levels_reference(&mut a[offsets[i]..offsets[i + 1]], l1 + 1, l2);
    }
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

    /// The level-windowed sort at the host's thread budget.
    fn levels(a: &mut [KeyedCell<3>], l1: u8, l2: u8) {
        treesort_scoped(a, &mut Vec::new(), l1, l2, par::num_threads());
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
                // Above PAR_CUTOFF so the parallel fan-out actually runs.
                let base = shuffled_mesh(4000, seed, curve);
                let mut expected = base.clone();
                treesort_levels_reference(&mut expected, 0, MAX_DEPTH);
                for threads in [1usize, 2, 4] {
                    let mut a = base.clone();
                    treesort_scoped(&mut a, &mut Vec::new(), 0, MAX_DEPTH, threads);
                    assert_eq!(a, expected, "{curve} seed {seed} threads {threads}");
                }
                let mut a = base.clone();
                let mut scratch = Vec::new();
                treesort_scoped(&mut a, &mut scratch, 0, MAX_DEPTH, par::num_threads());
                assert_eq!(a, expected, "{curve} seed {seed} with_scratch");
            }
        }
    }

    #[test]
    fn partial_levels_match_reference() {
        // Sort each level-l1 prefix group with both implementations; the
        // windowed sorts must stay bit-identical too.
        for (l1, l2) in [(0u8, 2u8), (0, 5), (1, 3), (2, MAX_DEPTH)] {
            let mut a = shuffled_mesh(900, 17, Curve::Hilbert);
            levels(&mut a, 0, l1); // establish the l1-prefix grouping
            let mut expected = a.clone();
            let groups = level_groups(&a, l1);
            for w in &groups {
                treesort_levels_reference(&mut expected[w.clone()], l1, l2);
            }
            for w in &groups {
                levels(&mut a[w.clone()], l1, l2);
            }
            assert_eq!(a, expected, "levels [{l1}, {l2})");
        }
    }

    /// Index ranges of the runs of `a` sharing a level-`l1` prefix.
    fn level_groups<const D: usize>(a: &[KeyedCell<D>], l1: u8) -> Vec<std::ops::Range<usize>> {
        let mut start = 0;
        a.chunk_by(|x, y| x.key.prefix::<D>(l1).path() == y.key.prefix::<D>(l1).path())
            .map(|run| {
                start += run.len();
                start - run.len()..start
            })
            .collect()
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
            treesort_scoped(&mut a, &mut scratch, 0, MAX_DEPTH, par::num_threads());
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
    fn partial_levels_only_group_prefixes() {
        // Sorting only levels [0, 2) groups elements by their level-2
        // ancestor without ordering inside groups.
        let mut a = shuffled_mesh(500, 9, Curve::Hilbert);
        levels(&mut a, 0, 2);
        let prefixes: Vec<u128> = a.iter().map(|kc| kc.key.prefix::<3>(2).path()).collect();
        // Prefixes must be non-decreasing (grouped in curve order).
        assert!(prefixes.windows(2).all(|w| w[0] <= w[1]));
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
