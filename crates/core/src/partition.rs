//! Distributed TreeSort partitioning with flexible tolerance (§3.1–3.2).
//!
//! The distributed algorithm refines *splitter buckets* breadth-first: each
//! round, every bucket still containing an unsatisfied partition target is
//! split into its `2^D` curve-ordered children, local child counts are
//! summed with one vector all-reduce (no comparisons — the ranks of the
//! buckets follow from the counts alone), and refinement stops as soon as
//! every target `r·N/p` is within `tolerance · N/p` of a bucket boundary.
//! The selected boundaries become the splitters; one staged `Alltoallv`
//! moves the data; a local TreeSort finishes the ordering. This is
//! Algorithm 3 minus the performance-model stopping rule (recovered by
//! "iterating till the work is equally divided", as the paper notes).

use crate::metrics::load_imbalance;
use crate::treesort::treesort;
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::{AllToAllAlgo, DistVec, Engine, ReduceOp, Tally, Wire};
use optipart_octree::LinearTree;
use optipart_sfc::{KeyedCell, SfcKey, MAX_DEPTH};

/// Phase labels used for the Figs. 5–6 breakdowns.
pub const PHASE_SPLITTER: &str = "splitter";
/// All-to-all data exchange phase label.
pub const PHASE_ALL2ALL: &str = "all2all";
/// Local sort phase label.
pub const PHASE_LOCAL_SORT: &str = "local_sort";
/// One splitter-refinement round (nested inside [`PHASE_SPLITTER`]): the
/// per-round spans the trace timeline shows for the tolerance search.
pub const PHASE_REFINE: &str = "refine";

/// Options for the flexible distributed TreeSort. Splitter refinement may
/// reach [`MAX_DEPTH`].
#[derive(Clone, Copy, Debug)]
pub struct PartitionOptions {
    /// Load-balance tolerance as a fraction of the ideal grain `N/p`
    /// (the x-axis of Figs. 7–12). `0.0` refines until targets are met
    /// exactly (up to key resolution).
    pub tolerance: f64,
    /// Staged splitter selection: at most this many buckets are refined per
    /// reduction round (the `k ≤ p` of Eq. 2). `None` = unlimited.
    pub max_split_per_round: Option<usize>,
    /// All-to-all schedule for the data exchange (§3.1 uses staged).
    pub alltoall: AllToAllAlgo,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            tolerance: 0.0,
            max_split_per_round: None,
            alltoall: AllToAllAlgo::Hypercube,
        }
    }
}

impl PartitionOptions {
    /// Equal-work partitioning (tolerance 0) — the conventional SFC scheme.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Flexible partitioning with the given tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        PartitionOptions {
            tolerance,
            ..Self::default()
        }
    }
}

/// Report of one partitioning run.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Reduction rounds performed during splitter selection.
    pub rounds: usize,
    /// Deepest bucket level refined to.
    pub splitter_level: u8,
    /// Worst relative deviation of a realised boundary from its target,
    /// in units of `N/p` — the *achieved* tolerance.
    pub achieved_tolerance: f64,
    /// Per-rank element counts after the exchange.
    pub counts: Vec<u64>,
    /// Load imbalance `λ = max/min` of `counts`.
    pub lambda: f64,
    /// Maximum per-rank work `Wmax` (elements).
    pub wmax: u64,
    /// Estimated `Cmax` (boundary octants) if a quality pass ran, else 0.
    pub cmax: u64,
    /// Predicted application runtime via Eq. (3) if a quality pass ran.
    pub predicted_tp: f64,
}

/// What a splitter search contributes to a [`PartitionReport`]: everything
/// that is not read off the delivered data. Cached by the warm-start state,
/// so an exact hit reports exactly what the cold run did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SearchSummary {
    pub rounds: usize,
    pub splitter_level: u8,
    pub achieved_tolerance: f64,
    pub cmax: u64,
    pub predicted_tp: f64,
}

impl PartitionReport {
    /// The report of a delivered partition: counts, λ and `Wmax` come from
    /// `out` itself, the rest from the search that chose the splitters.
    pub(crate) fn new<const D: usize>(out: &DistVec<KeyedCell<D>>, search: SearchSummary) -> Self {
        let counts: Vec<u64> = out.counts().iter().map(|&c| c as u64).collect();
        PartitionReport {
            rounds: search.rounds,
            splitter_level: search.splitter_level,
            achieved_tolerance: search.achieved_tolerance,
            lambda: load_imbalance(&counts),
            counts,
            wmax: out.wmax() as u64,
            cmax: search.cmax,
            predicted_tp: search.predicted_tp,
        }
    }
}

/// Outcome of a partitioning run: the redistributed, locally sorted data,
/// the splitters that define ownership, and the report.
#[derive(Clone, Debug)]
pub struct PartitionOutcome<const D: usize> {
    /// The partitioned, SFC-sorted elements.
    pub dist: DistVec<KeyedCell<D>>,
    /// `p - 1` splitter keys: rank `r` owns keys in
    /// `[splitters[r-1], splitters[r])` (with MIN/MAX sentinels implied).
    pub splitters: Vec<SfcKey>,
    /// Run report.
    pub report: PartitionReport,
}

impl<const D: usize> PartitionOutcome<D> {
    /// Owner rank of a key under these splitters.
    #[inline]
    pub fn owner_of(&self, key: &SfcKey) -> usize {
        owner_of(&self.splitters, key)
    }
}

/// Owner rank of `key` under `splitters` (partition r ⇔ `[s_{r-1}, s_r)`).
#[inline]
pub fn owner_of(splitters: &[SfcKey], key: &SfcKey) -> usize {
    splitters.partition_point(|s| s <= key)
}

/// Audits a splitter vector before it is used to move data: exactly `p − 1`
/// splitters, sorted, and strictly increasing whenever the input is large
/// enough that no partition has to be empty (`n ≥ p`; with fewer elements
/// — or fewer *distinct keys* — than ranks, the tail splitters legitimately
/// collapse to `SfcKey::MAX`).
/// Panics with the offending positions — a wrong splitter vector here would
/// silently mis-route elements in the exchange.
pub fn audit_splitters(splitters: &[SfcKey], n: usize, p: usize) {
    assert!(
        splitters.len() == p - 1,
        "audit: {} splitters for p = {p} (need {})",
        splitters.len(),
        p - 1
    );
    for (i, w) in splitters.windows(2).enumerate() {
        assert!(
            w[0] <= w[1],
            "audit: splitters out of order at {i}: {:?} > {:?}",
            w[0],
            w[1]
        );
        // `SfcKey::MAX` is the deliberate give-up sentinel: it is emitted
        // only when the key space cannot supply p − 1 distinct boundaries
        // (duplicate-key inputs with fewer distinct keys than ranks), where
        // empty tail ranks are unavoidable even with n ≥ p elements.
        assert!(
            n < p || w[0] < w[1] || w[0] == SfcKey::MAX,
            "audit: duplicate splitter at {i} ({:?}) with n = {n} ≥ p = {p}: \
             a partition would be empty",
            w[0]
        );
    }
}

/// Block-distributes a tree's leaves over `p` ranks — the arbitrary initial
/// `N/p ± 1` placement the partitioners start from.
///
/// Note the leaves arrive *sorted*, so the subsequent exchange moves little
/// data; use [`distribute_shuffled`] to model the paper's workload of
/// randomly generated, unsorted octants.
pub fn distribute_tree<const D: usize>(tree: &LinearTree<D>, p: usize) -> DistVec<KeyedCell<D>> {
    DistVec::from_global(tree.leaves(), p)
}

/// Block-distributes a random permutation of the tree's leaves — the
/// paper's §4.2 input class ("randomly generated octrees"), where the
/// all-to-all exchange moves essentially all data.
///
/// Deterministic Fisher–Yates driven by a [`SplitMix64`] stream, so runs
/// are reproducible (the permutation per seed is pinned in
/// `tests/determinism.rs`).
pub fn distribute_shuffled<const D: usize>(
    tree: &LinearTree<D>,
    p: usize,
    seed: u64,
) -> DistVec<KeyedCell<D>> {
    let mut leaves = tree.leaves().to_vec();
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in (1..leaves.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        leaves.swap(i, j);
    }
    DistVec::from_global(&leaves, p)
}

/// Places a new mesh's leaves where their region lived under the previous
/// step's splitters — the start of an AMR redistribution, so migration
/// volume is what a real AMR code would pay. With no previous step, the
/// block distribution of [`distribute_tree`].
pub fn distribute_by_splitters<const D: usize>(
    tree: &LinearTree<D>,
    p: usize,
    prev: Option<&[SfcKey]>,
) -> DistVec<KeyedCell<D>> {
    let Some(splitters) = prev else {
        return distribute_tree(tree, p);
    };
    let mut parts: Vec<Vec<KeyedCell<D>>> = (0..p).map(|_| Vec::new()).collect();
    for kc in tree.leaves() {
        parts[owner_of(splitters, &kc.key)].push(*kc);
    }
    DistVec::from_parts(parts)
}

/// One splitter-candidate bucket: the half-open key range of a subtree.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bucket {
    /// Curve path of the bucket's prefix (digits above `level`, zero-padded).
    pub path: u128,
    /// Bucket depth.
    pub level: u8,
    /// Global element count inside.
    pub count: u64,
}

impl Bucket {
    /// Lower boundary key: the smallest key of any cell in this subtree.
    #[inline]
    pub fn lo_key(&self) -> SfcKey {
        SfcKey::from_parts(self.path, 0)
    }

    /// Path span of the subtree (number of finest-level slots).
    #[inline]
    fn span<const D: usize>(&self) -> u128 {
        1u128 << ((MAX_DEPTH - self.level) as u32 * D as u32)
    }

    /// Key-path boundaries `(lo, hi, level)` of the subtree.
    #[inline]
    fn key_range<const D: usize>(&self) -> (u128, u128, u8) {
        (self.path, self.path + self.span::<D>(), self.level)
    }

    /// The `2^D` children, in curve order.
    fn children<const D: usize>(&self) -> Vec<Bucket> {
        let child_span = self.span::<D>() >> D;
        (0..(1usize << D))
            .map(|i| Bucket {
                path: self.path + child_span * i as u128,
                level: self.level + 1,
                count: 0,
            })
            .collect()
    }
}

/// Global counts of a previous splitter search's final bucket tiling,
/// recounted on the **current** mesh — the accelerator behind OptiPart's
/// warm-start replay ([`crate::optipart::optipart_with_state`]). Every
/// finished search leaves a full tiling of the key domain (buckets sorted
/// by path, spans contiguous), so the table can answer most child-count
/// queries of a re-run ladder without touching the element data.
///
/// Serving a split from the table costs nothing on the engine's virtual
/// clocks; only buckets that descend *below* the table's resolution into a
/// populated region — the moving refinement front — fall back to a live
/// count pass.
#[derive(Clone, Debug)]
pub(crate) struct CountTable {
    /// `(path, level, count)` per leaf, sorted by path, tiling the domain.
    pub leaves: Vec<(u128, u8, u64)>,
}

impl CountTable {
    /// Child counts of `b`, when derivable from the table: either every
    /// leaf overlapping `b` is strictly deeper (octree alignment then puts
    /// each leaf inside exactly one child — sum them), or `b` sits inside a
    /// single coarser-or-equal leaf holding zero elements (all children
    /// trivially empty). Returns `None` when `b` reaches below the table's
    /// resolution into a populated region and a real recount is needed.
    pub(crate) fn child_counts<const D: usize>(&self, b: &Bucket) -> Option<Vec<u64>> {
        let nc = 1usize << D;
        let span = b.span::<D>();
        let child_span = span >> D;
        let j = self.leaves.partition_point(|&(path, _, _)| path <= b.path);
        debug_assert!(j > 0, "leaves must tile the domain from path 0");
        let (leaf_path, leaf_level, leaf_count) = self.leaves[j - 1];
        if leaf_level <= b.level {
            // Octree alignment: a coarser-or-equal leaf whose range holds
            // `b.path` covers all of `b`.
            debug_assert!(leaf_path <= b.path);
            return if leaf_count == 0 {
                Some(vec![0; nc])
            } else {
                None
            };
        }
        // Every leaf overlapping `b` is strictly deeper than `b`: a deeper
        // aligned leaf starting before `b.path` ends at or before it, and
        // no coarser leaf can start strictly inside `b`'s span. The leaves
        // therefore tile `b`'s children exactly.
        let hi = b.path + span;
        let j0 = self.leaves.partition_point(|&(path, _, _)| path < b.path);
        let mut counts = vec![0u64; nc];
        for &(path, _, count) in &self.leaves[j0..] {
            if path >= hi {
                break;
            }
            counts[((path - b.path) / child_span) as usize] += count;
        }
        Some(counts)
    }
}

/// Mutable splitter-search state shared by distributed TreeSort and
/// OptiPart (which differ only in their stopping rule).
pub(crate) struct SplitterSearch {
    /// Active buckets, sorted by path; their counts always sum to `N`.
    pub buckets: Vec<Bucket>,
    /// Global element count.
    pub n: u64,
    /// Rounds executed.
    pub rounds: usize,
}

impl SplitterSearch {
    /// Initial state: the root bucket holding everything.
    pub fn new<const D: usize>(engine: &mut Engine, dist: &DistVec<KeyedCell<D>>) -> Self {
        let local: Vec<u64> = dist.counts().iter().map(|&c| c as u64).collect();
        let n = engine.allreduce_sum_u64(&local);
        SplitterSearch {
            buckets: vec![Bucket {
                path: 0,
                level: 0,
                count: n,
            }],
            n,
            rounds: 0,
        }
    }

    /// Target global ranks `r·N/p` for `r = 1..p`.
    fn targets(&self, p: usize) -> Vec<u64> {
        (1..p).map(|r| (r as u64 * self.n) / p as u64).collect()
    }

    /// Cumulative counts before each bucket.
    fn cumulative(&self) -> Vec<u64> {
        let mut cum = Vec::with_capacity(self.buckets.len());
        let mut acc = 0u64;
        for b in &self.buckets {
            cum.push(acc);
            acc += b.count;
        }
        cum
    }

    /// Indices of buckets whose interior still contains a target farther
    /// than `tol_units` from both edges (and which can still refine).
    pub fn violating_buckets(&self, p: usize, tol_units: f64) -> Vec<usize> {
        let cum = self.cumulative();
        let targets = self.targets(p);
        let mut out = Vec::new();
        let mut ti = 0usize;
        for (bi, b) in self.buckets.iter().enumerate() {
            if b.level >= MAX_DEPTH {
                continue;
            }
            let lo = cum[bi];
            let hi = lo + b.count;
            while ti < targets.len() && targets[ti] < lo {
                ti += 1;
            }
            let mut tj = ti;
            while tj < targets.len() && targets[tj] <= hi {
                let t = targets[tj];
                let err = (t - lo).min(hi - t) as f64;
                if err > tol_units {
                    out.push(bi);
                    break;
                }
                tj += 1;
            }
        }
        out
    }

    /// Indices of refinable buckets whose interior contains **two or more**
    /// targets. Such a bucket forces two splitters onto the same boundary —
    /// an empty partition — so OptiPart must refine it regardless of the
    /// performance model (its `Wmax` is at least two grains anyway).
    pub fn multi_target_buckets(&self, p: usize) -> Vec<usize> {
        self.buckets_with_targets(p, 2)
    }

    /// Indices of refinable non-empty buckets whose interior holds at
    /// least `min` targets (strictly inside — a target on a bucket edge
    /// already has its boundary).
    fn buckets_with_targets(&self, p: usize, min: usize) -> Vec<usize> {
        let cum = self.cumulative();
        let targets = self.targets(p);
        let mut out = Vec::new();
        for (bi, b) in self.buckets.iter().enumerate() {
            if b.level >= MAX_DEPTH || b.count == 0 {
                continue;
            }
            let lo = cum[bi];
            let hi = lo + b.count;
            let first = targets.partition_point(|&t| t <= lo);
            let last = targets.partition_point(|&t| t < hi);
            if last - first >= min {
                out.push(bi);
            }
        }
        out
    }

    /// Distinct interior boundary candidates `(cum, key)`: one per
    /// cumulative count strictly between 0 and `N` (the first bucket
    /// boundary at each count — later duplicates follow empty buckets and
    /// bound the same element split). Boundaries at 0 or `N` are excluded
    /// because choosing one would leave rank 0 or rank `p−1` empty.
    fn interior_bounds(&self) -> Vec<(u64, SfcKey)> {
        let cum = self.cumulative();
        let mut bounds: Vec<(u64, SfcKey)> = Vec::new();
        for (b, &c) in self.buckets.iter().zip(&cum) {
            if c == 0 || c >= self.n {
                continue;
            }
            if bounds.last().is_none_or(|&(pc, _)| pc != c) {
                bounds.push((c, b.lo_key()));
            }
        }
        bounds
    }

    /// True when the bucket structure offers enough distinct interior
    /// boundaries for [`Self::choose_splitters`] to leave every rank
    /// non-empty. Always reachable by refinement when `N ≥ p` and keys
    /// are distinct; never reachable when `N < p`.
    pub(crate) fn feasible(&self, p: usize) -> bool {
        self.interior_bounds().len() + 1 >= p
    }

    /// Buckets the flexible-tolerance splitter loop must still refine:
    /// tolerance violations first; once those are clear, buckets whose
    /// refinement the *chooser* forces — a bucket trapping two or more
    /// targets, or (fewer distinct interior boundaries than targets) any
    /// bucket holding a target. The per-target check of
    /// [`Self::violating_buckets`] looks at bucket edges in isolation, so
    /// at tolerances ≥ 0.5 two targets can contend for one shared edge —
    /// satisfying the tolerance test while leaving the strictly-increasing
    /// chooser short of boundaries (the audit's empty-partition class).
    fn pending_splits(&self, p: usize, tol_units: f64) -> Vec<usize> {
        let violating = self.violating_buckets(p, tol_units);
        if !violating.is_empty() {
            return violating;
        }
        let multi = self.multi_target_buckets(p);
        if !multi.is_empty() {
            return multi;
        }
        if self.feasible(p) {
            return Vec::new();
        }
        // Feasibility forcing: not enough distinct interior boundaries for
        // p−1 splitters. Split only as many target-bearing buckets as the
        // deficit requires — splitting them all would over-refine far past
        // the requested tolerance (each split can add up to 2^D − 1
        // boundaries). A split can also add none (all elements in one
        // child), so the loop may come back for more; levels grow each
        // time, which bounds termination at `MAX_DEPTH`.
        let deficit = (p - 1).saturating_sub(self.interior_bounds().len());
        let mut force = self.buckets_with_targets(p, 1);
        force.truncate(deficit.max(1));
        force
    }

    /// Refines until every target is within `opts.tolerance` of a bucket
    /// boundary (and the chooser has the boundaries it needs — see
    /// [`Self::pending_splits`]), staged by `opts.max_split_per_round`
    /// (Eq. 2). This is the one splitter-refinement loop: distributed
    /// TreeSort runs it once, OptiPart once per rung of its tolerance
    /// ladder on the same, monotonically refined state. Each round's
    /// makespan delta is added to `cost`, round by round — the measured
    /// search cost OptiPart reports as `search_cost_s`.
    pub fn refine_to<const D: usize>(
        &mut self,
        engine: &mut Engine,
        dist: &mut DistVec<KeyedCell<D>>,
        opts: &PartitionOptions,
        table: Option<&CountTable>,
        cost: &mut f64,
    ) {
        let p = engine.p();
        let tol_units = opts.tolerance * (self.n as f64 / p as f64);
        loop {
            let mut split = self.pending_splits(p, tol_units);
            if split.is_empty() {
                break;
            }
            if let Some(k) = opts.max_split_per_round {
                // Staged selection: cap the reduction length per round.
                split.truncate((k / (1 << D)).max(1));
            }
            let t0 = engine.makespan();
            engine.phase(PHASE_REFINE, |e| self.refine_round(e, dist, &split, table));
            *cost += engine.makespan() - t0;
        }
    }

    /// One refinement round: split the given buckets and recount their
    /// children. Counts the `table` can still resolve are served without
    /// touching the element data; the rest — without a table, all of them —
    /// pay one compute pass + one sparse vector all-reduce (the warm replay thus
    /// counts live only below the table's resolution, where the mesh
    /// actually changed). The state transition is identical either way.
    pub fn refine_round<const D: usize>(
        &mut self,
        engine: &mut Engine,
        dist: &mut DistVec<KeyedCell<D>>,
        split: &[usize],
        table: Option<&CountTable>,
    ) {
        let nc = 1usize << D;
        let known: Vec<Option<Vec<u64>>> = match table {
            Some(t) => split
                .iter()
                .map(|&bi| t.child_counts::<D>(&self.buckets[bi]))
                .collect(),
            None => Vec::new(),
        };
        let mut bounds: Vec<(u128, u128, u8)> = Vec::with_capacity(split.len());
        bounds.extend(
            split
                .iter()
                .enumerate()
                .filter(|&(si, _)| known.get(si).is_none_or(Option::is_none))
                .map(|(_, &bi)| self.buckets[bi].key_range::<D>()),
        );
        let mut global = Vec::new();
        if !bounds.is_empty() {
            let elem_bytes = KeyedCell::<D>::BYTES as f64;
            let local_counts: Vec<Vec<(usize, u64)>> = engine.compute_map(dist, |_r, buf| {
                // One pass over the local data (the tc·N/p term of Eq. 1).
                (
                    buf.len() as f64 * elem_bytes,
                    count_children::<D>(buf, &bounds),
                )
            });
            global = engine.allreduce_sparse_u64(&local_counts, bounds.len() * nc, ReduceOp::Sum);
        }
        if !known.is_empty() {
            // Interleave served and live-counted children in split order.
            let mut counted = global.chunks_exact(nc);
            let mut merged = Vec::with_capacity(split.len() * nc);
            for k in &known {
                merged.extend_from_slice(match k {
                    Some(counts) => counts,
                    None => counted.next().expect("one live chunk per unserved bucket"),
                });
            }
            global = merged;
        }
        self.apply_split::<D>(split, &global);
    }

    /// Replaces the split buckets with their children carrying the globally
    /// reduced counts — the deterministic state update every rank replays
    /// identically.
    fn apply_split<const D: usize>(&mut self, split: &[usize], global: &[u64]) {
        let nc = 1usize << D;
        let mut next: Vec<Bucket> = Vec::with_capacity(self.buckets.len() + split.len() * (nc - 1));
        let mut si = 0usize;
        for (bi, b) in self.buckets.iter().enumerate() {
            if si < split.len() && split[si] == bi {
                let mut kids = b.children::<D>();
                for (ci, kid) in kids.iter_mut().enumerate() {
                    kid.count = global[si * nc + ci];
                }
                debug_assert_eq!(
                    kids.iter().map(|k| k.count).sum::<u64>(),
                    b.count,
                    "child counts must sum to the parent's"
                );
                next.extend(kids);
                si += 1;
            } else {
                next.push(*b);
            }
        }
        self.buckets = next;
        self.rounds += 1;
    }

    /// Chooses the final splitters: for each target, the nearest *distinct
    /// interior* bucket boundary (cumulative count strictly between 0 and
    /// `N`), constrained to stay strictly above the previous choice while
    /// reserving one boundary for every later target — so no partition is
    /// left empty (duplicate, zero or end boundaries would assign a rank
    /// zero elements, which the paper's λ = max/min metric cannot even
    /// express). Returns `(splitters, achieved tolerance in N/p units)`.
    ///
    /// The non-empty constraint can push the achieved tolerance above the
    /// request only when the request is ≥ 0.5 (two targets a grain apart
    /// contending for one boundary). When the bucket structure has fewer
    /// distinct interior boundaries than targets (`!feasible`, e.g.
    /// `N < p`) the tail is padded with [`SfcKey::MAX`]; the splitter
    /// loops refine past that state whenever `N ≥ p`.
    pub fn choose_splitters(&self, p: usize) -> (Vec<SfcKey>, f64) {
        let bounds = self.interior_bounds();
        let grain = (self.n as f64 / p as f64).max(1.0);
        let targets = self.targets(p);
        let m = targets.len();
        // With ≥ m distinct boundaries, cap each choice so every remaining
        // target keeps a boundary of its own; the greedy walk then never
        // strands a later target. (Short of boundaries the cap is moot —
        // the exhausted tail pads with MAX.)
        let reserve = bounds.len() >= m;
        let mut splitters = Vec::with_capacity(m);
        let mut worst = 0.0f64;
        let mut next = 0usize; // first index above the previous choice
        for (j, &t) in targets.iter().enumerate() {
            let hi = if reserve {
                bounds.len() + j - m
            } else {
                bounds.len().wrapping_sub(1)
            };
            if bounds.is_empty() || next > hi {
                // Out of boundaries; `next` only grows, so the padding
                // stays at the tail and the splitters remain sorted.
                splitters.push(SfcKey::MAX);
                worst = worst.max(1.0);
                continue;
            }
            let mut i = bounds[next..=hi].partition_point(|&(c, _)| c < t) + next;
            if i > hi {
                i = hi;
            }
            let best = if i > next && t - bounds[i - 1].0 <= bounds[i].0.saturating_sub(t) {
                i - 1
            } else {
                i
            };
            worst = worst.max(bounds[best].0.abs_diff(t) as f64 / grain);
            splitters.push(bounds[best].1);
            next = best + 1;
        }
        (splitters, worst)
    }

    /// This search's share of the report, given what the chosen splitters
    /// achieved and (if Algorithm 2 scored them) their `Cmax` and `Tp`.
    pub fn summary(&self, achieved_tolerance: f64, cmax: u64, predicted_tp: f64) -> SearchSummary {
        SearchSummary {
            rounds: self.rounds,
            splitter_level: self.buckets.iter().map(|b| b.level).max().unwrap_or(0),
            achieved_tolerance,
            cmax,
            predicted_tp,
        }
    }
}

/// Histogram of `buf` over the children of the buckets bounded by
/// `bounds` (the local counting pass of one refinement round), as sparse
/// `(bounds index · 2^D + child, count)` entries: one per child the rank
/// populates, however many buckets the round splits.
fn count_children<const D: usize>(
    buf: &[KeyedCell<D>],
    bounds: &[(u128, u128, u8)],
) -> Vec<(usize, u64)> {
    let nc = 1usize << D;
    let mut counts = Tally::new(bounds.len() * nc, buf.len());
    for kc in buf.iter() {
        let path = kc.key.path();
        // Which split bucket (if any) holds this element?
        let si = bounds.partition_point(|&(lo, _, _)| lo <= path);
        if si == 0 {
            continue;
        }
        let (_lo, hi, lvl) = bounds[si - 1];
        if path >= hi {
            continue;
        }
        let child = if kc.key.level() <= lvl {
            0
        } else {
            kc.key.digit::<D>(lvl)
        };
        counts.add((si - 1) * nc + child);
    }
    counts.finish()
}

/// Moves every element to its owner under `splitters`, TreeSorts locally
/// and reports — the shared tail of distributed TreeSort, the OptiPart
/// ladder and the warm exact hit (which passes its cached `search`).
pub(crate) fn exchange_and_sort<const D: usize>(
    engine: &mut Engine,
    dist: DistVec<KeyedCell<D>>,
    splitters: Vec<SfcKey>,
    algo: AllToAllAlgo,
    search: SearchSummary,
) -> PartitionOutcome<D> {
    audit_splitters(&splitters, dist.total_len(), engine.p());
    let recv = engine.phase(PHASE_ALL2ALL, |e| {
        e.alltoallv_by(
            dist.into_parts(),
            |_src, kc: &KeyedCell<D>| owner_of(&splitters, &kc.key),
            algo,
        )
    });
    let mut out = DistVec::from_parts(recv);
    engine.phase(PHASE_LOCAL_SORT, |e| {
        let elem = KeyedCell::<D>::BYTES as f64;
        e.compute(&mut out, |_r, buf| {
            treesort(buf);
            // MSD radix touches each element once per refined level; charge
            // the expected log-depth passes.
            let depth = (buf.len().max(2) as f64).log2() / D as f64;
            buf.len() as f64 * elem * depth.max(1.0)
        });
    });
    PartitionOutcome {
        report: PartitionReport::new(&out, search),
        dist: out,
        splitters,
    }
}

/// Distributed TreeSort partitioning (§3.1–3.2): flexible-tolerance splitter
/// selection, staged all-to-all, local TreeSort.
pub fn treesort_partition<const D: usize>(
    engine: &mut Engine,
    mut dist: DistVec<KeyedCell<D>>,
    opts: PartitionOptions,
) -> PartitionOutcome<D> {
    let (splitters, search) = engine.phase(PHASE_SPLITTER, |e| {
        let mut search = SplitterSearch::new(e, &dist);
        search.refine_to(e, &mut dist, &opts, None, &mut 0.0);
        let (splitters, achieved) = search.choose_splitters(e.p());
        (splitters, search.summary(achieved, 0, 0.0))
    });
    exchange_and_sort(engine, dist, splitters, opts.alltoall, search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::realised_tolerance;
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_octree::{Distribution, MeshParams};
    use optipart_sfc::Curve;

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
        )
    }

    fn mesh(n: usize, seed: u64, curve: Curve) -> LinearTree<3> {
        MeshParams {
            num_points: n,
            seed,
            ..Default::default()
        }
        .build(curve)
    }

    /// Partitioned output must be the globally sorted input.
    #[test]
    fn partition_produces_global_sfc_order() {
        for curve in Curve::ALL {
            let tree = mesh(1500, 3, curve);
            let mut expected: Vec<KeyedCell<3>> = tree.leaves().to_vec();
            expected.sort_unstable();

            let mut e = engine(8);
            let input = distribute_tree(&tree, 8);
            let out = treesort_partition(&mut e, input, PartitionOptions::exact());
            assert_eq!(out.dist.concat(), expected, "{curve}");
            // Ownership is consistent with the splitters.
            for (r, buf) in out.dist.parts().iter().enumerate() {
                for kc in buf {
                    assert_eq!(owner_of(&out.splitters, &kc.key), r);
                }
            }
        }
    }

    #[test]
    fn exact_partition_is_balanced() {
        let tree = mesh(4000, 5, Curve::Hilbert);
        let n = tree.len();
        let mut e = engine(16);
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, 16),
            PartitionOptions::exact(),
        );
        let grain = n as f64 / 16.0;
        for &c in &out.report.counts {
            assert!(
                (c as f64 - grain).abs() <= grain * 0.02 + 1.0,
                "count {c} far from grain {grain}"
            );
        }
        assert!(out.report.lambda < 1.05, "λ = {}", out.report.lambda);
    }

    #[test]
    fn tolerance_relaxes_balance_and_saves_rounds() {
        let tree = mesh(4000, 7, Curve::Hilbert);
        let mut e0 = engine(16);
        let exact = treesort_partition(
            &mut e0,
            distribute_tree(&tree, 16),
            PartitionOptions::exact(),
        );
        let mut e1 = engine(16);
        let loose = treesort_partition(
            &mut e1,
            distribute_tree(&tree, 16),
            PartitionOptions::with_tolerance(0.3),
        );
        assert!(loose.report.rounds <= exact.report.rounds);
        assert!(loose.report.splitter_level <= exact.report.splitter_level);
        assert!(loose.report.achieved_tolerance <= 0.3 + 1e-9);
        // Both must still contain all elements.
        assert_eq!(loose.dist.total_len(), tree.len());
        assert_eq!(exact.dist.total_len(), tree.len());
        // λ within the promise: each boundary within tol·N/p of its target,
        // so partition sizes lie in N/p ± 2·tol·N/p ⇒ λ ≤ (1+2t)/(1−2t).
        assert!(loose.report.lambda <= (1.0 + 0.6) / (1.0 - 0.6) + 0.1);
    }

    #[test]
    fn staged_splitter_selection_matches_unstaged() {
        let tree = mesh(2000, 11, Curve::Morton);
        let mut e0 = engine(8);
        let full = treesort_partition(
            &mut e0,
            distribute_tree(&tree, 8),
            PartitionOptions::exact(),
        );
        let mut e1 = engine(8);
        let staged = treesort_partition(
            &mut e1,
            distribute_tree(&tree, 8),
            PartitionOptions {
                max_split_per_round: Some(8),
                ..PartitionOptions::exact()
            },
        );
        assert_eq!(full.dist.concat(), staged.dist.concat());
        assert!(
            staged.report.rounds >= full.report.rounds,
            "staging takes more rounds"
        );

        // Tight budgets truncate the pending-split list every round,
        // including the forced rounds past the tolerance test (shared-edge
        // contention at tolerance ≥ 0.5, chooser feasibility).
        let tree = MeshParams::normal(2_000, 211).build::<3>(Curve::Morton);
        let mut expected: Vec<KeyedCell<3>> = tree.leaves().to_vec();
        expected.sort_unstable();
        for p in [5, 11] {
            for budget in [8, 16] {
                for tol in [0.0, 0.25, 0.6] {
                    let mut e = engine(p);
                    let out = treesort_partition(
                        &mut e,
                        distribute_shuffled(&tree, p, 29),
                        PartitionOptions {
                            tolerance: tol,
                            max_split_per_round: Some(budget),
                            ..Default::default()
                        },
                    );
                    let what = format!("p {p} budget {budget} tol {tol}");
                    assert_eq!(out.dist.concat(), expected, "{what}");
                    audit_splitters(&out.splitters, expected.len(), p);
                    let achieved = out.report.achieved_tolerance;
                    let realised = realised_tolerance(&out.report.counts);
                    assert!(
                        realised.to_bits() == achieved.to_bits(),
                        "{what}: delivered counts realise {realised}, search reported {achieved}"
                    );
                    if tol < 0.45 {
                        assert!(achieved <= tol, "{what}: achieved {achieved}");
                    }
                }
            }
        }
    }

    #[test]
    fn phases_are_recorded() {
        let tree = mesh(1000, 2, Curve::Hilbert);
        let mut e = engine(4);
        // Rotate the even distribution so the exchange actually moves
        // every element — a no-op exchange is free under the sparse
        // hypercube default (no active links ⇒ no charge), so an
        // in-place input would legitimately record zero all2all time.
        let mut parts = distribute_tree(&tree, 4).into_parts();
        parts.rotate_left(1);
        let _ = treesort_partition(
            &mut e,
            DistVec::from_parts(parts),
            PartitionOptions::exact(),
        );
        assert!(e.phase_time(PHASE_SPLITTER) > 0.0);
        assert!(e.phase_time(PHASE_ALL2ALL) > 0.0);
        assert!(e.phase_time(PHASE_LOCAL_SORT) > 0.0);
    }

    #[test]
    fn works_across_distributions() {
        for dist in Distribution::ALL {
            let tree = MeshParams {
                distribution: dist,
                num_points: 1200,
                seed: 13,
            }
            .build::<3>(Curve::Hilbert);
            let mut e = engine(8);
            let out =
                treesort_partition(&mut e, distribute_tree(&tree, 8), PartitionOptions::exact());
            assert_eq!(out.dist.total_len(), tree.len(), "{}", dist.name());
            assert!(
                out.report.lambda < 1.1,
                "{}: λ = {}",
                dist.name(),
                out.report.lambda
            );
        }
    }

    #[test]
    fn single_rank_partition_is_a_sort() {
        let tree = mesh(500, 1, Curve::Hilbert);
        let mut e = engine(1);
        let out = treesort_partition(&mut e, distribute_tree(&tree, 1), PartitionOptions::exact());
        let mut expected: Vec<KeyedCell<3>> = tree.leaves().to_vec();
        expected.sort_unstable();
        assert_eq!(out.dist.concat(), expected);
        assert!(out.splitters.is_empty());
    }

    #[test]
    fn owner_of_brackets_correctly() {
        let tree = mesh(800, 21, Curve::Hilbert);
        let mut e = engine(5);
        let out = treesort_partition(&mut e, distribute_tree(&tree, 5), PartitionOptions::exact());
        assert_eq!(out.splitters.len(), 4);
        assert_eq!(owner_of(&out.splitters, &SfcKey::MIN), 0);
        // Splitter keys themselves belong to the right-hand partition.
        for (i, s) in out.splitters.iter().enumerate() {
            assert_eq!(owner_of(&out.splitters, s), i + 1);
        }
    }

    #[test]
    fn empty_input_partitions_cleanly() {
        let mut e = engine(4);
        let input: DistVec<KeyedCell<3>> = DistVec::new(4);
        let out = treesort_partition(&mut e, input, PartitionOptions::exact());
        assert_eq!(out.dist.total_len(), 0);
        assert_eq!(out.report.rounds, 0);
    }
}
