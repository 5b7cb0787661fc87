//! OptiPart — Algorithm 3 of the paper.
//!
//! Distributed TreeSort whose stopping rule is the performance model:
//! starting from the loosest admissible tolerance (`max_tolerance`), the
//! search descends a tolerance ladder one rung at a time, refining the
//! shared splitter state to each rung and accepting the step only if the
//! predicted runtime of the induced partition (Algorithm 2 / Eq. 3) does
//! not get worse. "OptiPart starts from a higher tolerance and
//! progressively decreases this, i.e. … it approaches the optimum from the
//! right" (Fig. 10) — and stops exactly where predicted time turns upward,
//! without the user guessing a tolerance.

//!
//! # Warm start across AMR steps
//!
//! Successive AMR steps differ only near the refinement front, yet the cold
//! ladder re-pays its full search cost every step. [`optipart_with_state`]
//! resumes from a [`PartitionState`] instead:
//!
//! * **exact hit** — the `(mesh signature, machine model, α, options)`
//!   fingerprint matches a cached entry: the ladder is skipped entirely and
//!   the cached splitters drive the (always live) exchange;
//! * **replay** — same configuration, changed mesh: the ladder re-runs, but
//!   child-count queries are served from a `CountTable` built by recounting
//!   the previous run's bucket tiling on the *current* mesh (each element
//!   placed by [`crate::treesort::bucket_populations`]), so only buckets
//!   under the moved front pay live count passes. Identical counts imply
//!   identical ladder decisions, so the result is bit-identical to a cold
//!   run;
//! * **cold** — no usable entry, a failed payload self-check, or a rank
//!   count changed by shrink recovery: the stale state is dropped and the
//!   cold path runs, byte-for-byte the same as [`optipart`].

use crate::partition::{
    exchange_and_sort, CountTable, PartitionOptions, PartitionOutcome, SearchSummary,
    SplitterSearch, PHASE_REFINE, PHASE_SPLITTER,
};
use crate::quality::{partition_quality_keyed, NeighbourKeys, Quality};
use crate::treesort::bucket_populations;
use optipart_mpisim::rng::mix;
use optipart_mpisim::{AllToAllAlgo, DistVec, Engine, Wire};
use optipart_sfc::{Curve, KeyedCell, SfcKey};

/// Options for OptiPart. The exchange is always the hypercube all-to-all
/// and refinement may reach [`optipart_sfc::MAX_DEPTH`].
#[derive(Clone, Copy, Debug)]
pub struct OptiPartOptions {
    /// Curve the elements were keyed with (needed to key neighbour probes in
    /// the quality pass).
    pub curve: Curve,
    /// Staged splitter selection cap (Eq. 2's `k`); `None` = unlimited.
    pub max_split_per_round: Option<usize>,
    /// Ceiling on the accepted load tolerance: refinement continues (even
    /// against the model's advice) while any target is farther than this
    /// from its boundary. The paper's sweeps stop at 0.7; so do we.
    pub max_tolerance: f64,
    /// Extend Eq. (3) with a per-message latency term `ts·Mmax`
    /// ([`Quality::tp_with_latency`]) — the model refinement the paper's
    /// future work proposes. Off by default (paper-faithful Eq. 3).
    pub latency_aware: bool,
}

/// Tolerance-ladder rungs allowed past the last improvement before the
/// ladder stops (plateau robustness for the greedy stopping rule).
pub const PATIENCE: usize = 3;

/// Step between rungs of the flexible-tolerance ladder Algorithm 3
/// descends — the resolution of the paper's Fig. 10 tolerance axis.
const TOLERANCE_STEP: f64 = 0.1;

impl Default for OptiPartOptions {
    fn default() -> Self {
        OptiPartOptions {
            curve: Curve::Hilbert,
            max_split_per_round: None,
            max_tolerance: 0.7,
            latency_aware: false,
        }
    }
}

impl OptiPartOptions {
    /// Options for a given curve, defaults otherwise.
    pub fn for_curve(curve: Curve) -> Self {
        OptiPartOptions {
            curve,
            ..Default::default()
        }
    }
}

/// Architecture- and application-aware partitioning (Algorithm 3).
///
/// The engine's [`optipart_machine::PerfModel`] supplies `tc`, `tw` and `α`
/// — change the machine or the application model and the *same data*
/// partitions differently (the paper's central point).
pub fn optipart<const D: usize>(
    engine: &mut Engine,
    dist: DistVec<KeyedCell<D>>,
    opts: OptiPartOptions,
) -> PartitionOutcome<D> {
    optipart_run(engine, dist, opts, None).0
}

/// The tolerance-ladder body shared by the cold path and the warm replay.
///
/// With `table = None` this **is** the cold [`optipart`], charge-for-charge
/// and decision-for-decision. With a [`CountTable`] (holding the previous
/// bucket tiling recounted on the current mesh) each refinement round asks
/// the table first and only counts live below its resolution — identical
/// counts, identical trajectory, cheaper clocks. Also returns what the
/// caller caches: the search's report summary and the final bucket tiling
/// `(path, level, count)`.
#[allow(clippy::type_complexity)]
fn optipart_run<const D: usize>(
    engine: &mut Engine,
    mut dist: DistVec<KeyedCell<D>>,
    opts: OptiPartOptions,
    table: Option<&CountTable>,
) -> (PartitionOutcome<D>, SearchSummary, Vec<(u128, u8, u64)>) {
    let p = engine.p();
    let (search, splitters, achieved, quality) = engine.phase(PHASE_SPLITTER, |engine| {
        let mut search = SplitterSearch::new(engine, &dist);
        let (mut splitters, mut achieved) = search.choose_splitters(p);
        if p == 1 {
            let q = Quality {
                wmax: search.n,
                cmax: 0,
                cmax_intra: 0,
                c_total: 0,
                c_intra_total: 0,
                mmax: 0,
                tp: engine.perf().predict(search.n, 0),
            };
            return (search, splitters, achieved, q);
        }

        // Alg. 2's neighbour keys depend on the mesh, not on the splitters,
        // and refinement only counts (`dist` keeps its order), so one table
        // serves every rung; it is dropped with this phase, before the
        // exchange.
        let nbr_keys = NeighbourKeys::new(&dist, opts.curve);
        let ts = engine.perf().machine.ts;
        let score = |q: &Quality| {
            if opts.latency_aware {
                q.tp_with_latency(ts)
            } else {
                q.tp
            }
        };

        // Lines 3–21: walk the flexible tolerance down a ladder from
        // `max_tolerance` to exact balance in the paper's Fig. 10 grid
        // resolution, refining the shared search state to each rung and
        // scoring the rung's candidate with Algorithm 2. A bucket that
        // violates a loose tolerance also violates every tighter one, so
        // refinement is monotone along the ladder and the state at each
        // rung matches what a from-scratch TreeSort at that tolerance
        // would reach (exactly, up to the rare global feasibility forcing)
        // — the trajectory therefore visits every partition a brute-force
        // tolerance sweep would score, coarse ones included, instead of
        // leaping from one bucket level to the next. Descent
        // stops once `PATIENCE` consecutive rungs failed to improve the
        // prediction — a robust version of Algorithm 3's "proceed while
        // `default ≥ current`" that does not get stuck on model plateaus.
        let mut best: Option<(Vec<optipart_sfc::SfcKey>, f64, Quality)> = None;
        let mut worse = 0usize;
        // Measured virtual time spent searching (refinement + quality
        // evaluations) since the last accepted candidate, reported on each
        // `optipart.probe` event; it never steers a decision.
        let mut pending_cost = 0.0f64;
        let mut rung = opts.max_tolerance.max(0.0);
        loop {
            // Distributed TreeSort to this rung's tolerance, resumed from
            // the state the previous rung left.
            let rung_opts = PartitionOptions {
                tolerance: rung,
                max_split_per_round: opts.max_split_per_round,
                ..Default::default()
            };
            search.refine_to(engine, &mut dist, &rung_opts, table, &mut pending_cost);
            let (cand, cand_tol) = search.choose_splitters(p);
            // `pending_splits` returning empty already guarantees no
            // multi-target buckets and a feasible boundary set.
            let admissible = cand_tol <= opts.max_tolerance;
            if admissible && (cand != splitters || best.is_none()) {
                // Inadmissible candidates can never become the answer, so
                // Algorithm 2 only runs once the tolerance cap is reached.
                let t_eval = engine.makespan();
                let q = partition_quality_keyed(engine, &mut dist, &nbr_keys, &cand);
                pending_cost += engine.makespan() - t_eval;
                let prev_tp = best.as_ref().map(|(_, _, bq)| score(bq));
                let improved = prev_tp.is_none_or(|tp| tp - score(&q) > 0.0);
                engine.trace_decision(
                    "optipart.probe",
                    &[
                        ("tp_candidate", score(&q)),
                        ("tp_best", prev_tp.unwrap_or(score(&q))),
                        ("tolerance", cand_tol),
                        ("search_cost_s", pending_cost),
                        ("accepted", if improved { 1.0 } else { 0.0 }),
                    ],
                );
                if improved {
                    best = Some((cand.clone(), cand_tol, q));
                    worse = 0;
                    pending_cost = 0.0;
                } else {
                    worse += 1;
                }
                splitters = cand;
                achieved = cand_tol;
            }
            if best.is_some() && worse > PATIENCE {
                break;
            }
            if rung == 0.0 {
                break; // bottom of the ladder — perfectly balanced
            }
            rung = (rung - TOLERANCE_STEP).max(0.0);
        }
        let (splitters, achieved, current) = match best {
            Some(b) => b,
            None => {
                // No admissible candidate ever appeared (tiny inputs): take
                // the final, fully refined splitters.
                let q = partition_quality_keyed(engine, &mut dist, &nbr_keys, &splitters);
                (splitters, achieved, q)
            }
        };
        engine.trace_decision(
            "optipart.accept",
            &[("tp", current.tp), ("tolerance", achieved)],
        );
        (search, splitters, achieved, current)
    });

    let leaves: Vec<(u128, u8, u64)> = search
        .buckets
        .iter()
        .map(|b| (b.path, b.level, b.count))
        .collect();

    // Line 22–23: staged all-to-all + local TreeSort.
    let summary = search.summary(achieved, quality.cmax, quality.tp);
    let outcome = exchange_and_sort(engine, dist, splitters, AllToAllAlgo::Hypercube, summary);
    (outcome, summary, leaves)
}

/// Order-independent global mesh signature plus the global element count.
///
/// Each element contributes [`mix`] of its key, folded with a wrapping sum
/// — commutative, so a permuted or differently-distributed copy of the same
/// mesh fingerprints identically, and (unlike XOR) duplicated elements do
/// not cancel out. One pass over the local data plus one scalar all-reduce;
/// a real MPI implementation folds the signature word in the same
/// reduction (wrapping sum == `MPI_SUM` on `uint64`), so only the count
/// all-reduce is charged to the clocks here.
fn mesh_signature<const D: usize>(
    engine: &mut Engine,
    dist: &mut DistVec<KeyedCell<D>>,
) -> (u64, u64) {
    let elem_bytes = KeyedCell::<D>::BYTES as f64;
    let local: Vec<(u64, u64)> = engine.compute_map(dist, |_r, buf| {
        let mut sig = 0u64;
        for kc in buf.iter() {
            let path = kc.key.path();
            let h = (path as u64)
                ^ ((path >> 64) as u64).rotate_left(23)
                ^ ((kc.key.level() as u64) << 56);
            sig = sig.wrapping_add(mix(h));
        }
        (buf.len() as f64 * elem_bytes, (sig, buf.len() as u64))
    });
    let counts: Vec<u64> = local.iter().map(|&(_, c)| c).collect();
    let n = engine.allreduce_sum_u64(&counts);
    let sig = local.iter().fold(0u64, |acc, &(s, _)| acc.wrapping_add(s));
    (sig, n)
}

/// What must match for a cached entry to be trusted: the mesh (signature +
/// count), the rank count, the machine/application model, and every option
/// (each one steers the ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    mesh_sig: u64,
    n: u64,
    p: u64,
    model_sig: u64,
    opts_sig: u64,
}

impl Fingerprint {
    /// Same machine, application, rank count and ladder options — the
    /// precondition for replaying the ladder on a *different* mesh.
    fn config_matches(&self, other: &Fingerprint) -> bool {
        self.p == other.p && self.model_sig == other.model_sig && self.opts_sig == other.opts_sig
    }
}

fn fingerprint(engine: &Engine, mesh_sig: u64, n: u64, opts: &OptiPartOptions) -> Fingerprint {
    let perf = engine.perf();
    let mut model = 0u64;
    for bits in [
        perf.machine.tc.to_bits(),
        perf.machine.ts.to_bits(),
        perf.machine.tw.to_bits(),
        perf.machine.ranks_per_node as u64,
        perf.app.alpha.to_bits(),
        perf.app.elem_bytes.to_bits(),
    ] {
        model = mix(model ^ bits);
    }
    // A hierarchy changes the quality scores (and thus possibly the ladder
    // trajectory), so it must invalidate cached entries. A degenerate
    // hierarchy fingerprints differently from None by construction (the
    // presence marker) even though its results are bit-identical — cheaper
    // one cold run than a correctness argument in the cache key.
    match &perf.machine.hierarchy {
        Some(h) => {
            for bits in [
                1u64,
                h.ts_intra.to_bits(),
                h.tw_intra.to_bits(),
                h.nic_intra_j_per_byte.to_bits(),
            ] {
                model = mix(model ^ bits);
            }
        }
        None => model = mix(model),
    }
    let mut o = 0u64;
    for v in [
        opts.curve as u64,
        opts.max_split_per_round.map_or(u64::MAX, |k| k as u64),
        opts.max_tolerance.to_bits(),
        opts.latency_aware as u64,
    ] {
        o = mix(o ^ v);
    }
    Fingerprint {
        mesh_sig,
        n,
        p: engine.p() as u64,
        model_sig: model,
        opts_sig: o,
    }
}

/// One cached partition: the fingerprint it was computed under, everything
/// needed to reproduce the cold report on an exact hit, the final bucket
/// tiling (the replay's [`CountTable`] skeleton), and a payload self-check
/// signature so corruption is detected rather than trusted.
#[derive(Clone, Debug)]
struct StateEntry {
    fp: Fingerprint,
    splitters: Vec<SfcKey>,
    summary: SearchSummary,
    leaves: Vec<(u128, u8, u64)>,
    payload_sig: u64,
}

impl StateEntry {
    fn new(
        fp: Fingerprint,
        splitters: Vec<SfcKey>,
        summary: SearchSummary,
        leaves: Vec<(u128, u8, u64)>,
    ) -> Self {
        let mut e = StateEntry {
            fp,
            splitters,
            summary,
            leaves,
            payload_sig: 0,
        };
        e.payload_sig = e.compute_payload_sig();
        e
    }

    fn compute_payload_sig(&self) -> u64 {
        let mut h = mix(self.fp.mesh_sig ^ self.fp.opts_sig.rotate_left(32));
        for s in &self.splitters {
            h = mix(h ^ (s.path() as u64));
            h = mix(h ^ ((s.path() >> 64) as u64) ^ ((s.level() as u64) << 32));
        }
        for &(path, level, count) in &self.leaves {
            h = mix(h ^ (path as u64) ^ ((path >> 64) as u64).rotate_left(17));
            h = mix(h ^ count ^ ((level as u64) << 48));
        }
        h = mix(h ^ self.summary.achieved_tolerance.to_bits());
        h = mix(h ^ self.summary.rounds as u64);
        h = mix(h ^ self.summary.splitter_level as u64);
        h = mix(h ^ self.summary.cmax);
        h = mix(h ^ self.summary.predicted_tp.to_bits());
        h
    }

    fn payload_ok(&self) -> bool {
        self.payload_sig == self.compute_payload_sig()
    }
}

/// Warm/cold decision counters accumulated by a [`PartitionState`] over its
/// lifetime — surfaced on the AMR reports so tests (and the trace) can pin
/// exactly which path every step took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Exact fingerprint hits — the ladder was skipped entirely.
    pub hits: u64,
    /// Same-configuration replays on a changed mesh (table-accelerated).
    pub replays: u64,
    /// Cold runs (no usable entry, or warm-start not applicable).
    pub colds: u64,
    /// Entries dropped by the payload self-check (corruption detected).
    pub rejected: u64,
    /// Entries dropped because the rank count changed (shrink recovery).
    pub invalidated: u64,
}

/// Default number of most recent entries kept per state; old meshes fall
/// off the end. Sized to comfortably cover the repeating scenario sets of
/// a soak or service loop (the bench kernel cycles 10 meshes). Tunable per
/// state via [`PartitionState::with_cap`] (exposed through
/// `AmrConfig::state_cap` and the CLI/server `--state-cap` flag).
pub const DEFAULT_STATE_CAP: usize = 16;

/// Reusable warm-start state for [`optipart_with_state`]: a small FIFO of
/// fingerprinted past partitions. Cheap to clone, checkpointable (see the
/// `Replicated` wrapper in `optipart-mpisim`), and safe by construction —
/// a stale, foreign or corrupted state can cost at most one cold run.
#[derive(Clone, Debug)]
pub struct PartitionState {
    entries: Vec<StateEntry>,
    /// LRU bound on `entries` (≥ 1).
    cap: usize,
    /// Decision counters (monotone; survive [`PartitionState::clear`]).
    pub stats: WarmStats,
}

impl Default for PartitionState {
    fn default() -> Self {
        Self::with_cap(DEFAULT_STATE_CAP)
    }
}

impl PartitionState {
    pub fn new() -> Self {
        Self::default()
    }

    /// A state bounded to `cap` cached partitions (clamped to ≥ 1). Sizing
    /// is per worker/loop: a service worker whose shard cycles through `k`
    /// distinct scenarios wants `cap ≥ k` to stay on the exact-hit path.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            entries: Vec::new(),
            cap: cap.max(1),
            stats: WarmStats::default(),
        }
    }

    /// The LRU bound this state was built with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Drops every cached entry (the counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Modelled footprint, for checkpoint byte accounting: a declared
    /// header per state and per entry, plus every splitter and every cached
    /// `(path, level, count)` leaf at its declared size.
    pub fn footprint_bytes(&self) -> u64 {
        const STATE_BYTES: u64 = 72;
        const ENTRY_BYTES: u64 = 136;
        const LEAF_BYTES: u64 = 32;
        let per_entry: u64 = self
            .entries
            .iter()
            .map(|e| {
                ENTRY_BYTES
                    + e.splitters.len() as u64 * SfcKey::BYTES
                    + e.leaves.len() as u64 * LEAF_BYTES
            })
            .sum();
        STATE_BYTES + per_entry
    }

    /// Test hook: silently corrupt the most recent entry **without**
    /// updating its payload signature — the tamper the self-check must
    /// catch. Returns false when there is nothing to corrupt.
    #[cfg(any(test, feature = "reference"))]
    pub fn corrupt_for_test(&mut self) -> bool {
        match self.entries.last_mut() {
            Some(e) => {
                match e.splitters.first_mut() {
                    Some(s) => *s = SfcKey::from_parts(s.path() ^ 1, s.level()),
                    None => e.summary.cmax ^= 1,
                }
                true
            }
            None => false,
        }
    }

    /// Index of the newest entry whose fingerprint satisfies `matches`,
    /// provided its payload self-check passes. A match that fails it was
    /// tampered with: it is dropped and counted in `stats.rejected`, and
    /// the caller falls through to a cold run.
    fn trusted(&mut self, matches: impl Fn(&Fingerprint) -> bool) -> Option<usize> {
        let i = self.entries.iter().rposition(|e| matches(&e.fp))?;
        if self.entries[i].payload_ok() {
            return Some(i);
        }
        self.entries.remove(i);
        self.stats.rejected += 1;
        None
    }

    /// Drops entries fingerprinted under a different rank count — the
    /// shrink-recovery invalidation. Returns how many were dropped.
    fn prune_stale(&mut self, p: usize) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.fp.p == p as u64);
        before - self.entries.len()
    }

    /// Inserts (or refreshes) an entry, evicting the oldest past the cap.
    fn store(&mut self, entry: StateEntry) {
        self.entries.retain(|e| e.fp != entry.fp);
        self.entries.push(entry);
        if self.entries.len() > self.cap {
            let excess = self.entries.len() - self.cap;
            self.entries.drain(..excess);
        }
    }
}

/// Recounts a previous run's bucket tiling on the current mesh: one local
/// pass placing each element in its leaf plus one vector all-reduce.
/// Returns the resulting [`CountTable`] and the number of leaves whose
/// population changed since the cached run — the size of the
/// refinement-front diff.
fn recount_table<const D: usize>(
    engine: &mut Engine,
    dist: &mut DistVec<KeyedCell<D>>,
    prev: &[(u128, u8, u64)],
) -> (CountTable, usize) {
    let starts: Vec<u128> = prev.iter().map(|&(path, _, _)| path).collect();
    let elem_bytes = KeyedCell::<D>::BYTES as f64;
    let local: Vec<Vec<u64>> = engine.compute_map(dist, |_r, buf| {
        (
            buf.len() as f64 * elem_bytes,
            bucket_populations::<D>(buf, &starts),
        )
    });
    let counts = engine.allreduce_sum_vec_u64(&local);
    let changed = prev
        .iter()
        .zip(&counts)
        .filter(|&(&(_, _, old), &new)| old != new)
        .count();
    let leaves = prev
        .iter()
        .zip(&counts)
        .map(|(&(path, level, _), &c)| (path, level, c))
        .collect();
    (CountTable { leaves }, changed)
}

/// Emits the per-call warm-start decision event (mirrored by `stats`).
fn trace_warm(
    engine: &mut Engine,
    hit: bool,
    replay: bool,
    rejected: bool,
    changed: usize,
    pruned: usize,
) {
    engine.trace_decision(
        "optipart.warm",
        &[
            ("hit", if hit { 1.0 } else { 0.0 }),
            ("replay", if replay { 1.0 } else { 0.0 }),
            ("rejected", if rejected { 1.0 } else { 0.0 }),
            ("changed_buckets", changed as f64),
            ("invalidated", pruned as f64),
        ],
    );
}

/// [`optipart`] resuming from (and updating) a [`PartitionState`] — the
/// incremental path for multi-step AMR loops. **Bit-identical to the cold
/// run in every case**; the state only changes what the search costs:
///
/// * exact fingerprint hit → skip the ladder, reuse the cached splitters
///   (the exchange still runs live on the actual data);
/// * same config on a changed mesh → replay the ladder against a
///   `CountTable` recounted from the cached bucket tiling, paying live
///   count passes only under the moved refinement front;
/// * anything else (stale fingerprint, failed payload self-check, rank
///   count changed by a shrink) → cold run.
pub fn optipart_with_state<const D: usize>(
    engine: &mut Engine,
    mut dist: DistVec<KeyedCell<D>>,
    opts: OptiPartOptions,
    state: &mut PartitionState,
) -> PartitionOutcome<D> {
    let pruned = state.prune_stale(engine.p());
    state.stats.invalidated += pruned as u64;
    let (mesh_sig, n) = engine.phase(PHASE_SPLITTER, |e| mesh_signature(e, &mut dist));
    let fp = fingerprint(engine, mesh_sig, n, &opts);

    let rejected_before = state.stats.rejected;
    if let Some(i) = state.trusted(|e| *e == fp) {
        // Exact hit: same mesh, machine, α and options — the cold run is
        // fully determined, so skip the ladder and replay its answer. The
        // exchange still runs live on the actual data, which reproduces
        // counts/λ/Wmax bit-identically.
        state.stats.hits += 1;
        trace_warm(engine, true, false, false, 0, pruned);
        let entry = &state.entries[i];
        let splitters = entry.splitters.clone();
        return exchange_and_sort(
            engine,
            dist,
            splitters,
            AllToAllAlgo::Hypercube,
            entry.summary,
        );
    }
    // A tampered exact match goes straight to the cold path.
    let replay = if state.stats.rejected == rejected_before {
        state.trusted(|e| e.config_matches(&fp))
    } else {
        None
    };
    let table = match replay {
        Some(i) => {
            // Same configuration, changed mesh: replay the ladder with
            // counts served from the previous tiling recounted on the
            // current data.
            state.stats.replays += 1;
            let prev = state.entries[i].leaves.clone();
            let (table, changed) =
                engine.phase(PHASE_REFINE, |e| recount_table(e, &mut dist, &prev));
            trace_warm(engine, false, true, false, changed, pruned);
            Some(table)
        }
        None => {
            state.stats.colds += 1;
            let rejected = state.stats.rejected > rejected_before;
            trace_warm(engine, false, false, rejected, 0, pruned);
            None
        }
    };
    let (outcome, summary, leaves) = optipart_run(engine, dist, opts, table.as_ref());
    state.store(StateEntry::new(
        fp,
        outcome.splitters.clone(),
        summary,
        leaves,
    ));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{distribute_tree, treesort_partition, PartitionOptions};
    use crate::quality::partition_quality;
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_octree::MeshParams;

    fn engine_on(machine: MachineModel, p: usize) -> Engine {
        Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()))
    }

    #[test]
    fn optipart_keeps_all_elements_in_order() {
        let tree = MeshParams::normal(3000, 31).build::<3>(Curve::Hilbert);
        let mut e = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let out = optipart(
            &mut e,
            distribute_tree(&tree, 8),
            OptiPartOptions::default(),
        );
        let mut expected: Vec<KeyedCell<3>> = tree.leaves().to_vec();
        expected.sort_unstable();
        assert_eq!(out.dist.concat(), expected);
    }

    #[test]
    fn optipart_never_beats_model_of_exact_partition_on_cmax() {
        // OptiPart's partition has Cmax ≤ the exact partition's Cmax (it only
        // stops refining when further balance would raise predicted time).
        let tree = MeshParams::normal(6000, 37).build::<3>(Curve::Hilbert);
        let p = 16;
        let mut e1 = engine_on(MachineModel::cloudlab_wisconsin(), p);
        let opti = optipart(
            &mut e1,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        let mut e2 = engine_on(MachineModel::cloudlab_wisconsin(), p);
        let exact = treesort_partition(
            &mut e2,
            distribute_tree(&tree, p),
            PartitionOptions::exact(),
        );
        let mut e3 = engine_on(MachineModel::cloudlab_wisconsin(), p);
        let mut d = distribute_tree(&tree, p);
        let q_exact = partition_quality(&mut e3, &mut d, &exact.splitters, Curve::Hilbert);
        assert!(
            opti.report.cmax <= q_exact.cmax,
            "optipart cmax {} vs exact cmax {}",
            opti.report.cmax,
            q_exact.cmax
        );
        // And its predicted time is no worse.
        assert!(opti.report.predicted_tp <= q_exact.tp + 1e-12);
    }

    #[test]
    fn ladder_scores_match_partition_quality() {
        // The ladder scores rungs from one neighbour-key table; re-scoring
        // its accepted splitters from scratch must give the same Cmax and
        // Tp bits — cold on both curves and a two-level machine, and on a
        // warm replay over a changed mesh.
        let machines = [
            MachineModel::cloudlab_wisconsin(),
            MachineModel::cloudlab_wisconsin().hierarchical_smp(),
        ];
        for curve in Curve::ALL {
            let opts = OptiPartOptions::for_curve(curve);
            let tree_a = MeshParams::normal(3000, 61).build::<3>(curve);
            let tree_b = MeshParams::normal(3400, 67).build::<3>(curve);
            for machine in &machines {
                let mut state = PartitionState::new();
                let mut e = engine_on(machine.clone(), 6);
                let cold =
                    optipart_with_state(&mut e, distribute_tree(&tree_a, 6), opts, &mut state);
                let mut e = engine_on(machine.clone(), 6);
                let warm =
                    optipart_with_state(&mut e, distribute_tree(&tree_b, 6), opts, &mut state);
                assert_eq!(state.stats.replays, 1, "{curve} {}", machine.name);
                for (tree, out) in [(&tree_a, &cold), (&tree_b, &warm)] {
                    let mut e = engine_on(machine.clone(), 6);
                    let mut d = distribute_tree(tree, 6);
                    let q = partition_quality(&mut e, &mut d, &out.splitters, curve);
                    assert_eq!(out.report.cmax, q.cmax, "{curve} {}", machine.name);
                    assert_eq!(
                        out.report.predicted_tp.to_bits(),
                        q.tp.to_bits(),
                        "{curve} {}",
                        machine.name
                    );
                }
            }
        }
    }

    #[test]
    fn communication_heavy_machine_accepts_more_imbalance() {
        // Architecture-awareness: on the ethernet cluster (huge tw/tc) the
        // chosen tolerance should be at least that of Titan (cheap network).
        let tree = MeshParams::normal(6000, 41).build::<3>(Curve::Hilbert);
        let p = 16;
        let mut slow_net = engine_on(MachineModel::cloudlab_wisconsin(), p);
        let loose = optipart(
            &mut slow_net,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        let mut fast_net = engine_on(MachineModel::titan(), p);
        let tight = optipart(
            &mut fast_net,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        assert!(
            loose.report.achieved_tolerance >= tight.report.achieved_tolerance - 1e-9,
            "wisconsin tol {} should be ≥ titan tol {}",
            loose.report.achieved_tolerance,
            tight.report.achieved_tolerance
        );
    }

    #[test]
    fn application_awareness_changes_partition() {
        // Footnote 1: Poisson vs wave on the same mesh — a lower α makes
        // communication relatively more expensive, so the wave partition
        // tolerates at least as much imbalance.
        let tree = MeshParams::normal(6000, 43).build::<3>(Curve::Hilbert);
        let p = 16;
        let mut e1 = Engine::new(
            p,
            PerfModel::new(
                MachineModel::cloudlab_wisconsin(),
                AppModel::laplacian_matvec(),
            ),
        );
        let poisson = optipart(
            &mut e1,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        let mut e2 = Engine::new(
            p,
            PerfModel::new(MachineModel::cloudlab_wisconsin(), AppModel::wave_matvec()),
        );
        let wave = optipart(
            &mut e2,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        assert!(
            wave.report.achieved_tolerance >= poisson.report.achieved_tolerance - 1e-9,
            "wave tol {} vs poisson tol {}",
            wave.report.achieved_tolerance,
            poisson.report.achieved_tolerance
        );
    }

    #[test]
    fn optipart_single_rank() {
        let tree = MeshParams::normal(500, 47).build::<3>(Curve::Morton);
        let mut e = engine_on(MachineModel::titan(), 1);
        let out = optipart(
            &mut e,
            distribute_tree(&tree, 1),
            OptiPartOptions::for_curve(Curve::Morton),
        );
        assert_eq!(out.dist.total_len(), tree.len());
        assert!(out.splitters.is_empty());
    }

    fn assert_outcomes_identical<const D: usize>(a: &PartitionOutcome<D>, b: &PartitionOutcome<D>) {
        assert_eq!(a.splitters, b.splitters, "splitters diverged");
        assert_eq!(
            a.report.achieved_tolerance, b.report.achieved_tolerance,
            "accepted rung diverged"
        );
        assert_eq!(a.report.counts, b.report.counts);
        assert_eq!(a.report.cmax, b.report.cmax);
        assert_eq!(a.report.predicted_tp, b.report.predicted_tp);
        assert_eq!(a.dist.concat(), b.dist.concat(), "partition diverged");
    }

    #[test]
    fn warm_exact_hit_is_bit_identical_and_skips_the_ladder() {
        let tree = MeshParams::normal(3000, 71).build::<3>(Curve::Hilbert);
        let opts = OptiPartOptions::default();
        let mut cold_e = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let cold = optipart(&mut cold_e, distribute_tree(&tree, 8), opts);

        let mut state = PartitionState::new();
        let mut e1 = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let first = optipart_with_state(&mut e1, distribute_tree(&tree, 8), opts, &mut state);
        assert_outcomes_identical(&cold, &first);
        assert_eq!(state.stats.colds, 1);

        let mut e2 = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let second = optipart_with_state(&mut e2, distribute_tree(&tree, 8), opts, &mut state);
        assert_outcomes_identical(&cold, &second);
        assert_eq!(state.stats.hits, 1);
        // The hit must genuinely skip the search: far fewer synchronisation
        // points than the cold run (signature + exchange only).
        assert!(
            e2.sync_points() < cold_e.sync_points() / 2,
            "hit sync points {} vs cold {}",
            e2.sync_points(),
            cold_e.sync_points()
        );
    }

    #[test]
    fn warm_replay_on_changed_mesh_matches_cold() {
        // Prime on one mesh, partition a *different* mesh (same config):
        // the table-served replay must land exactly on the cold answer.
        let opts = OptiPartOptions::default();
        let tree_a = MeshParams::normal(3000, 73).build::<3>(Curve::Hilbert);
        let tree_b = MeshParams::normal(3400, 79).build::<3>(Curve::Hilbert);

        let mut state = PartitionState::new();
        let mut e1 = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let _ = optipart_with_state(&mut e1, distribute_tree(&tree_a, 8), opts, &mut state);

        let mut warm_e = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let warm = optipart_with_state(&mut warm_e, distribute_tree(&tree_b, 8), opts, &mut state);
        assert_eq!(state.stats.replays, 1, "{:?}", state.stats);

        let mut cold_e = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let cold = optipart(&mut cold_e, distribute_tree(&tree_b, 8), opts);
        assert_outcomes_identical(&cold, &warm);
    }

    #[test]
    fn corrupted_state_is_detected_and_falls_back_cold() {
        let tree = MeshParams::normal(2500, 83).build::<3>(Curve::Hilbert);
        let opts = OptiPartOptions::default();
        let mut state = PartitionState::new();
        let mut e1 = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let _ = optipart_with_state(&mut e1, distribute_tree(&tree, 8), opts, &mut state);
        assert!(state.corrupt_for_test());

        let mut e2 = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let got = optipart_with_state(&mut e2, distribute_tree(&tree, 8), opts, &mut state);
        assert_eq!(state.stats.rejected, 1);
        assert_eq!(state.stats.colds, 2, "tampered entry must not be served");

        let mut cold_e = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let cold = optipart(&mut cold_e, distribute_tree(&tree, 8), opts);
        assert_outcomes_identical(&cold, &got);
    }

    #[test]
    fn shrunk_rank_count_invalidates_state() {
        // Entries fingerprinted at p = 8 must be pruned, not replayed, when
        // the engine shrank to 7 ranks.
        let tree = MeshParams::normal(2500, 89).build::<3>(Curve::Hilbert);
        let opts = OptiPartOptions::default();
        let mut state = PartitionState::new();
        let mut e1 = engine_on(MachineModel::cloudlab_wisconsin(), 8);
        let _ = optipart_with_state(&mut e1, distribute_tree(&tree, 8), opts, &mut state);
        assert_eq!(state.len(), 1);

        let mut e2 = engine_on(MachineModel::cloudlab_wisconsin(), 7);
        let warm = optipart_with_state(&mut e2, distribute_tree(&tree, 7), opts, &mut state);
        assert_eq!(state.stats.invalidated, 1);
        assert_eq!(state.stats.colds, 2);

        let mut cold_e = engine_on(MachineModel::cloudlab_wisconsin(), 7);
        let cold = optipart(&mut cold_e, distribute_tree(&tree, 7), opts);
        assert_outcomes_identical(&cold, &warm);
    }

    #[test]
    fn state_cache_caps_and_refreshes() {
        let opts = OptiPartOptions::default();
        let mut state = PartitionState::new();
        for seed in 0..20u64 {
            let tree =
                MeshParams::normal(300 + seed as usize * 7, 101 + seed).build::<3>(Curve::Hilbert);
            let mut e = engine_on(MachineModel::titan(), 4);
            let _ = optipart_with_state(&mut e, distribute_tree(&tree, 4), opts, &mut state);
        }
        assert!(
            state.len() <= DEFAULT_STATE_CAP,
            "cache must stay bounded: {}",
            state.len()
        );
        // Re-running the newest mesh hits, not colds.
        let tree = MeshParams::normal(300 + 19 * 7, 101 + 19).build::<3>(Curve::Hilbert);
        let mut e = engine_on(MachineModel::titan(), 4);
        let _ = optipart_with_state(&mut e, distribute_tree(&tree, 4), opts, &mut state);
        assert_eq!(state.stats.hits, 1);
    }

    #[test]
    fn configurable_cap_bounds_and_evicts_fifo() {
        // A cap-2 state over 3 distinct meshes keeps only the newest two:
        // mesh 0 was evicted (cold again), meshes 1 and 2 still hit.
        let opts = OptiPartOptions::default();
        let mut state = PartitionState::with_cap(2);
        assert_eq!(state.cap(), 2);
        let mesh =
            |i: usize| MeshParams::normal(400 + i * 31, 211 + i as u64).build::<3>(Curve::Hilbert);
        for i in 0..3 {
            let mut e = engine_on(MachineModel::titan(), 4);
            let _ = optipart_with_state(&mut e, distribute_tree(&mesh(i), 4), opts, &mut state);
        }
        assert_eq!(state.len(), 2);
        for (i, want_hit) in [(1usize, true), (2, true), (0, false)] {
            let before = state.stats.hits;
            let mut e = engine_on(MachineModel::titan(), 4);
            let _ = optipart_with_state(&mut e, distribute_tree(&mesh(i), 4), opts, &mut state);
            assert_eq!(
                state.stats.hits > before,
                want_hit,
                "mesh {i}: {:?}",
                state.stats
            );
        }
        // Degenerate caps clamp to 1 instead of disabling the cache.
        assert_eq!(PartitionState::with_cap(0).cap(), 1);
    }

    #[test]
    fn morton_and_hilbert_both_supported() {
        for curve in Curve::ALL {
            let tree = MeshParams::normal(2000, 53).build::<3>(curve);
            let mut e = engine_on(MachineModel::cloudlab_clemson(), 8);
            let out = optipart(
                &mut e,
                distribute_tree(&tree, 8),
                OptiPartOptions::for_curve(curve),
            );
            assert_eq!(out.dist.total_len(), tree.len(), "{curve}");
            assert!(out.report.predicted_tp > 0.0);
        }
    }
}
