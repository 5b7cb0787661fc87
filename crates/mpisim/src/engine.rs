//! The virtual-process BSP engine.

use crate::dist::DistVec;
use crate::faults::{FaultPlan, RankDeath, RankFaults};
use crate::par;
use crate::stats::{CommMatrix, RunStats};
use optipart_machine::energy::{ActivityKind, Interval, COMM_CORE_FRACTION};
use optipart_machine::{EnergyReport, PerfModel, PowerTrace};
use optipart_trace::{
    chrome_trace_json, critical_path, model_attribution, profile, CriticalPath, ModelAttribution,
    ModelParams, Profile, Tracer,
};

/// A virtual distributed machine running `p` SPMD ranks.
///
/// See the crate docs for the programming and clock model. An engine is
/// configured once with a [`PerfModel`] (machine + application) and then
/// driven through compute phases and collectives; afterwards it reports
/// virtual time ([`Engine::makespan`]), traffic ([`Engine::stats`],
/// [`Engine::comm_matrix`]) and energy ([`Engine::energy_report`]).
///
/// ```
/// use optipart_machine::{AppModel, MachineModel, PerfModel};
/// use optipart_mpisim::{DistVec, Engine};
///
/// let perf = PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec());
/// let mut engine = Engine::new(4, perf);
/// let mut data = DistVec::from_global(&(0u64..100).collect::<Vec<_>>(), 4);
/// // A local compute phase: each rank reports its memory traffic.
/// engine.compute(&mut data, |_rank, buf| buf.len() as f64 * 8.0);
/// // A collective: sums per-rank contributions and advances all clocks.
/// let total = engine.allreduce_sum_u64(&[1, 2, 3, 4]);
/// assert_eq!(total, 10);
/// assert!(engine.makespan() > 0.0);
/// ```
pub struct Engine {
    pub(crate) p: usize,
    pub(crate) perf: PerfModel,
    pub(crate) clocks: Vec<f64>,
    pub(crate) stats: RunStats,
    pub(crate) comm_matrix: Option<CommMatrix>,
    pub(crate) trace: Option<PowerTrace>,
    /// Incremental exact-energy accounting: dynamic Joules per node
    /// (idle × makespan is added at report time).
    pub(crate) node_dynamic_j: Vec<f64>,
    pub(crate) comm_j: f64,
    /// Injected faults: the plan plus its materialised per-rank factors.
    /// `None` means a clean machine (all factors 1, no failures).
    pub(crate) faults: Option<(FaultPlan, RankFaults)>,
    /// Sequence number of the next data-moving collective — the event
    /// identity transient-failure draws are keyed on.
    pub(crate) collective_seq: u64,
    /// Sequence number of the next *global sync point* (every collective,
    /// barrier and checkpoint) — the timeline fail-stop kills are scheduled
    /// on.
    pub(crate) sync_seq: u64,
    /// Slot → original rank id. Starts as the identity; a fail-stop shrink
    /// removes the dead slot, so slot indices stay dense while trace
    /// tracks, fault factors and node assignment keep the original ids.
    pub(crate) tracks: Vec<usize>,
    /// Dead ranks: `(original id, frozen clock)`. Frozen clocks are capped
    /// at the detection sync time, so the makespan stays the alive maximum.
    pub(crate) retired: Vec<(usize, f64)>,
    /// Pending fail-stop kill events `(sync_seq, original rank)`, sorted.
    pub(crate) kills: Vec<(u64, usize)>,
    /// Death raised but not yet resolved by `Engine::shrink_after_death`.
    pub(crate) pending_death: Option<RankDeath>,
    /// Structured virtual-time recorder (`optipart-trace`). Phase counters
    /// are always live; span/sync/mark recording is opt-in via
    /// [`Engine::with_tracing`].
    pub(crate) tracer: Tracer,
    /// Pooled staging for the all-to-all family (see
    /// `collectives::CollectiveScratch`): dense accounting arrays and the
    /// sparse route list, reused across collectives so steady-state
    /// exchanges allocate nothing. All-zero between calls by invariant;
    /// survives [`Engine::reset`] untouched (zeroed is zeroed).
    pub(crate) coll_scratch: crate::collectives::CollectiveScratch,
}

impl Engine {
    /// A fresh machine with `p` virtual ranks.
    pub fn new(p: usize, perf: PerfModel) -> Self {
        assert!(p >= 1, "need at least one rank");
        let nodes = perf.machine.nodes_for(p);
        Engine {
            p,
            perf,
            clocks: vec![0.0; p],
            stats: RunStats::default(),
            comm_matrix: None,
            trace: None,
            node_dynamic_j: vec![0.0; nodes],
            comm_j: 0.0,
            faults: None,
            collective_seq: 0,
            sync_seq: 0,
            tracks: (0..p).collect(),
            retired: Vec::new(),
            kills: Vec::new(),
            pending_death: None,
            tracer: Tracer::new(p),
            coll_scratch: Default::default(),
        }
    }

    /// Injects the given fault plan (materialised for this machine's `p`).
    /// Clock faults perturb clocks, energy and retry counters only — never
    /// data; fail-stop events additionally arm the kill schedule
    /// ([`FaultPlan::death_schedule`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let ranks = plan.materialize(self.p);
        self.kills = plan.death_schedule(self.p);
        self.faults = Some((plan, ranks));
        self.annotate_faults();
        self
    }

    /// Enables structured span tracing: every compute segment, collective
    /// charge and synchronisation point is recorded on the virtual
    /// timeline, ready for [`Engine::trace_json`], [`Engine::critical_path`]
    /// and [`Engine::model_attribution`]. Near-zero overhead remains when
    /// not enabled (each record call is one branch).
    pub fn with_tracing(mut self) -> Self {
        self.tracer.enable_spans();
        self.annotate_faults();
        self
    }

    /// Drops t=0 marks onto straggling/jittered ranks so fault injection is
    /// visible in the exported timeline. Idempotent: marks carry fixed
    /// names, and this runs only when both faults and tracing are present
    /// and no fault marks exist yet.
    fn annotate_faults(&mut self) {
        if !self.tracer.spans_enabled() || !self.tracer.marks().is_empty() {
            return;
        }
        let Some((_, ranks)) = &self.faults else {
            return;
        };
        let stragglers: Vec<(usize, f64)> = ranks
            .straggler_ranks()
            .into_iter()
            .map(|r| (r, ranks.compute_factor[r]))
            .collect();
        let jittered: Vec<(usize, f64)> = ranks
            .tw_factor
            .iter()
            .enumerate()
            .filter(|(_, &f)| (f - 1.0).abs() > 1e-12)
            .map(|(r, &f)| (r, f))
            .collect();
        for (r, f) in stragglers {
            self.tracer.mark(r, 0.0, "fault.straggler", f);
        }
        for (r, f) in jittered {
            self.tracer.mark(r, 0.0, "fault.link_jitter", f);
        }
        for (seq, r) in self.kills.clone() {
            self.tracer.mark(r, 0.0, "fault.failstop", seq as f64);
        }
    }

    /// The materialised per-rank fault factors, if any.
    #[inline]
    pub fn rank_faults(&self) -> Option<&RankFaults> {
        self.faults.as_ref().map(|(_, ranks)| ranks)
    }

    /// `rank`'s effective wire slowness: nominal `tw` × the rank's fault
    /// factor (`rank` is a live slot; factors are keyed on original ids).
    #[inline]
    pub(crate) fn effective_tw(&self, rank: usize) -> f64 {
        let tw = self.perf.machine.tw;
        match &self.faults {
            Some((_, ranks)) => tw * ranks.tw_factor[self.tracks[rank]],
            None => tw,
        }
    }

    /// Whether live slots `src` and `dst` are placed on the same node
    /// (placement is keyed on original rank ids through `tracks`).
    #[inline]
    pub(crate) fn same_node(&self, src: usize, dst: usize) -> bool {
        let m = &self.perf.machine;
        m.node_of(self.tracks[src]) == m.node_of(self.tracks[dst])
    }

    /// Enables rank×rank communication-matrix recording (§5.5 metrics).
    pub fn record_comm_matrix(mut self) -> Self {
        self.comm_matrix = Some(CommMatrix::new(self.p));
        self
    }

    /// Enables full activity-trace recording for IPMI-style sampling.
    /// Memory grows with the number of phases × p; use for demonstration
    /// runs, not large sweeps (the exact accumulator is always on).
    pub fn record_trace(mut self) -> Self {
        self.trace = Some(PowerTrace::default());
        self
    }

    /// Number of virtual ranks.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// The performance model driving all cost accounting.
    #[inline]
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Per-rank virtual clocks, seconds (live slots only after a shrink).
    #[inline]
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    /// Original rank ids of the ranks still alive, in slot order. The
    /// identity permutation until a fail-stop shrink removes a slot.
    #[inline]
    pub fn alive_ranks(&self) -> &[usize] {
        &self.tracks
    }

    /// Synchronisation points passed so far — every collective, barrier,
    /// checkpoint and restore counts one. This is the timeline
    /// [`FaultPlan::kill_rank`](crate::FaultPlan::kill_rank) schedules
    /// fail-stop deaths on, so callers can probe a clean run to aim a kill
    /// at a specific point of a later one.
    #[inline]
    pub fn sync_points(&self) -> u64 {
        self.sync_seq
    }

    /// Per-original-rank clocks over the full initial width: live slots map
    /// through `tracks`, retired ranks report their frozen clocks.
    pub(crate) fn track_clocks(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.tracer.p()];
        for &(r, t) in &self.retired {
            v[r] = t;
        }
        for (slot, &r) in self.tracks.iter().enumerate() {
            v[r] = self.clocks[slot];
        }
        v
    }

    /// Virtual wall-clock of the run so far: the slowest rank's clock.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Traffic statistics.
    #[inline]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The recorded communication matrix, if enabled.
    #[inline]
    pub fn comm_matrix(&self) -> Option<&CommMatrix> {
        self.comm_matrix.as_ref()
    }

    /// The recorded activity trace, if enabled.
    #[inline]
    pub fn trace(&self) -> Option<&PowerTrace> {
        self.trace.as_ref()
    }

    /// The structured virtual-time recorder (always present; span recording
    /// is gated on [`Engine::with_tracing`]).
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Virtual seconds attributed to the named [`Engine::phase`], 0 if the
    /// phase never ran. Always available — phase counters do not require
    /// [`Engine::with_tracing`].
    #[inline]
    pub fn phase_time(&self, name: &str) -> f64 {
        self.tracer.phase_time(name)
    }

    /// Network bytes attributed to the named [`Engine::phase`].
    #[inline]
    pub fn phase_bytes(&self, name: &str) -> u64 {
        self.tracer.phase_bytes(name)
    }

    /// Records a decision instant on the global trace track at the current
    /// makespan (no-op unless tracing is enabled).
    pub fn trace_decision(&mut self, name: &str, args: &[(&str, f64)]) {
        let t = self.makespan();
        self.tracer.decision(t, name, args);
    }

    /// Serialises the recorded trace as Chrome `trace_event` JSON
    /// (`chrome://tracing` / Perfetto).
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.tracer)
    }

    /// Extracts the critical path bounding this run's makespan (requires
    /// [`Engine::with_tracing`] from the start of the run).
    pub fn critical_path(&self) -> CriticalPath {
        critical_path(&self.tracer, &self.track_clocks())
    }

    /// Builds the Eq. (3) model-attribution report for this run (requires
    /// [`Engine::with_tracing`]).
    pub fn model_attribution(&self) -> ModelAttribution {
        model_attribution(&self.tracer, ModelParams::from_perf(&self.perf, self.p))
    }

    /// Builds the aggregate per-phase/per-rank profile for this run.
    pub fn profile(&self) -> Profile {
        profile(&self.tracer, &self.track_clocks())
    }

    /// Resets clocks, stats, energy and matrices, keeping the configuration
    /// (including any fault plan — the collective and sync sequences restart
    /// at 0, so a reset engine replays the same fault schedule, including
    /// any fail-stop kills whose victims are still alive). A shrink is *not*
    /// undone: retired ranks stay retired, with their frozen clocks zeroed.
    pub fn reset(&mut self) {
        self.clocks.iter_mut().for_each(|c| *c = 0.0);
        self.collective_seq = 0;
        self.sync_seq = 0;
        self.pending_death = None;
        self.retired.iter_mut().for_each(|(_, t)| *t = 0.0);
        self.kills = match &self.faults {
            Some((plan, _)) => plan
                .death_schedule(self.tracer.p())
                .into_iter()
                .filter(|(_, r)| self.tracks.contains(r))
                .collect(),
            None => Vec::new(),
        };
        self.stats = RunStats::default();
        if let Some(m) = &mut self.comm_matrix {
            *m = CommMatrix::new(self.tracer.p());
        }
        if let Some(t) = &mut self.trace {
            *t = PowerTrace::default();
        }
        self.node_dynamic_j.iter_mut().for_each(|j| *j = 0.0);
        self.comm_j = 0.0;
        self.tracer.reset();
        self.annotate_faults();
    }

    /// Fires any due fail-stop kill at a sync point: caps the victim's
    /// clock at the survivors' sync time, charges every survivor the
    /// detection timeout, records `fault.death` / `fault.detect` on the
    /// trace, and unwinds with a [`RankDeath`] payload. Catch the unwind
    /// with [`crate::catch_rank_death`], then call
    /// [`Engine::shrink_after_death`] before touching the engine again.
    pub(crate) fn check_failstop(&mut self) {
        assert!(
            self.pending_death.is_none(),
            "rank death pending — call Engine::shrink_after_death before continuing"
        );
        if self.kills.is_empty() || self.kills[0].0 > self.sync_seq {
            return;
        }
        let (seq, rank) = self.kills.remove(0);
        assert!(self.p > 1, "fail-stop would kill the last surviving rank");
        let slot = self
            .tracks
            .iter()
            .position(|&r| r == rank)
            .expect("kill schedule names a live rank");
        let t_sync = self
            .clocks
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != slot)
            .map(|(_, &c)| c)
            .fold(0.0, f64::max);
        // The victim stops at the sync it never reaches; capping at the
        // survivors' arrival time keeps the makespan the alive maximum even
        // when a straggling victim's clock ran ahead.
        let frozen = self.clocks[slot].min(t_sync);
        self.clocks[slot] = frozen;
        let timeout = self
            .faults
            .as_ref()
            .map_or(1e-3, |(plan, _)| plan.detect_timeout_s);
        self.tracer.mark(rank, frozen, "fault.death", seq as f64);
        self.tracer.begin_collective("fault.detect", t_sync, rank);
        self.stats.collectives += 1;
        self.stats.deaths += 1;
        for s in 0..self.p {
            if s != slot {
                self.charge_comm(s, t_sync, timeout, 0, 0);
            }
        }
        let death = RankDeath {
            rank,
            at_seq: seq,
            t_last: frozen,
            t_detect: t_sync + timeout,
        };
        self.pending_death = Some(death.clone());
        std::panic::panic_any(death);
    }

    /// Resolves a raised [`RankDeath`]: retires the dead rank's slot and
    /// continues as a `p − 1`-rank machine (clocks, fault factors, node
    /// placement and trace tracks all keep their original-rank identity).
    /// Returns the death record. Panics if no death is pending.
    pub fn shrink_after_death(&mut self) -> RankDeath {
        let death = self
            .pending_death
            .take()
            .expect("no rank death pending — nothing to shrink");
        let slot = self
            .tracks
            .iter()
            .position(|&r| r == death.rank)
            .expect("dead rank already removed");
        self.retired.push((death.rank, death.t_last));
        self.tracks.remove(slot);
        self.clocks.remove(slot);
        self.p -= 1;
        self.kills.retain(|&(_, r)| r != death.rank);
        // The unwind skipped `phase_end` for any phase open at the death;
        // drop them so recovery phases attribute cleanly.
        self.tracer.abort_open_phases();
        death
    }

    /// Runs a rank-local compute phase in parallel over all ranks.
    ///
    /// The closure receives `(rank, local_buffer)` and returns the number of
    /// bytes of memory traffic the phase performed on that rank; the rank's
    /// clock advances by `bytes × tc` (the `tc·N/p` terms of Eqs. 1–3).
    pub fn compute<T, F>(&mut self, dist: &mut DistVec<T>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut Vec<T>) -> f64 + Sync,
    {
        let _ = self.compute_map(dist, |r, buf| (f(r, buf), ()));
    }

    /// Like [`Engine::compute`], additionally collecting a per-rank result.
    pub fn compute_map<T, R, F>(&mut self, dist: &mut DistVec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut Vec<T>) -> (f64, R) + Sync,
    {
        assert!(
            self.pending_death.is_none(),
            "rank death pending — call Engine::shrink_after_death before continuing"
        );
        let results: Vec<(f64, R)> = par::par_map_mut(dist.parts_mut(), f);
        let tc = self.perf.machine.tc;
        let mut out = Vec::with_capacity(self.p);
        for (r, (bytes, res)) in results.into_iter().enumerate() {
            debug_assert!(bytes >= 0.0, "negative compute cost reported");
            self.charge_compute(r, bytes * tc, bytes);
            out.push(res);
        }
        out
    }

    /// Charges `secs` of pure computation to `rank` (clock + energy +
    /// optional traces; `bytes` is the reported memory traffic, recorded on
    /// the structured trace). A straggling rank's charge is scaled by its
    /// fault factor.
    pub(crate) fn charge_compute(&mut self, rank: usize, secs: f64, bytes: f64) {
        if secs <= 0.0 {
            return;
        }
        let track = self.tracks[rank];
        let secs = match &self.faults {
            Some((_, ranks)) => secs * ranks.compute_factor[track],
            None => secs,
        };
        assert!(
            secs.is_finite() && secs > 0.0,
            "audit: rank {rank} charged non-finite/negative compute time {secs}"
        );
        let t0 = self.clocks[rank];
        let t1 = t0 + secs;
        self.clocks[rank] = t1;
        let machine = &self.perf.machine;
        let node = machine.node_of(track);
        self.node_dynamic_j[node] +=
            machine.power.dynamic_per_rank_w(machine.ranks_per_node) * secs;
        if let Some(trace) = &mut self.trace {
            trace.push(Interval {
                rank: track,
                t0,
                t1,
                kind: ActivityKind::Compute,
                bytes: 0,
                bytes_intra: 0,
            });
        }
        self.tracer.record_compute(track, t0, t1, bytes as u64);
    }

    /// Charges a communication interval `(t0, t0+secs)` carrying `bytes` to
    /// `rank`, of which `bytes_intra ≤ bytes` never left the rank's node
    /// (charged at the intra-node NIC rate when the machine is hierarchical).
    pub(crate) fn charge_comm(
        &mut self,
        rank: usize,
        t0: f64,
        secs: f64,
        bytes: u64,
        bytes_intra: u64,
    ) {
        debug_assert!(bytes_intra <= bytes, "intra bytes exceed total");
        let t1 = t0 + secs;
        assert!(
            secs.is_finite() && secs >= 0.0,
            "audit: rank {rank} charged non-finite/negative comm time {secs}"
        );
        assert!(
            t1 + 1e-15 >= self.clocks[rank],
            "audit: rank {rank} clock would run backwards ({} -> {t1})",
            self.clocks[rank]
        );
        self.clocks[rank] = t1;
        let track = self.tracks[rank];
        let machine = &self.perf.machine;
        let node = machine.node_of(track);
        let dyn_w = machine.power.dynamic_per_rank_w(machine.ranks_per_node);
        let j = COMM_CORE_FRACTION * dyn_w * secs + machine.nic_j(bytes, bytes_intra);
        self.node_dynamic_j[node] += j;
        self.comm_j += j;
        if let Some(trace) = &mut self.trace {
            trace.push(Interval {
                rank: track,
                t0,
                t1,
                kind: ActivityKind::Communication,
                bytes,
                bytes_intra,
            });
        }
        self.tracer.record_comm(track, t0, t1, bytes, bytes_intra);
    }

    /// `ceil(log2 p)` with the convention `log2 1 = 1` (a lone rank still
    /// pays one latency to "synchronise").
    #[inline]
    pub(crate) fn log_p(&self) -> f64 {
        (self.p.max(2) as f64).log2().ceil()
    }

    /// Runs `f` attributing the makespan and traffic it generates to the
    /// named phase (the partition / all2all / splitter breakdowns of
    /// Figs. 5–6).
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = self.makespan();
        let b0 = self.stats.bytes_total;
        self.tracer.phase_begin(name);
        let out = f(self);
        let t1 = self.makespan();
        self.tracer.phase_end(t0, t1, self.stats.bytes_total - b0);
        out
    }

    /// Exact per-node energy of the run so far (idle power × makespan plus
    /// accumulated dynamic and communication energy).
    pub fn energy_report(&self) -> EnergyReport {
        let machine = &self.perf.machine;
        let makespan = self.makespan();
        let per_node: Vec<f64> = self
            .node_dynamic_j
            .iter()
            .map(|dj| machine.power.idle_w * makespan + dj)
            .collect();
        let total = per_node.iter().sum();
        EnergyReport {
            per_node_j: per_node,
            total_j: total,
            comm_j: self.comm_j,
            makespan_s: makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_machine::{AppModel, MachineModel};

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
        )
    }

    #[test]
    fn compute_advances_clocks_independently() {
        let mut e = engine(4);
        let mut d = DistVec::from_parts(vec![vec![0u8; 10], vec![0; 20], vec![0; 30], vec![0; 40]]);
        e.compute(&mut d, |_r, buf| buf.len() as f64 * 1e6);
        let c = e.clocks().to_vec();
        assert!(c[0] < c[1] && c[1] < c[2] && c[2] < c[3]);
        assert_eq!(e.makespan(), c[3]);
    }

    #[test]
    fn compute_map_collects_per_rank_results() {
        let mut e = engine(3);
        let mut d = DistVec::from_parts(vec![vec![1u32, 2], vec![3], vec![]]);
        let sums = e.compute_map(&mut d, |_r, buf| (0.0, buf.iter().sum::<u32>()));
        assert_eq!(sums, vec![3, 3, 0]);
    }

    #[test]
    fn phase_attributes_makespan() {
        let mut e = engine(2);
        let mut d = DistVec::from_parts(vec![vec![0u8; 100], vec![0; 100]]);
        e.phase("work", |e| e.compute(&mut d, |_, b| b.len() as f64 * 1e6));
        assert!(e.phase_time("work") > 0.0);
        assert_eq!(e.phase_time("nothing"), 0.0);
    }

    #[test]
    fn energy_report_counts_all_nodes() {
        let mut e = engine(32); // titan: 16 ranks/node -> 2 nodes
        let mut d = DistVec::from_parts(vec![vec![0u8; 1000]; 32]);
        e.compute(&mut d, |_, b| b.len() as f64 * 1e9);
        let rep = e.energy_report();
        assert_eq!(rep.per_node_j.len(), 2);
        assert!(rep.total_j > 0.0);
        assert_eq!(rep.comm_j, 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = engine(2);
        let mut d = DistVec::from_parts(vec![vec![0u8; 10], vec![0; 10]]);
        e.compute(&mut d, |_, b| b.len() as f64 * 1e6);
        assert!(e.makespan() > 0.0);
        e.reset();
        assert_eq!(e.makespan(), 0.0);
        assert_eq!(e.stats().bytes_total, 0);
        assert_eq!(e.energy_report().total_j, 0.0);
    }

    #[test]
    fn trace_matches_incremental_energy() {
        let mut e = engine(4).record_trace();
        let mut d = DistVec::from_parts(vec![vec![0u8; 10], vec![0; 20], vec![0; 5], vec![0; 40]]);
        e.compute(&mut d, |_, b| b.len() as f64 * 1e7);
        let m = e.perf().machine.clone();
        let from_trace =
            e.trace()
                .unwrap()
                .exact_energy(&m.power, None, m.ranks_per_node, m.nodes_for(4));
        let incremental = e.energy_report();
        assert!((from_trace.total_j - incremental.total_j).abs() < 1e-9);
    }
}
