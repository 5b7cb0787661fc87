//! The recorder: per-rank append-only span buffers, sync points, phase
//! counters and instant marks, all stamped in virtual time.

use std::collections::HashMap;

/// Name id of the implicit top-level phase (code running outside any
/// `Engine::phase` block).
pub const ROOT_PHASE: u32 = 0;

/// What a rank was doing during a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Rank-local computation charged at `bytes × tc`.
    Compute,
    /// Participation in a collective (latency + volume charge).
    Comm,
}

/// One interval of activity on one rank's virtual timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Start, virtual seconds.
    pub t0: f64,
    /// End, virtual seconds (`t1 >= t0`).
    pub t1: f64,
    /// Compute or communication.
    pub kind: SpanKind,
    /// Interned operation name ("compute", "allreduce", "alltoallv", …).
    pub name: u32,
    /// Interned phase name active when the span was recorded.
    pub phase: u32,
    /// Bytes of memory traffic (compute) or wire traffic (comm).
    pub bytes: u64,
}

/// An instant annotation on one rank's track (fault marks, retries).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mark {
    /// Rank the mark belongs to.
    pub rank: usize,
    /// Virtual time of the instant.
    pub t: f64,
    /// Interned mark name.
    pub name: u32,
    /// Free-form numeric payload (retry count, straggler factor, …).
    pub value: f64,
}

/// A BSP synchronisation point: the moment all ranks aligned to the
/// maximum clock at the start of a collective.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyncPoint {
    /// The aligned time — the maximum clock over all ranks.
    pub t: f64,
    /// The rank whose clock was the maximum (lowest rank on ties): the rank
    /// every other rank waited for. Critical-path extraction hops here.
    pub blocker: usize,
    /// Interned collective name.
    pub name: u32,
    /// Interned enclosing phase name.
    pub phase: u32,
}

/// A completed `Engine::phase` block on the global track.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpan {
    /// Interned phase name.
    pub name: u32,
    /// Makespan when the phase was entered.
    pub t0: f64,
    /// Makespan when the phase ended.
    pub t1: f64,
    /// Bytes moved over the network during the phase.
    pub bytes: u64,
}

/// A decision instant on the global track (e.g. OptiPart's tolerance-search
/// accept/reject events), carrying named numeric arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Interned event name.
    pub name: u32,
    /// Virtual time (the makespan when the decision was taken).
    pub t: f64,
    /// `(interned key, value)` argument pairs in insertion order.
    pub args: Vec<(u32, f64)>,
}

/// Per-(phase, rank) activity totals — the raw material of model
/// attribution. Only accumulated when spans are enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseRankStats {
    /// Seconds of compute charged to the rank inside the phase.
    pub compute_s: f64,
    /// Seconds of communication charged to the rank inside the phase.
    pub comm_s: f64,
    /// Compute bytes (memory traffic) — the rank's share of `W`.
    pub compute_bytes: u64,
    /// Communication bytes — the rank's share of `C`.
    pub comm_bytes: u64,
    /// Of `comm_bytes`, the share whose peer lives on the same node
    /// (the hierarchical machine model's intra-node traffic).
    pub comm_intra_bytes: u64,
}

/// The recorder. Owned by the engine; all mutation happens on the engine
/// thread, so the record order — and therefore the export — is
/// deterministic.
#[derive(Clone, Debug)]
pub struct Tracer {
    p: usize,
    events_on: bool,
    /// Interned names; id = index. Id 0 is the root phase "".
    names: Vec<String>,
    ids: HashMap<String, u32>,
    /// Stack of currently open phase name ids (root phase at the bottom,
    /// implicitly).
    phase_stack: Vec<u32>,
    /// Always-on per-phase totals, indexed by name id: (seconds, bytes).
    totals: Vec<(f64, u64)>,
    /// Per-rank span buffers, append-only in virtual-time order.
    spans: Vec<Vec<Span>>,
    syncs: Vec<SyncPoint>,
    marks: Vec<Mark>,
    phase_spans: Vec<PhaseSpan>,
    decisions: Vec<Decision>,
    /// Name id of the collective currently charging comm spans.
    cur_collective: u32,
    per_phase_rank: HashMap<(u32, usize), PhaseRankStats>,
}

impl Tracer {
    /// A recorder for a machine of `p` ranks. Spans are disabled; phase
    /// counters are live immediately.
    pub fn new(p: usize) -> Self {
        let mut t = Tracer {
            p,
            events_on: false,
            names: Vec::new(),
            ids: HashMap::new(),
            phase_stack: Vec::new(),
            totals: Vec::new(),
            spans: vec![Vec::new(); p],
            syncs: Vec::new(),
            marks: Vec::new(),
            phase_spans: Vec::new(),
            decisions: Vec::new(),
            cur_collective: 0,
            per_phase_rank: HashMap::new(),
        };
        let root = t.intern("");
        debug_assert_eq!(root, ROOT_PHASE);
        t.cur_collective = t.intern("comm");
        t
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Turns on span/sync/mark/decision recording.
    pub fn enable_spans(&mut self) {
        self.events_on = true;
    }

    /// Whether span recording is on.
    pub fn spans_enabled(&self) -> bool {
        self.events_on
    }

    /// Clears all recorded events and counters, keeping the configuration
    /// (enabled flags and interner) — mirrors `Engine::reset`.
    pub fn reset(&mut self) {
        self.phase_stack.clear();
        self.totals.iter_mut().for_each(|t| *t = (0.0, 0));
        self.spans.iter_mut().for_each(Vec::clear);
        self.syncs.clear();
        self.marks.clear();
        self.phase_spans.clear();
        self.decisions.clear();
        self.per_phase_rank.clear();
    }

    /// Interns `s`, returning a stable id for this tracer's lifetime.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        self.totals.push((0.0, 0));
        id
    }

    /// The string behind an interned id.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    // ---- phases ---------------------------------------------------------

    /// Opens a named phase (nestable). Counters attribute to the innermost
    /// open phase.
    pub fn phase_begin(&mut self, name: &str) {
        let id = self.intern(name);
        self.phase_stack.push(id);
    }

    /// Closes the innermost phase, attributing `t1 - t0` seconds and
    /// `bytes` network bytes to it. The engine supplies the makespans so
    /// counter semantics exactly match the old `RunStats` phase timers.
    pub fn phase_end(&mut self, t0: f64, t1: f64, bytes: u64) {
        let id = self.phase_stack.pop().expect("phase_end without begin");
        let tot = &mut self.totals[id as usize];
        tot.0 += t1 - t0;
        tot.1 += bytes;
        if self.events_on {
            self.phase_spans.push(PhaseSpan {
                name: id,
                t0,
                t1,
                bytes,
            });
        }
    }

    /// The innermost open phase (the root phase when none is open).
    fn current_phase(&self) -> u32 {
        self.phase_stack.last().copied().unwrap_or(ROOT_PHASE)
    }

    /// Discards all open phases without attributing time to them — for
    /// recovery drivers whose `RankDeath` unwound through open
    /// `Engine::phase` blocks, leaving their `phase_end` calls unreached.
    pub fn abort_open_phases(&mut self) {
        self.phase_stack.clear();
    }

    /// Virtual seconds attributed to `phase`, 0 if never entered.
    pub fn phase_time(&self, phase: &str) -> f64 {
        self.ids
            .get(phase)
            .map_or(0.0, |&id| self.totals[id as usize].0)
    }

    /// Network bytes attributed to `phase`.
    pub fn phase_bytes(&self, phase: &str) -> u64 {
        self.ids
            .get(phase)
            .map_or(0, |&id| self.totals[id as usize].1)
    }

    // ---- spans and events -----------------------------------------------

    /// Records a compute span on `rank`. No-op unless spans are enabled.
    pub fn record_compute(&mut self, rank: usize, t0: f64, t1: f64, bytes: u64) {
        if !self.events_on {
            return;
        }
        let phase = self.current_phase();
        let name = self.intern("compute");
        self.spans[rank].push(Span {
            t0,
            t1,
            kind: SpanKind::Compute,
            name,
            phase,
            bytes,
        });
        let s = self.per_phase_rank.entry((phase, rank)).or_default();
        s.compute_s += t1 - t0;
        s.compute_bytes += bytes;
    }

    /// Records a communication span on `rank`, named after the collective
    /// opened by the last [`Tracer::begin_collective`]. `bytes_intra ≤
    /// bytes` is the share that never left the rank's node.
    pub fn record_comm(&mut self, rank: usize, t0: f64, t1: f64, bytes: u64, bytes_intra: u64) {
        if !self.events_on {
            return;
        }
        let phase = self.current_phase();
        let name = self.cur_collective;
        self.spans[rank].push(Span {
            t0,
            t1,
            kind: SpanKind::Comm,
            name,
            phase,
            bytes,
        });
        let s = self.per_phase_rank.entry((phase, rank)).or_default();
        s.comm_s += t1 - t0;
        s.comm_bytes += bytes;
        s.comm_intra_bytes += bytes_intra;
    }

    /// Records the synchronisation point opening a collective: all ranks
    /// aligned to time `t`, having waited for `blocker`.
    pub fn begin_collective(&mut self, name: &str, t: f64, blocker: usize) {
        if !self.events_on {
            return;
        }
        let name = self.intern(name);
        self.cur_collective = name;
        let phase = self.current_phase();
        self.syncs.push(SyncPoint {
            t,
            blocker,
            name,
            phase,
        });
    }

    /// Records an instant annotation on `rank`'s track.
    pub fn mark(&mut self, rank: usize, t: f64, name: &str, value: f64) {
        if !self.events_on {
            return;
        }
        let name = self.intern(name);
        self.marks.push(Mark {
            rank,
            t,
            name,
            value,
        });
    }

    /// Records a decision instant on the global track with named numeric
    /// arguments (e.g. predicted vs accepted `Tp` of a tolerance probe).
    pub fn decision(&mut self, t: f64, name: &str, args: &[(&str, f64)]) {
        if !self.events_on {
            return;
        }
        let name = self.intern(name);
        let args = args.iter().map(|(k, v)| (self.intern(k), *v)).collect();
        self.decisions.push(Decision { name, t, args });
    }

    // ---- read access ----------------------------------------------------

    /// Per-rank span buffers, virtual-time ordered.
    pub fn spans(&self) -> &[Vec<Span>] {
        &self.spans
    }

    /// Synchronisation points in execution order.
    pub fn syncs(&self) -> &[SyncPoint] {
        &self.syncs
    }

    /// Instant marks in record order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Completed phase blocks in completion order.
    pub fn phase_spans(&self) -> &[PhaseSpan] {
        &self.phase_spans
    }

    /// Decision instants in record order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Per-(phase, rank) activity totals, sorted by (phase id, rank) for
    /// deterministic iteration.
    pub fn per_phase_rank(&self) -> Vec<((u32, usize), PhaseRankStats)> {
        let mut v: Vec<_> = self.per_phase_rank.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counters_always_on() {
        let mut t = Tracer::new(2);
        t.phase_begin("work");
        t.phase_end(0.0, 2.5, 100);
        t.phase_begin("work");
        t.phase_end(2.5, 3.0, 10);
        assert_eq!(t.phase_time("work"), 3.0);
        assert_eq!(t.phase_bytes("work"), 110);
        assert_eq!(t.phase_time("nothing"), 0.0);
        assert!(t.phase_spans().is_empty(), "spans gated off by default");
    }

    #[test]
    fn spans_gated_on_enable() {
        let mut t = Tracer::new(2);
        t.record_compute(0, 0.0, 1.0, 8);
        assert!(t.spans()[0].is_empty());
        t.enable_spans();
        t.record_compute(0, 0.0, 1.0, 8);
        t.begin_collective("allreduce", 1.0, 0);
        t.record_comm(1, 1.0, 1.5, 16, 0);
        assert_eq!(t.spans()[0].len(), 1);
        assert_eq!(t.name(t.spans()[1][0].name), "allreduce");
        assert_eq!(t.syncs().len(), 1);
        assert_eq!(t.syncs()[0].blocker, 0);
    }

    #[test]
    fn nested_phases_attribute_innermost() {
        let mut t = Tracer::new(1);
        t.phase_begin("outer");
        t.phase_begin("inner");
        assert_eq!(t.name(t.current_phase()), "inner");
        t.phase_end(0.0, 1.0, 5);
        assert_eq!(t.name(t.current_phase()), "outer");
        t.phase_end(0.0, 3.0, 20);
        assert_eq!(t.phase_time("inner"), 1.0);
        assert_eq!(t.phase_time("outer"), 3.0);
    }

    #[test]
    fn reset_clears_events_keeps_flags() {
        let mut t = Tracer::new(1);
        t.enable_spans();
        t.record_compute(0, 0.0, 1.0, 8);
        t.phase_begin("x");
        t.phase_end(0.0, 1.0, 1);
        t.reset();
        assert!(t.spans()[0].is_empty());
        assert_eq!(t.phase_time("x"), 0.0);
        assert!(t.spans_enabled());
    }

    #[test]
    fn per_phase_rank_is_sorted() {
        let mut t = Tracer::new(3);
        t.enable_spans();
        t.phase_begin("a");
        t.record_compute(2, 0.0, 1.0, 8);
        t.record_compute(0, 0.0, 2.0, 16);
        t.phase_end(0.0, 2.0, 0);
        let v = t.per_phase_rank();
        assert_eq!(v.len(), 2);
        assert!(v[0].0 < v[1].0);
    }
}
