//! Critical-path extraction over the BSP dependency graph.
//!
//! In the BSP model every collective is a full synchronisation: no rank
//! proceeds past it before the last arrival. The run's dependency graph is
//! therefore a chain of supersteps, and the unique critical path walks
//! *backwards* from the rank that finishes last, through each sync point to
//! the rank that arrived there last (the "blocker" the sync recorded),
//! down to time zero. Gaps between a rank's spans are wait states — time
//! the rank spent blocked on someone else inside a collective.
//!
//! Because spans store the exact clock values the engine computed, segment
//! boundaries match syncs exactly (float equality, no epsilon), and the
//! path tiles `[0, makespan]` with no holes: its length *is* the makespan.

use crate::tracer::{SpanKind, Tracer};

/// Classification of a critical-path item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// Rank-local compute bound the makespan here.
    Compute,
    /// A collective's charge bound the makespan here.
    Comm,
    /// The rank was idle, waiting inside a collective (or had nothing
    /// recorded) — time bound by an earlier segment of another rank.
    Wait,
}

/// One segment of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathItem {
    /// Rank the segment ran on.
    pub rank: usize,
    /// Segment start, virtual seconds.
    pub t0: f64,
    /// Segment end, virtual seconds.
    pub t1: f64,
    /// Compute, comm or wait.
    pub kind: PathKind,
    /// Operation name ("compute", "alltoallv", "wait", …).
    pub name: String,
    /// Enclosing phase name ("" for top level).
    pub phase: String,
}

impl PathItem {
    /// Segment duration, seconds.
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The extracted critical path: contiguous segments from `t = 0` to the
/// makespan.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Segments in chronological order, tiling `[0, makespan]`.
    pub items: Vec<PathItem>,
    /// The engine's makespan (the path's nominal length).
    pub makespan_s: f64,
    /// The rank whose clock ended the run.
    pub end_rank: usize,
}

impl CriticalPath {
    /// Sum of segment durations — equals [`CriticalPath::makespan_s`] up to
    /// float summation of exactly-tiled intervals.
    pub fn covered_s(&self) -> f64 {
        self.items.iter().map(PathItem::dur).sum()
    }

    /// `(compute, comm, wait)` seconds along the path.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let mut acc = (0.0, 0.0, 0.0);
        for i in &self.items {
            match i.kind {
                PathKind::Compute => acc.0 += i.dur(),
                PathKind::Comm => acc.1 += i.dur(),
                PathKind::Wait => acc.2 += i.dur(),
            }
        }
        acc
    }

    /// Path seconds per phase, in first-appearance order.
    fn by_phase(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for i in &self.items {
            match out.iter_mut().find(|(n, _)| *n == i.phase) {
                Some((_, s)) => *s += i.dur(),
                None => out.push((i.phase.clone(), i.dur())),
            }
        }
        out
    }

    /// Path seconds per rank, sorted by rank.
    pub fn by_rank(&self) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = Vec::new();
        for i in &self.items {
            match out.iter_mut().find(|(r, _)| *r == i.rank) {
                Some((_, s)) => *s += i.dur(),
                None => out.push((i.rank, i.dur())),
            }
        }
        out.sort_by_key(|&(r, _)| r);
        out
    }

    /// A human-readable summary: totals, kind breakdown, and the phases and
    /// ranks that carry the path.
    pub fn render(&self) -> String {
        let (comp, comm, wait) = self.breakdown();
        let mut s = format!(
            "critical path: {:.6} s over {} segments (ends on rank {})\n  \
             compute {:.6} s | comm {:.6} s | wait {:.6} s\n",
            self.makespan_s,
            self.items.len(),
            self.end_rank,
            comp,
            comm,
            wait,
        );
        for (phase, secs) in self.by_phase() {
            let label = if phase.is_empty() { "(top)" } else { &phase };
            s.push_str(&format!(
                "  phase {label:<14} {secs:.6} s ({:.1}%)\n",
                100.0 * secs / self.makespan_s.max(f64::MIN_POSITIVE)
            ));
        }
        for (rank, secs) in self.by_rank() {
            s.push_str(&format!(
                "  rank {rank:<3} on path {secs:.6} s ({:.1}%)\n",
                100.0 * secs / self.makespan_s.max(f64::MIN_POSITIVE)
            ));
        }
        s
    }
}

/// Extracts the critical path from a recorded trace and the engine's final
/// per-rank clocks.
///
/// Requires span recording to have been enabled for the whole run;
/// with spans disabled the result is a single wait segment covering the
/// makespan.
pub fn critical_path(t: &Tracer, clocks: &[f64]) -> CriticalPath {
    let makespan = clocks.iter().copied().fold(0.0, f64::max);
    let mut end_rank = 0;
    for (r, &c) in clocks.iter().enumerate() {
        if c > clocks[end_rank] {
            end_rank = r;
        }
    }
    let mut rev: Vec<PathItem> = Vec::new();
    let mut rank = end_rank;
    let mut cur_t = makespan;

    // Walk sync points newest-first; between consecutive syncs the path
    // stays on one rank and is tiled by that rank's spans (+ waits).
    for sync in t.syncs().iter().rev() {
        if sync.t >= cur_t {
            // Sync at exactly cur_t: the segment above it is empty; just
            // hop to the blocker.
            if sync.t == cur_t {
                rank = sync.blocker;
            }
            continue;
        }
        segment_rev(t, rank, sync.t, cur_t, &mut rev);
        rank = sync.blocker;
        cur_t = sync.t;
    }
    segment_rev(t, rank, 0.0, cur_t, &mut rev);
    rev.reverse();
    CriticalPath {
        items: rev,
        makespan_s: makespan,
        end_rank,
    }
}

/// Pushes (in reverse chronological order) the path items covering
/// `(lo, hi]` on `rank`: the rank's spans in that window, with wait items
/// filling any gaps.
fn segment_rev(t: &Tracer, rank: usize, lo: f64, hi: f64, rev: &mut Vec<PathItem>) {
    if hi <= lo {
        return;
    }
    let spans = &t.spans()[rank];
    // Spans are time-ordered; find the last span ending at or before `hi`.
    let mut i = spans.partition_point(|s| s.t1 <= hi);
    let mut upper = hi;
    let wait = |t0: f64, t1: f64, phase: String| PathItem {
        rank,
        t0,
        t1,
        kind: PathKind::Wait,
        name: "wait".to_string(),
        phase,
    };
    while i > 0 {
        let s = spans[i - 1];
        if s.t1 <= lo {
            break;
        }
        let phase = t.name(s.phase).to_string();
        if s.t1 < upper {
            rev.push(wait(s.t1, upper, phase.clone()));
        }
        rev.push(PathItem {
            rank,
            t0: s.t0.max(lo),
            t1: s.t1,
            kind: match s.kind {
                SpanKind::Compute => PathKind::Compute,
                SpanKind::Comm => PathKind::Comm,
            },
            name: t.name(s.name).to_string(),
            phase,
        });
        upper = s.t0.max(lo);
        i -= 1;
    }
    if upper > lo {
        let phase = rev.last().map_or(String::new(), |it| it.phase.clone());
        rev.push(wait(lo, upper, phase));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    /// Asserts the path tiles [0, makespan] contiguously and exactly.
    fn assert_tiles(cp: &CriticalPath) {
        assert!(!cp.items.is_empty());
        assert_eq!(cp.items[0].t0, 0.0);
        assert_eq!(cp.items.last().unwrap().t1, cp.makespan_s);
        for w in cp.items.windows(2) {
            assert_eq!(w[0].t1, w[1].t0, "gap in path: {w:?}");
        }
        assert!((cp.covered_s() - cp.makespan_s).abs() <= 1e-12 * cp.makespan_s.max(1.0));
    }

    #[test]
    fn two_rank_path_hops_at_sync() {
        // rank0 computes [0,1], rank1 computes [0,3]; sync at 3 (blocker 1);
        // both comm [3,4]; rank0 computes [4,6], rank1 idle.
        let mut t = Tracer::new(2);
        t.enable_spans();
        t.record_compute(0, 0.0, 1.0, 0);
        t.record_compute(1, 0.0, 3.0, 0);
        t.begin_collective("allreduce", 3.0, 1);
        t.record_comm(0, 3.0, 4.0, 8, 0);
        t.record_comm(1, 3.0, 4.0, 8, 0);
        t.record_compute(0, 4.0, 6.0, 0);
        let cp = critical_path(&t, &[6.0, 4.0]);
        assert_tiles(&cp);
        assert_eq!(cp.end_rank, 0);
        // After the sync the path is on rank 0; before it, on rank 1.
        assert!(cp.items.iter().filter(|i| i.t1 <= 3.0).all(|i| i.rank == 1));
        assert!(cp.items.iter().filter(|i| i.t0 >= 3.0).all(|i| i.rank == 0));
        let (comp, comm, wait) = cp.breakdown();
        assert_eq!(comp, 5.0); // rank1 [0,3] + rank0 [4,6]
        assert_eq!(comm, 1.0);
        assert_eq!(wait, 0.0);
    }

    #[test]
    fn waits_fill_gaps() {
        // Single rank with a hole in its record.
        let mut t = Tracer::new(1);
        t.enable_spans();
        t.record_compute(0, 0.0, 1.0, 0);
        t.record_compute(0, 2.0, 3.0, 0);
        let cp = critical_path(&t, &[3.0]);
        assert_tiles(&cp);
        assert_eq!(cp.items.len(), 3);
        assert_eq!(cp.items[1].kind, PathKind::Wait);
    }

    #[test]
    fn disabled_trace_yields_single_wait() {
        let t = Tracer::new(2);
        let cp = critical_path(&t, &[0.0, 5.0]);
        assert_tiles(&cp);
        assert_eq!(cp.items.len(), 1);
        assert_eq!(cp.items[0].kind, PathKind::Wait);
    }
}
