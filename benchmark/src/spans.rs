//! The harness's own span recorder: one span around each call into a
//! library layer, recorded from outside (nothing in `crates/` or `src/`
//! knows about it). Spans stay in memory and are written out once, after
//! the measurement.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the wrapped call belongs to (`core`, `fem`, …) or
    /// `harness` for the benchmark's own glue.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (batch) or request (serve) the span belongs to.
    pub iter: u32,
}

/// Handle returned by [`Recorder::begin`]; give it back to [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
}

impl Recorder {
    /// A recorder that records nothing: `begin`/`end` cost one branch each.
    /// End-to-end metrics are measured with this one.
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    pub fn on() -> Recorder {
        Recorder::new(true)
    }

    fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans begun from now on carry this iteration / request id.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            iter: self.iter,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"iter\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.iter
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Result of a traced run: per-layer metric values by name, the spans, and
/// what the correctness checks found.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub recorder: Recorder,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Self time of every span in seconds: its duration minus the part of that
/// interval its direct children cover (children are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<i128> = spans
        .iter()
        .map(|s| s.end_ns as i128 - s.start_ns as i128)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            own[p] -= hi.saturating_sub(lo) as i128;
        }
    }
    own.into_iter().map(|ns| ns.max(0) as f64 * 1e-9).collect()
}

/// Self time per layer, in seconds, over the spans of iteration `iter`.
pub fn layer_self_times(spans: &[Span], iter: u32) -> BTreeMap<&'static str, f64> {
    let mut per_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.iter == iter {
            *per_layer.entry(s.layer).or_insert(0.0) += own;
        }
    }
    per_layer
}

/// The ledger of iteration `iter`: self time of every layer, the wall time
/// of its root span (named `root`), and the share of that wall spent inside
/// library calls rather than in the harness's own glue.
pub fn insert_ledger(
    metrics: &mut BTreeMap<&'static str, f64>,
    spans: &[Span],
    iter: u32,
    root: &str,
) {
    let per_layer = layer_self_times(spans, iter);
    let self_s = |layer: &str| per_layer.get(layer).copied().unwrap_or(0.0);
    for (layer, name) in [
        ("sfc", "sfc.self_s"),
        ("octree", "octree.self_s"),
        ("mpisim", "mpisim.self_s"),
        ("machine", "machine.self_s"),
        ("core", "core.self_s"),
        ("fem", "fem.self_s"),
        ("trace", "trace.self_s"),
        ("scenario", "scenario.self_s"),
        ("serve", "serve.self_s"),
        ("harness", "harness.self_s"),
    ] {
        metrics.insert(name, self_s(layer));
    }
    let root_s = total_named(spans, iter, root);
    metrics.insert("ledger.traced_wall_s", root_s);
    metrics.insert(
        "ledger.coverage_ratio",
        (root_s - self_s("harness")) / root_s,
    );
}

/// Total duration in seconds of the spans named `name` in iteration `iter`.
pub fn total_named(spans: &[Span], iter: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.iter == iter && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .fold(0.0, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("harness", 0, 1_000, None),   // root: 1000 − 300 − 400
            span("core", 100, 400, Some(0)),   // 300 − 100
            span("mpisim", 150, 250, Some(1)), // grandchild: only core pays
            span("fem", 500, 900, Some(0)),    // 400
        ];
        let own = self_times(&spans);
        let ns: Vec<u64> = own.iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(ns, vec![300, 200, 100, 400]);
        // Self times of a tree always add up to the root's duration.
        assert_eq!(ns.iter().sum::<u64>(), 1_000);
        let per_layer = layer_self_times(&spans, 0);
        assert!((per_layer["core"] - 200e-9).abs() < 1e-15);
        assert!((per_layer["harness"] - 300e-9).abs() < 1e-15);
        assert!(layer_self_times(&spans, 1).is_empty());
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = vec![span("a", 0, 100, None), span("b", 50, 180, Some(0))];
        let ns: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(ns, vec![50, 130]);
    }

    #[test]
    fn recorder_nests_and_the_disabled_one_records_nothing() {
        let mut rec = Recorder::on();
        rec.set_iter(3);
        let outer = rec.begin("harness", "iteration");
        let inner = rec.begin("core", "optipart");
        rec.end(inner);
        rec.end(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].iter, 3);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert!(rec.to_json().contains("\"layer\":\"core\""));

        let mut off = Recorder::off();
        let o = off.begin("core", "optipart");
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
