//! `BENCH_*.json` reports: the schema, its writer and reader (over the
//! workspace's one JSON codec, `optipart_trace::json`), and the regression
//! comparison `bench compare` gates on.
//!
//! Schema (`optipart-bench/1`):
//!
//! ```json
//! {
//!   "schema": "optipart-bench/1",
//!   "host": "mybox", "mode": "full", "samples": 10, "threads": 8,
//!   "cores": 8,
//!   "kernels": [
//!     { "name": "treesort_seq", "group": "treesort", "n": 100000,
//!       "elements": 99873, "min_iter_ns": 1234567,
//!       "ns_per_elem": 12.36, "melem_per_s": 80.9,
//!       "allocs_per_iter": 0, "alloc_bytes_per_iter": 0,
//!       "checksum": "0x1a2b3c4d5e6f7788" }
//!   ],
//!   "derived": { "treesort_speedup_vs_reference": 1.62 }
//! }
//! ```
//!
//! Comparison policy (DESIGN.md, *bench*): allocation counts and checksums are
//! deterministic, so they gate unconditionally; per-element times gate at
//! the threshold only when the runs come from the same host class
//! (`--allocs-only` disables the time gate for cross-machine compares).

use optipart_trace::json::{self, quote, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResult {
    /// Registry name, e.g. `treesort_seq`.
    pub name: String,
    /// The kernel family (`Kernel::group` in the registry).
    pub group: String,
    /// Problem-size parameter the kernel was built at.
    pub n: u64,
    /// Elements processed per iteration (throughput denominator).
    pub elements: u64,
    /// Fastest observed iteration, nanoseconds.
    pub min_iter_ns: u64,
    /// `min_iter_ns / elements`.
    pub ns_per_elem: f64,
    /// `elements / min_iter_ns * 1e3` (million elements per second).
    pub melem_per_s: f64,
    /// Heap allocations in one steady-state iteration.
    pub allocs_per_iter: u64,
    /// Bytes requested in one steady-state iteration.
    pub alloc_bytes_per_iter: u64,
    /// Output checksum as `0x…` hex (u64 doesn't round-trip JSON numbers).
    pub checksum: String,
}

/// A full `BENCH_*.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Schema tag, [`Report::SCHEMA`].
    pub schema: String,
    /// Sanitised hostname the run was recorded on.
    pub host: String,
    /// `"full"` or `"tiny"`.
    pub mode: String,
    /// Timing samples per kernel (min is reported).
    pub samples: u64,
    /// Worker-thread budget of parallel kernels.
    pub threads: u64,
    /// Host capability stanza: CPU cores visible to the run (0 when the
    /// report predates this field). Parallel-speedup figures recorded on
    /// hosts with different core counts are not comparable — `bench
    /// compare` warns on a mismatch rather than gating.
    pub cores: u64,
    /// Per-kernel results, registry order.
    pub kernels: Vec<KernelResult>,
    /// Derived cross-kernel figures (e.g. speedup ratios).
    pub derived: BTreeMap<String, f64>,
}

impl Report {
    /// Current schema tag.
    pub const SCHEMA: &'static str = "optipart-bench/1";

    /// Serialises to pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", quote(&self.schema));
        let _ = writeln!(s, "  \"host\": {},", quote(&self.host));
        let _ = writeln!(s, "  \"mode\": {},", quote(&self.mode));
        let _ = writeln!(s, "  \"samples\": {},", self.samples);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"cores\": {},", self.cores);
        s.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = write!(
                s,
                "    {{ \"name\": {}, \"group\": {}, \"n\": {}, \"elements\": {},\n      \
                 \"min_iter_ns\": {}, \"ns_per_elem\": {}, \"melem_per_s\": {},\n      \
                 \"allocs_per_iter\": {}, \"alloc_bytes_per_iter\": {}, \"checksum\": {} }}",
                quote(&k.name),
                quote(&k.group),
                k.n,
                k.elements,
                k.min_iter_ns,
                fmt_f64(k.ns_per_elem),
                fmt_f64(k.melem_per_s),
                k.allocs_per_iter,
                k.alloc_bytes_per_iter,
                quote(&k.checksum),
            );
            s.push_str(if i + 1 < self.kernels.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"derived\": {");
        for (i, (k, v)) in self.derived.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {}: {}", quote(k), fmt_f64(*v));
        }
        if !self.derived.is_empty() {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str("}\n}\n");
        s
    }

    /// Parses a document produced by [`Report::to_json`] (or hand-edited —
    /// any whitespace / key order / trailing precision is accepted).
    pub fn from_json(text: &str) -> Result<Report, String> {
        let obj = json::parse(text)?;
        let schema = str_field(&obj, "schema")?;
        if schema != Report::SCHEMA {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let Some(Value::Arr(items)) = obj.get("kernels") else {
            return Err("field \"kernels\": expected array".into());
        };
        let mut kernels = Vec::new();
        for k in items {
            kernels.push(KernelResult {
                name: str_field(k, "name")?,
                group: str_field(k, "group")?,
                n: num_field(k, "n")? as u64,
                elements: num_field(k, "elements")? as u64,
                min_iter_ns: num_field(k, "min_iter_ns")? as u64,
                ns_per_elem: num_field(k, "ns_per_elem")?,
                melem_per_s: num_field(k, "melem_per_s")?,
                allocs_per_iter: num_field(k, "allocs_per_iter")? as u64,
                alloc_bytes_per_iter: num_field(k, "alloc_bytes_per_iter")? as u64,
                checksum: str_field(k, "checksum")?,
            });
        }
        let mut derived = BTreeMap::new();
        if let Some(d @ Value::Obj(pairs)) = obj.get("derived") {
            for (k, _) in pairs {
                derived.insert(k.clone(), num_field(d, k)?);
            }
        }
        Ok(Report {
            schema,
            host: str_field(&obj, "host")?,
            mode: str_field(&obj, "mode")?,
            samples: num_field(&obj, "samples")? as u64,
            threads: num_field(&obj, "threads")? as u64,
            // Tolerant: reports written before the host-capability stanza
            // existed parse as cores = 0 ("unknown").
            cores: num_field(&obj, "cores").unwrap_or(0.0) as u64,
            kernels,
            derived,
        })
    }
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0.0".into()
    }
}

fn str_field(obj: &Value, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(format!("field {key:?}: expected string, got {other:?}")),
    }
}

/// Integer fields go through `f64` too, so a hand-edited `"samples": 10.0`
/// still reads.
fn num_field(obj: &Value, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Value::Num(raw)) => raw
            .parse()
            .map_err(|_| format!("field {key:?}: bad number {raw:?}")),
        other => Err(format!("field {key:?}: expected number, got {other:?}")),
    }
}

/// One regression found by [`compare_reports`].
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Kernel the regression was found in.
    pub kernel: String,
    /// Human-readable description with both values.
    pub what: String,
}

/// Compares `current` against `baseline`.
///
/// * Checksum drift and allocation-count regressions always gate (both are
///   deterministic for a fixed `n`/thread budget).
/// * Per-element time regressions beyond `max_regression_pct` gate unless
///   `allocs_only` (cross-machine compares have no meaningful time base).
///
/// Kernels missing from either side are skipped (the registry may grow),
/// as are kernels whose `n` differs (tiny vs full runs are incomparable).
pub fn compare_reports(
    baseline: &Report,
    current: &Report,
    max_regression_pct: f64,
    allocs_only: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let factor = 1.0 + max_regression_pct / 100.0;
    for cur in &current.kernels {
        let Some(base) = baseline
            .kernels
            .iter()
            .find(|b| b.name == cur.name && b.n == cur.n)
        else {
            continue;
        };
        if base.checksum != cur.checksum {
            out.push(Violation {
                kernel: cur.name.clone(),
                what: format!(
                    "checksum drift: baseline {} vs current {} (bit-identity broken)",
                    base.checksum, cur.checksum
                ),
            });
        }
        // Small absolute slack: one-off setup allocations (e.g. a lazily
        // grown scratch) must not flag as a regression.
        if cur.allocs_per_iter as f64 > base.allocs_per_iter as f64 * factor + 4.0 {
            out.push(Violation {
                kernel: cur.name.clone(),
                what: format!(
                    "allocation regression: {} allocs/iter vs baseline {}",
                    cur.allocs_per_iter, base.allocs_per_iter
                ),
            });
        }
        if !allocs_only && cur.ns_per_elem > base.ns_per_elem * factor {
            out.push(Violation {
                kernel: cur.name.clone(),
                what: format!(
                    "time regression: {:.3} ns/elem vs baseline {:.3} (> {:.0}% slower)",
                    cur.ns_per_elem, base.ns_per_elem, max_regression_pct
                ),
            });
        }
    }
    out.extend(arena_ratio_gate(current));
    out.extend(hier_alloc_parity_gate(current));
    out
}

/// Evaluating Algorithm 2 under a two-level machine must allocate exactly
/// as much as under the flat model — the hierarchical terms (intra
/// counting, weighted `Cmax` selection, the `predict_hier` discount) are
/// pure arithmetic over counters the flat path already reduces. Checked on
/// `current` alone with zero slack, like [`arena_ratio_gate`].
fn hier_alloc_parity_gate(current: &Report) -> Vec<Violation> {
    let mut out = Vec::new();
    for cur in &current.kernels {
        if cur.name != "partition_quality_hier" {
            continue;
        }
        let Some(flat) = current
            .kernels
            .iter()
            .find(|k| k.name == "partition_quality_flat" && k.n == cur.n)
        else {
            continue;
        };
        if cur.allocs_per_iter > flat.allocs_per_iter {
            out.push(Violation {
                kernel: cur.name.clone(),
                what: format!(
                    "hier alloc parity broken: two-level quality evaluation makes {} \
                     allocs/iter vs the flat path's {} at n = {}",
                    cur.allocs_per_iter, flat.allocs_per_iter, cur.n
                ),
            });
        }
    }
    out
}

/// The flat-arena all-to-all must stay ≥ 100× leaner in allocations than
/// the dense p × p reference at the same `n`. Checked on `current` alone
/// (not a baseline join): tiny CI runs and full local runs use different
/// `n`, and the invariant must hold at whichever scale actually ran.
fn arena_ratio_gate(current: &Report) -> Vec<Violation> {
    let mut out = Vec::new();
    for cur in &current.kernels {
        if cur.name != "alltoallv_by_hash" {
            continue;
        }
        let Some(dense) = current
            .kernels
            .iter()
            .find(|k| k.name == "alltoallv_by_hash_dense_reference" && k.n == cur.n)
        else {
            continue;
        };
        let arena_allocs = cur.allocs_per_iter.max(1);
        if dense.allocs_per_iter < 100 * arena_allocs {
            out.push(Violation {
                kernel: cur.name.clone(),
                what: format!(
                    "arena alloc ratio collapsed: dense reference {} allocs/iter is \
                     < 100× the arena path's {} at n = {}",
                    dense.allocs_per_iter, cur.allocs_per_iter, cur.n
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            schema: Report::SCHEMA.into(),
            host: "unit-host".into(),
            mode: "tiny".into(),
            samples: 3,
            threads: 4,
            cores: 4,
            kernels: vec![
                KernelResult {
                    name: "treesort_seq".into(),
                    group: "treesort".into(),
                    n: 3000,
                    elements: 2990,
                    min_iter_ns: 120_000,
                    ns_per_elem: 40.13,
                    melem_per_s: 24.9,
                    allocs_per_iter: 0,
                    alloc_bytes_per_iter: 0,
                    checksum: "0xdeadbeef12345678".into(),
                },
                KernelResult {
                    name: "allreduce_vec".into(),
                    group: "collectives".into(),
                    n: 64,
                    elements: 512,
                    min_iter_ns: 64_000,
                    ns_per_elem: 125.0,
                    melem_per_s: 8.0,
                    allocs_per_iter: 130,
                    alloc_bytes_per_iter: 4096,
                    checksum: "0x1".into(),
                },
            ],
            derived: BTreeMap::from([("treesort_speedup_vs_reference".into(), 1.5)]),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample_report();
        let parsed = Report::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed.host, r.host);
        assert_eq!(parsed.cores, 4);
        assert_eq!(parsed.kernels.len(), 2);
        assert_eq!(parsed.kernels[0], r.kernels[0]);
        assert_eq!(parsed.derived, r.derived);
    }

    #[test]
    fn reports_without_a_cores_stanza_still_parse() {
        let r = sample_report();
        let legacy = r.to_json().replace("  \"cores\": 4,\n", "");
        let parsed = Report::from_json(&legacy).expect("legacy report parses");
        assert_eq!(parsed.cores, 0, "missing stanza must read as unknown");
        assert_eq!(parsed.kernels.len(), 2);
    }

    #[test]
    fn identical_reports_pass() {
        let r = sample_report();
        assert!(compare_reports(&r, &r, 10.0, false).is_empty());
    }

    #[test]
    fn injected_ten_percent_slowdown_fails() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.kernels[0].ns_per_elem *= 1.11; // just past the 10% gate
        let v = compare_reports(&base, &cur, 10.0, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("time regression"), "{v:?}");
        // The same slowdown passes a cross-machine (allocs-only) compare.
        assert!(compare_reports(&base, &cur, 10.0, true).is_empty());
    }

    #[test]
    fn allocation_and_checksum_regressions_always_gate() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.kernels[1].allocs_per_iter = 500;
        cur.kernels[0].checksum = "0x0".into();
        let v = compare_reports(&base, &cur, 10.0, true);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.what.contains("allocation regression")));
        assert!(v.iter().any(|x| x.what.contains("checksum drift")));
    }

    #[test]
    fn mismatched_n_and_unknown_kernels_are_skipped() {
        let base = sample_report();
        let mut cur = sample_report();
        cur.kernels[0].n = 100_000; // full vs tiny: incomparable
        cur.kernels[0].ns_per_elem *= 10.0;
        cur.kernels[1].name = "brand_new_kernel".into();
        assert!(compare_reports(&base, &cur, 10.0, false).is_empty());
    }

    /// Appends the by-hash arena/dense kernel pair to a report.
    fn with_hash_pair(mut r: Report, arena_allocs: u64, dense_allocs: u64, n: u64) -> Report {
        for (name, allocs) in [
            ("alltoallv_by_hash", arena_allocs),
            ("alltoallv_by_hash_dense_reference", dense_allocs),
        ] {
            r.kernels.push(KernelResult {
                name: name.into(),
                group: "collectives".into(),
                n,
                elements: n * 256,
                min_iter_ns: 1_000_000,
                ns_per_elem: 10.0,
                melem_per_s: 100.0,
                allocs_per_iter: allocs,
                alloc_bytes_per_iter: allocs * 64,
                checksum: "0x2".into(),
            });
        }
        r
    }

    #[test]
    fn arena_ratio_gate_passes_at_100x_and_fails_below() {
        let ok = with_hash_pair(sample_report(), 3, 300, 512);
        assert!(compare_reports(&ok, &ok, 10.0, true).is_empty());

        let thin = with_hash_pair(sample_report(), 3, 299, 512);
        let v = compare_reports(&thin, &thin, 10.0, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("arena alloc ratio collapsed"), "{v:?}");

        // A zero-alloc arena path still needs a ≥ 100-alloc dense side:
        // the ratio denominator clamps at 1.
        let zero = with_hash_pair(sample_report(), 0, 99, 512);
        let v = compare_reports(&zero, &zero, 10.0, true);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn arena_ratio_gate_checks_current_even_without_baseline_join() {
        // Baseline predates the kernel pair (or ran at a different n):
        // the ratio invariant must still gate on the current report.
        let base = sample_report();
        let cur = with_hash_pair(sample_report(), 50, 200, 512);
        let v = compare_reports(&base, &cur, 10.0, true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("arena alloc ratio"), "{v:?}");

        // Dense reference filtered out of the run entirely → nothing to
        // compare against, no violation.
        let mut lone = sample_report();
        lone.kernels.push(KernelResult {
            name: "alltoallv_by_hash".into(),
            group: "collectives".into(),
            n: 512,
            elements: 512 * 256,
            min_iter_ns: 1_000_000,
            ns_per_elem: 10.0,
            melem_per_s: 100.0,
            allocs_per_iter: 1_000_000,
            alloc_bytes_per_iter: 0,
            checksum: "0x2".into(),
        });
        assert!(compare_reports(&base, &lone, 10.0, true).is_empty());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{\"schema\": \"other/9\"}").is_err());
        assert!(Report::from_json("{} trailing").is_err());
    }
}
