//! The names every later change uses: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table rendered (`benchmark manifest`); a unit
//! test keeps the committed file and the table identical.

use std::fmt::Write as _;

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "cold_partition",
        "one-shot case: points to octree, cold OptiPart ladder at p=64, ghost build, 20 matvecs; core owns most of the wall clock",
    ),
    (
        "amr_solve",
        "the title application: 10 moving-front AMR steps, 1 cold + 9 warm replays, remesh and 1000 matvecs; same core layer used differently",
    ),
    (
        "many_ranks",
        "p=4096 fixed-tolerance TreeSort, no ladder and no Hilbert: per-rank mpisim and halo overhead dominates; ladder changes predict no change",
    ),
    (
        "serve_hot",
        "optipart-serve over its socket, every request an exact warm hit: line I/O, parse, batching and tree rebuild do the work, the ladder none",
    ),
    (
        "serve_mixed",
        "same hot set with 10% never-seen scenarios: cold ladder passes block hits queued behind them, so hit-path and miss-path costs trade off",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Bounds are at least three times the spread (distance between the
/// quartiles over the median) that ten runs on ten seeds showed on the
/// 2-core sizing host in a quiet hour; see README.md, *Steadiness*.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("run_wall_s", "s", "lower", 0.20),
    e2e("virtual_makespan_s", "s", "lower", 0.05),
    e2e("energy_j", "J", "lower", 0.05),
    e2e("req_per_s", "1/s", "higher", 0.20),
    e2e("latency_p50_us", "us", "lower", 0.20),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// `(name, unit, better)`. A workload that does not exercise a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Self time per layer in one traced iteration (the ledger).
    ("sfc.self_s", "s", "lower"),
    ("octree.self_s", "s", "lower"),
    ("mpisim.self_s", "s", "lower"),
    ("machine.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("fem.self_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("ledger.traced_wall_s", "s", "lower"),
    ("ledger.coverage_ratio", "ratio", "higher"),
    ("ledger.traced_over_untraced", "ratio", "lower"),
    // sfc
    ("sfc.keygen_hilbert_ns_per_key", "ns", "lower"),
    ("sfc.keygen_morton_ns_per_key", "ns", "lower"),
    // octree
    ("octree.build_s", "s", "lower"),
    ("octree.remesh_s", "s", "lower"),
    ("octree.leaves", "count", "lower"),
    // core
    ("core.partition_s", "s", "lower"),
    ("core.partition_exact_s", "s", "lower"),
    ("core.ladder_over_exact_ratio", "ratio", "lower"),
    ("core.quality_s", "s", "lower"),
    ("core.quality_ns_per_elem", "ns", "lower"),
    ("core.local_treesort_ns_per_elem", "ns", "lower"),
    ("core.ladder_rounds", "count", "lower"),
    ("core.achieved_tolerance", "ratio", "lower"),
    ("core.lambda", "ratio", "lower"),
    ("core.wmax", "count", "lower"),
    ("core.cmax", "count", "lower"),
    ("core.warm_hits", "count", "higher"),
    ("core.warm_replays", "count", "higher"),
    ("core.warm_colds", "count", "lower"),
    ("core.partition_allocs", "count", "lower"),
    // machine
    ("machine.predicted_tp_s", "s", "lower"),
    ("machine.energy_report_s", "s", "lower"),
    // mpisim
    ("mpisim.exchange_s", "s", "lower"),
    ("mpisim.alltoallv_6nbr_s", "s", "lower"),
    ("mpisim.engine_new_s", "s", "lower"),
    ("mpisim.sync_points", "count", "lower"),
    ("mpisim.bytes_total", "count", "lower"),
    ("mpisim.comm_nnz", "count", "lower"),
    // fem
    ("fem.ghost_build_s", "s", "lower"),
    ("fem.ghost_build_ns_per_elem", "ns", "lower"),
    ("fem.ghost_build_allocs", "count", "lower"),
    ("fem.ghost_elements", "count", "lower"),
    ("fem.matvec_s", "s", "lower"),
    ("fem.matvec_ns_per_elem", "ns", "lower"),
    ("fem.matvec_allocs_per_iter", "count", "lower"),
    ("fem.redistribute_s", "s", "lower"),
    // trace
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.export_s", "s", "lower"),
    ("trace.events", "count", "lower"),
    // scenario
    ("scenario.build_tree_us", "us", "lower"),
    ("scenario.from_seed_ns", "ns", "lower"),
    // serve
    ("serve.parse_ns", "ns", "lower"),
    ("serve.encode_ns", "ns", "lower"),
    ("serve.run_request_hit_us", "us", "lower"),
    ("serve.run_request_cold_us", "us", "lower"),
    ("serve.inproc_req_per_s", "1/s", "higher"),
    ("serve.server_wall_p50_us", "us", "lower"),
    ("serve.transport_overhead_p50_us", "us", "lower"),
    ("serve.hit_share", "ratio", "higher"),
    ("serve.cold_share", "ratio", "lower"),
    ("serve.mean_batch", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.latency_p99_us", "us", "lower"),
    ("serve.over_limit_share", "ratio", "lower"),
    ("serve.gen_lag_p99_us", "us", "lower"),
    ("serve.burst_peak_rss_mb", "MB", "lower"),
    ("serve.tail_percentile", "%", "higher"),
];

/// Unit of the metric called `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric '{name}' is not in the manifest"))
}

/// `BENCHMARK.json`, byte for byte.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_rendered_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            render(),
            "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_and_units_are_within_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit) && m.bound <= 0.25 && m.bound > 0.0);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for (name, unit, better) in PER_LAYER {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(render().len() < 64 * 1024);
    }
}
