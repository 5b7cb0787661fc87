//! The `bench` runner: measures the kernel registry and emits / gates on
//! `BENCH_<host>.json` (see DESIGN.md, *bench*).
//!
//! ```text
//! bench run [--tiny] [--filter SUBSTR] [--samples K] [--out PATH]
//! bench compare --baseline PATH [--current PATH] [--max-regression PCT] [--allocs-only]
//! bench list
//! ```
//!
//! `run` writes `BENCH_<host>.json` to the repository root (override with
//! `--out`). `compare` exits nonzero when `current` regresses past the
//! threshold (default 10%) against `baseline` — checksum drift and
//! allocation-count regressions gate even under `--allocs-only`.

use optipart_bench::alloc_count::{self, CountingAllocator};
use optipart_bench::kernels::{self, Kernel};
use optipart_bench::report::{compare_reports, KernelResult, Report};
use optipart_mpisim::par;
use optipart_scenario::flags::{parse_flags, FlagSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("list") => cmd_list(),
        _ => usage(""),
    };
    std::process::exit(code);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("bench: {err}\n");
    }
    eprintln!(
        "usage: bench run [--tiny] [--filter SUBSTR] [--samples K] [--out PATH]\n       \
         bench compare --baseline PATH [--current PATH] [--max-regression PCT] [--allocs-only]\n       \
         bench list"
    );
    std::process::exit(2)
}

fn cmd_list() -> i32 {
    for k in kernels::registry() {
        println!(
            "{:<28} group={:<12} full_n={:<8} tiny_n={}",
            k.name, k.group, k.full_n, k.tiny_n
        );
    }
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let f = parse_flags(
        args,
        &FlagSpec {
            valued: &["filter", "samples", "out"],
            booleans: &["tiny"],
            ..Default::default()
        },
        usage,
    );
    let tiny = f.has("tiny");
    let filter = f.get("filter");
    let samples = match f.parse("samples", 0usize) {
        0 if tiny => 3,
        0 => 10,
        k => k,
    };
    let host = hostname();
    let threads = par::num_threads();
    let cores = cores();
    let mode = if tiny { "tiny" } else { "full" };
    eprintln!(
        "bench run: host={host} mode={mode} samples={samples} threads={threads} cores={cores}"
    );

    let mut results = Vec::new();
    for k in kernels::registry() {
        if filter.is_some_and(|f| !k.name.contains(f)) {
            continue;
        }
        let n = if tiny { k.tiny_n } else { k.full_n };
        let r = measure(&k, n, samples);
        eprintln!(
            "  {:<28} n={:<8} {:>10.2} ns/elem  {:>9.2} Melem/s  {:>8} allocs/iter",
            r.name, r.n, r.ns_per_elem, r.melem_per_s, r.allocs_per_iter
        );
        results.push(r);
    }

    let mut derived = BTreeMap::new();
    let ns_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_per_elem)
    };
    if let (Some(opt), Some(reference)) = (ns_of("treesort_seq"), ns_of("treesort_reference")) {
        if opt > 0.0 {
            derived.insert("treesort_speedup_vs_reference".to_string(), reference / opt);
        }
    }
    if let (Some(warm), Some(cold)) = (ns_of("optipart_amr_loop_warm"), ns_of("optipart_ladder")) {
        if warm > 0.0 {
            derived.insert("optipart_warm_amortized_speedup".to_string(), cold / warm);
        }
    }
    if let Some(ns_per_req) = ns_of("serve_requests_per_sec") {
        if ns_per_req > 0.0 {
            derived.insert("serve_requests_per_sec".to_string(), 1e9 / ns_per_req);
        }
    }
    // The machine-awareness headline (EXPERIMENTS.md §hierarchy): on the
    // pinned skewed mesh, OptiPart under the two-level machine chooses a
    // partition whose node-crossing ghost traffic is over 20% lower than
    // the flat model's choice.
    if filter.is_none() {
        let pt = optipart_bench::figs::hier::demo();
        derived.insert("hier_inter_bytes_reduction".to_string(), pt.reduction);
        derived.insert("hier_inter_bytes_flat".to_string(), pt.inter_flat as f64);
        derived.insert(
            "hier_inter_bytes_two_level".to_string(),
            pt.inter_hier as f64,
        );
    }
    // Real-time figures the serve kernels publish out-of-band (p99 wall
    // latency, warm-request rate) — see `kernels::SERVE_STATS`.
    for (k, v) in kernels::SERVE_STATS.lock().unwrap().iter() {
        if v.is_finite() {
            derived.insert(k.clone(), *v);
        }
    }
    // Full runs append the paper-scale strong-scaling curves (Fig. 4
    // rank counts, 4,096 → 262,144): per-p virtual makespan and real
    // steady-state allocation counts. Tiny (CI) runs skip the sweep; the
    // CI `scale` job runs `figures scaling` at a reduced top p instead.
    if !tiny && filter.is_none() {
        eprintln!("  scaling sweep: p = 4096 .. 262144 (hypercube, warm arena)");
        for pt in optipart_bench::figs::scaling::sweep(262_144) {
            derived.insert(format!("scaling_p{}_makespan_s", pt.p), pt.makespan_s);
            derived.insert(
                format!("scaling_p{}_steady_allocs", pt.p),
                pt.steady_allocs as f64,
            );
        }
    }

    let report = Report {
        schema: Report::SCHEMA.into(),
        host: host.clone(),
        mode: mode.into(),
        samples: samples as u64,
        threads: threads as u64,
        cores,
        kernels: results,
        derived,
    };
    let path = f.get("out").map_or_else(
        || repo_root().join(format!("BENCH_{host}.json")),
        PathBuf::from,
    );
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("bench run: cannot write {}: {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    for (k, v) in &report.derived {
        println!("  {k} = {v:.3}");
    }
    0
}

/// Warmup, one counted steady-state iteration for allocations, then
/// `samples` timed iterations; the minimum is reported (least-noise
/// estimator for a deterministic workload).
fn measure(k: &Kernel, n: usize, samples: usize) -> KernelResult {
    let mut prep = (k.build)(n);
    let checksum = (prep.run)();
    let (a0, b0) = alloc_count::counters();
    let check2 = (prep.run)();
    let (a1, b1) = alloc_count::counters();
    assert_eq!(
        checksum, check2,
        "kernel {} is not deterministic across iterations",
        k.name
    );
    let mut min_ns = u64::MAX;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        let c = (prep.run)();
        let dt = t.elapsed().as_nanos() as u64;
        assert_eq!(checksum, c, "kernel {} checksum drifted mid-run", k.name);
        min_ns = min_ns.min(dt.max(1));
    }
    let elements = prep.elements.max(1);
    KernelResult {
        name: k.name.into(),
        group: k.group.into(),
        n: n as u64,
        elements,
        min_iter_ns: min_ns,
        ns_per_elem: min_ns as f64 / elements as f64,
        melem_per_s: elements as f64 * 1e3 / min_ns as f64,
        allocs_per_iter: a1 - a0,
        alloc_bytes_per_iter: b1 - b0,
        checksum: format!("{:#018x}", checksum),
    }
}

fn cmd_compare(args: &[String]) -> i32 {
    let f = parse_flags(
        args,
        &FlagSpec {
            valued: &["baseline", "current", "max-regression"],
            booleans: &["allocs-only"],
            ..Default::default()
        },
        usage,
    );
    let Some(baseline) = f.get("baseline").map(PathBuf::from) else {
        usage("compare: --baseline PATH is required");
    };
    let current = f.get("current").map_or_else(
        || repo_root().join(format!("BENCH_{}.json", hostname())),
        PathBuf::from,
    );
    let max_regression: f64 = f.parse("max-regression", 10.0);
    let allocs_only = f.has("allocs-only");
    let base = match load(&baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench compare: {e}");
            return 2;
        }
    };
    let cur = match load(&current) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench compare: {e}");
            return 2;
        }
    };
    // Host-capability sanity: throughput figures recorded on hosts with
    // different core counts are not comparable — warn, don't gate (times
    // are already covered by --allocs-only for cross-machine compares).
    if base.cores != 0 && cur.cores != 0 && base.cores != cur.cores {
        println!(
            "warning: baseline was recorded on a {}-core host, current on {}-core — \
             serve throughput is not comparable across core counts",
            base.cores, cur.cores
        );
    } else if base.cores == 0 || cur.cores == 0 {
        println!(
            "warning: {} report(s) predate the host-capability stanza (cores unknown) — \
             re-record with `bench run` to enable core-count comparison",
            if base.cores == 0 && cur.cores == 0 {
                "both"
            } else {
                "one"
            }
        );
    }
    let violations = compare_reports(&base, &cur, max_regression, allocs_only);
    println!(
        "compared {} kernels of {} against {} (threshold {max_regression}%{})",
        cur.kernels.len(),
        current.display(),
        baseline.display(),
        if allocs_only { ", allocs-only" } else { "" },
    );
    if violations.is_empty() {
        println!("OK: no regressions");
        return 0;
    }
    for v in &violations {
        println!("FAIL {}: {}", v.kernel, v.what);
    }
    1
}

fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Report::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCH_HOST` env override, else the kernel hostname, sanitised to
/// filename-safe characters.
fn hostname() -> String {
    let raw = std::env::var("BENCH_HOST")
        .ok()
        .or_else(|| std::fs::read_to_string("/etc/hostname").ok())
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .unwrap_or_default();
    let clean: String = raw
        .trim()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if clean.is_empty() {
        "unknown-host".into()
    } else {
        clean
    }
}

/// CPU cores visible to this process — the host-capability stanza.
fn cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}
