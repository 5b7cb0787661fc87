//! `figures` — regenerates every measured figure of the paper (§5).
//!
//! ```text
//! cargo run -p optipart-bench --release --bin figures -- all
//! cargo run -p optipart-bench --release --bin figures -- fig7 fig8 --scale 2 --out results/
//! cargo run -p optipart-bench --release --bin figures -- fig4 --trace amr.json
//! ```
//!
//! Figure ids: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 (or `all`),
//! plus `ablations` (design-choice studies), `recovery` (fail-stop
//! checkpoint/recovery ablation), `hier` (flat vs two-level machine model
//! inter-node ghost-traffic comparison) and `scaling` (paper-scale
//! collectives strong-scaling sweep, 4,096 → `--max-p` virtual ranks,
//! default 262,144); none of the four is part of `all`.
//! `--scale` multiplies the scaled default problem sizes (1.0 = defaults
//! documented in DESIGN.md §4; the paper's full sizes need a cluster-class
//! machine). `--seed` changes the mesh RNG seed; `--out DIR` also writes
//! CSVs. Every run ends by writing `BENCH_summary.json` (per-figure wall
//! times plus every emitted table) to `--out DIR` or the working directory.
//!
//! `--trace FILE` additionally runs a small traced AMR demo twice — once
//! clean, once under an injected fault plan — exporting Chrome-trace JSON
//! to `FILE` and `FILE`'s sibling `*-faults.json`, and printing each run's
//! critical path and Eq. (3) model attribution.

use optipart_bench::alloc_count::CountingAllocator;
use optipart_bench::common::{write_summary, RunConfig};
use optipart_bench::figs;
use optipart_fem::amr::{amr_simulation, AmrConfig, Strategy};
use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::{Engine, FaultPlan};
use optipart_scenario::flags::{parse_flags, FlagSpec};
use std::process::exit;
use std::time::Instant;

// The `scaling` sweep reports real allocation counts per exchange round —
// count every allocation this process makes.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let f = parse_flags(
        &args,
        &FlagSpec {
            valued: &["scale", "seed", "out", "trace", "max-p"],
            booleans: &["help"],
            short: &[("-h", "help")],
            positionals: true,
        },
        usage,
    );
    if f.has("help") {
        usage("");
    }
    let d = RunConfig::default();
    let cfg = RunConfig {
        scale: f.parse("scale", d.scale),
        seed: f.parse("seed", d.seed),
        max_p: f.parse("max-p", d.max_p),
        out_dir: f.get("out").map(Into::into),
    };
    let trace_path = f.get("trace");
    let mut ids: Vec<String> = Vec::new();
    for id in f.positionals() {
        match id.as_str() {
            "all" => ids.extend(figs::ALL.iter().map(|s| s.to_string())),
            _ => ids.push(id.clone()),
        }
    }
    if ids.is_empty() && trace_path.is_none() {
        usage("no figure ids given");
    }
    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in ids {
        let t0 = Instant::now();
        if let Err(e) = figs::run(&id, &cfg) {
            eprintln!("error: {e}");
            exit(1);
        }
        timings.push((id, t0.elapsed().as_secs_f64()));
    }
    if let Some(path) = trace_path {
        let t0 = Instant::now();
        traced_amr_demo(&cfg, path);
        timings.push(("traced-amr".into(), t0.elapsed().as_secs_f64()));
    }
    write_summary(&cfg, &timings);
}

/// Runs the AMR loop with full tracing, clean and fault-perturbed, and
/// exports both Chrome traces. The critical path is checked against the
/// engine's makespan — the trace is not a second clock, it is the same one.
fn traced_amr_demo(cfg: &RunConfig, path: &str) {
    let amr = AmrConfig {
        steps: 4,
        max_level: 4,
        matvecs_per_step: 3,
        strategy: Strategy::OptiPart,
        ..Default::default()
    };
    let perf = || {
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        )
    };
    let faults = FaultPlan::new(cfg.seed)
        .with_stragglers(0.25, 4.0)
        .with_tw_jitter(0.4)
        .with_transient_failures(0.2)
        .with_retry_policy(4, 1e-4);
    let faults_path = match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}-faults.{ext}"),
        None => format!("{path}-faults"),
    };
    for (label, out, plan) in [
        ("clean", path, None),
        ("faults", faults_path.as_str(), Some(faults)),
    ] {
        let mut e = Engine::new(8, perf()).with_tracing();
        if let Some(plan) = plan {
            e = e.with_faults(plan);
        }
        let rep = amr_simulation(&mut e, &amr);
        std::fs::write(out, e.trace_json()).expect("write trace");
        eprintln!(
            "\n== traced AMR ({label}): {} steps, {:.3} ms simulated, trace -> {out} ==",
            rep.steps.len(),
            rep.total_seconds * 1e3
        );
        let cp = e.critical_path();
        assert!(
            (cp.covered_s() - e.makespan()).abs() <= 1e-9 * e.makespan().max(1.0),
            "critical path ({}) must tile the makespan ({})",
            cp.covered_s(),
            e.makespan()
        );
        println!("{}", cp.render());
        println!("{}", e.model_attribution().render());
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: figures <fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|all>... \
         [ablations] [recovery] [hier] [scaling] [--scale X] [--seed N] [--max-p P] \
         [--out DIR] [--trace FILE]"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}
