//! Demo of the fault-injection API: partition the same mesh on a clean and
//! a perturbed virtual machine and compare what the faults cost. Faults
//! change the cost (makespan, retries), never the chosen tolerance: OptiPart
//! decides from the performance model, not from the perturbed clocks.
//!
//! ```text
//! cargo run --release --example fault_demo [seed]
//! ```

use optipart::core::optipart::{optipart, OptiPartOptions};
use optipart::core::partition::distribute_tree;
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::{Engine, FaultPlan};
use optipart::octree::MeshParams;
use optipart::sfc::Curve;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(86);
    let p = 16;
    let tree = MeshParams::normal(6_000, seed).build::<3>(Curve::Hilbert);
    let opts = OptiPartOptions::default();
    let perf = || {
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        )
    };

    let mut clean = Engine::new(p, perf());
    let out_clean = optipart(&mut clean, distribute_tree(&tree, p), opts);

    let plan = FaultPlan::new(seed)
        .with_stragglers(0.25, 20.0)
        .with_tw_jitter(0.3)
        .with_transient_failures(0.2);
    let mut faulty = Engine::new(p, perf()).with_faults(plan);
    let out_faulty = optipart(&mut faulty, distribute_tree(&tree, p), opts);

    println!("mesh: {} cells, p = {p}, seed {seed}", tree.len());
    println!(
        "{:<10} {:>10} {:>12} {:>9} {:>8}",
        "machine", "tolerance", "makespan_s", "retries", "audits"
    );
    for (label, e, out) in [
        ("clean", &clean, &out_clean),
        ("faulty", &faulty, &out_faulty),
    ] {
        println!(
            "{label:<10} {:>10.4} {:>12.6} {:>9} {:>8}",
            out.report.achieved_tolerance,
            e.makespan(),
            e.stats().retries_total,
            e.stats().audited_collectives,
        );
    }
    let stragglers = faulty
        .rank_faults()
        .map(|f| f.straggler_ranks())
        .unwrap_or_default();
    println!("straggling ranks (20x slower): {stragglers:?}");
}
