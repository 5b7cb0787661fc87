//! Ablation studies for the design choices DESIGN.md §4 lists.
//!
//! Not figures from the paper, but experiments that probe its design
//! decisions:
//!
//! * **Staged splitter selection** (Eq. 2): sweep the per-round splitter cap
//!   `k` and measure splitter-phase time and rounds. The paper's argument:
//!   `k ≤ p` trades more rounds for cheaper reductions, `(ts + tw·k)·log p`.
//! * **Hypercube-staged vs direct all-to-all** (§3.1): the same exchange
//!   under both schedules across `p`, showing where staging's latency
//!   advantage overtakes the volume it forwards through intermediate ranks.
//! * **Curve choice at fixed tolerance**: Hilbert vs Morton partition
//!   quality (Cmax, NNZ) at the OptiPart-chosen operating point.

use crate::common::{engine, fmt, mesh, RunConfig, Table};
use optipart_core::metrics::{assignment, communication_matrix};
use optipart_core::partition::{
    distribute_shuffled, treesort_partition, PartitionOptions, PHASE_SPLITTER,
};
use optipart_machine::MachineModel;
use optipart_mpisim::AllToAllAlgo;
use optipart_sfc::Curve;

/// Staged splitter-cap sweep (Eq. 2's `k`).
pub fn run_staging(cfg: &RunConfig) {
    let p = 512;
    let n = cfg.n(200_000, 5_000);
    let tree = mesh(n, cfg.seed, Curve::Hilbert);
    let mut table = Table::new(
        "ablation_splitter_staging",
        &["k_cap", "rounds", "splitter_s", "total_s"],
    );
    eprintln!("ablation: splitter staging, p = {p}, {n} generator points");
    for k in [64usize, 256, 1024, usize::MAX] {
        let mut e = engine(MachineModel::titan(), p);
        let out = treesort_partition(
            &mut e,
            distribute_shuffled(&tree, p, cfg.seed),
            PartitionOptions {
                max_split_per_round: if k == usize::MAX { None } else { Some(k) },
                ..PartitionOptions::exact()
            },
        );
        table.row(vec![
            if k == usize::MAX {
                "unlimited".into()
            } else {
                k.to_string()
            },
            out.report.rounds.to_string(),
            fmt(e.phase_time(PHASE_SPLITTER)),
            fmt(e.makespan()),
        ]);
    }
    table.emit(cfg);
}

/// Hypercube-staged vs direct all-to-all across p.
pub fn run_alltoall(cfg: &RunConfig) {
    let grain = cfg.n(1_000, 100);
    let mut table = Table::new("ablation_alltoall_schedule", &["p", "algo", "all2all_s"]);
    eprintln!("ablation: all-to-all schedule, grain = {grain}");
    for p in [16usize, 128, 1024] {
        let tree = mesh(grain * p, cfg.seed, Curve::Hilbert);
        for algo in [AllToAllAlgo::Direct, AllToAllAlgo::Hypercube] {
            let mut e = engine(MachineModel::titan(), p);
            let _ = treesort_partition(
                &mut e,
                distribute_shuffled(&tree, p, cfg.seed),
                PartitionOptions {
                    alltoall: algo,
                    ..PartitionOptions::exact()
                },
            );
            table.row(vec![
                p.to_string(),
                format!("{algo:?}").to_lowercase(),
                fmt(e.phase_time(optipart_core::partition::PHASE_ALL2ALL)),
            ]);
        }
    }
    table.emit(cfg);
}

/// Hilbert vs Morton partition quality at fixed tolerances.
pub fn run_curves(cfg: &RunConfig) {
    let p = 64;
    let n = cfg.n(200_000, 5_000);
    let mut table = Table::new(
        "ablation_curve_quality",
        &["curve", "tolerance", "lambda", "nnz", "ghost_elements"],
    );
    eprintln!("ablation: curve quality, p = {p}, {n} generator points");
    for curve in Curve::ALL {
        let tree = mesh(n, cfg.seed, curve);
        for tol in [0.0, 0.3] {
            let mut e = engine(MachineModel::cloudlab_wisconsin(), p);
            let out = treesort_partition(
                &mut e,
                distribute_shuffled(&tree, p, cfg.seed),
                PartitionOptions::with_tolerance(tol),
            );
            let assign = assignment(&tree, &out.splitters);
            let m = communication_matrix(&tree, &assign, p);
            table.row(vec![
                curve.name().into(),
                fmt(tol),
                fmt(out.report.lambda),
                m.nnz().to_string(),
                m.total_bytes().to_string(),
            ]);
        }
    }
    table.emit(cfg);
}

/// All ablations.
pub fn run(cfg: &RunConfig) {
    run_staging(cfg);
    run_alltoall(cfg);
    run_curves(cfg);
}
