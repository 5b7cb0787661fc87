//! Fig. 6 — OptiPart vs SampleSort (Dendro) weak-scaling breakdown on
//! Stampede and Titan.
//!
//! Paper: grain 10⁶ octants on Stampede (p ≤ 4096) and 5×10⁶ on Titan
//! (p ≤ 32768); bars split into local sort / all2all / splitter. OptiPart's
//! count-based splitter selection scales better than SampleSort's
//! `O(p²)`-sample gather, and the overall times are comparable — the
//! "incorporating the machine model costs nothing" takeaway.

use crate::common::{engine, fmt, mesh, RunConfig, Table};
use optipart_core::optipart::{optipart, OptiPartOptions};
use optipart_core::partition::{
    distribute_shuffled, PHASE_ALL2ALL, PHASE_LOCAL_SORT, PHASE_SPLITTER,
};
use optipart_core::samplesort::samplesort_partition;
use optipart_machine::MachineModel;
use optipart_sfc::Curve;

/// Runs the comparison on both machines. Default grain 2,000 elements/rank.
pub fn run(cfg: &RunConfig) {
    let grain = cfg.n(2_000, 200);
    let ps = [16usize, 64, 256, 1024];
    let mut table = Table::new(
        "fig6_optipart_vs_samplesort",
        &[
            "machine",
            "algo",
            "p",
            "local_s",
            "all2all_s",
            "splitter_s",
            "total_s",
        ],
    );
    eprintln!("fig6: weak scaling breakdown, grain = {grain}");

    for machine in [MachineModel::stampede(), MachineModel::titan()] {
        for &p in &ps {
            let tree = mesh(grain * p, cfg.seed, Curve::Morton);
            // OptiPart (Morton, like Dendro, for apples-to-apples).
            {
                let mut e = engine(machine.clone(), p);
                let _ = optipart(
                    &mut e,
                    distribute_shuffled(&tree, p, cfg.seed),
                    OptiPartOptions::for_curve(Curve::Morton),
                );
                table.row(vec![
                    machine.name.clone(),
                    "optipart".into(),
                    p.to_string(),
                    fmt(e.phase_time(PHASE_LOCAL_SORT)),
                    fmt(e.phase_time(PHASE_ALL2ALL)),
                    fmt(e.phase_time(PHASE_SPLITTER)),
                    fmt(e.makespan()),
                ]);
            }
            // Dendro-style Morton + SampleSort.
            {
                let mut e = engine(machine.clone(), p);
                let _ = samplesort_partition(&mut e, distribute_shuffled(&tree, p, cfg.seed));
                table.row(vec![
                    machine.name.clone(),
                    "samplesort".into(),
                    p.to_string(),
                    fmt(e.phase_time(PHASE_LOCAL_SORT)),
                    fmt(e.phase_time(PHASE_ALL2ALL)),
                    fmt(e.phase_time(PHASE_SPLITTER)),
                    fmt(e.makespan()),
                ]);
            }
        }
    }
    table.emit(cfg);
}
