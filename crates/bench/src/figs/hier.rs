//! Hierarchy demo — OptiPart on a two-level machine vs the flat model.
//!
//! The flat Eq. (3) charges every boundary byte the inter-node `tw`, so the
//! ladder minimises the *total* bottleneck surface. A two-level machine
//! discounts on-node bytes to `tw_intra`, so the same ladder — unchanged
//! code, different [`PerfModel`] — descends a different cost surface and
//! settles on partitions whose heavy surfaces stay inside a node. This
//! module measures the inter-node ghost traffic (the §5.5 communication
//! matrix restricted to node-crossing entries) of the partition each model
//! selects on the same skewed mesh, and reports the reduction the
//! hierarchy buys. The pinned [`demo`] configuration feeds the
//! `hier_inter_bytes_reduction` derived entry of `BENCH_*.json`.

use crate::common::{fmt, RunConfig, Table};
use optipart_core::metrics::{assignment, communication_matrix};
use optipart_core::optipart::{optipart, OptiPartOptions};
use optipart_core::partition::distribute_tree;
use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::{CommMatrix, Engine};
use optipart_octree::{Distribution, MeshParams};
use optipart_sfc::Curve;

/// One flat-vs-hierarchical comparison on a fixed mesh.
#[derive(Clone, Copy, Debug)]
pub struct HierPoint {
    /// Mesh seed.
    pub seed: u64,
    /// Inter-node ghost bytes of the flat model's chosen partition.
    pub inter_flat: u64,
    /// Inter-node ghost bytes of the two-level model's chosen partition.
    pub inter_hier: u64,
    /// Total ghost bytes of the flat choice.
    pub total_flat: u64,
    /// Total ghost bytes of the hierarchical choice.
    pub total_hier: u64,
    /// `1 − inter_hier / inter_flat`.
    pub reduction: f64,
}

/// Ghost-exchange bytes crossing a node boundary under the block rank →
/// node placement (`node = rank / ranks_per_node` — the engine's own map).
fn inter_node_bytes(m: &CommMatrix, ranks_per_node: usize) -> u64 {
    m.entries()
        .filter(|(src, dst, _)| src / ranks_per_node != dst / ranks_per_node)
        .map(|(_, _, b)| b)
        .sum()
}

/// The demo machine: CloudLab-Wisconsin interconnect figures (the
/// highest-`tw/tc` machine of §4, where the tolerance optimum is most
/// pronounced) with a configurable node width.
fn demo_machine(ranks_per_node: usize) -> MachineModel {
    let w = MachineModel::cloudlab_wisconsin();
    MachineModel::custom("hier-demo", w.tc, w.ts, w.tw, ranks_per_node)
}

/// Runs OptiPart under `machine` and returns the §5.5 ghost matrix of the
/// partition it selects.
fn matrix_for(
    machine: MachineModel,
    tree: &optipart_octree::LinearTree<3>,
    p: usize,
    opts: OptiPartOptions,
) -> CommMatrix {
    let mut e = Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()));
    let out = optipart(&mut e, distribute_tree(tree, p), opts);
    let assign = assignment(tree, &out.splitters);
    communication_matrix(tree, &assign, p)
}

/// One measured point: the same skewed (log-normal, Hilbert-ordered) mesh
/// partitioned under the flat demo machine and under its SMP hierarchy
/// (`tw_intra = tw / 64`) — same ladder options, only the machine differs.
pub fn measure(n: usize, p: usize, ranks_per_node: usize, seed: u64) -> HierPoint {
    let tree = MeshParams {
        distribution: Distribution::LogNormal,
        num_points: n,
        seed,
    }
    .build::<3>(Curve::Hilbert);
    let opts = OptiPartOptions::default();
    let flat = matrix_for(demo_machine(ranks_per_node), &tree, p, opts);
    let hier = matrix_for(
        demo_machine(ranks_per_node).hierarchical_smp(),
        &tree,
        p,
        opts,
    );
    let (inter_flat, inter_hier) = (
        inter_node_bytes(&flat, ranks_per_node),
        inter_node_bytes(&hier, ranks_per_node),
    );
    HierPoint {
        seed,
        inter_flat,
        inter_hier,
        total_flat: flat.total_bytes(),
        total_hier: hier.total_bytes(),
        reduction: 1.0 - inter_hier as f64 / inter_flat.max(1) as f64,
    }
}

/// The pinned configuration recorded in `BENCH_*.json` as
/// `hier_inter_bytes_reduction`: a log-normal (corner-skewed) mesh on a
/// 16-rank, 8-per-node Wisconsin-class machine. The flat model descends
/// the ladder to near-exact balance; the two-level model keeps the coarse
/// rung whose node-boundary splitter sits on a coarse subtree boundary,
/// cutting node-crossing ghost bytes by over a fifth.
pub fn demo() -> HierPoint {
    measure(5_000, 16, 8, 37)
}

/// The `figures hier` sweep: several seeds of the demo configuration.
pub fn run(cfg: &RunConfig) {
    let p = 16;
    let rpn = 8;
    let n = cfg.n(5_000, 1_000);
    eprintln!("hier: OptiPart flat vs two-level, p = {p}, {rpn} ranks/node, {n} points");
    let mut table = Table::new(
        "hier_inter_bytes",
        &[
            "seed",
            "inter_flat",
            "inter_hier",
            "total_flat",
            "total_hier",
            "reduction",
        ],
    );
    for s in 0..6u64 {
        let pt = measure(n, p, rpn, cfg.seed + s);
        table.row(vec![
            format!("{}", pt.seed),
            format!("{}", pt.inter_flat),
            format!("{}", pt.inter_hier),
            format!("{}", pt.total_flat),
            format!("{}", pt.total_hier),
            fmt(pt.reduction),
        ]);
    }
    table.emit(cfg);
}
