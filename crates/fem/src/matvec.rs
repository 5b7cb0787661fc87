//! The Laplacian matvec with halo exchange — the measured kernel of §5.4.
//!
//! One matvec is one arena exchange: every `send_to` list is one segment of
//! an [`AlltoallvArena`], and because the arena delivers in `(dst, src,
//! submission)` order while `recv_from` is sorted by owner, rank `r`'s ghost
//! array *is* the arena's contiguous receive slice for `r`.

use crate::mesh::{DistMesh, Slot};
use optipart_mpisim::{AllToAllAlgo, AlltoallvArena, DistVec, Engine};

/// Phase label for the halo exchange (communication share of the matvec).
pub const PHASE_GHOST: &str = "matvec_ghost";
/// Phase label for the stencil application.
pub const PHASE_STENCIL: &str = "matvec_stencil";

/// Traffic summary of one matvec.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatvecStats {
    /// Ghost values moved (elements).
    pub ghost_elements: u64,
    /// Simulated seconds this matvec took (makespan delta).
    pub seconds: f64,
}

/// Applies the FV Laplacian: `y = A x` with
/// `(Ax)_i = diag_i·x_i − Σ_f κ_f·x_{nbr(f)}`.
///
/// One halo exchange ([`AllToAllAlgo::Hypercube`]-staged, so the ghost
/// traffic rides the same sparse neighbourhood schedule as the partitioner
/// exchanges) followed by the stencil pass, which is charged `α ≈ 2D+2`
/// memory accesses per element — the paper's "7-point stencil ⇒ α ∼ 8".
pub fn laplacian_matvec<const D: usize>(
    engine: &mut Engine,
    mesh: &DistMesh<D>,
    x: &mut DistVec<f64>,
) -> (DistVec<f64>, MatvecStats) {
    assert_eq!(x.p(), mesh.p());
    let t0 = engine.makespan();
    let locals = &mesh.locals;

    // Halo exchange: each owner gathers the values its requesters asked
    // for, one segment per link (sparse — a rank only talks to its
    // geometric neighbours).
    let sends = || locals.iter().flat_map(|lm| &lm.send_to);
    let ghost_elements: usize = sends().map(|(_, list)| list.len()).sum();
    let mut halo = AlltoallvArena::with_capacity(ghost_elements, sends().count());
    engine.phase(PHASE_GHOST, |e| {
        e.compute(x, |r, _| {
            let touched: usize = locals[r].send_to.iter().map(|(_, l)| l.len()).sum();
            touched as f64 * 8.0
        });
        for (r, lm) in locals.iter().enumerate() {
            let buf = x.rank(r);
            for (req, list) in &lm.send_to {
                halo.send(r, *req, list.iter().map(|&i| buf[i as usize]));
            }
        }
    });
    engine.phase(PHASE_GHOST, |e| {
        e.alltoallv_flat(&mut halo, AllToAllAlgo::Hypercube)
    });

    // Stencil pass.
    let alpha = (2 * D + 2) as f64;
    let ys: Vec<Vec<f64>> = engine.phase(PHASE_STENCIL, |e| {
        e.compute_map(x, |r, buf| {
            let lm = &locals[r];
            // Owners reply with exactly the requested lists, in owner
            // order: the delivered slice is the ghost array.
            let gh = halo.recv_for(r);
            debug_assert_eq!(gh.len(), lm.num_ghosts, "halo reply length mismatch");
            let mut y = vec![0.0f64; buf.len()];
            for (i, yi) in y.iter_mut().enumerate() {
                let mut acc = lm.diag[i] * buf[i];
                for &(slot, k) in &lm.entries[i] {
                    let v = match slot {
                        Slot::Local(j) => buf[j as usize],
                        Slot::Ghost(g) => gh[g as usize],
                    };
                    acc -= k * v;
                }
                *yi = acc;
            }
            (buf.len() as f64 * 8.0 * alpha, y)
        })
    });

    let stats = MatvecStats {
        ghost_elements: ghost_elements as u64,
        seconds: engine.makespan() - t0,
    };
    (DistVec::from_parts(ys), stats)
}

/// Distributed dot product `xᵀ y` (one all-reduce).
pub fn dot(engine: &mut Engine, x: &mut DistVec<f64>, y: &DistVec<f64>) -> f64 {
    let parts = y.parts();
    let local: Vec<f64> = engine.compute_map(x, |r, buf| {
        let s: f64 = buf.iter().zip(&parts[r]).map(|(a, b)| a * b).sum();
        (buf.len() as f64 * 16.0, s)
    });
    engine.allreduce_sum_f64(&local)
}

/// Distributed squared norm `xᵀ x` (one all-reduce).
pub fn norm2(engine: &mut Engine, x: &mut DistVec<f64>) -> f64 {
    let local: Vec<f64> = engine.compute_map(x, |_r, buf| {
        let s: f64 = buf.iter().map(|a| a * a).sum();
        (buf.len() as f64 * 8.0, s)
    });
    engine.allreduce_sum_f64(&local)
}

/// `y ← y + a·x` (axpy), charged as streaming traffic.
pub fn axpy(engine: &mut Engine, a: f64, x: &DistVec<f64>, y: &mut DistVec<f64>) {
    let parts = x.parts();
    engine.compute(y, |r, buf| {
        for (yi, xi) in buf.iter_mut().zip(&parts[r]) {
            *yi += a * xi;
        }
        buf.len() as f64 * 24.0
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_core::partition::{distribute_tree, treesort_partition, PartitionOptions};
    use optipart_machine::{AppModel, MachineModel, PerfModel};
    use optipart_octree::{balance::balance21, LinearTree, MeshParams};
    use optipart_sfc::Curve;

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(
                MachineModel::cloudlab_wisconsin(),
                AppModel::laplacian_matvec(),
            ),
        )
        .record_comm_matrix()
    }

    fn build_mesh(tree: &LinearTree<3>, p: usize, tol: f64) -> (Engine, DistMesh<3>) {
        let mut e = engine(p);
        let out = treesort_partition(
            &mut e,
            distribute_tree(tree, p),
            PartitionOptions::with_tolerance(tol),
        );
        let mesh = DistMesh::build(&mut e, out.dist, tree.curve());
        (e, mesh)
    }

    fn uniform_tree(level: u8) -> LinearTree<3> {
        LinearTree::root(Curve::Hilbert).refine_where(|c| c.level() < level, level)
    }

    #[test]
    fn constant_vector_yields_boundary_only_residual() {
        // For x ≡ 1, interior fluxes cancel: (Ax)_i equals the Dirichlet
        // boundary κ of cell i. Interior cells give exactly 0.
        let tree = uniform_tree(2);
        let (mut e, mesh) = build_mesh(&tree, 4, 0.0);
        let mut x =
            DistVec::from_parts(mesh.cells.counts().iter().map(|&c| vec![1.0; c]).collect());
        let (y, _) = laplacian_matvec(&mut e, &mesh, &mut x);
        for (r, buf) in y.parts().iter().enumerate() {
            for (i, &v) in buf.iter().enumerate() {
                let cell = mesh.cells.rank(r)[i].cell;
                let on_boundary = (0..3).any(|ax| {
                    cell.face_neighbor(ax, -1).is_none() || cell.face_neighbor(ax, 1).is_none()
                });
                if on_boundary {
                    assert!(v > 0.0, "boundary cell must feel Dirichlet");
                } else {
                    assert!(v.abs() < 1e-9, "interior residual {v}");
                }
            }
        }
    }

    #[test]
    fn matvec_matches_single_rank_reference() {
        // The same operator on p=1 and p=6 must agree (communication is an
        // implementation detail, not a semantic one).
        let tree = balance21(&MeshParams::normal(400, 91).build::<3>(Curve::Hilbert));
        let n = tree.len();
        // Deterministic input: value = f(cell center).
        let val = |c: &optipart_sfc::Cell3| {
            let ctr = c.center_unit();
            (ctr[0] * 3.1).sin() + ctr[1] * ctr[2]
        };

        let run = |p: usize| -> Vec<(optipart_sfc::SfcKey, f64)> {
            let (mut e, mesh) = build_mesh(&tree, p, 0.0);
            let mut x = DistVec::from_parts(
                (0..p)
                    .map(|r| mesh.cells.rank(r).iter().map(|kc| val(&kc.cell)).collect())
                    .collect(),
            );
            let (y, _) = laplacian_matvec(&mut e, &mesh, &mut x);
            let mut out = Vec::with_capacity(n);
            for r in 0..p {
                for (kc, v) in mesh.cells.rank(r).iter().zip(y.rank(r)) {
                    out.push((kc.key, *v));
                }
            }
            out
        };

        let seq = run(1);
        let par = run(6);
        assert_eq!(seq.len(), par.len());
        for ((k1, v1), (k2, v2)) in seq.iter().zip(&par) {
            assert_eq!(k1, k2);
            assert!(
                (v1 - v2).abs() <= 1e-9 * (1.0 + v1.abs()),
                "mismatch at {k1:?}: {v1} vs {v2}"
            );
        }
    }

    #[test]
    fn operator_is_symmetric() {
        // xᵀ(Ay) == yᵀ(Ax) for random-ish x, y.
        let tree = balance21(&MeshParams::normal(300, 97).build::<3>(Curve::Hilbert));
        let (mut e, mesh) = build_mesh(&tree, 4, 0.0);
        let f1 = |c: &optipart_sfc::Cell3| c.center_unit()[0] - 0.3;
        let f2 = |c: &optipart_sfc::Cell3| (c.center_unit()[1] * 7.0).cos();
        let mk = |f: &dyn Fn(&optipart_sfc::Cell3) -> f64| {
            DistVec::from_parts(
                (0..4)
                    .map(|r| mesh.cells.rank(r).iter().map(|kc| f(&kc.cell)).collect())
                    .collect(),
            )
        };
        let mut x = mk(&f1);
        let mut y = mk(&f2);
        let (ax, _) = laplacian_matvec(&mut e, &mesh, &mut x);
        let (ay, _) = laplacian_matvec(&mut e, &mesh, &mut y);
        let xay = dot(&mut e, &mut x, &ay);
        let yax = dot(&mut e, &mut y, &ax);
        assert!(
            (xay - yax).abs() <= 1e-9 * (1.0 + xay.abs()),
            "not symmetric: {xay} vs {yax}"
        );
    }

    #[test]
    fn ghost_traffic_positive_and_recorded() {
        let tree = uniform_tree(3);
        let (mut e, mesh) = build_mesh(&tree, 8, 0.0);
        let mut x =
            DistVec::from_parts(mesh.cells.counts().iter().map(|&c| vec![1.0; c]).collect());
        let before = e.stats().bytes_total;
        let (_, stats) = laplacian_matvec(&mut e, &mesh, &mut x);
        assert!(stats.ghost_elements > 0);
        assert!(e.stats().bytes_total > before);
        assert!(e.comm_matrix().unwrap().nnz() > 0);
    }

    #[test]
    fn dot_and_axpy_basics() {
        let mut e = engine(3);
        let mut x = DistVec::from_parts(vec![vec![1.0, 2.0], vec![3.0], vec![4.0]]);
        let y = DistVec::from_parts(vec![vec![1.0, 1.0], vec![1.0], vec![0.5]]);
        assert!((dot(&mut e, &mut x, &y) - 8.0).abs() < 1e-12);
        let mut z = y.clone();
        axpy(&mut e, 2.0, &x, &mut z);
        assert_eq!(z.rank(0), &vec![3.0, 5.0]);
        assert_eq!(z.rank(2), &vec![8.5]);
    }
}
