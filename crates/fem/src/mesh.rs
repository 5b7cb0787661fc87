//! Distributed octree mesh with ghost layers and FV Laplacian coefficients.
//!
//! Built from a partitioned linear octree (the output of any of the
//! `optipart-core` partitioners). Construction is three exchanges, each one
//! [`AlltoallvArena`] (so each `Alltoallv` is one arena exchange, delivered
//! grouped by destination, then source):
//!
//! 1. every rank probes the sample points behind each face of each local
//!    cell; probes whose owner (by splitter lookup) is remote are shipped to
//!    that owner, one segment per owner;
//! 2. owners resolve each probe to their local leaf and reply with the leaf
//!    cell and its local index, one segment per probe segment; requesters
//!    sort and deduplicate each owner's reply into a static ghost receive
//!    list and attach the couplings;
//! 3. the receive lists travel to their owners and become the symmetric
//!    send lists.
//!
//! The per-face coupling coefficient is the finite-volume transmissibility
//! `κ = A_f / d` (shared face area over centre distance, in unit-cube
//! units); domain-boundary faces contribute `κ` to the diagonal, realising
//! zero Dirichlet conditions and making the operator symmetric positive
//! definite.

use optipart_core::partition::owner_of;
use optipart_mpisim::{par, AllToAllAlgo, AlltoallvArena, DistVec, Engine, Wire};
use optipart_octree::neighbors::overlapping_leaves_keyed;
use optipart_sfc::{Cell, Curve, KeyedCell, SfcKey, MAX_DEPTH};

/// Reference to a neighbour value slot in the matvec working set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Index into the rank's own value vector.
    Local(u32),
    /// Index into the rank's ghost value array (filled by the halo
    /// exchange, ordered by `recv_from`).
    Ghost(u32),
}

/// One rank's share of the distributed mesh.
#[derive(Clone, Debug, Default)]
pub struct LocalMesh {
    /// Off-diagonal couplings per local cell: `(neighbour slot, κ)`.
    pub entries: Vec<Vec<(Slot, f64)>>,
    /// Diagonal per local cell: `Σ κ` over all faces incl. Dirichlet
    /// boundary faces.
    pub diag: Vec<f64>,
    /// Ghost receive lists: `(owner rank, remote local indices)`, sorted by
    /// rank and, within a rank, by index; ghost slot `g` is position `g` in
    /// their concatenation.
    pub recv_from: Vec<(usize, Vec<u32>)>,
    /// Ghost send lists: `(requester rank, local indices)`, mirroring the
    /// requesters' `recv_from` entry for this rank, order preserved.
    pub send_to: Vec<(usize, Vec<u32>)>,
    /// Total ghost slots.
    pub num_ghosts: usize,
}

/// A distributed mesh: partitioned cells + per-rank structure.
#[derive(Clone, Debug)]
pub struct DistMesh<const D: usize> {
    /// Curve the cells are keyed with.
    pub curve: Curve,
    /// Partitioned, SFC-sorted cells.
    pub cells: DistVec<KeyedCell<D>>,
    /// Leaf-aligned splitters (snapped to first element per rank).
    pub splitters: Vec<SfcKey>,
    /// Per-rank mesh structure.
    pub locals: Vec<LocalMesh>,
}

/// A ghost probe: a sample point plus the local cell/face it came from.
#[derive(Clone, Copy, Debug)]
struct Probe<const D: usize> {
    point: [u32; D],
    src_cell: u32,
}

/// Four bytes per coordinate plus the source cell index.
impl<const D: usize> Wire for Probe<D> {
    const BYTES: u64 = 4 * (D as u64 + 1);
}

/// A resolved probe: the owner's leaf covering the point.
#[derive(Clone, Copy, Debug)]
struct Resolved<const D: usize> {
    src_cell: u32,
    leaf_idx: u32,
    leaf: Cell<D>,
}

/// Two indices plus a cell: `D` coordinates and a level padded to a word.
impl<const D: usize> Wire for Resolved<D> {
    const BYTES: u64 = 4 * (D as u64 + 3);
}

impl<const D: usize> DistMesh<D> {
    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.cells.p()
    }

    /// Global element count.
    pub fn total_cells(&self) -> usize {
        self.cells.total_len()
    }

    /// Builds the distributed mesh from partitioned cells.
    ///
    /// `cells` must be SFC-sorted per rank with contiguous global ranges in
    /// rank order — exactly what the partitioners produce.
    pub fn build(engine: &mut Engine, cells: DistVec<KeyedCell<D>>, curve: Curve) -> Self {
        let p = engine.p();
        let mut cells = cells;

        // Leaf-aligned splitters: the first key on each rank (empty ranks
        // inherit the next non-empty rank's key).
        let firsts: Vec<Vec<SfcKey>> = engine.compute_map(&mut cells, |_r, buf| {
            (
                0.0,
                buf.first().map(|kc| kc.key).into_iter().collect::<Vec<_>>(),
            )
        });
        let flat: Vec<Option<SfcKey>> = firsts.iter().map(|v| v.first().copied()).collect();
        let gathered = engine.allgather(
            &flat
                .iter()
                .map(|o| o.map(|k| vec![k]).unwrap_or_default())
                .collect::<Vec<_>>(),
        );
        // gathered holds first-keys of non-empty ranks in rank order; rebuild
        // the p-1 splitters by walking ranks.
        let mut splitters = Vec::with_capacity(p.saturating_sub(1));
        let mut gi = 0usize;
        for (r, has_first) in flat.iter().enumerate() {
            let key = if has_first.is_some() {
                let k = gathered[gi];
                gi += 1;
                Some(k)
            } else {
                None
            };
            if r > 0 {
                splitters.push(key.unwrap_or(SfcKey::MAX));
            }
        }
        // Empty-rank gaps: make splitters monotone from the right.
        for i in (0..splitters.len().saturating_sub(1)).rev() {
            if splitters[i] > splitters[i + 1] {
                splitters[i] = splitters[i + 1];
            }
        }

        // ---- Phase 1: local adjacency + probe generation ----------------
        // Per rank: the local mesh, its probes sorted by owner (cell order
        // kept within an owner) and the `(owner, count)` runs of that order.
        let elem_bytes = KeyedCell::<D>::BYTES as f64;
        let sp = &splitters;
        #[allow(clippy::type_complexity)]
        let phase1: Vec<(LocalMesh, Vec<Probe<D>>, Vec<(u32, u32)>)> =
            engine.compute_map(&mut cells, |r, buf| {
                let mut lm = LocalMesh {
                    entries: vec![Vec::new(); buf.len()],
                    diag: vec![0.0; buf.len()],
                    ..Default::default()
                };
                // Rank r owns keys in [lo_r, hi_r).
                let lo_r = if r == 0 { SfcKey::MIN } else { sp[r - 1] };
                let hi_r = if r == p - 1 { SfcKey::MAX } else { sp[r] };
                let mut found: Vec<(u32, Probe<D>)> = Vec::new();
                for (i, kc) in buf.iter().enumerate() {
                    for axis in 0..D {
                        for dir in [-1i8, 1] {
                            match kc.cell.face_neighbor(axis, dir) {
                                None => {
                                    // Domain boundary: Dirichlet-0 flux.
                                    lm.diag[i] += boundary_kappa(&kc.cell);
                                }
                                Some(region) => {
                                    // One key computation per face; the
                                    // region's whole subtree occupies the
                                    // contiguous path range [key, key+span).
                                    let key = SfcKey::of(&region, curve);
                                    let span =
                                        1u128 << ((MAX_DEPTH - region.level()) as u32 * D as u32);
                                    let key_hi =
                                        SfcKey::from_parts(key.path() + (span - 1), u8::MAX);
                                    let fully_local = lo_r <= key && key_hi < hi_r;
                                    if fully_local {
                                        for j in overlapping_leaves_keyed(buf, &region, key) {
                                            let nb = buf[j].cell;
                                            if kc.cell.shares_face_with(&nb) {
                                                let k = kappa(&kc.cell, &nb);
                                                lm.entries[i].push((Slot::Local(j as u32), k));
                                                lm.diag[i] += k;
                                            }
                                        }
                                    } else {
                                        for point in face_probes(&region, axis, dir) {
                                            let key =
                                                SfcKey::of(&Cell::<D>::from_point(point), curve);
                                            let src_cell = i as u32;
                                            found.push((
                                                owner_of(sp, &key) as u32,
                                                Probe { point, src_cell },
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                found.sort_by_key(|&(owner, _)| owner);
                let mut runs: Vec<(u32, u32)> = Vec::new();
                for &(owner, _) in &found {
                    match runs.last_mut() {
                        Some((o, len)) if *o == owner => *len += 1,
                        _ => runs.push((owner, 1)),
                    }
                }
                let probes = found.iter().map(|&(_, pr)| pr).collect();
                let cost = buf.len() as f64 * elem_bytes * (2 * D) as f64;
                (cost, (lm, probes, runs))
            });

        // ---- Phase 2: ship probes, resolve, reply ------------------------
        let mut probes = AlltoallvArena::with_capacity(
            phase1.iter().map(|(_, probes, _)| probes.len()).sum(),
            phase1.iter().map(|(_, _, runs)| runs.len()).sum(),
        );
        let mut locals: Vec<LocalMesh> = Vec::with_capacity(p);
        for (r, (lm, mine, runs)) in phase1.into_iter().enumerate() {
            locals.push(lm);
            let mut rest = mine.as_slice();
            for (owner, len) in runs {
                let (run, tail) = rest.split_at(len as usize);
                probes.send(r, owner as usize, run.iter().copied());
                rest = tail;
            }
        }
        engine.alltoallv_flat(&mut probes, AllToAllAlgo::Hypercube);
        probes.release_send();

        // Owners resolve their whole delivered slice in parallel (read-only
        // on cells): the covering leaf's index per probe, `UNRESOLVED` where
        // the point falls outside the owner's leaves.
        const UNRESOLVED: u32 = u32::MAX;
        let leaf_of: Vec<Vec<u32>> = par::par_map_mut(cells.parts_mut(), |owner, buf| {
            let resolve = |pr: &Probe<D>| {
                let key = SfcKey::of(&Cell::<D>::from_point(pr.point), curve);
                match buf.partition_point(|kc| kc.key <= key).checked_sub(1) {
                    Some(j) if buf[j].cell.contains_point(pr.point) => j as u32,
                    _ => UNRESOLVED,
                }
            };
            probes.recv_for(owner).iter().map(resolve).collect()
        });
        // One reply segment per probe segment, unresolved probes dropped.
        // `leaf_of` read owner by owner is the delivered pool's own order,
        // which the segments tile.
        let mut replies = AlltoallvArena::with_capacity(
            leaf_of
                .iter()
                .flatten()
                .filter(|&&j| j != UNRESOLVED)
                .count(),
            probes.recv().count(),
        );
        let mut leaves = leaf_of.iter().flatten();
        for (src, owner, seg) in probes.recv() {
            let buf = cells.rank(owner);
            let hits = seg.iter().zip(leaves.by_ref());
            replies.send(
                owner,
                src,
                hits.filter(|(_, &j)| j != UNRESOLVED)
                    .map(|(pr, &j)| Resolved {
                        src_cell: pr.src_cell,
                        leaf_idx: j,
                        leaf: buf[j as usize].cell,
                    }),
            );
        }
        drop((probes, leaf_of));
        engine.alltoallv_flat(&mut replies, AllToAllAlgo::Hypercube);
        replies.release_send();

        // ---- Phase 3: assemble ghost lists and remote couplings ----------
        // Replies arrive grouped by requester, then owner, one segment per
        // link, each in the requester's cell order — so an owner's ghosts
        // are final when its segment ends, and duplicates of one
        // (cell, leaf) pair sit within that cell's run of the segment.
        for (owner, r, row) in replies.recv() {
            let local = &mut locals[r];
            let my_cells = cells.rank(r);
            // Remote owner: its distinct leaves, sorted, take the next slots.
            let ghosts = (owner != r).then(|| {
                let mut list: Vec<u32> = row.iter().map(|res| res.leaf_idx).collect();
                list.sort_unstable();
                list.dedup();
                debug_assert!(local.recv_from.last().is_none_or(|(o, _)| *o < owner));
                let base = local.num_ghosts;
                local.num_ghosts += list.len();
                local.recv_from.push((owner, list));
                (base, &local.recv_from.last().expect("just pushed").1)
            });
            for (n, res) in row.iter().enumerate() {
                let cell = res.src_cell as usize;
                let src = my_cells[cell].cell;
                // Self-probe: a straddling region resolved locally.
                let itself = owner == r && res.leaf_idx == res.src_cell;
                let seen = row[..n]
                    .iter()
                    .rev()
                    .take_while(|prev| prev.src_cell == res.src_cell)
                    .any(|prev| prev.leaf_idx == res.leaf_idx);
                if itself || seen || !src.shares_face_with(&res.leaf) {
                    continue;
                }
                let slot = match ghosts {
                    None => Slot::Local(res.leaf_idx),
                    Some((base, list)) => {
                        let g = list.binary_search(&res.leaf_idx).expect("listed above");
                        Slot::Ghost((base + g) as u32)
                    }
                };
                let k = kappa(&src, &res.leaf);
                local.entries[cell].push((slot, k));
                local.diag[cell] += k;
            }
        }
        drop(replies);

        // ---- Phase 4: exchange request lists to build send lists ---------
        let mut requests = AlltoallvArena::with_capacity(
            locals.iter().map(|local| local.num_ghosts).sum(),
            locals.iter().map(|local| local.recv_from.len()).sum(),
        );
        for (r, local) in locals.iter().enumerate() {
            for (owner, list) in &local.recv_from {
                requests.send(r, *owner, list.iter().copied());
            }
        }
        engine.alltoallv_flat(&mut requests, AllToAllAlgo::Hypercube);
        // Delivered sorted by requester rank; self/empty never occur.
        for (req, owner, list) in requests.recv() {
            locals[owner].send_to.push((req, list.to_vec()));
        }

        DistMesh {
            curve,
            cells,
            splitters,
            locals,
        }
    }
}

/// Face-flux transmissibility between two face-adjacent cells, in unit-cube
/// units: shared area / centre distance.
pub(crate) fn kappa<const D: usize>(a: &Cell<D>, b: &Cell<D>) -> f64 {
    let h = (1u64 << MAX_DEPTH) as f64;
    let area = a.shared_face_area(b) as f64 / h.powi(D as i32 - 1);
    let ca = a.center_unit();
    let cb = b.center_unit();
    let dist: f64 = (0..D).map(|d| (ca[d] - cb[d]).powi(2)).sum::<f64>().sqrt();
    area / dist.max(f64::MIN_POSITIVE)
}

/// Dirichlet boundary transmissibility of one domain-boundary face.
pub(crate) fn boundary_kappa<const D: usize>(c: &Cell<D>) -> f64 {
    let h = (1u64 << MAX_DEPTH) as f64;
    let side = c.side() as f64 / h;
    let area = side.powi(D as i32 - 1);
    area / (side * 0.5)
}

/// Sample points just inside `region` adjacent to the face it shares with
/// the probing cell: the centres of the `2^(D-1)` level-`l+1` subcells on
/// that face (all face neighbours of a 2:1-balanced mesh contain one).
fn face_probes<const D: usize>(
    region: &Cell<D>,
    axis: usize,
    dir: i8,
) -> impl Iterator<Item = [u32; D]> {
    let side = region.side();
    let anchor = region.anchor();
    // Finest cells: a single probe at the anchor (every offset is 0).
    let (q, count) = if side < 4 {
        (0, 1)
    } else {
        (side / 4, 1u32 << (D - 1))
    };
    // Offset along the probing axis: touching face is region's low side when
    // dir=+1 (cell below region), high side when dir=-1.
    let axis_off = if dir == 1 || q == 0 { q } else { side - q };
    (0..count).map(move |mask| {
        let mut pt = anchor;
        pt[axis] += axis_off;
        // Bit `b` of `mask` picks the near or far subcell along the `b`-th
        // free axis.
        for (b, d) in (0..D).filter(|&d| d != axis).enumerate() {
            pt[d] += if (mask >> b) & 1 == 1 { 3 * q } else { q };
        }
        pt
    })
}
