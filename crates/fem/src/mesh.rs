//! Distributed octree mesh with ghost layers and FV Laplacian coefficients.
//!
//! Built from a partitioned linear octree (the output of any of the
//! `optipart-core` partitioners). Construction is one allgather of the
//! ranks' first keys (the leaf-aligned splitters) and three exchanges, each
//! one [`AlltoallvArena`] delivered grouped by destination, then source:
//!
//! 1. **queries** — every rank keys the same-size neighbour region of each
//!    interior face of each local cell once and looks up the contiguous run
//!    of ranks that own it. Its own part is searched in place; every other
//!    non-empty owner gets one `(cell, local index, face)` query;
//! 2. **replies** — each owner answers its queries with the same search and
//!    replies with every face-sharing leaf and its local index; requesters
//!    sort and deduplicate each owner's reply into a static ghost receive
//!    list and attach the couplings;
//! 3. **request lists** — the receive lists travel to their owners and
//!    become the symmetric send lists.
//!
//! The one search, `face_sharers`, is `overlapping_leaves_keyed` filtered
//! by true face adjacency, so every face neighbour is found on any complete
//! linear octree, 2:1-balanced or not, and the couplings do not depend on
//! the partition.
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

/// A ghost query: a cell and one of its faces whose same-size neighbour
/// region overlaps the receiving owner's range.
#[derive(Clone, Copy, Debug)]
struct Query<const D: usize> {
    cell: Cell<D>,
    src_cell: u32,
    axis: u8,
    dir: i8,
}

/// `D` coordinates, a word holding level, axis and direction, and the
/// source cell index.
impl<const D: usize> Wire for Query<D> {
    const BYTES: u64 = 4 * (D as u64 + 2);
}

/// An answer to a query: one owner leaf sharing a face with the cell.
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

        // Leaf-aligned splitters: the first key on each rank, allgathered.
        // Empty ranks send none and inherit the next non-empty rank's key.
        let firsts: Vec<Vec<SfcKey>> = engine.compute_map(&mut cells, |_r, buf| {
            (0.0, buf.first().map(|kc| kc.key).into_iter().collect())
        });
        let mut gathered = engine.allgather(&firsts).into_iter();
        let mut splitters: Vec<SfcKey> = firsts
            .iter()
            .map(|first| {
                if first.is_empty() {
                    SfcKey::MAX
                } else {
                    gathered.next().expect("one key per non-empty rank")
                }
            })
            .collect();
        splitters.remove(0);
        // Empty-rank gaps: make splitters monotone from the right.
        for i in (0..splitters.len().saturating_sub(1)).rev() {
            if splitters[i] > splitters[i + 1] {
                splitters[i] = splitters[i + 1];
            }
        }

        // ---- Phase 1: local adjacency + query generation ----------------
        // Per rank: the local mesh, its queries sorted by owner (cell order
        // kept within an owner) and the `(owner, count)` runs of that order.
        let elem_bytes = KeyedCell::<D>::BYTES as f64;
        let sp = &splitters;
        let phase1: Vec<(LocalMesh, Vec<Query<D>>, Runs)> =
            engine.compute_map(&mut cells, |r, buf| {
                let mut lm = LocalMesh {
                    entries: vec![Vec::new(); buf.len()],
                    diag: vec![0.0; buf.len()],
                    ..Default::default()
                };
                let mut found: Vec<(u32, Query<D>)> = Vec::new();
                for (i, kc) in buf.iter().enumerate() {
                    for axis in 0..D {
                        for dir in [-1i8, 1] {
                            let Some(region) = kc.cell.face_neighbor(axis, dir) else {
                                // Domain boundary: Dirichlet-0 flux.
                                lm.diag[i] += boundary_kappa(&kc.cell);
                                continue;
                            };
                            // One key computation per face; the region's
                            // whole subtree occupies the contiguous path range
                            // [key, key+span), owned by a contiguous run of
                            // ranks.
                            let key = SfcKey::of(&region, curve);
                            let span = 1u128 << ((MAX_DEPTH - region.level()) as u32 * D as u32);
                            let key_hi = SfcKey::from_parts(key.path() + (span - 1), u8::MAX);
                            let (lo, hi) = (owner_of(sp, &key), owner_of(sp, &key_hi));
                            for (owner, first) in (lo..).zip(&firsts[lo..=hi]) {
                                if owner == r {
                                    for j in face_sharers(buf, &kc.cell, &region, key) {
                                        let k = kappa(&kc.cell, &buf[j].cell);
                                        lm.entries[i].push((Slot::Local(j as u32), k));
                                        lm.diag[i] += k;
                                    }
                                } else if !first.is_empty() {
                                    let query = Query {
                                        cell: kc.cell,
                                        src_cell: i as u32,
                                        axis: axis as u8,
                                        dir,
                                    };
                                    found.push((owner as u32, query));
                                }
                            }
                        }
                    }
                }
                found.sort_by_key(|&(owner, _)| owner);
                let mut runs = Runs::new();
                for &(owner, _) in &found {
                    match runs.last_mut() {
                        Some((o, len)) if *o == owner => *len += 1,
                        _ => runs.push((owner, 1)),
                    }
                }
                let queries = found.iter().map(|&(_, q)| q).collect();
                let cost = buf.len() as f64 * elem_bytes * (2 * D) as f64;
                (cost, (lm, queries, runs))
            });

        // ---- Phase 2: ship queries, answer, reply ------------------------
        let mut queries = AlltoallvArena::with_capacity(
            phase1.iter().map(|(_, queries, _)| queries.len()).sum(),
            phase1.iter().map(|(_, _, runs)| runs.len()).sum(),
        );
        let mut locals: Vec<LocalMesh> = Vec::with_capacity(p);
        for (r, (lm, mine, runs)) in phase1.into_iter().enumerate() {
            locals.push(lm);
            send_runs(&mut queries, r, &mine, &runs);
        }
        engine.alltoallv_flat(&mut queries, AllToAllAlgo::Hypercube);
        queries.release_send();

        // Owners answer their delivered segments in parallel (read-only on
        // cells) with the search the local branch runs: one flat pool of
        // face-sharing leaves per owner, cut into `(requester, count)` runs
        // in delivery order.
        let delivered: Vec<(usize, usize, &[Query<D>])> = queries.recv().collect();
        let answers: Vec<(Vec<Resolved<D>>, Runs)> =
            par::par_map_mut(cells.parts_mut(), |owner, buf| {
                let buf: &[KeyedCell<D>] = buf;
                let lo = delivered.partition_point(|&(_, dst, _)| dst < owner);
                let hi = delivered.partition_point(|&(_, dst, _)| dst <= owner);
                let mut pool = Vec::new();
                let runs = delivered[lo..hi]
                    .iter()
                    .map(|&(src, _, seg)| {
                        let before = pool.len();
                        for q in seg {
                            let region = q
                                .cell
                                .face_neighbor(q.axis as usize, q.dir)
                                .expect("queries name interior faces");
                            let key = SfcKey::of(&region, curve);
                            let hits = face_sharers(buf, &q.cell, &region, key);
                            pool.extend(hits.map(|j| Resolved {
                                src_cell: q.src_cell,
                                leaf_idx: j as u32,
                                leaf: buf[j].cell,
                            }));
                        }
                        (src as u32, (pool.len() - before) as u32)
                    })
                    .collect();
                (pool, runs)
            });
        drop(delivered);
        drop(queries);
        let mut replies = AlltoallvArena::with_capacity(
            answers.iter().map(|(pool, _)| pool.len()).sum(),
            answers.iter().map(|(_, runs)| runs.len()).sum(),
        );
        for (owner, (pool, runs)) in answers.into_iter().enumerate() {
            send_runs(&mut replies, owner, &pool, &runs);
        }
        engine.alltoallv_flat(&mut replies, AllToAllAlgo::Hypercube);
        replies.release_send();

        // ---- Phase 3: assemble ghost lists and remote couplings ----------
        // Replies arrive grouped by requester, then owner, one segment per
        // link; each owner's distinct leaves, sorted, take the next slots.
        // No reply comes from the requester itself, and no leaf is named
        // twice to one cell: it shares a face with it across one face only.
        for (owner, r, row) in replies.recv() {
            let local = &mut locals[r];
            let my_cells = cells.rank(r);
            let mut list: Vec<u32> = row.iter().map(|res| res.leaf_idx).collect();
            list.sort_unstable();
            list.dedup();
            debug_assert!(local.recv_from.last().is_none_or(|(o, _)| *o < owner));
            let base = local.num_ghosts;
            local.num_ghosts += list.len();
            for res in row {
                let cell = res.src_cell as usize;
                let g = list.binary_search(&res.leaf_idx).expect("listed above");
                let k = kappa(&my_cells[cell].cell, &res.leaf);
                local.entries[cell].push((Slot::Ghost((base + g) as u32), k));
                local.diag[cell] += k;
            }
            local.recv_from.push((owner, list));
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

/// Indices of the leaves of one rank's sorted slice that overlap `region`,
/// the same-size neighbour region of one face of `cell` keyed `key`, and
/// share a face with `cell`: the face's neighbours on that rank.
fn face_sharers<'a, const D: usize>(
    leaves: &'a [KeyedCell<D>],
    cell: &'a Cell<D>,
    region: &Cell<D>,
    key: SfcKey,
) -> impl Iterator<Item = usize> + 'a {
    overlapping_leaves_keyed(leaves, region, key)
        .filter(move |&j| cell.shares_face_with(&leaves[j].cell))
}

/// Consecutive `(destination rank, length)` runs that cut one rank's flat
/// buffer into messages.
type Runs = Vec<(u32, u32)>;

/// Stages `items`, cut into `runs`, as messages from `src`.
fn send_runs<T: Copy>(arena: &mut AlltoallvArena<T>, src: usize, items: &[T], runs: &[(u32, u32)]) {
    let mut rest = items;
    for &(dst, len) in runs {
        let (run, tail) = rest.split_at(len as usize);
        arena.send(src, dst as usize, run.iter().copied());
        rest = tail;
    }
}
