//! Seeded property tests: invariants checked over many inputs drawn from
//! SplitMix64 streams, so they run offline under the plain tier-1 command
//! and replay exactly. Every loop forks its inputs from one fixed seed per
//! `(stream, case)`; a failure names the case, and re-running the test
//! reproduces it.
//!
//! Only properties with no other home live here — the distributed-sort,
//! collective and OptiPart-optimality invariants are pinned per scenario by
//! the testkit oracles (`tests/testkit_oracles.rs`).

use optipart_testkit::core::metrics::{assignment, communication_matrix};
use optipart_testkit::core::optipart::{optipart, OptiPartOptions};
use optipart_testkit::core::partition::{
    distribute_shuffled, treesort_partition, PartitionOptions,
};
use optipart_testkit::fem::matvec::laplacian_matvec;
use optipart_testkit::fem::mesh::DistMesh;
use optipart_testkit::gen::{balanced_tree, engine_on, engine_wisconsin, normal_tree, tree};
use optipart_testkit::machine::energy::{
    ActivityKind, Interval, IpmiSampler, NodePower, PowerTrace,
};
use optipart_testkit::machine::{AppModel, MachineModel, PerfModel};
use optipart_testkit::mpisim::rng::SplitMix64;
use optipart_testkit::mpisim::DistVec;
use optipart_testkit::octree::balance::{balance21, is_balanced21};
use optipart_testkit::octree::linear::is_linear;
use optipart_testkit::octree::neighbors::{face_adjacent_leaves, find_leaf};
use optipart_testkit::octree::{sample_points, tree_from_points, Distribution, LinearTree};
use optipart_testkit::scenario::Scenario;
use optipart_testkit::sfc::cell::Coord;
use optipart_testkit::sfc::{hilbert, morton, Cell2, Cell3, Curve, SfcKey, MAX_DEPTH};
use optipart_testkit::trace::json::{self, Value};

/// `n` independent input streams for the property numbered `stream`.
fn cases(stream: u64, n: u64) -> impl Iterator<Item = (u64, SplitMix64)> {
    let root = SplitMix64::new(0x0517_2017).fork(stream);
    (0..n).map(move |case| (case, root.fork(case)))
}

fn coord(r: &mut SplitMix64) -> Coord {
    r.next_below(1 << MAX_DEPTH) as Coord
}

fn level(r: &mut SplitMix64) -> u8 {
    r.next_below(MAX_DEPTH as u64 + 1) as u8
}

fn cell3(r: &mut SplitMix64) -> Cell3 {
    Cell3::new([coord(r), coord(r), coord(r)], level(r))
}

fn curve(r: &mut SplitMix64) -> Curve {
    Curve::ALL[r.next_below(2) as usize]
}

/// A uniform draw from `[lo, hi)`.
fn range(r: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * r.next_f64()
}

/// Number of lattice steps between two points.
fn manhattan<const D: usize>(a: [Coord; D], b: [Coord; D]) -> u64 {
    (0..D).map(|d| a[d].abs_diff(b[d]) as u64).sum()
}

// ---------------------------------------------------------------- sfc --

/// Both curves are bijections between lattice points and path positions.
#[test]
fn curve_paths_round_trip() {
    for (case, mut r) in cases(1, 512) {
        let p3 = [coord(&mut r), coord(&mut r), coord(&mut r)];
        let p2 = [p3[0], p3[1]];
        assert_eq!(
            morton::deinterleave::<3>(morton::interleave::<3>(p3)),
            p3,
            "case {case}"
        );
        assert_eq!(
            hilbert::hilbert_point::<3>(hilbert::hilbert_path::<3>(p3)),
            p3,
            "case {case}"
        );
        assert_eq!(
            hilbert::hilbert_point::<2>(hilbert::hilbert_path::<2>(p2)),
            p2,
            "case {case}"
        );
    }
}

/// The defining Hilbert property, at full depth: consecutive curve
/// positions are face-adjacent lattice points.
#[test]
fn hilbert_consecutive_positions_are_adjacent() {
    for (case, mut r) in cases(2, 512) {
        let h3 = (r.next_u64() as u128) << 26 | r.next_below(1 << 26) as u128;
        let h3 = h3.min((1 << 90) - 2);
        let (a, b) = (
            hilbert::hilbert_point::<3>(h3),
            hilbert::hilbert_point::<3>(h3 + 1),
        );
        assert_eq!(manhattan(a, b), 1, "case {case}: 3D h = {h3}");
        let h2 = r.next_below((1 << 60) - 1) as u128;
        let (a, b) = (
            hilbert::hilbert_point::<2>(h2),
            hilbert::hilbert_point::<2>(h2 + 1),
        );
        assert_eq!(manhattan(a, b), 1, "case {case}: 2D h = {h2}");
    }
}

/// Keys turn containment into a prefix relation, invert back to their
/// cell, and carry the child numbers of the ancestor chain as digits.
#[test]
fn keys_encode_the_ancestor_chain() {
    for (case, mut r) in cases(3, 512) {
        let c = cell3(&mut r);
        let c2 = Cell2::new([coord(&mut r), coord(&mut r)], level(&mut r));
        let lvl = level(&mut r).min(c.level());
        let anc = c.ancestor_at(lvl);
        for curve in Curve::ALL {
            let (kc, ka) = (SfcKey::of(&c, curve), SfcKey::of(&anc, curve));
            assert_eq!(kc.prefix::<3>(lvl), ka, "case {case} {curve}");
            assert!(ka <= kc, "case {case} {curve}: ancestor sorts after");
            assert_eq!(kc.to_cell::<3>(curve), c, "case {case} {curve}");
            assert_eq!(
                SfcKey::of(&c2, curve).to_cell::<2>(curve),
                c2,
                "case {case} {curve}"
            );
        }
        for k in 0..c.level() {
            assert_eq!(
                c.coordinate_digit(k),
                c.ancestor_at(k + 1).child_number(),
                "case {case}: digit {k}"
            );
        }
    }
}

/// The curve order of disjoint regions is the curve order of the points
/// they contain.
#[test]
fn disjoint_cells_order_like_their_points() {
    for (case, mut r) in cases(4, 512) {
        let (a, b) = (cell3(&mut r), cell3(&mut r));
        if a.overlaps(&b) {
            continue;
        }
        for curve in Curve::ALL {
            let (ka, kb) = (SfcKey::of(&a, curve), SfcKey::of(&b, curve));
            assert_ne!(ka, kb, "case {case} {curve}");
            let pa = SfcKey::of(&Cell3::from_point(a.anchor()), curve);
            let pb = SfcKey::of(&Cell3::from_point(b.anchor()), curve);
            assert_eq!(ka < kb, pa < pb, "case {case} {curve}");
        }
    }
}

/// A key packs `(path, level)` into one word without changing its meaning:
/// the word order is the lexicographic `(path, level)` order, both parts
/// round-trip, and `digit`/`prefix` agree with an unpacked reference — at
/// every level, in 2D and 3D, and for the `MIN`/`MAX` sentinels.
#[test]
fn packed_keys_keep_the_path_level_order() {
    // The unpacked reference: digit `k` and the level-`l` prefix of a path.
    fn digit<const D: usize>(path: u128, k: u8) -> usize {
        ((path >> ((MAX_DEPTH - 1 - k) as u32 * D as u32)) & ((1 << D) - 1)) as usize
    }
    fn prefix<const D: usize>((path, level): (u128, u8), l: u8) -> (u128, u8) {
        let l = l.min(level);
        let low = (MAX_DEPTH - l) as u32 * D as u32;
        (path >> low << low, l)
    }
    fn check<const D: usize>(case: u64, r: &mut SplitMix64) {
        let bits = MAX_DEPTH as u32 * D as u32;
        for l in 0..=MAX_DEPTH {
            let full = ((r.next_u64() as u128) << 64 | r.next_u64() as u128) & ((1 << bits) - 1);
            let a = prefix::<D>((full, MAX_DEPTH), l);
            let b = prefix::<D>((full, MAX_DEPTH), level(r));
            let pairs = [a, b, (a.0, level(r)), (0, 0), (u128::MAX >> 8, u8::MAX)];
            for x in pairs {
                let k = SfcKey::from_parts(x.0, x.1);
                let ctx = format!("case {case} D={D} l={l} {x:?}");
                assert_eq!((k.path(), k.level()), x, "{ctx}");
                for j in 0..MAX_DEPTH {
                    assert_eq!(k.digit::<D>(j), digit::<D>(x.0, j), "{ctx} digit {j}");
                    let (pp, pl) = prefix::<D>(x, j);
                    assert_eq!(
                        k.prefix::<D>(j),
                        SfcKey::from_parts(pp, pl),
                        "{ctx} prefix {j}"
                    );
                }
                for y in pairs {
                    assert_eq!(
                        k.cmp(&SfcKey::from_parts(y.0, y.1)),
                        x.cmp(&y),
                        "{ctx} vs {y:?}"
                    );
                }
            }
        }
    }
    assert_eq!(SfcKey::from_parts(0, 0), SfcKey::MIN);
    assert_eq!(SfcKey::from_parts(u128::MAX >> 8, u8::MAX), SfcKey::MAX);
    for (case, mut r) in cases(6, 64) {
        check::<2>(case, &mut r);
        check::<3>(case, &mut r);
    }
}

/// Face sharing is symmetric, excludes overlap, and its area is bounded by
/// the smaller cell's face. Half the pairs are built as genuine face
/// neighbours — two uniform draws almost never touch.
#[test]
fn face_sharing_is_symmetric_and_bounded() {
    let mut touching = 0;
    for (case, mut r) in cases(5, 512) {
        let a = Cell3::new(
            [coord(&mut r), coord(&mut r), coord(&mut r)],
            1 + r.next_below(8) as u8,
        );
        let b = if case % 2 == 0 {
            cell3(&mut r)
        } else {
            let axis = r.next_below(3) as usize;
            let dir = if r.next_below(2) == 0 { -1 } else { 1 };
            match a.face_neighbor(axis, dir) {
                Some(n) => n.child(r.next_below(8) as usize),
                None => continue,
            }
        };
        let area = a.shared_face_area(&b);
        assert_eq!(area, b.shared_face_area(&a), "case {case}");
        assert_eq!(
            a.shares_face_with(&b),
            b.shares_face_with(&a),
            "case {case}"
        );
        assert_eq!(a.shares_face_with(&b), area > 0, "case {case}");
        if a.overlaps(&b) {
            assert!(!a.shares_face_with(&b), "case {case}: overlap and face");
        }
        let min_side = a.side().min(b.side()) as u64;
        assert!(area <= min_side * min_side, "case {case}: area {area}");
        touching += usize::from(area > 0);
    }
    assert!(touching >= 64, "only {touching} of 512 pairs shared a face");
}

// ------------------------------------------------------------- octree --

/// Any generated mesh is a complete linear octree covering its samples.
#[test]
fn generated_meshes_are_complete_linear_and_cover_their_points() {
    for (case, mut r) in cases(10, 24) {
        let n = 16 + r.next_below(384) as usize;
        let dist = Distribution::ALL[r.next_below(3) as usize];
        let c = curve(&mut r);
        let pts = sample_points::<3>(dist, n, r.next_u64());
        let t = tree_from_points(&pts, 1, 10, c);
        assert!(is_linear(t.leaves()), "case {case}");
        assert!(t.is_complete(), "case {case}");
        for p in &pts {
            assert!(find_leaf(t.leaves(), *p, c).is_some(), "case {case}: {p:?}");
        }
    }
}

/// `balance21` establishes the 2:1 invariant and never coarsens.
#[test]
fn balancing_establishes_the_invariant_without_coarsening() {
    for (case, mut r) in cases(12, 24) {
        let n = 8 + r.next_below(52) as usize;
        let c = curve(&mut r);
        let pts = sample_points::<3>(Distribution::Normal, n, r.next_u64());
        let t = tree_from_points(&pts, 1, 8, c);
        let b = balance21(&t);
        assert!(is_balanced21(&b), "case {case}");
        assert!(b.is_complete(), "case {case}");
        assert!(b.len() >= t.len(), "case {case}");
        for kc in t.leaves() {
            let i = find_leaf(b.leaves(), kc.cell.anchor(), c).expect("complete tree");
            assert!(
                b.leaves()[i].cell.level() >= kc.cell.level(),
                "case {case}: {:?} was coarsened",
                kc.cell
            );
        }
    }
}

/// Face adjacency is symmetric and `find_leaf` agrees with a containment
/// scan.
#[test]
fn neighbour_search_agrees_with_brute_force() {
    for (case, mut r) in cases(13, 24) {
        let c = curve(&mut r);
        let pts = sample_points::<3>(Distribution::Normal, 60, r.next_u64());
        let t = tree_from_points(&pts, 1, 7, c);
        let leaves = t.leaves();
        for i in 0..leaves.len().min(40) {
            for j in face_adjacent_leaves(leaves, i, c) {
                assert!(
                    face_adjacent_leaves(leaves, j, c).contains(&i),
                    "case {case}: adjacency {i} -> {j} has no way back"
                );
            }
        }
        for _ in 0..8 {
            let q = [coord(&mut r), coord(&mut r), coord(&mut r)];
            let brute = leaves.iter().position(|kc| kc.cell.contains_point(q));
            assert_eq!(find_leaf(leaves, q, c), brute, "case {case}: {q:?}");
        }
    }
}

// ------------------------------------------------------------ machine --

/// Eq. (3) is linear in both arguments, and the staged TreeSort time of
/// Eq. (2) is monotone in the splitter count `k`.
#[test]
fn performance_model_is_linear_and_monotone_in_k() {
    let titan = PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec());
    let stampede = PerfModel::new(MachineModel::stampede(), AppModel::laplacian_matvec());
    for (case, mut r) in cases(20, 256) {
        let (w1, w2) = (r.next_below(1_000_000), r.next_below(1_000_000));
        let (c1, c2) = (r.next_below(1_000_000), r.next_below(1_000_000));
        let lhs = titan.predict(w1 + w2, c1 + c2);
        let rhs = titan.predict(w1, c1) + titan.predict(w2, c2);
        assert!(
            (lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()),
            "case {case}: predict({w1}+{w2}, {c1}+{c2}) = {lhs}, parts sum to {rhs}"
        );

        let grain = 1 + r.next_below(10_000_000);
        let p = 1usize << (1 + r.next_below(13));
        let mut prev = f64::NEG_INFINITY;
        for k in [1usize, 16, 256, p.min(4096)] {
            if k > p {
                break;
            }
            let t = stampede.treesort_time_staged(grain, p, k);
            assert!(t >= prev, "case {case}: p = {p}, k = {k}: {t} < {prev}");
            prev = t;
        }
    }
}

/// Exact energy is invariant under splitting an interval in two, and the
/// 1 Hz IPMI sampler never misses more than one period of power.
#[test]
fn energy_accounting_splits_and_samples_within_bounds() {
    let interval = |t0: f64, t1: f64, kind, bytes| Interval {
        rank: 0,
        t0,
        t1,
        kind,
        bytes,
        bytes_intra: 0,
    };
    for (case, mut r) in cases(21, 256) {
        let idle_w = range(&mut r, 50.0, 200.0);
        let power = NodePower {
            idle_w,
            peak_w: idle_w + range(&mut r, 1.0, 400.0),
            nic_j_per_byte: range(&mut r, 0.0, 1e-8),
        };
        let dur = range(&mut r, 0.1, 100.0);
        let bytes = r.next_below(1_000_000_000);
        let comm = ActivityKind::Communication;
        let mut whole = PowerTrace::default();
        whole.push(interval(0.0, dur, comm, bytes));
        let mut halves = PowerTrace::default();
        halves.push(interval(0.0, dur / 2.0, comm, bytes / 2));
        halves.push(interval(dur / 2.0, dur, comm, bytes - bytes / 2));
        let (whole, halves) = (
            whole.exact_energy(&power, None, 1, 1).total_j,
            halves.exact_energy(&power, None, 1, 1).total_j,
        );
        assert!(
            (whole - halves).abs() <= 1e-9 * (1.0 + whole.abs()),
            "case {case}: one interval {whole} J, two halves {halves} J"
        );

        let start = range(&mut r, 0.0, 5.0);
        let dur = range(&mut r, 0.05, 20.0);
        let mut t = PowerTrace::default();
        t.push(interval(start, start + dur, ActivityKind::Compute, 0));
        let exact = t.exact_energy(&power, None, 1, 1).total_j;
        let sampled = IpmiSampler { period_s: 1.0 }
            .measure(&t, &power, None, 1, 1)
            .total_j;
        let bound = power.peak_w + 1e-6;
        assert!(
            (sampled - exact).abs() <= bound,
            "case {case}: sampler off by {} J, bound {bound}",
            (sampled - exact).abs()
        );
    }
}

/// Rank → node placement is a partition: every rank lands on one of
/// exactly `nodes_for(p)` nodes.
#[test]
fn node_mapping_partitions_ranks() {
    for (case, mut r) in cases(22, 64) {
        let p = 1 + r.next_below(4999) as usize;
        for m in MachineModel::presets() {
            let nodes = m.nodes_for(p);
            for rank in (0..p).step_by(7) {
                assert!(
                    m.node_of(rank) < nodes,
                    "case {case}: {} rank {rank}",
                    m.name
                );
            }
            assert!(nodes * m.ranks_per_node >= p, "case {case}: {}", m.name);
            assert!(
                (nodes - 1) * m.ranks_per_node < p,
                "case {case}: {}",
                m.name
            );
        }
    }
}

// --------------------------------------------------------------- core --

/// OptiPart's report is internally consistent on any machine, and a
/// looser tolerance never needs more splitter rounds.
#[test]
fn partition_reports_are_consistent_and_rounds_shrink_with_tolerance() {
    for (case, mut r) in cases(30, 12) {
        let seed = r.next_below(300);
        let p = 2 + r.next_below(10) as usize;
        let t = tree(seed, 400, Curve::Hilbert);
        for machine in [MachineModel::titan(), MachineModel::cloudlab_clemson()] {
            let mut e = engine_on(machine, p);
            let out = optipart(
                &mut e,
                distribute_shuffled(&t, p, seed),
                OptiPartOptions::default(),
            );
            let report = &out.report;
            assert_eq!(out.dist.total_len(), t.len(), "case {case}");
            assert_eq!(
                report.counts.iter().sum::<u64>(),
                t.len() as u64,
                "case {case}"
            );
            assert_eq!(
                Some(&report.wmax),
                report.counts.iter().max(),
                "case {case}"
            );
            assert!(report.predicted_tp >= 0.0, "case {case}");
        }
        let rounds_at = |tol: f64| {
            let mut e = engine_wisconsin(p);
            let input = distribute_shuffled(&t, p, seed);
            treesort_partition(&mut e, input, PartitionOptions::with_tolerance(tol))
                .report
                .rounds
        };
        let (tight, loose) = (rounds_at(0.0), rounds_at(0.5));
        assert!(
            loose <= tight,
            "case {case}: tolerance 0.5 took {loose} rounds, exact {tight}"
        );
    }
}

// ---------------------------------------------------------------- fem --

/// One Laplacian matvec of a smooth field, as `(key, value)` in global
/// order, plus two checks on the mesh's ghost lists: they are symmetric
/// (what `r` expects from `owner` is what `owner` sends to `r`), and each
/// `owner -> r` list holds exactly the leaves the sequential
/// [`communication_matrix`] says `r` needs from `owner`.
fn matvec_fingerprint<const D: usize>(
    tree: &LinearTree<D>,
    p: usize,
    tol: f64,
    seed: u64,
) -> Vec<(SfcKey, f64)> {
    let mut e = engine_wisconsin(p);
    let out = treesort_partition(
        &mut e,
        distribute_shuffled(tree, p, seed),
        PartitionOptions::with_tolerance(tol),
    );
    let mesh = DistMesh::build(&mut e, out.dist, tree.curve());
    let exact = communication_matrix(tree, &assignment(tree, &mesh.splitters), p);
    for (r, local) in mesh.locals.iter().enumerate() {
        for owner in 0..p {
            let list = local.recv_from.iter().find(|(o, _)| *o == owner);
            let expected = list.map_or(0, |(_, l)| l.len());
            let sent = mesh.locals[owner]
                .send_to
                .iter()
                .find(|(to, _)| *to == r)
                .map_or(0, |(_, l)| l.len());
            assert_eq!(expected, sent, "p = {p}: ghost list {owner} -> {r}");
            assert_eq!(
                expected as u64,
                exact.get(owner, r),
                "p = {p} ({D}D): ghost list {owner} -> {r} against the communication matrix"
            );
        }
    }
    let mut x = DistVec::from_parts(
        (0..p)
            .map(|r| {
                mesh.cells
                    .rank(r)
                    .iter()
                    .map(|kc| {
                        let c = kc.cell.center_unit();
                        (c[0] * 5.0).sin() + c[D - 1]
                    })
                    .collect()
            })
            .collect(),
    );
    let (y, _) = laplacian_matvec(&mut e, &mesh, &mut x);
    (0..p)
        .flat_map(|r| {
            let keys = mesh.cells.rank(r).iter().map(|kc| kc.key);
            keys.zip(y.rank(r).iter().copied()).collect::<Vec<_>>()
        })
        .collect()
}

/// The operator's action does not depend on the partition: `p` and the
/// tolerance are implementation details, on 2:1-balanced and unbalanced
/// meshes, in 3D and in the quadtree instantiation.
#[test]
fn matvec_is_partition_independent() {
    fn check<const D: usize>(case: u64, n: usize, r: &mut SplitMix64) {
        let seed = r.next_below(200);
        let p = 2 + r.next_below(7) as usize;
        let tol = range(r, 0.0, 0.5);
        let balanced = balanced_tree::<D>(seed, n, Curve::Hilbert);
        let unbalanced = normal_tree::<D>(seed, n, 8, Curve::Hilbert);
        for (mesh, tree) in [("balanced", balanced), ("unbalanced", unbalanced)] {
            let serial = matvec_fingerprint(&tree, 1, 0.0, seed);
            let parallel = matvec_fingerprint(&tree, p, tol, seed);
            assert_eq!(serial.len(), parallel.len(), "case {case} ({D}D, {mesh})");
            for ((k1, v1), (k2, v2)) in serial.iter().zip(&parallel) {
                assert_eq!(k1, k2, "case {case} ({D}D, {mesh})");
                assert!(
                    (v1 - v2).abs() <= 1e-9 * (1.0 + v1.abs()),
                    "case {case} ({D}D, {mesh}), p = {p}, tol = {tol}: {k1:?}: {v1} vs {v2}"
                );
            }
        }
    }
    for (case, mut r) in cases(40, 8) {
        check::<3>(case, 120, &mut r);
        check::<2>(case, 100, &mut r);
    }
}

/// Constant null space on adaptive meshes: for x ≡ c the fluxes across
/// every interior face cancel — hanging faces included — whatever the
/// mesh, curve or partition.
#[test]
fn constant_vectors_vanish_in_the_interior() {
    for (case, mut r) in cases(41, 8) {
        let seed = r.next_below(200);
        let p = 1 + r.next_below(7) as usize;
        let c = range(&mut r, -3.0, 3.0);
        let tree = balanced_tree::<3>(seed, 80, Curve::Morton);
        let mut e = engine_wisconsin(p);
        let out = treesort_partition(
            &mut e,
            distribute_shuffled(&tree, p, seed),
            PartitionOptions::exact(),
        );
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Morton);
        let mut x = DistVec::from_parts(mesh.cells.counts().iter().map(|&n| vec![c; n]).collect());
        let (y, _) = laplacian_matvec(&mut e, &mesh, &mut x);
        for rank in 0..p {
            for (kc, &v) in mesh.cells.rank(rank).iter().zip(y.rank(rank)) {
                let interior = (0..3).all(|ax| {
                    kc.cell.face_neighbor(ax, -1).is_some()
                        && kc.cell.face_neighbor(ax, 1).is_some()
                });
                assert!(
                    !interior || v.abs() <= 1e-9 * (1.0 + c.abs()),
                    "case {case}: interior residual {v} at {:?}",
                    kc.cell
                );
            }
        }
    }
}

// -------------------------------------------------------- text formats --

/// A string mixing every character class the JSON escaper treats
/// differently: each control character, the two escaped punctuation marks,
/// plain ASCII, and 2-, 3- and 4-byte UTF-8.
fn hostile_string(r: &mut SplitMix64) -> String {
    (0..r.next_below(40))
        .map(|_| match r.next_below(6) {
            0 => char::from(r.next_below(0x20) as u8),
            1 => ['"', '\\', '/'][r.next_below(3) as usize],
            2 => char::from(0x20 + r.next_below(0x5f) as u8),
            3 => ['é', 'ß', 'λ'][r.next_below(3) as usize],
            4 => ['→', '∑', '\u{ffff}'][r.next_below(3) as usize],
            _ => ['🌍', '𝛼', '\u{10ffff}'][r.next_below(3) as usize],
        })
        .collect()
}

/// `parse ∘ quote` is the identity on strings — as a bare value, as an
/// object key, inside an array — and a `\u` escape that is not a scalar
/// value is an error, never a silent U+FFFD.
#[test]
fn json_strings_round_trip_exactly() {
    let mut controls_seen = [false; 0x20];
    for (case, mut r) in cases(50, 600) {
        let s = hostile_string(&mut r);
        for c in s.chars().filter(|&c| (c as u32) < 0x20) {
            controls_seen[c as usize] = true;
        }
        let q = json::quote(&s);
        assert_eq!(json::parse(&q), Ok(Value::Str(s.clone())), "case {case}");
        let doc = format!("{{{q}:[{q},{{{q}:{q}}}]}}");
        let inner = Value::Obj(vec![(s.clone(), Value::Str(s.clone()))]);
        let want = Value::Obj(vec![(
            s.clone(),
            Value::Arr(vec![Value::Str(s.clone()), inner]),
        )]);
        assert_eq!(json::parse(&doc), Ok(want), "case {case}");
    }
    assert!(
        controls_seen.iter().all(|&b| b),
        "every control character drawn"
    );
    for lone in ["\"\\ud83d\"", "\"\\udc00 tail\"", "\"\\ud83d\\ude00\""] {
        assert!(json::parse(lone).is_err(), "{lone}");
    }
}

/// Numbers keep their text: what goes in as `u64::MAX` comes out as
/// `u64::MAX`, never rounded through an `f64`.
#[test]
fn json_numbers_keep_their_text() {
    for (case, mut r) in cases(51, 300) {
        let n = match case {
            0 => u64::MAX,
            1 => (1 << 53) + 1,
            _ => r.next_u64(),
        };
        let doc = format!("{{\"seed\": {n} , \"xs\":[{n},-{n}.5e-3]}}");
        let v = json::parse(&doc).expect("well-formed");
        assert_eq!(
            v.get("seed"),
            Some(&Value::Num(n.to_string())),
            "case {case}"
        );
        let Some(Value::Num(text)) = v.get("seed") else {
            unreachable!()
        };
        assert_eq!(text.parse::<u64>(), Ok(n), "case {case}");
        assert_eq!(
            v.get("xs"),
            Some(&Value::Arr(vec![
                Value::Num(n.to_string()),
                Value::Num(format!("-{n}.5e-3"))
            ])),
            "case {case}"
        );
    }
}

/// `Scenario::set` reads back exactly what `replay_cmd` writes: rebuild a
/// randomly overridden scenario from its own replay command — the seed
/// plus `--key value` pairs, fed to `set` the way `testkit replay` feeds
/// them — and land on the same scenario.
#[test]
fn scenario_set_inverts_replay_cmd() {
    let mut overridden = 0;
    for (case, mut r) in cases(52, 200) {
        let mut scn = Scenario::from_seed(r.next_u64());
        let donor = Scenario::from_seed(r.next_u64());
        // Each field independently keeps its derivation or takes the
        // donor's; optional fields also try `None`.
        if r.next_below(3) == 0 {
            scn.shape = donor.shape;
        }
        if r.next_below(3) == 0 {
            scn.n = donor.n;
        }
        if r.next_below(3) == 0 {
            scn.p = donor.p;
        }
        if r.next_below(3) == 0 {
            scn.curve = donor.curve;
        }
        if r.next_below(3) == 0 {
            scn.tolerance = donor.tolerance;
        }
        match r.next_below(4) {
            0 => scn.split_budget = donor.split_budget,
            1 => scn.split_budget = None,
            _ => {}
        }
        if r.next_below(3) == 0 {
            scn.machine = donor.machine.clone();
        }
        if r.next_below(3) == 0 {
            scn.app = donor.app;
        }
        match r.next_below(4) {
            0 => scn.faults = donor.faults.clone(),
            1 => scn.faults = None,
            _ => {}
        }
        if r.next_below(3) == 0 {
            scn.hier = donor.hier;
        }
        if r.next_below(3) == 0 {
            scn.family = donor.family;
        }
        if r.next_below(3) == 0 {
            scn.workload = donor.workload;
        }

        let cmd = scn.replay_cmd();
        let (_, flags) = cmd
            .split_once(" replay ")
            .expect("a testkit replay command");
        let mut words = flags.split(' ');
        assert_eq!(words.next(), Some("--seed"), "{cmd}");
        let seed: u64 = words.next().and_then(|s| s.parse().ok()).expect("a seed");
        let mut back = Scenario::from_seed(seed);
        while let Some(flag) = words.next() {
            let key = flag.strip_prefix("--").expect("only flags follow the seed");
            let value = if Scenario::KEYS.contains(&key) {
                words.next().expect("a keyed flag has a value")
            } else {
                ""
            };
            back.set(key, value)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n  {cmd}"));
            overridden += 1;
        }
        assert_eq!(back.to_string(), scn.to_string(), "case {case}: {cmd}");
        assert_eq!(back.replay_cmd(), cmd, "case {case}");
    }
    assert!(
        overridden > 400,
        "the overrides must actually fire: {overridden}"
    );
}
