//! Random AMR mesh generation — the paper's §4.2 workloads.
//!
//! "We tested the performance using randomly generated octrees according to
//! three distributions, uniform, normal, and log-normal. These were
//! generated using the standard c++11 random number generators. … All
//! results presented in this paper are for data generated according to the
//! normal distribution."
//!
//! A mesh is built by sampling points from the chosen distribution and
//! refining every cell holding more than a given number of points — so
//! dense regions get deep refinement and the resulting leaf array is a
//! complete, adaptive linear octree, exactly the input class of the paper's
//! partitioners.

use crate::linear::LinearTree;
use optipart_mpisim::rng::SplitMix64;
use optipart_sfc::{Cell, Curve, Point, MAX_DEPTH};

/// Point distribution for mesh generation (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform over the unit cube.
    Uniform,
    /// Normal, mean 0.5, σ 0.15 per axis, clamped to the cube.
    Normal,
    /// Log-normal (µ = −1.5, σ = 0.6) per axis, clamped to the cube —
    /// concentrates points near the origin corner.
    LogNormal,
}

impl Distribution {
    /// All three distributions of §4.2.
    pub const ALL: [Distribution; 3] = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::LogNormal,
    ];

    /// Short name for table output.
    pub fn name(self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Normal => "normal",
            Distribution::LogNormal => "lognormal",
        }
    }

    /// Samples one coordinate in `[0, 1)`.
    fn sample_unit(self, rng: &mut SplitMix64) -> f64 {
        match self {
            Distribution::Uniform => rng.next_f64(),
            Distribution::Normal => rng.next_normal(0.5, 0.15).clamp(0.0, 1.0 - f64::EPSILON),
            Distribution::LogNormal => rng
                .next_log_normal(-1.5, 0.6)
                .clamp(0.0, 1.0 - f64::EPSILON),
        }
    }
}

/// Samples `n` lattice points from a distribution.
pub fn sample_points<const D: usize>(dist: Distribution, n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = SplitMix64::new(seed);
    let scale = (1u64 << MAX_DEPTH) as f64;
    (0..n)
        .map(|_| {
            let mut p = [0u32; D];
            for c in &mut p {
                *c = (dist.sample_unit(&mut rng) * scale) as u32;
            }
            p
        })
        .collect()
}

/// Samples `n` lattice points concentrated on a thin spherical shell around
/// the domain centre — a surface-concentrated workload (think a shock front
/// or material interface driving the refinement). The resulting octree is
/// deeply refined along a codimension-1 set and coarse everywhere else,
/// which is the adversarial regime for SFC partition boundary surface.
pub fn sample_points_shell<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = SplitMix64::new(seed);
    let scale = (1u64 << MAX_DEPTH) as f64;
    (0..n)
        .map(|_| {
            // Direction: D standard normals, normalised (re-draw the
            // measure-zero all-zeros vector).
            let mut v = [0.0f64; D];
            let mut norm = 0.0;
            while norm < 1e-12 {
                norm = 0.0;
                for c in &mut v {
                    *c = rng.next_standard_normal();
                    norm += *c * *c;
                }
                norm = norm.sqrt();
            }
            let radius = 0.35 + 0.015 * rng.next_standard_normal();
            let mut p = [0u32; D];
            for (c, dir) in p.iter_mut().zip(&v) {
                let u = (0.5 + radius * dir / norm).clamp(0.0, 1.0 - f64::EPSILON);
                *c = (u * scale) as u32;
            }
            p
        })
        .collect()
}

/// Samples an adversarially skewed cloud: three quarters of the points are
/// crammed into a corner box of side `2^-shift` (forcing deep refinement on
/// one end of the curve) and the last sixth are exact duplicates of earlier
/// points, so partitioners must cope with extreme density contrast and
/// repeated keys at once. `shift` of 4–9 keeps the tree non-degenerate.
pub fn sample_points_skewed<const D: usize>(n: usize, seed: u64, shift: u32) -> Vec<Point<D>> {
    let shift = shift.min(MAX_DEPTH as u32);
    let side = 1u64 << (MAX_DEPTH as u32 - shift);
    let mut rng = SplitMix64::new(seed);
    let mut pts: Vec<Point<D>> = (0..n)
        .map(|i| {
            let mut p = [0u32; D];
            for c in &mut p {
                *c = if i % 4 == 3 {
                    // Every fourth point is uniform background.
                    (rng.next_f64() * (1u64 << MAX_DEPTH) as f64) as u32
                } else {
                    rng.next_below(side) as u32
                };
            }
            p
        })
        .collect();
    // Overwrite the tail with exact duplicates of random earlier points.
    for i in (n - n / 6)..n {
        pts[i] = pts[rng.next_below((n - n / 6) as u64) as usize];
    }
    pts
}

/// Parameters of a generated mesh: every cell holding more than one point
/// is refined, down to [`MAX_DEPTH`] (the paper's depth 30).
#[derive(Clone, Copy, Debug)]
pub struct MeshParams {
    /// Point distribution.
    pub distribution: Distribution,
    /// Number of sample points. The leaf count ends up within a small
    /// factor of this (every split produces `2^D` leaves for > 1 point).
    pub num_points: usize,
    /// RNG seed — all meshes are reproducible.
    pub seed: u64,
}

impl Default for MeshParams {
    fn default() -> Self {
        MeshParams {
            distribution: Distribution::Normal,
            num_points: 10_000,
            seed: 0x0511_2017,
        }
    }
}

impl MeshParams {
    /// Convenience: the paper's default (normal distribution) with a target
    /// point count.
    pub fn normal(num_points: usize, seed: u64) -> Self {
        MeshParams {
            num_points,
            seed,
            ..Default::default()
        }
    }

    /// Builds the adaptive mesh for these parameters on a curve.
    pub fn build<const D: usize>(&self, curve: Curve) -> LinearTree<D> {
        let points = sample_points::<D>(self.distribution, self.num_points, self.seed);
        tree_from_points(&points, 1, MAX_DEPTH, curve)
    }
}

/// Builds a complete adaptive linear octree by splitting every cell holding
/// more than `cap` (at least 1) of the given points, down to `max_level`.
pub fn tree_from_points<const D: usize>(
    points: &[Point<D>],
    cap: usize,
    max_level: u8,
    curve: Curve,
) -> LinearTree<D> {
    let max_level = max_level.min(MAX_DEPTH);
    let mut leaves: Vec<Cell<D>> = Vec::new();
    let mut owned: Vec<Point<D>> = points.to_vec();
    split_recursive(
        Cell::root(),
        &mut owned[..],
        cap.max(1),
        max_level,
        &mut leaves,
    );
    LinearTree::from_cells(leaves, curve)
}

fn split_recursive<const D: usize>(
    cell: Cell<D>,
    points: &mut [Point<D>],
    cap: usize,
    max_level: u8,
    out: &mut Vec<Cell<D>>,
) {
    if points.len() <= cap || cell.level() >= max_level {
        out.push(cell);
        return;
    }
    // Partition points by child (coordinate-order digit at this level).
    let nc = 1usize << D;
    let level = cell.level();
    let digit = |p: &Point<D>| -> usize {
        let bit = MAX_DEPTH - 1 - level;
        let mut d = 0usize;
        for (i, &c) in p.iter().enumerate() {
            d |= (((c >> bit) & 1) as usize) << i;
        }
        d
    };
    let mut counts = vec![0usize; nc];
    for p in points.iter() {
        counts[digit(p)] += 1;
    }
    let mut offsets = vec![0usize; nc + 1];
    for i in 0..nc {
        offsets[i + 1] = offsets[i] + counts[i];
    }
    // In-place bucket permutation (cycle-following American-flag style is
    // overkill here; a scratch buffer is clearer and the generator is not
    // the measured hot path).
    let mut scratch = points.to_vec();
    let mut cursor = offsets.clone();
    for p in points.iter() {
        let d = digit(p);
        scratch[cursor[d]] = *p;
        cursor[d] += 1;
    }
    points.copy_from_slice(&scratch);
    for i in 0..nc {
        let child = cell.child(i);
        split_recursive(
            child,
            &mut points[offsets[i]..offsets[i + 1]],
            cap,
            max_level,
            out,
        );
    }
}

/// A Gaussian-ball adaptive mesh: refinement concentrated around a spherical
/// shell of radius `r` centred in the domain — the classic AMR test problem
/// used for the Poisson example.
pub fn gaussian_ball<const D: usize>(max_level: u8, curve: Curve) -> LinearTree<D> {
    let center = [0.5f64; D];
    let radius = 0.3f64;
    LinearTree::root(curve).refine_where(
        |c: &Cell<D>| {
            // Refine cells whose bounding sphere intersects the shell.
            let cc = c.center_unit();
            let dist: f64 = (0..D)
                .map(|d| (cc[d] - center[d]).powi(2))
                .sum::<f64>()
                .sqrt();
            let half_diag = (D as f64).sqrt() * 0.5 * c.side() as f64 / (1u64 << MAX_DEPTH) as f64;
            (dist - radius).abs() <= half_diag * 1.5
        },
        max_level,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trees_are_complete_and_linear() {
        for dist in Distribution::ALL {
            for curve in Curve::ALL {
                let params = MeshParams {
                    distribution: dist,
                    num_points: 500,
                    seed: 7,
                };
                let t: LinearTree<3> = params.build(curve);
                assert!(t.is_complete(), "{} {curve}", dist.name());
                assert!(crate::linear::is_linear(t.leaves()));
                assert!(t.len() >= 500 / 8, "leaf count too small: {}", t.len());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let params = MeshParams::normal(300, 42);
        let a: LinearTree<3> = params.build(Curve::Hilbert);
        let b: LinearTree<3> = params.build(Curve::Hilbert);
        assert_eq!(a.leaves().len(), b.leaves().len());
        assert!(a
            .leaves()
            .iter()
            .zip(b.leaves())
            .all(|(x, y)| x.cell == y.cell));
    }

    #[test]
    fn different_seeds_give_different_meshes() {
        let a: LinearTree<3> = MeshParams::normal(300, 1).build(Curve::Hilbert);
        let b: LinearTree<3> = MeshParams::normal(300, 2).build(Curve::Hilbert);
        let cells_a: Vec<_> = a.leaves().iter().map(|kc| kc.cell).collect();
        let cells_b: Vec<_> = b.leaves().iter().map(|kc| kc.cell).collect();
        assert_ne!(cells_a, cells_b);
    }

    #[test]
    fn normal_meshes_are_adaptive() {
        // Normal concentration ⇒ a wide spread of leaf levels.
        let t: LinearTree<3> = MeshParams::normal(2_000, 9).build(Curve::Morton);
        let min = t.leaves().iter().map(|kc| kc.cell.level()).min().unwrap();
        let max = t.leaves().iter().map(|kc| kc.cell.level()).max().unwrap();
        assert!(max - min >= 2, "levels {min}..{max} not adaptive");
    }

    #[test]
    fn lognormal_skews_towards_origin() {
        let pts = sample_points::<3>(Distribution::LogNormal, 2_000, 3);
        let half = 1u32 << (MAX_DEPTH - 1);
        let near_origin = pts.iter().filter(|p| p.iter().all(|&c| c < half)).count();
        assert!(
            near_origin > pts.len() / 2,
            "lognormal should concentrate near origin: {near_origin}/2000"
        );
    }

    #[test]
    fn max_level_is_respected() {
        let pts = sample_points::<3>(Distribution::Normal, 5_000, 0x0511_2017);
        let t = tree_from_points(&pts, 1, 4, Curve::Hilbert);
        assert!(t.leaves().iter().all(|kc| kc.cell.level() <= 4));
        assert!(t.is_complete());
    }

    #[test]
    fn gaussian_ball_refines_shell_only() {
        let t: LinearTree<3> = gaussian_ball(5, Curve::Hilbert);
        assert!(t.is_complete());
        let max = t.leaves().iter().map(|kc| kc.cell.level()).max().unwrap();
        let min = t.leaves().iter().map(|kc| kc.cell.level()).min().unwrap();
        assert_eq!(max, 5);
        assert!(min <= 2, "far-field cells should stay coarse, min {min}");
    }

    #[test]
    fn points_are_in_domain() {
        for dist in Distribution::ALL {
            for p in sample_points::<2>(dist, 500, 11) {
                assert!(p.iter().all(|&c| c < (1 << MAX_DEPTH)));
            }
        }
    }
}
