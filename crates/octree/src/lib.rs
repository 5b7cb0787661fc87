//! # optipart-octree — linear octree substrate
//!
//! The paper partitions *adaptively refined octree meshes*. Mainstream AMR
//! machinery (p4est, Dendro) has no Rust equivalent, so this crate builds the
//! required pieces from scratch:
//!
//! * [`linear`] — operations on **linear octrees** (sorted, non-overlapping
//!   leaf arrays): construction with overlap resolution, validation,
//!   predicate-driven refinement.
//! * [`balance`] — 2:1 face-balance enforcement, the invariant real AMR
//!   codes maintain so that each face has at most `2^(D-1)` neighbours.
//! * [`neighbors`] — leaf lookup and face-neighbour enumeration on linear
//!   octrees, the machinery behind ghost-layer construction and the
//!   partition-boundary metrics of Algorithm 2.
//! * [`generate`] — the paper's §4.2 workloads: octrees built from points
//!   drawn from **uniform, normal and log-normal** distributions, plus a
//!   Gaussian-ball adaptive refinement pattern for the FEM example.

pub mod balance;
pub mod generate;
pub mod linear;
pub mod neighbors;

pub use generate::{
    gaussian_ball, sample_points, sample_points_shell, sample_points_skewed, tree_from_points,
    Distribution, MeshParams,
};
pub use linear::LinearTree;
