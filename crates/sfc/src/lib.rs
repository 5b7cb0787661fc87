//! # optipart-sfc — space-filling-curve substrate
//!
//! This crate provides the geometric foundation of the OptiPart partitioner
//! (Fernando, Duplyakin & Sundar, *Machine and Application Aware Partitioning
//! for Adaptive Mesh Refinement Applications*, HPDC 2017):
//!
//! * [`Cell`] — a quadtree/octree cell ("octant" in 3D) addressed by its
//!   anchor corner and refinement level, discretised to
//!   [`MAX_DEPTH`] = 30 bits per coordinate exactly as in the paper (§3.1:
//!   "we considered trees of depth 30 (so that the coordinates can be
//!   represented using unsigned int)").
//! * [`Curve`] — the two space-filling curves evaluated in the paper,
//!   [`Curve::Morton`] and [`Curve::Hilbert`].
//! * [`SfcKey`] — the materialised position of a cell on a curve: a sequence
//!   of `MAX_DEPTH` base-2^D digits (one per tree level, most significant
//!   first) plus the cell level, with *ancestor-before-descendant* ordering.
//!
//! ## Keys vs. comparison functions
//!
//! The paper's `TreeSort` (Algorithm 1) buckets elements per level by
//! `child_num(a)` and then permutes the buckets by the curve ordering
//! `Rh(counts)`. Extracting digit `k` of an [`SfcKey`] yields exactly the
//! `Rh`-permuted child number: the digit *is* the rank of the child cell in
//! curve order at that level. Precomputing keys therefore turns TreeSort into
//! a textbook MSD radix sort over digits while preserving the algorithm's
//! semantics; this is the same trick p4est and Dendro use for Morton, extended
//! here to Hilbert via Skilling's transform.

pub mod cell;
pub mod hilbert;
pub mod key;
pub mod morton;

pub use cell::{Cell, Cell2, Cell3, Point, MAX_DEPTH};
pub use key::{Curve, KeyedCell, SfcKey};
