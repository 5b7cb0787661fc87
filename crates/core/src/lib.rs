//! # optipart-core — the HPDC'17 partitioning algorithms
//!
//! This crate implements the paper's contribution on top of the substrates:
//!
//! * [`treesort`] — **Algorithm 1**: sequential TreeSort, the MSD-radix /
//!   top-down-octree reformulation of SFC ordering (§2.1).
//! * [`partition`] — **distributed TreeSort** (§3.1): breadth-first splitter
//!   refinement by global bucket-count reductions (no comparisons), with a
//!   user **tolerance** on the load balance (§3.2) and staged splitter
//!   selection (Eq. 2), followed by the staged all-to-all exchange and a
//!   local TreeSort.
//! * [`quality`] — **Algorithm 2** (`PartitionQuality`): estimates a
//!   candidate partition's `Wmax` and `Cmax` with one linear pass plus three
//!   vector all-reduces, and predicts its runtime via Eq. (3). The pass
//!   sweeps a face-neighbour key table built once per ladder.
//! * [`optipart()`] — **Algorithm 3** (`OptiPart`): distributed TreeSort that
//!   refines only while the predicted runtime of the *next* refinement
//!   improves — discovering the optimal tolerance automatically for the
//!   given machine and application. It shares TreeSort's one refinement
//!   loop (run once per tolerance rung, optionally served from a warm
//!   count table) and its one exchange-sort-report finisher.
//! * [`samplesort`] — the baseline: Morton + SampleSort partitioning as in
//!   Dendro (§5.2), for the comparison figures.
//! * [`metrics`] — partition-quality analysis: load/communication imbalance,
//!   boundary element counts, the communication matrix `M` and its NNZ
//!   (§5.5).

pub mod metrics;
pub mod optipart;
pub mod partition;
pub mod quality;
pub mod samplesort;
pub mod treesort;

pub use optipart::{
    optipart, optipart_with_state, OptiPartOptions, PartitionState, WarmStats, DEFAULT_STATE_CAP,
};
pub use partition::{
    distribute_by_splitters, distribute_shuffled, distribute_tree, treesort_partition,
    PartitionOptions, PartitionOutcome, PartitionReport,
};
pub use quality::partition_quality;
pub use samplesort::samplesort_partition;
