//! # optipart — machine- and application-aware AMR partitioning
//!
//! Facade crate of the OptiPart workspace, a Rust reproduction of
//! Fernando, Duplyakin & Sundar, *Machine and Application Aware Partitioning
//! for Adaptive Mesh Refinement Applications* (HPDC 2017). See README.md for
//! the overview, DESIGN.md for the substitutions and one contract per
//! layer, and EXPERIMENTS.md for the reproduced evaluation.
//!
//! ## Module map
//!
//! * [`sfc`] — space-filling curves (Morton, Hilbert), octree cells, keys.
//! * [`octree`] — linear octrees: construction, completion, 2:1 balance,
//!   neighbours, random AMR mesh generators.
//! * [`mpisim`] — the virtual-process BSP engine (cost-modeled collectives),
//!   the workspace's one message-passing substrate.
//! * [`machine`] — machine models (Titan, Stampede, CloudLab), the Eq. (3)
//!   performance model, power/energy simulation.
//! * [`core`] — the paper's algorithms: TreeSort, flexible-tolerance
//!   partitioning, PartitionQuality, OptiPart, the SampleSort baseline,
//!   partition metrics.
//! * [`fem`] — the test application: distributed octree mesh, ghost
//!   exchange, Laplacian matvec, CG solver, AMR time-stepping driver.
//! * [`trace`] — deterministic structured tracing over the virtual BSP
//!   clock: Chrome-trace export, critical-path extraction, Eq. (3) model
//!   attribution.
//! * [`scenario`] — the seeded scenario model shared by the testkit, the
//!   server protocol and the benchmarks: mesh shapes, element families
//!   (hex/tet/prism/hybrid), machine hierarchies and time-varying
//!   workloads, all derived deterministically from one `u64`; also the
//!   one `--key value` flag parser of every binary (`scenario::flags`).
//! * [`serve`] — partition-as-a-service front end: fingerprint-sharded
//!   warm-state worker pool, request batching, bounded-queue backpressure,
//!   verified chaos soak (the `optipart-serve` binary).
//!
//! ## Minimal example
//!
//! ```
//! use optipart::core::optipart::{optipart, OptiPartOptions};
//! use optipart::core::partition::distribute_tree;
//! use optipart::machine::{AppModel, MachineModel, PerfModel};
//! use optipart::mpisim::Engine;
//! use optipart::octree::MeshParams;
//! use optipart::sfc::Curve;
//!
//! let tree = MeshParams::normal(2_000, 42).build::<3>(Curve::Hilbert);
//! let perf = PerfModel::new(MachineModel::cloudlab_wisconsin(),
//!                           AppModel::laplacian_matvec());
//! let mut engine = Engine::new(16, perf);
//! let out = optipart(&mut engine, distribute_tree(&tree, 16),
//!                    OptiPartOptions::default());
//! assert_eq!(out.dist.total_len(), tree.len());
//! assert!(out.report.lambda >= 1.0);
//! ```

pub use optipart_core as core;
pub use optipart_fem as fem;
pub use optipart_machine as machine;
pub use optipart_mpisim as mpisim;
pub use optipart_octree as octree;
pub use optipart_scenario as scenario;
pub use optipart_serve as serve;
pub use optipart_sfc as sfc;
pub use optipart_trace as trace;
