//! # optipart-fem — the paper's test application (§5.3)
//!
//! "Our target applications are solving PDEs using adaptive discretizations
//! using the Finite Element method. In most computational codes, the basic
//! building block is the **matvec** … The communication as well as the
//! compute pattern for most PDEs is characterized by the matvec. For this
//! reason, we evaluate the effectiveness of OptiPart using an adaptively
//! discretized Laplacian operator," i.e. a 3D Poisson problem with zero
//! Dirichlet boundary conditions on the unit cube, run for 100 matvecs.
//!
//! This crate provides that application on the virtual BSP engine:
//!
//! * [`mesh`] — a distributed mesh over a partitioned linear octree:
//!   ghost/halo layer discovery via a query/reply exchange, static
//!   send/receive lists, and face-flux coefficients for a finite-volume
//!   discretisation of the Laplacian.
//! * [`matvec`] — the halo-exchange + stencil kernel whose communication
//!   volume *is* the communication matrix `M` of §5.5 and whose α ≈ `2D+2`
//!   memory accesses per element matches the paper's "7-point stencil → α ∼
//!   8" example.
//! * [`solver`] — a conjugate-gradient solver for the Poisson problem (the
//!   "iterative solvers … can all be represented as a series of matvecs").
//! * [`driver`] — the §5.4 experiment: run `k` matvecs on a given partition
//!   and report simulated time, per-node energy, and traffic.
//! * [`amr`] — the repeated-partitioning scenario (§1): a refinement front
//!   moving through the cube, remeshed, repartitioned and solved each step.
//! * [`recovery`] — the two solve loops themselves, checkpointed and
//!   fail-stop tolerant; the [`driver`] and [`amr`] entry points are these
//!   loops with checkpointing off.

pub mod amr;
pub mod driver;
pub mod matvec;
pub mod mesh;
pub mod recovery;
pub mod solver;

pub use amr::{amr_simulation, AmrConfig, AmrReport, Strategy};
pub use driver::{initial_vector, repartition_sequence, run_matvec_experiment, MatvecExperiment};
pub use matvec::{laplacian_matvec, MatvecStats};
pub use mesh::{DistMesh, LocalMesh, Slot};
pub use recovery::{amr_simulation_ft, run_matvec_ft, DeathRecord, FtAmrReport, FtReport};
pub use solver::{cg_solve, CgReport};
