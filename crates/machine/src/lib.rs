//! # optipart-machine — machine models, performance model, energy model
//!
//! The OptiPart partitioner (HPDC'17) is *architecture-aware*: it consumes a
//! machine model — memory slowness `tc`, network latency `ts`, network
//! slowness `tw` (Table 1 of the paper) — and an *application model* — `α`,
//! the number of memory accesses per unit of work (§3.3) — and predicts the
//! runtime of a candidate partition with Eq. (3):
//!
//! ```text
//! Tp = α · tc · Wmax + tw · Cmax
//! ```
//!
//! This crate provides:
//!
//! * [`MachineModel`] — the four machines of the paper's evaluation as
//!   presets ([`MachineModel::titan`], [`MachineModel::stampede`],
//!   [`MachineModel::cloudlab_wisconsin`], [`MachineModel::cloudlab_clemson`])
//!   plus constructors for custom machines.
//! * [`AppModel`] — the application parameters (`α`, element size) obtained
//!   in practice "using a simple sequential profiling of the main execution
//!   kernel" (§3.3).
//! * [`PerfModel`] — Eq. (3) and the collective cost models of Eqs. (1)–(2).
//! * [`energy`] — the power/energy substrate standing in for the paper's
//!   IPMI measurements on CloudLab (§4.1): per-node power traces built from
//!   simulated activity intervals, sampled at 1 Hz like the paper's on-board
//!   sensors, and integrated to Joules.
//!
//! ## Substitution note (per DESIGN.md)
//!
//! The paper measures real hardware; we cannot. The preset constants below
//! are order-of-magnitude estimates from the published specs of each system
//! (Gemini/FDR-IB/10GbE bandwidths, DDR3/DDR4 bandwidths, Haswell node power
//! envelopes). Every figure reproduced from these models is a *shape*
//! reproduction: who wins, how curves bend, where optima sit — not absolute
//! seconds or Joules.

pub mod energy;
pub mod model;
pub mod perf;

pub use energy::{ActivityKind, EnergyReport, IpmiSampler, NodePower, PowerTrace};
pub use model::{AppModel, Hierarchy, MachineModel};
pub use perf::PerfModel;
