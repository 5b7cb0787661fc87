//! # optipart-testkit — the workspace's single correctness layer
//!
//! The paper's claims (exact-splitter TreeSort §3.1, Eq. (3) optimality of
//! OptiPart's stopping point, monotone surface reduction under tolerance)
//! are invariants that silently rot as the engine grows faults,
//! checkpointing and tracing. This crate pins them with machinery instead
//! of ad-hoc per-crate tests:
//!
//! * [`scenario`] — a seeded, SplitMix64-driven **scenario generator**: one
//!   `u64` deterministically expands into an octree workload (uniform,
//!   Gaussian, log-normal, surface-concentrated or adversarially skewed),
//!   a machine/application model, a tolerance, a split budget and a fault
//!   plan. Every failure message carries the scenario and a copy-pastable
//!   `testkit replay --seed …` command.
//! * [`oracles`] — **differential oracles**: the sequential
//!   [`treesort`](optipart_core::treesort::treesort) vs a comparison sort
//!   and distributed TreeSort vs the sorted multiset, its owners and the
//!   tolerance its delivered counts realise (two legs); OptiPart vs a
//!   brute-force tolerance sweep minimising Eq. (3); SampleSort vs TreeSort
//!   multiset equality; faulted/recovered runs vs fault-free solutions.
//! * [`metamorphic`] — **metamorphic properties**: permutation and
//!   duplication robustness of partitions, tolerance-monotonicity of
//!   `Cmax` and comm-matrix NNZ, bit-exact scale invariance of Eq. (3)
//!   under power-of-two `tc`/`tw` rescaling.
//! * [`mod@soak`] — a bounded **fuzz driver** (`testkit soak --budget N
//!   --seed S`) running scenarios through the full
//!   engine+faults+checkpoint+trace stack, shrinking any failure and
//!   printing its one-line replay.
//! * [`gen`] — the shared seeded engine and mesh builders behind the
//!   fault-recovery oracle and the root `tests/properties.rs` suite.
//!
//! The dependency crates are re-exported below so downstream test code can
//! name the exact type instances this crate's generators produce.

pub use optipart_core as core;
pub use optipart_fem as fem;
pub use optipart_machine as machine;
pub use optipart_mpisim as mpisim;
pub use optipart_octree as octree;
pub use optipart_sfc as sfc;
pub use optipart_trace as trace;

/// Re-export of [`optipart_scenario`]: the seeded scenario generator lives
/// in its own crate so `optipart-serve` can share the one-seed request
/// encoding without a dependency cycle (scenario ← serve ← testkit). All
/// historical `optipart_testkit::scenario::…` paths keep working.
pub use optipart_scenario as scenario;

pub mod corpus;
pub mod gen;
pub mod metamorphic;
pub mod oracles;
pub mod soak;

pub use scenario::{MeshShape, Scenario};
pub use soak::{run_scenario, soak, SoakFailure, SoakReport, CHECKS};

/// Asserts a named condition about a scenario; on failure panics with the
/// scenario description **and a copy-pastable single-seed replay command**
/// — the acceptance contract for every testkit failure message.
#[macro_export]
macro_rules! tk_assert {
    ($scn:expr, $cond:expr, $($arg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            panic!(
                "testkit failure: {}\n  scenario: {}\n  replay:   {}",
                format_args!($($arg)+),
                $scn,
                $scn.replay_cmd()
            );
        }
    }};
}

/// [`tk_assert`] for equality, printing both sides on failure.
#[macro_export]
macro_rules! tk_assert_eq {
    ($scn:expr, $a:expr, $b:expr, $($arg:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            panic!(
                "testkit failure: {} (left != right)\n  left:  {:?}\n  right: {:?}\n  scenario: {}\n  replay:   {}",
                format_args!($($arg)+),
                lhs,
                rhs,
                $scn,
                $scn.replay_cmd()
            );
        }
    }};
}
