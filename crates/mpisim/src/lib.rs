//! # optipart-mpisim — virtual-process BSP engine
//!
//! The paper's algorithms run as MPI programs on up to 262,144 Titan cores.
//! Rust has no mature MPI bindings and we have no Titan, so this crate
//! provides the substitute substrate described in DESIGN.md: a deterministic
//! **bulk-synchronous virtual-process engine**.
//!
//! ## Programming model
//!
//! Algorithms are written in *global view* SPMD style against [`Engine`]:
//! rank-local state lives in a [`DistVec`] (one `Vec` per virtual rank),
//! local compute phases run all ranks' closures in parallel on scoped
//! threads ([`par`], honouring `RAYON_NUM_THREADS`), and
//! collectives ([`Engine::allreduce_sum_u64`], [`Engine::alltoallv_flat`], …)
//! move real data between rank buffers *and* charge every rank's virtual
//! clock using the machine model's LogGP-style costs (Eqs. 1–2 of the
//! paper). This preserves the quantities the paper's claims rest on — who
//! holds how much work, who exchanges how many bytes, how many messages fly
//! — while letting a laptop host hundreds of thousands of "ranks".
//!
//! ## Clock semantics
//!
//! * A compute phase advances each rank's clock independently by the cost
//!   the phase reports (modeled: `bytes × tc`).
//! * A collective is a synchronisation point: every rank waits for the last
//!   arrival (`max` of clocks), pays the collective's cost, and leaves with
//!   a common (or per-rank, for `alltoallv`) completion time. Waiting time
//!   is the load-imbalance penalty — it costs wall-clock *and* idle energy.
//! * Bytes are declared, not measured: an element of type `T` costs
//!   [`Wire::BYTES`] wherever it is charged, whatever its host layout.
//!
//! ## What is recorded
//!
//! [`RunStats`] counts messages and bytes (optionally a full rank×rank
//! communication matrix — the `M` of §5.5), always-on phase counters
//! ([`Engine::phase_time`] / [`Engine::phase_bytes`], backed by
//! `optipart-trace`) give the partition/all2all/splitter breakdowns of
//! Figs. 5–6, and an energy accumulator feeds `optipart-machine`'s
//! per-node reports. [`Engine::with_tracing`] additionally records every
//! compute segment, collective charge and synchronisation point on the
//! virtual timeline — see [`Engine::trace_json`],
//! [`Engine::critical_path`] and [`Engine::model_attribution`].
//!
//! ## Fault injection and auditing
//!
//! An engine built with [`Engine::with_faults`] applies a seeded
//! [`FaultPlan`]: per-rank compute stragglers (clock-only slowdowns),
//! per-link `tw` perturbation, and transient `alltoallv` failures that cost
//! modeled retry-with-backoff time on the virtual clock. Faults never touch
//! payload data — only clocks — so the same seed reproduces the same
//! makespan bit-for-bit at any host thread count, and data-level results
//! are identical with faults on or off.
//!
//! Independently of faults, an always-on audit checks conservation
//! invariants after every collective — `alltoallv` neither loses nor
//! duplicates elements, byte accounting matches the buffers actually
//! moved, virtual clocks never run backwards — and panics with rank-level
//! diagnostics on the first violation. See DESIGN.md, *mpisim* ("Audits").
//!
//! The engine is the workspace's one message-passing substrate. Its own
//! references check it: the dense `alltoallv` and the walked hypercube
//! staging (compiled for tests and the `reference` feature) against the
//! production all-to-alls.
//!
//! ## Fail-stop failures and recovery
//!
//! A [`FaultPlan`] can additionally schedule **fail-stop rank deaths**
//! ([`FaultPlan::with_rank_failures`], [`FaultPlan::kill_rank`]): the
//! victim stops arriving at synchronisation points, survivors detect the
//! death at the next collective after a timeout charge, and the engine
//! unwinds with a [`RankDeath`] payload. Drivers run their work under
//! [`survive_rank_death`] ([`catch_rank_death`], then
//! [`Engine::shrink_after_death`] to continue as a `p − 1`-rank machine),
//! restore app state from a [`CheckpointStore`]
//! (in-memory partner checkpointing, [`checkpoint`] module), repartition
//! over the survivors, and re-run lost work — every recovery cost lands on
//! the virtual clocks and in the critical path. See DESIGN.md, *mpisim* and *fem*.

pub mod checkpoint;
pub mod collectives;
pub mod dist;
pub mod engine;
pub mod faults;
pub mod par;
pub mod rng;
pub mod stats;
mod wire;

pub use checkpoint::{
    Checkpoint, CheckpointPolicy, CheckpointStats, CheckpointStore, Replicated, Snapshot,
};
pub use collectives::{AllToAllAlgo, AlltoallvArena, ReduceOp, Tally};
pub use dist::DistVec;
pub use engine::Engine;
pub use faults::{catch_rank_death, survive_rank_death, FaultPlan, RankDeath, RankFaults};
pub use optipart_trace::{CriticalPath, ModelAttribution, PathKind, Tracer};
pub use stats::{CommMatrix, RunStats};
pub use wire::Wire;
