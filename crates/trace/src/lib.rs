//! Deterministic structured tracing over the virtual BSP clock.
//!
//! The engine in `optipart-mpisim` simulates a distributed machine whose
//! only notion of time is the per-rank virtual clock. This crate records
//! what that machine *did* — every compute segment, every collective, every
//! synchronisation point — stamped in virtual seconds, and turns the record
//! into three artefacts:
//!
//! - a Chrome `trace_event` JSON export ([`chrome_trace_json`]) openable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! - a critical path over the BSP dependency graph ([`critical_path`]):
//!   the chain of compute segments and collective edges, hopping between
//!   ranks at each synchronisation point, whose length is exactly the
//!   engine's makespan;
//! - a model-attribution report ([`model_attribution`]) splitting each
//!   phase's measured cost against the Eq. (3) terms `α·tc·Wmax` and
//!   `tw·Cmax` (plus the `ts·Mmax` latency extension) and suggesting
//!   recalibrated `tc`/`tw` from the residuals.
//!
//! # Determinism rules
//!
//! Everything recorded here derives from the virtual clock, which is itself
//! bit-reproducible (see `optipart-mpisim`): the same program on the same
//! seeded engine produces a byte-identical export at any worker thread
//! count. Two rules keep it that way:
//!
//! 1. all mutation happens on the engine thread (the engine charges clocks
//!    serially after its fork–join compute sections);
//! 2. host wall-clock time never enters the trace: the recorder has no
//!    host clock, so a span holds virtual seconds only.
//!
//! # Overhead
//!
//! Phase counters (per-phase virtual time and bytes — the successors of the
//! old `RunStats` phase timers) are always on and cost two `Vec` index
//! bumps per phase. Span buffers, sync points, marks and decision events
//! are only recorded after [`Tracer::enable_spans`]; when disabled every
//! record call is a single branch on a `bool`.

mod attrib;
mod critical;
mod export;
pub mod json;
mod profile;
mod tracer;

pub use attrib::{model_attribution, ModelAttribution, ModelParams, PhaseAttribution};
pub use critical::{critical_path, CriticalPath, PathItem, PathKind};
pub use export::{chrome_trace_digest, chrome_trace_json, fnv1a};
pub use profile::{profile, PhaseProfile, Profile};
pub use tracer::{Decision, Mark, PhaseSpan, Span, SpanKind, SyncPoint, Tracer, ROOT_PHASE};
