//! # optipart-serve — partition-as-a-service front end
//!
//! A long-running, std-only concurrent server around the incremental
//! OptiPart engine: streams of partition requests (mesh + machine model +
//! α + tolerance budget, one flat-JSON line each, reusing the testkit
//! `Scenario` one-seed encoding) are sharded by scenario fingerprint to a
//! thread-per-core pool of workers, each owning a long-lived virtual BSP
//! engine and a persistent warm [`PartitionState`] — so steady-state
//! serving rides the exact-hit path the warm-start cache was built for
//! (DESIGN.md, *core* and *serve*).
//!
//! The architecture, in one pass through a request (a line arriving on a
//! stream first goes through [`front`] — capped line reader, classifier,
//! per-connection `pump` — and [`protocol`], the wire grammar; in-process
//! callers submit a [`Request`] directly):
//!
//! 1. **Shard** — the canonical scenario key ([`protocol::Request::key`],
//!    the `Scenario` display form) is formatted once, at submit, and its
//!    FNV-1a hash picks the worker ([`protocol::Request::shard`] hashes
//!    the same way), so repeats of a scenario always land on the same
//!    worker and its `PartitionState`.
//! 2. **Backpressure** — each worker has a *bounded* queue
//!    (`ServeConfig::queue_cap`). A full queue sheds at submit time:
//!    deterministic, deadlock-free, and every shed response carries the
//!    request's one-line replay command.
//! 3. **Batch** — a worker popping a request also drains every queued
//!    request with the *same key* and serves them all with one engine pass
//!    (`ServeConfig::batching`). It compares the keys stored at submit and
//!    formats none. Each response goes back on its connection's reply
//!    channel, and that connection's writer sends it at once.
//! 4. **Serve** — [`run_request`] runs `optipart_with_state` on the
//!    worker's per-`p` state under `survive_rank_death`; a fail-stop rank
//!    death shrinks the engine and the same call is retried over the
//!    survivors, looping until a pass completes (the PR 3 recovery
//!    discipline, inline in the server).
//! 5. **Deadline** — each request may carry a budget in *virtual* seconds;
//!    the response is flagged `deadline` when the serving pass's makespan
//!    exceeds it. Warm hits skip the ladder, so a warm server meets budgets
//!    a cold library call cannot — that is the service's selling point,
//!    measured rather than asserted.
//!
//! **Bit-identity contract**: the [`Payload`] of every served response is
//! byte-for-byte the payload of a *direct* library call ([`direct`]) on a
//! fresh engine and state — guaranteed by PR 6's warm≡cold invariant plus
//! engine-reset determinism, and enforced by the `serve-vs-library` testkit
//! oracle, [`soak::verify_responses`], and the chaos soak. Everything
//! that may legitimately differ (worker id, warm path, batch size, wall and
//! virtual latency, deadline status) lives *outside* the payload.

pub use optipart_scenario as scenario;

pub mod chaos;
pub mod front;
pub mod protocol;
pub mod server;
pub mod soak;

pub use protocol::{Request, Response, Status, WarmPath};
pub use server::{Admission, Admit, ConnStats, Ingress, ServeConfig, Server, ServerStats};

use optipart_core::optipart::{optipart_with_state, OptiPartOptions, PartitionState};
use optipart_core::partition::{distribute_tree, PartitionOutcome};
use optipart_mpisim::rng;
use optipart_mpisim::{survive_rank_death, Engine};
use optipart_scenario::Scenario;

/// The bit-identity surface of a response: everything a direct library call
/// determines, and nothing serving conditions can change. Two payloads are
/// equal iff the underlying partitions (splitters, per-rank counts, report,
/// death count, final rank count) are identical.
#[derive(Clone, Debug, PartialEq)]
pub struct Payload {
    /// Order-sensitive fold of splitters + counts + report bits + deaths —
    /// one u64 that changes if any structural field changes.
    pub sig: u64,
    /// Global element count after the exchange.
    pub elements: u64,
    /// Ranks that completed the partition (initial `p` minus deaths).
    pub final_p: u32,
    /// Fail-stop deaths absorbed while serving this request.
    pub deaths: u32,
    /// Load imbalance `λ = max/min`.
    pub lambda: f64,
    /// Achieved tolerance.
    pub achieved_tolerance: f64,
    /// Ladder rounds.
    pub rounds: u64,
    /// Deepest splitter bucket level.
    pub splitter_level: u8,
    /// `Cmax` from the quality pass.
    pub cmax: u64,
    /// `Wmax` (elements on the busiest rank).
    pub wmax: u64,
    /// Eq. (3) predicted application time.
    pub predicted_tp: f64,
}

/// The payload signature's order-sensitive fold step.
fn mix(h: u64, x: u64) -> u64 {
    rng::mix(h ^ x.rotate_left(23))
}

/// OptiPart options induced by a scenario: the scenario's tolerance is the
/// *budget* (ladder ceiling), its split budget is Eq. (2)'s `k`.
pub fn optipart_options(scn: &Scenario) -> OptiPartOptions {
    OptiPartOptions {
        max_tolerance: scn.tolerance,
        max_split_per_round: scn.split_budget,
        ..OptiPartOptions::for_curve(scn.curve)
    }
}

fn payload_of(out: &PartitionOutcome<3>, deaths: u32, final_p: usize) -> Payload {
    let r = &out.report;
    let mut sig = 0x6F70_7469_5F73_7276; // "opti_srv"
    for s in &out.splitters {
        sig = mix(sig, (s.path() >> 64) as u64);
        sig = mix(sig, s.path() as u64);
        sig = mix(sig, s.level() as u64);
    }
    for &c in &r.counts {
        sig = mix(sig, c);
    }
    for f in [r.lambda, r.achieved_tolerance, r.predicted_tp] {
        sig = mix(sig, f.to_bits());
    }
    for u in [
        r.rounds as u64,
        r.splitter_level as u64,
        r.cmax,
        r.wmax,
        out.dist.total_len() as u64,
        deaths as u64,
        final_p as u64,
    ] {
        sig = mix(sig, u);
    }
    Payload {
        sig,
        elements: out.dist.total_len() as u64,
        final_p: final_p as u32,
        deaths,
        lambda: r.lambda,
        achieved_tolerance: r.achieved_tolerance,
        rounds: r.rounds as u64,
        splitter_level: r.splitter_level,
        cmax: r.cmax,
        wmax: r.wmax,
        predicted_tp: r.predicted_tp,
    }
}

/// Executes one request on a caller-provided engine and warm state — the
/// single code path shared by server workers and the direct-call reference,
/// which is what reduces serve-vs-library bit-identity to PR 6's warm≡cold
/// guarantee. Returns the payload and the pass's virtual makespan.
///
/// The engine is [`Engine::reset`] first (fresh clocks, re-armed fault
/// schedule). A fail-stop death during the pass shrinks the engine and
/// retries over the survivors, repeating until a pass completes; the warm
/// state survives (entries under the dead rank count are invalidated by
/// fingerprint, exactly as in the PR 6 recovery drivers).
pub fn run_request(
    engine: &mut Engine,
    state: &mut PartitionState,
    scn: &Scenario,
) -> (Payload, f64) {
    engine.reset();
    let tree = scn.build_tree();
    let opts = optipart_options(scn);
    let mut deaths = 0u32;
    let out = loop {
        let pass = survive_rank_death(engine, |e| {
            optipart_with_state(e, distribute_tree(&tree, e.p()), opts, state)
        });
        match pass {
            Ok(out) => break out,
            Err(_) => deaths += 1,
        }
    };
    let payload = payload_of(&out, deaths, engine.p());
    (payload, engine.makespan())
}

/// Coarse virtual-time estimate of serving `scn` cold: `⌈log₂ p⌉` exchange
/// rounds of (latency + per-rank payload) plus the local scan, in the
/// scenario's machine model — the Eq. (1)/(3) cost shape with fixed
/// constants. This is *not* a prediction the payload depends on; it exists
/// so deadline-aware admission and `retry_after` hints are pure functions
/// of queue contents (every job's estimate is fixed at submit, and backlog
/// is a sum over queued jobs in order — no clocks, no drift).
pub fn estimate_virtual_s(scn: &Scenario) -> f64 {
    let n = scn.n as f64;
    let p = scn.p.max(1) as f64;
    let m = &scn.machine;
    let per_rank_bytes = (n / p) * 16.0;
    let rounds = p.log2().ceil().max(1.0);
    rounds * (m.ts + per_rank_bytes * m.tw) + (n / p) * 24.0 * m.tc
}

/// The direct library call a served response must be bit-identical to:
/// fresh engine (with the scenario's fault plan), fresh default state, one
/// [`run_request`]. This is the reference side of the `serve-vs-library`
/// oracle and of `--verify`.
pub fn direct(scn: &Scenario) -> Payload {
    let mut engine = scn.engine_faulted();
    let mut state = PartitionState::new();
    run_request(&mut engine, &mut state, scn).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_is_deterministic_and_warm_hit_is_bit_identical() {
        let scn = Scenario::from_seed(314159);
        let a = direct(&scn);
        let b = direct(&scn);
        assert_eq!(a, b);
        // Warm second pass on a persistent state: same payload, fewer
        // syncs (the service's whole premise).
        let mut engine = scn.engine_faulted();
        let mut state = PartitionState::new();
        let (cold, _) = run_request(&mut engine, &mut state, &scn);
        let (warm, _) = run_request(&mut engine, &mut state, &scn);
        assert_eq!(cold, a);
        assert_eq!(warm, a);
        assert_eq!(state.stats.hits, 1, "{:?}", state.stats);
    }

    #[test]
    fn rank_death_is_absorbed_and_reported() {
        use optipart_mpisim::FaultPlan;
        // Find a scenario with p ≥ 3 and arm a mid-partition kill.
        let mut scn = (0..)
            .map(|s| Scenario::from_seed(271828 + s))
            .find(|s| s.p >= 3 && s.n >= 80)
            .unwrap();
        scn.faults = Some(FaultPlan::new(scn.seed).kill_rank(scn.p - 1, 4));
        let pl = direct(&scn);
        assert_eq!(pl.deaths, 1, "kill at sync 4 must fire");
        assert_eq!(pl.final_p as usize, scn.p - 1);
        assert_eq!(pl, direct(&scn), "recovery must be deterministic");
    }
}
