//! Tier-1 acceptance of the optipart-serve front end: a 1000-request mixed
//! stream — repeats over 60 distinct scenarios, fail-stop kills and
//! deadline budgets laced in — served by a 4-worker pool, then verified
//! response-by-response against direct library calls (bit-identical
//! payloads, exact replay commands on sheds, self-consistent deadline
//! flags). This is the end-to-end contract DESIGN.md (*serve*) promises.

use optipart::serve::chaos::{chaos_soak, ChaosKnobs};
use optipart::serve::soak::{mixed_stream, verify_responses, DirectCache};
use optipart::serve::{Admission, Request, ServeConfig, Server, Status};

/// The headline run: 1000 mixed requests at 4 workers — nothing sheds,
/// every payload is bit-identical to the library, rank deaths injected
/// mid-stream are absorbed, and the warm caches serve at least half the
/// requests without a cold ladder.
#[test]
fn thousand_request_stream_is_bit_identical_at_four_workers() {
    let reqs = mixed_stream(0x075E_127E, 1000, 60, 97, 41);
    assert_eq!(reqs.len(), 1000);
    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 1000,
        state_cap: 64,
        engine_cache: 8,
        batching: true,
        admission: Default::default(),
    });
    for r in &reqs {
        assert!(server.submit(r.clone()), "queue_cap 1000 must not shed");
    }
    let resps = server.drain(reqs.len());
    let stats = server.shutdown();

    let sum = verify_responses(&reqs, &resps).expect("stream verifies against the library");
    assert_eq!(sum.checked, 1000);
    assert_eq!(sum.shed, 0);
    assert_eq!(sum.served, 1000);
    assert!(
        stats.deaths > 0,
        "kill plans must exercise mid-stream recovery: {stats:?}"
    );
    assert!(
        stats.warm_request_rate() >= 0.5,
        "warm caches must absorb at least half the stream: rate {:.2} ({stats:?})",
        stats.warm_request_rate()
    );
}

/// The same stream through a deliberately starved server (1 worker, queue
/// capacity 8, paused so the burst hits full queues): sheds are reported —
/// never dropped — and everything that was accepted still verifies.
#[test]
fn overloaded_server_sheds_loudly_and_serves_the_rest_correctly() {
    let reqs = mixed_stream(0xBAC4_44E5, 120, 10, 0, 13);
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        state_cap: 16,
        engine_cache: 4,
        batching: true,
        admission: Default::default(),
    });
    server.pause();
    let accepted: usize = reqs.iter().filter(|r| server.submit((*r).clone())).count();
    server.release();
    let resps = server.drain(reqs.len());
    let stats = server.shutdown();

    assert_eq!(accepted, 8, "exactly queue_cap requests fit a paused queue");
    assert_eq!(stats.shed, (reqs.len() - accepted) as u64);
    let sum = verify_responses(&reqs, &resps).expect("sheds and serves both verify");
    assert_eq!(sum.shed, reqs.len() - accepted);
    assert_eq!(sum.served, accepted);
    for resp in resps.iter().filter(|r| r.status == Status::Shed) {
        let replay = resp.replay.as_deref().expect("shed carries replay");
        assert!(
            replay.contains("replay") && replay.contains("--seed"),
            "replay command must be runnable: {replay}"
        );
        let retry = resp.retry_after_s.expect("shed carries a retry hint");
        assert!(
            retry.is_finite() && retry > 0.0,
            "retry hint must be a usable backoff: {retry}"
        );
    }
}

/// Batching is an optimisation, never an observable: the same stream with
/// batching on and off produces bit-identical payload sets.
#[test]
fn batching_is_payload_invisible() {
    let reqs = mixed_stream(0xFA57_F00D, 80, 6, 0, 0);
    let run = |batching: bool| -> Vec<(u64, u64)> {
        let server = Server::start(ServeConfig {
            workers: 2,
            queue_cap: 128,
            state_cap: 16,
            engine_cache: 4,
            batching,
            admission: Default::default(),
        });
        server.pause();
        for r in &reqs {
            server.submit(r.clone());
        }
        server.release();
        let resps = server.drain(reqs.len());
        server.shutdown();
        let mut sigs: Vec<(u64, u64)> = resps
            .iter()
            .map(|r| (r.id, r.payload.as_ref().expect("served").sig))
            .collect();
        sigs.sort_unstable();
        sigs
    };
    assert_eq!(run(true), run(false));
}

/// The headline chaos soak (ISSUE acceptance): a 1000-request stream at 4
/// workers under a seeded storm — ≥10 worker panics armed, 5 clients
/// disconnecting mid-stream, 16 corrupted lines — and still: every
/// submitted request answered exactly once, every served payload
/// bit-identical to a direct library call, byte-identical transcripts
/// across two identically-seeded runs, and served payloads that agree
/// bit-for-bit with a 1-worker run of the same plan.
#[test]
fn thousand_request_chaos_soak_conserves_and_stays_deterministic() {
    let knobs = ChaosKnobs {
        panics: 14,
        max_pass: 3,
        disconnects: 5,
        clients: 8,
        corrupt: 16,
        stall_every: 0,
    };
    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 1000,
        state_cap: 64,
        engine_cache: 8,
        batching: true,
        admission: Admission::DeadlineAware,
    };
    let seed = 0x0C4A_0508;
    let mut cache = DirectCache::new();
    let a = chaos_soak(seed, 1000, cfg, knobs, &mut cache).expect("chaos soak verifies");
    let b = chaos_soak(seed, 1000, cfg, knobs, &mut cache).expect("repeat verifies");
    assert_eq!(
        a.transcript, b.transcript,
        "same seed must reproduce the run byte-for-byte"
    );

    let s = &a.summary;
    assert!(s.panics >= 10, "must absorb ≥10 worker panics: {s:?}");
    assert!(s.failed > 0, "panicked passes must fail loudly: {s:?}");
    assert!(
        s.lost_to_disconnect >= 5,
        "disconnects must cost lines: {s:?}"
    );
    assert!(
        s.parse_errors > 0,
        "corruption must claim casualties: {s:?}"
    );
    assert!(s.served > 400, "the bulk of the stream still serves: {s:?}");
    assert_eq!(
        s.submitted,
        s.served + s.failed + s.shed + s.rejected,
        "conservation: every submitted request answered exactly once: {s:?}"
    );
    assert!(a.stats.conservation().is_ok());

    // Same plan at 1 worker: the client-side chaos is identical by
    // construction, so shared served ids must carry identical payloads.
    let solo = chaos_soak(
        seed,
        1000,
        ServeConfig { workers: 1, ..cfg },
        knobs,
        &mut cache,
    )
    .expect("1-worker run verifies");
    let mut common = 0usize;
    for (id, p) in &solo.served_payloads {
        if let Some(q) = a.served_payloads.get(id) {
            assert_eq!(p, q, "payload for id {id} must not depend on worker count");
            common += 1;
        }
    }
    assert!(
        common > 300,
        "the cross-width check must actually compare payloads: {common}"
    );
}

/// Wire-level spot check: a request rebuilt from its own JSON serves to
/// the same payload as the original (the protocol carries everything the
/// engine needs).
#[test]
fn wire_round_trip_preserves_served_payloads() {
    let reqs = mixed_stream(0x1234_5678, 12, 4, 6, 5);
    let rebuilt: Vec<Request> = reqs
        .iter()
        .map(|r| Request::from_json(&r.to_json()).expect("round trip"))
        .collect();
    for (a, b) in reqs.iter().zip(&rebuilt) {
        assert_eq!(a.key(), b.key());
        assert_eq!(
            optipart::serve::direct(&a.scn),
            optipart::serve::direct(&b.scn)
        );
    }
}
