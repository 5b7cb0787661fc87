//! Mixed-scenario stream generation and response verification: a stream
//! can be laced with fault plans (stragglers, transient retries, fail-stop
//! kills with shrink-recovery) and deadlines, and every served response is
//! checked bit-identical to a direct library call.

use crate::protocol::{Request, Response, Status};
use crate::{direct, Payload};
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::FaultPlan;
use optipart_scenario::Scenario;
use std::collections::BTreeMap;

/// RNG stream tags (forked off the stream seed, mirroring the scenario
/// generator's discipline so picks and scenario fields stay decorrelated).
const STREAM_SCENARIOS: u64 = 0x5EB5;
const STREAM_PICKS: u64 = 0x9106;

/// Generates a deterministic request stream: `requests` draws (with
/// repeats) from `distinct` seeded scenarios — the fingerprint-sharded
/// workload whose repeats the warm caches are meant to absorb.
///
/// * `kill_every` > 0 arms a fail-stop kill on every `kill_every`-th
///   request whose scenario has `p ≥ 3` (so the shrink leaves a working
///   communicator), on top of the scenario's own benign plan.
/// * `deadline_every` > 0 attaches a deadline to every `deadline_every`-th
///   request, alternating hopeless (1 ns) and generous (1 Gs) budgets.
pub fn mixed_stream(
    seed: u64,
    requests: usize,
    distinct: usize,
    kill_every: usize,
    deadline_every: usize,
) -> Vec<Request> {
    let distinct = distinct.max(1);
    let mut fields = SplitMix64::new(seed).fork(STREAM_SCENARIOS);
    let scns: Vec<Scenario> = (0..distinct)
        .map(|_| Scenario::from_seed(fields.next_u64()))
        .collect();
    let mut pick = SplitMix64::new(seed).fork(STREAM_PICKS);
    (0..requests)
        .map(|i| {
            let mut scn = scns[pick.next_below(distinct as u64) as usize].clone();
            if kill_every != 0 && i % kill_every == kill_every - 1 && scn.p >= 3 {
                let victim = pick.next_below(scn.p as u64) as usize;
                let at = 3 + pick.next_below(6);
                let plan = scn
                    .faults
                    .clone()
                    .unwrap_or_else(|| FaultPlan::new(scn.seed));
                scn.faults = Some(plan.kill_rank(victim, at));
            }
            let deadline_s = if deadline_every != 0 && i % deadline_every == deadline_every - 1 {
                Some(if pick.next_below(2) == 0 { 1e-9 } else { 1e9 })
            } else {
                None
            };
            Request {
                id: i as u64,
                scn,
                deadline_s,
            }
        })
        .collect()
}

/// Memoized direct-call reference payloads, keyed by canonical scenario
/// key — so verifying a 1000-request stream costs one library call per
/// *distinct* scenario, not per request.
#[derive(Default)]
pub struct DirectCache {
    map: BTreeMap<String, Payload>,
}

impl DirectCache {
    pub fn new() -> DirectCache {
        DirectCache::default()
    }

    /// The reference payload for `scn` (computed on first use).
    pub fn payload(&mut self, scn: &Scenario) -> Payload {
        let key = scn.to_string();
        if let Some(p) = self.map.get(&key) {
            return p.clone();
        }
        let p = direct(scn);
        self.map.insert(key, p.clone());
        p
    }

    /// Distinct scenarios referenced so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// What [`verify_responses`] established.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifySummary {
    /// Responses checked (== requests).
    pub checked: usize,
    /// Responses bit-compared against a direct call.
    pub served: usize,
    /// Shed responses (replay command validated instead).
    pub shed: usize,
    /// Responses rejected by deadline-aware admission (replay command and
    /// retry hint validated).
    pub rejected: usize,
    /// Responses failed by a worker panic (replay command and panic
    /// summary validated).
    pub failed: usize,
    /// Served responses flagged past their deadline budget.
    pub deadline: usize,
    /// Distinct scenarios the direct reference actually ran.
    pub distinct: usize,
}

/// Checks a full request/response exchange against the library:
///
/// * exactly one response per request, matched by id;
/// * every served payload bit-identical to [`direct`] (memoized via
///   `cache`);
/// * deadline flags self-consistent with the serving pass's virtual time;
/// * every shed response carrying the request's exact replay command.
///
/// On the first violation returns `Err` with the offending scenario's
/// one-line replay command.
pub fn verify_responses_with(
    reqs: &[Request],
    resps: &[Response],
    cache: &mut DirectCache,
) -> Result<VerifySummary, String> {
    if resps.len() != reqs.len() {
        return Err(format!(
            "{} responses for {} requests",
            resps.len(),
            reqs.len()
        ));
    }
    let mut by_id: BTreeMap<u64, &Request> = BTreeMap::new();
    for r in reqs {
        if by_id.insert(r.id, r).is_some() {
            return Err(format!("duplicate request id {}", r.id));
        }
    }
    let mut seen: BTreeMap<u64, ()> = BTreeMap::new();
    let mut sum = VerifySummary {
        checked: resps.len(),
        ..Default::default()
    };
    for resp in resps {
        let req = by_id
            .get(&resp.id)
            .ok_or_else(|| format!("response for unknown id {}", resp.id))?;
        if seen.insert(resp.id, ()).is_some() {
            return Err(format!("duplicate response for id {}", resp.id));
        }
        let fail = |what: &str| {
            Err(format!(
                "{what} (id {})\n  scenario: {}\n  replay:   {}",
                resp.id,
                req.scn,
                req.scn.replay_cmd()
            ))
        };
        match resp.status {
            Status::Shed | Status::Rejected => {
                if resp.status == Status::Shed {
                    sum.shed += 1;
                } else {
                    sum.rejected += 1;
                }
                if resp.payload.is_some() {
                    return fail("turned-away response carries a payload");
                }
                if resp.replay.as_deref() != Some(req.scn.replay_cmd().as_str()) {
                    return fail("turned-away response missing/incorrect replay command");
                }
                match resp.retry_after_s {
                    Some(t) if t.is_finite() && t >= 0.0 => {}
                    _ => return fail("turned-away response missing retry_after hint"),
                }
            }
            Status::Failed => {
                sum.failed += 1;
                if resp.payload.is_some() {
                    return fail("failed response carries a payload");
                }
                if resp.replay.as_deref() != Some(req.scn.replay_cmd().as_str()) {
                    return fail("failed response missing/incorrect replay command");
                }
                if resp.error.as_deref().is_none_or(str::is_empty) {
                    return fail("failed response missing its panic summary");
                }
            }
            Status::Ok | Status::Deadline => {
                sum.served += 1;
                let want = cache.payload(&req.scn);
                match &resp.payload {
                    None => return fail("served response has no payload"),
                    Some(got) if *got != want => {
                        return fail(&format!(
                            "payload differs from direct library call\n  served: {got:?}\n  direct: {want:?}"
                        ));
                    }
                    Some(_) => {}
                }
                let over = matches!(req.deadline_s, Some(d) if resp.virtual_s > d);
                if (resp.status == Status::Deadline) != over {
                    return fail("deadline flag inconsistent with the pass's virtual time");
                }
                if resp.status == Status::Deadline {
                    sum.deadline += 1;
                }
            }
        }
    }
    sum.distinct = cache.len();
    Ok(sum)
}

/// [`verify_responses_with`] with a fresh cache.
pub fn verify_responses(reqs: &[Request], resps: &[Response]) -> Result<VerifySummary, String> {
    verify_responses_with(reqs, resps, &mut DirectCache::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    #[test]
    fn mixed_stream_is_deterministic_and_mixes_faults() {
        let a = mixed_stream(11, 60, 8, 6, 5);
        let b = mixed_stream(11, 60, 8, 6, 5);
        assert_eq!(a.len(), 60);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.key(), y.key());
            assert_eq!(x.deadline_s, y.deadline_s);
        }
        assert!(
            a.iter().any(|r| r
                .scn
                .faults
                .as_ref()
                .is_some_and(|f| f.to_string().contains("kill"))),
            "kill_every must arm some kills"
        );
        assert!(a.iter().any(|r| r.deadline_s.is_some()));
        let distinct: std::collections::BTreeSet<String> =
            a.iter().map(|r| r.scn.to_string()).collect();
        assert!(
            distinct.len() > 8,
            "kill variants add keys beyond the base 8"
        );
    }

    #[test]
    fn verify_catches_a_tampered_payload() {
        let reqs = mixed_stream(5, 6, 2, 0, 0);
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_cap: 16,
            state_cap: 8,
            engine_cache: 2,
            batching: false,
            admission: Default::default(),
        });
        for r in &reqs {
            server.submit(r.clone());
        }
        let mut resps = server.drain(reqs.len());
        server.shutdown();
        assert!(verify_responses(&reqs, &resps).is_ok());
        if let Some(p) = resps[3].payload.as_mut() {
            p.sig ^= 1;
        }
        let err = verify_responses(&reqs, &resps).unwrap_err();
        assert!(
            err.contains("replay"),
            "failure must carry a replay command: {err}"
        );
    }
}
