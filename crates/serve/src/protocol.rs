//! Line-delimited request/response protocol.
//!
//! One request per line, as a **flat** JSON object that mirrors the testkit
//! [`Scenario`] one-seed encoding: `seed` is the only required scenario
//! field, every other field is an *override* of that seed's derivation —
//! exactly the semantics of `testkit replay`. A request that names only
//! `{"id":7,"seed":42}` therefore reproduces scenario 42 verbatim, and any
//! request can be turned back into a one-line replay command
//! ([`Scenario::replay_cmd`]) when it is shed or fails verification.
//!
//! This module owns the wire *grammar*, nothing else: JSON itself is read
//! and written by `optipart_trace::json` ([`Fields`] narrows its value
//! tree to the flat objects the protocol allows), and how a scenario field
//! is spelled and parsed is [`Scenario::set`]'s business — `from_json`
//! hands it each [`Scenario::KEYS`] member it finds, as the scalar's text
//! (`"p":8` and `"p":"8"` are the same override). What the wire adds on
//! top: `budget` abbreviates `split-budget`, `null` spells the `None` of
//! the two optional fields, unknown fields are ignored so old servers
//! accept newer clients, and sizes are bounded ([`MAX_N`], [`MAX_P`],
//! `tol` ∈ [0, 1]) because a request is outside input — one line must not
//! be able to exhaust the server's memory or stall a worker.

use crate::Payload;
use optipart_scenario::{curve_name, Scenario};
use optipart_trace::fnv1a;
use optipart_trace::json::{self, quote, Value};
use std::fmt::Write as _;

/// Byte cap on one request line (`optipart-serve serve --max-line`): past
/// it the rest of the line is swallowed, the client gets an error line,
/// and the connection keeps serving.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// Largest point count a request may ask for. An allocation failure
/// aborts the process — `catch_unwind` cannot quarantine it — so the
/// bound is enforced at the wire, before any worker sees the request.
pub const MAX_N: usize = 1 << 22;

/// Largest rank count a request may ask for (the paper-scale 262,144).
pub const MAX_P: usize = 1 << 18;

/// Shard (worker index) for a scenario key: FNV-1a over its bytes, so
/// repeats of a scenario always hit the same worker's warm
/// `PartitionState`. Unlike `std`'s `DefaultHasher` the hash is stable
/// across platforms and processes, which keeps shard placement and
/// therefore batching behaviour reproducible.
pub(crate) fn shard_of(key: &str, workers: usize) -> usize {
    (fnv1a(key.as_bytes()) % workers.max(1) as u64) as usize
}

/// One partition request: a replayable scenario plus service metadata.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The workload: mesh + machine model + α (application) + tolerance
    /// budget, all derived from `seed` modulo explicit overrides.
    pub scn: Scenario,
    /// Deadline budget in *virtual* seconds, evaluated against the engine
    /// pass that served the request (warm hits finish sooner and can meet
    /// budgets a cold ladder cannot). `None` = no deadline.
    pub deadline_s: Option<f64>,
}

impl Request {
    /// Canonical scenario key: every field that determines the engine pass
    /// (and nothing else — not `id`, not the deadline). Requests with equal
    /// keys are batchable and always land on the same worker.
    pub fn key(&self) -> String {
        self.scn.to_string()
    }

    /// Shard (worker index) for this request: `shard_of` its [`key`].
    ///
    /// [`key`]: Request::key
    pub fn shard(&self, workers: usize) -> usize {
        shard_of(&self.key(), workers)
    }

    /// Canonical wire form (all scenario fields spelled out).
    pub fn to_json(&self) -> String {
        let s = &self.scn;
        let mut out = String::with_capacity(192);
        let _ = write!(
            out,
            "{{\"id\":{},\"seed\":{},\"shape\":\"{}\",\"n\":{},\"p\":{},\"curve\":\"{}\",\"tol\":{},",
            self.id,
            s.seed,
            s.shape.name(),
            s.n,
            s.p,
            curve_name(s.curve),
            s.tolerance,
        );
        match s.split_budget {
            Some(k) => {
                let _ = write!(out, "\"budget\":{k},");
            }
            None => out.push_str("\"budget\":null,"),
        }
        let _ = write!(
            out,
            "\"machine\":\"{}\",\"app\":\"{}\",\"hier\":\"{}\",\"family\":\"{}\",\"workload\":\"{}\",\"faults\":",
            s.machine.name,
            s.app.name(),
            s.hier.name(),
            s.family.name(),
            s.workload.encode(),
        );
        match &s.faults {
            Some(plan) => {
                let _ = write!(out, "{}", quote(&plan.to_string()));
            }
            None => out.push_str("null"),
        }
        if let Some(d) = self.deadline_s {
            let _ = write!(out, ",\"deadline_s\":{d}");
        }
        out.push('}');
        out
    }

    /// Parses one request line. `id` and `seed` are required; every other
    /// scenario field defaults to its seed derivation (replay semantics).
    /// Out-of-range sizes are rejected here (see the module docs).
    pub fn from_json(line: &str) -> Result<Request, String> {
        let f = Fields::parse(line)?;
        let id = f
            .num::<u64>("id")?
            .ok_or_else(|| "missing required field 'id'".to_string())?;
        let seed = f
            .num::<u64>("seed")?
            .ok_or_else(|| "missing required field 'seed'".to_string())?;
        let mut scn = Scenario::from_seed(seed);
        for key in Scenario::KEYS {
            let wire = if key == "split-budget" { "budget" } else { key };
            match f.get(wire) {
                None | Some(Value::Null) => {}
                Some(Value::Num(text) | Value::Str(text)) => scn.set(key, text)?,
                Some(v) => return Err(format!("field '{wire}' is not a string or number: {v:?}")),
            }
        }
        // `null` is how `to_json` spells the `None` of the optional fields.
        if f.get("budget") == Some(&Value::Null) {
            scn.split_budget = None;
        }
        if f.get("faults") == Some(&Value::Null) {
            scn.faults = None;
        }
        scn.p = scn.p.max(1);
        if scn.n > MAX_N {
            return Err(format!("n = {} exceeds the wire limit {MAX_N}", scn.n));
        }
        if scn.p > MAX_P {
            return Err(format!("p = {} exceeds the wire limit {MAX_P}", scn.p));
        }
        if !(0.0..=1.0).contains(&scn.tolerance) {
            return Err(format!("tol = {:?} is outside [0, 1]", scn.tolerance));
        }
        let deadline_s = f.num::<f64>("deadline_s")?;
        Ok(Request {
            id,
            scn,
            deadline_s,
        })
    }
}

/// Terminal state of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Served; payload attached.
    Ok,
    /// Served, but the engine pass's virtual time exceeded the request's
    /// deadline budget. The payload is still attached.
    Deadline,
    /// Rejected at submit time by bounded-queue backpressure; carries the
    /// replay command instead of a payload.
    Shed,
    /// Rejected at submit time by deadline-aware admission: the target
    /// queue's virtual-time backlog already exceeded the request's deadline
    /// budget, so running it could only produce a [`Status::Deadline`]
    /// miss. Carries the replay command and a `retry_after_s` hint.
    Rejected,
    /// The worker serving this request panicked mid-pass. The request was
    /// never answered with a payload; the response carries the panic
    /// summary (`error`) and the exact replay command so the crash is
    /// reproducible offline. The warm caches implicated in the pass were
    /// quarantined — a later resubmit serves fresh and bit-identically.
    Failed,
}

impl Status {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Deadline => "deadline",
            Status::Shed => "shed",
            Status::Rejected => "rejected",
            Status::Failed => "failed",
        }
    }
}

/// Which warm-start path the serving engine pass took (service metadata —
/// never part of the payload identity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmPath {
    /// Exact fingerprint hit — the ladder was skipped.
    Hit,
    /// Table-accelerated replay on a changed mesh.
    Replay,
    /// Cold ladder (first sight, faulted request, or invalidated state).
    Cold,
    /// No engine pass ran (shed).
    None,
}

impl WarmPath {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            WarmPath::Hit => "hit",
            WarmPath::Replay => "replay",
            WarmPath::Cold => "cold",
            WarmPath::None => "none",
        }
    }
}

/// One response line. The [`Payload`] is the bit-identity surface (equal to
/// a direct library call); everything else is service metadata that may
/// legitimately differ between serving conditions (worker, warm path, batch
/// size, latencies).
#[derive(Clone, Debug)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Terminal status.
    pub status: Status,
    /// Partition result; `None` for [`Status::Shed`], [`Status::Rejected`]
    /// and [`Status::Failed`].
    pub payload: Option<Payload>,
    /// Replay command for shed/rejected/failed requests (`None` when a
    /// payload is attached).
    pub replay: Option<String>,
    /// Worker that served the request.
    pub worker: usize,
    /// Warm-start path of the serving pass.
    pub warm: WarmPath,
    /// Requests served by the same engine pass (≥ 1; shed → 0).
    pub batched: u32,
    /// Virtual seconds of the serving engine pass (deadlines are judged
    /// against this; 0 for shed).
    pub virtual_s: f64,
    /// Wall-clock service latency, enqueue → response, microseconds.
    pub wall_us: u64,
    /// Backoff hint on [`Status::Shed`]/[`Status::Rejected`]: the virtual
    /// seconds after which resubmitting could plausibly succeed, computed
    /// deterministically from the target queue's backlog at submit time.
    pub retry_after_s: Option<f64>,
    /// Panic summary on [`Status::Failed`] (`None` otherwise).
    pub error: Option<String>,
}

impl Response {
    /// Wire form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        let _ = write!(
            out,
            "{{\"id\":{},\"status\":\"{}\",\"worker\":{},\"warm\":\"{}\",\"batched\":{},\"virtual_s\":{},\"wall_us\":{}",
            self.id,
            self.status.name(),
            self.worker,
            self.warm.name(),
            self.batched,
            self.virtual_s,
            self.wall_us,
        );
        if let Some(p) = &self.payload {
            let _ = write!(
                out,
                ",\"sig\":\"{:#018x}\",\"elements\":{},\"final_p\":{},\"deaths\":{},\"lambda\":{},\"tol_achieved\":{},\"rounds\":{},\"splitter_level\":{},\"cmax\":{},\"wmax\":{},\"predicted_tp\":{}",
                p.sig,
                p.elements,
                p.final_p,
                p.deaths,
                p.lambda,
                p.achieved_tolerance,
                p.rounds,
                p.splitter_level,
                p.cmax,
                p.wmax,
                p.predicted_tp,
            );
        }
        if let Some(r) = &self.replay {
            let _ = write!(out, ",\"replay\":{}", quote(r));
        }
        if let Some(t) = self.retry_after_s {
            let _ = write!(out, ",\"retry_after_s\":{t}");
        }
        if let Some(e) = &self.error {
            let _ = write!(out, ",\"error\":{}", quote(e));
        }
        out.push('}');
        out
    }
}

/// The fields of one flat JSON object, in document order: the protocol's
/// view of a parsed line. Numbers keep their raw text (see
/// `optipart_trace::json`), so `u64` seeds round-trip exactly.
#[derive(Clone, Debug, Default)]
pub struct Fields(Vec<(String, Value)>);

impl Fields {
    /// Parses a single flat JSON object (no nested objects or arrays).
    pub fn parse(line: &str) -> Result<Fields, String> {
        let Value::Obj(fields) = json::parse(line)? else {
            return Err("a protocol line is one JSON object".into());
        };
        if fields
            .iter()
            .any(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)))
        {
            return Err("nested objects/arrays are not part of the protocol".into());
        }
        Ok(Fields(fields))
    }

    /// Last value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric field parsed as `T` (exact text → `FromStr`, no f64 detour).
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Num(raw)) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad number for '{key}': {raw}")),
            Some(v) => Err(format!("field '{key}' is not a number: {v:?}")),
        }
    }

    /// String field.
    pub fn str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(v) => Err(format!("field '{key}' is not a string: {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_mpisim::FaultPlan;
    use optipart_scenario::{ElemFamily, HierKind, Workload};

    /// Golden wire bytes (recorded on the commit before the JSON codec and
    /// the scenario-field table moved out of this file): a seed above 2⁵³,
    /// a deadline, a fault plan, `budget:null`.
    #[test]
    fn request_wire_lines_are_pinned() {
        let mut a = Scenario::from_seed(7);
        a.faults = None;
        let mut b = Scenario::from_seed(0x51a9);
        b.faults = Some(
            FaultPlan::new(0x51a9)
                .with_stragglers(0.25, 2.5)
                .kill_rank(1, 4),
        );
        let mut c = Scenario::from_seed(914776577726420758);
        c.split_budget = None;
        c.faults = None;
        let cases = [
            (
                1,
                a,
                Some(0.5),
                r#"{"id":1,"seed":7,"shape":"uniform","n":167,"p":3,"curve":"hilbert","tol":0.05,"budget":32,"machine":"clemson-32","app":"wave","hier":"none","family":"hex","workload":"static","faults":null,"deadline_s":0.5}"#,
            ),
            (
                2,
                b,
                None,
                r#"{"id":2,"seed":20905,"shape":"skewed","n":250,"p":5,"curve":"hilbert","tol":0.6000000000000001,"budget":null,"machine":"clemson-32","app":"laplacian","hier":"none","family":"hex","workload":"front8","faults":"seed=20905,straggler=0.25x2.5,kill=1@4"}"#,
            ),
            (
                u64::MAX,
                c,
                None,
                r#"{"id":18446744073709551615,"seed":914776577726420758,"shape":"skewed","n":315,"p":5,"curve":"morton","tol":0.7000000000000001,"budget":null,"machine":"wisconsin-8","app":"wave","hier":"numa","family":"hex","workload":"static","faults":null}"#,
            ),
        ];
        for (id, scn, deadline_s, golden) in cases {
            let req = Request {
                id,
                scn,
                deadline_s,
            };
            assert_eq!(req.to_json(), golden);
            let back = Request::from_json(golden).expect("golden line parses");
            assert_eq!((back.id, back.deadline_s), (id, deadline_s));
            assert_eq!(back.key(), req.key());
            assert_eq!(back.to_json(), golden);
        }
    }

    /// One golden response line per [`Status`].
    #[test]
    fn response_wire_lines_are_pinned() {
        let payload = Payload {
            sig: 0x0123_4567_89ab_cdef,
            elements: 1234,
            final_p: 7,
            deaths: 1,
            lambda: 1.25,
            achieved_tolerance: 0.1,
            rounds: 3,
            splitter_level: 5,
            cmax: 99,
            wmax: 200,
            predicted_tp: 0.000123,
        };
        let served = Response {
            id: 9,
            status: Status::Ok,
            payload: Some(payload),
            replay: None,
            worker: 2,
            warm: WarmPath::Hit,
            batched: 3,
            virtual_s: 0.5,
            wall_us: 42,
            retry_after_s: None,
            error: None,
        };
        let replay = "testkit -- replay --seed 20905 --faults seed=20905,kill=1@4";
        let turned_away = Response {
            payload: None,
            replay: Some(replay.into()),
            warm: WarmPath::None,
            batched: 0,
            virtual_s: 0.0,
            wall_us: 0,
            ..served.clone()
        };
        let tail = r#","sig":"0x0123456789abcdef","elements":1234,"final_p":7,"deaths":1,"lambda":1.25,"tol_achieved":0.1,"rounds":3,"splitter_level":5,"cmax":99,"wmax":200,"predicted_tp":0.000123}"#;
        let away = r#"{"id":9,"status":"STATUS","worker":2,"warm":"none","batched":0,"virtual_s":0,"wall_us":0,"replay":"testkit -- replay --seed 20905 --faults seed=20905,kill=1@4","retry_after_s":RETRY}"#;
        let cases = [
            (served.clone(), format!(r#"{{"id":9,"status":"ok","worker":2,"warm":"hit","batched":3,"virtual_s":0.5,"wall_us":42{tail}"#)),
            (
                Response {
                    status: Status::Deadline,
                    warm: WarmPath::Cold,
                    ..served.clone()
                },
                format!(r#"{{"id":9,"status":"deadline","worker":2,"warm":"cold","batched":3,"virtual_s":0.5,"wall_us":42{tail}"#),
            ),
            (
                Response {
                    status: Status::Shed,
                    retry_after_s: Some(0.25),
                    ..turned_away.clone()
                },
                away.replace("STATUS", "shed").replace("RETRY", "0.25"),
            ),
            (
                Response {
                    status: Status::Rejected,
                    retry_after_s: Some(1e-9),
                    ..turned_away.clone()
                },
                away.replace("STATUS", "rejected").replace("RETRY", "0.000000001"),
            ),
            (
                Response {
                    status: Status::Failed,
                    payload: None,
                    replay: Some(replay.into()),
                    warm: WarmPath::Replay,
                    error: Some("chaos-panic: worker 2 pass 0 (after)\n\t\"quoted\\\" \u{1}".into()),
                    ..served.clone()
                },
                r#"{"id":9,"status":"failed","worker":2,"warm":"replay","batched":3,"virtual_s":0.5,"wall_us":42,"replay":"testkit -- replay --seed 20905 --faults seed=20905,kill=1@4","error":"chaos-panic: worker 2 pass 0 (after)\n\t\"quoted\\\" \u0001"}"#.to_string(),
            ),
        ];
        for (resp, golden) in cases {
            assert_eq!(resp.to_json(), golden);
        }
    }

    /// The three one-line requests that used to take the whole server down
    /// (two allocation aborts, one ladder that never terminates) are
    /// ordinary parse errors; the limits themselves still pass, and `p = 0`
    /// still clamps to 1.
    #[test]
    fn out_of_range_sizes_are_rejected_at_the_wire() {
        for (bad, why) in [
            (
                r#"{"id":1,"seed":7,"n":100000000000}"#,
                "n = 100000000000 exceeds the wire limit 4194304",
            ),
            (
                r#"{"id":1,"seed":7,"p":3000000000}"#,
                "p = 3000000000 exceeds the wire limit 262144",
            ),
            (
                r#"{"id":1,"seed":7,"tol":1e300}"#,
                "tol = 1e300 is outside [0, 1]",
            ),
            (
                r#"{"id":1,"seed":7,"tol":-0.1}"#,
                "tol = -0.1 is outside [0, 1]",
            ),
            (
                r#"{"id":1,"seed":7,"tol":"NaN"}"#,
                "tol = NaN is outside [0, 1]",
            ),
            (
                r#"{"id":1,"seed":7,"tol":1e999}"#,
                "tol = inf is outside [0, 1]",
            ),
        ] {
            let err = Request::from_json(bad).expect_err(bad);
            assert!(err.contains(why), "{bad}: {err}");
        }
        let edge =
            Request::from_json(r#"{"id":1,"seed":7,"n":4194304,"p":262144,"tol":1}"#).unwrap();
        assert_eq!(
            (edge.scn.n, edge.scn.p, edge.scn.tolerance),
            (MAX_N, MAX_P, 1.0)
        );
        let zero = Request::from_json(r#"{"id":1,"seed":7,"p":0,"tol":0}"#).unwrap();
        assert_eq!((zero.scn.p, zero.scn.tolerance), (1, 0.0));
    }

    #[test]
    fn request_roundtrips_through_wire_form() {
        for seed in [1u64, 42, 0xDEAD_BEEF_CAFE_F00D, u64::MAX - 3] {
            let req = Request {
                id: seed ^ 7,
                scn: Scenario::from_seed(seed),
                deadline_s: if seed % 2 == 0 { Some(0.25) } else { None },
            };
            let back = Request::from_json(&req.to_json()).expect("roundtrip");
            assert_eq!(back.id, req.id);
            assert_eq!(back.key(), req.key(), "seed {seed}");
            assert_eq!(back.deadline_s, req.deadline_s);
        }
    }

    #[test]
    fn seed_only_request_replays_the_scenario() {
        let req = Request::from_json("{\"id\":1,\"seed\":9001}").unwrap();
        assert_eq!(req.scn.to_string(), Scenario::from_seed(9001).to_string());
    }

    #[test]
    fn overrides_apply_on_top_of_the_seed() {
        let req = Request::from_json(
            "{\"id\":2,\"seed\":5,\"p\":9,\"tol\":0.3,\"budget\":null,\"faults\":null}",
        )
        .unwrap();
        assert_eq!(req.scn.p, 9);
        assert_eq!(req.scn.tolerance, 0.3);
        assert_eq!(req.scn.split_budget, None);
        assert!(req.scn.faults.is_none());
    }

    #[test]
    fn hierarchy_and_mesh_family_fields_roundtrip() {
        // Overridden hier/family/workload must survive the wire in both
        // directions: encode → parse and parse → encode.
        let mut scn = Scenario::from_seed(11);
        scn.hier = HierKind::Smp;
        scn.family = ElemFamily::Hybrid;
        scn.workload = Workload::MovingFront { steps: 6 };
        let req = Request {
            id: 3,
            scn,
            deadline_s: None,
        };
        let back = Request::from_json(&req.to_json()).expect("roundtrip");
        assert_eq!(back.scn.hier, HierKind::Smp);
        assert_eq!(back.scn.family, ElemFamily::Hybrid);
        assert_eq!(back.scn.workload, Workload::MovingFront { steps: 6 });
        assert_eq!(back.key(), req.key());

        let parsed = Request::from_json(
            "{\"id\":4,\"seed\":11,\"hier\":\"numa\",\"family\":\"tet\",\"workload\":\"blayer3\"}",
        )
        .unwrap();
        assert_eq!(parsed.scn.hier, HierKind::Numa);
        assert_eq!(parsed.scn.family, ElemFamily::Tet);
        assert_eq!(parsed.scn.workload, Workload::BoundaryLayer { steps: 3 });
        let reparsed = Request::from_json(&parsed.to_json()).unwrap();
        assert_eq!(reparsed.key(), parsed.key());

        for bad in [
            "{\"id\":1,\"seed\":2,\"hier\":\"torus\"}",
            "{\"id\":1,\"seed\":2,\"family\":\"pyramid\"}",
            "{\"id\":1,\"seed\":2,\"workload\":\"front\"}",
        ] {
            assert!(Request::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn old_request_lines_without_new_fields_still_parse() {
        // Pre-hierarchy clients omit hier/family/workload entirely — the
        // parse must fall back to the seed derivation, and unknown fields
        // from *newer* clients must be ignored rather than rejected.
        let old = Request::from_json(
            "{\"id\":9,\"seed\":321,\"p\":4,\"machine\":\"titan\",\"faults\":null}",
        )
        .unwrap();
        let derived = Scenario::from_seed(321);
        assert_eq!(old.scn.hier, derived.hier);
        assert_eq!(old.scn.family, derived.family);
        assert_eq!(old.scn.workload, derived.workload);

        let future =
            Request::from_json("{\"id\":9,\"seed\":321,\"coolant\":\"liquid\",\"zz\":1}").unwrap();
        assert_eq!(future.scn.to_string(), derived.to_string());
    }

    #[test]
    fn malformed_lines_are_rejected_with_reason() {
        for bad in [
            "",
            "{",
            "{\"id\":1}",
            "{\"seed\":1}",
            "{\"id\":1,\"seed\":2,\"shape\":\"donut\"}",
            "{\"id\":1,\"seed\":2,\"nested\":{}}",
            "{\"id\":1,\"seed\":2} trailing",
        ] {
            assert!(Request::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sharding_is_stable_and_key_ignores_service_fields() {
        let scn = Scenario::from_seed(77);
        let a = Request {
            id: 1,
            scn: scn.clone(),
            deadline_s: None,
        };
        let b = Request {
            id: 999,
            scn,
            deadline_s: Some(1e-9),
        };
        assert_eq!(a.key(), b.key());
        for w in 1..8 {
            assert_eq!(a.shard(w), b.shard(w));
            assert!(a.shard(w) < w);
        }
    }
}
