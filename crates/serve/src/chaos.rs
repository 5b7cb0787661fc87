//! Seeded, deterministic service-layer chaos.
//!
//! Everything that can go wrong around the engine — a worker panicking
//! mid-pass, a client vanishing mid-line, bytes corrupted on the wire, a
//! reader stalling — is generated here from one seed as a [`ChaosPlan`],
//! then driven through a live [`Server`] by [`chaos_soak`]. The assertions
//! after every run are the PR 7 contract, now under fire:
//!
//! * **conservation** — every submitted request id is answered exactly
//!   once (served, shed, rejected or failed), in both counter form
//!   ([`crate::ServerStats::conservation`]) and id-by-id form
//!   (`verify_responses_with`);
//! * **bit-identity** — every *served* payload equals a direct library
//!   call, chaos or no chaos;
//! * **clean shutdown** — workers join, nothing leaks.
//!
//! Determinism is the point: the same seed reproduces the identical
//! response set byte-for-byte ([`ChaosReport::transcript`]), and because
//! disconnect/corruption streams are forked independently of the panic
//! stream, the *served* payloads agree across worker counts too — the
//! drivers in `optipart-serve chaos` and `tests/serve_stream.rs` check
//! both. [`socket_chaos`] then replays the same plan over a real Unix
//! socket, through the same [`crate::front`] code a production connection
//! runs.

use crate::front::{classify, connect_retry, finish, Listener};
use crate::protocol::{Request, Response, DEFAULT_MAX_LINE};
use crate::server::{ServeConfig, Server, ServerStats};
use crate::soak::{mixed_stream, verify_responses_with, DirectCache, VerifySummary};
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::RankDeath;
use optipart_trace::json::quote;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::Once;
use std::time::Duration;

/// RNG stream tags. Panics are forked separately from disconnects and
/// corruption so that changing the worker count (which reshapes the panic
/// schedule) leaves the client-side chaos — and therefore the set of
/// parsed requests per id — untouched. That independence is what makes the
/// 1-vs-4-worker served-payload cross-check meaningful.
const CHAOS_PANICS: u64 = 0xC405_0001;
const CHAOS_DISCONNECTS: u64 = 0xC405_0002;
const CHAOS_CORRUPT: u64 = 0xC405_0003;
const CHAOS_BYTES: u64 = 0xC405_0004;

/// Where in an engine pass an armed chaos panic fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicPoint {
    /// Before the pass touches any cache (the gentle case).
    Before,
    /// After the pass completed — caches mutated, no response sent yet.
    /// The harshest point for the quarantine logic.
    After,
}

impl PanicPoint {
    fn name(self) -> &'static str {
        match self {
            PanicPoint::Before => "before",
            PanicPoint::After => "after",
        }
    }
}

/// The panic payload chaos injection throws. Carried (as its `Display`
/// form) in the `error` field of the [`crate::Status::Failed`] responses
/// it causes.
#[derive(Clone, Debug)]
pub struct ChaosPanic {
    /// Worker whose pass was armed.
    pub worker: usize,
    /// The worker's 0-based engine-pass number.
    pub pass: u64,
    /// Fire point within the pass.
    pub point: PanicPoint,
}

impl fmt::Display for ChaosPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos-panic: worker {} pass {} ({})",
            self.worker,
            self.pass,
            self.point.name()
        )
    }
}

/// Armed worker panics, keyed `(worker, pass_number)`. Passed to
/// [`Server::start_chaos`]; each worker consults it at the start and end of
/// every engine pass.
#[derive(Clone, Debug, Default)]
pub struct PanicSchedule {
    at: BTreeMap<(usize, u64), PanicPoint>,
}

impl PanicSchedule {
    /// Arms worker `worker`'s `pass`-th engine pass to panic at `point`.
    pub fn arm(mut self, worker: usize, pass: u64, point: PanicPoint) -> Self {
        self.at.insert((worker, pass), point);
        self
    }

    /// Armed panic count.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Panics (with a [`ChaosPanic`] payload, kept quiet on stderr) iff
    /// `(worker, pass)` is armed for `point`.
    pub fn check(&self, worker: usize, pass: u64, point: PanicPoint) {
        if self.at.get(&(worker, pass)) == Some(&point) {
            install_chaos_hook();
            std::panic::panic_any(ChaosPanic {
                worker,
                pass,
                point,
            });
        }
    }
}

/// Silences the default panic message for [`ChaosPanic`] payloads only —
/// they are injected on purpose and answered as failed responses; every
/// other panic keeps the previous hook's behaviour (mirrors mpisim's
/// `RankDeath` hook).
fn install_chaos_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Renders a caught panic payload into the `error` field of a failed
/// response. Deterministic for every payload the server itself can raise.
pub(crate) fn panic_summary(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(c) = payload.downcast_ref::<ChaosPanic>() {
        c.to_string()
    } else if let Some(d) = payload.downcast_ref::<RankDeath>() {
        format!("unhandled rank death: {d}")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// How a request line is damaged on its way in. Corruption never touches
/// the first half of the line (the `id` field stays intact, so a mutated
/// line that still parses keeps its unique id) and never introduces a
/// newline (line framing is the connection layer's own failure mode,
/// exercised separately by mid-line disconnects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the line somewhere in its third quarter — always unparseable
    /// (the closing brace is gone).
    Truncate,
    /// Flip one bit of one byte in the second half: may still parse (a
    /// mutated-but-valid request, served normally and verified against its
    /// parsed self) or may not — either way deterministic.
    FlipByte,
    /// Overwrite the second half with raw random bytes (frequently invalid
    /// UTF-8, exercising the encoding guard).
    Garbage,
}

/// Applies `kind` to one request line, consuming `rng` deterministically.
pub fn corrupt_line(line: &str, kind: Corruption, rng: &mut SplitMix64) -> Vec<u8> {
    let mut b = line.as_bytes().to_vec();
    let half = b.len() / 2;
    match kind {
        Corruption::Truncate => {
            let keep = half + rng.next_below((b.len() / 4 + 1) as u64) as usize;
            b.truncate(keep.max(1));
        }
        Corruption::FlipByte => {
            if half < b.len() {
                let i = half + rng.next_below((b.len() - half) as u64) as usize;
                b[i] ^= 1 << rng.next_below(8);
            }
        }
        Corruption::Garbage => {
            for x in b.iter_mut().skip(half) {
                *x = rng.next_u64() as u8;
            }
        }
    }
    for x in &mut b {
        if *x == b'\n' || *x == b'\r' {
            *x = b'#';
        }
    }
    b
}

/// Chaos intensity knobs (all counts are targets; see
/// [`ChaosPlan::generate`] for how they clamp).
#[derive(Clone, Copy, Debug)]
pub struct ChaosKnobs {
    /// Worker panics to arm.
    pub panics: usize,
    /// Panics are armed at pass numbers `0..max_pass` — keep this small:
    /// batching compresses many requests into few passes, and a panic
    /// armed past the last pass a worker runs never fires.
    pub max_pass: u64,
    /// Clients that disconnect partway through their line budget.
    pub disconnects: usize,
    /// Virtual clients the stream is split over (round-robin).
    pub clients: usize,
    /// Request lines to corrupt.
    pub corrupt: usize,
    /// In socket mode, a client's reader stalls briefly every N responses
    /// (0 = no stalls). The deterministic in-process soak ignores this.
    pub stall_every: usize,
}

impl Default for ChaosKnobs {
    fn default() -> Self {
        ChaosKnobs {
            panics: 12,
            max_pass: 3,
            disconnects: 5,
            clients: 8,
            corrupt: 16,
            stall_every: 0,
        }
    }
}

/// A fully seeded chaos plan: which passes die, which clients vanish after
/// how many lines, which lines are damaged and how.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Armed worker panics.
    pub panics: PanicSchedule,
    /// Client index → lines it sends before disconnecting.
    pub disconnect_after: BTreeMap<usize, usize>,
    /// Global request index → damage applied to its line.
    pub corrupt: BTreeMap<usize, Corruption>,
    /// Copied from [`ChaosKnobs::stall_every`].
    pub stall_every: usize,
}

impl ChaosPlan {
    /// Generates the plan for a `requests`-line stream over
    /// `knobs.clients` round-robin clients and `workers` workers. Panic
    /// count clamps to `workers × max_pass` distinct slots, disconnects to
    /// the client count, corruption to the request count.
    pub fn generate(seed: u64, requests: usize, workers: usize, knobs: &ChaosKnobs) -> ChaosPlan {
        let workers = workers.max(1);
        let max_pass = knobs.max_pass.max(1);
        let mut panics = PanicSchedule::default();
        let slots = (workers as u64 * max_pass) as usize;
        let want = knobs.panics.min(slots);
        let mut r = SplitMix64::new(seed).fork(CHAOS_PANICS);
        for _ in 0..64 * slots.max(1) {
            if panics.at.len() >= want {
                break;
            }
            let w = r.next_below(workers as u64) as usize;
            let pass = r.next_below(max_pass);
            let point = if r.next_below(2) == 0 {
                PanicPoint::Before
            } else {
                PanicPoint::After
            };
            panics.at.entry((w, pass)).or_insert(point);
        }

        let clients = knobs.clients.max(1);
        let per_client = requests / clients;
        let mut disconnect_after = BTreeMap::new();
        let want_d = knobs.disconnects.min(clients);
        let mut r = SplitMix64::new(seed).fork(CHAOS_DISCONNECTS);
        if per_client > 0 {
            for _ in 0..64 * clients {
                if disconnect_after.len() >= want_d {
                    break;
                }
                let c = r.next_below(clients as u64) as usize;
                let k = r.next_below(per_client as u64) as usize;
                disconnect_after.entry(c).or_insert(k);
            }
        }

        let mut corrupt = BTreeMap::new();
        let want_c = knobs.corrupt.min(requests);
        let mut r = SplitMix64::new(seed).fork(CHAOS_CORRUPT);
        for _ in 0..64 * requests.max(1) {
            if corrupt.len() >= want_c {
                break;
            }
            let i = r.next_below(requests.max(1) as u64) as usize;
            let kind = match r.next_below(3) {
                0 => Corruption::Truncate,
                1 => Corruption::FlipByte,
                _ => Corruption::Garbage,
            };
            corrupt.entry(i).or_insert(kind);
        }

        ChaosPlan {
            panics,
            disconnect_after,
            corrupt,
            stall_every: knobs.stall_every,
        }
    }
}

/// The canonical chaos request stream: `mixed_stream` with kills and
/// deadlines laced in. One definition shared by [`chaos_soak`] and
/// [`socket_chaos`], so their direct-call caches line up.
pub fn chaos_stream(seed: u64, requests: usize) -> Vec<Request> {
    let distinct = (requests / 16).clamp(1, 64);
    mixed_stream(seed, requests, distinct, 23, 11)
}

/// What one virtual client writes: its complete lines (damage already
/// applied, tagged with the global request index), and whether it vanishes
/// mid-line afterwards.
#[derive(Clone, Debug)]
pub struct ClientScript {
    /// `(global request index, line bytes)` in send order.
    pub lines: Vec<(usize, Vec<u8>)>,
    /// The client disconnects without a newline after its last full line.
    pub disconnects: bool,
}

/// Expands a plan into per-client byte scripts: request `i` belongs to
/// client `i % clients`, a disconnecting client stops after its armed line
/// count, and corruption consumes the byte-RNG in global line order. Both
/// [`chaos_soak`] and [`socket_chaos`] build their traffic from this, so
/// the same ids carry the same bytes in either mode.
pub fn client_scripts(
    seed: u64,
    reqs: &[Request],
    plan: &ChaosPlan,
    clients: usize,
) -> Vec<ClientScript> {
    let clients = clients.max(1);
    let mut byte_rng = SplitMix64::new(seed).fork(CHAOS_BYTES);
    let mut scripts: Vec<ClientScript> = (0..clients)
        .map(|c| ClientScript {
            lines: Vec::new(),
            disconnects: plan.disconnect_after.contains_key(&c),
        })
        .collect();
    for (i, req) in reqs.iter().enumerate() {
        let c = i % clients;
        if let Some(&k) = plan.disconnect_after.get(&c) {
            if scripts[c].lines.len() >= k {
                continue;
            }
        }
        let line = match plan.corrupt.get(&i) {
            Some(&kind) => corrupt_line(&req.to_json(), kind, &mut byte_rng),
            None => req.to_json().into_bytes(),
        };
        scripts[c].lines.push((i, line));
    }
    scripts
}

/// Outcome counts of one chaos soak.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosSummary {
    /// Lines in the generated stream.
    pub requests: usize,
    /// Lines actually offered to the server (parsed fine).
    pub submitted: usize,
    /// Lines never sent because their client had disconnected.
    pub lost_to_disconnect: usize,
    /// Lines rejected by the parser/UTF-8 guard (corruption casualties).
    pub parse_errors: usize,
    /// Responses served with a payload.
    pub served: usize,
    /// Responses failed by a worker panic.
    pub failed: usize,
    /// Responses shed by backpressure.
    pub shed: usize,
    /// Responses rejected by deadline admission.
    pub rejected: usize,
    /// Worker panics caught.
    pub panics: u64,
    /// Rank deaths absorbed while serving.
    pub deaths: u64,
}

/// Everything one deterministic chaos soak produced.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The full deterministic record of the run: parse-error lines (by
    /// line index), then every response as wire JSON with `wall_us` zeroed
    /// (the only wall-clock field), sorted by id, then a summary line.
    /// Two runs with the same seed and config must produce byte-identical
    /// transcripts.
    pub transcript: String,
    /// id → `Debug` form of the served payload (bit-exact fields), for
    /// cross-worker-count comparison.
    pub served_payloads: BTreeMap<u64, String>,
    /// Final server counters.
    pub stats: ServerStats,
    /// Outcome counts.
    pub summary: ChaosSummary,
    /// What verification established.
    pub verify: VerifySummary,
}

/// Runs the deterministic in-process chaos soak: generate the stream and
/// the plan from `seed`, damage and drop lines exactly as a chaotic client
/// population would, submit the survivors as one paused burst, then verify
/// the whole exchange — conservation, bit-identity, clean shutdown. The
/// `cache` memoizes direct library calls across runs (the 1-vs-4-worker
/// cross-check reuses it).
///
/// Worker panics fire via the armed [`PanicSchedule`]; client disconnects
/// and line corruption are applied in-process ([`socket_chaos`] drives the
/// same plan over a real socket). Lines are classified by the front end's
/// own [`classify`], so a line counts as a parse casualty here exactly
/// when a live connection would answer it with an error line.
pub fn chaos_soak(
    seed: u64,
    requests: usize,
    cfg: ServeConfig,
    knobs: ChaosKnobs,
    cache: &mut DirectCache,
) -> Result<ChaosReport, String> {
    let reqs = chaos_stream(seed, requests);
    let plan = ChaosPlan::generate(seed, requests, cfg.workers, &knobs);
    let scripts = client_scripts(seed, &reqs, &plan, knobs.clients);
    let lost = requests - scripts.iter().map(|s| s.lines.len()).sum::<usize>();

    // Interleave the scripts back into global line order — the same bytes
    // the socket driver writes, submitted as one deterministic burst.
    let mut all: Vec<(usize, &[u8])> = scripts
        .iter()
        .flat_map(|s| s.lines.iter().map(|(i, b)| (*i, b.as_slice())))
        .collect();
    all.sort_unstable_by_key(|&(i, _)| i);

    let mut submitted: Vec<Request> = Vec::new();
    let mut parse_errors: Vec<(usize, String)> = Vec::new();

    let server = Server::start_chaos(cfg, plan.panics.clone());
    server.pause();
    for (i, line) in all {
        match classify(line) {
            Ok(req) => {
                server.submit(req.clone());
                submitted.push(req);
            }
            Err(e) => parse_errors.push((i, e)),
        }
    }
    server.release();
    let resps = server.drain(submitted.len());
    let stats = server.shutdown();
    stats.conservation()?;

    let verify = verify_responses_with(&submitted, &resps, cache)?;

    let mut served_payloads = BTreeMap::new();
    let mut by_id: Vec<&Response> = resps.iter().collect();
    by_id.sort_by_key(|r| r.id);
    let mut transcript = String::new();
    for (i, e) in &parse_errors {
        transcript.push_str(&format!("{{\"line\":{i},\"error\":{}}}\n", quote(e)));
    }
    for r in &by_id {
        let mut frozen = (*r).clone();
        frozen.wall_us = 0;
        transcript.push_str(&frozen.to_json());
        transcript.push('\n');
        if let Some(p) = &r.payload {
            served_payloads.insert(r.id, format!("{p:?}"));
        }
    }
    let summary = ChaosSummary {
        requests,
        submitted: submitted.len(),
        lost_to_disconnect: lost,
        parse_errors: parse_errors.len(),
        served: verify.served,
        failed: verify.failed,
        shed: verify.shed,
        rejected: verify.rejected,
        panics: stats.panics,
        deaths: stats.deaths,
    };
    transcript.push_str(&format!(
        "{{\"summary\":true,\"requests\":{},\"submitted\":{},\"lost\":{},\
         \"parse_errors\":{},\"served\":{},\"failed\":{},\"shed\":{},\
         \"rejected\":{},\"panics\":{},\"deaths\":{}}}\n",
        summary.requests,
        summary.submitted,
        summary.lost_to_disconnect,
        summary.parse_errors,
        summary.served,
        summary.failed,
        summary.shed,
        summary.rejected,
        summary.panics,
        summary.deaths,
    ));

    Ok(ChaosReport {
        transcript,
        served_payloads,
        stats,
        summary,
        verify,
    })
}

/// The socket phase: the plan's client scripts written over a real Unix
/// socket by concurrent OS threads — disconnecting clients vanish
/// mid-line, slow readers stall — while the front end's own
/// [`Listener::serve`] drains them. Whatever interleaving happens,
/// [`finish`] must find every connection conserved and every served
/// payload bit-identical to a direct call.
pub fn socket_chaos(
    seed: u64,
    requests: usize,
    cfg: ServeConfig,
    knobs: ChaosKnobs,
    cache: &mut DirectCache,
) -> Result<(VerifySummary, ServerStats), String> {
    let reqs = chaos_stream(seed, requests);
    let plan = ChaosPlan::generate(seed, requests, cfg.workers, &knobs);
    let scripts = client_scripts(seed, &reqs, &plan, knobs.clients);
    let path = format!("/tmp/optipart-chaos-{}.sock", std::process::id());

    let server = Server::start_chaos(cfg, plan.panics.clone());
    let ingress = server.ingress();
    let listener = Listener::bind(&path).map_err(|e| format!("bind {path}: {e}"))?;
    let accept = {
        let (ingress, clients) = (ingress.clone(), scripts.len());
        std::thread::spawn(move || listener.serve(&ingress, clients, true, DEFAULT_MAX_LINE))
    };
    let clients: Vec<_> = scripts
        .into_iter()
        .map(|script| {
            let path = path.clone();
            std::thread::spawn(move || run_chaos_client(&path, &script, knobs.stall_every))
        })
        .collect();
    for c in clients {
        c.join().map_err(|_| "chaos client thread panicked")?;
    }
    let conns = accept.join().map_err(|_| "accept thread panicked")?;
    let (stats, audit) = finish(server, &conns, Some(cache));
    Ok((audit.map_err(|e| format!("socket phase: {e}"))?, stats))
}

/// One scripted chaos client: writes its (pre-damaged) lines, optionally
/// vanishes mid-line, and reads responses on a side thread — stalling
/// every `stall_every` lines to back the server's writes up briefly.
fn run_chaos_client(path: &str, script: &ClientScript, stall_every: usize) {
    let Ok(stream) = connect_retry(path, 5000) else {
        return;
    };
    let rd = stream.try_clone().ok().map(|r| {
        std::thread::spawn(move || {
            let mut n = 0usize;
            for line in BufReader::new(r).lines() {
                if line.is_err() {
                    break;
                }
                n += 1;
                if stall_every > 0 && n.is_multiple_of(stall_every) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        })
    });
    {
        let mut w = BufWriter::new(&stream);
        for (_, line) in &script.lines {
            let _ = w.write_all(line);
            let _ = w.write_all(b"\n");
        }
        if script.disconnects {
            // Vanish mid-line: half a request, no newline, gone.
            let _ = w.write_all(b"{\"id\":404,\"seed\":12");
        }
        let _ = w.flush();
    }
    if script.disconnects {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    } else {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    if let Some(h) = rd {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Admission;

    #[test]
    fn plan_generation_is_deterministic_and_width_independent_off_panics() {
        let knobs = ChaosKnobs::default();
        let a = ChaosPlan::generate(99, 400, 4, &knobs);
        let b = ChaosPlan::generate(99, 400, 4, &knobs);
        assert_eq!(a.disconnect_after, b.disconnect_after);
        assert_eq!(a.corrupt, b.corrupt);
        assert_eq!(a.panics.at, b.panics.at);
        // Same seed at a different worker count: panics reshape, but the
        // client-side chaos is identical — the cross-width invariant.
        let solo = ChaosPlan::generate(99, 400, 1, &knobs);
        assert_eq!(solo.disconnect_after, a.disconnect_after);
        assert_eq!(solo.corrupt, a.corrupt);
        assert_eq!(solo.panics.len(), 3, "1 worker × max_pass 3 slots");
        assert_eq!(a.panics.len(), 12, "4 workers × max_pass 3 slots");
        assert_eq!(a.disconnect_after.len(), 5);
        assert_eq!(a.corrupt.len(), 16);
    }

    #[test]
    fn corruption_preserves_framing_and_the_id_prefix() {
        let req = chaos_stream(7, 1).remove(0);
        let line = req.to_json();
        let mut rng = SplitMix64::new(5).fork(CHAOS_BYTES);
        for kind in [
            Corruption::Truncate,
            Corruption::FlipByte,
            Corruption::Garbage,
        ] {
            for _ in 0..50 {
                let out = corrupt_line(&line, kind, &mut rng);
                assert!(!out.is_empty());
                assert!(!out.contains(&b'\n') && !out.contains(&b'\r'), "{kind:?}");
                let keep = out.len().min(line.len() / 2);
                assert_eq!(
                    &out[..keep],
                    &line.as_bytes()[..keep],
                    "{kind:?} must not touch the first half (the id field)"
                );
                if kind == Corruption::Truncate {
                    let s = std::str::from_utf8(&out);
                    assert!(
                        s.is_err() || Request::from_json(s.unwrap()).is_err(),
                        "a truncated line can never parse: {out:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn small_chaos_soak_conserves_and_reproduces() {
        let cfg = ServeConfig {
            workers: 2,
            queue_cap: 200,
            state_cap: 16,
            engine_cache: 4,
            batching: true,
            admission: Admission::DeadlineAware,
        };
        let knobs = ChaosKnobs {
            panics: 4,
            max_pass: 2,
            disconnects: 2,
            clients: 4,
            corrupt: 6,
            stall_every: 0,
        };
        let mut cache = DirectCache::new();
        let a = chaos_soak(0xC405, 120, cfg, knobs, &mut cache).expect("soak verifies");
        let b = chaos_soak(0xC405, 120, cfg, knobs, &mut cache).expect("soak verifies");
        assert_eq!(a.transcript, b.transcript, "same seed, same bytes");
        assert!(a.summary.panics >= 1, "{:?}", a.summary);
        assert!(a.summary.failed >= 1, "{:?}", a.summary);
        assert!(a.summary.lost_to_disconnect >= 1, "{:?}", a.summary);
        assert!(a.summary.parse_errors >= 1, "{:?}", a.summary);
        assert!(a.summary.served > 30, "{:?}", a.summary);
        assert_eq!(
            a.summary.submitted,
            a.summary.served + a.summary.failed + a.summary.shed + a.summary.rejected,
            "conservation over the response set: {:?}",
            a.summary
        );
    }
}
