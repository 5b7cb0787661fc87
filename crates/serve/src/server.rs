//! The concurrent front end: sharded workers over bounded queues.
//!
//! One OS thread per worker (`mpisim::par` handles intra-pass parallelism;
//! no async runtime — the tier-1 build stays std-only and offline). Each
//! worker owns:
//!
//! * a bounded `Mutex<VecDeque>` + `Condvar` request queue (backpressure:
//!   a full queue sheds at *submit* time, before any worker involvement, so
//!   shedding is deterministic given queue contents and can never block);
//! * one persistent warm [`PartitionState`] **per rank count** `p` (states
//!   are fingerprint-invalidated on `p` mismatch, so a shared state would
//!   thrash between requests of different widths);
//! * a small LRU of long-lived engines keyed `(p, machine, app, hier)` —
//!   **fault-free requests only**. A request carrying a fault plan gets a
//!   fresh engine and a throwaway state: `Engine::reset` re-arms kill
//!   schedules but a shrink is permanent, so an engine that lost a rank
//!   must never serve another request.
//!
//! Batching: the worker pops the queue head, then (with
//! [`ServeConfig::batching`]) drains every queued request with the same
//! scenario key and answers them all from one engine pass. The key is
//! formatted once per request, at submit, and stored on its queued job.
//! Under [`Server::pause`]/[`Server::release`] the queue contents at
//! release time are exactly the submitted burst, which makes batch
//! composition — and therefore pass counts, warm stats and allocation
//! counts — fully deterministic; the bench kernels and tests rely on this.
//!
//! # Crash isolation and request conservation
//!
//! The invariant everything below defends: **every submitted request id is
//! answered exactly once** — served, shed, rejected, or failed
//! ([`ServerStats::conservation`] checks the counter form of this, and
//! `soak::verify_responses_with` the id-by-id form).
//!
//! Two layers keep a panicking engine pass from breaking it:
//!
//! 1. Every batch is moved from the queue into the worker's `in_flight`
//!    list *under the queue lock* before the pass runs, and each pass runs
//!    inside `catch_unwind`. On a panic the worker quarantines the warm
//!    state for the batch's rank count and the engine-cache entry for its
//!    `(p, machine, app, hier)` key (both may have been mid-mutation),
//!    answers
//!    every in-flight request with [`Status::Failed`] — panic summary plus
//!    exact replay command attached — and keeps serving.
//! 2. If a panic ever escapes the per-pass layer (a bug in the worker loop
//!    itself), an outer `catch_unwind` fails whatever is still in flight
//!    and respawns the loop with fresh caches — the whole-worker
//!    quarantine.
//!
//! Locks use a poison-tolerant helper: a panic while holding the stats or
//! queue mutex must not cascade into every other thread.

use crate::chaos::{panic_summary, PanicPoint, PanicSchedule};
use crate::protocol::{shard_of, Request, Response, Status, WarmPath};
use crate::run_request;
use optipart_core::optipart::{PartitionState, WarmStats, DEFAULT_STATE_CAP};
use optipart_mpisim::Engine;
use optipart_scenario::{AppKind, HierKind, Scenario};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Locks `m`, recovering the guard if a previous holder panicked: the data
/// under every mutex here (queues, counters) stays structurally valid across
/// a panic, and crash isolation must not turn one panic into a poison
/// cascade.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Submit-time admission policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Backpressure only: the sole submit-time rejection is a full queue
    /// (shed). Deadline budgets are judged after serving.
    #[default]
    ShedOnly,
    /// Additionally reject a deadline-carrying request when its target
    /// queue's virtual-time backlog (sum of [`crate::estimate_virtual_s`]
    /// over queued jobs) already exceeds the deadline budget — the pass
    /// could only come back flagged late, so the cycles are better spent on
    /// requests that can still win. Deterministic given queue contents.
    DeadlineAware,
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads (shards). Default: one per core.
    pub workers: usize,
    /// Bounded queue depth per worker; submissions past this are shed.
    pub queue_cap: usize,
    /// Warm [`PartitionState`] LRU bound per (worker, rank count) — the
    /// configurable state cap of DESIGN.md, *core* (warm start).
    pub state_cap: usize,
    /// Long-lived engines kept per worker (fault-free configs only).
    pub engine_cache: usize,
    /// Serve same-key queued requests with one engine pass.
    pub batching: bool,
    /// Submit-time admission policy.
    pub admission: Admission,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 64,
            state_cap: DEFAULT_STATE_CAP,
            engine_cache: 4,
            batching: true,
            admission: Admission::ShedOnly,
        }
    }
}

/// Aggregate service counters (monotone over the server's lifetime).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Requests offered to [`Server::submit`]/[`Ingress::submit_with`].
    pub submitted: u64,
    /// Requests answered with a payload (ok or deadline).
    pub completed: u64,
    /// Requests rejected by backpressure.
    pub shed: u64,
    /// Requests rejected by deadline-aware admission.
    pub rejected: u64,
    /// Requests answered [`Status::Failed`] after a worker panic.
    pub failed: u64,
    /// Worker panics caught (per-pass or whole-loop).
    pub panics: u64,
    /// Engine passes run to completion (≤ completed when batching merges
    /// requests; panicked passes count under `panics`, not here).
    pub engine_passes: u64,
    /// Passes served from an exact warm hit.
    pub hit_passes: u64,
    /// Passes served from a table-accelerated replay.
    pub replay_passes: u64,
    /// Passes that paid the cold ladder.
    pub cold_passes: u64,
    /// Requests that joined an existing pass (batch followers).
    pub batched_extra: u64,
    /// Fail-stop deaths absorbed while serving.
    pub deaths: u64,
    /// Connections a front end folded in ([`Ingress::fold_connection`]).
    pub connections: u64,
    /// Connections that ended in a mid-line EOF (client vanished).
    pub disconnects: u64,
    /// Malformed request lines answered with an error line.
    pub malformed_lines: u64,
    /// Request lines past the byte cap, swallowed and answered with an
    /// error line.
    pub oversized_lines: u64,
    /// Connection-level I/O failures (failed clone, broken pipe, …).
    pub io_errors: u64,
}

impl ServerStats {
    /// Fraction of completed requests served *without* paying a cold
    /// ladder — exact hits, warm replays, or batch followers. This is the
    /// "warm-hit rate" the service is gated on: it lower-bounds to
    /// `1 − distinct_scenarios / requests` regardless of timing, because a
    /// scenario can only go cold once per worker state.
    pub fn warm_request_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        1.0 - self.cold_passes as f64 / self.completed as f64
    }

    /// The request-conservation invariant in counter form: every submitted
    /// request reached exactly one terminal state. Checked at
    /// [`Server::shutdown`] and by every soak/chaos driver.
    pub fn conservation(&self) -> Result<(), String> {
        let answered = self.completed + self.shed + self.rejected + self.failed;
        if answered == self.submitted {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: {} submitted but {} answered \
                 ({} completed + {} shed + {} rejected + {} failed)",
                self.submitted, answered, self.completed, self.shed, self.rejected, self.failed
            ))
        }
    }
}

/// Per-connection counters collected by a front end (one stdin stream or
/// one accepted socket client), folded into the server-wide [`ServerStats`]
/// with [`Ingress::fold_connection`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnStats {
    /// Non-blank request lines read (including bad ones).
    pub lines: u64,
    /// Requests successfully parsed and submitted.
    pub submitted: u64,
    /// Responses delivered back (or drained after the client vanished).
    pub responses: u64,
    /// Lines rejected by the parser.
    pub malformed: u64,
    /// Lines past the byte cap.
    pub oversized: u64,
    /// The stream ended mid-line (client disconnected without a newline).
    pub mid_line_eof: bool,
    /// Write/clone failures on this connection.
    pub io_errors: u64,
}

/// Outcome of [`Ingress::submit_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Queued on its shard; the pass's response will arrive on the reply
    /// channel.
    Queued,
    /// Shed by backpressure; the shed response was already sent.
    Shed,
    /// Rejected by deadline-aware admission; the rejection response was
    /// already sent.
    Rejected,
}

struct Job {
    req: Request,
    /// [`Request::key`], formatted once at submit: it picks the shard and
    /// is what batching compares.
    key: String,
    /// Coarse virtual-time estimate ([`crate::estimate_virtual_s`]), fixed
    /// at submit so backlog sums are a pure function of queue contents.
    est: f64,
    enqueued: Instant,
    reply: Sender<Response>,
}

#[derive(Default)]
struct QueueState {
    q: VecDeque<Job>,
    /// The batch currently being served: moved here (under the lock) before
    /// the pass runs, so a panicking worker can still answer every job it
    /// had claimed.
    in_flight: Vec<Job>,
    paused: bool,
    shutdown: bool,
}

#[derive(Default)]
struct WorkerQueue {
    m: Mutex<QueueState>,
    cv: Condvar,
}

struct Shared {
    cfg: ServeConfig,
    queues: Vec<WorkerQueue>,
    stats: Mutex<ServerStats>,
    /// Armed chaos panics (worker, pass) — `None` outside chaos runs.
    chaos: Option<PanicSchedule>,
    /// Monotone engine-pass counter per worker (panicked passes included),
    /// the clock chaos schedules fire against.
    pass_counts: Vec<AtomicU64>,
}

/// A cloneable, thread-safe submission handle onto a running [`Server`]:
/// what each connection thread holds. Responses go to the per-connection
/// reply channel passed to [`Ingress::submit_with`], so one slow or dead
/// client never blocks another's responses.
#[derive(Clone)]
pub struct Ingress {
    shared: Arc<Shared>,
}

enum Decision {
    Queued,
    Shed(Request, f64),
    Rejected(Request, f64),
}

impl Ingress {
    /// Offers a request, directing its response to `reply`. Shed and
    /// rejected requests are answered immediately on `reply` (with a
    /// replay command and a deterministic `retry_after_s` hint); queued
    /// requests are answered by their serving worker. Exactly one response
    /// per call either way.
    pub fn submit_with(&self, req: Request, reply: &Sender<Response>) -> Admit {
        let shared = &self.shared;
        let key = req.key();
        let w = shard_of(&key, shared.cfg.workers);
        let est = crate::estimate_virtual_s(&req.scn);
        let decision = {
            let mut st = lock(&shared.queues[w].m);
            if st.q.len() >= shared.cfg.queue_cap {
                // Hint: the head job's pass is what frees the next slot.
                let head_est = st.q.front().map_or(est, |j| j.est);
                Decision::Shed(req, head_est)
            } else {
                let over_budget = match (shared.cfg.admission, req.deadline_s) {
                    (Admission::DeadlineAware, Some(d)) => {
                        let backlog: f64 = st.q.iter().map(|j| j.est).sum();
                        (backlog > d).then_some((backlog - d).max(0.0))
                    }
                    _ => None,
                };
                match over_budget {
                    Some(over) => Decision::Rejected(req, over),
                    None => {
                        st.q.push_back(Job {
                            req,
                            key,
                            est,
                            enqueued: Instant::now(),
                            reply: reply.clone(),
                        });
                        Decision::Queued
                    }
                }
            }
        };
        {
            let mut s = lock(&shared.stats);
            s.submitted += 1;
            match decision {
                Decision::Queued => {}
                Decision::Shed(..) => s.shed += 1,
                Decision::Rejected(..) => s.rejected += 1,
            }
        }
        match decision {
            Decision::Queued => {
                shared.queues[w].cv.notify_one();
                Admit::Queued
            }
            Decision::Shed(req, retry) => {
                reply.send(turned_away(req, Status::Shed, w, retry)).ok();
                Admit::Shed
            }
            Decision::Rejected(req, retry) => {
                reply
                    .send(turned_away(req, Status::Rejected, w, retry))
                    .ok();
                Admit::Rejected
            }
        }
    }

    /// Folds one finished connection's counters into the server-wide stats.
    pub fn fold_connection(&self, c: &ConnStats) {
        let mut s = lock(&self.shared.stats);
        s.connections += 1;
        s.malformed_lines += c.malformed;
        s.oversized_lines += c.oversized;
        s.io_errors += c.io_errors;
        if c.mid_line_eof {
            s.disconnects += 1;
        }
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        *lock(&self.shared.stats)
    }
}

fn turned_away(req: Request, status: Status, worker: usize, retry_after_s: f64) -> Response {
    Response {
        id: req.id,
        status,
        payload: None,
        replay: Some(req.scn.replay_cmd()),
        worker,
        warm: WarmPath::None,
        batched: 0,
        virtual_s: 0.0,
        wall_us: 0,
        retry_after_s: Some(retry_after_s),
        error: None,
    }
}

/// A running server. Submit requests, receive [`Response`]s (exactly one
/// per submitted request — shed, rejected and failed included), then
/// [`Server::shutdown`]. Dropping the server shuts it down implicitly.
pub struct Server {
    shared: Arc<Shared>,
    resp_tx: Option<Sender<Response>>,
    resp_rx: Receiver<Response>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` worker threads and returns the handle.
    pub fn start(cfg: ServeConfig) -> Server {
        Server::start_inner(cfg, None)
    }

    /// [`Server::start`] with an armed chaos schedule: the named engine
    /// passes panic on purpose, exercising the crash-isolation path
    /// deterministically (see `serve::chaos`).
    pub fn start_chaos(cfg: ServeConfig, schedule: PanicSchedule) -> Server {
        Server::start_inner(cfg, Some(schedule))
    }

    fn start_inner(cfg: ServeConfig, chaos: Option<PanicSchedule>) -> Server {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            cfg,
            queues: (0..cfg.workers).map(|_| WorkerQueue::default()).collect(),
            stats: Mutex::new(ServerStats::default()),
            chaos,
            pass_counts: (0..cfg.workers).map(|_| AtomicU64::new(0)).collect(),
        });
        let (resp_tx, resp_rx) = channel();
        let handles = (0..shared.cfg.workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("optipart-serve-{idx}"))
                    .spawn(move || worker_thread(shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            resp_tx: Some(resp_tx),
            resp_rx,
            handles,
        }
    }

    /// A cloneable, thread-safe submission handle for connection threads.
    pub fn ingress(&self) -> Ingress {
        Ingress {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Offers a request with the server's own response channel as the
    /// reply target (the single-stream front). Returns `true` iff queued;
    /// shed/rejected requests are answered immediately on the channel.
    pub fn submit(&self, req: Request) -> bool {
        let reply = self.resp_tx.as_ref().expect("server running");
        self.ingress().submit_with(req, reply) == Admit::Queued
    }

    /// Holds all workers: queued and newly submitted requests accumulate
    /// without being popped. With batching on, the queue contents at
    /// [`Server::release`] determine batch composition deterministically.
    pub fn pause(&self) {
        for q in &self.shared.queues {
            lock(&q.m).paused = true;
        }
    }

    /// Releases paused workers.
    pub fn release(&self) {
        for q in &self.shared.queues {
            lock(&q.m).paused = false;
            q.cv.notify_all();
        }
    }

    /// Blocking receive of the next response.
    pub fn recv(&self) -> Response {
        self.resp_rx.recv().expect("server running")
    }

    /// Blocking receive of exactly `n` responses (arrival order).
    pub fn drain(&self, n: usize) -> Vec<Response> {
        (0..n).map(|_| self.recv()).collect()
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        *lock(&self.shared.stats)
    }

    /// Stops accepting work, lets workers finish queued requests, joins
    /// them, and returns the final counters. Panics if the conservation
    /// invariant broke — a response was lost or duplicated somewhere.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        let stats = self.stats();
        if let Err(e) = stats.conservation() {
            panic!("shutdown: {e}");
        }
        stats
    }

    fn stop(&mut self) {
        for q in &self.shared.queues {
            let mut st = lock(&q.m);
            st.shutdown = true;
            q.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            h.join().expect("worker exits cleanly");
        }
        self.resp_tx = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop();
        }
    }
}

type EngineKey = (usize, String, AppKind, HierKind);

/// The outer crash-isolation layer: if a panic ever escapes the per-pass
/// `catch_unwind` in [`serve_batch`] (a bug in the loop itself, not the
/// engine), fail whatever was in flight and respawn the loop with fresh
/// caches — the whole-worker quarantine.
fn worker_thread(shared: Arc<Shared>, idx: usize) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, idx))) {
            Ok(()) => return,
            Err(payload) => {
                let summary = panic_summary(payload.as_ref());
                {
                    let mut s = lock(&shared.stats);
                    s.panics += 1;
                }
                fail_in_flight(&shared, idx, &summary);
            }
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    // Warm state per rank count: entries are fingerprinted by `p`, so one
    // map slot per width keeps every request on its own warm path.
    let mut states: BTreeMap<usize, PartitionState> = BTreeMap::new();
    let mut engines: Vec<(EngineKey, Engine)> = Vec::new();
    // Reused across batches: `in_flight` is swapped into this after each
    // pass, so the steady state allocates nothing per batch.
    let mut spare: Vec<Job> = Vec::new();
    while let Some(scn) = next_batch(shared, idx) {
        serve_batch(shared, idx, &mut states, &mut engines, &mut spare, scn);
    }
}

/// Claims the next batch: the queue head plus (with batching) every queued
/// same-key request, moved into the worker's `in_flight` list under the
/// lock — from this instant a crash anywhere still answers them. Returns
/// the batch's scenario, or `None` on shutdown with an empty queue.
fn next_batch(shared: &Shared, idx: usize) -> Option<Scenario> {
    let wq = &shared.queues[idx];
    let mut st = lock(&wq.m);
    loop {
        if st.q.is_empty() {
            if st.shutdown {
                return None;
            }
        } else if !st.paused || st.shutdown {
            break;
        }
        st = wq
            .cv
            .wait(st)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
    let head = st.q.pop_front().expect("queue non-empty");
    let scn = head.req.scn.clone();
    let at = st.in_flight.len();
    st.in_flight.push(head);
    if shared.cfg.batching {
        let mut rest = VecDeque::with_capacity(st.q.len());
        while let Some(job) = st.q.pop_front() {
            if job.key == st.in_flight[at].key {
                st.in_flight.push(job);
            } else {
                rest.push_back(job);
            }
        }
        st.q = rest;
    }
    Some(scn)
}

fn warm_label(before: WarmStats, after: WarmStats) -> WarmPath {
    if after.hits > before.hits {
        WarmPath::Hit
    } else if after.replays > before.replays {
        WarmPath::Replay
    } else {
        WarmPath::Cold
    }
}

fn serve_batch(
    shared: &Shared,
    idx: usize,
    states: &mut BTreeMap<usize, PartitionState>,
    engines: &mut Vec<(EngineKey, Engine)>,
    spare: &mut Vec<Job>,
    scn: Scenario,
) {
    let pass_no = shared.pass_counts[idx].fetch_add(1, Ordering::Relaxed);
    let key: EngineKey = (scn.p, scn.machine.name.clone(), scn.app, scn.hier);
    // The per-pass crash-isolation layer. `AssertUnwindSafe` is justified
    // by what the Err arm does: any value the closure may have left
    // half-mutated (the warm state for this `p`, the cached engine for
    // this key) is quarantined before the worker touches it again.
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(ch) = &shared.chaos {
            ch.check(idx, pass_no, PanicPoint::Before);
        }
        let out = if scn.faults.is_some() {
            // Fault plans make engines single-use (a shrink is permanent)
            // and their deaths would poison a shared warm state's
            // statistics, so faulted requests run isolated: fresh engine,
            // throwaway state.
            let mut engine = scn.engine_faulted();
            let mut state = PartitionState::with_cap(1);
            let (p, t) = run_request(&mut engine, &mut state, &scn);
            (p, t, warm_label(WarmStats::default(), state.stats))
        } else {
            let engine = cached_engine(engines, shared.cfg.engine_cache, &scn);
            let state = states
                .entry(scn.p)
                .or_insert_with(|| PartitionState::with_cap(shared.cfg.state_cap));
            let before = state.stats;
            let (p, t) = run_request(engine, state, &scn);
            (p, t, warm_label(before, state.stats))
        };
        if let Some(ch) = &shared.chaos {
            // The harshest point to die: the caches are already mutated but
            // no response has been sent.
            ch.check(idx, pass_no, PanicPoint::After);
        }
        out
    }));
    // Reclaim the claimed batch — present whether the pass completed or
    // panicked — into the reusable spare vec.
    {
        let mut st = lock(&shared.queues[idx].m);
        std::mem::swap(&mut st.in_flight, spare);
    }
    let size = spare.len() as u32;
    match result {
        Ok((payload, virtual_s, warm)) => {
            {
                let mut s = lock(&shared.stats);
                s.engine_passes += 1;
                match warm {
                    WarmPath::Hit => s.hit_passes += 1,
                    WarmPath::Replay => s.replay_passes += 1,
                    _ => s.cold_passes += 1,
                }
                s.completed += size as u64;
                s.batched_extra += size as u64 - 1;
                s.deaths += payload.deaths as u64;
            }
            for job in spare.drain(..) {
                let status = match job.req.deadline_s {
                    Some(d) if virtual_s > d => Status::Deadline,
                    _ => Status::Ok,
                };
                let resp = Response {
                    id: job.req.id,
                    status,
                    payload: Some(payload.clone()),
                    replay: None,
                    worker: idx,
                    warm,
                    batched: size,
                    virtual_s,
                    wall_us: job.enqueued.elapsed().as_micros() as u64,
                    retry_after_s: None,
                    error: None,
                };
                // A dropped receiver just means the client went away
                // mid-drain.
                job.reply.send(resp).ok();
            }
        }
        Err(payload) => {
            // Quarantine first: both caches this pass touched may hold
            // half-mutated values.
            states.remove(&scn.p);
            if let Some(pos) = engines.iter().position(|(k, _)| *k == key) {
                engines.remove(pos);
            }
            let summary = panic_summary(payload.as_ref());
            {
                let mut s = lock(&shared.stats);
                s.panics += 1;
                s.failed += size as u64;
            }
            for job in spare.drain(..) {
                job.reply
                    .send(failed_response(&job, idx, size, &summary))
                    .ok();
            }
        }
    }
}

fn failed_response(job: &Job, worker: usize, batched: u32, summary: &str) -> Response {
    Response {
        id: job.req.id,
        status: Status::Failed,
        payload: None,
        replay: Some(job.req.scn.replay_cmd()),
        worker,
        warm: WarmPath::None,
        batched,
        virtual_s: 0.0,
        wall_us: job.enqueued.elapsed().as_micros() as u64,
        retry_after_s: None,
        error: Some(summary.to_string()),
    }
}

/// Answers every job the worker had claimed when a panic escaped the
/// per-pass layer (outer quarantine).
fn fail_in_flight(shared: &Shared, idx: usize, summary: &str) {
    let jobs: Vec<Job> = {
        let mut st = lock(&shared.queues[idx].m);
        std::mem::take(&mut st.in_flight)
    };
    if jobs.is_empty() {
        return;
    }
    {
        let mut s = lock(&shared.stats);
        s.failed += jobs.len() as u64;
    }
    let size = jobs.len() as u32;
    for job in &jobs {
        job.reply
            .send(failed_response(job, idx, size, summary))
            .ok();
    }
}

/// Looks up (or creates) the worker's long-lived engine for this scenario's
/// `(p, machine, app, hier)` — LRU by recency, fault-free configs only. The
/// hierarchy is part of the key because an engine's `PerfModel` is fixed at
/// construction: a `hier=smp` request served on an engine built flat would
/// report flat quality scores (and a flat `Tp`) for its payload.
fn cached_engine<'a>(
    engines: &'a mut Vec<(EngineKey, Engine)>,
    cap: usize,
    scn: &Scenario,
) -> &'a mut Engine {
    let key: EngineKey = (scn.p, scn.machine.name.clone(), scn.app, scn.hier);
    if let Some(pos) = engines.iter().position(|(k, _)| *k == key) {
        let slot = engines.remove(pos);
        engines.push(slot);
    } else {
        engines.push((key, scn.engine()));
        if engines.len() > cap.max(1) {
            engines.remove(0);
        }
    }
    &mut engines.last_mut().expect("just pushed").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;

    fn cfg(workers: usize, queue_cap: usize, batching: bool) -> ServeConfig {
        ServeConfig {
            workers,
            queue_cap,
            state_cap: 8,
            engine_cache: 2,
            batching,
            admission: Admission::ShedOnly,
        }
    }

    fn req(id: u64, seed: u64) -> Request {
        Request {
            id,
            scn: Scenario::from_seed(seed),
            deadline_s: None,
        }
    }

    #[test]
    fn saturated_queue_sheds_deterministically_and_never_deadlocks() {
        // One worker, cap 4, paused: of 10 same-scenario submissions the
        // first 4 queue and the last 6 shed — deterministically, because
        // shedding happens at submit time under the queue lock.
        let server = Server::start(cfg(1, 4, true));
        server.pause();
        let outcomes: Vec<bool> = (0..10).map(|i| server.submit(req(i, 500))).collect();
        assert_eq!(
            outcomes,
            [true, true, true, true, false, false, false, false, false, false]
        );
        // Shed responses arrive immediately, even while workers are paused.
        let shed: Vec<Response> = server.drain(6);
        let want_replay = Scenario::from_seed(500).replay_cmd();
        for r in &shed {
            assert_eq!(r.status, Status::Shed);
            assert!(r.payload.is_none());
            assert_eq!(
                r.replay.as_deref(),
                Some(want_replay.as_str()),
                "every shed request reports its replay seed"
            );
            let retry = r.retry_after_s.expect("shed carries a retry hint");
            assert!(retry.is_finite() && retry > 0.0, "retry_after {retry}");
            assert!(r.id >= 4, "only the tail submissions shed");
        }
        server.release();
        let served = server.drain(4);
        assert!(served.iter().all(|r| r.status == Status::Ok));
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.shed, 6);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn shed_set_is_deterministic_across_multiple_workers() {
        // Sharding is a pure function of the scenario key, so with the
        // submission order fixed, which requests shed is reproducible even
        // with several workers.
        let run = || {
            let server = Server::start(cfg(3, 2, true));
            server.pause();
            let shed_ids: Vec<u64> = (0..24)
                .filter(|&i| !server.submit(req(i, 9000 + (i % 8))))
                .collect();
            server.release();
            server.drain(24);
            server.shutdown();
            shed_ids
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(
            !a.is_empty(),
            "cap 2 × 3 workers cannot hold 8 distinct scenarios × 3"
        );
    }

    #[test]
    fn paused_burst_batches_same_key_requests_into_one_pass() {
        let server = Server::start(cfg(1, 64, true));
        server.pause();
        for i in 0..5 {
            assert!(server.submit(req(i, 1234)));
        }
        server.release();
        let resps = server.drain(5);
        let stats = server.stats();
        assert_eq!(stats.engine_passes, 1, "one pass serves the whole batch");
        assert_eq!(stats.batched_extra, 4);
        let want = direct(&Scenario::from_seed(1234));
        for r in &resps {
            assert_eq!(r.batched, 5);
            assert_eq!(r.payload.as_ref(), Some(&want));
        }
        server.shutdown();
    }

    #[test]
    fn batching_off_serves_each_request_with_its_own_pass() {
        let server = Server::start(cfg(1, 64, false));
        server.pause();
        for i in 0..5 {
            assert!(server.submit(req(i, 1234)));
        }
        server.release();
        let resps = server.drain(5);
        let stats = server.shutdown();
        assert_eq!(stats.engine_passes, 5);
        assert_eq!(stats.hit_passes, 4, "passes 2..5 are exact warm hits");
        let want = direct(&Scenario::from_seed(1234));
        assert!(resps.iter().all(|r| r.payload.as_ref() == Some(&want)));
    }

    #[test]
    fn deadline_budget_is_judged_on_the_serving_pass() {
        let mut tight = req(0, 4321);
        tight.deadline_s = Some(1e-12);
        let mut loose = req(1, 4321);
        loose.deadline_s = Some(1e9);
        let server = Server::start(cfg(1, 8, false));
        server.submit(tight);
        server.submit(loose);
        let resps = server.drain(2);
        server.shutdown();
        let by_id = |id: u64| resps.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id(0).status, Status::Deadline);
        assert!(
            by_id(0).payload.is_some(),
            "deadline responses still carry the result"
        );
        assert_eq!(by_id(1).status, Status::Ok);
        // Both payloads are the same partition regardless of status.
        assert_eq!(by_id(0).payload, by_id(1).payload);
    }

    #[test]
    fn per_p_states_and_engine_cache_keep_mixed_widths_warm() {
        // Alternating two scenarios with different p must not thrash: after
        // the first round both stay on the exact-hit path.
        let mut seeds = (0..).map(Scenario::from_seed);
        let a = seeds.by_ref().find(|s| s.faults.is_none()).unwrap();
        let b = seeds
            .by_ref()
            .find(|s| s.faults.is_none() && s.p != a.p)
            .unwrap();
        let server = Server::start(cfg(1, 64, false));
        let mut id = 0;
        for _ in 0..3 {
            for scn in [&a, &b] {
                server.submit(Request {
                    id,
                    scn: scn.clone(),
                    deadline_s: None,
                });
                id += 1;
            }
        }
        server.drain(id as usize);
        let stats = server.shutdown();
        assert_eq!(stats.engine_passes, 6);
        assert_eq!(stats.cold_passes, 2, "one cold per scenario, ever");
        assert_eq!(stats.hit_passes, 4, "{stats:?}");
    }

    #[test]
    fn faulted_requests_run_isolated_and_stay_bit_identical() {
        use optipart_mpisim::FaultPlan;
        let mut scn = (0..)
            .map(|s| Scenario::from_seed(7100 + s))
            .find(|s| s.p >= 3 && s.n >= 80)
            .unwrap();
        scn.faults = Some(FaultPlan::new(scn.seed).kill_rank(0, 5));
        let clean = Scenario {
            faults: None,
            ..scn.clone()
        };
        let server = Server::start(cfg(1, 16, true));
        server.submit(Request {
            id: 0,
            scn: clean.clone(),
            deadline_s: None,
        });
        server.submit(Request {
            id: 1,
            scn: scn.clone(),
            deadline_s: None,
        });
        server.submit(Request {
            id: 2,
            scn: clean.clone(),
            deadline_s: None,
        });
        let resps = server.drain(3);
        let stats = server.shutdown();
        assert!(stats.deaths >= 1, "the kill must actually fire: {stats:?}");
        let by_id = |id: u64| resps.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id(1).payload.as_ref(), Some(&direct(&scn)));
        assert_eq!(by_id(0).payload.as_ref(), Some(&direct(&clean)));
        assert_eq!(
            by_id(2).payload,
            by_id(0).payload,
            "a death on the faulted request must not leak into clean serving"
        );
    }

    #[test]
    fn shutdown_drains_queued_work_before_exiting() {
        let server = Server::start(cfg(2, 64, true));
        server.pause();
        for i in 0..8 {
            server.submit(req(i, 33000 + i));
        }
        server.release();
        let stats = server.shutdown();
        assert_eq!(stats.completed + stats.shed, 8);
        stats.conservation().expect("drained shutdown conserves");
    }

    #[test]
    fn worker_panic_is_isolated_quarantined_and_conserved() {
        use crate::chaos::{PanicPoint, PanicSchedule};
        // Arm the first engine pass of worker 0 to die *after* mutating
        // its caches — the harshest quarantine test. One worker, paused
        // burst: pass 0 is the seed-500 batch (3 requests, all must come
        // back Failed), pass 1 the seed-501 batch (served), and the
        // post-panic resubmit of seed 500 must serve cold, bit-identically.
        let schedule = PanicSchedule::default().arm(0, 0, PanicPoint::After);
        let server = Server::start_chaos(cfg(1, 64, true), schedule);
        server.pause();
        for i in 0..3 {
            assert!(server.submit(req(i, 500)));
        }
        assert!(server.submit(req(3, 501)));
        server.release();
        let first = server.drain(4);
        assert!(server.submit(req(4, 500)), "the worker must have respawned");
        let retry = server.recv();
        let stats = server.shutdown();

        let by_id = |id: u64| first.iter().find(|r| r.id == id).unwrap();
        let want_replay = Scenario::from_seed(500).replay_cmd();
        for id in 0..3 {
            let r = by_id(id);
            assert_eq!(r.status, Status::Failed, "{r:?}");
            assert!(r.payload.is_none());
            assert_eq!(r.replay.as_deref(), Some(want_replay.as_str()));
            let err = r.error.as_deref().expect("failed carries the summary");
            assert!(err.contains("chaos"), "panic summary: {err}");
        }
        assert_eq!(by_id(3).status, Status::Ok);
        assert_eq!(
            by_id(3).payload.as_ref(),
            Some(&direct(&Scenario::from_seed(501))),
            "the pass after the panic serves bit-identically"
        );
        assert_eq!(retry.status, Status::Ok);
        assert_eq!(
            retry.payload.as_ref(),
            Some(&direct(&Scenario::from_seed(500))),
            "quarantined caches must re-serve the crashed scenario fresh"
        );
        assert_eq!(retry.warm, WarmPath::Cold, "quarantine forces a cold pass");
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.completed, 2);
        stats.conservation().expect("panics conserve responses");
    }

    #[test]
    fn deadline_admission_rejects_deterministically_with_retry_hint() {
        let run = || {
            let cfg = ServeConfig {
                admission: Admission::DeadlineAware,
                ..cfg(1, 8, true)
            };
            let server = Server::start(cfg);
            server.pause();
            // Queue one request to create backlog, then a hopeless
            // deadline: its budget is below the backlog, so admission
            // rejects it before any worker involvement.
            assert!(server.submit(req(0, 600)));
            let mut hopeless = req(1, 601);
            hopeless.deadline_s = Some(1e-12);
            assert_eq!(
                server
                    .ingress()
                    .submit_with(hopeless, server.resp_tx.as_ref().expect("server running")),
                Admit::Rejected
            );
            // A generous budget clears the same backlog and is admitted.
            let mut generous = req(2, 601);
            generous.deadline_s = Some(1e9);
            assert!(server.submit(generous));
            let rejected = server.recv();
            server.release();
            let served = server.drain(2);
            let stats = server.shutdown();
            assert_eq!(rejected.status, Status::Rejected);
            assert!(rejected.payload.is_none());
            assert_eq!(
                rejected.replay.as_deref(),
                Some(Scenario::from_seed(601).replay_cmd().as_str())
            );
            assert_eq!(stats.rejected, 1);
            assert_eq!(stats.completed, 2);
            stats.conservation().expect("rejection conserves");
            assert!(served.iter().all(|r| r.payload.is_some()));
            rejected
                .retry_after_s
                .expect("rejection carries retry hint")
        };
        let a = run();
        let b = run();
        assert!(a > 0.0 && a.is_finite());
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "retry hints are bit-deterministic given queue contents"
        );
    }
}
