//! The two serve workloads: the root `optipart-serve` binary as a child
//! process, driven over its Unix socket by an open-loop streaming client.
//!
//! **Why streaming and open loop.** `pump` in `src/bin/optipart-serve.rs`
//! forwards finished responses only after it has read the *next* request
//! line (or EOF). A caller that waits for each reply before sending again
//! therefore never receives one, and under pacing a response leaves the
//! server when a later request arrives: paced latency sits near 1.7 × the
//! inter-arrival gap however fast the service itself is. The client here
//! has one writer thread that sends on a fixed schedule and half-closes at
//! the end, and one reader thread; latency is timed from the instant a
//! request was *due*, and the writer's lateness is reported.
//!
//! The hot set is fixed (48 default-size scenarios, fault plans off so that
//! they are served from the warm state); `--seed` drives which scenario each
//! request asks for and, in `serve_mixed`, the never-seen scenarios.

use crate::host;
use crate::spans::{self, Recorder, Traced};
use crate::stats;
use optipart::core::optipart::{optipart_with_state, PartitionState};
use optipart::core::partition::distribute_tree;
use optipart::machine::MachineModel;
use optipart::mpisim::rng::SplitMix64;
use optipart::scenario::{AppKind, ElemFamily, HierKind, MeshShape, Scenario, Workload};
use optipart::serve::protocol::Fields;
use optipart::serve::{
    optipart_options, run_request, Payload, Request, Response, ServeConfig, Server, Status,
    WarmPath,
};
use optipart::sfc::Curve;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// First scenario seed of the fixed hot set, and of the never-seen scenarios.
const HOT_BASE: u64 = 0x0B7A_0000;
const COLD_BASE: u64 = 0xC01D_0000_0000;
/// Most saturation bursts one server run accepts (sizes `--accept`).
const MAX_BURSTS: usize = 40;
/// Every `COLD_SAMPLE`-th never-seen burst response is checked against the
/// library (each check is a cold ladder); all paced ones are.
const COLD_SAMPLE: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Mixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "serve_hot" => Some(Kind::Hot),
            "serve_mixed" => Some(Kind::Mixed),
            _ => None,
        }
    }
}

#[derive(Clone, Copy)]
pub struct Sizes {
    hot_set: usize,
    /// Requests per saturation burst.
    burst: usize,
    /// Paced phase: requests per second, and the latency limit on its tail.
    rate: f64,
    limit_us: f64,
    /// `serve_mixed`: one request in this many is a never-seen scenario.
    cold_every: Option<usize>,
    cold_n: usize,
    cold_p: usize,
}

impl Sizes {
    pub fn new(kind: Kind, smoke: bool) -> Sizes {
        match kind {
            Kind::Hot => Sizes {
                hot_set: 48,
                burst: if smoke { 2_000 } else { 20_000 },
                rate: 500.0,
                limit_us: 20_000.0,
                cold_every: None,
                cold_n: 0,
                cold_p: 0,
            },
            Kind::Mixed => Sizes {
                hot_set: 48,
                burst: if smoke { 100 } else { 500 },
                rate: if smoke { 50.0 } else { 100.0 },
                limit_us: 250_000.0,
                cold_every: Some(10),
                cold_n: if smoke { 300 } else { 1_000 },
                cold_p: 16,
            },
        }
    }
}

/// Which scenario a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Hot(usize),
    /// A never-seen scenario, by its ordinal: stream × 10⁶ + block.
    Cold(u64),
}

/// One connection's worth of request lines; request `i` has id `i`.
struct Phase {
    bytes: Vec<u8>,
    /// End offset of each line in `bytes` (newline included).
    ends: Vec<usize>,
    targets: Vec<Target>,
}

impl Phase {
    fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// The request streams of one run, all derived from `seed`.
struct Streams {
    sizes: Sizes,
    seed: u64,
    hot: Vec<Scenario>,
    /// Wire form of each hot scenario after the `{"id":N,` prefix.
    hot_suffix: Vec<String>,
}

/// Strips `{"id":0,` from a request rendered with id 0.
fn suffix_of(scn: &Scenario) -> String {
    let line = Request {
        id: 0,
        scn: scn.clone(),
        deadline_s: None,
    }
    .to_json();
    line.strip_prefix("{\"id\":0,")
        .expect("request lines start with the id")
        .to_string()
}

impl Streams {
    fn new(sizes: Sizes, seed: u64) -> Streams {
        let hot: Vec<Scenario> = (0..sizes.hot_set as u64)
            .map(|i| {
                let mut scn = Scenario::from_seed(HOT_BASE + i);
                scn.faults = None;
                scn
            })
            .collect();
        let hot_suffix = hot.iter().map(suffix_of).collect();
        Streams {
            sizes,
            seed,
            hot,
            hot_suffix,
        }
    }

    /// The scenario behind a target. Never-seen scenarios are all of one
    /// class and differ in their point cloud, which depends on the ordinal
    /// alone: every run asks for the same never-seen scenarios, and the seed
    /// only decides where in the stream they fall, so their cost in host and
    /// in virtual time does not vary with the seed. Each carries its own
    /// tolerance budget, 0.7 less a few parts in 10¹²: the budget is part of
    /// the warm state's configuration fingerprint, and with one shared
    /// configuration the server would *replay* the ladder for a new mesh
    /// instead of running it cold.
    fn scenario(&self, target: Target) -> Scenario {
        match target {
            Target::Hot(i) => self.hot[i].clone(),
            Target::Cold(ordinal) => Scenario {
                seed: COLD_BASE + ordinal,
                shape: MeshShape::Gaussian,
                n: self.sizes.cold_n,
                p: self.sizes.cold_p,
                curve: Curve::Hilbert,
                tolerance: 0.7 - (1 + ordinal) as f64 * 1e-12,
                split_budget: None,
                machine: MachineModel::cloudlab_wisconsin(),
                app: AppKind::Laplacian,
                faults: None,
                hier: HierKind::None,
                family: ElemFamily::Hex,
                workload: Workload::Static,
            },
        }
    }

    fn phase_of(&self, targets: Vec<Target>) -> Phase {
        let mut bytes = Vec::with_capacity(targets.len() * 240);
        let mut ends = Vec::with_capacity(targets.len());
        for (id, &target) in targets.iter().enumerate() {
            let cold;
            let suffix = match target {
                Target::Hot(i) => &self.hot_suffix[i],
                Target::Cold(_) => {
                    cold = suffix_of(&self.scenario(target));
                    &cold
                }
            };
            write!(bytes, "{{\"id\":{id},{suffix}").expect("writing to memory");
            bytes.push(b'\n');
            ends.push(bytes.len());
        }
        Phase {
            bytes,
            ends,
            targets,
        }
    }

    /// Each hot scenario once: the cache-priming connection.
    fn prime(&self) -> Phase {
        self.phase_of((0..self.hot.len()).map(Target::Hot).collect())
    }

    /// `n` requests of stream `stream_id`. The hot scenarios come in seeded
    /// shuffles of the whole hot set, one after another, and when mixing
    /// exactly one never-seen scenario sits at a seeded place in every block
    /// of `cold_every` requests: the seed decides the order, never how much
    /// work the stream holds.
    fn phase(&self, stream_id: u64, n: usize) -> Phase {
        let mut pick = SplitMix64::new(self.seed).fork(stream_id);
        let mut deck: Vec<usize> = Vec::new();
        let mut cold_at = 0;
        let targets = (0..n)
            .map(|i| {
                if let Some(every) = self.sizes.cold_every {
                    if i % every == 0 {
                        cold_at = i + pick.next_below(every as u64) as usize;
                    }
                    if i == cold_at {
                        return Target::Cold(stream_id * 1_000_000 + (i / every) as u64);
                    }
                }
                if deck.is_empty() {
                    deck.extend(0..self.hot.len());
                    pick.shuffle(&mut deck);
                }
                Target::Hot(deck.pop().expect("just refilled"))
            })
            .collect();
        self.phase_of(targets)
    }
}

/// Builds the root package's `optipart-serve` binary and returns its path.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "optipart-serve",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building the root optipart-serve binary failed".to_string());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let bin = root.join(target).join("release/optipart-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

/// A running `optipart-serve serve --socket` child.
struct ServerProc {
    child: Child,
    socket: String,
    accept: usize,
    connected: usize,
}

impl ServerProc {
    fn spawn(bin: &Path, out_dir: &Path, tag: &str, workers: usize, accept: usize) -> ServerProc {
        // Relative to the working directory (the repository root), so the
        // path stays far below the 108-byte limit of a Unix socket address.
        let socket = format!("{}/{tag}.sock", out_dir.display());
        let log = std::fs::File::create(out_dir.join(format!("{tag}.log")))
            .expect("benchmark/out is writable");
        let child = Command::new(bin)
            .args(["serve", "--socket", &socket])
            .args(["--accept", &accept.to_string()])
            .args(["--workers", &workers.to_string()])
            // Deep enough that a whole burst queues: nothing is shed.
            .args(["--queue-cap", "1000000"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn optipart-serve");
        ServerProc {
            child,
            socket,
            accept,
            connected: 0,
        }
    }

    fn connect(&mut self) -> UnixStream {
        assert!(
            self.connected < self.accept,
            "server accepts no more connections"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => {
                    self.connected += 1;
                    return s;
                }
                Err(e) if Instant::now() >= deadline => panic!("connect {}: {e}", self.socket),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(self.child.id()).expect("VmHWM of the running server")
    }

    /// Uses up the remaining accept slots with empty connections, so the
    /// server drains and exits by itself, and returns whether it exited 0
    /// (it does not when anything was shed, rejected, failed or malformed).
    fn finish(mut self) -> bool {
        while self.connected < self.accept {
            drop(self.connect());
        }
        self.child.wait().map(|s| s.success()).unwrap_or(false)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reached with the child still running only when the harness is
        // unwinding: stop it and wait, so no process outlives the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Streams `bytes` back-to-back, half-closes, and reads every response.
/// Returns the wall time from the first byte sent to EOF, and the responses.
fn run_burst(stream: UnixStream, bytes: &[u8]) -> (f64, Vec<u8>) {
    let mut responses = Vec::new();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let mut writer = stream.try_clone().expect("clone socket");
        s.spawn(move || {
            writer.write_all(bytes).expect("server reads the burst");
            writer.shutdown(Shutdown::Write).expect("half-close");
        });
        (&stream)
            .read_to_end(&mut responses)
            .expect("read responses");
    });
    (t0.elapsed().as_secs_f64(), responses)
}

/// Instant request `i` of an open-loop schedule at `rate` per second is due,
/// in nanoseconds after the schedule's start.
fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// What the paced phase observed, all times in ns since the schedule start.
struct Paced {
    /// When each request was actually written.
    sent_ns: Vec<u64>,
    /// Arrival time and text of each response line, in arrival order.
    arrivals: Vec<(u64, String)>,
}

/// Sends the phase's requests on a fixed schedule (one writer thread, which
/// never waits for a response), half-closes, and timestamps every response
/// line as it arrives (one reader thread).
fn run_paced(stream: UnixStream, phase: &Phase, rate: f64) -> Paced {
    let n = phase.ends.len();
    let t0 = Instant::now();
    let mut sent_ns = Vec::with_capacity(n);
    let mut arrivals = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let mut writer = stream.try_clone().expect("clone socket");
        let sent = &mut sent_ns;
        s.spawn(move || {
            for i in 0..n {
                let due = Duration::from_nanos(due_ns(i, rate));
                loop {
                    let now = t0.elapsed();
                    if now >= due {
                        break;
                    }
                    // Sleep to within 150 µs of the due time, spin the rest.
                    match (due - now).checked_sub(Duration::from_micros(150)) {
                        Some(d) if !d.is_zero() => std::thread::sleep(d),
                        _ => std::hint::spin_loop(),
                    }
                }
                sent.push(t0.elapsed().as_nanos() as u64);
                writer
                    .write_all(phase.line(i))
                    .expect("server reads the request");
            }
            writer.shutdown(Shutdown::Write).expect("half-close");
        });
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).expect("read response") == 0 {
                break;
            }
            arrivals.push((t0.elapsed().as_nanos() as u64, line.trim_end().to_string()));
        }
    });
    Paced { sent_ns, arrivals }
}

/// The fields of a response line the benchmark uses.
#[derive(Clone, Debug)]
struct Parsed {
    id: u64,
    status: String,
    warm: String,
    batched: u64,
    wall_us: u64,
    sig: Option<u64>,
}

fn parse_response(line: &str) -> Option<Parsed> {
    let f = Fields::parse(line).ok()?;
    let sig = match f.str("sig").ok()? {
        Some(hex) => Some(u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()?),
        None => None,
    };
    Some(Parsed {
        id: f.num("id").ok()??,
        status: f.str("status").ok()??.to_string(),
        warm: f.str("warm").ok()??.to_string(),
        batched: f.num("batched").ok()??,
        wall_us: f.num("wall_us").ok()??,
        sig,
    })
}

/// Outcome counts of one phase. A request fails when its response is
/// missing, duplicated, unparsable, shed, rejected, failed, or carries a
/// signature other than the library's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    attempted: u64,
    failed: u64,
    hits: u64,
    colds: u64,
    shed: u64,
    rejected: u64,
    failed_status: u64,
    missing: u64,
    sig_mismatch: u64,
    /// Responses compared against a library signature.
    verified: u64,
    batched_sum: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.hits += o.hits;
        self.colds += o.colds;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.failed_status += o.failed_status;
        self.missing += o.missing;
        self.sig_mismatch += o.sig_mismatch;
        self.verified += o.verified;
        self.batched_sum += o.batched_sum;
    }
}

/// Counts the outcome of every request of a phase. `expected` holds the
/// library signature of the targets that are verified; a target absent from
/// it is checked for status only. Returns the tally and, per request id,
/// whether it succeeded.
fn tally_phase(
    targets: &[Target],
    lines: impl Iterator<Item = impl AsRef<str>>,
    expected: &BTreeMap<Target, u64>,
) -> (Tally, Vec<bool>) {
    let mut t = Tally {
        attempted: targets.len() as u64,
        ..Tally::default()
    };
    let mut seen = vec![false; targets.len()];
    let mut ok = vec![false; targets.len()];
    let mut stray = 0u64;
    for line in lines {
        let Some(r) = parse_response(line.as_ref()) else {
            stray += 1; // an {"error":…} line or garbage
            continue;
        };
        let id = r.id as usize;
        if id >= targets.len() || seen[id] {
            stray += 1;
            continue;
        }
        seen[id] = true;
        t.batched_sum += r.batched;
        match r.warm.as_str() {
            "hit" => t.hits += 1,
            "cold" => t.colds += 1,
            _ => {}
        }
        match r.status.as_str() {
            "ok" | "deadline" => match (expected.get(&targets[id]), r.sig) {
                (_, None) => t.sig_mismatch += 1,
                (Some(&want), Some(got)) => {
                    t.verified += 1;
                    if want == got {
                        ok[id] = true;
                    } else {
                        t.sig_mismatch += 1;
                    }
                }
                (None, Some(_)) => ok[id] = true,
            },
            "shed" => t.shed += 1,
            "rejected" => t.rejected += 1,
            _ => t.failed_status += 1,
        }
    }
    t.missing = seen.iter().filter(|s| !**s).count() as u64;
    // Stray lines cannot be matched to a request; each is a failure too.
    t.failed = ok.iter().filter(|o| !**o).count() as u64 + stray;
    (t, ok)
}

/// The library's answer for one scenario: exactly what
/// `optipart::serve::direct` computes (fresh engine with the scenario's
/// fault plan, fresh state, one `run_request`), keeping the engine long
/// enough to read the pass's virtual time and energy as well.
struct Reference {
    payload: Payload,
    makespan_s: f64,
    energy_j: f64,
}

fn reference(scn: &Scenario) -> Reference {
    let mut engine = scn.engine_faulted();
    let mut state = PartitionState::new();
    let (payload, makespan_s) = run_request(&mut engine, &mut state, scn);
    Reference {
        payload,
        makespan_s,
        energy_j: engine.energy_report().total_j,
    }
}

/// References for `targets`, computed on all cores (the server is idle or
/// gone by the time this runs).
fn references(streams: &Streams, targets: &[Target]) -> BTreeMap<Target, Reference> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = targets.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&t| (t, reference(&streams.scenario(t))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Everything one socket session measured.
struct Session {
    setup_samples_s: Vec<f64>,
    burst_walls_s: Vec<f64>,
    /// Latency from the due time, per paced request that got a response.
    latencies_us: Vec<f64>,
    /// Client latency minus the response's own `wall_us`.
    overheads_us: Vec<f64>,
    server_walls_us: Vec<f64>,
    gen_lag_us: Vec<f64>,
    over_limit: u64,
    paced: Tally,
    bursts: Tally,
    prime: Tally,
    /// Σ over the paced requests of the library's virtual time and energy.
    makespan_s: f64,
    energy_j: f64,
    /// Server `VmHWM` after priming and the paced phase, and after the bursts.
    peak_rss_mb: f64,
    burst_peak_rss_mb: f64,
    verify_s: f64,
    problems: Vec<String>,
}

/// Spawns a server and primes it over a first connection with each hot
/// scenario once. Returns the server and the priming responses.
fn spawn_primed(
    bin: &Path,
    out_dir: &Path,
    tag: &str,
    workers: usize,
    accept: usize,
    prime: &Phase,
) -> (ServerProc, Vec<u8>) {
    let mut server = ServerProc::spawn(bin, out_dir, tag, workers, accept);
    let (_, responses) = run_burst(server.connect(), &prime.bytes);
    (server, responses)
}

fn session(
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    bin: &Path,
    out_dir: &Path,
    workers: usize,
) -> Session {
    let tag = match kind {
        Kind::Hot => "serve_hot",
        Kind::Mixed => "serve_mixed",
    };
    let mut problems = Vec::new();
    let phase_s = seconds * 0.45;
    let paced_n = ((sizes.rate * phase_s) as usize).max(20);

    // Set-up, three times over: stream generation, server spawn, connect,
    // cache priming. The third server stays up for the measurement.
    let mut setup_samples_s = Vec::new();
    let mut kept = None;
    for round in 0..3 {
        let t = Instant::now();
        let streams = Streams::new(sizes, seed);
        let prime = streams.prime();
        let paced = streams.phase(1, paced_n);
        let first_burst = streams.phase(2, sizes.burst);
        let accept = if round < 2 { 1 } else { 2 + MAX_BURSTS };
        let (server, primed) = spawn_primed(bin, out_dir, tag, workers, accept, &prime);
        setup_samples_s.push(t.elapsed().as_secs_f64());
        if round < 2 {
            if !server.finish() {
                problems.push("a set-up server exited non-zero".to_string());
            }
        } else {
            kept = Some((streams, prime, paced, first_burst, server, primed));
        }
    }
    let (streams, prime, paced, first_burst, mut server, primed) = kept.expect("third round");

    // The paced, open-loop phase comes first, so that the server's peak
    // resident set is read in its steady state: how far the queue backs up
    // during a saturation burst is a race between the connection thread and
    // the worker, and that memory is reported apart.
    let run = run_paced(server.connect(), &paced, sizes.rate);
    let peak_rss_mb = server.peak_rss_mb();

    // Saturation bursts, each on its own connection.
    let mut burst_walls_s = Vec::new();
    let mut burst_runs: Vec<(Phase, Vec<u8>)> = Vec::new();
    let mut next = Some(first_burst);
    let start = Instant::now();
    while burst_walls_s.len() < MAX_BURSTS
        && (burst_walls_s.len() < 3 || start.elapsed().as_secs_f64() < phase_s)
    {
        let stream_id = 2 + burst_walls_s.len() as u64;
        let phase = next
            .take()
            .unwrap_or_else(|| streams.phase(stream_id, sizes.burst));
        let (wall, responses) = run_burst(server.connect(), &phase.bytes);
        burst_walls_s.push(wall);
        burst_runs.push((phase, responses));
    }
    let burst_peak_rss_mb = server.peak_rss_mb();
    if !server.finish() {
        problems.push(format!(
            "optipart-serve exited non-zero (see {}/{tag}.log)",
            out_dir.display()
        ));
    }

    // Verification, after all timing: every response against the library.
    let t = Instant::now();
    let mut wanted: Vec<Target> = (0..sizes.hot_set).map(Target::Hot).collect();
    wanted.extend(
        paced
            .targets
            .iter()
            .filter(|t| matches!(t, Target::Cold(_))),
    );
    for (phase, _) in &burst_runs {
        let colds = phase
            .targets
            .iter()
            .filter(|t| matches!(t, Target::Cold(_)));
        wanted.extend(colds.step_by(COLD_SAMPLE));
    }
    let refs = references(&streams, &wanted);
    let expected: BTreeMap<Target, u64> = refs.iter().map(|(t, r)| (*t, r.payload.sig)).collect();

    let lines = |bytes: &[u8]| -> Vec<String> {
        String::from_utf8_lossy(bytes)
            .lines()
            .map(str::to_string)
            .collect()
    };
    let (prime_tally, _) = tally_phase(&prime.targets, lines(&primed).iter(), &expected);
    let mut bursts = Tally::default();
    for (phase, responses) in &burst_runs {
        bursts.add(tally_phase(&phase.targets, lines(responses).iter(), &expected).0);
    }
    let (paced_tally, paced_ok) = tally_phase(
        &paced.targets,
        run.arrivals.iter().map(|(_, l)| l),
        &expected,
    );

    let mut latencies_us = Vec::new();
    let mut overheads_us = Vec::new();
    let mut server_walls_us = Vec::new();
    for (arrived_ns, line) in &run.arrivals {
        let Some(r) = parse_response(line) else {
            continue;
        };
        // Only good responses have a latency; the rest miss the limit.
        if paced_ok.get(r.id as usize) == Some(&true) {
            let id = r.id as usize;
            let latency = arrived_ns.saturating_sub(due_ns(id, sizes.rate)) as f64 / 1e3;
            latencies_us.push(latency);
            overheads_us.push(latency - r.wall_us as f64);
            server_walls_us.push(r.wall_us as f64);
        }
    }
    // A request without a good response misses the limit by definition.
    let over_limit =
        latencies_us.iter().filter(|l| **l > sizes.limit_us).count() as u64 + paced_tally.failed;
    let gen_lag_us = run
        .sent_ns
        .iter()
        .enumerate()
        .map(|(i, sent)| sent.saturating_sub(due_ns(i, sizes.rate)) as f64 / 1e3)
        .collect();
    let (mut makespan_s, mut energy_j) = (0.0, 0.0);
    for t in &paced.targets {
        makespan_s += refs[t].makespan_s;
        energy_j += refs[t].energy_j;
    }
    for (what, t) in [
        ("prime", prime_tally),
        ("bursts", bursts),
        ("paced", paced_tally),
    ] {
        if t.failed > 0 {
            problems.push(format!("{what}: {t:?}"));
        }
    }

    Session {
        setup_samples_s,
        burst_walls_s,
        latencies_us,
        overheads_us,
        server_walls_us,
        gen_lag_us,
        over_limit,
        paced: paced_tally,
        bursts,
        prime: prime_tally,
        makespan_s,
        energy_j,
        peak_rss_mb,
        burst_peak_rss_mb,
        verify_s: t.elapsed().as_secs_f64(),
        problems,
    }
}

/// Result of the end-to-end run of a serve workload.
pub struct E2e {
    pub setup_s: f64,
    pub setup_samples: usize,
    pub burst_walls_s: Vec<f64>,
    pub burst_requests: usize,
    pub latencies_us: Vec<f64>,
    pub rate: f64,
    pub makespan_s: f64,
    pub energy_j: f64,
    pub peak_rss_mb: f64,
    pub verify_s: f64,
    pub verified: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

pub fn run_e2e(
    kind: Kind,
    smoke: bool,
    seed: u64,
    seconds: f64,
    bin: &Path,
    out_dir: &Path,
    workers: usize,
) -> E2e {
    let sizes = Sizes::new(kind, smoke);
    let s = session(kind, sizes, seed, seconds, bin, out_dir, workers);
    let mut all = s.prime;
    all.add(s.bursts);
    all.add(s.paced);
    E2e {
        setup_s: stats::median(&s.setup_samples_s),
        setup_samples: s.setup_samples_s.len(),
        burst_walls_s: s.burst_walls_s,
        burst_requests: sizes.burst,
        latencies_us: s.latencies_us,
        rate: sizes.rate,
        makespan_s: s.makespan_s,
        energy_j: s.energy_j,
        peak_rss_mb: s.peak_rss_mb,
        verify_s: s.verify_s,
        verified: all.verified,
        attempted: all.attempted,
        // A problem that is not a failed request (the server's exit code)
        // still fails the run.
        failed: if all.failed == 0 && !s.problems.is_empty() {
            1
        } else {
            all.failed
        },
        problems: s.problems,
    }
}

fn per_call_ns(total: Duration, calls: usize) -> f64 {
    total.as_nanos() as f64 / calls as f64
}

/// The traced run of a serve workload: a shorter socket session for the
/// numbers only the wire shows (shares, batching, transport overhead), then
/// in-process probes of the serve and scenario layers on the same streams,
/// and a replay of the request path taken apart into spans.
pub fn run_traced(
    kind: Kind,
    smoke: bool,
    seed: u64,
    seconds: f64,
    bin: &Path,
    out_dir: &Path,
    workers: usize,
) -> Traced {
    let sizes = Sizes::new(kind, smoke);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let s = session(kind, sizes, seed, seconds * 0.4, bin, out_dir, workers);
    let answered = (s.paced.attempted - s.paced.missing).max(1) as f64;
    m.insert("serve.hit_share", s.paced.hits as f64 / answered);
    m.insert("serve.cold_share", s.paced.colds as f64 / answered);
    let burst_answered = (s.bursts.attempted - s.bursts.missing).max(1) as f64;
    // Requests per engine pass: each response reports its pass's size, so
    // the mean pass size is n / Σ(1/batched); Σ batched / n weights a pass
    // by its size, which is what a request experiences. Report the latter.
    m.insert(
        "serve.mean_batch",
        s.bursts.batched_sum as f64 / burst_answered,
    );
    let mut all = s.prime;
    all.add(s.bursts);
    all.add(s.paced);
    m.insert("serve.shed", all.shed as f64);
    m.insert("serve.rejected", all.rejected as f64);
    m.insert(
        "serve.failed",
        (all.failed_status + all.missing + all.sig_mismatch) as f64,
    );
    m.insert(
        "serve.over_limit_share",
        s.over_limit as f64 / s.paced.attempted as f64,
    );
    m.insert("serve.gen_lag_p99_us", stats::tail(&s.gen_lag_us).1);
    m.insert("serve.burst_peak_rss_mb", s.burst_peak_rss_mb);
    if !s.latencies_us.is_empty() {
        let (tail_pct, tail_us) = stats::tail(&s.latencies_us);
        m.insert("serve.tail_percentile", tail_pct);
        m.insert("serve.latency_p99_us", tail_us);
        m.insert(
            "serve.server_wall_p50_us",
            stats::median(&s.server_walls_us),
        );
        m.insert(
            "serve.transport_overhead_p50_us",
            stats::median(&s.overheads_us),
        );
    }

    // In-process probes on the same streams.
    let streams = Streams::new(sizes, seed);
    let paced = streams.phase(1, ((sizes.rate * seconds * 0.45) as usize).max(20));
    let texts: Vec<&str> = (0..paced.ends.len())
        .map(|i| {
            std::str::from_utf8(paced.line(i))
                .expect("ascii")
                .trim_end()
        })
        .collect();

    let t = Instant::now();
    let requests: Vec<Request> = texts
        .iter()
        .map(|l| Request::from_json(black_box(l)).expect("generated lines parse"))
        .collect();
    m.insert("serve.parse_ns", per_call_ns(t.elapsed(), requests.len()));

    let t = Instant::now();
    for i in 0..20_000u64 {
        black_box(Scenario::from_seed(black_box(HOT_BASE + i % 64)));
    }
    m.insert("scenario.from_seed_ns", per_call_ns(t.elapsed(), 20_000));

    let sample = &requests[..requests.len().min(400)];
    let t = Instant::now();
    for r in sample {
        black_box(r.scn.build_tree());
    }
    m.insert(
        "scenario.build_tree_us",
        per_call_ns(t.elapsed(), sample.len()) / 1e3,
    );

    // run_request on a fresh state (cold) and again on the primed one (hit),
    // over every scenario the paced stream asks for. The hit figure is taken
    // over the hot set; the cold figure over the never-seen scenarios when
    // the workload has them, else over the hot set's first passes.
    let distinct: BTreeMap<Target, Scenario> = paced
        .targets
        .iter()
        .map(|&t| (t, streams.scenario(t)))
        .collect();
    let (mut cold_us, mut hit_us) = (Vec::new(), Vec::new());
    let mut payloads: BTreeMap<Target, Payload> = BTreeMap::new();
    for (target, scn) in &distinct {
        let mut engine = scn.engine();
        let mut state = PartitionState::new();
        let t = Instant::now();
        let (payload, _) = run_request(&mut engine, &mut state, scn);
        let first_us = t.elapsed().as_secs_f64() * 1e6;
        payloads.insert(*target, payload);
        match target {
            Target::Cold(_) => cold_us.push(first_us),
            Target::Hot(_) => {
                if kind == Kind::Hot {
                    cold_us.push(first_us);
                }
                let t = Instant::now();
                black_box(run_request(&mut engine, &mut state, scn));
                hit_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    m.insert("serve.run_request_cold_us", stats::median(&cold_us));
    m.insert("serve.run_request_hit_us", stats::median(&hit_us));

    // The same burst through the worker pool without the socket.
    let burst = streams.phase(2, sizes.burst);
    let burst_requests: Vec<Request> = (0..burst.ends.len())
        .map(|i| {
            let text = std::str::from_utf8(burst.line(i)).expect("ascii");
            Request::from_json(text.trim_end()).expect("generated lines parse")
        })
        .collect();
    let server = Server::start(ServeConfig {
        workers,
        queue_cap: 1_000_000,
        ..ServeConfig::default()
    });
    let ingress = server.ingress();
    let (tx, rx) = channel::<Response>();
    for (id, &target) in streams.prime().targets.iter().enumerate() {
        ingress.submit_with(
            Request {
                id: id as u64,
                scn: streams.scenario(target),
                deadline_s: None,
            },
            &tx,
        );
    }
    for _ in 0..sizes.hot_set {
        rx.recv().expect("primed");
    }
    let n = burst_requests.len();
    let t = Instant::now();
    for r in burst_requests {
        ingress.submit_with(r, &tx);
    }
    let responses: Vec<Response> = (0..n).map(|_| rx.recv().expect("answered")).collect();
    m.insert(
        "serve.inproc_req_per_s",
        n as f64 / t.elapsed().as_secs_f64(),
    );
    let stats_end = server.shutdown();
    let mut problems = s.problems;
    if stats_end.shed + stats_end.rejected + stats_end.failed > 0 {
        problems.push(format!(
            "in-process server turned requests away: {stats_end:?}"
        ));
    }

    let t = Instant::now();
    for r in &responses {
        black_box(r.to_json());
    }
    m.insert("serve.encode_ns", per_call_ns(t.elapsed(), responses.len()));

    // The request path taken apart: what `pump` + `run_request` do for one
    // request, one span per public call, on engines and warm states kept
    // across requests the way a worker keeps them. The first pass over a
    // scenario is its cold pass; only the repeats after it are the ledger.
    let mut rec = Recorder::on();
    let mut engines: BTreeMap<Target, optipart::mpisim::Engine> = BTreeMap::new();
    let mut states: BTreeMap<usize, PartitionState> = BTreeMap::new();
    let replay: Vec<(usize, Target)> = paced
        .targets
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, t)| payloads.contains_key(t))
        .collect();
    for pass in 0..2u32 {
        rec.set_iter(pass);
        let root = rec.begin("harness", "replay");
        for &(i, target) in &replay {
            // Never-seen scenarios stay cold in the ledger too.
            if pass == 1 && matches!(target, Target::Cold(_)) {
                engines.remove(&target);
                states.remove(&sizes.cold_p);
            }
            let sp = rec.begin("serve", "Request::from_json");
            let req = Request::from_json(texts[i]).expect("generated lines parse");
            rec.end(sp);
            let scn = &req.scn;
            let sp = rec.begin("mpisim", "Engine::new/reset");
            let engine = engines.entry(target).or_insert_with(|| scn.engine());
            engine.reset();
            rec.end(sp);
            let sp = rec.begin("scenario", "build_tree");
            let tree = scn.build_tree();
            rec.end(sp);
            let sp = rec.begin("core", "distribute_tree");
            let dist = distribute_tree(&tree, engine.p());
            rec.end(sp);
            let sp = rec.begin("core", "optipart_with_state");
            let state = states.entry(scn.p).or_default();
            let out = optipart_with_state(engine, dist, optipart_options(scn), state);
            rec.end(sp);
            let virtual_s = engine.makespan();
            black_box(out);
            let sp = rec.begin("serve", "Response::to_json");
            let line = Response {
                id: req.id,
                status: Status::Ok,
                payload: Some(payloads[&target].clone()),
                replay: None,
                worker: 0,
                warm: WarmPath::Hit,
                batched: 1,
                virtual_s,
                wall_us: 0,
                retry_after_s: None,
                error: None,
            }
            .to_json();
            rec.end(sp);
            black_box(line);
        }
        rec.end(root);
    }
    spans::insert_ledger(&mut m, rec.spans(), 1, "replay");

    Traced {
        metrics: m,
        recorder: rec,
        attempted: all.attempted,
        failed: if all.failed == 0 && !problems.is_empty() {
            1
        } else {
            all.failed
        },
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = "{\"id\":0,\"status\":\"ok\",\"worker\":0,\"warm\":\"hit\",\"batched\":2,\
        \"virtual_s\":0.001,\"wall_us\":17,\"sig\":\"0x00000000000000aa\",\"elements\":9}";

    fn response(id: u64, status: &str, sig: Option<u64>) -> String {
        let sig = sig.map_or(String::new(), |s| format!(",\"sig\":\"{s:#018x}\""));
        format!(
            "{{\"id\":{id},\"status\":\"{status}\",\"worker\":0,\"warm\":\"none\",\
             \"batched\":1,\"virtual_s\":0,\"wall_us\":5{sig}}}"
        )
    }

    #[test]
    fn response_lines_parse() {
        let r = parse_response(OK).expect("parses");
        assert_eq!((r.id, r.batched, r.wall_us, r.sig), (0, 2, 17, Some(0xaa)));
        assert_eq!((r.status.as_str(), r.warm.as_str()), ("ok", "hit"));
        assert!(parse_response("{\"error\":\"bad line\"}").is_none());
    }

    #[test]
    fn failed_share_counts_shed_missing_and_wrong_signatures() {
        let targets: Vec<Target> = (0..6).map(Target::Hot).collect();
        let expected: BTreeMap<Target, u64> = targets.iter().map(|t| (*t, 0xaa)).collect();
        let lines = [
            OK.to_string(),                // id 0: good
            response(1, "shed", None),     // turned away
            response(2, "rejected", None), // turned away
            response(3, "failed", None),   // worker panic
            response(4, "ok", Some(0xbb)), // wrong signature
            // id 5: no response at all
            "{\"error\":\"oversized\"}".to_string(), // stray error line
            OK.to_string(),                          // duplicate of id 0
        ];
        let (t, ok) = tally_phase(&targets, lines.iter(), &expected);
        assert_eq!(ok, vec![true, false, false, false, false, false]);
        assert_eq!(t.attempted, 6);
        assert_eq!((t.shed, t.rejected, t.failed_status), (1, 1, 1));
        assert_eq!((t.sig_mismatch, t.missing, t.verified), (1, 1, 2));
        // Five requests without a good answer, plus two stray lines.
        assert_eq!(t.failed, 7);
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn unverified_targets_are_checked_for_status_only() {
        let targets = vec![Target::Cold(7)];
        let (t, ok) = tally_phase(
            &targets,
            [response(0, "ok", Some(1))].iter(),
            &BTreeMap::new(),
        );
        assert_eq!((t.failed, t.verified, ok[0]), (0, 0, true));
    }

    #[test]
    fn open_loop_schedule_times_from_the_due_instant() {
        // 1,000 requests per second: request i is due i milliseconds in.
        assert_eq!(due_ns(0, 1_000.0), 0);
        assert_eq!(due_ns(7, 1_000.0), 7_000_000);
        assert_eq!(due_ns(3, 150.0), 20_000_000);
        // A writer stalled for 5 ms sends requests 10..15 late; their
        // lateness is what `gen_lag` reports, and a response that arrives
        // 1 ms after the late send still has the stall in its latency,
        // because latency is taken from the due time.
        let sent: Vec<u64> = (0..20)
            .map(|i| due_ns(i, 1_000.0).max(if (10..15).contains(&i) { 15_000_000 } else { 0 }))
            .collect();
        let lag: Vec<u64> = sent
            .iter()
            .enumerate()
            .map(|(i, s)| s - due_ns(i, 1_000.0))
            .collect();
        assert_eq!(
            &lag[9..16],
            &[0, 5_000_000, 4_000_000, 3_000_000, 2_000_000, 1_000_000, 0]
        );
        let arrival = sent[10] + 1_000_000;
        assert_eq!(arrival - due_ns(10, 1_000.0), 6_000_000);
    }

    #[test]
    fn streams_are_a_function_of_the_seed_with_a_fixed_cold_count() {
        let sizes = Sizes::new(Kind::Mixed, true);
        let a = Streams::new(sizes, 1).phase(1, 200);
        let b = Streams::new(sizes, 1).phase(1, 200);
        let c = Streams::new(sizes, 2).phase(1, 200);
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
        for phase in [&a, &c] {
            let colds = phase
                .targets
                .iter()
                .filter(|t| matches!(t, Target::Cold(_)))
                .count();
            assert_eq!(colds, 20, "one never-seen scenario per block of ten");
        }
        // Every line is a request the server's own parser accepts, with the
        // id the client expects back.
        for i in 0..a.ends.len() {
            let text = std::str::from_utf8(a.line(i)).unwrap().trim_end();
            let req = Request::from_json(text).unwrap();
            assert_eq!(req.id, i as u64);
            assert!(req.scn.faults.is_none());
        }
        let hot = Streams::new(Sizes::new(Kind::Hot, true), 1).phase(1, 50);
        assert!(hot.targets.iter().all(|t| matches!(t, Target::Hot(_))));
    }
}
