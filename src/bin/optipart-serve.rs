//! `optipart-serve` — the partition-as-a-service front end as a process.
//!
//! ```text
//! # Serve newline-delimited JSON requests from stdin, responses to stdout:
//! optipart-serve gen --requests 200 --seed 7 | optipart-serve serve --workers 4
//!
//! # Same, but cross-check every response against a direct library call:
//! optipart-serve gen --requests 200 | optipart-serve serve --verify
//!
//! # Serve over a Unix socket: --accept N concurrent clients, one thread
//! # each, all sharing the worker pool (the server exits after the N-th
//! # connection drains, so scripts terminate deterministically):
//! optipart-serve serve --socket /tmp/optipart.sock --accept 3 --workers 4 &
//! optipart-serve gen --requests 50 | optipart-serve client --socket /tmp/optipart.sock
//!
//! # Fault-soak mode: a generated stream laced with fail-stop kills and
//! # deadlines, every response verified bit-identical to the library:
//! optipart-serve soak --requests 500 --workers 4
//!
//! # Chaos soak: seeded worker panics, client disconnects, corrupted lines
//! # and slow readers — conservation, determinism and bit-identity checked:
//! optipart-serve chaos --requests 1000 --seed 20260808 --workers 4
//! ```
//!
//! A request line is flat JSON with a required `seed`; every other field
//! overrides the scenario that seed expands to (replay semantics — see
//! DESIGN.md §15):
//!
//! ```text
//! {"id":12,"seed":914776577726420758,"p":6,"tolerance":0.25,"deadline_s":0.5}
//! ```
//!
//! Responses mirror the request id and add the partition payload plus
//! service metadata (worker, warm path, batch size, virtual/wall latency,
//! retry hints on shed/rejected, the panic summary on failed). Malformed,
//! non-UTF-8 and oversized request lines get an `{"error":...}` line and
//! poison only their own connection's exit status, never the stream. Exit
//! status is non-zero if any line was malformed or oversized, any request
//! failed on a worker panic, any request was shed or rejected (unless
//! `--allow-shed`), or `--verify` found a payload mismatch.

use optipart::serve::chaos::{chaos_soak, chaos_stream, client_scripts, ChaosKnobs, ChaosPlan};
use optipart::serve::soak::{fault_soak, mixed_stream, verify_responses_with, DirectCache};
use optipart::serve::{Admission, ConnStats, Ingress, Request, Response, ServeConfig, Server};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::exit;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

#[path = "../flags.rs"]
mod flags;
use flags::{parse_flags, Flags};

/// Byte cap on one request line (`--max-line`): past it the rest of the
/// line is swallowed, the client gets an error line, and the connection
/// keeps serving.
const DEFAULT_MAX_LINE: usize = 64 * 1024;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage("missing subcommand");
    };
    let f = parse_flags(
        rest,
        &["no-batching", "verify", "allow-shed", "quiet", "no-socket"],
        &[],
        usage,
    );
    match cmd.as_str() {
        "serve" => cmd_serve(&f),
        "gen" => cmd_gen(&f),
        "soak" => cmd_soak(&f),
        "chaos" => cmd_chaos(&f),
        "client" => cmd_client(&f),
        "-h" | "--help" => usage(""),
        other => usage(&format!("unknown subcommand '{other}'")),
    }
}

fn config(f: &Flags) -> ServeConfig {
    let d = ServeConfig::default();
    let admission = match f.get("admission") {
        None => d.admission,
        Some("shed") => Admission::ShedOnly,
        Some("deadline") => Admission::DeadlineAware,
        Some(other) => usage(&format!("bad --admission '{other}' (want shed|deadline)")),
    };
    ServeConfig {
        workers: f.parse("workers", d.workers),
        queue_cap: f.parse("queue-cap", d.queue_cap),
        state_cap: f.parse("state-cap", d.state_cap),
        engine_cache: f.parse("engine-cache", d.engine_cache),
        batching: !f.has("no-batching"),
        admission,
    }
}

/// Everything one drained connection produced: the requests it submitted
/// and responses it saw (only when verifying) plus its line counters.
#[derive(Default)]
struct Conn {
    reqs: Vec<Request>,
    resps: Vec<Response>,
    stats: ConnStats,
}

/// One `read_line_capped` outcome.
enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// The line blew past the byte cap; its remainder was swallowed up to
    /// the next newline.
    Oversized,
    /// Clean EOF on a line boundary.
    Eof,
    /// EOF in the middle of a line — the client vanished mid-write.
    MidLineEof,
    Err(std::io::Error),
}

/// Reads one newline-terminated line into `buf`, never buffering more than
/// `cap` bytes of it — the guard that keeps one hostile client from
/// ballooning the server's memory.
fn read_line_capped(input: &mut impl BufRead, buf: &mut Vec<u8>, cap: usize) -> LineRead {
    buf.clear();
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return LineRead::Err(e),
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::MidLineEof
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let oversized = buf.len() + pos > cap;
                if !oversized {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                input.consume(pos + 1);
                return if oversized {
                    LineRead::Oversized
                } else {
                    LineRead::Line
                };
            }
            None => {
                let take = chunk.len();
                if buf.len() + take > cap {
                    input.consume(take);
                    return swallow_to_newline(input);
                }
                buf.extend_from_slice(chunk);
                input.consume(take);
            }
        }
    }
}

/// Discards bytes up to and including the next newline. A disconnect
/// before the newline wins over the oversize verdict: the client is gone.
fn swallow_to_newline(input: &mut impl BufRead) -> LineRead {
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return LineRead::Err(e),
        };
        if chunk.is_empty() {
            return LineRead::MidLineEof;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return LineRead::Oversized;
            }
            None => {
                let n = chunk.len();
                input.consume(n);
            }
        }
    }
}

fn forward<W: Write>(r: Response, out: &mut W, write_ok: &mut bool, conn: &mut Conn, keep: bool) {
    if *write_ok && writeln!(out, "{}", r.to_json()).is_err() {
        // The client stopped reading; keep draining for conservation but
        // stop writing.
        *write_ok = false;
        conn.stats.io_errors += 1;
    }
    conn.stats.responses += 1;
    if keep {
        conn.resps.push(r);
    }
}

/// Streams one connection: requests in from `input`, responses out to
/// `output` as they become ready (arrival order, not submit order). Every
/// submitted request is answered before this returns — even when the
/// client disconnected mid-stream, so the server-wide conservation
/// invariant holds connection by connection.
fn pump(
    ingress: &Ingress,
    mut input: impl BufRead,
    mut output: impl Write,
    collect: bool,
    max_line: usize,
) -> Conn {
    let (tx, rx) = channel::<Response>();
    let mut conn = Conn::default();
    let mut submitted = 0usize;
    let mut received = 0usize;
    let mut write_ok = true;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_line_capped(&mut input, &mut buf, max_line) {
            LineRead::Eof => break,
            LineRead::MidLineEof => {
                conn.stats.mid_line_eof = true;
                break;
            }
            LineRead::Err(e) => {
                eprintln!("connection read error: {e}");
                conn.stats.io_errors += 1;
                break;
            }
            LineRead::Oversized => {
                conn.stats.lines += 1;
                conn.stats.oversized += 1;
                if write_ok
                    && writeln!(
                        output,
                        "{{\"error\":\"request line exceeds {max_line} bytes\"}}"
                    )
                    .is_err()
                {
                    write_ok = false;
                    conn.stats.io_errors += 1;
                }
            }
            LineRead::Line => match std::str::from_utf8(&buf) {
                Err(_) => {
                    conn.stats.lines += 1;
                    conn.stats.malformed += 1;
                    if write_ok
                        && writeln!(output, "{{\"error\":\"request line is not valid UTF-8\"}}")
                            .is_err()
                    {
                        write_ok = false;
                        conn.stats.io_errors += 1;
                    }
                }
                Ok(text) => {
                    let text = text.trim();
                    if text.is_empty() {
                        continue;
                    }
                    conn.stats.lines += 1;
                    match Request::from_json(text) {
                        Ok(req) => {
                            if collect {
                                conn.reqs.push(req.clone());
                            }
                            ingress.submit_with(req, &tx);
                            submitted += 1;
                        }
                        Err(e) => {
                            conn.stats.malformed += 1;
                            if write_ok
                                && writeln!(output, "{{\"error\":{}}}", json_err(&e)).is_err()
                            {
                                write_ok = false;
                                conn.stats.io_errors += 1;
                            }
                        }
                    }
                }
            },
        }
        // Forward whatever is already done so the stream stays live.
        while let Ok(r) = rx.try_recv() {
            received += 1;
            forward(r, &mut output, &mut write_ok, &mut conn, collect);
        }
        if write_ok {
            let _ = output.flush();
        }
    }
    // Conservation drain: answer everything this connection submitted.
    while received < submitted {
        match rx.recv() {
            Ok(r) => {
                received += 1;
                forward(r, &mut output, &mut write_ok, &mut conn, collect);
            }
            // Workers gone — shutdown's conservation check will report it.
            Err(_) => break,
        }
    }
    if write_ok {
        let _ = output.flush();
    }
    conn.stats.submitted = submitted as u64;
    conn
}

fn json_err(e: &str) -> String {
    let mut s = String::with_capacity(e.len() + 2);
    s.push('"');
    for c in e.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

fn cmd_serve(f: &Flags) {
    let cfg = config(f);
    let verify = f.has("verify");
    let allow_shed = f.has("allow-shed");
    let max_line: usize = f.parse("max-line", DEFAULT_MAX_LINE);
    let server = Server::start(cfg);
    let ingress = server.ingress();

    let conns: Vec<Conn> = match f.get("socket") {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            vec![pump(
                &ingress,
                stdin.lock(),
                BufWriter::new(stdout.lock()),
                verify,
                max_line,
            )]
        }
        Some(path) => serve_socket(&ingress, path, f.parse("accept", 1), verify, max_line),
    };

    for c in &conns {
        ingress.fold_connection(&c.stats);
    }
    let stats = server.shutdown();
    eprintln!(
        "served {} requests over {} connection(s): {} shed, {} rejected, \
         {} failed, {} engine passes ({} hits, {} replays, {} cold), \
         {} batched riders, {} rank deaths absorbed, {} worker panic(s), \
         warm-request rate {:.2}",
        stats.submitted,
        stats.connections,
        stats.shed,
        stats.rejected,
        stats.failed,
        stats.engine_passes,
        stats.hit_passes,
        stats.replay_passes,
        stats.cold_passes,
        stats.batched_extra,
        stats.deaths,
        stats.panics,
        stats.warm_request_rate(),
    );

    let mut failed = false;
    let bad_lines = stats.malformed_lines + stats.oversized_lines;
    if bad_lines > 0 {
        eprintln!(
            "error: {} malformed and {} oversized request line(s)",
            stats.malformed_lines, stats.oversized_lines
        );
        failed = true;
    }
    if stats.failed > 0 {
        failed = true;
    }
    if stats.shed + stats.rejected > 0 && !allow_shed {
        eprintln!(
            "error: {} request(s) shed/rejected (pass --allow-shed to tolerate backpressure)",
            stats.shed + stats.rejected
        );
        failed = true;
    }
    for (i, c) in conns.iter().enumerate() {
        if c.stats.responses != c.stats.submitted {
            eprintln!(
                "conservation FAILED: connection {i} saw {} responses for {} submitted requests",
                c.stats.responses, c.stats.submitted
            );
            failed = true;
        }
    }
    if verify {
        let mut cache = DirectCache::new();
        let (mut served, mut away, mut deadline) = (0usize, 0usize, 0usize);
        let mut ok = true;
        for (i, c) in conns.iter().enumerate() {
            match verify_responses_with(&c.reqs, &c.resps, &mut cache) {
                Ok(sum) => {
                    served += sum.served;
                    away += sum.shed + sum.rejected + sum.failed;
                    deadline += sum.deadline;
                }
                Err(e) => {
                    eprintln!("verify FAILED (connection {i}): {e}");
                    ok = false;
                }
            }
        }
        if ok {
            eprintln!(
                "verify: {served} responses bit-identical to direct library calls \
                 ({} distinct scenarios, {deadline} past deadline, {away} answered \
                 without a payload)",
                cache.len(),
            );
        } else {
            failed = true;
        }
    }
    exit(if failed { 1 } else { 0 });
}

/// Accepts `accept` clients on a Unix socket, each drained by its own
/// thread against the shared worker pool, then joins them all (graceful
/// drain: in-flight requests are answered before shutdown).
fn serve_socket(
    ingress: &Ingress,
    path: &str,
    accept: usize,
    collect: bool,
    max_line: usize,
) -> Vec<Conn> {
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).unwrap_or_else(|e| usage(&format!("--socket {path}: {e}")));
    eprintln!("listening on {path} ({accept} connection(s))");
    let mut handles = Vec::new();
    for cid in 0..accept {
        match listener.accept() {
            Ok((stream, _)) => {
                let ing = ingress.clone();
                let h = std::thread::Builder::new()
                    .name(format!("optipart-conn-{cid}"))
                    .spawn(move || handle_conn(ing, stream, collect, max_line))
                    .expect("spawn connection thread");
                handles.push(h);
            }
            Err(e) => {
                eprintln!("accept failed: {e}; stopping accept loop");
                break;
            }
        }
    }
    let conns = handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| {
                // A panicked connection thread costs that connection, not
                // the server.
                let mut c = Conn::default();
                c.stats.io_errors += 1;
                c
            })
        })
        .collect();
    let _ = std::fs::remove_file(path);
    conns
}

fn handle_conn(ingress: Ingress, stream: UnixStream, collect: bool, max_line: usize) -> Conn {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            // One bad accept must not kill the server: log, count, move on.
            eprintln!("connection setup failed: {e}");
            let mut c = Conn::default();
            c.stats.io_errors += 1;
            return c;
        }
    };
    pump(&ingress, reader, BufWriter::new(stream), collect, max_line)
}

fn connect_retry(path: &str, wait_ms: u64) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("connect {path}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Streams a request file (or stdin) to a serving socket and echoes the
/// responses to stdout. Exits 0 iff one response line came back per
/// request line sent — the shape CI's concurrent-client step asserts.
fn cmd_client(f: &Flags) {
    let Some(path) = f.get("socket") else {
        usage("client needs --socket PATH");
    };
    let quiet = f.has("quiet");
    let stream =
        connect_retry(path, f.parse("connect-wait-ms", 5000)).unwrap_or_else(|e| usage(&e));
    let reader = stream
        .try_clone()
        .unwrap_or_else(|e| usage(&format!("clone socket: {e}")));
    let rd = std::thread::spawn(move || {
        let mut got = 0u64;
        let stdout = std::io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        for line in BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
            got += 1;
            if !quiet {
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = out.flush();
        got
    });
    let input: Box<dyn BufRead> = match f.get("in") {
        None => Box::new(BufReader::new(std::io::stdin())),
        Some(p) => Box::new(BufReader::new(
            std::fs::File::open(p).unwrap_or_else(|e| usage(&format!("{p}: {e}"))),
        )),
    };
    let mut sent = 0u64;
    {
        let mut w = BufWriter::new(&stream);
        for line in input.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if writeln!(w, "{line}").is_err() {
                break;
            }
            sent += 1;
        }
        let _ = w.flush();
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let got = rd.join().unwrap_or(0);
    eprintln!("client: sent {sent} request line(s), received {got} response line(s)");
    exit(if sent > 0 && got == sent { 0 } else { 1 });
}

fn cmd_gen(f: &Flags) {
    let requests: usize = f.parse("requests", 100);
    let seed: u64 = f.parse("seed", 42);
    let distinct: usize = f.parse("distinct", (requests / 8).clamp(1, 48));
    let kill_every: usize = f.parse("kill-every", 0);
    let deadline_every: usize = f.parse("deadline-every", 0);
    let reqs = mixed_stream(seed, requests, distinct, kill_every, deadline_every);
    let mut out: Box<dyn Write> = match f.get("out") {
        None => Box::new(BufWriter::new(std::io::stdout())),
        Some(p) => Box::new(BufWriter::new(
            std::fs::File::create(p).unwrap_or_else(|e| usage(&format!("{p}: {e}"))),
        )),
    };
    for r in &reqs {
        writeln!(out, "{}", r.to_json()).expect("writable output");
    }
    out.flush().expect("writable output");
    eprintln!(
        "generated {requests} requests over {distinct} distinct scenarios \
         (seed {seed}, kill-every {kill_every}, deadline-every {deadline_every})"
    );
}

fn cmd_soak(f: &Flags) {
    let requests: usize = f.parse("requests", 200);
    let seed: u64 = f.parse("seed", 20260808);
    let cfg = config(f);
    eprintln!(
        "fault-soak: {requests} requests, {} workers, batching {}",
        cfg.workers,
        if cfg.batching { "on" } else { "off" },
    );
    match fault_soak(seed, requests, cfg) {
        Ok((sum, stats)) => {
            eprintln!(
                "soak OK: {} served + {} shed, all bit-identical to the \
                 library ({} distinct scenarios, {} past deadline, {} rank \
                 deaths absorbed, warm-request rate {:.2})",
                sum.served,
                sum.shed,
                sum.distinct,
                sum.deadline,
                stats.deaths,
                stats.warm_request_rate(),
            );
        }
        Err(e) => {
            eprintln!("soak FAILED: {e}");
            exit(1);
        }
    }
}

fn chaos_fail(repro: &str, msg: &str) -> ! {
    let text = format!("chaos soak FAILED\n  {msg}\n  replay: {repro}\n");
    eprint!("{text}");
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/serve-chaos-repro.txt", &text);
    exit(1);
}

/// The chaos subcommand, two phases:
///
/// 1. **Deterministic core** — [`chaos_soak`] run twice at the configured
///    worker count (transcripts must be byte-identical) and once at 1
///    worker (served payloads for common ids must match bit-for-bit; the
///    plan's client-side chaos is worker-count-independent by
///    construction, so the intersection is large).
/// 2. **Socket phase** — the same plan driven over a real Unix socket:
///    one OS thread per scripted client, disconnecting clients vanish
///    mid-line, slow readers stall; conservation and bit-identity are
///    asserted on whatever nondeterministic interleaving happens.
fn cmd_chaos(f: &Flags) {
    let requests: usize = f.parse("requests", 1000);
    let seed: u64 = f.parse("seed", 20260808);
    let mut cfg = config(f);
    if f.get("queue-cap").is_none() {
        // Deep enough that the paused burst mostly queues, shallow enough
        // that backpressure still fires.
        cfg.queue_cap = (requests / 3).max(8);
    }
    if f.get("admission").is_none() {
        cfg.admission = Admission::DeadlineAware;
    }
    let knobs = ChaosKnobs {
        panics: f.parse("panics", ChaosKnobs::default().panics),
        disconnects: f.parse("disconnects", ChaosKnobs::default().disconnects),
        clients: f.parse("clients", ChaosKnobs::default().clients),
        corrupt: f.parse("corrupt", ChaosKnobs::default().corrupt),
        stall_every: f.parse("stall-every", 7),
        ..ChaosKnobs::default()
    };
    let repro = format!(
        "optipart-serve chaos --requests {requests} --seed {seed} --workers {}",
        cfg.workers
    );
    eprintln!(
        "chaos: {requests} requests, {} workers, targeting {} panics / \
         {} disconnecting clients of {} / {} corrupted lines (seed {seed})",
        cfg.workers, knobs.panics, knobs.disconnects, knobs.clients, knobs.corrupt
    );

    let mut cache = DirectCache::new();
    let a = chaos_soak(seed, requests, cfg, knobs, &mut cache)
        .unwrap_or_else(|e| chaos_fail(&repro, &e));
    let b = chaos_soak(seed, requests, cfg, knobs, &mut cache)
        .unwrap_or_else(|e| chaos_fail(&repro, &e));
    if a.transcript != b.transcript {
        chaos_fail(
            &repro,
            "transcripts differ between two identically-seeded runs",
        );
    }
    eprintln!(
        "  determinism: two seeded runs byte-identical ({} transcript bytes)",
        a.transcript.len()
    );
    if cfg.workers != 1 {
        let solo_cfg = ServeConfig { workers: 1, ..cfg };
        let solo = chaos_soak(seed, requests, solo_cfg, knobs, &mut cache)
            .unwrap_or_else(|e| chaos_fail(&repro, &e));
        let mut common = 0usize;
        for (id, p) in &solo.served_payloads {
            if let Some(q) = a.served_payloads.get(id) {
                common += 1;
                if p != q {
                    chaos_fail(
                        &repro,
                        &format!(
                            "served payload for id {id} differs between 1 and {} workers",
                            cfg.workers
                        ),
                    );
                }
            }
        }
        eprintln!(
            "  cross-width: {common} served ids common to 1 and {} workers, all bit-identical",
            cfg.workers
        );
    }
    let s = &a.summary;
    eprintln!(
        "  outcome: {} submitted ({} lost to disconnects, {} parse casualties) \
         -> {} served, {} failed on {} worker panic(s), {} shed, {} rejected, \
         {} rank deaths absorbed",
        s.submitted,
        s.lost_to_disconnect,
        s.parse_errors,
        s.served,
        s.failed,
        s.panics,
        s.shed,
        s.rejected,
        s.deaths,
    );

    if !f.has("no-socket") {
        socket_chaos(seed, requests, cfg, knobs, &mut cache)
            .unwrap_or_else(|e| chaos_fail(&repro, &e));
    }
    eprintln!("chaos OK");
}

/// Phase 2 of the chaos subcommand: the plan's client scripts written over
/// a real Unix socket by concurrent OS threads.
fn socket_chaos(
    seed: u64,
    requests: usize,
    cfg: ServeConfig,
    knobs: ChaosKnobs,
    cache: &mut DirectCache,
) -> Result<(), String> {
    let reqs = chaos_stream(seed, requests);
    let plan = ChaosPlan::generate(seed, requests, cfg.workers, &knobs);
    let scripts = client_scripts(seed, &reqs, &plan, knobs.clients);
    let clients = scripts.len();
    let stall_every = knobs.stall_every;
    let path = format!("/tmp/optipart-chaos-{}.sock", std::process::id());

    let server = Server::start_chaos(cfg, plan.panics.clone());
    let ingress = server.ingress();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).map_err(|e| format!("bind {path}: {e}"))?;

    let accept_thread = {
        let ing = ingress.clone();
        std::thread::spawn(move || -> Vec<Conn> {
            let mut handles = Vec::new();
            for cid in 0..clients {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                let ing = ing.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("chaos-conn-{cid}"))
                        .spawn(move || handle_conn(ing, stream, true, DEFAULT_MAX_LINE))
                        .expect("spawn connection thread"),
                );
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        let mut c = Conn::default();
                        c.stats.io_errors += 1;
                        c
                    })
                })
                .collect()
        })
    };
    let client_threads: Vec<_> = scripts
        .into_iter()
        .map(|script| {
            let path = path.clone();
            std::thread::spawn(move || run_chaos_client(&path, &script, stall_every))
        })
        .collect();
    for t in client_threads {
        t.join().map_err(|_| "chaos client thread panicked")?;
    }
    let conns = accept_thread
        .join()
        .map_err(|_| "accept thread panicked".to_string())?;
    for c in &conns {
        ingress.fold_connection(&c.stats);
    }
    let stats = server.shutdown();
    let _ = std::fs::remove_file(&path);
    stats.conservation()?;

    let (mut served, mut answered) = (0usize, 0usize);
    for (i, c) in conns.iter().enumerate() {
        if c.stats.responses != c.stats.submitted {
            return Err(format!(
                "socket connection {i}: {} responses for {} submitted requests",
                c.stats.responses, c.stats.submitted
            ));
        }
        let sum = verify_responses_with(&c.reqs, &c.resps, cache)
            .map_err(|e| format!("socket connection {i}: {e}"))?;
        served += sum.served;
        answered += sum.checked;
    }
    eprintln!(
        "  socket phase: {} connection(s), {answered} responses conserved \
         ({served} served bit-identical to direct calls), {} mid-line \
         disconnect(s), {} bad line(s), {} worker panic(s)",
        conns.len(),
        stats.disconnects,
        stats.malformed_lines + stats.oversized_lines,
        stats.panics,
    );
    Ok(())
}

/// One scripted chaos client: writes its (pre-damaged) lines, optionally
/// vanishes mid-line, and reads responses on a side thread — stalling
/// every `stall_every` lines to back the server's writes up briefly.
fn run_chaos_client(path: &str, script: &optipart::serve::chaos::ClientScript, stall_every: usize) {
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

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage:\n  optipart-serve serve [--workers N] [--queue-cap N] [--state-cap K] \
         [--engine-cache N] [--no-batching] [--admission shed|deadline] \
         [--max-line BYTES] [--socket PATH [--accept N]] [--verify] [--allow-shed]\n  \
         optipart-serve client --socket PATH [--in FILE] [--quiet] [--connect-wait-ms MS]\n  \
         optipart-serve gen --requests N [--seed S] [--distinct D] \
         [--kill-every K] [--deadline-every K] [--out FILE]\n  \
         optipart-serve soak [--requests N] [--seed S] [--workers N] \
         [--queue-cap N] [--state-cap K] [--no-batching]\n  \
         optipart-serve chaos [--requests N] [--seed S] [--workers N] \
         [--panics N] [--disconnects N] [--clients N] [--corrupt N] \
         [--stall-every N] [--no-socket]\n\n\
         serve: --accept N drains N socket clients concurrently before \
         exiting (default 1); --allow-shed keeps backpressure sheds and \
         deadline rejections off the exit status; --max-line caps request \
         line bytes (default 65536).\n\
         chaos: a seeded storm of worker panics, client disconnects and \
         corrupted lines; asserts request conservation, transcript \
         determinism and served-payload bit-identity, then replays the \
         same plan over a real socket. Writes target/serve-chaos-repro.txt \
         on failure.\n\n\
         requests are one flat-JSON object per line; `seed` is required and \
         every other field overrides the scenario it expands to:\n  \
         {{\"id\":1,\"seed\":7,\"p\":8,\"tolerance\":0.3,\"deadline_s\":0.5}}"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}
