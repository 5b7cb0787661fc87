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
//! # Chaos soak: seeded worker panics, client disconnects, corrupted lines
//! # and slow readers — conservation, determinism and bit-identity checked:
//! optipart-serve chaos --requests 1000 --seed 20260808 --workers 4
//! ```
//!
//! A request line is flat JSON with a required `seed`; every other field
//! overrides the scenario that seed expands to (replay semantics — see
//! DESIGN.md, *serve*):
//!
//! ```text
//! {"id":12,"seed":914776577726420758,"p":6,"tol":0.25,"deadline_s":0.5}
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
//!
//! This file is flag parsing, summary printing and exit codes; the line
//! protocol, the connection loop and the socket listener are
//! `optipart::serve::front`, the chaos drivers `optipart::serve::chaos`.

use optipart::scenario::flags::{parse_flags, FlagSpec, Flags};
use optipart::serve::chaos::{chaos_soak, socket_chaos, ChaosKnobs};
use optipart::serve::front::{connect_retry, finish, pump, Listener};
use optipart::serve::protocol::DEFAULT_MAX_LINE;
use optipart::serve::soak::{mixed_stream, DirectCache};
use optipart::serve::{Admission, ServeConfig, Server};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::exit;

/// The request line `usage` shows: the wire spelling of each field.
const EXAMPLE_REQUEST: &str = r#"{"id":1,"seed":7,"p":8,"tol":0.3,"deadline_s":0.5}"#;

/// Every flag of every subcommand (see `usage`).
const SPEC: FlagSpec = FlagSpec {
    valued: &[
        "workers",
        "queue-cap",
        "state-cap",
        "engine-cache",
        "admission",
        "max-line",
        "socket",
        "accept",
        "in",
        "connect-wait-ms",
        "requests",
        "seed",
        "distinct",
        "kill-every",
        "deadline-every",
        "out",
        "panics",
        "disconnects",
        "clients",
        "corrupt",
        "stall-every",
    ],
    booleans: &["no-batching", "verify", "allow-shed", "quiet", "no-socket"],
    short: &[],
    positionals: false,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage("missing subcommand");
    };
    let f = parse_flags(rest, &SPEC, usage);
    match cmd.as_str() {
        "serve" => cmd_serve(&f),
        "gen" => cmd_gen(&f),
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

fn cmd_serve(f: &Flags) {
    let cfg = config(f);
    let verify = f.has("verify");
    let allow_shed = f.has("allow-shed");
    let max_line: usize = f.parse("max-line", DEFAULT_MAX_LINE);
    let server = Server::start(cfg);
    let ingress = server.ingress();

    let conns = match f.get("socket") {
        None => vec![pump(
            &ingress,
            std::io::stdin().lock(),
            BufWriter::new(std::io::stdout()),
            verify,
            max_line,
        )],
        Some(path) => {
            let listener =
                Listener::bind(path).unwrap_or_else(|e| usage(&format!("--socket {path}: {e}")));
            let accept: usize = f.parse("accept", 1);
            eprintln!("listening on {path} ({accept} connection(s))");
            listener.serve(&ingress, accept, verify, max_line)
        }
    };
    let mut cache = DirectCache::new();
    let (stats, audit) = finish(server, &conns, verify.then_some(&mut cache));
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
    match audit {
        Ok(sum) if verify => eprintln!(
            "verify: {} responses bit-identical to direct library calls \
             ({} distinct scenarios, {} past deadline, {} answered \
             without a payload)",
            sum.served,
            sum.distinct,
            sum.deadline,
            sum.shed + sum.rejected + sum.failed,
        ),
        Ok(_) => {}
        Err(e) => {
            eprintln!("connection audit FAILED:\n{e}");
            failed = true;
        }
    }
    exit(if failed { 1 } else { 0 });
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
/// 2. **Socket phase** — [`socket_chaos`]: the same plan driven over a
///    real Unix socket; conservation and bit-identity are asserted on
///    whatever nondeterministic interleaving happens.
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
        let (sum, stats) = socket_chaos(seed, requests, cfg, knobs, &mut cache)
            .unwrap_or_else(|e| chaos_fail(&repro, &e));
        eprintln!(
            "  socket phase: {} connection(s), {} responses conserved \
             ({} served bit-identical to direct calls), {} mid-line \
             disconnect(s), {} bad line(s), {} worker panic(s)",
            stats.connections,
            sum.checked,
            sum.served,
            stats.disconnects,
            stats.malformed_lines + stats.oversized_lines,
            stats.panics,
        );
    }
    eprintln!("chaos OK");
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
         {EXAMPLE_REQUEST}"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::EXAMPLE_REQUEST;
    use optipart::serve::front::classify;

    /// Unknown wire fields are ignored by design, so a misspelled field in
    /// the usage text would silently drop the override it advertises.
    #[test]
    fn usage_example_sets_every_field_it_shows() {
        let req = classify(EXAMPLE_REQUEST.as_bytes()).expect("the example parses");
        assert_eq!((req.id, req.scn.seed, req.scn.p), (1, 7, 8));
        assert_eq!(req.scn.tolerance, 0.3);
        assert_eq!(req.deadline_s, Some(0.5));
    }
}
