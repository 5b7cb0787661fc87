//! The connection front end: bytes on a stream in, response lines out.
//!
//! Everything between a raw byte stream and [`Ingress::submit_with`] lives
//! here, so it can be driven over in-memory buffers as well as sockets —
//! the `optipart-serve` binary only parses flags and prints summaries.
//! One contract per item:
//!
//! * [`read_line_capped`] — a line is read with at most `cap` bytes of it
//!   ever buffered; the rest of an oversized line is swallowed up to its
//!   newline, and EOF inside a line is told apart from EOF between lines.
//! * [`classify`] — a complete line is a [`Request`] or a one-line reason
//!   why not (not UTF-8, not JSON, missing or out-of-range field). The
//!   only line classifier: [`pump`] and the in-process chaos soak share it.
//! * [`pump`] — one connection: every line earns exactly one line back
//!   (a response, or `{"error":…}` for a line that never became a
//!   request), and every *submitted* request is answered before `pump`
//!   returns, even if the client stopped reading — conservation holds
//!   connection by connection. A reply leaves as soon as it is ready: a
//!   per-connection writer thread flushes whenever its reply channel runs
//!   empty, so a client may wait for each answer before sending again. A
//!   bad line costs its sender an error line and the connection's exit
//!   status, never the stream.
//! * [`Listener`] — a Unix socket that accepts N clients, pumps each on
//!   its own thread against the shared worker pool, and joins them all.
//!   It only ever deletes a path that is a socket.
//! * [`finish`] — the epilogue every driver runs: fold the connections
//!   into the server counters, shut down (which asserts server-wide
//!   conservation), then check conservation per connection and, if asked,
//!   every response against a direct library call.

use crate::protocol::{Request, Response};
use crate::server::{lock, ConnStats, Ingress, Server, ServerStats};
use crate::soak::{verify_responses_with, DirectCache, VerifySummary};
use optipart_trace::json::quote;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Everything one drained connection produced: the requests it submitted
/// and responses it saw (only when collecting for verification) plus its
/// line counters.
#[derive(Default)]
pub struct Conn {
    /// Requests parsed and submitted, in line order (empty unless
    /// collecting).
    pub reqs: Vec<Request>,
    /// Responses in arrival order (empty unless collecting).
    pub resps: Vec<Response>,
    /// Line and response counters.
    pub stats: ConnStats,
}

impl Conn {
    /// A connection that died before it could be pumped.
    fn broken() -> Conn {
        let mut c = Conn::default();
        c.stats.io_errors += 1;
        c
    }
}

/// One [`read_line_capped`] outcome.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// The line blew past the byte cap; its remainder was swallowed up to
    /// the next newline.
    Oversized,
    /// Clean EOF on a line boundary.
    Eof,
    /// EOF in the middle of a line — the client vanished mid-write.
    MidLineEof,
    /// The stream failed.
    Err(std::io::Error),
}

/// Reads one newline-terminated line into `buf`, never buffering more than
/// `cap` bytes of it — the guard that keeps one hostile client from
/// ballooning the server's memory. Past the cap the rest of the line is
/// discarded up to its newline; a disconnect before that newline wins
/// over the oversize verdict (the client is gone).
pub fn read_line_capped(input: &mut impl BufRead, buf: &mut Vec<u8>, cap: usize) -> LineRead {
    buf.clear();
    let mut oversized = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return LineRead::Err(e),
        };
        if chunk.is_empty() {
            return if buf.is_empty() && !oversized {
                LineRead::Eof
            } else {
                LineRead::MidLineEof
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        oversized |= buf.len() + take > cap;
        if !oversized {
            buf.extend_from_slice(&chunk[..take]);
        }
        input.consume(take + usize::from(newline.is_some()));
        match newline {
            Some(_) if oversized => return LineRead::Oversized,
            Some(_) => return LineRead::Line,
            None => {}
        }
    }
}

/// Classifies one complete line: the request it spells, or why it spells
/// none.
pub fn classify(line: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(line).map_err(|_| "request line is not valid UTF-8")?;
    Request::from_json(text.trim())
}

/// Where one connection's output goes, and whether it still can: after the
/// first failed write the client has stopped reading, so `pump` keeps
/// draining for conservation but stops writing. The reader and the writer
/// of a connection share it behind one lock, so lines never interleave.
struct Out<W: Write> {
    w: W,
    ok: bool,
}

impl<W: Write> Out<W> {
    fn line(&mut self, line: &str) {
        self.ok = self.ok && writeln!(self.w, "{line}").is_ok();
    }

    fn flush(&mut self) {
        if self.ok {
            let _ = self.w.flush();
        }
    }
}

/// The writer half of [`pump`]: blocks for the next response, writes it and
/// every response already waiting behind it, and flushes once the channel
/// is empty — a lone reply leaves at once, a burst shares one flush. Ends
/// when every sender is gone: the reader's and each submitted job's, so
/// when it returns every submitted request has been answered. Returns the
/// response count and, with `keep`, the responses in arrival order.
fn write_replies<W: Write>(
    rx: Receiver<Response>,
    out: &Mutex<Out<W>>,
    keep: bool,
) -> (u64, Vec<Response>) {
    let (mut sent, mut kept) = (0, Vec::new());
    while let Ok(first) = rx.recv() {
        let mut o = lock(out);
        for r in std::iter::once(first).chain(rx.try_iter()) {
            o.line(&r.to_json());
            sent += 1;
            if keep {
                kept.push(r);
            }
        }
        o.flush();
    }
    (sent, kept)
}

/// Streams one connection: requests in from `input`, responses out to
/// `output` as soon as each is ready (arrival order, not submit order).
/// The calling thread reads, classifies and submits, and writes the error
/// line of a line that never became a request; a scoped writer thread
/// (`write_replies`) owns the responses. `collect` keeps the parsed
/// requests and the responses for [`finish`] to verify.
pub fn pump(
    ingress: &Ingress,
    mut input: impl BufRead,
    output: impl Write + Send,
    collect: bool,
    max_line: usize,
) -> Conn {
    let (tx, rx) = channel::<Response>();
    let out = Mutex::new(Out {
        w: output,
        ok: true,
    });
    let mut conn = Conn::default();
    let mut buf: Vec<u8> = Vec::new();
    let (responses, resps) = std::thread::scope(|s| {
        let writer = s.spawn(|| write_replies(rx, &out, collect));
        loop {
            let verdict = match read_line_capped(&mut input, &mut buf, max_line) {
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
                    conn.stats.oversized += 1;
                    Err(format!("request line exceeds {max_line} bytes"))
                }
                LineRead::Line if buf.iter().all(u8::is_ascii_whitespace) => continue,
                LineRead::Line => classify(&buf).inspect_err(|_| conn.stats.malformed += 1),
            };
            conn.stats.lines += 1;
            match verdict {
                Ok(req) => {
                    if collect {
                        conn.reqs.push(req.clone());
                    }
                    ingress.submit_with(req, &tx);
                    conn.stats.submitted += 1;
                }
                Err(why) => {
                    let mut o = lock(&out);
                    o.line(&format!("{{\"error\":{}}}", quote(&why)));
                    o.flush();
                }
            }
        }
        // Conservation drain: with the reader's sender gone, the channel
        // closes once the last submitted request is answered.
        drop(tx);
        writer.join().expect("reply writer")
    });
    conn.stats.responses = responses;
    conn.resps = resps;
    let out = out.into_inner().unwrap_or_else(PoisonError::into_inner);
    conn.stats.io_errors += u64::from(!out.ok);
    conn
}

/// A bound Unix socket that will serve a fixed number of clients.
pub struct Listener {
    inner: UnixListener,
    path: String,
}

/// Removes `path` if — and only if — it is a socket (a stale one from an
/// earlier run, or our own at exit). Anything else at that path is the
/// user's file: refuse rather than delete it.
fn clear_socket(path: &str) -> Result<(), String> {
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => {
            // A failed removal surfaces as the bind error that follows.
            let _ = std::fs::remove_file(path);
            Ok(())
        }
        Ok(_) => Err("exists and is not a socket".into()),
        Err(_) => Ok(()),
    }
}

impl Listener {
    /// Binds `path`, replacing a stale socket there but no other kind of
    /// file.
    pub fn bind(path: &str) -> Result<Listener, String> {
        clear_socket(path)?;
        let inner = UnixListener::bind(path).map_err(|e| e.to_string())?;
        Ok(Listener {
            inner,
            path: path.to_string(),
        })
    }

    /// Accepts `accept` clients, each pumped by its own thread against the
    /// shared worker pool, then joins them all (graceful drain: in-flight
    /// requests are answered before this returns) and removes the socket.
    pub fn serve(
        self,
        ingress: &Ingress,
        accept: usize,
        collect: bool,
        max_line: usize,
    ) -> Vec<Conn> {
        let conns = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for cid in 0..accept {
                match self.inner.accept() {
                    Ok((stream, _)) => handles.push(
                        std::thread::Builder::new()
                            .name(format!("optipart-conn-{cid}"))
                            .spawn_scoped(s, move || {
                                pump_stream(ingress, stream, collect, max_line)
                            })
                            .expect("spawn connection thread"),
                    ),
                    Err(e) => {
                        eprintln!("accept failed: {e}; stopping accept loop");
                        break;
                    }
                }
            }
            // A panicked connection thread costs that connection, not the
            // server.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Conn::broken()))
                .collect()
        });
        let _ = clear_socket(&self.path);
        conns
    }
}

fn pump_stream(ingress: &Ingress, stream: UnixStream, collect: bool, max_line: usize) -> Conn {
    match stream.try_clone() {
        Ok(reader) => pump(
            ingress,
            BufReader::new(reader),
            BufWriter::new(stream),
            collect,
            max_line,
        ),
        Err(e) => {
            // One bad accept must not kill the server: log, count, move on.
            eprintln!("connection setup failed: {e}");
            Conn::broken()
        }
    }
}

/// Connects to a serving socket, retrying for up to `wait_ms` while the
/// server is still binding.
pub fn connect_retry(path: &str, wait_ms: u64) -> Result<UnixStream, String> {
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

/// The epilogue of a front-end run: folds `conns` into the server
/// counters, shuts the server down (panicking if server-wide conservation
/// broke), then audits each connection — one response per submitted
/// request, and with a `cache` every response checked against a direct
/// library call. The summary adds up over connections; the error names
/// every failing connection, one per line.
pub fn finish(
    server: Server,
    conns: &[Conn],
    mut cache: Option<&mut DirectCache>,
) -> (ServerStats, Result<VerifySummary, String>) {
    let ingress = server.ingress();
    for c in conns {
        ingress.fold_connection(&c.stats);
    }
    let stats = server.shutdown();
    let mut total = VerifySummary::default();
    let mut failures = Vec::new();
    for (i, c) in conns.iter().enumerate() {
        if c.stats.responses != c.stats.submitted {
            failures.push(format!(
                "connection {i}: {} responses for {} submitted requests",
                c.stats.responses, c.stats.submitted
            ));
        }
        let Some(cache) = cache.as_deref_mut() else {
            continue;
        };
        match verify_responses_with(&c.reqs, &c.resps, cache) {
            Ok(sum) => {
                total.checked += sum.checked;
                total.served += sum.served;
                total.shed += sum.shed;
                total.rejected += sum.rejected;
                total.failed += sum.failed;
                total.deadline += sum.deadline;
                total.distinct = sum.distinct;
            }
            Err(e) => failures.push(format!("connection {i}: {e}")),
        }
    }
    let audit = if failures.is_empty() {
        Ok(total)
    } else {
        Err(failures.join("\n"))
    };
    (stats, audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{
        chaos_soak, chaos_stream, client_scripts, ChaosKnobs, ChaosPlan, Corruption,
    };
    use crate::direct;
    use crate::protocol::{Fields, DEFAULT_MAX_LINE};
    use crate::server::ServeConfig;
    use optipart_scenario::Scenario;

    fn config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_cap: 200,
            state_cap: 16,
            engine_cache: 4,
            batching: true,
            admission: Default::default(),
        }
    }

    /// The `tests/serve_hostile.rs` stdin corpus — plus the three
    /// out-of-range lines that used to abort or hang the process — pumped
    /// through memory: same error lines, same counters, no subprocess.
    #[test]
    fn hostile_corpus_through_pump_in_memory() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"{\"id\":1,\"seed\":777}\n");
        input.extend_from_slice(b"{\"id\":2,\"seed\":}\n");
        input.extend_from_slice(b"{\"id\":3,\"p\":4}\n");
        input
            .extend_from_slice(format!("{{\"id\":4,\"seed\":9,{}}}\n", "x".repeat(400)).as_bytes());
        input.extend_from_slice(b"\xff\xfe\x80 garbage\n");
        input.extend_from_slice(b"  \t\n");
        input.extend_from_slice(b"{\"id\":5,\"seed\":7,\"n\":100000000000}\n");
        input.extend_from_slice(b"{\"id\":5,\"seed\":7,\"p\":3000000000}\n");
        input.extend_from_slice(b"{\"id\":5,\"seed\":7,\"tol\":1e300}\n");
        input.extend_from_slice(b"{\"id\":6,\"seed\":778}\n");
        input.extend_from_slice(b"{\"id\":7,\"seed\":7");

        let server = Server::start(config(2));
        let mut output: Vec<u8> = Vec::new();
        let conn = pump(&server.ingress(), &input[..], &mut output, true, 256);

        let output = String::from_utf8(output).expect("responses are UTF-8");
        let errors: Vec<&str> = output
            .lines()
            .filter(|l| l.starts_with("{\"error\""))
            .collect();
        assert_eq!(
            errors,
            [
                r#"{"error":"bad value at byte 15"}"#,
                r#"{"error":"missing required field 'seed'"}"#,
                r#"{"error":"request line exceeds 256 bytes"}"#,
                r#"{"error":"request line is not valid UTF-8"}"#,
                r#"{"error":"n = 100000000000 exceeds the wire limit 4194304"}"#,
                r#"{"error":"p = 3000000000 exceeds the wire limit 262144"}"#,
                r#"{"error":"tol = 1e300 is outside [0, 1]"}"#,
            ]
        );
        assert_eq!(
            output.lines().count(),
            9,
            "one line back per line in:\n{output}"
        );
        let s = conn.stats;
        assert_eq!(
            (
                s.lines,
                s.submitted,
                s.responses,
                s.malformed,
                s.oversized,
                s.mid_line_eof,
                s.io_errors
            ),
            (9, 2, 2, 6, 1, true, 0)
        );
        assert_eq!(conn.reqs.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 6]);

        let mut cache = DirectCache::new();
        let (stats, audit) = finish(server, &[conn], Some(&mut cache));
        let sum = audit.expect("the good requests verify against the library");
        assert_eq!((sum.checked, sum.served, sum.distinct), (2, 2, 2));
        assert_eq!(
            (
                stats.connections,
                stats.malformed_lines,
                stats.oversized_lines,
                stats.disconnects
            ),
            (1, 6, 1, 1)
        );
    }

    /// A client that stops reading costs itself its responses, not the
    /// server its conservation: everything submitted is still drained.
    #[test]
    fn a_dead_writer_is_drained_not_fatal() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let server = Server::start(config(1));
        let input = b"{\"id\":1,\"seed\":5}\nnot json\n{\"id\":2,\"seed\":5}\n";
        let conn = pump(
            &server.ingress(),
            &input[..],
            Broken,
            false,
            DEFAULT_MAX_LINE,
        );
        let s = conn.stats;
        assert_eq!(
            (s.submitted, s.responses, s.malformed, s.io_errors),
            (2, 2, 1, 1)
        );
        assert!(
            conn.reqs.is_empty() && conn.resps.is_empty(),
            "not collecting"
        );
        let (_, audit) = finish(server, &[conn], None);
        assert_eq!(
            audit.expect("conserved").checked,
            0,
            "nothing verified without a cache"
        );
    }

    fn read_all(data: &[u8], chunk: usize, cap: usize) -> Vec<String> {
        let mut input = BufReader::with_capacity(chunk, data);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        loop {
            let r = read_line_capped(&mut input, &mut buf, cap);
            seen.push(match &r {
                LineRead::Line => format!("line:{}", String::from_utf8_lossy(&buf)),
                other => format!("{other:?}"),
            });
            if matches!(r, LineRead::Eof | LineRead::MidLineEof | LineRead::Err(_)) {
                return seen;
            }
        }
    }

    #[test]
    fn the_byte_cap_is_exact_at_every_chunk_alignment() {
        // Exactly `cap` passes, `cap + 1` does not, and the line after an
        // oversized one is intact — whether the newline falls inside a
        // chunk, on its last byte, or on the first byte of the next.
        for chunk in [1, 6, 7, 8, 64] {
            assert_eq!(
                read_all(b"abcdefg\nabcdefgh\nxy\n\n", chunk, 7),
                ["line:abcdefg", "Oversized", "line:xy", "line:", "Eof"],
                "chunk {chunk}"
            );
            // Oversized, then the client vanishes before its newline: the
            // disconnect wins.
            assert_eq!(
                read_all(b"ok\nabcdefghijklmnop", chunk, 7),
                ["line:ok", "MidLineEof"],
                "chunk {chunk}"
            );
            assert_eq!(read_all(b"abc", chunk, 7), ["MidLineEof"], "chunk {chunk}");
            assert_eq!(read_all(b"", chunk, 7), ["Eof"], "chunk {chunk}");
        }
        assert_eq!(
            read_all(b"\n", 7, 0),
            ["line:", "Eof"],
            "cap 0 still frames empty lines"
        );
    }

    /// `chaos_soak` records a parse casualty exactly where `classify`
    /// rejects the bytes, with `classify`'s reason — for every corruption
    /// kind.
    #[test]
    fn classify_is_what_the_chaos_soak_records() {
        let (seed, requests, cfg) = (0xC1A5, 96, config(2));
        let knobs = ChaosKnobs {
            panics: 0,
            disconnects: 0,
            corrupt: 24,
            ..ChaosKnobs::default()
        };
        let plan = ChaosPlan::generate(seed, requests, cfg.workers, &knobs);
        for kind in [
            Corruption::Truncate,
            Corruption::FlipByte,
            Corruption::Garbage,
        ] {
            assert!(
                plan.corrupt.values().any(|&k| k == kind),
                "{kind:?} not drawn"
            );
        }
        let scripts = client_scripts(seed, &chaos_stream(seed, requests), &plan, knobs.clients);
        let mut expected: Vec<(usize, String)> = scripts
            .iter()
            .flat_map(|s| &s.lines)
            .filter_map(|(i, bytes)| Some((*i, classify(bytes).err()?)))
            .collect();
        expected.sort();
        assert!(expected.iter().any(|(_, e)| e.contains("not valid UTF-8")));
        assert!(expected.len() >= 8, "{expected:?}");

        let report = chaos_soak(seed, requests, cfg, knobs, &mut DirectCache::new()).unwrap();
        let recorded: Vec<&str> = report
            .transcript
            .lines()
            .filter(|l| l.starts_with("{\"line\":"))
            .collect();
        let expected: Vec<String> = expected
            .iter()
            .map(|(i, e)| format!("{{\"line\":{i},\"error\":{}}}", quote(e)))
            .collect();
        assert_eq!(recorded, expected);
        assert_eq!(report.summary.parse_errors, expected.len());
    }

    fn temp_path(name: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("optipart-front-{}-{name}", std::process::id()));
        path.to_str().expect("UTF-8 temp dir").to_string()
    }

    /// A client that waits for each reply before it sends the next line
    /// gets every reply: `pump` answers when a response is ready, not when
    /// the next line arrives. The read timeout turns a withheld reply into
    /// a failure instead of a hang.
    #[test]
    fn ping_pong_client_gets_each_reply_before_its_next_line() {
        let path = temp_path("ping-pong.sock");
        let listener = Listener::bind(&path).expect("bind");
        let server = Server::start(config(1));
        let ingress = server.ingress();
        let serving =
            std::thread::spawn(move || listener.serve(&ingress, 1, false, DEFAULT_MAX_LINE));
        let stream = connect_retry(&path, 5000).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut replies = BufReader::new(stream.try_clone().unwrap());
        for (id, seed) in (0..5).zip(3300..) {
            let req = Request {
                id,
                scn: Scenario::from_seed(seed),
                deadline_s: None,
            };
            writeln!(&stream, "{}", req.to_json()).unwrap();
            let mut line = String::new();
            replies
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("no reply to request {id} within 10 s: {e}"));
            let f = Fields::parse(line.trim()).expect("a response line");
            assert_eq!(f.num::<u64>("id").unwrap(), Some(id), "{line}");
            let sig = format!("{:#018x}", direct(&req.scn).sig);
            assert_eq!(f.str("sig").unwrap(), Some(sig.as_str()), "{line}");
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let conns = serving.join().expect("serving thread");
        let (stats, audit) = finish(server, &conns, None);
        audit.expect("conserved");
        assert_eq!((stats.completed, conns[0].stats.responses), (5, 5));
    }

    #[test]
    fn bind_refuses_to_delete_anything_but_a_socket() {
        let notes = temp_path("notes.txt");
        std::fs::write(&notes, "keep me").unwrap();
        let err = Listener::bind(&notes)
            .err()
            .expect("a regular file is not ours to replace");
        assert_eq!(err, "exists and is not a socket");
        assert_eq!(std::fs::read_to_string(&notes).unwrap(), "keep me");
        std::fs::remove_file(&notes).unwrap();

        // A stale socket (its listener long gone) is replaced, and the
        // path is cleaned up once the listener has served.
        let stale = temp_path("stale.sock");
        drop(UnixListener::bind(&stale).unwrap());
        assert!(
            std::fs::symlink_metadata(&stale).is_ok(),
            "drop leaves the file"
        );
        let listener = Listener::bind(&stale).expect("a stale socket is replaced");
        let server = Server::start(config(1));
        assert!(listener
            .serve(&server.ingress(), 0, false, DEFAULT_MAX_LINE)
            .is_empty());
        assert!(
            std::fs::symlink_metadata(&stale).is_err(),
            "socket removed at exit"
        );
    }
}
