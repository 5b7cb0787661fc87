//! Hostile-input acceptance for the `optipart-serve` binary: bad JSON,
//! missing fields, oversized lines, raw garbage bytes and mid-line
//! disconnects — through both stdin and socket mode — must each cost an
//! error line (or only their own connection), never the stream, and the
//! well-formed requests riding alongside must still serve bit-identically
//! (`--verify` inside the binary checks them against direct library
//! calls).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_optipart-serve");

fn good_line(id: u64, seed: u64) -> String {
    format!("{{\"id\":{id},\"seed\":{seed}}}")
}

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(BIN)
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn optipart-serve")
}

fn finish(child: Child) -> (i32, String, String) {
    let out = child.wait_with_output().expect("wait for optipart-serve");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The stdin corpus: two good requests surrounded by a parse error, a
/// missing `seed`, an oversized line, invalid UTF-8, three out-of-range
/// sizes (each of which used to abort or hang the whole process: a 1.2 TB
/// and a 24 GB allocation, and a tolerance ladder that never reaches 0),
/// and a mid-line EOF. Every hostile line earns an `{"error":...}`
/// response, both good requests serve (verified against the library by
/// `--verify`), and the exit status is the ordinary "malformed" 1.
#[test]
fn stdin_corpus_isolates_each_hostile_line() {
    let mut child = spawn_serve(&["--workers", "2", "--max-line", "256", "--verify"]);
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(good_line(1, 777).as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.write_all(b"{\"id\":2,\"seed\":}\n").unwrap(); // bad JSON value
        stdin.write_all(b"{\"id\":3,\"p\":4}\n").unwrap(); // missing seed
        let oversized = format!("{{\"id\":4,\"seed\":9,{}}}\n", "x".repeat(400));
        stdin.write_all(oversized.as_bytes()).unwrap(); // past --max-line
        stdin.write_all(b"\xff\xfe\x80 garbage\n").unwrap(); // invalid UTF-8
        stdin
            .write_all(b"{\"id\":8,\"seed\":7,\"n\":100000000000}\n")
            .unwrap();
        stdin
            .write_all(b"{\"id\":9,\"seed\":7,\"p\":3000000000}\n")
            .unwrap();
        stdin
            .write_all(b"{\"id\":10,\"seed\":7,\"tol\":1e300}\n")
            .unwrap();
        stdin.write_all(good_line(6, 778).as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.write_all(b"{\"id\":7,\"seed\":7").unwrap(); // mid-line EOF
    }
    drop(child.stdin.take());
    let (code, stdout, stderr) = finish(child);

    assert_eq!(
        code, 1,
        "hostile lines poison the exit status, nothing more:\n{stderr}"
    );
    let errors = stdout.matches("\"error\":").count();
    assert_eq!(errors, 7, "one error line per hostile line:\n{stdout}");
    assert!(stdout.contains("exceeds 256 bytes"), "{stdout}");
    assert!(stdout.contains("not valid UTF-8"), "{stdout}");
    assert!(stdout.contains("n = 100000000000 exceeds"), "{stdout}");
    assert!(stdout.contains("p = 3000000000 exceeds"), "{stdout}");
    assert!(stdout.contains("tol = 1e300 is outside"), "{stdout}");
    for id in [1u64, 6] {
        let served = stdout
            .lines()
            .any(|l| l.contains(&format!("\"id\":{id},")) && l.contains("\"status\":\"ok\""));
        assert!(
            served,
            "request {id} must serve despite its neighbours:\n{stdout}"
        );
    }
    assert!(
        stderr.contains("bit-identical to direct library calls"),
        "--verify must still pass on the good requests:\n{stderr}"
    );
    assert!(
        stderr.contains("malformed"),
        "the summary must count the bad lines:\n{stderr}"
    );
}

fn connect_retry(path: &str) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) => {
                assert!(Instant::now() < deadline, "server never listened: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Socket mode, two concurrent clients: one vanishes mid-line after a good
/// request, the other streams clean requests. The hostile client poisons
/// only itself — the clean client gets every response, the hostile one's
/// accepted request is still answered server-side (conservation), and the
/// server exits cleanly.
#[test]
fn hostile_socket_client_poisons_only_its_own_connection() {
    let path = format!("/tmp/optipart-hostile-{}.sock", std::process::id());
    let _ = std::fs::remove_file(&path);
    let child = spawn_serve(&[
        "--socket",
        &path,
        "--accept",
        "2",
        "--workers",
        "2",
        "--verify",
    ]);

    let hostile = connect_retry(&path);
    let clean = connect_retry(&path);

    let clean_thread = std::thread::spawn(move || {
        let mut w = clean.try_clone().expect("clone clean socket");
        for (id, seed) in [(10u64, 900u64), (11, 901), (12, 900)] {
            writeln!(w, "{}", good_line(id, seed)).unwrap();
        }
        clean.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(&clean).lines() {
            lines.push(line.expect("readable response"));
        }
        lines
    });
    {
        let mut w = &hostile;
        write!(w, "{}\n{{\"id\":21,\"seed", good_line(20, 950)).unwrap();
        w.flush().unwrap();
    }
    // Vanish mid-line without shutdown: the server sees EOF inside a line.
    drop(hostile);

    let responses = clean_thread.join().expect("clean client finishes");
    assert_eq!(responses.len(), 3, "clean client must get every response");
    for id in [10u64, 11, 12] {
        assert!(
            responses
                .iter()
                .any(|l| l.contains(&format!("\"id\":{id},")) && l.contains("\"status\":\"ok\"")),
            "missing served response for id {id}: {responses:?}"
        );
    }

    let (code, _stdout, stderr) = finish(child);
    assert_eq!(
        code, 0,
        "a mid-line disconnect is the client's loss, not the server's:\n{stderr}"
    );
    assert!(
        stderr.contains("2 connection(s)"),
        "both connections must be drained and counted:\n{stderr}"
    );
}

/// `--allow-shed` exit semantics: one worker with a 1-slot queue, a large
/// request to occupy it, then a flood of quick ones — the queue overflows
/// and sheds. Strict mode (the default) turns that into a non-zero exit;
/// `--allow-shed` keeps `--verify` green (sheds verify their replay
/// command and retry hint, serves verify bit-identically) and exits 0.
#[test]
fn allow_shed_flag_separates_backpressure_from_failure() {
    let feed = |child: &mut Child| {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        // ~100k elements keeps the single worker busy for many ms — far
        // longer than piping the five quick lines behind it takes.
        writeln!(stdin, "{{\"id\":0,\"seed\":5000,\"n\":100000,\"p\":4}}").unwrap();
        for id in 1..6u64 {
            writeln!(stdin, "{}", good_line(id, 6000)).unwrap();
        }
    };

    let mut strict = spawn_serve(&["--workers", "1", "--queue-cap", "1"]);
    feed(&mut strict);
    drop(strict.stdin.take());
    let (code, stdout, stderr) = finish(strict);
    assert_ne!(code, 0, "sheds must fail a strict serve:\n{stderr}");
    let sheds = stdout.matches("\"status\":\"shed\"").count();
    assert!(
        sheds >= 3,
        "the flood must overflow the 1-slot queue:\n{stdout}"
    );
    assert!(stdout.contains("\"retry_after_s\":"), "{stdout}");

    let mut tolerant = spawn_serve(&[
        "--workers",
        "1",
        "--queue-cap",
        "1",
        "--allow-shed",
        "--verify",
    ]);
    feed(&mut tolerant);
    drop(tolerant.stdin.take());
    let (code, stdout, stderr) = finish(tolerant);
    assert_eq!(
        code, 0,
        "--allow-shed must tolerate pure backpressure:\n{stderr}"
    );
    assert!(
        stdout.matches("\"status\":\"shed\"").count() >= 3,
        "{stdout}"
    );
    assert!(
        stderr.contains("bit-identical to direct library calls"),
        "--verify must cover the served remainder:\n{stderr}"
    );
}

/// A misspelled flag is a usage error (exit 2) naming the flag, not a
/// silent fall-back to the default (`gen --requsts 3` must not print 100
/// requests). `optipart-cli` shares the parser.
#[test]
fn misspelled_flag_is_a_usage_error() {
    for (bin, args, flag) in [
        (BIN, ["gen", "--requsts", "3"], "--requsts"),
        (
            env!("CARGO_BIN_EXE_optipart-cli"),
            ["gen", "--pionts", "3"],
            "--pionts",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} produced output anyway");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{bin}: {stderr}"
        );
    }
}
