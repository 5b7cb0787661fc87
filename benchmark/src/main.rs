//! `benchmark` — the end-to-end benchmark and per-layer ledger of the
//! OptiPart workspace. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the contract form)
//! benchmark run   [--seed n] [--seconds s] [--smoke]     every workload, end-to-end then traced
//! benchmark trace <workload> [--seed n] [--smoke]        one traced run
//! benchmark aa    [--runs k] [--seed n] [--smoke]        two interleaved sets of runs of this build
//! benchmark manifest                                      print BENCHMARK.json
//! ```

mod alloc;
mod batch;
mod host;
mod manifest;
mod serve;
mod spans;
mod stats;

use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// `--seconds` under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--runs" => a.runs = value("--runs")?.parse().map_err(|_| "bad --runs")?,
            "--smoke" => a.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            word if a.command.is_none() && a.workload.is_none() => {
                a.command = Some(word.to_string())
            }
            word if a.command.as_deref() == Some("trace") && a.workload.is_none() => {
                a.workload = Some(word.to_string())
            }
            word => return Err(format!("unexpected argument '{word}'")),
        }
    }
    Ok(a)
}

/// One run's result: what the last line of standard output carries.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, samples behind the value)` in manifest order.
    metrics: Vec<(&'static str, f64, usize)>,
    notes: Vec<String>,
}

impl Outcome {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, _)| {
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    manifest::unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Inverse of [`Outcome::result_line`] for the fields the `run` and `aa`
/// modes need: `(correct, attempted, failed, metric values by name)`.
fn parse_result_line(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let after = |hay: &str, key: &str| -> Option<String> {
        let rest = &hay[hay.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    };
    let correct = after(line, "\"correct\": ")? == "true";
    let attempted = after(line, "\"attempted\": ")?.parse().ok()?;
    let failed = after(line, "\"failed\": ")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = BTreeMap::new();
    for part in body.split("\"}") {
        let Some(name_end) = part.find("\": {\"value\": ") else {
            continue;
        };
        let name = part[..name_end].rsplit('"').next()?;
        let value = after(part, "\"value\": ")?.parse().ok()?;
        metrics.insert(name.to_string(), value);
    }
    Some((correct, attempted, failed, metrics))
}

struct Env {
    root: PathBuf,
    out_dir: PathBuf,
    host: host::Host,
}

fn measure(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let (attempted, failed, problems);

    if let Some(kind) = batch::Kind::parse(workload) {
        let sizes = batch::Sizes::new(smoke);
        if trace {
            let t = batch::run_traced(kind, sizes, seed);
            (attempted, failed, problems) = take_traced(env, workload, t, &mut values, &mut notes)?;
        } else {
            let r = batch::run_e2e(kind, sizes, seed, seconds);
            let n = r.walls_s.len();
            notes.push(format!("{n} timed iterations after 1 warm-up"));
            notes.push(format!("iteration walls, s: {}", join_secs(&r.walls_s)));
            values.insert("setup_s", (r.setup_s, 1));
            values.insert("run_wall_s", (stats::median(&r.walls_s), n));
            values.insert("virtual_makespan_s", (r.makespan_s, n + 1));
            values.insert("energy_j", (r.energy_j, n + 1));
            values.insert("req_per_s", (1.0 / stats::median(&r.walls_s), n));
            values.insert("latency_p50_us", (stats::median(&r.walls_s) * 1e6, n));
            let rss = host::peak_rss_mb(std::process::id()).ok_or("cannot read VmHWM")?;
            values.insert("peak_rss_mb", (rss, 1));
            (attempted, failed, problems) = (r.attempted, r.failed, r.problems);
        }
    } else if let Some(kind) = serve::Kind::parse(workload) {
        let bin = serve::build_server(&env.root)?;
        let workers = env.host.threads;
        if trace {
            let t = serve::run_traced(kind, smoke, seed, seconds, &bin, &env.out_dir, workers);
            (attempted, failed, problems) = take_traced(env, workload, t, &mut values, &mut notes)?;
        } else {
            let r = serve::run_e2e(kind, smoke, seed, seconds, &bin, &env.out_dir, workers);
            let bursts = r.burst_walls_s.len();
            let answered = r.latencies_us.len();
            notes.push(format!(
                "{bursts} saturation bursts of {} requests; {answered} responses paced at {} req/s (open loop, timed from the due instant)",
                r.burst_requests, r.rate
            ));
            notes.push(format!(
                "verification after timing: {} responses compared with the library in {:.3} s (not part of setup_s)",
                r.verified, r.verify_s
            ));
            notes.push(format!("burst walls, s: {}", join_secs(&r.burst_walls_s)));
            let burst_wall = stats::median(&r.burst_walls_s);
            values.insert("setup_s", (r.setup_s, r.setup_samples));
            values.insert("run_wall_s", (burst_wall, bursts));
            values.insert("virtual_makespan_s", (r.makespan_s, 1));
            values.insert("energy_j", (r.energy_j, 1));
            values.insert("req_per_s", (r.burst_requests as f64 / burst_wall, bursts));
            if answered > 0 {
                let (tail_pct, tail_us) = stats::tail(&r.latencies_us);
                notes.push(format!(
                    "latency tail (not an end-to-end metric, see serve.latency_p99_us): {tail_us:.1} us at the {tail_pct:.2}th percentile"
                ));
                values.insert("latency_p50_us", (stats::median(&r.latencies_us), answered));
            }
            values.insert("peak_rss_mb", (r.peak_rss_mb, 1));
            (attempted, failed, problems) = (r.attempted, r.failed, r.problems);
        }
    } else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload '{workload}' (known: {})",
            names.join(", ")
        ));
    }

    for p in &problems {
        notes.push(format!("PROBLEM: {p}"));
    }
    // Every metric of the requested kind, in manifest order. One that the
    // workload does not exercise reads 0 (per-layer only; an end-to-end
    // metric without a value means the run is not correct).
    let names: Vec<&'static str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing_e2e = !trace && names.iter().any(|n| !values.contains_key(n));
    let metrics = names
        .into_iter()
        .map(|n| {
            let (v, samples) = values.get(n).copied().unwrap_or((0.0, 0));
            (n, v, samples)
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0 && problems.is_empty() && !missing_e2e,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}

fn join_secs(walls_s: &[f64]) -> String {
    let walls: Vec<String> = walls_s.iter().map(|w| format!("{w:.3}")).collect();
    walls.join(" ")
}

/// Writes a traced run's spans to `benchmark/out/trace-<workload>.json`,
/// moves its metrics into `values`, and returns `(attempted, failed,
/// problems)`.
fn take_traced(
    env: &Env,
    workload: &str,
    t: spans::Traced,
    values: &mut BTreeMap<&'static str, (f64, usize)>,
    notes: &mut Vec<String>,
) -> Result<(u64, u64, Vec<String>), String> {
    let path = env.out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, t.recorder.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        t.recorder.spans().len(),
        path.display()
    ));
    values.extend(t.metrics.into_iter().map(|(k, v)| (k, (v, 1))));
    Ok((t.attempted, t.failed, t.problems))
}

fn print_outcome(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    o: &Outcome,
) {
    println!("{}", env.host.stanza());
    println!(
        "workload={workload} seed={seed} seconds={seconds} trace={}{}",
        trace as u8,
        if smoke {
            " SMOKE SIZES (not comparable)"
        } else {
            ""
        }
    );
    for note in &o.notes {
        println!("{note}");
    }
    for (name, value, samples) in &o.metrics {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| {
                format!("  {} is better, bound {}%", m.better, m.bound * 100.0)
            });
        println!(
            "  {name:<34} {value:>18.6} {:<6} samples={samples}{bound}",
            manifest::unit_of(name)
        );
    }
    let share = o.failed as f64 / o.attempted as f64;
    println!(
        "  failed_share                       {share:>18.6} ratio  ({} of {} failed)",
        o.failed, o.attempted
    );
    println!("{}", o.result_line());
}

/// Runs this binary again as a fresh child process for one workload and
/// returns the child's echoed report and parsed result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(String, BTreeMap<String, f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload}: child exited with {}\n{text}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = text.lines().last().unwrap_or("");
    let (correct, _, failed, metrics) =
        parse_result_line(last).ok_or_else(|| format!("{workload}: no result line in\n{text}"))?;
    Ok((text, metrics, correct && failed == 0))
}

/// `run`: every workload in a fresh child process, end-to-end then traced.
fn cmd_run(seed: u64, seconds: f64, smoke: bool) -> Result<bool, String> {
    let mut all_ok = true;
    let mut table: Vec<(&str, BTreeMap<String, f64>)> = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let (text, metrics, ok) = run_child(workload, seed, seconds, trace, smoke)?;
            print!("{text}");
            println!();
            all_ok &= ok;
            if !trace {
                table.push((workload, metrics));
            }
        }
    }
    println!("end-to-end summary (seed {seed}, {seconds} s per run)");
    print!("  {:<20}", "metric");
    for (w, _) in &table {
        print!(" {w:>16}");
    }
    println!("  unit   bound");
    for m in &END_TO_END {
        print!("  {:<20}", m.name);
        for (_, metrics) in &table {
            print!(
                " {:>16.6}",
                metrics.get(m.name).copied().unwrap_or(f64::NAN)
            );
        }
        println!(
            "  {:<6} {}% ({} is better)",
            m.unit,
            m.bound * 100.0,
            m.better
        );
    }
    println!("every output correct: {all_ok}   claim: none (this benchmark defines the names; it claims no gain)");
    Ok(all_ok)
}

/// `aa`: two interleaved sets of `runs` full runs of this same build. Run
/// `i` of both sets uses seed `seed + i`.
fn cmd_aa(seed: u64, seconds: f64, smoke: bool, runs: usize) -> Result<bool, String> {
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let mut sets: [BTreeMap<(&str, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut all_ok = true;
    for i in 0..runs {
        // Alternate which set goes first.
        for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            for (workload, _) in WORKLOADS {
                let (_, metrics, ok) = run_child(workload, seed + i as u64, seconds, false, smoke)?;
                all_ok &= ok;
                for m in &END_TO_END {
                    let v = *metrics.get(m.name).ok_or("child omitted a metric")?;
                    sets[set].entry((workload, m.name)).or_default().push(v);
                }
            }
            eprintln!("aa: run {} of set {} done", i + 1, ["A", "B"][set]);
        }
    }
    println!(
        "A/A: two interleaved sets of {runs} runs of the same build, seeds {seed}..{}",
        seed + runs as u64 - 1
    );
    println!(
        "  {:<15} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
    );
    let mut agree = true;
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let a = &sets[0][&(workload, m.name)];
            let b = &sets[1][&(workload, m.name)];
            let (ma, mb) = (stats::median(a), stats::median(b));
            let (sa, sb) = (stats::spread(a), stats::spread(b));
            let worse = if m.better == "lower" {
                mb / ma - 1.0
            } else {
                ma / mb - 1.0
            };
            // A metric whose own runs scatter wider than its bound cannot
            // show agreement: unresolved, never unchanged.
            let verdict = if sa.max(sb) > m.bound {
                agree = false;
                "UNRESOLVED (spread wider than bound)"
            } else if worse.abs() <= m.bound {
                "agree"
            } else {
                agree = false;
                "DIFFER"
            };
            println!(
                "  {workload:<15} {:<20} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>7.2}% {:>+7.2}% {:>6.1}%  {verdict}",
                m.name,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("every output correct: {all_ok}; every metric agrees within its bound: {agree}");
    Ok(all_ok && agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() == Some("manifest") {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }

    // The repository root is the parent of this package; everything (the
    // root build, the socket, the output files) is addressed from there.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf();
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("error: cannot enter {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let out_dir = PathBuf::from("benchmark/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let host = host::Host::read(&root);
    // The library reads RAYON_NUM_THREADS on every parallel call; pin it
    // before any thread exists.
    std::env::set_var("RAYON_NUM_THREADS", host.threads.to_string());
    let env = Env {
        root,
        out_dir,
        host,
    };

    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    });
    let result = match (args.command.as_deref(), &args.workload) {
        (None | Some("trace"), Some(workload)) => {
            let trace = args.trace || args.command.is_some();
            measure(&env, workload, args.seed, seconds, trace, args.smoke).map(|o| {
                print_outcome(&env, workload, args.seed, seconds, trace, args.smoke, &o);
                // The contract form exits 0 whenever it printed a result;
                // `correct` and `failed` carry the verdict.
                true
            })
        }
        (Some("run"), None) => {
            println!("{}\n", env.host.stanza());
            cmd_run(args.seed, seconds, args.smoke)
        }
        (Some("aa"), None) => {
            println!("{}\n", env.host.stanza());
            cmd_aa(args.seed, seconds, args.smoke, args.runs)
        }
        _ => Err(
            "give --workload <name>, or one of: run, trace <workload>, aa, manifest".to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, 3), ("latency_p50_us", 1203.4, 1000)],
            notes: Vec::new(),
        };
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_p50_us\": {\"value\": 1203.4, \"unit\": \"us\"}}}"
        );
        let (correct, attempted, failed, metrics) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(metrics["setup_s"], 0.8127);
        assert_eq!(metrics["latency_p50_us"], 1203.4);
        assert_eq!(metrics.len(), 2);
    }

    #[test]
    fn the_contract_flags_parse_in_any_order() {
        let argv: Vec<String> = "--seconds 15 --trace 1 --workload serve_hot --seed 9"
            .split(' ')
            .map(str::to_string)
            .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!(a.workload.as_deref(), Some("serve_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(15.0), true));
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        let a = parse_args(&["trace".to_string(), "amr_solve".to_string()]).expect("parses");
        assert_eq!(
            (a.command.as_deref(), a.workload.as_deref()),
            (Some("trace"), Some("amr_solve"))
        );
    }
}
