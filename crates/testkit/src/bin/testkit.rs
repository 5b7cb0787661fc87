//! The testkit CLI: bounded soak runs, single-seed replay, corpus replay.
//!
//! ```text
//! testkit soak --budget 200 --seed 1 [--repro-file target/testkit-repro.txt]
//! testkit replay --seed 0x51a9 [--check stack] [field overrides…]
//! testkit corpus tests/corpus
//! ```
//!
//! `soak` exits non-zero on failure after printing the shrunken scenario's
//! one-line replay command (and writing it to the repro file for CI
//! artifact upload). `replay` accepts exactly the flags `replay_cmd()`
//! emits, so any failure message is copy-pastable.

use optipart_testkit::corpus;
use optipart_testkit::scenario::flags::{parse_flags, FlagSpec};
use optipart_testkit::scenario::Scenario;
use optipart_testkit::soak::{check_by_name, soak, CHECKS};

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage:\n  testkit soak --budget <n> [--seed <s>] [--repro-file <path>]\n  \
         testkit replay --seed <s> [--check <name>] [--shape|--n|--p|--curve|--tol|\
         --split-budget|--machine|--app|--faults|--hier|--family|--workload <v>] [--no-faults]\n  \
         testkit corpus <dir-or-file>…\n\nchecks: all {}",
        CHECKS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn parse_seed(s: &str) -> u64 {
    s.strip_prefix("0x")
        .map_or_else(|| s.parse(), |h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|_| usage(&format!("bad seed `{s}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("soak") => cmd_soak(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        _ => usage(""),
    }
}

fn cmd_soak(args: &[String]) {
    let f = parse_flags(
        args,
        &FlagSpec {
            valued: &["budget", "seed", "repro-file"],
            ..Default::default()
        },
        usage,
    );
    let budget: usize = f.parse("budget", 100);
    let seed = f.get("seed").map_or(1, parse_seed);
    let repro_file = f.get("repro-file").unwrap_or("target/testkit-repro.txt");
    println!(
        "testkit soak: budget {budget}, seed {seed}, {} checks",
        CHECKS.len()
    );
    let report = soak(budget, seed);
    match report.failure {
        None => println!(
            "soak OK: {} scenarios × {} checks",
            report.passed,
            CHECKS.len()
        ),
        Some(f) => {
            eprintln!(
                "soak FAILED after {} clean scenarios\n  check:    {}\n  scenario: {}\n  {}\n  replay:   {}",
                report.passed,
                f.check,
                f.scenario,
                f.message.replace('\n', "\n  "),
                f.replay
            );
            if let Some(dir) = std::path::Path::new(repro_file).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(repro_file, format!("{}\n", f.replay));
            eprintln!("  repro written to {repro_file}");
            std::process::exit(1);
        }
    }
}

fn cmd_replay(args: &[String]) {
    let valued: Vec<&str> = ["seed", "check"]
        .into_iter()
        .chain(Scenario::KEYS)
        .collect();
    let f = parse_flags(
        args,
        &FlagSpec {
            valued: &valued,
            booleans: &["no-faults"],
            ..Default::default()
        },
        usage,
    );
    let Some(seed) = f.get("seed").map(parse_seed) else {
        usage("replay needs --seed")
    };
    let check = f.get("check").unwrap_or("all");
    // Field overrides apply in command-line order, exactly as
    // `replay_cmd()` wrote them.
    let mut scn = Scenario::from_seed(seed);
    for (key, value) in f.iter().filter(|(k, _)| !matches!(*k, "seed" | "check")) {
        if let Err(e) = scn.set(key, value) {
            eprintln!("--{key} {value}: {e}");
            std::process::exit(2);
        }
    }
    println!("replaying: {scn}");
    if check != "all" && check_by_name(check).is_none() {
        usage(&format!("unknown check `{check}`"));
    }
    corpus::replay(&corpus::CorpusCase {
        check: check.to_string(),
        scenario: scn,
    });
    println!("replay OK ({check})");
}

fn cmd_corpus(args: &[String]) {
    if args.is_empty() {
        usage("corpus needs at least one file or directory");
    }
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for a in args {
        let path = std::path::Path::new(a);
        if path.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(path)
                .unwrap_or_else(|e| {
                    eprintln!("{a}: {e}");
                    std::process::exit(2);
                })
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "seed"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.to_path_buf());
        }
    }
    for file in &files {
        let contents = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("{}: {e}", file.display());
            std::process::exit(2);
        });
        let case = corpus::parse(&contents).unwrap_or_else(|e| {
            eprintln!("{}: {e}", file.display());
            std::process::exit(2);
        });
        println!(
            "corpus {}: {} ({})",
            file.display(),
            case.scenario,
            case.check
        );
        corpus::replay(&case);
    }
    println!("corpus OK: {} case(s)", files.len());
}
