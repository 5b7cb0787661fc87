//! `optipart-cli` — generate, partition and analyse adaptive octree meshes
//! from the command line.
//!
//! ```text
//! optipart-cli gen --points 100000 --dist normal --seed 7 --out mesh.txt
//! optipart-cli partition --mesh mesh.txt --machine wisconsin-8 -p 256 \
//!     --curve hilbert --optipart --out parts.txt
//! optipart-cli partition --mesh mesh.txt -p 64 --tolerance 0.3
//! optipart-cli partition --mesh mesh.txt -p 64 --optipart \
//!     --faults seed=7,straggler=0.2x3,trans=0.01,kill=3@40
//! optipart-cli partition --mesh mesh.txt -p 64 --optipart --steps 10
//! optipart-cli analyze --mesh mesh.txt --parts parts.txt
//! ```
//!
//! Mesh files are plain text: one `x y z level` line per octant (depth-30
//! lattice coordinates). Partition files add the owner rank per line, in
//! mesh order.

use optipart::core::metrics::{
    boundary_counts, comm_imbalance, communication_matrix, load_imbalance, partition_counts,
};
use optipart::core::optipart::{optipart, optipart_with_state, OptiPartOptions, PartitionState};
use optipart::core::partition::{distribute_tree, treesort_partition, PartitionOptions};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::{catch_rank_death, Engine, FaultPlan};
use optipart::octree::Distribution;
use optipart::octree::{LinearTree, MeshParams};
use optipart::scenario::flags::{parse_flags, FlagSpec, Flags};
use optipart::sfc::{Cell3, Curve};
use std::io::{BufRead, BufWriter, Write};
use std::process::exit;

/// Every flag of every subcommand (see `usage`).
const SPEC: FlagSpec = FlagSpec {
    valued: &[
        "points",
        "dist",
        "seed",
        "curve",
        "out",
        "mesh",
        "p",
        "machine",
        "tolerance",
        "steps",
        "state-cap",
        "trace",
        "faults",
        "parts",
    ],
    booleans: &["optipart", "latency-aware"],
    short: &[("-p", "p")],
    positionals: false,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage("missing subcommand");
    };
    let opts = parse_flags(rest, &SPEC, usage);
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "partition" => cmd_partition(&opts),
        "analyze" => cmd_analyze(&opts),
        "-h" | "--help" => usage(""),
        other => usage(&format!("unknown subcommand '{other}'")),
    }
}

fn curve_of(f: &Flags) -> Curve {
    match f.get("curve").unwrap_or("hilbert") {
        "hilbert" => Curve::Hilbert,
        "morton" => Curve::Morton,
        other => usage(&format!("unknown curve '{other}'")),
    }
}

fn cmd_gen(f: &Flags) {
    let points: usize = f.parse("points", 10_000);
    let seed: u64 = f.parse("seed", 42);
    let dist = match f.get("dist").unwrap_or("normal") {
        "uniform" => Distribution::Uniform,
        "normal" => Distribution::Normal,
        "lognormal" => Distribution::LogNormal,
        other => usage(&format!("unknown distribution '{other}'")),
    };
    let tree: LinearTree<3> = MeshParams {
        distribution: dist,
        num_points: points,
        seed,
    }
    .build(curve_of(f));
    let out = f.get("out").unwrap_or("mesh.txt");
    write_mesh(&tree, out);
    eprintln!("wrote {} octants ({}) to {out}", tree.len(), dist.name());
}

fn cmd_partition(f: &Flags) {
    let tree = read_mesh(
        f.get("mesh").unwrap_or_else(|| usage("--mesh required")),
        curve_of(f),
    );
    let p: usize = f.parse("p", 16);
    let machine = MachineModel::by_name(f.get("machine").unwrap_or("wisconsin-8"))
        .unwrap_or_else(|| usage("unknown machine (titan|stampede|wisconsin-8|clemson-32)"));
    let mut engine = Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()));
    if f.has("trace") {
        engine = engine.with_tracing();
    }
    if let Some(spec) = f.get("faults") {
        let plan: FaultPlan = spec
            .parse()
            .unwrap_or_else(|e| usage(&format!("--faults: {e}")));
        engine = engine.with_faults(plan);
    }
    let input = distribute_tree(&tree, p);

    // `--steps N` re-partitions the same mesh N times through a warm
    // `PartitionState`, the way an AMR or service loop would — step 1
    // pays the full tolerance ladder, every later step is an exact
    // fingerprint hit (bit-identical output, no search).
    let steps: usize = f.parse("steps", 1);
    let mut warm_stats = None;
    let run = catch_rank_death(|| {
        if f.has("optipart") {
            let opts = OptiPartOptions {
                latency_aware: f.has("latency-aware"),
                ..OptiPartOptions::for_curve(curve_of(f))
            };
            if steps > 1 {
                let cap: usize = f.parse("state-cap", optipart::core::optipart::DEFAULT_STATE_CAP);
                let mut state = PartitionState::with_cap(cap);
                let mut out = optipart_with_state(&mut engine, input.clone(), opts, &mut state);
                for _ in 1..steps {
                    out = optipart_with_state(&mut engine, input.clone(), opts, &mut state);
                }
                warm_stats = Some(state.stats);
                out
            } else {
                optipart(&mut engine, input, opts)
            }
        } else {
            let tol: f64 = f.parse("tolerance", 0.0);
            treesort_partition(&mut engine, input, PartitionOptions::with_tolerance(tol))
        }
    });
    let outcome = match run {
        Ok(o) => o,
        Err(death) => {
            eprintln!(
                "error: {death}; partitioning aborted — the CLI runs without a \
                 checkpoint layer (see the library's recovery drivers for \
                 survivable runs)"
            );
            exit(1);
        }
    };
    eprintln!(
        "partitioned {} octants over {p} ranks: λ = {:.4}, tolerance = {:.4}, \
         rounds = {}, simulated {:.2} ms",
        tree.len(),
        outcome.report.lambda,
        outcome.report.achieved_tolerance,
        outcome.report.rounds,
        engine.makespan() * 1e3,
    );
    if let Some(s) = warm_stats {
        eprintln!(
            "warm-start over {steps} steps: {} exact hits, {} replays, {} cold, \
             {} rejected",
            s.hits, s.replays, s.colds, s.rejected,
        );
    }
    if f.has("faults") {
        eprintln!(
            "fault plan: {} transient retries charged, {} rank deaths",
            engine.stats().retries_total,
            engine.stats().deaths,
        );
    }
    if let Some(path) = f.get("trace") {
        std::fs::write(path, engine.trace_json())
            .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)");
        eprintln!("{}", engine.critical_path().render());
        eprintln!("{}", engine.model_attribution().render());
    }
    if let Some(path) = f.get("out") {
        let assign = optipart::core::metrics::assignment(&tree, &outcome.splitters);
        let file = std::fs::File::create(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        let mut w = BufWriter::new(file);
        for (kc, owner) in tree.leaves().iter().zip(&assign) {
            let a = kc.cell.anchor();
            writeln!(
                w,
                "{} {} {} {} {}",
                a[0],
                a[1],
                a[2],
                kc.cell.level(),
                owner
            )
            .unwrap();
        }
        eprintln!("wrote assignment to {path}");
    }
}

fn cmd_analyze(f: &Flags) {
    let tree = read_mesh(
        f.get("mesh").unwrap_or_else(|| usage("--mesh required")),
        curve_of(f),
    );
    let parts_path = f.get("parts").unwrap_or_else(|| usage("--parts required"));
    let file =
        std::fs::File::open(parts_path).unwrap_or_else(|e| usage(&format!("{parts_path}: {e}")));
    let mut assign = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.expect("readable parts file");
        let owner: usize = line
            .split_whitespace()
            .nth(4)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage("parts file line missing owner column"));
        assign.push(owner);
    }
    if assign.len() != tree.len() {
        usage(&format!(
            "parts file has {} lines, mesh has {}",
            assign.len(),
            tree.len()
        ));
    }
    let p = assign.iter().max().map_or(1, |m| m + 1);
    let counts = partition_counts(&assign, p);
    let bdy = boundary_counts(&tree, &assign, p);
    let m = communication_matrix(&tree, &assign, p);
    println!("octants:            {}", tree.len());
    println!("partitions:         {p}");
    println!("load imbalance:     {:.4}", load_imbalance(&counts));
    println!("comm imbalance:     {:.4}", comm_imbalance(&bdy));
    println!("comm matrix nnz:    {}", m.nnz());
    println!("ghost elements:     {}", m.total_bytes());
    println!("max ghosts/rank:    {}", m.cmax());
}

fn write_mesh(tree: &LinearTree<3>, path: &str) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
    let mut w = BufWriter::new(file);
    for kc in tree.leaves() {
        let a = kc.cell.anchor();
        writeln!(w, "{} {} {} {}", a[0], a[1], a[2], kc.cell.level()).unwrap();
    }
}

fn read_mesh(path: &str, curve: Curve) -> LinearTree<3> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")));
    let mut cells = Vec::new();
    for (ln, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.expect("readable mesh file");
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let v: Vec<u32> = line
            .split_whitespace()
            .take(4)
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| usage(&format!("{path}:{}: bad number", ln + 1)))
            })
            .collect();
        if v.len() != 4 {
            usage(&format!("{path}:{}: expected 'x y z level'", ln + 1));
        }
        cells.push(Cell3::new([v[0], v[1], v[2]], v[3] as u8));
    }
    LinearTree::from_cells(cells, curve)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage:\n  optipart-cli gen --points N [--dist uniform|normal|lognormal] \
         [--seed S] [--curve hilbert|morton] [--out FILE]\n  \
         optipart-cli partition --mesh FILE -p RANKS [--machine NAME] \
         [--tolerance T | --optipart [--latency-aware] [--steps N] [--state-cap K]] [--curve C] \
         [--out FILE] [--trace FILE] [--faults SPEC]\n  \
         optipart-cli analyze --mesh FILE --parts FILE [--curve C]\n\n\
         --faults SPEC is a comma-separated fault plan, e.g.\n  \
         seed=7,straggler=0.2x3,jitter=0.1,trans=0.01,retry=4@1e-4,fail=0.12@20,kill=3@40,detect=1e-3"
    );
    exit(if err.is_empty() { 0 } else { 2 });
}
