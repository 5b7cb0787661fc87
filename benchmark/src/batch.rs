//! The three batch workloads: one whole run of the library per iteration,
//! driven through the crates' public functions only.
//!
//! The mesh of every workload is fixed (its sampling seed is a constant of
//! the workload); `--seed` drives the initial placement of the elements on
//! the ranks (`distribute_shuffled`) or, for `amr_solve`, the realisation of
//! a 1 % link-speed jitter on the modelled network. The problem size must
//! not depend on the seed: the tolerance ladder takes 13 to 17 rounds
//! depending on the point cloud, which alone moves an iteration's wall time
//! by ±20 % — far more than any regression bound.

use crate::alloc::allocs;
use crate::spans::{self, Recorder, Traced};
use crate::stats;
use optipart::core::optipart::{optipart, optipart_with_state, OptiPartOptions, PartitionState};
use optipart::core::partition::{
    audit_splitters, distribute_shuffled, owner_of, treesort_partition, PartitionOptions,
    PartitionOutcome, PartitionReport,
};
use optipart::core::quality::partition_quality;
use optipart::core::treesort::treesort;
use optipart::core::WarmStats;
use optipart::fem::amr::step_mesh;
use optipart::fem::{
    amr_simulation, initial_vector, laplacian_matvec, AmrConfig, DistMesh, Strategy,
};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::rng::SplitMix64;
use optipart::mpisim::{AllToAllAlgo, AlltoallvArena, DistVec, Engine, FaultPlan};
use optipart::octree::{sample_points, tree_from_points, Distribution, LinearTree};
use optipart::sfc::{Curve, KeyedCell, Point, SfcKey};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Sampling seed of the fixed point cloud `cold_partition` and `many_ranks`
/// share.
const MESH_SEED: u64 = 20170626;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ColdPartition,
    AmrSolve,
    ManyRanks,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "cold_partition" => Some(Kind::ColdPartition),
            "amr_solve" => Some(Kind::AmrSolve),
            "many_ranks" => Some(Kind::ManyRanks),
            _ => None,
        }
    }
}

/// Problem sizes. `--smoke` shrinks them so the whole suite runs in seconds;
/// smoke numbers are for checking the harness, never for comparison.
#[derive(Clone, Copy)]
pub struct Sizes {
    points: usize,
    max_level: u8,
    p_cold: usize,
    matvecs_cold: usize,
    p_many: usize,
    matvecs_many: usize,
    amr: AmrConfig,
    p_amr: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        let amr = AmrConfig {
            steps: if smoke { 3 } else { 10 },
            max_level: if smoke { 4 } else { 6 },
            matvecs_per_step: if smoke { 5 } else { 100 },
            strategy: Strategy::OptiPart,
            curve: Curve::Hilbert,
            warm_start: true,
            ..AmrConfig::default()
        };
        Sizes {
            points: if smoke { 2_000 } else { 50_000 },
            max_level: 30,
            p_cold: if smoke { 8 } else { 64 },
            matvecs_cold: 20,
            p_many: if smoke { 128 } else { 4096 },
            matvecs_many: if smoke { 4 } else { 40 },
            amr,
            p_amr: if smoke { 8 } else { 64 },
        }
    }
}

/// Everything generated before the first iteration.
pub struct Inputs {
    kind: Kind,
    sizes: Sizes,
    seed: u64,
    /// Empty for `amr_solve`, whose meshes the library builds itself.
    points: Vec<Point<3>>,
}

impl Inputs {
    pub fn generate(kind: Kind, sizes: Sizes, seed: u64) -> Inputs {
        let points = match kind {
            Kind::AmrSolve => Vec::new(),
            _ => sample_points::<3>(Distribution::Normal, sizes.points, MESH_SEED),
        };
        Inputs {
            kind,
            sizes,
            seed,
            points,
        }
    }

    fn curve(&self) -> Curve {
        match self.kind {
            Kind::ManyRanks => Curve::Morton,
            _ => Curve::Hilbert,
        }
    }

    fn p(&self) -> usize {
        match self.kind {
            Kind::ColdPartition => self.sizes.p_cold,
            Kind::AmrSolve => self.sizes.p_amr,
            Kind::ManyRanks => self.sizes.p_many,
        }
    }

    fn perf(&self) -> PerfModel {
        let machine = match self.kind {
            Kind::ColdPartition => MachineModel::cloudlab_wisconsin(),
            Kind::AmrSolve => MachineModel::cloudlab_clemson(),
            Kind::ManyRanks => MachineModel::titan(),
        };
        PerfModel::new(machine, AppModel::laplacian_matvec())
    }

    /// A fresh engine for one iteration. `instrumented` switches the
    /// library's own span tracing and the communication matrix on, for the
    /// one traced-run iteration that measures what they cost.
    fn engine(&self, instrumented: bool) -> Engine {
        let mut e = Engine::new(self.p(), self.perf());
        if self.kind == Kind::AmrSolve {
            e = e.with_faults(FaultPlan::new(self.seed).with_tw_jitter(0.01));
        }
        if instrumented {
            e = e.with_tracing().record_comm_matrix();
        }
        e
    }

    fn tree(&self) -> LinearTree<3> {
        tree_from_points(&self.points, 1, self.sizes.max_level, self.curve())
    }
}

/// What one iteration produced: the values the end-to-end metrics and the
/// correctness check need, plus the counts the ledger reports.
pub struct IterOut {
    pub checksum: u64,
    pub makespan_s: f64,
    pub energy_j: f64,
    /// Final splitters and per-rank counts (empty for `amr_simulation`,
    /// which does not expose them).
    pub splitters: Vec<SfcKey>,
    pub counts: Vec<u64>,
    pub facts: Facts,
}

impl IterOut {
    /// Same checksum, virtual makespan and energy, to the last bit.
    fn same_as(&self, other: &IterOut) -> bool {
        self.checksum == other.checksum
            && self.makespan_s.to_bits() == other.makespan_s.to_bits()
            && self.energy_j.to_bits() == other.energy_j.to_bits()
    }
}

/// Exact counts taken at the layer boundaries of one iteration.
#[derive(Clone, Default)]
pub struct Facts {
    pub leaves: u64,
    pub report: Option<PartitionReport>,
    pub warm: WarmStats,
    pub ghost_elements: u64,
    pub sync_points: u64,
    pub bytes_total: u64,
    pub partition_allocs: u64,
    pub ghost_build_allocs: u64,
    pub matvec_allocs: u64,
    pub matvecs: u64,
}

fn mix(h: u64, x: u64) -> u64 {
    SplitMix64::new(h ^ x.rotate_left(23)).next_u64()
}

/// Order-sensitive fold of splitters, per-rank counts and the final vector.
fn partition_checksum(splitters: &[SfcKey], counts: &[u64], x: &DistVec<f64>) -> u64 {
    let mut h = 0x6265_6e63_686d_6172; // "benchmar"
    for s in splitters {
        h = mix(h, (s.path() >> 64) as u64);
        h = mix(h, s.path() as u64);
        h = mix(h, s.level() as u64);
    }
    for &c in counts {
        h = mix(h, c);
    }
    for part in x.parts() {
        for v in part {
            h = mix(h, v.to_bits());
        }
    }
    h
}

/// `matvecs` Laplacian matvecs from the driver's initial vector, one span
/// each. Returns the final vector and the ghost elements moved.
fn matvec_loop(
    engine: &mut Engine,
    mesh: &DistMesh<3>,
    mut x: DistVec<f64>,
    matvecs: usize,
    rec: &mut Recorder,
) -> (DistVec<f64>, u64) {
    let mut ghosts = 0;
    for _ in 0..matvecs {
        let s = rec.begin("fem", "laplacian_matvec");
        let (y, stats) = laplacian_matvec(engine, mesh, &mut x);
        rec.end(s);
        ghosts += stats.ghost_elements;
        x = y;
    }
    (x, ghosts)
}

/// One iteration of `cold_partition` or `many_ranks`: points → octree →
/// shuffled distribution → partition → ghost build → matvecs.
fn partition_iteration(inp: &Inputs, rec: &mut Recorder, instrumented: bool) -> (IterOut, Engine) {
    let curve = inp.curve();
    let s = rec.begin("octree", "tree_from_points");
    let tree = inp.tree();
    rec.end(s);
    let s = rec.begin("mpisim", "Engine::new");
    let mut engine = inp.engine(instrumented);
    rec.end(s);
    let s = rec.begin("core", "distribute_shuffled");
    let dist = distribute_shuffled(&tree, inp.p(), inp.seed);
    rec.end(s);

    let a0 = allocs();
    let out: PartitionOutcome<3> = if inp.kind == Kind::ColdPartition {
        let s = rec.begin("core", "optipart");
        let out = optipart(&mut engine, dist, OptiPartOptions::for_curve(curve));
        rec.end(s);
        out
    } else {
        let s = rec.begin("core", "treesort_partition");
        let out = treesort_partition(&mut engine, dist, PartitionOptions::with_tolerance(0.3));
        rec.end(s);
        out
    };
    let partition_allocs = allocs() - a0;

    let a0 = allocs();
    let s = rec.begin("fem", "DistMesh::build");
    let mesh = DistMesh::build(&mut engine, out.dist, curve);
    rec.end(s);
    let ghost_build_allocs = allocs() - a0;

    let matvecs = match inp.kind {
        Kind::ColdPartition => inp.sizes.matvecs_cold,
        _ => inp.sizes.matvecs_many,
    };
    let a0 = allocs();
    let s = rec.begin("fem", "initial_vector");
    let x = initial_vector(&mesh);
    rec.end(s);
    let (x, ghost_elements) = matvec_loop(&mut engine, &mesh, x, matvecs, rec);
    let matvec_allocs = allocs() - a0;

    let s = rec.begin("machine", "energy_report");
    let energy_j = engine.energy_report().total_j;
    rec.end(s);

    let counts = out.report.counts.clone();
    let checksum = partition_checksum(&out.splitters, &counts, &x);
    let facts = Facts {
        leaves: tree.len() as u64,
        warm: WarmStats {
            // A cold `optipart` call is one cold ladder; TreeSort has none.
            colds: (inp.kind == Kind::ColdPartition) as u64,
            ..WarmStats::default()
        },
        report: Some(out.report),
        ghost_elements,
        sync_points: engine.sync_points(),
        bytes_total: engine.stats().bytes_total,
        partition_allocs,
        ghost_build_allocs,
        matvec_allocs,
        matvecs: matvecs as u64,
    };
    let out = IterOut {
        checksum,
        makespan_s: engine.makespan(),
        energy_j,
        splitters: out.splitters,
        counts,
        facts,
    };
    (out, engine)
}

/// Fold of everything `AmrReport` carries — the fields the decomposed loop
/// must reproduce bit for bit.
struct AmrFold(u64);

impl AmrFold {
    fn new() -> AmrFold {
        AmrFold(0x616d_725f_736f_6c76) // "amr_solv"
    }

    fn step(&mut self, elements: usize, migrated: u64, lambda: f64, seconds: f64) {
        for x in [
            elements as u64,
            migrated,
            lambda.to_bits(),
            seconds.to_bits(),
        ] {
            self.0 = mix(self.0, x);
        }
    }

    fn finish(mut self, total_s: f64, energy_j: f64, ghosts: u64, warm: WarmStats) -> u64 {
        for x in [
            total_s.to_bits(),
            energy_j.to_bits(),
            ghosts,
            warm.hits,
            warm.replays,
            warm.colds,
        ] {
            self.0 = mix(self.0, x);
        }
        self.0
    }
}

/// One iteration of `amr_solve` as its users run it: `amr_simulation`.
fn amr_iteration(inp: &Inputs, rec: &mut Recorder) -> (IterOut, Engine) {
    let s = rec.begin("mpisim", "Engine::new");
    let mut engine = inp.engine(false);
    rec.end(s);
    let s = rec.begin("fem", "amr_simulation");
    let rep = amr_simulation(&mut engine, &inp.sizes.amr);
    rec.end(s);
    let mut fold = AmrFold::new();
    for st in &rep.steps {
        fold.step(st.elements, st.migrated, st.lambda, st.seconds);
    }
    let out = IterOut {
        checksum: fold.finish(
            rep.total_seconds,
            rep.total_energy_j,
            rep.total_ghosts,
            rep.warm,
        ),
        makespan_s: rep.total_seconds,
        energy_j: rep.total_energy_j,
        splitters: Vec::new(),
        counts: Vec::new(),
        facts: Facts {
            leaves: rep.steps.last().map_or(0, |s| s.elements as u64),
            warm: rep.warm,
            ghost_elements: rep.total_ghosts,
            sync_points: engine.sync_points(),
            bytes_total: engine.stats().bytes_total,
            matvecs: (inp.sizes.amr.steps * inp.sizes.amr.matvecs_per_step) as u64,
            ..Facts::default()
        },
    };
    (out, engine)
}

/// `amr_simulation` taken apart into its public pieces, one span per call,
/// in the same order on the same engine — so the virtual clock, the energy
/// and every per-step figure must come out bit-identical to the real thing
/// (the traced run checks that they do).
fn amr_iteration_decomposed(
    inp: &Inputs,
    rec: &mut Recorder,
    instrumented: bool,
) -> (IterOut, Engine) {
    let cfg = &inp.sizes.amr;
    let s = rec.begin("mpisim", "Engine::new");
    let mut engine = inp.engine(instrumented);
    rec.end(s);
    let p = engine.p();
    engine.reset();
    let mut state = PartitionState::with_cap(cfg.state_cap);
    let mut prev: Option<Vec<SfcKey>> = None;
    let mut fold = AmrFold::new();
    let mut facts = Facts::default();
    let mut energy_j = 0.0;

    for t in 0..cfg.steps {
        let t_start = engine.makespan();
        let s = rec.begin("octree", "step_mesh");
        let tree = step_mesh(t, cfg);
        rec.end(s);
        let n = tree.len();

        let s = rec.begin("fem", "redistribute");
        let input: DistVec<KeyedCell<3>> = match &prev {
            None => DistVec::from_global(tree.leaves(), p),
            Some(sp) => {
                let mut parts: Vec<Vec<KeyedCell<3>>> = (0..p).map(|_| Vec::new()).collect();
                for kc in tree.leaves() {
                    parts[owner_of(sp, &kc.key)].push(*kc);
                }
                DistVec::from_parts(parts)
            }
        };
        rec.end(s);

        let a0 = allocs();
        let s = rec.begin("core", "optipart_with_state");
        let out = engine.phase("amr.partition", |e| {
            optipart_with_state(e, input, OptiPartOptions::for_curve(cfg.curve), &mut state)
        });
        rec.end(s);
        facts.partition_allocs += allocs() - a0;

        let s = rec.begin("fem", "migration_count");
        let mut migrated = 0u64;
        let mut idx = 0usize;
        for (r, buf) in out.dist.parts().iter().enumerate() {
            for kc in buf {
                let was = match &prev {
                    None => (idx * p / n.max(1)).min(p - 1),
                    Some(sp) => owner_of(sp, &kc.key),
                };
                migrated += (was != r) as u64;
                idx += 1;
            }
        }
        rec.end(s);

        let a0 = allocs();
        let s = rec.begin("fem", "DistMesh::build");
        let mesh = engine.phase("amr.mesh", |e| DistMesh::build(e, out.dist, cfg.curve));
        rec.end(s);
        facts.ghost_build_allocs += allocs() - a0;

        let a0 = allocs();
        let x = DistVec::from_parts(mesh.cells.counts().iter().map(|&c| vec![1.0; c]).collect());
        let (_, ghosts) = matvec_loop(&mut engine, &mesh, x, cfg.matvecs_per_step, rec);
        facts.matvec_allocs += allocs() - a0;
        facts.ghost_elements += ghosts;

        let s = rec.begin("machine", "energy_report");
        energy_j = engine.energy_report().total_j;
        rec.end(s);
        engine.trace_decision(
            "amr.step",
            &[
                ("step", t as f64),
                ("elements", n as f64),
                ("migrated", migrated as f64),
                ("lambda", out.report.lambda),
            ],
        );
        fold.step(n, migrated, out.report.lambda, engine.makespan() - t_start);
        facts.leaves = n as u64;
        facts.report = Some(out.report);
        prev = Some(out.splitters);
    }

    facts.warm = state.stats;
    facts.sync_points = engine.sync_points();
    facts.bytes_total = engine.stats().bytes_total;
    facts.matvecs = (cfg.steps * cfg.matvecs_per_step) as u64;
    let out = IterOut {
        checksum: fold.finish(
            engine.makespan(),
            energy_j,
            facts.ghost_elements,
            state.stats,
        ),
        makespan_s: engine.makespan(),
        energy_j,
        splitters: Vec::new(),
        counts: Vec::new(),
        facts,
    };
    (out, engine)
}

/// One whole iteration under an `iteration` root span.
fn iterate(inp: &Inputs, rec: &mut Recorder, iter: u32) -> IterOut {
    rec.set_iter(iter);
    let root = rec.begin("harness", "iteration");
    let (out, engine) = match inp.kind {
        Kind::AmrSolve if rec.enabled() => amr_iteration_decomposed(inp, rec, false),
        Kind::AmrSolve => amr_iteration(inp, rec),
        _ => partition_iteration(inp, rec, false),
    };
    drop(engine);
    rec.end(root);
    out
}

/// Checks the warm-up iteration's outputs against the inputs, independently
/// of the code that produced them. Returns the problems found.
fn verify(inp: &Inputs, out: &IterOut) -> Vec<String> {
    let mut bad = Vec::new();
    if !(out.makespan_s.is_finite() && out.makespan_s > 0.0) {
        bad.push(format!(
            "virtual makespan {} is not positive",
            out.makespan_s
        ));
    }
    if !(out.energy_j.is_finite() && out.energy_j > 0.0) {
        bad.push(format!("energy {} is not positive", out.energy_j));
    }
    if inp.kind == Kind::AmrSolve {
        let steps = inp.sizes.amr.steps as u64;
        let w = out.facts.warm;
        if (w.colds, w.replays + w.hits) != (1, steps - 1) {
            bad.push(format!(
                "expected 1 cold + {} warm steps, got {w:?}",
                steps - 1
            ));
        }
        return bad;
    }
    let tree = inp.tree();
    audit_splitters(&out.splitters, tree.len(), inp.p());
    let mut counts = vec![0u64; inp.p()];
    for kc in tree.leaves() {
        counts[owner_of(&out.splitters, &kc.key)] += 1;
    }
    if counts != out.counts {
        bad.push("per-rank counts do not match the splitters".to_string());
    }
    if out.counts.iter().sum::<u64>() != tree.len() as u64 {
        bad.push("elements were lost or duplicated".to_string());
    }
    bad
}

/// Result of the end-to-end (untraced) run of a batch workload.
pub struct E2e {
    pub setup_s: f64,
    pub walls_s: Vec<f64>,
    pub makespan_s: f64,
    pub energy_j: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Set-up (input generation + one warm-up iteration, which also yields the
/// reference checksum), then timed iterations until `seconds` have passed
/// (at least three).
pub fn run_e2e(kind: Kind, sizes: Sizes, seed: u64, seconds: f64) -> E2e {
    let mut rec = Recorder::off();
    let t0 = Instant::now();
    let inp = Inputs::generate(kind, sizes, seed);
    let reference = iterate(&inp, &mut rec, 0);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut problems = verify(&inp, &reference);
    let mut failed = !problems.is_empty() as u64;
    let mut walls_s = Vec::new();
    let start = Instant::now();
    while walls_s.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = iterate(&inp, &mut rec, walls_s.len() as u32 + 1);
        walls_s.push(t.elapsed().as_secs_f64());
        if !out.same_as(&reference) {
            failed += 1;
            problems.push(format!(
                "iteration {}: checksum {:#x} differs from the reference {:#x}",
                walls_s.len(),
                out.checksum,
                reference.checksum
            ));
        }
    }
    E2e {
        setup_s,
        attempted: walls_s.len() as u64 + 1,
        walls_s,
        makespan_s: reference.makespan_s,
        energy_j: reference.energy_j,
        failed,
        problems,
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The traced run: a warm-up (the reference), untraced and span-traced
/// iterations in turn, one iteration with the library's own tracing on, then
/// single-layer probes on the same inputs.
pub fn run_traced(kind: Kind, sizes: Sizes, seed: u64) -> Traced {
    let inp = Inputs::generate(kind, sizes, seed);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();

    // Warm-up, then two untraced and two traced iterations. Tracing
    // overhead is the ratio of the faster of each pair, and the ledger is
    // read off the faster traced one: a stall of the host lands in one
    // iteration, rarely in both.
    let mut off = Recorder::off();
    let base = iterate(&inp, &mut off, 0);
    problems.extend(verify(&inp, &base));
    let mut rec = Recorder::on();
    let (mut untraced_wall, mut traced_wall, mut best) = (f64::INFINITY, f64::INFINITY, 1);
    let mut traced = None;
    for i in 1..=2 {
        let t = Instant::now();
        let plain = iterate(&inp, &mut off, 0);
        untraced_wall = untraced_wall.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let out = iterate(&inp, &mut rec, i);
        let wall = t.elapsed().as_secs_f64();
        for (what, o) in [("untraced", &plain), ("traced", &out)] {
            if !o.same_as(&base) {
                problems.push(format!(
                    "{what} iteration {i} differs from the reference: makespan {} vs {}, checksum {:#x} vs {:#x}",
                    o.makespan_s, base.makespan_s, o.checksum, base.checksum
                ));
            }
        }
        if wall < traced_wall {
            (traced_wall, best) = (wall, i);
            traced = Some(out);
        }
    }
    let traced = traced.expect("two traced iterations ran");
    if kind == Kind::AmrSolve && (traced_wall / untraced_wall - 1.0).abs() > 0.10 {
        problems.push(format!(
            "decomposed amr loop took {traced_wall:.3} s against {untraced_wall:.3} s for amr_simulation (more than 10 % apart)"
        ));
    }

    spans::insert_ledger(&mut m, rec.spans(), best, "iteration");
    m.insert("ledger.traced_over_untraced", traced_wall / untraced_wall);

    let named = |name: &str| spans::total_named(rec.spans(), best, name);
    let f = &traced.facts;
    let leaves = f.leaves as f64;
    let partition_s =
        named("optipart") + named("treesort_partition") + named("optipart_with_state");
    m.insert("octree.build_s", named("tree_from_points"));
    m.insert("octree.remesh_s", named("step_mesh"));
    m.insert("octree.leaves", leaves);
    m.insert("core.partition_s", partition_s);
    m.insert("core.partition_allocs", f.partition_allocs as f64);
    m.insert("mpisim.engine_new_s", named("Engine::new"));
    m.insert("mpisim.sync_points", f.sync_points as f64);
    m.insert("mpisim.bytes_total", f.bytes_total as f64);
    m.insert("fem.ghost_build_s", named("DistMesh::build"));
    // amr_solve builds one ghost layer per step: per element of all of them.
    let built = if kind == Kind::AmrSolve {
        leaves * sizes.amr.steps as f64
    } else {
        leaves
    };
    m.insert(
        "fem.ghost_build_ns_per_elem",
        named("DistMesh::build") * 1e9 / built,
    );
    m.insert("fem.ghost_build_allocs", f.ghost_build_allocs as f64);
    m.insert("fem.ghost_elements", f.ghost_elements as f64);
    m.insert("fem.matvec_s", named("laplacian_matvec"));
    m.insert(
        "fem.matvec_ns_per_elem",
        named("laplacian_matvec") * 1e9 / (leaves * f.matvecs as f64),
    );
    m.insert(
        "fem.matvec_allocs_per_iter",
        f.matvec_allocs as f64 / f.matvecs as f64,
    );
    m.insert("fem.redistribute_s", named("redistribute"));
    m.insert("machine.energy_report_s", named("energy_report"));
    m.insert("core.warm_hits", f.warm.hits as f64);
    m.insert("core.warm_replays", f.warm.replays as f64);
    m.insert("core.warm_colds", f.warm.colds as f64);
    let report = f
        .report
        .as_ref()
        .expect("traced iterations keep the report");
    m.insert("core.ladder_rounds", report.rounds as f64);
    m.insert("core.achieved_tolerance", report.achieved_tolerance);
    m.insert("core.lambda", report.lambda);
    m.insert("core.wmax", report.wmax as f64);
    m.insert("core.cmax", report.cmax as f64);
    m.insert("machine.predicted_tp_s", report.predicted_tp);

    // The library's own tracing: what it costs when on, and its counts.
    let t = Instant::now();
    let (instr, engine) = match kind {
        Kind::AmrSolve => amr_iteration_decomposed(&inp, &mut off, true),
        _ => partition_iteration(&inp, &mut off, true),
    };
    let instrumented_wall = t.elapsed().as_secs_f64();
    if instr.makespan_s.to_bits() != base.makespan_s.to_bits() {
        problems.push("engine tracing changed the virtual makespan".to_string());
    }
    m.insert("trace.overhead_ratio", instrumented_wall / untraced_wall);
    let tracer = engine.tracer();
    let events = tracer.spans().iter().map(Vec::len).sum::<usize>() + tracer.syncs().len();
    m.insert("trace.events", events as f64);
    let t = Instant::now();
    let json = engine.trace_json();
    m.insert("trace.export_s", t.elapsed().as_secs_f64());
    black_box(json.len());
    m.insert(
        "mpisim.comm_nnz",
        engine.comm_matrix().map_or(0, |c| c.nnz()) as f64,
    );
    drop((json, engine));

    probes(&inp, &base, partition_s, &mut m);

    Traced {
        metrics: m,
        recorder: rec,
        attempted: 6,
        failed: !problems.is_empty() as u64,
        problems,
    }
}

/// Single-layer probes on the workload's own data, each on a fresh engine.
fn probes(inp: &Inputs, base: &IterOut, partition_s: f64, m: &mut BTreeMap<&'static str, f64>) {
    let curve = inp.curve();
    let p = inp.p();
    // The mesh the workload partitions: the point-cloud octree, or for
    // amr_solve the last step's mesh (whose splitters the probes lack, so
    // the exchange and quality probes use an exact partition's instead).
    let tree = match inp.kind {
        Kind::AmrSolve => step_mesh(inp.sizes.amr.steps - 1, &inp.sizes.amr),
        _ => inp.tree(),
    };
    let n = tree.len() as f64;
    let shuffled = || distribute_shuffled(&tree, p, inp.seed);

    // sfc: key generation over the workload's cells, both curves. Small
    // meshes are keyed repeatedly so the timed loop lasts milliseconds.
    let reps = (200_000 / tree.len()).max(1);
    for (name, c) in [
        ("sfc.keygen_hilbert_ns_per_key", Curve::Hilbert),
        ("sfc.keygen_morton_ns_per_key", Curve::Morton),
    ] {
        let t = secs(|| {
            for _ in 0..reps {
                for kc in tree.leaves() {
                    black_box(SfcKey::of(black_box(&kc.cell), c));
                }
            }
        });
        m.insert(name, t * 1e9 / (n * reps as f64));
    }

    // core: local TreeSort of the shuffled leaves, on this thread.
    let mut local = distribute_shuffled(&tree, 1, inp.seed)
        .into_parts()
        .remove(0);
    let t = secs(|| treesort(black_box(&mut local[..])));
    m.insert("core.local_treesort_ns_per_elem", t * 1e9 / n);

    // core: the exact (tolerance 0) TreeSort partition of the same input.
    let mut engine = Engine::new(p, inp.perf());
    let mut exact = None;
    let t = secs(|| {
        exact = Some(treesort_partition(
            &mut engine,
            shuffled(),
            PartitionOptions::exact(),
        ))
    });
    let exact = exact.expect("just computed");
    m.insert("core.partition_exact_s", t);
    // For amr_solve `partition_s` sums all steps; compare per partition call.
    let calls = if inp.kind == Kind::AmrSolve {
        inp.sizes.amr.steps as f64
    } else {
        1.0
    };
    m.insert("core.ladder_over_exact_ratio", partition_s / calls / t);

    let splitters = if base.splitters.is_empty() {
        &exact.splitters
    } else {
        &base.splitters
    };

    // core: one Algorithm 2 pass on the final splitters.
    let mut engine = Engine::new(p, inp.perf());
    let mut dist = shuffled();
    let t = secs(|| {
        black_box(partition_quality(&mut engine, &mut dist, splitters, curve));
    });
    m.insert("core.quality_s", t);
    m.insert("core.quality_ns_per_elem", t * 1e9 / n);

    // mpisim: the data exchange alone — shuffled input to its final owners.
    let mut engine = Engine::new(p, inp.perf());
    let send = shuffled().into_parts();
    let t = secs(|| {
        black_box(engine.alltoallv_by(
            send,
            |_, kc: &KeyedCell<3>| owner_of(splitters, &kc.key),
            AllToAllAlgo::Hypercube,
        ));
    });
    m.insert("mpisim.exchange_s", t);

    // mpisim: a 6-neighbour halo-shaped exchange at the workload's p over a
    // reused arena; median of the steady-state rounds.
    let mut engine = Engine::new(p, inp.perf());
    let mut arena: AlltoallvArena<f64> = AlltoallvArena::new();
    let mut rounds = Vec::new();
    for round in 0..12 {
        let t = secs(|| {
            for r in 0..p {
                for d in [1, 2, 3, p - 1, p - 2, p - 3] {
                    let dst = (r + d) % p;
                    if dst != r {
                        arena.send(r, dst, (0..64).map(|i| (r + i) as f64));
                    }
                }
            }
            engine.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        });
        if round >= 2 {
            rounds.push(t);
        }
    }
    m.insert("mpisim.alltoallv_6nbr_s", stats::median(&rounds));
}
