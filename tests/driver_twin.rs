//! A tier-1 twin of the end-to-end benchmark's output surface.
//!
//! `benchmark/` judges every run by values it recomputes each iteration:
//! the virtual makespan and the energy, to the last bit, and a checksum
//! folded from the splitters, the per-rank counts and the final vector (or,
//! for `amr_solve`, from every per-step figure `amr_simulation` reports).
//! This file makes the same facade calls as `benchmark/src/batch.rs` and
//! `benchmark/src/serve.rs`, with the same fold, and pins what comes out,
//! so a change that moves any of those outputs fails here before the
//! benchmark ever runs.
//!
//! The tier-1 tests use the benchmark's `--smoke` sizes. Each pipeline runs
//! twice and both runs must agree; `amr_solve` additionally runs its public
//! decomposition on a plain and on a tracing engine, and both must equal
//! `amr_simulation` to the last bit (the benchmark's traced run requires
//! the same). The `#[ignore]`d test runs the full sizes and prints the
//! values the benchmark prints, for a cross-check by hand:
//!
//! ```text
//! cargo test --release --offline --test driver_twin -- --ignored --nocapture
//! ```

use optipart::core::optipart::{optipart, optipart_with_state, OptiPartOptions, PartitionState};
use optipart::core::partition::{
    audit_splitters, distribute_shuffled, owner_of, treesort_partition, PartitionOptions,
};
use optipart::fem::amr::step_mesh;
use optipart::fem::{
    amr_simulation, initial_vector, laplacian_matvec, AmrConfig, DistMesh, Strategy,
};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::rng::SplitMix64;
use optipart::mpisim::{DistVec, Engine, FaultPlan};
use optipart::octree::{sample_points, tree_from_points, Distribution};
use optipart::scenario::Scenario;
use optipart::serve::run_request;
use optipart::sfc::{Curve, KeyedCell, SfcKey};

/// The benchmark's fixed point-cloud seed (`cold_partition`, `many_ranks`).
const MESH_SEED: u64 = 20170626;
/// First seed of `serve_hot`'s hot set.
const HOT_BASE: u64 = 0x0B7A_0000;
/// The benchmark's default `--seed`.
const SEED: u64 = 1;

/// The benchmark's problem sizes (`Sizes::new` in `benchmark/src/batch.rs`).
struct Sizes {
    points: usize,
    p_cold: usize,
    matvecs_cold: usize,
    p_many: usize,
    matvecs_many: usize,
    amr: AmrConfig,
    p_amr: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        Sizes {
            points: if smoke { 2_000 } else { 50_000 },
            p_cold: if smoke { 8 } else { 64 },
            matvecs_cold: 20,
            p_many: if smoke { 128 } else { 4096 },
            matvecs_many: if smoke { 4 } else { 40 },
            amr: AmrConfig {
                steps: if smoke { 3 } else { 10 },
                max_level: if smoke { 4 } else { 6 },
                matvecs_per_step: if smoke { 5 } else { 100 },
                strategy: Strategy::OptiPart,
                curve: Curve::Hilbert,
                warm_start: true,
                ..AmrConfig::default()
            },
            p_amr: if smoke { 8 } else { 64 },
        }
    }
}

/// What the benchmark compares between iterations, to the last bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    makespan_bits: u64,
    energy_bits: u64,
    checksum: u64,
}

impl Pin {
    fn new(makespan_s: f64, energy_j: f64, checksum: u64) -> Pin {
        Pin {
            makespan_bits: makespan_s.to_bits(),
            energy_bits: energy_j.to_bits(),
            checksum,
        }
    }
}

fn mix(h: u64, x: u64) -> u64 {
    SplitMix64::new(h ^ x.rotate_left(23)).next_u64()
}

/// The benchmark's order-sensitive fold of splitters, counts and the final
/// vector.
fn partition_checksum(splitters: &[SfcKey], counts: &[u64], x: &DistVec<f64>) -> u64 {
    let mut h = 0x6265_6e63_686d_6172;
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

/// The benchmark's fold of an AMR run: every step's elements, migration,
/// λ and seconds, then the totals and the warm-start counters.
struct AmrFold(u64);

impl AmrFold {
    fn new() -> AmrFold {
        AmrFold(0x616d_725f_736f_6c76)
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

    fn finish(mut self, total_s: f64, energy_j: f64, ghosts: u64, warm: [u64; 3]) -> u64 {
        for x in [total_s.to_bits(), energy_j.to_bits(), ghosts]
            .into_iter()
            .chain(warm)
        {
            self.0 = mix(self.0, x);
        }
        self.0
    }
}

fn perf(machine: MachineModel) -> PerfModel {
    PerfModel::new(machine, AppModel::laplacian_matvec())
}

/// `matvecs` Laplacian matvecs from `x`; returns the final vector and the
/// ghost elements moved.
fn matvecs(
    engine: &mut Engine,
    mesh: &DistMesh<3>,
    mut x: DistVec<f64>,
    n: usize,
) -> (DistVec<f64>, u64) {
    let mut ghosts = 0;
    for _ in 0..n {
        let (y, stats) = laplacian_matvec(engine, mesh, &mut x);
        ghosts += stats.ghost_elements;
        x = y;
    }
    (x, ghosts)
}

#[derive(Clone, Copy, PartialEq)]
enum Batch {
    Cold,
    Many,
}

/// One iteration of `cold_partition` or `many_ranks`: points → octree →
/// shuffled distribution → partition → ghost build → matvecs. Also checks
/// what the benchmark's `verify` checks: the splitters pass their audit and
/// the counts recounted from them match.
fn partition_pipeline(sizes: &Sizes, kind: Batch, instrumented: bool) -> Pin {
    let (curve, p, machine, nmv) = match kind {
        Batch::Cold => (
            Curve::Hilbert,
            sizes.p_cold,
            MachineModel::cloudlab_wisconsin(),
            sizes.matvecs_cold,
        ),
        Batch::Many => (
            Curve::Morton,
            sizes.p_many,
            MachineModel::titan(),
            sizes.matvecs_many,
        ),
    };
    let points = sample_points::<3>(Distribution::Normal, sizes.points, MESH_SEED);
    let tree = tree_from_points(&points, 1, 30, curve);
    let mut engine = Engine::new(p, perf(machine));
    if instrumented {
        engine = engine.with_tracing().record_comm_matrix();
    }
    let dist = distribute_shuffled(&tree, p, SEED);
    let out = match kind {
        Batch::Cold => optipart(&mut engine, dist, OptiPartOptions::for_curve(curve)),
        Batch::Many => treesort_partition(&mut engine, dist, PartitionOptions::with_tolerance(0.3)),
    };
    let mesh = DistMesh::build(&mut engine, out.dist, curve);
    let x = initial_vector(&mesh);
    let (x, _) = matvecs(&mut engine, &mesh, x, nmv);
    let energy_j = engine.energy_report().total_j;
    let counts = out.report.counts.clone();

    audit_splitters(&out.splitters, tree.len(), p);
    let mut recount = vec![0u64; p];
    for kc in tree.leaves() {
        recount[owner_of(&out.splitters, &kc.key)] += 1;
    }
    assert_eq!(
        recount, counts,
        "per-rank counts do not match the splitters"
    );

    Pin::new(
        engine.makespan(),
        energy_j,
        partition_checksum(&out.splitters, &counts, &x),
    )
}

fn amr_engine(sizes: &Sizes, instrumented: bool) -> Engine {
    let mut e = Engine::new(sizes.p_amr, perf(MachineModel::cloudlab_clemson()))
        .with_faults(FaultPlan::new(SEED).with_tw_jitter(0.01));
    if instrumented {
        e = e.with_tracing().record_comm_matrix();
    }
    e
}

/// `amr_solve` as its users run it: `amr_simulation`. Returns the pin and
/// the warm-start counters.
fn amr_pipeline(sizes: &Sizes) -> (Pin, [u64; 3]) {
    let mut engine = amr_engine(sizes, false);
    let rep = amr_simulation(&mut engine, &sizes.amr);
    let mut fold = AmrFold::new();
    for st in &rep.steps {
        fold.step(st.elements, st.migrated, st.lambda, st.seconds);
    }
    let warm = [rep.warm.hits, rep.warm.replays, rep.warm.colds];
    let checksum = fold.finish(
        rep.total_seconds,
        rep.total_energy_j,
        rep.total_ghosts,
        warm,
    );
    (
        Pin::new(rep.total_seconds, rep.total_energy_j, checksum),
        warm,
    )
}

/// `amr_simulation` taken apart into its public pieces, in the benchmark's
/// order: `step_mesh` → redistribution by `owner_of` →
/// `optipart_with_state` → `DistMesh::build` → matvecs.
fn amr_decomposed(sizes: &Sizes, instrumented: bool) -> (Pin, [u64; 3]) {
    let cfg = &sizes.amr;
    let mut engine = amr_engine(sizes, instrumented);
    let p = engine.p();
    engine.reset();
    let mut state = PartitionState::with_cap(cfg.state_cap);
    let mut prev: Option<Vec<SfcKey>> = None;
    let mut fold = AmrFold::new();
    let (mut energy_j, mut ghost_total) = (0.0, 0);
    for t in 0..cfg.steps {
        let t_start = engine.makespan();
        let tree = step_mesh(t, cfg);
        let n = tree.len();
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
        let out = engine.phase("amr.partition", |e| {
            optipart_with_state(e, input, OptiPartOptions::for_curve(cfg.curve), &mut state)
        });
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
        let mesh = engine.phase("amr.mesh", |e| DistMesh::build(e, out.dist, cfg.curve));
        let x = DistVec::from_parts(mesh.cells.counts().iter().map(|&c| vec![1.0; c]).collect());
        let (_, ghosts) = matvecs(&mut engine, &mesh, x, cfg.matvecs_per_step);
        ghost_total += ghosts;
        energy_j = engine.energy_report().total_j;
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
        prev = Some(out.splitters);
    }
    let w = state.stats;
    let warm = [w.hits, w.replays, w.colds];
    let checksum = fold.finish(engine.makespan(), energy_j, ghost_total, warm);
    (Pin::new(engine.makespan(), energy_j, checksum), warm)
}

/// The first `n` scenarios of `serve_hot`'s hot set, faults off.
fn hot_set(n: u64) -> Vec<Scenario> {
    (0..n)
        .map(|i| {
            let mut scn = Scenario::from_seed(HOT_BASE + i);
            scn.faults = None;
            scn
        })
        .collect()
}

/// `run_request` on a fresh engine and state (the cold pass the benchmark
/// takes its references from), then again on the primed state (the hit).
/// Each pass contributes its makespan, its energy and the payload's `sig`.
fn serve_pipeline(scenarios: &[Scenario]) -> Vec<[Pin; 2]> {
    scenarios
        .iter()
        .map(|scn| {
            let mut engine = scn.engine_faulted();
            let mut state = PartitionState::new();
            let mut pass = || {
                let (payload, makespan_s) = run_request(&mut engine, &mut state, scn);
                Pin::new(makespan_s, engine.energy_report().total_j, payload.sig)
            };
            let cold = pass();
            let hit = pass();
            [cold, hit]
        })
        .collect()
}

/// One `u64` over a list of pins: the serve pin covers 16 passes.
fn digest<'a>(pins: impl IntoIterator<Item = &'a Pin>) -> u64 {
    pins.into_iter().fold(0x7477_696e, |h, p| {
        mix(mix(mix(h, p.makespan_bits), p.energy_bits), p.checksum)
    })
}

/// Runs `f` twice and requires both runs to agree to the last bit.
fn twice<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) -> T {
    let first = f();
    assert_eq!(first, f(), "{what}: a second run differs from the first");
    first
}

#[test]
fn cold_partition_smoke_is_pinned() {
    let sizes = Sizes::new(true);
    let pin = twice("cold_partition", || {
        partition_pipeline(&sizes, Batch::Cold, false)
    });
    assert_eq!(
        partition_pipeline(&sizes, Batch::Cold, true),
        pin,
        "engine tracing moved the cold_partition outputs"
    );
    assert_eq!(
        pin,
        Pin {
            makespan_bits: 0x3f88_34f1_1d58_9111,
            energy_bits: 0x3ff7_34e0_1f3b_7bac,
            checksum: 0x702c_09be_683d_9114,
        },
        "cold_partition outputs moved"
    );
}

#[test]
fn many_ranks_smoke_is_pinned() {
    let sizes = Sizes::new(true);
    let pin = twice("many_ranks", || {
        partition_pipeline(&sizes, Batch::Many, false)
    });
    assert_eq!(
        partition_pipeline(&sizes, Batch::Many, true),
        pin,
        "engine tracing moved the many_ranks outputs"
    );
    assert_eq!(
        pin,
        Pin {
            makespan_bits: 0x3f2f_68ff_ee5d_e01d,
            energy_bits: 0x3fd5_e093_e0e7_e3f5,
            checksum: 0x0882_001a_a88b_f021,
        },
        "many_ranks outputs moved"
    );
}

#[test]
fn amr_solve_smoke_is_pinned_and_decomposes_bit_for_bit() {
    let sizes = Sizes::new(true);
    let (pin, warm) = twice("amr_simulation", || amr_pipeline(&sizes));
    // One cold step, then warm ones (the benchmark's own check).
    assert_eq!(warm[2], 1, "cold steps: {warm:?}");
    assert_eq!(
        warm[0] + warm[1],
        sizes.amr.steps as u64 - 1,
        "warm steps: {warm:?}"
    );
    for instrumented in [false, true] {
        assert_eq!(
            amr_decomposed(&sizes, instrumented),
            (pin, warm),
            "the decomposed amr loop (tracing {instrumented}) differs from amr_simulation"
        );
    }
    assert_eq!(
        pin,
        Pin {
            makespan_bits: 0x3f92_f517_f34a_0312,
            energy_bits: 0x4004_ba48_1d02_c16c,
            checksum: 0xb610_10e1_62ff_3eb4,
        },
        "amr_solve outputs moved"
    );
}

#[test]
fn serve_hot_smoke_is_pinned() {
    let scenarios = hot_set(8);
    let pins = twice("serve_hot", || serve_pipeline(&scenarios));
    for (scn, [cold, hit]) in scenarios.iter().zip(&pins) {
        assert_eq!(
            cold.checksum, hit.checksum,
            "{scn:?}: a hit's sig differs from the cold pass"
        );
    }
    assert_eq!(
        digest(pins.iter().flatten()),
        0xd16b_ea0e_5fc6_01ef,
        "serve_hot outputs moved: {pins:?}"
    );
}

/// The benchmark's full sizes, pinned like the smoke sizes. Prints what
/// `benchmark --workload <name> --seed 1` prints as `virtual_makespan_s`
/// and `energy_j`.
#[test]
#[ignore = "full benchmark sizes: about 15 s in release"]
fn full_size_twin_is_pinned_and_decomposes_bit_for_bit() {
    let sizes = Sizes::new(false);
    let show = |name: &str, pin: &Pin| {
        println!(
            "{name}: virtual_makespan_s {} energy_j {} checksum {:#018x}",
            f64::from_bits(pin.makespan_bits),
            f64::from_bits(pin.energy_bits),
            pin.checksum
        )
    };
    let cold = twice("cold_partition", || {
        partition_pipeline(&sizes, Batch::Cold, false)
    });
    show("cold_partition", &cold);
    let many = twice("many_ranks", || {
        partition_pipeline(&sizes, Batch::Many, false)
    });
    show("many_ranks", &many);
    let (amr, warm) = twice("amr_simulation", || amr_pipeline(&sizes));
    show("amr_solve", &amr);
    assert_eq!(
        (warm[2], warm[0] + warm[1]),
        (1, sizes.amr.steps as u64 - 1)
    );
    assert_eq!(amr_decomposed(&sizes, true), (amr, warm));
    let serve = digest(serve_pipeline(&hot_set(48)).iter().flatten());
    println!("serve_hot (48 scenarios): digest {serve:#018x}");

    let expected = [
        Pin {
            makespan_bits: 0x3fb1_0372_c9f0_a9a9,
            energy_bits: 0x4036_6b0b_ad47_c454,
            checksum: 0x63bf_35d6_8f54_4978,
        },
        Pin {
            makespan_bits: 0x3f5d_4d84_6e9c_d2a4,
            energy_bits: 0x4054_305b_9dcb_74e9,
            checksum: 0x5008_83c6_317b_cc3b,
        },
        Pin {
            makespan_bits: 0x3fe9_55e3_161d_07aa,
            energy_bits: 0x4070_88a7_846b_7ad6,
            checksum: 0xece1_aaca_688f_cc32,
        },
    ];
    assert_eq!([cold, many, amr], expected, "full-size outputs moved");
    assert_eq!(
        serve, 0x1bc4_4d99_93f3_0b1e,
        "full-size serve_hot outputs moved"
    );
}
