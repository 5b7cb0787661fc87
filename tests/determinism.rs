//! Determinism: identical inputs produce bit-identical results across the
//! whole stack — the property that makes every figure regenerable.

use optipart::core::optipart::{optipart, OptiPartOptions};
use optipart::core::partition::{
    distribute_shuffled, distribute_tree, treesort_partition, PartitionOptions,
};
use optipart::fem::{laplacian_matvec, run_matvec_experiment, DistMesh};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::{DistVec, Engine};
use optipart::octree::{balance::balance21, MeshParams};
use optipart::sfc::Curve;
use optipart::trace::{chrome_trace_digest, fnv1a};

fn engine(p: usize) -> Engine {
    Engine::new(
        p,
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        ),
    )
}

#[test]
fn distribute_shuffled_permutation_is_pinned() {
    // The shuffle feeds every §4.2-class input (figures, oracles, bench
    // checksums), so its permutation is part of the identity surface: an
    // order-sensitive FNV-1a fold over the shuffled leaves' source indices,
    // per seed, recorded before the generator moved to `mpisim::rng`.
    let tree = MeshParams::normal(2_000, 79).build::<3>(Curve::Hilbert);
    for (seed, want) in [
        (0u64, 0x11a3_b57a_862c_bddcu64),
        (17, 0x3ff3_5347_40f7_49b6),
        (0xDEAD_BEEF_0BAD_F00D, 0x950e_524e_7509_163c),
    ] {
        let shuffled = distribute_shuffled(&tree, 7, seed).concat();
        assert_eq!(shuffled.len(), tree.len());
        let got = shuffled.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, kc| {
            let i = tree.leaves().binary_search(kc).expect("a leaf of the tree");
            (h ^ i as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            got, want,
            "seed {seed:#x}: permutation moved (got {got:#x})"
        );
    }
}

#[test]
fn mesh_build_and_matvec_are_pinned() {
    // Everything `DistMesh::build` + three chained matvecs leave behind on
    // a two-level machine, folded into one FNV-1a digest per (seed, p): the
    // result bits, per-rank clocks, the whole `RunStats`, the sync-point
    // count, the sorted comm-matrix entries and the Chrome-trace digest.
    // Observables only — ghost slot numbering is free to change, the order
    // couplings are summed in is not (it fixes the `f64` bits). The p = 1
    // pins date from before the fem exchanges moved onto the flat arena;
    // p = 7 and 64 were re-recorded when remote faces became one query per
    // owner, which ships fewer bytes and sums a straddling face's own-rank
    // couplings first (same coupling set on these balanced meshes).
    let machine =
        MachineModel::custom("pin-smp", 1.0 / 3.7e9, 25.0e-6, 1.0 / 0.04e9, 4).hierarchical_smp();
    let pins: [(u64, [u64; 3]); 3] = [
        (
            11,
            [
                0x059d_4d82_8195_ea77,
                0xae40_904f_4c70_9713,
                0x0f77_8d83_9af3_b988,
            ],
        ),
        (
            12,
            [
                0x1d50_ff5d_1197_5e4c,
                0x105e_195f_d0e1_5079,
                0x3a6c_4aa6_cd77_4f2a,
            ],
        ),
        (
            13,
            [
                0x288b_1f17_0181_57b5,
                0xb7e2_9b22_4755_47e6,
                0xb4e8_37ed_ed3c_0808,
            ],
        ),
    ];
    for (seed, want) in pins {
        let tree = balance21(&MeshParams::normal(1_200, seed).build::<3>(Curve::Hilbert));
        for (p, want) in [1usize, 7, 64].into_iter().zip(want) {
            let perf = PerfModel::new(machine.clone(), AppModel::laplacian_matvec());
            let mut e = Engine::new(p, perf).with_tracing().record_comm_matrix();
            let out = treesort_partition(
                &mut e,
                distribute_shuffled(&tree, p, seed),
                PartitionOptions::with_tolerance(0.1),
            );
            let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
            let mut x = DistVec::from_parts(
                (0..p)
                    .map(|r| {
                        let cells = mesh.cells.rank(r).iter();
                        cells
                            .map(|kc| {
                                let c = kc.cell.center_unit();
                                (c[0] * 5.0).sin() + c[1] * c[2]
                            })
                            .collect()
                    })
                    .collect(),
            );
            let mut ghosts = 0;
            for _ in 0..3 {
                let (y, stats) = laplacian_matvec(&mut e, &mesh, &mut x);
                ghosts += stats.ghost_elements;
                x = y;
            }
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let mut entries: Vec<_> = e.comm_matrix().expect("recording on").entries().collect();
            entries.sort_unstable();
            let footprint = format!(
                "{:?}",
                (
                    bits(&x.concat()),
                    bits(e.clocks()),
                    e.stats(),
                    e.sync_points(),
                    ghosts,
                    entries,
                    chrome_trace_digest(e.tracer()),
                )
            );
            let got = fnv1a(footprint.as_bytes());
            assert_eq!(
                got, want,
                "seed {seed}, p = {p}: footprint moved (got {got:#018x})"
            );
        }
    }
}

#[test]
fn partitioning_is_deterministic() {
    let run = || {
        let tree = MeshParams::normal(5_000, 77).build::<3>(Curve::Hilbert);
        let mut e = engine(16);
        let out = optipart(
            &mut e,
            distribute_tree(&tree, 16),
            OptiPartOptions::default(),
        );
        (
            out.splitters.clone(),
            out.report.counts.clone(),
            out.report.achieved_tolerance,
            e.makespan(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3, "virtual time must be exactly reproducible");
}

#[test]
fn matvec_experiment_is_deterministic() {
    let run = || {
        let tree = MeshParams::normal(3_000, 78).build::<3>(Curve::Morton);
        let mut e = engine(8);
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, 8),
            PartitionOptions::with_tolerance(0.2),
        );
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Morton);
        let rep = run_matvec_experiment(&mut e, &mesh, 7);
        (
            rep.seconds,
            rep.energy.total_j,
            rep.ghost_elements,
            rep.bytes_total,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn identical_across_worker_thread_counts() {
    // The fork–join helpers chunk contiguously and stitch in index order,
    // so the worker count can never leak into results: splitters, stats
    // and every per-rank virtual clock are bit-identical at any
    // RAYON_NUM_THREADS.
    let run = || {
        let tree = MeshParams::normal(4_000, 80).build::<3>(Curve::Hilbert);
        let mut e = engine(12);
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, 12),
            PartitionOptions::with_tolerance(0.1),
        );
        (
            out.splitters.clone(),
            out.report.counts.clone(),
            e.clocks().to_vec(),
            e.stats().bytes_total,
            e.stats().msgs_total,
        )
    };
    let reference = run();
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            reference,
            run(),
            "divergence at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn trace_export_identical_across_worker_thread_counts() {
    // The tracer only mutates on the engine thread (after every fork–join),
    // so the full event stream — spans, syncs, decisions — and therefore
    // the serialised Chrome trace is byte-identical at any worker count.
    let run = || {
        let tree = MeshParams::normal(3_000, 90).build::<3>(Curve::Hilbert);
        let mut e = engine(8).with_tracing();
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, 8),
            PartitionOptions::with_tolerance(0.2),
        );
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
        run_matvec_experiment(&mut e, &mesh, 5);
        e.trace_json()
    };
    let reference = run();
    assert!(reference.contains("\"traceEvents\""));
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            reference,
            run(),
            "trace bytes diverged at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn fault_plans_replay_exactly() {
    // A fault plan is part of the seed: two engines with the same plan see
    // the same stragglers, the same link jitter and the same transient
    // failures, down to the last retry and clock tick.
    use optipart::mpisim::FaultPlan;
    let run = || {
        let tree = MeshParams::normal(3_000, 81).build::<3>(Curve::Morton);
        let plan = FaultPlan::new(4242)
            .with_stragglers(0.25, 5.0)
            .with_tw_jitter(0.3)
            .with_transient_failures(0.25);
        let mut e = engine(8).with_faults(plan);
        let out = treesort_partition(&mut e, distribute_tree(&tree, 8), PartitionOptions::exact());
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Morton);
        let rep = run_matvec_experiment(&mut e, &mesh, 5);
        (
            rep.seconds,
            rep.rank_clocks,
            rep.retries,
            rep.energy.total_j,
        )
    };
    let a = run();
    let b = run();
    assert!(a.2 > 0, "this plan should produce retries");
    assert_eq!(a, b, "fault schedule must replay bit-identically");
}

#[test]
fn different_machines_same_data_movement_semantics() {
    // Changing the machine model changes clocks/energy but never the data:
    // the partitioned cells under *equal-work* splitters are machine
    // independent (only OptiPart is architecture-aware).
    let tree = MeshParams::normal(4_000, 79).build::<3>(Curve::Hilbert);
    let mut outs = Vec::new();
    for machine in MachineModel::presets() {
        let mut e = Engine::new(12, PerfModel::new(machine, AppModel::laplacian_matvec()));
        let out = treesort_partition(
            &mut e,
            distribute_tree(&tree, 12),
            PartitionOptions::exact(),
        );
        outs.push(out.dist.concat());
    }
    assert!(outs.windows(2).all(|w| w[0] == w[1]));
}
