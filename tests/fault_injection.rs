//! Fault injection end-to-end: seeded fault plans perturb the *virtual
//! machine* (straggling ranks, jittered links, transient all-to-all
//! failures) while the always-on audits check that no collective ever loses
//! or duplicates data and no clock runs backwards. The partitioned data must
//! be bit-identical with faults on or off — faults cost time, never
//! correctness. OptiPart's stopping rule reads only the performance model,
//! never the clocks, so faults change what a partition costs but not the
//! tolerance it chooses.

use optipart::core::optipart::{optipart, OptiPartOptions};
use optipart::core::partition::{
    distribute_tree, treesort_partition, PartitionOptions, PartitionOutcome,
};
use optipart::fem::{run_matvec_experiment, DistMesh};
use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::{DistVec, Engine, FaultPlan};
use optipart::octree::MeshParams;
use optipart::sfc::{Curve, KeyedCell};

fn engine(p: usize) -> Engine {
    Engine::new(
        p,
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        ),
    )
}

/// A plan exercising all three fault channels at once.
fn stormy(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_stragglers(0.25, 4.0)
        .with_tw_jitter(0.4)
        .with_transient_failures(0.3)
        .with_retry_policy(4, 1e-4)
}

#[test]
fn faulted_run_is_bit_reproducible() {
    // Same fault seed ⇒ identical schedule of stragglers, jitter and
    // failures ⇒ bit-identical splitters, stats and clocks — across repeat
    // runs AND across worker thread counts.
    let run = || {
        let tree = MeshParams::normal(4_000, 81).build::<3>(Curve::Hilbert);
        let mut e = engine(12).with_faults(stormy(7));
        let out = optipart(
            &mut e,
            distribute_tree(&tree, 12),
            OptiPartOptions::default(),
        );
        (
            out.splitters.clone(),
            out.report.counts.clone(),
            e.makespan(),
            e.clocks().to_vec(),
            e.stats().retries_total,
            e.stats().audited_collectives,
        )
    };
    let reference = run();
    assert!(
        reference.4 > 0,
        "the stormy plan should trigger at least one retry"
    );
    assert!(reference.5 > 0, "audits must have run");
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let again = run();
        assert_eq!(
            reference, again,
            "divergence at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn traced_faulted_run_annotates_and_replays() {
    // Tracing a faulted run: the exported trace carries the fault
    // annotations (straggler marks at t=0, retry marks at each failed
    // alltoallv), its critical path is exactly the engine's makespan, and
    // the same seed reproduces the same bytes.
    let run = || {
        let tree = MeshParams::normal(3_000, 91).build::<3>(Curve::Hilbert);
        let mut e = engine(8).with_faults(stormy(7)).with_tracing();
        let out = treesort_partition(&mut e, distribute_tree(&tree, 8), PartitionOptions::exact());
        let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
        run_matvec_experiment(&mut e, &mesh, 5);
        let cp = e.critical_path();
        let makespan = e.makespan();
        assert!(
            (cp.covered_s() - makespan).abs() <= 1e-12 * makespan,
            "critical path ({}) must equal the virtual makespan ({})",
            cp.covered_s(),
            makespan
        );
        (e.trace_json(), makespan)
    };
    let (json, _) = run();
    assert!(
        json.contains("fault.straggler"),
        "straggler ranks must be annotated in the trace"
    );
    assert!(
        json.contains("fault.retry"),
        "transient-failure retries must be annotated in the trace"
    );
    let (json2, _) = run();
    assert_eq!(json, json2, "faulted trace must replay byte-identically");
}

#[test]
fn faults_cost_time_but_never_touch_data() {
    // TreeSort and OptiPart under the stormy plan: splitters, the exchanged
    // + sorted cells and every report field are bit-identical to the
    // fault-free run; only the virtual clock suffers. For OptiPart this
    // means the faults never moved the chosen tolerance.
    let tree = MeshParams::normal(5_000, 82).build::<3>(Curve::Hilbert);
    let p = 16;
    type Partitioner = fn(&mut Engine, DistVec<KeyedCell<3>>) -> PartitionOutcome<3>;
    let partitioners: [(&str, Partitioner); 2] = [
        ("treesort", |e, d| {
            treesort_partition(e, d, PartitionOptions::exact())
        }),
        ("optipart", |e, d| {
            optipart(e, d, OptiPartOptions::default())
        }),
    ];
    for (name, partition) in partitioners {
        let mut clean = engine(p);
        let out_clean = partition(&mut clean, distribute_tree(&tree, p));

        let mut faulty = engine(p).with_faults(stormy(11));
        let out_faulty = partition(&mut faulty, distribute_tree(&tree, p));

        assert_eq!(out_clean.splitters, out_faulty.splitters, "{name}");
        assert_eq!(out_clean.dist.concat(), out_faulty.dist.concat(), "{name}");
        let (a, b) = (&out_clean.report, &out_faulty.report);
        assert_eq!(a.counts, b.counts, "{name}");
        assert_eq!(a.rounds, b.rounds, "{name}");
        assert_eq!(a.splitter_level, b.splitter_level, "{name}");
        assert_eq!(
            a.achieved_tolerance.to_bits(),
            b.achieved_tolerance.to_bits(),
            "{name}"
        );
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{name}");
        assert_eq!(a.wmax, b.wmax, "{name}");
        assert_eq!(a.cmax, b.cmax, "{name}");
        assert_eq!(a.predicted_tp.to_bits(), b.predicted_tp.to_bits(), "{name}");
        assert!(
            faulty.makespan() > clean.makespan(),
            "{name}: stragglers + retries must inflate virtual time: {} vs {}",
            faulty.makespan(),
            clean.makespan()
        );
        // Both runs were audited end to end; a conservation violation would
        // have panicked above.
        assert!(clean.stats().audited_collectives > 0, "{name}");
        assert_eq!(
            clean.stats().audited_collectives,
            faulty.stats().audited_collectives,
            "{name}"
        );
    }
}

#[test]
fn audits_hold_across_algorithms_and_seeds() {
    // Sweep fault seeds over TreeSort, OptiPart and the FEM matvec driver —
    // every collective in every run passes the conservation audit (the
    // audit panics on violation, so reaching the end *is* the assertion).
    for seed in [1u64, 2, 3] {
        let tree = MeshParams::normal(3_000, 83).build::<3>(Curve::Hilbert);
        let p = 8;

        let mut e1 = engine(p).with_faults(stormy(seed));
        let out = treesort_partition(
            &mut e1,
            distribute_tree(&tree, p),
            PartitionOptions::with_tolerance(0.3),
        );
        assert!(e1.stats().audited_collectives > 0);

        let mut e2 = engine(p).with_faults(stormy(seed ^ 0xABCD));
        let _ = optipart(
            &mut e2,
            distribute_tree(&tree, p),
            OptiPartOptions::default(),
        );
        assert!(e2.stats().audited_collectives > 0);

        let mesh = DistMesh::build(&mut e1, out.dist, Curve::Hilbert);
        let rep = run_matvec_experiment(&mut e1, &mesh, 5);
        assert!(rep.seconds > 0.0);
        assert_eq!(rep.rank_clocks.len(), p);
    }
}

#[test]
fn matvec_report_exposes_straggle_and_retries() {
    let tree = MeshParams::normal(2_500, 87).build::<3>(Curve::Hilbert);
    let p = 8;

    let build = |e: &mut Engine| {
        let out = treesort_partition(e, distribute_tree(&tree, p), PartitionOptions::exact());
        DistMesh::build(e, out.dist, Curve::Hilbert)
    };

    let mut clean = engine(p);
    let mesh = build(&mut clean);
    let rep_clean = run_matvec_experiment(&mut clean, &mesh, 10);

    let mut faulty = engine(p).with_faults(
        FaultPlan::new(13)
            .with_stragglers(0.25, 6.0)
            .with_transient_failures(0.2),
    );
    let mesh_f = build(&mut faulty);
    let rep_faulty = run_matvec_experiment(&mut faulty, &mesh_f, 10);

    assert_eq!(rep_clean.retries, 0);
    assert!(
        rep_faulty.retries > 0,
        "transient failures should surface as retries"
    );
    assert!(rep_faulty.seconds > rep_clean.seconds);
    assert_eq!(
        rep_clean.ghost_elements, rep_faulty.ghost_elements,
        "faults moved data"
    );

    // Straggling ranks finish late: the clock spread under faults dwarfs
    // the clean spread (a trailing collective nearly equalises the latter).
    let spread = |clocks: &[f64]| {
        clocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - clocks.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    assert!(spread(&rep_faulty.rank_clocks) > spread(&rep_clean.rank_clocks));
}

#[test]
fn reset_replays_the_fault_schedule_byte_identically() {
    // `Engine::reset` must re-arm the *entire* fault schedule: a reset
    // engine re-running the same workload reproduces the same stragglers,
    // jitter draws, retries and trace bytes as its first run.
    let tree = MeshParams::normal(4_000, 81).build::<3>(Curve::Hilbert);
    let p = 12;
    let mut e = engine(p).with_faults(stormy(7)).with_tracing();

    let run = |e: &mut Engine| {
        let out = optipart(e, distribute_tree(&tree, p), OptiPartOptions::default());
        (
            out.splitters.clone(),
            e.makespan(),
            e.clocks().to_vec(),
            e.stats().retries_total,
            e.trace_json(),
        )
    };
    let first = run(&mut e);
    assert!(first.3 > 0, "the stormy plan should trigger retries");
    e.reset();
    let second = run(&mut e);
    assert_eq!(first, second, "reset must replay the fault schedule");
}

#[test]
fn reset_re_arms_a_fired_kill() {
    // A fail-stop kill consumes its schedule entry when it fires; `reset`
    // without a shrink must put it back, so the replayed run dies at the
    // same sync point with a byte-identical `RankDeath`.
    use optipart::mpisim::catch_rank_death;
    let tree = MeshParams::normal(2_000, 94).build::<3>(Curve::Hilbert);
    let p = 8;

    // Probe a clean run's sync-point timeline to aim the kill mid-workload.
    let mut probe = engine(p);
    let _ = treesort_partition(
        &mut probe,
        distribute_tree(&tree, p),
        PartitionOptions::exact(),
    );
    let mid = probe.sync_points() / 2;
    assert!(mid >= 1);

    let mut e = engine(p).with_faults(FaultPlan::new(21).kill_rank(3, mid));
    let die = |e: &mut Engine| {
        catch_rank_death(|| {
            let _ = treesort_partition(e, distribute_tree(&tree, p), PartitionOptions::exact());
        })
        .expect_err("the scheduled kill must fire")
    };
    let d1 = die(&mut e);
    assert_eq!(d1.rank, 3);
    e.reset();
    let d2 = die(&mut e);
    assert_eq!(d1, d2, "reset must re-arm the kill at the same sync point");

    // After a shrink the victim is gone for good: reset keeps it dead and
    // the workload completes on the survivors.
    e.shrink_after_death();
    e.reset();
    assert_eq!(e.p(), p - 1);
    let out = treesort_partition(
        &mut e,
        distribute_tree(&tree, p - 1),
        PartitionOptions::exact(),
    );
    assert_eq!(out.dist.total_len(), tree.len());
}

#[test]
#[should_panic(expected = "audit")]
fn audit_catches_a_lying_splitter_set() {
    // Negative control: a duplicated splitter (an empty-partition bug a
    // broken search could produce) must be refused loudly by the splitter
    // audit every exchange runs through.
    use optipart::core::partition::audit_splitters;
    let tree = MeshParams::normal(1_000, 88).build::<3>(Curve::Hilbert);
    let p = 4;
    let mut e = engine(p);
    let out = treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact());
    let mut bad = out.splitters.clone();
    bad[1] = bad[0]; // duplicate ⇒ partition 1 provably empty
    audit_splitters(&bad, tree.len(), p);
}
