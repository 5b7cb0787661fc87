//! Tracing end-to-end: the critical path extracted from a trace is the
//! engine's own virtual makespan (same clock, not a second one), model
//! attribution recovers the machine constants on a clean machine, and the
//! Chrome-trace export is byte-identical across runs.

use optipart::machine::{AppModel, MachineModel, PerfModel};
use optipart::mpisim::{DistVec, Engine, FaultPlan, PathKind};

fn engine(p: usize) -> Engine {
    Engine::new(
        p,
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        ),
    )
}

/// Asserts the path tiles `[0, makespan]` with no gaps or overlaps.
fn assert_tiles(e: &Engine) {
    let cp = e.critical_path();
    let makespan = e.makespan();
    assert!(
        (cp.covered_s() - makespan).abs() <= 1e-12 * makespan.max(1.0),
        "critical path covers {} s, makespan is {} s",
        cp.covered_s(),
        makespan
    );
    let items = &cp.items;
    assert!(!items.is_empty());
    assert_eq!(items[0].t0, 0.0, "path must start at t=0");
    assert_eq!(
        items.last().unwrap().t1,
        makespan,
        "path must end at the makespan"
    );
    for w in items.windows(2) {
        assert_eq!(w[0].t1, w[1].t0, "gap/overlap between path segments");
    }
}

#[test]
fn two_rank_critical_path_follows_the_blocker() {
    // Phase "heavy1": rank 1 reports 10× the bytes, so it arrives last at
    // the allreduce and the pre-sync path must run on rank 1. Phase
    // "heavy0" inverts the imbalance, so the post-sync path runs on rank 0.
    let mut e = engine(2).with_tracing();
    let mut d = DistVec::from_parts(vec![vec![0u8; 100], vec![0u8; 100]]);
    e.phase("heavy1", |e| {
        e.compute(&mut d, |r, buf| {
            buf.len() as f64 * if r == 1 { 80.0 } else { 8.0 }
        });
        e.allreduce_sum_u64(&[1, 1]);
    });
    e.phase("heavy0", |e| {
        e.compute(&mut d, |r, buf| {
            buf.len() as f64 * if r == 0 { 80.0 } else { 8.0 }
        });
        e.barrier();
    });

    assert_tiles(&e);
    let cp = e.critical_path();
    for item in &cp.items {
        if item.kind == PathKind::Compute {
            match item.phase.as_str() {
                "heavy1" => assert_eq!(item.rank, 1, "pre-sync path must be on the straggler"),
                "heavy0" => assert_eq!(item.rank, 0, "post-sync path must hop to rank 0"),
                other => panic!("unexpected compute phase {other} on path"),
            }
        }
    }
    // Both phases' compute contributed to the path.
    let phases: Vec<&str> = cp
        .items
        .iter()
        .filter(|i| i.kind == PathKind::Compute)
        .map(|i| i.phase.as_str())
        .collect();
    assert!(phases.contains(&"heavy1") && phases.contains(&"heavy0"));
}

#[test]
fn four_rank_critical_path_hops_through_rotating_stragglers() {
    // Three phases, each bound by a different rank (3, then 2, then 1).
    // The backward walk must hop blocker → blocker through all of them.
    let mut e = engine(4).with_tracing();
    let mut d = DistVec::from_parts((0..4).map(|_| vec![0u8; 64]).collect());
    for (phase, slow) in [("a", 3usize), ("b", 2), ("c", 1)] {
        e.phase(phase, |e| {
            e.compute(&mut d, |r, buf| {
                buf.len() as f64 * if r == slow { 100.0 } else { 4.0 }
            });
            e.allreduce_sum_u64(&[0, 0, 0, 0]);
        });
    }

    assert_tiles(&e);
    let cp = e.critical_path();
    for item in &cp.items {
        if item.kind == PathKind::Compute {
            let want = match item.phase.as_str() {
                "a" => 3,
                "b" => 2,
                "c" => 1,
                other => panic!("unexpected compute phase {other} on path"),
            };
            assert_eq!(
                item.rank, want,
                "phase {} bound by rank {want}, path says rank {}",
                item.phase, item.rank
            );
        }
    }
    let on_path: std::collections::HashSet<usize> = cp
        .items
        .iter()
        .filter(|i| i.kind == PathKind::Compute)
        .map(|i| i.rank)
        .collect();
    assert_eq!(on_path, [1, 2, 3].into_iter().collect());
}

#[test]
fn attribution_recovers_tc_clean_and_inflates_it_under_stragglers() {
    let tc = engine(4).perf().machine.tc;
    let run = |plan: Option<FaultPlan>| {
        let mut e = engine(4).with_tracing();
        if let Some(plan) = plan {
            e = e.with_faults(plan);
        }
        let mut d = DistVec::from_parts((0..4).map(|_| vec![0u8; 256]).collect());
        e.phase("work", |e| {
            e.compute(&mut d, |_r, buf| buf.len() as f64 * 8.0);
            e.allreduce_sum_u64(&[1; 4]);
        });
        e.model_attribution()
    };

    // Clean machine: measured compute / Wmax bytes is exactly tc.
    let clean = run(None);
    let ph = clean.phase("work").expect("phase attributed");
    let tc_clean = ph.tc_suggested.expect("tc' derivable");
    assert!(
        (tc_clean - tc).abs() <= 1e-12 * tc,
        "clean run must recover tc: got {tc_clean:e}, machine says {tc:e}"
    );
    assert!(ph.wmax_bytes > 0 && ph.cmax_bytes > 0);

    // Every rank straggling 4× ⇒ the fitted tc is 4× the nominal one.
    let faulted = run(Some(FaultPlan::new(5).with_stragglers(1.0, 4.0)));
    let tc_slow = faulted
        .phase("work")
        .and_then(|p| p.tc_suggested)
        .expect("tc' derivable");
    assert!(
        (tc_slow - 4.0 * tc).abs() <= 1e-9 * tc,
        "4× stragglers must fit tc' = 4·tc: got {tc_slow:e}"
    );
    assert!(
        faulted.phase("work").unwrap().residual_s > 0.0,
        "stragglers must leave a positive residual"
    );
}

#[test]
fn trace_export_is_byte_identical_across_runs() {
    let run = || {
        let mut e = engine(4).with_tracing();
        let mut d = DistVec::from_parts((0..4).map(|r| vec![r as u64; 32 * (r + 1)]).collect());
        e.phase("step", |e| {
            e.compute(&mut d, |_r, buf| buf.len() as f64 * 8.0);
            e.allreduce_sum_u64(&[1; 4]);
        });
        e.trace_decision("probe", &[("x", 1.5), ("accepted", 1.0)]);
        e.trace_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same program must serialise to the same bytes");
    assert!(a.contains("\"traceEvents\""));
    assert!(a.contains("probe"));
}
