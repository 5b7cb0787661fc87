//! Paper-scale strong-scaling smoke: the sparse/hypercube collectives
//! stack must execute at up to p = 262,144 virtual ranks on one box —
//! the full Titan rank count of the paper's Fig. 4 sweep — with staging
//! memory O(active neighbours + log p) per rank instead of O(p), and a
//! steady state that allocates (essentially) nothing per exchange.
//!
//! The allocation counters are process-wide, so every `#[test]` in this
//! binary holds [`serial`] for its whole body: whatever `--test-threads`
//! libtest is given, no other test allocates while one is counting.

use optipart_bench::alloc_count::{counters, CountingAllocator};
use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::par::par_map_mut_n;
use optipart_mpisim::{AllToAllAlgo, AlltoallvArena, Engine};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Serialises the tests of this binary (see the module header). A test
/// that failed while holding the lock must not mask the others' verdicts,
/// so poisoning is ignored — the guard protects no data.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The paper's strong-scaling rank counts exercised in tier-1 (Fig. 4
/// runs 4,096 → 262,144; the sweep driver `figures scaling` covers the
/// intermediate doublings).
const RANK_COUNTS: [usize; 3] = [4_096, 65_536, 262_144];

/// Six neighbours per rank: the 3D face-neighbour pattern a balanced
/// octree partition produces (§5.5's sparse communication matrix).
const NEIGHBOURS: [isize; 6] = [-3, -2, -1, 1, 2, 3];

fn engine(p: usize) -> Engine {
    Engine::new(
        p,
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        ),
    )
}

/// Stages one 6-neighbour exchange round into `arena`: every rank sends
/// one element to each neighbour, payload derived from the link.
fn stage_round(arena: &mut AlltoallvArena<u64>, p: usize, round: u64) {
    for src in 0..p {
        for d in NEIGHBOURS {
            let dst = (src as isize + d).rem_euclid(p as isize) as usize;
            arena.send(src, dst, [round ^ ((src as u64) << 20) ^ dst as u64]);
        }
    }
}

#[test]
fn paper_scale_exchanges() {
    let _serial = serial();
    let mut steady_bytes = Vec::new();
    for p in RANK_COUNTS {
        let mut e = engine(p);
        let mut arena: AlltoallvArena<u64> = AlltoallvArena::new();

        // Round 0 warms every pool: the engine's collective scratch, the
        // arena's staging and delivery buffers.
        stage_round(&mut arena, p, 0);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        let m0 = e.makespan();
        assert!(m0.is_finite() && m0 > 0.0, "p = {p}: degenerate makespan");

        // Steady state: staging + exchange reuse warm pools end to end —
        // two more whole rounds must allocate (essentially) nothing.
        let (a1, _) = counters();
        stage_round(&mut arena, p, 1);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        stage_round(&mut arena, p, 2);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        let (a2, _) = counters();
        assert!(
            a2 - a1 <= 16,
            "p = {p}: two steady-state exchanges allocated {} times",
            a2 - a1
        );
        assert_eq!(
            e.makespan(),
            3.0 * m0,
            "p = {p}: warm exchanges must charge identically to the first"
        );

        // Every element delivered: 6p segments, one element each.
        assert_eq!(arena.recv().count(), 6 * p, "p = {p}: lost segments");
        drop(e);
        drop(arena);

        // One whole cold engine + arena build + exchange is
        // O(p · neighbours + log p) memory end to end — record its bytes
        // for the growth check below.
        let (_, c0) = counters();
        let mut e = engine(p);
        let mut arena: AlltoallvArena<u64> = AlltoallvArena::new();
        stage_round(&mut arena, p, 0);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        let (_, c1) = counters();
        steady_bytes.push((p, c1 - c0));
    }

    // O(p · neighbours) total staging: bytes must grow (sub)linearly in
    // p, nowhere near the O(p²) a dense alltoallv would stage. Between
    // 4,096 and 262,144 ranks p grows 64×; a quadratic path would grow
    // 4,096×. Allow 4× slack over linear for pool-growth rounding.
    let (p_lo, b_lo) = steady_bytes[0];
    let (p_hi, b_hi) = *steady_bytes.last().unwrap();
    let growth = b_hi as f64 / b_lo as f64;
    let linear = (p_hi / p_lo) as f64;
    assert!(
        growth <= 4.0 * linear,
        "staging bytes grew {growth:.0}× from p = {p_lo} to p = {p_hi} \
         (linear would be {linear:.0}×) — an O(p²) staging path is back"
    );

    // Determinism at scale: an identical cold run charges the identical
    // makespan, bit for bit.
    let rerun = |p: usize| {
        let mut e = engine(p);
        let mut arena: AlltoallvArena<u64> = AlltoallvArena::new();
        stage_round(&mut arena, p, 0);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        e.makespan()
    };
    assert_eq!(rerun(4_096).to_bits(), rerun(4_096).to_bits());
}

/// The trace export at large p is a pure function of the virtual
/// schedule: preparing the payloads under different *explicit* worker
/// budgets (the same knob `RAYON_NUM_THREADS` drives) must leave the
/// Chrome trace byte-identical.
#[test]
fn trace_identity_across_thread_counts() {
    let _serial = serial();
    let p = 65_536;
    let run = |threads: usize| {
        // Per-rank payload prep under an explicit thread budget.
        let mut payloads: Vec<Vec<u64>> = (0..p).map(|r| vec![r as u64]).collect();
        par_map_mut_n(threads, &mut payloads, |r, buf| {
            buf[0] = buf[0].wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ r as u64;
        });
        let mut e = engine(p).with_tracing();
        let mut arena: AlltoallvArena<u64> = AlltoallvArena::new();
        for (src, buf) in payloads.iter().enumerate() {
            for d in NEIGHBOURS {
                let dst = (src as isize + d).rem_euclid(p as isize) as usize;
                arena.send(src, dst, buf.iter().copied());
            }
        }
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        e.trace_json()
    };
    let a = run(1);
    let b = run(4);
    assert!(!a.is_empty(), "trace export came back empty");
    assert!(
        a == b,
        "trace bytes diverge between 1 and 4 worker threads at p = {p}"
    );
}
