//! The hot-path kernel registry the `bench` binary (and `bench_smoke`
//! tier-1 test) iterate over.
//!
//! Each kernel is a named, seeded workload factory: `build(n)` does all
//! setup (mesh generation, engine construction inputs, scratch buffers)
//! and returns a closure that executes one iteration and folds the output
//! into a `u64` checksum. Checksums serve two purposes: they defeat
//! dead-code elimination, and — because every kernel is deterministic for a
//! fixed `n` and thread budget — they let `bench compare` detect
//! bit-identity drift between commits.
//!
//! The registry is the workspace's only micro-benchmark harness. Its
//! kernels fall into six families (`group`): `sfc_keys`, `treesort`,
//! `partition` (including the OptiPart ladder), `collectives`, `matvec`
//! and `serve`.

use optipart_core::optipart::{optipart, OptiPartOptions, PartitionState};
use optipart_core::partition::{distribute_tree, treesort_partition, PartitionOptions};
use optipart_core::quality::partition_quality;
use optipart_core::samplesort::samplesort_partition;
use optipart_core::treesort::{treesort_reference, treesort_scoped};
use optipart_fem::amr::{step_mesh, AmrConfig};
use optipart_fem::{laplacian_matvec, repartition_sequence, DistMesh};
use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::rng::{self, SplitMix64};
use optipart_mpisim::{par, AllToAllAlgo, AlltoallvArena, DistVec, Engine};
use optipart_octree::{sample_points, tree_from_points, Distribution, MeshParams};
use optipart_serve::soak::mixed_stream;
use optipart_serve::{ServeConfig, Server};
use optipart_sfc::{Cell3, Curve, KeyedCell, SfcKey, MAX_DEPTH};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A kernel instantiated at a concrete problem size, ready to run.
pub struct Prepared {
    /// Elements processed per iteration (throughput denominator).
    pub elements: u64,
    /// Executes one iteration, returning the output checksum.
    pub run: Box<dyn FnMut() -> u64>,
}

/// A registry entry.
pub struct Kernel {
    /// Unique name, stable across commits (`bench compare` joins on it).
    pub name: &'static str,
    /// The family this kernel belongs to (see the module header).
    pub group: &'static str,
    /// Problem size for recorded `bench run` (full mode).
    pub full_n: usize,
    /// Problem size for CI / smoke-test runs (`--tiny`).
    pub tiny_n: usize,
    /// Workload factory.
    pub build: fn(usize) -> Prepared,
}

/// All benchmark kernels, in reporting order.
pub fn registry() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "sfc_keys_morton",
            group: "sfc_keys",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| keygen(n, Curve::Morton),
        },
        Kernel {
            name: "sfc_keys_hilbert",
            group: "sfc_keys",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| keygen(n, Curve::Hilbert),
        },
        Kernel {
            name: "treesort_seq",
            group: "treesort",
            full_n: 100_000,
            tiny_n: 3_000,
            build: |n| {
                let input = shuffled(n, Curve::Hilbert);
                let elements = input.len() as u64;
                let mut a = input.clone();
                let mut scratch: Vec<KeyedCell<3>> = Vec::new();
                Prepared {
                    elements,
                    run: Box::new(move || {
                        a.copy_from_slice(&input);
                        treesort_scoped(&mut a, &mut scratch, 0, MAX_DEPTH, 1);
                        checksum_cells(&a)
                    }),
                }
            },
        },
        Kernel {
            name: "treesort_par",
            group: "treesort",
            full_n: 100_000,
            tiny_n: 3_000,
            build: |n| {
                let input = shuffled(n, Curve::Hilbert);
                let elements = input.len() as u64;
                let mut a = input.clone();
                // Persistent scratch: the warmup iteration grows it once,
                // after which the parallel sort is allocation-free (the
                // worker pool is persistent and fans out on stack arrays).
                let mut scratch: Vec<KeyedCell<3>> = Vec::new();
                let threads = par::num_threads();
                Prepared {
                    elements,
                    run: Box::new(move || {
                        a.copy_from_slice(&input);
                        treesort_scoped(&mut a, &mut scratch, 0, MAX_DEPTH, threads);
                        checksum_cells(&a)
                    }),
                }
            },
        },
        Kernel {
            name: "treesort_reference",
            group: "treesort",
            full_n: 100_000,
            tiny_n: 3_000,
            build: |n| {
                let input = shuffled(n, Curve::Hilbert);
                let elements = input.len() as u64;
                let mut a = input.clone();
                Prepared {
                    elements,
                    run: Box::new(move || {
                        a.copy_from_slice(&input);
                        treesort_reference(&mut a);
                        checksum_cells(&a)
                    }),
                }
            },
        },
        Kernel {
            name: "sort_unstable",
            group: "treesort",
            full_n: 100_000,
            tiny_n: 3_000,
            build: |n| {
                let input = shuffled(n, Curve::Hilbert);
                let elements = input.len() as u64;
                let mut a = input.clone();
                Prepared {
                    elements,
                    run: Box::new(move || {
                        a.copy_from_slice(&input);
                        a.sort_unstable();
                        checksum_cells(&a)
                    }),
                }
            },
        },
        Kernel {
            name: "partition_treesort_exact",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| partition_kernel(n, PartitionKind::Exact),
        },
        Kernel {
            name: "partition_treesort_tol03",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| partition_kernel(n, PartitionKind::Tolerant),
        },
        Kernel {
            name: "optipart_ladder",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| partition_kernel(n, PartitionKind::OptiPart),
        },
        Kernel {
            name: "optipart_amr_loop_warm",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: amr_warm_kernel,
        },
        Kernel {
            name: "samplesort",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| partition_kernel(n, PartitionKind::SampleSort),
        },
        Kernel {
            name: "partition_quality_flat",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| quality_kernel(n, false),
        },
        Kernel {
            name: "partition_quality_hier",
            group: "partition",
            full_n: 100_000,
            tiny_n: 2_000,
            build: |n| quality_kernel(n, true),
        },
        Kernel {
            name: "alltoallv_by_hash",
            group: "collectives",
            full_n: 512,
            tiny_n: 16,
            build: |p| {
                // Each rank routes 256 items by a hash through the
                // flat-arena hypercube path. The engine (with its pooled
                // collective scratch) and the arena persist across
                // iterations, so the steady state stages, exchanges and
                // delivers with (essentially) no allocation — the ≥100×
                // gap the `alltoallv_by_hash_dense_reference` kernel and
                // the `bench compare` alloc-ratio gate measure.
                let send_base: Vec<Vec<u64>> = (0..p)
                    .map(|r| (0..256).map(|i| (r * 1000 + i) as u64).collect())
                    .collect();
                let elements = (p * 256) as u64;
                let mut e = engine(p);
                let mut arena: AlltoallvArena<u64> = AlltoallvArena::new();
                Prepared {
                    elements,
                    run: Box::new(move || {
                        for (src, items) in send_base.iter().enumerate() {
                            for &item in items {
                                arena.send(src, hash_dest(src, item, p), [item]);
                            }
                        }
                        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
                        let mut acc = 0u64;
                        for (src, dst, items) in arena.recv() {
                            for &x in items {
                                acc = mix(acc, ((src as u64) << 32) | dst as u64);
                                acc = mix(acc, x);
                            }
                        }
                        acc
                    }),
                }
            },
        },
        Kernel {
            name: "alltoallv_by_hash_dense_reference",
            group: "collectives",
            full_n: 512,
            tiny_n: 16,
            build: |p| {
                // The same hash-routed workload through the dense p × p
                // reference path (`reference` feature): a fresh engine and
                // a p² grid of buffers every iteration — the O(p²)-staging
                // baseline the arena kernel is gated against. Folds the
                // identical per-item checksum as `alltoallv_by_hash`
                // (delivery order is destination, then source, then
                // submission order in both).
                let send_base: Vec<Vec<u64>> = (0..p)
                    .map(|r| (0..256).map(|i| (r * 1000 + i) as u64).collect())
                    .collect();
                let elements = (p * 256) as u64;
                Prepared {
                    elements,
                    run: Box::new(move || {
                        let mut e = engine(p);
                        let mut send: Vec<Vec<Vec<u64>>> =
                            (0..p).map(|_| vec![Vec::new(); p]).collect();
                        for (src, items) in send_base.iter().enumerate() {
                            for &item in items {
                                send[src][hash_dest(src, item, p)].push(item);
                            }
                        }
                        let recv = e.alltoallv(send, AllToAllAlgo::Hypercube);
                        let mut acc = 0u64;
                        for (dst, row) in recv.iter().enumerate() {
                            for (src, buf) in row.iter().enumerate() {
                                for &x in buf {
                                    acc = mix(acc, ((src as u64) << 32) | dst as u64);
                                    acc = mix(acc, x);
                                }
                            }
                        }
                        acc
                    }),
                }
            },
        },
        Kernel {
            name: "allreduce_vec",
            group: "collectives",
            full_n: 512,
            tiny_n: 16,
            build: |p| {
                let contribs: Vec<Vec<u64>> = (0..p).map(|r| vec![r as u64; 512]).collect();
                let elements = (p * 512) as u64;
                Prepared {
                    elements,
                    run: Box::new(move || {
                        let mut e = engine(p);
                        let out = e.allreduce_sum_vec_u64(&contribs);
                        out.iter().fold(0u64, |a, &x| mix(a, x))
                    }),
                }
            },
        },
        Kernel {
            name: "serve_requests_per_sec",
            group: "serve",
            full_n: 1000,
            tiny_n: 120,
            build: |n| serve_kernel(n, 4),
        },
        Kernel {
            name: "serve_p99_latency",
            group: "serve",
            full_n: 400,
            tiny_n: 80,
            build: |n| serve_kernel(n, 1),
        },
        Kernel {
            name: "matvec_laplacian",
            group: "matvec",
            full_n: 50_000,
            tiny_n: 2_000,
            build: |n| {
                let p = if n >= 10_000 { 16 } else { 4 };
                let tree = MeshParams::normal(n, 3).build::<3>(Curve::Hilbert);
                let mut e = engine(p);
                let out = treesort_partition(
                    &mut e,
                    distribute_tree(&tree, p),
                    PartitionOptions::exact(),
                );
                let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
                let elements = mesh.total_cells() as u64;
                let mut x = DistVec::from_parts(
                    mesh.cells
                        .counts()
                        .iter()
                        .map(|&c| vec![1.0f64; c])
                        .collect(),
                );
                Prepared {
                    elements,
                    run: Box::new(move || {
                        let (y, _) = laplacian_matvec(&mut e, &mesh, &mut x);
                        let mut acc = 0u64;
                        for r in 0..p {
                            for v in y.rank(r) {
                                acc = mix(acc, v.to_bits());
                            }
                        }
                        acc
                    }),
                }
            },
        },
    ]
}

/// Looks a kernel up by name.
pub fn find(name: &str) -> Option<Kernel> {
    registry().into_iter().find(|k| k.name == name)
}

/// Order-sensitive checksum fold.
#[inline]
pub fn mix(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(7) ^ x).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Checksum of a keyed-cell array (order-sensitive: detects any permutation
/// difference between two sort implementations).
pub fn checksum_cells<const D: usize>(a: &[KeyedCell<D>]) -> u64 {
    let mut acc = a.len() as u64;
    for kc in a {
        acc = mix(acc, kc.key.path() as u64);
        acc = mix(acc, (kc.key.path() >> 64) as u64);
        acc = mix(acc, kc.key.level() as u64);
    }
    acc
}

/// The shuffled-mesh input every treesort kernel sorts.
pub fn shuffled(n: usize, curve: Curve) -> Vec<KeyedCell<3>> {
    let pts = sample_points::<3>(Distribution::Normal, n, 7);
    let tree = tree_from_points(&pts, 1, 18, curve);
    let mut cells = tree.into_leaves();
    SplitMix64::new(99).shuffle(&mut cells);
    cells
}

/// Key-generation kernel.
fn keygen(n: usize, curve: Curve) -> Prepared {
    let points = sample_points::<3>(Distribution::Normal, n, 42);
    let cells: Vec<Cell3> = points.iter().map(|&p| Cell3::new(p, 20)).collect();
    Prepared {
        elements: n as u64,
        run: Box::new(move || {
            let mut acc = 0u64;
            for cell in &cells {
                let path = SfcKey::of(cell, curve).path();
                acc = mix(acc, path as u64);
                acc = mix(acc, (path >> 64) as u64);
            }
            acc
        }),
    }
}

fn engine(p: usize) -> Engine {
    Engine::new(
        p,
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        ),
    )
}

/// The hash route shared by `alltoallv_by_hash` and its dense reference —
/// both kernels must scatter identically for their checksums to agree.
#[inline]
fn hash_dest(src: usize, item: u64, p: usize) -> usize {
    ((item ^ src as u64).wrapping_mul(0x9E3779B97F4A7C15) % p as u64) as usize
}

/// The amortized warm-start kernel: a 10-step moving-front AMR loop,
/// repartitioned with OptiPart while a persistent [`PartitionState`] carries
/// across *both* steps and iterations. The warmup iteration seeds the cache
/// cold; every timed iteration then replays the same 10 meshes as exact
/// fingerprint hits, so the measured cost is the warm path the tentpole
/// optimises — compare `ns/elem` against `optipart_ladder` (the cold rung
/// search on one mesh) for the amortized speedup.
fn amr_warm_kernel(n: usize) -> Prepared {
    const STEPS: usize = 10;
    let p = if n >= 10_000 { 64 } else { 8 };
    let cfg = AmrConfig {
        steps: STEPS,
        max_level: if n >= 10_000 { 6 } else { 4 },
        ..Default::default()
    };
    let trees: Vec<_> = (0..STEPS).map(|t| step_mesh(t, &cfg)).collect();
    let elements: u64 = trees.iter().map(|t| t.len() as u64).sum();
    let opts = OptiPartOptions::for_curve(cfg.curve);
    let mut state = PartitionState::new();
    Prepared {
        elements,
        run: Box::new(move || {
            let mut e = engine(p);
            let outs = repartition_sequence(&mut e, &trees, opts, Some(&mut state));
            let mut acc = 0u64;
            for out in &outs {
                acc = mix(acc, out.dist.total_len() as u64);
                for s in &out.splitters {
                    acc = mix(acc, s.path() as u64);
                    acc = mix(acc, (s.path() >> 64) as u64);
                }
            }
            acc
        }),
    }
}

/// Latency/warm-rate side channel of the serve kernels: `wall_us` and the
/// server's warm-request rate are real-time figures the deterministic
/// checksum cannot carry, so the kernels publish them here and `bench run`
/// copies them into the report's `derived` block.
pub static SERVE_STATS: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

/// The partition-as-a-service kernel: a persistent `optipart-serve` server
/// (workers, warm states and engine caches live across iterations) serving
/// a deterministic paused-burst stream of `n` requests over `n/10` distinct
/// scenarios. The warmup iteration seeds the caches cold; every measured
/// iteration then rides the warm exact-hit path, so `ns/elem` is
/// ns-per-request at steady state. The checksum folds each response's
/// payload signature commutatively (arrival order is scheduling-dependent;
/// the payloads are not). Per-request wall latency (p99) and the cumulative
/// warm-request rate go to [`SERVE_STATS`].
fn serve_kernel(n: usize, workers: usize) -> Prepared {
    let distinct = (n / 10).clamp(1, 48);
    let reqs = mixed_stream(0x5E11 + workers as u64, n, distinct, 0, 0);
    // queue_cap = n: a paused burst may land entirely on one worker's
    // bounded queue, and a bench iteration must never shed.
    let server = Server::start(ServeConfig {
        workers,
        queue_cap: n.max(1),
        state_cap: 64,
        engine_cache: 8,
        batching: true,
        admission: Default::default(),
    });
    let stat_key = if workers == 1 {
        "serve_p99_latency_us"
    } else {
        "serve_burst_p99_latency_us"
    };
    Prepared {
        elements: n as u64,
        run: Box::new(move || {
            server.pause();
            for r in &reqs {
                server.submit(r.clone());
            }
            server.release();
            let resps = server.drain(reqs.len());
            let mut acc = 0u64;
            let mut lat: Vec<u64> = Vec::with_capacity(resps.len());
            for r in &resps {
                let p = r.payload.as_ref().expect("bench stream never sheds");
                acc = acc.wrapping_add(rng::mix(r.id ^ p.sig.rotate_left(17)));
                lat.push(r.wall_us);
            }
            lat.sort_unstable();
            let p99 = lat[(lat.len() * 99)
                .div_ceil(100)
                .saturating_sub(1)
                .min(lat.len() - 1)];
            let warm = server.stats().warm_request_rate();
            let mut g = SERVE_STATS.lock().unwrap();
            let e = g.entry(stat_key.to_string()).or_insert(f64::INFINITY);
            *e = e.min(p99 as f64);
            let w = g
                .entry("serve_warm_request_rate".to_string())
                .or_insert(f64::INFINITY);
            *w = w.min(warm);
            acc
        }),
    }
}

enum PartitionKind {
    Exact,
    Tolerant,
    OptiPart,
    SampleSort,
}

/// Algorithm 2 evaluation under a flat vs a two-level machine. The two
/// kernels are byte-for-byte identical except for the [`MachineModel`],
/// so comparing their `allocs_per_iter` (the `hier alloc parity` gate in
/// `report::compare_reports`) proves the hierarchical cost path — intra
/// counting, weighted `Cmax` selection, the `predict_hier` discount —
/// allocates nothing beyond the flat path.
fn quality_kernel(n: usize, hier: bool) -> Prepared {
    let p = if n >= 10_000 { 64 } else { 8 };
    let tree = MeshParams::normal(n, 5).build::<3>(Curve::Hilbert);
    let elements = tree.len() as u64;
    let splitters = {
        let mut e = engine(p);
        treesort_partition(&mut e, distribute_tree(&tree, p), PartitionOptions::exact()).splitters
    };
    let machine = {
        let w = MachineModel::cloudlab_wisconsin();
        let m = MachineModel::custom("bench-hier", w.tc, w.ts, w.tw, (p / 2).max(1));
        if hier {
            m.hierarchical_smp()
        } else {
            m
        }
    };
    Prepared {
        elements,
        run: Box::new(move || {
            let mut e = Engine::new(
                p,
                PerfModel::new(machine.clone(), AppModel::laplacian_matvec()),
            );
            let mut dist = distribute_tree(&tree, p);
            let q = partition_quality(&mut e, &mut dist, &splitters, Curve::Hilbert);
            let mut acc = mix(q.wmax, q.cmax);
            acc = mix(acc, q.cmax_intra);
            acc = mix(acc, q.c_total);
            acc = mix(acc, q.c_intra_total);
            mix(acc, q.tp.to_bits())
        }),
    }
}

fn partition_kernel(n: usize, kind: PartitionKind) -> Prepared {
    let p = if n >= 10_000 { 64 } else { 8 };
    let tree = MeshParams::normal(n, 5).build::<3>(Curve::Hilbert);
    let elements = tree.len() as u64;
    Prepared {
        elements,
        run: Box::new(move || {
            let mut e = engine(p);
            let (splitters, total): (Vec<SfcKey>, usize) = match kind {
                PartitionKind::Exact => {
                    let out = treesort_partition(
                        &mut e,
                        distribute_tree(&tree, p),
                        PartitionOptions::exact(),
                    );
                    (out.splitters, out.dist.total_len())
                }
                PartitionKind::Tolerant => {
                    let out = treesort_partition(
                        &mut e,
                        distribute_tree(&tree, p),
                        PartitionOptions::with_tolerance(0.3),
                    );
                    (out.splitters, out.dist.total_len())
                }
                PartitionKind::OptiPart => {
                    let out = optipart(
                        &mut e,
                        distribute_tree(&tree, p),
                        OptiPartOptions::default(),
                    );
                    (out.splitters, out.dist.total_len())
                }
                PartitionKind::SampleSort => {
                    let out = samplesort_partition(&mut e, distribute_tree(&tree, p));
                    (out.splitters, out.dist.total_len())
                }
            };
            let mut acc = total as u64;
            for s in &splitters {
                acc = mix(acc, s.path() as u64);
                acc = mix(acc, (s.path() >> 64) as u64);
            }
            acc
        }),
    }
}
