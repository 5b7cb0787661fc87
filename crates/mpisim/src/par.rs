//! Deterministic fork–join parallelism over rank buffers.
//!
//! A registry-free replacement for the rayon idioms the engine used: maps
//! over slices are split into contiguous chunks, fanned out over workers,
//! and results are stitched back **in index order** — so the output (and
//! everything downstream: splitters, clocks, stats) is bit-identical for
//! every thread count. The thread budget honours `RAYON_NUM_THREADS` (the
//! conventional knob, kept for compatibility with existing scripts) and
//! falls back to the host's available parallelism.
//!
//! [`par_map_mut_n`] — the one fan-out, under [`par_map_mut`] too —
//! dispatches through a lazily-spawned **persistent worker pool**: workers
//! park on a per-slot condvar between jobs, chunk
//! descriptors live on the caller's stack, and the result vector is the
//! only heap allocation (none at all when `R` is zero-sized). Chunk
//! boundaries are a pure function of `(len, threads)`, so the pool changes
//! *where* work runs, never what it produces.

use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Number of worker threads to use for a parallel phase.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Start of chunk `ci` when `len` items are cut into `k` contiguous chunks
/// (`ci == k` gives `len`). A pure function of `(len, k)`; every chunk is
/// non-empty when `k ≤ len`.
#[inline]
fn chunk_bound(len: usize, k: usize, ci: usize) -> usize {
    ci * len / k
}

/// Upper bound on pooled workers, and on the chunk fan-out of one call.
const MAX_POOL: usize = 64;

/// Completion latch one dispatch waits on: counts outstanding chunks;
/// `panicked` latches any chunk panic for re-raising on the caller.
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn done(&self) {
        let mut g = self.remaining.lock().unwrap();
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.remaining.lock().unwrap();
        while *g > 0 {
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// A type-erased chunk of work: `run(data)` executes it. The pointee (a
/// chunk descriptor on the dispatcher's stack) outlives the job because
/// the dispatcher blocks on the latch before its frame unwinds.
struct Job {
    run: unsafe fn(*mut ()),
    data: *mut (),
    latch: *const Latch,
}

// SAFETY: the raw pointers reference dispatcher stack data that stays
// alive (and is not otherwise touched) until the latch opens.
unsafe impl Send for Job {}

/// One pooled worker's mailbox.
struct Slot {
    /// Claimed by a dispatcher (CAS false→true); released by the worker
    /// after the job's latch has been counted down.
    busy: AtomicBool,
    job: Mutex<Option<Job>>,
    cv: Condvar,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            busy: AtomicBool::new(false),
            job: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

static SLOTS: [Slot; MAX_POOL] = [const { Slot::new() }; MAX_POOL];
static SPAWNED: AtomicUsize = AtomicUsize::new(0);
static SPAWN_LOCK: Mutex<()> = Mutex::new(());

/// Ensures at least `want` pooled workers exist (capped at [`MAX_POOL`]).
/// Workers are spawned once per process, park on their slot's condvar
/// between jobs and never exit — the steady-state fan-out allocates
/// nothing.
fn ensure_spawned(want: usize) -> usize {
    let want = want.min(MAX_POOL);
    if SPAWNED.load(Ordering::Acquire) >= want {
        return want;
    }
    let _g = SPAWN_LOCK.lock().unwrap();
    let have = SPAWNED.load(Ordering::Acquire);
    for (i, slot) in SLOTS.iter().enumerate().take(want).skip(have) {
        std::thread::Builder::new()
            .name(format!("optipart-par-{i}"))
            .spawn(move || worker(slot))
            .expect("spawn pooled worker");
    }
    if want > have {
        SPAWNED.store(want, Ordering::Release);
    }
    want
}

fn worker(slot: &'static Slot) {
    loop {
        let job = {
            let mut g = slot.job.lock().unwrap();
            loop {
                if let Some(j) = g.take() {
                    break j;
                }
                g = slot.cv.wait(g).unwrap();
            }
        };
        // SAFETY: the dispatcher keeps the pointees alive until it has
        // observed this latch count-down.
        let latch = unsafe { &*job.latch };
        if catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.data) })).is_err() {
            latch.panicked.store(true, Ordering::SeqCst);
        }
        latch.done();
        slot.busy.store(false, Ordering::Release);
    }
}

/// Hands `job` to an idle pooled worker, or returns it when every worker
/// is busy (e.g. a nested fan-out) — the caller then runs the chunk inline
/// instead of risking a deadlock.
fn try_dispatch(job: Job, spawned: usize) -> Option<Job> {
    for slot in SLOTS[..spawned].iter() {
        if slot
            .busy
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            *slot.job.lock().unwrap() = Some(job);
            slot.cv.notify_one();
            return None;
        }
    }
    Some(job)
}

/// Parallel indexed map over a mutable slice; returns the per-item results
/// in index order regardless of the thread count.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_n(num_threads(), items, f)
}

/// One chunk of a [`par_map_mut_n`] dispatch: `len` items starting at
/// global index `start`, with the results written straight into the shared
/// output buffer (disjoint per chunk, so no synchronisation is needed).
struct MapTask<T, R, F> {
    start: usize,
    items: *mut T,
    len: usize,
    out: *mut MaybeUninit<R>,
    f: *const F,
}

/// Executes one [`MapTask`].
///
/// # Safety
/// `data` must point to a live `MapTask<T, R, F>` whose items/out ranges
/// are not aliased by any other running chunk.
unsafe fn run_map_chunk<T, R, F>(data: *mut ())
where
    F: Fn(usize, &mut T) -> R,
{
    let t = unsafe { &*(data as *const MapTask<T, R, F>) };
    let items = unsafe { std::slice::from_raw_parts_mut(t.items, t.len) };
    let f = unsafe { &*t.f };
    for (i, item) in items.iter_mut().enumerate() {
        unsafe { t.out.add(i).write(MaybeUninit::new(f(t.start + i, item))) };
    }
}

/// [`par_map_mut`] with an explicit thread budget instead of the
/// `RAYON_NUM_THREADS` default — lets callers (and thread-invariance tests)
/// pin the fan-out without mutating process-global environment.
///
/// Runs on the persistent worker pool: chunk descriptors live on this
/// stack frame, chunk 0 (and any chunk no idle worker picks up) runs on
/// the caller, and the only heap allocation is the result vector — zero
/// allocations when `R` is zero-sized, as in Algorithm 2's neighbour-key
/// fill.
pub fn par_map_mut_n<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let len = items.len();
    let k = threads.clamp(1, MAX_POOL).min(len.max(1));
    if k <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(len);
    // SAFETY: `MaybeUninit` needs no initialisation; every slot is written
    // exactly once by the chunk owning it before the latch opens.
    unsafe { out.set_len(len) };

    let spawned = ensure_spawned(k - 1); // chunk 0 runs on the caller
    let latch = Latch::new(k - 1);
    let mut tasks: [MaybeUninit<MapTask<T, R, F>>; MAX_POOL] =
        [const { MaybeUninit::uninit() }; MAX_POOL];
    // All descriptor writes go through one raw base pointer so handing a
    // descriptor to a worker is never invalidated by a later write.
    let tasks_base = tasks.as_mut_ptr() as *mut MapTask<T, R, F>;
    let base_items = items.as_mut_ptr();
    let base_out = out.as_mut_ptr();
    let bound = |ci: usize| chunk_bound(len, k, ci);
    for ci in 1..k {
        let (start, end) = (bound(ci), bound(ci + 1));
        // SAFETY: in-bounds offsets; chunk ranges (and descriptors) are
        // disjoint per `ci`.
        let task = unsafe {
            tasks_base.add(ci).write(MapTask {
                start,
                items: base_items.add(start),
                len: end - start,
                out: base_out.add(start),
                f: &f,
            });
            tasks_base.add(ci)
        };
        let job = Job {
            run: run_map_chunk::<T, R, F>,
            data: task as *mut (),
            latch: &latch,
        };
        if let Some(job) = try_dispatch(job, spawned) {
            // Every worker busy: run inline, with the same panic fencing.
            if catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.data) })).is_err() {
                latch.panicked.store(true, Ordering::SeqCst);
            }
            latch.done();
        }
    }
    {
        let task = MapTask::<T, R, F> {
            start: 0,
            items: base_items,
            len: bound(1),
            out: base_out,
            f: &f,
        };
        let data = &task as *const MapTask<T, R, F> as *mut ();
        if catch_unwind(AssertUnwindSafe(|| unsafe {
            run_map_chunk::<T, R, F>(data)
        }))
        .is_err()
        {
            latch.panicked.store(true, Ordering::SeqCst);
        }
    }
    latch.wait();
    if latch.panicked.load(Ordering::SeqCst) {
        // Initialised results are leaked, not dropped — acceptable on the
        // (fatal in practice) panic path.
        std::mem::forget(out);
        panic!("par worker panicked");
    }
    // SAFETY: all `len` slots were initialised; `MaybeUninit<R>` and `R`
    // share layout.
    let mut out = std::mem::ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, len, out.capacity()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_mut_preserves_order_and_mutates() {
        let mut v: Vec<u64> = (0..1000).collect();
        let out = par_map_mut(&mut v, |i, x| {
            *x += 1;
            (i as u64) * 2
        });
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<u64>>());
        assert_eq!(v[0], 1);
        assert_eq!(v[999], 1000);
    }

    #[test]
    fn empty_and_single_inputs() {
        let mut v: Vec<u8> = vec![];
        assert!(par_map_mut(&mut v, |_, _| 0u8).is_empty());
        let mut one = vec![7u8];
        assert_eq!(par_map_mut(&mut one, |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn explicit_thread_budget_is_invariant() {
        let base: Vec<u64> = (0..513).collect();
        let mut expect = base.clone();
        let seq = par_map_mut_n(1, &mut expect, |i, x| {
            *x = x.wrapping_mul(31).wrapping_add(i as u64);
            *x ^ 0x9E37
        });
        for threads in [2usize, 3, 4, 16] {
            let mut v = base.clone();
            let out = par_map_mut_n(threads, &mut v, |i, x| {
                *x = x.wrapping_mul(31).wrapping_add(i as u64);
                *x ^ 0x9E37
            });
            assert_eq!(out, seq, "{threads} threads: results diverge");
            assert_eq!(v, expect, "{threads} threads: mutations diverge");
        }
    }

    #[test]
    fn chunking_covers_range_exactly() {
        for len in [1usize, 2, 7, 100] {
            for k in [1usize, 2, 3, 8, 200] {
                let k = k.min(len);
                assert_eq!(chunk_bound(len, k, 0), 0);
                assert_eq!(chunk_bound(len, k, k), len);
                for ci in 0..k {
                    assert!(
                        chunk_bound(len, k, ci) < chunk_bound(len, k, ci + 1),
                        "chunk {ci} of {k} over {len} items is empty"
                    );
                }
            }
        }
    }
}
