//! Collective operations with LogGP-style cost accounting.
//!
//! Every collective is a BSP synchronisation point: ranks wait for the last
//! arrival, pay the operation's modeled cost, and leave together (or with
//! per-rank completion times for `alltoallv`, whose cost depends on each
//! rank's traffic). The cost formulas follow §3.1 of the paper: tree-based
//! collectives cost `log p · (ts + tw · bytes)`; the all-to-all exchange is
//! the `tw · N/p` term plus per-message latencies.
//!
//! The all-to-all family is sparse-by-default: callers describe only the
//! `(src, dst, payload)` traffic that exists, either as flat segments in an
//! [`AlltoallvArena`] ([`Engine::alltoallv_flat`]) or as per-rank element
//! buffers routed by a function ([`Engine::alltoallv_by`]).
//! Every entry point is the same sequence — enumerate the links into
//! `Engine::account_link`, `Engine::settle_alltoall` (statistics, schedule
//! cost, fault retries, clock charges), then move the payload in its own
//! container shape and audit the delivery — so cost accounting exists once
//! (DESIGN.md, *mpisim*). All staging state lives in a per-engine
//! `CollectiveScratch` pool, so a steady-state exchange allocates nothing
//! proportional to `p`. The dense `p × p` entry point (`Engine::alltoallv`)
//! is retained behind `#[cfg(any(test, feature = "reference"))]` as the
//! differential reference; it selects an independently implemented
//! hypercube staging simulation through the same accounting core.

use crate::engine::Engine;
use crate::faults::FaultPlan;
use crate::wire::Wire;

/// Element-wise operator of [`Engine::allreduce_sparse_u64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// `MPI_SUM`.
    Sum,
    /// `MPI_MAX` (the identity is 0: every value is a `u64`).
    Max,
}

/// One rank's sparse contribution to [`Engine::allreduce_sparse_u64`],
/// built by counting indices in one pass over the rank's elements. A rank
/// with at least as many elements as the reduced vector is long counts in
/// one slot per index (no more slots than it has elements) and drops the
/// empty ones at [`Tally::finish`]; a rank with fewer counts runs of equal
/// indices, one entry per run, sorted and merged at the finish if they
/// arrived out of order. Either way a rank allocates one buffer of
/// min(len, elements) entries, never O(len) beside a handful of elements.
#[derive(Debug)]
pub struct Tally {
    entries: Vec<(usize, u64)>,
    dense: bool,
    unsorted: bool,
}

impl Tally {
    /// A tally over indices `0..len` for a rank about to add `adds` of them.
    pub fn new(len: usize, adds: usize) -> Self {
        let dense = len <= adds;
        Tally {
            entries: if dense {
                (0..len).map(|i| (i, 0)).collect()
            } else {
                Vec::with_capacity(adds)
            },
            dense,
            unsorted: false,
        }
    }

    /// Counts one occurrence of `index`.
    #[inline]
    pub fn add(&mut self, index: usize) {
        if self.dense {
            self.entries[index].1 += 1;
            return;
        }
        match self.entries.last_mut() {
            Some((last, n)) if *last == index => *n += 1,
            last => {
                self.unsorted |= last.is_some_and(|&mut (last, _)| last > index);
                self.entries.push((index, 1));
            }
        }
    }

    /// The non-zero `(index, count)` entries, ascending and one per index.
    pub fn finish(mut self) -> Vec<(usize, u64)> {
        if self.dense {
            self.entries.retain(|&(_, n)| n > 0);
        } else if self.unsorted {
            self.entries.sort_unstable_by_key(|&(i, _)| i);
            self.entries.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
        }
        self.entries
    }
}

/// All-to-all scheduling algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllToAllAlgo {
    /// Direct pairwise exchange: one message per non-empty destination.
    /// Latency-bound for large `p` with small payloads.
    Direct,
    /// Hypercube-staged exchange (the paper's §3.1: "the all-to-all
    /// exchange is also performed in a staged manner similar to [4, 34],
    /// avoiding potential network congestion"; the HykSort lineage behind
    /// TreeSort): `ceil(log2 p)` stages, stage `k` pairing every rank `r`
    /// with `(r + 2^k) mod p`. A payload headed `off = (dst - src) mod p`
    /// ranks away moves exactly at the stages where bit `k` of `off` is
    /// set, so each rank holds O(active routes + log p) staging state and
    /// the charged volume is the *actual* per-stage forwarded traffic.
    /// Ranks with no traffic at a stage pay nothing.
    Hypercube,
}

/// Number of hypercube stages for `p` ranks: `ceil(log2 p)`, 0 when `p ≤ 1`
/// (a lone rank has nobody to exchange with).
#[inline]
fn hypercube_stages(p: usize) -> usize {
    if p <= 1 {
        0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as usize
    }
}

/// How [`AllToAllAlgo::Hypercube`] stage volumes are computed. Charges are
/// bit-identical either way; the walked form exists so the production
/// closed form has an independently written implementation to differ
/// against (it is what the dense reference entry point selects).
enum Staging {
    ClosedForm,
    #[cfg(any(test, feature = "reference"))]
    Walked,
}

/// One route of an all-to-all: `bytes` of off-rank traffic `src → dst`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RouteVol {
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
}

/// Pooled per-engine staging for the collectives, mirroring the TreeSort
/// ping-pong scratch: dense per-rank accounting arrays plus the sparse
/// route list, reused across calls so a steady-state exchange performs no
/// per-rank allocation.
///
/// Invariant: every dense array is all-zero (and `routes`/`touched` empty)
/// between calls — each charge zeroes exactly the entries it wrote. A
/// `RankDeath` unwind mid-collective drops the taken scratch and leaves a
/// fresh `Default` behind, which trivially satisfies the invariant (only
/// capacity is lost).
#[derive(Default)]
pub(crate) struct CollectiveScratch {
    /// Non-empty off-rank `(src, dst, bytes)` links of the current exchange
    /// (filled only for [`AllToAllAlgo::Hypercube`]).
    routes: Vec<RouteVol>,
    send_bytes: Vec<u64>,
    recv_bytes: Vec<u64>,
    /// Of `send_bytes`/`recv_bytes`, the share whose peer lives on the same
    /// node — charged at the intra-node rate under a hierarchical machine.
    send_intra: Vec<u64>,
    recv_intra: Vec<u64>,
    out_msgs: Vec<u64>,
    in_msgs: Vec<u64>,
    /// Per-stage holder/partner volumes of the hypercube walk.
    stage_sent: Vec<u64>,
    stage_recv: Vec<u64>,
    /// Per-rank accumulated base cost of the exchange.
    cost: Vec<f64>,
    /// Ranks with a non-zero entry in the stage (or row) arrays, so resets
    /// touch O(active) entries instead of O(p).
    touched: Vec<u32>,
    /// `alltoallv_by` routing cache: destination of every element, flat.
    by_dests: Vec<u32>,
    /// `alltoallv_by` per-row element counts per destination.
    by_counts: Vec<u64>,
    /// `alltoallv_by` delivered-element totals per destination.
    out_totals: Vec<u64>,
}

impl CollectiveScratch {
    /// Grows every dense array to at least `p` entries (new entries zero)
    /// and clears the route list. Shrinks never happen: after a fail-stop
    /// shrink the trailing entries are simply unused zeroes.
    fn ensure(&mut self, p: usize) {
        if self.send_bytes.len() < p {
            self.send_bytes.resize(p, 0);
            self.recv_bytes.resize(p, 0);
            self.send_intra.resize(p, 0);
            self.recv_intra.resize(p, 0);
            self.out_msgs.resize(p, 0);
            self.in_msgs.resize(p, 0);
            self.stage_sent.resize(p, 0);
            self.stage_recv.resize(p, 0);
            self.cost.resize(p, 0.0);
            self.by_counts.resize(p, 0);
            self.out_totals.resize(p, 0);
        }
        self.routes.clear();
        self.touched.clear();
    }
}

/// One flat segment of an [`AlltoallvArena`]: `len` elements at `begin`
/// headed `src → dst`.
#[derive(Clone, Copy, Debug)]
struct Seg {
    src: u32,
    dst: u32,
    begin: u32,
    len: u32,
}

/// A reusable flat staging arena for [`Engine::alltoallv_flat`]: callers
/// append `(src, dst, payload)` segments into one flat send pool; the
/// exchange delivers them into an equally flat receive pool ordered by
/// `(dst, src, submission)`. Self-addressed segments are delivered too (at
/// zero network cost), so everything one destination receives is **one
/// contiguous slice** of the receive pool ([`recv_for`]). Reusing the arena
/// across exchanges performs no steady-state allocation — the send side is
/// consumed by the exchange and ready for refilling while [`recv`] iterates
/// the results. A one-shot arena holds both pools at once during its
/// exchange; size it with [`with_capacity`] and hand the consumed send pool
/// back with [`release_send`] when the delivered side lives on.
///
/// [`recv`]: AlltoallvArena::recv
/// [`recv_for`]: AlltoallvArena::recv_for
/// [`with_capacity`]: AlltoallvArena::with_capacity
/// [`release_send`]: AlltoallvArena::release_send
pub struct AlltoallvArena<T: Copy> {
    data: Vec<T>,
    segs: Vec<Seg>,
    out: Vec<T>,
    out_segs: Vec<Seg>,
}

impl<T: Copy> Default for AlltoallvArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> AlltoallvArena<T> {
    /// An empty arena. Capacity grows on first use and is retained.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty arena whose send pool holds exactly `elems` elements in
    /// `segs` messages before it grows. The exchange sizes the receive pool
    /// to the staged traffic itself.
    pub fn with_capacity(elems: usize, segs: usize) -> Self {
        AlltoallvArena {
            data: Vec::with_capacity(elems),
            segs: Vec::with_capacity(segs),
            out: Vec::new(),
            out_segs: Vec::new(),
        }
    }

    /// Appends one `src → dst` message. Empty payloads are dropped (they
    /// carry no traffic and would inflate message counts). Under
    /// [`AllToAllAlgo::Direct`] every segment is charged as one message, so
    /// callers batching per-neighbour traffic should push one segment per
    /// neighbour.
    pub fn send(&mut self, src: usize, dst: usize, items: impl IntoIterator<Item = T>) {
        let begin = self.data.len();
        self.data.extend(items);
        let len = self.data.len() - begin;
        if len == 0 {
            return;
        }
        assert!(
            self.data.len() <= u32::MAX as usize,
            "arena overflow: more than u32::MAX staged elements"
        );
        self.segs.push(Seg {
            src: src as u32,
            dst: dst as u32,
            begin: begin as u32,
            len: len as u32,
        });
    }

    /// Delivered segments of the last exchange as `(src, dst, payload)`,
    /// grouped by destination, then source, then submission order.
    pub fn recv(&self) -> impl Iterator<Item = (usize, usize, &[T])> {
        self.out_segs.iter().map(move |seg| {
            (
                seg.src as usize,
                seg.dst as usize,
                &self.out[seg.begin as usize..(seg.begin + seg.len) as usize],
            )
        })
    }

    /// Everything the last exchange delivered to `dst`, as one contiguous
    /// slice in `(src, submission)` order — the concatenation of the
    /// payloads [`AlltoallvArena::recv`] yields for that destination.
    pub fn recv_for(&self, dst: usize) -> &[T] {
        let lo = self.out_segs.partition_point(|g| (g.dst as usize) < dst);
        let hi = self.out_segs.partition_point(|g| g.dst as usize <= dst);
        if lo == hi {
            return &[];
        }
        let (first, last) = (self.out_segs[lo], self.out_segs[hi - 1]);
        &self.out[first.begin as usize..(last.begin + last.len) as usize]
    }

    /// Gives the send pool's memory back to the allocator. The exchange
    /// leaves the send side empty but keeps its capacity for refilling; a
    /// one-shot arena that is kept only for its delivered side calls this
    /// so it does not hold a second pool of the same size.
    pub fn release_send(&mut self) {
        self.data = Vec::new();
        self.segs = Vec::new();
    }

    /// Drops both staged and delivered data, retaining capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.segs.clear();
        self.out.clear();
        self.out_segs.clear();
    }
}

impl Engine {
    /// Opens an all-to-all: takes the pooled scratch (all-zero by the pool
    /// invariant) sized for the current rank count.
    fn begin_alltoall(&mut self) -> CollectiveScratch {
        let mut s = std::mem::take(&mut self.coll_scratch);
        s.ensure(self.p);
        s
    }

    /// Accounts one non-empty `src → dst` message of `bytes` bytes — the
    /// single site that fills the per-rank traffic arrays, the hypercube
    /// route list, the intra-node byte share and the communication matrix.
    /// Self-addressed messages never touch the network and are free.
    #[inline]
    fn account_link(
        &mut self,
        s: &mut CollectiveScratch,
        algo: AllToAllAlgo,
        src: usize,
        dst: usize,
        bytes: u64,
    ) {
        if src == dst {
            return;
        }
        s.send_bytes[src] += bytes;
        s.recv_bytes[dst] += bytes;
        if self.same_node(src, dst) {
            s.send_intra[src] += bytes;
            s.recv_intra[dst] += bytes;
            self.stats.bytes_intra += bytes;
        }
        s.out_msgs[src] += 1;
        s.in_msgs[dst] += 1;
        if algo == AllToAllAlgo::Hypercube {
            s.routes.push(RouteVol {
                src: src as u32,
                dst: dst as u32,
                bytes,
            });
        }
        if let Some(mat) = &mut self.comm_matrix {
            mat.add(self.tracks[src], self.tracks[dst], bytes);
        }
    }

    /// Closes the accounting of an all-to-all whose links went through
    /// [`Engine::account_link`]: books the run statistics, then charges
    /// every rank's clock — latency + volume cost under the chosen schedule
    /// (with the rank's effective `tw`), plus deterministic
    /// retry-with-backoff when the fault plan makes this exchange fail
    /// transiently on a rank. Returns the off-rank bytes charged (what the
    /// entry points audit their delivery against) and leaves the accounting
    /// arrays of `s` zeroed again (the scratch-pool invariant).
    fn settle_alltoall(
        &mut self,
        algo: AllToAllAlgo,
        staging: Staging,
        s: &mut CollectiveScratch,
    ) -> u64 {
        let p = self.p;
        let total_bytes: u64 = s.send_bytes[..p].iter().sum();
        self.stats.collectives += 1;
        self.stats.bytes_total += total_bytes;
        // Hypercube's message count — distinct sending ranks per stage — is
        // accumulated during the staging walk itself.
        self.stats.msgs_total += match algo {
            AllToAllAlgo::Direct => s.out_msgs[..p].iter().sum(),
            AllToAllAlgo::Hypercube => 0,
        };

        let t0 = self.sync_start("alltoallv");
        let ts = self.perf.machine.ts;
        let seq = self.collective_seq;
        self.collective_seq += 1;
        let plan = self.faults.as_ref().map(|(plan, _)| plan.clone());
        match (algo, staging) {
            (AllToAllAlgo::Direct, _) => self.direct_costs(ts, s),
            (AllToAllAlgo::Hypercube, Staging::ClosedForm) => self.stage_costs_hypercube(ts, s),
            #[cfg(any(test, feature = "reference"))]
            (AllToAllAlgo::Hypercube, Staging::Walked) => {
                self.stage_costs_hypercube_reference(ts, s)
            }
        }
        self.finish_alltoall(t0, seq, &plan, s);
        total_bytes
    }

    /// Direct per-rank base costs into `s.cost`: one latency per message
    /// sent or received, plus the larger of the rank's send/recv volumes.
    fn direct_costs(&mut self, ts: f64, s: &mut CollectiveScratch) {
        for r in 0..self.p {
            let vol = s.send_bytes[r].max(s.recv_bytes[r]) as f64;
            s.cost[r] = ts * (s.out_msgs[r] + s.in_msgs[r]) as f64 + self.effective_tw(r) * vol;
        }
    }

    /// Hypercube per-rank base costs into `s.cost` — the production path.
    ///
    /// The holder of route `(src, dst)` before stage `k` is the closed form
    /// `(src + (off & (2^k − 1))) mod p` with `off = (dst − src) mod p`:
    /// the partial sum of the hops already taken. The route moves at stage
    /// `k` iff bit `k` of `off` is set; after the last stage the holder is
    /// `src + off = dst`. Per stage, a touched rank pays one latency plus
    /// its effective `tw` times the larger of its forwarded send/recv
    /// volume; untouched ranks pay nothing. `msgs_total` counts distinct
    /// sending ranks per stage.
    fn stage_costs_hypercube(&mut self, ts: f64, s: &mut CollectiveScratch) {
        let p = self.p;
        for k in 0..hypercube_stages(p) {
            let hop = 1usize << k;
            let mut stage_msgs = 0u64;
            for route in &s.routes {
                let (src, dst) = (route.src as usize, route.dst as usize);
                let off = (dst + p - src) % p;
                if off & hop == 0 {
                    continue;
                }
                let holder = (src + (off & (hop - 1))) % p;
                // hop < p at every stage, so holder ≠ partner always.
                let partner = (holder + hop) % p;
                if s.stage_sent[holder] + s.stage_recv[holder] == 0 {
                    s.touched.push(holder as u32);
                }
                if s.stage_sent[holder] == 0 {
                    stage_msgs += 1;
                }
                s.stage_sent[holder] += route.bytes;
                if s.stage_sent[partner] + s.stage_recv[partner] == 0 {
                    s.touched.push(partner as u32);
                }
                s.stage_recv[partner] += route.bytes;
            }
            self.stats.msgs_total += stage_msgs;
            self.fold_stage(ts, s);
        }
        s.routes.clear();
    }

    /// Reference twin of [`Engine::stage_costs_hypercube`]: walks every
    /// route's holder forward hop by hop (`h ← (h + 2^k) mod p` at each
    /// stage whose bit is set in the offset) instead of using the closed
    /// form, so the optimised path has a genuinely separate implementation
    /// to differ against. Per-stage volumes are exact `u64` sums and the
    /// per-rank fold runs in the same ascending stage order, so agreeing
    /// implementations produce bit-identical charges.
    #[cfg(any(test, feature = "reference"))]
    fn stage_costs_hypercube_reference(&mut self, ts: f64, s: &mut CollectiveScratch) {
        let p = self.p;
        let mut holder: Vec<usize> = s.routes.iter().map(|r| r.src as usize).collect();
        for k in 0..hypercube_stages(p) {
            let hop = 1usize << k;
            let mut stage_msgs = 0u64;
            for (i, route) in s.routes.iter().enumerate() {
                let off = (route.dst as usize + p - route.src as usize) % p;
                if off & hop == 0 {
                    continue;
                }
                let h = holder[i];
                let partner = (h + hop) % p;
                if s.stage_sent[h] + s.stage_recv[h] == 0 {
                    s.touched.push(h as u32);
                }
                if s.stage_sent[h] == 0 {
                    stage_msgs += 1;
                }
                s.stage_sent[h] += route.bytes;
                if s.stage_sent[partner] + s.stage_recv[partner] == 0 {
                    s.touched.push(partner as u32);
                }
                s.stage_recv[partner] += route.bytes;
                holder[i] = partner;
            }
            self.stats.msgs_total += stage_msgs;
            self.fold_stage(ts, s);
        }
        debug_assert!(
            holder
                .iter()
                .zip(&s.routes)
                .all(|(&h, r)| h == r.dst as usize),
            "hypercube walk must end every route at its destination"
        );
        s.routes.clear();
    }

    /// Folds one hypercube stage into the per-rank base costs and re-zeroes
    /// the stage arrays (touched entries only).
    fn fold_stage(&mut self, ts: f64, s: &mut CollectiveScratch) {
        for &r in &s.touched {
            let r = r as usize;
            let vol = s.stage_sent[r].max(s.stage_recv[r]) as f64;
            s.cost[r] += ts + self.effective_tw(r) * vol;
            s.stage_sent[r] = 0;
            s.stage_recv[r] = 0;
        }
        s.touched.clear();
    }

    /// Retry-with-backoff epilogue and final clock charge, shared by every
    /// schedule: each rank that moved bytes may retry its whole base cost
    /// after exponentially growing backoffs, then all ranks are charged in
    /// ascending order. Zeroes the per-rank accounting arrays on the way
    /// out.
    fn finish_alltoall(
        &mut self,
        t0: f64,
        seq: u64,
        plan: &Option<FaultPlan>,
        s: &mut CollectiveScratch,
    ) {
        for r in 0..self.p {
            let base = s.cost[r];
            let mut cost = base;
            if let Some(plan) = plan {
                // Ranks that moved no bytes sent no messages that could
                // fail.
                if s.send_bytes[r] + s.recv_bytes[r] > 0 {
                    let retries = plan.retries_for(seq, self.tracks[r]);
                    for k in 0..retries {
                        cost += plan.backoff_s(k) + base;
                    }
                    self.stats.retries_total += retries as u64;
                    if retries > 0 {
                        // First failure surfaces after the base attempt.
                        self.tracer
                            .mark(self.tracks[r], t0 + base, "fault.retry", retries as f64);
                    }
                }
            }
            self.charge_comm(
                r,
                t0,
                cost,
                s.send_bytes[r] + s.recv_bytes[r],
                s.send_intra[r] + s.recv_intra[r],
            );
            s.cost[r] = 0.0;
            s.send_bytes[r] = 0;
            s.recv_bytes[r] = 0;
            s.send_intra[r] = 0;
            s.recv_intra[r] = 0;
            s.out_msgs[r] = 0;
            s.in_msgs[r] = 0;
        }
    }

    /// Synchronises all ranks to the maximum clock and returns that time,
    /// recording the sync point (and the blocking rank — the last arrival,
    /// lowest rank on ties) on the structured trace. Every sync point
    /// advances the global `sync_seq` and first fires any fail-stop kill
    /// scheduled at or before it ([`Engine::check_failstop`] unwinds with a
    /// `RankDeath` in that case — the collective never happens).
    pub(crate) fn sync_start(&mut self, name: &str) -> f64 {
        self.check_failstop();
        self.sync_seq += 1;
        let mut t = 0.0;
        let mut blocker = 0;
        for (r, &c) in self.clocks.iter().enumerate() {
            if c > t {
                t = c;
                blocker = r;
            }
        }
        self.clocks.iter_mut().for_each(|c| *c = t);
        self.tracer.begin_collective(name, t, self.tracks[blocker]);
        t
    }

    /// Barrier: `log p` latencies.
    pub fn barrier(&mut self) {
        let t0 = self.sync_start("barrier");
        let cost = self.log_p() * self.perf.machine.ts;
        self.stats.collectives += 1;
        self.stats.msgs_total += (self.p as u64) * self.log_p() as u64;
        for r in 0..self.p {
            self.charge_comm(r, t0, cost, 0, 0);
        }
    }

    /// Generic reduction plumbing: each rank contributes `bytes_per_rank`
    /// bytes, every rank pays `log p (ts + tw b)` — with `tw` the rank's
    /// *effective* wire slowness, so link jitter desynchronises completion
    /// times exactly as a perturbed network would.
    fn charge_tree_collective(&mut self, name: &str, bytes_per_rank: u64) {
        let t0 = self.sync_start(name);
        let ts = self.perf.machine.ts;
        let logp = self.log_p();
        self.stats.collectives += 1;
        let moved = bytes_per_rank * self.p as u64 * logp as u64;
        self.stats.msgs_total += self.p as u64 * logp as u64;
        self.stats.bytes_total += moved;
        // Tree collectives span the whole machine; their up/down sweeps are
        // modeled as inter-node traffic (no intra discount).
        for r in 0..self.p {
            let cost = logp * (ts + self.effective_tw(r) * bytes_per_rank as f64);
            self.charge_comm(r, t0, cost, bytes_per_rank * logp as u64, 0);
        }
    }

    /// `MPI_Allreduce(SUM)` over one `u64` per rank.
    pub fn allreduce_sum_u64(&mut self, contrib: &[u64]) -> u64 {
        assert_eq!(contrib.len(), self.p);
        self.charge_tree_collective("allreduce", 8);
        contrib.iter().sum()
    }

    /// `MPI_Allreduce(MAX)` over one `f64` per rank.
    pub fn allreduce_max_f64(&mut self, contrib: &[f64]) -> f64 {
        assert_eq!(contrib.len(), self.p);
        self.charge_tree_collective("allreduce", 8);
        contrib.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// `MPI_Allreduce(SUM)` over one `f64` per rank.
    pub fn allreduce_sum_f64(&mut self, contrib: &[f64]) -> f64 {
        assert_eq!(contrib.len(), self.p);
        self.charge_tree_collective("allreduce", 8);
        contrib.iter().sum()
    }

    /// Element-wise `MPI_Allreduce` over a `u64` vector of length `len`,
    /// each rank contributing only its non-zero `(index, value)` entries —
    /// the one vector reduction: global bucket counts (Algorithm 3 line 18)
    /// and Algorithm 2's per-partition totals. An index a rank repeats
    /// combines under `op` like any other. The charge is the dense
    /// vector's, `8·len` bytes through the reduction tree, so the cost
    /// realises the `(ts + tw·k) log p` term of Eq. (2) whatever the
    /// contributions' sparsity; the host work is O(len + Σ entries), not
    /// O(p·len).
    pub fn allreduce_sparse_u64(
        &mut self,
        contribs: &[Vec<(usize, u64)>],
        len: usize,
        op: ReduceOp,
    ) -> Vec<u64> {
        assert_eq!(contribs.len(), self.p);
        self.charge_tree_collective("allreduce", 8 * len as u64);
        let mut out = vec![0u64; len];
        for &(i, v) in contribs.iter().flatten() {
            out[i] = match op {
                ReduceOp::Sum => out[i] + v,
                ReduceOp::Max => out[i].max(v),
            };
        }
        out
    }

    /// `MPI_Allgather`: every rank contributes a small buffer; all ranks
    /// receive the concatenation (rank order). Recursive-doubling cost:
    /// `log p · ts + tw · total_bytes`.
    pub fn allgather<T: Clone + Wire>(&mut self, contribs: &[Vec<T>]) -> Vec<T> {
        assert_eq!(contribs.len(), self.p);
        let elem = T::BYTES;
        let total: u64 = contribs.iter().map(|c| c.len() as u64 * elem).sum();
        let t0 = self.sync_start("allgather");
        let ts = self.perf.machine.ts;
        let logp = self.log_p();
        self.stats.collectives += 1;
        self.stats.msgs_total += self.p as u64 * logp as u64;
        self.stats.bytes_total += total * logp as u64;
        for r in 0..self.p {
            let cost = logp * ts + self.effective_tw(r) * total as f64;
            self.charge_comm(r, t0, cost, total, 0);
        }
        let mut out = Vec::with_capacity((total / elem.max(1)) as usize);
        for c in contribs {
            out.extend_from_slice(c);
        }
        out
    }

    /// `MPI_Alltoallv`: `send[src][dst]` buffers are delivered as
    /// `recv[dst][src]`.
    ///
    /// Per-rank cost: latency per message (Direct) or per active stage
    /// (Hypercube), plus slowness × the rank's traffic volumes. Records the
    /// communication matrix when enabled.
    ///
    /// This dense `p × p` entry point is the *differential reference* for
    /// the sparse production paths and is compiled only for tests and under
    /// the `reference` feature — production code stages O(active routes),
    /// never O(p²).
    #[cfg(any(test, feature = "reference"))]
    pub fn alltoallv<T: Send + Wire>(
        &mut self,
        send: Vec<Vec<Vec<T>>>,
        algo: AllToAllAlgo,
    ) -> Vec<Vec<Vec<T>>> {
        let p = self.p;
        assert_eq!(send.len(), p, "send must have one row per rank");
        assert!(send.iter().all(|row| row.len() == p), "ragged send rows");
        let elem = T::BYTES;

        // Traffic accounting and clock charges (+ fault retries), via the
        // walked reference staging.
        let mut s = self.begin_alltoall();
        for (src, row) in send.iter().enumerate() {
            for (dst, buf) in row.iter().enumerate() {
                if !buf.is_empty() {
                    self.account_link(&mut s, algo, src, dst, buf.len() as u64 * elem);
                }
            }
        }
        let total_bytes = self.settle_alltoall(algo, Staging::Walked, &mut s);
        self.coll_scratch = s;

        // Audit bookkeeping: element counts per (src, dst) before the move.
        let expected: Vec<Vec<usize>> = send
            .iter()
            .map(|row| row.iter().map(Vec::len).collect())
            .collect();

        // Data movement: recv[dst][src] = send[src][dst]. Iterating rows in
        // ascending src order fills every recv row in src order directly —
        // no reversal pass, no intermediate shuffling.
        let mut recv: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        for row in send {
            for (dst, buf) in row.into_iter().enumerate() {
                recv[dst].push(buf);
            }
        }

        self.audit_alltoallv(&expected, &recv, total_bytes, elem);
        recv
    }

    /// Conservation audit for a dense all-to-all: every `(src, dst)` buffer
    /// arrived with exactly the element count it was sent with (nothing
    /// lost, nothing duplicated), and the byte total charged to [`RunStats`]
    /// equals the off-rank bytes actually moved.
    ///
    /// [`RunStats`]: crate::RunStats
    #[cfg(any(test, feature = "reference"))]
    fn audit_alltoallv<T>(
        &mut self,
        expected: &[Vec<usize>],
        recv: &[Vec<Vec<T>>],
        charged_bytes: u64,
        elem: u64,
    ) {
        let p = self.p;
        let mut moved = 0u64;
        for dst in 0..p {
            for src in 0..p {
                let sent = expected[src][dst];
                let got = recv[dst][src].len();
                assert!(
                    got == sent,
                    "audit: alltoallv #{} lost/duplicated data on link {src}->{dst}: \
                     sent {sent} elements, received {got}",
                    self.collective_seq - 1,
                );
                if src != dst {
                    moved += sent as u64 * elem;
                }
            }
        }
        assert!(
            moved == charged_bytes,
            "audit: alltoallv #{} byte accounting mismatch: charged {charged_bytes} B \
             to stats, buffers moved {moved} B",
            self.collective_seq - 1,
        );
        self.stats.audited_collectives += 1;
    }

    /// Flat-arena `MPI_Alltoallv` over an [`AlltoallvArena`]: exchanges the
    /// arena's staged segments in place, leaving delivered segments grouped
    /// by destination (then source, then submission order) on the arena's
    /// receive side. The send side is consumed and ready for refilling.
    ///
    /// Cost model, fault retries, comm-matrix recording and stats match the
    /// other all-to-all entry points; in the steady state the exchange
    /// itself allocates nothing (all staging lives in the arena and the
    /// engine's pooled scratch).
    pub fn alltoallv_flat<T: Copy + Send + Wire>(
        &mut self,
        arena: &mut AlltoallvArena<T>,
        algo: AllToAllAlgo,
    ) {
        let p = self.p;
        let elem = T::BYTES;
        let mut s = self.begin_alltoall();
        for seg in &arena.segs {
            let (src, dst) = (seg.src as usize, seg.dst as usize);
            assert!(src < p && dst < p, "segment {src}->{dst} out of range");
            self.account_link(&mut s, algo, src, dst, seg.len as u64 * elem);
        }
        let total_bytes = self.settle_alltoall(algo, Staging::ClosedForm, &mut s);
        self.coll_scratch = s;

        // Delivery: sort a copy of the segment table by (dst, src,
        // submission order) and gather payloads into the flat receive
        // buffer. `begin` values are unique across segments, so the
        // unstable sort is deterministic.
        arena.out_segs.clear();
        arena.out_segs.extend_from_slice(&arena.segs);
        arena
            .out_segs
            .sort_unstable_by_key(|g| (g.dst, g.src, g.begin));
        arena.out.clear();
        arena.out.reserve(arena.data.len());
        let mut moved = 0u64;
        for seg in &mut arena.out_segs {
            let b = seg.begin as usize;
            let l = seg.len as usize;
            seg.begin = arena.out.len() as u32;
            arena.out.extend_from_slice(&arena.data[b..b + l]);
            if seg.src != seg.dst {
                moved += l as u64 * elem;
            }
        }
        // Structural O(segs) audit: every staged element was delivered
        // exactly once and the charged byte total matches the off-rank
        // bytes moved.
        assert!(
            arena.out.len() == arena.data.len(),
            "audit: alltoallv_flat #{} lost elements: staged {}, delivered {}",
            self.collective_seq - 1,
            arena.data.len(),
            arena.out.len(),
        );
        assert!(
            moved == total_bytes,
            "audit: alltoallv_flat #{} byte accounting mismatch: charged \
             {total_bytes} B, moved {moved} B",
            self.collective_seq - 1,
        );
        self.stats.audited_collectives += 1;
        arena.data.clear();
        arena.segs.clear();
    }

    /// Convenience: all-to-all where rank `r` sends `send[r]` elements
    /// routed by a destination function. Returns one delivered buffer per
    /// rank: elements from source ranks in ascending order, each source's
    /// elements in their original order.
    pub fn alltoallv_by<T: Send + Wire, F: Fn(usize, &T) -> usize>(
        &mut self,
        send: Vec<Vec<T>>,
        dest: F,
        algo: AllToAllAlgo,
    ) -> Vec<Vec<T>> {
        let p = self.p;
        assert_eq!(send.len(), p, "send must have one row per rank");
        let elem = T::BYTES;
        let mut s = self.begin_alltoall();
        s.by_dests.clear();
        s.by_dests.reserve(send.iter().map(Vec::len).sum());

        // Pass 1: route every element once, caching its destination and
        // flushing per-(src, dst) traffic row by row — the per-row scratch
        // is reset only at the destinations the row touched.
        for (src, local) in send.iter().enumerate() {
            for item in local {
                let d = dest(src, item);
                debug_assert!(d < p, "destination {d} out of range");
                if s.by_counts[d] == 0 {
                    s.touched.push(d as u32);
                }
                s.by_counts[d] += 1;
                s.by_dests.push(d as u32);
            }
            for i in 0..s.touched.len() {
                let d = s.touched[i] as usize;
                let cnt = s.by_counts[d];
                s.by_counts[d] = 0;
                s.out_totals[d] += cnt;
                self.account_link(&mut s, algo, src, d, cnt * elem);
            }
            s.touched.clear();
        }
        self.settle_alltoall(algo, Staging::ClosedForm, &mut s);

        // Pass 2: scatter into exact-capacity delivery buffers using the
        // cached destinations — the only allocations are the p output rows.
        let mut out: Vec<Vec<T>> = (0..p)
            .map(|d| Vec::with_capacity(s.out_totals[d] as usize))
            .collect();
        let mut di = s.by_dests.iter();
        for local in send {
            for item in local {
                let d = *di.next().expect("pass 1 routed every element") as usize;
                out[d].push(item);
            }
        }
        // Structural audit: pass 2 delivered exactly the elements pass 1
        // counted, per destination.
        for (d, row) in out.iter().enumerate() {
            assert!(
                row.len() as u64 == s.out_totals[d],
                "audit: alltoallv_by #{} rank {d} received {} elements, \
                 routed {}",
                self.collective_seq - 1,
                row.len(),
                s.out_totals[d],
            );
        }
        self.stats.audited_collectives += 1;
        for d in 0..p {
            s.out_totals[d] = 0;
        }
        s.by_dests.clear();
        self.coll_scratch = s;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistVec;
    use optipart_machine::{AppModel, MachineModel, PerfModel};

    const ALL_ALGOS: [AllToAllAlgo; 2] = [AllToAllAlgo::Direct, AllToAllAlgo::Hypercube];

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
        )
    }

    #[test]
    fn allreduce_sum_and_max() {
        let mut e = engine(4);
        assert_eq!(e.allreduce_sum_u64(&[1, 2, 3, 4]), 10);
        assert_eq!(e.allreduce_max_f64(&[0.5, -1.0, 2.5, 0.0]), 2.5);
        assert!(e.makespan() > 0.0);
        assert_eq!(e.stats().collectives, 2);
    }

    #[test]
    fn vector_allreduce_sums_elementwise() {
        // Every sum distinct, so a permuted or dropped contribution cannot
        // hide behind an equal total. Index 1 is touched by three ranks
        // (a last-writer-wins reducer reads 10, not 24), every rank's last
        // entry carries weight, rank 2 contributes nothing, and each of
        // indices 0, 1 and 3 takes its maximum from a different rank.
        let contribs = vec![
            vec![(1, 9), (3, 7)],
            vec![(0, 4), (1, 5)],
            vec![],
            vec![(0, 3), (1, 10), (3, 2)],
        ];
        let mut e = engine(4);
        assert_eq!(
            e.allreduce_sparse_u64(&contribs, 5, ReduceOp::Sum),
            vec![7, 24, 0, 9, 0]
        );
        assert_eq!(
            e.allreduce_sparse_u64(&contribs, 5, ReduceOp::Max),
            vec![4, 10, 0, 7, 0]
        );
        assert_eq!(e.stats().collectives, 2);
        // The dense vector's charge: 8·len bytes per rank per tree level.
        assert_eq!(e.stats().bytes_total, 2 * 8 * 5 * 4 * 2);
    }

    #[test]
    fn tally_counts_in_any_order_dense_or_sparse() {
        // `adds` at or above `len` counts densely, below it in runs; both
        // report the same sorted non-zeros for sorted and shuffled input.
        for adds in [0, 6, 10, 1_000] {
            let count = |idx: &[usize]| {
                let mut t = Tally::new(10, adds);
                idx.iter().for_each(|&i| t.add(i));
                t.finish()
            };
            assert_eq!(count(&[]), vec![], "adds = {adds}");
            let want = vec![(2, 2), (5, 1), (9, 3)];
            assert_eq!(count(&[2, 2, 5, 9, 9, 9]), want, "adds = {adds}");
            assert_eq!(count(&[9, 2, 9, 5, 2, 9]), want, "adds = {adds}");
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let mut e = engine(3);
        let out = e.allgather(&[vec![1u32], vec![2, 3], vec![]]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn alltoallv_transposes_buffers() {
        let mut e = engine(3);
        // send[src][dst] = vec![src*10 + dst]
        let send: Vec<Vec<Vec<u32>>> = (0..3)
            .map(|s| (0..3).map(|d| vec![(s * 10 + d) as u32]).collect())
            .collect();
        let recv = e.alltoallv(send, AllToAllAlgo::Direct);
        for (dst, row) in recv.iter().enumerate() {
            for (src, buf) in row.iter().enumerate() {
                assert_eq!(buf, &vec![(src * 10 + dst) as u32]);
            }
        }
    }

    #[test]
    fn alltoallv_records_comm_matrix() {
        let mut e = engine(2).record_comm_matrix();
        let send = vec![vec![vec![], vec![1u64, 2, 3]], vec![vec![9u64], vec![]]];
        let _ = e.alltoallv(send, AllToAllAlgo::Direct);
        let m = e.comm_matrix().unwrap();
        assert_eq!(m.get(0, 1), 24); // 3 × u64
        assert_eq!(m.get(1, 0), 8);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn hypercube_beats_direct_for_many_small_messages() {
        // p=64, every rank sends 1 element to every other rank: Direct pays
        // 126 per-message latencies per rank, Hypercube 6 stage latencies.
        let p = 64;
        let make_send = || -> Vec<Vec<Vec<u64>>> {
            (0..p)
                .map(|_| (0..p).map(|_| vec![1u64]).collect())
                .collect()
        };
        let mut e1 = engine(p);
        let _ = e1.alltoallv(make_send(), AllToAllAlgo::Direct);
        let mut e2 = engine(p);
        let _ = e2.alltoallv(make_send(), AllToAllAlgo::Hypercube);
        assert!(e2.makespan() < e1.makespan());
    }

    #[test]
    fn direct_beats_hypercube_for_multi_hop_bulk_pairs() {
        // Ranks 0 and 3 of 4 swap big buffers. Offset 3 has two bits set,
        // so the hypercube forwards each buffer through an intermediate
        // rank and charges the volume twice; direct moves it once. (At
        // p = 2 the hypercube's single stage would win: it overlaps the
        // two directions where direct charges two message latencies.)
        let p = 4;
        let make_send = || -> Vec<Vec<Vec<u64>>> {
            let mut send: Vec<Vec<Vec<u64>>> = vec![vec![vec![]; p]; p];
            send[0][3] = vec![0u64; 100_000];
            send[3][0] = vec![0u64; 100_000];
            send
        };
        let mut e1 = engine(p);
        let _ = e1.alltoallv(make_send(), AllToAllAlgo::Direct);
        let mut e2 = engine(p);
        let _ = e2.alltoallv(make_send(), AllToAllAlgo::Hypercube);
        assert!(e1.makespan() < e2.makespan());
    }

    #[test]
    fn alltoallv_by_routes_elements() {
        for algo in ALL_ALGOS {
            let mut e = engine(4);
            // Rank s holds 100·s + v for v in 0..8, so every value names its
            // source; route v to rank v % 4.
            let send: Vec<Vec<u32>> = (0..4)
                .map(|s| (0..8).map(|v| 100 * s + v).collect())
                .collect();
            let recv = e.alltoallv_by(send, |_src, &x| (x % 100 % 4) as usize, algo);
            for (r, buf) in recv.iter().enumerate() {
                // The documented order: sources ascending, each source's
                // elements in send order.
                let want: Vec<u32> = (0..4)
                    .flat_map(|s| {
                        (0..8)
                            .filter(|v| v % 4 == r as u32)
                            .map(move |v| 100 * s + v)
                    })
                    .collect();
                assert_eq!(buf, &want, "{algo:?} rank {r}");
            }
        }
    }

    #[test]
    fn collective_synchronises_clocks() {
        let mut e = engine(2);
        let mut d = DistVec::from_parts(vec![vec![0u8; 1], vec![0; 1_000_000]]);
        e.compute(&mut d, |_, b| b.len() as f64);
        let before = e.clocks().to_vec();
        assert!(before[0] < before[1]);
        let _ = e.allreduce_sum_u64(&[0, 0]);
        let after = e.clocks().to_vec();
        assert_eq!(after[0], after[1]);
        assert!(after[0] > before[1]);
    }

    #[test]
    fn barrier_costs_latency_only() {
        let mut e = engine(8);
        e.barrier();
        let expected = 3.0 * e.perf().machine.ts; // log2(8) = 3
        assert!((e.makespan() - expected).abs() < 1e-12);
        assert_eq!(e.stats().bytes_total, 0);
    }

    #[test]
    fn empty_alltoallv_is_cheap() {
        for algo in ALL_ALGOS {
            let mut e = engine(4);
            let send: Vec<Vec<Vec<u8>>> =
                (0..4).map(|_| (0..4).map(|_| vec![]).collect()).collect();
            let _ = e.alltoallv(send, algo);
            assert_eq!(e.stats().bytes_total, 0);
            // No messages, no latency.
            assert_eq!(e.makespan(), 0.0, "{algo:?}");
        }
    }

    #[test]
    fn single_rank_engine_works() {
        let mut e = engine(1);
        assert_eq!(e.allreduce_sum_u64(&[42]), 42);
        let before = e.stats().bytes_total;
        let recv = e.alltoallv(vec![vec![vec![7u8]]], AllToAllAlgo::Hypercube);
        assert_eq!(recv[0][0], vec![7]);
        assert_eq!(e.stats().bytes_total, before); // self-delivery is free
    }

    /// Seeded per-rank payloads for conservation tests: rank `src` sends
    /// `(src + dst) % 5` tagged elements to each `dst`.
    fn tagged_send(p: usize) -> Vec<Vec<Vec<u64>>> {
        (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| {
                        (0..(src + dst) % 5)
                            .map(|i| (src * 1000 + dst * 10 + i) as u64)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// The dense grid's non-empty buffers as arena segments, staged in the
    /// grid's `(src, dst)` order.
    fn staged(send: &[Vec<Vec<u64>>]) -> AlltoallvArena<u64> {
        let mut arena = AlltoallvArena::new();
        for (src, row) in send.iter().enumerate() {
            for (dst, buf) in row.iter().enumerate() {
                arena.send(src, dst, buf.iter().copied());
            }
        }
        arena
    }

    #[test]
    fn alltoallv_conserves_every_element() {
        // Conservation pinned at the element level, not just counts: the
        // multiset of values out equals the multiset in, for all schedules.
        for algo in ALL_ALGOS {
            let p = 7;
            let send = tagged_send(p);
            let mut sent: Vec<u64> = send.iter().flatten().flatten().copied().collect();
            let mut e = engine(p);
            let recv = e.alltoallv(send, algo);
            let mut got: Vec<u64> = recv.iter().flatten().flatten().copied().collect();
            sent.sort_unstable();
            got.sort_unstable();
            assert_eq!(sent, got, "{algo:?} lost or duplicated elements");
            assert_eq!(e.stats().audited_collectives, 1);
        }
    }

    #[test]
    fn hypercube_and_direct_deliver_identical_data() {
        // The schedule changes clocks and message counts — never payloads.
        let p = 9;
        let mut e1 = engine(p);
        let r1 = e1.alltoallv(tagged_send(p), AllToAllAlgo::Direct);
        let mut e2 = engine(p);
        let r2 = e2.alltoallv(tagged_send(p), AllToAllAlgo::Hypercube);
        assert_eq!(r1, r2);
        assert_eq!(e1.stats().bytes_total, e2.stats().bytes_total);
        assert_ne!(e1.stats().msgs_total, e2.stats().msgs_total);
    }

    #[test]
    fn hypercube_stage_boundary_rank_counts() {
        // p = 2^k - 1, 2^k and 2^k + 1 exercise the wrap-around holders:
        // conservation and the arena-vs-dense charge identity must hold at
        // every stage-count boundary.
        for p in [7usize, 8, 9, 15, 16, 17] {
            let send = tagged_send(p);
            let mut sent: Vec<u64> = send.iter().flatten().flatten().copied().collect();
            let mut dense = engine(p);
            let recv = dense.alltoallv(send, AllToAllAlgo::Hypercube);
            let mut got: Vec<u64> = recv.iter().flatten().flatten().copied().collect();
            sent.sort_unstable();
            got.sort_unstable();
            assert_eq!(sent, got, "p={p} lost or duplicated elements");

            // The arena production path (closed-form holders) must charge
            // bit-identical clocks to the dense reference (walked holders).
            let mut flat = engine(p);
            flat.alltoallv_flat(&mut staged(&tagged_send(p)), AllToAllAlgo::Hypercube);
            assert_eq!(
                dense.clocks(),
                flat.clocks(),
                "p={p} arena/dense hypercube charges diverged"
            );
            assert_eq!(dense.stats().msgs_total, flat.stats().msgs_total);
            assert_eq!(dense.stats().bytes_total, flat.stats().bytes_total);
        }
    }

    #[test]
    fn hypercube_idle_ranks_pay_nothing() {
        // One neighbour pair in a big machine: only the ranks a stage
        // touches pay for it.
        let p = 32;
        let mut arena = AlltoallvArena::new();
        arena.send(3, 4, [7u64; 10]);
        let mut e = engine(p);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        let clocks = e.clocks();
        // offset 1: the route moves only at stage 0, touching ranks 3 and 4.
        assert!(clocks[3] > 0.0 && clocks[4] > 0.0);
        for (r, &c) in clocks.iter().enumerate() {
            if r != 3 && r != 4 {
                assert_eq!(c, 0.0, "idle rank {r} was charged");
            }
        }
    }

    #[test]
    fn empty_buckets_and_p1_edge_cases() {
        // Nothing staged but empty buckets.
        let mut e = engine(3);
        let mut arena: AlltoallvArena<u8> = AlltoallvArena::new();
        arena.send(0, 1, []);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        assert_eq!(arena.recv().count(), 0);
        assert!((0..3).all(|dst| arena.recv_for(dst).is_empty()));
        assert_eq!(e.makespan(), 0.0);
        // p = 1: self-delivery only, zero network bytes, zero stages.
        for algo in ALL_ALGOS {
            let mut e1 = engine(1);
            arena.send(0, 0, [1u8, 2, 3]);
            e1.alltoallv_flat(&mut arena, algo);
            assert_eq!(arena.recv().collect::<Vec<_>>(), [(0, 0, &[1u8, 2, 3][..])]);
            assert_eq!(e1.stats().bytes_total, 0);
        }
    }

    #[test]
    fn flat_arena_delivers_grouped_and_reuses_cleanly() {
        let p = 5;
        let mut e = engine(p);
        let mut arena = AlltoallvArena::new();
        // Two rounds through the same arena: contents must not leak across.
        for round in 0..2u64 {
            for src in 0..p {
                // Every rank messages its two ring neighbours and itself.
                arena.send(src, (src + 1) % p, [round * 100 + src as u64]);
                arena.send(src, (src + 4) % p, [round * 100 + src as u64 + 50, 7]);
                arena.send(src, src, [round * 1000 + src as u64]);
                arena.send(src, (src + 2) % p, std::iter::empty()); // dropped
            }
            e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
            let delivered: Vec<(usize, usize, Vec<u64>)> = arena
                .recv()
                .map(|(s, d, buf)| (s, d, buf.to_vec()))
                .collect();
            assert_eq!(delivered.len(), 3 * p, "round {round}");
            // Grouped by destination then source.
            assert!(delivered
                .windows(2)
                .all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
            for (src, dst, buf) in &delivered {
                if *src == *dst {
                    assert_eq!(buf, &vec![round * 1000 + *src as u64]);
                } else if (*src + 1) % p == *dst {
                    assert_eq!(buf, &vec![round * 100 + *src as u64]);
                } else {
                    assert_eq!(buf, &vec![round * 100 + *src as u64 + 50, 7]);
                }
            }
        }
        assert_eq!(e.stats().audited_collectives, 2);
        assert_eq!(e.stats().collectives, 2);
    }

    #[test]
    fn one_destination_is_one_contiguous_slice() {
        // The contract the FEM halo leans on: what a destination receives is
        // one slice of the receive pool, in (src, submission) order, its
        // self-addressed segments included at their source's position.
        let p = 4;
        let mut e = engine(p);
        let mut arena = AlltoallvArena::with_capacity(16, 8);
        arena.send(2, 1, [20u64, 21]);
        arena.send(3, 1, [30]);
        arena.send(1, 1, [10, 11]);
        arena.send(2, 3, [99]);
        arena.send(2, 1, [22]);
        arena.send(0, 1, [0]);
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        assert_eq!(arena.recv_for(1), [0, 10, 11, 20, 21, 22, 30]);
        assert_eq!(arena.recv_for(3), [99]);
        assert!(arena.recv_for(0).is_empty() && arena.recv_for(2).is_empty());
        for dst in 0..p {
            let joined: Vec<u64> = arena
                .recv()
                .filter(|&(_, d, _)| d == dst)
                .flat_map(|(_, _, items)| items.iter().copied())
                .collect();
            assert_eq!(arena.recv_for(dst), joined, "dst {dst}");
        }
        // Handing the send pool back leaves the delivered side intact.
        arena.release_send();
        assert_eq!(arena.recv_for(1), [0, 10, 11, 20, 21, 22, 30]);
    }

    #[test]
    fn flat_arena_matches_dense_charges() {
        // The flat arena path and the dense reference describe the same
        // traffic, so their clocks and stats must be bit-identical.
        for algo in ALL_ALGOS {
            let p = 9;
            let mut send: Vec<Vec<Vec<u64>>> = (0..p).map(|_| vec![Vec::new(); p]).collect();
            for (src, row) in send.iter_mut().enumerate() {
                row[(src + 2) % p] = (0..src as u64 + 1).collect();
            }
            let mut e1 = engine(p).record_comm_matrix();
            e1.alltoallv_flat(&mut staged(&send), algo);
            let mut e2 = engine(p).record_comm_matrix();
            let _ = e2.alltoallv(send, algo);

            assert_eq!(e1.clocks(), e2.clocks(), "{algo:?}");
            assert_eq!(e1.stats().bytes_total, e2.stats().bytes_total);
            assert_eq!(e1.stats().msgs_total, e2.stats().msgs_total);
            assert_eq!(
                e1.comm_matrix().unwrap().nnz(),
                e2.comm_matrix().unwrap().nnz()
            );
        }
    }

    #[test]
    fn link_jitter_desynchronises_but_preserves_data() {
        use crate::faults::FaultPlan;
        let p = 8;
        let mut clean = engine(p);
        let r_clean = clean.alltoallv(tagged_send(p), AllToAllAlgo::Direct);
        let mut faulty = Engine::new(
            p,
            PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
        )
        .with_faults(FaultPlan::new(99).with_tw_jitter(0.5));
        let r_faulty = faulty.alltoallv(tagged_send(p), AllToAllAlgo::Direct);
        assert_eq!(r_clean, r_faulty, "faults must never touch payload data");
        let clocks = faulty.clocks();
        let spread = clocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - clocks.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 0.0,
            "jittered links should desynchronise completion"
        );
    }

    #[test]
    fn transient_failures_cost_time_and_count_retries() {
        use crate::faults::FaultPlan;
        for algo in ALL_ALGOS {
            let p = 8;
            let run = |plan: Option<FaultPlan>| {
                let mut e = Engine::new(
                    p,
                    PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
                );
                if let Some(plan) = plan {
                    e = e.with_faults(plan);
                }
                let r = e.alltoallv(tagged_send(p), algo);
                (e.makespan(), e.stats().retries_total, r)
            };
            let (t_clean, retries_clean, data_clean) = run(None);
            let plan = FaultPlan::new(5)
                .with_transient_failures(0.6)
                .with_retry_policy(3, 1e-3);
            let (t_faulty, retries_faulty, data_faulty) = run(Some(plan));
            assert_eq!(retries_clean, 0);
            assert!(
                retries_faulty > 0,
                "p_fail 0.6 over 8 ranks must retry somewhere ({algo:?})"
            );
            assert!(t_faulty > t_clean, "retries must cost virtual time");
            assert_eq!(data_clean, data_faulty);
        }
    }

    #[test]
    fn scratch_pool_invariant_survives_mixed_calls() {
        // Interleave every entry point on one engine: the pooled scratch
        // must come back zeroed each time or later calls would see phantom
        // traffic.
        let p = 6;
        let mut e = engine(p);
        let m0 = {
            let _ = e.alltoallv_by(
                (0..p).map(|_| (0..12u32).collect()).collect(),
                |_s, &v| (v as usize) % 6,
                AllToAllAlgo::Hypercube,
            );
            e.makespan()
        };
        let bytes_after_first = e.stats().bytes_total;
        // An empty exchange right after must move nothing and cost nothing
        // extra.
        let mut arena: AlltoallvArena<u8> = AlltoallvArena::new();
        e.alltoallv_flat(&mut arena, AllToAllAlgo::Hypercube);
        assert_eq!(arena.recv().count(), 0);
        assert_eq!(e.stats().bytes_total, bytes_after_first);
        assert_eq!(e.makespan(), m0, "empty exchange charged phantom traffic");
        // And a repeat of the same exchange costs exactly the same again.
        let _ = e.alltoallv_by(
            (0..p).map(|_| (0..12u32).collect()).collect(),
            |_s, &v| (v as usize) % 6,
            AllToAllAlgo::Hypercube,
        );
        assert!((e.makespan() - 2.0 * m0).abs() < 1e-12);
    }
}
