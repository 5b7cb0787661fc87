//! In-memory partner checkpointing on the virtual clock.
//!
//! Diskless buddy checkpointing (Plank-style): at a save, every rank
//! serialises its local state and mirrors it to its ring successor while
//! receiving its predecessor's copy, so any *single* rank's state survives
//! that rank's death on its partner. The engine charges the save as one
//! synchronisation point — `tc` to serialise plus `ts + tw × bytes` to
//! mirror — and a restore as re-fetching the dead ranks' lost parts from
//! their partners, spread over the survivors.
//!
//! [`CheckpointStore`] owns the latest snapshot and the interval policy
//! ([`CheckpointPolicy`]): save every AMR step (the default), every N-th
//! step, or at the Young/Daly optimum `sqrt(2 · C · MTBF)` computed from the
//! measured checkpoint cost. State is anything implementing [`Checkpoint`] —
//! [`DistVec`] payloads compose via tuples, so "octant buffer + solver
//! vector" snapshots need no custom impl.

use crate::dist::DistVec;
use crate::engine::Engine;
use crate::wire::Wire;

/// Application state that can be snapshotted for fail-stop recovery.
///
/// Implementations report the per-rank byte footprint (what partner
/// mirroring moves over the wire) and produce a deep copy. Tuples of
/// checkpointable states are checkpointable, with footprints summed
/// element-wise.
pub trait Checkpoint {
    /// Bytes of state held by each live rank slot (length = the engine's
    /// current `p`).
    fn bytes_per_rank(&self) -> Vec<u64>;

    /// Deep copy of the state, stored on the partner.
    fn snapshot(&self) -> Self;
}

/// Rank-replicated state: every live rank holds an identical copy (e.g. a
/// partitioner's warm-start cache), so a save mirrors the declared byte
/// footprint from *each* rank and any survivor can reseed the value after a
/// shrink. The footprint is captured at construction; refresh it by
/// rebuilding the wrapper when the value's size changes materially.
#[derive(Clone, Debug)]
pub struct Replicated<T: Clone> {
    /// The replicated value.
    pub value: T,
    footprint: Vec<u64>,
}

impl<T: Clone> Replicated<T> {
    /// Wraps `value`, declaring `bytes` of state on each of `p` ranks.
    pub fn new(value: T, bytes: u64, p: usize) -> Self {
        Replicated {
            value,
            footprint: vec![bytes; p],
        }
    }
}

impl<T: Clone> Checkpoint for Replicated<T> {
    fn bytes_per_rank(&self) -> Vec<u64> {
        self.footprint.clone()
    }

    fn snapshot(&self) -> Self {
        self.clone()
    }
}

impl<T: Clone + Wire> Checkpoint for DistVec<T> {
    fn bytes_per_rank(&self) -> Vec<u64> {
        self.counts().iter().map(|&n| n as u64 * T::BYTES).collect()
    }

    fn snapshot(&self) -> Self {
        self.clone()
    }
}

impl<A: Checkpoint, B: Checkpoint> Checkpoint for (A, B) {
    fn bytes_per_rank(&self) -> Vec<u64> {
        let a = self.0.bytes_per_rank();
        let b = self.1.bytes_per_rank();
        assert_eq!(a.len(), b.len(), "tuple parts span different rank counts");
        a.iter().zip(&b).map(|(x, y)| x + y).collect()
    }

    fn snapshot(&self) -> Self {
        (self.0.snapshot(), self.1.snapshot())
    }
}

impl<A: Checkpoint, B: Checkpoint, C: Checkpoint> Checkpoint for (A, B, C) {
    fn bytes_per_rank(&self) -> Vec<u64> {
        let a = self.0.bytes_per_rank();
        let b = self.1.bytes_per_rank();
        let c = self.2.bytes_per_rank();
        assert!(
            a.len() == b.len() && b.len() == c.len(),
            "tuple parts span different rank counts"
        );
        a.iter()
            .zip(&b)
            .zip(&c)
            .map(|((x, y), z)| x + y + z)
            .collect()
    }

    fn snapshot(&self) -> Self {
        (self.0.snapshot(), self.1.snapshot(), self.2.snapshot())
    }
}

/// When [`CheckpointStore::due`] says yes.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum CheckpointPolicy {
    /// Save at every opportunity (every AMR step) — the default.
    #[default]
    EveryStep,
    /// Save at every `n`-th opportunity (the first one included).
    EveryN(u64),
    /// Save when the virtual time since the last save reaches the
    /// Young/Daly optimum `sqrt(2 · C · mtbf_s)`, with `C` the measured
    /// cost of the previous save (always due until a first save exists).
    YoungDaly {
        /// Mean time between failures assumed for the interval, virtual
        /// seconds.
        mtbf_s: f64,
    },
    /// Never save. A fail-stop death without a snapshot is unrecoverable.
    Never,
}

/// One saved snapshot: the state plus where it lived.
#[derive(Clone, Debug)]
pub struct Snapshot<S> {
    /// Application-defined progress label (e.g. global iteration index) —
    /// recovery resumes from here.
    pub label: u64,
    /// The deep-copied application state.
    pub state: S,
    /// Per-rank byte footprint at save time, aligned with `tracks`.
    pub bytes: Vec<u64>,
    /// Original rank ids alive at save time, in slot order.
    pub tracks: Vec<usize>,
}

/// Aggregate checkpoint/restore accounting of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CheckpointStats {
    /// Snapshots saved.
    pub saves: u64,
    /// Restores performed.
    pub restores: u64,
    /// Virtual seconds of makespan added by saves.
    pub checkpoint_s: f64,
    /// Virtual seconds of makespan added by restores.
    pub restore_s: f64,
}

/// Owns the latest partner snapshot and decides when the next one is due.
#[derive(Clone, Debug)]
pub struct CheckpointStore<S> {
    policy: CheckpointPolicy,
    latest: Option<Snapshot<S>>,
    stats: CheckpointStats,
    /// Opportunities seen so far (the `EveryN` counter).
    ticks: u64,
    /// Measured cost of the most recent save, seconds.
    last_cost_s: f64,
    /// Virtual time of the most recent save (or restore).
    last_save_t: f64,
}

impl<S: Checkpoint> CheckpointStore<S> {
    /// A store with the given interval policy and no snapshot yet.
    pub fn new(policy: CheckpointPolicy) -> Self {
        if let CheckpointPolicy::EveryN(n) = policy {
            assert!(n >= 1, "EveryN(0) would never checkpoint; use Never");
        }
        CheckpointStore {
            policy,
            latest: None,
            stats: CheckpointStats::default(),
            ticks: 0,
            last_cost_s: 0.0,
            last_save_t: 0.0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Accumulated accounting.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// The latest snapshot, if any.
    pub fn latest(&self) -> Option<&Snapshot<S>> {
        self.latest.as_ref()
    }

    /// Should a save happen at this opportunity? Advances the policy's
    /// internal counter — call exactly once per opportunity (per AMR step).
    pub fn due(&mut self, e: &Engine) -> bool {
        let tick = self.ticks;
        self.ticks += 1;
        match self.policy {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryStep => true,
            CheckpointPolicy::EveryN(n) => tick.is_multiple_of(n),
            CheckpointPolicy::YoungDaly { mtbf_s } => {
                if self.latest.is_none() {
                    return true;
                }
                let interval = (2.0 * self.last_cost_s.max(f64::MIN_POSITIVE) * mtbf_s).sqrt();
                e.makespan() - self.last_save_t >= interval
            }
        }
    }

    /// Saves a snapshot of `state` under `label`, charging the partner
    /// mirror to the clocks *before* storing — a rank that dies at the
    /// checkpoint sync point leaves the previous snapshot intact.
    pub fn save(&mut self, e: &mut Engine, label: u64, state: &S) {
        let bytes = state.bytes_per_rank();
        let cost = e.charge_checkpoint(&bytes);
        self.stats.saves += 1;
        self.stats.checkpoint_s += cost;
        self.last_cost_s = cost;
        self.last_save_t = e.makespan();
        self.latest = Some(Snapshot {
            label,
            state: state.snapshot(),
            bytes,
            tracks: e.alive_ranks().to_vec(),
        });
    }

    /// Restores the latest snapshot after a shrink, charging survivors the
    /// re-fetch of the dead ranks' lost parts. Returns the snapshot;
    /// panics when no snapshot exists (policy [`CheckpointPolicy::Never`]
    /// or a death before the first save).
    pub fn restore(&mut self, e: &mut Engine) -> &Snapshot<S> {
        let snap = self
            .latest
            .as_ref()
            .expect("no checkpoint to restore — a rank died before the first save");
        let alive = e.alive_ranks();
        let mut local = vec![0u64; e.p()];
        let mut lost = 0u64;
        for (i, &r) in snap.tracks.iter().enumerate() {
            match alive.iter().position(|&a| a == r) {
                Some(slot) => local[slot] = snap.bytes[i],
                None => lost += snap.bytes[i],
            }
        }
        let cost = e.charge_restore(&local, lost);
        self.stats.restores += 1;
        self.stats.restore_s += cost;
        self.last_save_t = e.makespan();
        self.latest.as_ref().expect("stored above")
    }
}

impl Engine {
    /// Charges one partner-checkpoint save as a synchronisation point:
    /// every rank serialises its `bytes[r]` of state (`tc`), then mirrors
    /// them to its ring successor while receiving its predecessor's copy
    /// (`ts + tw_eff × (sent + received)`). Returns the makespan delta.
    pub fn charge_checkpoint(&mut self, bytes: &[u64]) -> f64 {
        assert_eq!(bytes.len(), self.p, "one byte count per live rank");
        let t0 = self.sync_start("checkpoint");
        let ts = self.perf.machine.ts;
        let tc = self.perf.machine.tc;
        let total: u64 = bytes.iter().sum();
        self.stats.collectives += 1;
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += total;
        self.stats.bytes_total += total;
        self.stats.msgs_total += self.p as u64;
        for r in 0..self.p {
            let succ = (r + 1) % self.p;
            let pred = (r + self.p - 1) % self.p;
            let sent = bytes[r];
            let recv = bytes[pred];
            let mut intra = 0;
            if self.same_node(r, succ) {
                intra += sent;
                self.stats.bytes_intra += sent;
            }
            if self.same_node(r, pred) {
                intra += recv;
            }
            let cost = tc * sent as f64 + ts + self.effective_tw(r) * (sent + recv) as f64;
            self.charge_comm(r, t0, cost, sent + recv, intra);
        }
        self.makespan() - t0
    }

    /// Charges restoring from partner copies after a shrink: each survivor
    /// reloads its own saved part (`tc`) and the dead ranks' `lost_bytes`
    /// are re-fetched from their partners, spread evenly over survivors
    /// (`ts + tw_eff × share`). Returns the makespan delta.
    pub fn charge_restore(&mut self, local_bytes: &[u64], lost_bytes: u64) -> f64 {
        assert_eq!(local_bytes.len(), self.p, "one byte count per live rank");
        let t0 = self.sync_start("restore");
        let ts = self.perf.machine.ts;
        let tc = self.perf.machine.tc;
        self.stats.collectives += 1;
        self.stats.bytes_total += lost_bytes;
        self.stats.msgs_total += self.p as u64;
        let share = lost_bytes as f64 / self.p as f64;
        for (r, &local) in local_bytes.iter().enumerate() {
            // Re-fetched shares come from arbitrary partners; model as
            // inter-node traffic.
            let cost = tc * local as f64 + ts + self.effective_tw(r) * share;
            self.charge_comm(r, t0, cost, share as u64, 0);
        }
        self.makespan() - t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optipart_machine::{AppModel, MachineModel, PerfModel};

    fn engine(p: usize) -> Engine {
        Engine::new(
            p,
            PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec()),
        )
    }

    #[test]
    fn distvec_footprint_and_tuple_compose() {
        let a = DistVec::from_parts(vec![vec![0u64; 3], vec![0u64; 5]]);
        let b = DistVec::from_parts(vec![vec![0u8; 10], vec![0u8; 2]]);
        assert_eq!(a.bytes_per_rank(), vec![24, 40]);
        let pair = (a, b);
        assert_eq!(pair.bytes_per_rank(), vec![34, 42]);
        let snap = pair.snapshot();
        assert_eq!(snap.0, pair.0);
        assert_eq!(snap.1, pair.1);
    }

    #[test]
    fn replicated_footprint_composes_in_tuples() {
        let a = DistVec::from_parts(vec![vec![0u64; 3], vec![0u64; 5]]);
        let b = DistVec::from_parts(vec![vec![0u8; 10], vec![0u8; 2]]);
        let r = Replicated::new(vec![1u32, 2, 3], 100, 2);
        assert_eq!(r.bytes_per_rank(), vec![100, 100]);
        let triple = (a, b, r);
        assert_eq!(triple.bytes_per_rank(), vec![134, 142]);
        let snap = triple.snapshot();
        assert_eq!(snap.2.value, vec![1, 2, 3]);
    }

    #[test]
    fn save_charges_clock_and_stores() {
        let mut e = engine(4);
        let data = DistVec::from_parts(vec![vec![1.0f64; 100]; 4]);
        let mut store = CheckpointStore::new(CheckpointPolicy::EveryStep);
        assert!(store.due(&e));
        store.save(&mut e, 7, &data);
        assert!(e.makespan() > 0.0, "checkpoint must cost virtual time");
        assert_eq!(e.stats().checkpoints, 1);
        assert_eq!(e.stats().checkpoint_bytes, 4 * 100 * 8);
        let snap = store.latest().unwrap();
        assert_eq!(snap.label, 7);
        assert_eq!(snap.tracks, vec![0, 1, 2, 3]);
        assert_eq!(snap.state.concat(), data.concat());
        assert!(store.stats().checkpoint_s > 0.0);
    }

    #[test]
    fn every_n_policy_counts_opportunities() {
        let e = engine(2);
        let mut store = CheckpointStore::<DistVec<u8>>::new(CheckpointPolicy::EveryN(3));
        let pattern: Vec<bool> = (0..7).map(|_| store.due(&e)).collect();
        assert_eq!(pattern, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    fn never_policy_is_never_due() {
        let e = engine(2);
        let mut store = CheckpointStore::<DistVec<u8>>::new(CheckpointPolicy::Never);
        assert!((0..10).all(|_| !store.due(&e)));
    }

    #[test]
    fn young_daly_waits_out_the_interval() {
        let mut e = engine(2);
        let data = DistVec::from_parts(vec![vec![0u64; 1000]; 2]);
        let mut store = CheckpointStore::new(CheckpointPolicy::YoungDaly { mtbf_s: 1e6 });
        // Bootstrap: no snapshot yet, always due.
        assert!(store.due(&e));
        store.save(&mut e, 0, &data);
        // Immediately after a save the Young/Daly interval has not elapsed.
        assert!(!store.due(&e));
        // Advance virtual time far past the interval via compute charges.
        let mut burn = DistVec::from_parts(vec![vec![0u8; 8]; 2]);
        for _ in 0..4 {
            e.compute(&mut burn, |_, _| 1e15);
        }
        assert!(store.due(&e), "long quiet period must trigger a save");
    }

    #[test]
    fn restore_charges_lost_share() {
        let mut e = engine(4).with_faults(crate::FaultPlan::new(1).kill_rank(2, 1));
        let data = DistVec::from_parts(vec![vec![9.0f64; 50]; 4]);
        let mut store = CheckpointStore::new(CheckpointPolicy::EveryStep);
        store.save(&mut e, 3, &data);
        // The kill fires at the next sync point (the barrier).
        let death = crate::catch_rank_death(|| e.barrier()).unwrap_err();
        assert_eq!(death.rank, 2);
        e.shrink_after_death();
        let t_before = e.makespan();
        let snap_label = store.restore(&mut e).label;
        assert_eq!(snap_label, 3);
        assert!(e.makespan() > t_before, "restore must cost virtual time");
        assert_eq!(store.stats().restores, 1);
        assert!(store.stats().restore_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "no checkpoint to restore")]
    fn restore_without_snapshot_panics() {
        let mut e = engine(2);
        let mut store = CheckpointStore::<DistVec<u8>>::new(CheckpointPolicy::Never);
        let _ = store.restore(&mut e);
    }
}
