//! Deterministic fault injection for the BSP engine.
//!
//! Real machines are not the clean LogGP abstraction of §3.1: some cores run
//! slow (OS noise, thermal throttling, a failing DIMM), some links are
//! congested, and collectives occasionally hit transient failures that the
//! transport retries. A [`FaultPlan`] models all three **on the virtual
//! clocks only**:
//!
//! * **Compute stragglers** — a seeded fraction of ranks multiply every
//!   compute charge by a severity factor (`compute_factor ≥ 1`).
//! * **Link jitter** — every rank's effective `tw` is scaled by a log-normal
//!   factor (`tw_factor`, median 1), so communication costs become
//!   heterogeneous across ranks.
//! * **Transient collective failures** — each data-moving collective may
//!   fail on a rank and be retried with exponential backoff; every retry
//!   charges the rank's transfer cost again plus the backoff wait.
//! * **Fail-stop rank failures** — a seeded fraction of ranks (or explicitly
//!   scheduled ranks) *die* at a chosen synchronisation point: the dead rank
//!   never arrives, survivors detect the death after a timeout charge, and
//!   the engine surfaces a [`RankDeath`] that recovery drivers catch via
//!   [`catch_rank_death`] before shrinking to the survivor set.
//!
//! Faults never touch payload data: buffers move exactly as in a fault-free
//! run, so splitters, partitions and FEM results are bit-identical with
//! faults on or off — only clocks, energy and retry counters change (and,
//! for fail-stop events, the rank count after recovery). All draws are
//! keyed hashes of `(seed, event identity)` via [`rng::mix`], not stateful
//! streams, so the injected faults are independent of host thread count and
//! of how many unrelated events ran before: the same plan replays the same
//! faults, always.

use crate::engine::Engine;
use crate::rng::{self, SplitMix64};
use std::fmt;
use std::str::FromStr;

/// A seeded, reproducible description of what goes wrong during a run.
///
/// The default plan is entirely benign (no stragglers, no jitter, no
/// failures); build the failure modes you want:
///
/// ```
/// use optipart_mpisim::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .with_stragglers(0.25, 3.0)     // a quarter of ranks run 3× slow
///     .with_tw_jitter(0.2)            // per-rank link speed spread
///     .with_transient_failures(0.05); // 5% of exchanges need a retry
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; equal seeds give identical fault sequences.
    pub seed: u64,
    /// Fraction of ranks that straggle, in `[0, 1]`.
    pub straggler_frac: f64,
    /// Multiplicative compute slowdown of a straggling rank (`≥ 1`).
    pub straggler_severity: f64,
    /// σ of the log-normal per-rank `tw` factor (0 disables jitter).
    pub tw_jitter_sigma: f64,
    /// Probability that one attempt of a data-moving collective fails on a
    /// given rank and must be retried.
    pub alltoall_fail_prob: f64,
    /// Retry budget per (collective, rank). The draw for the final attempt
    /// is ignored — transient faults always heal within the budget.
    pub max_retries: u32,
    /// Backoff before the first retry, seconds; doubles per further retry.
    pub backoff_base_s: f64,
    /// Fraction of ranks that fail-stop during the run, in `[0, 1]`
    /// (seeded choice of victims and death times).
    pub failstop_frac: f64,
    /// Seeded fail-stop death times are drawn uniformly from sync points
    /// `1..=failstop_horizon` (see [`FaultPlan::death_schedule`]).
    pub failstop_horizon: u64,
    /// Explicit fail-stop events: `(rank, sync_seq)` — the rank never
    /// arrives at the global synchronisation point with that 0-based
    /// sequence number.
    pub kills: Vec<(usize, u64)>,
    /// Seconds survivors wait at a collective before declaring a missing
    /// rank dead (the detection timeout charged to every survivor clock).
    pub detect_timeout_s: f64,
}

impl FaultPlan {
    /// A benign plan: seeded but injecting nothing until configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            straggler_frac: 0.0,
            straggler_severity: 1.0,
            tw_jitter_sigma: 0.0,
            alltoall_fail_prob: 0.0,
            max_retries: 3,
            backoff_base_s: 1e-4,
            failstop_frac: 0.0,
            failstop_horizon: 24,
            kills: Vec::new(),
            detect_timeout_s: 1e-3,
        }
    }

    /// Marks a `frac` of ranks (seeded choice) as `severity`× slower in
    /// compute.
    pub fn with_stragglers(mut self, frac: f64, severity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "straggler_frac {frac} outside [0,1]"
        );
        assert!(
            severity >= 1.0,
            "straggler_severity {severity} < 1 would be a speedup"
        );
        self.straggler_frac = frac;
        self.straggler_severity = severity;
        self
    }

    /// Log-normal per-rank `tw` perturbation with the given σ (median 1).
    pub fn with_tw_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "tw_jitter_sigma {sigma} negative");
        self.tw_jitter_sigma = sigma;
        self
    }

    /// Transient per-(collective, rank) failure probability for data-moving
    /// collectives. The closed interval `[0, 1]` is accepted: even at
    /// `prob = 1.0` the final budgeted attempt never fails
    /// ([`FaultPlan::attempt_fails`]), so every exchange costs exactly
    /// `max_retries` retries instead of livelocking.
    pub fn with_transient_failures(mut self, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "fail prob {prob} outside [0,1]"
        );
        self.alltoall_fail_prob = prob;
        self
    }

    /// Marks a `frac` of ranks (seeded choice) as fail-stop victims: each
    /// dies at a seeded sync point within [`FaultPlan::failstop_horizon`].
    pub fn with_rank_failures(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "failstop_frac {frac} outside [0,1]"
        );
        self.failstop_frac = frac;
        self
    }

    /// Horizon (in global sync points) within which seeded fail-stop deaths
    /// are drawn.
    pub fn with_failstop_horizon(mut self, horizon: u64) -> Self {
        assert!(horizon >= 1, "failstop_horizon must be at least 1");
        self.failstop_horizon = horizon;
        self
    }

    /// Schedules an explicit fail-stop: `rank` never arrives at the global
    /// synchronisation point with 0-based sequence number `at_collective_seq`
    /// (every collective — reductions, barriers, exchanges, checkpoints —
    /// advances the sequence by one).
    pub fn kill_rank(mut self, rank: usize, at_collective_seq: u64) -> Self {
        self.kills.push((rank, at_collective_seq));
        self
    }

    /// Detection timeout: how long survivors wait at a collective before
    /// declaring a missing rank dead.
    pub fn with_detect_timeout(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "detect timeout {secs} negative");
        self.detect_timeout_s = secs;
        self
    }

    /// Retry budget and initial backoff for transient failures.
    pub fn with_retry_policy(mut self, max_retries: u32, backoff_base_s: f64) -> Self {
        assert!(backoff_base_s >= 0.0);
        self.max_retries = max_retries;
        self.backoff_base_s = backoff_base_s;
        self
    }

    /// Materialises the per-rank factors for a machine of `p` ranks.
    pub fn materialize(&self, p: usize) -> RankFaults {
        let mut compute_factor = vec![1.0; p];
        if self.straggler_frac > 0.0 && self.straggler_severity > 1.0 {
            // Seeded choice of straggler ranks: shuffle indices, take the
            // first k — every rank equally likely, count exact.
            let k = (self.straggler_frac * p as f64).round() as usize;
            let mut idx: Vec<usize> = (0..p).collect();
            SplitMix64::new(self.seed)
                .fork(STREAM_STRAGGLERS)
                .shuffle(&mut idx);
            for &r in idx.iter().take(k.min(p)) {
                compute_factor[r] = self.straggler_severity;
            }
        }
        let tw_factor = if self.tw_jitter_sigma > 0.0 {
            let mut rng = SplitMix64::new(self.seed).fork(STREAM_TW_JITTER);
            (0..p)
                .map(|_| rng.next_log_normal(0.0, self.tw_jitter_sigma))
                .collect()
        } else {
            vec![1.0; p]
        };
        RankFaults {
            compute_factor,
            tw_factor,
        }
    }

    /// The fail-stop schedule for a machine of `p` ranks: `(sync_seq, rank)`
    /// death events, sorted by firing order. Explicit [`FaultPlan::kill_rank`]
    /// events are merged with the seeded draws of
    /// [`FaultPlan::with_rank_failures`] (victims chosen by seeded shuffle,
    /// death times uniform in `1..=failstop_horizon`); a rank scheduled to
    /// die twice dies at the earlier point.
    pub fn death_schedule(&self, p: usize) -> Vec<(u64, usize)> {
        let mut by_rank: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
        for &(r, seq) in &self.kills {
            assert!(r < p, "kill_rank({r}, ..) targets a rank outside 0..{p}");
            let e = by_rank.entry(r).or_insert(seq);
            *e = (*e).min(seq);
        }
        if self.failstop_frac > 0.0 {
            let k = ((self.failstop_frac * p as f64).round() as usize).min(p);
            let mut idx: Vec<usize> = (0..p).collect();
            let mut rng = SplitMix64::new(self.seed).fork(STREAM_FAILSTOP);
            rng.shuffle(&mut idx);
            for &r in idx.iter().take(k) {
                let seq = 1 + rng.next_below(self.failstop_horizon.max(1));
                let e = by_rank.entry(r).or_insert(seq);
                *e = (*e).min(seq);
            }
        }
        let mut out: Vec<(u64, usize)> = by_rank.into_iter().map(|(r, s)| (s, r)).collect();
        out.sort_unstable();
        out
    }

    /// Does attempt `attempt` of data-moving collective number `seq` fail on
    /// `rank`? A stateless keyed draw: independent of every other event and
    /// of host threading. The final budgeted attempt never fails.
    pub fn attempt_fails(&self, seq: u64, rank: usize, attempt: u32) -> bool {
        if self.alltoall_fail_prob <= 0.0 || attempt >= self.max_retries {
            return false;
        }
        let key = rng::mix(
            self.seed
                ^ rng::mix(seq)
                ^ rng::mix(((rank as u64) << 8) | attempt as u64 | STREAM_FAILURES),
        );
        rng::unit_f64(key) < self.alltoall_fail_prob
    }

    /// Number of retries collective `seq` costs `rank` under this plan.
    pub fn retries_for(&self, seq: u64, rank: usize) -> u32 {
        let mut n = 0;
        while self.attempt_fails(seq, rank, n) {
            n += 1;
        }
        n
    }

    /// Backoff wait charged before retry number `retry` (0-based), seconds.
    #[inline]
    pub fn backoff_s(&self, retry: u32) -> f64 {
        self.backoff_base_s * (1u64 << retry.min(62)) as f64
    }
}

// Distinct sub-stream tags so the fault classes draw independently.
const STREAM_STRAGGLERS: u64 = 0x5354_5241_4747;
const STREAM_TW_JITTER: u64 = 0x4a49_5454_4552;
const STREAM_FAILURES: u64 = 0x4641_494c << 32;
const STREAM_FAILSTOP: u64 = 0x4445_4144; // "DEAD"

/// A fail-stop event, raised by the engine (as a panic payload) when a
/// scheduled death fires at a synchronisation point. Catch it with
/// [`catch_rank_death`], then call `Engine::shrink_after_death` and restore
/// from a checkpoint to continue on the survivor set.
#[derive(Clone, Debug, PartialEq)]
pub struct RankDeath {
    /// The dead rank's *original* id (its trace track), stable across
    /// shrinks.
    pub rank: usize,
    /// 0-based global sync-point sequence number it failed to arrive at.
    pub at_seq: u64,
    /// The dead rank's frozen clock (capped at the detection sync time).
    pub t_last: f64,
    /// Virtual time at which survivors completed detection (sync time +
    /// detection timeout).
    pub t_detect: f64,
}

impl fmt::Display for RankDeath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} failed at sync point {} (detected at t = {:.6} s)",
            self.rank, self.at_seq, self.t_detect
        )
    }
}

/// Runs `f`, converting an engine-raised [`RankDeath`] unwind into
/// `Err(death)`. Any other panic is propagated unchanged. Installs (once) a
/// panic hook that keeps `RankDeath` unwinds silent — they are control flow,
/// not errors.
pub fn catch_rank_death<R>(f: impl FnOnce() -> R) -> Result<R, RankDeath> {
    install_death_hook();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<RankDeath>() {
            Ok(death) => Err(*death),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// [`catch_rank_death`] plus the shrink every caller must follow it with:
/// runs `f` on the engine and, if a rank dies inside it, resolves the death
/// with [`Engine::shrink_after_death`] before returning it — so on `Err`
/// the engine is already the live `p − 1`-rank machine and the caller only
/// decides what to restore and retry.
pub fn survive_rank_death<R>(
    engine: &mut Engine,
    f: impl FnOnce(&mut Engine) -> R,
) -> Result<R, RankDeath> {
    catch_rank_death(|| f(engine)).map_err(|_| engine.shrink_after_death())
}

/// Silences the default panic message for [`RankDeath`] payloads only;
/// every other panic keeps the previous hook's behaviour.
fn install_death_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankDeath>().is_none() {
                prev(info);
            }
        }));
    });
}

impl fmt::Display for FaultPlan {
    /// Canonical compact spec, e.g.
    /// `seed=7,straggler=0.25x3,jitter=0.2,fail=0.05,kill=3@12`. Only
    /// non-default fields are printed (after the always-present seed), and
    /// floats use Rust's shortest round-trip formatting, so
    /// `spec.parse::<FaultPlan>()` reproduces the plan exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = FaultPlan::new(self.seed);
        write!(f, "seed={}", self.seed)?;
        if self.straggler_frac > 0.0 && self.straggler_severity > 1.0 {
            write!(
                f,
                ",straggler={}x{}",
                self.straggler_frac, self.straggler_severity
            )?;
        }
        if self.tw_jitter_sigma > 0.0 {
            write!(f, ",jitter={}", self.tw_jitter_sigma)?;
        }
        if self.alltoall_fail_prob > 0.0 {
            write!(f, ",trans={}", self.alltoall_fail_prob)?;
        }
        if self.max_retries != d.max_retries || self.backoff_base_s != d.backoff_base_s {
            write!(f, ",retry={}@{}", self.max_retries, self.backoff_base_s)?;
        }
        if self.failstop_frac > 0.0 {
            write!(f, ",fail={}", self.failstop_frac)?;
            if self.failstop_horizon != d.failstop_horizon {
                write!(f, "@{}", self.failstop_horizon)?;
            }
        }
        for &(r, seq) in &self.kills {
            write!(f, ",kill={r}@{seq}")?;
        }
        if self.detect_timeout_s != d.detect_timeout_s {
            write!(f, ",detect={}", self.detect_timeout_s)?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parses the compact spec of the `Display` impl. Grammar (tokens comma
    /// separated, any order, `seed` defaulting to 0 when absent):
    ///
    /// ```text
    /// seed=<u64>            master seed
    /// straggler=<frac>x<sev>  straggling ranks
    /// jitter=<sigma>        log-normal tw jitter
    /// trans=<prob>          transient collective failure probability
    /// retry=<n>@<backoff>   retry budget @ initial backoff seconds
    /// fail=<frac>[@<horizon>]  seeded fail-stop fraction [@ sync horizon]
    /// kill=<rank>@<seq>     explicit fail-stop (repeatable)
    /// detect=<secs>         death detection timeout
    /// ```
    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty fault spec".into());
        }
        let mut plan = FaultPlan::new(0);
        for tok in s.split(',') {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("token '{tok}' is not key=value"))?;
            let num = |v: &str| -> Result<f64, String> { v.parse().map_err(|_| bad(key, v)) };
            match key.trim() {
                "seed" => plan.seed = val.parse().map_err(|_| bad(key, val))?,
                "straggler" => {
                    let (frac, sev) = val
                        .split_once('x')
                        .ok_or_else(|| format!("straggler wants <frac>x<severity>, got '{val}'"))?;
                    plan = plan.with_stragglers(num(frac)?, num(sev)?);
                }
                "jitter" => plan = plan.with_tw_jitter(num(val)?),
                "trans" => plan = plan.with_transient_failures(num(val)?),
                "retry" => {
                    let (n, base) = val
                        .split_once('@')
                        .ok_or_else(|| format!("retry wants <n>@<backoff_s>, got '{val}'"))?;
                    plan = plan.with_retry_policy(n.parse().map_err(|_| bad(key, n))?, num(base)?);
                }
                "fail" => match val.split_once('@') {
                    Some((frac, horizon)) => {
                        plan = plan
                            .with_rank_failures(num(frac)?)
                            .with_failstop_horizon(horizon.parse().map_err(|_| bad(key, horizon))?);
                    }
                    None => plan = plan.with_rank_failures(num(val)?),
                },
                "kill" => {
                    let (r, seq) = val
                        .split_once('@')
                        .ok_or_else(|| format!("kill wants <rank>@<sync_seq>, got '{val}'"))?;
                    plan = plan.kill_rank(
                        r.parse().map_err(|_| bad(key, r))?,
                        seq.parse().map_err(|_| bad(key, seq))?,
                    );
                }
                "detect" => plan = plan.with_detect_timeout(num(val)?),
                other => return Err(format!("unknown fault spec key '{other}'")),
            }
        }
        Ok(plan)
    }
}

fn bad(key: &str, val: &str) -> String {
    format!("bad value '{val}' for fault spec key '{key}'")
}

/// Per-rank multiplicative factors materialised from a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct RankFaults {
    /// Compute-time multiplier per rank (`1.0` = healthy).
    pub compute_factor: Vec<f64>,
    /// Effective-`tw` multiplier per rank (`1.0` = nominal link).
    pub tw_factor: Vec<f64>,
}

impl RankFaults {
    /// Ranks whose compute factor exceeds 1 — the stragglers.
    pub fn straggler_ranks(&self) -> Vec<usize> {
        self.compute_factor
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 1.0)
            .map(|(r, _)| r)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        let rf = FaultPlan::new(1).materialize(16);
        assert!(rf.compute_factor.iter().all(|&f| f == 1.0));
        assert!(rf.tw_factor.iter().all(|&f| f == 1.0));
        assert!(rf.straggler_ranks().is_empty());
        assert!(!FaultPlan::new(1).attempt_fails(0, 0, 0));
    }

    #[test]
    fn straggler_count_is_exact_and_seeded() {
        let plan = FaultPlan::new(7).with_stragglers(0.25, 3.0);
        let rf = plan.materialize(64);
        assert_eq!(rf.straggler_ranks().len(), 16);
        assert!(rf
            .straggler_ranks()
            .iter()
            .all(|&r| rf.compute_factor[r] == 3.0));
        // Same seed, same stragglers; different seed, (almost surely) not.
        assert_eq!(rf, plan.materialize(64));
        let other = FaultPlan::new(8).with_stragglers(0.25, 3.0).materialize(64);
        assert_ne!(rf.straggler_ranks(), other.straggler_ranks());
    }

    #[test]
    fn tw_jitter_has_unit_median_and_spread() {
        let rf = FaultPlan::new(3).with_tw_jitter(0.3).materialize(10_000);
        assert!(rf.tw_factor.iter().all(|&f| f > 0.0));
        let mut sorted = rf.tw_factor.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[5_000];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert!(sorted[0] < 0.7 && sorted[9_999] > 1.4, "no spread");
    }

    #[test]
    fn failure_draws_are_stateless_and_bounded() {
        let plan = FaultPlan::new(11)
            .with_transient_failures(0.5)
            .with_retry_policy(4, 1e-3);
        for seq in 0..50u64 {
            for rank in 0..8 {
                let a = plan.retries_for(seq, rank);
                let b = plan.retries_for(seq, rank);
                assert_eq!(a, b, "draws must be reproducible");
                assert!(a <= 4, "retry budget exceeded");
            }
        }
        // With p_fail = 0.5 over 400 events, some retries must occur.
        let total: u32 = (0..50)
            .flat_map(|s| (0..8).map(move |r| (s, r)))
            .map(|(s, r)| plan.retries_for(s, r))
            .sum();
        assert!(total > 50, "expected plenty of retries, got {total}");
    }

    #[test]
    fn backoff_doubles() {
        let plan = FaultPlan::new(1).with_retry_policy(5, 0.5);
        assert_eq!(plan.backoff_s(0), 0.5);
        assert_eq!(plan.backoff_s(1), 1.0);
        assert_eq!(plan.backoff_s(3), 4.0);
    }

    #[test]
    fn transient_prob_one_is_accepted_and_bounded() {
        // The closed interval: prob = 1.0 costs exactly the retry budget on
        // every attempt (the final attempt never fails), no livelock.
        let plan = FaultPlan::new(9)
            .with_transient_failures(1.0)
            .with_retry_policy(4, 1e-4);
        for seq in 0..20u64 {
            for rank in 0..8 {
                assert_eq!(plan.retries_for(seq, rank), 4);
            }
        }
    }

    #[test]
    fn death_schedule_is_seeded_and_merges_kills() {
        let plan = FaultPlan::new(21).with_rank_failures(0.25);
        let a = plan.death_schedule(16);
        assert_eq!(a.len(), 4, "0.25 × 16 ranks must die: {a:?}");
        assert_eq!(a, plan.death_schedule(16), "schedule must replay");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "unsorted: {a:?}");
        assert!(a.iter().all(|&(s, r)| (1..=24).contains(&s) && r < 16));
        // An explicit kill earlier than the seeded draw wins; a fresh rank
        // is appended.
        let victim = a[0].1;
        let plan2 = plan.clone().kill_rank(victim, 0);
        let b = plan2.death_schedule(16);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], (0, victim));
        let other = FaultPlan::new(22)
            .with_rank_failures(0.25)
            .death_schedule(16);
        assert_ne!(a, other, "different seeds, different schedules");
    }

    #[test]
    fn spec_string_round_trips() {
        // Fixed cases, including the ISSUE's example shape.
        for spec in [
            "seed=7",
            "seed=7,straggler=0.25x3,jitter=0.2,fail=0.05,kill=3@12",
            "seed=1,trans=0.3,retry=5@0.001,fail=0.5@10,detect=0.01",
        ] {
            let plan: FaultPlan = spec.parse().expect("valid spec");
            let printed = plan.to_string();
            let again: FaultPlan = printed.parse().expect("printed spec parses");
            assert_eq!(plan, again, "round trip failed for '{spec}'");
        }
        // Seeded randomized round-trip property: Display ∘ FromStr is the
        // identity on arbitrary plans (shortest-float formatting is exact).
        let mut rng = SplitMix64::new(0xF00D);
        for _ in 0..200 {
            let mut plan = FaultPlan::new(rng.next_u64());
            if rng.next_f64() < 0.5 {
                plan = plan.with_stragglers(rng.next_f64(), 1.0 + 9.0 * rng.next_f64());
            }
            if rng.next_f64() < 0.5 {
                plan = plan.with_tw_jitter(rng.next_f64());
            }
            if rng.next_f64() < 0.5 {
                plan = plan.with_transient_failures(rng.next_f64());
            }
            if rng.next_f64() < 0.5 {
                plan = plan.with_retry_policy(rng.next_below(8) as u32, rng.next_f64() * 1e-2);
            }
            if rng.next_f64() < 0.5 {
                plan = plan
                    .with_rank_failures(rng.next_f64())
                    .with_failstop_horizon(1 + rng.next_below(100));
            }
            for _ in 0..rng.next_below(3) {
                plan = plan.kill_rank(rng.next_below(64) as usize, rng.next_below(40));
            }
            if rng.next_f64() < 0.5 {
                plan = plan.with_detect_timeout(rng.next_f64() * 1e-2);
            }
            let again: FaultPlan = plan.to_string().parse().expect("printed spec parses");
            assert_eq!(plan, again, "round trip failed for '{plan}'");
        }
    }

    #[test]
    fn spec_string_rejects_garbage() {
        assert!("".parse::<FaultPlan>().is_err());
        assert!("seed".parse::<FaultPlan>().is_err());
        assert!("bogus=1".parse::<FaultPlan>().is_err());
        assert!("straggler=0.5".parse::<FaultPlan>().is_err());
        assert!("kill=3".parse::<FaultPlan>().is_err());
        assert!("seed=notanumber".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn materialize_is_independent_of_p_prefix() {
        // The first ranks' tw factors agree across machine sizes (stream
        // draws are positional), which keeps small-p debugging sessions
        // representative of larger runs.
        let a = FaultPlan::new(5).with_tw_jitter(0.2).materialize(8);
        let b = FaultPlan::new(5).with_tw_jitter(0.2).materialize(16);
        assert_eq!(a.tw_factor[..8], b.tw_factor[..8]);
    }
}
