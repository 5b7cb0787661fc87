//! Model attribution: splitting measured per-phase cost against Eq. (3).
//!
//! The paper's performance model predicts a phase's runtime as
//! `Tp = α·tc·Wmax + tw·Cmax` (§3.3, Eq. 3), optionally extended with a
//! latency term `ts·Mmax`. The trace records, per phase and rank, how many
//! seconds of compute/communication the engine actually charged and how
//! many bytes moved — so we can recompute each Eq. (3) term from the
//! *observed* `Wmax`/`Cmax` and compare against the *measured* phase time.
//!
//! On a clean machine the engine charges exactly `tc` per compute byte, so
//! the residual is pure latency + load imbalance. Under a fault plan the
//! stragglers inflate measured compute beyond `α·tc·Wmax`; the suggested
//! `tc'` (= measured compute on the slowest rank / its bytes) is the value
//! a measurement-driven recalibration of [`optipart_machine::PerfModel`]
//! would adopt — exactly the drift this report exists to expose.

use crate::tracer::{Tracer, ROOT_PHASE};
use optipart_machine::PerfModel;

/// The Eq. (3) coefficients attribution evaluates against.
///
/// Observed byte counters already embody the application model: a compute
/// closure reports `α·elem_bytes` of traffic per element, so the observed
/// `Wmax` in bytes equals `α·Wmax[elements]·elem_bytes` and the Eq. (3)
/// first term is simply `tc × Wmax[bytes]`.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Application arithmetic intensity `α` (informational; folded into the
    /// observed byte counters, see the struct docs).
    pub alpha: f64,
    /// Modeled seconds per compute byte.
    pub tc: f64,
    /// Modeled seconds per wire byte.
    pub tw: f64,
    /// Modeled per-message latency, seconds.
    pub ts: f64,
    /// Modeled seconds per *intra-node* wire byte — `Some` only when the
    /// machine carries a two-level hierarchy; `None` degenerates every
    /// hierarchical term to the flat model.
    pub tw_intra: Option<f64>,
    /// `ceil(log2 p)` with `log2 1 = 1` — the engine's latency multiplier
    /// per tree collective.
    pub log_p: f64,
}

impl ModelParams {
    /// Extracts the coefficients from a performance model for a machine of
    /// `p` ranks.
    pub fn from_perf(perf: &PerfModel, p: usize) -> Self {
        ModelParams {
            alpha: perf.app.alpha,
            tc: perf.machine.tc,
            tw: perf.machine.tw,
            ts: perf.machine.ts,
            tw_intra: perf.machine.hierarchy.as_ref().map(|h| h.tw_intra),
            log_p: (p.max(2) as f64).log2().ceil(),
        }
    }
}

/// Eq. (3) attribution of one phase.
#[derive(Clone, Debug)]
pub struct PhaseAttribution {
    /// Phase name ("(top)" for code outside any phase block).
    pub phase: String,
    /// Measured phase makespan, virtual seconds (always-on phase counter;
    /// for the top level, the residual rank activity outside phases).
    pub measured_s: f64,
    /// Max per-rank compute seconds actually charged.
    pub compute_s: f64,
    /// Max per-rank communication seconds actually charged.
    pub comm_s: f64,
    /// Observed `Wmax`, bytes (max per-rank compute traffic, `α` and
    /// element size already folded in).
    pub wmax_bytes: u64,
    /// Observed `Cmax`, bytes (max per-rank wire traffic).
    pub cmax_bytes: u64,
    /// Of the `Cmax` rank's wire traffic, the bytes that stayed on-node
    /// (ties broken toward the lowest rank, matching the quality metric).
    pub cmax_intra_bytes: u64,
    /// Total wire bytes charged across all ranks in the phase.
    pub comm_bytes_total: u64,
    /// Of [`PhaseAttribution::comm_bytes_total`], the bytes whose peer was
    /// on the same node. `comm_intra_bytes + comm_inter_bytes()` always
    /// equals the total — the split is exact, not modeled.
    pub comm_intra_bytes: u64,
    /// Collectives (sync points) inside the phase.
    pub collectives: u64,
    /// Predicted `tc·Wmax` — Eq. (3)'s `α·tc·Wmax` with `α·elem_bytes`
    /// already folded into the observed byte counter.
    pub predicted_compute_s: f64,
    /// Predicted `tw·Cmax`.
    pub predicted_comm_s: f64,
    /// Predicted `ts·Mmax` latency extension (`ts · log p` per collective).
    pub predicted_latency_s: f64,
    /// `measured − (predicted compute + comm + latency)`.
    pub residual_s: f64,
    /// `tc` that would make `tc'·Wmax` match the measured compute —
    /// `None` when the phase moved no compute bytes. Equals the machine's
    /// `tc` exactly on a clean run; inflated by stragglers.
    pub tc_suggested: Option<f64>,
    /// `tw` that would make `tw'·Cmax + latency` match the measured comm —
    /// `None` when the phase moved no wire bytes.
    pub tw_suggested: Option<f64>,
}

impl PhaseAttribution {
    /// Total predicted phase time under Eq. (3) + latency extension.
    fn predicted_s(&self) -> f64 {
        self.predicted_compute_s + self.predicted_comm_s + self.predicted_latency_s
    }

    /// Wire bytes that crossed node boundaries:
    /// `comm_bytes_total − comm_intra_bytes`.
    pub fn comm_inter_bytes(&self) -> u64 {
        self.comm_bytes_total - self.comm_intra_bytes
    }
}

/// The full model-attribution report.
#[derive(Clone, Debug, Default)]
pub struct ModelAttribution {
    /// Per-phase attributions in first-use order.
    pub phases: Vec<PhaseAttribution>,
}

impl ModelAttribution {
    /// Looks a phase up by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseAttribution> {
        self.phases.iter().find(|a| a.phase == name)
    }

    /// A human-readable predicted-vs-measured table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "model attribution (Eq. 3): phase | measured | predicted \
             [tc·Wmax + tw·Cmax + ts·Mmax] | residual | tc' | tw'\n",
        );
        for a in &self.phases {
            let fmt_opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3e}"),
                None => "-".to_string(),
            };
            s.push_str(&format!(
                "  {:<14} {:>12.6} s {:>12.6} s [{:.6} + {:.6} + {:.6}] \
                 {:>+12.6} s  tc'={} tw'={}\n",
                a.phase,
                a.measured_s,
                a.predicted_s(),
                a.predicted_compute_s,
                a.predicted_comm_s,
                a.predicted_latency_s,
                a.residual_s,
                fmt_opt(a.tc_suggested),
                fmt_opt(a.tw_suggested),
            ));
        }
        s
    }
}

/// Builds the Eq. (3) attribution report from a recorded trace.
///
/// Requires span recording (the per-(phase, rank) accumulators are gated on
/// it); with spans disabled the report is empty.
pub fn model_attribution(t: &Tracer, params: ModelParams) -> ModelAttribution {
    // Gather the phase ids present in the per-(phase, rank) stats, keeping
    // first-use (interner) order.
    let stats = t.per_phase_rank();
    let mut phase_ids: Vec<u32> = Vec::new();
    for &((ph, _), _) in &stats {
        if !phase_ids.contains(&ph) {
            phase_ids.push(ph);
        }
    }
    phase_ids.sort_unstable();

    let mut phases = Vec::with_capacity(phase_ids.len());
    for ph in phase_ids {
        let mut compute_s = 0.0f64;
        let mut comm_s = 0.0f64;
        let mut wmax = 0u64;
        let mut cmax = 0u64;
        let mut cmax_intra = 0u64;
        let mut comm_total = 0u64;
        let mut comm_intra = 0u64;
        for &((p_id, _), s) in &stats {
            if p_id != ph {
                continue;
            }
            compute_s = compute_s.max(s.compute_s);
            comm_s = comm_s.max(s.comm_s);
            wmax = wmax.max(s.compute_bytes);
            // Strict > keeps the lowest rank on ties (stats are sorted by
            // (phase, rank)), matching the quality metric's convention.
            if s.comm_bytes > cmax {
                cmax = s.comm_bytes;
                cmax_intra = s.comm_intra_bytes;
            }
            comm_total += s.comm_bytes;
            comm_intra += s.comm_intra_bytes;
        }
        let collectives = t.syncs().iter().filter(|s| s.phase == ph).count() as u64;
        let name = t.name(ph);
        let measured_s = if ph == ROOT_PHASE {
            // No counter covers top-level code; the charged activity is the
            // best available stand-in.
            compute_s + comm_s
        } else {
            t.phase_time(name)
        };
        let predicted_compute_s = params.tc * wmax as f64;
        // Hierarchy-aware Eq. (3) comm term in the shared additive-discount
        // form: a flat machine (tw_intra None) predicts exactly tw·Cmax.
        let flat_comm = params.tw * cmax as f64;
        let predicted_comm_s = match params.tw_intra {
            Some(twi) => flat_comm + (twi - params.tw) * cmax_intra as f64,
            None => flat_comm,
        };
        let predicted_latency_s = params.ts * params.log_p * collectives as f64;
        let residual_s = measured_s - predicted_compute_s - predicted_comm_s - predicted_latency_s;
        let tc_suggested = (wmax > 0).then(|| compute_s / wmax as f64);
        let tw_suggested =
            (cmax > 0).then(|| ((comm_s - predicted_latency_s) / cmax as f64).max(0.0));
        phases.push(PhaseAttribution {
            phase: if ph == ROOT_PHASE {
                "(top)".to_string()
            } else {
                name.to_string()
            },
            measured_s,
            compute_s,
            comm_s,
            wmax_bytes: wmax,
            cmax_bytes: cmax,
            cmax_intra_bytes: cmax_intra,
            comm_bytes_total: comm_total,
            comm_intra_bytes: comm_intra,
            collectives,
            predicted_compute_s,
            predicted_comm_s,
            predicted_latency_s,
            residual_s,
            tc_suggested,
            tw_suggested,
        });
    }
    ModelAttribution { phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn params() -> ModelParams {
        ModelParams {
            alpha: 2.0,
            tc: 1e-9,
            tw: 1e-8,
            ts: 1e-6,
            tw_intra: None,
            log_p: 1.0,
        }
    }

    #[test]
    fn clean_compute_phase_recovers_tc_exactly() {
        let mut t = Tracer::new(2);
        t.enable_spans();
        t.phase_begin("work");
        // Engine semantics: seconds = reported bytes × tc.
        let p = params();
        let bytes = 1_000_000u64;
        let secs = p.tc * bytes as f64;
        t.record_compute(0, 0.0, secs, bytes);
        t.record_compute(1, 0.0, secs / 2.0, bytes / 2);
        t.phase_end(0.0, secs, 0);
        let rep = model_attribution(&t, p);
        let a = rep.phase("work").expect("phase present");
        assert_eq!(a.wmax_bytes, bytes);
        let tc = a.tc_suggested.unwrap();
        assert!((tc - p.tc).abs() < 1e-18, "tc' {tc} vs {}", p.tc);
        assert!(a.residual_s.abs() < 1e-15);
    }

    #[test]
    fn straggler_inflates_suggested_tc() {
        let mut t = Tracer::new(2);
        t.enable_spans();
        t.phase_begin("work");
        let p = params();
        let bytes = 1_000u64;
        let clean = p.tc * bytes as f64;
        t.record_compute(0, 0.0, clean * 4.0, bytes); // 4× straggler
        t.record_compute(1, 0.0, clean, bytes);
        t.phase_end(0.0, clean * 4.0, 0);
        let rep = model_attribution(&t, p);
        let a = rep.phase("work").unwrap();
        let tc = a.tc_suggested.unwrap();
        assert!((tc - 4.0 * p.tc).abs() < 1e-18);
        assert!(a.residual_s > 0.0, "straggler must show as + residual");
    }

    #[test]
    fn empty_trace_empty_report() {
        let t = Tracer::new(4);
        assert!(model_attribution(&t, params()).phases.is_empty());
    }
}
