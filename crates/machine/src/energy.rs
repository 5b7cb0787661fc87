//! Energy substrate: node power model, activity traces, IPMI-style sampling.
//!
//! Stands in for the paper's §4.1 measurement apparatus: "we obtained
//! on-board IPMI sensor information and recorded every machine's
//! instantaneous power draw (in Watts) every second", later combined with
//! job timestamps into per-job Joule estimates. Here the "sensor" reads a
//! simulated piecewise-constant power function reconstructed from the BSP
//! engine's activity intervals; the same 1 Hz sampling and integration then
//! produce per-node and per-job energies (Figs. 7–9).
//!
//! The power model follows the paper's §3.3 argument: total energy is
//! strongly correlated with runtime (idle/base power × makespan), the
//! compute energy depends on total work (which partitioning does not change),
//! and the communication energy is proportional to the data moved — which
//! OptiPart minimises.
//!
//! When the machine carries a two-level [`Hierarchy`], bytes that stayed
//! on-node are charged at the (cheaper) intra-node NIC rate. The discount is
//! additive — `flat + (nic_intra − nic) · bytes_intra` — so a degenerate
//! hierarchy (intra == inter) is bit-identical to the flat model.

use crate::model::Hierarchy;

/// Power envelope of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodePower {
    /// Power drawn by an idle (but powered) node, Watts.
    pub idle_w: f64,
    /// Power drawn with all cores busy, Watts.
    pub peak_w: f64,
    /// Marginal NIC + switch energy per byte moved, Joules.
    pub nic_j_per_byte: f64,
}

impl NodePower {
    /// Dynamic power of one busy rank when the node hosts `ranks_per_node`.
    #[inline]
    pub fn dynamic_per_rank_w(&self, ranks_per_node: usize) -> f64 {
        (self.peak_w - self.idle_w) / ranks_per_node.max(1) as f64
    }
}

/// What a rank was doing during an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivityKind {
    /// Local computation: draws dynamic core power.
    Compute,
    /// Network transfer: draws (reduced) core power plus NIC energy per byte.
    Communication,
}

/// One activity interval of one rank, in simulated seconds.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// Owning rank.
    pub rank: usize,
    /// Start time (simulated seconds).
    pub t0: f64,
    /// End time.
    pub t1: f64,
    /// Activity class.
    pub kind: ActivityKind,
    /// Bytes moved (communication intervals only).
    pub bytes: u64,
    /// Of `bytes`, how many never left the node (both endpoints on the same
    /// node). Always `<= bytes`; only the hierarchical energy model reads it.
    pub bytes_intra: u64,
}

/// Full activity trace of a simulated job: every rank's busy intervals.
///
/// Gaps between a rank's intervals are idle/wait time — the rank still draws
/// its share of node idle power, which is how load imbalance shows up as
/// wasted energy.
#[derive(Clone, Debug, Default)]
pub struct PowerTrace {
    /// Busy intervals, in no particular order.
    pub intervals: Vec<Interval>,
    /// Job end (max rank clock), simulated seconds.
    pub makespan: f64,
}

impl PowerTrace {
    /// Records an interval.
    pub fn push(&mut self, iv: Interval) {
        debug_assert!(iv.t1 >= iv.t0);
        self.makespan = self.makespan.max(iv.t1);
        self.intervals.push(iv);
    }

    /// Instantaneous power of `node` at time `t` — what the simulated IPMI
    /// sensor reads.
    ///
    /// Communication intervals draw a fraction of dynamic power (the core is
    /// mostly stalled in the network stack) plus their NIC energy amortised
    /// over the interval; under a two-level machine `hierarchy`, on-node
    /// bytes amortise at the intra-node NIC rate.
    pub fn power_at(
        &self,
        node: usize,
        t: f64,
        power: &NodePower,
        hierarchy: Option<&Hierarchy>,
        ranks_per_node: usize,
    ) -> f64 {
        if t > self.makespan {
            return 0.0; // job finished; node handed back
        }
        let dyn_w = power.dynamic_per_rank_w(ranks_per_node);
        let mut w = power.idle_w;
        for iv in &self.intervals {
            if iv.rank / ranks_per_node != node || t < iv.t0 || t >= iv.t1 {
                continue;
            }
            match iv.kind {
                ActivityKind::Compute => w += dyn_w,
                ActivityKind::Communication => {
                    w += COMM_CORE_FRACTION * dyn_w;
                    let dur = (iv.t1 - iv.t0).max(f64::EPSILON);
                    w += nic_j(power, hierarchy, iv.bytes, iv.bytes_intra) / dur;
                }
            }
        }
        w
    }

    /// Exact (closed-form) energy report, integrating the same power
    /// function analytically. The IPMI sampler converges to this as the
    /// sampling period shrinks. Under a two-level machine `hierarchy` the
    /// NIC Joules of each communication interval's on-node bytes are charged
    /// at the intra-node rate, matching [`crate::MachineModel::nic_j`]
    /// bit-for-bit.
    pub fn exact_energy(
        &self,
        power: &NodePower,
        hierarchy: Option<&Hierarchy>,
        ranks_per_node: usize,
        num_nodes: usize,
    ) -> EnergyReport {
        let dyn_w = power.dynamic_per_rank_w(ranks_per_node);
        let mut per_node = vec![power.idle_w * self.makespan; num_nodes];
        let mut comm_j = 0.0;
        for iv in &self.intervals {
            let node = iv.rank / ranks_per_node;
            let dur = iv.t1 - iv.t0;
            let j = match iv.kind {
                ActivityKind::Compute => dyn_w * dur,
                ActivityKind::Communication => {
                    let j = COMM_CORE_FRACTION * dyn_w * dur
                        + nic_j(power, hierarchy, iv.bytes, iv.bytes_intra);
                    comm_j += j;
                    j
                }
            };
            per_node[node] += j;
        }
        let total: f64 = per_node.iter().sum();
        EnergyReport {
            per_node_j: per_node,
            total_j: total,
            comm_j,
            makespan_s: self.makespan,
        }
    }
}

/// NIC Joules for `bytes` moved of which `bytes_intra` stayed on-node, in the
/// additive-discount form shared with [`crate::MachineModel::nic_j`]: a
/// missing or degenerate hierarchy adds exactly `+0.0`.
#[inline]
fn nic_j(power: &NodePower, hierarchy: Option<&Hierarchy>, bytes: u64, bytes_intra: u64) -> f64 {
    let flat = bytes as f64 * power.nic_j_per_byte;
    match hierarchy {
        Some(h) => flat + (h.nic_intra_j_per_byte - power.nic_j_per_byte) * bytes_intra as f64,
        None => flat,
    }
}

/// Fraction of a core's dynamic power drawn while blocked in communication.
///
/// Public so that cost engines accumulating energy incrementally stay
/// consistent with [`PowerTrace::exact_energy`].
pub const COMM_CORE_FRACTION: f64 = 0.3;

/// The simulated on-board power sensor of §4.1.
#[derive(Clone, Copy, Debug)]
pub struct IpmiSampler {
    /// Sampling period in (simulated) seconds; the paper sampled at 1 Hz.
    pub period_s: f64,
}

impl Default for IpmiSampler {
    fn default() -> Self {
        IpmiSampler { period_s: 1.0 }
    }
}

impl IpmiSampler {
    /// Samples the trace like the paper's collector — one reading per node
    /// per period — and integrates (left Riemann sum, matching "instantaneous
    /// power draw every second" × 1 s) into an [`EnergyReport`].
    ///
    /// As the paper notes (§4.1, citing Hackenberg et al.), IPMI samples are
    /// accurate as long as load variation is slow relative to the sampling
    /// rate; tests verify convergence to [`PowerTrace::exact_energy`].
    pub fn measure(
        &self,
        trace: &PowerTrace,
        power: &NodePower,
        hierarchy: Option<&Hierarchy>,
        ranks_per_node: usize,
        num_nodes: usize,
    ) -> EnergyReport {
        let mut per_node = vec![0.0; num_nodes];
        let mut t = 0.0;
        while t < trace.makespan {
            let dt = self.period_s.min(trace.makespan - t);
            for (node, e) in per_node.iter_mut().enumerate() {
                *e += trace.power_at(node, t, power, hierarchy, ranks_per_node) * dt;
            }
            t += self.period_s;
        }
        // The sampler cannot attribute Joules to phases; reuse the exact
        // split for the comm share (the paper post-processes job phase
        // timestamps the same way).
        let exact = trace.exact_energy(power, hierarchy, ranks_per_node, num_nodes);
        let total: f64 = per_node.iter().sum();
        EnergyReport {
            per_node_j: per_node,
            total_j: total,
            comm_j: exact.comm_j,
            makespan_s: trace.makespan,
        }
    }
}

/// Per-job energy estimate (§4.1: "per-job energy consumption estimates (in
/// Joules) ... In addition to the total job consumption, we estimated the
/// amount of energy consumed during the communication phase").
#[derive(Clone, Debug)]
pub struct EnergyReport {
    /// Energy per node, Joules (Fig. 9's per-node bars).
    pub per_node_j: Vec<f64>,
    /// Whole-job energy, Joules.
    pub total_j: f64,
    /// Energy attributed to communication, Joules.
    pub comm_j: f64,
    /// Job duration, simulated seconds.
    pub makespan_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power() -> NodePower {
        NodePower {
            idle_w: 100.0,
            peak_w: 300.0,
            nic_j_per_byte: 1e-9,
        }
    }

    fn simple_trace() -> PowerTrace {
        let mut t = PowerTrace::default();
        // Two ranks on one node (ranks_per_node = 2): rank 0 computes for
        // 10 s, rank 1 for 4 s then waits.
        t.push(Interval {
            rank: 0,
            t0: 0.0,
            t1: 10.0,
            kind: ActivityKind::Compute,
            bytes: 0,
            bytes_intra: 0,
        });
        t.push(Interval {
            rank: 1,
            t0: 0.0,
            t1: 4.0,
            kind: ActivityKind::Compute,
            bytes: 0,
            bytes_intra: 0,
        });
        t
    }

    #[test]
    fn exact_energy_accounts_idle_and_dynamic() {
        let t = simple_trace();
        let rep = t.exact_energy(&power(), None, 2, 1);
        // idle 100 W × 10 s + 100 W/rank × (10 + 4) s = 1000 + 1400.
        assert!((rep.total_j - 2400.0).abs() < 1e-9, "total {}", rep.total_j);
        assert_eq!(rep.comm_j, 0.0);
        assert_eq!(rep.makespan_s, 10.0);
    }

    #[test]
    fn imbalance_wastes_energy() {
        // Balanced: both ranks compute 7 s (same total work, makespan 7).
        let mut balanced = PowerTrace::default();
        balanced.push(Interval {
            rank: 0,
            t0: 0.0,
            t1: 7.0,
            kind: ActivityKind::Compute,
            bytes: 0,
            bytes_intra: 0,
        });
        balanced.push(Interval {
            rank: 1,
            t0: 0.0,
            t1: 7.0,
            kind: ActivityKind::Compute,
            bytes: 0,
            bytes_intra: 0,
        });
        let eb = balanced.exact_energy(&power(), None, 2, 1).total_j;
        let ei = simple_trace().exact_energy(&power(), None, 2, 1).total_j;
        assert!(eb < ei, "balanced {eb} must beat imbalanced {ei}");
    }

    #[test]
    fn communication_energy_proportional_to_bytes() {
        let p = power();
        let mk = |bytes| {
            let mut t = PowerTrace::default();
            t.push(Interval {
                rank: 0,
                t0: 0.0,
                t1: 1.0,
                kind: ActivityKind::Communication,
                bytes,
                bytes_intra: 0,
            });
            t.exact_energy(&p, None, 1, 1)
        };
        let small = mk(1_000_000);
        let large = mk(1_000_000_000);
        assert!(large.comm_j > small.comm_j);
        let delta = large.comm_j - small.comm_j;
        assert!((delta - 999_000_000.0 * 1e-9).abs() < 1e-6);
    }

    #[test]
    fn ipmi_sampler_converges_to_exact() {
        let t = simple_trace();
        let p = power();
        let exact = t.exact_energy(&p, None, 2, 1).total_j;
        let coarse = IpmiSampler { period_s: 1.0 }
            .measure(&t, &p, None, 2, 1)
            .total_j;
        let fine = IpmiSampler { period_s: 0.01 }
            .measure(&t, &p, None, 2, 1)
            .total_j;
        // Piecewise-constant trace with integer breakpoints: 1 Hz is exact
        // (up to one sample landing on a breakpoint under float drift).
        assert!((coarse - exact).abs() < 1e-6);
        // Finer sampling stays within one sample period of dynamic power.
        assert!((fine - exact).abs() <= 0.01 * 300.0);
    }

    #[test]
    fn ipmi_sampling_error_bounded_for_subsecond_phases() {
        // A 0.5 s compute burst: 1 Hz sampling over- or under-counts, but
        // stays within one period × dynamic power.
        let mut t = PowerTrace::default();
        t.push(Interval {
            rank: 0,
            t0: 0.2,
            t1: 0.7,
            kind: ActivityKind::Compute,
            bytes: 0,
            bytes_intra: 0,
        });
        let p = power();
        let exact = t.exact_energy(&p, None, 1, 1).total_j;
        let sampled = IpmiSampler { period_s: 1.0 }
            .measure(&t, &p, None, 1, 1)
            .total_j;
        assert!((sampled - exact).abs() <= (p.peak_w - p.idle_w) * 1.0 + 1e-9);
    }

    #[test]
    fn power_at_respects_node_boundaries() {
        let mut t = PowerTrace::default();
        t.push(Interval {
            rank: 3,
            t0: 0.0,
            t1: 5.0,
            kind: ActivityKind::Compute,
            bytes: 0,
            bytes_intra: 0,
        });
        let p = power();
        // ranks_per_node = 2 → rank 3 is on node 1.
        assert_eq!(t.power_at(0, 1.0, &p, None, 2), p.idle_w);
        assert!(t.power_at(1, 1.0, &p, None, 2) > p.idle_w);
    }

    #[test]
    fn per_node_vector_length_matches_nodes() {
        let t = simple_trace();
        let rep = t.exact_energy(&power(), None, 1, 2);
        assert_eq!(rep.per_node_j.len(), 2);
    }
}
