//! The performance model of §3.3 (Eq. 3) and the TreeSort cost models of
//! §3.1 (Eqs. 1–2).

use crate::model::{AppModel, MachineModel};

/// Performance model binding a machine to an application.
///
/// This is the object OptiPart (Algorithm 3) consults: given a candidate
/// partition's maximum work `Wmax` and maximum communication `Cmax`, it
/// predicts the per-iteration runtime of the subsequent computation.
#[derive(Clone, Debug)]
pub struct PerfModel {
    /// Target machine.
    pub machine: MachineModel,
    /// Target application kernel.
    pub app: AppModel,
}

impl PerfModel {
    /// Creates a model for an application on a machine.
    pub fn new(machine: MachineModel, app: AppModel) -> Self {
        PerfModel { machine, app }
    }

    /// Eq. (3): `Tp = α · tc · Wmax + tw · Cmax`.
    ///
    /// `wmax` is the maximum number of work units (elements) on any rank;
    /// `cmax` the maximum number of elements any rank exchanges. Both are
    /// scaled to bytes by the application's element size.
    #[inline]
    pub fn predict(&self, wmax: u64, cmax: u64) -> f64 {
        self.app.alpha * self.machine.tc * (wmax as f64 * self.app.elem_bytes)
            + self.machine.tw * (cmax as f64 * self.app.elem_bytes)
    }

    /// Hierarchy-aware Eq. (3): the flat prediction plus the intra-node
    /// discount on the `cmax_intra ≤ cmax` exchanged elements that never
    /// leave the bottleneck rank's node,
    /// `Tp = α·tc·Wmax·b + tw·Cmax·b + (tw_intra − tw)·Cmax_intra·b`.
    ///
    /// Written in additive-discount form so a machine with no hierarchy, or
    /// a degenerate one (intra == inter), predicts bit-identically to
    /// [`PerfModel::predict`] — the flattening contract every differential
    /// oracle leans on.
    #[inline]
    pub fn predict_hier(&self, wmax: u64, cmax: u64, cmax_intra: u64) -> f64 {
        debug_assert!(cmax_intra <= cmax, "intra exchange exceeds total");
        let flat = self.predict(wmax, cmax);
        match &self.machine.hierarchy {
            Some(h) => {
                flat + (h.tw_intra - self.machine.tw) * (cmax_intra as f64 * self.app.elem_bytes)
            }
            None => flat,
        }
    }

    /// Compute-only part of Eq. (3) — used by the engine to charge local
    /// work phases.
    #[inline]
    pub fn compute_time(&self, work_units: u64) -> f64 {
        self.app.alpha * self.machine.tc * (work_units as f64 * self.app.elem_bytes)
    }

    /// Eq. (2): expected runtime of the distributed TreeSort staged with
    /// `k ≤ p` splitters, `Tp = tc·N/p + (ts + tw·k)·log p + tw·N/p`;
    /// `k = p` is the unstaged Eq. (1). `n_local` is the grain `N/p` in
    /// elements.
    pub fn treesort_time_staged(&self, n_local: u64, p: usize, k: usize) -> f64 {
        assert!(k >= 1 && k <= p.max(1));
        let bytes_local = n_local as f64 * self.app.elem_bytes;
        let logp = (p.max(2) as f64).log2();
        self.machine.tc * bytes_local
            + (self.machine.ts + self.machine.tw * k as f64 * self.app.elem_bytes) * logp
            + self.machine.tw * bytes_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AppModel, MachineModel};

    fn model() -> PerfModel {
        PerfModel::new(
            MachineModel::cloudlab_wisconsin(),
            AppModel::laplacian_matvec(),
        )
    }

    #[test]
    fn predict_is_monotone_in_both_arguments() {
        let m = model();
        let base = m.predict(1000, 100);
        assert!(m.predict(2000, 100) > base);
        assert!(m.predict(1000, 200) > base);
        assert_eq!(m.predict(0, 0), 0.0);
    }

    #[test]
    fn predict_hier_matches_flat_without_or_with_degenerate_hierarchy() {
        let flat = model();
        let degen = PerfModel::new(
            MachineModel::cloudlab_wisconsin().hierarchical_flat(),
            AppModel::laplacian_matvec(),
        );
        for (w, c, ci) in [(1000u64, 300u64, 0u64), (1000, 300, 300), (7, 5, 2)] {
            let reference = flat.predict(w, c);
            assert_eq!(flat.predict_hier(w, c, ci).to_bits(), reference.to_bits());
            assert_eq!(degen.predict_hier(w, c, ci).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn predict_hier_rewards_on_node_exchange() {
        let m = PerfModel::new(
            MachineModel::cloudlab_wisconsin().hierarchical_smp(),
            AppModel::laplacian_matvec(),
        );
        let none_on_node = m.predict_hier(1000, 300, 0);
        let all_on_node = m.predict_hier(1000, 300, 300);
        assert!(all_on_node < none_on_node);
        assert_eq!(none_on_node.to_bits(), m.predict(1000, 300).to_bits());
    }

    #[test]
    fn comm_dominates_on_ethernet() {
        // On Wisconsin-8 (tw >> tc), one exchanged element must cost more
        // than one computed element — the premise of flexible partitioning.
        let m = model();
        let one_work = m.predict(1, 0);
        let one_comm = m.predict(0, 1);
        assert!(
            one_comm > one_work,
            "comm {one_comm:e} vs work {one_work:e}"
        );
    }

    #[test]
    fn titan_less_comm_bound_than_cloudlab() {
        let app = AppModel::laplacian_matvec();
        let titan = PerfModel::new(MachineModel::titan(), app);
        let wisc = PerfModel::new(MachineModel::cloudlab_wisconsin(), app);
        let ratio = |m: &PerfModel| m.predict(0, 1) / m.predict(1, 0);
        assert!(ratio(&wisc) > ratio(&titan));
    }

    #[test]
    fn staged_treesort_cheaper_for_small_k() {
        // Eq. (2) vs Eq. (1): limiting the splitters reduces the reduction
        // cost term.
        let m = PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec());
        let full = m.treesort_time_staged(1_000_000, 4096, 4096);
        let staged = m.treesort_time_staged(1_000_000, 4096, 64);
        assert!(staged < full);
    }

    #[test]
    fn treesort_time_grows_with_grain_and_p() {
        let m = PerfModel::new(MachineModel::titan(), AppModel::laplacian_matvec());
        let eq1 = |n, p| m.treesort_time_staged(n, p, p);
        assert!(eq1(2_000_000, 64) > eq1(1_000_000, 64));
        assert!(eq1(1_000_000, 4096) > eq1(1_000_000, 64));
    }

    #[test]
    #[should_panic]
    fn staged_k_larger_than_p_rejected() {
        let m = model();
        let _ = m.treesort_time_staged(100, 4, 8);
    }
}
