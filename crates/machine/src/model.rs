//! Machine and application parameter sets (Table 1 of the paper).

use crate::energy::NodePower;

/// Two-level network hierarchy: the cost of a byte that never leaves its
/// node (shared-memory transport, NUMA link or on-node switch) vs the flat
/// inter-node figures carried by [`MachineModel`] itself.
///
/// The flat `tc`/`ts`/`tw` of the machine remain the *inter-node* values;
/// a hierarchy only adds the cheaper intra-node figures. Every consumer is
/// written in additive-discount form — `flat_cost + (intra − inter) ·
/// intra_bytes` — so a *degenerate* hierarchy (intra == inter, see
/// [`MachineModel::hierarchical_flat`]) contributes exactly `+0.0` and is
/// bit-identical to no hierarchy at all. That identity is the
/// `hierarchy-flattening` differential oracle of `optipart-testkit`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hierarchy {
    /// Intra-node latency in seconds per message.
    pub ts_intra: f64,
    /// Intra-node slowness in seconds per byte.
    pub tw_intra: f64,
    /// NIC-bypass energy of an intra-node byte, joules per byte.
    pub nic_intra_j_per_byte: f64,
}

/// Architectural parameters of a target machine.
///
/// Units follow Table 1: `tc` and `tw` are *slownesses* in seconds per byte
/// (1 / bandwidth); `ts` is the interconnect latency in seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineModel {
    /// Human-readable machine name.
    pub name: String,
    /// Intranode memory slowness, seconds per byte per core
    /// (1 / per-core share of RAM bandwidth).
    pub tc: f64,
    /// Interconnect latency in seconds per message.
    pub ts: f64,
    /// Interconnect slowness in seconds per byte (1 / injection bandwidth
    /// available to a rank).
    pub tw: f64,
    /// MPI ranks placed per node (affects the node map and energy
    /// attribution, not per-rank costs).
    pub ranks_per_node: usize,
    /// Node power envelope for the energy model.
    pub power: NodePower,
    /// Optional two-level network model. `None` is the paper's flat machine;
    /// `Some` makes Eq. (3) and the energy model topology-aware (heavy edges
    /// that stay on-node cost `tw_intra`/`nic_intra` instead of the flat
    /// inter-node figures).
    pub hierarchy: Option<Hierarchy>,
}

impl MachineModel {
    /// ORNL Titan (Cray XK7): 16-core AMD Opteron 6274 per node, 32 GB,
    /// Gemini interconnect (§4: "Titan ... 18,688 nodes ... Gemini
    /// interconnect").
    ///
    /// Estimates: ~50 GB/s DDR3 per node shared by 16 cores → tc ≈ 1/3.1 GB/s
    /// per core; Gemini ~1.5 µs latency, ~3 GB/s per-rank injection.
    pub fn titan() -> Self {
        MachineModel {
            name: "titan".into(),
            tc: 1.0 / 3.1e9,
            ts: 1.5e-6,
            tw: 1.0 / 3.0e9,
            ranks_per_node: 16,
            power: NodePower {
                idle_w: 90.0,
                peak_w: 350.0,
                nic_j_per_byte: 0.3e-9,
            },
            hierarchy: None,
        }
    }

    /// TACC Stampede: dual 8-core Xeon E5-2680 per node, 56 Gb/s FDR
    /// InfiniBand fat tree (§4).
    ///
    /// Estimates: ~75 GB/s DDR3 per node / 16 cores; FDR IB ~1 µs latency,
    /// ~7 GB/s injection shared → ~4 GB/s per-rank effective.
    pub fn stampede() -> Self {
        MachineModel {
            name: "stampede".into(),
            tc: 1.0 / 4.7e9,
            ts: 1.0e-6,
            tw: 1.0 / 4.0e9,
            ranks_per_node: 16,
            power: NodePower {
                idle_w: 95.0,
                peak_w: 345.0,
                nic_j_per_byte: 0.25e-9,
            },
            hierarchy: None,
        }
    }

    /// CloudLab Wisconsin-8 (§4.1): 8 nodes, 2× Intel E5-2630 v3 8-core
    /// Haswell @2.40 GHz, 128 GB ECC, 10 GbE. The paper ran 256 MPI tasks on
    /// these 8 nodes (32 per node).
    ///
    /// 10 GbE = 1.25 GB/s per node shared by 32 ranks, with ~25 µs Ethernet
    /// latency — a *much* higher tw/tc ratio than the HPC machines, which is
    /// exactly why the tolerance optimum is pronounced on CloudLab (Figs.
    /// 7–10).
    pub fn cloudlab_wisconsin() -> Self {
        MachineModel {
            name: "wisconsin-8".into(),
            tc: 1.0 / 3.7e9,
            ts: 25.0e-6,
            tw: 1.0 / 0.04e9, // 1.25 GB/s node NIC / 32 ranks
            ranks_per_node: 32,
            power: NodePower {
                idle_w: 105.0,
                peak_w: 300.0,
                nic_j_per_byte: 6.0e-9,
            },
            hierarchy: None,
        }
    }

    /// CloudLab Clemson-32 (§4.1): 32 nodes, 2× Intel E5-2683 v3 14-core
    /// Haswell @2.00 GHz, 256 GB ECC, 10 GbE; 1792 MPI tasks (56 per node).
    pub fn cloudlab_clemson() -> Self {
        MachineModel {
            name: "clemson-32".into(),
            tc: 1.0 / 2.4e9,
            ts: 25.0e-6,
            tw: 1.0 / 0.0223e9, // 1.25 GB/s node NIC / 56 ranks
            ranks_per_node: 56,
            power: NodePower {
                idle_w: 130.0,
                peak_w: 380.0,
                nic_j_per_byte: 6.0e-9,
            },
            hierarchy: None,
        }
    }

    /// All four evaluation machines.
    pub fn presets() -> Vec<MachineModel> {
        vec![
            Self::titan(),
            Self::stampede(),
            Self::cloudlab_wisconsin(),
            Self::cloudlab_clemson(),
        ]
    }

    /// Looks a preset up by name (`titan`, `stampede`, `wisconsin-8`,
    /// `clemson-32`).
    pub fn by_name(name: &str) -> Option<MachineModel> {
        Self::presets().into_iter().find(|m| m.name == name)
    }

    /// A custom machine; power defaults to a generic dual-socket envelope.
    pub fn custom(name: &str, tc: f64, ts: f64, tw: f64, ranks_per_node: usize) -> Self {
        MachineModel {
            name: name.into(),
            tc,
            ts,
            tw,
            ranks_per_node,
            power: NodePower {
                idle_w: 100.0,
                peak_w: 330.0,
                nic_j_per_byte: 1.0e-9,
            },
            hierarchy: None,
        }
    }

    /// The *degenerate* two-level machine: a hierarchy whose intra-node
    /// figures equal the flat inter-node ones. Every hierarchy-aware cost is
    /// written so this machine is bit-identical to the flat model — the
    /// `hierarchy-flattening` oracle's contract.
    pub fn hierarchical_flat(mut self) -> Self {
        self.hierarchy = Some(Hierarchy {
            ts_intra: self.ts,
            tw_intra: self.tw,
            nic_intra_j_per_byte: self.power.nic_j_per_byte,
        });
        self
    }

    /// An SMP-style hierarchy: shared-memory transport on-node. Power-of-two
    /// discounts (`tw/64`, `ts/16`, `nic/16`) so `scaled()` with a
    /// power-of-two factor stays bit-exact on the intra figures too.
    pub fn hierarchical_smp(mut self) -> Self {
        self.hierarchy = Some(Hierarchy {
            ts_intra: self.ts / 16.0,
            tw_intra: self.tw / 64.0,
            nic_intra_j_per_byte: self.power.nic_j_per_byte / 16.0,
        });
        self
    }

    /// A NUMA-style hierarchy: a milder on-node discount (`tw/8`, `ts/4`,
    /// `nic/4`) for machines whose intra-node fabric is itself a network.
    pub fn hierarchical_numa(mut self) -> Self {
        self.hierarchy = Some(Hierarchy {
            ts_intra: self.ts / 4.0,
            tw_intra: self.tw / 8.0,
            nic_intra_j_per_byte: self.power.nic_j_per_byte / 4.0,
        });
        self
    }

    /// Effective intra-node wire slowness: `tw_intra` under a hierarchy,
    /// the flat `tw` otherwise.
    #[inline]
    pub fn tw_intra(&self) -> f64 {
        match &self.hierarchy {
            Some(h) => h.tw_intra,
            None => self.tw,
        }
    }

    /// Topology-aware wire cost of `bytes_inter + bytes_intra` bytes in
    /// seconds: the flat charge plus the intra-node discount. The additive
    /// form makes a degenerate hierarchy (and no hierarchy) contribute an
    /// exact `+0.0` discount, so flat and flattened machines charge
    /// bit-identical costs.
    #[inline]
    pub fn comm_cost(&self, bytes_inter: u64, bytes_intra: u64) -> f64 {
        let flat = self.tw * (bytes_inter + bytes_intra) as f64;
        match &self.hierarchy {
            Some(h) => flat + (h.tw_intra - self.tw) * bytes_intra as f64,
            None => flat,
        }
    }

    /// Topology-aware NIC energy of a transfer in joules: `bytes` total, of
    /// which `bytes_intra` never left the node. Same additive-discount shape
    /// as [`MachineModel::comm_cost`].
    #[inline]
    pub fn nic_j(&self, bytes: u64, bytes_intra: u64) -> f64 {
        let flat = bytes as f64 * self.power.nic_j_per_byte;
        match &self.hierarchy {
            Some(h) => {
                flat + (h.nic_intra_j_per_byte - self.power.nic_j_per_byte) * bytes_intra as f64
            }
            None => flat,
        }
    }

    /// The same machine with every time coefficient (`tc`, `ts`, `tw`)
    /// multiplied by `c`. Eq. (3) is homogeneous of degree 1 in these, so a
    /// uniformly rescaled machine must induce the *same* partitioning
    /// decisions with all predicted times scaled by exactly `c` — the
    /// scale-invariance oracle of `optipart-testkit`. Use a power-of-two
    /// `c` for bit-exact floating-point scaling.
    pub fn scaled(&self, c: f64) -> Self {
        MachineModel {
            name: format!("{}×{c}", self.name),
            tc: self.tc * c,
            ts: self.ts * c,
            tw: self.tw * c,
            ranks_per_node: self.ranks_per_node,
            power: self.power,
            // Intra-node *times* scale with the machine; per-byte energy
            // stays put, like `power`.
            hierarchy: self.hierarchy.map(|h| Hierarchy {
                ts_intra: h.ts_intra * c,
                tw_intra: h.tw_intra * c,
                nic_intra_j_per_byte: h.nic_intra_j_per_byte,
            }),
        }
    }

    /// The node hosting a rank under this machine's placement.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Number of nodes needed for `p` ranks.
    #[inline]
    pub fn nodes_for(&self, p: usize) -> usize {
        p.div_ceil(self.ranks_per_node)
    }

    /// Communication-to-computation cost ratio `tw / tc` — the "cost of
    /// communication vs. one unit of work" of the §3.2 thought experiment.
    /// Large values mean trading load balance for communication pays off.
    #[inline]
    pub fn comm_compute_ratio(&self) -> f64 {
        self.tw / self.tc
    }
}

/// Application parameters of the performance model (§3.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppModel {
    /// Memory accesses performed per unit of work. "If the target
    /// application is a 7-point stencil operation, then α will be ∼ 8."
    pub alpha: f64,
    /// Bytes moved per memory access / per communicated element (the unknown
    /// vector's scalar size plus indexing, in practice).
    pub elem_bytes: f64,
}

impl AppModel {
    /// The paper's test application: an adaptively discretised Laplacian
    /// (7-point-stencil-like) matvec, α ≈ 8, 8-byte doubles.
    pub fn laplacian_matvec() -> Self {
        AppModel {
            alpha: 8.0,
            elem_bytes: 8.0,
        }
    }

    /// A compute-light, communication-heavy kernel (e.g. low-order wave
    /// equation update): fewer accesses per element. Used to demonstrate
    /// *application*-awareness — the same mesh on the same machine partitions
    /// differently (footnote 1 of the paper: "e.g. for the Poisson equation
    /// vs the wave Equation on the same mesh").
    pub fn wave_matvec() -> Self {
        AppModel {
            alpha: 2.0,
            elem_bytes: 8.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_parameters() {
        for m in MachineModel::presets() {
            assert!(m.tc > 0.0 && m.tc < 1e-6, "{}: tc {:e}", m.name, m.tc);
            assert!(m.ts > 0.0 && m.ts < 1e-3, "{}: ts {:e}", m.name, m.ts);
            assert!(m.tw > 0.0 && m.tw < 1e-6, "{}: tw {:e}", m.name, m.tw);
            assert!(m.ranks_per_node >= 1);
            assert!(m.power.peak_w > m.power.idle_w);
        }
    }

    #[test]
    fn cloudlab_has_higher_comm_ratio_than_hpc() {
        // The ethernet clusters must make communication relatively more
        // expensive — the premise of the energy evaluation.
        let titan = MachineModel::titan().comm_compute_ratio();
        let wisc = MachineModel::cloudlab_wisconsin().comm_compute_ratio();
        let clem = MachineModel::cloudlab_clemson().comm_compute_ratio();
        assert!(wisc > 10.0 * titan);
        assert!(clem > 10.0 * titan);
    }

    #[test]
    fn node_mapping() {
        let m = MachineModel::cloudlab_wisconsin();
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(31), 0);
        assert_eq!(m.node_of(32), 1);
        assert_eq!(m.nodes_for(256), 8);
        assert_eq!(m.nodes_for(257), 9);
    }

    #[test]
    fn degenerate_hierarchy_costs_are_bit_identical_to_flat() {
        for m in MachineModel::presets() {
            let d = m.clone().hierarchical_flat();
            for (inter, intra) in [(0u64, 0u64), (1000, 0), (0, 1000), (123_457, 891)] {
                assert_eq!(
                    m.comm_cost(inter, intra).to_bits(),
                    d.comm_cost(inter, intra).to_bits(),
                    "{}: degenerate hierarchy drifted comm_cost",
                    m.name
                );
                assert_eq!(
                    m.nic_j(inter + intra, intra).to_bits(),
                    d.nic_j(inter + intra, intra).to_bits(),
                    "{}: degenerate hierarchy drifted nic_j",
                    m.name
                );
            }
        }
    }

    #[test]
    fn smp_hierarchy_discounts_intra_traffic() {
        let m = MachineModel::cloudlab_wisconsin().hierarchical_smp();
        let all_inter = m.comm_cost(1_000_000, 0);
        let all_intra = m.comm_cost(0, 1_000_000);
        assert!(all_intra < all_inter / 32.0, "{all_intra} vs {all_inter}");
        assert!(m.nic_j(1000, 1000) < m.nic_j(1000, 0));
    }

    #[test]
    fn scaled_scales_intra_times_but_not_energy() {
        let m = MachineModel::titan().hierarchical_numa();
        let s = m.scaled(4.0);
        let h = m.hierarchy.unwrap();
        let hs = s.hierarchy.unwrap();
        assert_eq!(hs.tw_intra.to_bits(), (h.tw_intra * 4.0).to_bits());
        assert_eq!(hs.ts_intra.to_bits(), (h.ts_intra * 4.0).to_bits());
        assert_eq!(
            hs.nic_intra_j_per_byte.to_bits(),
            h.nic_intra_j_per_byte.to_bits()
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(MachineModel::by_name("titan").is_some());
        assert!(MachineModel::by_name("clemson-32").is_some());
        assert!(MachineModel::by_name("summit").is_none());
    }
}
