//! Seeded scenario generation: one `u64` → a full partitioning workload.
//!
//! Every scenario field is derived from the seed through forked SplitMix64
//! streams, so (a) the same seed always reproduces the same scenario and
//! (b) a shrinker can override individual fields while the rest stay
//! pinned. [`Scenario::replay_cmd`] encodes exactly the overridden fields,
//! which keeps the one-line replay command short and canonical.
//!
//! This crate sits below both `optipart-testkit` (which re-exports it as
//! `optipart_testkit::scenario` and builds its check registries on
//! [`NamedCheck`]) and `optipart-serve` (whose wire protocol encodes one
//! scenario per request). Keeping it separate is what lets the testkit
//! host a server-vs-library differential oracle without a dependency
//! cycle: scenario ← serve ← testkit.
//!
//! The crate also owns the command-line spelling of those fields, and so
//! the one flag parser every binary uses: [`flags`].

pub mod flags;

use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::{Engine, FaultPlan};
use optipart_octree::{
    sample_points, sample_points_shell, sample_points_skewed, tree_from_points, Distribution,
    LinearTree,
};
use optipart_sfc::{Curve, Point, MAX_DEPTH};
use std::fmt;

/// Mesh shape classes the generator draws from — the paper's §4.2
/// distributions plus two adversarial classes real AMR codes produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshShape {
    /// Uniform over the unit cube.
    Uniform,
    /// Gaussian-clustered around the centre (the paper's default workload).
    Gaussian,
    /// Log-normal, concentrated near the origin corner.
    LogNormal,
    /// Surface-concentrated: points on a thin spherical shell (shock front
    /// / material interface refinement pattern).
    Surface,
    /// Adversarially skewed: a corner box crammed with most of the points,
    /// exact duplicates in the tail, uniform background.
    Skewed,
}

impl MeshShape {
    /// All generated shapes.
    pub const ALL: [MeshShape; 5] = [
        MeshShape::Uniform,
        MeshShape::Gaussian,
        MeshShape::LogNormal,
        MeshShape::Surface,
        MeshShape::Skewed,
    ];

    /// Canonical name, as accepted by `testkit replay --shape`.
    pub fn name(self) -> &'static str {
        match self {
            MeshShape::Uniform => "uniform",
            MeshShape::Gaussian => "gaussian",
            MeshShape::LogNormal => "lognormal",
            MeshShape::Surface => "surface",
            MeshShape::Skewed => "skewed",
        }
    }

    /// Inverse of [`MeshShape::name`].
    pub fn parse(s: &str) -> Option<MeshShape> {
        MeshShape::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Application model kind (kept as an enum so scenarios can be compared,
/// printed and replayed by name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppKind {
    /// `AppModel::laplacian_matvec()` — compute-heavy, α ≈ 8.
    Laplacian,
    /// `AppModel::wave_matvec()` — communication-heavy, α ≈ 2.
    Wave,
}

impl AppKind {
    /// Canonical name, as accepted by `testkit replay --app`.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Laplacian => "laplacian",
            AppKind::Wave => "wave",
        }
    }

    /// Inverse of [`AppKind::name`].
    pub fn parse(s: &str) -> Option<AppKind> {
        match s {
            "laplacian" => Some(AppKind::Laplacian),
            "wave" => Some(AppKind::Wave),
            _ => None,
        }
    }

    /// The corresponding application model.
    pub fn model(self) -> AppModel {
        match self {
            AppKind::Laplacian => AppModel::laplacian_matvec(),
            AppKind::Wave => AppModel::wave_matvec(),
        }
    }
}

/// Two-level machine hierarchy presets the generator draws from
/// (Mohanamuraly & Staffelbach's machine-aware partitioning: intra-node
/// transport is much cheaper than the NIC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierKind {
    /// Flat machine — no hierarchy (the paper's original model).
    None,
    /// Degenerate hierarchy: intra == inter figures. Must be bit-identical
    /// to [`HierKind::None`] (the `hierarchy-flattening` oracle's contract).
    Flat,
    /// SMP-style shared-memory node: `tw/64`, `ts/16`, `nic/16` on-node.
    Smp,
    /// NUMA-style node whose internal fabric is itself a network:
    /// `tw/8`, `ts/4`, `nic/4` on-node.
    Numa,
}

impl HierKind {
    /// All generated hierarchy kinds.
    pub const ALL: [HierKind; 4] = [
        HierKind::None,
        HierKind::Flat,
        HierKind::Smp,
        HierKind::Numa,
    ];

    /// Canonical name, as accepted by `testkit replay --hier`.
    pub fn name(self) -> &'static str {
        match self {
            HierKind::None => "none",
            HierKind::Flat => "flat",
            HierKind::Smp => "smp",
            HierKind::Numa => "numa",
        }
    }

    /// Inverse of [`HierKind::name`].
    pub fn parse(s: &str) -> Option<HierKind> {
        HierKind::ALL.into_iter().find(|h| h.name() == s)
    }

    /// Applies the hierarchy preset to a flat machine model.
    pub fn apply(self, m: MachineModel) -> MachineModel {
        match self {
            HierKind::None => m,
            HierKind::Flat => m.hierarchical_flat(),
            HierKind::Smp => m.hierarchical_smp(),
            HierKind::Numa => m.hierarchical_numa(),
        }
    }
}

/// Element families beyond octree hexahedra, modeled by expanding each hex
/// leaf into family-shaped sub-elements keyed along the same generalized SFC
/// (the t8code construction: tets and prisms get their own refinement
/// pattern but share the curve, Holke arXiv 1803.04970).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemFamily {
    /// Plain octree hexahedra — the leaves as generated.
    Hex,
    /// Six tetrahedra per hex (the standard hex→tet split), modeled as six
    /// of the eight child octants carrying one tet key each.
    Tet,
    /// Two prisms per hex, modeled as the first/last child octant keys.
    Prism,
    /// Per-leaf mix of the three families, chosen by a hash of the leaf
    /// cell — the unstructured-hybrid regime.
    Hybrid,
}

impl ElemFamily {
    /// All generated element families.
    pub const ALL: [ElemFamily; 4] = [
        ElemFamily::Hex,
        ElemFamily::Tet,
        ElemFamily::Prism,
        ElemFamily::Hybrid,
    ];

    /// Canonical name, as accepted by `testkit replay --family`.
    pub fn name(self) -> &'static str {
        match self {
            ElemFamily::Hex => "hex",
            ElemFamily::Tet => "tet",
            ElemFamily::Prism => "prism",
            ElemFamily::Hybrid => "hybrid",
        }
    }

    /// Inverse of [`ElemFamily::name`].
    pub fn parse(s: &str) -> Option<ElemFamily> {
        ElemFamily::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// Time evolution of the workload across AMR steps — the dimension that
/// stresses the warm-start replay path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The mesh never changes: every step is a warm exact hit after the
    /// first.
    Static,
    /// A refinement front advected by exact half-domain lattice
    /// translations: step `t` translates the point cloud by `(1<<29)`
    /// along axis `d` iff bit `d` of `t` is set (wrapping mod `1<<30`),
    /// so the mesh is a cell-exact permutation of the base with period 8.
    MovingFront {
        /// Suggested number of AMR steps a driver should run.
        steps: u32,
    },
    /// A boundary layer growing on the `z = 0` face: each step deepens the
    /// face-layer refinement cap by one level until `steps`, after which
    /// the mesh freezes.
    BoundaryLayer {
        /// Steps over which the layer grows (then the mesh stops changing).
        steps: u32,
    },
}

impl Workload {
    /// Canonical encoding, as accepted by `testkit replay --workload`:
    /// `static`, `front<steps>`, `blayer<steps>`.
    pub fn encode(self) -> String {
        match self {
            Workload::Static => "static".into(),
            Workload::MovingFront { steps } => format!("front{steps}"),
            Workload::BoundaryLayer { steps } => format!("blayer{steps}"),
        }
    }

    /// Inverse of [`Workload::encode`].
    pub fn parse(s: &str) -> Option<Workload> {
        if s == "static" {
            return Some(Workload::Static);
        }
        if let Some(n) = s.strip_prefix("front") {
            return n.parse().ok().map(|steps| Workload::MovingFront { steps });
        }
        if let Some(n) = s.strip_prefix("blayer") {
            return n
                .parse()
                .ok()
                .map(|steps| Workload::BoundaryLayer { steps });
        }
        None
    }
}

/// Independent RNG streams forked off the scenario seed. Points and fault
/// schedules must not share a stream with the field derivation, or a field
/// override would silently reshuffle everything downstream.
const STREAM_FIELDS: u64 = 0xF1E1;
const STREAM_POINTS: u64 = 0x90AB;
const STREAM_SHUFFLE: u64 = 0x5F0E;

/// A named check in one of the testkit registries (`soak::CHECKS`,
/// `oracles::ORACLES`, `metamorphic::PROPERTIES`).
pub type NamedCheck = (&'static str, fn(&Scenario));

/// One generated workload: mesh + machine + partitioner knobs + faults.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The generating seed; every other field is derived from it (possibly
    /// overridden afterwards by a shrinker or a corpus file).
    pub seed: u64,
    /// Point-cloud shape class.
    pub shape: MeshShape,
    /// Number of sample points (leaf count lands within a small factor).
    pub n: usize,
    /// Virtual ranks.
    pub p: usize,
    /// Space-filling curve.
    pub curve: Curve,
    /// Requested load-balance tolerance, quantised to 0.05 steps in
    /// `[0, 0.7]` (the paper's sweep range).
    pub tolerance: f64,
    /// Staged splitter selection cap (Eq. 2's `k`); `None` = unlimited.
    pub split_budget: Option<usize>,
    /// Machine model (one of the Table 1 presets).
    pub machine: MachineModel,
    /// Application model kind.
    pub app: AppKind,
    /// Benign fault plan (stragglers / jitter / transient all-to-all
    /// failures — never fail-stop; oracles add kills themselves).
    pub faults: Option<FaultPlan>,
    /// Machine hierarchy preset applied on top of [`Scenario::machine`].
    pub hier: HierKind,
    /// Element family the hex leaves expand into.
    pub family: ElemFamily,
    /// Time evolution of the mesh across AMR steps.
    pub workload: Workload,
}

impl Scenario {
    /// Expands a seed into a full scenario.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut r = SplitMix64::new(seed).fork(STREAM_FIELDS);
        let shape = MeshShape::ALL[r.next_below(MeshShape::ALL.len() as u64) as usize];
        // Mostly 80–360 points; 2% of scenarios are degenerate (fewer
        // points than ranks) to fuzz the tiny-input paths.
        let n = if r.next_below(50) == 0 {
            1 + r.next_below(11) as usize
        } else {
            80 + r.next_below(280) as usize
        };
        let p = 2 + r.next_below(11) as usize;
        let curve = if r.next_below(2) == 0 {
            Curve::Morton
        } else {
            Curve::Hilbert
        };
        let tolerance = 0.05 * r.next_below(15) as f64;
        let split_budget = match r.next_below(3) {
            0 => None,
            1 => Some(8),
            _ => Some(32),
        };
        let presets = MachineModel::presets();
        let machine = presets[r.next_below(presets.len() as u64) as usize].clone();
        let app = if r.next_below(2) == 0 {
            AppKind::Laplacian
        } else {
            AppKind::Wave
        };
        let faults = if r.next_below(5) < 2 {
            None
        } else {
            Some(
                FaultPlan::new(seed)
                    .with_stragglers(0.25, 1.5 + 2.5 * r.next_f64())
                    .with_tw_jitter(0.25 * r.next_f64())
                    .with_transient_failures(0.1 * r.next_f64()),
            )
        };
        // New dimensions draw strictly AFTER every pre-existing field, so
        // old seeds reproduce their old scenarios field-for-field.
        let hier = match r.next_below(8) {
            0..=3 => HierKind::None,
            4 => HierKind::Flat,
            5 | 6 => HierKind::Smp,
            _ => HierKind::Numa,
        };
        let family = match r.next_below(8) {
            0..=4 => ElemFamily::Hex,
            5 => ElemFamily::Tet,
            6 => ElemFamily::Prism,
            _ => ElemFamily::Hybrid,
        };
        let workload = match r.next_below(8) {
            0..=5 => Workload::Static,
            6 => Workload::MovingFront {
                steps: 4 + r.next_below(5) as u32,
            },
            _ => Workload::BoundaryLayer {
                steps: 3 + r.next_below(4) as u32,
            },
        };
        Scenario {
            seed,
            shape,
            n,
            p,
            curve,
            tolerance,
            split_budget,
            machine,
            app,
            faults,
            hier,
            family,
            workload,
        }
    }

    /// The scenario's point cloud (deterministic in `seed`, `shape`, `n`).
    pub fn points(&self) -> Vec<Point<3>> {
        let s = SplitMix64::new(self.seed).fork(STREAM_POINTS).next_u64();
        match self.shape {
            MeshShape::Uniform => sample_points::<3>(Distribution::Uniform, self.n, s),
            MeshShape::Gaussian => sample_points::<3>(Distribution::Normal, self.n, s),
            MeshShape::LogNormal => sample_points::<3>(Distribution::LogNormal, self.n, s),
            MeshShape::Surface => sample_points_shell::<3>(self.n, s),
            MeshShape::Skewed => {
                let shift = 4 + (s % 6) as u32;
                sample_points_skewed::<3>(self.n, s, shift)
            }
        }
    }

    /// The point cloud at AMR step `t`: the base cloud, translated by the
    /// workload's exact lattice vector for moving-front scenarios. Adding
    /// `1<<29` mod `1<<30` is a single-bit flip, so the translation is
    /// exact and the step-`t` octree is a cell permutation of the base.
    pub fn points_at(&self, t: usize) -> Vec<Point<3>> {
        let mut pts = self.points();
        if matches!(self.workload, Workload::MovingFront { .. }) && !t.is_multiple_of(8) {
            const HALF: u32 = 1 << (MAX_DEPTH - 1);
            for p in &mut pts {
                for (d, c) in p.iter_mut().enumerate() {
                    if (t >> d) & 1 == 1 {
                        *c ^= HALF;
                    }
                }
            }
        }
        pts
    }

    /// The scenario's adaptive linear mesh (element family applied).
    /// Equals [`Scenario::mesh_at`]`(0)` by construction.
    pub fn build_tree(&self) -> LinearTree<3> {
        self.mesh_at(0)
    }

    /// The mesh at AMR step `t`. `mesh_at(0)` is always the base mesh; for
    /// [`Workload::Static`] every step returns it unchanged, a moving front
    /// permutes it by lattice translation (period 8), and a boundary layer
    /// deepens the `z = 0` face refinement until the workload's step cap.
    pub fn mesh_at(&self, t: usize) -> LinearTree<3> {
        let base = match self.workload {
            Workload::MovingFront { .. } => tree_from_points(&self.points_at(t), 1, 12, self.curve),
            Workload::BoundaryLayer { steps } if t > 0 => {
                // One extra face-layer level per step, capped so adversarial
                // draws cannot blow the leaf count up past test scale.
                let cap = (1 + t.min(steps as usize)).min(6) as u8;
                tree_from_points(&self.points(), 1, 12, self.curve)
                    .refine_where(|c| c.anchor()[2] == 0, cap)
            }
            _ => tree_from_points(&self.points(), 1, 12, self.curve),
        };
        self.apply_family(base)
    }

    /// Expands hex leaves into the scenario's element family (identity for
    /// [`ElemFamily::Hex`]). Sub-elements are keyed along the same curve as
    /// child octants of the leaf — the generalized-SFC construction.
    fn apply_family(&self, tree: LinearTree<3>) -> LinearTree<3> {
        if self.family == ElemFamily::Hex {
            return tree;
        }
        let mut cells = Vec::with_capacity(tree.len() * 2);
        for kc in tree.leaves() {
            let kind = match self.family {
                ElemFamily::Hex => unreachable!(),
                ElemFamily::Tet => 1,
                ElemFamily::Prism => 2,
                ElemFamily::Hybrid => {
                    // Per-leaf family choice from the leaf identity alone,
                    // so the mix is stable under re-distribution.
                    let h = (kc.key.path() as u64)
                        ^ ((kc.key.path() >> 64) as u64).rotate_left(31)
                        ^ ((kc.key.level() as u64) << 56);
                    SplitMix64::new(h).next_below(3)
                }
            };
            let c = kc.cell;
            if kind == 0 || c.level() >= MAX_DEPTH {
                cells.push(c);
            } else if kind == 1 {
                // Hex → 6 tets: six child octant keys carry one tet each.
                for i in 1..7 {
                    cells.push(c.child(i));
                }
            } else {
                // Hex → 2 prisms: the curve-extremal child octant keys.
                cells.push(c.child(0));
                cells.push(c.child(7));
            }
        }
        LinearTree::from_cells(cells, self.curve)
    }

    /// Seed for shuffled initial distributions (`stream_id` decorrelates
    /// multiple distributions of the same scenario).
    pub fn shuffle_seed(&self, stream_id: u64) -> u64 {
        SplitMix64::new(self.seed)
            .fork(STREAM_SHUFFLE)
            .fork(stream_id)
            .next_u64()
    }

    /// The machine with the scenario's hierarchy preset applied.
    pub fn machine_model(&self) -> MachineModel {
        self.hier.apply(self.machine.clone())
    }

    /// The machine+application performance model (hierarchy included).
    pub fn perf(&self) -> PerfModel {
        PerfModel::new(self.machine_model(), self.app.model())
    }

    /// A fresh fault-free engine.
    pub fn engine(&self) -> Engine {
        Engine::new(self.p, self.perf())
    }

    /// A fresh engine with the scenario's benign fault plan (fault-free if
    /// the scenario drew none).
    pub fn engine_faulted(&self) -> Engine {
        match &self.faults {
            Some(plan) => self.engine().with_faults(plan.clone()),
            None => self.engine(),
        }
    }

    /// Partitioner options induced by the scenario.
    pub fn opts(&self) -> optipart_core::partition::PartitionOptions {
        optipart_core::partition::PartitionOptions {
            tolerance: self.tolerance,
            max_split_per_round: self.split_budget,
            ..Default::default()
        }
    }

    /// The override keys that take a value, in canonical order — the one
    /// table of how a scenario's fields are spelled. Corpus files use them
    /// as `key = value`, `testkit replay` as `--key value`, the
    /// `optipart-serve` wire as `"key":value` (where `split-budget` is
    /// abbreviated `budget`); [`Scenario::replay_cmd`] emits the same
    /// spellings, so [`Scenario::set`] reads back whatever it writes.
    pub const KEYS: [&'static str; 12] = [
        "shape",
        "n",
        "p",
        "curve",
        "tol",
        "split-budget",
        "machine",
        "app",
        "faults",
        "hier",
        "family",
        "workload",
    ];

    /// Overrides one field from its textual form: any of
    /// [`Scenario::KEYS`], plus the value-less `no-faults` (the flag form
    /// of `faults none`). `split-budget` and `faults` accept `none`.
    /// Values are range-checked by whoever takes them from outside the
    /// program, not here — a local replay may go as big as memory allows.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bad number for '{key}': {value}"))
        }
        let named = || format!("unknown {key} '{value}'");
        match key {
            "shape" => self.shape = MeshShape::parse(value).ok_or_else(named)?,
            "n" => self.n = num(key, value)?,
            "p" => self.p = num(key, value)?,
            "curve" => self.curve = parse_curve(value).ok_or_else(named)?,
            "tol" => self.tolerance = num(key, value)?,
            "split-budget" if value == "none" => self.split_budget = None,
            "split-budget" => self.split_budget = Some(num(key, value)?),
            "machine" => self.machine = MachineModel::by_name(value).ok_or_else(named)?,
            "app" => self.app = AppKind::parse(value).ok_or_else(named)?,
            "no-faults" => self.faults = None,
            "faults" if value == "none" => self.faults = None,
            "faults" => self.faults = Some(value.parse().map_err(|e| format!("bad faults: {e}"))?),
            "hier" => self.hier = HierKind::parse(value).ok_or_else(named)?,
            "family" => self.family = ElemFamily::parse(value).ok_or_else(named)?,
            "workload" => self.workload = Workload::parse(value).ok_or_else(named)?,
            _ => return Err(format!("unknown key '{key}'")),
        }
        Ok(())
    }

    /// The one-line replay command for this scenario: the seed plus exactly
    /// the fields that differ from the seed's derivation (shrinkers and
    /// corpus files override fields; a pristine scenario replays from the
    /// seed alone).
    pub fn replay_cmd(&self) -> String {
        let base = Scenario::from_seed(self.seed);
        let mut cmd = format!(
            "cargo run --release -p optipart-testkit --bin testkit -- replay --seed {}",
            self.seed
        );
        if self.shape != base.shape {
            cmd += &format!(" --shape {}", self.shape.name());
        }
        if self.n != base.n {
            cmd += &format!(" --n {}", self.n);
        }
        if self.p != base.p {
            cmd += &format!(" --p {}", self.p);
        }
        if self.curve != base.curve {
            cmd += &format!(" --curve {}", curve_name(self.curve));
        }
        if self.tolerance != base.tolerance {
            cmd += &format!(" --tol {}", self.tolerance);
        }
        if self.split_budget != base.split_budget {
            match self.split_budget {
                Some(k) => cmd += &format!(" --split-budget {k}"),
                None => cmd += " --split-budget none",
            }
        }
        if self.machine.name != base.machine.name {
            cmd += &format!(" --machine {}", self.machine.name);
        }
        if self.app != base.app {
            cmd += &format!(" --app {}", self.app.name());
        }
        match (&self.faults, &base.faults) {
            (None, Some(_)) => cmd += " --no-faults",
            (Some(f), _) if Some(f.to_string()) != base.faults.as_ref().map(|b| b.to_string()) => {
                cmd += &format!(" --faults {f}");
            }
            _ => {}
        }
        if self.hier != base.hier {
            cmd += &format!(" --hier {}", self.hier.name());
        }
        if self.family != base.family {
            cmd += &format!(" --family {}", self.family.name());
        }
        if self.workload != base.workload {
            cmd += &format!(" --workload {}", self.workload.encode());
        }
        cmd
    }
}

/// Canonical curve name, as accepted by `testkit replay --curve`.
pub fn curve_name(c: Curve) -> &'static str {
    match c {
        Curve::Morton => "morton",
        Curve::Hilbert => "hilbert",
    }
}

/// Inverse of [`curve_name`].
pub fn parse_curve(s: &str) -> Option<Curve> {
    match s {
        "morton" => Some(Curve::Morton),
        "hilbert" => Some(Curve::Hilbert),
        _ => None,
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} shape={} n={} p={} curve={} tol={} budget={} machine={} app={} faults={} \
             hier={} family={} workload={}",
            self.seed,
            self.shape.name(),
            self.n,
            self.p,
            curve_name(self.curve),
            self.tolerance,
            match self.split_budget {
                Some(k) => k.to_string(),
                None => "none".into(),
            },
            self.machine.name,
            self.app.name(),
            match &self.faults {
                Some(plan) => plan.to_string(),
                None => "none".into(),
            },
            self.hier.name(),
            self.family.name(),
            self.workload.encode(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every enum dimension's canonical name must survive a parse
    /// round-trip — these strings are the replay/corpus wire format.
    #[test]
    fn dimension_names_round_trip() {
        for s in MeshShape::ALL {
            assert_eq!(MeshShape::parse(s.name()), Some(s));
        }
        for h in HierKind::ALL {
            assert_eq!(HierKind::parse(h.name()), Some(h));
        }
        for f in ElemFamily::ALL {
            assert_eq!(ElemFamily::parse(f.name()), Some(f));
        }
        for a in [AppKind::Laplacian, AppKind::Wave] {
            assert_eq!(AppKind::parse(a.name()), Some(a));
        }
        for c in [Curve::Morton, Curve::Hilbert] {
            assert_eq!(parse_curve(curve_name(c)), Some(c));
        }
        for w in [
            Workload::Static,
            Workload::MovingFront { steps: 7 },
            Workload::BoundaryLayer { steps: 3 },
        ] {
            assert_eq!(Workload::parse(&w.encode()), Some(w));
        }
        assert_eq!(Workload::parse("front"), None);
        assert_eq!(Workload::parse("sideways4"), None);
    }

    /// The new dimensions draw strictly after every pre-existing field, so
    /// seeds from before the hierarchy PR must reproduce the same mesh —
    /// and overriding a new dimension must not reshuffle the point stream.
    #[test]
    fn point_stream_is_independent_of_new_dimensions() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let base = Scenario::from_seed(seed);
            let mut overridden = base.clone();
            overridden.hier = HierKind::Smp;
            overridden.family = base.family; // family changes the mesh, not the points
            overridden.workload = Workload::MovingFront { steps: 8 };
            assert_eq!(base.points(), overridden.points(), "seed {seed}");
        }
    }

    /// `build_tree` is `mesh_at(0)`; a static workload never changes the
    /// mesh; a moving front returns to the base mesh at its period.
    #[test]
    fn mesh_evolution_contracts() {
        let mut scn = Scenario::from_seed(0x175);
        scn.n = 150;
        scn.workload = Workload::Static;
        let base = scn.build_tree();
        assert_eq!(base.leaves(), scn.mesh_at(0).leaves());
        assert_eq!(base.leaves(), scn.mesh_at(5).leaves());

        scn.workload = Workload::MovingFront { steps: 9 };
        let front_base = scn.mesh_at(0);
        assert_eq!(front_base.leaves(), scn.build_tree().leaves());
        assert_ne!(front_base.leaves(), scn.mesh_at(1).leaves());
        assert_eq!(front_base.leaves(), scn.mesh_at(8).leaves());
        assert_eq!(scn.mesh_at(3).leaves(), scn.mesh_at(11).leaves());

        scn.workload = Workload::BoundaryLayer { steps: 2 };
        let l0 = scn.mesh_at(0);
        // By the step cap the face layer must have refined past the base
        // mesh (early steps can be no-ops when the face is already finer
        // than the step's level cap), and past the cap the mesh freezes.
        let capped = scn.mesh_at(2);
        assert!(capped.len() > l0.len(), "the boundary layer must refine");
        assert_eq!(capped.leaves(), scn.mesh_at(6).leaves());
    }

    /// A pristine scenario replays from the seed alone; overridden new
    /// dimensions (and only those) appear as flags, spelled exactly as the
    /// testkit CLI accepts them.
    #[test]
    fn replay_cmd_encodes_exactly_the_overrides() {
        let seed = 0xC0FFEE;
        let base = Scenario::from_seed(seed);
        assert!(
            base.replay_cmd().ends_with(&format!("--seed {seed}")),
            "pristine scenario must replay from the seed alone: {}",
            base.replay_cmd()
        );

        let mut scn = base.clone();
        scn.hier = if base.hier == HierKind::Numa {
            HierKind::Smp
        } else {
            HierKind::Numa
        };
        scn.family = if base.family == ElemFamily::Tet {
            ElemFamily::Prism
        } else {
            ElemFamily::Tet
        };
        scn.workload = Workload::BoundaryLayer { steps: 5 };
        let cmd = scn.replay_cmd();
        assert!(
            cmd.contains(&format!(" --hier {}", scn.hier.name())),
            "{cmd}"
        );
        assert!(
            cmd.contains(&format!(" --family {}", scn.family.name())),
            "{cmd}"
        );
        assert!(cmd.contains(" --workload blayer5"), "{cmd}");
        assert!(
            !cmd.contains("--shape"),
            "un-overridden fields must stay out: {cmd}"
        );
    }

    /// Every key in the table sets its own field from the spelling
    /// `name()`/`encode()` write; bad values and unknown keys are named in
    /// the error and leave the scenario untouched.
    #[test]
    fn set_covers_the_key_table_and_names_its_errors() {
        let donor = Scenario::from_seed(0xD0_u64);
        let mut scn = Scenario::from_seed(1);
        for key in Scenario::KEYS {
            let value = match key {
                "shape" => donor.shape.name().to_string(),
                "n" => donor.n.to_string(),
                "p" => donor.p.to_string(),
                "curve" => curve_name(donor.curve).to_string(),
                "tol" => donor.tolerance.to_string(),
                "split-budget" => "17".to_string(),
                "machine" => donor.machine.name.to_string(),
                "app" => donor.app.name().to_string(),
                "faults" => "seed=3,kill=1@4".to_string(),
                "hier" => donor.hier.name().to_string(),
                "family" => donor.family.name().to_string(),
                "workload" => "blayer5".to_string(),
                other => panic!("KEYS grew `{other}`: teach this test its spelling"),
            };
            scn.set(key, &value)
                .unwrap_or_else(|e| panic!("{key} = {value}: {e}"));
        }
        let mut want = donor.clone();
        want.seed = 1;
        want.split_budget = Some(17);
        want.faults = Some("seed=3,kill=1@4".parse().unwrap());
        want.workload = Workload::BoundaryLayer { steps: 5 };
        assert_eq!(scn.to_string(), want.to_string());

        scn.set("split-budget", "none").unwrap();
        scn.set("faults", "none").unwrap();
        assert!(scn.split_budget.is_none() && scn.faults.is_none());
        scn.faults = want.faults.clone();
        scn.set("no-faults", "").unwrap();
        assert!(scn.faults.is_none());

        let before = scn.to_string();
        for (key, value, why) in [
            ("shape", "donut", "unknown shape 'donut'"),
            ("n", "12x", "bad number for 'n': 12x"),
            ("tol", "", "bad number for 'tol': "),
            ("split-budget", "-1", "bad number for 'split-budget': -1"),
            ("machine", "cray-1", "unknown machine 'cray-1'"),
            ("faults", "kill=", "bad faults: "),
            ("workload", "front", "unknown workload 'front'"),
            ("budget", "8", "unknown key 'budget'"),
        ] {
            let err = scn.set(key, value).expect_err(key);
            assert!(err.starts_with(why), "{key} = {value}: {err}");
        }
        assert_eq!(scn.to_string(), before);
    }

    /// The hierarchy presets applied by `machine_model` keep the flat
    /// figures untouched and only attach (or don't) a `Hierarchy`.
    #[test]
    fn machine_model_applies_hier_preset() {
        let mut scn = Scenario::from_seed(9);
        scn.hier = HierKind::None;
        assert!(scn.machine_model().hierarchy.is_none());
        scn.hier = HierKind::Smp;
        let m = scn.machine_model();
        let h = m.hierarchy.as_ref().expect("smp attaches a hierarchy");
        assert_eq!(m.tw, scn.machine.tw);
        assert!(h.tw_intra < m.tw);
    }
}
