//! Shared plumbing for the figure harness.

use optipart_core::partition::{distribute_tree, treesort_partition, PartitionOptions};
use optipart_fem::DistMesh;
use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::Engine;
use optipart_octree::{LinearTree, MeshParams};
use optipart_sfc::Curve;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// A captured table: name, headers, string rows.
type EmittedTable = (String, Vec<String>, Vec<Vec<String>>);

/// Every table emitted during this process, captured for
/// [`write_summary`]'s machine-readable `BENCH_summary.json`.
static EMITTED: Mutex<Vec<EmittedTable>> = Mutex::new(Vec::new());

/// Global configuration of a harness run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Multiplier on the paper's problem sizes (1.0 = paper scale where
    /// memory allows; defaults are figure-specific fractions).
    pub scale: f64,
    /// Directory for CSV output (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Mesh seed, fixed for reproducibility.
    pub seed: u64,
    /// Top virtual rank count of the `scaling` strong-scaling sweep
    /// (default = the paper's full Titan count).
    pub max_p: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 1.0,
            out_dir: None,
            seed: 0x0511_2017,
            max_p: 262_144,
        }
    }
}

impl RunConfig {
    /// Scales a default element count, keeping at least `min`.
    pub fn n(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }
}

/// A text/CSV results table.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Prints aligned to stdout and writes CSV when configured.
    pub fn emit(&self, cfg: &RunConfig) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        println!("\n== {} ==", self.name);
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.headers));
        for row in &self.rows {
            println!("{}", line(row));
        }
        if let Some(dir) = &cfg.out_dir {
            fs::create_dir_all(dir).expect("create out dir");
            let path = dir.join(format!("{}.csv", self.name));
            let mut f = fs::File::create(&path).expect("create csv");
            writeln!(f, "{}", self.headers.join(",")).unwrap();
            for row in &self.rows {
                writeln!(f, "{}", row.join(",")).unwrap();
            }
            eprintln!("wrote {}", path.display());
        }
        EMITTED
            .lock()
            .unwrap()
            .push((self.name.clone(), self.headers.clone(), self.rows.clone()));
    }
}

/// Writes `BENCH_summary.json` — a machine-readable digest of the run: one
/// entry per figure with its host wall time, plus every emitted table
/// (virtual timings, NNZ, imbalance, …) as headers + string rows. Lands in
/// `--out DIR` when given, the working directory otherwise.
pub fn write_summary(cfg: &RunConfig, figures: &[(String, f64)]) {
    use optipart_trace::json::quote;
    let mut s = String::from("{\n  \"figures\": [\n");
    for (i, (id, wall)) in figures.iter().enumerate() {
        let sep = if i + 1 == figures.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"id\": {}, \"wall_s\": {:.6}}}{}\n",
            quote(id),
            wall,
            sep
        ));
    }
    s.push_str("  ],\n  \"tables\": [\n");
    let tables = EMITTED.lock().unwrap();
    for (i, (name, headers, rows)) in tables.iter().enumerate() {
        let cells = |cells: &[String]| {
            cells
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(", ")
        };
        s.push_str(&format!(
            "    {{\"name\": {}, \"headers\": [{}], \"rows\": [",
            quote(name),
            cells(headers)
        ));
        for (j, row) in rows.iter().enumerate() {
            let sep = if j + 1 == rows.len() { "" } else { ", " };
            s.push_str(&format!("[{}]{}", cells(row), sep));
        }
        let sep = if i + 1 == tables.len() { "" } else { "," };
        s.push_str(&format!("]}}{}\n", sep));
    }
    s.push_str("  ]\n}\n");
    let dir = cfg.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    fs::create_dir_all(&dir).expect("create out dir");
    let path = dir.join("BENCH_summary.json");
    fs::write(&path, s).expect("write summary");
    eprintln!("wrote {}", path.display());
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Builds a normal-distribution mesh with roughly `n` elements.
pub fn mesh(n: usize, seed: u64, curve: Curve) -> LinearTree<3> {
    MeshParams {
        num_points: n,
        seed,
        ..Default::default()
    }
    .build(curve)
}

/// Engine for a machine preset with the Laplacian application model.
pub fn engine(machine: MachineModel, p: usize) -> Engine {
    Engine::new(p, PerfModel::new(machine, AppModel::laplacian_matvec()))
}

/// Partitions a tree with the given tolerance and builds the FEM mesh.
pub fn partitioned_mesh(e: &mut Engine, tree: &LinearTree<3>, tol: f64) -> DistMesh<3> {
    let p = e.p();
    let out = treesort_partition(
        e,
        distribute_tree(tree, p),
        PartitionOptions::with_tolerance(tol),
    );
    DistMesh::build(e, out.dist, tree.curve())
}

/// The tolerance sweep grid of Figs. 7–12.
pub fn tolerance_grid(max: f64, step: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut t = 0.0;
    while t <= max + 1e-9 {
        v.push((t * 100.0).round() / 100.0);
        t += step;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_grid_matches_paper_axes() {
        let g = tolerance_grid(0.5, 0.05);
        assert_eq!(g.len(), 11);
        assert_eq!(g[0], 0.0);
        assert_eq!(*g.last().unwrap(), 0.5);
    }

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("optipart-table-test");
        let cfg = RunConfig {
            out_dir: Some(dir.clone()),
            ..Default::default()
        };
        t.emit(&cfg);
        let written = std::fs::read_to_string(dir.join("test.csv")).unwrap();
        assert!(written.contains("a,b"));
        assert!(written.contains("1,2"));
    }

    #[test]
    fn scale_floors_at_min() {
        let cfg = RunConfig {
            scale: 0.0001,
            ..Default::default()
        };
        assert_eq!(cfg.n(1_000_000, 500), 500);
    }
}
