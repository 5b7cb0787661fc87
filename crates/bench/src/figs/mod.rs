//! Figure reproductions — one module per measured figure of §5.
//!
//! Every `run` function regenerates the corresponding figure's data as a
//! text table (and CSV with `--out`). Paper sizes are scaled by
//! `RunConfig::scale`; see DESIGN.md §4 for the mapping and EXPERIMENTS.md
//! for recorded shape checks.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod hier;
pub mod recovery;
pub mod scaling;

use crate::common::RunConfig;

/// All figure ids, in paper order.
pub const ALL: &[&str] = &[
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Dispatches one figure by id.
pub fn run(id: &str, cfg: &RunConfig) -> Result<(), String> {
    match id {
        "fig4" => fig4::run(cfg),
        "fig5" => fig5::run(cfg),
        "fig6" => fig6::run(cfg),
        "fig7" => fig7_8::run_fig7(cfg),
        "fig8" => fig7_8::run_fig8(cfg),
        "fig9" => fig9::run(cfg),
        "fig10" => fig10::run(cfg),
        "fig11" => fig11::run(cfg),
        "fig12" => fig12::run(cfg),
        "ablations" => ablations::run(cfg),
        "hier" => hier::run(cfg),
        "recovery" => recovery::run(cfg),
        "scaling" => scaling::run(cfg),
        other => return Err(format!("unknown figure id '{other}'; known: {ALL:?}")),
    }
    Ok(())
}
