//! Regression corpus: seed files replayed in tier-1.
//!
//! A corpus file is a `key = value` text file (`#` comments) pinning one
//! historical failure class to its reproducing scenario:
//!
//! ```text
//! # splitter staging under a tight split budget
//! check = treesort-differential
//! seed = 0x51a9
//! split-budget = 8
//! ```
//!
//! `seed` is mandatory; every other key overrides the derived scenario
//! field through [`Scenario::set`], exactly like the `testkit replay`
//! flags. `check` selects one registered check (default `all`).

use crate::scenario::Scenario;
use crate::soak::{check_by_name, run_scenario};

/// A parsed corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusCase {
    /// Check name (`"all"` runs the full registry).
    pub check: String,
    /// The scenario, overrides applied.
    pub scenario: Scenario,
}

/// Parses a corpus file's contents. Returns `Err` with a line-anchored
/// message on any unknown key or malformed value — a corpus file that
/// silently skips its overrides would pin nothing.
pub fn parse(contents: &str) -> Result<CorpusCase, String> {
    let mut seed: Option<u64> = None;
    let mut check = "all".to_string();
    let mut overrides: Vec<(String, String)> = Vec::new();
    for (ln, raw) in contents.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got `{line}`", ln + 1))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "seed" => {
                let v = value.strip_prefix("0x").map_or_else(
                    || value.parse::<u64>().map_err(|e| e.to_string()),
                    |hex| u64::from_str_radix(hex, 16).map_err(|e| e.to_string()),
                );
                seed = Some(v.map_err(|e| format!("line {}: bad seed: {e}", ln + 1))?);
            }
            "check" => check = value.to_string(),
            _ => overrides.push((key.to_string(), value.to_string())),
        }
    }
    let seed = seed.ok_or("corpus file has no `seed` key")?;
    let mut scenario = Scenario::from_seed(seed);
    for (key, value) in &overrides {
        scenario
            .set(key, value)
            .map_err(|e| format!("override `{key} = {value}`: {e}"))?;
    }
    if check != "all" && check_by_name(&check).is_none() {
        return Err(format!("unknown check `{check}`"));
    }
    Ok(CorpusCase { check, scenario })
}

/// Replays one parsed corpus case, panicking (with the replay command) on
/// any violation.
pub fn replay(case: &CorpusCase) {
    if case.check == "all" {
        run_scenario(&case.scenario);
    } else {
        let check = check_by_name(&case.check).expect("validated by parse()");
        check(&case.scenario);
    }
}
