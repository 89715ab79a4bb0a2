//! The campaign model: a named set of scenario entries plus execution
//! and comparison settings, serializable to TOML.

use crate::CampaignError;
use ecp_scenario::{Axis, Param, Scenario};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One parameter override applied to an entry's base scenario before
/// sweep expansion (same knob set as sweep axes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetSpec {
    /// Which knob.
    pub param: Param,
    /// Its value (integral parameters are rounded).
    pub value: f64,
}

/// One campaign entry: a base scenario plus how to expand it into runs.
///
/// Exactly one of `registry` / `scenario` selects the base. `set`
/// overrides are applied first; `sweep` axes (row-major grid), a
/// `seeds` list, and `repeats` (derived deterministic seeds) then
/// multiply the entry into runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntrySpec {
    /// Entry name — report label and baseline reference. Unique.
    pub name: String,
    /// Base scenario by registry id (resolved via [`crate::Resolver`]).
    #[serde(default)]
    pub registry: Option<String>,
    /// Inline base scenario document.
    #[serde(default)]
    pub scenario: Option<Scenario>,
    /// Fixed parameter overrides applied to the base.
    #[serde(default)]
    pub set: Vec<SetSpec>,
    /// Sweep-grid axes expanded into one run per cell.
    #[serde(default)]
    pub sweep: Vec<Axis>,
    /// Explicit seed replicates (appended as an innermost seed axis).
    /// Mutually exclusive with `repeats`.
    #[serde(default)]
    pub seeds: Vec<u64>,
    /// Derived seed replicates (splitmix64 over the base seed),
    /// appended as the innermost axis. Mutually exclusive with `seeds`.
    #[serde(default)]
    pub repeats: Option<usize>,
}

impl EntrySpec {
    /// An entry over a registry id.
    pub fn registry(name: impl Into<String>, id: impl Into<String>) -> Self {
        EntrySpec {
            name: name.into(),
            registry: Some(id.into()),
            scenario: None,
            set: Vec::new(),
            sweep: Vec::new(),
            seeds: Vec::new(),
            repeats: None,
        }
    }

    /// An entry over an inline scenario.
    pub fn inline(name: impl Into<String>, scenario: Scenario) -> Self {
        EntrySpec {
            name: name.into(),
            registry: None,
            scenario: Some(scenario),
            set: Vec::new(),
            sweep: Vec::new(),
            seeds: Vec::new(),
            repeats: None,
        }
    }

    /// Add a fixed override.
    pub fn with_set(mut self, param: Param, value: f64) -> Self {
        self.set.push(SetSpec { param, value });
        self
    }

    /// Add a sweep axis.
    pub fn with_sweep(mut self, param: Param, values: impl IntoIterator<Item = f64>) -> Self {
        self.sweep.push(Axis::new(param, values));
        self
    }

    /// Replicate across these seeds.
    pub fn with_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }
}

/// A whole campaign: entries plus execution/report settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (default output directory, report headings).
    pub name: String,
    /// Where runs and reports live; default
    /// `results/campaigns/<name>`. CLI `--out` overrides.
    #[serde(default)]
    pub output_dir: Option<String>,
    /// Number of worker subprocesses (shards) a `--workers subprocess`
    /// run starts (CLI `--shards` overrides); `None` = 1. In-process
    /// runs are one pass over every run and ignore it.
    #[serde(default)]
    pub shards: Option<usize>,
    /// Entry every other entry is compared against in reports.
    #[serde(default)]
    pub baseline: Option<String>,
    /// The entries, in presentation order.
    #[serde(default)]
    pub entries: Vec<EntrySpec>,
}

impl CampaignSpec {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            output_dir: None,
            shards: None,
            baseline: None,
            entries: Vec::new(),
        }
    }

    /// Append an entry.
    pub fn entry(mut self, entry: EntrySpec) -> Self {
        self.entries.push(entry);
        self
    }

    /// Designate the baseline entry.
    pub fn with_baseline(mut self, entry: impl Into<String>) -> Self {
        self.baseline = Some(entry.into());
        self
    }

    /// Parse and validate a campaign from a TOML document.
    pub fn from_toml(doc: &str) -> Result<Self, CampaignError> {
        let spec: CampaignSpec =
            toml::from_str(doc).map_err(|e| CampaignError::Spec(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Read and validate a campaign from a TOML file.
    pub fn from_path(path: &Path) -> Result<Self, CampaignError> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| CampaignError::Io(format!("read {}: {e}", path.display())))?;
        Self::from_toml(&doc)
    }

    /// Render the campaign as a TOML document.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("campaign serializes")
    }

    /// Structural validation (entry names, sources, axes, baseline).
    pub fn validate(&self) -> Result<(), CampaignError> {
        let err = |s: String| Err(CampaignError::Spec(s));
        if self.name.is_empty() {
            return err("campaign name must not be empty".into());
        }
        if self.entries.is_empty() {
            return err(format!("campaign `{}` has no entries", self.name));
        }
        if self.shards == Some(0) {
            return err("shards must be at least 1".into());
        }
        let mut names: Vec<&str> = Vec::new();
        for e in &self.entries {
            if e.name.is_empty() {
                return err("entry names must not be empty".into());
            }
            if names.contains(&e.name.as_str()) {
                return err(format!("duplicate entry name `{}`", e.name));
            }
            names.push(&e.name);
            match (&e.registry, &e.scenario) {
                (Some(_), Some(_)) => {
                    return err(format!(
                        "entry `{}` sets both `registry` and `scenario`; pick one",
                        e.name
                    ))
                }
                (None, None) => {
                    return err(format!(
                        "entry `{}` needs a base: set `registry` or `scenario`",
                        e.name
                    ))
                }
                _ => {}
            }
            if e.sweep.iter().any(|a| a.values.is_empty()) {
                return err(format!(
                    "entry `{}` has a sweep axis with no values",
                    e.name
                ));
            }
            if e.repeats == Some(0) {
                return err(format!("entry `{}` sets repeats = 0", e.name));
            }
            if !e.seeds.is_empty() && e.repeats.is_some() {
                return err(format!(
                    "entry `{}` sets both `seeds` and `repeats`; pick one replication axis",
                    e.name
                ));
            }
            // Seeds ride through an f64 sweep axis; above 2^53 they
            // would be silently rounded.
            if let Some(&s) = e.seeds.iter().find(|&&s| s > (1 << 53)) {
                return err(format!(
                    "entry `{}` seed {s} exceeds 2^53 and cannot replicate exactly",
                    e.name
                ));
            }
        }
        if let Some(b) = &self.baseline {
            if !names.contains(&b.as_str()) {
                return err(format!("baseline `{b}` does not name an entry"));
            }
        }
        Ok(())
    }

    /// Keep only the entries whose name contains `filter` — the
    /// `campaign ... --only <substring>` iteration aid, so a single A/B
    /// entry can be re-run without expanding the whole campaign. The
    /// baseline designation is dropped when the baseline entry is
    /// filtered away (deltas need it in the run set). Cached results
    /// are shared with full runs either way: run hashes depend only on
    /// the scenarios, not on the entry set.
    pub fn retain_matching(&mut self, filter: &str) -> Result<(), CampaignError> {
        let all: Vec<String> = self.entries.iter().map(|e| e.name.clone()).collect();
        self.entries.retain(|e| e.name.contains(filter));
        if self.entries.is_empty() {
            return Err(CampaignError::Spec(format!(
                "--only `{filter}` matches no entry (have: {})",
                all.join(", ")
            )));
        }
        if let Some(b) = &self.baseline {
            if !self.entries.iter().any(|e| &e.name == b) {
                self.baseline = None;
            }
        }
        Ok(())
    }

    /// The spec's worker-subprocess count (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(1).max(1)
    }

    /// The campaign's output directory: `cli_override`, else the
    /// spec's `output_dir`, else `results/campaigns/<name>`.
    pub fn resolved_output_dir(&self, cli_override: Option<&str>) -> PathBuf {
        match (cli_override, &self.output_dir) {
            (Some(o), _) => PathBuf::from(o),
            (None, Some(o)) => PathBuf::from(o),
            (None, None) => PathBuf::from("results").join("campaigns").join(&self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_scenario::ScenarioBuilder;

    fn three_entry_spec() -> CampaignSpec {
        let s = ScenarioBuilder::new("s").build();
        CampaignSpec::new("only-test")
            .entry(EntrySpec::inline("undamped", s.clone()))
            .entry(EntrySpec::inline("ewma", s.clone()))
            .entry(EntrySpec::inline("ewma-alpha", s))
            .with_baseline("undamped")
    }

    #[test]
    fn retain_matching_filters_by_substring() {
        let mut spec = three_entry_spec();
        spec.retain_matching("ewma").unwrap();
        let names: Vec<&str> = spec.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["ewma", "ewma-alpha"]);
        // The baseline was filtered out: deltas are dropped, not dangling.
        assert_eq!(spec.baseline, None);
        spec.validate().unwrap();
    }

    #[test]
    fn retain_matching_keeps_surviving_baseline() {
        let mut spec = three_entry_spec();
        spec.retain_matching("am").unwrap(); // "undamped" only
        assert_eq!(spec.entries.len(), 1);
        assert_eq!(spec.baseline.as_deref(), Some("undamped"));
        spec.validate().unwrap();
    }

    #[test]
    fn retain_matching_rejects_empty_match() {
        let mut spec = three_entry_spec();
        let err = spec.retain_matching("nope").unwrap_err();
        assert!(
            matches!(err, CampaignError::Spec(ref m) if m.contains("matches no entry")),
            "{err}"
        );
    }
}
