//! The comparison-report generator: fold stored runs back into
//! per-metric tables, baseline deltas, and Markdown/CSV/JSON artifacts.
//!
//! Summaries are a pure function of the spec (expansion order) and the
//! store contents — never of shard layout, worker mode, or thread
//! count — so re-generating after any execution strategy yields
//! byte-identical artifacts.

use crate::exec::expand;
use crate::spec::CampaignSpec;
use crate::store::{run_hash, ResultStore, RunFailure, CODE_SALT};
use crate::{CampaignError, Resolver};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Control-loop stability headline numbers of one run, present when
/// the scenario selected `metrics.stability` (`ecp-control` analyzer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StabilityMetrics {
    /// Fraction of offered samples delivering below the shortfall
    /// threshold.
    pub shortfall_fraction: f64,
    /// Dominant oscillation period, seconds (`None` below two cycles).
    pub dominant_period_s: Option<f64>,
    /// Settling time of the delivered series, seconds.
    pub settling_time_s: Option<f64>,
}

/// The headline metrics of one successful run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Mean network power as a fraction of fully-on.
    pub mean_power_frac: f64,
    /// Delivered ÷ offered (engine-specific aggregation).
    pub mean_delivered_fraction: f64,
    /// Longest < 95 % delivery stretch, seconds (simnet engine).
    pub max_tracking_lag_s: f64,
    /// Fraction of congested intervals (replay engine).
    pub congested_fraction: Option<f64>,
    /// Samples / intervals / flows / app runs behind the means.
    pub samples: usize,
    /// Stability analysis, when the run recorded one.
    #[serde(default)]
    pub stability: Option<StabilityMetrics>,
    /// Time of the last control round that still changed flow shares
    /// (seconds), from the executor's telemetry sidecar. `None` when
    /// the run predates the sidecar or never changed shares.
    #[serde(default)]
    pub settle_time_s: Option<f64>,
    /// Peak number of simultaneously overloaded arcs seen at any
    /// control round, from the telemetry sidecar.
    #[serde(default)]
    pub peak_overloaded_arcs: Option<u32>,
}

impl RunMetrics {
    fn from_stored(
        r: &ecp_scenario::ScenarioReport,
        telemetry: Option<&ecp_scenario::TelemetrySnapshot>,
    ) -> Self {
        RunMetrics {
            mean_power_frac: r.mean_power_frac,
            mean_delivered_fraction: r.mean_delivered_fraction,
            max_tracking_lag_s: r.max_tracking_lag_s,
            congested_fraction: r.congested_fraction,
            samples: r.samples,
            stability: r.stability.as_ref().map(|s| StabilityMetrics {
                shortfall_fraction: s.shortfall_fraction,
                dominant_period_s: s.dominant_period_s,
                settling_time_s: s.settling_time_s,
            }),
            settle_time_s: telemetry.and_then(|t| t.settle_time_s),
            peak_overloaded_arcs: telemetry.map(|t| t.peak_overloaded_arcs),
        }
    }
}

/// Entry-vs-baseline comparison (entry − baseline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineDelta {
    /// Difference in mean power fraction.
    pub power_delta: f64,
    /// Difference in delivered fraction.
    pub delivered_delta: f64,
}

/// One run in the summary, in expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRow {
    /// Owning entry.
    pub entry: String,
    /// Index within the entry.
    pub index: usize,
    /// Expanded scenario name.
    pub name: String,
    /// Parameter assignment.
    pub params: Vec<(String, f64)>,
    /// Content hash (the store file name).
    pub hash: String,
    /// `"ok"`, `"failed"`, or `"missing"` (not yet executed).
    pub status: String,
    /// Metrics, for `"ok"` runs.
    pub metrics: Option<RunMetrics>,
    /// The recorded failure, for `"failed"` runs.
    pub failure: Option<RunFailure>,
    /// Run-by-run delta vs the baseline entry's same-index run (present
    /// when both are ok and the entries expand to equally many runs).
    pub vs_baseline: Option<BaselineDelta>,
    /// Wall seconds from the `--profile` timing sidecar, when one was
    /// recorded. Best-effort: outside the determinism contract.
    #[serde(default)]
    pub wall_s: Option<f64>,
    /// Slowest profiled phase by self time, when recorded.
    #[serde(default)]
    pub slowest_phase: Option<String>,
}

/// One entry's aggregation across its runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntrySummary {
    /// Entry name.
    pub entry: String,
    /// Expanded run count.
    pub runs: usize,
    /// Runs with a stored report.
    pub ok: usize,
    /// Runs with a stored failure.
    pub failed: usize,
    /// Runs absent from the store.
    pub missing: usize,
    /// Mean of `mean_power_frac` over ok runs.
    pub mean_power_frac: Option<f64>,
    /// Mean of `mean_delivered_fraction` over ok runs.
    pub mean_delivered_fraction: Option<f64>,
    /// Max of `max_tracking_lag_s` over ok runs.
    pub max_tracking_lag_s: Option<f64>,
    /// Mean congested fraction over ok runs reporting one.
    pub mean_congested_fraction: Option<f64>,
    /// Mean delivery-shortfall fraction over ok runs with a stability
    /// analysis.
    pub mean_shortfall_fraction: Option<f64>,
    /// Mean dominant oscillation period (seconds) over ok runs whose
    /// analysis detected one.
    pub mean_dominant_period_s: Option<f64>,
    /// Worst settling time (seconds) over ok runs reporting one.
    pub max_settling_time_s: Option<f64>,
    /// Entry-level delta vs the baseline entry.
    pub vs_baseline: Option<BaselineDelta>,
}

/// The whole campaign summary (the machine-readable artifact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Campaign name.
    pub campaign: String,
    /// Store salt the summary was generated against.
    pub code_salt: String,
    /// The designated baseline entry, if any.
    pub baseline: Option<String>,
    /// Per-entry aggregations, in spec order.
    pub entries: Vec<EntrySummary>,
    /// Every run, in expansion order.
    pub runs: Vec<RunRow>,
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Fold the store into a summary for this spec.
pub fn summarize(
    spec: &CampaignSpec,
    resolver: Resolver,
    store: &ResultStore,
) -> Result<CampaignSummary, CampaignError> {
    let units = expand(spec, resolver)?;
    let mut runs: Vec<RunRow> = Vec::with_capacity(units.len());
    for u in &units {
        let hash = run_hash(&u.scenario);
        let (status, metrics, failure) = match store.load(&hash) {
            Some(stored) => match (&stored.report, &stored.failure) {
                (Some(r), _) => (
                    "ok",
                    Some(RunMetrics::from_stored(r, stored.telemetry.as_ref())),
                    None,
                ),
                (None, Some(f)) => ("failed", None, Some(f.clone())),
                (None, None) => ("failed", None, None),
            },
            None => ("missing", None, None),
        };
        let timing = store.load_timing(&hash);
        runs.push(RunRow {
            entry: u.entry.clone(),
            index: u.index,
            name: u.scenario.name.clone(),
            params: u.params.clone(),
            hash,
            status: status.into(),
            metrics,
            failure,
            vs_baseline: None,
            wall_s: timing.as_ref().map(|t| t.wall_s),
            slowest_phase: timing
                .as_ref()
                .and_then(|t| t.slowest_phase().map(str::to_string)),
        });
    }

    fn entry_rows(runs: &[RunRow], name: &str) -> Vec<usize> {
        runs.iter()
            .enumerate()
            .filter(|(_, r)| r.entry == name)
            .map(|(i, _)| i)
            .collect()
    }

    // Run-by-run baseline deltas, where the shapes line up.
    if let Some(base) = &spec.baseline {
        let base_rows = entry_rows(&runs, base);
        for e in &spec.entries {
            if &e.name == base {
                continue;
            }
            let rows = entry_rows(&runs, &e.name);
            if rows.len() != base_rows.len() {
                continue;
            }
            for (&i, &b) in rows.iter().zip(&base_rows) {
                if let (Some(m), Some(bm)) = (runs[i].metrics, runs[b].metrics) {
                    runs[i].vs_baseline = Some(BaselineDelta {
                        power_delta: m.mean_power_frac - bm.mean_power_frac,
                        delivered_delta: m.mean_delivered_fraction - bm.mean_delivered_fraction,
                    });
                }
            }
        }
    }

    let mut entries: Vec<EntrySummary> = Vec::with_capacity(spec.entries.len());
    for e in &spec.entries {
        let rows = entry_rows(&runs, &e.name);
        let oks: Vec<&RunMetrics> = rows
            .iter()
            .filter_map(|&i| runs[i].metrics.as_ref())
            .collect();
        let power: Vec<f64> = oks.iter().map(|m| m.mean_power_frac).collect();
        let delivered: Vec<f64> = oks.iter().map(|m| m.mean_delivered_fraction).collect();
        let congested: Vec<f64> = oks.iter().filter_map(|m| m.congested_fraction).collect();
        let shortfall: Vec<f64> = oks
            .iter()
            .filter_map(|m| m.stability.map(|s| s.shortfall_fraction))
            .collect();
        let period: Vec<f64> = oks
            .iter()
            .filter_map(|m| m.stability.and_then(|s| s.dominant_period_s))
            .collect();
        let settle: Vec<f64> = oks
            .iter()
            .filter_map(|m| m.stability.and_then(|s| s.settling_time_s))
            .collect();
        entries.push(EntrySummary {
            entry: e.name.clone(),
            runs: rows.len(),
            ok: oks.len(),
            failed: rows.iter().filter(|&&i| runs[i].status == "failed").count(),
            missing: rows
                .iter()
                .filter(|&&i| runs[i].status == "missing")
                .count(),
            mean_power_frac: mean(&power),
            mean_delivered_fraction: mean(&delivered),
            max_tracking_lag_s: (!oks.is_empty())
                .then(|| oks.iter().map(|m| m.max_tracking_lag_s).fold(0.0, f64::max)),
            mean_congested_fraction: mean(&congested),
            mean_shortfall_fraction: mean(&shortfall),
            mean_dominant_period_s: mean(&period),
            max_settling_time_s: (!settle.is_empty())
                .then(|| settle.iter().cloned().fold(0.0, f64::max)),
            vs_baseline: None,
        });
    }
    if let Some(base) = &spec.baseline {
        let base_metrics = entries
            .iter()
            .find(|s| &s.entry == base)
            .and_then(|s| Some((s.mean_power_frac?, s.mean_delivered_fraction?)));
        if let Some((bp, bd)) = base_metrics {
            for s in &mut entries {
                if &s.entry == base {
                    continue;
                }
                if let (Some(p), Some(d)) = (s.mean_power_frac, s.mean_delivered_fraction) {
                    s.vs_baseline = Some(BaselineDelta {
                        power_delta: p - bp,
                        delivered_delta: d - bd,
                    });
                }
            }
        }
    }

    Ok(CampaignSummary {
        campaign: spec.name.clone(),
        code_salt: CODE_SALT.into(),
        baseline: spec.baseline.clone(),
        entries,
        runs,
    })
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into())
}

fn fmt_delta(d: Option<BaselineDelta>) -> (String, String) {
    match d {
        Some(d) => (
            format!("{:+.4}", d.power_delta),
            format!("{:+.4}", d.delivered_delta),
        ),
        None => ("-".into(), "-".into()),
    }
}

fn fmt_params(params: &[(String, f64)]) -> String {
    if params.is_empty() {
        return "-".into();
    }
    params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl CampaignSummary {
    /// Render the Markdown comparison report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# Campaign report: {}\n\n", self.campaign));
        match &self.baseline {
            Some(b) => out.push_str(&format!(
                "Baseline entry: `{b}` — Δ columns are entry − baseline \
                 (power and delivered fractions).\n\n"
            )),
            None => out.push_str("No baseline entry designated; Δ columns are empty.\n\n"),
        }
        out.push_str("## Entries\n\n");
        out.push_str(
            "| entry | runs | ok | failed | missing | power | delivered | max lag (s) \
             | congested | shortfall | period (s) | settle (s) | Δ power | Δ delivered |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for e in &self.entries {
            let (dp, dd) = fmt_delta(e.vs_baseline);
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                e.entry,
                e.runs,
                e.ok,
                e.failed,
                e.missing,
                fmt_opt(e.mean_power_frac),
                fmt_opt(e.mean_delivered_fraction),
                fmt_opt(e.max_tracking_lag_s),
                fmt_opt(e.mean_congested_fraction),
                fmt_opt(e.mean_shortfall_fraction),
                fmt_opt(e.mean_dominant_period_s),
                fmt_opt(e.max_settling_time_s),
                dp,
                dd,
            ));
        }
        out.push_str("\n## Runs\n\n");
        out.push_str(
            "| entry | # | params | status | power | delivered | lag (s) | shortfall \
             | settle (s) | peak OL | wall (s) | slowest phase | Δ power | detail |\n\
             |---|---:|---|---|---:|---:|---:|---:|---:|---:|---:|---|---:|---|\n",
        );
        for r in &self.runs {
            let (dp, _) = fmt_delta(r.vs_baseline);
            let detail = match (&r.metrics, &r.failure) {
                (Some(m), _) => format!("{} samples", m.samples),
                (None, Some(f)) => format!("{}: {}", f.kind, f.message.replace('|', "\\|")),
                (None, None) => "-".into(),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                r.entry,
                r.index,
                fmt_params(&r.params),
                r.status,
                fmt_opt(r.metrics.map(|m| m.mean_power_frac)),
                fmt_opt(r.metrics.map(|m| m.mean_delivered_fraction)),
                fmt_opt(r.metrics.map(|m| m.max_tracking_lag_s)),
                fmt_opt(
                    r.metrics
                        .and_then(|m| m.stability.map(|s| s.shortfall_fraction))
                ),
                fmt_opt(r.metrics.and_then(|m| m.settle_time_s)),
                r.metrics
                    .and_then(|m| m.peak_overloaded_arcs)
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
                fmt_opt(r.wall_s),
                r.slowest_phase.as_deref().unwrap_or("-"),
                dp,
                detail,
            ));
        }
        out
    }

    /// Render the run-level CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "campaign,entry,run,name,params,hash,status,mean_power_frac,\
             mean_delivered_fraction,max_tracking_lag_s,congested_fraction,samples,\
             shortfall_fraction,dominant_period_s,settling_time_s,\
             telemetry_settle_s,telemetry_peak_overloaded,wall_s,slowest_phase,\
             delta_power_vs_baseline,delta_delivered_vs_baseline,failure_kind\n",
        );
        let opt = |v: Option<f64>| v.map(|v| format!("{v}")).unwrap_or_default();
        for r in &self.runs {
            let m = r.metrics;
            let stab = m.and_then(|m| m.stability);
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                self.campaign,
                r.entry,
                r.index,
                r.name.replace(',', ";"),
                fmt_params(&r.params).replace(',', ";"),
                r.hash,
                r.status,
                opt(m.map(|m| m.mean_power_frac)),
                opt(m.map(|m| m.mean_delivered_fraction)),
                opt(m.map(|m| m.max_tracking_lag_s)),
                opt(m.and_then(|m| m.congested_fraction)),
                m.map(|m| m.samples.to_string()).unwrap_or_default(),
                opt(stab.map(|s| s.shortfall_fraction)),
                opt(stab.and_then(|s| s.dominant_period_s)),
                opt(stab.and_then(|s| s.settling_time_s)),
                opt(m.and_then(|m| m.settle_time_s)),
                m.and_then(|m| m.peak_overloaded_arcs)
                    .map(|p| p.to_string())
                    .unwrap_or_default(),
                opt(r.wall_s),
                r.slowest_phase.as_deref().unwrap_or(""),
                opt(r.vs_baseline.map(|d| d.power_delta)),
                opt(r.vs_baseline.map(|d| d.delivered_delta)),
                r.failure.as_ref().map(|f| f.kind.as_str()).unwrap_or(""),
            ));
        }
        out
    }

    /// Render the machine-readable JSON summary.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serializes")
    }
}

/// Summarize the store and write every artifact in one step (the
/// shared tail of `ecp campaign run` and `ecp campaign report`).
pub fn generate(
    spec: &CampaignSpec,
    resolver: Resolver,
    store: &ResultStore,
    output_dir: &Path,
) -> Result<(CampaignSummary, Vec<PathBuf>), CampaignError> {
    let summary = summarize(spec, resolver, store)?;
    let mut paths = write_artifacts(&summary, output_dir)?;
    paths.push(crate::html::write_html(&summary, store, output_dir)?);
    Ok((summary, paths))
}

/// Write `report.md`, `report.csv`, and `summary.json` under the
/// campaign output directory; returns the paths written.
pub fn write_artifacts(
    summary: &CampaignSummary,
    output_dir: &Path,
) -> Result<Vec<PathBuf>, CampaignError> {
    std::fs::create_dir_all(output_dir)
        .map_err(|e| CampaignError::Io(format!("create {}: {e}", output_dir.display())))?;
    let artifacts = [
        ("report.md", summary.to_markdown()),
        ("report.csv", summary.to_csv()),
        ("summary.json", summary.to_json()),
    ];
    let mut paths = Vec::new();
    for (file, body) in artifacts {
        let path = output_dir.join(file);
        std::fs::write(&path, body)
            .map_err(|e| CampaignError::Io(format!("write {}: {e}", path.display())))?;
        paths.push(path);
    }
    Ok(paths)
}
