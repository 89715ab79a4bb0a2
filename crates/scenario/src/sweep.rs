//! Parameter-grid expansion and the parallel sweep runner.

use crate::error::ScenarioError;
use crate::run::ScenarioReport;
use crate::spec::{ControlSpec, ScaleSpec, Scenario};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A sweepable scenario parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Param {
    /// `sim.te_threshold` (also the replay TE threshold).
    Threshold,
    /// `planner.num_paths` (value rounded to usize).
    NumPaths,
    /// `planner.beta`; negative values mean "no bound" (`None`).
    Beta,
    /// `planner.margin` (the oracle safety margin `sm`).
    Margin,
    /// `planner.exclude_fraction` (stress-factor construction).
    ExcludeFraction,
    /// `sim.wake_time_s`.
    WakeTime,
    /// The master seed (value rounded to u64) — replication axis.
    Seed,
    /// Multiplies the traffic scale (`MaxFeasibleFraction` fraction or
    /// the `TotalBps`/`PerFlowBps` rate) by the value — the load-level
    /// axis of A/B comparison campaigns.
    LoadScale,
    /// `control = Ewma { alpha: value }` — the smoothing-gain axis of
    /// damping A/B campaigns.
    EwmaAlpha,
    /// `control = AdaptiveEwma { alpha_min: value, .. }` — the
    /// heavy-smoothing floor of the load-dependent gain (an existing
    /// AdaptiveEwma spec keeps its `alpha_max`, else `1.0`).
    AdaptiveAlpha,
    /// `control = Hysteresis { gap: value, .. }` (an existing
    /// Hysteresis spec keeps its dead-band).
    HystGap,
    /// `control = DampedStep { damp: value, .. }` (an existing
    /// DampedStep spec keeps its cooldown).
    StepDamp,
    /// `metrics.timeseries`: a positive value enables campaign
    /// observatory capture with the value as the sampling interval in
    /// seconds; 0 (or negative) disables it. Lets campaign entries opt
    /// whole registry scenarios into `timeseries/<hash>.jsonl` sidecars
    /// without forking them.
    Timeseries,
}

impl Param {
    /// Human-readable axis name.
    pub fn label(&self) -> &'static str {
        match self {
            Param::Threshold => "threshold",
            Param::NumPaths => "num_paths",
            Param::Beta => "beta",
            Param::Margin => "margin",
            Param::ExcludeFraction => "exclude_fraction",
            Param::WakeTime => "wake_time_s",
            Param::Seed => "seed",
            Param::LoadScale => "load_scale",
            Param::EwmaAlpha => "ewma_alpha",
            Param::AdaptiveAlpha => "adaptive_alpha",
            Param::HystGap => "hyst_gap",
            Param::StepDamp => "step_damp",
            Param::Timeseries => "timeseries_s",
        }
    }

    /// Write the value into the scenario (public so campaign entry
    /// overrides can reuse the same knob set as sweeps).
    pub fn apply(&self, scenario: &mut Scenario, value: f64) {
        match self {
            Param::Threshold => scenario.sim.te_threshold = value,
            Param::NumPaths => scenario.planner.num_paths = value.max(2.0).round() as usize,
            Param::Beta => scenario.planner.beta = (value >= 0.0).then_some(value),
            Param::Margin => scenario.planner.margin = value,
            Param::ExcludeFraction => scenario.planner.exclude_fraction = value,
            Param::WakeTime => scenario.sim.wake_time_s = value,
            Param::Seed => scenario.seed = value.max(0.0) as u64,
            Param::LoadScale => match &mut scenario.traffic.scale {
                ScaleSpec::MaxFeasibleFraction { fraction } => *fraction *= value,
                ScaleSpec::TotalBps { bps } | ScaleSpec::PerFlowBps { bps } => *bps *= value,
            },
            Param::EwmaAlpha => scenario.control = ControlSpec::Ewma { alpha: value },
            Param::AdaptiveAlpha => {
                let alpha_max = match scenario.control {
                    ControlSpec::AdaptiveEwma { alpha_max, .. } => alpha_max,
                    _ => 1.0,
                };
                scenario.control = ControlSpec::AdaptiveEwma {
                    alpha_min: value,
                    alpha_max,
                };
            }
            Param::HystGap => {
                let dead_band = match scenario.control {
                    ControlSpec::Hysteresis { dead_band, .. } => dead_band,
                    _ => 0.0,
                };
                scenario.control = ControlSpec::Hysteresis {
                    gap: value,
                    dead_band,
                };
            }
            Param::StepDamp => {
                let cooldown_rounds = match scenario.control {
                    ControlSpec::DampedStep {
                        cooldown_rounds, ..
                    } => cooldown_rounds,
                    _ => 0,
                };
                scenario.control = ControlSpec::DampedStep {
                    damp: value,
                    cooldown_rounds,
                };
            }
            Param::Timeseries => {
                scenario.metrics.timeseries = value > 0.0;
                scenario.metrics.timeseries_interval_s = (value > 0.0).then_some(value);
            }
        }
    }
}

/// One sweep axis: a parameter and the values it takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// Which parameter varies.
    pub param: Param,
    /// Its values (encoded as `f64`; integral parameters are rounded).
    pub values: Vec<f64>,
}

impl Axis {
    /// Construct an axis.
    pub fn new(param: Param, values: impl IntoIterator<Item = f64>) -> Self {
        Axis {
            param,
            values: values.into_iter().collect(),
        }
    }
}

/// One grid cell's parameter assignment.
pub type ParamAssignment = Vec<(String, f64)>;

/// A fully-expanded grid of scenarios executed in parallel via rayon.
///
/// Every instance is deterministic: the grid expansion order is the
/// row-major Cartesian product of the axes, each instance inherits the
/// base scenario's seed (unless a [`Param::Seed`] axis overrides it),
/// and the parallel map preserves instance order — so sweep results are
/// independent of the worker-thread count.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    /// Template scenario; axes overwrite fields per instance.
    pub base: Scenario,
    /// The grid axes (outermost first).
    pub axes: Vec<Axis>,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
}

/// One sweep row: the instance's parameters and its report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Axis values of this instance.
    pub params: ParamAssignment,
    /// Its scenario report.
    pub report: ScenarioReport,
}

/// Aggregated sweep output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Base scenario name.
    pub name: String,
    /// One row per grid cell, in grid order.
    pub rows: Vec<SweepRow>,
}

impl SweepRunner {
    /// Sweep a base scenario over a grid.
    pub fn new(base: Scenario, axes: Vec<Axis>) -> Self {
        SweepRunner {
            base,
            axes,
            threads: None,
        }
    }

    /// Pin the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Add a replication axis: `n` runs with distinct deterministic
    /// seeds derived from the base seed. Seeds are masked to 53 bits so
    /// the f64 axis representation is exact (the axis value IS the
    /// seed the run uses).
    pub fn replicates(mut self, n: usize) -> Self {
        let seeds = (0..n)
            .map(|i| (mix_seed(self.base.seed, i as u64) & ((1 << 53) - 1)) as f64)
            .collect();
        self.axes.push(Axis {
            param: Param::Seed,
            values: seeds,
        });
        self
    }

    /// Number of grid cells. An axis with no values makes the grid
    /// empty (there is no assignment for it).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the grid into concrete scenario instances, in row-major
    /// axis order. Instance names get a `#i` suffix plus the parameter
    /// assignment.
    pub fn instances(&self) -> Vec<(ParamAssignment, Scenario)> {
        if self.axes.iter().any(|a| a.values.is_empty()) {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.len());
        let mut indices = vec![0usize; self.axes.len()];
        loop {
            let mut scenario = self.base.clone();
            let mut params: ParamAssignment = Vec::with_capacity(self.axes.len());
            for (axis, &ix) in self.axes.iter().zip(&indices) {
                let value = axis.values[ix];
                axis.param.apply(&mut scenario, value);
                params.push((axis.param.label().to_string(), value));
            }
            let suffix: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            scenario.name = format!("{}#{}[{}]", self.base.name, out.len(), suffix.join(","));
            out.push((params, scenario));
            // Odometer increment.
            let mut i = self.axes.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                indices[i] += 1;
                if indices[i] < self.axes[i].values.len() {
                    break;
                }
                indices[i] = 0;
            }
        }
    }

    /// Execute every instance in parallel and aggregate the reports.
    /// Fails if any instance fails.
    ///
    /// Planner/routing artifacts (topology build, Dijkstra/Yen path
    /// construction, oracle probes) are memoized across the grid by
    /// [`crate::ResolveCache`]: cells that only vary engine-side knobs
    /// (threshold, load level with a demand-oblivious planner, control
    /// parameters, the seed when pairs are not seed-sampled) share one
    /// resolution instead of re-planning per cell. Memoized results
    /// are byte-identical to per-cell resolution (`resolve` is a
    /// deterministic function of the cache key).
    pub fn run(&self) -> Result<SweepReport, ScenarioError> {
        let instances = self.instances();
        let cache = crate::run::ResolveCache::new();
        let execute = || -> Vec<Result<SweepRow, ScenarioError>> {
            instances
                .into_par_iter()
                .map(|(params, scenario)| {
                    let resolved = cache.resolve(&scenario)?;
                    let report = crate::run::run_resolved(&scenario, &resolved)?;
                    Ok(SweepRow { params, report })
                })
                .collect()
        };
        let results = match self.threads {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .map_err(|e| ScenarioError::invalid(e.to_string()))?
                .install(execute),
            None => execute(),
        };
        let rows = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(SweepReport {
            name: self.base.name.clone(),
            rows,
        })
    }
}

/// Derive a per-replicate seed (splitmix64 finalizer over base ⊕ index).
fn mix_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepReport {
    /// Rows formatted for `print_table`-style output: one line per cell
    /// with parameters, mean power, delivered fraction, and lag.
    pub fn table_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| {
                let params: Vec<String> =
                    r.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                vec![
                    params.join(" "),
                    format!("{:.1}%", 100.0 * r.report.mean_power_frac),
                    format!("{:.3}", r.report.mean_delivered_fraction),
                    format!("{:.1}", r.report.max_tracking_lag_s),
                ]
            })
            .collect()
    }
}
