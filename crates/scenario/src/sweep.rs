//! Sweep knobs and grid expansion: the [`Param`]s a campaign entry can
//! set or sweep, the [`Axis`] one varies along, and [`grid`], which
//! expands a base scenario over axes.

use crate::spec::{ControlSpec, ScaleSpec, Scenario};
use serde::{Deserialize, Serialize};

/// A sweepable scenario parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Param {
    /// `sim.te_threshold` (also the replay TE threshold).
    Threshold,
    /// `planner.num_paths` (value rounded to usize; the scenario
    /// boundary rejects counts outside 2 ..= [`crate::MAX_NUM_PATHS`]).
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
    /// seconds — a whole multiple of the scenario's
    /// `sim.sample_interval_s`, since the points are every k-th row of
    /// the run's series (anything else is rejected as invalid); 0 (or
    /// negative) disables it. Lets campaign entries opt whole registry
    /// scenarios into `timeseries/<hash>.jsonl` sidecars without forking
    /// them.
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
            Param::NumPaths => scenario.planner.num_paths = value.round() as usize,
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

    /// The replicate axis: `n` distinct deterministic seeds derived
    /// from `base_seed`. Seeds are masked to 53 bits so the f64 axis
    /// value is exact (the axis value IS the seed the run uses).
    pub fn replicates(base_seed: u64, n: usize) -> Self {
        let seeds = (0..n).map(|i| (mix_seed(base_seed, i as u64) & ((1 << 53) - 1)) as f64);
        Axis::new(Param::Seed, seeds)
    }
}

/// One grid cell's parameter assignment.
pub type ParamAssignment = Vec<(String, f64)>;

/// Expand `base` over the grid `axes` spans, in row-major order: the
/// first axis is outermost and the last varies fastest. Each instance
/// applies its axis values in axis order and is named
/// `{base}#{i}[k=v,…]`. An axis with no values makes the grid empty
/// (there is no assignment for it); no axes at all give `base`
/// unchanged, with no parameters.
///
/// Names, parameters and seeds feed the campaign run hash, so this
/// order and naming are part of the stored-run contract.
pub fn grid(base: &Scenario, axes: &[Axis]) -> Vec<(ParamAssignment, Scenario)> {
    if axes.is_empty() {
        return vec![(Vec::new(), base.clone())];
    }
    let cells: usize = axes.iter().map(|a| a.values.len()).product();
    (0..cells)
        .map(|i| {
            // The digits of `i` in the grid's mixed radix, last axis
            // least significant.
            let mut digits = vec![0; axes.len()];
            let mut rest = i;
            for (d, axis) in digits.iter_mut().zip(axes).rev() {
                *d = rest % axis.values.len();
                rest /= axis.values.len();
            }
            let mut scenario = base.clone();
            let params: ParamAssignment = axes
                .iter()
                .zip(digits)
                .map(|(axis, d)| {
                    let value = axis.values[d];
                    axis.param.apply(&mut scenario, value);
                    (axis.param.label().to_string(), value)
                })
                .collect();
            let suffix: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            scenario.name = format!("{}#{i}[{}]", base.name, suffix.join(","));
            (params, scenario)
        })
        .collect()
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
