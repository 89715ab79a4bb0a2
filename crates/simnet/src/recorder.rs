//! Time-series recording for simulation runs.

use serde::{Deserialize, Serialize};

/// One sampled instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Simulation time (seconds).
    pub t: f64,
    /// Network power in Watts.
    pub power_w: f64,
    /// Power as a fraction of the fully-on network (the y-axis of the
    /// paper's power figures).
    pub power_frac: f64,
    /// Total offered rate across flows (bits/s).
    pub offered_total: f64,
    /// Total delivered rate across flows (bits/s).
    pub delivered_total: f64,
    /// `per_flow_path_rates[flow][path]` — delivered rate on each
    /// installed path of each flow (the Fig. 7 per-path series).
    pub per_flow_path_rates: Vec<Vec<f64>>,
}

/// One compact campaign-observatory timeline point (`metrics.timeseries`):
/// the scalar signals the paper's figures plot, without the per-path
/// detail of [`Sample`]. Serialized one-object-per-line into
/// `timeseries/<hash>.jsonl` sidecars by the campaign store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeseriesPoint {
    /// Simulation time (seconds).
    pub t: f64,
    /// Delivered fraction of the offered traffic (1.0 when nothing is
    /// offered).
    pub delivered_fraction: f64,
    /// Power as a fraction of the fully-on network.
    pub power_frac: f64,
    /// Maximum arc utilization over capacity-bearing arcs.
    pub max_util: f64,
    /// Arcs above the TE overload threshold.
    pub overloaded_arcs: u32,
    /// Cumulative TE reconfigurations (share-change applications) since
    /// t = 0.
    pub reconfig_count: u64,
}

/// Append-only sample store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Recorder {
    samples: Vec<Sample>,
}

impl Recorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Recorder {
            samples: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, s: Sample) {
        self.samples.push(s);
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The samples, by value.
    pub(crate) fn into_samples(self) -> Vec<Sample> {
        self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `(t, power_frac)` series.
    pub fn power_series(&self) -> Vec<(f64, f64)> {
        self.samples.iter().map(|s| (s.t, s.power_frac)).collect()
    }

    /// The `(t, delivered_total)` series.
    pub fn delivered_series(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.t, s.delivered_total))
            .collect()
    }

    /// Delivered-rate series of one path of one flow.
    pub fn path_rate_series(&self, flow: usize, path: usize) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| {
                s.per_flow_path_rates
                    .get(flow)
                    .and_then(|f| f.get(path))
                    .map(|&r| (s.t, r))
            })
            .collect()
    }

    /// Mean power fraction over the run.
    pub fn mean_power_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.iter().map(|s| s.power_frac).sum::<f64>() / self.samples.len() as f64
    }

    /// First time at which `pred` holds, if any.
    pub fn first_time<F: Fn(&Sample) -> bool>(&self, pred: F) -> Option<f64> {
        self.samples.iter().find(|s| pred(s)).map(|s| s.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, frac: f64, delivered: f64) -> Sample {
        Sample {
            t,
            power_w: frac * 100.0,
            power_frac: frac,
            offered_total: delivered,
            delivered_total: delivered,
            per_flow_path_rates: vec![vec![delivered]],
        }
    }

    #[test]
    fn series_extraction() {
        let mut r = Recorder::new();
        r.push(sample(0.0, 0.5, 1e6));
        r.push(sample(1.0, 0.7, 2e6));
        assert_eq!(r.len(), 2);
        assert_eq!(r.power_series(), vec![(0.0, 0.5), (1.0, 0.7)]);
        assert_eq!(r.delivered_series()[1], (1.0, 2e6));
        assert_eq!(r.path_rate_series(0, 0).len(), 2);
        assert!(r.path_rate_series(0, 9).is_empty());
        assert!(r.path_rate_series(9, 0).is_empty());
    }

    #[test]
    fn mean_and_first_time() {
        let mut r = Recorder::new();
        assert_eq!(r.mean_power_fraction(), 1.0);
        r.push(sample(0.0, 0.4, 0.0));
        r.push(sample(1.0, 0.6, 5e6));
        assert!((r.mean_power_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.first_time(|s| s.delivered_total > 1e6), Some(1.0));
        assert_eq!(r.first_time(|s| s.power_frac > 0.9), None);
    }
}
