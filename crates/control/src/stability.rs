//! Control-loop stability analysis: turn share/delivery time series
//! into oscillation metrics.
//!
//! The failure mode this quantifies: under sustained overload with
//! coupled flows, simultaneous-observation control rounds cycle (spill
//! → collective re-aggregate → spill). The symptoms are measurable in
//! any recorded run: a constant-fraction delivery shortfall, periodic
//! swings in the delivered rate, late settling, and a steady stream of
//! share reconfigurations. [`analyze`] computes all four from the
//! sample series the simulator already records, so campaigns can put a
//! number on "how much does damping X buy".

use serde::{Deserialize, Serialize};

/// The scalar readings of one sampled instant of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
}

/// One sample's delivered rate on every installed path of every flow,
/// as one flat row: flow `f`'s paths end at column `ends[f]` and start
/// where flow `f - 1`'s end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathRates<'a> {
    /// The row's rates, flow after flow (bits/s).
    pub rates: &'a [f64],
    /// Per flow: the column after its last path.
    pub ends: &'a [u32],
}

impl<'a> PathRates<'a> {
    /// Delivered rate on each installed path of flow `f`.
    pub fn flow(&self, f: usize) -> &'a [f64] {
        let start = if f == 0 { 0 } else { self.ends[f - 1] as usize };
        &self.rates[start..self.ends[f] as usize]
    }

    /// Every flow's per-path rates, in flow order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f64]> + '_ {
        (0..self.ends.len()).map(|f| self.flow(f))
    }
}

/// Delivery below this fraction of the offered rate counts as
/// shortfall. The simnet tracking lag uses the same criterion.
pub const SHORTFALL_THRESHOLD: f64 = 0.95;

/// Minimum swing amplitude, as a fraction of the mean offered rate, for
/// a delivery-direction reversal to count as an oscillation.
const MIN_CYCLE_AMPLITUDE: f64 = 0.01;

/// Settling band around the final delivered value, as a fraction of the
/// final offered rate (of the final delivered value when nothing is
/// offered at the end).
const SETTLE_BAND: f64 = 0.02;

/// Minimum per-flow share-distribution L1 change between consecutive
/// samples to count as a reconfiguration.
const CHURN_EPSILON: f64 = 1e-3;

/// The oscillation metrics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Time spanned by the samples (seconds).
    pub duration_s: f64,
    /// Fraction of samples (with offered > 0) delivering below
    /// [`SHORTFALL_THRESHOLD`] — the "constant-fraction delivery
    /// shortfall" headline number.
    pub shortfall_fraction: f64,
    /// Mean of `max(0, 1 − delivered/offered)` over samples with
    /// offered > 0.
    pub mean_shortfall: f64,
    /// Delivery-direction reversals swinging more than 1 % of the mean
    /// offered rate (2 per full spill/re-aggregate cycle).
    pub oscillation_count: usize,
    /// `oscillation_count` per second of series time.
    pub oscillations_per_s: f64,
    /// Mean peak-to-peak distance of the detected swings (seconds);
    /// `None` with fewer than two full cycles.
    pub dominant_period_s: Option<f64>,
    /// Time after which the delivered series stays within a band of
    /// 2 % of the final offered rate around its final value; `None` for
    /// an empty series.
    pub settling_time_s: Option<f64>,
    /// Samples whose per-flow share distribution moved by more than
    /// 1e-3 (L1) — reconfiguration events.
    pub churn_moves: usize,
    /// Total L1 share-distribution movement accumulated over the run
    /// (2.0 = one full flow moved all of its traffic twice).
    pub churn_total: f64,
}

/// Analyze a sampled series: each row's scalar readings and per-path
/// rates, in time order.
pub fn analyze<'a>(rows: impl IntoIterator<Item = (&'a Sample, PathRates<'a>)>) -> StabilityReport {
    let (samples, path_rates): (Vec<&Sample>, Vec<PathRates>) = rows.into_iter().unzip();
    let duration_s = match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => b.t - a.t,
        _ => 0.0,
    };

    // ---- shortfall ----------------------------------------------------
    let mut offered_samples = 0usize;
    let mut short = 0usize;
    let mut short_sum = 0.0;
    for s in &samples {
        if s.offered_total > 0.0 {
            offered_samples += 1;
            let frac = s.delivered_total / s.offered_total;
            if frac < SHORTFALL_THRESHOLD {
                short += 1;
            }
            short_sum += (1.0 - frac).max(0.0);
        }
    }
    let shortfall_fraction = short as f64 / offered_samples.max(1) as f64;
    let mean_shortfall = short_sum / offered_samples.max(1) as f64;

    // ---- oscillation (direction reversals with hysteresis) ------------
    let mean_offered =
        samples.iter().map(|s| s.offered_total).sum::<f64>() / samples.len().max(1) as f64;
    let amp = MIN_CYCLE_AMPLITUDE * mean_offered;
    let mut reversal_times: Vec<f64> = Vec::new();
    if samples.len() >= 2 && amp > 0.0 {
        // Pivot-walk: follow the series; each time it retraces more than
        // `amp` from the running extremum, record a reversal there.
        let mut dir = 0i8; // +1 rising, -1 falling, 0 undecided
        let mut extreme = samples[0].delivered_total;
        let mut extreme_t = samples[0].t;
        for s in &samples[1..] {
            let v = s.delivered_total;
            match dir {
                0 => {
                    if v > extreme + amp {
                        dir = 1;
                        extreme = v;
                        extreme_t = s.t;
                    } else if v < extreme - amp {
                        dir = -1;
                        extreme = v;
                        extreme_t = s.t;
                    }
                }
                1 => {
                    if v > extreme {
                        extreme = v;
                        extreme_t = s.t;
                    } else if v < extreme - amp {
                        reversal_times.push(extreme_t);
                        dir = -1;
                        extreme = v;
                        extreme_t = s.t;
                    }
                }
                _ => {
                    if v < extreme {
                        extreme = v;
                        extreme_t = s.t;
                    } else if v > extreme + amp {
                        reversal_times.push(extreme_t);
                        dir = 1;
                        extreme = v;
                        extreme_t = s.t;
                    }
                }
            }
        }
    }
    let oscillation_count = reversal_times.len();
    // Full cycle = two reversals; the dominant period is the mean
    // distance between same-direction reversals.
    let dominant_period_s = if reversal_times.len() >= 3 {
        let gaps: Vec<f64> = reversal_times.windows(3).map(|w| w[2] - w[0]).collect();
        Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
    } else {
        None
    };

    // ---- settling -----------------------------------------------------
    let settling_time_s = samples.last().map(|last| {
        let base = if last.offered_total > 0.0 {
            last.offered_total
        } else {
            last.delivered_total.abs().max(1.0)
        };
        let band = SETTLE_BAND * base;
        let t0 = samples[0].t;
        let mut settle = t0;
        for s in &samples {
            if (s.delivered_total - last.delivered_total).abs() > band {
                settle = s.t;
            }
        }
        // `settle` is the last out-of-band instant; settled from start
        // when the series never leaves the band.
        if settle == t0 && (samples[0].delivered_total - last.delivered_total).abs() <= band {
            0.0
        } else {
            settle - t0
        }
    });

    // ---- reconfiguration churn ---------------------------------------
    let mut churn_moves = 0usize;
    let mut churn_total = 0.0;
    for w in path_rates.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.ends.len() != b.ends.len() {
            continue;
        }
        let mut l1 = 0.0;
        for (ra, rb) in a.iter().zip(b.iter()) {
            if ra.len() != rb.len() {
                continue;
            }
            let (sa, sb) = (ra.iter().sum::<f64>(), rb.iter().sum::<f64>());
            if sa <= 0.0 || sb <= 0.0 {
                continue;
            }
            l1 += ra
                .iter()
                .zip(rb)
                .map(|(&x, &y)| (x / sa - y / sb).abs())
                .sum::<f64>();
        }
        if l1 > CHURN_EPSILON {
            churn_moves += 1;
            churn_total += l1;
        }
    }

    StabilityReport {
        duration_s,
        shortfall_fraction,
        mean_shortfall,
        oscillation_count,
        oscillations_per_s: if duration_s > 0.0 {
            oscillation_count as f64 / duration_s
        } else {
            0.0
        },
        dominant_period_s,
        settling_time_s,
        churn_moves,
        churn_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One flow with two paths.
    const ONE_FLOW: [u32; 1] = [2];

    /// One flow carrying everything on its first path.
    fn flat_rates() -> PathRates<'static> {
        PathRates {
            rates: &[1.0, 0.0],
            ends: &ONE_FLOW,
        }
    }

    fn series<'a>(
        points: &[(f64, f64, f64)],
        rates: PathRates<'a>,
    ) -> Vec<(Sample, PathRates<'a>)> {
        points
            .iter()
            .map(|&(t, offered_total, delivered_total)| {
                let s = Sample {
                    t,
                    power_w: 0.0,
                    power_frac: 0.0,
                    offered_total,
                    delivered_total,
                };
                (s, rates)
            })
            .collect()
    }

    /// [`super::analyze`] over owned rows.
    fn analyze(rows: &[(Sample, PathRates)]) -> StabilityReport {
        super::analyze(rows.iter().map(|(s, rates)| (s, *rates)))
    }

    #[test]
    fn constant_series_is_quiet() {
        let flat = flat_rates();
        let s = series(
            &[(0.0, 10.0, 10.0), (1.0, 10.0, 10.0), (2.0, 10.0, 10.0)],
            flat,
        );
        let r = analyze(&s);
        assert_eq!(r.shortfall_fraction, 0.0);
        assert_eq!(r.mean_shortfall, 0.0);
        assert_eq!(r.oscillation_count, 0);
        assert_eq!(r.dominant_period_s, None);
        assert_eq!(r.settling_time_s, Some(0.0));
        assert_eq!(r.churn_moves, 0);
        assert_eq!(r.churn_total, 0.0);
    }

    #[test]
    fn sine_series_detects_cycles_and_period() {
        // 8 full cycles of period 10 s, amplitude 2 around 10, sampled
        // at 10 Hz.
        let pts: Vec<(f64, f64, f64)> = (0..800)
            .map(|i| {
                let t = i as f64 * 0.1;
                (
                    t,
                    12.0,
                    10.0 + 2.0 * (2.0 * std::f64::consts::PI * t / 10.0).sin(),
                )
            })
            .collect();
        let r = analyze(&series(&pts, flat_rates()));
        // 2 reversals per cycle, minus edge effects.
        assert!(
            (14..=16).contains(&r.oscillation_count),
            "{}",
            r.oscillation_count
        );
        let period = r.dominant_period_s.expect("period detected");
        assert!((period - 10.0).abs() < 0.5, "{period}");
        assert!(r.oscillations_per_s > 0.15 && r.oscillations_per_s < 0.25);
    }

    #[test]
    fn shortfall_counts_only_offered_samples() {
        let flat = flat_rates();
        let s = series(
            &[
                (0.0, 10.0, 10.0),
                (1.0, 10.0, 8.0), // 20% short
                (2.0, 10.0, 9.0), // 10% short
                (3.0, 0.0, 0.0),  // nothing offered: ignored
                (4.0, 10.0, 10.0),
            ],
            flat,
        );
        let r = analyze(&s);
        assert!((r.shortfall_fraction - 0.5).abs() < 1e-12);
        assert!((r.mean_shortfall - 0.3 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn step_series_settles_at_the_step() {
        let mut pts = vec![(0.0, 10.0, 5.0), (1.0, 10.0, 5.0), (2.0, 10.0, 5.0)];
        pts.extend((3..10).map(|i| (i as f64, 10.0, 10.0)));
        let r = analyze(&series(&pts, flat_rates()));
        assert_eq!(r.settling_time_s, Some(2.0), "last out-of-band instant");
    }

    #[test]
    fn churn_counts_share_distribution_moves() {
        let (flat, flipped) = (
            flat_rates(),
            PathRates {
                rates: &[0.0, 1.0],
                ends: &ONE_FLOW,
            },
        );
        let mut s = series(
            &[(0.0, 10.0, 10.0), (1.0, 10.0, 10.0), (2.0, 10.0, 10.0)],
            flat,
        );
        // Flow flips from path 0 to path 1 between samples 1 and 2.
        s[2].1 = flipped;
        let r = analyze(&s);
        assert_eq!(r.churn_moves, 1);
        assert!((r.churn_total - 2.0).abs() < 1e-12, "full flip = L1 of 2");
    }

    #[test]
    fn churn_skips_a_row_width_change() {
        // A second flow joins between samples 1 and 2 while the first
        // one flips paths: the pair of rows of different widths is not
        // compared, the pairs of equal width are.
        let joined = PathRates {
            rates: &[0.0, 1.0, 1.0],
            ends: &[2, 3],
        };
        let mut s = series(
            &[(0.0, 10.0, 10.0), (1.0, 10.0, 10.0), (2.0, 10.0, 10.0)],
            flat_rates(),
        );
        s[2].1 = joined;
        let r = analyze(&s);
        assert_eq!(r.churn_moves, 0);
        let later = Sample { t: 3.0, ..s[2].0 };
        let flipped = PathRates {
            rates: &[1.0, 0.0, 1.0],
            ..joined
        };
        s.push((later, flipped));
        let r = analyze(&s);
        assert_eq!(r.churn_moves, 1);
        assert!((r.churn_total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample_series() {
        let r = analyze(&[]);
        assert_eq!(r.duration_s, 0.0);
        assert_eq!(r.settling_time_s, None);
        let flat = flat_rates();
        let r = analyze(&series(&[(0.0, 10.0, 10.0)], flat));
        assert_eq!(r.oscillation_count, 0);
        assert_eq!(r.settling_time_s, Some(0.0));
    }
}
