//! The recomputation-rate metric (§3.2, Fig. 1b) and routing-
//! configuration dominance (§3.3, Fig. 2a).
//!
//! "We recompute the routing tables after each interval in the trace and
//! only count the intervals for which the set of network elements
//! changes from one interval to the next. [...] the recomputation rate
//! for existing approaches goes up to four per hour."

use crate::subset::SubsetResult;
use ecp_power::PowerModel;
use ecp_topo::{ActiveSet, Topology};
use ecp_traffic::{Trace, TrafficMatrix};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Result of replaying a trace through a subset optimizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecomputationReport {
    /// Seconds per interval (from the trace).
    pub interval_s: f64,
    /// One flag per interval (after the first): did the active set
    /// change from the previous interval?
    pub changed: Vec<bool>,
    /// Power (Watts) per interval under the recomputed subset.
    pub power_w: Vec<f64>,
    /// Configuration signature per interval.
    pub signatures: Vec<u64>,
    /// Number of intervals where the optimizer failed (left as the
    /// previous configuration).
    pub failures: usize,
}

impl RecomputationReport {
    /// Total number of configuration changes.
    pub fn total_changes(&self) -> usize {
        self.changed.iter().filter(|&&c| c).count()
    }

    /// Changes per hour, one sample per hour of trace time (the Fig. 1b
    /// series).
    pub fn hourly_rate(&self) -> Vec<f64> {
        let per_hour = (3600.0 / self.interval_s).round() as usize;
        if per_hour == 0 {
            return Vec::new();
        }
        self.changed
            .chunks(per_hour)
            .map(|c| c.iter().filter(|&&x| x).count() as f64)
            .collect()
    }

    /// Mean recomputation rate per hour over the whole trace.
    pub fn mean_rate_per_hour(&self) -> f64 {
        let hours = self.changed.len() as f64 * self.interval_s / 3600.0;
        if hours <= 0.0 {
            return 0.0;
        }
        self.total_changes() as f64 / hours
    }
}

/// Replay a trace, recomputing the minimal subset each interval with the
/// provided optimizer, e.g. a closure over one
/// [`SubsetSolver`](crate::subset::SubsetSolver) held for the whole trace:
///
/// ```
/// # use ecp_power::PowerModel;
/// # use ecp_routing::{recomputation_rate, OracleConfig, SubsetSolver};
/// # use ecp_topo::{gen::ring, NodeId, MBPS, MS};
/// # use ecp_traffic::{Demand, Trace, TrafficMatrix};
/// # let topo = ring(4, 10.0 * MBPS, MS);
/// # let power = PowerModel::cisco12000();
/// # let tm = |rate| TrafficMatrix::new(vec![Demand { origin: NodeId(0), dst: NodeId(2), rate }]);
/// # let trace = Trace { name: "t".into(), interval_s: 900.0, matrices: vec![tm(1e6), tm(2e6)] };
/// let mut solver = SubsetSolver::new(&topo, &power, &OracleConfig::default());
/// let report = recomputation_rate(&topo, &power, &trace, |tm| solver.optimal(tm));
/// assert_eq!(report.failures, 0);
/// ```
///
/// An interval where the optimizer fails keeps the previous
/// configuration; before the first success that is the all-on network
/// at full power.
pub fn recomputation_rate<F>(
    topo: &Topology,
    power: &PowerModel,
    trace: &Trace,
    mut optimize: F,
) -> RecomputationReport
where
    F: FnMut(&TrafficMatrix) -> Option<SubsetResult>,
{
    let mut changed = Vec::with_capacity(trace.len().saturating_sub(1));
    let mut power_w = Vec::with_capacity(trace.len());
    let mut signatures = Vec::with_capacity(trace.len());
    let mut prev: Option<(u64, f64)> = None;
    let mut failures = 0;

    for m in &trace.matrices {
        let (sig, watts) = match optimize(m) {
            Some(r) => (r.active.signature(topo), r.power_w),
            None => {
                failures += 1;
                prev.unwrap_or_else(|| {
                    let all_on = ActiveSet::all_on(topo);
                    (all_on.signature(topo), power.network_power(topo, &all_on))
                })
            }
        };
        if let Some((p, _)) = prev {
            changed.push(p != sig);
        }
        power_w.push(watts);
        signatures.push(sig);
        prev = Some((sig, watts));
    }
    RecomputationReport {
        interval_s: trace.interval_s,
        changed,
        power_w,
        signatures,
        failures,
    }
}

/// Routing-configuration dominance: how much trace time each distinct
/// configuration was active (Fig. 2a's pie).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigDominance {
    /// `(signature, interval count)`, sorted by count descending.
    pub configs: Vec<(u64, usize)>,
    /// Total intervals.
    pub intervals: usize,
}

impl ConfigDominance {
    /// Build from the per-interval signatures of a report.
    pub fn from_signatures(signatures: &[u64]) -> Self {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for &s in signatures {
            *counts.entry(s).or_insert(0) += 1;
        }
        let mut configs: Vec<(u64, usize)> = counts.into_iter().collect();
        configs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ConfigDominance {
            configs,
            intervals: signatures.len(),
        }
    }

    /// Number of distinct configurations (the paper observes 13 on
    /// GÉANT).
    pub fn distinct(&self) -> usize {
        self.configs.len()
    }

    /// Fraction of time the most common configuration was active (the
    /// paper observes ≈60%).
    pub fn dominant_fraction(&self) -> f64 {
        if self.intervals == 0 {
            return 0.0;
        }
        self.configs
            .first()
            .map(|&(_, c)| c as f64 / self.intervals as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleConfig;
    use crate::subset::optimal_subset;
    use ecp_power::PowerModel;
    use ecp_topo::gen::ring;
    use ecp_topo::{NodeId, MBPS, MS};
    use ecp_traffic::{Demand, TrafficMatrix};

    fn mk_trace(interval_s: f64, rates: &[f64]) -> Trace {
        Trace {
            name: "t".into(),
            interval_s,
            matrices: rates
                .iter()
                .map(|&r| {
                    TrafficMatrix::new(vec![Demand {
                        origin: NodeId(0),
                        dst: NodeId(2),
                        rate: r,
                    }])
                })
                .collect(),
        }
    }

    #[test]
    fn stable_demand_no_recomputation() {
        let t = ring(4, 10.0 * MBPS, MS);
        let pm = PowerModel::cisco12000();
        let oc = OracleConfig::default();
        let trace = mk_trace(900.0, &[1e6, 1e6, 1e6, 1e6]);
        let rep = recomputation_rate(&t, &pm, &trace, |m| optimal_subset(&t, &pm, m, &oc));
        assert_eq!(rep.total_changes(), 0);
        assert_eq!(rep.failures, 0);
    }

    #[test]
    fn demand_swing_forces_changes() {
        // Ring of 4 with 10M links: 1 Mbps fits one path (3 nodes on);
        // 14 Mbps needs... a single unsplittable 14M flow does not fit at
        // all; use 9M vs 1M asymmetry by adding a second demand instead:
        let t = ring(4, 10.0 * MBPS, MS);
        let pm = PowerModel::cisco12000();
        let oc = OracleConfig::default();
        // Alternate between one light demand and two heavy opposing
        // demands that need both sides of the ring.
        let light = TrafficMatrix::new(vec![Demand {
            origin: NodeId(0),
            dst: NodeId(2),
            rate: 1e6,
        }]);
        let heavy = TrafficMatrix::new(vec![
            Demand {
                origin: NodeId(0),
                dst: NodeId(2),
                rate: 9e6,
            },
            Demand {
                origin: NodeId(1),
                dst: NodeId(3),
                rate: 9e6,
            },
        ]);
        let trace = Trace {
            name: "swing".into(),
            interval_s: 900.0,
            matrices: vec![light.clone(), heavy.clone(), light.clone(), heavy],
        };
        let rep = recomputation_rate(&t, &pm, &trace, |m| optimal_subset(&t, &pm, m, &oc));
        assert!(rep.total_changes() >= 3, "every swing changes the subset");
        let dom = ConfigDominance::from_signatures(&rep.signatures);
        assert_eq!(dom.distinct(), 2);
        assert!((dom.dominant_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hourly_rate_buckets() {
        let rep = RecomputationReport {
            interval_s: 900.0,
            changed: vec![true, false, true, true, false, false, false, true],
            power_w: vec![0.0; 9],
            signatures: vec![0; 9],
            failures: 0,
        };
        // 4 intervals/hour -> two hours: [t f t t] = 3, [f f f t] = 1.
        assert_eq!(rep.hourly_rate(), vec![3.0, 1.0]);
        assert!((rep.mean_rate_per_hour() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn failures_counted_and_power_carried_forward() {
        let t = ring(4, 10.0 * MBPS, MS);
        let trace = mk_trace(900.0, &[1e6, 99e6, 1e6]);
        let pm = PowerModel::cisco12000();
        let oc = OracleConfig::default();
        let rep = recomputation_rate(&t, &pm, &trace, |m| optimal_subset(&t, &pm, m, &oc));
        assert_eq!(rep.failures, 1);
        assert_eq!(rep.power_w.len(), 3);
        assert_eq!(rep.power_w[0], rep.power_w[1], "carried forward");
    }

    #[test]
    fn infeasible_start_keeps_the_all_on_network() {
        let t = ring(4, 10.0 * MBPS, MS);
        let trace = mk_trace(900.0, &[99e6, 1e6, 99e6]);
        let pm = PowerModel::cisco12000();
        let oc = OracleConfig::default();
        let rep = recomputation_rate(&t, &pm, &trace, |m| optimal_subset(&t, &pm, m, &oc));
        let all_on = ActiveSet::all_on(&t);
        assert_eq!(rep.failures, 2);
        assert_eq!(rep.signatures[0], all_on.signature(&t));
        assert_eq!(rep.power_w[0], pm.full_power(&t));
        assert_eq!(
            rep.changed,
            vec![true, false],
            "on to the subset, then kept"
        );
        assert!(rep.power_w[1] < rep.power_w[0]);
        assert_eq!(rep.power_w[2], rep.power_w[1], "carried forward");
        let dom = ConfigDominance::from_signatures(&rep.signatures);
        assert_eq!(dom.distinct(), 2, "all-on and the subset, no phantom");

        let hopeless = mk_trace(900.0, &[99e6, 99e6]);
        let rep = recomputation_rate(&t, &pm, &hopeless, |m| optimal_subset(&t, &pm, m, &oc));
        assert_eq!(
            rep.power_w,
            vec![pm.full_power(&t); 2],
            "no savings claimed"
        );
    }

    #[test]
    fn dominance_empty() {
        let d = ConfigDominance::from_signatures(&[]);
        assert_eq!(d.distinct(), 0);
        assert_eq!(d.dominant_fraction(), 0.0);
    }
}
