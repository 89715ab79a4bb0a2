//! Network capacity probing: the paper's max-load scaling procedure.

use crate::oracle::{FeasibilityOracle, OracleConfig};
use ecp_topo::{NodeId, Topology};
use ecp_traffic::{gravity_matrix, TrafficMatrix};

/// The paper's max-load scaling procedure (§5.1): "we first compute the
/// maximum traffic load as the traffic volume that the optimal routing
/// can accommodate if the gravity-determined proportions are kept. We do
/// this by incrementally increasing the traffic demand by 10% up to a
/// point where CPLEX cannot find a routing" — our oracle plays CPLEX's
/// role. Returns the total volume marking 100% load.
///
/// Every probe asks about the same network, so one [`FeasibilityOracle`]
/// serves them all and its shortest-path trees are grown once. Without
/// OD pairs there is no traffic to scale and the volume is 0.
pub fn max_feasible_volume(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    oracle: &OracleConfig,
) -> f64 {
    let start = topo.total_capacity() * 0.01;
    let base = gravity_matrix(topo, od_pairs, start);
    if base.is_empty() {
        return 0.0;
    }
    let mut probe = FeasibilityOracle::new(topo, None, oracle);
    // Find an infeasible upper bound by +10% steps.
    let mut feasible = |v: f64| -> bool {
        let tm = base.scaled(v / start);
        probe.fits(&tm)
    };
    let mut volume = start;
    if !feasible(volume) {
        // Even 1% of capacity is too much; shrink instead.
        while volume > 1.0 && !feasible(volume) {
            volume /= 2.0;
        }
        return volume;
    }
    // The gate proved `volume` feasible, and a feasible call keeps no cut,
    // so the growth starts one step up.
    let mut hi = volume * 1.1;
    while feasible(hi) {
        hi *= 1.1;
    }
    let mut lo = hi / 1.1;
    // Refine a little for stable results.
    for _ in 0..10 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Gravity matrix at a percentage of the maximum feasible load.
pub fn gravity_at_utilization(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    oracle: &OracleConfig,
    util_percent: f64,
) -> TrafficMatrix {
    let max = max_feasible_volume(topo, od_pairs, oracle);
    gravity_matrix(topo, od_pairs, max * util_percent / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place_flows;
    use ecp_topo::gen::{geant, line};
    use ecp_topo::{TopologyBuilder, MBPS, MS};
    use ecp_traffic::random_od_pairs;

    #[test]
    fn max_feasible_volume_is_tight() {
        let t = geant();
        let pairs = random_od_pairs(&t, 60, 1);
        let oc = OracleConfig::default();
        let v = max_feasible_volume(&t, &pairs, &oc);
        assert!(v > 0.0);
        let at_100 = gravity_matrix(&t, &pairs, v);
        assert!(
            place_flows(&t, None, &at_100, &oc).is_some(),
            "100% is feasible"
        );
        let beyond = gravity_matrix(&t, &pairs, v * 1.25);
        assert!(place_flows(&t, None, &beyond, &oc).is_none(), "125% is not");
    }

    /// The probe as it was: the gate's volume asked again as the first
    /// step of the growth.
    fn reference_max_feasible_volume(
        topo: &Topology,
        od_pairs: &[(NodeId, NodeId)],
        oracle: &OracleConfig,
    ) -> f64 {
        let start = topo.total_capacity() * 0.01;
        let base = gravity_matrix(topo, od_pairs, start);
        if base.is_empty() {
            return 0.0;
        }
        let mut probe = FeasibilityOracle::new(topo, None, oracle);
        let mut feasible = |v: f64| probe.fits(&base.scaled(v / start));
        let mut volume = start;
        if !feasible(volume) {
            while volume > 1.0 && !feasible(volume) {
                volume /= 2.0;
            }
            return volume;
        }
        let mut hi = volume;
        while feasible(hi) {
            hi *= 1.1;
        }
        let mut lo = hi / 1.1;
        for _ in 0..10 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn growth_from_one_step_up_matches_the_reference() {
        let t = geant();
        for (seed, n) in (100..).zip([1, 2, 5, 10, 20, 40, 60, 90, 120, 200]) {
            let pairs = random_od_pairs(&t, n, seed);
            let tight = OracleConfig {
                margin: 0.5,
                ..OracleConfig::default()
            };
            for oc in [OracleConfig::default(), tight] {
                assert_eq!(
                    max_feasible_volume(&t, &pairs, &oc).to_bits(),
                    reference_max_feasible_volume(&t, &pairs, &oc).to_bits(),
                    "{n} pairs, margin {}",
                    oc.margin
                );
            }
        }
    }

    #[test]
    fn gravity_at_utilization_scales() {
        let t = geant();
        let pairs = random_od_pairs(&t, 40, 2);
        let oc = OracleConfig::default();
        let m50 = gravity_at_utilization(&t, &pairs, &oc, 50.0);
        let m100 = gravity_at_utilization(&t, &pairs, &oc, 100.0);
        assert!((m100.total() / m50.total() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn no_pairs_means_no_volume() {
        let t = line(3, 10.0 * MBPS, MS);
        assert_eq!(max_feasible_volume(&t, &[], &OracleConfig::default()), 0.0);
    }

    #[test]
    fn unreachable_pair_shrinks_the_volume_to_nothing() {
        let mut b = TopologyBuilder::new("split");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], 10.0 * MBPS, MS);
        b.add_link(n[2], n[3], 10.0 * MBPS, MS);
        let t = b.build();
        let v = max_feasible_volume(&t, &[(n[0], n[1]), (n[0], n[3])], &OracleConfig::default());
        assert!(v <= 1.0, "no volume routes 0 -> 3, got {v}");
    }
}
