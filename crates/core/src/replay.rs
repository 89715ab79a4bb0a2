//! Steady-state trace replay over fixed path tables.
//!
//! Figures 4, 5 and 6 report, per traffic matrix, the power draw of the
//! configuration REsPoNseTE would settle into ("for each traffic demand,
//! we compute the topology, along with its power consumption, that will
//! be put into place by running REsPoNseTE", §5.2). This module computes
//! exactly that without running the event-driven simulator: demands are
//! water-filled into the installed paths in priority order under the
//! utilization threshold, and elements not carrying traffic sleep
//! (always-on elements stay powered, as their name demands).

use crate::tables::PathTables;
use crate::te::TeConfig;
use ecp_power::PowerModel;
use ecp_topo::{ActiveSet, Topology};
use ecp_traffic::{Trace, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// One replay sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ReplayPoint {
    /// Trace time (seconds from start).
    pub t: f64,
    /// Network power in Watts.
    pub power_w: f64,
    /// Power as a fraction of the fully-on network.
    pub power_frac: f64,
    /// Fraction of offered volume that could be placed within the
    /// threshold (1.0 = no congestion).
    pub placed_fraction: f64,
    /// Maximum link utilization after placement.
    pub max_util: f64,
    /// Number of demands that spilled beyond the always-on table.
    pub spilled_demands: usize,
}

/// A whole replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Interval of the driving trace, seconds.
    pub interval_s: f64,
    /// One point per trace interval.
    pub points: Vec<ReplayPoint>,
}

impl ReplayReport {
    /// Mean power fraction across the replay (the headline savings
    /// number: `1 − mean`).
    pub fn mean_power_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        self.points.iter().map(|p| p.power_frac).sum::<f64>() / self.points.len() as f64
    }

    /// Fraction of intervals with any unplaced traffic.
    pub fn congested_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .filter(|p| p.placed_fraction < 1.0 - 1e-9)
            .count() as f64
            / self.points.len() as f64
    }
}

/// Place one matrix onto the tables; returns (active set, placed
/// fraction, max utilization, spilled demand count).
pub fn place_matrix(
    topo: &Topology,
    tables: &PathTables,
    tm: &TrafficMatrix,
    te: &TeConfig,
) -> (ActiveSet, f64, f64, usize) {
    let cap: Vec<f64> = topo.arc_ids().map(|a| topo.arc(a).capacity).collect();
    let mut load = vec![0.0; topo.arc_count()];
    let mut placed = 0.0;
    let mut spilled = 0usize;
    // Elements in use: start from the always-on table (those stay
    // powered regardless of load).
    let mut active = tables.always_on_active(topo);

    let mut demands = tm.demands().to_vec();
    demands.sort_by(|a, b| b.rate.partial_cmp(&a.rate).unwrap());
    for d in &demands {
        let paths = match tables.get(d.origin, d.dst) {
            Some(p) => p,
            None => continue,
        };
        let mut remaining = d.rate;
        let mut used_beyond_always_on = false;
        for (pi, p) in paths.all().into_iter().enumerate() {
            if remaining <= 1e-9 {
                break;
            }
            let arcs = match p.arcs(topo) {
                Some(a) => a,
                None => continue,
            };
            // Headroom of this path under current loads.
            let head = arcs
                .iter()
                .map(|a| te.threshold * cap[a.idx()] - load[a.idx()])
                .fold(f64::INFINITY, f64::min)
                .max(0.0);
            let take = remaining.min(head);
            if take > 1e-9 {
                for a in &arcs {
                    load[a.idx()] += take;
                    active.set_link(topo, *a, true);
                    active.set_node(topo.arc(*a).src, true);
                    active.set_node(topo.arc(*a).dst, true);
                }
                remaining -= take;
                placed += take;
                if pi > 0 {
                    used_beyond_always_on = true;
                }
            }
        }
        if remaining > 1e-9 {
            // Overload: push the excess on the last path (congestion),
            // mirroring the TE spill rule.
            if let Some(p) = paths.all().last().copied() {
                if let Some(arcs) = p.arcs(topo) {
                    for a in &arcs {
                        load[a.idx()] += remaining;
                        active.set_link(topo, *a, true);
                        active.set_node(topo.arc(*a).src, true);
                        active.set_node(topo.arc(*a).dst, true);
                    }
                }
            }
            used_beyond_always_on = true;
        }
        if used_beyond_always_on {
            spilled += 1;
        }
    }
    let total = tm.total();
    let placed_fraction = if total > 0.0 { placed / total } else { 1.0 };
    let max_util = load
        .iter()
        .enumerate()
        .map(|(i, &l)| l / cap[i])
        .fold(0.0, f64::max);
    (active, placed_fraction, max_util, spilled)
}

/// Replay a whole trace over fixed tables.
pub fn steady_state_replay(
    topo: &Topology,
    power: &PowerModel,
    tables: &PathTables,
    trace: &Trace,
    te: &TeConfig,
) -> ReplayReport {
    let full = power.full_power(topo);
    let points = trace
        .matrices
        .iter()
        .enumerate()
        .map(|(i, tm)| {
            let (active, placed_fraction, max_util, spilled) = place_matrix(topo, tables, tm, te);
            let power_w = power.network_power(topo, &active);
            ReplayPoint {
                t: i as f64 * trace.interval_s,
                power_w,
                power_frac: power_w / full,
                placed_fraction,
                max_util,
                spilled_demands: spilled,
            }
        })
        .collect();
    ReplayReport {
        interval_s: trace.interval_s,
        points,
    }
}

/// Maximum total volume (at fixed matrix proportions) the tables can
/// carry within the threshold without spilling unplaced traffic — used
/// for the "always-on paths alone accommodate ~50% of the OSPF-carriable
/// volume" claim (§4.1). `use_tables_prefix` limits how many tables are
/// usable (1 = always-on only).
///
/// The answer is a scale of `base`, bisected inside `[1e-6, 2^20]`.
/// `None` when it lies outside: nothing fits at `1e-6` (the base is far
/// above capacity) or the base still fits at `2^20` (far below it).
pub fn max_supported_scale(
    topo: &Topology,
    tables: &PathTables,
    base: &TrafficMatrix,
    te: &TeConfig,
    use_tables_prefix: usize,
) -> Option<f64> {
    // Restrict tables to the prefix.
    let mut restricted = PathTables::new();
    for (&(o, d), p) in tables.iter() {
        let mut q = p.clone();
        let keep_od = use_tables_prefix.saturating_sub(1).min(q.on_demand.len());
        q.on_demand.truncate(keep_od);
        if use_tables_prefix <= 1 + q.on_demand.len() + 1 {
            // failover counts as the last table; drop it if outside the
            // prefix (always keep at least always-on).
            if use_tables_prefix < q.num_paths() {
                q.failover = q.always_on.clone();
            }
        }
        restricted.insert(o, d, q);
    }
    // Binary search on the scale factor.
    let fits = |scale: f64| -> bool {
        let tm = base.scaled(scale);
        let (_, placed, _, _) = place_matrix(topo, &restricted, &tm, te);
        placed >= 1.0 - 1e-6
    };
    if !fits(1e-6) {
        return None;
    }
    let (mut lo, mut hi) = (1e-6, 1.0);
    while fits(hi) {
        if hi >= 1e6 {
            return None;
        }
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};
    use ecp_topo::gen::fig3;
    use ecp_topo::{MBPS, MS};
    use ecp_traffic::Demand;

    fn setup() -> (Topology, PathTables, ecp_topo::gen::Fig3Nodes, PowerModel) {
        let (t, n) = fig3(10.0 * MBPS, 16.67 * MS, false);
        let pm = PowerModel::cisco12000();
        let tables =
            Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &[(n.a, n.k), (n.c, n.k)]);
        (t, tables, n, pm)
    }

    fn tmix(n: &ecp_topo::gen::Fig3Nodes, ra: f64, rc: f64) -> TrafficMatrix {
        TrafficMatrix::new(vec![
            Demand {
                origin: n.a,
                dst: n.k,
                rate: ra,
            },
            Demand {
                origin: n.c,
                dst: n.k,
                rate: rc,
            },
        ])
    }

    #[test]
    fn light_load_sleeps_on_demand_paths() {
        let (t, tables, n, _) = setup();
        let te = TeConfig::default();
        let (active, placed, _, spilled) = place_matrix(&t, &tables, &tmix(&n, 1e6, 1e6), &te);
        assert!((placed - 1.0).abs() < 1e-9);
        assert_eq!(spilled, 0);
        // Only the always-on subset is powered.
        let aon = tables.always_on_active(&t);
        assert_eq!(active.nodes_on_count(), aon.nodes_on_count());
    }

    #[test]
    fn heavy_load_wakes_on_demand() {
        let (t, tables, n, _) = setup();
        let te = TeConfig::default();
        // 8 + 8 Mbps cannot share one 10 Mbps middle link at 90%.
        let (active, placed, _, spilled) = place_matrix(&t, &tables, &tmix(&n, 8e6, 8e6), &te);
        assert!(
            (placed - 1.0).abs() < 1e-9,
            "on-demand capacity absorbs the peak"
        );
        assert!(spilled >= 1);
        let aon = tables.always_on_active(&t);
        assert!(active.nodes_on_count() > aon.nodes_on_count());
    }

    #[test]
    fn overload_reports_unplaced() {
        let (t, tables, n, _) = setup();
        let te = TeConfig::default();
        // 2 x 20 Mbps >> total capacity toward K (3 x 10 Mbps links).
        let (_, placed, max_util, _) = place_matrix(&t, &tables, &tmix(&n, 20e6, 20e6), &te);
        assert!(placed < 1.0);
        assert!(
            max_util > 1.0,
            "spill rule pushes past capacity: {max_util}"
        );
    }

    #[test]
    fn replay_power_tracks_load() {
        let (t, tables, n, pm) = setup();
        let te = TeConfig::default();
        let trace = Trace {
            name: "updown".into(),
            interval_s: 60.0,
            matrices: vec![tmix(&n, 1e6, 1e6), tmix(&n, 8e6, 8e6), tmix(&n, 1e6, 1e6)],
        };
        let rep = steady_state_replay(&t, &pm, &tables, &trace, &te);
        assert_eq!(rep.points.len(), 3);
        assert!(
            rep.points[1].power_w > rep.points[0].power_w,
            "peak wakes elements"
        );
        assert!(
            (rep.points[2].power_w - rep.points[0].power_w).abs() < 1e-6,
            "returns to sleep"
        );
        assert_eq!(rep.congested_fraction(), 0.0);
        assert!(rep.mean_power_fraction() < 1.0);
    }

    #[test]
    fn always_on_supports_roughly_half_of_full_tables() {
        let (t, tables, n, _) = setup();
        let te = TeConfig {
            threshold: 1.0,
            ..Default::default()
        };
        let base = tmix(&n, 1e6, 1e6);
        let only_aon = max_supported_scale(&t, &tables, &base, &te, 1).unwrap();
        let all = max_supported_scale(&t, &tables, &base, &te, 3).unwrap();
        assert!(all > only_aon, "extra tables add capacity");
        // Fig-3 shape: always-on shares one middle link (10 M for 2 Mbps
        // base -> scale 5 if shared, capped by the shared E-H link);
        // full tables give each source its own branch (scale 10).
        let ratio = only_aon / all;
        assert!(
            (0.3..=0.7).contains(&ratio),
            "always-on carries ~half: {ratio}"
        );
    }

    /// A base so far above capacity that nothing fits at the bottom of
    /// the bracket has no answer.
    #[test]
    fn base_above_the_bracket_has_no_capacity_answer() {
        let (t, tables, n, _) = setup();
        let te = TeConfig::default();
        let scale = |rate| max_supported_scale(&t, &tables, &tmix(&n, rate, rate), &te, 1);
        assert!(scale(1e6).is_some_and(|s| s > 1.0 && s < 10.0));
        assert_eq!(scale(1e14), None, "nothing fits at 1e-6");
    }

    /// A base so far below capacity that it still fits at the top of the
    /// bracket has no answer.
    #[test]
    fn base_below_the_bracket_has_no_capacity_answer() {
        let (t, tables, n, _) = setup();
        let te = TeConfig::default();
        let scale = |rate| max_supported_scale(&t, &tables, &tmix(&n, rate, rate), &te, 1);
        assert!(scale(1e1).is_some_and(|s| s > 1e5 && s < 1e6));
        assert_eq!(scale(1e-2), None, "still fits at 2^20");
    }

    #[test]
    fn empty_trace() {
        let (t, tables, _, pm) = setup();
        let rep = steady_state_replay(
            &t,
            &pm,
            &tables,
            &Trace {
                name: "e".into(),
                interval_s: 1.0,
                matrices: vec![],
            },
            &TeConfig::default(),
        );
        assert!(rep.points.is_empty());
        assert_eq!(rep.mean_power_fraction(), 1.0);
    }
}
