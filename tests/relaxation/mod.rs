//! Splittable-flow LP relaxations built on `ecp-lp`.
//!
//! Two models, both *relaxations* of the paper's MILP (binary `X`, `Y`,
//! `f` relaxed to `[0, 1]`), used by the cross-validation tests on small
//! instances for:
//!
//! * **Feasibility certification** — if the splittable LP is infeasible,
//!   no unsplittable routing exists either, certifying oracle `None`
//!   answers.
//! * **Power lower bounds** — the relaxed min-power objective bounds the
//!   true optimum from below, quantifying heuristic optimality gaps.

use ecp_lp::{solve_lp, Cmp, LpStatus, Problem, Sense, VarId};
use ecp_power::PowerModel;
use ecp_topo::{ArcId, Topology};
use ecp_traffic::TrafficMatrix;

/// Outcome of the splittable feasibility LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowFeasibility {
    /// A splittable routing exists (necessary condition for the
    /// unsplittable problem).
    Feasible,
    /// Certified: not even splittable flows fit.
    Infeasible,
    /// Solver gave up (iteration limit) — no certificate.
    Unknown,
}

fn commodity_conservation(p: &mut Problem, topo: &Topology, x: &[Vec<VarId>], tm: &TrafficMatrix) {
    for (k, d) in tm.demands().iter().enumerate() {
        for n in topo.node_ids() {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &a in topo.out_arcs(n) {
                terms.push((x[k][a.idx()], 1.0));
            }
            for &a in topo.in_arcs(n) {
                terms.push((x[k][a.idx()], -1.0));
            }
            let rhs = if n == d.origin {
                d.rate
            } else if n == d.dst {
                -d.rate
            } else {
                0.0
            };
            p.add_constraint(&terms, Cmp::Eq, rhs);
        }
    }
}

/// Build and solve the splittable multi-commodity feasibility LP on the
/// full topology: does a fractional routing of `tm` within
/// `margin × capacity` exist?
pub fn splittable_feasible(topo: &Topology, tm: &TrafficMatrix, margin: f64) -> FlowFeasibility {
    if tm.is_empty() {
        return FlowFeasibility::Feasible;
    }
    let mut p = Problem::new(Sense::Minimize);
    // x[k][a] = flow of commodity k on arc a.
    let x: Vec<Vec<VarId>> = (0..tm.len())
        .map(|k| {
            topo.arc_ids()
                .map(|a| p.add_var(format!("x{k}_{a}"), 0.0, f64::INFINITY, 1.0))
                .collect()
        })
        .collect();
    commodity_conservation(&mut p, topo, &x, tm);
    for a in topo.arc_ids() {
        let terms: Vec<(VarId, f64)> = (0..tm.len()).map(|k| (x[k][a.idx()], 1.0)).collect();
        p.add_constraint(&terms, Cmp::Le, margin * topo.arc(a).capacity);
    }
    match solve_lp(&p).status {
        LpStatus::Optimal => FlowFeasibility::Feasible,
        LpStatus::Infeasible => FlowFeasibility::Infeasible,
        _ => FlowFeasibility::Unknown,
    }
}

/// LP lower bound on the minimum network power able to carry `tm`:
/// relax link activations `y ∈ [0,1]` and router activations
/// `X ∈ [0,1]`, with the paper's coupling constraints.
///
/// Returns `None` when the LP is infeasible (demand cannot be carried at
/// all) or the solver hits its limit.
pub fn min_power_lower_bound(
    topo: &Topology,
    power: &PowerModel,
    tm: &TrafficMatrix,
    margin: f64,
) -> Option<f64> {
    let mut p = Problem::new(Sense::Minimize);
    let links: Vec<ArcId> = topo.link_ids().collect();
    // y per physical link with the link's full power as objective.
    let y: Vec<VarId> = links
        .iter()
        .map(|&l| p.add_var(format!("y{l}"), 0.0, 1.0, power.link_full(topo, l)))
        .collect();
    // X per router with chassis power as objective.
    let xs: Vec<VarId> = topo
        .node_ids()
        .map(|n| p.add_var(format!("X{n}"), 0.0, 1.0, power.chassis(topo, n)))
        .collect();
    // Flows.
    let x: Vec<Vec<VarId>> = (0..tm.len())
        .map(|k| {
            topo.arc_ids()
                .map(|a| p.add_var(format!("x{k}_{a}"), 0.0, f64::INFINITY, 0.0))
                .collect()
        })
        .collect();
    commodity_conservation(&mut p, topo, &x, tm);
    let link_index = |a: ArcId| links.iter().position(|&l| l == topo.link_of(a)).unwrap();
    for a in topo.arc_ids() {
        // Σ_k x_k(a) <= margin * C(a) * y(link(a))   (constraint 2)
        let mut terms: Vec<(VarId, f64)> = (0..tm.len()).map(|k| (x[k][a.idx()], 1.0)).collect();
        terms.push((y[link_index(a)], -margin * topo.arc(a).capacity));
        p.add_constraint(&terms, Cmp::Le, 0.0);
        // y <= X_src, y <= X_dst  (constraint 1 on both endpoints)
        let arc = topo.arc(a);
        p.add_constraint(
            &[(y[link_index(a)], 1.0), (xs[arc.src.idx()], -1.0)],
            Cmp::Le,
            0.0,
        );
        p.add_constraint(
            &[(y[link_index(a)], 1.0), (xs[arc.dst.idx()], -1.0)],
            Cmp::Le,
            0.0,
        );
    }
    let s = solve_lp(&p);
    match s.status {
        LpStatus::Optimal => Some(s.objective),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_routing::{exact_small_subset, place_flows, OracleConfig};
    use ecp_topo::gen::{line, ring};
    use ecp_topo::{NodeId, MBPS, MS};
    use ecp_traffic::Demand;

    fn tm(pairs: &[(u32, u32, f64)]) -> TrafficMatrix {
        TrafficMatrix::new(
            pairs
                .iter()
                .map(|&(o, d, r)| Demand {
                    origin: NodeId(o),
                    dst: NodeId(d),
                    rate: r,
                })
                .collect(),
        )
    }

    #[test]
    fn feasible_when_capacity_suffices() {
        let t = line(3, 10.0 * MBPS, MS);
        assert_eq!(
            splittable_feasible(&t, &tm(&[(0, 2, 5e6)]), 1.0),
            FlowFeasibility::Feasible
        );
    }

    #[test]
    fn infeasible_when_over_capacity() {
        let t = line(3, 10.0 * MBPS, MS);
        assert_eq!(
            splittable_feasible(&t, &tm(&[(0, 2, 15e6)]), 1.0),
            FlowFeasibility::Infeasible
        );
    }

    #[test]
    fn splitting_beats_unsplittable() {
        // Ring of 3: two disjoint routes 0->1 (direct, 10M) and 0-2-1
        // (10M). A single 14 Mbps unsplittable flow fails; splittable
        // succeeds.
        let t = ring(3, 10.0 * MBPS, MS);
        let m = tm(&[(0, 1, 14e6)]);
        assert_eq!(splittable_feasible(&t, &m, 1.0), FlowFeasibility::Feasible);
        assert!(place_flows(&t, None, &m, &OracleConfig::default()).is_none());
    }

    #[test]
    fn margin_respected() {
        let t = line(3, 10.0 * MBPS, MS);
        assert_eq!(
            splittable_feasible(&t, &tm(&[(0, 2, 6e6)]), 0.5),
            FlowFeasibility::Infeasible
        );
    }

    #[test]
    fn lower_bound_below_exact_optimum() {
        let t = ring(5, 10.0 * MBPS, MS);
        let m = tm(&[(0, 2, 4e6), (1, 3, 3e6)]);
        let pm = PowerModel::cisco12000();
        let lb = min_power_lower_bound(&t, &pm, &m, 1.0).unwrap();
        let exact = exact_small_subset(&t, &pm, &m, &OracleConfig::default(), 12).unwrap();
        assert!(
            lb <= exact.power_w + 1e-6,
            "LP bound {lb} must not exceed exact optimum {}",
            exact.power_w
        );
        assert!(lb > 0.0, "carrying traffic costs something");
    }

    #[test]
    fn lower_bound_none_when_infeasible() {
        let t = line(3, 10.0 * MBPS, MS);
        let pm = PowerModel::cisco12000();
        assert!(min_power_lower_bound(&t, &pm, &tm(&[(0, 2, 50e6)]), 1.0).is_none());
    }

    #[test]
    fn empty_matrix_feasible() {
        let t = line(3, 10.0 * MBPS, MS);
        assert_eq!(
            splittable_feasible(&t, &TrafficMatrix::empty(), 1.0),
            FlowFeasibility::Feasible
        );
    }
}
