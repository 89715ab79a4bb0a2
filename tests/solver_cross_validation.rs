//! Cross-validation between the independent solvers: the combinatorial
//! oracle/subset machinery must agree with the LP relaxation bounds from
//! `ecp-lp` — two implementations, one truth. The LP relaxations live
//! next to this test (`relaxation/`): no library links the solver.

mod relaxation;

use ecp_lp::{solve_mip, Cmp, MipConfig, MipStatus, Problem, Sense};
use relaxation::{min_power_lower_bound, splittable_feasible, FlowFeasibility};
use response::power::PowerModel;
use response::routing::{exact_small_subset, place_flows, OracleConfig};
use response::topo::gen::{random_waxman, ring};
use response::topo::{NodeId, MBPS, MS};
use response::traffic::{Demand, TrafficMatrix};

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

/// If the unsplittable oracle finds a routing, the splittable LP must be
/// feasible too (oracle success is a stronger statement).
#[test]
fn oracle_success_implies_lp_feasible() {
    let oc = OracleConfig::default();
    for seed in 0..10u64 {
        let topo = random_waxman(8, 0.6, 0.3, 10.0 * MBPS, seed);
        let m = tm(&[(0, 5, 3e6), (1, 6, 2e6), (2, 7, 4e6)]);
        if place_flows(&topo, None, &m, &oc).is_some() {
            assert_eq!(
                splittable_feasible(&topo, &m, 1.0),
                FlowFeasibility::Feasible,
                "seed {seed}: oracle routed but LP disagrees"
            );
        }
    }
}

/// If the LP says infeasible, the oracle must never claim success.
#[test]
fn lp_infeasible_implies_oracle_fails() {
    let oc = OracleConfig::default();
    for seed in 0..10u64 {
        let topo = random_waxman(8, 0.6, 0.3, 10.0 * MBPS, seed);
        // Deliberately extreme demand.
        let m = tm(&[(0, 5, 60e6), (1, 6, 45e6)]);
        if splittable_feasible(&topo, &m, 1.0) == FlowFeasibility::Infeasible {
            assert!(
                place_flows(&topo, None, &m, &oc).is_none(),
                "seed {seed}: LP certified infeasible but oracle 'routed'"
            );
        }
    }
}

/// Exact subset power must lie between the LP lower bound and full
/// power.
#[test]
fn exact_subset_sandwiched_by_lp_bound() {
    let pm = PowerModel::cisco12000();
    let oc = OracleConfig::default();
    let topo = ring(6, 10.0 * MBPS, MS);
    let m = tm(&[(0, 3, 4e6), (1, 5, 2e6), (2, 4, 3e6)]);
    let exact = exact_small_subset(&topo, &pm, &m, &oc, 12).expect("feasible");
    let lb = min_power_lower_bound(&topo, &pm, &m, 1.0).expect("LP feasible");
    assert!(
        lb <= exact.power_w + 1e-6,
        "LP bound {lb} must not exceed the exact optimum {}",
        exact.power_w
    );
    assert!(exact.power_w <= pm.full_power(&topo) + 1e-6);
    // The bound should also be non-trivial (more than the bare chassis of
    // the endpoints).
    assert!(lb > 0.0);
}

/// The MIP solver agrees with the exhaustive subset search when we
/// encode a tiny instance of the paper's model directly.
#[test]
fn direct_milp_encoding_matches_exact_search() {
    // Ring of 4, one demand 0->2 of 4 Mbps on 10 Mbps links. The paper's
    // model: minimize chassis+port power subject to flow conservation.
    let pm = PowerModel::cisco12000();
    let oc = OracleConfig::default();
    let topo = ring(4, 10.0 * MBPS, MS);
    let m = tm(&[(0, 2, 4e6)]);
    let exact = exact_small_subset(&topo, &pm, &m, &oc, 12).unwrap();

    // Direct MILP: y_l binary per link, X_i binary per node, single
    // commodity f_a in {0,1} per arc scaled by the demand.
    let mut p = Problem::new(Sense::Minimize);
    let links: Vec<_> = topo.link_ids().collect();
    let y: Vec<_> = links
        .iter()
        .map(|&l| p.add_binary(format!("y{l}"), pm.link_full(&topo, l)))
        .collect();
    let xs: Vec<_> = topo
        .node_ids()
        .map(|n| p.add_binary(format!("X{n}"), pm.chassis(&topo, n)))
        .collect();
    let f: Vec<_> = topo
        .arc_ids()
        .map(|a| p.add_binary(format!("f{a}"), 0.0))
        .collect();
    // Flow conservation for the single unsplittable commodity.
    for node in topo.node_ids() {
        let mut terms = Vec::new();
        for &a in topo.out_arcs(node) {
            terms.push((f[a.idx()], 1.0));
        }
        for &a in topo.in_arcs(node) {
            terms.push((f[a.idx()], -1.0));
        }
        let rhs = if node == NodeId(0) {
            1.0
        } else if node == NodeId(2) {
            -1.0
        } else {
            0.0
        };
        p.add_constraint(&terms, Cmp::Eq, rhs);
    }
    // Coupling: f_a <= y_link(a) <= X_endpoints (demand fits every link,
    // so capacity is non-binding here).
    for a in topo.arc_ids() {
        let li = links.iter().position(|&l| l == topo.link_of(a)).unwrap();
        p.add_constraint(&[(f[a.idx()], 1.0), (y[li], -1.0)], Cmp::Le, 0.0);
        let arc = topo.arc(a);
        p.add_constraint(&[(y[li], 1.0), (xs[arc.src.idx()], -1.0)], Cmp::Le, 0.0);
        p.add_constraint(&[(y[li], 1.0), (xs[arc.dst.idx()], -1.0)], Cmp::Le, 0.0);
    }
    let sol = solve_mip(&p, &MipConfig::default());
    assert_eq!(sol.status, MipStatus::Optimal);
    assert!(
        (sol.objective - exact.power_w).abs() < 1e-3,
        "direct MILP {} vs exhaustive search {}",
        sol.objective,
        exact.power_w
    );
}
