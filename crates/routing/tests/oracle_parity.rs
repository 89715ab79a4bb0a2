//! The feasibility oracle shares one inverse-capacity shortest-path tree
//! per origin across demands, placement attempts and calls, and refuses
//! a matrix that over-subscribes a cut it proved; greedy pruning lets
//! connectivity decide matrices too light to congest an arc; `optimal`
//! routes only the winning pass's subset; and a held `SubsetSolver`
//! keeps one oracle per probed subset across matrices. These properties
//! pin all of them to references that run a fresh per-demand search
//! every time a path is needed, ask the oracle about every candidate and
//! route every pass: same routing or same refusal, on random networks
//! with mixed capacities, dark elements and shared origins.

use ecp_power::PowerModel;
use ecp_routing::ospf::invcap_weight;
use ecp_routing::subset::PruneOrder;
use ecp_routing::{
    exact_small_subset, greedy_prune, max_feasible_volume, optimal_subset, ospf_invcap,
    place_flows, FeasibilityOracle, OracleConfig, RouteSet, SubsetResult, SubsetSolver,
};
use ecp_topo::algo::{reachable_from, shortest_path};
use ecp_topo::{ActiveSet, ArcId, NodeId, Topology, TopologyBuilder, MBPS, MS};
use ecp_traffic::{gravity_matrix, Demand, TrafficMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random network with mixed link capacities (so inverse-capacity
/// weights tie and differ), an optional active subset that may cut it
/// apart, and demands from a few origins (so origins are shared).
struct Instance {
    topo: Topology,
    active: Option<ActiveSet>,
    tm: TrafficMatrix,
}

fn instance(n: usize, seed: u64, load: f64) -> Instance {
    instance_on(n, seed, load, false)
}

/// [`instance`], with `simple` keeping the network free of parallel
/// links, so that the oracle's cut certificate is in use.
fn instance_on(n: usize, seed: u64, load: f64, simple: bool) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let caps = [10.0 * MBPS, 25.0 * MBPS, 40.0 * MBPS, 100.0 * MBPS];
    let mut b = TopologyBuilder::new("parity");
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("p{i}"))).collect();
    let mut linked = std::collections::HashSet::new();
    let mut link = |b: &mut TopologyBuilder, i: usize, j: usize, rng: &mut StdRng| {
        if linked.insert((i.min(j), i.max(j))) || !simple {
            b.add_link(ids[i], ids[j], caps[rng.gen_range(0..caps.len())], MS);
        }
    };
    for i in 1..n {
        let j = rng.gen_range(0..i);
        link(&mut b, i, j, &mut rng);
    }
    for _ in 0..n {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if i != j {
            link(&mut b, i, j, &mut rng);
        }
    }
    let topo = b.build();
    let active = rng.gen_bool(0.5).then(|| {
        let mut s = ActiveSet::all_on(&topo);
        for v in topo.node_ids() {
            if rng.gen_bool(0.05) {
                s.set_node(v, false);
            }
        }
        for l in topo.link_ids() {
            if rng.gen_bool(0.1) {
                s.set_link(&topo, l, false);
            }
        }
        s
    });
    let tm = matrix(&topo, &mut rng, load);
    Instance { topo, active, tm }
}

/// A simple network of dual-homed metros: a ring of 100 Mbit/s core
/// routers, perhaps with a chord and perhaps with one ring link dark,
/// and metros each linked to two core routers by uplinks of one
/// capacity, so that gravity matrices among metros have equal rates.
/// Its matrices send from one metro to every other at one rate, chosen
/// so that the flows total 75–100 % of what the hub's uplinks carry:
/// the rates at which the count of unsplittable flows, not their sum,
/// decides. Returns the instance and a second such matrix from another
/// hub.
fn dual_homed(seed: u64) -> (Instance, TrafficMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new("dual-homed");
    let cores: Vec<NodeId> = (0..rng.gen_range(3..6))
        .map(|i| b.add_node(format!("core{i}")))
        .collect();
    let k = cores.len();
    for i in 0..k {
        b.add_link(cores[i], cores[(i + 1) % k], 100.0 * MBPS, MS);
    }
    if k >= 4 && rng.gen_bool(0.5) {
        b.add_link(cores[0], cores[k / 2], 100.0 * MBPS, MS);
    }
    let uplink = if rng.gen_bool(0.5) { 10.0 } else { 25.0 } * MBPS;
    let metros: Vec<NodeId> = (0..rng.gen_range(3..10))
        .map(|i| {
            let metro = b.add_node(format!("metro{i}"));
            let first = rng.gen_range(0..k);
            let second = (first + rng.gen_range(1..k)) % k;
            b.add_link(metro, cores[first], uplink, MS);
            b.add_link(metro, cores[second], uplink, MS);
            metro
        })
        .collect();
    let topo = b.build();
    let active = rng.gen_bool(0.5).then(|| {
        let mut s = ActiveSet::all_on(&topo);
        s.set_link(&topo, topo.find_arc(cores[0], cores[1]).unwrap(), false);
        s
    });
    let mut fan_out = |hub: usize| {
        let rate = 2.0 * uplink / (metros.len() - 1) as f64 * rng.gen_range(0.75..1.0);
        let demands = metros
            .iter()
            .filter(|&&m| m != metros[hub])
            .map(|&dst| Demand {
                origin: metros[hub],
                dst,
                rate,
            });
        TrafficMatrix::new(demands.collect())
    };
    let tm = fan_out(0);
    let other = fan_out(1);
    (Instance { topo, active, tm }, other)
}

/// Demands from three random origins (so origins are shared) to random
/// destinations, at rates of 10–100 % of `load` Mbit/s.
fn matrix(topo: &Topology, rng: &mut StdRng, load: f64) -> TrafficMatrix {
    let ids: Vec<NodeId> = topo.node_ids().collect();
    let n = ids.len();
    let origins: Vec<NodeId> = (0..3).map(|_| ids[rng.gen_range(0..n)]).collect();
    let demands = (0..rng.gen_range(1..3 * n))
        .map(|_| Demand {
            origin: *origins.choose(rng).unwrap(),
            dst: ids[rng.gen_range(0..n)],
            rate: rng.gen_range(0.1..1.0) * load * MBPS,
        })
        .collect();
    TrafficMatrix::new(demands)
}

/// The oracle with every path found by its own single-pair search.
fn reference_place(
    topo: &Topology,
    active: Option<&ActiveSet>,
    tm: &TrafficMatrix,
    cfg: &OracleConfig,
) -> Option<RouteSet> {
    if tm.is_empty() {
        return Some(RouteSet::new());
    }
    let mut order: Vec<Demand> = tm.demands().to_vec();
    order.sort_by(|a, b| {
        b.rate
            .partial_cmp(&a.rate)
            .unwrap()
            .then_with(|| (a.origin, a.dst).cmp(&(b.origin, b.dst)))
    });
    if let Some(rs) = reference_try(topo, active, &order, cfg) {
        return Some(rs);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.restarts {
        order.shuffle(&mut rng);
        if let Some(rs) = reference_try(topo, active, &order, cfg) {
            return Some(rs);
        }
    }
    None
}

fn reference_try(
    topo: &Topology,
    active: Option<&ActiveSet>,
    order: &[Demand],
    cfg: &OracleConfig,
) -> Option<RouteSet> {
    let cap: Vec<f64> = topo
        .arc_ids()
        .map(|a| topo.arc(a).capacity * cfg.margin)
        .collect();
    let mut load = vec![0.0; topo.arc_count()];
    let apply = |load: &mut [f64], p: &ecp_topo::Path, rate: f64| {
        for a in p.arcs(topo).unwrap() {
            load[a.idx()] += rate;
        }
    };
    let mut rs = RouteSet::new();
    let mut pending: Vec<Demand> = order.to_vec();
    let mut passes = 0;
    while !pending.is_empty() {
        let mut failed = Vec::new();
        for d in pending.drain(..) {
            match reference_route(topo, active, &cap, &load, &d) {
                Some(p) => {
                    apply(&mut load, &p, d.rate);
                    rs.insert(p);
                }
                None => failed.push(d),
            }
        }
        if failed.is_empty() {
            return Some(rs);
        }
        passes += 1;
        if passes > cfg.reroute_passes {
            return None;
        }
        let hot: Vec<ArcId> = topo
            .arc_ids()
            .filter(|&a| load[a.idx()] > 0.7 * cap[a.idx()])
            .collect();
        let mut ripped = Vec::new();
        let keys: Vec<(NodeId, NodeId)> = rs.iter().map(|(k, _)| *k).collect();
        for (o, dd) in keys {
            let p = rs.get(o, dd).unwrap().clone();
            if p.arcs(topo).unwrap().iter().any(|a| hot.contains(a)) {
                if let Some(d0) = order.iter().find(|d| d.origin == o && d.dst == dd) {
                    apply(&mut load, &p, -d0.rate);
                    rs.remove(o, dd);
                    ripped.push(*d0);
                }
            }
            if ripped.len() >= 8 {
                break;
            }
        }
        if ripped.is_empty() {
            return None;
        }
        pending = failed;
        pending.extend(ripped);
    }
    Some(rs)
}

fn reference_route(
    topo: &Topology,
    active: Option<&ActiveSet>,
    cap: &[f64],
    load: &[f64],
    d: &Demand,
) -> Option<ecp_topo::Path> {
    let fits = |a: &ArcId| load[a.idx()] + d.rate <= cap[a.idx()] + 1e-6;
    if let Some(p) = shortest_path(topo, d.origin, d.dst, &invcap_weight(topo), active) {
        if p.arcs(topo).unwrap().iter().all(fits) {
            return Some(p);
        }
    }
    let w = |a: ArcId| {
        let i = a.idx();
        if load[i] + d.rate > cap[i] + 1e-6 {
            f64::INFINITY
        } else {
            1.0 + load[i] / cap[i].max(1e-9)
        }
    };
    shortest_path(topo, d.origin, d.dst, &w, active)
}

/// Greedy power-down asking the reference oracle about every candidate
/// that keeps the endpoints connected, connectivity checked from every
/// endpoint.
fn reference_greedy_prune(
    topo: &Topology,
    power: &PowerModel,
    tm: &TrafficMatrix,
    cfg: &OracleConfig,
    order: PruneOrder,
) -> Option<SubsetResult> {
    let mut required: Vec<NodeId> = tm
        .demands()
        .iter()
        .flat_map(|d| [d.origin, d.dst])
        .collect();
    required.sort_unstable();
    required.dedup();
    let connected = |s: &ActiveSet| {
        required.iter().all(|&r| {
            let seen = reachable_from(topo, r, Some(s));
            required.iter().all(|&q| seen[q.idx()])
        })
    };
    let mut active = ActiveSet::all_on(topo);
    let mut routes = reference_place(topo, Some(&active), tm, cfg)?;
    let mut nodes: Vec<NodeId> = topo.node_ids().filter(|n| !required.contains(n)).collect();
    let node_power = |n: NodeId| -> f64 {
        let ports: f64 = topo.out_arcs(n).iter().map(|&a| power.port(topo, a)).sum();
        power.chassis(topo, n) + ports
    };
    match order {
        PruneOrder::PowerDesc => nodes.sort_by(|&a, &b| {
            node_power(b)
                .partial_cmp(&node_power(a))
                .unwrap()
                .then(a.cmp(&b))
        }),
        PruneOrder::LoadAsc => {
            let loads = routes.link_loads(topo, tm);
            let thru =
                |n: NodeId| -> f64 { topo.out_arcs(n).iter().map(|&a| loads[a.idx()]).sum() };
            nodes.sort_by(|&a, &b| thru(a).partial_cmp(&thru(b)).unwrap().then(a.cmp(&b)));
        }
        PruneOrder::Random(seed) => nodes.shuffle(&mut StdRng::seed_from_u64(seed)),
    }
    for n in nodes {
        let mut tentative = active.clone();
        tentative.set_node(n, false);
        if !connected(&tentative) {
            continue;
        }
        if let Some(rs) = reference_place(topo, Some(&tentative), tm, cfg) {
            active = tentative;
            routes = rs;
        }
    }
    let mut links: Vec<ArcId> = topo
        .link_ids()
        .filter(|&l| active.arc_on(topo, l))
        .collect();
    match order {
        PruneOrder::PowerDesc => links.sort_by(|&a, &b| {
            power
                .link_full(topo, b)
                .partial_cmp(&power.link_full(topo, a))
                .unwrap()
                .then(a.cmp(&b))
        }),
        PruneOrder::LoadAsc => {
            let loads = routes.link_loads(topo, tm);
            let both = |l: ArcId| loads[l.idx()] + topo.reverse(l).map_or(0.0, |r| loads[r.idx()]);
            links.sort_by(|&a, &b| both(a).partial_cmp(&both(b)).unwrap().then(a.cmp(&b)));
        }
        PruneOrder::Random(seed) => links.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9)),
    }
    for l in links {
        let mut tentative = active.clone();
        tentative.set_link(topo, l, false);
        if !connected(&tentative) {
            continue;
        }
        if let Some(rs) = reference_place(topo, Some(&tentative), tm, cfg) {
            active = tentative;
            routes = rs;
        }
    }
    active.prune_isolated_nodes(topo);
    let power_w = power.network_power(topo, &active);
    Some(SubsetResult {
        active,
        routes,
        power_w,
    })
}

/// `optimal` as it was before it routed only the winner: exact on tiny
/// nets, otherwise the best of four greedy passes, each `prune`d and
/// routed on its own, a later order winning only by more than 0.5 %.
fn reference_optimal(
    topo: &Topology,
    power: &PowerModel,
    tm: &TrafficMatrix,
    cfg: &OracleConfig,
    prune: impl Fn(PruneOrder) -> Option<SubsetResult>,
) -> Option<SubsetResult> {
    if topo.link_count() <= 12 {
        return exact_small_subset(topo, power, tm, cfg, 12);
    }
    let orders = [
        PruneOrder::PowerDesc,
        PruneOrder::LoadAsc,
        PruneOrder::Random(1),
        PruneOrder::Random(2),
    ];
    let mut best: Option<SubsetResult> = None;
    for r in orders.into_iter().filter_map(prune) {
        if best
            .as_ref()
            .map(|b| r.power_w < 0.995 * b.power_w)
            .unwrap_or(true)
        {
            best = Some(r);
        }
    }
    best
}

/// Greedy-prune orders: both fixed orders and two seeded random ones.
const ORDERS: [PruneOrder; 4] = [
    PruneOrder::PowerDesc,
    PruneOrder::LoadAsc,
    PruneOrder::Random(2),
    PruneOrder::Random(3),
];

/// Same subset, same routing and the same power bit for bit, or both
/// refused.
fn same_subset(got: Option<SubsetResult>, want: Option<SubsetResult>) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.is_some(), want.is_some());
    if let (Some(got), Some(want)) = (got, want) {
        prop_assert_eq!(&got.active, &want.active);
        prop_assert_eq!(&got.routes, &want.routes);
        prop_assert_eq!(got.power_w.to_bits(), want.power_w.to_bits());
    }
    Ok(())
}

/// The §5.1 probe with the reference oracle.
fn reference_max_volume(topo: &Topology, pairs: &[(NodeId, NodeId)], cfg: &OracleConfig) -> f64 {
    let start = topo.total_capacity() * 0.01;
    let base = gravity_matrix(topo, pairs, start);
    let feasible = |v: f64| reference_place(topo, None, &base.scaled(v / start), cfg).is_some();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same routing or same refusal as the per-demand reference, at loads
    /// from trivially feasible to hopeless.
    #[test]
    fn place_flows_matches_per_demand_search(
        n in 3usize..14,
        seed in 0u64..100_000,
        load in 0.5f64..60.0,
        margin in 0.5f64..1.0,
    ) {
        let Instance { topo, active, tm } = instance(n, seed, load);
        let cfg = OracleConfig { margin, ..Default::default() };
        prop_assert_eq!(
            place_flows(&topo, active.as_ref(), &tm, &cfg),
            reference_place(&topo, active.as_ref(), &tm, &cfg)
        );
    }

    /// One bound oracle asked about a sequence of matrices answers each
    /// as a fresh reference would: trees and first-choice routes kept
    /// between calls never leak one matrix's state into the next, also
    /// when the next matrix has as many demands on other OD pairs (the
    /// reversed matrix).
    #[test]
    fn bound_oracle_matches_reference_across_calls(n in 3usize..14, seed in 0u64..100_000) {
        let Instance { topo, active, tm } = instance(n, seed, 10.0);
        let reversed = TrafficMatrix::new(
            tm.demands()
                .iter()
                .map(|d| Demand { origin: d.dst, dst: d.origin, rate: d.rate })
                .collect(),
        );
        prop_assert_eq!(reversed.len(), tm.len());
        let cfg = OracleConfig::default();
        let mut oracle = FeasibilityOracle::new(&topo, active.as_ref(), &cfg);
        let scaled = [4.0, 0.25, 1.0, 8.0, 0.5].map(|f| tm.scaled(f));
        for m in scaled.iter().chain([&reversed, &tm, &reversed.scaled(2.0)]) {
            let placed = oracle.place(m);
            prop_assert_eq!(oracle.fits(m), placed.is_some());
            prop_assert_eq!(placed, reference_place(&topo, active.as_ref(), m, &cfg));
        }
    }

    /// On a simple network, where a failed detour can prove a cut
    /// over-subscribed and the oracle keeps it, one oracle held on one
    /// subset across heavy and light matrices answers each exactly as a
    /// fresh oracle and the per-demand reference do: a kept cut refuses
    /// only what the reference refuses, and a lighter matrix after a
    /// refusal is placed as before. Half the cases are dual-homed metros
    /// with equal-rate matrices, where cuts are proven by counting.
    #[test]
    fn held_oracle_with_kept_cuts_matches_reference(
        n in 3usize..12,
        seed in 0u64..100_000,
        dual in proptest::bool::ANY,
    ) {
        let (Instance { topo, active, tm }, other) = if dual {
            dual_homed(seed)
        } else {
            let random = instance_on(n, seed, 40.0, true);
            let other = matrix(&random.topo, &mut StdRng::seed_from_u64(!seed), 40.0);
            (random, other)
        };
        let cfg = OracleConfig::default();
        let mut held = FeasibilityOracle::new(&topo, active.as_ref(), &cfg);
        let sequence = [
            tm.scaled(2.0),
            tm.scaled(0.25),
            other.scaled(3.0),
            tm.clone(),
            other.scaled(0.1),
            tm.scaled(6.0),
            other.clone(),
            tm.scaled(0.05),
        ];
        for m in &sequence {
            let want = reference_place(&topo, active.as_ref(), m, &cfg);
            prop_assert_eq!(held.fits(m), want.is_some());
            prop_assert_eq!(held.place(m), want.clone());
            prop_assert_eq!(FeasibilityOracle::new(&topo, active.as_ref(), &cfg).place(m), want);
        }
    }

    /// Greedy pruning keeps and routes exactly what the per-candidate
    /// reference does, for ε-demand matrices (decided by connectivity
    /// alone) and for loads where capacity binds, under every order.
    #[test]
    fn greedy_prune_matches_per_candidate_oracle(
        n in 3usize..11,
        seed in 0u64..100_000,
        heavy in proptest::bool::ANY,
        order in 0u64..4,
    ) {
        let Instance { topo, tm, .. } = instance(n, seed, 10.0);
        // ε demands: 1 bit/s per pair, as the planner's always-on tree uses.
        let tm = if heavy { tm } else { tm.scaled(1.0 / (10.0 * MBPS)) };
        let order = ORDERS[order as usize];
        let pm = PowerModel::cisco12000();
        let cfg = OracleConfig::default();
        let got = greedy_prune(&topo, &pm, &tm, &cfg, order);
        let want = reference_greedy_prune(&topo, &pm, &tm, &cfg, order);
        same_subset(got, want)?;
    }

    /// The shared-oracle probe returns the reference volume bit for bit,
    /// and OSPF-InvCap routes every pair as its own search would, on
    /// random networks and on dual-homed metros probed at equal rates.
    #[test]
    fn probe_and_ospf_match_reference(
        n in 3usize..10,
        seed in 0u64..100_000,
        dual in proptest::bool::ANY,
    ) {
        let Instance { topo, active, tm } = if dual {
            dual_homed(seed).0
        } else {
            instance(n, seed, 1.0)
        };
        let pairs = tm.od_pairs();
        // Without demands the reference probe raises the volume forever.
        prop_assume!(!pairs.is_empty());
        let cfg = OracleConfig::default();
        prop_assert_eq!(
            max_feasible_volume(&topo, &pairs, &cfg).to_bits(),
            reference_max_volume(&topo, &pairs, &cfg).to_bits()
        );
        let mut expected = RouteSet::new();
        for &(o, d) in &pairs {
            if let Some(p) = shortest_path(&topo, o, d, &invcap_weight(&topo), active.as_ref()) {
                expected.insert(p);
            }
        }
        prop_assert_eq!(ospf_invcap(&topo, &pairs, active.as_ref()), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One solver held across a sequence of matrices (heavy, ε-light and
    /// scaled, their OD pairs and endpoints changing from call to call)
    /// answers each exactly as a fresh `optimal_subset` and the
    /// reference `optimal` over per-candidate reference passes do, and
    /// prunes exactly as the per-candidate reference does under every
    /// order: oracles and cuts kept between matrices never leak one
    /// matrix's state into the next.
    #[test]
    fn held_solver_matches_fresh_solvers_across_matrices(
        n in 8usize..13,
        seed in 0u64..100_000,
        simple in proptest::bool::ANY,
    ) {
        let Instance { topo, tm, .. } = instance_on(n, seed, 10.0, simple);
        let other = matrix(&topo, &mut StdRng::seed_from_u64(!seed), 10.0);
        let eps = |m: &TrafficMatrix| m.scaled(1.0 / (10.0 * MBPS));
        let sequence = [
            tm.clone(),
            eps(&other),
            tm.scaled(0.5),
            other.clone(),
            eps(&tm),
            other.scaled(3.0),
            tm.clone(),
        ];
        let pm = PowerModel::cisco12000();
        let cfg = OracleConfig::default();
        let mut solver = SubsetSolver::new(&topo, &pm, &cfg);
        for m in &sequence {
            let want = reference_optimal(&topo, &pm, m, &cfg, |order| {
                reference_greedy_prune(&topo, &pm, m, &cfg, order)
            });
            same_subset(solver.optimal(m), want.clone())?;
            same_subset(optimal_subset(&topo, &pm, m, &cfg), want)?;
            for order in ORDERS {
                let want = reference_greedy_prune(&topo, &pm, m, &cfg, order);
                same_subset(solver.greedy_prune(m, order), want)?;
            }
        }
    }
}

/// One solver held over twelve peak-hour intervals of the Fig. 1b GÉANT
/// trace (80 gravity pairs, seed 1, peaking at half the maximum feasible
/// volume) answers every interval exactly as the one-shot solvers and
/// the reference `optimal` over one-shot passes do, through `optimal`
/// and through a PowerDesc `greedy_prune`. The cut holds intervals
/// where the oracle refuses a connected candidate, so kept oracles and
/// kept connectivity are both exercised on refusals.
#[test]
fn held_solver_matches_one_shot_over_a_geant_trace() {
    let topo = ecp_topo::gen::geant();
    let pairs = ecp_traffic::random_od_pairs(&topo, 80, 1);
    let cfg = OracleConfig::default();
    let peak = max_feasible_volume(&topo, &pairs, &cfg) * 0.5;
    let trace = ecp_traffic::geant_like_trace(&topo, &pairs, 2, peak, 1);
    let busiest = (0..trace.matrices.len())
        .max_by(|&a, &b| {
            let total = |i: usize| trace.matrices[i].total();
            total(a).total_cmp(&total(b))
        })
        .unwrap();
    let start = busiest.saturating_sub(6).min(trace.matrices.len() - 12);
    let cut = &trace.matrices[start..start + 12];

    let pm = PowerModel::cisco12000();
    let mut solver = SubsetSolver::new(&topo, &pm, &cfg);
    let mut refusals = 0;
    for m in cut {
        let want = reference_optimal(&topo, &pm, m, &cfg, |order| {
            greedy_prune(&topo, &pm, m, &cfg, order)
        });
        same_subset(solver.optimal(m), want.clone()).unwrap();
        same_subset(optimal_subset(&topo, &pm, m, &cfg), want).unwrap();
        let fresh = greedy_prune(&topo, &pm, m, &cfg, PruneOrder::PowerDesc);
        let held = solver.greedy_prune(m, PruneOrder::PowerDesc);
        // A link the pass kept although dropping it leaves the endpoints
        // connected was refused by the oracle (connectivity only shrinks
        // as the pass goes on).
        let kept = held.as_ref().expect("every interval of the cut prunes");
        let required: Vec<NodeId> = m.od_pairs().into_iter().flat_map(|(o, d)| [o, d]).collect();
        refusals += topo
            .link_ids()
            .filter(|&l| kept.active.arc_on(&topo, l))
            .filter(|&l| {
                let mut without = kept.active.clone();
                without.set_link(&topo, l, false);
                ecp_topo::algo::is_connected(&topo, &required, Some(&without))
            })
            .count();
        same_subset(held, fresh).unwrap();
    }
    assert!(refusals > 0, "the cut must include refused candidates");
}

/// The planner's always-on tree asks `optimal_subset` about an ε matrix
/// (1 bit/s per requested pair) on the whole network. On three
/// registry networks the one-shot and held solvers return what the
/// reference `optimal` over one-shot passes returns.
#[test]
fn optimal_matches_reference_on_planner_epsilon_matrices() {
    let pm = PowerModel::cisco12000();
    let cfg = OracleConfig::default();
    for (topo, count) in [
        (ecp_topo::gen::geant(), 60),
        (ecp_topo::gen::abovenet(), 40),
        (ecp_topo::gen::genuity(), 40),
    ] {
        let pairs = ecp_traffic::random_od_pairs(&topo, count, 3);
        let eps = TrafficMatrix::new(
            pairs
                .iter()
                .map(|&(origin, dst)| Demand {
                    origin,
                    dst,
                    rate: 1.0,
                })
                .collect(),
        );
        let want = reference_optimal(&topo, &pm, &eps, &cfg, |order| {
            greedy_prune(&topo, &pm, &eps, &cfg, order)
        });
        assert!(want.is_some(), "{}", topo.name());
        same_subset(optimal_subset(&topo, &pm, &eps, &cfg), want.clone()).unwrap();
        let mut solver = SubsetSolver::new(&topo, &pm, &cfg);
        same_subset(solver.optimal(&eps), want).unwrap();
    }
}
