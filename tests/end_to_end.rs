//! End-to-end integration: plan → validate → replay → simulate → apps,
//! across every crate through the facade.

use response::apps::{run_streaming, StreamingConfig};
use response::core::replay::max_supported_scale;
use response::core::{steady_state_replay, TeConfig};
use response::prelude::*;
use response::simnet::{SimConfig, Simulation};
use response::topo::gen;
use response::traffic::{geant_like_trace, gravity_matrix, random_od_pairs_subset};

#[test]
fn plan_replay_simulate_geant() {
    let topo = gen::geant();
    let power = PowerModel::cisco12000();
    let pairs = random_od_pairs_subset(&topo, 12, 60, 7);

    // Plan.
    let tables = Planner::new(&topo, &power).plan_pairs(&PlannerConfig::default(), &pairs);
    assert_eq!(tables.len(), pairs.len());
    assert_eq!(tables.validate(&topo), Ok(()));

    // The resting state saves power.
    let resting = power.network_power(&topo, &tables.always_on_active(&topo));
    assert!(resting < power.full_power(&topo));

    // Replay a short trace scaled to the installed capacity.
    let te = TeConfig::default();
    let base = gravity_matrix(&topo, &pairs, 1e9);
    let aon = max_supported_scale(&topo, &tables, &base, &te, 1)
        .expect("the 1 Gbps base is inside the probe bracket");
    assert!(aon > 0.0);
    let trace = geant_like_trace(&topo, &pairs, 1, 1e9 * aon, 7);
    let rep = steady_state_replay(&topo, &power, &tables, &trace, &te);
    assert_eq!(rep.points.len(), trace.len());
    assert!(rep.mean_power_fraction() < 1.0);
    assert!(
        rep.congested_fraction() < 0.2,
        "night traffic must fit comfortably"
    );

    // Drive the event simulator with the same tables.
    let mut sim = Simulation::new(&topo, &power, &tables, SimConfig::default());
    let (o, d) = pairs[0];
    let f = sim.add_flow(&tables, o, d, 1e6);
    sim.run_until(2.0);
    assert!(
        (sim.delivered_rate(f) - 1e6).abs() < 1.0,
        "uncongested flow fully delivered"
    );
    assert!(sim.power_w() <= power.full_power(&topo));
}

#[test]
fn fig3_example_matches_paper_narrative() {
    // The paper's worked example: A, B, C share the always-on middle
    // path E-H-K; D-G-K and F-J-K stay dark until needed.
    let (topo, n) = gen::fig3(
        10.0 * response::topo::MBPS,
        16.67 * response::topo::MS,
        true,
    );
    let power = PowerModel::cisco12000();
    let pairs = vec![(n.a, n.k), (n.b, n.k), (n.c, n.k)];
    let tables = Planner::new(&topo, &power).plan_pairs(&PlannerConfig::default(), &pairs);

    for (_, od) in tables.iter() {
        assert!(
            od.always_on.visits(n.e) && od.always_on.visits(n.h),
            "all sources share the middle always-on path: {}",
            od.always_on
        );
    }
    let resting = tables.always_on_active(&topo);
    assert!(
        !resting.node_on(n.d) || !resting.node_on(n.g),
        "upper path dark"
    );
    assert!(
        !resting.node_on(n.f) || !resting.node_on(n.j),
        "lower path dark"
    );
}

#[test]
fn streaming_over_planned_paths_plays() {
    let topo = gen::abovenet();
    let power = PowerModel::cisco12000();
    let server = response::topo::NodeId(0);
    let clients: Vec<_> = topo.node_ids().filter(|&x| x != server).take(5).collect();
    let pairs: Vec<_> = clients.iter().map(|&c| (server, c)).collect();
    let tables = Planner::new(&topo, &power).plan_pairs(&PlannerConfig::default(), &pairs);

    let placement: Vec<_> = clients.iter().map(|&c| (c, 0.0)).collect();
    let res = run_streaming(
        &topo,
        &power,
        &tables,
        server,
        &placement,
        &StreamingConfig {
            duration: 20.0,
            ..Default::default()
        },
        &SimConfig::default(),
    );
    assert_eq!(res.playable_percent(), 100.0, "{:?}", res.clients);
    assert!(res.mean_power_fraction < 1.0);
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that the prelude covers the common workflow.
    let topo = gen::line(3, response::topo::MBPS, response::topo::MS);
    let _p: Path = Path::new(vec![response::topo::NodeId(0), response::topo::NodeId(1)]);
    let _a = ActiveSet::all_on(&topo);
    let _m: TrafficMatrix = TrafficMatrix::empty();
    let _b: TopologyBuilder = TopologyBuilder::new("x");
}
