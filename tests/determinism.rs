//! Whole-pipeline determinism: identical seeds must reproduce identical
//! plans, replays, and simulations — the property every experiment
//! binary relies on.

use response::core::{steady_state_replay, TeConfig};
use response::prelude::*;
use response::topo::gen;
use response::traffic::{geant_like_trace, random_od_pairs};

fn pipeline_fingerprint(seed: u64) -> String {
    let topo = gen::geant();
    let power = PowerModel::cisco12000();
    let pairs = random_od_pairs(&topo, 40, seed);
    let tables = Planner::new(&topo, &power).plan_pairs(&PlannerConfig::default(), &pairs);
    let trace = geant_like_trace(&topo, &pairs, 1, 2e9, seed);
    let rep = steady_state_replay(&topo, &power, &tables, &trace, &TeConfig::default());
    let powers: Vec<String> = rep
        .points
        .iter()
        .step_by(8)
        .map(|p| format!("{:.6}", p.power_frac))
        .collect();
    format!(
        "{}|{}",
        serde_json::to_string(&tables).unwrap().len(),
        powers.join(",")
    )
}

#[test]
fn identical_seeds_identical_results() {
    assert_eq!(pipeline_fingerprint(11), pipeline_fingerprint(11));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(pipeline_fingerprint(11), pipeline_fingerprint(12));
}

#[test]
fn simulation_runs_are_reproducible() {
    let run = || {
        let (topo, n) = gen::fig3_click();
        let power = PowerModel::cisco12000();
        let pairs = vec![(n.a, n.k), (n.c, n.k)];
        let tables = Planner::new(&topo, &power).plan_pairs(&PlannerConfig::default(), &pairs);
        let mut sim = response::simnet::Simulation::new(
            &topo,
            &power,
            &tables,
            response::simnet::SimConfig::default(),
        );
        let fa = sim.add_flow(&tables, n.a, n.k, 2e6);
        sim.schedule_demand(1.0, fa, 8e6);
        let eh = topo.find_arc(n.e, n.h).unwrap();
        sim.schedule_link_failure(2.0, eh);
        sim.run_until(4.0);
        sim.series()
            .samples()
            .iter()
            .map(|s| (s.power_w.to_bits(), s.delivered_total.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "bit-for-bit reproducible");
}
