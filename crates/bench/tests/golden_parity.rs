//! Golden-parity tests: the scenario-ported experiments must reproduce
//! the pre-port hand-wired pipelines sample for sample.
//!
//! Each test re-implements the seed binary's setup inline (scaled down
//! for test time) and compares against the registry scenario's report
//! with exact float equality — any drift in pair sampling, trace
//! synthesis, planning, or replay order fails the test.

use ecp_power::PowerModel;
use ecp_scenario::{run_scenario, AppDetail};
use ecp_topo::gen::{fat_tree, geant, FatTreeConfig};
use ecp_traffic::{
    fat_tree_far_pairs, fat_tree_near_pairs, geant_like_trace, random_od_pairs_subset, sine_series,
    uniform_matrix, Trace,
};
use respons_core::{steady_state_replay, OnDemandStrategy, Planner, PlannerConfig, TeConfig};

fn series_of(report: &ecp_scenario::ScenarioReport) -> Vec<f64> {
    report
        .power_series
        .as_deref()
        .expect("power series selected")
        .iter()
        .map(|&(_, f)| f)
        .collect()
}

/// Fig. 4 — the seed pipeline: demand-aware tables (5 paths, peak
/// matrix) replayed over a per-flow sine, plus the ECMP and optimal
/// baselines.
#[test]
fn fig4_scenario_matches_seed_pipeline() {
    let steps = 6;
    let k = 4;
    let (topo, ix) = fat_tree(&FatTreeConfig {
        k,
        ..Default::default()
    });
    let pm = PowerModel::commodity_dc();
    let te = TeConfig::default();
    let demand = sine_series(steps, steps, 0.02e9, 0.9e9);

    for (far, pairs) in [
        (false, fat_tree_near_pairs(&ix)),
        (true, fat_tree_far_pairs(&ix)),
    ] {
        let cfg = PlannerConfig {
            num_paths: 5,
            strategy: OnDemandStrategy::PeakMatrix(uniform_matrix(&pairs, 0.9e9)),
            ..Default::default()
        };
        let tables = Planner::new(&topo, &pm).plan_pairs(&cfg, &pairs);
        let trace = Trace {
            name: "seed".into(),
            interval_s: 1.0,
            matrices: demand.iter().map(|&v| uniform_matrix(&pairs, v)).collect(),
        };
        let seed_series: Vec<f64> = steady_state_replay(&topo, &pm, &tables, &trace, &te)
            .points
            .iter()
            .map(|p| p.power_frac)
            .collect();

        let report = run_scenario(&ecp_bench::scenarios::fig4(steps, k, far)).unwrap();
        assert_eq!(series_of(&report), seed_series, "far={far}");

        if far {
            // Baselines: ECMP keeps the whole fabric on; optimal bounds
            // the peak configuration.
            let detail = report.replay.as_ref().unwrap();
            let ecmp = ecp_routing::ecmp_routes(&topo, &pairs, 16);
            let ecmp_frac = ecp_power::power_fraction(&pm, &topo, &ecmp.active_set(&topo));
            let oc = ecp_routing::OracleConfig::default();
            let opt = ecp_routing::optimal_subset(&topo, &pm, &uniform_matrix(&pairs, 0.9e9), &oc)
                .map(|r| r.power_w / pm.full_power(&topo))
                .unwrap();
            let find = |name: &str| {
                detail
                    .comparisons
                    .iter()
                    .find(|c| c.name == name)
                    .unwrap()
                    .series
                    .clone()
            };
            assert_eq!(find("ecmp"), vec![ecmp_frac]);
            assert_eq!(find("optimal_at_peak"), vec![opt]);
        }
    }
}

/// Fig. 5 — the seed pipeline: always-on-scaled (capped) GÉANT-like
/// trace replayed over planned tables, plus the alternative-hardware
/// replay of the *same* trace.
#[test]
fn fig5_scenario_matches_seed_pipeline() {
    let (days, pairs_n, nodes_n, seed) = (1usize, 30usize, 10usize, 1u64);
    let topo = geant();
    let pm = PowerModel::cisco12000();
    let te = TeConfig::default();
    let pairs = random_od_pairs_subset(&topo, nodes_n, pairs_n, seed);
    let tables = Planner::new(&topo, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
    let base = ecp_traffic::gravity_matrix(&topo, &pairs, 1e9);
    let aon = respons_core::replay::max_supported_scale(&topo, &tables, &base, &te, 1);
    let all = respons_core::replay::max_supported_scale(&topo, &tables, &base, &te, 3);
    let peak = (1e9 * aon * 1.15).min(1e9 * all * 0.95);
    let trace = geant_like_trace(&topo, &pairs, days, peak, seed);
    let rep = steady_state_replay(&topo, &pm, &tables, &trace, &te);

    let pm_alt = PowerModel::alternative_hw();
    let tables_alt = Planner::new(&topo, &pm_alt).plan_pairs(&PlannerConfig::default(), &pairs);
    let rep_alt = steady_state_replay(&topo, &pm_alt, &tables_alt, &trace, &te);

    let report = run_scenario(&ecp_bench::scenarios::fig5(
        days, pairs_n, nodes_n, 1.15, seed,
    ))
    .unwrap();
    let resolved_peak = report.replay.as_ref().unwrap().trace_peak_bps.unwrap();
    assert_eq!(resolved_peak, peak, "trace peak resolves identically");
    let seed_series: Vec<f64> = rep.points.iter().map(|p| p.power_frac).collect();
    assert_eq!(series_of(&report), seed_series);
    assert_eq!(report.mean_power_frac, rep.mean_power_fraction());
    assert_eq!(report.congested_fraction.unwrap(), rep.congested_fraction());

    let report_alt = run_scenario(&ecp_bench::scenarios::fig5_alt_hw(
        days,
        pairs_n,
        nodes_n,
        resolved_peak,
        seed,
    ))
    .unwrap();
    let alt_series: Vec<f64> = rep_alt.points.iter().map(|p| p.power_frac).collect();
    assert_eq!(series_of(&report_alt), alt_series);
}

/// Fig. 7 — the seed pipeline: the hand-wired Click-testbed adaptation
/// run (paper tables, spread pre-TE shares, TE start at t = 5 s, middle
/// link failing at t = 5.7 s). The scenario engine must reproduce the
/// recorder series **sample for sample, including the t = 0 sample**:
/// historically the engine was documented as differing from the seed in
/// that first sample, so this test both pins parity and states the
/// resolved behavior — the series starts from the true initial state
/// (shares spread 50/50, both candidate paths awake and delivering)
/// *before* any control round has run.
#[test]
fn fig7_scenario_matches_seed_pipeline_including_t0() {
    use ecp_simnet::{SimConfig, Simulation};
    use ecp_topo::gen::fig3_click;
    use ecp_topo::Path;
    use respons_core::tables::OdPaths;
    use respons_core::PathTables;

    let duration = 8.0;
    let (topo, n) = fig3_click();
    let pm = PowerModel::cisco12000();
    let mut tables = PathTables::new();
    tables.insert(
        n.a,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.a, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.a, n.d, n.g, n.k])],
            failover: Path::new(vec![n.a, n.d, n.g, n.k]),
        },
    );
    tables.insert(
        n.c,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.c, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.c, n.f, n.j, n.k])],
            failover: Path::new(vec![n.c, n.f, n.j, n.k]),
        },
    );
    let cfg = SimConfig {
        te: TeConfig::default(),
        control_interval: 0.1,
        wake_time: 0.01,
        detect_delay: 0.1,
        sleep_after: 0.2,
        sample_interval: 0.05,
        te_start: 5.0,
    };
    let mut sim = Simulation::new(&topo, &pm, &tables, cfg);
    let fa = sim.add_flow(&tables, n.a, n.k, 2.5e6);
    let fc = sim.add_flow(&tables, n.c, n.k, 2.5e6);
    sim.set_shares(fa, vec![0.5, 0.5]);
    sim.set_shares(fc, vec![0.5, 0.5]);
    let eh = topo.find_arc(n.e, n.h).unwrap();
    sim.schedule_link_failure(5.7, eh);
    sim.run_until(duration);
    let seed_samples = sim.series();

    let report = run_scenario(&ecp_bench::scenarios::fig7(duration)).unwrap();
    let engine_samples = report.per_path_samples.as_ref().unwrap();
    assert_eq!(engine_samples, seed_samples, "bit-identical series");

    // The t = 0 sample is the true pre-TE initial state: both flows
    // spread 50/50, every candidate path delivering its half.
    let (first, rates) = engine_samples.rows().next().unwrap();
    assert_eq!(first.t, 0.0);
    assert_eq!(
        rates.iter().collect::<Vec<_>>(),
        vec![vec![1.25e6, 1.25e6], vec![1.25e6, 1.25e6]],
        "series starts from the spread initial state, not a post-round one"
    );
    assert_eq!(first.offered_total, 5e6);
    assert_eq!(first.delivered_total, 5e6);
}

/// Fig. 9 — the seed pipeline: seeded client waves streaming over
/// REsPoNse-lat and OSPF-InvCap tables on Abovenet.
#[test]
fn fig9_scenario_matches_seed_pipeline() {
    use ecp_apps::{run_streaming, tables_from_routes, StreamingConfig};
    use ecp_simnet::SimConfig;
    use ecp_topo::gen::abovenet;
    use ecp_topo::NodeId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (clients_n, duration, runs) = (5usize, 30.0, 2usize);
    let topo = abovenet();
    let pm = PowerModel::cisco12000();
    let server = NodeId(0);
    let others: Vec<NodeId> = topo.node_ids().filter(|&n| n != server).collect();
    let pairs: Vec<(NodeId, NodeId)> = others.iter().map(|&n| (server, n)).collect();
    let planner = Planner::new(&topo, &pm);
    let t_rep = planner.plan_pairs(
        &PlannerConfig {
            beta: Some(0.25),
            ..Default::default()
        },
        &pairs,
    );
    let t_inv = tables_from_routes(&ecp_routing::ospf_invcap(&topo, &pairs, None));
    let sim_cfg = SimConfig {
        te: TeConfig::default(),
        control_interval: 0.2,
        wake_time: 0.1,
        detect_delay: 0.2,
        sleep_after: 1.0,
        sample_interval: 0.5,
        te_start: 0.0,
    };
    let stream_cfg = StreamingConfig {
        duration,
        ..Default::default()
    };

    for (invcap, tables) in [(false, &t_rep), (true, &t_inv)] {
        let report = run_scenario(&ecp_bench::scenarios::fig9(
            clients_n, duration, runs, invcap,
        ))
        .unwrap();
        let got = match report.app.unwrap() {
            AppDetail::Streaming { runs } => runs,
            _ => panic!("streaming report expected"),
        };
        assert_eq!(got.len(), runs);
        for (r, stats) in got.iter().enumerate() {
            // The seed binary's placement: waves at t=0 and duration/2,
            // rng seeded with `run + 7`.
            let mut rng = StdRng::seed_from_u64(r as u64 + 7);
            let mut placement: Vec<(NodeId, f64)> = (0..clients_n)
                .map(|_| (others[rng.gen_range(0..others.len())], 0.0))
                .collect();
            placement.extend(
                (0..clients_n).map(|_| (others[rng.gen_range(0..others.len())], duration / 2.0)),
            );
            let res = run_streaming(
                &topo,
                &pm,
                tables,
                server,
                &placement,
                &stream_cfg,
                &sim_cfg,
            );
            assert_eq!(
                stats.wave_playable_pct[0],
                res.playable_percent_where(|c| c.joined_at == 0.0),
                "run {r} invcap={invcap}"
            );
            assert_eq!(stats.playable_pct, res.playable_percent());
            assert_eq!(stats.mean_block_latency_s, res.mean_block_latency());
            assert_eq!(stats.mean_power_fraction, res.mean_power_fraction);
        }
    }
}
