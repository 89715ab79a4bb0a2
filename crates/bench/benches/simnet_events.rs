//! Simulator throughput: simulated seconds per wall second on the
//! Fig.-3 Click topology with active REsPoNseTE control.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecp_power::PowerModel;
use ecp_simnet::{SimConfig, Simulation};
use ecp_topo::gen::fig3_click;
use ecp_topo::Path;
use respons_core::tables::OdPaths;
use respons_core::PathTables;

fn sim_setup() -> (ecp_topo::Topology, PathTables, ecp_topo::gen::Fig3Nodes) {
    let (t, n) = fig3_click();
    let mut pt = PathTables::new();
    pt.insert(
        n.a,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.a, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.a, n.d, n.g, n.k])],
            failover: Path::new(vec![n.a, n.d, n.g, n.k]),
        },
    );
    pt.insert(
        n.c,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.c, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.c, n.f, n.j, n.k])],
            failover: Path::new(vec![n.c, n.f, n.j, n.k]),
        },
    );
    (t, pt, n)
}

fn simnet_run(c: &mut Criterion) {
    let pm = PowerModel::cisco12000();
    let (t, pt, n) = sim_setup();
    let mut g = c.benchmark_group("simnet_simulated_seconds");
    for secs in [10u64, 60, 300] {
        g.bench_with_input(BenchmarkId::from_parameter(secs), &secs, |b, &secs| {
            b.iter(|| {
                let mut sim = Simulation::new(&t, &pm, &pt, SimConfig::default());
                let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
                let _fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
                sim.schedule_demand(secs as f64 / 2.0, fa, 7e6);
                sim.run_until(secs as f64);
                assert!(!sim.series().samples().is_empty());
            })
        });
    }
    g.finish();
}

criterion_group!(benches, simnet_run);
criterion_main!(benches);
