//! Feasibility-oracle throughput: demands placed per second on GÉANT.
//!
//! The oracle is the inner loop of every subset optimizer; its speed
//! bounds how fast the recompute-per-change baselines can possibly run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecp_routing::{max_feasible_volume, place_flows, OracleConfig};
use ecp_topo::gen::geant;
use ecp_traffic::{gravity_matrix, random_od_pairs};

fn oracle_throughput(c: &mut Criterion) {
    let topo = geant();
    let oc = OracleConfig::default();
    let mut g = c.benchmark_group("oracle_place_flows_geant");
    for demands in [50usize, 150, 450] {
        let pairs = random_od_pairs(&topo, demands, 5);
        let tm = gravity_matrix(&topo, &pairs, topo.total_capacity() * 0.02);
        g.bench_with_input(BenchmarkId::from_parameter(demands), &demands, |b, _| {
            b.iter(|| {
                let r = place_flows(&topo, None, &tm, &oc);
                assert!(r.is_some());
            })
        });
    }
    g.finish();
}

/// The §5.1 max-load probe: a few dozen oracle calls on one network,
/// all served by one bound oracle whose trees are grown once.
fn max_load_probe(c: &mut Criterion) {
    let topo = geant();
    let oc = OracleConfig::default();
    let mut g = c.benchmark_group("max_feasible_volume_geant");
    g.sample_size(10);
    for demands in [50usize, 150] {
        let pairs = random_od_pairs(&topo, demands, 5);
        g.bench_with_input(BenchmarkId::from_parameter(demands), &demands, |b, _| {
            b.iter(|| assert!(max_feasible_volume(&topo, &pairs, &oc) > 0.0))
        });
    }
    g.finish();
}

criterion_group!(benches, oracle_throughput, max_load_probe);
criterion_main!(benches);
