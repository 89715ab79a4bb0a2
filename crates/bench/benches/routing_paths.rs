//! Offline path-construction kernels: Dijkstra single-source shortest
//! paths and Yen's k-shortest enumeration over the ISP maps — the cost
//! the planner pays per OD pair, and what the `ecp-scenario`
//! resolve-memoization (ISSUE 5) avoids re-running per sweep grid
//! point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecp_routing::ospf::invcap_weight;
use ecp_topo::algo::{k_shortest_paths, shortest_path, ShortestPathTrees};
use ecp_topo::gen::{geant, pop_access, PopAccessConfig};
use ecp_topo::{NodeId, Topology};

fn isp_topos() -> Vec<(&'static str, Topology)> {
    vec![
        ("geant", geant()),
        ("pop-access", pop_access(&PopAccessConfig::default())),
    ]
}

/// A deterministic spread of OD pairs over the topology.
fn sample_pairs(topo: &Topology, n: usize) -> Vec<(NodeId, NodeId)> {
    let count = topo.node_count() as u32;
    (0..n as u32)
        .map(|i| {
            let o = (i * 7 + 1) % count;
            let d = (i * 13 + count / 2) % count;
            (NodeId(o), NodeId(if d == o { (d + 1) % count } else { d }))
        })
        .filter(|(o, d)| o != d)
        .collect()
}

fn dijkstra(c: &mut Criterion) {
    let mut g = c.benchmark_group("dijkstra_shortest_path");
    for (name, topo) in isp_topos() {
        let w = invcap_weight(&topo);
        let pairs = sample_pairs(&topo, 10);
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| {
                pairs
                    .iter()
                    .filter_map(|&(o, d)| shortest_path(&topo, o, d, &w, None))
                    .count()
            })
        });
    }
    g.finish();
}

/// The planner's and oracle's batch form: all pairs of a planned table
/// read from one shortest-path tree per origin, against one search per
/// pair.
fn shared_trees(c: &mut Criterion) {
    let mut g = c.benchmark_group("dijkstra_all_edge_pairs");
    for (name, topo) in isp_topos() {
        let w = invcap_weight(&topo);
        let edge = topo.edge_nodes();
        let pairs: Vec<(NodeId, NodeId)> = edge
            .iter()
            .flat_map(|&o| edge.iter().filter(move |&&d| d != o).map(move |&d| (o, d)))
            .collect();
        g.bench_with_input(BenchmarkId::new("per_pair", name), &(), |b, _| {
            b.iter(|| {
                pairs
                    .iter()
                    .filter_map(|&(o, d)| shortest_path(&topo, o, d, &w, None))
                    .count()
            })
        });
        g.bench_with_input(BenchmarkId::new("per_origin", name), &(), |b, _| {
            b.iter(|| {
                let mut trees = ShortestPathTrees::new(&topo, &w, None);
                pairs
                    .iter()
                    .filter_map(|&(o, d)| trees.path(&topo, o, d))
                    .count()
            })
        });
    }
    g.finish();
}

fn yen(c: &mut Criterion) {
    let mut g = c.benchmark_group("yen_k_shortest_k3");
    g.sample_size(10);
    for (name, topo) in isp_topos() {
        let w = invcap_weight(&topo);
        let pairs = sample_pairs(&topo, 5);
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| {
                pairs
                    .iter()
                    .map(|&(o, d)| k_shortest_paths(&topo, o, d, 3, &w, None).len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, dijkstra, shared_trees, yen);
criterion_main!(benches);
