//! Property-based tests on the topology substrate.

use ecp_topo::algo::{
    is_connected, k_shortest_paths, link_disjoint_path, max_flow, reachable_from, shortest_path,
    shortest_path_bounded, Dijkstra, DisjointSearch, ShortestPathTrees,
};
use ecp_topo::gen::random_waxman;
use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology, TopologyBuilder, MBPS, MS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

fn arb_topo() -> impl Strategy<Value = ecp_topo::Topology> {
    (4usize..20, 0u64..500).prop_map(|(n, seed)| random_waxman(n, 0.6, 0.3, 10.0 * MBPS, seed))
}

/// A sparse random graph with one-way arcs, small integer arc weights
/// (so equal-cost ties are everywhere, some arcs forbidden) and an
/// optional random active subset that may cut it apart.
struct TieInstance {
    topo: Topology,
    weights: Vec<f64>,
    active: Option<ActiveSet>,
}

fn tie_instance(n: usize, seed: u64) -> TieInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new("ties");
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("t{i}"))).collect();
    let connect = |b: &mut TopologyBuilder, i: usize, j: usize, rng: &mut StdRng| {
        if rng.gen_bool(0.3) {
            b.add_arc(ids[i], ids[j], MBPS, MS);
        } else {
            b.add_link(ids[i], ids[j], MBPS, MS);
        }
    };
    for i in 1..n {
        let j = rng.gen_range(0..i);
        connect(&mut b, i, j, &mut rng);
    }
    for _ in 0..n {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if i != j {
            connect(&mut b, i, j, &mut rng);
        }
    }
    let topo = b.build();
    let weights = topo
        .arc_ids()
        .map(|_| match rng.gen_range(0..8u32) {
            0 => f64::INFINITY,
            k => (k % 3 + 1) as f64,
        })
        .collect();
    let active = rng.gen_bool(0.6).then(|| {
        let mut s = ActiveSet::all_on(&topo);
        for v in topo.node_ids() {
            if rng.gen_bool(0.1) {
                s.set_node(v, false);
            }
        }
        for l in topo.link_ids() {
            if rng.gen_bool(0.15) {
                s.set_link(&topo, l, false);
            }
        }
        s
    });
    TieInstance {
        topo,
        weights,
        active,
    }
}

/// Reference single-pair Dijkstra: one full search per call, the arc
/// weight and the active subset consulted arc by arc.
fn reference_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    weight: &dyn Fn(ArcId) -> f64,
    active: Option<&ActiveSet>,
) -> Option<Path> {
    #[derive(PartialEq)]
    struct Item(f64, NodeId);
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> Ordering {
            o.0.partial_cmp(&self.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| o.1 .0.cmp(&self.1 .0))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    if src == dst {
        return Some(Path::trivial(src));
    }
    let mut dist = vec![f64::INFINITY; topo.node_count()];
    let mut parent: Vec<Option<ArcId>> = vec![None; topo.node_count()];
    let mut heap = BinaryHeap::new();
    if active.map(|s| s.node_on(src)).unwrap_or(true) {
        dist[src.idx()] = 0.0;
        heap.push(Item(0.0, src));
    }
    while let Some(Item(d, u)) = heap.pop() {
        if d > dist[u.idx()] {
            continue;
        }
        for &a in topo.out_arcs(u) {
            if !active.map(|s| s.arc_on(topo, a)).unwrap_or(true) {
                continue;
            }
            let w = weight(a);
            if !w.is_finite() {
                continue;
            }
            let v = topo.arc(a).dst;
            if d + w + 1e-15 < dist[v.idx()] {
                dist[v.idx()] = d + w;
                parent[v.idx()] = Some(a);
                heap.push(Item(d + w, v));
            }
        }
    }
    if !dist[dst.idx()].is_finite() {
        return None;
    }
    let mut rev = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = topo.arc(parent[cur.idx()]?).src;
        rev.push(cur);
    }
    rev.reverse();
    Path::try_new(rev)
}

/// Reference connectivity: a search from every required node.
fn reference_connected(topo: &Topology, required: &[NodeId], active: Option<&ActiveSet>) -> bool {
    required.iter().all(|&r| {
        let seen = reachable_from(topo, r, active);
        required.iter().all(|&q| seen[q.idx()])
    }) || required.len() <= 1
}

/// `link_disjoint_path` as one self-contained search: the avoid mask
/// and the overlap penalty built afresh for the call.
fn reference_disjoint_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    avoid_paths: &[&Path],
    base_weight: &dyn Fn(ArcId) -> f64,
    active: Option<&ActiveSet>,
) -> Option<(Path, usize)> {
    let mut avoid = vec![false; topo.arc_count()];
    for p in avoid_paths {
        for a in p.arcs(topo).into_iter().flatten() {
            avoid[topo.link_of(a).idx()] = true;
        }
    }
    let shared = |a: ArcId| avoid[topo.link_of(a).idx()];
    let max_w: f64 = topo
        .arc_ids()
        .map(base_weight)
        .filter(|w| w.is_finite())
        .fold(0.0, f64::max);
    let penalty = (max_w + 1.0) * (topo.node_count() as f64 + 1.0);
    let w = |a: ArcId| {
        let base = base_weight(a);
        if !base.is_finite() {
            return f64::INFINITY;
        }
        if shared(a) {
            base + penalty
        } else {
            base
        }
    };
    let path = shortest_path(topo, src, dst, &w, active)?;
    let overlap = path
        .arcs(topo)
        .map(|arcs| arcs.into_iter().filter(|&a| shared(a)).count())
        .unwrap_or(0);
    Some((path, overlap))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One tree per origin answers every pair exactly as a separate
    /// per-pair search does, ties and forbidden arcs included, and
    /// `shortest_path` still matches that search too. Both trees give
    /// the arcs `Path::arcs` resolves, parallel arcs included.
    #[test]
    fn shared_trees_match_per_pair_search(n in 2usize..16, seed in 0u64..100_000) {
        let TieInstance { topo, weights, active } = tie_instance(n, seed);
        let w = |a: ArcId| weights[a.idx()];
        let mut trees = ShortestPathTrees::new(&topo, &w, active.as_ref());
        let mut search = Dijkstra::default();
        let mut arcs = Vec::new();
        for src in topo.node_ids() {
            let src_on = active.as_ref().is_none_or(|s| s.node_on(src));
            search.grow(&topo, src, src_on, |a| match &active {
                Some(s) if !s.arc_on(&topo, a) => f64::INFINITY,
                _ => w(a),
            });
            for dst in topo.node_ids() {
                let expected = reference_path(&topo, src, dst, &w, active.as_ref());
                prop_assert_eq!(&trees.path(&topo, src, dst), &expected);
                prop_assert_eq!(&shortest_path(&topo, src, dst, &w, active.as_ref()), &expected);
                let expected_arcs = expected.as_ref().map(|p| p.arcs(&topo).unwrap());
                arcs.clear();
                let found = trees.path_arcs(&topo, src, dst, &mut arcs);
                prop_assert_eq!(found.then(|| arcs.clone()), expected_arcs.clone());
                arcs.clear();
                let found = search.path_arcs(&topo, src, dst, &mut arcs);
                prop_assert_eq!(found.then(|| arcs.clone()), expected_arcs);
            }
        }
    }

    /// A search grown only until `dst` is settled yields, for every
    /// destination, the same path arcs (or the same refusal) as the full
    /// grow, ties and forbidden arcs included. `shortest_path`, which
    /// stops there too, returns the full tree's path on the active
    /// subset, and nothing from a dark source.
    #[test]
    fn growing_to_dst_matches_the_full_tree(n in 2usize..16, seed in 0u64..100_000) {
        let TieInstance { topo, weights, active } = tie_instance(n, seed);
        let w = |a: ArcId| match &active {
            Some(s) if !s.arc_on(&topo, a) => f64::INFINITY,
            _ => weights[a.idx()],
        };
        let base = |a: ArcId| weights[a.idx()];
        let (mut full, mut early) = (Dijkstra::default(), Dijkstra::default());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for src in topo.node_ids() {
            // A dark source's arcs are all off: the full tree holds only it.
            full.grow(&topo, src, true, w);
            for dst in topo.node_ids() {
                prop_assert_eq!(
                    shortest_path(&topo, src, dst, &base, active.as_ref()),
                    full.path_to(&topo, src, dst)
                );
                early.grow_to(&topo, src, dst, w);
                want.clear();
                got.clear();
                let reached = full.path_arcs(&topo, src, dst, &mut want);
                prop_assert_eq!(early.path_arcs(&topo, src, dst, &mut got), reached);
                prop_assert_eq!(&got, &want, "{} -> {}", src, dst);
            }
        }
    }

    /// One failover search, set up once and asked about every ordered
    /// pair with changing avoid sets, answers each call as a fresh
    /// self-contained search does: one-way arcs, ties, forbidden arcs,
    /// dark elements, unreachable pairs, and avoid paths that are
    /// shortest paths or random node sequences (some with hops the
    /// network has no arc for) included.
    #[test]
    fn reused_failover_search_matches_fresh_search(n in 2usize..14, seed in 0u64..100_000) {
        let TieInstance { topo, weights, active } = tie_instance(n, seed);
        let w = |a: ArcId| weights[a.idx()];
        let mut rng = StdRng::seed_from_u64(!seed);
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let mut pool: Vec<Path> = Vec::new();
        for _ in 0..4 {
            let (o, d) = (*nodes.choose(&mut rng).unwrap(), *nodes.choose(&mut rng).unwrap());
            pool.extend(shortest_path(&topo, o, d, &|_| 1.0, None));
            let mut hops = nodes.clone();
            hops.shuffle(&mut rng);
            hops.truncate(rng.gen_range(1..=n.min(4)));
            pool.push(Path::new(hops));
        }
        let mut search = DisjointSearch::new(&topo, w, active.as_ref());
        for &src in &nodes {
            for &dst in &nodes {
                let avoid: Vec<&Path> = pool.iter().filter(|_| rng.gen_bool(0.4)).collect();
                let want = reference_disjoint_path(&topo, src, dst, &avoid, &w, active.as_ref());
                prop_assert_eq!(&search.path(src, dst, &avoid), &want, "{} -> {}", src, dst);
                prop_assert_eq!(
                    link_disjoint_path(&topo, src, dst, &avoid, &w, active.as_ref()),
                    want
                );
            }
        }
    }

    /// `ActiveSet`'s hash is consistent with its equality: equal sets
    /// hash equal, however they were built.
    #[test]
    fn active_set_hash_agrees_with_eq(n in 2usize..16, seed in 0u64..100_000) {
        use std::hash::{BuildHasher, RandomState};
        let TieInstance { topo, active, .. } = tie_instance(n, seed);
        let hasher = RandomState::new();
        let a = active.unwrap_or_else(|| ActiveSet::all_on(&topo));
        // The same set built in another order, every link switched off
        // and back on first.
        let mut b = ActiveSet::all_on(&topo);
        let links: Vec<ArcId> = topo.link_ids().collect();
        for &l in links.iter().rev() {
            b.set_link(&topo, l, false);
        }
        for &l in &links {
            b.set_link(&topo, l, a.link_bit(&topo, l));
        }
        for v in topo.node_ids().filter(|&v| !a.node_on(v)) {
            b.set_node(v, false);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let first_link = topo.link_ids().next();
        if let Some(l) = first_link {
            b.set_link(&topo, l, !a.link_bit(&topo, l));
            prop_assert_ne!(&a, &b);
        }
    }

    /// The two-search connectivity check agrees with a search from every
    /// required node, one-way arcs and dark elements included.
    #[test]
    fn hub_connectivity_matches_all_sources(
        n in 2usize..16,
        seed in 0u64..100_000,
        picks in proptest::collection::vec(0usize..16, 0..6),
    ) {
        let TieInstance { topo, active, .. } = tie_instance(n, seed);
        let mut required: Vec<NodeId> = picks.iter().map(|&i| NodeId((i % n) as u32)).collect();
        required.dedup();
        prop_assert_eq!(
            is_connected(&topo, &required, active.as_ref()),
            reference_connected(&topo, &required, active.as_ref())
        );
    }

    /// Dijkstra distances satisfy the triangle inequality property:
    /// d(s, v) <= d(s, u) + w(u, v) for every arc u->v.
    #[test]
    fn dijkstra_relaxation_holds(topo in arb_topo()) {
        let src = NodeId(0);
        let w = |a: ecp_topo::ArcId| topo.arc(a).latency;
        let (dist, _) = ecp_topo::algo::shortest_path_tree(&topo, src, &w, None);
        for a in topo.arc_ids() {
            let arc = topo.arc(a);
            let du = dist[arc.src.idx()];
            let dv = dist[arc.dst.idx()];
            if du.is_finite() {
                prop_assert!(dv <= du + arc.latency + 1e-9);
            }
        }
    }

    /// Any path returned by shortest_path is valid, loop-free, and
    /// connects the endpoints; its cost matches the tree distance.
    #[test]
    fn shortest_path_is_consistent(topo in arb_topo(), dst_ix in 1usize..20) {
        let src = NodeId(0);
        let dst = NodeId((dst_ix % topo.node_count()) as u32);
        prop_assume!(src != dst);
        let w = |a: ecp_topo::ArcId| topo.arc(a).latency;
        if let Some(p) = shortest_path(&topo, src, dst, &w, None) {
            prop_assert!(p.is_valid_in(&topo));
            prop_assert_eq!(p.origin(), src);
            prop_assert_eq!(p.destination(), dst);
            let (dist, _) = ecp_topo::algo::shortest_path_tree(&topo, src, &w, None);
            prop_assert!((p.latency(&topo) - dist[dst.idx()]).abs() < 1e-9);
        }
    }

    /// Yen's paths are sorted by cost and pairwise distinct.
    #[test]
    fn yen_sorted_distinct(topo in arb_topo(), k in 1usize..6) {
        let src = NodeId(0);
        let dst = NodeId((topo.node_count() - 1) as u32);
        let w = |a: ecp_topo::ArcId| topo.arc(a).latency;
        let ps = k_shortest_paths(&topo, src, dst, k, &w, None);
        for win in ps.windows(2) {
            prop_assert!(win[0].latency(&topo) <= win[1].latency(&topo) + 1e-9);
            prop_assert_ne!(&win[0], &win[1]);
        }
        for p in &ps {
            prop_assert!(p.is_valid_in(&topo));
        }
    }

    /// The delay-bounded search never violates its bound and never beats
    /// the unbounded optimum.
    #[test]
    fn bounded_search_respects_bound(topo in arb_topo(), slack in 1.0f64..3.0) {
        let src = NodeId(0);
        let dst = NodeId((topo.node_count() / 2) as u32);
        prop_assume!(src != dst);
        let lat = |a: ecp_topo::ArcId| topo.arc(a).latency;
        let hop = |_: ecp_topo::ArcId| 1.0;
        if let Some(fastest) = shortest_path(&topo, src, dst, &lat, None) {
            let bound = fastest.latency(&topo) * slack;
            if let Some(p) = shortest_path_bounded(&topo, src, dst, &hop, bound, None) {
                prop_assert!(p.latency(&topo) <= bound + 1e-9);
                let unbounded = shortest_path(&topo, src, dst, &hop, None).unwrap();
                prop_assert!(p.hops() >= unbounded.hops());
            }
        }
    }

    /// Max-flow is monotone under link removal.
    #[test]
    fn maxflow_monotone_under_removal(topo in arb_topo(), kill in 0usize..8) {
        let s = NodeId(0);
        let t = NodeId((topo.node_count() - 1) as u32);
        let full = max_flow(&topo, s, t, None);
        let mut active = ActiveSet::all_on(&topo);
        let links: Vec<_> = topo.link_ids().collect();
        if !links.is_empty() {
            active.set_link(&topo, links[kill % links.len()], false);
        }
        let reduced = max_flow(&topo, s, t, Some(&active));
        prop_assert!(reduced <= full + 1e-6);
    }

    /// from_used_arcs + prune never leaves a powered node without an
    /// active adjacent link (constraint 3 of the paper's model).
    #[test]
    fn active_set_prune_invariant(topo in arb_topo(), n_arcs in 0usize..10) {
        let arcs: Vec<_> = topo.arc_ids().take(n_arcs).collect();
        let mut s = ActiveSet::from_used_arcs(&topo, arcs);
        s.prune_isolated_nodes(&topo);
        for node in topo.node_ids() {
            if s.node_on(node) {
                let any_active = topo
                    .out_arcs(node)
                    .iter()
                    .chain(topo.in_arcs(node).iter())
                    .any(|&a| s.arc_on(&topo, a));
                prop_assert!(any_active, "powered node {node} has no active link");
            }
        }
    }
}
