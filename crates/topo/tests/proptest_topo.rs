//! Property-based tests on the topology substrate.

use ecp_topo::algo::{
    is_connected, k_shortest_paths, link_disjoint_path, max_flow, reachable_from, shortest_path,
    shortest_path_bounded, shortest_path_tree, Dijkstra, DisjointSearch, ShortestPathTrees,
};
use ecp_topo::gen::random_waxman;
use ecp_topo::{ActiveSet, ArcId, MinEntry, NodeId, Path, Topology, TopologyBuilder, MBPS, MS};
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

/// A random two-way network: a random spanning tree plus as many extra
/// links (parallel ones included), latencies of 1 to 4 ms, every arc
/// weighted by `kind` (0: unit, so every path of equal hop count ties;
/// 1: small integers, some arcs forbidden; else: random reals) and a
/// random active subset that may cut it apart, half the time.
fn two_way_instance(n: usize, kind: u8, seed: u64) -> TieInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new("two-way");
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("w{i}"))).collect();
    let link = |b: &mut TopologyBuilder, i: usize, j: usize, rng: &mut StdRng| {
        b.add_link(ids[i], ids[j], MBPS, rng.gen_range(1..5u32) as f64 * MS);
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
    let weights = topo
        .arc_ids()
        .map(|_| match kind {
            0 => 1.0,
            1 => match rng.gen_range(0..8u32) {
                0 => f64::INFINITY,
                k => (k % 3 + 1) as f64,
            },
            _ => rng.gen_range(0.0..10.0),
        })
        .collect();
    let active = rng.gen_bool(0.5).then(|| {
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

/// The heap item of the float-keyed searches: a min-heap on `dist` with
/// the node id as a deterministic tiebreak.
#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist with node id as a deterministic tiebreak.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reference shortest-path tree: the float-keyed search `Dijkstra`
/// grows, as it stood before its queue ordered one integer key. Returns
/// `(dist, parent)`; with `stop` the search ends once that node is
/// settled.
fn reference_grow(
    topo: &Topology,
    src: NodeId,
    src_on: bool,
    stop: Option<NodeId>,
    weight: impl Fn(ArcId) -> f64,
) -> (Vec<f64>, Vec<Option<ArcId>>) {
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<ArcId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    if src_on {
        dist[src.idx()] = 0.0;
        heap.push(HeapItem {
            dist: 0.0,
            node: src,
        });
    }
    while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
        if d > dist[u.idx()] {
            continue; // stale entry
        }
        if stop == Some(u) {
            break;
        }
        for &a in topo.out_arcs(u) {
            let w = weight(a);
            if !w.is_finite() {
                continue;
            }
            debug_assert!(w >= 0.0, "negative arc weight");
            let v = topo.arc(a).dst;
            let nd = d + w;
            if nd + 1e-15 < dist[v.idx()] {
                dist[v.idx()] = nd;
                parent[v.idx()] = Some(a);
                heap.push(HeapItem { dist: nd, node: v });
            }
        }
    }
    (dist, parent)
}

/// `weight` on the active subset, `INFINITY` off it.
fn on_active<'a>(
    topo: &'a Topology,
    weight: impl Fn(ArcId) -> f64 + 'a,
    active: Option<&'a ActiveSet>,
) -> impl Fn(ArcId) -> f64 + 'a {
    move |a| match active {
        Some(s) if !s.arc_on(topo, a) => f64::INFINITY,
        _ => weight(a),
    }
}

/// The arcs of the reference tree's path from `src` to `dst`, each hop
/// resolved to the first arc between its two nodes as `Path::arcs` does.
fn reference_arcs(
    topo: &Topology,
    parent: &[Option<ArcId>],
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<ArcId>> {
    let mut arcs = Vec::new();
    let mut cur = dst;
    while cur != src {
        let prev = topo.arc(parent[cur.idx()]?).src;
        arcs.push(topo.find_arc(prev, cur).unwrap());
        cur = prev;
    }
    arcs.reverse();
    Some(arcs)
}

/// Reference single-pair Dijkstra: one full reference search per call,
/// the active subset applied to the weight arc by arc.
fn reference_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    weight: &dyn Fn(ArcId) -> f64,
    active: Option<&ActiveSet>,
) -> Option<Path> {
    if src == dst {
        return Some(Path::trivial(src));
    }
    let src_on = active.map(|s| s.node_on(src)).unwrap_or(true);
    let (dist, parent) = reference_grow(topo, src, src_on, None, on_active(topo, weight, active));
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

/// Reference delay-bounded search: `shortest_path_bounded` as it stood
/// with float-keyed queues, its latency lower bound a [`HeapItem`]
/// search and its labels queued by cost, ties broken by label id.
fn reference_bounded(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    weight: &dyn Fn(ArcId) -> f64,
    delay_bound: f64,
    active: Option<&ActiveSet>,
) -> Option<Path> {
    let arc_usable = |a: ArcId| active.map(|s| s.arc_on(topo, a)).unwrap_or(true);
    if src == dst {
        return Some(Path::trivial(src));
    }
    let lat_to_dst = {
        let n = topo.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        if active.map(|s| s.node_on(dst)).unwrap_or(true) {
            dist[dst.idx()] = 0.0;
            heap.push(HeapItem {
                dist: 0.0,
                node: dst,
            });
        }
        while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
            if d > dist[u.idx()] {
                continue;
            }
            for &a in topo.in_arcs(u) {
                if !arc_usable(a) {
                    continue;
                }
                let v = topo.arc(a).src;
                let nd = d + topo.arc(a).latency;
                if nd + 1e-15 < dist[v.idx()] {
                    dist[v.idx()] = nd;
                    heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }
        dist
    };
    if lat_to_dst[src.idx()] > delay_bound + 1e-12 {
        return None;
    }

    #[derive(Clone)]
    struct Label {
        cost: f64,
        delay: f64,
        node: NodeId,
        parent: Option<usize>,
    }
    let mut labels: Vec<Label> = Vec::new();
    let mut pareto: Vec<Vec<usize>> = vec![Vec::new(); topo.node_count()];

    #[derive(PartialEq)]
    struct QItem {
        cost: f64,
        id: usize,
    }
    impl Eq for QItem {}
    impl Ord for QItem {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for QItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap: BinaryHeap<QItem> = BinaryHeap::new();
    labels.push(Label {
        cost: 0.0,
        delay: 0.0,
        node: src,
        parent: None,
    });
    pareto[src.idx()].push(0);
    heap.push(QItem { cost: 0.0, id: 0 });

    while let Some(QItem { cost, id }) = heap.pop() {
        let lab = labels[id].clone();
        if cost > lab.cost + 1e-15 {
            continue;
        }
        if lab.node == dst {
            let mut rev_nodes = vec![dst];
            let mut cur = &labels[id];
            while let Some(p) = cur.parent {
                cur = &labels[p];
                rev_nodes.push(cur.node);
            }
            rev_nodes.reverse();
            return Path::try_new(rev_nodes);
        }
        for &a in topo.out_arcs(lab.node) {
            if !arc_usable(a) {
                continue;
            }
            let w = weight(a);
            if !w.is_finite() {
                continue;
            }
            let arc = topo.arc(a);
            let nd = lab.delay + arc.latency;
            if nd + lat_to_dst[arc.dst.idx()] > delay_bound + 1e-12 {
                continue;
            }
            let nc = lab.cost + w;
            let dominated = pareto[arc.dst.idx()]
                .iter()
                .any(|&li| labels[li].cost <= nc + 1e-15 && labels[li].delay <= nd + 1e-15);
            if dominated {
                continue;
            }
            let mut is_loop = false;
            let mut cur = Some(id);
            while let Some(ci) = cur {
                if labels[ci].node == arc.dst {
                    is_loop = true;
                    break;
                }
                cur = labels[ci].parent;
            }
            if is_loop {
                continue;
            }
            let nid = labels.len();
            labels.push(Label {
                cost: nc,
                delay: nd,
                node: arc.dst,
                parent: Some(id),
            });
            pareto[arc.dst.idx()]
                .retain(|&li| !(labels[li].cost >= nc - 1e-15 && labels[li].delay >= nd - 1e-15));
            pareto[arc.dst.idx()].push(nid);
            heap.push(QItem { cost: nc, id: nid });
        }
    }
    None
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

/// The failover rule as two searches: the path avoiding every installed
/// path when it shares none of their links, else the path avoiding the
/// always-on path (`installed[0]`) when it shares none of that path's,
/// else the all-avoiding path, else (unreachable) the always-on path.
fn reference_failover(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    installed: &[&Path],
    base_weight: &dyn Fn(ArcId) -> f64,
    active: Option<&ActiveSet>,
) -> Path {
    match reference_disjoint_path(topo, src, dst, installed, base_weight, active) {
        Some((p, 0)) => p,
        Some((p_all, _)) => {
            match reference_disjoint_path(topo, src, dst, &installed[..1], base_weight, active) {
                Some((p_aon, 0)) => p_aon,
                _ => p_all,
            }
        }
        None => installed[0].clone(),
    }
}

/// A random node sequence of one to four nodes: most of its hops are
/// arcs the network lacks.
fn random_hops(nodes: &[NodeId], rng: &mut StdRng) -> Path {
    let mut hops = nodes.to_vec();
    hops.shuffle(rng);
    hops.truncate(rng.gen_range(1..=nodes.len().min(4)));
    Path::new(hops)
}

/// The parent comparators the min-queue key replaced, on a `u64` tie.
/// `Partial`: `partial_cmp` on the priority with `Equal` for NaN, then
/// the tie (the searches and the packet engine). `Total`: `total_cmp`
/// on a priority that had `+0.0` added, then the tie (the simnet event
/// queue).
#[derive(PartialEq)]
struct Partial(f64, u64);

impl Eq for Partial {}

impl Ord for Partial {
    fn cmp(&self, o: &Self) -> Ordering {
        o.0.partial_cmp(&self.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| o.1.cmp(&self.1))
    }
}

impl PartialOrd for Partial {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

#[derive(PartialEq)]
struct Total(f64, u64);

impl Eq for Total {}

impl Ord for Total {
    fn cmp(&self, o: &Self) -> Ordering {
        o.0.total_cmp(&self.0).then_with(|| o.1.cmp(&self.1))
    }
}

impl PartialOrd for Total {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

/// A priority the search and event queues can hold, picked by `pick`
/// from both zeros, subnormals, small integers (ties), `f64::MAX`, `∞`
/// and, from `bits`, any other non-negative finite float.
fn queued_priority(pick: u8, bits: u64) -> f64 {
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1),
        3 => f64::MIN_POSITIVE / 2.0,
        4 => f64::MIN_POSITIVE,
        5 => f64::MAX,
        6 => f64::INFINITY,
        7 | 8 => (bits % 4) as f64,
        _ => f64::from_bits(bits % f64::INFINITY.to_bits()),
    }
}

/// Any float: a queued priority or its negative, a quiet or signaling
/// NaN of either sign, or any bit pattern.
fn any_priority(pick: u8, bits: u64) -> f64 {
    match pick {
        0..=9 => queued_priority(pick, bits),
        10..=19 => -queued_priority(pick - 10, bits),
        20 => f64::NAN,
        21 => -f64::NAN,
        22 => f64::from_bits(0x7ff0_0000_0000_0001),
        _ => f64::from_bits(bits),
    }
}

/// What a heap of `(priority, tie)` entries pops, as the priority's bits
/// after adding `+0.0` and the tie.
fn popped<T: Ord>(mut heap: BinaryHeap<T>, read: impl Fn(T) -> (f64, u64)) -> Vec<(u64, u64)> {
    std::iter::from_fn(|| heap.pop())
        .map(|e| {
            let (x, tie) = read(e);
            ((x + 0.0).to_bits(), tie)
        })
        .collect()
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

    /// A heap of min-queue entries pops in exactly the order of the
    /// float comparators it replaced, for every priority a queue can
    /// hold: ties, both zeros, subnormals, `f64::MAX` and `∞` included.
    #[test]
    fn min_entry_pops_as_the_float_comparators(
        picks in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..4), 0..64),
    ) {
        let items: Vec<(f64, u64)> =
            picks.iter().map(|&(pick, bits, tie)| (queued_priority(pick, bits), tie)).collect();
        let keyed: BinaryHeap<MinEntry> =
            items.iter().map(|&(x, tie)| MinEntry::new(x, tie, ())).collect();
        let partial: BinaryHeap<Partial> = items.iter().map(|&(x, tie)| Partial(x, tie)).collect();
        let total: BinaryHeap<Total> = items.iter().map(|&(x, tie)| Total(x + 0.0, tie)).collect();
        let got = popped(keyed, |e| (e.priority(), e.tie()));
        prop_assert_eq!(&got, &popped(partial, |Partial(x, tie)| (x, tie)));
        prop_assert_eq!(&got, &popped(total, |Total(x, tie)| (x, tie)));
    }

    /// Negative priorities and NaNs, which no queue holds, pop in the
    /// `total_cmp` order of `priority + 0.0`, then by tie.
    #[test]
    fn min_entry_pops_any_float_in_total_order(
        picks in proptest::collection::vec((0u8..24, 0u64..u64::MAX, 0u64..4), 0..64),
    ) {
        let items: Vec<(f64, u64)> =
            picks.iter().map(|&(pick, bits, tie)| (any_priority(pick, bits), tie)).collect();
        let keyed: BinaryHeap<MinEntry> =
            items.iter().map(|&(x, tie)| MinEntry::new(x, tie, ())).collect();
        let mut want: Vec<(f64, u64)> = items.iter().map(|&(x, tie)| (x + 0.0, tie)).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<(u64, u64)> = want.iter().map(|&(x, tie)| (x.to_bits(), tie)).collect();
        prop_assert_eq!(popped(keyed, |e| (e.priority(), e.tie())), want);
    }

    /// The integer-keyed searches give what the float-keyed reference
    /// gives on two-way networks with unit (all ties), small-integer and
    /// random weights and random active subsets: the full tree's distance
    /// bits and parent arcs, the same arcs from `Dijkstra::grow`,
    /// `grow_to` and `ShortestPathTrees`, and the same delay-bounded
    /// paths under a tight, a loose and no bound.
    #[test]
    fn integer_keyed_searches_match_float_keyed_reference(
        n in 2usize..14,
        kind in 0u8..3,
        seed in 0u64..100_000,
    ) {
        let TieInstance { topo, weights, active } = two_way_instance(n, kind, seed);
        let active = active.as_ref();
        let base = |a: ArcId| weights[a.idx()];
        let w = on_active(&topo, base, active);
        let latency = on_active(&topo, |a| topo.arc(a).latency, active);
        let mut trees = ShortestPathTrees::new(&topo, &base, active);
        let (mut full, mut early) = (Dijkstra::default(), Dijkstra::default());
        let mut arcs = Vec::new();
        for src in topo.node_ids() {
            let src_on = active.is_none_or(|s| s.node_on(src));
            let (dist, parent) = reference_grow(&topo, src, src_on, None, &w);
            let (got_dist, got_parent) = shortest_path_tree(&topo, src, &base, active);
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got_dist), bits(&dist));
            prop_assert_eq!(&got_parent, &parent);
            full.grow(&topo, src, src_on, &w);
            let (lat, _) = reference_grow(&topo, src, src_on, None, &latency);
            for dst in topo.node_ids() {
                let want = reference_arcs(&topo, &parent, src, dst);
                prop_assert_eq!(full.reached(dst), dist[dst.idx()].is_finite());
                arcs.clear();
                let found = full.path_arcs(&topo, src, dst, &mut arcs);
                prop_assert_eq!(found.then(|| arcs.clone()), want.clone());
                arcs.clear();
                let found = trees.path_arcs(&topo, src, dst, &mut arcs);
                prop_assert_eq!(found.then(|| arcs.clone()), want);
                let (_, stopped) = reference_grow(&topo, src, true, Some(dst), &w);
                early.grow_to(&topo, src, dst, &w);
                arcs.clear();
                let found = early.path_arcs(&topo, src, dst, &mut arcs);
                prop_assert_eq!(
                    found.then(|| arcs.clone()),
                    reference_arcs(&topo, &stopped, src, dst)
                );
                for bound in [lat[dst.idx()], 1.5 * lat[dst.idx()], f64::INFINITY] {
                    prop_assert_eq!(
                        shortest_path_bounded(&topo, src, dst, &base, bound, active),
                        reference_bounded(&topo, src, dst, &base, bound, active),
                        "{} -> {} within {}", src, dst, bound
                    );
                }
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
            pool.push(random_hops(&nodes, &mut rng));
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

    /// One failover call, on a search set up once for every ordered pair,
    /// returns what the two-search rule returns. The installed paths are
    /// the pair's unit-weight shortest path as its always-on path and up
    /// to two shortest paths under random weights as its on-demand ones,
    /// each replaced now and then by a random node sequence. The networks
    /// have ties, forbidden arcs, dark elements, unreachable pairs,
    /// parallel links, and one-way arcs (`kind` 3).
    #[test]
    fn failover_matches_the_two_search_rule(
        n in 2usize..14,
        kind in 0u8..4,
        seed in 0u64..100_000,
    ) {
        let TieInstance { topo, weights, active } = match kind {
            3 => tie_instance(n, seed),
            _ => two_way_instance(n, kind, seed),
        };
        let w = |a: ArcId| weights[a.idx()];
        let mut rng = StdRng::seed_from_u64(!seed);
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let mut search = DisjointSearch::new(&topo, w, active.as_ref());
        for &src in &nodes {
            for &dst in &nodes {
                let mut installed = Vec::new();
                for i in 0..rng.gen_range(1..=3) {
                    let detour: Vec<f64> =
                        topo.arc_ids().map(|_| rng.gen_range(1..4u32) as f64).collect();
                    let weight = |a: ArcId| if i == 0 { 1.0 } else { detour[a.idx()] };
                    let routed = rng
                        .gen_bool(0.8)
                        .then(|| shortest_path(&topo, src, dst, &weight, None))
                        .flatten();
                    installed.push(routed.unwrap_or_else(|| random_hops(&nodes, &mut rng)));
                }
                let installed: Vec<&Path> = installed.iter().collect();
                prop_assert_eq!(
                    search.failover(src, dst, &installed),
                    reference_failover(&topo, src, dst, &installed, &w, active.as_ref()),
                    "{} -> {}", src, dst
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
