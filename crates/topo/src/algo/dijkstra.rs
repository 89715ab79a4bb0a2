//! Dijkstra shortest paths with pluggable arc weights, active-subset
//! filtering, and a delay-bounded variant used by REsPoNse-lat
//! (constraint (4) of the paper).

use crate::active::ActiveSet;
use crate::graph::{ArcId, NodeId, Topology};
use crate::path::Path;
use crate::queue::MinEntry;
use std::collections::BinaryHeap;

/// Arc weight function type alias. Must return a non-negative, finite
/// weight; return `f64::INFINITY` to forbid an arc.
pub type ArcWeight<'a> = dyn Fn(ArcId) -> f64 + 'a;

/// A node queued at distance `d`, ties broken by node id.
fn queued(d: f64, v: NodeId) -> MinEntry {
    MinEntry::new(d, u64::from(v.0), ())
}

/// The distance and node of a [`queued`] entry. Distances start at
/// `+0.0`, and a sum is `-0.0` only when both terms are, so none is
/// `-0.0` and the key gives each back bit for bit.
fn unqueued(e: MinEntry) -> (f64, NodeId) {
    (e.priority(), NodeId(e.tie() as u32))
}

fn arc_usable(topo: &Topology, active: Option<&ActiveSet>, a: ArcId) -> bool {
    match active {
        Some(s) => s.arc_on(topo, a),
        None => true,
    }
}

/// `weight(a)` on the active subset, `INFINITY` off it.
fn active_weight(topo: &Topology, weight: &ArcWeight, active: Option<&ActiveSet>, a: ArcId) -> f64 {
    if arc_usable(topo, active, a) {
        weight(a)
    } else {
        f64::INFINITY
    }
}

/// `src`'s shortest-path tree under `weight` on the active subset,
/// grown until `stop` is settled if given.
fn grow_active(
    topo: &Topology,
    src: NodeId,
    weight: &ArcWeight,
    active: Option<&ActiveSet>,
    stop: Option<NodeId>,
) -> Dijkstra {
    let mut sp = Dijkstra::default();
    let src_on = active.map(|s| s.node_on(src)).unwrap_or(true);
    sp.grow_until(topo, src, src_on, stop, |a| {
        active_weight(topo, weight, active, a)
    });
    sp
}

/// Reusable buffers for repeated single-source Dijkstra runs: growing a
/// tree allocates nothing once the buffers have reached the topology's
/// size. Every unbounded shortest-path search in this crate runs through
/// [`Dijkstra::grow`].
#[derive(Default)]
pub struct Dijkstra {
    dist: Vec<f64>,
    parent: Vec<Option<ArcId>>,
    heap: BinaryHeap<MinEntry>,
}

impl Dijkstra {
    /// Grow the shortest-path tree rooted at `src`. `weight` gives each
    /// arc's weight; a non-finite weight forbids the arc. With `src_on`
    /// false nothing is reachable, not even `src`.
    pub fn grow(
        &mut self,
        topo: &Topology,
        src: NodeId,
        src_on: bool,
        weight: impl Fn(ArcId) -> f64,
    ) {
        self.grow_until(topo, src, src_on, None, weight);
    }

    /// [`Dijkstra::grow`], stopped once `dst` is settled. No later pop
    /// can relax a settled node, so `dst` and every node settled before
    /// it have their full-tree parents: [`Dijkstra::path_arcs`] to `dst`
    /// is the full tree's. Paths to other nodes are not.
    pub fn grow_to(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        weight: impl Fn(ArcId) -> f64,
    ) {
        self.grow_until(topo, src, true, Some(dst), weight);
    }

    fn grow_until(
        &mut self,
        topo: &Topology,
        src: NodeId,
        src_on: bool,
        stop: Option<NodeId>,
        weight: impl Fn(ArcId) -> f64,
    ) {
        let n = topo.node_count();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(n, None);
        self.heap.clear();
        let (dist, parent, heap) = (&mut self.dist, &mut self.parent, &mut self.heap);
        if src_on {
            dist[src.idx()] = 0.0;
            heap.push(queued(0.0, src));
        }
        while let Some(e) = heap.pop() {
            let (d, u) = unqueued(e);
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
                    heap.push(queued(nd, v));
                }
            }
        }
    }

    /// Whether the last search reached `v`. After a search that ran to
    /// its end (or stopped short of a destination it never reached) these
    /// are exactly the nodes reachable from the root under its weight.
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.idx()].is_finite()
    }

    /// The last grown tree's path from its root `src` to `dst`: the
    /// trivial path when `dst == src`, `None` when `dst` is unreachable.
    pub fn path_to(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return Some(Path::trivial(src));
        }
        extract_path(topo, &self.parent, src, dst)
    }

    /// Append to `out` the arcs of `path_to(topo, src, dst)` as
    /// [`Path::arcs`] resolves them, without building the path. Returns
    /// false, appending nothing, when `dst` is unreachable.
    pub fn path_arcs(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<ArcId>,
    ) -> bool {
        extract_arcs(topo, &self.parent, src, dst, out)
    }
}

/// Single-source shortest path tree. Returns `(dist, parent_arc)` arrays;
/// unreachable nodes have `dist = INFINITY` and `parent_arc = None`.
pub fn shortest_path_tree(
    topo: &Topology,
    src: NodeId,
    weight: &ArcWeight,
    active: Option<&ActiveSet>,
) -> (Vec<f64>, Vec<Option<ArcId>>) {
    let sp = grow_active(topo, src, weight, active, None);
    (sp.dist, sp.parent)
}

/// One shortest-path tree per origin under a fixed arc weight.
///
/// The weight is evaluated once per arc when the trees are created, and
/// an origin's tree is grown the first time a path from it is asked for
/// and kept. Every destination of that origin reads the same tree, so
/// routing a batch of OD pairs costs one Dijkstra per distinct origin
/// instead of one per pair. The paths are exactly those
/// [`shortest_path`] returns for the same weight and active subset.
pub struct ShortestPathTrees {
    /// Per-arc weight, `INFINITY` for arcs outside the active subset.
    /// A dark node's arcs are all outside it, so its tree is empty.
    weights: Vec<f64>,
    /// `trees[o]`: the parent arcs of origin `o`'s tree, once grown.
    trees: Vec<Option<Box<[Option<ArcId>]>>>,
    scratch: Dijkstra,
}

impl ShortestPathTrees {
    /// Trees under `weight`, restricted to the active subset if given.
    pub fn new(topo: &Topology, weight: &ArcWeight, active: Option<&ActiveSet>) -> Self {
        let weights = topo
            .arc_ids()
            .map(|a| active_weight(topo, weight, active, a))
            .collect();
        ShortestPathTrees {
            weights,
            trees: vec![None; topo.node_count()],
            scratch: Dijkstra::default(),
        }
    }

    fn tree(&mut self, topo: &Topology, src: NodeId) -> &[Option<ArcId>] {
        let (weights, scratch) = (&self.weights, &mut self.scratch);
        self.trees[src.idx()].get_or_insert_with(|| {
            scratch.grow(topo, src, true, |a| weights[a.idx()]);
            scratch.parent.clone().into_boxed_slice()
        })
    }

    /// The shortest path from `src` to `dst`, as [`shortest_path`] gives it.
    pub fn path(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
        if src == dst {
            return Some(Path::trivial(src));
        }
        extract_path(topo, self.tree(topo, src), src, dst)
    }

    /// Append to `out` the arcs of `path(topo, src, dst)` as
    /// [`Path::arcs`] resolves them, without building the path. Returns
    /// false, appending nothing, when `dst` is unreachable.
    pub fn path_arcs(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<ArcId>,
    ) -> bool {
        extract_arcs(topo, self.tree(topo, src), src, dst, out)
    }
}

/// Walk `parent` arcs back from `dst` to `src`; `None` when `dst` (not
/// `src`) has no parent, i.e. is unreachable.
fn extract_path(
    topo: &Topology,
    parent: &[Option<ArcId>],
    src: NodeId,
    dst: NodeId,
) -> Option<Path> {
    let mut rev = vec![dst];
    let mut cur = dst;
    while cur != src {
        let a = parent[cur.idx()]?;
        cur = topo.arc(a).src;
        rev.push(cur);
    }
    rev.reverse();
    Path::try_new(rev)
}

/// The arcs of `extract_path(topo, parent, src, dst)`, appended to `out`.
/// Each hop resolves to the first arc between its two nodes, as
/// [`Path::arcs`] does; on parallel arcs that need not be the tree's own.
fn extract_arcs(
    topo: &Topology,
    parent: &[Option<ArcId>],
    src: NodeId,
    dst: NodeId,
    out: &mut Vec<ArcId>,
) -> bool {
    let start = out.len();
    let mut cur = dst;
    while cur != src {
        let Some(a) = parent[cur.idx()] else {
            out.truncate(start);
            return false;
        };
        let prev = topo.arc(a).src;
        out.push(topo.find_arc(prev, cur).expect("a tree arc joins its ends"));
        cur = prev;
    }
    out[start..].reverse();
    true
}

/// Shortest path from `src` to `dst` under the given weight, restricted
/// to the active subset if provided. Returns `None` when unreachable.
///
/// The search stops once `dst` is settled, so the path is the full
/// tree's (see [`Dijkstra::grow_to`]); a dark `src` reaches nothing.
pub fn shortest_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    weight: &ArcWeight,
    active: Option<&ActiveSet>,
) -> Option<Path> {
    if src == dst {
        return Some(Path::trivial(src));
    }
    grow_active(topo, src, weight, active, Some(dst)).path_to(topo, src, dst)
}

/// Delay-bounded cheapest path: minimize `weight` subject to total
/// propagation latency `≤ delay_bound` seconds. This implements the
/// REsPoNse-lat constraint `delay(O,D) ≤ (1+β)·delay_OSPF(O,D)`.
///
/// Uses label-correcting search over (cost, delay) labels with dominance
/// pruning — exact for the path sizes in this reproduction (≤ a few
/// hundred nodes) because the Pareto frontier per node stays small.
pub fn shortest_path_bounded(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    weight: &ArcWeight,
    delay_bound: f64,
    active: Option<&ActiveSet>,
) -> Option<Path> {
    if src == dst {
        return Some(Path::trivial(src));
    }
    // Lower bound on remaining delay from each node to dst (plain latency
    // Dijkstra on the reversed graph) for pruning.
    let lat_to_dst = {
        let n = topo.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        if active.map(|s| s.node_on(dst)).unwrap_or(true) {
            dist[dst.idx()] = 0.0;
            heap.push(queued(0.0, dst));
        }
        while let Some(e) = heap.pop() {
            let (d, u) = unqueued(e);
            if d > dist[u.idx()] {
                continue;
            }
            for &a in topo.in_arcs(u) {
                if !arc_usable(topo, active, a) {
                    continue;
                }
                let v = topo.arc(a).src;
                let nd = d + topo.arc(a).latency;
                if nd + 1e-15 < dist[v.idx()] {
                    dist[v.idx()] = nd;
                    heap.push(queued(nd, v));
                }
            }
        }
        dist
    };
    if lat_to_dst[src.idx()] > delay_bound + 1e-12 {
        return None; // even the latency-optimal path violates the bound
    }

    // Labels: per node, a Pareto set of (cost, delay, parent_label).
    #[derive(Clone, Copy)]
    struct Label {
        cost: f64,
        delay: f64,
        node: NodeId,
        parent: Option<usize>, // index into `labels`
    }
    let mut labels: Vec<Label> = Vec::new();
    let mut pareto: Vec<Vec<usize>> = vec![Vec::new(); topo.node_count()];

    // Labels queued by cost, ties broken by label id. Each label is
    // queued once, at its own cost, so no entry goes stale.
    let mut heap: BinaryHeap<MinEntry> = BinaryHeap::new();
    labels.push(Label {
        cost: 0.0,
        delay: 0.0,
        node: src,
        parent: None,
    });
    pareto[src.idx()].push(0);
    heap.push(MinEntry::new(0.0, 0, ()));

    while let Some(e) = heap.pop() {
        let id = e.tie() as usize;
        let lab = labels[id];
        if lab.node == dst {
            // First dst label popped = cheapest feasible.
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
            if !arc_usable(topo, active, a) {
                continue;
            }
            let w = weight(a);
            if !w.is_finite() {
                continue;
            }
            let arc = topo.arc(a);
            let nd = lab.delay + arc.latency;
            // Prune if even the best-case remaining delay busts the bound.
            if nd + lat_to_dst[arc.dst.idx()] > delay_bound + 1e-12 {
                continue;
            }
            let nc = lab.cost + w;
            // Dominance: skip if an existing label at dst-node is better in
            // both dimensions.
            let dominated = pareto[arc.dst.idx()]
                .iter()
                .any(|&li| labels[li].cost <= nc + 1e-15 && labels[li].delay <= nd + 1e-15);
            if dominated {
                continue;
            }
            // Loop check: walk ancestors (paths are short; fine).
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
            heap.push(MinEntry::new(nc, nid as u64, ()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::{MBPS, MS};

    /// Diamond: 0 -(fast, expensive)- 1 - 3 and 0 -(slow, cheap)- 2 - 3.
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new("diamond");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], 10.0 * MBPS, 1.0 * MS); // fast
        b.add_link(n[1], n[3], 10.0 * MBPS, 1.0 * MS);
        b.add_link(n[0], n[2], 10.0 * MBPS, 10.0 * MS); // slow
        b.add_link(n[2], n[3], 10.0 * MBPS, 10.0 * MS);
        b.build()
    }

    #[test]
    fn hop_count_shortest() {
        let t = diamond();
        let p = shortest_path(&t, NodeId(0), NodeId(3), &|_| 1.0, None).unwrap();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn latency_weight_picks_fast_branch() {
        let t = diamond();
        let p = shortest_path(&t, NodeId(0), NodeId(3), &|a| t.arc(a).latency, None).unwrap();
        assert!(p.visits(NodeId(1)));
        assert!(!p.visits(NodeId(2)));
    }

    #[test]
    fn forbidden_arcs_are_avoided() {
        let t = diamond();
        // Forbid everything through node 1.
        let w = |a: ArcId| {
            if t.arc(a).src == NodeId(1) || t.arc(a).dst == NodeId(1) {
                f64::INFINITY
            } else {
                1.0
            }
        };
        let p = shortest_path(&t, NodeId(0), NodeId(3), &w, None).unwrap();
        assert!(p.visits(NodeId(2)));
    }

    #[test]
    fn active_set_restricts_search() {
        let t = diamond();
        let mut s = ActiveSet::all_on(&t);
        s.set_node(NodeId(1), false);
        let p = shortest_path(&t, NodeId(0), NodeId(3), &|_| 1.0, Some(&s)).unwrap();
        assert!(p.visits(NodeId(2)));
        s.set_node(NodeId(2), false);
        assert!(shortest_path(&t, NodeId(0), NodeId(3), &|_| 1.0, Some(&s)).is_none());
    }

    #[test]
    fn trivial_path_when_src_eq_dst() {
        let t = diamond();
        let p = shortest_path(&t, NodeId(2), NodeId(2), &|_| 1.0, None).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn bounded_variant_respects_delay() {
        let t = diamond();
        // Make the slow branch "cheap" in weight so the unconstrained
        // optimum violates a tight delay bound.
        let w = |a: ArcId| {
            if t.arc(a).src == NodeId(1) || t.arc(a).dst == NodeId(1) {
                10.0
            } else {
                1.0
            }
        };
        let unbounded = shortest_path(&t, NodeId(0), NodeId(3), &w, None).unwrap();
        assert!(
            unbounded.visits(NodeId(2)),
            "cheap branch preferred without bound"
        );
        // Bound = 3ms only admits the fast branch (2 ms total).
        let bounded = shortest_path_bounded(&t, NodeId(0), NodeId(3), &w, 3.0 * MS, None).unwrap();
        assert!(bounded.visits(NodeId(1)));
        assert!(bounded.latency(&t) <= 3.0 * MS + 1e-12);
    }

    #[test]
    fn bounded_variant_infeasible_bound() {
        let t = diamond();
        assert!(
            shortest_path_bounded(&t, NodeId(0), NodeId(3), &|_| 1.0, 0.5 * MS, None).is_none()
        );
    }

    #[test]
    fn bounded_matches_unbounded_when_loose() {
        let t = diamond();
        let w = |a: ArcId| 1.0 / t.arc(a).capacity;
        let p1 = shortest_path(&t, NodeId(0), NodeId(3), &w, None).unwrap();
        let p2 = shortest_path_bounded(&t, NodeId(0), NodeId(3), &w, 1.0, None).unwrap();
        assert_eq!(p1.hops(), p2.hops());
    }

    #[test]
    fn tree_distances_monotone() {
        let t = diamond();
        let (dist, parent) = shortest_path_tree(&t, NodeId(0), &|a| t.arc(a).latency, None);
        assert_eq!(dist[0], 0.0);
        assert!(dist[3] > dist[1]);
        assert!(parent[0].is_none());
        assert!(parent[3].is_some());
    }
}
