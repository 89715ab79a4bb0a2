//! Link-disjoint path search for failover planning (§4.3 of the paper).
//!
//! The failover table wants, for each OD pair, a path sharing no physical
//! link with the always-on and on-demand paths — so a single link failure
//! cannot take out all three. When full disjointness is impossible the
//! planner falls back to the path minimizing shared links
//! ([`link_disjoint_path`] returns the overlap count alongside the path).
//!
//! A planner asks this of every OD pair, some pairs twice, on one
//! network under one weight. A [`DisjointSearch`] is set up once for
//! them all: it computes the overlap penalty once, and keeps the avoided
//! links' mask and the Dijkstra buffers between calls, so a call
//! allocates only the path it returns. [`link_disjoint_path`] is one
//! call on a fresh search.

use crate::active::ActiveSet;
use crate::algo::dijkstra::Dijkstra;
use crate::graph::{ArcId, NodeId, Topology};
use crate::path::Path;

/// Find a path from `src` to `dst` avoiding the physical links of
/// `avoid_paths` where possible.
///
/// Returns `(path, overlap)` where `overlap` is the number of physical
/// links shared with the avoid set (0 = fully link-disjoint), or `None`
/// when `dst` is unreachable even ignoring the avoid set. An avoid path
/// with a hop `topo` has no arc for avoids nothing.
///
/// Implementation: Dijkstra with a two-level cost — each shared link
/// costs a large penalty `M` plus its base weight, so the search first
/// minimizes overlap and then path weight. `M` exceeds any simple path's
/// total base weight, making the lexicographic order exact.
pub fn link_disjoint_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    avoid_paths: &[&Path],
    base_weight: &dyn Fn(ArcId) -> f64,
    active: Option<&ActiveSet>,
) -> Option<(Path, usize)> {
    DisjointSearch::new(topo, base_weight, active).path(src, dst, avoid_paths)
}

/// [`link_disjoint_path`] set up once for one topology, base weight and
/// active subset, and asked about many OD pairs: each call returns what
/// [`link_disjoint_path`] returns for the same inputs.
pub struct DisjointSearch<'t, W> {
    topo: &'t Topology,
    active: Option<&'t ActiveSet>,
    base_weight: W,
    /// The overlap penalty `M`: more than any simple path's base weight.
    penalty: f64,
    /// Whether each physical link (by canonical arc id) is avoided; set
    /// for one call and cleared before it returns.
    avoid: Vec<bool>,
    search: Dijkstra,
}

impl<'t, W: Fn(ArcId) -> f64> DisjointSearch<'t, W> {
    /// A search of `topo` under `base_weight` (a non-finite weight
    /// forbids the arc), restricted to `active` if given.
    pub fn new(topo: &'t Topology, base_weight: W, active: Option<&'t ActiveSet>) -> Self {
        let max_w: f64 = topo
            .arc_ids()
            .map(&base_weight)
            .filter(|w| w.is_finite())
            .fold(0.0, f64::max);
        DisjointSearch {
            topo,
            active,
            base_weight,
            penalty: (max_w + 1.0) * (topo.node_count() as f64 + 1.0),
            avoid: vec![false; topo.arc_count()],
            search: Dijkstra::default(),
        }
    }

    /// The path from `src` to `dst` sharing the fewest physical links
    /// with `avoid_paths`, and how many it shares (see
    /// [`link_disjoint_path`]).
    pub fn path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        avoid_paths: &[&Path],
    ) -> Option<(Path, usize)> {
        let topo = self.topo;
        for p in avoid_paths {
            if hops(topo, p).all(|a| a.is_some()) {
                for a in hops(topo, p).flatten() {
                    self.avoid[topo.link_of(a).idx()] = true;
                }
            }
        }
        let found = self.search_marked(src, dst);
        for a in avoid_paths.iter().flat_map(|p| hops(topo, p)).flatten() {
            self.avoid[topo.link_of(a).idx()] = false;
        }
        found
    }

    /// The search of [`DisjointSearch::path`] once `avoid` is marked.
    fn search_marked(&mut self, src: NodeId, dst: NodeId) -> Option<(Path, usize)> {
        let (topo, active, avoid) = (self.topo, self.active, &self.avoid);
        let shared = |a: ArcId| avoid[topo.link_of(a).idx()];
        let path = if src == dst {
            Path::trivial(src)
        } else {
            let (base_weight, penalty) = (&self.base_weight, self.penalty);
            // Off the active subset an arc is forbidden; a dark `src`'s
            // arcs are all off, so it reaches nothing.
            let w = |a: ArcId| {
                if active.is_some_and(|s| !s.arc_on(topo, a)) {
                    return f64::INFINITY;
                }
                let base = base_weight(a);
                if !base.is_finite() {
                    f64::INFINITY
                } else if shared(a) {
                    base + penalty
                } else {
                    base
                }
            };
            self.search.grow_to(topo, src, dst, w);
            self.search.path_to(topo, src, dst)?
        };
        let overlap = hops(topo, &path).filter(|a| a.is_some_and(shared)).count();
        Some((path, overlap))
    }
}

/// `p`'s hops resolved to arcs as [`Path::arcs`] resolves them: `None`
/// for a hop `topo` has no arc for.
fn hops<'a>(topo: &'a Topology, p: &'a Path) -> impl Iterator<Item = Option<ArcId>> + 'a {
    p.nodes().windows(2).map(|w| topo.find_arc(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::{MBPS, MS};

    /// Two disjoint branches plus a direct link.
    fn theta() -> Topology {
        let mut b = TopologyBuilder::new("theta");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], MBPS, MS); // upper: 0-1-3
        b.add_link(n[1], n[3], MBPS, MS);
        b.add_link(n[0], n[2], MBPS, MS); // lower: 0-2-3
        b.add_link(n[2], n[3], MBPS, MS);
        b.build()
    }

    #[test]
    fn finds_disjoint_alternative() {
        let t = theta();
        let primary = Path::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        let (p, overlap) =
            link_disjoint_path(&t, NodeId(0), NodeId(3), &[&primary], &|_| 1.0, None).unwrap();
        assert_eq!(overlap, 0);
        assert!(p.visits(NodeId(2)));
    }

    #[test]
    fn overlap_reported_when_unavoidable() {
        // Line 0-1-2: any path reuses the same links.
        let mut b = TopologyBuilder::new("line");
        let n: Vec<NodeId> = (0..3).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], MBPS, MS);
        b.add_link(n[1], n[2], MBPS, MS);
        let t = b.build();
        let primary = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let (p, overlap) =
            link_disjoint_path(&t, NodeId(0), NodeId(2), &[&primary], &|_| 1.0, None).unwrap();
        assert_eq!(p, primary);
        assert_eq!(overlap, 2, "both links shared");
    }

    #[test]
    fn avoiding_multiple_paths() {
        let t = theta();
        let up = Path::new(vec![NodeId(0), NodeId(1), NodeId(3)]);
        let low = Path::new(vec![NodeId(0), NodeId(2), NodeId(3)]);
        let (p, overlap) =
            link_disjoint_path(&t, NodeId(0), NodeId(3), &[&up, &low], &|_| 1.0, None).unwrap();
        // All routes blocked; overlap must be 2 (cheapest reuse).
        assert_eq!(overlap, 2);
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = TopologyBuilder::new("disc");
        b.add_node("a");
        b.add_node("b");
        let t = b.build();
        assert!(link_disjoint_path(&t, NodeId(0), NodeId(1), &[], &|_| 1.0, None).is_none());
    }

    #[test]
    fn reverse_direction_counts_as_shared() {
        let t = theta();
        // Avoid path going 3->1->0 (reverse of upper); the search from 0
        // must still treat upper links as shared.
        let rev = Path::new(vec![NodeId(3), NodeId(1), NodeId(0)]);
        let (p, overlap) =
            link_disjoint_path(&t, NodeId(0), NodeId(3), &[&rev], &|_| 1.0, None).unwrap();
        assert_eq!(overlap, 0);
        assert!(p.visits(NodeId(2)));
    }
}
