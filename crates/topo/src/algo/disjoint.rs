//! Link-disjoint path search for failover planning (§4.3 of the paper).
//!
//! The failover table wants, for each OD pair, a path sharing no physical
//! link with the always-on and on-demand paths — so a single link failure
//! cannot take out all three. When full disjointness is impossible the
//! planner falls back to the path minimizing shared links
//! ([`link_disjoint_path`] returns the overlap count alongside the path).

use crate::active::ActiveSet;
use crate::algo::dijkstra::shortest_path;
use crate::graph::{ArcId, NodeId, Topology};
use crate::path::Path;

/// Find a path from `src` to `dst` avoiding the physical links of
/// `avoid_paths` where possible.
///
/// Returns `(path, overlap)` where `overlap` is the number of physical
/// links shared with the avoid set (0 = fully link-disjoint), or `None`
/// when `dst` is unreachable even ignoring the avoid set.
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
    // Whether each physical link (by canonical arc id) is to be avoided.
    let mut avoid = vec![false; topo.arc_count()];
    for p in avoid_paths {
        for a in p.arcs(topo).into_iter().flatten() {
            avoid[topo.link_of(a).idx()] = true;
        }
    }
    let shared = |a: ArcId| avoid[topo.link_of(a).idx()];
    // Penalty larger than the max possible simple-path base cost.
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
