//! OSPF-InvCap and ECMP baselines.
//!
//! "One of the most widely-used techniques for intradomain routing is
//! OSPF, in which the traffic is routed through the shortest path
//! according to the link weights. We use the version of the protocol
//! advocated by Cisco, where the link weights are set to the inverse of
//! link capacity" (§4.2). ECMP (Fig. 4's baseline) splits each demand
//! evenly across all equal-cost shortest paths.

use crate::routeset::RouteSet;
use ecp_topo::algo::{k_shortest_paths, ShortestPathTrees};
use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology};
use ecp_traffic::TrafficMatrix;

/// The OSPF-InvCap arc weight: `1 / capacity`, scaled so weights are
/// O(1) for numerical comfort.
pub fn invcap_weight(topo: &Topology) -> impl Fn(ArcId) -> f64 + '_ {
    // Scale by the max capacity so the best link has weight 1.
    let cmax = topo
        .arc_ids()
        .map(|a| topo.arc(a).capacity)
        .fold(0.0, f64::max);
    move |a: ArcId| cmax / topo.arc(a).capacity
}

/// Compute the OSPF-InvCap routing for the given OD pairs (or all routed
/// pairs of a matrix). Ties are broken deterministically by Dijkstra's
/// ordering; pairs sharing an origin share its shortest-path tree.
pub fn ospf_invcap(
    topo: &Topology,
    od_pairs: &[(NodeId, NodeId)],
    active: Option<&ActiveSet>,
) -> RouteSet {
    let mut trees = ShortestPathTrees::new(topo, &invcap_weight(topo), active);
    let mut rs = RouteSet::new();
    for &(o, d) in od_pairs {
        if let Some(p) = trees.path(topo, o, d) {
            rs.insert(p);
        }
    }
    rs
}

/// An ECMP routing: all minimum-weight paths per OD pair, loads split
/// evenly.
#[derive(Debug, Clone, Default)]
pub struct EcmpRoutes {
    /// `(origin, dst) → equal-cost paths` (all share the minimum cost).
    pub paths: std::collections::BTreeMap<(NodeId, NodeId), Vec<Path>>,
}

impl EcmpRoutes {
    /// Per-arc load with even splitting across equal-cost paths.
    pub fn link_loads(&self, topo: &Topology, tm: &TrafficMatrix) -> Vec<f64> {
        let mut load = vec![0.0; topo.arc_count()];
        for d in tm.demands() {
            if let Some(ps) = self.paths.get(&(d.origin, d.dst)) {
                if ps.is_empty() {
                    continue;
                }
                let share = d.rate / ps.len() as f64;
                for p in ps {
                    if let Some(arcs) = p.arcs(topo) {
                        for a in arcs {
                            load[a.idx()] += share;
                        }
                    }
                }
            }
        }
        load
    }

    /// Active set touching every equal-cost path (ECMP keeps the whole
    /// mesh powered — the Fig. 4 flat-power baseline).
    pub fn active_set(&self, topo: &Topology) -> ActiveSet {
        let mut used: Vec<ArcId> = Vec::new();
        for ps in self.paths.values() {
            for p in ps {
                if let Some(arcs) = p.arcs(topo) {
                    used.extend(arcs);
                }
            }
        }
        let mut s = ActiveSet::from_used_arcs(topo, used);
        for &(o, d) in self.paths.keys() {
            s.set_node(o, true);
            s.set_node(d, true);
        }
        s
    }

    /// Max utilization under even splitting.
    pub fn max_utilization(&self, topo: &Topology, tm: &TrafficMatrix) -> f64 {
        self.link_loads(topo, tm)
            .iter()
            .enumerate()
            .map(|(i, &l)| l / topo.arc(ArcId(i as u32)).capacity)
            .fold(0.0, f64::max)
    }
}

/// Compute ECMP routes: enumerate up to `max_paths` shortest paths by
/// hop count and keep those whose cost ties the minimum.
pub fn ecmp_routes(topo: &Topology, od_pairs: &[(NodeId, NodeId)], max_paths: usize) -> EcmpRoutes {
    let mut out = EcmpRoutes::default();
    for &(o, d) in od_pairs {
        let ps = k_shortest_paths(topo, o, d, max_paths, &|_| 1.0, None);
        if ps.is_empty() {
            continue;
        }
        let best = ps[0].hops();
        let equal: Vec<Path> = ps.into_iter().filter(|p| p.hops() == best).collect();
        out.paths.insert((o, d), equal);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_topo::gen::{fat_tree, FatTreeConfig};
    use ecp_topo::{TopologyBuilder, MBPS, MS};
    use ecp_traffic::Demand;

    /// 0-1 (fat pipe) and 0-2-1 (two thin pipes).
    fn fat_thin() -> Topology {
        let mut b = TopologyBuilder::new("ft");
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        b.add_link(n0, n1, 100.0 * MBPS, MS);
        b.add_link(n0, n2, 10.0 * MBPS, MS);
        b.add_link(n2, n1, 10.0 * MBPS, MS);
        b.build()
    }

    #[test]
    fn invcap_prefers_fat_links() {
        let t = fat_thin();
        let rs = ospf_invcap(&t, &[(NodeId(0), NodeId(1))], None);
        let p = rs.get(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.hops(), 1, "direct fat pipe wins under 1/capacity");
        // With hop-count weights both 1-hop is still best, but verify
        // invcap really computed: weight(fat)=1, weight(thin)=10 each.
        let w = invcap_weight(&t);
        let fat = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        let thin = t.find_arc(NodeId(0), NodeId(2)).unwrap();
        assert!((w(fat) - 1.0).abs() < 1e-12);
        assert!((w(thin) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ospf_covers_all_reachable_pairs() {
        let t = fat_thin();
        let pairs: Vec<_> = vec![
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
            (NodeId(0), NodeId(2)),
            (NodeId(2), NodeId(1)),
        ];
        let rs = ospf_invcap(&t, &pairs, None);
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn ecmp_finds_equal_cost_paths_in_fat_tree() {
        let (t, ix) = fat_tree(&FatTreeConfig::default());
        let src = ix.edge[0][0];
        let dst = ix.edge[2][1];
        let e = ecmp_routes(&t, &[(src, dst)], 8);
        let ps = &e.paths[&(src, dst)];
        assert_eq!(ps.len(), 4, "k=4 fat-tree: 4 equal-cost core paths");
        for p in ps {
            assert_eq!(p.hops(), 4);
        }
    }

    #[test]
    fn ecmp_splits_load_evenly() {
        let (t, ix) = fat_tree(&FatTreeConfig::default());
        let src = ix.edge[0][0];
        let dst = ix.edge[2][1];
        let e = ecmp_routes(&t, &[(src, dst)], 8);
        let tm = TrafficMatrix::new(vec![Demand {
            origin: src,
            dst,
            rate: 8e6,
        }]);
        let loads = e.link_loads(&t, &tm);
        // First-hop arcs from the edge switch each carry rate/2 (two agg
        // uplinks, each leading to 2 cores).
        let ups: Vec<f64> = t.out_arcs(src).iter().map(|&a| loads[a.idx()]).collect();
        for l in ups {
            assert!((l - 4e6).abs() < 1.0, "even split across uplinks");
        }
    }

    #[test]
    fn ecmp_active_set_keeps_core_on() {
        let (t, ix) = fat_tree(&FatTreeConfig::default());
        let pairs = ecp_traffic::fat_tree_far_pairs(&ix);
        let e = ecmp_routes(&t, &pairs, 8);
        let s = e.active_set(&t);
        for &c in &ix.core {
            assert!(s.node_on(c), "ECMP keeps every core switch active");
        }
    }

    #[test]
    fn restricting_to_active_subset() {
        let t = fat_thin();
        let mut s = ActiveSet::all_on(&t);
        s.set_link(&t, t.find_arc(NodeId(0), NodeId(1)).unwrap(), false);
        let rs = ospf_invcap(&t, &[(NodeId(0), NodeId(1))], Some(&s));
        let p = rs.get(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.hops(), 2, "must detour via the thin path");
    }
}
