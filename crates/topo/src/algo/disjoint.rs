//! Link-disjoint path search for failover planning (§4.3 of the paper).
//!
//! The failover table wants, for each OD pair, a path sharing no physical
//! link with the always-on and on-demand paths — so a single link failure
//! cannot take out all three. When full disjointness is impossible the
//! planner falls back to the path minimizing shared links
//! ([`link_disjoint_path`] returns the overlap count alongside the path).
//!
//! A planner asks this of every OD pair on one network under one weight.
//! A [`DisjointSearch`] is set up once for them all: it computes the
//! overlap penalty once, and keeps the avoided links' mask and the search
//! buffers between calls, so a call allocates only the path it returns.
//! [`link_disjoint_path`] is one call on a fresh search, and
//! [`DisjointSearch::failover`] is the failover table's rule, which a
//! walk with no heap lets run one search per pair where it can.

use crate::active::ActiveSet;
use crate::algo::connectivity::Reach;
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
    /// Whether [`DisjointSearch::failover`] lets its walk pick the order
    /// of its searches: on a simple topology where no simple path's
    /// penalized cost overflows.
    walk_decides: bool,
    /// Whether each physical link (by canonical arc id) is avoided; set
    /// for one call and cleared before it returns.
    avoid: Vec<bool>,
    search: Dijkstra,
    walk: Reach,
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
        let n = topo.node_count() as f64;
        let penalty = (max_w + 1.0) * (n + 1.0);
        DisjointSearch {
            topo,
            active,
            base_weight,
            penalty,
            // A simple path has at most n − 1 arcs, so its penalized cost
            // is below (n + 1)·M, with room for rounding.
            walk_decides: topo.is_simple() && (penalty * (n + 1.0)).is_finite(),
            avoid: vec![false; topo.arc_count()],
            search: Dijkstra::default(),
            walk: Reach::default(),
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
        self.mark(avoid_paths, true);
        let found = self.search_marked(src, dst);
        self.mark(avoid_paths, false);
        found
    }

    /// The failover path from `src` to `dst` (§4.3) given the pair's
    /// installed paths: `installed[0]` is its always-on path, the rest
    /// its on-demand paths. It is, in order of preference:
    ///
    /// 1. the path [`DisjointSearch::path`] finds avoiding every
    ///    installed path, when it shares none of their links;
    /// 2. the path avoiding the always-on path alone, when it shares
    ///    none of its links: the paper's Fig. 3 case, where "the
    ///    failover paths are coinciding with the on-demand paths";
    /// 3. the path avoiding every installed path, sharing the fewest
    ///    links;
    /// 4. the always-on path, when `dst` is unreachable.
    ///
    /// Each candidate is one search. A walk with no heap first follows
    /// the arcs the search takes without the penalty `M` (active, of
    /// finite base weight, on no installed link). If it reaches `dst`,
    /// the searches run in order of preference and the first is all that
    /// runs: `M` exceeds any simple path's base weight, so that search's
    /// path shares no link. If it does not, candidate 1 does not exist,
    /// and the always-on search runs first; the all-avoiding search runs
    /// only when that path is not disjoint either. Both searches reach
    /// the same nodes, so where the always-on search finds a disjoint
    /// path the all-avoiding one finds a path too, and candidate 2 is
    /// the answer.
    ///
    /// The walk's "no" proves candidate 1 absent only where a hop's
    /// overlap is counted on the arc the search took, and where no
    /// penalized cost overflows. With parallel arcs, [`Path::arcs`]
    /// resolves a hop to the first arc between its nodes; with base
    /// weights near `f64::MAX`, the searches may reach different nodes.
    /// There the walk does not run, and the searches run in order of
    /// preference.
    ///
    /// # Panics
    ///
    /// If `installed` is empty.
    pub fn failover(&mut self, src: NodeId, dst: NodeId, installed: &[&Path]) -> Path {
        let always_on = &installed[..1];
        let none_disjoint = self.walk_decides && !self.reaches(src, dst, installed);
        if none_disjoint {
            if let Some((p, 0)) = self.path(src, dst, always_on) {
                return p;
            }
        }
        match self.path(src, dst, installed) {
            Some((p, shared)) if shared == 0 || none_disjoint => p,
            Some((p_all, _)) => match self.path(src, dst, always_on) {
                Some((p, 0)) => p,
                _ => p_all,
            },
            None => installed[0].clone(),
        }
    }

    /// Mark (`on`) or clear the links of each of `avoid_paths` whose hops
    /// all resolve to arcs.
    fn mark(&mut self, avoid_paths: &[&Path], on: bool) {
        let topo = self.topo;
        for p in avoid_paths {
            if hops(topo, p).all(|a| a.is_some()) {
                for a in hops(topo, p).flatten() {
                    self.avoid[topo.link_of(a).idx()] = on;
                }
            }
        }
    }

    /// Whether `dst` is reachable from `src` over the arcs the search
    /// takes without the penalty when avoiding `avoid_paths`: a
    /// depth-first walk.
    fn reaches(&mut self, src: NodeId, dst: NodeId, avoid_paths: &[&Path]) -> bool {
        self.mark(avoid_paths, true);
        let (topo, active, avoid) = (self.topo, self.active, &self.avoid);
        let base_weight = &self.base_weight;
        let free = |a: ArcId| {
            active.is_none_or(|s| s.arc_on(topo, a))
                && base_weight(a).is_finite()
                && !avoid[topo.link_of(a).idx()]
        };
        let found = self.walk.search_arcs_until(topo, src, free, |v| v == dst);
        self.mark(avoid_paths, false);
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

    /// The failover rule as two searches, all-avoiding first.
    fn two_search_failover<W: Fn(ArcId) -> f64>(
        search: &mut DisjointSearch<W>,
        src: NodeId,
        dst: NodeId,
        installed: &[&Path],
    ) -> Path {
        match search.path(src, dst, installed) {
            Some((p, 0)) => p,
            Some((p_all, _)) => match search.path(src, dst, &installed[..1]) {
                Some((p, 0)) => p,
                _ => p_all,
            },
            None => installed[0].clone(),
        }
    }

    #[test]
    fn parallel_arcs_keep_the_two_search_order() {
        // p->q has a forbidden one-way arc first, then a link whose
        // reverse is the only q->p arc. The always-on path s-q-p-t
        // crosses that link as q->p, so no s-t path avoids every
        // installed link and the walk fails. Yet the all-avoiding path
        // s-p-q-r-t, which takes the link p->q, shares none as
        // `Path::arcs` counts them: its p->q hop resolves to the one-way
        // arc. The two-search rule keeps that path; the always-on search
        // first would return the on-demand path s-m-t.
        let mut b = TopologyBuilder::new("parallel");
        let [s, p, q, r, t, m] = ["s", "p", "q", "r", "t", "m"].map(|x| b.add_node(x));
        let one_way = b.add_arc(p, q, MBPS, MS);
        b.add_link(p, q, MBPS, MS);
        let heavy = [b.add_link(s, q, MBPS, MS).0, b.add_link(p, t, MBPS, MS).0];
        for (x, y) in [(s, p), (q, r), (r, t), (s, m), (m, t)] {
            b.add_link(x, y, MBPS, MS);
        }
        let topo = b.build();
        let w = |a: ArcId| match a {
            _ if a == one_way => f64::INFINITY,
            _ if heavy.contains(&topo.link_of(a)) => 10.0,
            _ => 1.0,
        };
        let always_on = Path::new(vec![s, q, p, t]);
        let on_demand = Path::new(vec![s, m, t]);
        let installed = [&always_on, &on_demand];
        let mut search = DisjointSearch::new(&topo, w, None);
        assert!(!topo.is_simple());
        assert!(!search.reaches(s, t, &installed));
        let want = Path::new(vec![s, p, q, r, t]);
        assert_eq!(search.path(s, t, &installed), Some((want.clone(), 0)));
        assert_eq!(two_search_failover(&mut search, s, t, &installed), want);
        assert_eq!(search.failover(s, t, &installed), want);
    }

    #[test]
    fn overflowing_costs_keep_the_two_search_order() {
        // Always-on s-t of base weight 1e308, on-demand s-x-t: the penalty
        // overflows, so the all-avoiding search forbids every installed
        // link and reaches nothing, and the rule falls back to the
        // always-on path, although s-x-t avoids it.
        let mut b = TopologyBuilder::new("heavy");
        let [s, x, t] = ["s", "x", "t"].map(|n| b.add_node(n));
        let (heavy, _) = b.add_link(s, t, MBPS, MS);
        b.add_link(s, x, MBPS, MS);
        b.add_link(x, t, MBPS, MS);
        let topo = b.build();
        let w = |a: ArcId| if topo.link_of(a) == heavy { 1e308 } else { 1.0 };
        let always_on = Path::new(vec![s, t]);
        let on_demand = Path::new(vec![s, x, t]);
        let installed = [&always_on, &on_demand];
        let mut search = DisjointSearch::new(&topo, w, None);
        assert_eq!(search.path(s, t, &[&always_on]).map(|(_, k)| k), Some(0));
        assert_eq!(
            two_search_failover(&mut search, s, t, &installed),
            always_on
        );
        assert_eq!(search.failover(s, t, &installed), always_on);
    }

    #[test]
    fn the_walk_takes_only_unpenalized_arcs() {
        // Theta with a direct link: always-on 0-1-3, on-demand 0-2-3.
        // Only the direct link avoids both, and the walk reaches 3 over
        // it unless it is installed too, forbidden or dark.
        let mut b = TopologyBuilder::new("theta-direct");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        for (p, q) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            b.add_link(n[p], n[q], MBPS, MS);
        }
        let (direct_link, _) = b.add_link(n[0], n[3], MBPS, MS);
        let t = b.build();
        let always_on = Path::new(vec![n[0], n[1], n[3]]);
        let on_demand = Path::new(vec![n[0], n[2], n[3]]);
        let direct = Path::new(vec![n[0], n[3]]);
        let installed = [&always_on, &on_demand];
        let forbidden = |a: ArcId| {
            if t.link_of(a) == direct_link {
                f64::INFINITY
            } else {
                1.0
            }
        };
        let mut dark = ActiveSet::all_on(&t);
        dark.set_link(&t, direct_link, false);

        let mut search = DisjointSearch::new(&t, |_| 1.0, None);
        assert!(search.reaches(n[0], n[3], &installed));
        assert_eq!(search.failover(n[0], n[3], &installed), direct);
        // The always-on search finds the direct link, which avoids 0-1-3.
        let all_three = [&always_on, &on_demand, &direct];
        assert!(!search.reaches(n[0], n[3], &all_three));
        assert_eq!(search.failover(n[0], n[3], &all_three), direct);
        // Without the direct link, the always-on search finds 0-2-3.
        let mut forbidding = DisjointSearch::new(&t, forbidden, None);
        let mut darkened = DisjointSearch::new(&t, |_| 1.0, Some(&dark));
        assert!(!forbidding.reaches(n[0], n[3], &installed));
        assert!(!darkened.reaches(n[0], n[3], &installed));
        assert_eq!(forbidding.failover(n[0], n[3], &installed), on_demand);
        assert_eq!(darkened.failover(n[0], n[3], &installed), on_demand);
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
