//! Reachability and connectivity checks on (sub)topologies.
//!
//! The always-on table must keep every OD pair connected; these checks are
//! the fast feasibility gate used by the minimal-power-tree search before
//! the (more expensive) capacity feasibility oracle runs.

use crate::active::ActiveSet;
use crate::graph::{ArcId, NodeId, Topology};

/// Set of nodes reachable from `src` following active arcs.
pub fn reachable_from(topo: &Topology, src: NodeId, active: Option<&ActiveSet>) -> Vec<bool> {
    search(topo, src, active, false)
}

/// Depth-first search from `src` over active arcs, along them or, with
/// `backward`, against them (the nodes that can reach `src`).
fn search(topo: &Topology, src: NodeId, active: Option<&ActiveSet>, backward: bool) -> Vec<bool> {
    let mut reach = Reach::default();
    reach.run(topo, src, active, backward, |_| true, |_| false);
    reach.seen
}

/// Reusable buffers for repeated reachability searches: a search
/// allocates nothing once they have grown to the topology's size.
#[derive(Default)]
pub struct Reach {
    seen: Vec<bool>,
    stack: Vec<NodeId>,
}

impl Reach {
    /// Search from `src` along active arcs until `stop` holds for a
    /// reached node, `src` included. Returns whether it stopped; if not,
    /// the reached nodes are exactly those reachable from `src`. A dark
    /// `src` reaches nothing.
    pub fn search_until(
        &mut self,
        topo: &Topology,
        src: NodeId,
        active: &ActiveSet,
        stop: impl FnMut(NodeId) -> bool,
    ) -> bool {
        self.run(topo, src, Some(active), false, |_| true, stop)
    }

    /// [`Reach::search_until`] on the whole topology, along only the
    /// arcs `usable` admits.
    pub fn search_arcs_until(
        &mut self,
        topo: &Topology,
        src: NodeId,
        usable: impl Fn(ArcId) -> bool,
        stop: impl FnMut(NodeId) -> bool,
    ) -> bool {
        self.run(topo, src, None, false, usable, stop)
    }

    /// Whether the last search reached `v`.
    pub fn reached(&self, v: NodeId) -> bool {
        self.seen[v.idx()]
    }

    fn run(
        &mut self,
        topo: &Topology,
        src: NodeId,
        active: Option<&ActiveSet>,
        backward: bool,
        usable: impl Fn(ArcId) -> bool,
        mut stop: impl FnMut(NodeId) -> bool,
    ) -> bool {
        let (seen, stack) = (&mut self.seen, &mut self.stack);
        seen.clear();
        seen.resize(topo.node_count(), false);
        stack.clear();
        if active.is_some_and(|s| !s.node_on(src)) {
            return false;
        }
        seen[src.idx()] = true;
        if stop(src) {
            return true;
        }
        stack.push(src);
        while let Some(u) = stack.pop() {
            let arcs = if backward {
                topo.in_arcs(u)
            } else {
                topo.out_arcs(u)
            };
            for &a in arcs {
                if !active.is_none_or(|s| s.arc_on(topo, a)) || !usable(a) {
                    continue;
                }
                let arc = topo.arc(a);
                let v = if backward { arc.src } else { arc.dst };
                if !seen[v.idx()] {
                    seen[v.idx()] = true;
                    if stop(v) {
                        return true;
                    }
                    stack.push(v);
                }
            }
        }
        false
    }
}

/// Whether every node in `required` can reach every other node in
/// `required` over active arcs.
///
/// Two searches from the first required node (the hub) decide it, on
/// asymmetric topologies too: if every required node is reachable from
/// the hub and can reach it, any two of them connect through the hub;
/// if one of those fails, that node and the hub are not connected.
pub fn is_connected(topo: &Topology, required: &[NodeId], active: Option<&ActiveSet>) -> bool {
    if required.len() <= 1 {
        return true;
    }
    let hub = required[0];
    let from_hub = search(topo, hub, active, false);
    if required.iter().any(|&q| !from_hub[q.idx()]) {
        return false;
    }
    let to_hub = search(topo, hub, active, true);
    required.iter().all(|&q| to_hub[q.idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::{MBPS, MS};

    fn path4() -> Topology {
        let mut b = TopologyBuilder::new("path4");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        for w in n.windows(2) {
            b.add_link(w[0], w[1], MBPS, MS);
        }
        b.build()
    }

    #[test]
    fn full_topology_connected() {
        let t = path4();
        let all: Vec<NodeId> = t.node_ids().collect();
        assert!(is_connected(&t, &all, None));
    }

    #[test]
    fn cutting_a_link_disconnects() {
        let t = path4();
        let all: Vec<NodeId> = t.node_ids().collect();
        let mut s = ActiveSet::all_on(&t);
        let mid = t.find_arc(NodeId(1), NodeId(2)).unwrap();
        s.set_link(&t, mid, false);
        assert!(!is_connected(&t, &all, Some(&s)));
        // But each side is still internally connected.
        assert!(is_connected(&t, &[NodeId(0), NodeId(1)], Some(&s)));
        assert!(is_connected(&t, &[NodeId(2), NodeId(3)], Some(&s)));
    }

    #[test]
    fn reachability_respects_node_state() {
        let t = path4();
        let mut s = ActiveSet::all_on(&t);
        s.set_node(NodeId(1), false);
        let seen = reachable_from(&t, NodeId(0), Some(&s));
        assert!(seen[0]);
        assert!(!seen[1]);
        assert!(!seen[2]);
    }

    #[test]
    fn empty_and_singleton_required_sets() {
        let t = path4();
        assert!(is_connected(&t, &[], None));
        assert!(is_connected(&t, &[NodeId(2)], None));
    }

    #[test]
    fn asymmetric_reachability() {
        // one-way arc 0 -> 1 only
        let mut b = TopologyBuilder::new("oneway");
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_arc(a, c, MBPS, MS);
        let t = b.build();
        assert!(reachable_from(&t, NodeId(0), None)[1]);
        assert!(!reachable_from(&t, NodeId(1), None)[0]);
        assert!(!is_connected(&t, &[NodeId(0), NodeId(1)], None));
    }
}
