//! Core graph types: [`Topology`], [`Node`], [`Arc`] and their builders.
//!
//! The paper models the network as a set of routers `N` and a directed arc
//! set `A`; an undirected *link* between routers `i` and `j` is a pair of
//! directed arcs `i→j` and `j→i` that must share a power state
//! (`Y(i→j) = Y(j→i)`). We therefore store directed arcs and keep a
//! `reverse` index pairing the two directions of each link.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a router (or switch) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a directed arc in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArcId(pub u32);

impl NodeId {
    /// Usize view for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ArcId {
    /// Usize view for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Role of a node inside a hierarchical topology. Used by the power model
/// (feeder/access nodes must stay powered) and by generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Backbone / core router (default for flat topologies).
    Core,
    /// Aggregation or backbone-level router in hierarchical designs.
    Aggregation,
    /// Edge / metro router, traffic origin/destination.
    Edge,
    /// Datacenter host-facing switch (fat-tree edge layer).
    TorSwitch,
    /// Datacenter aggregation switch.
    AggSwitch,
    /// Datacenter core switch.
    CoreSwitch,
    /// End host (used by the application workloads).
    Host,
}

impl NodeRole {
    /// Whether this node is a plausible traffic origin/destination.
    pub fn is_edge(self) -> bool {
        matches!(self, NodeRole::Edge | NodeRole::TorSwitch | NodeRole::Host)
    }
}

/// A router or switch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable name (e.g. a PoP city).
    pub name: String,
    /// Role in the topology hierarchy.
    pub role: NodeRole,
    /// Hierarchy level, 0 = top. Generators fill this in; flat topologies
    /// use 0 everywhere.
    pub level: u8,
}

impl Node {
    /// A core node with the given name.
    pub fn core(name: impl Into<String>) -> Self {
        Node {
            name: name.into(),
            role: NodeRole::Core,
            level: 0,
        }
    }
}

/// A directed arc `src → dst`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arc {
    /// Originating router.
    pub src: NodeId,
    /// Terminating router.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub capacity: f64,
    /// Propagation latency in seconds.
    pub latency: f64,
    /// Geographic length in kilometres (drives amplifier power). Zero for
    /// intra-building links.
    pub length_km: f64,
}

/// A directed multigraph with paired arcs, the substrate of every
/// experiment in the reproduction.
///
/// Build one with [`TopologyBuilder`] (usually via a generator in
/// [`crate::gen`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    nodes: Vec<Node>,
    arcs: Vec<Arc>,
    /// `out[i]` lists the arcs originating at node `i` (the paper's `A_i`).
    out: Vec<Vec<ArcId>>,
    /// `inc[i]` lists the arcs terminating at node `i`.
    inc: Vec<Vec<ArcId>>,
    /// `reverse[a]` is the arc in the opposite direction of `a` (same
    /// physical link), if the link is bidirectional.
    reverse: Vec<Option<ArcId>>,
}

impl Topology {
    /// Topology name (e.g. `"geant-like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Number of physical (bidirectional) links; unpaired arcs count as a
    /// link each.
    pub fn link_count(&self) -> usize {
        let paired = self.reverse.iter().filter(|r| r.is_some()).count();
        (self.arcs.len() - paired) + paired / 2
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All arc ids.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        (0..self.arcs.len() as u32).map(ArcId)
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Arc accessor.
    pub fn arc(&self, id: ArcId) -> &Arc {
        &self.arcs[id.idx()]
    }

    /// Arcs originating at `i` (the paper's `A_i`).
    pub fn out_arcs(&self, i: NodeId) -> &[ArcId] {
        &self.out[i.idx()]
    }

    /// Arcs terminating at `i`.
    pub fn in_arcs(&self, i: NodeId) -> &[ArcId] {
        &self.inc[i.idx()]
    }

    /// The opposite-direction arc of the same physical link, if any.
    pub fn reverse(&self, a: ArcId) -> Option<ArcId> {
        self.reverse[a.idx()]
    }

    /// Canonical link id for an arc: the smaller of the arc id and its
    /// reverse. Two arcs of the same physical link share a canonical id,
    /// which is how the paper's `Y(i→j) = Y(j→i)` constraint is enforced.
    pub fn link_of(&self, a: ArcId) -> ArcId {
        match self.reverse[a.idx()] {
            Some(r) if r.0 < a.0 => r,
            _ => a,
        }
    }

    /// Iterate canonical link representatives (one arc per physical link).
    pub fn link_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        self.arc_ids().filter(|&a| self.link_of(a) == a)
    }

    /// Find the arc `src → dst`, if one exists (first match on parallel
    /// arcs).
    pub fn find_arc(&self, src: NodeId, dst: NodeId) -> Option<ArcId> {
        self.out[src.idx()]
            .iter()
            .copied()
            .find(|&a| self.arcs[a.idx()].dst == dst)
    }

    /// Whether no two arcs share their ordered endpoints, so that
    /// [`Topology::find_arc`] (and with it [`crate::Path::arcs`])
    /// resolves every hop to the one arc between its two nodes.
    pub fn is_simple(&self) -> bool {
        self.arc_ids().all(|a| {
            let arc = self.arc(a);
            self.find_arc(arc.src, arc.dst) == Some(a)
        })
    }

    /// Find a node by its name (exact match).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|&n| self.node(n).name == name)
    }

    /// Degree of a node counting outgoing arcs.
    pub fn degree(&self, i: NodeId) -> usize {
        self.out[i.idx()].len()
    }

    /// Nodes with the given role.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).role == role)
            .collect()
    }

    /// Edge nodes (plausible traffic origins/destinations). Falls back to
    /// *all* nodes when the topology is flat (no role marked edge), which
    /// is how the paper treats PoP-level ISP maps.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        let e: Vec<NodeId> = self
            .node_ids()
            .filter(|&n| self.node(n).role.is_edge())
            .collect();
        if e.is_empty() {
            self.node_ids().collect()
        } else {
            e
        }
    }

    /// Total capacity of arcs adjacent (in or out) to `i`; the gravity
    /// traffic model weights PoPs by this quantity.
    pub fn adjacent_capacity(&self, i: NodeId) -> f64 {
        let o: f64 = self.out[i.idx()]
            .iter()
            .map(|&a| self.arcs[a.idx()].capacity)
            .sum();
        let inn: f64 = self.inc[i.idx()]
            .iter()
            .map(|&a| self.arcs[a.idx()].capacity)
            .sum();
        o + inn
    }

    /// Sum of all arc capacities.
    pub fn total_capacity(&self) -> f64 {
        self.arcs.iter().map(|a| a.capacity).sum()
    }

    /// Sanity-check internal invariants. Used by tests and on deserialize.
    pub fn validate(&self) -> Result<(), String> {
        for (i, arc) in self.arcs.iter().enumerate() {
            if arc.src.idx() >= self.nodes.len() || arc.dst.idx() >= self.nodes.len() {
                return Err(format!("arc {i} references missing node"));
            }
            if arc.src == arc.dst {
                return Err(format!("arc {i} is a self-loop"));
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must also fail
            if !(arc.capacity > 0.0) {
                return Err(format!("arc {i} has non-positive capacity"));
            }
            if arc.latency < 0.0 {
                return Err(format!("arc {i} has negative latency"));
            }
        }
        for (i, r) in self.reverse.iter().enumerate() {
            if let Some(r) = r {
                let a = &self.arcs[i];
                let b = &self.arcs[r.idx()];
                if self.reverse[r.idx()] != Some(ArcId(i as u32)) {
                    return Err(format!("reverse pairing of arc {i} is not symmetric"));
                }
                if a.src != b.dst || a.dst != b.src {
                    return Err(format!(
                        "reverse of arc {i} does not connect same endpoints"
                    ));
                }
            }
        }
        for (n, lst) in self.out.iter().enumerate() {
            for &a in lst {
                if self.arcs[a.idx()].src != NodeId(n as u32) {
                    return Err(format!("out-adjacency of node {n} lists foreign arc"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental constructor for [`Topology`].
///
/// ```
/// use ecp_topo::{TopologyBuilder, MBPS, MS};
/// let mut b = TopologyBuilder::new("tiny");
/// let a = b.add_node("a");
/// let c = b.add_node("c");
/// b.add_link(a, c, 100.0 * MBPS, 5.0 * MS);
/// let topo = b.build();
/// assert_eq!(topo.node_count(), 2);
/// assert_eq!(topo.arc_count(), 2); // one link = two directed arcs
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<Node>,
    arcs: Vec<Arc>,
    reverse: Vec<Option<ArcId>>,
}

impl TopologyBuilder {
    /// Start a new topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            nodes: Vec::new(),
            arcs: Vec::new(),
            reverse: Vec::new(),
        }
    }

    /// Add a core node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node_full(Node::core(name))
    }

    /// Add a node with full attributes.
    pub fn add_node_full(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Add a single directed arc (no reverse pairing). Returns its id.
    pub fn add_arc(&mut self, src: NodeId, dst: NodeId, capacity: f64, latency: f64) -> ArcId {
        assert_ne!(src, dst, "self-loop arcs are not allowed");
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push(Arc {
            src,
            dst,
            capacity,
            latency,
            length_km: 0.0,
        });
        self.reverse.push(None);
        id
    }

    /// Add a bidirectional link as a pair of mutually-reverse arcs with
    /// identical capacity and latency. Returns `(forward, backward)`.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        latency: f64,
    ) -> (ArcId, ArcId) {
        self.add_link_asym(a, b, capacity, capacity, latency)
    }

    /// Add a bidirectional link with asymmetric capacities (the paper
    /// notes `C(i→j) = C(j→i)` need not hold).
    pub fn add_link_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        cap_ab: f64,
        cap_ba: f64,
        latency: f64,
    ) -> (ArcId, ArcId) {
        let f = self.add_arc(a, b, cap_ab, latency);
        let r = self.add_arc(b, a, cap_ba, latency);
        self.reverse[f.idx()] = Some(r);
        self.reverse[r.idx()] = Some(f);
        (f, r)
    }

    /// Set the geographic length of the most recently added link (both
    /// directions). Drives amplifier power in `ecp-power`.
    pub fn set_last_link_length(&mut self, km: f64) {
        let n = self.arcs.len();
        assert!(n >= 2, "no link added yet");
        self.arcs[n - 1].length_km = km;
        self.arcs[n - 2].length_km = km;
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalize into an immutable [`Topology`].
    pub fn build(self) -> Topology {
        let mut out = vec![Vec::new(); self.nodes.len()];
        let mut inc = vec![Vec::new(); self.nodes.len()];
        for (i, arc) in self.arcs.iter().enumerate() {
            out[arc.src.idx()].push(ArcId(i as u32));
            inc[arc.dst.idx()].push(ArcId(i as u32));
        }
        let t = Topology {
            name: self.name,
            nodes: self.nodes,
            arcs: self.arcs,
            out,
            inc,
            reverse: self.reverse,
        };
        debug_assert_eq!(t.validate(), Ok(()));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MBPS, MS};

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new("triangle");
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        b.add_link(n0, n1, 10.0 * MBPS, MS);
        b.add_link(n1, n2, 10.0 * MBPS, MS);
        b.add_link(n2, n0, 10.0 * MBPS, MS);
        b.build()
    }

    #[test]
    fn builder_produces_paired_arcs() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.arc_count(), 6);
        assert_eq!(t.link_count(), 3);
        for a in t.arc_ids() {
            let r = t.reverse(a).expect("all arcs paired");
            assert_eq!(t.reverse(r), Some(a));
            assert_eq!(t.arc(a).src, t.arc(r).dst);
            assert_eq!(t.arc(a).dst, t.arc(r).src);
        }
    }

    #[test]
    fn link_of_is_canonical() {
        let t = triangle();
        for a in t.arc_ids() {
            let l = t.link_of(a);
            assert_eq!(t.link_of(l), l, "canonical id is a fixed point");
            if let Some(r) = t.reverse(a) {
                assert_eq!(t.link_of(a), t.link_of(r), "both directions share link id");
            }
        }
        assert_eq!(t.link_ids().count(), 3);
    }

    #[test]
    fn find_arc_and_adjacency() {
        let t = triangle();
        let a = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.arc(a).src, NodeId(0));
        assert_eq!(t.arc(a).dst, NodeId(1));
        assert!(t.find_arc(NodeId(0), NodeId(0)).is_none());
        assert_eq!(t.out_arcs(NodeId(0)).len(), 2);
        assert_eq!(t.in_arcs(NodeId(0)).len(), 2);
        assert_eq!(t.degree(NodeId(1)), 2);
    }

    #[test]
    fn adjacent_capacity_counts_both_directions() {
        let t = triangle();
        // Each node touches 2 links, 4 arcs of 10 Mbps.
        assert!((t.adjacent_capacity(NodeId(0)) - 40.0 * MBPS).abs() < 1.0);
    }

    #[test]
    fn validate_accepts_builder_output() {
        assert_eq!(triangle().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut b = TopologyBuilder::new("bad");
        let n = b.add_node("x");
        b.add_arc(n, n, MBPS, MS);
    }

    #[test]
    fn serde_roundtrip() {
        let t = triangle();
        let js = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&js).unwrap();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.arc_count(), t.arc_count());
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn asymmetric_link_capacities() {
        let mut b = TopologyBuilder::new("asym");
        let a = b.add_node("a");
        let c = b.add_node("c");
        let (f, r) = b.add_link_asym(a, c, 10.0 * MBPS, 5.0 * MBPS, MS);
        let t = b.build();
        assert!((t.arc(f).capacity - 10.0 * MBPS).abs() < 1.0);
        assert!((t.arc(r).capacity - 5.0 * MBPS).abs() < 1.0);
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn edge_nodes_fallback_to_all_when_flat() {
        let t = triangle();
        assert_eq!(t.edge_nodes().len(), 3);
    }
}
