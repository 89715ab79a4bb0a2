//! Power-state bookkeeping: which routers and links are on.
//!
//! [`ActiveSet`] is the decision-variable vector of the paper's model: the
//! binary `X_i` (router i powered) and `Y(i→j)` (link active) values. The
//! paper's structural constraints are enforced by construction:
//!
//! 1. `Y(i→j) = Y(j→i)` — link state is tracked per canonical link id.
//! 2. `Y(i→j) ≤ X_i` — deactivating a router deactivates its links
//!    ([`ActiveSet::set_node`]).
//! 3. `X_i ≤ Σ Y` — [`ActiveSet::prune_isolated_nodes`] powers off
//!    routers with no active link.

use crate::graph::{ArcId, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// The power state of every router and link in a topology.
///
/// Cheap to clone (two bit-vectors). `Hash` and `Eq` compare the bits
/// exactly, so a set can key a cache of per-subset state; routing
/// *configurations* are counted by the canonical signature
/// ([`ActiveSet::signature`]) in the Fig. 2a analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveSet {
    nodes_on: Vec<bool>,
    /// Indexed by canonical link id (arc id of the canonical direction);
    /// non-canonical slots are unused but kept for O(1) indexing.
    links_on: Vec<bool>,
}

/// Feeds each bit-vector's length and its bits packed 64 to a word:
/// equal sets (the derived `Eq`) write equal words, with one hasher call
/// per word instead of one per bit.
impl Hash for ActiveSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for bits in [&self.nodes_on, &self.links_on] {
            state.write_usize(bits.len());
            for word in bits.chunks(64) {
                let packed = word
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (i, &b)| w | (b as u64) << i);
                state.write_u64(packed);
            }
        }
    }
}

impl ActiveSet {
    /// Everything powered on.
    pub fn all_on(topo: &Topology) -> Self {
        ActiveSet {
            nodes_on: vec![true; topo.node_count()],
            links_on: vec![true; topo.arc_count()],
        }
    }

    /// Everything powered off.
    pub fn all_off(topo: &Topology) -> Self {
        ActiveSet {
            nodes_on: vec![false; topo.node_count()],
            links_on: vec![false; topo.arc_count()],
        }
    }

    /// Whether router `n` is powered.
    #[inline]
    pub fn node_on(&self, n: NodeId) -> bool {
        self.nodes_on[n.idx()]
    }

    /// Whether the physical link of arc `a` is active. Requires the
    /// topology to resolve the canonical link id.
    #[inline]
    pub fn arc_on(&self, topo: &Topology, a: ArcId) -> bool {
        let l = topo.link_of(a);
        self.links_on[l.idx()] && self.node_on(topo.arc(a).src) && self.node_on(topo.arc(a).dst)
    }

    /// Raw link-state bit (ignores endpoint router state); mainly for
    /// internal use and tests.
    pub fn link_bit(&self, topo: &Topology, a: ArcId) -> bool {
        self.links_on[topo.link_of(a).idx()]
    }

    /// Power a router on/off. Turning a router off does *not* flip link
    /// bits, but [`ActiveSet::arc_on`] already reports adjacent links as
    /// inactive (constraint 1 of the paper).
    pub fn set_node(&mut self, n: NodeId, on: bool) {
        self.nodes_on[n.idx()] = on;
    }

    /// Activate/deactivate the physical link of arc `a` (both directions
    /// at once, the paper's `Y(i→j) = Y(j→i)`).
    pub fn set_link(&mut self, topo: &Topology, a: ArcId, on: bool) {
        let l = topo.link_of(a);
        self.links_on[l.idx()] = on;
    }

    /// Power off every router whose links are all inactive (constraint 3:
    /// `X_i ≤ Σ_j Y(i→j)`). Returns the number of routers switched off.
    pub fn prune_isolated_nodes(&mut self, topo: &Topology) -> usize {
        let mut pruned = 0;
        for n in topo.node_ids() {
            if !self.nodes_on[n.idx()] {
                continue;
            }
            let any = topo
                .out_arcs(n)
                .iter()
                .chain(topo.in_arcs(n).iter())
                .any(|&a| self.links_on[topo.link_of(a).idx()]);
            if !any {
                self.nodes_on[n.idx()] = false;
                pruned += 1;
            }
        }
        pruned
    }

    /// Activate exactly the routers and links touched by the given arc
    /// sets, deactivating everything else.
    pub fn from_used_arcs(topo: &Topology, used: impl IntoIterator<Item = ArcId>) -> Self {
        let mut s = ActiveSet::all_off(topo);
        for a in used {
            s.links_on[topo.link_of(a).idx()] = true;
            s.nodes_on[topo.arc(a).src.idx()] = true;
            s.nodes_on[topo.arc(a).dst.idx()] = true;
        }
        s
    }

    /// Union in-place: anything on in `other` becomes on here.
    pub fn union(&mut self, other: &ActiveSet) {
        for (a, b) in self.nodes_on.iter_mut().zip(&other.nodes_on) {
            *a |= b;
        }
        for (a, b) in self.links_on.iter_mut().zip(&other.links_on) {
            *a |= b;
        }
    }

    /// Number of powered routers.
    pub fn nodes_on_count(&self) -> usize {
        self.nodes_on.iter().filter(|&&b| b).count()
    }

    /// Number of *effectively* active physical links: link bit set and
    /// both endpoint routers powered (consistent with
    /// [`ActiveSet::arc_on`]).
    pub fn links_on_count(&self, topo: &Topology) -> usize {
        topo.link_ids().filter(|&l| self.arc_on(topo, l)).count()
    }

    /// Deterministic signature of the configuration, suitable for use as
    /// a map key when counting distinct routing configurations (Fig. 2a).
    pub fn signature(&self, topo: &Topology) -> u64 {
        // FNV-1a over the node bits then canonical link bits.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bit: bool| {
            h ^= bit as u64 + 1;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for &b in &self.nodes_on {
            feed(b);
        }
        for l in topo.link_ids() {
            feed(self.links_on[l.idx()]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::{MBPS, MS};

    fn square() -> Topology {
        // 0-1
        // |  |
        // 3-2
        let mut b = TopologyBuilder::new("square");
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("{i}"))).collect();
        b.add_link(n[0], n[1], MBPS, MS);
        b.add_link(n[1], n[2], MBPS, MS);
        b.add_link(n[2], n[3], MBPS, MS);
        b.add_link(n[3], n[0], MBPS, MS);
        b.build()
    }

    #[test]
    fn all_on_off() {
        let t = square();
        let on = ActiveSet::all_on(&t);
        assert_eq!(on.nodes_on_count(), 4);
        assert_eq!(on.links_on_count(&t), 4);
        let off = ActiveSet::all_off(&t);
        assert_eq!(off.nodes_on_count(), 0);
        assert_eq!(off.links_on_count(&t), 0);
    }

    #[test]
    fn link_state_is_shared_between_directions() {
        let t = square();
        let mut s = ActiveSet::all_on(&t);
        let a01 = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        let a10 = t.find_arc(NodeId(1), NodeId(0)).unwrap();
        s.set_link(&t, a01, false);
        assert!(!s.arc_on(&t, a01));
        assert!(!s.arc_on(&t, a10), "Y(i->j) == Y(j->i)");
    }

    #[test]
    fn node_off_disables_adjacent_arcs() {
        let t = square();
        let mut s = ActiveSet::all_on(&t);
        s.set_node(NodeId(1), false);
        let a01 = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        let a12 = t.find_arc(NodeId(1), NodeId(2)).unwrap();
        assert!(!s.arc_on(&t, a01), "Y <= X at dst");
        assert!(!s.arc_on(&t, a12), "Y <= X at src");
        let a23 = t.find_arc(NodeId(2), NodeId(3)).unwrap();
        assert!(s.arc_on(&t, a23));
    }

    #[test]
    fn prune_isolated() {
        let t = square();
        let mut s = ActiveSet::all_on(&t);
        // Disable both links adjacent to node 0.
        let a01 = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        let a30 = t.find_arc(NodeId(3), NodeId(0)).unwrap();
        s.set_link(&t, a01, false);
        s.set_link(&t, a30, false);
        let pruned = s.prune_isolated_nodes(&t);
        assert_eq!(pruned, 1);
        assert!(!s.node_on(NodeId(0)));
        assert!(s.node_on(NodeId(1)));
    }

    #[test]
    fn from_used_arcs_minimal() {
        let t = square();
        let a01 = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        let s = ActiveSet::from_used_arcs(&t, [a01]);
        assert_eq!(s.nodes_on_count(), 2);
        assert_eq!(s.links_on_count(&t), 1);
        assert!(s.arc_on(&t, a01));
        let a23 = t.find_arc(NodeId(2), NodeId(3)).unwrap();
        assert!(!s.arc_on(&t, a23));
    }

    #[test]
    fn signature_distinguishes_configs() {
        let t = square();
        let s1 = ActiveSet::all_on(&t);
        let mut s2 = ActiveSet::all_on(&t);
        let a01 = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        s2.set_link(&t, a01, false);
        assert_ne!(s1.signature(&t), s2.signature(&t));
        assert_eq!(s1.signature(&t), ActiveSet::all_on(&t).signature(&t));
    }

    #[test]
    fn union_merges() {
        let t = square();
        let a01 = t.find_arc(NodeId(0), NodeId(1)).unwrap();
        let a23 = t.find_arc(NodeId(2), NodeId(3)).unwrap();
        let mut s = ActiveSet::from_used_arcs(&t, [a01]);
        let s2 = ActiveSet::from_used_arcs(&t, [a23]);
        s.union(&s2);
        assert_eq!(s.nodes_on_count(), 4);
        assert_eq!(s.links_on_count(&t), 2);
    }
}
