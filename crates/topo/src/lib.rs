//! # ecp-topo — network topology substrate
//!
//! This crate provides the graph model used throughout the REsPoNse
//! reproduction ("Identifying and Using Energy-Critical Paths", CoNEXT
//! 2011):
//!
//! * [`Topology`] — a directed multigraph of routers and arcs annotated
//!   with capacities (bits/s) and propagation latencies (seconds). Links
//!   are modelled as *paired directed arcs* so that `C(i→j) != C(j→i)` is
//!   representable, while the paper's constraint `Y(i→j) = Y(j→i)` (a link
//!   cannot be half-powered) is expressible through [`Topology::reverse`].
//! * [`Path`] — a loop-free node sequence with validation and arc
//!   iteration.
//! * [`ActiveSet`] — which routers/links are powered on; the unit on
//!   which network power is evaluated and the paper's optimization
//!   operates.
//! * [`algo`] — Dijkstra (plain, weighted, delay-bounded), Yen's
//!   k-shortest paths, Dinic max-flow, connectivity checks, and
//!   link-disjoint path search.
//! * [`MinEntry`] — the min-queue entry of the shortest-path searches
//!   and of `ecp-simnet`'s event queues: one integer key per entry.
//! * [`gen`] — deterministic topology generators for every network the
//!   paper evaluates: fat-tree(k), a GÉANT-like European WAN, Rocketfuel
//!   PoP-level Abovenet/Genuity, the Italian-ISP-like hierarchical
//!   `pop_access`, plus synthetic shapes (line, ring, grid, Waxman
//!   random) and the example topology of the paper's Figure 3.
//!
//! Design follows the networking-guide ethos (smoltcp): event-driven
//! simplicity, no type-level tricks, extensive documentation, and
//! deterministic behaviour (all randomized generators take explicit
//! seeds).

pub mod active;
pub mod algo;
pub mod gen;
pub mod graph;
pub mod path;
pub mod queue;

pub use active::ActiveSet;
pub use graph::{Arc, ArcId, Node, NodeId, Topology, TopologyBuilder};
pub use path::Path;
pub use queue::MinEntry;

/// Bits per second in one megabit per second.
pub const MBPS: f64 = 1_000_000.0;
/// Bits per second in one gigabit per second.
pub const GBPS: f64 = 1_000_000_000.0;
/// One millisecond in seconds.
pub const MS: f64 = 1e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants() {
        assert_eq!(MBPS * 1000.0, GBPS);
        assert!((MS * 1000.0 - 1.0).abs() < 1e-12);
    }
}
