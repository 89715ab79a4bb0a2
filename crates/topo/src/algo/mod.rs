//! Graph algorithms over [`crate::Topology`].
//!
//! All algorithms take an optional [`crate::ActiveSet`] view so they can
//! operate either on the full topology (planning time) or on the
//! currently-powered subset (run time). Weight functions are passed as
//! closures, which lets the same Dijkstra serve OSPF-InvCap (weight =
//! 1/capacity), latency (weight = latency), hop count (weight = 1), and
//! power-aware metrics.

pub mod connectivity;
pub mod dijkstra;
pub mod disjoint;
pub mod maxflow;
pub mod yen;

pub use connectivity::{is_connected, reachable_from, Reach};
pub use dijkstra::{
    shortest_path, shortest_path_bounded, shortest_path_tree, ArcWeight, Dijkstra,
    ShortestPathTrees,
};
pub use disjoint::{link_disjoint_path, DisjointSearch};
pub use maxflow::max_flow;
pub use yen::k_shortest_paths;
