//! # ecp-routing — routing schemes, feasibility oracle, and energy-aware
//! # subset optimizers
//!
//! The substrate under the REsPoNse planner and every baseline in the
//! paper's evaluation:
//!
//! * [`RouteSet`] — an unsplittable routing (one path per OD pair), with
//!   link-load accounting and capacity-feasibility checks; the concrete
//!   realization of the paper's binary `f(i→j)(O,D)` flow variables.
//! * [`ospf`] — OSPF with Cisco-recommended inverse-capacity weights
//!   (the paper's *OSPF-InvCap* baseline) and [`ospf::EcmpRoutes`]
//!   (Equal-Cost Multi-Path, the Fig. 4 baseline).
//! * [`oracle`] — the multi-commodity *feasibility oracle*: place all
//!   unsplittable demands on an active subset within a utilization
//!   margin, via greedy placement + randomized restarts +
//!   rip-up-and-reroute. [`FeasibilityOracle`] binds it to one active
//!   subset and shares one shortest-path tree per origin across demands
//!   and calls.
//! * [`subset`] — minimal-power subset optimizers: Chiaraviglio-style
//!   greedy pruning, a GreenTE-like k-shortest-paths heuristic, an
//!   exhaustive exact solver for tiny nets, and the best-of-ensemble
//!   "optimal" used where the paper ran CPLEX for hours.
//!   [`SubsetSolver`] keeps one bound oracle per probed subset across
//!   the matrices of a trace.
//! * [`recompute`] — the paper's *recomputation rate* metric (§3.2,
//!   Fig. 1b) and the routing-configuration dominance analysis (Fig. 2a).

pub mod capacity;
pub mod elastictree;
pub mod oracle;
pub mod ospf;
pub mod recompute;
pub mod routeset;
pub mod subset;

pub use capacity::{gravity_at_utilization, max_feasible_volume};
pub use elastictree::elastictree_subset;
pub use oracle::{place_flows, FeasibilityOracle, OracleConfig};
pub use ospf::{ecmp_routes, ospf_invcap, EcmpRoutes};
pub use recompute::{recomputation_rate, ConfigDominance, RecomputationReport};
pub use routeset::RouteSet;
pub use subset::{
    exact_small_subset, greedy_prune, greente_like, optimal_subset, SubsetResult, SubsetSolver,
};
