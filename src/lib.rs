//! # REsPoNse — identifying and using energy-critical paths
//!
//! This is the facade crate of the reproduction of *"Identifying and
//! Using Energy-Critical Paths"* (Vasić et al., ACM CoNEXT 2011). It
//! re-exports every subsystem so examples and downstream users can depend
//! on a single crate:
//!
//! * [`topo`] — topologies, generators, graph algorithms.
//! * [`power`] — router/link power models and network power evaluation.
//! * [`traffic`] — traffic matrices, gravity/sine models, trace
//!   generators and replay.
//! * [`routing`] — routing schemes, the feasibility oracle, baselines
//!   (OSPF-InvCap, ECMP, greedy/GreenTE heuristics, optimal subset).
//! * [`core`] — the REsPoNse framework itself: always-on / on-demand /
//!   failover planning, energy-critical path analytics, and the
//!   REsPoNseTE online traffic-engineering logic.
//! * [`control`] — pluggable online TE control-loop policies (undamped
//!   baseline, EWMA smoothing, hysteresis, damped step,
//!   desynchronization) and the control-stability analyzer.
//! * [`simnet`] — the discrete-event network simulator used for all
//!   runtime experiments, with scriptable event injection, a pausable
//!   stepping API, and policy-driven TE agents.
//! * [`scenario`] — declarative experiments: serializable `Scenario`
//!   values (topology spec + traffic program + event script + metrics
//!   selection, from TOML or a builder) and `grid`, which expands one
//!   over parameter axes.
//! * [`campaign`] — whole-evaluation orchestration, the one way to run a
//!   set of scenarios: multi-scenario campaign specs, deterministic
//!   execution (one in-process pass, or sharded across worker
//!   subprocesses), a content-addressed cached result store, and
//!   Markdown/CSV/JSON comparison reports.
//! * [`apps`] — application-level workloads (streaming, web) running on
//!   the simulator.
//!
//! ## Quickstart
//!
//! ```
//! use response::prelude::*;
//!
//! // 1. A topology and a power model.
//! let topo = response::topo::gen::geant();
//! let power = PowerModel::cisco12000();
//!
//! // 2. Plan REsPoNse paths once, off-line.
//! let plan = Planner::new(&topo, &power).plan(&PlannerConfig::default());
//!
//! // 3. Evaluate the power draw of the always-on subset.
//! let full = power.network_power(&topo, &ActiveSet::all_on(&topo));
//! let idle = power.network_power(&topo, &plan.always_on_active(&topo));
//! assert!(idle < full);
//! ```

pub use ecp_apps as apps;
pub use ecp_campaign as campaign;
pub use ecp_control as control;
pub use ecp_power as power;
pub use ecp_routing as routing;
pub use ecp_scenario as scenario;
pub use ecp_simnet as simnet;
pub use ecp_topo as topo;
pub use ecp_traffic as traffic;
pub use respons_core as core;

/// Most-used items in one import.
pub mod prelude {
    pub use ecp_power::PowerModel;
    pub use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology, TopologyBuilder};
    pub use ecp_traffic::TrafficMatrix;
    pub use respons_core::{PathTables, Planner, PlannerConfig};
}
