//! # respons-core — the REsPoNse framework
//!
//! The paper's primary contribution (§4): REsPoNse identifies a few
//! *energy-critical paths* off-line, installs them as three routing
//! tables, and uses a simple online traffic-engineering element to let
//! large parts of the network sleep:
//!
//! * [`PathTables`] — the installed state: per OD pair an **always-on**
//!   path, up to `N − 2` **on-demand** paths, and a **failover** path.
//! * [`Planner`] / [`PlannerConfig`] — the off-line computation (§4.1–
//!   4.3): a minimal-power-tree always-on table (optionally delay-bounded
//!   — *REsPoNse-lat*), on-demand tables via the stress-factor
//!   construction (or peak-matrix / OSPF / GreenTE-like variants), and
//!   link-disjoint failover paths.
//! * [`critical`] — the traffic-matrix analytics of §3: ranking the
//!   paths each OD pair actually uses across a trace (Fig. 2b) and
//!   counting routing-configuration dominance (Fig. 2a).
//! * [`te`] — REsPoNseTE's decision logic (§4.4): edge agents
//!   aggregate traffic onto always-on paths while the SLO holds and
//!   spill to on-demand paths (waking them) when it does not; pure
//!   functions here, actuated by `ecp-simnet`.
//! * [`replay`] — steady-state trace replay over fixed tables: the
//!   power-vs-time series of Figs. 4, 5, 6 without rerunning the full
//!   simulator.

pub mod critical;
pub mod deploy;
pub mod drift;
pub mod planner;
pub mod replay;
pub mod resilience;
pub mod tables;
pub mod te;

pub use critical::{coverage_by_top_paths, PathUsage};
pub use deploy::{deploy_most_important, tunnel_usage, DeploymentReport, DeviceLimits};
pub use drift::{DriftConfig, DriftDetector, ReplanAdvice, ReplanReason};
pub use planner::{OnDemandStrategy, Planner, PlannerConfig};
pub use replay::{steady_state_replay, ReplayPoint, ReplayReport};
pub use resilience::{single_link_failure_coverage, ResilienceReport};
pub use tables::{OdPaths, PathTables};
pub use te::{
    apply_step_into, decide_shares_into, waterfill_iterations, waterfill_target_into, PathView,
    TeConfig,
};
