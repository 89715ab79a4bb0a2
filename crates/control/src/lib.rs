//! # ecp-control — pluggable online TE control-loop policies
//!
//! REsPoNseTE's agents (§4.4) move traffic toward energy-minimal paths
//! every control interval using only local observations. Under
//! sustained overload with coupled flows, those simultaneous
//! observation rounds oscillate: every agent sees the headroom freed by
//! everyone else's spill, re-aggregates at the same instant, overloads
//! the always-on paths again, and spills again — visible as a
//! constant-fraction delivery shortfall at high load.
//!
//! This crate makes the control loop a first-class, swappable
//! component:
//!
//! * [`ControlPolicy`] — the agent decision interface: observe per-path
//!   headroom and write a new share vector into the caller's buffer
//!   ([`ControlPolicy::decide`]), optionally at a per-agent observation
//!   phase. `ecp-simnet` actuates whichever policy a simulation is
//!   built with.
//! * [`Undamped`] — bit-identical to the original hard-wired TE path
//!   ([`respons_core::te::decide_shares_into`]); the baseline every
//!   damping variant is measured against.
//! * [`Ewma`] — smoothed headroom estimation (gain `alpha`); agents
//!   react to the trend, not to one round's transient.
//! * [`AdaptiveEwma`] — load-dependent smoothing: the gain
//!   interpolates from `alpha_max` (light load, raw tracking) down to
//!   `alpha_min` as the agent's overload pressure rises, so damping
//!   concentrates where the oscillation lives.
//! * [`Hysteresis`] — separate spill / re-aggregate thresholds plus a
//!   dead-band: spilling stays eager, re-aggregation requires margin.
//! * [`DampedStep`] — load-proportional gain scaling with a per-flow
//!   cooldown after each reconfiguration.
//! * [`Desync`] — seeded per-agent phase jitter; agents observe at
//!   staggered instants instead of simultaneously.
//! * [`stability`] — post-processes share/delivery time series into
//!   oscillation metrics: cycle detection, delivery-shortfall fraction,
//!   settling time, and reconfiguration churn.
//!
//! The scenario layer (`ecp-scenario`) describes these as a
//! serializable `ControlSpec` — the one description of each policy's
//! parameters, with their validation, label and sweepable parameter
//! axes — so damping A/B campaigns (`examples/campaign_te_damping.toml`)
//! can quantify the shortfall recovery against the undamped baseline.

pub mod policy;
pub mod stability;

pub use policy::{
    AdaptiveEwma, ControlPolicy, DampedStep, Desync, Ewma, Hysteresis, Observation, Undamped,
};
pub use stability::{analyze, PathRates, Sample, StabilityConfig, StabilityReport};
