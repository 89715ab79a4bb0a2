//! # ecp-simnet — deterministic discrete-event network simulator
//!
//! The runtime substrate of the reproduction, standing in for the three
//! platforms of the paper's evaluation (ns-2 simulations, the Click
//! router testbed, and the ModelNet emulator — §5.3/§5.4). One simulator
//! with per-experiment parameters covers all three because they measure
//! the same observables: per-path rates over time, network power over
//! time, adaptation latency in RTTs, and wake-up stalls.
//!
//! ## Model
//!
//! * **Fluid flows**: a [`FlowId`] is an OD aggregate with an offered
//!   rate and a share vector over its installed REsPoNse paths
//!   (always-on, on-demand…, failover). No per-packet events — rates
//!   change at discrete events only, which keeps multi-minute ns-2-style
//!   runs cheap and bit-for-bit reproducible.
//! * **REsPoNseTE agents** (§4.4): every control interval `T` the edge
//!   agent of each flow observes link loads along its own paths
//!   (scalable: no global state), computes headroom per path, and moves
//!   its shares one bounded step toward the water-filled target
//!   (`respons_core::te::decide_shares_into`, through the simulation's
//!   `ecp_control::ControlPolicy`).
//! * **Sleep / wake**: links with no assigned traffic drain for
//!   [`SimConfig::sleep_after`] seconds and then sleep (negligible
//!   power). Assigning share to a sleeping path triggers wake-up; the
//!   path carries traffic only [`SimConfig::wake_time`] seconds later
//!   (10 ms in the Click experiment, 5 s in the ns-2 experiments).
//! * **Failures**: a failed link delivers nothing immediately; agents
//!   learn about it after [`SimConfig::detect_delay`] (50 ms detection +
//!   propagation in the Click experiment) and vacate the path in one
//!   control round.
//! * **Congestion**: if offered load exceeds an arc's capacity, every
//!   flow crossing it is throttled proportionally (fluid approximation
//!   of FIFO sharing).
//! * **Sampling**: one self-rescheduling sampler appends a row to the
//!   run's [`Series`] every [`SimConfig::sample_interval`]: time, power,
//!   offered and delivered totals, and the delivered rate on every
//!   installed path, all rows' rates in one flat arena. Rows widen when
//!   a flow is added mid-run. With the campaign observatory on
//!   ([`Simulation::enable_timeseries`]), every k-th row also becomes a
//!   [`TimeseriesPoint`]; no event is added for it.
//!
//! The whole simulation is deterministic: events are ordered by
//! `(time, sequence)` and no randomness is used.

pub mod packet;
pub mod recorder;
pub mod sim;

pub use ecp_control::{PathRates, Sample};
pub use ecp_telemetry::{
    Clock, Counter, Element, FakeClock, Hist, JsonlSink, MonoClock, NoopSink, PowerKind, SpanName,
    SpanSink, SpanTiming, TelemetryEvent, TelemetrySink, TelemetrySnapshot, TimingSnapshot,
    SPAN_DUR_BOUNDS,
};
pub use packet::{
    run_packet_sim, run_packet_sim_full, ArcActivity, CbrFlow, PacketSimConfig, PacketStats,
};
pub use recorder::{Series, TimeseriesPoint};
pub use sim::{FlowId, LinkPowerState, SimConfig, SimEvent, Simulation};
