//! # ecp-scenario — declarative experiments and parallel sweeps
//!
//! The seed repository hard-codes every experiment as its own binary:
//! topology, traffic, failures, and TE settings re-wired by hand each
//! time. This crate turns an experiment into **data**: a [`Scenario`]
//! is a serde-serializable value combining
//!
//! * a **topology spec** ([`ecp_topo::gen::TopoSpec`]) — any generator
//!   plus its parameters,
//! * a **traffic program** ([`ecp_traffic::Program`]) — piecewise
//!   composable segments (plateaus, Fig.-8 step alternations, sine and
//!   diurnal curves, ramps, flash crowds) scaled by a [`ScaleSpec`],
//! * an **event script** ([`EventSpec`]) — timed link/node failures and
//!   repairs, wake-time changes, TE re-configuration, correlated
//!   failure cascades, and maintenance windows, injected into
//!   `ecp-simnet` through its [`ecp_simnet::SimEvent`] hook,
//! * **planner/simulator knobs** and a **metrics selection**.
//!
//! Scenarios are buildable three ways: the [`ScenarioBuilder`] fluent
//! API, TOML ([`Scenario::from_toml`]), or JSON via serde.
//!
//! Four execution engines share the spec ([`EngineSpec`]): the
//! event-driven fluid simulator (`Simnet`), steady-state trace replay
//! (`Replay` — trace selection via [`TraceSpec`]/[`PeakSpec`],
//! per-interval modes via [`ReplayMode`] including subset
//! recomputation, deviation statistics, windowing, and drift-replan
//! analysis), the event-per-packet engine (`Packet` — queueing-level
//! latency and gap-sleep analysis), and the §5.4 application workloads
//! (`App` — streaming and web). The experiment harness in `ecp-bench`
//! builds every figure/ablation binary from these pieces.
//!
//! ## TOML example
//!
//! ```
//! let doc = r#"
//! name = "overload-demo"
//! seed = 7
//! duration_s = 4.0
//! topology = "Fig3Click"
//! power = "Cisco12000"
//! pairs = "Fig3"
//! tables = "Fig3Paper"
//! engine = "Simnet"
//!
//! [traffic]
//! matrix = "Uniform"
//! scale = { PerFlowBps = { bps = 2.5e6 } }
//! [[traffic.program.segments]]
//! duration_s = 4.0
//! interval_s = 1.0
//! shape = { Constant = { level = 1.0 } }
//!
//! [[events]]
//! [events.LinkFail]
//! at = 2.0
//! link = { ByName = { from = "E", to = "H" } }
//!
//! [planner]
//! num_paths = 3
//! margin = 1.0
//! exclude_fraction = 0.2
//!
//! [sim]
//! te_threshold = 0.9
//! te_step = 0.7
//! te_min_share = 1e-3
//! control_interval_s = 0.1
//! wake_time_s = 0.01
//! detect_delay_s = 0.1
//! sleep_after_s = 0.2
//! sample_interval_s = 0.05
//! te_start_s = 0.0
//!
//! [metrics]
//! power_series = true
//! delivered_series = true
//! per_path_rates = false
//! "#;
//! let scenario = ecp_scenario::Scenario::from_toml(doc).unwrap();
//! let report = ecp_scenario::run_scenario(&scenario).unwrap();
//! assert!(report.mean_power_frac > 0.0 && report.mean_power_frac < 1.0);
//! ```
//!
//! ## Sweeps
//!
//! [`SweepRunner`] expands parameter grids (`beta × num_paths × margin`,
//! thresholds, wake times, seed replicates) into scenario instances and
//! executes them in parallel via rayon. Instance expansion order, seeds,
//! and the order-preserving parallel map make sweep results independent
//! of the worker-thread count.

pub mod error;
pub mod run;
pub mod spec;
pub mod sweep;

pub use ecp_simnet::TelemetrySnapshot;
pub use ecp_simnet::TimeseriesPoint;
pub use ecp_simnet::{Clock, FakeClock, MonoClock, SpanSink, SpanTiming, TimingSnapshot};
pub use error::ScenarioError;
pub use run::{
    resolution_key, resolve, resolve_with_sink, run_resolved, run_resolved_profiled,
    run_resolved_traced, run_resolved_with_sink, run_scenario, AppDetail, CapacityStats,
    CompareResult, DriftStats, FailoverStats, PacketDetail, RecomputeStats, ReplayDetail,
    ResolveCache, ResolvedScenario, ScenarioReport, SleepStats, StreamingRunStats, TableStats,
    TimeseriesOutput, TraceOutput,
};
pub use spec::{
    AppSpec, CompareSpec, ControlSpec, EngineSpec, EventSpec, FlowProgram, LinkRef, MatrixSpec,
    MetricsSpec, NodeRef, PacketPlacement, PacketRateSpec, PacketSpec, PairsSpec, PeakSpec,
    PlannerSpec, PowerSpec, ReplayMode, ReplaySpec, ScaleSpec, Scenario, ScenarioBuilder, SimSpec,
    SleepSpec, StrategySpec, SubsetScheme, TablesSpec, TraceSpec, TrafficSpec, WaveSpec,
    WindowSpec,
};
pub use sweep::{Axis, Param, SweepReport, SweepRow, SweepRunner};
