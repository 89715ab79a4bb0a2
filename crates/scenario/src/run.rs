//! Scenario execution: spec → topology/tables/schedule → engine → report.

use crate::error::ScenarioError;
use crate::spec::{
    AppSpec, CompareSpec, ControlSpec, EngineSpec, EventSpec, LinkRef, MatrixSpec, NodeRef,
    PacketPlacement, PacketRateSpec, PacketSpec, PairsSpec, PeakSpec, ReplayMode, ReplaySpec,
    ScaleSpec, Scenario, SubsetScheme, TablesSpec, TraceSpec,
};
use ecp_control::{StabilityConfig, StabilityReport};
use ecp_routing::subset::PruneOrder;
use ecp_routing::{
    elastictree_subset, max_feasible_volume, ospf_invcap, recomputation_rate, ConfigDominance,
    OracleConfig, RouteSet, SubsetSolver,
};
use ecp_simnet::{
    run_packet_sim_full, ArcActivity, CbrFlow, JsonlSink, NoopSink, PacketSimConfig, PacketStats,
    Series, SimEvent, Simulation, SpanName, SpanSink, TelemetrySink, TelemetrySnapshot,
    TimeseriesPoint, TimingSnapshot,
};
use ecp_topo::gen::BuiltTopology;
use ecp_topo::{ArcId, NodeId, Path, Topology};
use ecp_traffic::{
    deviation_ccdf, fat_tree_far_pairs, fat_tree_near_pairs, geant_like_trace, gravity_matrix,
    uniform_matrix, Program, Trace, TrafficMatrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use respons_core::replay::max_supported_scale;
use respons_core::tables::OdPaths;
use respons_core::{
    steady_state_replay, DriftConfig, DriftDetector, PathTables, PathUsage, Planner, ReplanAdvice,
    TeConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// The result of one scenario run. Serializable; with fixed spec + seed
/// the JSON rendering is byte-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// `"simnet"`, `"replay"`, `"packet"`, `"app-streaming"`, or
    /// `"app-web"`.
    pub engine: String,
    /// Number of series rows / replay intervals / packet flows / app
    /// runs.
    pub samples: usize,
    /// Mean network power as a fraction of the fully-on network.
    pub mean_power_frac: f64,
    /// Delivered ÷ offered, aggregated over samples with offered > 0
    /// (simnet engine; replay reports placed fraction, packet reports
    /// delivered packets).
    pub mean_delivered_fraction: f64,
    /// Longest stretch with delivered < 95 % of offered (seconds;
    /// simnet engine only, 0 otherwise).
    pub max_tracking_lag_s: f64,
    /// Fraction of congested intervals (replay engine only).
    pub congested_fraction: Option<f64>,
    /// Mean number of unplaceable demands per interval (replay only).
    pub mean_spilled_demands: Option<f64>,
    /// `(t, power_frac)` series, if selected.
    pub power_series: Option<Vec<(f64, f64)>>,
    /// `(t, offered, delivered)` series in bits/s, if selected.
    pub delivered_series: Option<Vec<(f64, f64, f64)>>,
    /// The simnet run's whole series (per-flow per-path rates), if
    /// selected.
    pub per_path_samples: Option<Series>,
    /// Replay-engine detail (trace, per-interval series, recomputation
    /// metrics, drift analysis, baselines).
    #[serde(default)]
    pub replay: Option<ReplayDetail>,
    /// Packet-engine detail (per-flow delay/loss, sleep analysis).
    #[serde(default)]
    pub packet: Option<PacketDetail>,
    /// App-engine detail (streaming runs / web latencies).
    #[serde(default)]
    pub app: Option<AppDetail>,
    /// Installed-table analysis, if `metrics.table_stats`.
    #[serde(default)]
    pub table_stats: Option<TableStats>,
    /// Supported-volume probe, if `metrics.table_capacity`.
    #[serde(default)]
    pub capacity: Option<CapacityStats>,
    /// Single-link-failure sweep, if `metrics.failover_coverage`.
    #[serde(default)]
    pub failover: Option<FailoverStats>,
    /// Control-loop stability analysis (`ecp-control`), if
    /// `metrics.stability` (simnet engine only).
    #[serde(default)]
    pub stability: Option<StabilityReport>,
    /// Telemetry snapshot (`ecp-telemetry`), if `metrics.telemetry` and
    /// the run went through a traced entry point (simnet engine only).
    #[serde(default)]
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Analysis of the installed tables themselves (no engine needed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Power fraction of the always-on resting state.
    pub idle_power_frac: f64,
    /// Mean always-on-path latency stretch vs the OSPF shortest path.
    pub mean_delay_stretch: f64,
    /// Worst always-on-path latency stretch vs the OSPF shortest path.
    pub max_delay_stretch: f64,
    /// Fraction of pairs whose first on-demand path differs from their
    /// always-on path.
    pub distinct_on_demand_fraction: f64,
}

/// Maximum supported volume at the traffic spec's proportions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityStats {
    /// Volume the always-on paths alone support, bits/s.
    pub always_on_bps: f64,
    /// Volume all installed tables support, bits/s.
    pub full_tables_bps: f64,
}

/// Single-link-failure coverage of the installed tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailoverStats {
    /// Fraction of (pair, on-path link) combinations with a surviving
    /// installed path.
    pub coverage: f64,
    /// Fraction of pairs surviving every single-link failure.
    pub pairs_fully_protected: f64,
    /// Links whose failure disconnects at least one pair.
    pub critical_links: usize,
}

/// Recomputation / dominance / coverage metrics of a `Recompute` replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecomputeStats {
    /// Total configuration changes over the trace.
    pub total_changes: usize,
    /// Mean changes per hour.
    pub mean_rate_per_hour: f64,
    /// Changes per trace hour (the Fig. 1b series).
    pub hourly_rate: Vec<f64>,
    /// Intervals where the optimizer failed (previous config kept).
    pub failures: usize,
    /// Distinct routing configurations observed (Fig. 2a).
    pub distinct_configurations: usize,
    /// Time share of the most common configuration.
    pub dominant_fraction: f64,
    /// Time share per configuration, descending.
    pub slices: Vec<f64>,
    /// `(x, fraction of traffic covered by the top-x paths per pair)`
    /// for `x = 1..=5` (Fig. 2b).
    pub coverage: Vec<(usize, f64)>,
}

/// Drift-detection outcome of a `DriftReplan` replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftStats {
    /// First interval at which replanning was advised, if any.
    pub trigger_interval: Option<usize>,
    /// The detector's reasons at the trigger.
    pub reasons: Vec<String>,
    /// Congested fraction of the post-trigger tail under the original
    /// tables.
    pub congested_before: f64,
    /// Congested fraction of the tail after replanning at the trigger.
    pub congested_after: f64,
}

/// One comparison baseline alongside a replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareResult {
    /// Baseline name (see [`CompareSpec::name`]).
    pub name: String,
    /// Power fraction per interval (constant baselines emit one value).
    pub series: Vec<f64>,
}

/// Replay-engine detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayDetail {
    /// Seconds per interval of the driving trace.
    pub interval_s: f64,
    /// Resolved trace peak, bits/s (GÉANT-like traces).
    pub trace_peak_bps: Option<f64>,
    /// Power in Watts per interval, if `metrics.power_series`.
    pub power_w_series: Option<Vec<f64>>,
    /// Placed fraction per interval, if `metrics.delivered_series`.
    pub placed_series: Option<Vec<f64>>,
    /// Spilled-demand count per interval, if `metrics.delivered_series`.
    pub spilled_series: Option<Vec<usize>>,
    /// Offered volume per interval, if `metrics.delivered_series`.
    pub volume_series: Option<Vec<f64>>,
    /// `(percent, fraction of intervals changing ≥ percent)` CCDF
    /// (`TraceStats` mode).
    pub deviation_ccdf: Option<Vec<(f64, f64)>>,
    /// Recomputation metrics (`Recompute` mode).
    pub recompute: Option<RecomputeStats>,
    /// Drift/replan outcome (`DriftReplan` mode).
    pub drift: Option<DriftStats>,
    /// Comparison baselines, in spec order.
    pub comparisons: Vec<CompareResult>,
}

/// Opportunistic-sleep outcome of a packet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepStats {
    /// Mean sleepable fraction across physical links (both directions
    /// must be idle; uncarried links sleep fully).
    pub mean_sleep_fraction: f64,
    /// Links that carried no packet in either direction.
    pub dark_links: usize,
    /// Physical links in the topology.
    pub total_links: usize,
}

/// Packet-engine detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketDetail {
    /// Per-flow statistics, in flow order.
    pub flows: Vec<PacketStats>,
    /// Mean of the per-flow mean delays, seconds.
    pub mean_delay_s: f64,
    /// Worst per-flow p99 delay, seconds.
    pub max_p99_delay_s: f64,
    /// Mean of the per-flow queueing components, seconds.
    pub mean_queue_delay_s: f64,
    /// Total packets dropped.
    pub dropped: usize,
    /// Gap-sleep analysis, if requested.
    pub sleep: Option<SleepStats>,
}

/// One streaming run's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingRunStats {
    /// Playable percentage per join wave, in wave order.
    pub wave_playable_pct: Vec<f64>,
    /// Playable percentage over all clients.
    pub playable_pct: f64,
    /// Mean block retrieval latency across clients, seconds.
    pub mean_block_latency_s: f64,
    /// Mean network power fraction over the run.
    pub mean_power_fraction: f64,
}

/// App-engine detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AppDetail {
    /// Streaming workload: one entry per run.
    Streaming {
        /// Per-run statistics.
        runs: Vec<StreamingRunStats>,
    },
    /// Web workload outcome.
    Web {
        /// Retrieval latency of every completed request, seconds.
        latencies: Vec<f64>,
        /// Mean retrieval latency, seconds.
        mean_latency_s: f64,
        /// 95th-percentile retrieval latency, seconds.
        p95_latency_s: f64,
        /// Requests unfinished at the end of the run.
        unfinished: usize,
        /// Mean network power fraction over the run.
        mean_power_fraction: f64,
    },
}

/// Everything the engine resolved from the spec before running —
/// exposed so callers can reuse the exact planner/pairs context, e.g.
/// to run several scenarios against one resolution.
pub struct ResolvedScenario {
    /// The built topology (+ generator indices).
    pub built: BuiltTopology,
    /// The power model.
    pub power: ecp_power::PowerModel,
    /// OD pairs in flow order.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Installed tables.
    pub tables: PathTables,
    /// Cached oracle probe of the maximum feasible volume over
    /// `pairs` — computed at most once per resolution and shared by
    /// every run against it (and, through [`ResolveCache`], by every
    /// sweep grid point with the same resolution key). Before this
    /// cache the probe re-ran inside *every* `run_resolved` call,
    /// a flat per-run cost that dwarfed short simulations.
    vmax: std::sync::OnceLock<f64>,
}

impl ResolvedScenario {
    /// The oracle's maximum feasible volume at this context's pairs
    /// (the paper's §5.1 scaling base), probed on first use.
    pub fn max_feasible_volume(&self) -> f64 {
        *self.vmax.get_or_init(|| {
            max_feasible_volume(&self.built.topo, &self.pairs, &OracleConfig::default())
        })
    }
}

/// Run a scenario end to end.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    let resolved = resolve(scenario)?;
    run_resolved(scenario, &resolved)
}

/// Resolve the static parts of a scenario (topology, pairs, tables)
/// without running it.
pub fn resolve(scenario: &Scenario) -> Result<ResolvedScenario, ScenarioError> {
    resolve_with_sink(scenario, &mut NoopSink)
}

/// [`resolve`] with profiling spans recorded into `sink`: topology /
/// power / pair construction under `resolve_topo`, table planning
/// (Dijkstra/Yen) under `resolve_plan`. With [`NoopSink`] (the plain
/// [`resolve`] path) every span call compiles out. On error the open
/// span is abandoned with the sink — error paths are not profiled.
pub fn resolve_with_sink<S: TelemetrySink>(
    scenario: &Scenario,
    sink: &mut S,
) -> Result<ResolvedScenario, ScenarioError> {
    // A demand-aware planner reads the offered matrix while resolving.
    scenario.validate_traffic()?;
    scenario.validate_planner()?;
    if S::SPANS {
        sink.span_enter(SpanName::ResolveTopo);
    }
    let built = scenario.topology.build();
    let power = scenario.power.build();
    let pairs = resolve_pairs(&built, &scenario.pairs, scenario.seed)?;
    if S::SPANS {
        sink.span_exit(SpanName::ResolveTopo);
    }
    let mut resolved = ResolvedScenario {
        built,
        power,
        pairs,
        tables: PathTables::new(),
        vmax: std::sync::OnceLock::new(),
    };
    if S::SPANS {
        sink.span_enter(SpanName::ResolvePlan);
    }
    resolved.tables = match scenario.tables {
        TablesSpec::Planned | TablesSpec::PlannedAllPairs => {
            let peak = match scenario.planner.peak_level() {
                Some(level) => Some(offered_matrix(scenario, &resolved)?.at(level)?),
                None => None,
            };
            let cfg = scenario.planner.to_config(peak);
            let planner = Planner::new(&resolved.built.topo, &resolved.power);
            match scenario.tables {
                TablesSpec::Planned => planner.plan_pairs(&cfg, &resolved.pairs),
                _ => planner.plan(&cfg),
            }
        }
        TablesSpec::OspfInvCap => {
            ecp_apps::tables_from_routes(&ospf_invcap(&resolved.built.topo, &resolved.pairs, None))
        }
        TablesSpec::Fig3Paper => fig3_paper_tables(&resolved.built)?,
    };
    if S::SPANS {
        sink.span_exit(SpanName::ResolvePlan);
    }
    Ok(resolved)
}

/// The projection of a [`Scenario`] that [`resolve`] actually reads,
/// rendered as a stable JSON key.
///
/// Two scenarios with equal keys resolve to identical
/// `(topology, power, pairs, tables)` artifacts, so sweep grid points
/// and campaign runs that only vary engine-side knobs — threshold,
/// wake time, control policy, duration, metrics, the load level when
/// the planner is demand-oblivious, the seed when the pairs are not
/// seed-sampled — can share one planning pass (Dijkstra/Yen/oracle)
/// through a [`ResolveCache`].
///
/// The key is deliberately conservative: the `seed` is included
/// whenever the pair selection samples with it, and the traffic
/// matrix/scale are included whenever the planner strategy consults
/// the offered peak matrix.
pub fn resolution_key(scenario: &Scenario) -> String {
    let seed_dependent_pairs = matches!(
        scenario.pairs,
        PairsSpec::Random { .. } | PairsSpec::RandomSubset { .. }
    );
    let planner_reads_traffic = matches!(
        scenario.tables,
        TablesSpec::Planned | TablesSpec::PlannedAllPairs
    ) && scenario.planner.peak_level().is_some();
    // serde_json over each component keeps the key stable and readable
    // without requiring a borrowed-field derive in the vendored serde.
    fn part<T: serde::Serialize>(out: &mut String, label: &str, v: &T) {
        out.push_str(label);
        out.push('=');
        out.push_str(&serde_json::to_string(v).expect("resolution key component serializes"));
        out.push(';');
    }
    let mut key = String::new();
    part(&mut key, "topology", &scenario.topology);
    part(&mut key, "power", &scenario.power);
    part(&mut key, "pairs", &scenario.pairs);
    part(&mut key, "tables", &scenario.tables);
    part(&mut key, "planner", &scenario.planner);
    if seed_dependent_pairs {
        part(&mut key, "seed", &scenario.seed);
    }
    if planner_reads_traffic {
        part(&mut key, "matrix", &scenario.traffic.matrix);
        part(&mut key, "scale", &scenario.traffic.scale);
    }
    key
}

/// A thread-safe memo of [`resolve`] outputs keyed by
/// [`resolution_key`]: the planner/routing artifacts (topology build,
/// Dijkstra/Yen path construction, oracle probes) are computed once per
/// distinct key and shared across grid points. Because `resolve` is a
/// deterministic function of the key, memoized runs are byte-identical
/// to unmemoized ones (pinned by the sweep parity proptest).
#[derive(Default)]
pub struct ResolveCache {
    /// Key → resolution slot. The two-level locking keeps distinct
    /// keys fully concurrent while giving each key an in-flight guard:
    /// the first worker to claim a slot plans inside the slot lock,
    /// and same-key workers arriving meanwhile block on that slot
    /// instead of duplicating the planning pass.
    #[allow(clippy::type_complexity)]
    map: std::sync::Mutex<
        std::collections::HashMap<
            String,
            std::sync::Arc<std::sync::Mutex<Option<std::sync::Arc<ResolvedScenario>>>>,
        >,
    >,
}

impl ResolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct resolutions completed so far.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("resolve cache lock")
            .values()
            .filter(|slot| slot.lock().expect("resolve slot lock").is_some())
            .count()
    }

    /// Whether nothing has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve through the cache.
    pub fn resolve(
        &self,
        scenario: &Scenario,
    ) -> Result<std::sync::Arc<ResolvedScenario>, ScenarioError> {
        self.resolve_with_sink(scenario, &mut NoopSink)
    }

    /// [`ResolveCache::resolve`] with profiling spans recorded into
    /// `sink`. Whether this key's resolution was served from the cache
    /// shows up as a `resolve_cache_hit` / `resolve_cache_miss` span
    /// (the miss span covers the planning pass, including any time
    /// spent blocked on another worker planning the same key).
    pub fn resolve_with_sink<S: TelemetrySink>(
        &self,
        scenario: &Scenario,
        sink: &mut S,
    ) -> Result<std::sync::Arc<ResolvedScenario>, ScenarioError> {
        let key = resolution_key(scenario);
        let slot = std::sync::Arc::clone(
            self.map
                .lock()
                .expect("resolve cache lock")
                .entry(key)
                .or_default(),
        );
        let mut guard = slot.lock().expect("resolve slot lock");
        if let Some(hit) = guard.as_ref() {
            if S::SPANS {
                sink.span_enter(SpanName::ResolveCacheHit);
                sink.span_exit(SpanName::ResolveCacheHit);
            }
            return Ok(std::sync::Arc::clone(hit));
        }
        // Plan while holding only this key's slot lock. On error the
        // slot stays empty, so a later caller retries.
        if S::SPANS {
            sink.span_enter(SpanName::ResolveCacheMiss);
        }
        let resolved = std::sync::Arc::new(resolve_with_sink(scenario, sink)?);
        *guard = Some(std::sync::Arc::clone(&resolved));
        if S::SPANS {
            sink.span_exit(SpanName::ResolveCacheMiss);
        }
        Ok(resolved)
    }
}

/// The telemetry by-products of a traced run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceOutput {
    /// JSONL trace lines in emission order. Engines other than simnet
    /// record profiling `Span` lines at most.
    pub lines: Vec<String>,
    /// Aggregated snapshot; `None` for engines without tracing.
    pub snapshot: Option<TelemetrySnapshot>,
    /// Campaign-observatory timeline; `Some` only when the scenario set
    /// `metrics.timeseries` (simnet engine): delivered fraction, power
    /// fraction, max arc utilization, overloaded-arc count and
    /// cumulative reconfig count at every k-th row of the run's series
    /// (`metrics.timeseries_interval_s` apart). Like the trace lines, a
    /// pure function of the scenario — byte-deterministic across
    /// re-runs, rayon thread counts and campaign shard layouts — but
    /// outside the run-hash determinism contract (campaigns store it as
    /// a `timeseries/<hash>.jsonl` sidecar, never inside
    /// [`ScenarioReport`]).
    pub timeseries: Option<Vec<TimeseriesPoint>>,
}

impl TraceOutput {
    /// Whether the run produced any trace at all.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty() && self.snapshot.is_none() && self.timeseries.is_none()
    }

    /// The trace as one newline-terminated JSONL document.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Reject spec combinations an engine would otherwise silently ignore
/// (control policies, stability analysis, telemetry capture, scripted
/// events and per-flow programs only exist in the event-driven
/// simulator), offered load no engine can run, a path count the planner
/// cannot build, and simulator timing the event loop cannot run.
fn validate_engine_features(scenario: &Scenario) -> Result<(), ScenarioError> {
    scenario
        .control
        .validate()
        .map_err(ScenarioError::Invalid)?;
    scenario.validate_traffic()?;
    scenario.validate_planner()?;
    let engine = match &scenario.engine {
        EngineSpec::Simnet => return Ok(scenario.validate_sim_timing()?),
        EngineSpec::Replay(_) => "replay",
        EngineSpec::Packet(_) => "packet",
        EngineSpec::App(_) => "app",
    };
    if scenario.control != ControlSpec::Undamped {
        return Err(ScenarioError::unsupported(
            engine,
            "control policies (use the Simnet engine)",
        ));
    }
    if scenario.metrics.stability {
        return Err(ScenarioError::unsupported(
            engine,
            "stability analysis (use the Simnet engine)",
        ));
    }
    if scenario.metrics.telemetry {
        return Err(ScenarioError::unsupported(
            engine,
            "telemetry capture (use the Simnet engine)",
        ));
    }
    if scenario.metrics.timeseries {
        return Err(ScenarioError::unsupported(
            engine,
            "timeseries capture (use the Simnet engine)",
        ));
    }
    if !scenario.events.is_empty() {
        return Err(ScenarioError::unsupported(
            engine,
            "scripted events (use the Simnet engine)",
        ));
    }
    if !scenario.traffic.per_flow.is_empty() {
        return Err(ScenarioError::unsupported(
            engine,
            "per-flow programs (use the Simnet engine)",
        ));
    }
    Ok(())
}

/// Run a scenario against an already-resolved context.
pub fn run_resolved(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
) -> Result<ScenarioReport, ScenarioError> {
    run_resolved_with_sink(scenario, resolved, NoopSink).map(|(report, ..)| report)
}

/// [`run_resolved`] with telemetry capture: for the simnet engine the
/// returned [`TraceOutput`] holds the JSONL event trace and the
/// aggregated snapshot; the other engines return an empty trace.
pub fn run_resolved_traced(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
) -> Result<(ScenarioReport, TraceOutput), ScenarioError> {
    run_resolved_with_sink(scenario, resolved, JsonlSink::new())
        .map(|(report, trace, _)| (report, trace))
}

/// [`run_resolved`] with profiling spans on the wall clock; the
/// resolve phases are missing from the profile (see
/// [`run_resolved_with_sink`] for whole-scenario profiling).
pub fn run_resolved_profiled(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
) -> Result<(ScenarioReport, TraceOutput, TimingSnapshot), ScenarioError> {
    let (report, trace, mut sink) = run_resolved_with_sink(scenario, resolved, SpanSink::new())?;
    Ok((report, trace, sink.timing()))
}

/// Run a scenario against an already-resolved context, recording into
/// `sink` — the one run path behind every other entry point. The sink
/// type selects what is observed: [`NoopSink`] compiles every
/// instrumentation site out, a [`JsonlSink`] captures the event trace,
/// and a [`SpanSink`] adds profiling spans: the oracle probe (when the
/// traffic scale needs it) under `resolve_oracle` and the run under
/// `scenario_run`. Only the simnet engine is instrumented inside, so
/// the other engines' traces hold span lines at most and no snapshot.
///
/// Observing never changes behaviour: the report is byte-identical
/// whatever the sink (pinned by the `profiling_parity` proptest), and
/// carries the telemetry snapshot only when `metrics.telemetry` asks
/// for it. Whole-scenario profiling resolves into the same sink first:
///
/// ```no_run
/// # use ecp_scenario::{resolve_with_sink, run_resolved_with_sink, Scenario, SpanSink};
/// # fn profile(scenario: &Scenario) -> Result<(), ecp_scenario::ScenarioError> {
/// let mut sink = SpanSink::new();
/// let resolved = resolve_with_sink(scenario, &mut sink)?;
/// let (report, trace, mut sink) = run_resolved_with_sink(scenario, &resolved, sink)?;
/// let timing = sink.timing();
/// # Ok(()) }
/// ```
pub fn run_resolved_with_sink<S: TelemetrySink>(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    mut sink: S,
) -> Result<(ScenarioReport, TraceOutput, S), ScenarioError> {
    validate_engine_features(scenario)?;
    if S::SPANS
        && matches!(
            scenario.traffic.scale,
            ScaleSpec::MaxFeasibleFraction { .. }
        )
    {
        // Force the (cached) probe now so its cost lands in its own
        // span instead of inside the first demand computation.
        sink.span_enter(SpanName::ResolveOracle);
        let _ = resolved.max_feasible_volume();
        sink.span_exit(SpanName::ResolveOracle);
    }
    if S::SPANS {
        sink.span_enter(SpanName::ScenarioRun);
    }
    let (mut report, mut sink, timeseries) = match &scenario.engine {
        EngineSpec::Simnet => run_simnet_with_sink(scenario, resolved, sink)?,
        EngineSpec::Replay(spec) => (run_replay(scenario, resolved, spec)?, sink, None),
        EngineSpec::Packet(spec) => (run_packet(scenario, resolved, spec)?, sink, None),
        EngineSpec::App(spec) => (run_app(scenario, resolved, spec)?, sink, None),
    };
    if S::SPANS {
        sink.span_exit(SpanName::ScenarioRun);
    }
    attach_table_metrics(scenario, resolved, &mut report)?;
    let trace = TraceOutput {
        lines: sink.take_lines(),
        snapshot: if matches!(scenario.engine, EngineSpec::Simnet) {
            sink.snapshot()
        } else {
            None
        },
        timeseries,
    };
    Ok((report, trace, sink))
}

// ---- pair/table resolution ------------------------------------------------

fn resolve_pairs(
    built: &BuiltTopology,
    spec: &PairsSpec,
    seed: u64,
) -> Result<Vec<(NodeId, NodeId)>, ScenarioError> {
    match spec {
        PairsSpec::Random { count } => Ok(ecp_traffic::random_od_pairs(&built.topo, *count, seed)),
        PairsSpec::RandomSubset { nodes, count } => Ok(ecp_traffic::random_od_pairs_subset(
            &built.topo,
            *nodes,
            *count,
            seed,
        )),
        PairsSpec::EdgeOffset { denominators } => {
            let nodes = built.topo.edge_nodes();
            let n = nodes.len();
            if n < 2 {
                return Err("EdgeOffset needs at least two edge nodes".into());
            }
            let mut pairs = Vec::new();
            for i in 0..n {
                for &d in denominators {
                    if d == 0 {
                        return Err("EdgeOffset denominator must be positive".into());
                    }
                    let j = (i + n / d) % n;
                    if i != j {
                        pairs.push((nodes[i], nodes[j]));
                    }
                }
            }
            Ok(pairs)
        }
        PairsSpec::FatTreeFar => {
            let ix = built
                .fat_tree
                .as_ref()
                .ok_or("FatTreeFar needs a fat-tree topology")?;
            Ok(fat_tree_far_pairs(ix))
        }
        PairsSpec::FatTreeNear => {
            let ix = built
                .fat_tree
                .as_ref()
                .ok_or("FatTreeNear needs a fat-tree topology")?;
            Ok(fat_tree_near_pairs(ix))
        }
        PairsSpec::Fig3 => {
            let n = built
                .fig3
                .as_ref()
                .ok_or("Fig3 pairs need the Fig3Click topology")?;
            Ok(vec![(n.a, n.k), (n.c, n.k)])
        }
        PairsSpec::Star { center } => {
            let c = resolve_node(&built.topo, center)?;
            Ok(built
                .topo
                .node_ids()
                .filter(|&n| n != c)
                .map(|n| (c, n))
                .collect())
        }
        PairsSpec::StarByDegree { clients } => {
            let mut by_degree: Vec<NodeId> = built.topo.node_ids().collect();
            if by_degree.len() < clients + 1 {
                return Err(format!(
                    "StarByDegree needs {} nodes, topology has {}",
                    clients + 1,
                    by_degree.len()
                )
                .into());
            }
            by_degree.sort_by_key(|&n| built.topo.degree(n));
            let server = by_degree[0];
            Ok(by_degree[1..1 + clients]
                .iter()
                .map(|&c| (server, c))
                .collect())
        }
        PairsSpec::Explicit { pairs } => pairs
            .iter()
            .map(|(o, d)| {
                let o = resolve_node(&built.topo, o)?;
                let d = resolve_node(&built.topo, d)?;
                if o == d {
                    return Err(format!("explicit pair {o} -> {d} is a self-loop").into());
                }
                Ok((o, d))
            })
            .collect(),
    }
}

/// The hand-built Fig.-3 tables exactly as the paper describes: middle
/// always-on, upper/lower on-demand doubling as failover.
fn fig3_paper_tables(built: &BuiltTopology) -> Result<PathTables, ScenarioError> {
    let n = built
        .fig3
        .as_ref()
        .ok_or("Fig3Paper tables need the Fig3Click topology")?;
    let mut tables = PathTables::new();
    tables.insert(
        n.a,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.a, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.a, n.d, n.g, n.k])],
            failover: Path::new(vec![n.a, n.d, n.g, n.k]),
        },
    );
    tables.insert(
        n.c,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.c, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.c, n.f, n.j, n.k])],
            failover: Path::new(vec![n.c, n.f, n.j, n.k]),
        },
    );
    Ok(tables)
}

// ---- traffic matrices -----------------------------------------------------

/// Program levels → traffic matrices for one scenario: the scale maps a
/// level to a volume (the oracle's max-feasible probe is cached on the
/// resolved context), the matrix spec maps a volume to per-pair
/// demands.
struct OfferedMatrix<'a> {
    scenario: &'a Scenario,
    resolved: &'a ResolvedScenario,
}

fn offered_matrix<'a>(
    scenario: &'a Scenario,
    resolved: &'a ResolvedScenario,
) -> Result<OfferedMatrix<'a>, ScenarioError> {
    if matches!(scenario.traffic.scale, ScaleSpec::PerFlowBps { .. })
        && scenario.traffic.matrix == MatrixSpec::Gravity
    {
        return Err("PerFlowBps scale requires the Uniform matrix".into());
    }
    Ok(OfferedMatrix { scenario, resolved })
}

impl OfferedMatrix<'_> {
    /// Total (or per-flow, for `PerFlowBps`) volume at a program level.
    /// The scale and the level are finite (`Scenario::validate_traffic`),
    /// but their product with the probed maximum volume can still
    /// overflow; such a volume is rejected, not offered.
    fn volume(&self, level: f64) -> Result<f64, ScenarioError> {
        let v = match self.scenario.traffic.scale {
            ScaleSpec::MaxFeasibleFraction { fraction } => {
                self.resolved.max_feasible_volume() * level * fraction
            }
            ScaleSpec::TotalBps { bps } => bps * level,
            ScaleSpec::PerFlowBps { bps } => bps * level,
        };
        if !v.is_finite() {
            return Err(format!(
                "traffic.scale: the offered volume at program level {level} is {v} bps, not finite"
            )
            .into());
        }
        Ok(v)
    }

    /// The offered matrix at a program level. A finite volume can still
    /// split into infinite demands: the gravity split multiplies it by
    /// products of node weights (about 1e20 on a PoP-access network)
    /// before dividing. Such a matrix is rejected, not offered.
    fn at(&self, level: f64) -> Result<TrafficMatrix, ScenarioError> {
        let v = self.volume(level)?;
        let pairs = &self.resolved.pairs[..];
        let per_flow = matches!(self.scenario.traffic.scale, ScaleSpec::PerFlowBps { .. });
        let tm = match (self.scenario.traffic.matrix, per_flow) {
            (MatrixSpec::Uniform, true) => uniform_matrix(pairs, v),
            (MatrixSpec::Uniform, false) => uniform_matrix(pairs, v / pairs.len().max(1) as f64),
            (MatrixSpec::Gravity, false) => gravity_matrix(&self.resolved.built.topo, pairs, v),
            (MatrixSpec::Gravity, true) => {
                return Err("PerFlowBps scale requires the Uniform matrix".into())
            }
        };
        if tm.demands().iter().any(|d| !d.rate.is_finite()) {
            return Err(format!(
                "traffic.scale: the offered volume {v:e} bps at program level {level} splits \
                 into demands that are not finite"
            )
            .into());
        }
        Ok(tm)
    }
}

/// Demand schedule: at each `(t, matrix)` point every flow's offered
/// rate switches to its entry in the matrix.
fn demand_schedule(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
) -> Result<Vec<(f64, TrafficMatrix)>, ScenarioError> {
    let points = scenario.traffic.program.sample();
    if points.is_empty() {
        return Err("traffic program has no segments".into());
    }
    let offered = offered_matrix(scenario, resolved)?;
    points
        .into_iter()
        .map(|(t, level)| Ok((t, offered.at(level)?)))
        .collect()
}

// ---- event resolution -----------------------------------------------------

fn resolve_link(topo: &Topology, link: &LinkRef) -> Result<ArcId, ScenarioError> {
    match link {
        LinkRef::ByName { from, to } => {
            let f = topo
                .find_node(from)
                .ok_or_else(|| format!("unknown node `{from}`"))?;
            let t = topo
                .find_node(to)
                .ok_or_else(|| format!("unknown node `{to}`"))?;
            topo.find_arc(f, t)
                .or_else(|| topo.find_arc(t, f))
                .ok_or_else(|| {
                    ScenarioError::invalid(format!("no link between `{from}` and `{to}`"))
                })
        }
        LinkRef::ByIndex { index } => topo
            .link_ids()
            .nth(*index)
            .ok_or_else(|| ScenarioError::invalid(format!("link index {index} out of range"))),
    }
}

fn resolve_node(topo: &Topology, node: &NodeRef) -> Result<NodeId, ScenarioError> {
    match node {
        NodeRef::ByName { name } => topo
            .find_node(name)
            .ok_or_else(|| ScenarioError::invalid(format!("unknown node `{name}`"))),
        NodeRef::ByIndex { index } => {
            if (*index as usize) < topo.node_count() {
                Ok(NodeId(*index))
            } else {
                Err(format!("node index {index} out of range").into())
            }
        }
    }
}

/// Links of a correlated cascade: breadth-first from a seed-chosen
/// epicenter, so consecutive failures share endpoints/regions the way
/// real fiber-cut or power-domain incidents do.
fn correlated_links(topo: &Topology, seed: u64, count: usize) -> Vec<ArcId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let epicenter = NodeId(rng.gen_range(0..topo.node_count() as u32));
    let mut seen_nodes = vec![false; topo.node_count()];
    let mut chosen: Vec<ArcId> = Vec::new();
    let mut queue = VecDeque::from([epicenter]);
    seen_nodes[epicenter.idx()] = true;
    while let Some(n) = queue.pop_front() {
        if chosen.len() >= count {
            break;
        }
        for l in topo.link_ids() {
            let arc = topo.arc(l);
            if arc.src != n && arc.dst != n {
                continue;
            }
            if !chosen.contains(&l) && chosen.len() < count {
                chosen.push(l);
            }
            for m in [arc.src, arc.dst] {
                if !seen_nodes[m.idx()] {
                    seen_nodes[m.idx()] = true;
                    queue.push_back(m);
                }
            }
        }
    }
    chosen
}

fn schedule_events<S: TelemetrySink>(
    scenario: &Scenario,
    topo: &Topology,
    sim: &mut Simulation<'_, S>,
) -> Result<(), ScenarioError> {
    for ev in &scenario.events {
        match ev {
            EventSpec::LinkFail { at, link } => {
                let arc = resolve_link(topo, link)?;
                sim.schedule(*at, SimEvent::LinkFail { arc });
            }
            EventSpec::LinkRepair { at, link } => {
                let arc = resolve_link(topo, link)?;
                sim.schedule(*at, SimEvent::LinkRepair { arc });
            }
            EventSpec::NodeFail { at, node } => {
                let node = resolve_node(topo, node)?;
                sim.schedule(*at, SimEvent::NodeFail { node });
            }
            EventSpec::NodeRepair { at, node } => {
                let node = resolve_node(topo, node)?;
                sim.schedule(*at, SimEvent::NodeRepair { node });
            }
            EventSpec::SetWakeTime { at, wake_time_s } => {
                sim.schedule(
                    *at,
                    SimEvent::SetWakeTime {
                        wake_time: *wake_time_s,
                    },
                );
            }
            EventSpec::SetThreshold { at, threshold } => {
                let te = TeConfig {
                    threshold: *threshold,
                    ..scenario.sim.to_config().te
                };
                sim.schedule(*at, SimEvent::SetTeConfig { te });
            }
            EventSpec::FailureBurst {
                start,
                count,
                spacing_s,
                repair_after_s,
                seed_salt,
            } => {
                let links = correlated_links(topo, scenario.seed ^ seed_salt, *count);
                for (i, arc) in links.into_iter().enumerate() {
                    let t = start + i as f64 * spacing_s;
                    sim.schedule(t, SimEvent::LinkFail { arc });
                    if *repair_after_s > 0.0 {
                        sim.schedule(t + repair_after_s, SimEvent::LinkRepair { arc });
                    }
                }
            }
            EventSpec::MaintenanceWindow {
                start,
                duration_s,
                node,
            } => {
                let node = resolve_node(topo, node)?;
                sim.schedule(*start, SimEvent::NodeFail { node });
                sim.schedule(start + duration_s, SimEvent::NodeRepair { node });
            }
        }
    }
    Ok(())
}

// ---- shared helpers -------------------------------------------------------

/// The scenario's TE configuration (shared by the simnet and replay
/// engines).
fn scenario_te(scenario: &Scenario) -> TeConfig {
    TeConfig {
        threshold: scenario.sim.te_threshold,
        step: scenario.sim.te_step,
        min_share: scenario.sim.te_min_share,
    }
}

/// [`max_supported_scale`] of the traffic base, or `Invalid` naming
/// `traffic.scale` when the base lies too far from the network's
/// capacity for the probe to answer.
fn capacity_scale(
    topo: &Topology,
    tables: &PathTables,
    base: &TrafficMatrix,
    te: &TeConfig,
    use_tables_prefix: usize,
) -> Result<f64, ScenarioError> {
    max_supported_scale(topo, tables, base, te, use_tables_prefix).ok_or_else(|| {
        format!(
            "traffic.scale: a base of {:e} bps is more than six decades from the \
             capacity of the first {use_tables_prefix} table(s); the capacity probe \
             answers for scales in [1e-6, 2^20] of the base",
            base.total()
        )
        .into()
    })
}

/// Require that the pairs share one origin (star workloads); returns it.
fn common_origin(pairs: &[(NodeId, NodeId)]) -> Result<NodeId, ScenarioError> {
    let &(server, _) = pairs.first().ok_or("the scenario has no OD pairs")?;
    if pairs.iter().any(|&(o, _)| o != server) {
        return Err("this engine needs a common origin (use Star/StarByDegree pairs)".into());
    }
    Ok(server)
}

/// Installed-table analyses driven by the metrics selection.
fn attach_table_metrics(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    report: &mut ScenarioReport,
) -> Result<(), ScenarioError> {
    let topo = &resolved.built.topo;
    let tables = &resolved.tables;
    if scenario.metrics.table_stats {
        let full = resolved.power.full_power(topo);
        let idle = resolved
            .power
            .network_power(topo, &tables.always_on_active(topo))
            / full;
        let w = ecp_routing::ospf::invcap_weight(topo);
        let mut ospf = ecp_topo::algo::ShortestPathTrees::new(topo, &w, None);
        let mut stretches = Vec::new();
        for (&(o, d), p) in tables.iter() {
            if let Some(sp) = ospf.path(topo, o, d) {
                let base = sp.latency(topo);
                if base > 0.0 {
                    stretches.push(p.always_on.latency(topo) / base);
                }
            }
        }
        let mean = stretches.iter().sum::<f64>() / stretches.len().max(1) as f64;
        let max = stretches.iter().cloned().fold(0.0, f64::max);
        let distinct = tables
            .iter()
            .filter(|(_, p)| {
                p.on_demand
                    .first()
                    .map(|od| od != &p.always_on)
                    .unwrap_or(false)
            })
            .count() as f64
            / tables.len().max(1) as f64;
        report.table_stats = Some(TableStats {
            idle_power_frac: idle,
            mean_delay_stretch: mean,
            max_delay_stretch: max,
            distinct_on_demand_fraction: distinct,
        });
    }
    if scenario.metrics.table_capacity {
        let base = offered_matrix(scenario, resolved)?.at(1.0)?;
        let te = scenario_te(scenario);
        let aon = capacity_scale(topo, tables, &base, &te, 1)?;
        let all = capacity_scale(topo, tables, &base, &te, 3)?;
        report.capacity = Some(CapacityStats {
            always_on_bps: aon * base.total(),
            full_tables_bps: all * base.total(),
        });
    }
    if scenario.metrics.failover_coverage {
        let rep = respons_core::single_link_failure_coverage(topo, tables);
        report.failover = Some(FailoverStats {
            coverage: rep.coverage(),
            pairs_fully_protected: rep.pairs_fully_protected,
            critical_links: rep.critical_links.len(),
        });
    }
    Ok(())
}

// ---- simnet engine --------------------------------------------------------

/// The simnet engine, generic over the telemetry sink. With
/// [`NoopSink`] every instrumentation site compiles out and the report
/// is identical to the pre-telemetry engine's; with a recording sink
/// the run additionally returns the sink for trace extraction.
fn run_simnet_with_sink<S: TelemetrySink>(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    sink: S,
) -> Result<(ScenarioReport, S, Option<Vec<TimeseriesPoint>>), ScenarioError> {
    let topo = &resolved.built.topo;
    let schedule = demand_schedule(scenario, resolved)?;
    let mut overrides: HashMap<usize, &Program> = HashMap::new();
    for fp in &scenario.traffic.per_flow {
        if fp.flow >= resolved.pairs.len() {
            return Err(format!(
                "per-flow program references flow {} but only {} pairs resolved",
                fp.flow,
                resolved.pairs.len()
            )
            .into());
        }
        if overrides.insert(fp.flow, &fp.program).is_some() {
            return Err(format!("duplicate per-flow program for flow {}", fp.flow).into());
        }
    }
    // Per-flow overrides modulate the flow's level-1.0 base rate.
    let base1 = if overrides.is_empty() {
        None
    } else {
        Some(offered_matrix(scenario, resolved)?.at(1.0)?)
    };
    let mut sim = Simulation::with_telemetry(
        topo,
        &resolved.power,
        &resolved.tables,
        scenario.sim.to_config(),
        scenario.control.build(),
        sink,
    );
    // Observatory points are every k-th series row, the first at t = 0.
    if scenario.metrics.timeseries {
        let every = scenario
            .metrics
            .timeseries_every(scenario.sim.sample_interval_s);
        sim.enable_timeseries(every?);
    }

    // One flow per OD pair; initial rate = the schedule's t = 0 level
    // (or the override program's).
    let initial = &schedule[0].1;
    let flows: Vec<_> = resolved
        .pairs
        .iter()
        .enumerate()
        .map(|(i, &(o, d))| {
            let rate = match overrides.get(&i) {
                Some(p) => p.level_at(0.0) * base1.as_ref().expect("base matrix").get(o, d),
                None => initial.get(o, d),
            };
            (sim.add_flow(&resolved.tables, o, d, rate), o, d)
        })
        .collect();
    for (t, tm) in schedule.iter().skip(1) {
        for (i, &(f, o, d)) in flows.iter().enumerate() {
            if overrides.contains_key(&i) {
                continue;
            }
            sim.schedule(
                *t,
                SimEvent::DemandChange {
                    flow: f,
                    rate: tm.get(o, d),
                },
            );
        }
    }
    // Iterate the (validated) spec list, not the map: same-timestamp
    // events tie-break by insertion order, which must not depend on
    // hash-map iteration for reports to stay byte-identical.
    for fp in &scenario.traffic.per_flow {
        let (f, o, d) = flows[fp.flow];
        let base_rate = base1.as_ref().expect("base matrix").get(o, d);
        for (t, level) in fp.program.sample() {
            if t > 0.0 {
                sim.schedule(
                    t,
                    SimEvent::DemandChange {
                        flow: f,
                        rate: level * base_rate,
                    },
                );
            }
        }
    }
    if let Some(shares) = &scenario.initial_shares {
        for &(f, ..) in &flows {
            sim.set_shares(f, shares.clone());
        }
    }
    schedule_events(scenario, topo, &mut sim)?;
    sim.run_until(scenario.duration_s);

    let series = sim.series();
    let mut offered_sum = 0.0;
    let mut delivered_sum = 0.0;
    let mut lag: f64 = 0.0;
    let mut lag_start: Option<f64> = None;
    for s in series.samples() {
        offered_sum += s.offered_total;
        delivered_sum += s.delivered_total;
        if s.offered_total > 0.0 && s.delivered_total < 0.95 * s.offered_total {
            lag_start.get_or_insert(s.t);
        } else if let Some(start) = lag_start.take() {
            lag = lag.max(s.t - start);
        }
    }
    if let Some(start) = lag_start {
        lag = lag.max(scenario.duration_s - start);
    }
    let stability = scenario
        .metrics
        .stability
        .then(|| ecp_control::analyze(series.rows(), &StabilityConfig::default()));
    let samples = series.samples();
    let power_series = scenario
        .metrics
        .power_series
        .then(|| samples.iter().map(|s| (s.t, s.power_frac)).collect());
    let delivered_series = scenario.metrics.delivered_series.then(|| {
        samples
            .iter()
            .map(|s| (s.t, s.offered_total, s.delivered_total))
            .collect()
    });
    // Attach the snapshot only when the spec asks for it, so traced and
    // untraced runs of a telemetry-off scenario stay byte-identical.
    let telemetry = if scenario.metrics.telemetry {
        sim.telemetry_snapshot()
    } else {
        None
    };
    let (series, points, sink) = sim.finish();
    let report = ScenarioReport {
        name: scenario.name.clone(),
        seed: scenario.seed,
        engine: "simnet".into(),
        samples: series.samples().len(),
        mean_power_frac: series.mean_power_fraction(),
        mean_delivered_fraction: if offered_sum > 0.0 {
            delivered_sum / offered_sum
        } else {
            1.0
        },
        max_tracking_lag_s: lag,
        congested_fraction: None,
        mean_spilled_demands: None,
        power_series,
        delivered_series,
        per_path_samples: scenario.metrics.per_path_rates.then_some(series),
        replay: None,
        packet: None,
        app: None,
        table_stats: None,
        capacity: None,
        failover: None,
        stability,
        telemetry,
    };
    Ok((report, sink, scenario.metrics.timeseries.then_some(points)))
}

// ---- replay engine --------------------------------------------------------

/// The trace a replay runs over, plus its resolved peak (if any).
struct ResolvedTrace {
    trace: Trace,
    peak_bps: Option<f64>,
    /// Raw DC volume series (all groups), for `TraceStats`.
    dc_series: Option<Vec<Vec<f64>>>,
}

fn build_trace(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    spec: &ReplaySpec,
) -> Result<ResolvedTrace, ScenarioError> {
    let topo = &resolved.built.topo;
    let days = ((scenario.duration_s / 86_400.0).ceil() as usize).max(1);
    match &spec.trace {
        TraceSpec::GeantLike { peak } => {
            require_constant_program(scenario)?;
            if scenario.traffic.matrix != MatrixSpec::Gravity {
                return Err(ScenarioError::unsupported(
                    "replay",
                    "non-Gravity matrices with the GeantLike trace",
                ));
            }
            let peak_bps = match *peak {
                PeakSpec::OverAlwaysOn {
                    factor,
                    cap_over_full,
                    use_sim_te,
                } => {
                    let base_volume =
                        match scenario.traffic.scale {
                            ScaleSpec::TotalBps { bps } => bps,
                            _ => return Err(ScenarioError::unsupported(
                                "replay",
                                "PeakSpec::OverAlwaysOn without ScaleSpec::TotalBps (the gravity \
                                 base whose always-on-supported multiple sets the trace peak)",
                            )),
                        };
                    let base = gravity_matrix(topo, &resolved.pairs, base_volume);
                    let te = if use_sim_te {
                        scenario_te(scenario)
                    } else {
                        TeConfig {
                            threshold: 1.0,
                            ..Default::default()
                        }
                    };
                    let aon = capacity_scale(topo, &resolved.tables, &base, &te, 1)?;
                    let mut peak = base_volume * aon * factor;
                    if let Some(cap) = cap_over_full {
                        let all = capacity_scale(topo, &resolved.tables, &base, &te, 3)?;
                        peak = peak.min(base_volume * all * cap);
                    }
                    peak
                }
                PeakSpec::MaxFeasibleFraction { fraction } => {
                    resolved.max_feasible_volume() * fraction
                }
                PeakSpec::TotalBps { bps } => bps,
            };
            if !(peak_bps.is_finite() && peak_bps > 0.0) {
                return Err(format!(
                    "trace peak: the GeantLike peak is {peak_bps} bps, not a finite rate > 0"
                )
                .into());
            }
            Ok(ResolvedTrace {
                trace: geant_like_trace(topo, &resolved.pairs, days, peak_bps, scenario.seed),
                peak_bps: Some(peak_bps),
                dc_series: None,
            })
        }
        TraceSpec::DcLike { groups, subsample } => {
            require_constant_program(scenario)?;
            if *groups == 0 || *subsample == 0 {
                return Err("DcLike needs groups >= 1 and subsample >= 1".into());
            }
            if scenario.traffic.matrix != MatrixSpec::Uniform {
                return Err(ScenarioError::unsupported(
                    "replay",
                    "non-Uniform matrices with the DcLike trace",
                ));
            }
            let per_flow_peak_bps = match scenario.traffic.scale {
                ScaleSpec::PerFlowBps { bps } => bps,
                _ => {
                    return Err(ScenarioError::unsupported(
                        "replay",
                        "the DcLike trace without ScaleSpec::PerFlowBps (the per-flow rate at \
                         the volume-series maximum)",
                    ))
                }
            };
            let series = ecp_traffic::dc_like_volume_trace(*groups, days, scenario.seed);
            let vol = &series[0];
            let vmax = vol.iter().cloned().fold(0.0, f64::max);
            let matrices: Vec<TrafficMatrix> = vol
                .iter()
                .step_by(*subsample)
                .map(|&v| uniform_matrix(&resolved.pairs, per_flow_peak_bps * v / vmax))
                .collect();
            Ok(ResolvedTrace {
                trace: Trace {
                    name: format!("dc-like-{days}d"),
                    interval_s: 300.0 * *subsample as f64,
                    matrices,
                },
                peak_bps: None,
                dc_series: Some(series),
            })
        }
        TraceSpec::Program => {
            let interval = scenario
                .traffic
                .program
                .segments
                .first()
                .ok_or("traffic program has no segments")?
                .interval_s;
            if interval <= 0.0 {
                return Err("program interval must be positive".into());
            }
            let n = ((scenario.duration_s / interval).ceil() as usize).max(1);
            let offered = offered_matrix(scenario, resolved)?;
            let matrices = (0..n)
                .map(|i| offered.at(scenario.traffic.program.level_at(i as f64 * interval)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ResolvedTrace {
                trace: Trace {
                    name: "program".into(),
                    interval_s: interval,
                    matrices,
                },
                peak_bps: None,
                dc_series: None,
            })
        }
    }
}

fn require_constant_program(scenario: &Scenario) -> Result<(), ScenarioError> {
    if scenario.traffic.program.segments.len() != 1
        || !matches!(
            scenario.traffic.program.segments[0].shape,
            ecp_traffic::Shape::Constant { .. }
        )
    {
        return Err(ScenarioError::unsupported(
            "replay",
            "shaped traffic programs with a synthetic trace: the trace synthesizes its own \
             demand curve, so the program must be a single Constant segment (use \
             TraceSpec::Program or the Simnet engine for shaped programs)",
        ));
    }
    Ok(())
}

/// An empty replay-side report skeleton.
fn replay_report(scenario: &Scenario, engine: &str) -> ScenarioReport {
    ScenarioReport {
        name: scenario.name.clone(),
        seed: scenario.seed,
        engine: engine.into(),
        samples: 0,
        mean_power_frac: 0.0,
        mean_delivered_fraction: 1.0,
        max_tracking_lag_s: 0.0,
        congested_fraction: None,
        mean_spilled_demands: None,
        power_series: None,
        delivered_series: None,
        per_path_samples: None,
        replay: None,
        packet: None,
        app: None,
        table_stats: None,
        capacity: None,
        failover: None,
        stability: None,
        telemetry: None,
    }
}

fn run_replay(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    spec: &ReplaySpec,
) -> Result<ScenarioReport, ScenarioError> {
    let mut rt = build_trace(scenario, resolved, spec)?;

    if let Some(growth) = spec.growth_per_day {
        let per_day = ((86_400.0 / rt.trace.interval_s) as usize).max(1);
        for (i, m) in rt.trace.matrices.iter_mut().enumerate() {
            let day = i / per_day;
            *m = m.scaled(growth.powi(day as i32));
        }
    }
    if let Some(w) = spec.window {
        if w.start >= w.end {
            return Err(format!("replay window [{}, {}) is empty", w.start, w.end).into());
        }
        let end = w.end.min(rt.trace.matrices.len());
        if w.start >= end {
            return Err(format!(
                "replay window starts at {} but the trace has {} intervals",
                w.start,
                rt.trace.matrices.len()
            )
            .into());
        }
        rt.trace.matrices = rt.trace.matrices[w.start..end].to_vec();
    }

    match spec.mode {
        ReplayMode::Tables => run_replay_tables(scenario, resolved, spec, &rt),
        ReplayMode::Recompute { scheme } => run_replay_recompute(scenario, resolved, &rt, scheme),
        ReplayMode::TraceStats => run_replay_trace_stats(scenario, &rt),
        ReplayMode::DriftReplan { window_intervals } => {
            run_replay_drift(scenario, resolved, &rt, window_intervals)
        }
    }
    .map(|mut report| {
        if let Some(detail) = report.replay.as_mut() {
            detail.trace_peak_bps = rt.peak_bps;
        }
        report
    })
}

/// Shared aggregation of a `steady_state_replay` outcome into a report.
fn tables_replay_report(
    scenario: &Scenario,
    rep: &respons_core::ReplayReport,
    trace: &Trace,
) -> ScenarioReport {
    let n = rep.points.len().max(1) as f64;
    let spilled = rep
        .points
        .iter()
        .map(|p| p.spilled_demands as f64)
        .sum::<f64>()
        / n;
    let placed = rep.points.iter().map(|p| p.placed_fraction).sum::<f64>() / n;
    let mut report = replay_report(scenario, "replay");
    report.samples = rep.points.len();
    report.mean_power_frac = rep.mean_power_fraction();
    report.mean_delivered_fraction = placed;
    report.congested_fraction = Some(rep.congested_fraction());
    report.mean_spilled_demands = Some(spilled);
    report.power_series = scenario
        .metrics
        .power_series
        .then(|| rep.points.iter().map(|p| (p.t, p.power_frac)).collect());
    report.replay = Some(ReplayDetail {
        interval_s: trace.interval_s,
        trace_peak_bps: None,
        power_w_series: scenario
            .metrics
            .power_series
            .then(|| rep.points.iter().map(|p| p.power_w).collect()),
        placed_series: scenario
            .metrics
            .delivered_series
            .then(|| rep.points.iter().map(|p| p.placed_fraction).collect()),
        spilled_series: scenario
            .metrics
            .delivered_series
            .then(|| rep.points.iter().map(|p| p.spilled_demands).collect()),
        volume_series: scenario
            .metrics
            .delivered_series
            .then(|| trace.volume_series()),
        deviation_ccdf: None,
        recompute: None,
        drift: None,
        comparisons: Vec::new(),
    });
    report
}

fn run_replay_tables(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    spec: &ReplaySpec,
    rt: &ResolvedTrace,
) -> Result<ScenarioReport, ScenarioError> {
    let topo = &resolved.built.topo;
    let te = scenario_te(scenario);
    let rep = steady_state_replay(topo, &resolved.power, &resolved.tables, &rt.trace, &te);
    let mut report = tables_replay_report(scenario, &rep, &rt.trace);

    let full = resolved.power.full_power(topo);
    let oc = OracleConfig::default();
    let mut comparisons = Vec::new();
    for c in &spec.comparisons {
        let series = match c {
            CompareSpec::Ecmp { fanout } => {
                let routes = ecp_routing::ecmp_routes(topo, &resolved.pairs, *fanout);
                vec![ecp_power::power_fraction(
                    &resolved.power,
                    topo,
                    &routes.active_set(topo),
                )]
            }
            CompareSpec::ElasticTree => {
                let ix = resolved
                    .built
                    .fat_tree
                    .as_ref()
                    .ok_or("the ElasticTree comparison needs a fat-tree topology")?;
                rt.trace
                    .matrices
                    .iter()
                    .map(|tm| {
                        elastictree_subset(topo, ix, &resolved.power, tm, &oc)
                            .map(|r| r.power_w / full)
                            .unwrap_or(f64::NAN)
                    })
                    .collect()
            }
            CompareSpec::OptimalPerInterval => {
                let mut solver = SubsetSolver::new(topo, &resolved.power, &oc);
                rt.trace
                    .matrices
                    .iter()
                    .map(|tm| {
                        solver
                            .optimal(tm)
                            .map(|r| r.power_w / full)
                            .unwrap_or(f64::NAN)
                    })
                    .collect()
            }
            CompareSpec::OptimalAtPeak { peak_level } => {
                let tm = offered_matrix(scenario, resolved)?.at(*peak_level)?;
                vec![ecp_routing::optimal_subset(topo, &resolved.power, &tm, &oc)
                    .map(|r| r.power_w / full)
                    .unwrap_or(f64::NAN)]
            }
        };
        comparisons.push(CompareResult {
            name: c.name().into(),
            series,
        });
    }
    if let Some(detail) = report.replay.as_mut() {
        detail.comparisons = comparisons;
    }
    Ok(report)
}

fn run_replay_recompute(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    rt: &ResolvedTrace,
    scheme: SubsetScheme,
) -> Result<ScenarioReport, ScenarioError> {
    let topo = &resolved.built.topo;
    let pm = &resolved.power;
    let oc = OracleConfig::default();
    // Wrap the optimizer so one pass yields both the recomputation-rate
    // metrics and the energy-critical-path usage (with last-success
    // fallback on optimizer failures, like the Fig. 2b procedure).
    let mut usage = PathUsage::new();
    let mut last_routes: Option<RouteSet> = None;
    let interval_s = rt.trace.interval_s;
    // One solver for the whole trace: each probed subset's oracle is
    // bound once and asked again in later intervals.
    let mut solver = SubsetSolver::new(topo, pm, &oc);
    let rep = recomputation_rate(topo, pm, &rt.trace, |tm| {
        let result = match scheme {
            SubsetScheme::Optimal => solver.optimal(tm),
            SubsetScheme::GreedyPrunePowerDesc => solver.greedy_prune(tm, PruneOrder::PowerDesc),
        };
        match &result {
            Some(r) => {
                usage.record(&r.routes, tm, interval_s);
                last_routes = Some(r.routes.clone());
            }
            None => {
                if let Some(rs) = &last_routes {
                    usage.record(rs, tm, interval_s);
                }
            }
        }
        result
    });
    let dom = ConfigDominance::from_signatures(&rep.signatures);
    let hourly = rep.hourly_rate();
    let full = pm.full_power(topo);
    let coverage: Vec<(usize, f64)> = (1..=5).map(|x| (x, usage.coverage(x))).collect();

    let mut report = replay_report(scenario, "replay");
    report.samples = rt.trace.matrices.len();
    report.mean_power_frac =
        rep.power_w.iter().sum::<f64>() / (rep.power_w.len().max(1) as f64 * full);
    report.power_series = scenario.metrics.power_series.then(|| {
        rep.power_w
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as f64 * interval_s, w / full))
            .collect()
    });
    report.replay = Some(ReplayDetail {
        interval_s,
        trace_peak_bps: None,
        power_w_series: scenario.metrics.power_series.then(|| rep.power_w.clone()),
        placed_series: None,
        spilled_series: None,
        volume_series: scenario
            .metrics
            .delivered_series
            .then(|| rt.trace.volume_series()),
        deviation_ccdf: None,
        recompute: Some(RecomputeStats {
            total_changes: rep.total_changes(),
            mean_rate_per_hour: rep.mean_rate_per_hour(),
            hourly_rate: hourly,
            failures: rep.failures,
            distinct_configurations: dom.distinct(),
            dominant_fraction: dom.dominant_fraction(),
            slices: dom
                .configs
                .iter()
                .map(|&(_, c)| c as f64 / dom.intervals.max(1) as f64)
                .collect(),
            coverage,
        }),
        drift: None,
        comparisons: Vec::new(),
    });
    Ok(report)
}

fn run_replay_trace_stats(
    scenario: &Scenario,
    rt: &ResolvedTrace,
) -> Result<ScenarioReport, ScenarioError> {
    // The deviation CCDF runs over the raw generator series where one
    // exists (all DC groups, unsubsampled), else over the trace volume.
    let series: Vec<Vec<f64>> = match &rt.dc_series {
        Some(s) => s.clone(),
        None => vec![rt.trace.volume_series()],
    };
    let ccdf = deviation_ccdf(&series);
    let mut report = replay_report(scenario, "replay");
    report.samples = series.first().map(Vec::len).unwrap_or(0);
    report.replay = Some(ReplayDetail {
        interval_s: rt.trace.interval_s,
        trace_peak_bps: None,
        power_w_series: None,
        placed_series: None,
        spilled_series: None,
        volume_series: scenario
            .metrics
            .delivered_series
            .then(|| rt.trace.volume_series()),
        deviation_ccdf: Some(ccdf),
        recompute: None,
        drift: None,
        comparisons: Vec::new(),
    });
    Ok(report)
}

fn run_replay_drift(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    rt: &ResolvedTrace,
    window_intervals: usize,
) -> Result<ScenarioReport, ScenarioError> {
    let topo = &resolved.built.topo;
    let te = scenario_te(scenario);
    let rep = steady_state_replay(topo, &resolved.power, &resolved.tables, &rt.trace, &te);

    let cfg = DriftConfig {
        window: window_intervals.max(1),
        ..Default::default()
    };
    let mut det = DriftDetector::new(cfg);
    let mut trigger: Option<usize> = None;
    let mut reasons = Vec::new();
    for (i, p) in rep.points.iter().enumerate() {
        det.observe(p);
        if trigger.is_none() {
            if let ReplanAdvice::Replan(rs) = det.demand_advice() {
                trigger = Some(i);
                reasons = rs.iter().map(|r| format!("{r:?}")).collect();
            }
        }
    }

    // What replanning at the trigger recovers: replan against the tail's
    // demand envelope and replay the remaining intervals with both sets.
    let (before, after) = match trigger {
        Some(i) => {
            let tail = Trace {
                name: "tail".into(),
                interval_s: rt.trace.interval_s,
                matrices: rt.trace.matrices[i..].to_vec(),
            };
            // The replan always targets the tail's own peak envelope, so
            // the spec's strategy (and any peak matrix it would need) is
            // deliberately not consulted here.
            let replan_cfg = respons_core::PlannerConfig {
                offpeak: Some(tail.offpeak_matrix()),
                strategy: respons_core::OnDemandStrategy::PeakMatrix(tail.peak_matrix()),
                ..respons_core::PlannerConfig::default()
                    .with_num_paths(scenario.planner.num_paths)
                    .with_beta(scenario.planner.beta)
                    .with_margin(scenario.planner.margin)
            };
            let replanned =
                Planner::new(topo, &resolved.power).plan_pairs(&replan_cfg, &resolved.pairs);
            let rep_before =
                steady_state_replay(topo, &resolved.power, &resolved.tables, &tail, &te);
            let rep_after = steady_state_replay(topo, &resolved.power, &replanned, &tail, &te);
            (
                rep_before.congested_fraction(),
                rep_after.congested_fraction(),
            )
        }
        None => (rep.congested_fraction(), rep.congested_fraction()),
    };

    let mut report = tables_replay_report(scenario, &rep, &rt.trace);
    if let Some(detail) = report.replay.as_mut() {
        detail.drift = Some(DriftStats {
            trigger_interval: trigger,
            reasons,
            congested_before: before,
            congested_after: after,
        });
    }
    Ok(report)
}

// ---- packet engine --------------------------------------------------------

/// Mean sleepable fraction across physical links: a link sleeps only
/// when BOTH directions are idle (approximated by the direction that
/// sleeps less); links that carried nothing sleep fully.
fn mean_sleep(topo: &Topology, act: &ArcActivity, min_gap: f64, wake: f64) -> f64 {
    let links: Vec<_> = topo.link_ids().collect();
    let mut acc = 0.0;
    for &l in &links {
        let fwd = act.opportunistic_sleep_fraction(l.idx(), min_gap, wake);
        let rev = topo
            .reverse(l)
            .map(|r| act.opportunistic_sleep_fraction(r.idx(), min_gap, wake))
            .unwrap_or(fwd);
        let carried = act.busy_s[l.idx()] > 0.0
            || topo
                .reverse(l)
                .map(|r| act.busy_s[r.idx()] > 0.0)
                .unwrap_or(false);
        acc += if carried { fwd.min(rev) } else { 1.0 };
    }
    acc / links.len().max(1) as f64
}

fn run_packet(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    spec: &PacketSpec,
) -> Result<ScenarioReport, ScenarioError> {
    let topo = &resolved.built.topo;
    let per_pair_rate = match spec.rate {
        PacketRateSpec::PerFlowBps { bps } => bps,
        PacketRateSpec::OriginUtilization { frac } => {
            let origin = common_origin(&resolved.pairs)?;
            let min_cap = topo
                .out_arcs(origin)
                .iter()
                .map(|&a| topo.arc(a).capacity)
                .fold(f64::INFINITY, f64::min);
            if !min_cap.is_finite() {
                return Err("the common origin has no outgoing links".into());
            }
            frac * min_cap / resolved.pairs.len() as f64
        }
    };

    let mut flows: Vec<CbrFlow> = Vec::new();
    for &(o, d) in &resolved.pairs {
        let od = resolved
            .tables
            .get(o, d)
            .ok_or_else(|| format!("no installed table for pair {o} -> {d}"))?;
        let paths: Vec<Path> = match spec.placement {
            PacketPlacement::AlwaysOn => vec![od.always_on.clone()],
            PacketPlacement::SpreadAll => {
                let mut distinct: Vec<Path> = Vec::new();
                for p in od.all() {
                    if !distinct.iter().any(|q| q == p) {
                        distinct.push(p.clone());
                    }
                }
                distinct
            }
        };
        let rate = per_pair_rate / paths.len() as f64;
        for path in paths {
            flows.push(CbrFlow {
                path,
                rate_bps: rate,
                start: flows.len() as f64 * spec.phase_offset_s,
                stop: spec.stop_s,
            });
        }
    }

    let cfg = PacketSimConfig {
        packet_bytes: spec.packet_bytes,
        queue_packets: spec.queue_packets,
    };
    let (stats, act) = run_packet_sim_full(topo, &flows, &cfg, scenario.duration_s);

    let n = stats.len().max(1) as f64;
    let sent: usize = stats.iter().map(|s| s.sent).sum();
    let delivered: usize = stats.iter().map(|s| s.delivered).sum();
    let sleep = spec.sleep.map(|s| {
        let dark = topo
            .link_ids()
            .filter(|l| {
                let fwd = act.busy_s[l.idx()] > 0.0;
                let rev = topo
                    .reverse(*l)
                    .map(|r| act.busy_s[r.idx()] > 0.0)
                    .unwrap_or(false);
                !fwd && !rev
            })
            .count();
        SleepStats {
            mean_sleep_fraction: mean_sleep(topo, &act, s.min_gap_s, s.wake_s),
            dark_links: dark,
            total_links: topo.link_count(),
        }
    });

    // Power of the configuration these flows keep awake: used arcs (+
    // endpoints), everything else asleep.
    let used: Vec<ArcId> = flows
        .iter()
        .flat_map(|f| f.path.arcs(topo).unwrap_or_default())
        .collect();
    let active = ecp_topo::ActiveSet::from_used_arcs(topo, used);
    let power_frac = ecp_power::power_fraction(&resolved.power, topo, &active);

    let mut report = replay_report(scenario, "packet");
    report.samples = stats.len();
    report.mean_power_frac = power_frac;
    report.mean_delivered_fraction = if sent > 0 {
        delivered as f64 / sent as f64
    } else {
        1.0
    };
    report.packet = Some(PacketDetail {
        mean_delay_s: stats.iter().map(|s| s.mean_delay).sum::<f64>() / n,
        max_p99_delay_s: stats.iter().map(|s| s.p99_delay).fold(0.0, f64::max),
        mean_queue_delay_s: stats.iter().map(|s| s.mean_queue_delay).sum::<f64>() / n,
        dropped: stats.iter().map(|s| s.dropped).sum(),
        flows: stats,
        sleep,
    });
    Ok(report)
}

// ---- app engine -----------------------------------------------------------

fn run_app(
    scenario: &Scenario,
    resolved: &ResolvedScenario,
    spec: &AppSpec,
) -> Result<ScenarioReport, ScenarioError> {
    let topo = &resolved.built.topo;
    let server = common_origin(&resolved.pairs)?;
    let clients: Vec<NodeId> = resolved.pairs.iter().map(|&(_, d)| d).collect();
    for &(o, d) in &resolved.pairs {
        if resolved.tables.get(o, d).is_none() {
            return Err(format!(
                "no installed table for pair {o} -> {d} (is the destination reachable?)"
            )
            .into());
        }
    }
    let sim_cfg = scenario.sim.to_config();

    match spec {
        AppSpec::Streaming {
            bitrate,
            block_duration_s,
            startup_delay_s,
            dt_s,
            playable_threshold,
            waves,
            runs,
        } => {
            if waves.is_empty() || *runs == 0 {
                return Err("Streaming needs at least one wave and one run".into());
            }
            let cfg = ecp_apps::StreamingConfig {
                bitrate: *bitrate,
                block_duration: *block_duration_s,
                startup_delay: *startup_delay_s,
                duration: scenario.duration_s,
                dt: *dt_s,
                playable_threshold: *playable_threshold,
            };
            let mut run_stats = Vec::with_capacity(*runs);
            for r in 0..*runs {
                let mut rng = StdRng::seed_from_u64(scenario.seed + r as u64);
                let mut placement: Vec<(NodeId, f64)> = Vec::new();
                for w in waves {
                    placement.extend(
                        (0..w.clients).map(|_| (clients[rng.gen_range(0..clients.len())], w.at_s)),
                    );
                }
                let res = ecp_apps::run_streaming(
                    topo,
                    &resolved.power,
                    &resolved.tables,
                    server,
                    &placement,
                    &cfg,
                    &sim_cfg,
                );
                run_stats.push(StreamingRunStats {
                    wave_playable_pct: waves
                        .iter()
                        .map(|w| res.playable_percent_where(|c| c.joined_at == w.at_s))
                        .collect(),
                    playable_pct: res.playable_percent(),
                    mean_block_latency_s: res.mean_block_latency(),
                    mean_power_fraction: res.mean_power_fraction,
                });
            }
            let mut report = replay_report(scenario, "app-streaming");
            report.samples = run_stats.len();
            report.mean_power_frac = run_stats.iter().map(|r| r.mean_power_fraction).sum::<f64>()
                / run_stats.len() as f64;
            report.app = Some(AppDetail::Streaming { runs: run_stats });
            Ok(report)
        }
        AppSpec::Web {
            num_files,
            requests_per_client,
            think_time_s,
            access_rate_bps,
            dt_s,
        } => {
            let cfg = ecp_apps::WebConfig {
                num_files: *num_files,
                requests_per_client: *requests_per_client,
                think_time: *think_time_s,
                access_rate: *access_rate_bps,
                dt: *dt_s,
                seed: scenario.seed,
            };
            let res = ecp_apps::run_web(
                topo,
                &resolved.power,
                &resolved.tables,
                server,
                &clients,
                &cfg,
                &sim_cfg,
            );
            let mut report = replay_report(scenario, "app-web");
            report.samples = res.latencies.len();
            report.mean_power_frac = res.mean_power_fraction;
            report.app = Some(AppDetail::Web {
                mean_latency_s: res.mean_latency(),
                p95_latency_s: res.percentile(95.0),
                unfinished: res.unfinished,
                mean_power_fraction: res.mean_power_fraction,
                latencies: res.latencies,
            });
            Ok(report)
        }
    }
}
