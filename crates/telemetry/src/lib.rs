//! # ecp-telemetry — structured tracing and metrics for the simulation stack
//!
//! The paper's story is about *dynamics*: online TE rounds reacting to
//! load shifts, links draining into low-power sleep, failover paths
//! absorbing failures. This crate gives the simulator a first-class
//! window into those dynamics without perturbing them:
//!
//! * [`TelemetryEvent`] — structured events in simulation time (control
//!   rounds, power transitions with idle-drain timing, TE reconfigs,
//!   failures and repairs, per-round arc-load summaries).
//! * [`TelemetrySink`] — a statically-dispatched facade. The simulator
//!   is generic over the sink; with the default [`NoopSink`]
//!   (`ENABLED = false`) every instrumentation site folds away at
//!   compile time, so golden hashes and benchmark numbers are untouched
//!   when tracing is off.
//! * [`JsonlSink`] — records events as deterministic JSON lines
//!   (byte-identical across thread counts and shard layouts, because
//!   simulation is single-threaded per run and events are emitted in
//!   event order) and aggregates [`Counter`]s / [`Hist`]ograms into a
//!   [`TelemetrySnapshot`] for embedding in reports.
//!   [`JsonlSink::counting`] aggregates the same snapshot and formats no
//!   line (what campaigns record).
//! * [`SpanSink`] — a [`JsonlSink`] that also times profiling spans in
//!   wall-clock time. Spans are aggregates only: they feed a
//!   [`TimingSnapshot`] and never enter the event lines, so a profiled
//!   trace is its traced run's trace byte for byte.
//! * [`alloc_count`] — a counting global allocator. It counts nothing
//!   unless a binary installs it; the `decision_allocs` test of
//!   `ecp-bench` does, to pin the decision path at zero allocations.

use serde::{Deserialize, JsonWriter, Serialize};

pub mod alloc_count;

pub mod profile;

pub use profile::{Clock, FakeClock, MonoClock, SpanSink, SpanTiming, TimingSnapshot};

/// Which way a link power transition went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerKind {
    /// Link went to sleep after draining idle.
    Sleep,
    /// A sleeping link was assigned traffic and began waking.
    WakeStart,
    /// A waking link completed its wake-up and became active.
    WakeDone,
}

/// Which kind of network element an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Element {
    /// An undirected link (index into the topology link table).
    Link,
    /// A node.
    Node,
}

/// One structured trace event. Every variant carries the simulation
/// time `t` (seconds) as its first field; events are emitted in
/// simulation order, so a trace is totally ordered by emission index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A TE control round completed (one event per round).
    ControlRound {
        /// Simulation time of the round.
        t: f64,
        /// True for failure-triggered immediate rounds.
        immediate: bool,
        /// Number of edge agents (flows) in the round.
        agents: u32,
        /// Agents that ran the decision kernel this round.
        decided: u32,
        /// Agents skipped because their observations were clean
        /// (incremental accounting + memoryless policy).
        skipped_clean: u32,
        /// Agents deferred to phased per-agent control events.
        deferred_phased: u32,
        /// Decisions whose applied shares actually changed.
        share_changes: u32,
        /// Waterfill inner-loop iterations spent in the round.
        waterfill_iters: u64,
    },
    /// Per-round arc-load summary, taken over the loads the agents of
    /// the round observed (pre-decision).
    ArcLoads {
        /// Simulation time of the round.
        t: f64,
        /// Maximum arc utilization (load / capacity) over powered arcs.
        max_util: f64,
        /// Mean arc utilization over powered arcs.
        mean_util: f64,
        /// Arcs above the TE threshold utilization.
        overloaded: u32,
    },
    /// A link changed power state.
    PowerTransition {
        /// Simulation time.
        t: f64,
        /// Link index.
        link: u32,
        /// Which transition.
        kind: PowerKind,
        /// For [`PowerKind::Sleep`]: seconds the link sat idle before
        /// sleeping (the idle-drain time). Zero otherwise.
        idle_s: f64,
    },
    /// The TE configuration was replaced mid-run.
    TeReconfig {
        /// Simulation time.
        t: f64,
        /// New utilization threshold.
        threshold: f64,
        /// New per-round step bound.
        step: f64,
        /// New minimum share.
        min_share: f64,
    },
    /// An element failed (`detected: false`) or the failure became
    /// known to agents (`detected: true`).
    Failure {
        /// Simulation time.
        t: f64,
        /// Element kind.
        element: Element,
        /// Element index.
        id: u32,
        /// Whether this is the detection event.
        detected: bool,
    },
    /// An element was repaired, or the repair became known.
    Repair {
        /// Simulation time.
        t: f64,
        /// Element kind.
        element: Element,
        /// Element index.
        id: u32,
        /// Whether this is the detection event.
        detected: bool,
    },
}

impl TelemetryEvent {
    /// Simulation time the event was emitted at.
    pub fn time(&self) -> f64 {
        match *self {
            TelemetryEvent::ControlRound { t, .. }
            | TelemetryEvent::ArcLoads { t, .. }
            | TelemetryEvent::PowerTransition { t, .. }
            | TelemetryEvent::TeReconfig { t, .. }
            | TelemetryEvent::Failure { t, .. }
            | TelemetryEvent::Repair { t, .. } => t,
        }
    }

    /// Move the event to simulation time `t`, leaving every other
    /// field as it is.
    pub fn set_time(&mut self, t: f64) {
        match self {
            TelemetryEvent::ControlRound { t: at, .. }
            | TelemetryEvent::ArcLoads { t: at, .. }
            | TelemetryEvent::PowerTransition { t: at, .. }
            | TelemetryEvent::TeReconfig { t: at, .. }
            | TelemetryEvent::Failure { t: at, .. }
            | TelemetryEvent::Repair { t: at, .. } => *at = t,
        }
    }

    /// Short kind name (the JSON external tag).
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::ControlRound { .. } => "ControlRound",
            TelemetryEvent::ArcLoads { .. } => "ArcLoads",
            TelemetryEvent::PowerTransition { .. } => "PowerTransition",
            TelemetryEvent::TeReconfig { .. } => "TeReconfig",
            TelemetryEvent::Failure { .. } => "Failure",
            TelemetryEvent::Repair { .. } => "Repair",
        }
    }
}

/// Names of the profiling spans recorded by [`SpanSink`]. Fixed like
/// [`Counter`] so per-span statistics live in a flat array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One event popped off the simulator queue and dispatched.
    EventDrain,
    /// Incremental load-accounting flush after an event.
    LoadFlush,
    /// Control round: arc-load snapshot + round summary emission.
    RoundSnapshot,
    /// Control round: building one agent's `Observation`.
    RoundObserve,
    /// Control round: one agent's policy decision kernel.
    RoundDecide,
    /// Control round: applying decided shares to flows.
    RoundApply,
    /// Control round: committing wake/sleep power transitions.
    RoundInstall,
    /// WakeDone / SleepCheck power-state bookkeeping.
    PowerTransition,
    /// Failure / repair detection handling (nests the immediate round).
    FailureHandling,
    /// Scenario resolve: topology + power + pair construction.
    ResolveTopo,
    /// Scenario resolve: routing-table planning (Dijkstra/Yen).
    ResolvePlan,
    /// Max-feasible-volume oracle probe.
    ResolveOracle,
    /// Resolve cache served an already-resolved scenario.
    ResolveCacheHit,
    /// Resolve cache had to resolve from scratch.
    ResolveCacheMiss,
    /// One full scenario simulation (event loop + aggregation).
    ScenarioRun,
    /// One campaign run unit (resolve + simulate + store).
    CampaignRun,
}

impl SpanName {
    /// Every span, in [`TimingSnapshot`] order.
    pub const ALL: [SpanName; 16] = [
        SpanName::EventDrain,
        SpanName::LoadFlush,
        SpanName::RoundSnapshot,
        SpanName::RoundObserve,
        SpanName::RoundDecide,
        SpanName::RoundApply,
        SpanName::RoundInstall,
        SpanName::PowerTransition,
        SpanName::FailureHandling,
        SpanName::ResolveTopo,
        SpanName::ResolvePlan,
        SpanName::ResolveOracle,
        SpanName::ResolveCacheHit,
        SpanName::ResolveCacheMiss,
        SpanName::ScenarioRun,
        SpanName::CampaignRun,
    ];

    /// Stable snake_case name used in timing snapshots.
    pub fn name(self) -> &'static str {
        match self {
            SpanName::EventDrain => "event_drain",
            SpanName::LoadFlush => "load_flush",
            SpanName::RoundSnapshot => "round_snapshot",
            SpanName::RoundObserve => "round_observe",
            SpanName::RoundDecide => "round_decide",
            SpanName::RoundApply => "round_apply",
            SpanName::RoundInstall => "round_install",
            SpanName::PowerTransition => "power_transition",
            SpanName::FailureHandling => "failure_handling",
            SpanName::ResolveTopo => "resolve_topo",
            SpanName::ResolvePlan => "resolve_plan",
            SpanName::ResolveOracle => "resolve_oracle",
            SpanName::ResolveCacheHit => "resolve_cache_hit",
            SpanName::ResolveCacheMiss => "resolve_cache_miss",
            SpanName::ScenarioRun => "scenario_run",
            SpanName::CampaignRun => "campaign_run",
        }
    }

    /// Position in [`SpanName::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Monotonic counters maintained by recording sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Discrete events popped off the simulator queue.
    EventsProcessed,
    /// TE control rounds executed.
    ControlRounds,
    /// Failure-triggered immediate rounds.
    ImmediateRounds,
    /// Agent decisions that ran the kernel.
    AgentDecisions,
    /// Agent decisions skipped with clean observations.
    SkippedClean,
    /// Agent decisions deferred to phased control events.
    DeferredPhased,
    /// Decisions whose applied shares changed.
    ShareChanges,
    /// Dirty arcs recomputed by incremental load accounting.
    DirtyArcRecomputes,
    /// Waterfill inner-loop iterations.
    WaterfillIterations,
    /// Link power transitions (sleep + wake-start + wake-done).
    PowerTransitions,
    /// Mid-run TE reconfigurations.
    TeReconfigs,
    /// Failures injected (links + nodes).
    FailuresInjected,
    /// Repairs injected (links + nodes).
    RepairsInjected,
    /// Series rows sampled.
    Samples,
}

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; 14] = [
        Counter::EventsProcessed,
        Counter::ControlRounds,
        Counter::ImmediateRounds,
        Counter::AgentDecisions,
        Counter::SkippedClean,
        Counter::DeferredPhased,
        Counter::ShareChanges,
        Counter::DirtyArcRecomputes,
        Counter::WaterfillIterations,
        Counter::PowerTransitions,
        Counter::TeReconfigs,
        Counter::FailuresInjected,
        Counter::RepairsInjected,
        Counter::Samples,
    ];

    /// Stable snake_case name used in snapshots and traces.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsProcessed => "events_processed",
            Counter::ControlRounds => "control_rounds",
            Counter::ImmediateRounds => "immediate_rounds",
            Counter::AgentDecisions => "agent_decisions",
            Counter::SkippedClean => "skipped_clean",
            Counter::DeferredPhased => "deferred_phased",
            Counter::ShareChanges => "share_changes",
            Counter::DirtyArcRecomputes => "dirty_arc_recomputes",
            Counter::WaterfillIterations => "waterfill_iterations",
            Counter::PowerTransitions => "power_transitions",
            Counter::TeReconfigs => "te_reconfigs",
            Counter::FailuresInjected => "failures_injected",
            Counter::RepairsInjected => "repairs_injected",
            Counter::Samples => "samples",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Histograms maintained by recording sinks (fixed bucket bounds so
/// snapshots are layout-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Waterfill iterations per agent decision.
    WaterfillPerDecision,
    /// Seconds a link drained idle before sleeping.
    IdleDrainS,
    /// Agents that decided per control round.
    DecidedPerRound,
}

impl Hist {
    /// Every histogram, in snapshot order.
    pub const ALL: [Hist; 3] = [
        Hist::WaterfillPerDecision,
        Hist::IdleDrainS,
        Hist::DecidedPerRound,
    ];

    /// Stable snake_case name used in snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Hist::WaterfillPerDecision => "waterfill_per_decision",
            Hist::IdleDrainS => "idle_drain_s",
            Hist::DecidedPerRound => "decided_per_round",
        }
    }

    /// Upper bucket bounds (inclusive); an implicit +inf bucket
    /// follows the last bound.
    pub fn bounds(self) -> &'static [f64] {
        match self {
            Hist::WaterfillPerDecision => &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            Hist::IdleDrainS => &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0],
            Hist::DecidedPerRound => &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0],
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One counter in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Counter name ([`Counter::name`]).
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// One histogram in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name ([`Hist::name`]).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
    /// `(upper_bound, count_in_bucket)` pairs. The final pair is the
    /// overflow bucket; its bound is the sentinel `-1.0` (infinity is
    /// not representable in JSON).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket that crosses the target rank. The first
    /// populated bucket interpolates up from `min`, the overflow bucket
    /// toward `max`, and the result is clamped to `[min, max]` — so the
    /// estimate is exact for single-bucket data and never leaves the
    /// observed range (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        let mut lower = self.min;
        for &(bound, n) in &self.buckets {
            if n == 0 {
                continue;
            }
            // The overflow bucket carries the sentinel bound -1.0; its
            // real upper edge is the observed max.
            let upper = if bound < 0.0 {
                self.max
            } else {
                bound.clamp(lower, self.max)
            };
            if (cum + n) as f64 >= target {
                let within = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return (lower + (upper - lower) * within).clamp(self.min, self.max);
            }
            cum += n;
            lower = upper;
        }
        self.max
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Aggregated metrics for one run, embedded in `ScenarioReport` and
/// campaign result stores when telemetry is enabled.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Total trace events emitted.
    pub events: u64,
    /// Time of the last control round that changed any share — the
    /// settling time of the run's transient (None if no round changed
    /// shares).
    #[serde(default)]
    pub settle_time_s: Option<f64>,
    /// Peak overloaded-arc count over all rounds.
    #[serde(default)]
    pub peak_overloaded_arcs: u32,
    /// Peak max arc utilization over all rounds.
    #[serde(default)]
    pub peak_max_util: f64,
    /// Final counter values (in [`Counter::ALL`] order).
    pub counters: Vec<CounterSample>,
    /// Final histograms (in [`Hist::ALL`] order).
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Look up a counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Statically-dispatched telemetry facade.
///
/// The simulator is generic over `S: TelemetrySink`; call sites guard
/// event construction with `if S::ENABLED { ... }`, which the compiler
/// folds away entirely for [`NoopSink`]. Implementations must be cheap
/// and must not observe wall-clock time or randomness (traces must be
/// deterministic).
pub trait TelemetrySink {
    /// Whether this sink records anything. `false` lets every
    /// instrumentation site compile out.
    const ENABLED: bool;

    /// Record a structured event.
    fn emit(&mut self, ev: &TelemetryEvent);

    /// Add `n` to a counter.
    fn add(&mut self, c: Counter, n: u64);

    /// Observe a value into a histogram.
    fn observe(&mut self, h: Hist, v: f64);

    /// Whether this sink records profiling spans. Defaults to `false`
    /// so only [`SpanSink`] pays for the clock reads; call sites guard
    /// with `if S::SPANS { ... }` exactly like `ENABLED`.
    const SPANS: bool = false;

    /// Open a profiling span. No-op unless `SPANS`.
    #[inline(always)]
    fn span_enter(&mut self, _name: SpanName) {}

    /// Close the innermost profiling span (must match the last
    /// `span_enter`). No-op unless `SPANS`.
    #[inline(always)]
    fn span_exit(&mut self, _name: SpanName) {}

    /// Snapshot aggregated metrics, if this sink keeps any.
    fn snapshot(&self) -> Option<TelemetrySnapshot> {
        None
    }

    /// Take the recorded JSONL lines, in emission order, leaving the
    /// sink's line buffer empty (aggregates are kept). Empty for sinks
    /// that record no lines.
    fn take_lines(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// The default sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: &TelemetryEvent) {}

    #[inline(always)]
    fn add(&mut self, _c: Counter, _n: u64) {}

    #[inline(always)]
    fn observe(&mut self, _h: Hist, _v: f64) {}
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl HistState {
    fn new(h: Hist) -> Self {
        HistState::with_bounds(h.bounds())
    }

    /// Empty state sized for `bounds` (one bucket per bound plus the
    /// overflow bucket). Used by [`SpanSink`] with span-duration
    /// bounds that are not part of the [`Hist`] registry.
    pub(crate) fn with_bounds(bounds: &[f64]) -> Self {
        HistState {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; bounds.len() + 1],
        }
    }

    pub(crate) fn observe(&mut self, bounds: &[f64], v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
        self.buckets[idx] += 1;
    }

    fn snapshot(&self, h: Hist) -> HistogramSnapshot {
        self.snapshot_named(h.name(), h.bounds())
    }

    pub(crate) fn snapshot_named(&self, name: &str, bounds: &[f64]) -> HistogramSnapshot {
        let mut buckets: Vec<(f64, u64)> = bounds
            .iter()
            .zip(&self.buckets)
            .map(|(&b, &n)| (b, n))
            .collect();
        // Overflow bucket: bound sentinel -1.0 (infinity is not
        // representable in JSON).
        buckets.push((-1.0, self.buckets[bounds.len()]));
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

/// A recording sink: serializes every event to one deterministic JSON
/// line and aggregates counters, histograms, and settling statistics.
/// A counting sink ([`JsonlSink::counting`]) aggregates exactly the same
/// and formats no line.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlSink {
    /// The recorded lines; `None` for a counting sink.
    lines: Option<Vec<String>>,
    /// Formatting buffer reused by every line; empty between lines.
    buf: String,
    events: u64,
    counters: [u64; Counter::ALL.len()],
    hists: Vec<HistState>,
    settle_time_s: Option<f64>,
    peak_overloaded_arcs: u32,
    peak_max_util: f64,
}

impl JsonlSink {
    /// Empty sink.
    pub fn new() -> Self {
        JsonlSink {
            lines: Some(Vec::new()),
            buf: String::new(),
            events: 0,
            counters: [0; Counter::ALL.len()],
            hists: Hist::ALL.iter().map(|&h| HistState::new(h)).collect(),
            settle_time_s: None,
            peak_overloaded_arcs: 0,
            peak_max_util: 0.0,
        }
    }

    /// Empty sink that keeps the aggregates of [`JsonlSink::new`] and
    /// formats no line: its [`TelemetrySink::snapshot`] equals a line
    /// sink's over the same events, and it records no lines.
    pub fn counting() -> Self {
        JsonlSink {
            lines: None,
            ..JsonlSink::new()
        }
    }

    /// Recorded JSON lines, in emission order (none for a counting sink).
    pub fn lines(&self) -> &[String] {
        self.lines.as_deref().unwrap_or_default()
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }
}

impl Default for JsonlSink {
    fn default() -> Self {
        JsonlSink::new()
    }
}

impl TelemetrySink for JsonlSink {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: &TelemetryEvent) {
        self.events += 1;
        match *ev {
            TelemetryEvent::ControlRound {
                t, share_changes, ..
            } if share_changes > 0 => {
                self.settle_time_s = Some(t);
            }
            TelemetryEvent::ArcLoads {
                max_util,
                overloaded,
                ..
            } => {
                self.peak_overloaded_arcs = self.peak_overloaded_arcs.max(overloaded);
                if max_util > self.peak_max_util {
                    self.peak_max_util = max_util;
                }
            }
            _ => {}
        }
        // One JSON line, formatted in the reused buffer and stored at
        // its exact size. A counting sink formats nothing.
        if let Some(lines) = &mut self.lines {
            ev.write_json(&mut JsonWriter::compact(&mut self.buf));
            lines.push(self.buf.as_str().into());
            self.buf.clear();
        }
    }

    fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    fn observe(&mut self, h: Hist, v: f64) {
        self.hists[h.index()].observe(h.bounds(), v);
    }

    fn snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(TelemetrySnapshot {
            events: self.events,
            settle_time_s: self.settle_time_s,
            peak_overloaded_arcs: self.peak_overloaded_arcs,
            peak_max_util: self.peak_max_util,
            counters: Counter::ALL
                .iter()
                .map(|&c| CounterSample {
                    name: c.name().to_string(),
                    value: self.counters[c.index()],
                })
                .collect(),
            histograms: Hist::ALL
                .iter()
                .map(|&h| self.hists[h.index()].snapshot(h))
                .collect(),
        })
    }

    fn take_lines(&mut self) -> Vec<String> {
        self.lines.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(t: f64, share_changes: u32) -> TelemetryEvent {
        TelemetryEvent::ControlRound {
            t,
            immediate: false,
            agents: 4,
            decided: 4,
            skipped_clean: 0,
            deferred_phased: 0,
            share_changes,
            waterfill_iters: 8,
        }
    }

    #[test]
    fn noop_sink_is_disabled_and_snapshotless() {
        let mut s = NoopSink;
        const { assert!(!NoopSink::ENABLED) };
        s.emit(&round(1.0, 2));
        s.add(Counter::ControlRounds, 1);
        s.observe(Hist::DecidedPerRound, 4.0);
        assert!(s.snapshot().is_none());
    }

    #[test]
    fn jsonl_sink_records_lines_and_counters() {
        let mut s = JsonlSink::new();
        s.emit(&round(1.0, 2));
        s.emit(&round(2.0, 0));
        s.add(Counter::ControlRounds, 2);
        s.add(Counter::AgentDecisions, 8);
        s.observe(Hist::DecidedPerRound, 4.0);
        s.observe(Hist::DecidedPerRound, 4.0);
        assert_eq!(s.lines().len(), 2);
        assert!(s.lines()[0].starts_with("{\"ControlRound\":"));
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.events, 2);
        assert_eq!(snap.counter("control_rounds"), 2);
        assert_eq!(snap.counter("agent_decisions"), 8);
        // Settle time = last round with share changes.
        assert_eq!(snap.settle_time_s, Some(1.0));
        let h = snap.histogram("decided_per_round").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn arc_loads_track_peaks() {
        let mut s = JsonlSink::new();
        s.emit(&TelemetryEvent::ArcLoads {
            t: 1.0,
            max_util: 0.8,
            mean_util: 0.3,
            overloaded: 2,
        });
        s.emit(&TelemetryEvent::ArcLoads {
            t: 2.0,
            max_util: 0.6,
            mean_util: 0.2,
            overloaded: 5,
        });
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.peak_overloaded_arcs, 5);
        assert!((snap.peak_max_util - 0.8).abs() < 1e-12);
    }

    #[test]
    fn counting_sink_aggregates_like_a_line_sink_and_formats_nothing() {
        let mut lines = JsonlSink::new();
        let mut counting = JsonlSink::counting();
        for s in [&mut lines, &mut counting] {
            s.emit(&round(1.0, 2));
            s.emit(&TelemetryEvent::ArcLoads {
                t: 1.0,
                max_util: 0.9,
                mean_util: 0.4,
                overloaded: 3,
            });
            s.emit(&round(2.0, 0));
            s.add(Counter::AgentDecisions, 8);
            s.observe(Hist::IdleDrainS, 0.7);
        }
        assert_eq!(counting.snapshot(), lines.snapshot());
        assert_eq!(lines.lines().len(), 3);
        assert!(counting.lines().is_empty());
        assert!(counting.take_lines().is_empty());
        assert!(counting.buf.is_empty() && counting.buf.capacity() == 0);
    }

    #[test]
    fn events_round_trip_through_json() {
        let evs = vec![
            round(0.5, 1),
            TelemetryEvent::PowerTransition {
                t: 3.0,
                link: 7,
                kind: PowerKind::Sleep,
                idle_s: 2.5,
            },
            TelemetryEvent::TeReconfig {
                t: 4.0,
                threshold: 0.5,
                step: 0.1,
                min_share: 0.0,
            },
            TelemetryEvent::Failure {
                t: 5.0,
                element: Element::Link,
                id: 3,
                detected: false,
            },
            TelemetryEvent::Repair {
                t: 6.0,
                element: Element::Node,
                id: 1,
                detected: true,
            },
            TelemetryEvent::ArcLoads {
                t: 7.0,
                max_util: 0.4,
                mean_util: 0.1,
                overloaded: 0,
            },
        ];
        for ev in evs {
            let line = serde_json::to_string(&ev).unwrap();
            let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, ev);
            assert!(line.contains(ev.kind()));
            assert!(ev.time() > 0.0);
        }
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut s = JsonlSink::new();
        s.observe(Hist::IdleDrainS, 0.05);
        s.observe(Hist::IdleDrainS, 100.0); // overflow
        let snap = s.snapshot().unwrap();
        let h = snap.histogram("idle_drain_s").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[0], (0.1, 1));
        assert_eq!(*h.buckets.last().unwrap(), (-1.0, 1));
        assert!((h.min - 0.05).abs() < 1e-12);
        assert!((h.max - 100.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut s = JsonlSink::new();
        // 100 uniform observations over (0, 10]: quantile(q) ≈ 10q.
        for i in 1..=100 {
            s.observe(Hist::IdleDrainS, i as f64 / 10.0);
        }
        let snap = s.snapshot().unwrap();
        let h = snap.histogram("idle_drain_s").unwrap();
        // Bounds are [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]; interpolation
        // within a bucket is linear, so estimates land within one bucket
        // width of the exact value.
        assert!((h.p50() - 5.0).abs() < 1.5);
        assert!((h.p95() - 9.5).abs() < 1.0);
        assert!((h.p99() - 9.9).abs() < 1.0);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        // Clamped to the observed range.
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);
        // Empty histogram reports 0.
        let empty = snap.histogram("waterfill_per_decision").unwrap();
        assert_eq!(empty.p50(), 0.0);
        // Single observation: every quantile is that value.
        let mut one = JsonlSink::new();
        one.observe(Hist::IdleDrainS, 0.7);
        let snap1 = one.snapshot().unwrap();
        let h1 = snap1.histogram("idle_drain_s").unwrap();
        assert!((h1.p50() - 0.7).abs() < 1e-12);
        assert!((h1.p99() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_and_defaults() {
        let mut s = JsonlSink::new();
        s.emit(&round(1.5, 3));
        s.add(Counter::WaterfillIterations, 42);
        let snap = s.snapshot().unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("waterfill_iterations"), 42);
        assert_eq!(back.counter("no_such_counter"), 0);
    }

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }
}
