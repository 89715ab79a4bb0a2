//! The declarative scenario model: every knob of an experiment as data.

use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use serde::{Deserialize, Serialize};

/// A complete, self-contained experiment description. Serializable to
/// TOML/JSON; buildable with [`ScenarioBuilder`](crate::ScenarioBuilder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (report labels, file names).
    pub name: String,
    /// Master determinism seed: every random choice in the scenario
    /// (OD sampling, event targets, traces) derives from it.
    pub seed: u64,
    /// Total simulated / replayed duration in seconds. For the replay
    /// engine this is rounded up to whole trace intervals.
    pub duration_s: f64,
    /// Which network to build.
    pub topology: TopoSpec,
    /// Which power model prices it.
    pub power: PowerSpec,
    /// Which OD pairs carry traffic.
    pub pairs: PairsSpec,
    /// Offered-load program over time.
    pub traffic: TrafficSpec,
    /// How the REsPoNse tables are obtained.
    pub tables: TablesSpec,
    /// Planner knobs (used when `tables` is `Planned`).
    pub planner: PlannerSpec,
    /// Execution engine: packet-level simnet or steady-state replay.
    pub engine: EngineSpec,
    /// Simulator knobs (used by the simnet engine).
    pub sim: SimSpec,
    /// Online TE control-loop policy (simnet engine; default
    /// [`ControlSpec::Undamped`], the original hard-wired behavior).
    #[serde(default)]
    pub control: ControlSpec,
    /// Timed perturbations injected into the run.
    pub events: Vec<EventSpec>,
    /// Pre-TE share spread applied to every flow (e.g. Fig. 7 starts
    /// with traffic split over both candidate paths). Length must match
    /// the installed (deduplicated) path count of each flow.
    pub initial_shares: Option<Vec<f64>>,
    /// Which outputs of the sampled series the report keeps.
    pub metrics: MetricsSpec,
}

/// Power model choice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerSpec {
    /// Cisco 12000-class chassis/linecard model (ISP experiments).
    Cisco12000,
    /// Forward-looking hardware: chassis power budget reduced 10× (the
    /// paper's "alternative hardware" of Fig. 5).
    AlternativeHw,
    /// Commodity datacenter switch model.
    CommodityDc,
}

impl PowerSpec {
    /// Instantiate the model.
    pub fn build(&self) -> ecp_power::PowerModel {
        match self {
            PowerSpec::Cisco12000 => ecp_power::PowerModel::cisco12000(),
            PowerSpec::AlternativeHw => ecp_power::PowerModel::alternative_hw(),
            PowerSpec::CommodityDc => ecp_power::PowerModel::commodity_dc(),
        }
    }
}

/// OD-pair selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PairsSpec {
    /// `count` distinct ordered pairs of edge nodes, sampled with the
    /// scenario seed.
    Random {
        /// Number of pairs.
        count: usize,
    },
    /// `count` pairs drawn among a seed-chosen subset of `nodes` PoPs —
    /// the paper's "select the origins and destinations at random"
    /// methodology where the remaining PoPs are pure transit.
    RandomSubset {
        /// Size of the PoP subset acting as origins/destinations.
        nodes: usize,
        /// Number of pairs.
        count: usize,
    },
    /// For each edge node `i` (of `n`), a pair to the node `n/d` slots
    /// ahead for every denominator `d` — the Fig.-8a "two concurrent far
    /// flows per metro" pattern with `denominators = [2, 3]`.
    EdgeOffset {
        /// Offset denominators.
        denominators: Vec<usize>,
    },
    /// Cross-pod fat-tree pairs (requires a fat-tree topology).
    FatTreeFar,
    /// Intra-pod fat-tree pairs (requires a fat-tree topology).
    FatTreeNear,
    /// The paper's Fig.-3 sources: A→K and C→K (requires `Fig3Click`).
    Fig3,
    /// One pair from `center` to every other node, in node-id order —
    /// the Fig.-9 streaming-source pattern.
    Star {
        /// The common origin.
        center: NodeRef,
    },
    /// The lowest-degree node (a "stub") serving the next `clients`
    /// lowest-degree nodes — the §5.4 web/packet-latency pattern.
    StarByDegree {
        /// Number of client stubs.
        clients: usize,
    },
    /// An explicit OD-pair list, in order.
    Explicit {
        /// `(origin, destination)` references.
        pairs: Vec<(NodeRef, NodeRef)>,
    },
}

/// Base-matrix structure: how a total volume is split across pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MatrixSpec {
    /// Capacity-weighted gravity model (ISP maps, §5.1).
    Gravity,
    /// Every pair gets the same rate.
    Uniform,
}

/// What a traffic-program level of `1.0` means.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScaleSpec {
    /// Fraction of the maximum feasible volume (oracle-computed, the
    /// paper's §5.1 procedure): level `l` offers `l × fraction × max`.
    MaxFeasibleFraction {
        /// Fraction of the max feasible volume at level 1.0.
        fraction: f64,
    },
    /// Absolute total volume in bits/s at level 1.0, split per matrix.
    TotalBps {
        /// Total offered bits/s at level 1.0.
        bps: f64,
    },
    /// Absolute per-flow rate in bits/s at level 1.0 (uniform only).
    PerFlowBps {
        /// Per-flow bits/s at level 1.0.
        bps: f64,
    },
}

/// A per-flow traffic override: the referenced flow ignores the global
/// program and follows its own, with levels multiplying the flow's base
/// (level-1.0) matrix rate. Simnet engine only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowProgram {
    /// Flow index (position in the resolved OD-pair list).
    pub flow: usize,
    /// The flow's own level curve.
    pub program: Program,
}

/// The offered-load side of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Split structure.
    pub matrix: MatrixSpec,
    /// Meaning of level 1.0.
    pub scale: ScaleSpec,
    /// Level over time.
    pub program: Program,
    /// Per-flow program overrides (simnet engine only).
    #[serde(default)]
    pub per_flow: Vec<FlowProgram>,
}

/// Where the routing tables come from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TablesSpec {
    /// Run the REsPoNse planner with [`PlannerSpec`] over the scenario's
    /// OD pairs.
    Planned,
    /// Run the planner over **all** node pairs of the topology (the
    /// operator plans the whole network; the experiment then uses the
    /// entries its pairs need) — the §5.4 methodology.
    PlannedAllPairs,
    /// OSPF-InvCap single-path routing packaged as degenerate tables
    /// (always-on = failover = the OSPF path, nothing sleeps on those
    /// routes) — the paper's baseline scheme.
    OspfInvCap,
    /// The hand-built Fig.-3 tables of the paper (middle always-on,
    /// upper/lower on-demand doubling as failover). Requires the
    /// `Fig3Click` topology and `Fig3` pairs.
    Fig3Paper,
}

/// On-demand path construction strategy (§4.2) as data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum StrategySpec {
    /// Stress-factor construction excluding
    /// [`PlannerSpec::exclude_fraction`] of the most stressed links (the
    /// paper's default).
    #[default]
    StressFactor,
    /// On-demand = the OSPF shortest paths (REsPoNse-ospf).
    Ospf,
    /// Traffic-aware heuristic with `k` candidate paths against the
    /// scenario's offered matrix at level `peak_level`
    /// (REsPoNse-heuristic).
    Heuristic {
        /// Candidate paths per pair.
        k: usize,
        /// Program level defining the peak matrix.
        peak_level: f64,
    },
    /// On-demand planned directly against the scenario's offered matrix
    /// at level `peak_level` (demand-aware datacenter configuration).
    PeakOffered {
        /// Program level defining the peak matrix.
        peak_level: f64,
    },
}

/// The largest `planner.num_paths` a scenario may ask for. Every path
/// beyond the always-on and failover ones costs the planner one more
/// round over all pairs and each pair one more installed table; the
/// paper installs 3 and the evaluation sweeps up to 5. The bound leaves
/// room for ablations beyond that, and turns a mistyped count (`1e12`)
/// into an error instead of a planning pass that never ends.
pub const MAX_NUM_PATHS: usize = 16;

/// Planner parameters — the usual sweep axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerSpec {
    /// Energy-critical paths per OD pair (`N`, paper: 3), in
    /// `2..=MAX_NUM_PATHS`.
    pub num_paths: usize,
    /// REsPoNse-lat latency slack β; `None` disables the bound.
    pub beta: Option<f64>,
    /// Oracle safety margin `sm` (usable capacity fraction).
    pub margin: f64,
    /// Stress-factor link-exclusion fraction.
    pub exclude_fraction: f64,
    /// On-demand construction strategy.
    #[serde(default)]
    pub strategy: StrategySpec,
}

impl Default for PlannerSpec {
    fn default() -> Self {
        PlannerSpec {
            num_paths: 3,
            beta: None,
            margin: 1.0,
            exclude_fraction: 0.2,
            strategy: StrategySpec::StressFactor,
        }
    }
}

impl PlannerSpec {
    /// Convert to the core planner configuration. [`StrategySpec`]
    /// variants needing the offered peak matrix are resolved by the
    /// engine (`crate::run::resolve`), which passes it here.
    pub fn to_config(
        &self,
        peak: Option<ecp_traffic::TrafficMatrix>,
    ) -> respons_core::PlannerConfig {
        let base = respons_core::PlannerConfig::default()
            .with_num_paths(self.num_paths)
            .with_beta(self.beta)
            .with_margin(self.margin);
        match (self.strategy, peak) {
            (StrategySpec::StressFactor, _) => base.with_exclude_fraction(self.exclude_fraction),
            (StrategySpec::Ospf, _) => respons_core::PlannerConfig {
                strategy: respons_core::OnDemandStrategy::Ospf,
                ..base
            },
            (StrategySpec::Heuristic { k, .. }, Some(peak)) => respons_core::PlannerConfig {
                strategy: respons_core::OnDemandStrategy::Heuristic { k, peak },
                ..base
            },
            (StrategySpec::PeakOffered { .. }, Some(peak)) => respons_core::PlannerConfig {
                strategy: respons_core::OnDemandStrategy::PeakMatrix(peak),
                ..base
            },
            (s, None) => unreachable!("strategy {s:?} needs a peak matrix"),
        }
    }

    /// The program level this strategy wants the offered peak matrix at,
    /// if any.
    pub fn peak_level(&self) -> Option<f64> {
        match self.strategy {
            StrategySpec::StressFactor | StrategySpec::Ospf => None,
            StrategySpec::Heuristic { peak_level, .. }
            | StrategySpec::PeakOffered { peak_level } => Some(peak_level),
        }
    }
}

/// How the trace peak of a replay is derived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PeakSpec {
    /// Peak = the volume the always-on paths alone support (at the
    /// traffic spec's gravity proportions) × `factor`; optionally capped
    /// at `cap_over_full` × what all installed tables support. Requires
    /// `TotalBps` scale (the base matrix). `use_sim_te` probes capacity
    /// with the scenario's TE threshold instead of 1.0.
    OverAlwaysOn {
        /// Multiple of the always-on-supported volume.
        factor: f64,
        /// Optional cap as a fraction of the all-tables capacity.
        #[serde(default)]
        cap_over_full: Option<f64>,
        /// Probe capacity at the scenario TE threshold (else at 1.0).
        #[serde(default)]
        use_sim_te: bool,
    },
    /// Peak = the oracle's maximum feasible volume × `fraction` (the
    /// paper's §5.1 scaling procedure).
    MaxFeasibleFraction {
        /// Fraction of the maximum feasible volume.
        fraction: f64,
    },
    /// Absolute peak volume in bits/s.
    TotalBps {
        /// The peak.
        bps: f64,
    },
}

/// Which trace drives a replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceSpec {
    /// Synthetic GÉANT-like 15-minute diurnal trace (the TOTEM
    /// substitute); `duration_s` is rounded up to whole days.
    GeantLike {
        /// How the trace peak is derived.
        peak: PeakSpec,
    },
    /// Synthetic Google-DC-like 5-minute volume series. Group 0 drives
    /// per-pair matrices whose per-flow rate at the series maximum is
    /// the traffic spec's `PerFlowBps` value (requires the `Uniform`
    /// matrix); every `subsample`-th point is replayed.
    DcLike {
        /// Number of monitored flow groups (extra groups only feed
        /// `TraceStats`).
        groups: usize,
        /// Keep every `subsample`-th 5-minute point (≥ 1).
        subsample: usize,
    },
    /// Compile the scenario's own traffic program into a trace: one
    /// matrix per program interval (the Fig. 4 sine, the Fig. 6
    /// utilization points).
    Program,
}

/// Replay only the intervals `[start, end)` of the driving trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowSpec {
    /// First interval replayed.
    pub start: usize,
    /// One past the last interval replayed.
    pub end: usize,
}

/// Per-interval subset recomputation scheme ([`ReplayMode::Recompute`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SubsetScheme {
    /// The LP-ensemble minimal subset (the paper's `optimal`).
    Optimal,
    /// Single-order greedy pruning, highest power first (fast; used on
    /// large fat-trees).
    GreedyPrunePowerDesc,
}

/// What a replay computes per interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ReplayMode {
    /// Steady-state placement over the installed tables (the default).
    #[default]
    Tables,
    /// Recompute the minimal subset each interval — recomputation rate,
    /// configuration dominance, and energy-critical-path coverage
    /// (Figs. 1b, 2a, 2b).
    Recompute {
        /// The subset optimizer.
        scheme: SubsetScheme,
    },
    /// Volume-series statistics only (Fig. 1a's deviation CCDF); no
    /// placement.
    TraceStats,
    /// Tables replay + drift detection; at the first replan advice,
    /// replan against the remaining trace's envelope and replay the
    /// tail with both table sets (the §6 future-work experiment).
    DriftReplan {
        /// Sliding-window length in intervals for the detector.
        window_intervals: usize,
    },
}

/// A per-interval comparison baseline computed alongside a `Tables`
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CompareSpec {
    /// ECMP over up to `fanout` equal-cost paths: the whole fabric stays
    /// on (one constant value).
    Ecmp {
        /// Maximum equal-cost paths per pair.
        fanout: usize,
    },
    /// ElasticTree's topology-aware optimizer recomputed every interval
    /// (fat-tree topologies only).
    ElasticTree,
    /// The minimal subset for each interval's matrix.
    OptimalPerInterval,
    /// The minimal subset for the offered matrix at program level
    /// `peak_level` (one constant value).
    OptimalAtPeak {
        /// Program level defining the peak matrix.
        peak_level: f64,
    },
}

impl CompareSpec {
    /// Stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CompareSpec::Ecmp { .. } => "ecmp",
            CompareSpec::ElasticTree => "elastictree",
            CompareSpec::OptimalPerInterval => "optimal",
            CompareSpec::OptimalAtPeak { .. } => "optimal_at_peak",
        }
    }
}

/// The trace-replay engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplaySpec {
    /// Which trace drives the replay.
    pub trace: TraceSpec,
    /// What is computed per interval.
    #[serde(default)]
    pub mode: ReplayMode,
    /// Optional interval window.
    #[serde(default)]
    pub window: Option<WindowSpec>,
    /// Compound daily demand growth applied to the trace (day `d`
    /// scaled by `growth^d`) — the replan-trigger experiment.
    #[serde(default)]
    pub growth_per_day: Option<f64>,
    /// Comparison baselines (Tables mode only).
    #[serde(default)]
    pub comparisons: Vec<CompareSpec>,
}

/// How the packet engine derives each flow's CBR rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PacketRateSpec {
    /// Every flow offers `bps`.
    PerFlowBps {
        /// The rate.
        bps: f64,
    },
    /// The flows jointly load the common origin's thinnest outgoing
    /// link to `frac` utilization (requires a shared origin).
    OriginUtilization {
        /// Target utilization of the bottleneck first hop.
        frac: f64,
    },
}

/// Which installed path(s) each packet flow is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PacketPlacement {
    /// One flow per OD pair on its always-on path (the consolidated
    /// REsPoNse steady state).
    AlwaysOn,
    /// One flow per distinct installed path of each pair, splitting the
    /// pair's rate evenly (traffic spread, no REsPoNse).
    SpreadAll,
}

/// Opportunistic-sleep analysis knobs (§2.1.1): a link direction can
/// only sleep in inter-packet gaps of at least `min_gap_s`, paying
/// `wake_s` to wake.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepSpec {
    /// Minimum usable gap, seconds.
    pub min_gap_s: f64,
    /// Wake-up penalty per used gap, seconds.
    pub wake_s: f64,
}

/// The event-per-packet engine configuration (queueing-level latency).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketSpec {
    /// Packet size in bytes.
    pub packet_bytes: f64,
    /// Output-queue capacity per arc, packets.
    pub queue_packets: usize,
    /// Per-flow rate derivation.
    pub rate: PacketRateSpec,
    /// Emission stops at this time; the engine then drains queues until
    /// `duration_s`.
    pub stop_s: f64,
    /// Flow `i` starts at `i × phase_offset_s` (avoids pathological
    /// source synchronization).
    pub phase_offset_s: f64,
    /// Path pinning.
    pub placement: PacketPlacement,
    /// Optional opportunistic-sleep gap analysis.
    #[serde(default)]
    pub sleep: Option<SleepSpec>,
}

impl Default for PacketSpec {
    fn default() -> Self {
        let d = ecp_simnet::PacketSimConfig::default();
        PacketSpec {
            packet_bytes: d.packet_bytes,
            queue_packets: d.queue_packets,
            rate: PacketRateSpec::PerFlowBps { bps: 1e6 },
            stop_s: 1.0,
            phase_offset_s: 1e-4,
            placement: PacketPlacement::AlwaysOn,
            sleep: None,
        }
    }
}

/// One join wave of streaming clients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveSpec {
    /// Clients joining in this wave.
    pub clients: usize,
    /// Join time, seconds.
    pub at_s: f64,
}

/// An application workload driven over the fluid simulator (§5.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AppSpec {
    /// BulletMedia-like live streaming from the pairs' common origin;
    /// clients are placed on seed-chosen destination nodes per wave.
    Streaming {
        /// Stream bitrate, bits/s (paper: 600 kbps).
        bitrate: f64,
        /// Media block length, seconds of content.
        block_duration_s: f64,
        /// Startup buffering before playback, seconds.
        startup_delay_s: f64,
        /// Client integration step, seconds.
        dt_s: f64,
        /// A client "can play" if at least this fraction of blocks met
        /// their deadlines.
        playable_threshold: f64,
        /// Join waves, in order.
        waves: Vec<WaveSpec>,
        /// Repeated runs with per-run seeds `seed + r` (box statistics).
        runs: usize,
    },
    /// Apache/httperf-like closed-loop web workload: the pairs' common
    /// origin serves, every destination runs a client loop.
    Web {
        /// Distinct static files (paper: 100).
        num_files: usize,
        /// Sequential requests per client.
        requests_per_client: usize,
        /// Think time between response and next request, seconds.
        think_time_s: f64,
        /// Client access-link cap, bits/s.
        access_rate_bps: f64,
        /// Integration step, seconds.
        dt_s: f64,
    },
}

impl AppSpec {
    /// The paper's Fig.-9 streaming configuration: two waves of `clients`
    /// at `t = 0` and `t = second_wave_at_s`.
    pub fn streaming_default(clients: usize, second_wave_at_s: f64, runs: usize) -> Self {
        let d = ecp_apps::StreamingConfig::default();
        AppSpec::Streaming {
            bitrate: d.bitrate,
            block_duration_s: d.block_duration,
            startup_delay_s: d.startup_delay,
            dt_s: d.dt,
            playable_threshold: d.playable_threshold,
            waves: vec![
                WaveSpec { clients, at_s: 0.0 },
                WaveSpec {
                    clients,
                    at_s: second_wave_at_s,
                },
            ],
            runs,
        }
    }

    /// The paper's §5.4 web configuration with `requests` per client.
    pub fn web_default(requests: usize) -> Self {
        let d = ecp_apps::WebConfig::default();
        AppSpec::Web {
            num_files: d.num_files,
            requests_per_client: requests,
            think_time_s: d.think_time,
            access_rate_bps: d.access_rate,
            dt_s: d.dt,
        }
    }
}

/// Execution engine choice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// Event-driven fluid simulation (`ecp-simnet`): full dynamics —
    /// wake-ups, failures, TE rounds, per-path rates.
    Simnet,
    /// Steady-state trace replay (`respons_core::replay`): per-interval
    /// placement / recomputation over a [`TraceSpec`], no transient
    /// dynamics. Constraints (violations are errors, not silently
    /// ignored): no scripted `events`, no per-flow programs, and for
    /// non-`Program` traces a single `Constant` traffic segment with the
    /// `Gravity` matrix.
    Replay(ReplaySpec),
    /// Event-per-packet simulation (`ecp_simnet::packet`): CBR flows on
    /// installed paths, per-packet latency/loss, queueing decomposition,
    /// inter-packet-gap sleep analysis.
    Packet(PacketSpec),
    /// Application workload (`ecp_apps`) over the fluid simulator.
    App(AppSpec),
}

impl EngineSpec {
    /// The classic always-on-scaled GÉANT replay (compatibility
    /// shorthand for the pre-existing `Replay { peak_over_always_on }`
    /// behavior).
    pub fn replay_over_always_on(factor: f64) -> Self {
        EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::GeantLike {
                peak: PeakSpec::OverAlwaysOn {
                    factor,
                    cap_over_full: None,
                    use_sim_te: false,
                },
            },
            mode: ReplayMode::Tables,
            window: None,
            growth_per_day: None,
            comparisons: Vec::new(),
        })
    }
}

/// Simulator knobs mapped onto `ecp_simnet::SimConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSpec {
    /// TE target utilization threshold.
    pub te_threshold: f64,
    /// TE gain per control round.
    pub te_step: f64,
    /// TE minimum share before zeroing.
    pub te_min_share: f64,
    /// Control interval `T` in seconds.
    pub control_interval_s: f64,
    /// Link wake-up time in seconds.
    pub wake_time_s: f64,
    /// Failure detection + propagation delay in seconds.
    pub detect_delay_s: f64,
    /// Idle drain time before a link sleeps, in seconds.
    pub sleep_after_s: f64,
    /// Sampling interval of the run's series in seconds.
    pub sample_interval_s: f64,
    /// TE does nothing before this time (seconds).
    pub te_start_s: f64,
}

impl Default for SimSpec {
    fn default() -> Self {
        let d = ecp_simnet::SimConfig::default();
        SimSpec {
            te_threshold: d.te.threshold,
            te_step: d.te.step,
            te_min_share: d.te.min_share,
            control_interval_s: d.control_interval,
            wake_time_s: d.wake_time,
            detect_delay_s: d.detect_delay,
            sleep_after_s: d.sleep_after,
            sample_interval_s: d.sample_interval,
            te_start_s: d.te_start,
        }
    }
}

impl SimSpec {
    /// Convert to the simulator configuration.
    pub fn to_config(&self) -> ecp_simnet::SimConfig {
        ecp_simnet::SimConfig {
            te: respons_core::TeConfig {
                threshold: self.te_threshold,
                step: self.te_step,
                min_share: self.te_min_share,
            },
            control_interval: self.control_interval_s,
            wake_time: self.wake_time_s,
            detect_delay: self.detect_delay_s,
            sleep_after: self.sleep_after_s,
            sample_interval: self.sample_interval_s,
            te_start: self.te_start_s,
        }
    }
}

/// The online TE control-loop policy (`ecp-control`) as data: which
/// damping mechanism the simnet engine's REsPoNseTE agents run with.
/// `Undamped` is the paper's behavior and the baseline of every damping
/// A/B campaign (`examples/campaign_te_damping.toml`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ControlSpec {
    /// The original hard-wired decision
    /// ([`respons_core::te::decide_shares_into`]), bit-identical.
    #[default]
    Undamped,
    /// EWMA-smoothed headroom estimation.
    Ewma {
        /// Smoothing gain in `(0, 1]`; `1.0` disables smoothing.
        alpha: f64,
    },
    /// Load-dependent smoothing: the gain interpolates from
    /// `alpha_max` (light load) down to `alpha_min` as the agent's
    /// overload pressure rises.
    AdaptiveEwma {
        /// Heaviest gain in `(0, 1]`, at full overload pressure.
        alpha_min: f64,
        /// Lightest gain in `(0, 1]` (≥ `alpha_min`), with no
        /// pressure; `1.0` keeps light-load behavior exactly undamped.
        alpha_max: f64,
    },
    /// Separate spill / re-aggregate thresholds plus a dead-band.
    Hysteresis {
        /// Re-aggregation headroom margin in `[0, 1)`.
        gap: f64,
        /// Minimum L1 target move; smaller moves are held.
        #[serde(default)]
        dead_band: f64,
    },
    /// Load-proportional gain scaling with a per-flow cooldown.
    DampedStep {
        /// Gain damping in `[0, 1)` at full spill.
        damp: f64,
        /// Hold rounds after each reconfiguration.
        #[serde(default)]
        cooldown_rounds: u32,
    },
    /// Seeded per-agent observation phase jitter.
    Desync {
        /// Phase salt (mixed with the agent index).
        salt: u64,
    },
}

impl ControlSpec {
    /// Stable policy name for reports and labels.
    pub fn label(&self) -> &'static str {
        match self {
            ControlSpec::Undamped => "undamped",
            ControlSpec::Ewma { .. } => "ewma",
            ControlSpec::AdaptiveEwma { .. } => "adaptive-ewma",
            ControlSpec::Hysteresis { .. } => "hysteresis",
            ControlSpec::DampedStep { .. } => "damped-step",
            ControlSpec::Desync { .. } => "desync",
        }
    }

    /// Check parameter ranges; the message becomes a
    /// [`crate::ScenarioError::Invalid`] so campaigns record malformed
    /// specs as failed entries instead of panicking a shard.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ControlSpec::Undamped | ControlSpec::Desync { .. } => Ok(()),
            ControlSpec::Ewma { alpha } => {
                if alpha > 0.0 && alpha <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("control Ewma alpha must be in (0, 1], got {alpha}"))
                }
            }
            ControlSpec::AdaptiveEwma {
                alpha_min,
                alpha_max,
            } => {
                if !(alpha_min > 0.0 && alpha_min <= 1.0) {
                    Err(format!(
                        "control AdaptiveEwma alpha_min must be in (0, 1], got {alpha_min}"
                    ))
                } else if !(alpha_max > 0.0 && alpha_max <= 1.0) {
                    Err(format!(
                        "control AdaptiveEwma alpha_max must be in (0, 1], got {alpha_max}"
                    ))
                } else if alpha_min > alpha_max {
                    Err(format!(
                        "control AdaptiveEwma alpha_min ({alpha_min}) must not exceed \
                         alpha_max ({alpha_max})"
                    ))
                } else {
                    Ok(())
                }
            }
            ControlSpec::Hysteresis { gap, dead_band } => {
                if !(0.0..1.0).contains(&gap) {
                    Err(format!(
                        "control Hysteresis gap must be in [0, 1), got {gap}"
                    ))
                } else if dead_band >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "control Hysteresis dead_band must be non-negative, got {dead_band}"
                    ))
                }
            }
            ControlSpec::DampedStep { damp, .. } => {
                if (0.0..1.0).contains(&damp) {
                    Ok(())
                } else {
                    Err(format!(
                        "control DampedStep damp must be in [0, 1), got {damp}"
                    ))
                }
            }
        }
    }

    /// Instantiate the policy (validated parameters assumed).
    pub fn build(&self) -> Box<dyn ecp_control::ControlPolicy> {
        use ecp_control::{AdaptiveEwma, DampedStep, Desync, Ewma, Hysteresis, Undamped};
        match *self {
            ControlSpec::Undamped => Box::new(Undamped),
            ControlSpec::Ewma { alpha } => Box::new(Ewma::new(alpha)),
            ControlSpec::AdaptiveEwma {
                alpha_min,
                alpha_max,
            } => Box::new(AdaptiveEwma::new(alpha_min, alpha_max)),
            ControlSpec::Hysteresis { gap, dead_band } => Box::new(Hysteresis::new(gap, dead_band)),
            ControlSpec::DampedStep {
                damp,
                cooldown_rounds,
            } => Box::new(DampedStep::new(damp, cooldown_rounds)),
            ControlSpec::Desync { salt } => Box::new(Desync::new(salt)),
        }
    }
}

/// Reference to a physical link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkRef {
    /// By endpoint node names (exact match, either direction).
    ByName {
        /// One endpoint.
        from: String,
        /// The other endpoint.
        to: String,
    },
    /// By canonical link index (position in `Topology::link_ids`).
    ByIndex {
        /// Canonical link position.
        index: usize,
    },
}

/// Reference to a node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeRef {
    /// By node name (exact match).
    ByName {
        /// The name.
        name: String,
    },
    /// By node id.
    ByIndex {
        /// The id.
        index: u32,
    },
}

/// A timed scripted perturbation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventSpec {
    /// Fail one link.
    LinkFail {
        /// When (seconds).
        at: f64,
        /// Which link.
        link: LinkRef,
    },
    /// Repair one link.
    LinkRepair {
        /// When (seconds).
        at: f64,
        /// Which link.
        link: LinkRef,
    },
    /// Fail every link adjacent to a node.
    NodeFail {
        /// When (seconds).
        at: f64,
        /// Which node.
        node: NodeRef,
    },
    /// Repair every link adjacent to a node.
    NodeRepair {
        /// When (seconds).
        at: f64,
        /// Which node.
        node: NodeRef,
    },
    /// Change the link wake-up time mid-run.
    SetWakeTime {
        /// When (seconds).
        at: f64,
        /// New wake time (seconds).
        wake_time_s: f64,
    },
    /// Retune the online TE threshold mid-run.
    SetThreshold {
        /// When (seconds).
        at: f64,
        /// New utilization threshold.
        threshold: f64,
    },
    /// A cascade of correlated link failures: `count` links picked by
    /// breadth-first proximity to a seed-chosen epicenter node, failing
    /// one after another every `spacing_s`, each repaired
    /// `repair_after_s` after it failed.
    FailureBurst {
        /// Cascade start (seconds).
        start: f64,
        /// Number of links to fail.
        count: usize,
        /// Seconds between consecutive failures.
        spacing_s: f64,
        /// Per-link time-to-repair (seconds); `0` disables repair.
        repair_after_s: f64,
        /// Salt mixed into the scenario seed for epicenter choice.
        seed_salt: u64,
    },
    /// A maintenance window: the node's links all fail at `start` and
    /// are repaired `duration_s` later. Chain several to model rolling
    /// maintenance.
    MaintenanceWindow {
        /// Window start (seconds).
        start: f64,
        /// Window length (seconds).
        duration_s: f64,
        /// Which node is serviced.
        node: NodeRef,
    },
}

/// Which outputs the scenario report retains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsSpec {
    /// Keep the `(t, power_frac)` series.
    pub power_series: bool,
    /// Keep the `(t, offered, delivered)` series.
    pub delivered_series: bool,
    /// Keep full per-flow per-path rate samples.
    pub per_path_rates: bool,
    /// Analyze the installed tables (idle power, delay stretch vs OSPF,
    /// distinct on-demand paths) into
    /// [`ScenarioReport::table_stats`](crate::ScenarioReport).
    #[serde(default)]
    pub table_stats: bool,
    /// Probe the tables' supported volume (always-on prefix vs all
    /// tables) into [`ScenarioReport::capacity`](crate::ScenarioReport).
    #[serde(default)]
    pub table_capacity: bool,
    /// Sweep single-link failures over the installed tables into
    /// [`ScenarioReport::failover`](crate::ScenarioReport).
    #[serde(default)]
    pub failover_coverage: bool,
    /// Run the `ecp-control` stability analyzer over the recorded
    /// series into [`ScenarioReport::stability`](crate::ScenarioReport)
    /// (simnet engine only): oscillation cycles, delivery-shortfall
    /// fraction, settling time, reconfiguration churn.
    #[serde(default)]
    pub stability: bool,
    /// Attach an `ecp-telemetry` snapshot (event/decision counters,
    /// waterfill and idle-drain histograms, settle time, peak overload)
    /// to [`ScenarioReport::telemetry`](crate::ScenarioReport). Simnet
    /// engine only; requires a recording sink (`run_resolved_traced`,
    /// or `run_resolved_with_sink` with a `JsonlSink` or `SpanSink`).
    #[serde(default)]
    pub telemetry: bool,
    /// Capture the campaign-observatory timeseries (delivered fraction,
    /// power fraction, max arc utilization, overloaded-arc count,
    /// cumulative reconfig count) into
    /// [`TraceOutput::timeseries`](crate::TraceOutput). Simnet engine
    /// only; surfaces wherever a [`TraceOutput`](crate::TraceOutput) is
    /// returned (`run_resolved_traced`, `run_resolved_with_sink`), which
    /// is how campaigns always run. The points are every k-th row of
    /// the run's sampled series, so the report does not depend on them.
    #[serde(default)]
    pub timeseries: bool,
    /// Sampling interval for `timeseries` in seconds: a whole multiple
    /// k ≥ 1 of `sim.sample_interval_s`, each point being every k-th
    /// series row. Defaults to the sample interval (every row).
    #[serde(default)]
    pub timeseries_interval_s: Option<f64>,
}

impl Default for MetricsSpec {
    fn default() -> Self {
        MetricsSpec {
            power_series: true,
            delivered_series: true,
            per_path_rates: false,
            table_stats: false,
            table_capacity: false,
            failover_coverage: false,
            stability: false,
            telemetry: false,
            timeseries: false,
            timeseries_interval_s: None,
        }
    }
}

impl MetricsSpec {
    /// Every how many series rows an observatory point is taken:
    /// `timeseries_interval_s / sample_interval_s` (1 when unset), which
    /// must be a whole number ≥ 1 — the points are rows of the one
    /// sampled series, so they cannot fall between two samples.
    pub fn timeseries_every(&self, sample_interval_s: f64) -> Result<usize, String> {
        let dt = self.timeseries_interval_s.unwrap_or(sample_interval_s);
        let k = (dt / sample_interval_s).round();
        if dt.is_finite() && k >= 1.0 && (k * sample_interval_s - dt).abs() <= 1e-9 * dt {
            return Ok(k as usize);
        }
        Err(format!(
            "metrics timeseries_interval_s must be a whole multiple (>= 1) of \
             sample_interval_s = {sample_interval_s}, got {dt}"
        ))
    }
}

/// `Ok` when `v` is finite and `in_range(v)`, else an error naming
/// `name` and the `range` it must lie in.
fn finite_in(
    name: &str,
    v: f64,
    range: &str,
    in_range: impl Fn(f64) -> bool,
) -> Result<(), String> {
    if v.is_finite() && in_range(v) {
        Ok(())
    } else {
        Err(format!("{name} must be finite and {range}, got {v}"))
    }
}

/// `Ok` when `v` is finite and ≥ 0, else an error naming `name`.
fn non_negative(name: &str, v: f64) -> Result<(), String> {
    finite_in(name, v, ">= 0", |v| v >= 0.0)
}

impl Scenario {
    /// Reject timing and TE parameters the simulator cannot run. The
    /// control and sample periods must be finite and > 0: their events
    /// re-schedule themselves one period later, so a zero period never
    /// advances time. The observatory interval must be a whole multiple
    /// of the sample interval. The [`SimSpec`] delays, the TE start,
    /// `duration_s`, and every event time, spacing, repair delay, window
    /// length and wake time must be finite and ≥ 0: an infinite horizon
    /// never ends, and a NaN time would fire at an arbitrary point. The
    /// TE threshold (also every `SetThreshold` event's) must be finite
    /// and > 0, the TE step finite and in (0, 1], and the TE minimum
    /// share finite and in [0, 1); outside these ranges the run would
    /// return a silently wrong report (with a NaN threshold or step,
    /// or a zero step, TE never acts).
    pub fn validate_sim_timing(&self) -> Result<(), String> {
        let sim = &self.sim;
        let periods = [
            ("control_interval_s", sim.control_interval_s),
            ("sample_interval_s", sim.sample_interval_s),
        ];
        for (name, v) in periods {
            finite_in(&format!("sim {name}"), v, "> 0", |v| v > 0.0)?;
        }
        finite_in("sim te_threshold", sim.te_threshold, "> 0", |v| v > 0.0)?;
        finite_in("sim te_step", sim.te_step, "in (0, 1]", |v| {
            v > 0.0 && v <= 1.0
        })?;
        finite_in("sim te_min_share", sim.te_min_share, "in [0, 1)", |v| {
            (0.0..1.0).contains(&v)
        })?;
        self.metrics.timeseries_every(sim.sample_interval_s)?;
        non_negative("sim wake_time_s", sim.wake_time_s)?;
        non_negative("sim detect_delay_s", sim.detect_delay_s)?;
        non_negative("sim sleep_after_s", sim.sleep_after_s)?;
        non_negative("sim te_start_s", sim.te_start_s)?;
        non_negative("duration_s", self.duration_s)?;
        for (i, ev) in self.events.iter().enumerate() {
            let times = match *ev {
                EventSpec::LinkFail { at, .. }
                | EventSpec::LinkRepair { at, .. }
                | EventSpec::NodeFail { at, .. }
                | EventSpec::NodeRepair { at, .. }
                | EventSpec::SetThreshold { at, .. } => vec![("at", at)],
                EventSpec::SetWakeTime { at, wake_time_s } => {
                    vec![("at", at), ("wake_time_s", wake_time_s)]
                }
                EventSpec::FailureBurst {
                    start,
                    spacing_s,
                    repair_after_s,
                    ..
                } => vec![
                    ("start", start),
                    ("spacing_s", spacing_s),
                    ("repair_after_s", repair_after_s),
                ],
                EventSpec::MaintenanceWindow {
                    start, duration_s, ..
                } => vec![("start", start), ("duration_s", duration_s)],
            };
            for (field, v) in times {
                non_negative(&format!("events[{i}].{field}"), v)?;
            }
            if let EventSpec::SetThreshold { threshold, .. } = *ev {
                finite_in(&format!("events[{i}].threshold"), threshold, "> 0", |v| {
                    v > 0.0
                })?;
            }
        }
        Ok(())
    }

    /// Reject offered load no engine can turn into demands. The traffic
    /// scale (`fraction` or `bps`), every segment's `duration_s` and
    /// every level a shape carries must be finite and ≥ 0, in the
    /// global program and in each per-flow program: a negative or NaN
    /// volume panics in the gravity split, and an infinite one yields
    /// NaN delivered fractions.
    pub fn validate_traffic(&self) -> Result<(), String> {
        let (field, v) = match self.traffic.scale {
            ScaleSpec::MaxFeasibleFraction { fraction } => ("fraction", fraction),
            ScaleSpec::TotalBps { bps } | ScaleSpec::PerFlowBps { bps } => ("bps", bps),
        };
        non_negative(&format!("traffic.scale.{field}"), v)?;
        let per_flow = self.traffic.per_flow.iter().enumerate();
        let programs = std::iter::once(("traffic.program".to_string(), &self.traffic.program))
            .chain(per_flow.map(|(i, fp)| (format!("traffic.per_flow[{i}].program"), &fp.program)));
        for (prefix, program) in programs {
            for (i, seg) in program.segments.iter().enumerate() {
                let at = |field: &str| format!("{prefix}.segments[{i}].{field}");
                non_negative(&at("duration_s"), seg.duration_s)?;
                let levels: Vec<(String, f64)> = match &seg.shape {
                    Shape::Constant { level } => vec![("level".into(), *level)],
                    Shape::Steps { levels, .. } => levels
                        .iter()
                        .enumerate()
                        .map(|(j, &l)| (format!("levels[{j}]"), l))
                        .collect(),
                    Shape::Sine { lo, hi, .. } => vec![("lo".into(), *lo), ("hi".into(), *hi)],
                    Shape::Diurnal { peak, night } => {
                        vec![("peak".into(), *peak), ("night".into(), *night)]
                    }
                    Shape::Ramp { from, to } => vec![("from".into(), *from), ("to".into(), *to)],
                    Shape::FlashCrowd { base, peak, .. } => {
                        vec![("base".into(), *base), ("peak".into(), *peak)]
                    }
                };
                for (field, v) in levels {
                    non_negative(&at(&field), v)?;
                }
            }
        }
        Ok(())
    }

    /// Reject a path count the planner cannot build: `planner.num_paths`
    /// must lie in `2..=MAX_NUM_PATHS` (always-on and failover take two
    /// paths; see [`MAX_NUM_PATHS`] for the upper bound).
    pub fn validate_planner(&self) -> Result<(), String> {
        let n = self.planner.num_paths;
        if (2..=MAX_NUM_PATHS).contains(&n) {
            Ok(())
        } else {
            Err(format!(
                "planner.num_paths must be in [2, {MAX_NUM_PATHS}], got {n}"
            ))
        }
    }

    /// Parse a scenario from a TOML document.
    pub fn from_toml(doc: &str) -> Result<Self, crate::ScenarioError> {
        toml::from_str(doc).map_err(|e| crate::ScenarioError::Parse(e.to_string()))
    }

    /// Render the scenario as a TOML document.
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("scenario serializes")
    }
}

/// Fluent constructor for [`Scenario`] with sensible defaults: GÉANT
/// topology, 40 random gravity pairs at 60 % of max feasible volume,
/// planned tables, simnet engine, no events.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Start from defaults with a name.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                seed: 1,
                duration_s: 10.0,
                topology: TopoSpec::Geant,
                power: PowerSpec::Cisco12000,
                pairs: PairsSpec::Random { count: 40 },
                traffic: TrafficSpec {
                    matrix: MatrixSpec::Gravity,
                    scale: ScaleSpec::MaxFeasibleFraction { fraction: 0.6 },
                    program: Program::from_shape(
                        10.0,
                        1.0,
                        ecp_traffic::Shape::Constant { level: 1.0 },
                    ),
                    per_flow: Vec::new(),
                },
                tables: TablesSpec::Planned,
                planner: PlannerSpec::default(),
                engine: EngineSpec::Simnet,
                sim: SimSpec::default(),
                control: ControlSpec::default(),
                events: Vec::new(),
                initial_shares: None,
                metrics: MetricsSpec::default(),
            },
        }
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Set the duration (seconds).
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.scenario.duration_s = duration_s;
        self
    }

    /// Set the topology spec.
    pub fn topology(mut self, spec: TopoSpec) -> Self {
        self.scenario.topology = spec;
        self
    }

    /// Set the power model.
    pub fn power(mut self, spec: PowerSpec) -> Self {
        self.scenario.power = spec;
        self
    }

    /// Set the OD-pair spec.
    pub fn pairs(mut self, spec: PairsSpec) -> Self {
        self.scenario.pairs = spec;
        self
    }

    /// Set the traffic spec.
    pub fn traffic(mut self, matrix: MatrixSpec, scale: ScaleSpec, program: Program) -> Self {
        self.scenario.traffic = TrafficSpec {
            matrix,
            scale,
            program,
            per_flow: Vec::new(),
        };
        self
    }

    /// Add a per-flow program override (simnet engine only).
    pub fn flow_program(mut self, flow: usize, program: Program) -> Self {
        self.scenario
            .traffic
            .per_flow
            .push(FlowProgram { flow, program });
        self
    }

    /// Set the tables source.
    pub fn tables(mut self, spec: TablesSpec) -> Self {
        self.scenario.tables = spec;
        self
    }

    /// Set the planner spec.
    pub fn planner(mut self, spec: PlannerSpec) -> Self {
        self.scenario.planner = spec;
        self
    }

    /// Set the engine.
    pub fn engine(mut self, spec: EngineSpec) -> Self {
        self.scenario.engine = spec;
        self
    }

    /// Set the simulator knobs.
    pub fn sim(mut self, spec: SimSpec) -> Self {
        self.scenario.sim = spec;
        self
    }

    /// Set the online TE control policy.
    pub fn control(mut self, spec: ControlSpec) -> Self {
        self.scenario.control = spec;
        self
    }

    /// Append one scripted event.
    pub fn event(mut self, event: EventSpec) -> Self {
        self.scenario.events.push(event);
        self
    }

    /// Append several scripted events.
    pub fn events(mut self, events: impl IntoIterator<Item = EventSpec>) -> Self {
        self.scenario.events.extend(events);
        self
    }

    /// Set the pre-TE share spread.
    pub fn initial_shares(mut self, shares: Vec<f64>) -> Self {
        self.scenario.initial_shares = Some(shares);
        self
    }

    /// Set the metrics selection.
    pub fn metrics(mut self, spec: MetricsSpec) -> Self {
        self.scenario.metrics = spec;
        self
    }

    /// Finish.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}
