//! The simulation core.

use crate::recorder::{Series, TimeseriesPoint};
use ecp_control::{ControlPolicy, Observation, Sample, Undamped};
use ecp_power::PowerModel;
use ecp_telemetry::{
    Counter, Element, Hist, NoopSink, PowerKind, SpanName, TelemetryEvent, TelemetrySink,
};
use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology};
use respons_core::te::{waterfill_iterations, PathView, TeConfig};
use respons_core::PathTables;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a flow (OD traffic aggregate) in a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowId(pub usize);

/// Power state of a physical link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkPowerState {
    /// Powered and forwarding.
    Active,
    /// Low-power state (negligible draw).
    Sleeping,
    /// Transitioning to active; done at the contained time.
    Waking(f64),
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimConfig {
    /// REsPoNseTE parameters.
    pub te: TeConfig,
    /// Control interval `T` — the paper sets it to the maximum RTT in
    /// the network (§4.4).
    pub control_interval: f64,
    /// Link wake-up time (Click exp.: 10 ms; ns-2 exps.: 5 s).
    pub wake_time: f64,
    /// Failure detection + propagation delay (Click exp.: 100 ms).
    pub detect_delay: f64,
    /// Idle drain time before a link sleeps.
    pub sleep_after: f64,
    /// Sampling interval of the run's [`Series`].
    pub sample_interval: f64,
    /// REsPoNseTE does nothing before this time (the Fig. 7 experiment
    /// starts the TE component at t = 5 s).
    pub te_start: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            te: TeConfig::default(),
            control_interval: 0.1,
            wake_time: 0.01,
            detect_delay: 0.1,
            sleep_after: 0.2,
            sample_interval: 0.05,
            te_start: 0.0,
        }
    }
}

/// An externally injectable simulation event — the hook the scenario
/// engine (`ecp-scenario`) scripts against. Everything an experiment can
/// do to a running network is expressible as a timed `SimEvent`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// Change a flow's offered rate.
    DemandChange {
        /// Target flow.
        flow: FlowId,
        /// New offered rate (bits/s).
        rate: f64,
    },
    /// Fail a physical link (both directions).
    LinkFail {
        /// Either arc of the link.
        arc: ArcId,
    },
    /// Repair a physical link.
    LinkRepair {
        /// Either arc of the link.
        arc: ArcId,
    },
    /// Fail every link adjacent to a node (router outage / maintenance).
    NodeFail {
        /// The node going down.
        node: NodeId,
    },
    /// Repair every link adjacent to a node.
    NodeRepair {
        /// The node coming back.
        node: NodeId,
    },
    /// Change the link wake-up time (e.g. modelling a hardware swap or a
    /// deeper sleep state) from this moment on.
    SetWakeTime {
        /// New wake-up delay in seconds.
        wake_time: f64,
    },
    /// Reconfigure the online TE element (threshold/step/min-share) from
    /// this moment on.
    SetTeConfig {
        /// New TE parameters.
        te: TeConfig,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Control,
    /// One phase-jittered agent's decision within a control round
    /// (scheduled by desynchronizing policies; observes fresh loads).
    AgentControl(usize),
    Sample,
    DemandChange(FlowId, f64),
    LinkFail(ArcId),
    LinkRepair(ArcId),
    NodeFail(NodeId),
    NodeRepair(NodeId),
    FailureKnown(ArcId),
    RepairKnown(ArcId),
    NodeFailureKnown(NodeId),
    NodeRepairKnown(NodeId),
    WakeDone(ArcId),
    SleepCheck(ArcId),
    SetWakeTime(f64),
    SetTeConfig(TeConfig),
}

struct QItem {
    t: f64,
    seq: u64,
    ev: Event,
}

impl PartialEq for QItem {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for QItem {}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap by (t, seq); `total_cmp` keeps the order total
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct Flow {
    origin: NodeId,
    dst: NodeId,
    offered: f64,
    /// Installed paths in priority order (always-on, on-demand…,
    /// failover).
    paths: Vec<Path>,
    /// All paths' arcs in one flat pool (resolved once), addressed by
    /// `arc_spans` — one contiguous allocation per flow instead of a
    /// vec-of-vecs, so per-round headroom scans walk a single cache
    /// line sequence.
    arc_pool: Vec<ArcId>,
    /// Per path: `(offset, len)` into `arc_pool`.
    arc_spans: Vec<(u32, u32)>,
    /// The capacity of every `arc_pool` arc, at the same offsets — the
    /// headroom views read capacities from here, not from the topology.
    cap_pool: Vec<f64>,
    /// Global path id of path 0: path `pi` of this flow is entry
    /// `first_gp + pi` of [`Simulation::contrib`].
    first_gp: u32,
    /// Current share vector.
    shares: Vec<f64>,
    /// Cached per-path rate, always exactly `offered * shares[pi]`
    /// (a ready path's load contribution, see [`Simulation::contrib`]).
    rate: Vec<f64>,
    /// Per path: how many of its arc occurrences traverse a link that
    /// is currently not ready (down or not Active). `0` ⇔ the path is
    /// ready — the incremental mirror of [`Simulation::path_ready`].
    blocked: Vec<u32>,
    /// Per path: how many of its arc occurrences traverse a link the
    /// agents know to be down. `0` ⇔ the path is available in the
    /// agent's view — the incremental mirror of scanning the path with
    /// [`Simulation::link_down_known`].
    known_down: Vec<u32>,
    /// All paths' distinct canonical link indices (either direction) in
    /// one flat pool addressed by `link_spans`, for the per-link
    /// assigned-traffic counts.
    link_pool: Vec<usize>,
    /// Per path: `(offset, len)` into `link_pool`.
    link_spans: Vec<(u32, u32)>,
    /// Whether anything this agent observes (loads along its paths,
    /// known failures, its offered rate or shares, the TE config) has
    /// changed since its last decision. While false, a memoryless
    /// policy's decision would reproduce the shares already in place,
    /// so the simulator skips it entirely.
    obs_dirty: bool,
}

impl Flow {
    /// The arcs of one installed path.
    fn path_arcs(&self, pi: usize) -> &[ArcId] {
        let (off, len) = self.arc_spans[pi];
        &self.arc_pool[off as usize..(off + len) as usize]
    }

    /// The distinct canonical links one installed path touches.
    fn path_links(&self, pi: usize) -> &[usize] {
        let (off, len) = self.link_spans[pi];
        &self.link_pool[off as usize..(off + len) as usize]
    }
}

/// A path's entry in [`Simulation::contrib`]: its rate when that is
/// positive and no link on it is blocked, else `+0.0`.
fn contribution(rate: f64, blocked: u32) -> f64 {
    if rate > 0.0 && blocked == 0 {
        rate
    } else {
        0.0
    }
}

/// Reusable per-[`Simulation`] buffers for the observe→decide→apply
/// hot path. Every buffer is cleared before use and retains its
/// capacity across events, so once warm the entire decision path —
/// views, decisions, batched share application, power transitions,
/// readiness bookkeeping — allocates nothing (pinned at 0 allocations
/// over live demand cycles for every policy arm by
/// `crates/bench/tests/decision_allocs.rs`).
///
/// Buffers are `mem::take`n out for the duration of a use (leaving an
/// empty `Vec` behind, which costs nothing) and restored afterwards,
/// so an unexpected re-entrant use degrades to a transient allocation
/// instead of corruption.
#[derive(Default)]
struct DecisionScratch {
    /// One agent's path views for the decision being made.
    views: Vec<PathView>,
    /// One agent's decided share vector.
    shares: Vec<f64>,
    /// Batched round: `(flow, offset, len)` into `pending_shares` for
    /// every phase-0 decision of the round.
    pending: Vec<(u32, u32, u32)>,
    /// Batched round: all decided share vectors, flat.
    pending_shares: Vec<f64>,
    /// Batched round: the phase-jittered agents deferred to their own
    /// [`Event::AgentControl`] instants.
    phased: Vec<(usize, f64)>,
    /// Links a share change needs woken.
    to_wake: Vec<ArcId>,
    /// Links a share change vacated (sleep-check candidates).
    to_sleepcheck: Vec<ArcId>,
    /// Readiness flips: `(flow, path)` pairs whose contribution
    /// appeared or vanished.
    to_mark: Vec<(usize, usize)>,
}

/// The event-driven network simulation.
///
/// Generic over a [`TelemetrySink`]; the default [`NoopSink`] compiles
/// every instrumentation site away, so an uninstrumented simulation is
/// bit- and cost-identical to the pre-telemetry engine. Construct a
/// traced simulation with [`Simulation::with_telemetry`].
pub struct Simulation<'a, S: TelemetrySink = NoopSink> {
    topo: &'a Topology,
    power: &'a PowerModel,
    cfg: SimConfig,
    now: f64,
    seq: u64,
    queue: BinaryHeap<QItem>,
    flows: Vec<Flow>,
    /// Indexed by canonical link id.
    link_state: Vec<LinkPowerState>,
    link_failed: Vec<bool>,
    /// Nodes currently failed (maintenance/outage). A link is down if it
    /// is failed itself OR either endpoint node is failed — the causes
    /// are tracked separately so overlapping failure scripts compose.
    node_failed: Vec<bool>,
    /// What the agents currently believe about failures (updated after
    /// the detection delay).
    link_failed_known: Vec<bool>,
    node_failed_known: Vec<bool>,
    /// Per canonical link: [`Simulation::link_down_known`], refreshed on
    /// the four `*Known` events — the per-link mirror behind the
    /// per-path `known_down` counts.
    link_known_down: Vec<bool>,
    full_power_w: f64,
    /// [`Simulation::power_w`] as last read by a sampler; cleared at
    /// every write to its inputs (link power state, failure flags, flow
    /// endpoints), so power is recomputed only after a power-state
    /// change.
    power_cache: Option<f64>,
    /// The sampled series: one row per [`Event::Sample`].
    series: Series,
    /// Links that must never sleep (the always-on set).
    always_on_links: Vec<bool>,
    /// The online TE control policy driving every agent's share
    /// decisions (default: [`ecp_control::Undamped`], the original
    /// hard-wired `decide_shares_into` behavior).
    policy: Box<dyn ControlPolicy>,
    /// Cached [`ControlPolicy::memoryless`] of `policy`: decision
    /// skipping for observation-clean agents is only sound for pure
    /// policies.
    policy_memoryless: bool,
    /// Incremental per-arc delivered load, flushed after every event
    /// and bit-identical to [`Simulation::arc_loads_scratch`] at every
    /// public API boundary.
    loads: Vec<f64>,
    /// Arcs whose load must be recomputed at the next flush.
    arc_dirty: Vec<bool>,
    dirty_arcs: Vec<usize>,
    /// Reverse index: arc → the `(flow, global path id)` occurrences
    /// traversing it, in (flow, path, occurrence) order — the same order
    /// the from-scratch scan adds contributions in, so a per-arc
    /// recompute is bit-identical to it.
    users: Vec<Vec<(u32, u32)>>,
    /// Per global path id (see [`Flow::first_gp`]): what the path adds
    /// to the load of each arc it traverses — its cached rate when that
    /// is positive and the path is ready, else `+0.0`. Written wherever
    /// a rate or a readiness changes, so a load flush sums it without a
    /// branch; adding `+0.0` to a sum that starts at `+0.0` never
    /// changes its bits, so the sum equals the from-scratch scan's.
    contrib: Vec<f64>,
    /// Per canonical link: ready to carry traffic (not down, Active).
    link_ready: Vec<bool>,
    /// Per canonical link: number of `(flow, path)` pairs with positive
    /// rate touching it in either direction — the O(1) sleep-check.
    assigned: Vec<u32>,
    /// Telemetry sink (statically dispatched; [`NoopSink`] by default).
    sink: S,
    /// Per canonical link: when it last became idle (assigned count
    /// dropped to zero) — the idle-drain clock for sleep events. Only
    /// maintained when `S::ENABLED`.
    idle_since: Vec<f64>,
    /// Reusable decision-path buffers (see [`DecisionScratch`]).
    scratch: DecisionScratch,
    /// Every how many series rows an observatory point is taken;
    /// `None` keeps the observatory off.
    ts_every: Option<usize>,
    /// Captured observatory points (empty unless enabled).
    ts_points: Vec<TimeseriesPoint>,
    /// Cumulative count of share-change applications (TE
    /// reconfigurations), maintained unconditionally — a plain integer
    /// increment, so the zero-alloc decision path is untouched.
    reconfig_count: u64,
}

impl<'a> Simulation<'a> {
    /// Create a simulation over the given topology, power model, and
    /// installed tables. Links used by any always-on path start (and
    /// stay) active; everything else starts asleep.
    pub fn new(
        topo: &'a Topology,
        power: &'a PowerModel,
        tables: &PathTables,
        cfg: SimConfig,
    ) -> Self {
        Self::with_policy(topo, power, tables, cfg, Box::new(Undamped))
    }

    /// Like [`Simulation::new`], but with an explicit online TE control
    /// policy (`ecp-control`) instead of the default [`Undamped`] one.
    pub fn with_policy(
        topo: &'a Topology,
        power: &'a PowerModel,
        tables: &PathTables,
        cfg: SimConfig,
        policy: Box<dyn ControlPolicy>,
    ) -> Self {
        Self::with_telemetry(topo, power, tables, cfg, policy, NoopSink)
    }
}

impl<'a, S: TelemetrySink> Simulation<'a, S> {
    /// Like [`Simulation::with_policy`], but recording into an explicit
    /// telemetry sink (e.g. [`ecp_telemetry::JsonlSink`]).
    pub fn with_telemetry(
        topo: &'a Topology,
        power: &'a PowerModel,
        tables: &PathTables,
        cfg: SimConfig,
        policy: Box<dyn ControlPolicy>,
        sink: S,
    ) -> Self {
        let n_arcs = topo.arc_count();
        let mut always_on_links = vec![false; n_arcs];
        for (_, od) in tables.iter() {
            if let Some(arcs) = od.always_on.arcs(topo) {
                for a in arcs {
                    always_on_links[topo.link_of(a).idx()] = true;
                }
            }
        }
        let link_state: Vec<LinkPowerState> = (0..n_arcs)
            .map(|i| {
                if always_on_links[i] {
                    LinkPowerState::Active
                } else {
                    LinkPowerState::Sleeping
                }
            })
            .collect();
        let link_ready: Vec<bool> = link_state
            .iter()
            .map(|s| matches!(s, LinkPowerState::Active))
            .collect();
        let policy_memoryless = policy.memoryless();
        let mut sim = Simulation {
            topo,
            power,
            cfg,
            now: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
            flows: Vec::new(),
            link_state,
            link_failed: vec![false; n_arcs],
            node_failed: vec![false; topo.node_count()],
            link_failed_known: vec![false; n_arcs],
            node_failed_known: vec![false; topo.node_count()],
            link_known_down: vec![false; n_arcs],
            full_power_w: power.full_power(topo),
            power_cache: None,
            series: Series::default(),
            always_on_links,
            policy,
            policy_memoryless,
            loads: vec![0.0; n_arcs],
            arc_dirty: vec![false; n_arcs],
            dirty_arcs: Vec::new(),
            users: vec![Vec::new(); n_arcs],
            contrib: Vec::new(),
            link_ready,
            assigned: vec![0; n_arcs],
            sink,
            idle_since: if S::ENABLED {
                vec![0.0; n_arcs]
            } else {
                Vec::new()
            },
            scratch: DecisionScratch::default(),
            ts_every: None,
            ts_points: Vec::new(),
            reconfig_count: 0,
        };
        sim.push(cfg.control_interval, Event::Control);
        sim.push(0.0, Event::Sample);
        sim
    }

    fn push(&mut self, t: f64, ev: Event) {
        debug_assert!(t.is_finite(), "event time {t} is not finite");
        // Adding +0.0 turns -0.0 into +0.0, so `total_cmp` orders every
        // finite time as `partial_cmp` does.
        let t = t + 0.0;
        self.seq += 1;
        self.queue.push(QItem {
            t,
            seq: self.seq,
            ev,
        });
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Add a flow using the installed paths of `tables` for `(o, d)`.
    /// Panics if the pair has no tables entry.
    pub fn add_flow(&mut self, tables: &PathTables, o: NodeId, d: NodeId, offered: f64) -> FlowId {
        let od = tables.get(o, d).expect("no installed paths for OD pair");
        let paths: Vec<Path> = od.all().into_iter().cloned().collect();
        // Deduplicate identical paths (failover may coincide with an
        // on-demand path) while preserving priority order.
        let mut uniq: Vec<Path> = Vec::new();
        for p in paths {
            if !uniq.contains(&p) {
                uniq.push(p);
            }
        }
        let n = uniq.len();
        let mut shares = vec![0.0; n];
        shares[0] = 1.0; // start aggregated on the always-on path
        let fi = self.flows.len();
        let first_gp = self.contrib.len();
        // Incremental bookkeeping: register every arc occurrence in the
        // reverse index (append keeps (flow, path) order), seed the
        // blocked and known-down counts from the current link readiness
        // and known failures, and collect the distinct links each path
        // touches. Arcs, their capacities and links go into flat
        // per-flow pools addressed by (offset, len) spans.
        let mut arc_pool: Vec<ArcId> = Vec::new();
        let mut arc_spans: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut cap_pool: Vec<f64> = Vec::new();
        let mut link_pool: Vec<usize> = Vec::new();
        let mut link_spans: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut rate = Vec::with_capacity(n);
        let mut blocked = Vec::with_capacity(n);
        let mut known_down = Vec::with_capacity(n);
        for (pi, p) in uniq.iter().enumerate() {
            let arcs = p.arcs(self.topo).expect("installed path must resolve");
            rate.push(offered * shares[pi]);
            let mut b = 0u32;
            let mut k = 0u32;
            let link_off = link_pool.len();
            for &a in &arcs {
                let li = self.topo.link_of(a).idx();
                if !self.link_ready[li] {
                    b += 1;
                }
                if self.link_known_down[li] {
                    k += 1;
                }
                if !link_pool[link_off..].contains(&li) {
                    link_pool.push(li);
                }
                self.users[a.idx()].push((fi as u32, (first_gp + pi) as u32));
                cap_pool.push(self.topo.arc(a).capacity);
            }
            link_spans.push((link_off as u32, (link_pool.len() - link_off) as u32));
            arc_spans.push((arc_pool.len() as u32, arcs.len() as u32));
            arc_pool.extend_from_slice(&arcs);
            self.contrib.push(contribution(rate[pi], b));
            blocked.push(b);
            known_down.push(k);
        }
        self.series.add_flow(n);
        self.flows.push(Flow {
            origin: o,
            dst: d,
            offered,
            paths: uniq,
            arc_pool,
            arc_spans,
            cap_pool,
            first_gp: first_gp as u32,
            shares,
            rate,
            blocked,
            known_down,
            link_pool,
            link_spans,
            obs_dirty: true,
        });
        // The new flow's endpoints join the powered set.
        self.power_cache = None;
        for pi in 0..n {
            if self.flows[fi].rate[pi] > 0.0 {
                for k in 0..self.flows[fi].path_links(pi).len() {
                    let li = self.flows[fi].path_links(pi)[k];
                    self.assigned[li] += 1;
                }
                self.mark_path_dirty(fi, pi);
            }
        }
        self.flush_loads();
        FlowId(fi)
    }

    /// Schedule an offered-rate change.
    pub fn schedule_demand(&mut self, t: f64, f: FlowId, rate: f64) {
        self.push(t, Event::DemandChange(f, rate));
    }

    /// Schedule a link failure (both directions of the physical link).
    pub fn schedule_link_failure(&mut self, t: f64, a: ArcId) {
        self.push(t, Event::LinkFail(a));
    }

    /// Schedule a link repair.
    pub fn schedule_link_repair(&mut self, t: f64, a: ArcId) {
        self.push(t, Event::LinkRepair(a));
    }

    /// Inject any scriptable [`SimEvent`] at time `t` — the generic
    /// entry point used by the scenario engine.
    pub fn schedule(&mut self, t: f64, ev: SimEvent) {
        let internal = match ev {
            SimEvent::DemandChange { flow, rate } => Event::DemandChange(flow, rate),
            SimEvent::LinkFail { arc } => Event::LinkFail(arc),
            SimEvent::LinkRepair { arc } => Event::LinkRepair(arc),
            SimEvent::NodeFail { node } => Event::NodeFail(node),
            SimEvent::NodeRepair { node } => Event::NodeRepair(node),
            SimEvent::SetWakeTime { wake_time } => Event::SetWakeTime(wake_time),
            SimEvent::SetTeConfig { te } => Event::SetTeConfig(te),
        };
        self.push(t, internal);
    }

    /// Time of the next pending event. The queue is never empty (control
    /// and sampling self-perpetuate), so this is `None` only before the
    /// constructor finishes.
    pub fn next_event_time(&self) -> Option<f64> {
        self.queue.peek().map(|q| q.t)
    }

    /// Process exactly one pending event and return its time — the
    /// pausable stepping API. Callers can interleave `step` with state
    /// inspection (`power_w`, `delivered_rate`, …) or with injecting new
    /// events via [`Simulation::schedule`], then resume with either more
    /// `step` calls or [`Simulation::run_until`].
    pub fn step(&mut self) -> Option<f64> {
        let QItem { t, ev, .. } = self.queue.pop()?;
        self.now = t.max(self.now);
        self.handle(ev);
        Some(t)
    }

    /// Run until `t_end` (inclusive of events at `t_end`), which must be
    /// finite: the queue refills itself, so the loop ends only at a
    /// finite horizon.
    pub fn run_until(&mut self, t_end: f64) {
        debug_assert!(t_end.is_finite(), "run horizon {t_end} is not finite");
        while let Some(top) = self.queue.peek() {
            if top.t > t_end + 1e-12 {
                break;
            }
            self.step();
        }
        self.now = self.now.max(t_end);
    }

    /// The sampled series: one row every
    /// [`SimConfig::sample_interval`], the first at t = 0.
    pub fn series(&self) -> &Series {
        &self.series
    }

    /// Turn every `every`-th series row (rows 0, `every`, 2·`every`, …)
    /// into a campaign-observatory point as well. Off by default; the
    /// points come from the sampler's own rows, so turning them on adds
    /// no event and changes nothing else about the run.
    pub fn enable_timeseries(&mut self, every: usize) {
        self.ts_every = Some(every.max(1));
    }

    /// The telemetry sink.
    pub fn telemetry(&self) -> &S {
        &self.sink
    }

    /// Consume the simulation, returning its series, its observatory
    /// points (empty unless enabled) and its telemetry sink.
    pub fn finish(self) -> (Series, Vec<TimeseriesPoint>, S) {
        (self.series, self.ts_points, self.sink)
    }

    /// Aggregated telemetry, if the sink keeps any.
    pub fn telemetry_snapshot(&self) -> Option<ecp_telemetry::TelemetrySnapshot> {
        self.sink.snapshot()
    }

    /// Delivered rate of a flow right now (sum over ready paths, after
    /// congestion throttling).
    pub fn delivered_rate(&self, f: FlowId) -> f64 {
        self.per_path_delivered(f).iter().sum()
    }

    /// Delivered rate per installed path of a flow.
    pub fn per_path_delivered(&self, f: FlowId) -> Vec<f64> {
        let flow = &self.flows[f.0];
        (0..flow.paths.len())
            .map(|pi| self.path_delivery(flow, pi))
            .collect()
    }

    /// Current network power in Watts.
    pub fn power_w(&self) -> f64 {
        self.power.network_power(self.topo, &self.active_set())
    }

    /// Number of physical links currently sleeping.
    pub fn sleeping_links(&self) -> usize {
        self.topo
            .link_ids()
            .filter(|l| matches!(self.link_state[l.idx()], LinkPowerState::Sleeping))
            .count()
    }

    // ---- internals ----------------------------------------------------

    /// Process one event, then flush the incremental load state so the
    /// cache is clean (and debug-cross-checked against the from-scratch
    /// oracle) at every public API boundary.
    fn handle(&mut self, ev: Event) {
        if S::ENABLED {
            self.sink.add(Counter::EventsProcessed, 1);
        }
        if S::SPANS {
            self.sink.span_enter(SpanName::EventDrain);
        }
        self.dispatch(ev);
        if S::SPANS {
            self.sink.span_exit(SpanName::EventDrain);
            self.sink.span_enter(SpanName::LoadFlush);
        }
        self.flush_loads();
        if S::SPANS {
            self.sink.span_exit(SpanName::LoadFlush);
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Control => {
                self.control_round(false);
                self.push(self.now + self.cfg.control_interval, Event::Control);
            }
            Event::AgentControl(fi) => {
                self.agent_control(fi);
            }
            Event::Sample => {
                self.take_sample();
                self.push(self.now + self.cfg.sample_interval, Event::Sample);
            }
            Event::DemandChange(f, rate) => {
                self.set_flow_offered(f.0, rate);
            }
            Event::LinkFail(a) => {
                let l = self.topo.link_of(a);
                self.link_failed[l.idx()] = true;
                self.power_cache = None;
                self.refresh_link_ready(l);
                if S::ENABLED {
                    self.sink.add(Counter::FailuresInjected, 1);
                    self.emit_element_event(Element::Link, l.idx() as u32, false, false);
                }
                self.push(self.now + self.cfg.detect_delay, Event::FailureKnown(a));
            }
            Event::LinkRepair(a) => {
                let l = self.topo.link_of(a);
                self.link_failed[l.idx()] = false;
                self.power_cache = None;
                self.refresh_link_ready(l);
                if S::ENABLED {
                    self.sink.add(Counter::RepairsInjected, 1);
                    self.emit_element_event(Element::Link, l.idx() as u32, true, false);
                }
                self.push(self.now + self.cfg.detect_delay, Event::RepairKnown(a));
            }
            Event::NodeFail(n) => {
                self.node_failed[n.idx()] = true;
                self.power_cache = None;
                self.refresh_node_links(n);
                if S::ENABLED {
                    self.sink.add(Counter::FailuresInjected, 1);
                    self.emit_element_event(Element::Node, n.idx() as u32, false, false);
                }
                self.push(self.now + self.cfg.detect_delay, Event::NodeFailureKnown(n));
            }
            Event::NodeRepair(n) => {
                self.node_failed[n.idx()] = false;
                self.power_cache = None;
                self.refresh_node_links(n);
                if S::ENABLED {
                    self.sink.add(Counter::RepairsInjected, 1);
                    self.emit_element_event(Element::Node, n.idx() as u32, true, false);
                }
                self.push(self.now + self.cfg.detect_delay, Event::NodeRepairKnown(n));
            }
            Event::SetWakeTime(w) => {
                self.cfg.wake_time = w;
            }
            Event::SetTeConfig(te) => {
                self.cfg.te = te;
                if S::ENABLED {
                    self.sink.add(Counter::TeReconfigs, 1);
                    let ev = TelemetryEvent::TeReconfig {
                        t: self.now,
                        threshold: te.threshold,
                        step: te.step,
                        min_share: te.min_share,
                    };
                    self.sink.emit(&ev);
                }
                // The TE parameters are part of every observation.
                for fl in &mut self.flows {
                    fl.obs_dirty = true;
                }
            }
            Event::FailureKnown(a) => {
                if S::SPANS {
                    self.sink.span_enter(SpanName::FailureHandling);
                }
                let l = self.topo.link_of(a);
                self.link_failed_known[l.idx()] = true;
                self.refresh_link_known(l);
                if S::ENABLED {
                    self.emit_element_event(Element::Link, l.idx() as u32, false, true);
                }
                // React immediately rather than waiting for the next tick
                // (failure handling is not rate-limited, §4.4) — every
                // agent, regardless of observation phase.
                self.control_round(true);
                if S::SPANS {
                    self.sink.span_exit(SpanName::FailureHandling);
                }
            }
            Event::RepairKnown(a) => {
                if S::SPANS {
                    self.sink.span_enter(SpanName::FailureHandling);
                }
                let l = self.topo.link_of(a);
                self.link_failed_known[l.idx()] = false;
                self.refresh_link_known(l);
                if S::ENABLED {
                    self.emit_element_event(Element::Link, l.idx() as u32, true, true);
                }
                if S::SPANS {
                    self.sink.span_exit(SpanName::FailureHandling);
                }
            }
            Event::NodeFailureKnown(n) => {
                if S::SPANS {
                    self.sink.span_enter(SpanName::FailureHandling);
                }
                self.node_failed_known[n.idx()] = true;
                self.refresh_node_known(n);
                if S::ENABLED {
                    self.emit_element_event(Element::Node, n.idx() as u32, false, true);
                }
                // React immediately, like FailureKnown.
                self.control_round(true);
                if S::SPANS {
                    self.sink.span_exit(SpanName::FailureHandling);
                }
            }
            Event::NodeRepairKnown(n) => {
                if S::SPANS {
                    self.sink.span_enter(SpanName::FailureHandling);
                }
                self.node_failed_known[n.idx()] = false;
                self.refresh_node_known(n);
                if S::ENABLED {
                    self.emit_element_event(Element::Node, n.idx() as u32, true, true);
                }
                if S::SPANS {
                    self.sink.span_exit(SpanName::FailureHandling);
                }
            }
            Event::WakeDone(a) => {
                if S::SPANS {
                    self.sink.span_enter(SpanName::PowerTransition);
                }
                let l = self.topo.link_of(a);
                if let LinkPowerState::Waking(due) = self.link_state[l.idx()] {
                    if due <= self.now + 1e-12 {
                        self.set_link_state(l, LinkPowerState::Active);
                        if S::ENABLED {
                            self.emit_power_transition(l.idx() as u32, PowerKind::WakeDone, 0.0);
                        }
                    }
                }
                if S::SPANS {
                    self.sink.span_exit(SpanName::PowerTransition);
                }
            }
            Event::SleepCheck(a) => {
                if S::SPANS {
                    self.sink.span_enter(SpanName::PowerTransition);
                }
                let l = self.topo.link_of(a);
                if !self.always_on_links[l.idx()]
                    && matches!(self.link_state[l.idx()], LinkPowerState::Active)
                    && !self.link_has_assigned_traffic(l)
                {
                    self.set_link_state(l, LinkPowerState::Sleeping);
                    if S::ENABLED {
                        let idle_s = (self.now - self.idle_since[l.idx()]).max(0.0);
                        self.sink.observe(Hist::IdleDrainS, idle_s);
                        self.emit_power_transition(l.idx() as u32, PowerKind::Sleep, idle_s);
                    }
                }
                if S::SPANS {
                    self.sink.span_exit(SpanName::PowerTransition);
                }
            }
        }
    }

    /// Emit a failure/repair event (telemetry-enabled builds only).
    fn emit_element_event(&mut self, element: Element, id: u32, repair: bool, detected: bool) {
        let t = self.now;
        let ev = if repair {
            TelemetryEvent::Repair {
                t,
                element,
                id,
                detected,
            }
        } else {
            TelemetryEvent::Failure {
                t,
                element,
                id,
                detected,
            }
        };
        self.sink.emit(&ev);
    }

    /// Emit a power-transition event (telemetry-enabled builds only).
    fn emit_power_transition(&mut self, link: u32, kind: PowerKind, idle_s: f64) {
        self.sink.add(Counter::PowerTransitions, 1);
        let ev = TelemetryEvent::PowerTransition {
            t: self.now,
            link,
            kind,
            idle_s,
        };
        self.sink.emit(&ev);
    }

    /// Whether a link is effectively down: failed itself or adjacent to
    /// a failed node.
    fn link_down(&self, a: ArcId) -> bool {
        let l = self.topo.link_of(a);
        let arc = self.topo.arc(l);
        self.link_failed[l.idx()]
            || self.node_failed[arc.src.idx()]
            || self.node_failed[arc.dst.idx()]
    }

    /// What agents believe about a link being down (post detection
    /// delay), from either cause.
    fn link_down_known(&self, a: ArcId) -> bool {
        let l = self.topo.link_of(a);
        let arc = self.topo.arc(l);
        self.link_failed_known[l.idx()]
            || self.node_failed_known[arc.src.idx()]
            || self.node_failed_known[arc.dst.idx()]
    }

    /// Delivered (transmitted) load per arc, recomputed from scratch in
    /// O(flows × paths × arcs) — the verification oracle of the
    /// incremental load state (debug cross-checks, the parity
    /// proptests, the `arc_loads` microbench).
    pub fn arc_loads_scratch(&self) -> Vec<f64> {
        let mut load = vec![0.0; self.topo.arc_count()];
        for fl in &self.flows {
            for pi in 0..fl.paths.len() {
                let arcs = fl.path_arcs(pi);
                let r = fl.offered * fl.shares[pi];
                if r <= 0.0 || !self.path_ready(arcs) {
                    continue;
                }
                for &a in arcs {
                    load[a.idx()] += r;
                }
            }
        }
        load
    }

    /// The incrementally-maintained per-arc delivered load: clean at
    /// every public API boundary and bit-identical there to
    /// [`Simulation::arc_loads_scratch`] (cross-checked after every
    /// event in debug builds).
    pub fn current_arc_loads(&self) -> &[f64] {
        &self.loads
    }

    /// Mark every arc of one path for recomputation at the next flush.
    fn mark_path_dirty(&mut self, fi: usize, pi: usize) {
        let Simulation {
            flows,
            arc_dirty,
            dirty_arcs,
            ..
        } = self;
        for &a in flows[fi].path_arcs(pi) {
            let ai = a.idx();
            if !arc_dirty[ai] {
                arc_dirty[ai] = true;
                dirty_arcs.push(ai);
            }
        }
    }

    /// Recompute every dirty arc's load by summing the contribution
    /// column over its reverse-index entries in (flow, path, occurrence)
    /// order — the exact addition order of the from-scratch scan, so the
    /// cache stays bit-identical to it (asserted in debug builds).
    fn flush_loads(&mut self) {
        if self.dirty_arcs.is_empty() {
            return;
        }
        if S::ENABLED {
            self.sink
                .add(Counter::DirtyArcRecomputes, self.dirty_arcs.len() as u64);
        }
        let Simulation {
            flows,
            loads,
            arc_dirty,
            dirty_arcs,
            users,
            contrib,
            ..
        } = self;
        for &ai in dirty_arcs.iter() {
            arc_dirty[ai] = false;
            let entries = &users[ai];
            let mut sum = 0.0_f64;
            for &(_, gp) in entries {
                sum += contrib[gp as usize];
            }
            if sum.to_bits() != loads[ai].to_bits() {
                loads[ai] = sum;
                // The observation of every agent with a path through
                // this arc has changed.
                for &(fi, _) in entries {
                    flows[fi as usize].obs_dirty = true;
                }
            }
        }
        dirty_arcs.clear();
        debug_assert!(
            self.incremental_state_matches_scratch(),
            "incremental load accounting diverged from the from-scratch oracle"
        );
    }

    /// Full consistency check of the incremental state against the
    /// from-scratch recomputation (debug builds; also used by the
    /// parity proptests): loads, cached rates, blocked, known-down and
    /// assigned counts, the contribution column, per-path delivery and
    /// the cached power, each bit for bit.
    pub fn incremental_state_matches_scratch(&self) -> bool {
        let scratch = self.arc_loads_scratch();
        if scratch.len() != self.loads.len()
            || scratch
                .iter()
                .zip(&self.loads)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return false;
        }
        let paths: usize = self.flows.iter().map(|fl| fl.paths.len()).sum();
        if self.contrib.len() != paths {
            return false;
        }
        for (fi, fl) in self.flows.iter().enumerate() {
            for pi in 0..fl.paths.len() {
                let arcs = fl.path_arcs(pi);
                let rate = fl.offered * fl.shares[pi];
                if rate.to_bits() != fl.rate[pi].to_bits() {
                    return false;
                }
                let ready = self.path_ready(arcs);
                if ready != (fl.blocked[pi] == 0) {
                    return false;
                }
                let contrib = if rate > 0.0 && ready { rate } else { 0.0 };
                if self.contrib[fl.first_gp as usize + pi].to_bits() != contrib.to_bits() {
                    return false;
                }
                let known_down = arcs.iter().any(|&a| self.link_down_known(a));
                if known_down != (fl.known_down[pi] != 0) {
                    return false;
                }
            }
            let delivered = self.per_path_delivered(FlowId(fi));
            if (0..fl.paths.len()).any(|pi| {
                delivered[pi].to_bits() != self.path_delivery_scratch(fl, pi, &scratch).to_bits()
            }) {
                return false;
            }
        }
        if self
            .power_cache
            .is_some_and(|w| w.to_bits() != self.power_w().to_bits())
        {
            return false;
        }
        self.topo
            .link_ids()
            .all(|l| (self.assigned[l.idx()] > 0) == self.link_has_assigned_traffic_scratch(l))
    }

    /// Update one path's cached rate and contribution, maintaining the
    /// per-link assigned counts and dirtying the path's arcs when its
    /// contribution changes.
    fn set_path_rate(&mut self, fi: usize, pi: usize, new_rate: f64) {
        let fl = &mut self.flows[fi];
        let old = fl.rate[pi];
        if old.to_bits() == new_rate.to_bits() {
            return;
        }
        let was_pos = old > 0.0;
        let is_pos = new_rate > 0.0;
        fl.rate[pi] = new_rate;
        self.contrib[fl.first_gp as usize + pi] = contribution(new_rate, fl.blocked[pi]);
        if was_pos != is_pos {
            let now = self.now;
            let Simulation {
                flows,
                assigned,
                idle_since,
                ..
            } = self;
            for &li in flows[fi].path_links(pi) {
                if is_pos {
                    assigned[li] += 1;
                } else {
                    assigned[li] -= 1;
                    if S::ENABLED && assigned[li] == 0 {
                        // The link just went idle: start its drain clock.
                        idle_since[li] = now;
                    }
                }
            }
        }
        if self.flows[fi].blocked[pi] == 0 {
            self.mark_path_dirty(fi, pi);
        }
    }

    /// Change a flow's offered rate, refreshing every path's cached
    /// rate.
    fn set_flow_offered(&mut self, fi: usize, offered: f64) {
        if offered.to_bits() != self.flows[fi].offered.to_bits() {
            self.flows[fi].obs_dirty = true;
        }
        self.flows[fi].offered = offered;
        for pi in 0..self.flows[fi].rate.len() {
            let r = offered * self.flows[fi].shares[pi];
            self.set_path_rate(fi, pi, r);
        }
    }

    /// Re-derive one link's known-down state after a `*Known` event,
    /// adjusting the known-down counts of every path traversing it
    /// (either direction) when it flips, and flag every agent with a
    /// path through it as observation-dirty (known-failure flips change
    /// path availability).
    fn refresh_link_known(&mut self, l: ArcId) {
        let l = self.topo.link_of(l);
        let down = self.link_down_known(l);
        let flipped = self.link_known_down[l.idx()] != down;
        self.link_known_down[l.idx()] = down;
        for d in [Some(l), self.topo.reverse(l)].into_iter().flatten() {
            for &(fi, gp) in &self.users[d.idx()] {
                let fl = &mut self.flows[fi as usize];
                fl.obs_dirty = true;
                if flipped {
                    let pi = (gp - fl.first_gp) as usize;
                    if down {
                        fl.known_down[pi] += 1;
                    } else {
                        fl.known_down[pi] -= 1;
                    }
                }
            }
        }
    }

    /// [`Simulation::refresh_link_known`] for every link adjacent to a
    /// node.
    fn refresh_node_known(&mut self, n: NodeId) {
        for a in self.adjacent_arcs(n) {
            self.refresh_link_known(a);
        }
    }

    /// Every arc incident to a node, in either direction — O(degree)
    /// via the adjacency index (both directions of a bidirectional
    /// link appear; the per-link callees canonicalize and are
    /// idempotent, so the duplicate is harmless).
    fn adjacent_arcs(&self, n: NodeId) -> Vec<ArcId> {
        self.topo
            .out_arcs(n)
            .iter()
            .chain(self.topo.in_arcs(n))
            .copied()
            .collect()
    }

    /// Flip one link's readiness, adjusting the blocked counts and
    /// contributions of every path traversing it (either direction) and
    /// dirtying the paths whose contribution appears or vanishes.
    fn set_link_ready(&mut self, l: ArcId, ready: bool) {
        let li = l.idx();
        if self.link_ready[li] == ready {
            return;
        }
        self.link_ready[li] = ready;
        let mut to_mark = std::mem::take(&mut self.scratch.to_mark);
        to_mark.clear();
        let Simulation {
            topo,
            flows,
            users,
            contrib,
            ..
        } = self;
        for d in [Some(l), topo.reverse(l)].into_iter().flatten() {
            for &(fi, gp) in &users[d.idx()] {
                let fl = &mut flows[fi as usize];
                let pi = (gp - fl.first_gp) as usize;
                let flipped = if ready {
                    fl.blocked[pi] -= 1;
                    fl.blocked[pi] == 0
                } else {
                    fl.blocked[pi] += 1;
                    fl.blocked[pi] == 1
                };
                contrib[gp as usize] = contribution(fl.rate[pi], fl.blocked[pi]);
                if flipped && fl.rate[pi] > 0.0 {
                    to_mark.push((fi as usize, pi));
                }
            }
        }
        for &(fi, pi) in &to_mark {
            self.mark_path_dirty(fi, pi);
        }
        self.scratch.to_mark = to_mark;
    }

    /// Re-derive one link's readiness from its failure and power state.
    fn refresh_link_ready(&mut self, l: ArcId) {
        let l = self.topo.link_of(l);
        let ready =
            !self.link_down(l) && matches!(self.link_state[l.idx()], LinkPowerState::Active);
        self.set_link_ready(l, ready);
    }

    /// Set a link's power state, keeping the readiness bookkeeping
    /// consistent. Every `link_state` mutation routes through here.
    fn set_link_state(&mut self, l: ArcId, st: LinkPowerState) {
        self.link_state[l.idx()] = st;
        self.power_cache = None;
        self.refresh_link_ready(l);
    }

    /// Refresh readiness of every link adjacent to a node (node
    /// fail/repair).
    fn refresh_node_links(&mut self, n: NodeId) {
        for a in self.adjacent_arcs(n) {
            self.refresh_link_ready(a);
        }
    }

    fn path_ready(&self, arcs: &[ArcId]) -> bool {
        arcs.iter().all(|&a| {
            let l = self.topo.link_of(a);
            !self.link_down(l) && matches!(self.link_state[l.idx()], LinkPowerState::Active)
        })
    }

    /// Delivered rate of one path of one flow: its cached rate when the
    /// path is ready, proportionally throttled at overloaded arcs. Reads
    /// the incremental state (`rate`, `blocked`, the load cache), so it
    /// is exact only where the loads are flushed; bit-identical there to
    /// [`Simulation::path_delivery_scratch`] (checked by
    /// [`Simulation::incremental_state_matches_scratch`]).
    fn path_delivery(&self, flow: &Flow, pi: usize) -> f64 {
        let r = flow.rate[pi];
        if r <= 0.0 || flow.blocked[pi] != 0 {
            return 0.0;
        }
        r * self.overload_scale(flow.path_arcs(pi), &self.loads)
    }

    /// The arc-scan definition behind [`Simulation::path_delivery`]:
    /// offered × share, zero unless every link is up and Active.
    fn path_delivery_scratch(&self, flow: &Flow, pi: usize, loads: &[f64]) -> f64 {
        let arcs = flow.path_arcs(pi);
        let r = flow.offered * flow.shares[pi];
        if r <= 0.0 || !self.path_ready(arcs) {
            return 0.0;
        }
        r * self.overload_scale(arcs, loads)
    }

    /// Proportional throttling of a path: the smallest capacity/load
    /// ratio over its overloaded arcs (1 when none is overloaded).
    fn overload_scale(&self, arcs: &[ArcId], loads: &[f64]) -> f64 {
        let mut scale = 1.0_f64;
        for &a in arcs {
            let c = self.topo.arc(a).capacity;
            if loads[a.idx()] > c {
                scale = scale.min(c / loads[a.idx()]);
            }
        }
        scale
    }

    /// Whether any positive-rate path is assigned to a link, in either
    /// direction — the sleep-check guard. O(1) from the incremental
    /// assigned counts (debug-checked against the scan).
    fn link_has_assigned_traffic(&self, l: ArcId) -> bool {
        let has = self.assigned[l.idx()] > 0;
        debug_assert_eq!(has, self.link_has_assigned_traffic_scratch(l));
        has
    }

    /// The O(flows × paths × arcs) rescan behind
    /// [`Simulation::link_has_assigned_traffic`] — its oracle.
    fn link_has_assigned_traffic_scratch(&self, l: ArcId) -> bool {
        let rev = self.topo.reverse(l);
        for fl in &self.flows {
            for pi in 0..fl.paths.len() {
                if fl.offered * fl.shares[pi] <= 0.0 {
                    continue;
                }
                if fl.path_arcs(pi).iter().any(|&a| a == l || Some(a) == rev) {
                    return true;
                }
            }
        }
        false
    }

    /// Force a flow's share vector (experiment setup, e.g. mimicking a
    /// pre-TE traffic spread). Links needed by non-zero shares are woken
    /// immediately (no wake delay — this models pre-existing state).
    pub fn set_shares(&mut self, f: FlowId, shares: Vec<f64>) {
        assert_eq!(shares.len(), self.flows[f.0].paths.len());
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "shares must sum to 1");
        let fi = f.0;
        // The round's wake and sleep-check candidates do not apply here:
        // the links of every positive-share path wake at once below.
        let (mut to_wake, mut to_sleepcheck) = (Vec::new(), Vec::new());
        self.apply_flow_shares(fi, &shares, &mut to_wake, &mut to_sleepcheck);
        let arcs: Vec<ArcId> = (0..self.flows[fi].paths.len())
            .filter(|&pi| self.flows[fi].shares[pi] > 0.0)
            .flat_map(|pi| self.flows[fi].path_arcs(pi).iter().copied())
            .collect();
        for a in arcs {
            let l = self.topo.link_of(a);
            if !matches!(self.link_state[l.idx()], LinkPowerState::Active) {
                self.set_link_state(l, LinkPowerState::Active);
            }
        }
        self.flush_loads();
    }

    /// What one agent sees of its paths given an arc-load snapshot,
    /// written into `out` (cleared first; the caller's reusable
    /// buffer). A path's headroom is the least `threshold · capacity −
    /// max(load − own rate, 0)` over its arcs. The two compare-selects
    /// skip a NaN candidate as `f64::max(.., 0.0)` and an `f64::min`
    /// fold from +∞ do, and give the same bits as those except between
    /// zeros of opposite sign, which a load (never `-0.0`) and a
    /// positive threshold cannot produce.
    fn flow_views_into(&self, fi: usize, loads: &[f64], out: &mut Vec<PathView>) {
        let threshold = self.cfg.te.threshold;
        let fl = &self.flows[fi];
        out.clear();
        for (pi, &(off, len)) in fl.arc_spans.iter().enumerate() {
            let own = fl.rate[pi];
            let span = off as usize..(off + len) as usize;
            let mut headroom = f64::INFINITY;
            for (&a, &cap) in fl.arc_pool[span.clone()].iter().zip(&fl.cap_pool[span]) {
                let d = loads[a.idx()] - own;
                let others = if d > 0.0 { d } else { 0.0 };
                let h = threshold * cap - others;
                if h < headroom {
                    headroom = h;
                }
            }
            out.push(PathView {
                headroom,
                available: fl.known_down[pi] == 0,
            });
        }
    }

    /// One agent's observe + decide (shared by the batched round and
    /// the phase-jittered path, so both always construct the
    /// observation identically). It observes the maintained load
    /// cache, which is sound because no share application happens
    /// between the observation and the decision: batched rounds defer
    /// every apply until all phase-0 decisions are in, and the
    /// phase-jittered path decides one agent at a time. Writes the
    /// decided shares into `out`; the views scratch is reused across
    /// calls, so nothing here allocates.
    fn decide_flow_into(&mut self, fi: usize, out: &mut Vec<f64>) {
        let mut views = std::mem::take(&mut self.scratch.views);
        if S::SPANS {
            self.sink.span_enter(SpanName::RoundObserve);
        }
        self.flow_views_into(fi, &self.loads, &mut views);
        if S::SPANS {
            self.sink.span_exit(SpanName::RoundObserve);
        }
        let te = self.cfg.te;
        let t = self.now;
        // Disjoint-field borrow: the policy observes the flow's share
        // buffer directly — no `current` clone.
        let Simulation {
            policy,
            flows,
            sink,
            ..
        } = self;
        let fl = &flows[fi];
        let obs = Observation {
            agent: fi,
            t,
            offered: fl.offered,
            paths: &views,
            current: &fl.shares,
            te: &te,
        };
        if S::SPANS {
            sink.span_enter(SpanName::RoundDecide);
        }
        policy.decide(&obs, out);
        if S::SPANS {
            sink.span_exit(SpanName::RoundDecide);
        }
        self.scratch.views = views;
    }

    /// Install one flow's new shares in one pass over its paths — the
    /// one install routine of control rounds, phased agents and
    /// [`Simulation::set_shares`]. A path whose share changes bits flags
    /// the agent's observation dirty (shares are part of its decision
    /// input) and gets its new rate. A path whose share moved by more
    /// than 1e-12 also queues its links for
    /// [`Simulation::commit_power_transitions`]: the sleeping ones to
    /// wake when it now carries traffic, all of them to sleep-check
    /// when it no longer does. Returns whether any share moved.
    fn apply_flow_shares(
        &mut self,
        fi: usize,
        shares: &[f64],
        to_wake: &mut Vec<ArcId>,
        to_sleepcheck: &mut Vec<ArcId>,
    ) -> bool {
        assert_eq!(shares.len(), self.flows[fi].shares.len());
        let mut moved = false;
        for (pi, &new) in shares.iter().enumerate() {
            let fl = &mut self.flows[fi];
            let old = fl.shares[pi];
            if old.to_bits() == new.to_bits() {
                continue;
            }
            fl.obs_dirty = true;
            fl.shares[pi] = new;
            let rate = fl.offered * new;
            self.set_path_rate(fi, pi, rate);
            // A NaN difference is no move.
            let moved_path = (new - old).abs() > 1e-12;
            if !moved_path {
                continue;
            }
            moved = true;
            let fl = &self.flows[fi];
            if rate > 0.0 {
                // A ready path has every link up and Active, so none of
                // them sleeps.
                if fl.blocked[pi] == 0 {
                    continue;
                }
                for &a in fl.path_arcs(pi) {
                    let l = self.topo.link_of(a);
                    if matches!(self.link_state[l.idx()], LinkPowerState::Sleeping) {
                        to_wake.push(l);
                    }
                }
            } else {
                for &a in fl.path_arcs(pi) {
                    to_sleepcheck.push(self.topo.link_of(a));
                }
            }
        }
        moved
    }

    /// Schedule the wake-ups and sleep checks a share change triggered.
    fn commit_power_transitions(&mut self, to_wake: &[ArcId], to_sleepcheck: &[ArcId]) {
        for &l in to_wake {
            if matches!(self.link_state[l.idx()], LinkPowerState::Sleeping) {
                let due = self.now + self.cfg.wake_time;
                self.set_link_state(l, LinkPowerState::Waking(due));
                if S::ENABLED {
                    self.emit_power_transition(l.idx() as u32, PowerKind::WakeStart, 0.0);
                }
                self.push(due, Event::WakeDone(l));
            }
        }
        for &l in to_sleepcheck {
            self.push(self.now + self.cfg.sleep_after, Event::SleepCheck(l));
        }
    }

    /// One REsPoNseTE control round: every agent updates its shares.
    ///
    /// Agents whose policy phase is zero act as before: all updates are
    /// computed against one shared load snapshot (simultaneous probe
    /// replies), then applied together. Agents with a positive phase
    /// (desynchronizing policies) are deferred to their own
    /// [`Event::AgentControl`] instant within the round, where they
    /// observe *fresh* loads. `immediate` rounds (failure reaction, not
    /// rate-limited per §4.4) ignore phases.
    fn control_round(&mut self, immediate: bool) {
        if self.now + 1e-12 < self.cfg.te_start {
            return;
        }
        // Agents observe the maintained load cache directly — constant
        // during the decision loop because every apply is deferred past
        // it.
        if S::SPANS {
            self.sink.span_enter(SpanName::RoundSnapshot);
        }
        if S::ENABLED {
            self.sink.add(Counter::ControlRounds, 1);
            if immediate {
                self.sink.add(Counter::ImmediateRounds, 1);
            }
            // Per-round arc-load summary over the loads the agents of
            // this round observe (pre-decision).
            let (max_util, mean_util, overloaded) = self.arc_utilisation();
            let ev = TelemetryEvent::ArcLoads {
                t: self.now,
                max_util,
                mean_util,
                overloaded,
            };
            self.sink.emit(&ev);
        }
        if S::SPANS {
            self.sink.span_exit(SpanName::RoundSnapshot);
        }
        let wf_round_start = if S::ENABLED {
            waterfill_iterations()
        } else {
            0
        };
        let mut skipped_clean = 0u32;
        let interval = self.cfg.control_interval;
        // Compute phase-0 updates first (same observation), defer the
        // phase-jittered agents. Decisions land in the flat
        // pending-shares scratch (one reusable buffer for the whole
        // round) instead of one Vec per agent.
        let mut shares = std::mem::take(&mut self.scratch.shares);
        let mut pending = std::mem::take(&mut self.scratch.pending);
        let mut pending_shares = std::mem::take(&mut self.scratch.pending_shares);
        let mut phased = std::mem::take(&mut self.scratch.phased);
        pending.clear();
        pending_shares.clear();
        phased.clear();
        for fi in 0..self.flows.len() {
            let phase = if immediate {
                0.0
            } else {
                self.policy.phase(fi, interval)
            };
            if phase > 0.0 {
                phased.push((fi, phase));
                continue;
            }
            if self.can_skip_decision(fi) {
                skipped_clean += 1;
                continue;
            }
            self.flows[fi].obs_dirty = false;
            let wf_before = if S::ENABLED {
                waterfill_iterations()
            } else {
                0
            };
            self.decide_flow_into(fi, &mut shares);
            if S::ENABLED {
                self.sink.add(Counter::AgentDecisions, 1);
                self.sink.observe(
                    Hist::WaterfillPerDecision,
                    (waterfill_iterations() - wf_before) as f64,
                );
            }
            let off = pending_shares.len() as u32;
            pending_shares.extend_from_slice(&shares);
            pending.push((fi as u32, off, shares.len() as u32));
        }
        let decided = pending.len() as u32;
        // Apply; trigger wakes and sleep checks.
        let mut to_wake = std::mem::take(&mut self.scratch.to_wake);
        let mut to_sleepcheck = std::mem::take(&mut self.scratch.to_sleepcheck);
        to_wake.clear();
        to_sleepcheck.clear();
        let mut share_changes = 0u32;
        if S::SPANS {
            self.sink.span_enter(SpanName::RoundApply);
        }
        for &(fi, off, len) in &pending {
            let sl = &pending_shares[off as usize..(off + len) as usize];
            if self.apply_flow_shares(fi as usize, sl, &mut to_wake, &mut to_sleepcheck) {
                share_changes += 1;
            }
        }
        self.reconfig_count += share_changes as u64;
        if S::SPANS {
            self.sink.span_exit(SpanName::RoundApply);
            self.sink.span_enter(SpanName::RoundInstall);
        }
        self.commit_power_transitions(&to_wake, &to_sleepcheck);
        if S::SPANS {
            self.sink.span_exit(SpanName::RoundInstall);
        }
        self.scratch.shares = shares;
        self.scratch.pending = pending;
        self.scratch.pending_shares = pending_shares;
        self.scratch.to_wake = to_wake;
        self.scratch.to_sleepcheck = to_sleepcheck;
        if S::ENABLED {
            let waterfill_iters = waterfill_iterations() - wf_round_start;
            self.sink.add(Counter::WaterfillIterations, waterfill_iters);
            self.sink.add(Counter::SkippedClean, skipped_clean as u64);
            self.sink.add(Counter::DeferredPhased, phased.len() as u64);
            self.sink.add(Counter::ShareChanges, share_changes as u64);
            self.sink.observe(Hist::DecidedPerRound, decided as f64);
            let ev = TelemetryEvent::ControlRound {
                t: self.now,
                immediate,
                agents: self.flows.len() as u32,
                decided,
                skipped_clean,
                deferred_phased: phased.len() as u32,
                share_changes,
                waterfill_iters,
            };
            self.sink.emit(&ev);
        }
        for &(fi, phase) in &phased {
            self.push(self.now + phase, Event::AgentControl(fi));
        }
        self.scratch.phased = phased;
    }

    /// Utilization of the capacity-bearing arcs under the current loads:
    /// the maximum, the mean, and the count above the TE threshold (the
    /// per-round `ArcLoads` event and the observatory points).
    fn arc_utilisation(&self) -> (f64, f64, u32) {
        let threshold = self.cfg.te.threshold;
        let mut max_util = 0.0_f64;
        let mut sum_util = 0.0_f64;
        let mut overloaded = 0u32;
        let mut n = 0u64;
        for a in self.topo.arc_ids() {
            let c = self.topo.arc(a).capacity;
            if c <= 0.0 {
                continue;
            }
            let util = self.loads[a.idx()] / c;
            max_util = max_util.max(util);
            sum_util += util;
            n += 1;
            if util > threshold {
                overloaded += 1;
            }
        }
        let mean_util = if n == 0 { 0.0 } else { sum_util / n as f64 };
        (max_util, mean_util, overloaded)
    }

    /// Whether an agent's decision can be skipped outright: nothing it
    /// observes has changed since its last decision and the policy is a
    /// pure function of the observation, so the skipped call would
    /// return exactly the shares already installed. Load changes reach
    /// the per-flow observation flags through the load flush.
    fn can_skip_decision(&self, fi: usize) -> bool {
        self.policy_memoryless && !self.flows[fi].obs_dirty
    }

    /// One phase-jittered agent's decision against fresh loads.
    fn agent_control(&mut self, fi: usize) {
        if self.now + 1e-12 < self.cfg.te_start || fi >= self.flows.len() {
            return;
        }
        if self.can_skip_decision(fi) {
            if S::ENABLED {
                self.sink.add(Counter::SkippedClean, 1);
            }
            return;
        }
        self.flows[fi].obs_dirty = false;
        let wf_before = if S::ENABLED {
            waterfill_iterations()
        } else {
            0
        };
        let mut shares = std::mem::take(&mut self.scratch.shares);
        self.decide_flow_into(fi, &mut shares);
        if S::ENABLED {
            let dw = waterfill_iterations() - wf_before;
            self.sink.add(Counter::AgentDecisions, 1);
            self.sink.add(Counter::WaterfillIterations, dw);
            self.sink.observe(Hist::WaterfillPerDecision, dw as f64);
        }
        let mut to_wake = std::mem::take(&mut self.scratch.to_wake);
        let mut to_sleepcheck = std::mem::take(&mut self.scratch.to_sleepcheck);
        to_wake.clear();
        to_sleepcheck.clear();
        if S::SPANS {
            self.sink.span_enter(SpanName::RoundApply);
        }
        if self.apply_flow_shares(fi, &shares, &mut to_wake, &mut to_sleepcheck) {
            self.reconfig_count += 1;
            if S::ENABLED {
                self.sink.add(Counter::ShareChanges, 1);
            }
        }
        if S::SPANS {
            self.sink.span_exit(SpanName::RoundApply);
            self.sink.span_enter(SpanName::RoundInstall);
        }
        self.commit_power_transitions(&to_wake, &to_sleepcheck);
        if S::SPANS {
            self.sink.span_exit(SpanName::RoundInstall);
        }
        self.scratch.shares = shares;
        self.scratch.to_wake = to_wake;
        self.scratch.to_sleepcheck = to_sleepcheck;
    }

    /// Power-state view of the network right now.
    pub fn active_set(&self) -> ActiveSet {
        let mut s = ActiveSet::all_off(self.topo);
        for l in self.topo.link_ids() {
            let on =
                !self.link_down(l) && !matches!(self.link_state[l.idx()], LinkPowerState::Sleeping);
            if on {
                s.set_link(self.topo, l, true);
                s.set_node(self.topo.arc(l).src, true);
                s.set_node(self.topo.arc(l).dst, true);
            }
        }
        // Flow endpoints are hosts/edge routers that stay on.
        for fl in &self.flows {
            s.set_node(fl.origin, true);
            s.set_node(fl.dst, true);
        }
        s
    }

    /// [`Simulation::power_w`] through the power cache: recomputed only
    /// when a power-state write has cleared the cache since the last
    /// read (debug-checked against a fresh computation on every read).
    fn sampled_power_w(&mut self) -> f64 {
        let w = match self.power_cache {
            Some(w) => w,
            None => *self.power_cache.insert(self.power_w()),
        };
        debug_assert_eq!(
            w.to_bits(),
            self.power_w().to_bits(),
            "power cache missed an invalidation"
        );
        w
    }

    /// Append one series row: the delivered rate on every installed
    /// path, flow by flow, and the scalar readings. Every `ts_every`-th
    /// row also becomes an observatory point.
    fn take_sample(&mut self) {
        if S::ENABLED {
            self.sink.add(Counter::Samples, 1);
        }
        let mut offered_total = 0.0;
        let mut delivered_total = 0.0;
        for fl in &self.flows {
            offered_total += fl.offered;
            let mut flow_delivered = 0.0;
            for pi in 0..fl.paths.len() {
                let r = self.path_delivery(fl, pi);
                flow_delivered += r;
                self.series.push_rate(r);
            }
            delivered_total += flow_delivered;
        }
        let power_w = self.sampled_power_w();
        let sample = Sample {
            t: self.now,
            power_w,
            power_frac: power_w / self.full_power_w,
            offered_total,
            delivered_total,
        };
        self.series.end_row(sample);
        let row = self.series.samples().len() - 1;
        if self.ts_every.is_some_and(|k| row.is_multiple_of(k)) {
            let (max_util, _, overloaded_arcs) = self.arc_utilisation();
            self.ts_points.push(TimeseriesPoint {
                t: sample.t,
                delivered_fraction: if offered_total > 0.0 {
                    delivered_total / offered_total
                } else {
                    1.0
                },
                power_frac: sample.power_frac,
                max_util,
                overloaded_arcs,
                reconfig_count: self.reconfig_count,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_topo::gen::fig3_click;
    use respons_core::tables::OdPaths;

    /// Hand-built Fig-3 tables exactly as the paper describes: middle
    /// always-on, upper/lower on-demand doubling as failover.
    fn click_setup() -> (ecp_topo::Topology, ecp_topo::gen::Fig3Nodes, PathTables) {
        let (t, n) = fig3_click();
        let mut pt = PathTables::new();
        pt.insert(
            n.a,
            n.k,
            OdPaths {
                always_on: Path::new(vec![n.a, n.e, n.h, n.k]),
                on_demand: vec![Path::new(vec![n.a, n.d, n.g, n.k])],
                failover: Path::new(vec![n.a, n.d, n.g, n.k]),
            },
        );
        pt.insert(
            n.c,
            n.k,
            OdPaths {
                always_on: Path::new(vec![n.c, n.e, n.h, n.k]),
                on_demand: vec![Path::new(vec![n.c, n.f, n.j, n.k])],
                failover: Path::new(vec![n.c, n.f, n.j, n.k]),
            },
        );
        (t, n, pt)
    }

    fn click_cfg() -> SimConfig {
        SimConfig {
            control_interval: 0.1, // ~ max RTT (6 hops x 16.67ms)
            wake_time: 0.01,
            detect_delay: 0.1,
            sleep_after: 0.2,
            sample_interval: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn flows_start_on_always_on_and_on_demand_sleeps() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        let fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
        sim.run_until(2.0);
        assert!((sim.delivered_rate(fa) - 2.5e6).abs() < 1.0);
        assert!((sim.delivered_rate(fc) - 2.5e6).abs() < 1.0);
        // Upper and lower paths (6 links total, but only the 4 not shared
        // with always-on... in fig3: A-D, D-G, G-K, C-F, F-J, J-K) sleep.
        assert_eq!(sim.sleeping_links(), 6);
        // Power below full.
        assert!(sim.power_w() < pm.full_power(&t));
    }

    #[test]
    fn overload_wakes_on_demand_path() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2e6);
        let fc = sim.add_flow(&pt, n.c, n.k, 2e6);
        sim.run_until(1.0);
        let sleeping_before = sim.sleeping_links();
        // Raise demand beyond the middle link's 90% threshold.
        sim.schedule_demand(1.0, fa, 6e6);
        sim.schedule_demand(1.0, fc, 6e6);
        sim.run_until(3.0);
        assert!(
            sim.sleeping_links() < sleeping_before,
            "on-demand links woke up"
        );
        let da = sim.delivered_rate(fa);
        assert!(
            (da - 6e6).abs() < 1e4,
            "full demand delivered after spill: {da}"
        );
    }

    #[test]
    fn failure_shifts_to_failover_within_detection_plus_rounds() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        let _fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
        sim.run_until(1.0);
        // Fail the middle link E-H.
        let eh = t.find_arc(n.e, n.h).unwrap();
        sim.schedule_link_failure(1.0, eh);
        sim.run_until(1.05);
        // Before detection (100 ms), traffic is black-holed.
        assert!(
            sim.delivered_rate(fa) < 1e5,
            "traffic lost before detection"
        );
        sim.run_until(2.0);
        // After detection + wake, delivery is restored on the failover.
        let da = sim.delivered_rate(fa);
        assert!((da - 2.5e6).abs() < 1e4, "restored on failover: {da}");
        let rates = sim.per_path_delivered(fa);
        assert_eq!(rates[0], 0.0, "always-on path dead");
        assert!(rates[1] > 0.0, "on-demand/failover carries");
    }

    #[test]
    fn traffic_returns_after_repair() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        let eh = t.find_arc(n.e, n.h).unwrap();
        sim.schedule_link_failure(0.5, eh);
        sim.schedule_link_repair(2.0, eh);
        sim.run_until(4.0);
        let rates = sim.per_path_delivered(fa);
        assert!(rates[0] > 2.4e6, "aggregated back on always-on: {rates:?}");
    }

    #[test]
    fn congestion_throttles_proportionally() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        // Use a degenerate TE config that never moves traffic (step tiny,
        // threshold above 1 so always-on looks fine) to observe raw
        // throttling.
        let mut cfg = click_cfg();
        cfg.te.threshold = 10.0;
        let mut sim = Simulation::new(&t, &pm, &pt, cfg);
        let fa = sim.add_flow(&pt, n.a, n.k, 8e6);
        let fc = sim.add_flow(&pt, n.c, n.k, 8e6);
        sim.run_until(1.0);
        // Both on the 10 Mbps middle: each delivered ~5 Mbps.
        let da = sim.delivered_rate(fa);
        let dc = sim.delivered_rate(fc);
        assert!((da - 5e6).abs() < 1e5, "{da}");
        assert!((dc - 5e6).abs() < 1e5, "{dc}");
    }

    #[test]
    fn adaptation_latency_is_a_few_control_rounds() {
        // Paper (Fig. 7): consolidation happens ~200 ms after TE starts
        // (2 RTTs with T = RTT = 100 ms).
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        // Spread shares to mimic pre-TE state (wakes the on-demand
        // path's links immediately, like the Fig. 7 setup).
        sim.set_shares(fa, vec![0.5, 0.5]);
        sim.run_until(0.5);
        let rates = sim.per_path_delivered(fa);
        assert!(
            rates[1] < 1e4,
            "within ~0.5s the on-demand share was drained: {rates:?}"
        );
    }

    #[test]
    fn sample_series_recorded() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let _ = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        sim.run_until(1.0);
        let samples = sim.series().samples();
        assert!(samples.len() >= 20, "50 ms sampling over 1 s");
        let last = samples.last().unwrap();
        assert!(last.t <= 1.0 + 1e-9);
        assert!(last.power_frac > 0.0 && last.power_frac < 1.0);
        assert!((last.offered_total - 2.5e6).abs() < 1.0);
    }

    #[test]
    fn rows_widen_when_a_flow_joins() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        sim.set_shares(fa, vec![0.5, 0.5]);
        sim.run_until(1.0);
        let before = sim.series().samples().len();
        let _ = sim.add_flow(&pt, n.c, n.k, 2.5e6);
        sim.run_until(2.0);
        let rows: Vec<_> = sim.series().rows().collect();
        assert!(before >= 20 && rows.len() > before + 10);
        for (i, (s, rates)) in rows.iter().enumerate() {
            let flows = if i < before { 1 } else { 2 };
            assert_eq!(rates.ends.len(), flows, "row at t = {}", s.t);
            assert_eq!(rates.rates.len(), 2 * flows, "two paths per flow");
            let delivered: f64 = rates.iter().map(|f| f.iter().sum::<f64>()).sum();
            assert_eq!(delivered, s.delivered_total);
        }
        // The stability analysis skips the one pair of rows that
        // straddles the join, so the join is no reconfiguration.
        let churn = |rows: &[(&Sample, ecp_control::PathRates)]| {
            ecp_control::analyze(rows.iter().copied(), &Default::default()).churn_moves
        };
        assert_eq!(
            churn(&rows),
            churn(&rows[..before]) + churn(&rows[before..])
        );
    }

    #[test]
    fn node_failure_fails_all_adjacent_links_and_repairs() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        // Kill router E: the always-on path A-E-H-K dies, failover takes
        // over; repairing E brings traffic back to always-on.
        sim.schedule(1.0, SimEvent::NodeFail { node: n.e });
        sim.schedule(3.0, SimEvent::NodeRepair { node: n.e });
        sim.run_until(2.5);
        let rates = sim.per_path_delivered(fa);
        assert_eq!(rates[0], 0.0, "always-on path through E dead");
        assert!(rates[1] > 2.4e6, "failover carries: {rates:?}");
        sim.run_until(5.0);
        let rates = sim.per_path_delivered(fa);
        assert!(
            rates[0] > 2.4e6,
            "back on always-on after node repair: {rates:?}"
        );
    }

    #[test]
    fn node_repair_does_not_resurrect_independently_failed_link() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
        // The link E-H fails on its own until t = 6; independently, node
        // E has a maintenance window ending at t = 2. The node repair
        // must NOT bring E-H back early.
        let eh = t.find_arc(n.e, n.h).unwrap();
        sim.schedule_link_failure(0.5, eh);
        sim.schedule_link_repair(6.0, eh);
        sim.schedule(1.0, SimEvent::NodeFail { node: n.e });
        sim.schedule(2.0, SimEvent::NodeRepair { node: n.e });
        sim.run_until(4.0);
        let rates = sim.per_path_delivered(fa);
        assert_eq!(
            rates[0], 0.0,
            "E-H still failed after node repair: {rates:?}"
        );
        assert!(rates[1] > 2.4e6, "failover carries meanwhile: {rates:?}");
        sim.run_until(8.0);
        let rates = sim.per_path_delivered(fa);
        assert!(
            rates[0] > 2.4e6,
            "back on always-on after the real repair: {rates:?}"
        );
    }

    #[test]
    fn wake_time_reconfiguration_applies_at_event_time() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 2e6);
        sim.run_until(1.0);
        // Make wake-ups very slow, then overload the always-on path.
        sim.schedule(1.0, SimEvent::SetWakeTime { wake_time: 4.0 });
        sim.schedule_demand(1.5, fa, 9.5e6);
        sim.run_until(3.0);
        // The on-demand path is still waking: demand cannot be met.
        assert!(sim.delivered_rate(fa) < 9.5e6 - 1e4, "stalled on slow wake");
        sim.run_until(7.0);
        assert!(
            (sim.delivered_rate(fa) - 9.5e6).abs() < 1e4,
            "met after the long wake"
        );
    }

    #[test]
    fn te_reconfiguration_changes_spill_behavior() {
        let (t, n, pt) = click_setup();
        let pm = ecp_power::PowerModel::cisco12000();
        let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
        let fa = sim.add_flow(&pt, n.a, n.k, 4e6);
        sim.run_until(1.0);
        // 4 Mbps on a 10 Mbps link is fine at threshold 0.9; dropping the
        // threshold to 0.3 (3 Mbps budget) forces a spill to on-demand.
        let before = sim.per_path_delivered(fa);
        assert!(before[1] < 1e3, "no spill at default threshold: {before:?}");
        let te = TeConfig {
            threshold: 0.3,
            ..Default::default()
        };
        sim.schedule(1.0, SimEvent::SetTeConfig { te });
        sim.run_until(3.0);
        let after = sim.per_path_delivered(fa);
        assert!(
            after[1] > 1e5,
            "tighter threshold spills to on-demand: {after:?}"
        );
    }

    #[test]
    fn stepping_api_is_equivalent_to_run_until() {
        let run_with = |stepping: bool| {
            let (t, n, pt) = click_setup();
            let pm = ecp_power::PowerModel::cisco12000();
            let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
            let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
            sim.schedule_demand(1.0, fa, 7e6);
            if stepping {
                while sim.next_event_time().is_some_and(|t| t <= 3.0) {
                    sim.step();
                }
            } else {
                sim.run_until(3.0);
            }
            sim.series()
                .samples()
                .iter()
                .map(|s| (s.power_w, s.delivered_total))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_with(true), run_with(false));
    }

    #[test]
    fn desync_policy_still_converges_and_is_deterministic() {
        let run = || {
            let (t, n, pt) = click_setup();
            let pm = ecp_power::PowerModel::cisco12000();
            let mut sim = Simulation::with_policy(
                &t,
                &pm,
                &pt,
                click_cfg(),
                Box::new(ecp_control::Desync::new(11)),
            );
            let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
            let fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
            sim.set_shares(fa, vec![0.5, 0.5]);
            sim.set_shares(fc, vec![0.5, 0.5]);
            sim.run_until(3.0);
            let rates_a = sim.per_path_delivered(fa);
            let rates_c = sim.per_path_delivered(fc);
            // Phase-jittered agents still aggregate on the always-on path.
            assert!(rates_a[0] > 2.4e6, "aggregated: {rates_a:?}");
            assert!(rates_c[0] > 2.4e6, "aggregated: {rates_c:?}");
            sim.series()
                .samples()
                .iter()
                .map(|s| (s.power_w, s.delivered_total))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn damped_policies_still_fail_over_promptly() {
        let policies: Vec<(&str, Box<dyn ecp_control::ControlPolicy>)> = vec![
            ("ewma", Box::new(ecp_control::Ewma::new(0.3))),
            (
                "hysteresis",
                Box::new(ecp_control::Hysteresis::new(0.15, 0.02)),
            ),
            (
                "damped-step",
                Box::new(ecp_control::DampedStep::new(0.5, 2)),
            ),
            ("desync", Box::new(ecp_control::Desync::new(5))),
        ];
        for (name, policy) in policies {
            let (t, n, pt) = click_setup();
            let pm = ecp_power::PowerModel::cisco12000();
            let mut sim = Simulation::with_policy(&t, &pm, &pt, click_cfg(), policy);
            let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
            let _fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
            sim.run_until(1.0);
            let eh = t.find_arc(n.e, n.h).unwrap();
            sim.schedule_link_failure(1.0, eh);
            sim.run_until(2.0);
            let da = sim.delivered_rate(fa);
            assert!(
                (da - 2.5e6).abs() < 1e4,
                "{name}: restored on failover within detection + rounds: {da}"
            );
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (t, n, pt) = click_setup();
            let pm = ecp_power::PowerModel::cisco12000();
            let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
            let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
            let fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
            sim.schedule_demand(1.0, fa, 7e6);
            sim.schedule_demand(2.0, fc, 7e6);
            sim.run_until(3.0);
            sim.series()
                .samples()
                .iter()
                .map(|s| (s.power_w, s.delivered_total))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// A traced simulation (JSONL sink) must produce exactly the same
    /// dynamics as an untraced one — telemetry observes, never steers —
    /// and must record the expected events along the way.
    #[test]
    fn traced_run_matches_untraced_and_records_events() {
        use ecp_telemetry::JsonlSink;
        // Runs the same script traced (Some sink + series) or untraced.
        fn scripted(traced: bool) -> (Vec<(f64, f64)>, Option<JsonlSink>) {
            let (t, n, pt) = click_setup();
            let pm = ecp_power::PowerModel::cisco12000();
            macro_rules! drive {
                ($sim:ident) => {{
                    let fa = $sim.add_flow(&pt, n.a, n.k, 2.5e6);
                    $sim.schedule_demand(1.0, fa, 7e6);
                    let eh = t.find_arc(n.e, n.h).unwrap();
                    $sim.schedule_link_failure(1.5, eh);
                    $sim.schedule_link_repair(2.0, eh);
                    $sim.run_until(3.0);
                    $sim.series()
                        .samples()
                        .iter()
                        .map(|s| (s.power_w, s.delivered_total))
                        .collect::<Vec<(f64, f64)>>()
                }};
            }
            if traced {
                let mut sim = Simulation::with_telemetry(
                    &t,
                    &pm,
                    &pt,
                    click_cfg(),
                    Box::new(Undamped),
                    JsonlSink::new(),
                );
                let series = drive!(sim);
                (series, Some(sim.finish().2))
            } else {
                let mut sim = Simulation::new(&t, &pm, &pt, click_cfg());
                let series = drive!(sim);
                assert!(sim.telemetry_snapshot().is_none(), "noop sink snapshots");
                (series, None)
            }
        }
        let (untraced, _) = scripted(false);
        let (series, sink) = scripted(true);
        assert_eq!(series, untraced, "telemetry must not perturb dynamics");
        let sink = sink.unwrap();
        let snap = sink.snapshot().unwrap();
        assert!(snap.counter("events_processed") > 0);
        assert!(snap.counter("control_rounds") > 0);
        assert_eq!(snap.counter("failures_injected"), 1);
        assert_eq!(snap.counter("repairs_injected"), 1);
        assert!(snap.counter("samples") > 0);
        assert!(snap.events > 0);
        // The trace holds failure + repair, both raw and detected.
        let joined = sink.lines().join("\n");
        assert!(joined.contains("\"Failure\""));
        assert!(joined.contains("\"Repair\""));
        assert!(joined.contains("\"ControlRound\""));
        assert!(joined.contains("\"ArcLoads\""));
        assert!(joined.contains("\"PowerTransition\""));
        // Traces are deterministic.
        let (series2, sink2) = scripted(true);
        assert_eq!(series, series2);
        assert_eq!(sink.lines(), sink2.unwrap().lines());
    }
}
