//! Parity of the incremental load accounting against the from-scratch
//! oracle under arbitrary event scripts.
//!
//! Randomized scripts (demand changes, link/node fail + repair, share
//! moves, wake-time and TE reconfiguration, phased agents) are driven
//! one event at a time, and the proptest asserts that
//!
//! * after *every* event — in release builds too, not only through the
//!   debug assertion in `flush_loads` — the whole incremental state
//!   (loads, cached rates, blocked, known-down and assigned counts, the
//!   per-path contribution column, per-path delivery, the cached power)
//!   matches the from-scratch recomputation bit for bit, and
//! * a twin run whose policy never reports itself memoryless, so no
//!   agent decision is ever skipped, records the exact same sample
//!   series and final deliveries — end-to-end parity of the
//!   clean-agent decision skipping.
//!
//! The exact limit-cycle fast-forward of `run_until` gets four fixed
//! scripts over a loop that settles into a period-2 cycle: it must
//! fast-forward, and equal bit for bit (series, deliveries, trace
//! lines and telemetry snapshot) a twin that never skips — one whose
//! policy is not memoryless, or one driven by `step` — including
//! across a pause with an event scheduled into a would-be skip window
//! and across a delayed TE start.

use ecp_control::{ControlPolicy, Observation};
use ecp_simnet::{JsonlSink, NoopSink, Series, SimConfig, SimEvent, Simulation, TelemetrySink};
use ecp_topo::gen::fig3_click;
use ecp_topo::{ArcId, NodeId, Path};
use proptest::prelude::*;
use respons_core::tables::OdPaths;
use respons_core::{PathTables, TeConfig};

fn click_tables() -> (ecp_topo::Topology, ecp_topo::gen::Fig3Nodes, PathTables) {
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

/// One scripted perturbation, encoded as plain numbers so proptest can
/// shrink it.
type RawEvent = (f64, usize, usize, f64);

fn decode_event(topo: &ecp_topo::Topology, (t, kind, target, value): RawEvent) -> (f64, SimEvent) {
    let links: Vec<ArcId> = topo.link_ids().collect();
    let link = links[target % links.len()];
    let node = NodeId((target % topo.node_count()) as u32);
    let ev = match kind % 7 {
        0 => SimEvent::DemandChange {
            flow: ecp_simnet::FlowId(target % 2),
            rate: value,
        },
        1 => SimEvent::LinkFail { arc: link },
        2 => SimEvent::LinkRepair { arc: link },
        3 => SimEvent::NodeFail { node },
        4 => SimEvent::NodeRepair { node },
        5 => SimEvent::SetWakeTime {
            wake_time: 0.01 + value / 9e6,
        },
        _ => SimEvent::SetTeConfig {
            te: TeConfig {
                threshold: 0.3 + value / 9e6,
                ..TeConfig::default()
            },
        },
    };
    (t, ev)
}

fn policy_of(which: usize) -> Box<dyn ControlPolicy> {
    match which % 6 {
        0 => Box::new(ecp_control::Undamped),
        1 => Box::new(ecp_control::Ewma::new(0.3)),
        2 => Box::new(ecp_control::Desync::new(7)),
        3 => Box::new(ecp_control::AdaptiveEwma::new(0.2, 1.0)),
        4 => Box::new(ecp_control::Hysteresis::new(0.15, 0.02)),
        _ => Box::new(ecp_control::DampedStep::new(0.5, 2)),
    }
}

/// A policy that delegates everything but claims to have memory, so
/// the simulator decides for every agent in every round.
struct NeverSkip(Box<dyn ControlPolicy>);

impl ControlPolicy for NeverSkip {
    fn phase(&self, agent: usize, interval: f64) -> f64 {
        self.0.phase(agent, interval)
    }

    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        self.0.decide(obs, out)
    }

    fn memoryless(&self) -> bool {
        false
    }
}

/// Run the scripted simulation one event at a time, checking the
/// incremental state against the oracle after each; returns the
/// recorded series plus the final per-path delivery of both flows.
fn run_script(
    events: &[RawEvent],
    which_policy: usize,
    spread: bool,
    never_skip: bool,
) -> (Series, Vec<Vec<f64>>) {
    let (t, n, pt) = click_tables();
    let cfg = SimConfig {
        control_interval: 0.1,
        wake_time: 0.01,
        detect_delay: 0.1,
        sleep_after: 0.2,
        sample_interval: 0.05,
        ..Default::default()
    };
    let pm = ecp_power::PowerModel::cisco12000();
    let mut policy = policy_of(which_policy);
    if never_skip {
        policy = Box::new(NeverSkip(policy));
    }
    let mut sim = Simulation::with_policy(&t, &pm, &pt, cfg, policy);
    let fa = sim.add_flow(&pt, n.a, n.k, 2.5e6);
    let fc = sim.add_flow(&pt, n.c, n.k, 2.5e6);
    if spread {
        sim.set_shares(fa, vec![0.5, 0.5]);
        sim.set_shares(fc, vec![0.5, 0.5]);
    }
    assert!(sim.incremental_state_matches_scratch());
    for &raw in events {
        let (at, ev) = decode_event(&t, raw);
        sim.schedule(at, ev);
    }
    const T_END: f64 = 9.0;
    while sim.next_event_time().is_some_and(|at| at <= T_END + 1e-12) {
        let at = sim.step();
        assert!(
            sim.incremental_state_matches_scratch(),
            "incremental state diverged from the from-scratch oracle after the event at {at:?}"
        );
    }
    sim.run_until(T_END);
    let deliveries = vec![sim.per_path_delivered(fa), sim.per_path_delivered(fc)];
    (sim.series().clone(), deliveries)
}

/// A fixed script failing and repairing a node and a link on the
/// always-on paths, so the per-event parity check runs through node
/// failures and all four `*Known` events whatever the proptest draws.
#[test]
fn fixed_script_reaches_node_failures_and_known_events() {
    let (t, n, _) = click_tables();
    let node_e = n.e.idx();
    let eh = t.link_of(t.find_arc(n.e, n.h).unwrap());
    let link_eh = t.link_ids().position(|l| l == eh).unwrap();
    // (time, kind, target, value), kinds as in `decode_event`; each
    // failure and repair is detected 0.1 s later.
    let script = [
        (1.0, 3, node_e, 0.0),
        (2.0, 4, node_e, 0.0),
        (3.0, 1, link_eh, 0.0),
        (4.0, 2, link_eh, 0.0),
        (5.0, 0, 0, 7e6),
        (5.5, 5, 0, 4.5e6),
        (6.0, 6, 0, 4.5e6),
    ];
    for which_policy in 0..6 {
        for spread in [false, true] {
            let (samples, delivery) = run_script(&script, which_policy, spread, false);
            let (twin_samples, twin_delivery) = run_script(&script, which_policy, spread, true);
            assert_eq!(samples, twin_samples);
            assert_eq!(delivery, twin_delivery);
        }
    }
    // Undamped: the detected node failure moves flow A to its failover
    // path, and the detected repair brings it back.
    let (samples, _) = run_script(&script, 0, false, false);
    let rates_at = |t: f64| {
        let (_, rates) = samples
            .rows()
            .filter(|(s, _)| s.t <= t + 1e-9)
            .last()
            .unwrap();
        rates.flow(0)
    };
    assert_eq!(rates_at(1.05)[1], 0.0, "undetected: nothing moved yet");
    assert!(rates_at(1.9)[1] > 2.4e6, "failover after NodeFailureKnown");
    assert!(rates_at(2.9)[0] > 2.4e6, "back after NodeRepairKnown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental state matches the from-scratch oracle after
    /// every event, and skipping clean agents' decisions records
    /// bit-identical series, under arbitrary event scripts and every
    /// control policy.
    #[test]
    fn incremental_is_bit_identical_to_scratch(
        events in proptest::collection::vec(
            (0.0f64..8.0, 0usize..7, 0usize..16, 0.0f64..9e6),
            0..20,
        ),
        spread in proptest::bool::ANY,
    ) {
        for which_policy in 0..6 {
            let (samples, delivery) = run_script(&events, which_policy, spread, false);
            let (twin_samples, twin_delivery) = run_script(&events, which_policy, spread, true);
            prop_assert_eq!(samples, twin_samples);
            prop_assert_eq!(delivery, twin_delivery);
        }
    }
}

// ---- exact limit-cycle fast-forward ---------------------------------------

/// End of the cycling script.
const CYCLE_END_S: f64 = 40.0;
/// The demand steps, each inside a sample window, with the new rate of
/// each flow that changes.
const DEMAND_STEPS: [(f64, &[(usize, f64)]); 2] = [
    (17.35, &[(0, 2e6)]),
    (27.35, &[(0, 5e6), (1, 5e6), (2, 0.0), (3, 0.0)]),
];
/// Where a resumed run pauses before scheduling the demand steps.
const PAUSE_S: f64 = 16.0;

/// How a cycling run is driven.
#[derive(Clone, Copy)]
enum Drive {
    /// One `run_until` to the end.
    RunUntil,
    /// `step` to the end: never fast-forwards.
    Step,
    /// `run_until(PAUSE_S)`, then the demand steps are scheduled, then
    /// `run_until` to the end.
    Resume,
}

/// What a cycling run leaves behind.
struct CycleRun<S> {
    series: Series,
    deliveries: Vec<Vec<f64>>,
    fast_forwarded: u64,
    sink: S,
}

/// Four agents, two per Click pair, at constant demand: the undamped
/// loop settles into a period-2 limit cycle in which every agent moves
/// its shares every round and no link changes power state. The first
/// demand step moves it to another cycle; at the second two agents
/// stop and the other two step up, and the loop converges to a fixed
/// point, whose last rounds repeat their shares with different
/// observation flags. Rounds run every 0.1 s and samples every 5 s, so
/// whole periods fit between samples.
fn cycling_run<S: TelemetrySink>(
    policy: Box<dyn ControlPolicy>,
    sink: S,
    te_start: f64,
    drive: Drive,
) -> CycleRun<S> {
    let (t, n, pt) = click_tables();
    let cfg = SimConfig {
        control_interval: 0.1,
        wake_time: 0.01,
        detect_delay: 0.1,
        sleep_after: 0.2,
        sample_interval: 5.0,
        te_start,
        ..Default::default()
    };
    let pm = ecp_power::PowerModel::cisco12000();
    let mut sim = Simulation::with_telemetry(&t, &pm, &pt, cfg, policy, sink);
    let flows = [
        sim.add_flow(&pt, n.a, n.k, 3e6),
        sim.add_flow(&pt, n.c, n.k, 3e6),
        sim.add_flow(&pt, n.a, n.k, 3.3e6),
        sim.add_flow(&pt, n.c, n.k, 3.15e6),
    ];
    let demand_steps = |sim: &mut Simulation<'_, S>| {
        for (at, changes) in DEMAND_STEPS {
            for &(f, rate) in changes {
                let flow = flows[f];
                sim.schedule(at, SimEvent::DemandChange { flow, rate });
            }
        }
    };
    match drive {
        Drive::RunUntil => {
            demand_steps(&mut sim);
            sim.run_until(CYCLE_END_S);
        }
        Drive::Step => {
            demand_steps(&mut sim);
            while sim
                .next_event_time()
                .is_some_and(|at| at <= CYCLE_END_S + 1e-12)
            {
                sim.step();
            }
            sim.run_until(CYCLE_END_S);
        }
        Drive::Resume => {
            sim.run_until(PAUSE_S);
            demand_steps(&mut sim);
            sim.run_until(CYCLE_END_S);
        }
    }
    let deliveries = flows.iter().map(|&f| sim.per_path_delivered(f)).collect();
    let fast_forwarded = sim.fast_forwarded_rounds();
    let (series, _, sink) = sim.finish();
    CycleRun {
        series,
        deliveries,
        fast_forwarded,
        sink,
    }
}

/// Two traced runs recorded the same trace and the same snapshot, and
/// simulated the same series and deliveries.
fn assert_same_traced_run(a: &CycleRun<JsonlSink>, b: &CycleRun<JsonlSink>) {
    assert_eq!(a.series, b.series);
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.sink.lines(), b.sink.lines());
    assert_eq!(a.sink.snapshot(), b.sink.snapshot());
}

/// The memoryless loop fast-forwards its limit cycles, and a twin whose
/// policy is not memoryless (so it never skips anything) simulates the
/// same rows and final deliveries bit for bit.
#[test]
fn limit_cycles_fast_forward_bit_for_bit() {
    let run = cycling_run(
        Box::new(ecp_control::Undamped),
        NoopSink,
        0.0,
        Drive::RunUntil,
    );
    let twin = cycling_run(
        Box::new(NeverSkip(Box::new(ecp_control::Undamped))),
        NoopSink,
        0.0,
        Drive::RunUntil,
    );
    assert!(
        run.fast_forwarded > 100,
        "the cycling loop fast-forwards: {} rounds",
        run.fast_forwarded
    );
    assert_eq!(twin.fast_forwarded, 0, "a policy with memory never skips");
    assert_eq!(run.series, twin.series);
    assert_eq!(run.deliveries, twin.deliveries);
    // The cycle is live: the traced run changes shares in the rounds
    // just before the first demand step.
    let traced = cycling_run(
        Box::new(ecp_control::Undamped),
        JsonlSink::new(),
        0.0,
        Drive::RunUntil,
    );
    assert_eq!(traced.series, run.series, "telemetry must not steer");
    let late_changes = traced
        .sink
        .lines()
        .iter()
        .filter(|l| l.starts_with("{\"ControlRound\""))
        .filter(|l| !l.contains("\"share_changes\":0,"))
        .filter(|l| l.contains("\"t\":16."))
        .count();
    assert!(
        late_changes > 5,
        "{late_changes} rounds change shares at 16 s"
    );
}

/// A run driven by `step` never fast-forwards, and equals the
/// fast-forwarding `run_until` in everything it records, for every
/// memoryless policy.
#[test]
fn step_driven_twin_equals_run_until() {
    for (name, policy) in [("undamped", 0usize), ("desync", 2), ("hysteresis", 4)] {
        let run = cycling_run(policy_of(policy), JsonlSink::new(), 0.0, Drive::RunUntil);
        let stepped = cycling_run(policy_of(policy), JsonlSink::new(), 0.0, Drive::Step);
        assert_eq!(stepped.fast_forwarded, 0, "{name}: step fast-forwarded");
        assert_same_traced_run(&run, &stepped);
        if name == "undamped" {
            assert!(run.fast_forwarded > 100, "{name}: nothing fast-forwarded");
        }
    }
}

/// A run paused before the demand steps, with the steps scheduled only
/// then, equals the run that had them scheduled from the start: no skip
/// passes the pause, so the late events land in time.
#[test]
fn a_resumed_run_honours_an_event_scheduled_into_a_skip_window() {
    let upfront = cycling_run(
        Box::new(ecp_control::Undamped),
        JsonlSink::new(),
        0.0,
        Drive::RunUntil,
    );
    let resumed = cycling_run(
        Box::new(ecp_control::Undamped),
        JsonlSink::new(),
        0.0,
        Drive::Resume,
    );
    assert!(resumed.fast_forwarded > 100);
    assert_same_traced_run(&upfront, &resumed);
}

/// Rounds before `te_start` do nothing, so they sit at a fixed point;
/// none of them may be skipped over, or the TE loop would start late.
#[test]
fn nothing_is_skipped_across_te_start() {
    let run = cycling_run(
        Box::new(ecp_control::Undamped),
        JsonlSink::new(),
        2.55,
        Drive::RunUntil,
    );
    let stepped = cycling_run(
        Box::new(ecp_control::Undamped),
        JsonlSink::new(),
        2.55,
        Drive::Step,
    );
    assert!(run.fast_forwarded > 100);
    assert_same_traced_run(&run, &stepped);
}
