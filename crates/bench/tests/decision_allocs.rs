//! The simulator's decision path allocates nothing once warm.
//!
//! Each of the six te-stability policy arms runs the 44 te-stability
//! pairs at scale 1 through repeating demand cycles: every flow steps
//! from 2e8 to 6e8 bps at +10 s and back at +40 s of each 60 s cycle.
//! Two warm-up cycles let the policy's and the simulator's buffers grow
//! to their working size; the cycles after them must make exactly zero
//! heap allocations. A `JsonlSink` twin of each window shows that the
//! window is live — agents decide and shares move in every measured
//! cycle — so the pin cannot slip back to a quiescent window in which
//! nothing is decided. The twins also bound the traced path: one
//! allocation per stored line plus the line vector's growth.
//!
//! The allocation counters are process-global, so this file holds one
//! test. It runs in release builds only: in debug builds `flush_loads`
//! checks the incremental loads against the allocating
//! `arc_loads_scratch()` oracle after every event.
//!
//! ```text
//! cargo test --release -p ecp-bench --test decision_allocs -- --nocapture
//! ```

use ecp_bench::scenarios::{te_stability, te_stability_policies};
use ecp_scenario::{resolve, ControlSpec, ResolvedScenario, Scenario};
use ecp_simnet::{SimConfig, Simulation};
use ecp_telemetry::alloc_count::{allocations, CountingAllocator};
use ecp_telemetry::{Counter, JsonlSink, NoopSink, TelemetrySink};

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// One demand cycle: every flow offers `LOW_BPS`, steps up to
/// `HIGH_BPS` at `UP_S` into the cycle and back down at `DOWN_S`.
const CYCLE_S: f64 = 60.0;
const UP_S: f64 = 10.0;
const DOWN_S: f64 = 40.0;
const LOW_BPS: f64 = 2e8;
const HIGH_BPS: f64 = 6e8;
const WARM_CYCLES: usize = 2;
const MEASURED_CYCLES: usize = 3;

/// The te-stability network under `control`, with every pair's flow
/// scheduled through all the demand cycles. The sampler is pushed past
/// the window: its rows grow the series, which is not the decision
/// path.
fn cycling_sim<'a, S: TelemetrySink>(
    scenario: &Scenario,
    resolved: &'a ResolvedScenario,
    control: &ControlSpec,
    sink: S,
) -> Simulation<'a, S> {
    let cfg = SimConfig {
        sample_interval: 1e9,
        ..scenario.sim.to_config()
    };
    let mut sim = Simulation::with_telemetry(
        &resolved.built.topo,
        &resolved.power,
        &resolved.tables,
        cfg,
        control.build(),
        sink,
    );
    for &(o, d) in &resolved.pairs {
        let f = sim.add_flow(&resolved.tables, o, d, LOW_BPS);
        for c in 0..WARM_CYCLES + MEASURED_CYCLES {
            let t0 = c as f64 * CYCLE_S;
            sim.schedule_demand(t0 + UP_S, f, HIGH_BPS);
            sim.schedule_demand(t0 + DOWN_S, f, LOW_BPS);
        }
    }
    sim
}

/// What one measured cycle of a traced twin did.
#[derive(Debug, Default, Clone, Copy)]
struct CycleWork {
    decisions: u64,
    share_changes: u64,
    power_transitions: u64,
}

fn work(sink: &JsonlSink) -> CycleWork {
    CycleWork {
        decisions: sink.counter(Counter::AgentDecisions),
        share_changes: sink.counter(Counter::ShareChanges),
        power_transitions: sink.counter(Counter::PowerTransitions),
    }
}

struct Arm {
    id: &'static str,
    /// Allocations of the untraced window.
    allocs: u64,
    /// The traced twin's work per measured cycle.
    cycles: [CycleWork; MEASURED_CYCLES],
    /// The traced twin's allocations and stored lines over the window.
    traced_allocs: u64,
    lines: u64,
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds check every event against the allocating arc_loads_scratch() oracle; \
              run with --release"
)]
fn decision_path_allocates_nothing_over_live_demand_cycles() {
    let warm_end = WARM_CYCLES as f64 * CYCLE_S;
    let mut arms = Vec::new();
    for (id, control) in te_stability_policies() {
        let scenario = te_stability(
            (WARM_CYCLES + MEASURED_CYCLES) as f64 * CYCLE_S,
            0.7,
            control,
        );
        let resolved = resolve(&scenario).expect("te-stability resolves");

        let mut sim = cycling_sim(&scenario, &resolved, &control, NoopSink);
        sim.run_until(warm_end);
        let a0 = allocations();
        sim.run_until(warm_end + MEASURED_CYCLES as f64 * CYCLE_S);
        let allocs = allocations() - a0;

        // Counters are read from the sink directly, which allocates
        // nothing, so the traced window is counted whole.
        let mut twin = cycling_sim(&scenario, &resolved, &control, JsonlSink::new());
        twin.run_until(warm_end);
        let (l0, a0) = (twin.telemetry().lines().len(), allocations());
        let mut cycles = [CycleWork::default(); MEASURED_CYCLES];
        for (c, cycle) in cycles.iter_mut().enumerate() {
            let before = work(twin.telemetry());
            twin.run_until(warm_end + (c + 1) as f64 * CYCLE_S);
            let after = work(twin.telemetry());
            *cycle = CycleWork {
                decisions: after.decisions - before.decisions,
                share_changes: after.share_changes - before.share_changes,
                power_transitions: after.power_transitions - before.power_transitions,
            };
        }
        let traced_allocs = allocations() - a0;
        let lines = (twin.telemetry().lines().len() - l0) as u64;
        arms.push(Arm {
            id,
            allocs,
            cycles,
            traced_allocs,
            lines,
        });
    }

    for arm in &arms {
        println!(
            "{}: {} allocations over {MEASURED_CYCLES} cycles; traced twin per cycle \
             (decisions, share changes, power transitions) {:?}; {} allocations for {} lines",
            arm.id,
            arm.allocs,
            arm.cycles
                .map(|c| (c.decisions, c.share_changes, c.power_transitions)),
            arm.traced_allocs,
            arm.lines
        );
    }
    for arm in &arms {
        assert_eq!(arm.allocs, 0, "{}: the decision path allocated", arm.id);
        for (c, cycle) in arm.cycles.iter().enumerate() {
            assert!(
                cycle.decisions > 0 && cycle.share_changes > 0,
                "{}: measured cycle {c} is quiescent: {cycle:?}",
                arm.id
            );
        }
    }
    // The traced path stores each line as one string, and the line
    // vector grows by doubling: A - L <= ceil(log2 L) + 1. A >= L > 0
    // also shows that the counting allocator is installed.
    for arm in &arms {
        let (a, l) = (arm.traced_allocs, arm.lines);
        let growth = u64::from(l.next_power_of_two().trailing_zeros());
        assert!(
            l > 0 && a >= l && a - l <= growth + 1,
            "{}: traced path made {a} allocations for {l} lines (allowed {l} + {})",
            arm.id,
            growth + 1
        );
    }
}
