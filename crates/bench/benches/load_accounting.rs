//! The incremental-load-accounting hot kernels.
//!
//! Two layers of the online TE loop's per-round cost:
//!
//! * `arc_loads`: the from-scratch O(flows × paths × arcs) oracle scan
//!   vs the O(arcs) snapshot of the incrementally-maintained vector —
//!   the observation every control round, sample, and delivery query
//!   needs.
//! * `te_kernel`: the decision halves (`waterfill_target` +
//!   `apply_step`) one agent runs per round.
//!
//! Run offline with `cargo bench -p ecp-bench --bench load_accounting`.
//! With `--features count-allocs` a third layer, `alloc_accounting`,
//! installs the counting global allocator (`ecp-telemetry`) and reports
//! heap allocations per control round alongside the wall-clock; CI pins
//! the decision path at 0.0 allocs/round for every policy arm, and the
//! traced path of one arm at one allocation per trace line (the stored
//! line itself) plus the line vector's doubling growth.
//! Whole-scenario timings live in the repository benchmark
//! (`benchmark/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecp_scenario::ControlSpec;
use ecp_simnet::{SimConfig, Simulation};
use respons_core::te::{apply_step, waterfill_target, PathView};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING_ALLOC: ecp_telemetry::alloc_count::CountingAllocator =
    ecp_telemetry::alloc_count::CountingAllocator;

/// A running te-stability simulation (PoP-access ISP, 44 gravity
/// pairs), advanced past the initial transient so the share state is
/// the oscillating steady state the accounting has to keep up with.
fn warmed_sim(
    resolved: &ecp_scenario::ResolvedScenario,
) -> (Simulation<'_>, Vec<ecp_simnet::FlowId>) {
    let cfg = SimConfig {
        control_interval: 0.5,
        wake_time: 5.0,
        detect_delay: 0.5,
        sleep_after: 2.0,
        sample_interval: 0.5,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&resolved.built.topo, &resolved.power, &resolved.tables, cfg);
    let flows = resolved
        .pairs
        .iter()
        .map(|&(o, d)| sim.add_flow(&resolved.tables, o, d, 2e7))
        .collect();
    sim.run_until(5.0);
    (sim, flows)
}

fn arc_loads(c: &mut Criterion) {
    let scenario = ecp_bench::scenarios::te_stability(10.0, 0.7, ControlSpec::Undamped);
    let resolved = ecp_scenario::resolve(&scenario).expect("te-stability resolves");
    let (sim, _) = warmed_sim(&resolved);
    let mut g = c.benchmark_group("arc_loads");
    g.bench_with_input(BenchmarkId::from_parameter("scratch"), &(), |b, _| {
        b.iter(|| sim.arc_loads_scratch())
    });
    g.bench_with_input(BenchmarkId::from_parameter("incremental"), &(), |b, _| {
        // What a control round pays with incremental accounting: one
        // O(arcs) snapshot of the maintained vector.
        b.iter(|| sim.current_arc_loads().to_vec())
    });
    g.finish();
}

fn te_kernel(c: &mut Criterion) {
    let te = respons_core::TeConfig::default();
    let mut g = c.benchmark_group("waterfill_apply_step");
    for paths in [2usize, 3, 5] {
        let views: Vec<PathView> = (0..paths)
            .map(|i| PathView {
                headroom: (i as f64 - 0.5) * 4e6,
                available: true,
            })
            .collect();
        let current = vec![1.0 / paths as f64; paths];
        g.bench_with_input(BenchmarkId::from_parameter(paths), &paths, |b, _| {
            b.iter(|| {
                let target = waterfill_target(1.2e7, &views);
                apply_step(&views, &current, &target, te.step, te.min_share)
            })
        });
    }
    g.finish();
}

/// A warmed te-stability simulation recording into `sink`, whose
/// future event stream is pure decision path: the recorder's sampling
/// interval is pushed past the measured window, so every event from
/// `t = 5 s` on is a control round (plus the phase-jittered per-agent
/// decisions a desync policy schedules within it). Used by
/// `alloc_accounting` so the counted allocations are attributable to
/// observe→decide→apply alone.
#[cfg(feature = "count-allocs")]
fn warmed_decision_sim<'a, S: ecp_telemetry::TelemetrySink>(
    resolved: &'a ecp_scenario::ResolvedScenario,
    control: &ControlSpec,
    sink: S,
) -> Simulation<'a, S> {
    let cfg = SimConfig {
        control_interval: 0.5,
        wake_time: 5.0,
        detect_delay: 0.5,
        sleep_after: 2.0,
        sample_interval: 1e9,
        ..SimConfig::default()
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
        sim.add_flow(&resolved.tables, o, d, 2e7);
    }
    sim.run_until(5.0);
    sim
}

/// Allocations per control round in the warmed steady state (feature
/// `count-allocs`; a no-op without it), one arm per te-stability
/// policy so a regression is attributable. Prints the decision-path
/// allocs/round and bytes/round averages — pinned at 0.0 by CI's
/// bench-smoke job — and benches the same region so wall-clock under
/// the counting allocator stays visible next to the untouched layers
/// above. Then runs the first arm traced into a `JsonlSink` and prints
/// its allocation and line counts, which CI holds to one allocation per
/// line plus the line vector's doubling growth: each event is formatted
/// in the sink's reused buffer and stored as one string.
fn alloc_accounting(c: &mut Criterion) {
    #[cfg(not(feature = "count-allocs"))]
    let _ = c;
    #[cfg(feature = "count-allocs")]
    {
        use ecp_telemetry::{alloc_count, JsonlSink, NoopSink};
        // 40 control rounds at the 0.5 s interval, single-threaded, so
        // the process-global deltas are this region's allocations only.
        let rounds = 40u64;
        let mut g = c.benchmark_group("alloc_accounting");
        g.sample_size(10);
        for (id, control) in ecp_bench::scenarios::te_stability_policies() {
            let scenario = ecp_bench::scenarios::te_stability(40.0, 0.7, control);
            let resolved = ecp_scenario::resolve(&scenario).expect("te-stability resolves");
            let mut sim = warmed_decision_sim(&resolved, &control, NoopSink);
            let (a0, b0) = (alloc_count::allocations(), alloc_count::bytes_allocated());
            sim.run_until(5.0 + rounds as f64 * 0.5);
            let da = alloc_count::allocations() - a0;
            let db = alloc_count::bytes_allocated() - b0;
            println!(
                "alloc_accounting[{id}]: decision path = {:.1} allocs/round, \
                 {:.0} bytes/round (over {rounds} rounds)",
                da as f64 / rounds as f64,
                db as f64 / rounds as f64
            );
            g.bench_with_input(BenchmarkId::from_parameter(id), &(), |b, _| {
                b.iter(|| {
                    let mut sim = warmed_decision_sim(&resolved, &control, NoopSink);
                    sim.run_until(5.0 + rounds as f64 * 0.5);
                    sim.now()
                })
            });
        }
        g.finish();

        // The traced path, over ten times as many rounds.
        let (id, control) = ecp_bench::scenarios::te_stability_policies().remove(0);
        let scenario = ecp_bench::scenarios::te_stability(40.0, 0.7, control);
        let resolved = ecp_scenario::resolve(&scenario).expect("te-stability resolves");
        let mut sim = warmed_decision_sim(&resolved, &control, JsonlSink::new());
        let l0 = sim.telemetry().lines().len();
        let a0 = alloc_count::allocations();
        sim.run_until(5.0 + 10.0 * rounds as f64 * 0.5);
        let da = alloc_count::allocations() - a0;
        let lines = sim.telemetry().lines().len() - l0;
        println!(
            "alloc_accounting[{id}]: traced path = {da} allocs for {lines} lines \
             (over {} rounds)",
            10 * rounds
        );
    }
}

criterion_group!(benches, arc_loads, te_kernel, alloc_accounting);
criterion_main!(benches);
