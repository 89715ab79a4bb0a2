//! Profiling must be a pure observer: a span-profiled run produces a
//! byte-identical `ScenarioReport` to a plain NoopSink run, for any
//! scenario and control policy. Also pins the deterministic-FakeClock
//! span tree contract at the scenario level.

use ecp_scenario::{
    resolve, resolve_with_sink, run_resolved_traced, run_resolved_with_sink, run_scenario, Clock,
    ControlSpec, EventSpec, FakeClock, MatrixSpec, MonoClock, NodeRef, PairsSpec, ResolveCache,
    ScaleSpec, Scenario, ScenarioBuilder, ScenarioReport, SpanSink, SweepRunner, TimingSnapshot,
    TraceOutput,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use proptest::prelude::*;

/// Resolve and run `scenario` into one profiling sink on `clock`.
fn profile<C: Clock>(
    scenario: &Scenario,
    clock: C,
) -> (ScenarioReport, TraceOutput, TimingSnapshot) {
    let mut sink = SpanSink::with_clock(clock);
    let resolved = resolve_with_sink(scenario, &mut sink).unwrap();
    let (report, trace, mut sink) = run_resolved_with_sink(scenario, &resolved, sink).unwrap();
    (report, trace, sink.timing())
}

/// Run `scenario` through a cache into one wall-clock profiling sink.
fn profile_cached(cache: &ResolveCache, scenario: &Scenario) -> (ScenarioReport, TimingSnapshot) {
    let mut sink = SpanSink::new();
    let resolved = cache.resolve_with_sink(scenario, &mut sink).unwrap();
    let (report, _, mut sink) = run_resolved_with_sink(scenario, &resolved, sink).unwrap();
    (report, sink.timing())
}

/// One of the six registry policy families, parameterized by two
/// generic knobs in `(0, 1)` (mapped into each family's valid range).
fn arb_control() -> impl Strategy<Value = ControlSpec> {
    (0usize..6, 0.05f64..0.95, 0.05f64..0.95).prop_map(|(which, a, b)| match which {
        0 => ControlSpec::Undamped,
        1 => ControlSpec::Ewma { alpha: a },
        2 => ControlSpec::AdaptiveEwma {
            alpha_min: a.min(b),
            alpha_max: a.max(b),
        },
        3 => ControlSpec::Hysteresis {
            gap: a * 0.3,
            dead_band: b * 0.1,
        },
        4 => ControlSpec::DampedStep {
            damp: a * 0.9,
            cooldown_rounds: (b * 3.0) as u32,
        },
        _ => ControlSpec::Desync {
            salt: (a * 100.0) as u64,
        },
    })
}

/// Small seeded scenarios with a failure burst (exercising the
/// failure-handling span path) across random control policies.
fn arb_scenario() -> impl Strategy<Value = ecp_scenario::Scenario> {
    (8usize..13, 0u64..1000, 0.3f64..0.9, 0u64..50, arb_control()).prop_map(
        |(nodes, seed, level, salt, control)| {
            let program = Program::from_shape(
                5.0,
                1.0,
                Shape::Steps {
                    levels: vec![level, 1.0],
                    step_s: 2.5,
                },
            );
            ScenarioBuilder::new("profile-parity")
                .seed(seed)
                .duration_s(5.0)
                .topology(TopoSpec::small_waxman(nodes, seed))
                .pairs(PairsSpec::Random { count: 5 })
                .traffic(
                    MatrixSpec::Gravity,
                    ScaleSpec::MaxFeasibleFraction { fraction: 0.7 },
                    program,
                )
                .event(EventSpec::FailureBurst {
                    start: 2.0,
                    count: 1,
                    spacing_s: 0.5,
                    repair_after_s: 1.0,
                    seed_salt: salt,
                })
                .control(control)
                .build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Profiling observes wall time but never simulation behavior:
    /// the report is byte-identical to an unprofiled run, and the
    /// trace is the unprofiled trace with Span lines interleaved.
    #[test]
    fn profiled_reports_are_byte_identical(scenario in arb_scenario()) {
        let plain = run_scenario(&scenario).unwrap();
        let (profiled, trace, timing) = profile(&scenario, MonoClock::default());
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&profiled).unwrap()
        );

        // The event lines under the Span lines are exactly the traced
        // run's lines, and the aggregated snapshot matches too.
        let (traced_report, traced) =
            run_resolved_traced(&scenario, &resolve(&scenario).unwrap()).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced_report).unwrap()
        );
        let events_only: Vec<&String> = trace
            .lines
            .iter()
            .filter(|l| !l.starts_with("{\"Span\""))
            .collect();
        let traced_lines: Vec<&String> = traced.lines.iter().collect();
        prop_assert_eq!(events_only, traced_lines);
        prop_assert_eq!(&trace.snapshot, &traced.snapshot);

        // The profile actually covers the hot phases.
        prop_assert!(timing.wall_s > 0.0);
        for span in ["event_drain", "round_observe", "round_decide",
                     "round_apply", "round_install", "resolve_topo",
                     "resolve_plan", "scenario_run"] {
            prop_assert!(
                timing.span(span).is_some_and(|s| s.count > 0),
                "missing span {}", span
            );
        }
        prop_assert!(
            timing.span("failure_handling").is_some_and(|s| s.count > 0),
            "failure burst must profile failure handling"
        );
    }

    /// On a FakeClock the whole span tree is deterministic: two
    /// profiled runs agree on every count, duration, and self-time.
    #[test]
    fn fake_clock_span_trees_are_deterministic(scenario in arb_scenario()) {
        let (ra, ta, tma) = profile(&scenario, FakeClock::new(1e-6));
        let (rb, tb, tmb) = profile(&scenario, FakeClock::new(1e-6));
        prop_assert_eq!(
            serde_json::to_string(&ra).unwrap(),
            serde_json::to_string(&rb).unwrap()
        );
        prop_assert_eq!(&ta.lines, &tb.lines, "span lines included");
        prop_assert_eq!(
            serde_json::to_string(&tma).unwrap(),
            serde_json::to_string(&tmb).unwrap()
        );
    }
}

/// Profiling through a `ResolveCache` records hit/miss spans and keeps
/// report parity with the unprofiled cache path.
#[test]
fn cache_profiling_records_hit_and_miss() {
    let scenario = ScenarioBuilder::new("cache-profile")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(2.0)
        .build();
    let cache = ResolveCache::new();
    let (first, timing_miss) = profile_cached(&cache, &scenario);
    assert!(timing_miss
        .span("resolve_cache_miss")
        .is_some_and(|s| s.count == 1));
    assert!(timing_miss.span("resolve_cache_hit").is_none());

    let (second, timing_hit) = profile_cached(&cache, &scenario);
    assert!(timing_hit
        .span("resolve_cache_hit")
        .is_some_and(|s| s.count == 1));
    assert!(timing_hit.span("resolve_cache_miss").is_none());
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
    let plain = ecp_scenario::run_resolved(&scenario, &cache.resolve(&scenario).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&plain).unwrap()
    );
}

/// A failed resolution is returned, not cached: the cache stays empty
/// and the next call plans again instead of replaying the failure.
#[test]
fn cache_does_not_keep_failed_resolutions() {
    let node = NodeRef::ByIndex { index: 0 };
    let scenario = ScenarioBuilder::new("cache-error")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Explicit {
            pairs: vec![(node.clone(), node)],
        })
        .duration_s(2.0)
        .build();
    let cache = ResolveCache::new();
    for attempt in 0..2 {
        let mut sink = SpanSink::with_clock(FakeClock::new(1e-6));
        let err = cache.resolve_with_sink(&scenario, &mut sink).err();
        assert!(
            err.is_some_and(|e| e.to_string().contains("self-loop")),
            "attempt {attempt}: a self-loop pair must fail to resolve"
        );
        assert!(
            cache.is_empty(),
            "attempt {attempt}: the failure was cached"
        );
        // Every attempt plans: no attempt is served a cached failure.
        assert!(sink.timing().span("resolve_cache_hit").is_none());
    }
}

/// Whole-scenario profiling composes with sweep-style parameterization:
/// profiled grid points match their unprofiled twins.
#[test]
fn profiled_sweep_points_match_unprofiled() {
    use ecp_scenario::{Axis, Param};
    let scenario = ScenarioBuilder::new("profile-sweep")
        .topology(TopoSpec::small_waxman(9, 3))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(2.0)
        .build();
    let runner = SweepRunner::new(scenario, vec![Axis::new(Param::Threshold, [0.7, 0.9])]);
    for (_, instance) in runner.instances() {
        let plain = run_scenario(&instance).unwrap();
        let (profiled, _, _) = profile(&instance, MonoClock::default());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&profiled).unwrap()
        );
    }
}
