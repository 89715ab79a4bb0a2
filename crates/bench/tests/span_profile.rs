//! Phase-level span profiles for the te-stability registry family.
//!
//! Every policy arm must produce a complete control-loop profile
//! (event drain plus the observe/decide/apply/install round phases)
//! while its trace stays the traced run's, and on a `FakeClock` the
//! whole profile — span tree, counts, durations — must be deterministic
//! run to run. This is the observability contract the campaign timing
//! sidecars build on. The non-simnet engines go through the same run
//! path and must come out of it untouched by the sink.

use ecp_scenario::{
    resolve, resolve_with_sink, run_resolved_traced, run_resolved_with_sink, run_scenario,
    FakeClock, Scenario, ScenarioReport, SpanSink, TimingSnapshot, TraceOutput,
};

/// Resolve and run `scenario` into one deterministic profiling sink.
fn profile(scenario: &Scenario) -> (ScenarioReport, TraceOutput, TimingSnapshot) {
    let mut sink = SpanSink::with_clock(FakeClock::new(1e-6));
    let resolved = resolve_with_sink(scenario, &mut sink)
        .unwrap_or_else(|e| panic!("{}: resolve failed: {e}", scenario.name));
    let (report, trace, mut sink) = run_resolved_with_sink(scenario, &resolved, sink)
        .unwrap_or_else(|e| panic!("{}: profiled run failed: {e}", scenario.name));
    (report, trace, sink.timing())
}

/// Shortened te-stability shape: same topology/coupling regime as the
/// golden-pinned family, cut to 10 s so six profiled arms stay fast.
fn family_scenario(control: ecp_scenario::ControlSpec) -> ecp_scenario::Scenario {
    ecp_bench::scenarios::te_stability(10.0, 0.7, control)
}

#[test]
fn every_policy_arm_profiles_all_control_phases() {
    for (id, control) in ecp_bench::scenarios::te_stability_policies() {
        let scenario = family_scenario(control);
        let (_, trace, timing) = profile(&scenario);
        let (_, traced) = run_resolved_traced(&scenario, &resolve(&scenario).unwrap())
            .unwrap_or_else(|e| panic!("{id}: traced run failed: {e}"));
        for phase in [
            "event_drain",
            "round_observe",
            "round_decide",
            "round_apply",
            "round_install",
            "resolve_topo",
            "resolve_plan",
            "scenario_run",
        ] {
            let span = timing.span(phase);
            assert!(
                span.is_some_and(|s| s.count > 0),
                "{id}: phase `{phase}` missing from the profile"
            );
        }
        // Spans stay out of the trace: the profiled lines are the
        // traced run's. Every percentile is well-formed.
        assert!(
            !traced.lines.is_empty(),
            "{id}: the traced run records lines"
        );
        assert_eq!(trace.lines, traced.lines, "{id}: profiled trace");
        for s in &timing.spans {
            assert!(
                s.p50_s <= s.p95_s && s.p95_s <= s.p99_s,
                "{id}/{}: percentiles out of order ({} / {} / {})",
                s.name,
                s.p50_s,
                s.p95_s,
                s.p99_s
            );
            assert!(
                s.self_s <= s.total_s + 1e-12,
                "{id}/{}: self time exceeds total",
                s.name
            );
        }
    }
}

#[test]
fn fake_clock_profiles_are_deterministic_per_arm() {
    for (id, control) in ecp_bench::scenarios::te_stability_policies() {
        let scenario = family_scenario(control);
        let (ra, ta, tma) = profile(&scenario);
        let (rb, tb, tmb) = profile(&scenario);
        assert_eq!(
            serde_json::to_string(&ra).unwrap(),
            serde_json::to_string(&rb).unwrap(),
            "{id}: reports diverged"
        );
        assert_eq!(ta.lines, tb.lines, "{id}: profiled traces diverged");
        assert_eq!(
            serde_json::to_string(&tma).unwrap(),
            serde_json::to_string(&tmb).unwrap(),
            "{id}: timing snapshots diverged"
        );
    }
}

/// Replay, packet and app runs share the simnet engine's run path but
/// are not instrumented inside it: the sink never changes their report,
/// and neither a traced nor a profiled run records a line. None of them
/// has a telemetry snapshot; the profile still times the run.
#[test]
fn non_simnet_engines_ignore_the_sink() {
    for id in [
        "fig1a-traffic-deviation",
        "extension-packet-latency-response",
        "text-web-response",
    ] {
        let scenario = ecp_bench::scenarios::campaign_scenario(id).unwrap();
        let plain = serde_json::to_string(&run_scenario(&scenario).unwrap()).unwrap();

        let (traced, trace) = run_resolved_traced(&scenario, &resolve(&scenario).unwrap())
            .unwrap_or_else(|e| panic!("{id}: traced run failed: {e}"));
        assert_eq!(
            serde_json::to_string(&traced).unwrap(),
            plain,
            "{id}: traced report"
        );
        assert!(trace.lines.is_empty(), "{id}: traced run recorded lines");
        assert_eq!(trace.snapshot, None, "{id}: traced snapshot");

        let (profiled, trace, timing) = profile(&scenario);
        assert_eq!(
            serde_json::to_string(&profiled).unwrap(),
            plain,
            "{id}: profiled report"
        );
        assert!(trace.lines.is_empty(), "{id}: profiled run recorded lines");
        assert_eq!(trace.snapshot, None, "{id}: profiled snapshot");
        assert!(timing.span("scenario_run").is_some_and(|s| s.count == 1));
    }
}
