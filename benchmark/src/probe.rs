//! The probe pass of a traced run. Every scenario a workload's operation
//! touches is resolved and run once more, this time through each
//! layer's public function separately — topology build, `resolve`, the
//! planner, the oracle probe, `run_resolved` and its traced and profiled
//! forms — so each layer gets spans of its own, and the simulator's
//! work counters are read from the telemetry snapshot.

use crate::trace::Tracer;
use crate::workloads::{hash_json, run_span};
use ecp_scenario::{
    resolution_key, resolve, run_resolved, run_resolved_profiled, run_resolved_traced, EngineSpec,
    ResolvedScenario, ScaleSpec, Scenario, TablesSpec,
};
use respons_core::Planner;
use std::collections::btree_map::{BTreeMap, Entry};

/// Telemetry counters the probe sums over a workload's simnet runs,
/// with the metric name each is reported under.
pub const COUNTERS: [(&str, &str); 8] = [
    ("events_processed", "simnet.events"),
    ("control_rounds", "simnet.control_rounds"),
    ("dirty_arc_recomputes", "simnet.dirty_arc_recomputes"),
    ("power_transitions", "simnet.power_transitions"),
    ("agent_decisions", "control.agent_decisions"),
    ("skipped_clean", "control.skipped_clean"),
    ("share_changes", "control.share_changes"),
    ("waterfill_iterations", "control.waterfill_iterations"),
];

/// What the probe counted (its timings are in the tracer's spans).
#[derive(Debug, Default)]
pub struct Probe {
    /// Summed counters, keyed by telemetry counter name.
    pub counters: BTreeMap<&'static str, u64>,
    pub trace_lines: u64,
}

/// Probe `items` (label, scenario, whether the operation runs it).
/// `op_hashes` are the operation's output hashes by label; a probe run
/// with the same label must reproduce its hash, and traced and profiled
/// runs must reproduce the plain one. Mismatches go to `failures`.
pub fn probe(
    items: &[(String, Scenario, bool)],
    tr: &mut Tracer,
    op_hashes: &BTreeMap<String, String>,
    failures: &mut Vec<String>,
) -> Result<Probe, String> {
    let mut resolved: BTreeMap<String, ResolvedScenario> = BTreeMap::new();
    for (label, scenario, _) in items {
        if let Entry::Vacant(slot) = resolved.entry(resolution_key(scenario)) {
            slot.insert(probe_resolve(label, scenario, tr, failures)?);
        }
    }

    let mut out = Probe::default();
    for (label, scenario, runs) in items {
        if !runs {
            continue;
        }
        let r = &resolved[&resolution_key(scenario)];
        let plain = tr
            .span(run_span(scenario), |_| run_resolved(scenario, r))
            .map_err(|e| format!("{label}: {e}"))?;
        let plain = hash_json(&plain);
        if op_hashes.get(label).is_some_and(|h| *h != plain) {
            failures.push(format!("{label}: a fresh resolve changed the report"));
        }
        if !matches!(scenario.engine, EngineSpec::Simnet) {
            continue;
        }
        let (report, trace) = tr
            .span("telemetry.run_resolved_traced", |_| {
                run_resolved_traced(scenario, r)
            })
            .map_err(|e| format!("{label} traced: {e}"))?;
        if hash_json(&report) != plain {
            failures.push(format!(
                "{label}: the traced report differs from the plain one"
            ));
        }
        out.trace_lines += trace.lines.len() as u64;
        if let Some(snapshot) = &trace.snapshot {
            for (name, _) in COUNTERS {
                *out.counters.entry(name).or_default() += snapshot.counter(name);
            }
        }
        let (report, ..) = tr
            .span("telemetry.run_resolved_profiled", |_| {
                run_resolved_profiled(scenario, r)
            })
            .map_err(|e| format!("{label} profiled: {e}"))?;
        if hash_json(&report) != plain {
            failures.push(format!(
                "{label}: the profiled report differs from the plain one"
            ));
        }
    }
    Ok(out)
}

/// Resolve one scenario, then repeat its layers one call at a time: the
/// topology build, and — where the tables come from the planner without
/// a demand matrix — the planner on the resolved pairs, whose tables
/// must equal the resolved ones. The oracle probe runs only for
/// scenarios scaled by it, as in the program.
fn probe_resolve(
    label: &str,
    scenario: &Scenario,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> Result<ResolvedScenario, String> {
    tr.span("topo.build", |_| {
        std::hint::black_box(scenario.topology.build())
    });
    let r = tr
        .span("scenario.resolve", |_| resolve(scenario))
        .map_err(|e| format!("resolve {label}: {e}"))?;
    if scenario.planner.peak_level().is_none() {
        let planner = Planner::new(&r.built.topo, &r.power);
        let cfg = scenario.planner.to_config(None);
        let tables = match scenario.tables {
            TablesSpec::Planned => {
                Some(tr.span("core.plan", |_| planner.plan_pairs(&cfg, &r.pairs)))
            }
            TablesSpec::PlannedAllPairs => Some(tr.span("core.plan", |_| planner.plan(&cfg))),
            TablesSpec::OspfInvCap | TablesSpec::Fig3Paper => None,
        };
        if tables.is_some_and(|t| hash_json(&t) != hash_json(&r.tables)) {
            failures.push(format!(
                "{label}: the planner's tables differ from resolve's"
            ));
        }
    }
    if matches!(
        scenario.traffic.scale,
        ScaleSpec::MaxFeasibleFraction { .. }
    ) {
        tr.span("routing.max_feasible_volume", |_| r.max_feasible_volume());
    }
    Ok(r)
}
