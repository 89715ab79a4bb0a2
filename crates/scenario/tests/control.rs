//! Control-spec behavior at the scenario layer: validation (control
//! parameters and simulator timing), engine gating, sweep axes, and the
//! stability analyzer attachment.

use ecp_control::{PathRates, Sample, StabilityConfig};
use ecp_scenario::{
    grid, run_scenario, Axis, ControlSpec, EngineSpec, EventSpec, FlowProgram, LinkRef, MatrixSpec,
    MetricsSpec, NodeRef, PairsSpec, Param, ReplayMode, ReplaySpec, ScaleSpec, Scenario,
    ScenarioBuilder, ScenarioError, TraceSpec, MAX_NUM_PATHS,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};

/// A small deterministic simnet scenario that actually exercises the
/// control loop (step overload program over a seeded Waxman WAN).
fn base(control: ControlSpec) -> Scenario {
    ScenarioBuilder::new("control-test")
        .seed(5)
        .duration_s(6.0)
        .topology(TopoSpec::small_waxman(10, 5))
        .pairs(PairsSpec::Random { count: 6 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.9 },
            Program::from_shape(
                6.0,
                1.0,
                Shape::Steps {
                    levels: vec![0.5, 1.2],
                    step_s: 1.5,
                },
            ),
        )
        .control(control)
        .metrics(MetricsSpec {
            power_series: true,
            delivered_series: true,
            per_path_rates: true,
            stability: true,
            ..Default::default()
        })
        .build()
}

#[test]
fn every_policy_runs_and_attaches_stability() {
    for control in [
        ControlSpec::Undamped,
        ControlSpec::Ewma { alpha: 0.4 },
        ControlSpec::Hysteresis {
            gap: 0.2,
            dead_band: 0.02,
        },
        ControlSpec::DampedStep {
            damp: 0.5,
            cooldown_rounds: 2,
        },
        ControlSpec::Desync { salt: 9 },
    ] {
        let report = run_scenario(&base(control)).unwrap();
        let st = report
            .stability
            .unwrap_or_else(|| panic!("{}: stability attached", control.label()));
        assert!(st.duration_s > 5.0, "{}: {st:?}", control.label());
        assert!(
            report.mean_delivered_fraction > 0.5,
            "{}: delivers most traffic",
            control.label()
        );
    }
}

/// One series row as the report serializes it: per-flow nested vectors,
/// the representation the flat series replaced.
#[derive(serde::Deserialize)]
struct NestedRow {
    t: f64,
    power_w: f64,
    power_frac: f64,
    offered_total: f64,
    delivered_total: f64,
    per_flow_path_rates: Vec<Vec<f64>>,
}

/// The stability analysis over the series' borrowed rows equals the
/// same analysis over the nested per-flow vectors of the serialized
/// report, flattened row by row in the test.
#[test]
fn stability_over_borrowed_rows_matches_nested_oracle() {
    for control in [ControlSpec::Undamped, ControlSpec::Desync { salt: 9 }] {
        let report = run_scenario(&base(control)).unwrap();
        let json = serde_json::to_string(report.per_path_samples.as_ref().unwrap()).unwrap();
        let nested: Vec<NestedRow> = serde_json::from_str(&json).unwrap();
        let flat: Vec<(Sample, Vec<f64>, Vec<u32>)> = nested
            .iter()
            .map(|row| {
                let mut ends = Vec::new();
                for f in &row.per_flow_path_rates {
                    ends.push(ends.last().unwrap_or(&0) + f.len() as u32);
                }
                let sample = Sample {
                    t: row.t,
                    power_w: row.power_w,
                    power_frac: row.power_frac,
                    offered_total: row.offered_total,
                    delivered_total: row.delivered_total,
                };
                (sample, row.per_flow_path_rates.concat(), ends)
            })
            .collect();
        let rows = flat
            .iter()
            .map(|(s, rates, ends)| (s, PathRates { rates, ends }));
        let oracle = ecp_control::analyze(rows, &StabilityConfig::default());
        assert!(
            oracle.churn_moves > 0,
            "{}: the run reconfigures",
            control.label()
        );
        assert_eq!(report.stability, Some(oracle), "{}", control.label());
    }
}

#[test]
fn malformed_control_values_are_typed_invalid_errors() {
    let cases = [
        ControlSpec::Ewma { alpha: 0.0 },
        ControlSpec::Ewma { alpha: 1.5 },
        ControlSpec::Ewma { alpha: f64::NAN },
        ControlSpec::Hysteresis {
            gap: -0.1,
            dead_band: 0.0,
        },
        ControlSpec::Hysteresis {
            gap: 1.0,
            dead_band: 0.0,
        },
        ControlSpec::Hysteresis {
            gap: 0.2,
            dead_band: -1.0,
        },
        ControlSpec::DampedStep {
            damp: 1.0,
            cooldown_rounds: 0,
        },
        ControlSpec::DampedStep {
            damp: -0.5,
            cooldown_rounds: 0,
        },
    ];
    for control in cases {
        let err = run_scenario(&base(control)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Invalid(_)),
            "{control:?}: got {err:?}"
        );
        assert_eq!(err.kind(), "invalid");
    }
}

/// Periods the event loop cannot advance on: zero or negative (the
/// event re-schedules itself at or before the same instant forever),
/// NaN (misordered in the queue) and infinite.
const BAD_PERIODS: [f64; 4] = [0.0, -1.0, f64::NAN, f64::INFINITY];
/// Delays and start times that are negative or not finite.
const BAD_DELAYS: [f64; 4] = [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// Every `bad` value of one timing field makes `run_scenario` return
/// `Invalid` naming the field, before anything is simulated.
fn assert_rejected(field: &str, bad: &[f64], set: impl Fn(&mut Scenario, f64)) {
    assert_rejected_on(&[base(ControlSpec::Undamped)], field, bad, set);
}

/// [`assert_rejected`] on each of `bases`.
fn assert_rejected_on(
    bases: &[Scenario],
    field: &str,
    bad: &[f64],
    set: impl Fn(&mut Scenario, f64),
) {
    for b in bases {
        for &v in bad {
            let mut s = b.clone();
            set(&mut s, v);
            let err = run_scenario(&s).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid(_)),
                "{}: {field} = {v}: got {err:?}",
                b.name
            );
            assert!(
                err.to_string().contains(field),
                "{}: {field} = {v}: {err}",
                b.name
            );
        }
    }
}

#[test]
fn degenerate_control_interval_is_invalid() {
    assert_rejected("control_interval_s", &BAD_PERIODS, |s, v| {
        s.sim.control_interval_s = v
    });
}

#[test]
fn degenerate_sample_interval_is_invalid() {
    assert_rejected("sample_interval_s", &BAD_PERIODS, |s, v| {
        s.sim.sample_interval_s = v
    });
}

#[test]
fn degenerate_timeseries_interval_is_invalid() {
    assert_rejected("timeseries_interval_s", &BAD_PERIODS, |s, v| {
        s.metrics.timeseries = true;
        s.metrics.timeseries_interval_s = Some(v);
    });
}

#[test]
fn timeseries_interval_off_the_sample_grid_is_invalid() {
    // The sample interval is 0.05 s: points are every k-th sample row,
    // so the interval must be a whole multiple k >= 1 of it.
    assert_rejected("timeseries_interval_s", &[0.01, 0.07, 0.125], |s, v| {
        s.metrics.timeseries = true;
        s.metrics.timeseries_interval_s = Some(v);
    });
    let mut s = base(ControlSpec::Undamped);
    s.metrics.timeseries_interval_s = Some(0.2);
    assert!(run_scenario(&s).is_ok(), "4 sample intervals");
}

#[test]
fn degenerate_duration_is_invalid() {
    assert_rejected("duration_s", &BAD_DELAYS, |s, v| s.duration_s = v);
}

/// [`base`] replayed (over its own program) instead of simulated.
fn replay_base() -> Scenario {
    let mut s = base(ControlSpec::Undamped);
    s.name = "control-test-replay".into();
    s.engine = EngineSpec::Replay(ReplaySpec {
        trace: TraceSpec::Program,
        mode: ReplayMode::Tables,
        window: None,
        growth_per_day: None,
        comparisons: Vec::new(),
    });
    s.metrics.stability = false;
    s
}

/// The offered-load checks hold on every engine: each `bad` value is
/// rejected on the simnet base and on the replay base.
fn assert_traffic_rejected(field: &str, set: impl Fn(&mut Scenario, f64)) {
    let bases = [base(ControlSpec::Undamped), replay_base()];
    assert_rejected_on(&bases, field, &BAD_DELAYS, set);
}

/// Replace the global program by one segment of `shape`.
fn one_segment(s: &mut Scenario, shape: Shape) {
    s.traffic.program = Program::from_shape(6.0, 1.0, shape);
}

#[test]
fn both_traffic_bases_run() {
    assert!(run_scenario(&base(ControlSpec::Undamped)).is_ok());
    assert!(run_scenario(&replay_base()).is_ok());
}

/// `planner.num_paths` outside 2 ..= `MAX_NUM_PATHS` is rejected on
/// every engine before anything is planned (1 used to panic in the
/// planner, 1e12 to plan without end); both ends of the range run.
#[test]
fn num_paths_out_of_range_is_invalid() {
    let bases = [base(ControlSpec::Undamped), replay_base()];
    let too_many = (MAX_NUM_PATHS + 1) as f64;
    assert_rejected_on(
        &bases,
        "planner.num_paths",
        &[0.0, 1.0, too_many, 1e12],
        |s, v| Param::NumPaths.apply(s, v),
    );
    for b in &bases {
        for n in [2, MAX_NUM_PATHS] {
            let mut s = b.clone();
            s.planner.num_paths = n;
            assert!(run_scenario(&s).is_ok(), "{}: num_paths = {n}", b.name);
        }
    }
}

/// A finite load scale whose offered volume overflows is rejected
/// naming the scale on both engines (it used to run to a NaN or zero
/// delivered fraction), and so is one whose volume is finite but whose
/// gravity split overflows: on both bases a scale of 1e280 offers about
/// 1.6e290 bps, and the split's weight products push demands past
/// `f64::MAX`.
#[test]
fn overflowing_offered_volume_is_invalid() {
    let bases = [base(ControlSpec::Undamped), replay_base()];
    assert_rejected_on(&bases, "traffic.scale", &[1e280, 1e308], |s, v| {
        Param::LoadScale.apply(s, v)
    });
}

#[test]
fn degenerate_scale_fraction_is_invalid() {
    assert_traffic_rejected("traffic.scale.fraction", |s, v| {
        s.traffic.scale = ScaleSpec::MaxFeasibleFraction { fraction: v }
    });
}

#[test]
fn degenerate_scale_bps_is_invalid() {
    assert_traffic_rejected("traffic.scale.bps", |s, v| {
        s.traffic.scale = ScaleSpec::TotalBps { bps: v }
    });
}

#[test]
fn degenerate_segment_duration_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].duration_s", |s, v| {
        s.traffic.program.segments[0].duration_s = v
    });
}

#[test]
fn degenerate_constant_level_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].level", |s, v| {
        one_segment(s, Shape::Constant { level: v })
    });
}

#[test]
fn degenerate_step_level_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].levels[1]", |s, v| {
        s.traffic.program.segments[0].shape = Shape::Steps {
            levels: vec![0.5, v],
            step_s: 1.5,
        }
    });
}

#[test]
fn degenerate_sine_lo_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].lo", |s, v| {
        let (period_s, hi) = (3.0, 1.0);
        one_segment(
            s,
            Shape::Sine {
                period_s,
                lo: v,
                hi,
            },
        )
    });
}

#[test]
fn degenerate_sine_hi_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].hi", |s, v| {
        let (period_s, lo) = (3.0, 0.1);
        one_segment(
            s,
            Shape::Sine {
                period_s,
                lo,
                hi: v,
            },
        )
    });
}

#[test]
fn degenerate_diurnal_peak_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].peak", |s, v| {
        one_segment(
            s,
            Shape::Diurnal {
                peak: v,
                night: 0.3,
            },
        )
    });
}

#[test]
fn degenerate_diurnal_night_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].night", |s, v| {
        one_segment(
            s,
            Shape::Diurnal {
                peak: 1.0,
                night: v,
            },
        )
    });
}

#[test]
fn degenerate_ramp_from_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].from", |s, v| {
        one_segment(s, Shape::Ramp { from: v, to: 1.0 })
    });
}

#[test]
fn degenerate_ramp_to_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].to", |s, v| {
        one_segment(s, Shape::Ramp { from: 0.2, to: v })
    });
}

/// A flash crowd from `base` to `peak` inside the 6 s program.
fn flash_crowd(base: f64, peak: f64) -> Shape {
    Shape::FlashCrowd {
        base,
        peak,
        start_s: 1.0,
        ramp_s: 1.0,
        hold_s: 1.0,
        decay_s: 1.0,
    }
}

#[test]
fn degenerate_flash_crowd_base_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].base", |s, v| {
        one_segment(s, flash_crowd(v, 1.0))
    });
}

#[test]
fn degenerate_flash_crowd_peak_is_invalid() {
    assert_traffic_rejected("traffic.program.segments[0].peak", |s, v| {
        one_segment(s, flash_crowd(0.3, v))
    });
}

#[test]
fn degenerate_per_flow_program_is_invalid() {
    assert_traffic_rejected("traffic.per_flow[0].program.segments[0].level", |s, v| {
        s.traffic.per_flow = vec![FlowProgram {
            flow: 0,
            program: Program::from_shape(6.0, 1.0, Shape::Constant { level: v }),
        }]
    });
    assert_traffic_rejected(
        "traffic.per_flow[0].program.segments[0].duration_s",
        |s, v| {
            let mut program = Program::from_shape(6.0, 1.0, Shape::Constant { level: 1.0 });
            program.segments[0].duration_s = v;
            s.traffic.per_flow = vec![FlowProgram { flow: 0, program }]
        },
    );
}

/// One event of each kind that carries an `at`, on link 0 / node 0.
fn at_events(at: f64) -> Vec<EventSpec> {
    let link = || LinkRef::ByIndex { index: 0 };
    let node = || NodeRef::ByIndex { index: 0 };
    vec![
        EventSpec::LinkFail { at, link: link() },
        EventSpec::LinkRepair { at, link: link() },
        EventSpec::NodeFail { at, node: node() },
        EventSpec::NodeRepair { at, node: node() },
        EventSpec::SetWakeTime {
            at,
            wake_time_s: 0.01,
        },
        EventSpec::SetThreshold { at, threshold: 0.8 },
    ]
}

fn burst(start: f64, spacing_s: f64, repair_after_s: f64) -> EventSpec {
    EventSpec::FailureBurst {
        start,
        count: 2,
        spacing_s,
        repair_after_s,
        seed_salt: 1,
    }
}

fn window(start: f64, duration_s: f64) -> EventSpec {
    EventSpec::MaintenanceWindow {
        start,
        duration_s,
        node: NodeRef::ByIndex { index: 0 },
    }
}

#[test]
fn degenerate_event_at_is_invalid() {
    for kind in 0..at_events(0.0).len() {
        assert_rejected("events[0].at", &BAD_DELAYS, |s, v| {
            s.events = vec![at_events(v).swap_remove(kind)]
        });
    }
}

#[test]
fn degenerate_event_start_is_invalid() {
    assert_rejected("events[0].start", &BAD_DELAYS, |s, v| {
        s.events = vec![burst(v, 0.5, 1.0)]
    });
    assert_rejected("events[0].start", &BAD_DELAYS, |s, v| {
        s.events = vec![window(v, 1.0)]
    });
}

#[test]
fn degenerate_burst_spacing_is_invalid() {
    assert_rejected("events[0].spacing_s", &BAD_DELAYS, |s, v| {
        s.events = vec![burst(1.0, v, 1.0)]
    });
}

#[test]
fn degenerate_burst_repair_after_is_invalid() {
    assert_rejected("events[0].repair_after_s", &BAD_DELAYS, |s, v| {
        s.events = vec![burst(1.0, 0.5, v)]
    });
}

#[test]
fn degenerate_window_duration_is_invalid() {
    assert_rejected("events[0].duration_s", &BAD_DELAYS, |s, v| {
        s.events = vec![window(1.0, v)]
    });
}

#[test]
fn degenerate_event_wake_time_is_invalid() {
    assert_rejected("events[0].wake_time_s", &BAD_DELAYS, |s, v| {
        s.events = vec![EventSpec::SetWakeTime {
            at: 1.0,
            wake_time_s: v,
        }]
    });
}

#[test]
fn degenerate_wake_time_is_invalid() {
    assert_rejected("wake_time_s", &BAD_DELAYS, |s, v| s.sim.wake_time_s = v);
}

#[test]
fn degenerate_detect_delay_is_invalid() {
    assert_rejected("detect_delay_s", &BAD_DELAYS, |s, v| {
        s.sim.detect_delay_s = v
    });
}

#[test]
fn degenerate_sleep_after_is_invalid() {
    assert_rejected("sleep_after_s", &BAD_DELAYS, |s, v| s.sim.sleep_after_s = v);
}

#[test]
fn degenerate_te_start_is_invalid() {
    assert_rejected("te_start_s", &BAD_DELAYS, |s, v| s.sim.te_start_s = v);
}

#[test]
fn degenerate_te_threshold_is_invalid() {
    let bad = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    assert_rejected("te_threshold", &bad, |s, v| s.sim.te_threshold = v);
}

#[test]
fn degenerate_event_threshold_is_invalid() {
    let bad = [0.0, -1.0, f64::NAN, f64::INFINITY];
    assert_rejected("events[0].threshold", &bad, |s, v| {
        s.events = vec![EventSpec::SetThreshold {
            at: 1.0,
            threshold: v,
        }]
    });
}

#[test]
fn te_step_outside_unit_interval_is_invalid() {
    let bad = [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY];
    assert_rejected("te_step", &bad, |s, v| s.sim.te_step = v);
    let mut s = base(ControlSpec::Undamped);
    s.sim.te_step = 1.0;
    assert!(run_scenario(&s).is_ok(), "a step of 1 jumps to the target");
}

#[test]
fn te_min_share_outside_unit_interval_is_invalid() {
    let bad = [-0.1, 1.0, 2.0, f64::NAN, f64::INFINITY];
    assert_rejected("te_min_share", &bad, |s, v| s.sim.te_min_share = v);
    let mut s = base(ControlSpec::Undamped);
    s.sim.te_min_share = 0.0;
    assert!(run_scenario(&s).is_ok(), "no dust floor");
}

#[test]
fn non_simnet_engines_reject_control_and_stability() {
    // Replay engine + a damped policy: Unsupported, not silently ignored.
    let mut s = base(ControlSpec::Ewma { alpha: 0.5 });
    s.traffic.program = Program::from_shape(6.0, 1.0, Shape::Constant { level: 1.0 });
    s.engine = EngineSpec::replay_over_always_on(1.0);
    s.traffic.scale = ScaleSpec::TotalBps { bps: 1e9 };
    s.metrics.stability = false;
    let err = run_scenario(&s).unwrap_err();
    assert_eq!(err.kind(), "unsupported", "{err}");

    // Replay engine + stability metrics: also Unsupported.
    s.control = ControlSpec::Undamped;
    s.metrics.stability = true;
    let err = run_scenario(&s).unwrap_err();
    assert_eq!(err.kind(), "unsupported", "{err}");
}

#[test]
fn control_spec_round_trips_through_toml() {
    for control in [
        ControlSpec::Undamped,
        ControlSpec::Ewma { alpha: 0.25 },
        ControlSpec::Hysteresis {
            gap: 0.1,
            dead_band: 0.05,
        },
        ControlSpec::DampedStep {
            damp: 0.3,
            cooldown_rounds: 4,
        },
        ControlSpec::Desync { salt: 42 },
    ] {
        let s = base(control);
        let doc = s.to_toml();
        let back = Scenario::from_toml(&doc).unwrap();
        assert_eq!(back, s, "round-trip of {}", control.label());
    }
}

#[test]
fn missing_control_field_defaults_to_undamped() {
    let mut s = base(ControlSpec::Undamped);
    s.metrics.stability = false;
    let doc = s.to_toml();
    assert!(doc.contains("control = \"Undamped\""), "serialized: {doc}");
    let stripped: String = doc
        .lines()
        .filter(|l| !l.contains("control = "))
        .collect::<Vec<_>>()
        .join("\n");
    let back = Scenario::from_toml(&stripped).unwrap();
    assert_eq!(back.control, ControlSpec::Undamped);
    assert_eq!(back, s, "pre-PR-4 documents parse identically");
}

#[test]
fn control_params_sweep_and_label() {
    let axes = [
        Axis::new(Param::EwmaAlpha, [0.3, 0.7]),
        Axis::new(Param::LoadScale, [0.5]),
    ];
    let instances = grid(&base(ControlSpec::Undamped), &axes);
    assert_eq!(instances.len(), 2);
    assert_eq!(instances[0].0[0], ("ewma_alpha".to_string(), 0.3));
    assert_eq!(instances[0].1.control, ControlSpec::Ewma { alpha: 0.3 });
    assert_eq!(instances[1].1.control, ControlSpec::Ewma { alpha: 0.7 });

    // HystGap / StepDamp preserve the non-swept knob of an existing spec
    // of the same family, and fall back to defaults otherwise.
    let mut s = base(ControlSpec::Hysteresis {
        gap: 0.0,
        dead_band: 0.07,
    });
    Param::HystGap.apply(&mut s, 0.3);
    assert_eq!(
        s.control,
        ControlSpec::Hysteresis {
            gap: 0.3,
            dead_band: 0.07
        }
    );
    let mut s = base(ControlSpec::DampedStep {
        damp: 0.0,
        cooldown_rounds: 5,
    });
    Param::StepDamp.apply(&mut s, 0.4);
    assert_eq!(
        s.control,
        ControlSpec::DampedStep {
            damp: 0.4,
            cooldown_rounds: 5
        }
    );
    let mut s = base(ControlSpec::Undamped);
    Param::StepDamp.apply(&mut s, 0.4);
    assert_eq!(
        s.control,
        ControlSpec::DampedStep {
            damp: 0.4,
            cooldown_rounds: 0
        }
    );
}

/// The degenerate parameterizations of the damping policies must
/// reproduce the undamped run byte for byte (`alpha = 1` keeps no
/// memory; `damp = 0, cooldown = 0` never scales or holds).
#[test]
fn degenerate_damping_equals_undamped_bytes() {
    let undamped = serde_json::to_string(&run_scenario(&base(ControlSpec::Undamped)).unwrap())
        .unwrap()
        .replace("\"name\":\"control-test\"", "");
    for control in [
        ControlSpec::Ewma { alpha: 1.0 },
        ControlSpec::DampedStep {
            damp: 0.0,
            cooldown_rounds: 0,
        },
    ] {
        let got = serde_json::to_string(&run_scenario(&base(control)).unwrap())
            .unwrap()
            .replace("\"name\":\"control-test\"", "");
        assert_eq!(got, undamped, "{}", control.label());
    }
}
