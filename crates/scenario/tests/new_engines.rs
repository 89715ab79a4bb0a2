//! Coverage for the engine/workload capabilities added to the scenario
//! spec: packet and app engines, trace-replay variants, explicit OD
//! pairs, per-flow programs, and replay windowing.

use ecp_scenario::{
    run_scenario, AppDetail, AppSpec, EngineSpec, EventSpec, FlowProgram, MatrixSpec, MetricsSpec,
    NodeRef, PacketPlacement, PacketRateSpec, PacketSpec, PairsSpec, PeakSpec, ReplayMode,
    ReplaySpec, ScaleSpec, Scenario, ScenarioBuilder, ScenarioError, SleepSpec, SubsetScheme,
    TablesSpec, TraceSpec, WindowSpec,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};

fn fig3_base(name: &str) -> ecp_scenario::ScenarioBuilder {
    ScenarioBuilder::new(name)
        .seed(3)
        .duration_s(6.0)
        .topology(TopoSpec::Fig3Click)
        .pairs(PairsSpec::Fig3)
        .tables(TablesSpec::Fig3Paper)
        .traffic(
            MatrixSpec::Uniform,
            ScaleSpec::PerFlowBps { bps: 2e6 },
            Program::from_shape(6.0, 1.0, Shape::Constant { level: 1.0 }),
        )
}

#[test]
fn explicit_pairs_resolve_in_order() {
    let scenario = fig3_base("explicit")
        .pairs(PairsSpec::Explicit {
            pairs: vec![
                (
                    NodeRef::ByName { name: "A".into() },
                    NodeRef::ByName { name: "K".into() },
                ),
                (
                    NodeRef::ByName { name: "C".into() },
                    NodeRef::ByName { name: "K".into() },
                ),
            ],
        })
        .build();
    // Same pairs as PairsSpec::Fig3 -> identical report.
    let explicit = run_scenario(&scenario).unwrap();
    let fig3 = run_scenario(&fig3_base("explicit").build()).unwrap();
    assert_eq!(
        explicit.mean_delivered_fraction,
        fig3.mean_delivered_fraction
    );
    assert_eq!(explicit.mean_power_frac, fig3.mean_power_frac);

    // Self-loops and unknown nodes are rejected.
    let bad = fig3_base("explicit-bad")
        .pairs(PairsSpec::Explicit {
            pairs: vec![(
                NodeRef::ByName { name: "A".into() },
                NodeRef::ByName { name: "A".into() },
            )],
        })
        .build();
    assert!(run_scenario(&bad)
        .unwrap_err()
        .to_string()
        .contains("self-loop"));
}

#[test]
fn per_flow_program_overrides_one_flow() {
    let base = fig3_base("per-flow").build();
    let with_override = fig3_base("per-flow")
        // Flow 1 (C -> K) idles at level 0 while flow 0 keeps the
        // global constant program.
        .flow_program(
            1,
            Program::from_shape(6.0, 1.0, Shape::Constant { level: 0.0 }),
        )
        .build();
    let a = run_scenario(&base).unwrap();
    let b = run_scenario(&with_override).unwrap();
    let offered = |r: &ecp_scenario::ScenarioReport| {
        r.delivered_series
            .as_deref()
            .unwrap()
            .iter()
            .map(|&(_, off, _)| off)
            .sum::<f64>()
    };
    // Half the offered volume disappears with flow 1 muted.
    assert!(
        offered(&b) < 0.6 * offered(&a),
        "{} vs {}",
        offered(&b),
        offered(&a)
    );

    // Out-of-range indices and duplicates are errors.
    let bad = fig3_base("per-flow-bad")
        .flow_program(
            7,
            Program::from_shape(1.0, 1.0, Shape::Constant { level: 1.0 }),
        )
        .build();
    assert!(run_scenario(&bad)
        .unwrap_err()
        .to_string()
        .contains("flow 7"));
    let dup = fig3_base("per-flow-dup")
        .flow_program(
            0,
            Program::from_shape(1.0, 1.0, Shape::Constant { level: 1.0 }),
        )
        .flow_program(
            0,
            Program::from_shape(1.0, 1.0, Shape::Constant { level: 0.5 }),
        )
        .build();
    assert!(run_scenario(&dup)
        .unwrap_err()
        .to_string()
        .contains("duplicate"));
}

#[test]
fn packet_engine_places_and_spreads() {
    let packet = |placement| {
        fig3_base("packet")
            .duration_s(4.0)
            .engine(EngineSpec::Packet(PacketSpec {
                rate: PacketRateSpec::PerFlowBps { bps: 2e6 },
                stop_s: 2.0,
                phase_offset_s: 1e-3,
                placement,
                sleep: Some(SleepSpec {
                    min_gap_s: 0.01,
                    wake_s: 0.01,
                }),
                ..Default::default()
            }))
            .build()
    };
    let aon = run_scenario(&packet(PacketPlacement::AlwaysOn)).unwrap();
    let spread = run_scenario(&packet(PacketPlacement::SpreadAll)).unwrap();
    let (aon, spread) = (aon.packet.unwrap(), spread.packet.unwrap());
    assert_eq!(aon.flows.len(), 2, "one flow per pair on always-on");
    assert_eq!(
        spread.flows.len(),
        4,
        "one flow per distinct installed path"
    );
    assert_eq!(aon.dropped, 0);
    // Consolidation leaves the upper/lower branches fully dark.
    let s_aon = aon.sleep.unwrap();
    let s_spread = spread.sleep.unwrap();
    assert!(s_aon.dark_links > 0);
    assert_eq!(s_spread.dark_links, 0);
    assert!(s_aon.mean_sleep_fraction > s_spread.mean_sleep_fraction);
}

#[test]
fn app_engines_need_a_common_origin() {
    let web = fig3_base("web-misuse")
        .pairs(PairsSpec::Explicit {
            pairs: vec![
                (
                    NodeRef::ByName { name: "K".into() },
                    NodeRef::ByName { name: "A".into() },
                ),
                (
                    NodeRef::ByName { name: "A".into() },
                    NodeRef::ByName { name: "K".into() },
                ),
            ],
        })
        .tables(TablesSpec::Planned)
        .engine(EngineSpec::App(AppSpec::web_default(2)))
        .build();
    assert!(run_scenario(&web)
        .unwrap_err()
        .to_string()
        .contains("common origin"));
}

/// A web workload on the Fig. 3 network: K serves A and C.
fn web_star() -> Scenario {
    ScenarioBuilder::new("web-star")
        .seed(2005)
        .duration_s(60.0)
        .topology(TopoSpec::Fig3Click)
        .pairs(PairsSpec::Explicit {
            pairs: vec![
                (
                    NodeRef::ByName { name: "K".into() },
                    NodeRef::ByName { name: "A".into() },
                ),
                (
                    NodeRef::ByName { name: "K".into() },
                    NodeRef::ByName { name: "C".into() },
                ),
            ],
        })
        .engine(EngineSpec::App(AppSpec::web_default(2)))
        .build()
}

#[test]
fn app_web_runs_on_explicit_star() {
    let report = run_scenario(&web_star()).unwrap();
    assert_eq!(report.engine, "app-web");
    match report.app.unwrap() {
        AppDetail::Web {
            latencies,
            unfinished,
            ..
        } => {
            // 2 clients x 2 requests.
            assert_eq!(latencies.len() + unfinished, 4);
            assert!(latencies.iter().all(|&l| l > 0.0));
        }
        _ => panic!("web detail expected"),
    }
}

#[test]
fn app_rejects_unreachable_star_destinations() {
    // Fig3Click carries the paper's disconnected "B" node: a star over
    // every node includes an unplannable pair, which must surface as an
    // error instead of a panic.
    let scenario = ScenarioBuilder::new("web-star-unreachable")
        .seed(1)
        .duration_s(10.0)
        .topology(TopoSpec::Fig3Click)
        .pairs(PairsSpec::Star {
            center: NodeRef::ByName { name: "K".into() },
        })
        .engine(EngineSpec::App(AppSpec::web_default(1)))
        .build();
    let err = run_scenario(&scenario).unwrap_err().to_string();
    assert!(err.contains("no installed table"), "{err}");
}

fn small_replay(window: Option<WindowSpec>) -> Scenario {
    ScenarioBuilder::new("windowed")
        .seed(5)
        .duration_s(86_400.0)
        .topology(TopoSpec::Geant)
        .pairs(PairsSpec::Random { count: 12 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            Program::from_shape(86_400.0, 900.0, Shape::Constant { level: 1.0 }),
        )
        .engine(EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::GeantLike {
                peak: PeakSpec::OverAlwaysOn {
                    factor: 1.1,
                    cap_over_full: None,
                    use_sim_te: false,
                },
            },
            mode: ReplayMode::Tables,
            window,
            growth_per_day: None,
            comparisons: Vec::new(),
        }))
        .metrics(MetricsSpec {
            power_series: true,
            delivered_series: false,
            ..Default::default()
        })
        .build()
}

#[test]
fn replay_window_selects_intervals() {
    let full = run_scenario(&small_replay(None)).unwrap();
    assert_eq!(full.samples, 96);
    let windowed = run_scenario(&small_replay(Some(WindowSpec { start: 10, end: 30 }))).unwrap();
    assert_eq!(windowed.samples, 20);
    // The windowed points are the same placements as the full run's.
    let f: Vec<f64> = full.power_series.as_deref().unwrap()[10..30]
        .iter()
        .map(|&(_, p)| p)
        .collect();
    let w: Vec<f64> = windowed
        .power_series
        .as_deref()
        .unwrap()
        .iter()
        .map(|&(_, p)| p)
        .collect();
    assert_eq!(f, w);
    // Degenerate windows error.
    let err = run_scenario(&small_replay(Some(WindowSpec { start: 5, end: 5 })))
        .unwrap_err()
        .to_string();
    assert!(err.contains("empty"), "{err}");
}

/// Scripted events and per-flow programs only exist in the simulator:
/// every other engine rejects them as `Unsupported`, with one wording.
#[test]
fn non_simnet_engines_reject_events_and_per_flow_programs() {
    let packet = fig3_base("packet-misuse")
        .engine(EngineSpec::Packet(PacketSpec::default()))
        .build();
    for (engine, base) in [
        ("replay", small_replay(None)),
        ("packet", packet),
        ("app", web_star()),
    ] {
        let mut with_events = base.clone();
        with_events.events.push(EventSpec::SetWakeTime {
            at: 1.0,
            wake_time_s: 1.0,
        });
        let mut per_flow = base;
        per_flow.traffic.per_flow.push(FlowProgram {
            flow: 0,
            program: Program::from_shape(1.0, 1.0, Shape::Constant { level: 1.0 }),
        });
        for (scenario, feature) in [
            (with_events, "scripted events (use the Simnet engine)"),
            (per_flow, "per-flow programs (use the Simnet engine)"),
        ] {
            let err = run_scenario(&scenario).unwrap_err();
            assert_eq!(
                err,
                ScenarioError::unsupported(engine, feature),
                "{engine}: {err}"
            );
        }
    }
}

/// A replay trace peak that is not a finite rate > 0 (an overflowing
/// multiple, an infinite rate, or a negative or zero factor, fraction,
/// cap or rate) is rejected naming the peak instead of replaying an
/// infinite, negative or empty trace.
#[test]
fn overflowing_trace_peak_is_invalid() {
    let over = |factor, cap_over_full| PeakSpec::OverAlwaysOn {
        factor,
        cap_over_full,
        use_sim_te: false,
    };
    for peak in [
        over(1e308, None),
        PeakSpec::MaxFeasibleFraction { fraction: 1e308 },
        PeakSpec::TotalBps { bps: f64::INFINITY },
        over(-1.15, None),
        over(0.0, None),
        over(1.15, Some(-0.5)),
        over(1.15, Some(0.0)),
        PeakSpec::MaxFeasibleFraction { fraction: -0.5 },
        PeakSpec::MaxFeasibleFraction { fraction: 0.0 },
        PeakSpec::TotalBps { bps: -1e10 },
        PeakSpec::TotalBps { bps: 0.0 },
    ] {
        let mut s = small_replay(None);
        if let EngineSpec::Replay(spec) = &mut s.engine {
            spec.trace = TraceSpec::GeantLike { peak };
        }
        let err = run_scenario(&s).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Invalid(_)),
            "{peak:?}: {err:?}"
        );
        assert!(err.to_string().contains("peak"), "{peak:?}: {err}");
    }
}

#[test]
fn recompute_mode_reports_rates_and_coverage() {
    let mut s = small_replay(None);
    if let EngineSpec::Replay(spec) = &mut s.engine {
        spec.trace = TraceSpec::GeantLike {
            peak: PeakSpec::TotalBps { bps: 5e9 },
        };
        spec.mode = ReplayMode::Recompute {
            scheme: SubsetScheme::GreedyPrunePowerDesc,
        };
    }
    let report = run_scenario(&s).unwrap();
    let rec = report.replay.unwrap().recompute.unwrap();
    assert_eq!(rec.hourly_rate.len(), 24);
    assert_eq!(rec.coverage.len(), 5);
    assert!(rec.coverage[4].1 >= rec.coverage[0].1, "coverage monotone");
    let slice_sum: f64 = rec.slices.iter().sum();
    assert!((slice_sum - 1.0).abs() < 1e-9, "slices partition time");
}

#[test]
fn new_spec_shapes_round_trip_through_toml() {
    for scenario in [
        small_replay(Some(WindowSpec { start: 1, end: 9 })),
        fig3_base("packet-rt")
            .engine(EngineSpec::Packet(PacketSpec::default()))
            .build(),
        fig3_base("app-rt")
            .engine(EngineSpec::App(AppSpec::streaming_default(3, 5.0, 2)))
            .build(),
    ] {
        let doc = scenario.to_toml();
        let back = Scenario::from_toml(&doc).unwrap();
        assert_eq!(scenario, back, "TOML round trip for {}", scenario.name);
    }
}
