//! The scenario registry: every experiment of the harness as a
//! declarative [`Scenario`] value.
//!
//! Every figure, in-text analysis, ablation and extension is built here
//! from `ecp_scenario` pieces — no hand-wired topology/traffic/planner
//! setup anywhere. [`campaign_registry`] exports every experiment
//! family as a CI-scaled scenario value keyed by a stable id, which
//! `ecp run <id>` runs and campaign specs (`ecp-campaign`) reference
//! with `registry = "<id>"`; `ecp campaign run
//! examples/campaign_full_registry.toml` runs the whole evaluation.

use ecp_scenario::{
    AppSpec, CompareSpec, ControlSpec, EngineSpec, EventSpec, LinkRef, MatrixSpec, MetricsSpec,
    NodeRef, PacketPlacement, PacketRateSpec, PacketSpec, PairsSpec, PeakSpec, PlannerSpec,
    PowerSpec, ReplayMode, ReplaySpec, ScaleSpec, Scenario, ScenarioBuilder, SimSpec, SleepSpec,
    StrategySpec, SubsetScheme, TablesSpec, TraceSpec,
};
use ecp_topo::gen::TopoSpec;
use ecp_topo::GBPS;
use ecp_traffic::{Program, Shape};

/// A constant level-1.0 program: `n` whole days at 15-minute intervals.
fn constant_days(days: usize) -> Program {
    Program::from_shape(
        days as f64 * 86_400.0,
        900.0,
        Shape::Constant { level: 1.0 },
    )
}

/// A `Tables`-mode replay spec with no extras.
fn replay(trace: TraceSpec) -> EngineSpec {
    EngineSpec::Replay(ReplaySpec {
        trace,
        mode: ReplayMode::Tables,
        window: None,
        growth_per_day: None,
        comparisons: Vec::new(),
    })
}

/// Series-only metrics (power + delivered, nothing heavier).
fn series_metrics() -> MetricsSpec {
    MetricsSpec {
        power_series: true,
        delivered_series: true,
        per_path_rates: false,
        ..Default::default()
    }
}

// ---- Fig. 1: motivation ---------------------------------------------------

/// Fig. 1a — DC-trace deviation CCDF (`TraceStats` over the DC-like
/// trace; no placement, the topology is incidental).
pub fn fig1a(days: usize, groups: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new("fig1a-traffic-deviation")
        .seed(seed)
        .duration_s(days as f64 * 86_400.0)
        .topology(TopoSpec::Geant)
        .pairs(PairsSpec::Random { count: 2 })
        .traffic(
            MatrixSpec::Uniform,
            ScaleSpec::PerFlowBps { bps: 1.0 },
            constant_days(days),
        )
        .engine(EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::DcLike {
                groups,
                subsample: 1,
            },
            mode: ReplayMode::TraceStats,
            window: None,
            growth_per_day: None,
            comparisons: Vec::new(),
        }))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            ..Default::default()
        })
        .build()
}

/// Fig. 1b / 2a — per-interval `optimal` recomputation over a
/// GÉANT-like replay at `volume_frac` of the maximum feasible volume.
pub fn optimal_recompute_geant(
    name: &str,
    days: usize,
    pairs: usize,
    volume_frac: f64,
    seed: u64,
) -> Scenario {
    ScenarioBuilder::new(name)
        .seed(seed)
        .duration_s(days as f64 * 86_400.0)
        .topology(TopoSpec::Geant)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::Random { count: pairs })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            constant_days(days),
        )
        .engine(EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::GeantLike {
                peak: PeakSpec::MaxFeasibleFraction {
                    fraction: volume_frac,
                },
            },
            mode: ReplayMode::Recompute {
                scheme: SubsetScheme::Optimal,
            },
            window: None,
            growth_per_day: None,
            comparisons: Vec::new(),
        }))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            ..Default::default()
        })
        .build()
}

/// Fig. 2b (fat-tree side) — greedy-prune recomputation over the
/// DC-volume-driven fat-tree replay.
pub fn fig2b_fattree(fat_k: usize, dc_days: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new("fig2b-fattree")
        .seed(seed)
        .duration_s(dc_days as f64 * 86_400.0)
        .topology(TopoSpec::FatTree { k: fat_k })
        .power(PowerSpec::CommodityDc)
        .pairs(PairsSpec::FatTreeFar)
        // Per-flow peak of 0.9 Gbps at the volume-series maximum.
        .traffic(
            MatrixSpec::Uniform,
            ScaleSpec::PerFlowBps { bps: 0.9 * GBPS },
            constant_days(dc_days),
        )
        .engine(EngineSpec::Replay(ReplaySpec {
            // DC trace is 5-min; every 6th point ≈ half-hourly replay.
            trace: TraceSpec::DcLike {
                groups: 1,
                subsample: 6,
            },
            mode: ReplayMode::Recompute {
                scheme: SubsetScheme::GreedyPrunePowerDesc,
            },
            window: None,
            growth_per_day: None,
            comparisons: Vec::new(),
        }))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            ..Default::default()
        })
        .build()
}

// ---- Fig. 4: fat-tree sine ------------------------------------------------

/// Fig. 4 — k-ary fat-tree under a sinusoidal per-flow demand in
/// [0.02, 0.9] Gbps, replayed over demand-aware tables (5 paths, peak
/// matrix); the far run carries the ECMP/ElasticTree/optimal baselines.
pub fn fig4(steps: usize, k: usize, far: bool) -> Scenario {
    let comparisons = if far {
        vec![
            CompareSpec::Ecmp { fanout: 16 },
            CompareSpec::ElasticTree,
            CompareSpec::OptimalAtPeak { peak_level: 0.9e9 },
        ]
    } else {
        Vec::new()
    };
    ScenarioBuilder::new(if far { "fig4-far" } else { "fig4-near" })
        .seed(1)
        .duration_s(steps as f64)
        .topology(TopoSpec::FatTree { k })
        .power(PowerSpec::CommodityDc)
        .pairs(if far {
            PairsSpec::FatTreeFar
        } else {
            PairsSpec::FatTreeNear
        })
        .traffic(
            MatrixSpec::Uniform,
            ScaleSpec::PerFlowBps { bps: 1.0 },
            Program::from_shape(
                steps as f64,
                1.0,
                Shape::Sine {
                    period_s: steps as f64,
                    lo: 0.02e9,
                    hi: 0.9e9,
                },
            ),
        )
        .planner(PlannerSpec {
            num_paths: 5,
            strategy: StrategySpec::PeakOffered { peak_level: 0.9e9 },
            ..Default::default()
        })
        .engine(EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::Program,
            mode: ReplayMode::Tables,
            window: None,
            growth_per_day: None,
            comparisons,
        }))
        .metrics(series_metrics())
        .build()
}

// ---- Fig. 5: GÉANT replay -------------------------------------------------

/// Fig. 5 — REsPoNse over the 15-day GÉANT-like replay; diurnal peak
/// slightly above the always-on capacity, capped below the all-tables
/// capacity.
pub fn fig5(days: usize, pairs: usize, nodes: usize, peak_frac: f64, seed: u64) -> Scenario {
    ScenarioBuilder::new("fig5-geant-replay")
        .seed(seed)
        .duration_s(days as f64 * 86_400.0)
        .topology(TopoSpec::Geant)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::RandomSubset {
            nodes,
            count: pairs,
        })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            constant_days(days),
        )
        .engine(replay(TraceSpec::GeantLike {
            peak: PeakSpec::OverAlwaysOn {
                factor: peak_frac,
                cap_over_full: Some(0.95),
                use_sim_te: true,
            },
        }))
        .metrics(series_metrics())
        .build()
}

/// Fig. 5, alternative-hardware run: same pairs and trace (the peak is
/// pinned to the today-hardware scenario's resolved value) over tables
/// planned with the chassis/10 power model.
pub fn fig5_alt_hw(days: usize, pairs: usize, nodes: usize, peak_bps: f64, seed: u64) -> Scenario {
    let mut s = fig5(days, pairs, nodes, 1.0, seed);
    s.name = "fig5-geant-replay-alt-hw".into();
    s.power = PowerSpec::AlternativeHw;
    s.engine = replay(TraceSpec::GeantLike {
        peak: PeakSpec::TotalBps { bps: peak_bps },
    });
    s
}

// ---- Fig. 6: Genuity utilization ------------------------------------------

/// Fig. 6 — one REsPoNse variant on Genuity at `util_percent` of the
/// maximum feasible volume (a single-interval `Program` replay). The
/// first variant also computes the `optimal` bound per interval.
pub fn fig6(
    pairs: usize,
    nodes: usize,
    seed: u64,
    strategy: StrategySpec,
    beta: Option<f64>,
    util_percent: f64,
    with_optimal: bool,
) -> Scenario {
    ScenarioBuilder::new("fig6-genuity")
        .seed(seed)
        .duration_s(900.0)
        .topology(TopoSpec::Genuity)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::RandomSubset {
            nodes,
            count: pairs,
        })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 1.0 },
            Program::from_shape(
                900.0,
                900.0,
                Shape::Constant {
                    level: util_percent / 100.0,
                },
            ),
        )
        .planner(PlannerSpec {
            beta,
            strategy,
            ..Default::default()
        })
        .engine(EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::Program,
            mode: ReplayMode::Tables,
            window: None,
            growth_per_day: None,
            comparisons: if with_optimal {
                vec![CompareSpec::OptimalPerInterval]
            } else {
                Vec::new()
            },
        }))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            ..Default::default()
        })
        .build()
}

// ---- Fig. 9 / §5.4: application workloads ---------------------------------

/// The §5.4 testbed sim knobs (sub-second control loop on Abovenet).
fn abovenet_app_sim(control: f64, wake: f64, detect: f64, sleep: f64, sample: f64) -> SimSpec {
    SimSpec {
        control_interval_s: control,
        wake_time_s: wake,
        detect_delay_s: detect,
        sleep_after_s: sleep,
        sample_interval_s: sample,
        te_start_s: 0.0,
        ..Default::default()
    }
}

/// Fig. 9 — streaming from Abovenet node 0 to every other PoP; two join
/// waves; REsPoNse-lat (`beta = 0.25`) or the OSPF-InvCap baseline.
pub fn fig9(clients: usize, duration: f64, runs: usize, invcap: bool) -> Scenario {
    ScenarioBuilder::new(if invcap {
        "fig9-streaming-invcap"
    } else {
        "fig9-streaming-rep-lat"
    })
    // Per-run placement seeds are `seed + run`; the paper binary used 7.
    .seed(7)
    .duration_s(duration)
    .topology(TopoSpec::Abovenet)
    .power(PowerSpec::Cisco12000)
    .pairs(PairsSpec::Star {
        center: NodeRef::ByIndex { index: 0 },
    })
    .tables(if invcap {
        TablesSpec::OspfInvCap
    } else {
        TablesSpec::Planned
    })
    .planner(PlannerSpec {
        beta: Some(0.25),
        ..Default::default()
    })
    .sim(abovenet_app_sim(0.2, 0.1, 0.2, 1.0, 0.5))
    .engine(EngineSpec::App(AppSpec::streaming_default(
        clients,
        duration / 2.0,
        runs,
    )))
    .metrics(MetricsSpec {
        power_series: false,
        delivered_series: false,
        ..Default::default()
    })
    .build()
}

/// §5.4 in-text — SPECweb-like closed-loop web workload over Abovenet
/// stub nodes; plain REsPoNse (network-wide plan) or OSPF-InvCap.
pub fn text_web(requests: usize, seed: u64, invcap: bool) -> Scenario {
    ScenarioBuilder::new(if invcap {
        "text-web-invcap"
    } else {
        "text-web-response"
    })
    .seed(seed)
    .duration_s(3600.0)
    .topology(TopoSpec::Abovenet)
    .power(PowerSpec::Cisco12000)
    .pairs(PairsSpec::StarByDegree { clients: 4 })
    .tables(if invcap {
        TablesSpec::OspfInvCap
    } else {
        TablesSpec::PlannedAllPairs
    })
    .sim(abovenet_app_sim(0.1, 0.05, 0.1, 0.5, 0.2))
    .engine(EngineSpec::App(AppSpec::web_default(requests)))
    .metrics(MetricsSpec {
        power_series: false,
        delivered_series: false,
        ..Default::default()
    })
    .build()
}

// ---- §4 in-text analyses --------------------------------------------------

/// §4.1 — supported-volume probe of the installed tables (always-on
/// prefix vs all three) at fixed gravity proportions.
pub fn text_alwayson(pairs: usize, seed: u64, invcap: bool) -> Scenario {
    ScenarioBuilder::new(if invcap {
        "text-alwayson-invcap"
    } else {
        "text-alwayson-response"
    })
    .seed(seed)
    .duration_s(900.0)
    .topology(TopoSpec::Geant)
    .power(PowerSpec::Cisco12000)
    .pairs(PairsSpec::Random { count: pairs })
    .tables(if invcap {
        TablesSpec::OspfInvCap
    } else {
        TablesSpec::Planned
    })
    .traffic(
        MatrixSpec::Gravity,
        ScaleSpec::TotalBps { bps: 1e9 },
        Program::from_shape(900.0, 900.0, Shape::Constant { level: 1.0 }),
    )
    .sim(SimSpec {
        te_threshold: 1.0,
        ..Default::default()
    })
    .engine(replay(TraceSpec::Program))
    .metrics(MetricsSpec {
        power_series: false,
        delivered_series: false,
        table_capacity: true,
        ..Default::default()
    })
    .build()
}

/// §4.3 — single-link-failure coverage of planner output on one ISP map.
pub fn text_failover(topology: TopoSpec, pairs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new("text-failover-coverage")
        .seed(seed)
        .duration_s(900.0)
        .topology(topology)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::Random { count: pairs })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            Program::from_shape(900.0, 900.0, Shape::Constant { level: 1.0 }),
        )
        .engine(replay(TraceSpec::Program))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            failover_coverage: true,
            ..Default::default()
        })
        .build()
}

/// §4.5 — the Fig.-5-style replay whose volume and power series feed the
/// peak-duration and thermal-budget analysis.
pub fn text_peak(days: usize, pairs: usize, seed: u64) -> Scenario {
    let mut s = fig5(days, pairs, 17, 1.15, seed);
    s.name = "text-peak-provisioning".into();
    // The §4.5 analysis replays the uncapped 1.15× trace.
    s.engine = replay(TraceSpec::GeantLike {
        peak: PeakSpec::OverAlwaysOn {
            factor: 1.15,
            cap_over_full: None,
            use_sim_te: true,
        },
    });
    s
}

// ---- extensions -----------------------------------------------------------

/// §6 future work — demand grows `growth`/day over tables planned for
/// day 0; the drift detector advises when to replan (2-day window).
pub fn extension_replan_trigger(days: usize, growth: f64, pairs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new("extension-replan-trigger")
        .seed(seed)
        .duration_s(days as f64 * 86_400.0)
        .topology(TopoSpec::Geant)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::RandomSubset {
            nodes: 17,
            count: pairs,
        })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            constant_days(days),
        )
        .engine(EngineSpec::Replay(ReplaySpec {
            trace: TraceSpec::GeantLike {
                peak: PeakSpec::OverAlwaysOn {
                    factor: 1.0,
                    cap_over_full: None,
                    use_sim_te: true,
                },
            },
            mode: ReplayMode::DriftReplan {
                window_intervals: 2 * 96,
            },
            window: None,
            growth_per_day: Some(growth),
            comparisons: Vec::new(),
        }))
        .metrics(series_metrics())
        .build()
}

/// Extension — §5.4 latency at the packet level: consolidated
/// (REsPoNse always-on) vs spread (OSPF-InvCap) paths on Abovenet.
pub fn extension_packet_latency(util: f64, clients: usize, invcap: bool) -> Scenario {
    ScenarioBuilder::new(if invcap {
        "extension-packet-latency-invcap"
    } else {
        "extension-packet-latency-response"
    })
    .seed(1)
    .duration_s(10.0)
    .topology(TopoSpec::Abovenet)
    .power(PowerSpec::Cisco12000)
    .pairs(PairsSpec::StarByDegree { clients })
    .tables(if invcap {
        TablesSpec::OspfInvCap
    } else {
        TablesSpec::PlannedAllPairs
    })
    .engine(EngineSpec::Packet(PacketSpec {
        rate: PacketRateSpec::OriginUtilization { frac: util },
        stop_s: 2.0,
        phase_offset_s: 1e-4,
        placement: PacketPlacement::AlwaysOn,
        ..Default::default()
    }))
    .metrics(MetricsSpec {
        power_series: false,
        delivered_series: false,
        ..Default::default()
    })
    .build()
}

/// Extension — §2.1.1 opportunistic sleeping on the Fig.-3 testbed:
/// packets either spread over all installed paths or consolidated on
/// the always-on middle, with gap-sleep analysis.
pub fn extension_opportunistic_sleep(
    rate_bps: f64,
    min_gap_s: f64,
    wake_s: f64,
    spread: bool,
) -> Scenario {
    ScenarioBuilder::new(if spread {
        "extension-sleep-spread"
    } else {
        "extension-sleep-consolidated"
    })
    .seed(1)
    .duration_s(20.0)
    .topology(TopoSpec::Fig3Click)
    .power(PowerSpec::Cisco12000)
    .pairs(PairsSpec::Fig3)
    .tables(TablesSpec::Fig3Paper)
    .engine(EngineSpec::Packet(PacketSpec {
        rate: PacketRateSpec::PerFlowBps { bps: rate_bps },
        stop_s: 10.0,
        phase_offset_s: 1e-3,
        placement: if spread {
            PacketPlacement::SpreadAll
        } else {
            PacketPlacement::AlwaysOn
        },
        sleep: Some(SleepSpec { min_gap_s, wake_s }),
        ..Default::default()
    }))
    .metrics(MetricsSpec {
        power_series: false,
        delivered_series: false,
        ..Default::default()
    })
    .build()
}

// ---- ablations ------------------------------------------------------------

/// Shared base of the GEANT planner ablations: a single-interval
/// `Program` replay at 85 % of the maximum feasible volume (peak-hour
/// demand) with table analysis on.
pub fn ablation_base(name: &str, pairs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(name)
        .seed(seed)
        .duration_s(900.0)
        .topology(TopoSpec::Geant)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::Random { count: pairs })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.85 },
            Program::from_shape(900.0, 900.0, Shape::Constant { level: 1.0 }),
        )
        .sim(SimSpec {
            te_threshold: 1.0,
            ..Default::default()
        })
        .engine(replay(TraceSpec::Program))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            table_stats: true,
            ..Default::default()
        })
        .build()
}

/// Threshold ablation — the GÉANT-like replay 1.15× above the always-on
/// capacity, swept over the TE threshold.
pub fn ablation_threshold(pairs: usize, days: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new("ablation-threshold")
        .seed(seed)
        .duration_s(days as f64 * 86_400.0)
        .topology(TopoSpec::Geant)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::Random { count: pairs })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            constant_days(days),
        )
        .engine(EngineSpec::replay_over_always_on(1.15))
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            ..Default::default()
        })
        .build()
}

// ---- Figs. 7/8: adaptation ------------------------------------------------

/// Fig. 7 — the Click-testbed adaptation experiment (§5.3).
pub fn fig7(duration: f64) -> Scenario {
    ScenarioBuilder::new("fig7-click-adaptation")
        .seed(1)
        .duration_s(duration)
        .topology(TopoSpec::Fig3Click)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::Fig3)
        .tables(TablesSpec::Fig3Paper)
        // 5 flows x ~0.5 Mbps per source (paper: 10 pps each, ~5 Mbps
        // total across both sources).
        .traffic(
            MatrixSpec::Uniform,
            ScaleSpec::PerFlowBps { bps: 2.5e6 },
            Program::from_shape(duration, duration, Shape::Constant { level: 1.0 }),
        )
        // Max RTT: 6 hops of 16.67 ms ~ 100 ms -> control interval T.
        .sim(SimSpec {
            control_interval_s: 0.1,
            wake_time_s: 0.01,   // "10 ms to wake up a sleeping link"
            detect_delay_s: 0.1, // "100 ms for the failure to be detected and propagated"
            sleep_after_s: 0.2,
            sample_interval_s: 0.05,
            te_start_s: 5.0, // "REsPoNseTE starts running at t = 5 s"
            ..Default::default()
        })
        // Pre-TE state: traffic spread over both candidate paths.
        .initial_shares(vec![0.5, 0.5])
        // Fail the middle link at t = 5.7 s.
        .event(EventSpec::LinkFail {
            at: 5.7,
            link: LinkRef::ByName {
                from: "E".into(),
                to: "H".into(),
            },
        })
        .metrics(MetricsSpec {
            power_series: false,
            delivered_series: false,
            per_path_rates: true,
            ..Default::default()
        })
        .build()
}

/// The Fig.-8 ns-2 experiment simulator settings shared by both runs.
fn ns2_sim() -> SimSpec {
    SimSpec {
        control_interval_s: 0.5,
        wake_time_s: 5.0, // "we set the wake-up time to 5 s"
        detect_delay_s: 0.5,
        sleep_after_s: 2.0,
        sample_interval_s: 0.5,
        te_start_s: 0.0,
        ..Default::default()
    }
}

/// Fig. 8a — PoP-access ISP adaptation under util-50/100 alternation.
pub fn fig8a(steps: usize) -> Scenario {
    let t_end = steps as f64 * 30.0;
    ScenarioBuilder::new("fig8a-pop-access")
        .seed(1)
        .duration_s(t_end)
        .topology(TopoSpec::pop_access_default())
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::EdgeOffset {
            denominators: vec![2, 3],
        })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.9 },
            Program::from_shape(
                t_end,
                30.0,
                Shape::Steps {
                    levels: vec![0.5, 1.0],
                    step_s: 30.0,
                },
            ),
        )
        .sim(ns2_sim())
        .metrics(series_metrics())
        .build()
}

/// Fig. 8b — fat-tree adaptation under a per-flow sine.
pub fn fig8b(steps: usize) -> Scenario {
    let t_end = steps as f64 * 30.0;
    ScenarioBuilder::new("fig8b-fat-tree")
        .seed(1)
        .duration_s(t_end)
        .topology(TopoSpec::FatTree { k: 4 })
        .power(PowerSpec::CommodityDc)
        .pairs(PairsSpec::FatTreeFar)
        .traffic(
            MatrixSpec::Uniform,
            ScaleSpec::PerFlowBps { bps: 1.0 },
            Program::from_shape(
                t_end,
                30.0,
                Shape::Sine {
                    period_s: steps.max(2) as f64 * 30.0,
                    lo: 0.1e9,
                    hi: 0.9e9,
                },
            ),
        )
        .sim(ns2_sim())
        .metrics(series_metrics())
        .build()
}

// ---- new scenarios (PR 1) -------------------------------------------------

/// Cascading correlated link failures during a flash crowd: quiet at
/// 35 % load, ramp to 95 % of the feasible maximum at t = 30 s, with a
/// four-link correlated cascade landing mid-ramp (`ecp run
/// scenario-cascade-flashcrowd` prints the served fraction over time).
pub fn cascade_flashcrowd(duration: f64, fails: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new("cascade-during-flash-crowd")
        .seed(seed)
        .duration_s(duration)
        .topology(TopoSpec::Geant)
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::Random { count: 80 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 1.0 },
            // Quiet at 35 %, ramp to 95 % at t = 30 s over 20 s, hold
            // 40 s, decay back over 20 s.
            Program::from_shape(
                duration,
                2.0,
                Shape::FlashCrowd {
                    base: 0.35,
                    peak: 0.95,
                    start_s: 30.0,
                    ramp_s: 20.0,
                    hold_s: 40.0,
                    decay_s: 20.0,
                },
            ),
        )
        .sim(SimSpec {
            control_interval_s: 0.5,
            wake_time_s: 1.0,
            detect_delay_s: 0.5,
            sleep_after_s: 2.0,
            sample_interval_s: 0.5,
            te_start_s: 0.0,
            ..Default::default()
        })
        // The cascade lands mid-ramp: correlated failures 2 s apart,
        // each repaired 25 s later.
        .event(EventSpec::FailureBurst {
            start: 40.0,
            count: fails,
            spacing_s: 2.0,
            repair_after_s: 25.0,
            seed_salt: 0xCA5CADE,
        })
        .metrics(series_metrics())
        .build()
}

/// Rolling backbone maintenance windows under diurnal traffic on the
/// PoP-access ISP: each backbone node drained for `window_mins`, one
/// after another overnight starting at 01:00, 15-minute settle gaps.
pub fn rolling_maintenance(windows: usize, window_mins: f64, seed: u64) -> Scenario {
    let day = 86_400.0;
    let window_s = window_mins * 60.0;
    let events: Vec<EventSpec> = (0..windows)
        .map(|i| EventSpec::MaintenanceWindow {
            start: 3_600.0 + i as f64 * (window_s + 900.0),
            duration_s: window_s,
            node: NodeRef::ByName {
                name: format!("bb{i}"),
            },
        })
        .collect();
    ScenarioBuilder::new("rolling-maintenance-diurnal")
        .seed(seed)
        .duration_s(day)
        .topology(TopoSpec::pop_access_default())
        .power(PowerSpec::Cisco12000)
        .pairs(PairsSpec::EdgeOffset {
            denominators: vec![2, 3],
        })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.3 },
            Program::from_shape(
                day,
                900.0,
                Shape::Diurnal {
                    peak: 1.0,
                    night: 0.3,
                },
            ),
        )
        .sim(SimSpec {
            control_interval_s: 1.0,
            wake_time_s: 1.0,
            detect_delay_s: 1.0,
            sleep_after_s: 120.0,
            sample_interval_s: 300.0,
            te_start_s: 0.0,
            ..Default::default()
        })
        .events(events)
        .metrics(series_metrics())
        .build()
}

/// The A/B load-level base: a single-interval GEANT `Program` replay at
/// the maximum feasible volume, over planned REsPoNse tables or the
/// OSPF-InvCap baseline. Campaigns sweep `Param::LoadScale` over it to
/// compare the two schemes across load levels.
pub fn geant_load(invcap: bool) -> Scenario {
    ScenarioBuilder::new(if invcap {
        "geant-load-invcap"
    } else {
        "geant-load-response"
    })
    .seed(1)
    .duration_s(900.0)
    .topology(TopoSpec::Geant)
    .power(PowerSpec::Cisco12000)
    .pairs(PairsSpec::Random { count: 60 })
    .tables(if invcap {
        TablesSpec::OspfInvCap
    } else {
        TablesSpec::Planned
    })
    .traffic(
        MatrixSpec::Gravity,
        ScaleSpec::MaxFeasibleFraction { fraction: 1.0 },
        Program::from_shape(900.0, 900.0, Shape::Constant { level: 1.0 }),
    )
    .engine(replay(TraceSpec::Program))
    .metrics(MetricsSpec {
        power_series: false,
        delivered_series: false,
        ..Default::default()
    })
    .build()
}

// ---- TE control-loop stability (PR 4) -------------------------------------

/// The control policies the stability family compares, with their
/// default damping parameters, keyed by **registry id** — the single
/// source of truth shared by [`campaign_registry`], the benches and
/// the tests, so they can never disagree on a policy's parameters.
/// Display labels come from [`ControlSpec::label`].
pub fn te_stability_policies() -> Vec<(&'static str, ControlSpec)> {
    vec![
        ("te-stability-undamped", ControlSpec::Undamped),
        ("te-stability-ewma", ControlSpec::Ewma { alpha: 0.3 }),
        (
            "te-stability-adaptive-ewma",
            ControlSpec::AdaptiveEwma {
                alpha_min: 0.2,
                alpha_max: 1.0,
            },
        ),
        (
            "te-stability-hysteresis",
            ControlSpec::Hysteresis {
                gap: 0.2,
                dead_band: 0.02,
            },
        ),
        (
            "te-stability-damped-step",
            ControlSpec::DampedStep {
                damp: 0.5,
                cooldown_rounds: 2,
            },
        ),
        ("te-stability-desync", ControlSpec::Desync { salt: 1 }),
    ]
}

/// Sustained overload with coupled flows on the PoP-access ISP — the
/// TE-dynamics failure mode from the ROADMAP: every metro's agents
/// observe the same freed headroom simultaneously, re-aggregate
/// together, overload the shared always-on uplinks again, and spill
/// again. Wake-up (5 s) and drain (2 s) delays turn that cycle into a
/// standing delivery-shortfall oscillation under the undamped policy;
/// the damped [`ControlSpec`] variants are measured against it via the
/// attached stability analysis.
pub fn te_stability(duration: f64, load: f64, control: ControlSpec) -> Scenario {
    te_stability_scaled(duration, load, control, 1)
}

/// [`te_stability`] at `scale`× the network/agent count: `scale`× the
/// metro and backbone tiers and `scale`× the OD pairs, same coupling
/// regime. `scale = 1` is exactly the registry family (golden-pinned);
/// larger scales are where the O(flows × paths × arcs) scans the
/// incremental accounting removes would dominate the control loop.
pub fn te_stability_scaled(
    duration: f64,
    load: f64,
    control: ControlSpec,
    scale: usize,
) -> Scenario {
    let scale = scale.max(1);
    ScenarioBuilder::new(format!("te-stability-{}", control.label()))
        .seed(1)
        .duration_s(duration)
        .topology(TopoSpec::PopAccess {
            core: 4,
            backbone: 8 * scale,
            metro: 16 * scale,
        })
        .power(PowerSpec::Cisco12000)
        // Seed-sampled metro pairs (two per metro on average, like the
        // Fig.-8a pattern, but seed-sensitive so campaign replicates
        // actually vary) sharing the metro uplinks — the coupling that
        // makes simultaneous re-aggregation collective.
        .pairs(PairsSpec::Random { count: 44 * scale })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: load },
            Program::from_shape(duration, 30.0, Shape::Constant { level: 1.0 }),
        )
        .sim(ns2_sim())
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

// ---- the campaign registry ------------------------------------------------

/// The campaign registry: every experiment family as a self-contained,
/// CI-scaled [`Scenario`] value keyed by a stable id. Campaign specs
/// reference these with `registry = "<id>"`; the checked-in
/// `examples/campaign_full_registry.toml` lists all of them, and
/// `ecp campaign run` executes that campaign.
///
/// Building the registry is cheap (scenarios are pure data; planning
/// happens at run time). Not listed: the Fig.-5 alternative-hardware
/// run (its trace peak is pinned to the value the today-hardware run
/// resolves, which `ecp run fig5-geant-replay` prints: pin it as a
/// `PeakSpec::TotalBps` in a scenario TOML with `power =
/// "AlternativeHw"`, as [`fig5_alt_hw`] does) and the planner
/// ablations beyond the threshold one — those are campaign *sweep
/// entries* over `"ablation-planner-base"` (see
/// `examples/campaign_full_registry.toml` for the `NumPaths`, `Beta`,
/// `ExcludeFraction`, and grid axes).
pub fn campaign_registry() -> Vec<(&'static str, Scenario)> {
    vec![
        ("fig1a-traffic-deviation", fig1a(2, 20, 11)),
        (
            "fig1b-recomputation-rate",
            optimal_recompute_geant("fig1b-recomputation-rate", 2, 80, 0.5, 1),
        ),
        (
            "fig2a-config-dominance",
            optimal_recompute_geant("fig2a-config-dominance", 2, 80, 0.42, 1),
        ),
        ("fig2b-fattree-critical-paths", fig2b_fattree(6, 2, 1)),
        ("fig4-fattree-near", fig4(40, 4, false)),
        ("fig4-fattree-far", fig4(40, 4, true)),
        ("fig5-geant-replay", fig5(2, 80, 19, 1.15, 1)),
        (
            "fig6-genuity-stress",
            fig6(80, 26, 1, StrategySpec::StressFactor, None, 50.0, true),
        ),
        (
            "fig6-genuity-ospf",
            fig6(80, 26, 1, StrategySpec::Ospf, None, 50.0, false),
        ),
        ("fig7-click-adaptation", fig7(8.0)),
        ("fig8a-pop-access", fig8a(5)),
        ("fig8b-fat-tree", fig8b(5)),
        ("fig9-streaming-rep-lat", fig9(20, 60.0, 2, false)),
        ("fig9-streaming-invcap", fig9(20, 60.0, 2, true)),
        ("text-web-response", text_web(10, 1, false)),
        ("text-web-invcap", text_web(10, 1, true)),
        ("text-alwayson-response", text_alwayson(60, 1, false)),
        ("text-alwayson-invcap", text_alwayson(60, 1, true)),
        (
            "text-failover-coverage",
            text_failover(TopoSpec::Geant, 60, 1),
        ),
        ("text-peak-provisioning", text_peak(3, 60, 1)),
        (
            "extension-replan-trigger",
            extension_replan_trigger(6, 1.05, 60, 1),
        ),
        (
            "extension-packet-latency-response",
            extension_packet_latency(0.6, 4, false),
        ),
        (
            "extension-packet-latency-invcap",
            extension_packet_latency(0.6, 4, true),
        ),
        (
            "extension-sleep-consolidated",
            extension_opportunistic_sleep(2.5e6, 0.01, 0.01, false),
        ),
        (
            "extension-sleep-spread",
            extension_opportunistic_sleep(2.5e6, 0.01, 0.01, true),
        ),
        (
            "ablation-planner-base",
            ablation_base("ablation-planner-base", 60, 1),
        ),
        ("ablation-threshold", ablation_threshold(60, 1, 1)),
        ("geant-load-response", geant_load(false)),
        ("geant-load-invcap", geant_load(true)),
        (
            "scenario-cascade-flashcrowd",
            cascade_flashcrowd(120.0, 4, 11),
        ),
        (
            "scenario-rolling-maintenance",
            rolling_maintenance(2, 45.0, 3),
        ),
    ]
    .into_iter()
    // The TE-stability family derives from te_stability_policies(),
    // the single source of truth for the policy parameterizations.
    .chain(
        te_stability_policies()
            .into_iter()
            .map(|(id, control)| (id, te_stability(150.0, 0.7, control))),
    )
    .collect()
}

/// Look one registry id up (the [`ecp_campaign::Resolver`] `ecp-bench`
/// passes to campaign execution).
pub fn campaign_scenario(id: &str) -> Option<Scenario> {
    campaign_registry()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, s)| s)
}
