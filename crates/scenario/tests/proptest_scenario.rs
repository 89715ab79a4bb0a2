//! Scenario determinism properties: the same `Scenario` + seed must
//! yield byte-identical recorder output across runs, grid instances
//! resolved through one shared `ResolveCache` must run exactly like
//! fresh ones, and `grid` expansion is ordered and named as documented.

use ecp_scenario::{
    grid, run_resolved, run_scenario, Axis, EventSpec, MatrixSpec, MetricsSpec, PairsSpec, Param,
    ResolveCache, ScaleSpec, ScenarioBuilder,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use proptest::prelude::*;

/// A randomized but fully-seeded scenario on a small Waxman WAN with a
/// step program and a failure burst — enough moving parts to catch any
/// nondeterminism in planning, traffic compilation, or event injection.
fn arb_scenario() -> impl Strategy<Value = ecp_scenario::Scenario> {
    (8usize..14, 0u64..1000, 2usize..5, 0.3f64..0.9, 0u64..50).prop_map(
        |(nodes, seed, steps, level, salt)| {
            let program = Program::from_shape(
                6.0,
                1.0,
                Shape::Steps {
                    levels: vec![level, 1.0],
                    step_s: 6.0 / steps as f64,
                },
            );
            ScenarioBuilder::new("prop")
                .seed(seed)
                .duration_s(6.0)
                .topology(TopoSpec::small_waxman(nodes, seed))
                .pairs(PairsSpec::Random { count: 6 })
                .traffic(
                    MatrixSpec::Gravity,
                    ScaleSpec::MaxFeasibleFraction { fraction: 0.7 },
                    program,
                )
                .event(EventSpec::FailureBurst {
                    start: 2.0,
                    count: 2,
                    spacing_s: 0.5,
                    repair_after_s: 1.5,
                    seed_salt: salt,
                })
                .metrics(MetricsSpec {
                    power_series: true,
                    delivered_series: true,
                    per_path_rates: true,
                    ..Default::default()
                })
                .build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte-identical reports for repeated runs of the same scenario.
    #[test]
    fn same_scenario_same_bytes(scenario in arb_scenario()) {
        let a = run_scenario(&scenario).unwrap();
        let b = run_scenario(&scenario).unwrap();
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        prop_assert_eq!(ja, jb);
    }

    /// A different seed actually changes the run (the seed is not dead).
    #[test]
    fn different_seed_different_run(scenario in arb_scenario()) {
        let mut other = scenario.clone();
        other.seed ^= 0x5A5A_5A5A;
        other.topology = TopoSpec::small_waxman(10, other.seed);
        let a = run_scenario(&scenario).unwrap();
        let b = run_scenario(&other).unwrap();
        // Reports may coincide on aggregate metrics, but the full series
        // of two different random topologies/pair sets almost surely
        // differ; tolerate rare collisions by comparing serialized size
        // only loosely.
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        prop_assume!(ja.len() != jb.len() || ja != jb);
        prop_assert!(true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Grid instances resolved through one shared `ResolveCache` (a
    /// Threshold × LoadScale grid plans once per distinct resolution
    /// key) must run byte-identically to resolving every instance from
    /// scratch.
    #[test]
    fn memoized_sweep_matches_unmemoized(scenario in arb_scenario()) {
        let axes = [
            Axis::new(Param::Threshold, [0.7, 0.9]),
            Axis::new(Param::LoadScale, [0.8, 1.0]),
        ];
        let instances = grid(&scenario, &axes);
        prop_assert_eq!(instances.len(), 4);
        let cache = ResolveCache::new();
        for (_, instance) in &instances {
            let resolved = cache.resolve(instance).unwrap();
            let memoized = run_resolved(instance, &resolved).unwrap();
            let fresh = run_scenario(instance).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&fresh).unwrap(),
                serde_json::to_string(&memoized).unwrap()
            );
        }
        prop_assert!(cache.len() < instances.len(), "threshold cells share a resolution");
    }
}

/// The resolution key shares exactly what is safe to share: engine-side
/// knobs fall out of the key, planner-side inputs stay in it.
#[test]
fn resolution_key_is_tight_and_conservative() {
    use ecp_scenario::{resolution_key, ControlSpec, StrategySpec};
    let base = ScenarioBuilder::new("key")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(1.0)
        .build();

    // Threshold / control / duration / metrics do not affect resolution.
    let mut same = base.clone();
    same.sim.te_threshold = 0.5;
    same.control = ControlSpec::Ewma { alpha: 0.4 };
    same.duration_s = 99.0;
    same.name = "other-name".into();
    assert_eq!(resolution_key(&base), resolution_key(&same));

    // Random pairs sample with the seed: the key must include it.
    let mut reseeded = base.clone();
    reseeded.seed += 1;
    assert_ne!(resolution_key(&base), resolution_key(&reseeded));

    // Non-sampled pairs do not consume the seed: replicates share.
    let mut fixed_pairs = base.clone();
    fixed_pairs.pairs = PairsSpec::EdgeOffset {
        denominators: vec![2],
    };
    let mut fixed_reseeded = fixed_pairs.clone();
    fixed_reseeded.seed += 1;
    assert_eq!(
        resolution_key(&fixed_pairs),
        resolution_key(&fixed_reseeded)
    );

    // A demand-oblivious planner ignores the traffic scale...
    let mut scaled = base.clone();
    if let ScaleSpec::MaxFeasibleFraction { fraction } = &mut scaled.traffic.scale {
        *fraction *= 0.5;
    }
    assert_eq!(resolution_key(&base), resolution_key(&scaled));

    // ...but a peak-aware strategy plans against it: key must differ.
    let mut peaked = base.clone();
    peaked.planner.strategy = StrategySpec::PeakOffered { peak_level: 1.0 };
    let mut peaked_scaled = peaked.clone();
    if let ScaleSpec::MaxFeasibleFraction { fraction } = &mut peaked_scaled.traffic.scale {
        *fraction *= 0.5;
    }
    assert_ne!(resolution_key(&peaked), resolution_key(&peaked_scaled));

    // Planner knobs always affect the key.
    let mut more_paths = base.clone();
    more_paths.planner.num_paths += 1;
    assert_ne!(resolution_key(&base), resolution_key(&more_paths));
}

/// The cache actually shares: two scenarios with equal keys resolve to
/// the same `Arc`.
#[test]
fn resolve_cache_shares_equal_keys() {
    use ecp_scenario::ResolveCache;
    let base = ScenarioBuilder::new("cache")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(1.0)
        .build();
    let mut tweaked = base.clone();
    tweaked.sim.te_threshold = 0.4;

    let cache = ResolveCache::new();
    let a = cache.resolve(&base).unwrap();
    let b = cache.resolve(&tweaked).unwrap();
    assert!(std::sync::Arc::ptr_eq(&a, &b), "one planning pass shared");
    assert_eq!(cache.len(), 1);

    let mut reseeded = base.clone();
    reseeded.seed += 1;
    let c = cache.resolve(&reseeded).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&a, &c), "seed-sampled pairs differ");
    assert_eq!(cache.len(), 2);
}

#[test]
fn sweep_grid_expansion_is_cartesian_and_ordered() {
    let scenario = ScenarioBuilder::new("grid")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(1.0)
        .build();
    let axes = [
        Axis::new(Param::NumPaths, [2.0, 3.0]),
        Axis::new(Param::Margin, [0.8, 0.9, 1.0]),
    ];
    let instances = grid(&scenario, &axes);
    assert_eq!(instances.len(), 6);
    // Row-major: margin varies fastest.
    assert_eq!(
        instances[0].0,
        vec![("num_paths".to_string(), 2.0), ("margin".to_string(), 0.8)]
    );
    assert_eq!(
        instances[1].0,
        vec![("num_paths".to_string(), 2.0), ("margin".to_string(), 0.9)]
    );
    assert_eq!(
        instances[3].0,
        vec![("num_paths".to_string(), 3.0), ("margin".to_string(), 0.8)]
    );
    assert_eq!(instances[3].1.planner.num_paths, 3);
    assert_eq!(instances[3].1.planner.margin, 0.8);
    // Names carry the cell index and the assignment, byte for byte.
    assert_eq!(instances[0].1.name, "grid#0[num_paths=2,margin=0.8]");
    assert_eq!(instances[5].1.name, "grid#5[num_paths=3,margin=1]");

    // No axes: the base itself, unnamed and unparameterized.
    let bare = grid(&scenario, &[]);
    assert_eq!(bare.len(), 1);
    assert!(bare[0].0.is_empty());
    assert_eq!(bare[0].1, scenario);
}

#[test]
fn empty_axis_yields_empty_sweep() {
    let scenario = ScenarioBuilder::new("empty")
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(1.0)
        .build();
    assert!(grid(&scenario, &[Axis::new(Param::Threshold, [])]).is_empty());
    let axes = [
        Axis::new(Param::Threshold, [0.7, 0.9]),
        Axis::replicates(scenario.seed, 0),
    ];
    assert!(grid(&scenario, &axes).is_empty());
}

#[test]
fn replay_rejects_unsupported_spec_fields() {
    use ecp_scenario::{EngineSpec, EventSpec};
    let base = ScenarioBuilder::new("replay-misuse")
        .topology(TopoSpec::Geant)
        .pairs(PairsSpec::Random { count: 10 })
        .duration_s(1800.0)
        .traffic(
            MatrixSpec::Gravity,
            ecp_scenario::ScaleSpec::TotalBps { bps: 1e9 },
            Program::from_shape(1800.0, 900.0, Shape::Constant { level: 1.0 }),
        )
        .engine(EngineSpec::replay_over_always_on(1.1));

    // Events are not supported by the replay engine.
    let with_events = base
        .clone()
        .event(EventSpec::SetWakeTime {
            at: 1.0,
            wake_time_s: 1.0,
        })
        .build();
    let err = run_scenario(&with_events).unwrap_err().to_string();
    assert!(err.contains("events"), "{err}");

    // Shaped programs are not supported either.
    let shaped = base
        .clone()
        .traffic(
            MatrixSpec::Gravity,
            ecp_scenario::ScaleSpec::TotalBps { bps: 1e9 },
            Program::from_shape(1800.0, 900.0, Shape::Ramp { from: 0.1, to: 1.0 }),
        )
        .build();
    let err = run_scenario(&shaped).unwrap_err().to_string();
    assert!(err.contains("Constant"), "{err}");

    // Non-TotalBps scales are rejected.
    let scaled = base
        .traffic(
            MatrixSpec::Gravity,
            ecp_scenario::ScaleSpec::MaxFeasibleFraction { fraction: 0.5 },
            Program::from_shape(1800.0, 900.0, Shape::Constant { level: 1.0 }),
        )
        .build();
    let err = run_scenario(&scaled).unwrap_err().to_string();
    assert!(err.contains("TotalBps"), "{err}");
}

#[test]
fn replicates_have_distinct_deterministic_seeds() {
    let scenario = ScenarioBuilder::new("reps")
        .seed(42)
        .topology(TopoSpec::small_waxman(8, 1))
        .pairs(PairsSpec::Random { count: 4 })
        .duration_s(1.0)
        .build();
    let reps = [Axis::replicates(scenario.seed, 4)];
    let instances = grid(&scenario, &reps);
    assert_eq!(
        instances,
        grid(&scenario, &reps),
        "replicate seeds are deterministic"
    );
    // The axis value is the seed the run uses (53-bit exact).
    for (params, instance) in &instances {
        assert_eq!(params[0], ("seed".to_string(), instance.seed as f64));
        assert!(instance.seed < 1 << 53);
    }
    let mut uniq: Vec<u64> = instances.iter().map(|(_, s)| s.seed).collect();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), 4, "replicate seeds are distinct");
}

#[test]
fn scenario_toml_round_trip_preserves_semantics() {
    let scenario = ScenarioBuilder::new("round-trip")
        .seed(9)
        .duration_s(3.0)
        .topology(TopoSpec::small_waxman(9, 9))
        .pairs(PairsSpec::Random { count: 5 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.5 },
            Program::from_shape(3.0, 0.5, Shape::Ramp { from: 0.3, to: 1.0 }),
        )
        .event(EventSpec::SetWakeTime {
            at: 1.0,
            wake_time_s: 0.5,
        })
        .build();
    let doc = scenario.to_toml();
    let back = ecp_scenario::Scenario::from_toml(&doc).unwrap();
    assert_eq!(scenario, back, "TOML round trip:\n{doc}");
    // And the round-tripped scenario runs identically.
    let a = run_scenario(&scenario).unwrap();
    let b = run_scenario(&back).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}
