//! Golden parity for the TE control-loop refactor (PR 4).
//!
//! The `Undamped` control policy must be **bit-identical** to the
//! pre-refactor TE path (`respons_core::te::decide_shares` hard-wired
//! into the simulator's control round). The golden file
//! `tests/golden/te_undamped.json` was generated against the
//! pre-refactor engine; every Simnet-engine scenario of the campaign
//! registry is replayed and its report projection hashed against it.
//!
//! Regenerate (only when adding scenarios, never to paper over drift):
//!
//! ```text
//! ECP_WRITE_TE_GOLDENS=1 cargo test -p ecp-bench --test te_control_parity
//! ```

use ecp_scenario::{ControlSpec, EngineSpec, Param, Scenario};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The report fields the pre-refactor engine produced for simnet runs —
/// a projection so later additions to `ScenarioReport` (new optional
/// blocks) do not invalidate the goldens.
#[derive(Serialize)]
struct ReportProjection {
    name: String,
    seed: u64,
    engine: String,
    samples: usize,
    mean_power_frac: f64,
    mean_delivered_fraction: f64,
    max_tracking_lag_s: f64,
    power_series: Option<Vec<(f64, f64)>>,
    delivered_series: Option<Vec<(f64, f64, f64)>>,
    per_path_samples: Option<ecp_simnet::Series>,
}

/// 128-bit content hash of a report projection
/// ([`ecp_campaign::content_hash`], the run-store construction).
fn report_hash(report: &ecp_scenario::ScenarioReport) -> String {
    let proj = ReportProjection {
        name: report.name.clone(),
        seed: report.seed,
        engine: report.engine.clone(),
        samples: report.samples,
        mean_power_frac: report.mean_power_frac,
        mean_delivered_fraction: report.mean_delivered_fraction,
        max_tracking_lag_s: report.max_tracking_lag_s,
        power_series: report.power_series.clone(),
        delivered_series: report.delivered_series.clone(),
        per_path_samples: report.per_path_samples.clone(),
    };
    let json = serde_json::to_string(&proj).expect("projection serializes");
    ecp_campaign::content_hash(json.as_bytes())
}

#[derive(Serialize, Deserialize)]
struct GoldenFile {
    /// Registry id -> report-projection hash, sorted by id.
    hashes: BTreeMap<String, String>,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("te_undamped.json")
}

/// The Simnet registry scenarios that actually run the `Undamped`
/// policy. Damped `te-stability-*` scenarios are deliberately
/// excluded: their hashes change whenever a damping default is tuned,
/// which is not drift from the pre-refactor engine.
fn simnet_registry() -> Vec<(&'static str, Scenario)> {
    ecp_bench::scenarios::campaign_registry()
        .into_iter()
        .filter(|(_, s)| {
            matches!(s.engine, EngineSpec::Simnet) && s.control == ControlSpec::Undamped
        })
        .collect()
}

/// Every registry scenario passes the simulator-timing checks of the
/// scenario boundary.
#[test]
fn every_registry_scenario_has_valid_sim_timing() {
    for (id, scenario) in ecp_bench::scenarios::campaign_registry() {
        assert_eq!(scenario.validate_sim_timing(), Ok(()), "{id}");
    }
}

/// Every `Undamped` Simnet registry scenario must hash to the value
/// the pre-refactor engine produced.
#[test]
fn undamped_is_bit_identical_to_pre_refactor_te() {
    let scenarios = simnet_registry();
    let mut hashes = BTreeMap::new();
    for (id, scenario) in &scenarios {
        let report = ecp_scenario::run_scenario(scenario).expect("registry scenario runs");
        hashes.insert(id.to_string(), report_hash(&report));
    }

    if std::env::var_os("ECP_WRITE_TE_GOLDENS").is_some() {
        let body = serde_json::to_string_pretty(&GoldenFile { hashes }).expect("golden serializes");
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), body).unwrap();
        return;
    }

    let doc = std::fs::read_to_string(golden_path()).expect(
        "golden file missing; generate with ECP_WRITE_TE_GOLDENS=1 (pre-refactor engine only)",
    );
    let golden: GoldenFile = serde_json::from_str(&doc).expect("golden parses");
    // Exact key-set equality both ways, so a renamed or removed
    // registry id cannot silently drop its parity pin, and a new
    // Undamped simnet scenario must be added to the goldens
    // deliberately (regeneration keeps existing hashes bit-identical —
    // this very test proves it before you regenerate).
    for id in golden.hashes.keys() {
        assert!(
            scenarios.iter().any(|(sid, _)| sid == id),
            "golden id `{id}` is no longer in the registry — renamed without regenerating?"
        );
    }
    for (id, _) in &scenarios {
        let want = golden.hashes.get(*id).unwrap_or_else(|| {
            panic!(
                "registry scenario `{id}` has no golden entry; add it with \
                 ECP_WRITE_TE_GOLDENS=1 after confirming this test passes"
            )
        });
        assert_eq!(
            hashes.get(*id),
            Some(want),
            "scenario `{id}`: Undamped TE drifted from the pre-refactor engine"
        );
    }
}

/// Damping must not regress the Fig. 7 adaptation behavior (§5.3): for
/// every damped policy, consolidation still completes within a few
/// control rounds of the TE start at t = 5 s, and failover still
/// restores delivery within detection + wake + a few rounds of the
/// t = 5.7 s failure.
#[test]
fn fig7_adaptation_latency_does_not_regress_under_damping() {
    for (_, control) in ecp_bench::scenarios::te_stability_policies() {
        let label = control.label();
        let mut scenario = ecp_bench::scenarios::fig7(8.0);
        scenario.control = control;
        let report = ecp_scenario::run_scenario(&scenario).unwrap();
        let samples = report.per_path_samples.as_ref().unwrap();
        let series: Vec<(f64, f64, f64)> = samples
            .rows()
            .map(|(s, rates)| {
                let middle = rates.flow(0)[0] + rates.flow(1)[0];
                let spread = rates.flow(0)[1] + rates.flow(1)[1];
                (s.t, middle, spread)
            })
            .collect();
        let consolidated = series
            .iter()
            .find(|&&(t, m, u)| t >= 5.0 && m > 4.5e6 && u < 0.2e6)
            .map(|&(t, ..)| t)
            .unwrap_or_else(|| panic!("{label}: never consolidated"));
        assert!(
            consolidated <= 6.0,
            "{label}: consolidation within 1 s of TE start (paper: ~200 ms), got t={consolidated}"
        );
        let restored = series
            .iter()
            .find(|&&(t, _, u)| t > 5.7 && u > 4.5e6)
            .map(|&(t, ..)| t)
            .unwrap_or_else(|| panic!("{label}: never restored after failure"));
        assert!(
            restored <= 6.7,
            "{label}: failover restored within 1 s of the failure, got t={restored}"
        );
    }
}

// The degenerate damping parameterizations (`Ewma` with `alpha = 1`,
// `DampedStep` with no damping and no cooldown) route through the
// policy plumbing but must reproduce the `Undamped` decision exactly —
// byte-identical `ScenarioReport`s across the registry's simnet
// scenarios under randomized seed and load perturbations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn undamped_equivalents_are_byte_identical_across_registry(
        which in 0usize..4,
        seed in 1u64..500,
        load in 0.6f64..1.3,
    ) {
        // Rolling-maintenance is excluded only for test runtime; the
        // fixed-seed golden test above still covers it.
        let ids = [
            "fig7-click-adaptation",
            "fig8a-pop-access",
            "fig8b-fat-tree",
            "scenario-cascade-flashcrowd",
        ];
        let mut base = ecp_bench::scenarios::campaign_scenario(ids[which]).unwrap();
        Param::Seed.apply(&mut base, seed as f64);
        Param::LoadScale.apply(&mut base, load);

        let reference = serde_json::to_string(
            &ecp_scenario::run_scenario(&base).unwrap()
        ).unwrap();
        for control in [
            ControlSpec::Ewma { alpha: 1.0 },
            ControlSpec::DampedStep { damp: 0.0, cooldown_rounds: 0 },
        ] {
            let mut damped = base.clone();
            damped.control = control;
            let got = serde_json::to_string(
                &ecp_scenario::run_scenario(&damped).unwrap()
            ).unwrap();
            prop_assert_eq!(&got, &reference, "{} on {}", control.label(), ids[which]);
        }
    }
}
