//! The shipped TOML scenario documents must parse to exactly the
//! registry's builder-constructed scenarios (so the two never drift).

use ecp_scenario::Scenario;

#[test]
fn packet_latency_toml_matches_registry() {
    let doc = include_str!("../../../examples/extension_packet_latency.toml");
    let parsed = Scenario::from_toml(doc).expect("packet example parses");
    assert_eq!(
        parsed,
        ecp_bench::scenarios::extension_packet_latency(0.6, 4, false)
    );
}

#[test]
fn fig5_toml_matches_registry() {
    let doc = include_str!("../../../examples/fig5_geant_replay.toml");
    let parsed = Scenario::from_toml(doc).expect("fig5 example parses");
    assert_eq!(parsed, ecp_bench::scenarios::fig5(15, 150, 19, 1.15, 1));
}

/// The alternative-hardware replay pins the trace peak the registry's
/// `fig5-geant-replay` resolves.
#[test]
fn fig5_alt_hw_toml_pins_the_registry_peak() {
    let doc = include_str!("../../../examples/fig5_geant_replay_alt_hw.toml");
    let parsed = Scenario::from_toml(doc).expect("alt-hw example parses");
    let fig5 = ecp_bench::scenarios::campaign_scenario("fig5-geant-replay").unwrap();
    let report = ecp_scenario::run_scenario(&fig5).unwrap();
    let peak = report.replay.unwrap().trace_peak_bps.unwrap();
    assert_eq!(
        parsed,
        ecp_bench::scenarios::fig5_alt_hw(2, 80, 19, peak, 1)
    );
}
