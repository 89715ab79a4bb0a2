//! The te-stability network planned at scale, pinned: the tables and
//! the §5.1 maximum feasible volume of `te_stability_scaled` at scales
//! 4 and 8 on three seeds, hashed as the repository benchmark's
//! `plan-scale` workload hashes them. The planner's ε-demand subset
//! search, its failover search and the oracle's capacity probe may
//! change how they work, never what they return.

use ecp_bench::scenarios::te_stability_scaled;
use ecp_scenario::{resolve, ControlSpec};

/// `(scale, seed, hash)`: content hash of the tables' JSON, a `|`, and
/// the volume's bits in hex.
const PINNED: [(usize, u64, &str); 6] = [
    (4, 2, "a2cbdf9fa30b7d06d08da8a295a56ea7"),
    (4, 823, "77eb125cad9e95ffe1352d52914deea2"),
    (4, 901, "5dfcad2e06807f16bedcb804cd20f38b"),
    (8, 2, "63ba90f63c064595f5094cb60f4a732c"),
    (8, 823, "e6e4d5bb3df8070dff186bb5246e152e"),
    (8, 901, "b87ab47013d751927be0676f2c86ddcf"),
];

#[test]
fn scaled_plans_and_probe_volumes_are_pinned() {
    for (scale, seed, want) in PINNED {
        let mut scenario = te_stability_scaled(150.0, 0.7, ControlSpec::Undamped, scale);
        scenario.seed = seed;
        let resolved = resolve(&scenario).expect("te-stability resolves");
        let tables = serde_json::to_string(&resolved.tables).expect("tables serialize");
        let vmax = resolved.max_feasible_volume().to_bits();
        let plan = format!("{tables}|{vmax:016x}");
        assert_eq!(
            ecp_campaign::content_hash(plan.as_bytes()),
            want,
            "scale {scale}, seed {seed}"
        );
    }
}
