//! The packet engine's registry runs, pinned: the report of each of the
//! four `extension-*` runs that drive `ecp_simnet::packet`, hashed as
//! `ecp run <id> --out` writes it. The engine's event queue may change
//! how it orders events, never which order they come out in.

use ecp_scenario::run_scenario;

/// `(registry id, content hash of the pretty-JSON report)`.
const PINNED: [(&str, &str); 4] = [
    (
        "extension-packet-latency-response",
        "b90d02509bbded74fe5f9c0d46abe807",
    ),
    (
        "extension-packet-latency-invcap",
        "78a91adfe762e065976539078caa5350",
    ),
    ("extension-sleep-spread", "fbd4c50bafdbe00b23a6f7cfaab1a34e"),
    (
        "extension-sleep-consolidated",
        "57231eea095fbe621f41a731a418cd25",
    ),
];

#[test]
fn packet_reports_are_pinned() {
    for (id, want) in PINNED {
        let scenario = ecp_bench::scenarios::campaign_scenario(id).expect("registry id");
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{id}: {e}"));
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        assert_eq!(ecp_campaign::content_hash(json.as_bytes()), want, "{id}");
    }
}
