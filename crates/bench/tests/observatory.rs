//! The campaign observatory reads the simulator's one sampled series:
//! turning it on leaves the report byte for byte as it was, and every
//! sidecar point is a row of the report's series.

use ecp_scenario::{resolve, run_resolved_traced, ScenarioReport};

/// Registry scenarios that keep their per-path series in the report.
const IDS: [&str; 2] = ["te-stability-undamped", "fig7-click-adaptation"];

/// Points are every `K`-th series row.
const K: usize = 4;

#[test]
fn observatory_points_are_every_kth_report_row() {
    for id in IDS {
        let off = ecp_bench::scenarios::campaign_scenario(id).unwrap();
        let mut on = off.clone();
        on.metrics.timeseries = true;
        on.metrics.timeseries_interval_s = Some(K as f64 * off.sim.sample_interval_s);
        let resolved = resolve(&off).unwrap();
        let (report_off, trace_off) = run_resolved_traced(&off, &resolved).unwrap();
        let (report_on, trace_on) = run_resolved_traced(&on, &resolved).unwrap();
        assert!(trace_off.timeseries.is_none(), "{id}: off by default");

        // The report does not depend on the observatory.
        let json = serde_json::to_string(&report_off).unwrap();
        assert_eq!(serde_json::to_string(&report_on).unwrap(), json, "{id}");

        // The per-path series parses back from its nested JSON and
        // serializes to the same bytes.
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report_off, "{id}: round trip");
        assert_eq!(serde_json::to_string(&back).unwrap(), json, "{id}");

        // Sidecar point i is report row K·i.
        let series = report_on.per_path_samples.as_ref().unwrap();
        let points = trace_on.timeseries.unwrap();
        assert_eq!(points.len(), series.samples().len().div_ceil(K), "{id}");
        for (i, p) in points.iter().enumerate() {
            let s = &series.samples()[K * i];
            assert_eq!(p.t.to_bits(), s.t.to_bits(), "{id}: point {i}");
            assert_eq!(p.power_frac.to_bits(), s.power_frac.to_bits(), "{id}");
            let delivered_fraction = if s.offered_total > 0.0 {
                s.delivered_total / s.offered_total
            } else {
                1.0
            };
            assert_eq!(
                p.delivered_fraction, delivered_fraction,
                "{id}: t = {}",
                s.t
            );
        }
    }
}
