//! Figure 7 — Click-testbed adaptation experiment.
//!
//! Paper (§5.3): 9 routers in the Fig.-3 topology (no B), 10 Mbps /
//! 16.67 ms links; A and C each send 5 flows (~2.5 Mbps each aggregate)
//! toward K over two candidate paths. REsPoNseTE starts at t = 5 s and
//! within ~200 ms (2 RTTs) consolidates traffic on the middle always-on
//! path, letting the upper/lower links sleep. At t = 5.7 s the middle
//! link fails; detection + propagation takes 100 ms and waking a link
//! 10 ms, after which the on-demand/failover paths carry the traffic.
//!
//! Ported to the declarative scenario engine: the whole experiment is
//! one `ecp_scenario::Scenario` value; this binary only formats output.
//!
//! Usage: `--duration 8`

use ecp_bench::{arg, print_table, write_json};
use ecp_scenario::run_scenario;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    /// (t, middle, upper, lower) delivered rates in Mbps.
    series: Vec<(f64, f64, f64, f64)>,
    consolidation_done_at: Option<f64>,
    failure_at: f64,
    restored_at: Option<f64>,
    restore_latency_ms: Option<f64>,
}

fn main() {
    let duration: f64 = arg("duration", 8.0);

    let scenario = ecp_bench::scenarios::fig7(duration);
    let report = run_scenario(&scenario).expect("fig7 scenario runs");

    // Extract the three series: middle = sum of always-on paths, upper =
    // A's on-demand, lower = C's on-demand.
    let samples = report.per_path_samples.expect("fig7 keeps per-path rates");
    let series: Vec<(f64, f64, f64, f64)> = samples
        .rows()
        .map(|(s, rates)| {
            let middle = rates.flow(0)[0] + rates.flow(1)[0];
            let upper = rates.flow(0)[1];
            let lower = rates.flow(1)[1];
            (s.t, middle / 1e6, upper / 1e6, lower / 1e6)
        })
        .collect();

    let consolidated = series
        .iter()
        .find(|&&(t, m, u, l)| t >= 5.0 && m > 4.5 && u < 0.1 && l < 0.1)
        .map(|&(t, ..)| t);
    let restored = series
        .iter()
        .find(|&&(t, _, u, l)| t >= 5.7 && (u + l) > 4.5)
        .map(|&(t, ..)| t);

    let rows: Vec<Vec<String>> = series
        .iter()
        .filter(|&&(t, ..)| (4.0..=7.0).contains(&t))
        .step_by(2)
        .map(|&(t, m, u, l)| {
            vec![
                format!("{t:.2}"),
                format!("{m:.2}"),
                format!("{u:.2}"),
                format!("{l:.2}"),
            ]
        })
        .collect();
    print_table(
        "Fig 7: per-path rates (Mbps) around TE start (t=5) and failure (t=5.7)",
        &["t (s)", "middle", "upper", "lower"],
        &rows,
    );
    println!(
        "\npaper: consolidation ~200 ms after t=5; failover restores traffic after ~110 ms + RTTs"
    );
    match (consolidated, restored) {
        (Some(c), Some(r)) => println!(
            "measured: consolidated at t={c:.2}s ({:.0} ms after TE start); restored at t={r:.2}s ({:.0} ms after failure)",
            (c - 5.0) * 1e3,
            (r - 5.7) * 1e3
        ),
        _ => println!("measured: consolidation={consolidated:?} restored={restored:?}"),
    }

    write_json(
        "fig7_click_adaptation",
        &Out {
            series,
            consolidation_done_at: consolidated,
            failure_at: 5.7,
            restored_at: restored,
            restore_latency_ms: restored.map(|r| (r - 5.7) * 1e3),
        },
    );
}
