//! Declarative experiments: load scenarios from TOML (inline and from
//! the shipped `examples/*.toml` documents), run them, and expand one
//! of their parameters into a grid — no experiment wiring code at all.
//! (A campaign entry runs the same grid with caching and a report; see
//! `examples/campaign_planner_grid.toml`.)
//!
//! ```text
//! cargo run --release --example scenario_from_toml
//! ```

use response::scenario::{grid, run_scenario, Axis, Param, Scenario};

/// A complete experiment as data: the Fig.-3 Click network under an
/// overload step with a mid-run failure of the always-on (middle) link.
const SCENARIO_TOML: &str = r#"
name = "click-overload-and-failure"
seed = 5
duration_s = 8.0
topology = "Fig3Click"
power = "Cisco12000"
pairs = "Fig3"
tables = "Fig3Paper"
engine = "Simnet"

[traffic]
matrix = "Uniform"
scale = { PerFlowBps = { bps = 1.0 } }

# Start at 2 Mbps per source, step to 6 Mbps at t = 3 s (beyond what the
# middle path can carry within the threshold -> on-demand wake-up).
[[traffic.program.segments]]
duration_s = 8.0
interval_s = 1.0
shape = { Steps = { levels = [2e6, 6e6], step_s = 3.0 } }

# Fail the middle link at t = 6 s -> failover takes over.
[[events]]
[events.LinkFail]
at = 6.0
link = { ByName = { from = "E", to = "H" } }

[planner]
num_paths = 3
margin = 1.0
exclude_fraction = 0.2

[sim]
te_threshold = 0.9
te_step = 0.7
te_min_share = 1e-3
control_interval_s = 0.1
wake_time_s = 0.01
detect_delay_s = 0.1
sleep_after_s = 0.2
sample_interval_s = 0.1
te_start_s = 0.0

[metrics]
power_series = true
delivered_series = true
per_path_rates = false
"#;

fn main() {
    // 1. Parse and run the declarative scenario.
    let scenario = Scenario::from_toml(SCENARIO_TOML).expect("valid scenario TOML");
    let report = run_scenario(&scenario).expect("scenario runs");
    println!(
        "`{}`: {} samples, mean power {:.1}%, delivered fraction {:.3}, lag {:.1}s",
        report.name,
        report.samples,
        100.0 * report.mean_power_frac,
        report.mean_delivered_fraction,
        report.max_tracking_lag_s
    );
    for (t, off, del) in report
        .delivered_series
        .as_deref()
        .unwrap_or_default()
        .iter()
        .step_by(10)
    {
        println!(
            "  t={t:4.1}s offered {:4.1} Mbps delivered {:4.1} Mbps",
            off / 1e6,
            del / 1e6
        );
    }

    // 2. Expand the TE threshold into a grid over the same scenario.
    let instances = grid(&scenario, &[Axis::new(Param::Threshold, [0.5, 0.7, 0.9])]);
    println!("\nthreshold grid ({} instances):", instances.len());
    for (_, instance) in &instances {
        let report = run_scenario(instance).expect("grid instance runs");
        println!(
            "  {}: mean power {:.1}%, delivered fraction {:.3}",
            instance.name,
            100.0 * report.mean_power_frac,
            report.mean_delivered_fraction
        );
    }

    // 3. A shipped document: the §5.4 packet-latency experiment runs on
    // the event-per-packet engine straight from its TOML file.
    let doc = include_str!("extension_packet_latency.toml");
    let packet = Scenario::from_toml(doc).expect("valid packet scenario TOML");
    let report = run_scenario(&packet).expect("packet scenario runs");
    let detail = report.packet.expect("packet engine detail");
    println!(
        "\n`{}` ({} flows): mean delay {:.2} ms, p99 {:.2} ms, queueing {:.3} ms, {} drops",
        report.name,
        detail.flows.len(),
        1e3 * detail.mean_delay_s,
        1e3 * detail.max_p99_delay_s,
        1e3 * detail.mean_queue_delay_s,
        detail.dropped
    );
}
