//! Fault injection: run the Figure-3 topology live in the event
//! simulator, watch REsPoNseTE consolidate traffic for energy, then fail
//! the always-on link and watch the failover paths absorb it (the
//! Figure-7 workflow, smoltcp-style fault injection included).
//!
//! ```text
//! cargo run --release --example failover_adaptation [fail_time_s]
//! ```

use response::core::tables::OdPaths;
use response::core::TeConfig;
use response::prelude::*;
use response::simnet::{SimConfig, Simulation};
use response::topo::gen::fig3_click;

fn main() {
    let fail_at: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.7);

    let (topo, n) = fig3_click();
    let power = PowerModel::cisco12000();

    // Install the paper's Figure-3 tables by hand (the planner derives
    // the same ones; spelling them out keeps the example readable).
    let mut tables = PathTables::new();
    tables.insert(
        n.a,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.a, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.a, n.d, n.g, n.k])],
            failover: Path::new(vec![n.a, n.d, n.g, n.k]),
        },
    );
    tables.insert(
        n.c,
        n.k,
        OdPaths {
            always_on: Path::new(vec![n.c, n.e, n.h, n.k]),
            on_demand: vec![Path::new(vec![n.c, n.f, n.j, n.k])],
            failover: Path::new(vec![n.c, n.f, n.j, n.k]),
        },
    );

    let cfg = SimConfig {
        te: TeConfig::default(),
        control_interval: 0.1, // max RTT of the 16.67 ms topology
        wake_time: 0.01,
        detect_delay: 0.1,
        sleep_after: 0.2,
        sample_interval: 0.05,
        te_start: 1.0,
    };
    let mut sim = Simulation::new(&topo, &power, &tables, cfg);
    let fa = sim.add_flow(&tables, n.a, n.k, 2.5e6);
    let fc = sim.add_flow(&tables, n.c, n.k, 2.5e6);
    // Pre-TE: traffic spread over both candidate paths, nothing asleep.
    sim.set_shares(fa, vec![0.5, 0.5]);
    sim.set_shares(fc, vec![0.5, 0.5]);

    let eh = topo.find_arc(n.e, n.h).expect("middle link");
    sim.schedule_link_failure(fail_at, eh);
    sim.run_until(fail_at + 2.0);

    println!("t(s)   middle  upper  lower  sleeping-links  power");
    for (s, rates) in sim.series().rows().step_by(4) {
        let middle = rates.flow(0)[0] + rates.flow(1)[0];
        let upper = rates.flow(0)[1];
        let lower = rates.flow(1)[1];
        println!(
            "{:>5.2}  {:>5.2}M {:>5.2}M {:>5.2}M  {}",
            s.t,
            middle / 1e6,
            upper / 1e6,
            lower / 1e6,
            format_args!("{:>14}  {:>4.0}%", "", 100.0 * s.power_frac),
        );
    }
    println!(
        "\ntimeline: TE starts at t=1.0 and consolidates onto the middle path within ~2 control rounds;"
    );
    println!(
        "the middle link fails at t={fail_at}; detection takes 100 ms; the failover paths wake in 10 ms and restore delivery."
    );
    let last = sim.series().samples().last().unwrap();
    println!(
        "final delivery: {:.2} Mbps of {:.2} Mbps offered",
        last.delivered_total / 1e6,
        last.offered_total / 1e6
    );
}
