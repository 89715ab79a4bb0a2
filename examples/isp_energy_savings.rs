//! ISP scenario: replay two weeks of diurnal traffic over a GÉANT-like
//! network and report the power-over-time profile of REsPoNse vs a
//! conventional (never-sleeping) OSPF network — the Figure-5 workflow as
//! a library user would run it.
//!
//! ```text
//! cargo run --release --example isp_energy_savings
//! ```

use response::core::{steady_state_replay, TeConfig};
use response::prelude::*;
use response::topo::gen;
use response::traffic::{geant_like_trace, random_od_pairs_subset};

fn main() {
    let topo = gen::geant();
    let power = PowerModel::cisco12000();

    // The ISP's customers sit at a subset of PoPs; the rest are transit.
    let pairs = random_od_pairs_subset(&topo, 17, 150, 42);
    let planner = Planner::new(&topo, &power);
    let tables = planner.plan_pairs(&PlannerConfig::default(), &pairs);
    println!(
        "planned {} OD pairs once — no recomputation for the whole replay",
        tables.len()
    );

    // Scale a synthetic diurnal trace so daytime peaks occasionally need
    // the on-demand paths.
    let base = response::traffic::gravity_matrix(&topo, &pairs, 1e9);
    let te = TeConfig::default();
    let aon = response::core::replay::max_supported_scale(&topo, &tables, &base, &te, 1)
        .expect("the 1 Gbps base is inside the probe bracket");
    let trace = geant_like_trace(&topo, &pairs, 14, 1e9 * aon * 1.15, 42);

    let report = steady_state_replay(&topo, &power, &tables, &trace, &te);
    println!(
        "{} intervals replayed; congestion in {:.2}% of them",
        report.points.len(),
        100.0 * report.congested_fraction()
    );

    // Daily profile.
    let per_day = (86_400.0 / trace.interval_s) as usize;
    println!("\nday  mean power  min..max");
    for (d, chunk) in report.points.chunks(per_day).enumerate() {
        let mean = chunk.iter().map(|p| p.power_frac).sum::<f64>() / chunk.len() as f64;
        let min = chunk
            .iter()
            .map(|p| p.power_frac)
            .fold(f64::INFINITY, f64::min);
        let max = chunk.iter().map(|p| p.power_frac).fold(0.0, f64::max);
        println!(
            "{:>3}  {:>9.1}%  {:.1}%..{:.1}%",
            d + 1,
            100.0 * mean,
            100.0 * min,
            100.0 * max
        );
    }
    println!(
        "\nsavings vs a conventional always-on network: {:.1}%",
        100.0 * (1.0 - report.mean_power_fraction())
    );
}
