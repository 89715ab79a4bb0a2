//! One renderer per report block. `ecp run` prints a table for every
//! block a [`ScenarioReport`] carries, so each table is written once
//! and serves every scenario whose report has that block, then the
//! paper's claim for the scenario, if it has one.

use crate::out::outln;
use ecp_power::ThermalModel;
use ecp_scenario::{
    AppDetail, PacketDetail, RecomputeStats, ReplayDetail, ScenarioReport, TimingSnapshot,
};
use ecp_simnet::Series;

/// Rows a downsampled series table prints at most.
const ROWS: usize = 20;

/// What the paper says each registry scenario shows, one claim per
/// line: the registry ids it belongs to, `: `, the claim. A scenario
/// TOML is looked up by its `name`.
const CLAIMS: &str = "\
fig1a-traffic-deviation: in almost 50% of cases the traffic changes by >= 20% over a 5-min interval
fig1b-recomputation-rate: existing approaches recompute up to 4 times per hour (the trace-granularity bound)
fig2a-config-dominance: the dominant configuration is active ~60% of the time, 13 configurations in total
fig2b-fattree-critical-paths: GEANT: 2 paths per pair cover ~98% of the traffic, 3 cover all; FatTree needs ~5
fig4-fattree-near fig4-fattree-far: ECMP flat ~100%; REsPoNse(near) < REsPoNse(far) < 100%; REsPoNse == ElasticTree optimal
fig5-geant-replay: ~30% savings today, ~42% with alternative HW; power varies little; 0 recomputations
fig6-genuity-stress fig6-genuity-ospf: ~30% savings at low util; progressive activation with load; optimal lowest
fig7-click-adaptation: consolidation ~200 ms after t=5; failover restores traffic after ~110 ms + RTTs
fig8a-pop-access fig8b-fat-tree: rates match demand within a few RTTs; 5 s stalls only when waking resources
fig9-streaming-rep-lat fig9-streaming-invcap: playable % essentially equal across schemes; block latency +~5% under REsPoNse-lat
text-web-response text-web-invcap: +9% web retrieval latency under REsPoNse vs OSPF-InvCap
text-alwayson-response text-alwayson-invcap: always-on alone carries ~50% of the OSPF-carriable volume
text-failover-coverage: a single failover path deals with the vast majority of failures
text-peak-provisioning: average peak duration < 2 h; peaks fit without extra cooling
extension-replan-trigger: (future work) quantify when changes warrant recomputing the paths
extension-packet-latency-response extension-packet-latency-invcap: +5% (blocks) / +9% (web) end-to-end latency under consolidation
extension-sleep-consolidated extension-sleep-spread: (§2.1.1) inter-packet gaps are often too short to sleep in; consolidation creates long idle periods instead
ablation-planner-base: N=3 paths suffice on ISP topologies; a (1+beta) latency bound marginally reduces savings; excluding 20% of the links suffices for peak demands
ablation-threshold: lower thresholds wake on-demand paths sooner (more headroom, more power)";

/// The paper's claim for registry id (or scenario name) `key`.
fn claim(key: &str) -> Option<&'static str> {
    CLAIMS.lines().find_map(|line| {
        let (ids, claim) = line.split_once(": ")?;
        ids.split(' ').any(|id| id == key).then_some(claim)
    })
}

/// Print every block `r` carries, then the paper's claim for `key`.
pub fn report(r: &ScenarioReport, key: &str) {
    headline(r);
    series(r);
    if let Some(s) = &r.per_path_samples {
        path_classes(s);
    }
    if let Some(d) = &r.replay {
        replay(d);
    }
    if let Some(p) = &r.packet {
        packet(p);
    }
    if let Some(a) = &r.app {
        app(a);
    }
    if let Some(t) = &r.table_stats {
        fields(
            "installed tables",
            &[
                ("idle power", pct(t.idle_power_frac)),
                (
                    "mean delay stretch",
                    format!("{:.2}x", t.mean_delay_stretch),
                ),
                ("max delay stretch", format!("{:.2}x", t.max_delay_stretch)),
                ("distinct on-demand", pct(t.distinct_on_demand_fraction)),
            ],
        );
    }
    if let Some(c) = &r.capacity {
        fields(
            "max supported volume at fixed gravity proportions",
            &[
                ("always-on only (Gbps)", gbps(c.always_on_bps)),
                ("all installed tables (Gbps)", gbps(c.full_tables_bps)),
            ],
        );
    }
    if let Some(f) = &r.failover {
        fields(
            "single-link-failure coverage",
            &[
                ("survivable (pair,link) combos", pct(f.coverage)),
                ("fully protected pairs", pct(f.pairs_fully_protected)),
                ("critical links", f.critical_links.to_string()),
            ],
        );
    }
    if let Some(s) = &r.stability {
        fields(
            "control-loop stability",
            &[
                ("shortfall", pct(s.shortfall_fraction)),
                ("osc/s", format!("{:.3}", s.oscillations_per_s)),
                (
                    "period (s)",
                    opt(s.dominant_period_s, |p| format!("{p:.1}")),
                ),
                ("settle (s)", opt(s.settling_time_s, |t| format!("{t:.0}"))),
                ("moves", s.churn_moves.to_string()),
            ],
        );
    }
    if let Some(claim) = claim(key) {
        outln!("\npaper: {claim}");
    }
}

/// The wall-clock profile of a `--profile` run.
pub fn timing(t: &TimingSnapshot) {
    let rows: Vec<Vec<String>> = t
        .spans
        .iter()
        .map(|s| {
            let mut row = vec![s.name.clone(), s.count.to_string()];
            row.extend([s.total_s, s.self_s, s.p50_s, s.p99_s].map(|v| format!("{v:.6}")));
            row
        })
        .collect();
    table(
        &format!("span profile ({:.3} s wall)", t.wall_s),
        &["span", "count", "total s", "self s", "p50 s", "p99 s"],
        &rows,
    );
}

/// Power, delivered fraction, lag, congestion and spill.
fn headline(r: &ScenarioReport) {
    let title = format!(
        "{} ({} engine, seed {}, {} samples)",
        r.name, r.engine, r.seed, r.samples
    );
    fields(
        &title,
        &[
            ("mean power", pct(r.mean_power_frac)),
            ("delivered", format!("{:.3}", r.mean_delivered_fraction)),
            ("max lag (s)", format!("{:.1}", r.max_tracking_lag_s)),
            (
                "congested",
                opt(r.congested_fraction, |c| format!("{:.2}%", 100.0 * c)),
            ),
            (
                "spilled",
                opt(r.mean_spilled_demands, |s| format!("{s:.1}")),
            ),
        ],
    );
}

/// The power and delivered series, downsampled.
fn series(r: &ScenarioReport) {
    let power = r.power_series.as_deref().unwrap_or_default();
    let delivered = r.delivered_series.as_deref().unwrap_or_default();
    let n = power.len().max(delivered.len());
    if n == 0 {
        return;
    }
    let mut headers = vec!["t (s)"];
    if !delivered.is_empty() {
        headers.extend(["offered (Mbps)", "delivered (Mbps)", "served"]);
    }
    if !power.is_empty() {
        headers.push("power");
    }
    let rows: Vec<Vec<String>> = (0..n)
        .step_by(n.div_ceil(ROWS))
        .map(|i| {
            let t = power.get(i).map_or_else(|| delivered[i].0, |p| p.0);
            let mut row = vec![format!("{t:.2}")];
            if let Some(&(_, off, del)) = delivered.get(i) {
                row.extend([mbps(off), mbps(del), pct(del / off.max(1.0))]);
            }
            row.extend(power.get(i).map(|p| pct(p.1)));
            row
        })
        .collect();
    table("power and delivered series", &headers, &rows);
    if !power.is_empty() {
        let f: Vec<f64> = power.iter().map(|p| p.1).collect();
        let mean = f.iter().sum::<f64>() / f.len() as f64;
        let var = f.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / f.len() as f64;
        let (lo, hi) = f.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        outln!(
            "power: mean {}, min {}, max {}, stddev {:.2}pp",
            pct(mean),
            pct(lo),
            pct(hi),
            100.0 * var.sqrt()
        );
    }
}

/// The per-path series summed per path class, in `OdPaths::all` order:
/// a flow's first path is always-on, its last failover, the rest
/// on-demand. (A flow's identical paths share one column, so a
/// failover equal to an on-demand path counts as failover.)
fn path_classes(s: &Series) {
    let rows: Vec<(f64, f64, [f64; 3])> = s
        .rows()
        .map(|(sample, rates)| {
            let mut class = [0.0; 3];
            for flow in rates.iter() {
                for (i, &r) in flow.iter().enumerate() {
                    let c = match i {
                        0 => 0,
                        _ if i + 1 == flow.len() => 2,
                        _ => 1,
                    };
                    class[c] += r;
                }
            }
            (sample.t, sample.offered_total, class)
        })
        .collect();
    let shown: Vec<Vec<String>> = rows
        .iter()
        .step_by(rows.len().div_ceil(ROWS).max(1))
        .map(|(t, _, c)| vec![format!("{t:.2}"), mbps(c[0]), mbps(c[1]), mbps(c[2])])
        .collect();
    table(
        "delivered rate per path class (Mbps)",
        &["t (s)", "always-on", "on-demand", "failover"],
        &shown,
    );
    let consolidated = rows.iter().position(|(_, _, c)| {
        let total: f64 = c.iter().sum();
        total > 0.0 && c[0] >= 0.9 * total
    });
    let Some(i) = consolidated else {
        outln!("no row carries >= 90% of the delivered traffic on always-on paths");
        return;
    };
    outln!(
        "consolidated at t={:.2}s: the first row with >= 90% of the delivered traffic on \
         always-on paths",
        rows[i].0
    );
    let moved = rows[i..]
        .iter()
        .find(|(_, offered, c)| *offered > 0.0 && c[1] + c[2] >= 0.9 * offered);
    if let Some((t, ..)) = moved {
        outln!(
            "moved off at t={t:.2}s: the first later row whose on-demand and failover paths \
             deliver >= 90% of the offered traffic"
        );
    }
}

/// The replay blocks: deviation CCDF, recomputation, baselines, drift,
/// and the §4.5 peak analysis when the volume and Watt series are both
/// present.
fn replay(d: &ReplayDetail) {
    match d.trace_peak_bps {
        Some(p) => outln!("\nreplay: {} s intervals, trace peak {p} bps", d.interval_s),
        None => outln!("\nreplay: {} s intervals", d.interval_s),
    }
    if let Some(ccdf) = &d.deviation_ccdf {
        let rows: Vec<Vec<String>> = [0, 5, 10, 20, 30, 40, 50, 60, 80, 100]
            .iter()
            .filter_map(|&p| ccdf.iter().find(|c| c.0 == p as f64))
            .map(|&(p, f)| vec![format!("{p}%"), pct(f)])
            .collect();
        table(
            "traffic deviation CCDF over trace intervals",
            &["change >=", "fraction of intervals"],
            &rows,
        );
    }
    if let Some(rec) = &d.recompute {
        recompute(rec);
    }
    if !d.comparisons.is_empty() {
        let rows: Vec<Vec<String>> = d
            .comparisons
            .iter()
            .map(|c| {
                let (lo, hi) = c
                    .series
                    .iter()
                    .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                let mean = c.series.iter().sum::<f64>() / c.series.len().max(1) as f64;
                vec![
                    c.name.clone(),
                    c.series.len().to_string(),
                    pct(mean),
                    pct(lo),
                    pct(hi),
                ]
            })
            .collect();
        table(
            "baselines (power, % of original)",
            &["baseline", "points", "mean", "min", "max"],
            &rows,
        );
    }
    if let Some(drift) = &d.drift {
        let per_day = ((86_400.0 / d.interval_s) as usize).max(1);
        let trigger = drift.trigger_interval.map(|i| i / per_day);
        let placed = d.placed_series.as_deref().unwrap_or_default();
        let spilled = d.spilled_series.as_deref().unwrap_or_default();
        let rows: Vec<Vec<String>> = placed
            .chunks(per_day)
            .zip(spilled.chunks(per_day))
            .enumerate()
            .map(|(day, (pc, sc))| {
                let congested = pc.iter().filter(|&&p| p < 1.0 - 1e-9).count();
                let spilling = sc.iter().filter(|&&s| s > 0).count();
                let mark = if trigger == Some(day) {
                    "  <- replan advised"
                } else {
                    ""
                };
                vec![
                    format!("day {}{mark}", day + 1),
                    pct(congested as f64 / pc.len() as f64),
                    pct(spilling as f64 / sc.len() as f64),
                ]
            })
            .collect();
        table(
            "drift over the tables planned for day 0",
            &["", "congested intervals", "on-demand in use"],
            &rows,
        );
        match trigger {
            Some(day) => outln!(
                "replan advised on day {} ({:?}); replanning cuts tail congestion {} -> {}",
                day + 1,
                drift.reasons,
                pct(drift.congested_before),
                pct(drift.congested_after)
            ),
            None => outln!("no replan advised"),
        }
    }
    if let (Some(volume), Some(watts)) = (&d.volume_series, &d.power_w_series) {
        peak_provisioning(volume, watts, d.interval_s);
    }
}

/// Recomputation rate per day, configuration dominance, and path
/// coverage.
fn recompute(rec: &RecomputeStats) {
    let rows: Vec<Vec<String>> = rec
        .hourly_rate
        .chunks(24)
        .enumerate()
        .map(|(d, day)| {
            let mean = day.iter().sum::<f64>() / day.len() as f64;
            let max = day.iter().cloned().fold(0.0, f64::max);
            vec![
                format!("day {}", d + 1),
                format!("{mean:.2}"),
                format!("{max:.0}"),
            ]
        })
        .collect();
    table(
        "routing-table recomputation rate",
        &["", "mean recomputations/hour", "max/hour"],
        &rows,
    );
    let max = rec.hourly_rate.iter().cloned().fold(0.0, f64::max);
    outln!(
        "recomputations: {} total, mean {:.2}/hour, max {max:.0}/hour, {} optimizer failures",
        rec.total_changes,
        rec.mean_rate_per_hour,
        rec.failures
    );
    let rows: Vec<Vec<String>> = rec
        .slices
        .iter()
        .take(15)
        .enumerate()
        .map(|(i, &f)| vec![format!("config #{}", i + 1), pct(f)])
        .collect();
    table(
        "time under each routing configuration",
        &["configuration", "time share"],
        &rows,
    );
    outln!(
        "configurations: {} distinct, dominant {}",
        rec.distinct_configurations,
        pct(rec.dominant_fraction)
    );
    let rows: Vec<Vec<String>> = rec
        .coverage
        .iter()
        .map(|&(x, c)| vec![x.to_string(), pct(c)])
        .collect();
    table(
        "traffic covered by the top-X paths per OD pair",
        &["paths (X)", "covered"],
        &rows,
    );
    let x98 = rec.coverage.iter().find(|c| c.1 >= 0.98).map(|c| c.0);
    outln!(
        "paths for 98% of the traffic: {}",
        x98.map_or("more than listed".into(), |x| x.to_string())
    );
}

/// §4.5: traffic peak durations (excursions above 90 % of the maximum
/// volume) and the thermal budget of cooling sized for the median draw.
fn peak_provisioning(volume: &[f64], watts: &[f64], interval_s: f64) {
    if volume.is_empty() || watts.is_empty() {
        return;
    }
    let vmax = volume.iter().cloned().fold(0.0, f64::max);
    let peaks = ecp_traffic::peak_durations(volume, interval_s, 0.9 * vmax);
    let mean_h = peaks.iter().sum::<f64>() / peaks.len().max(1) as f64 / 3600.0;
    let max_h = peaks.iter().cloned().fold(0.0, f64::max) / 3600.0;
    let mut sorted = watts.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (typical, peak_power) = (sorted[sorted.len() / 2], sorted[sorted.len() - 1]);
    // Cooling sized for the typical draw with a 3 °C steady margin
    // below a 35 °C chiller-less limit; tau = 45 min of thermal mass.
    let mut thermal = ThermalModel::provisioned_for(typical, 25.0, 35.0, 3.0, 1.0);
    thermal.heat_capacity_j_per_c = thermal.cooling_w_per_c * 2700.0;
    let start = thermal.steady_temp(typical);
    let budget_h = thermal.time_to_limit(start, peak_power) / 3600.0;
    let series: Vec<(f64, f64)> = watts.iter().map(|&p| (interval_s, p)).collect();
    let (peak_temp, violated) = thermal.simulate(start, &series);
    let budget = match budget_h.is_finite() {
        true => format!("{budget_h:.2} h"),
        false => "unlimited".into(),
    };
    fields(
        "peak provisioning (§4.5)",
        &[
            ("traffic peaks (>90% of max)", peaks.len().to_string()),
            ("mean peak duration", format!("{mean_h:.2} h")),
            ("max peak duration", format!("{max_h:.2} h")),
            ("typical (median) power", format!("{:.1} kW", typical / 1e3)),
            ("highest power", format!("{:.1} kW", peak_power / 1e3)),
            ("thermal budget at highest power", budget),
            ("peak temperature", format!("{peak_temp:.1} C")),
            ("limit exceeded", violated.to_string()),
        ],
    );
}

/// Packet delay, queueing and drops, and the gap-sleep analysis.
fn packet(p: &PacketDetail) {
    let mut rows = vec![
        ("flows", p.flows.len().to_string()),
        ("mean delay (ms)", format!("{:.2}", 1e3 * p.mean_delay_s)),
        ("p99 delay (ms)", format!("{:.2}", 1e3 * p.max_p99_delay_s)),
        (
            "queueing (ms)",
            format!("{:.3}", 1e3 * p.mean_queue_delay_s),
        ),
        ("drops", p.dropped.to_string()),
    ];
    if let Some(s) = &p.sleep {
        rows.push(("mean link sleep fraction", pct(s.mean_sleep_fraction)));
        rows.push((
            "fully dark links",
            format!("{}/{}", s.dark_links, s.total_links),
        ));
    }
    fields("packet delivery", &rows);
}

/// Streaming runs or web retrieval latency.
fn app(a: &AppDetail) {
    match a {
        AppDetail::Streaming { runs } => {
            let rows: Vec<Vec<String>> = runs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let waves: Vec<String> = r
                        .wave_playable_pct
                        .iter()
                        .map(|w| format!("{w:.1}"))
                        .collect();
                    vec![
                        i.to_string(),
                        waves.join(" / "),
                        format!("{:.1}", r.playable_pct),
                        format!("{:.1}", 1e3 * r.mean_block_latency_s),
                        pct(r.mean_power_fraction),
                    ]
                })
                .collect();
            table(
                "streaming: % of clients able to play the video",
                &[
                    "run",
                    "per join wave",
                    "all clients",
                    "block latency (ms)",
                    "power",
                ],
                &rows,
            );
        }
        AppDetail::Web {
            latencies,
            mean_latency_s,
            p95_latency_s,
            unfinished,
            mean_power_fraction,
        } => fields(
            "web retrieval latency",
            &[
                ("requests", latencies.len().to_string()),
                ("unfinished", unfinished.to_string()),
                ("mean (ms)", format!("{:.1}", 1e3 * mean_latency_s)),
                ("p95 (ms)", format!("{:.1}", 1e3 * p95_latency_s)),
                ("power", pct(*mean_power_fraction)),
            ],
        ),
    }
}

/// Print one record as a metric/value table.
fn fields(title: &str, rows: &[(&str, String)]) {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(k, v)| vec![k.to_string(), v.clone()])
        .collect();
    table(title, &["metric", "value"], &rows);
}

/// Print an ASCII table.
fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    outln!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.chars().count());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut s = String::new();
        for (c, &w) in cells.zip(&widths) {
            s.push_str(&format!("{c:<w$}  "));
        }
        outln!("{}", s.trim_end());
    };
    line(&mut headers.iter().copied());
    let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut rules.iter().map(String::as_str));
    for r in rows {
        line(&mut r.iter().map(String::as_str));
    }
}

/// A fraction as a percentage.
fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// `f` of the value, or `-` when there is none.
fn opt(v: Option<f64>, f: impl Fn(f64) -> String) -> String {
    v.map_or("-".into(), f)
}

fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

fn gbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.305), "30.5%");
    }

    #[test]
    fn every_claim_names_a_registry_id() {
        let registry = ecp_bench::scenarios::campaign_registry();
        for line in CLAIMS.lines() {
            let (ids, _) = line.split_once(": ").expect("`ids: claim`");
            for id in ids.split(' ') {
                assert!(registry.iter().any(|(r, _)| *r == id), "{id}");
                assert_eq!(claim(id).map(|c| line.ends_with(c)), Some(true));
            }
        }
    }
}
