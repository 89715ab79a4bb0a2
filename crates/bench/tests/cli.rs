//! The `ecp` binary end to end: `ecp run` writes the same report, trace
//! and overrides as the library calls it wraps, `ecp trace summarize`
//! reports the profiling sink's span timings, inputs the scenario
//! boundary rejects exit 1 naming the field, and malformed command
//! lines exit 2 without a panic.

use ecp_bench::scenarios::{campaign_registry, campaign_scenario};
use ecp_scenario::{run_scenario, Param, Scenario};
use serde::Deserialize;
use std::path::PathBuf;
use std::process::{Command, Output};

fn ecp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ecp"))
        .args(args)
        .output()
        .expect("ecp starts")
}

/// A fresh scratch path for one test's output file.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn example(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `ecp run <input> [extra] --out F` succeeds and returns F's bytes.
fn run_out(input: &str, extra: &[&str], file: &str) -> String {
    let out = scratch(file);
    let mut args = vec!["run", input, "--out", out.to_str().unwrap()];
    args.extend(extra);
    let result = ecp(&args);
    assert!(
        result.status.success(),
        "ecp run {input}: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    std::fs::read_to_string(&out).unwrap()
}

fn pretty_report(scenario: &Scenario) -> String {
    serde_json::to_string_pretty(&run_scenario(scenario).unwrap()).unwrap()
}

#[test]
fn run_writes_the_library_report_for_one_id_per_engine() {
    for id in [
        "fig4-fattree-near",
        "fig7-click-adaptation",
        "extension-sleep-consolidated",
        "text-web-response",
    ] {
        let expected = pretty_report(&campaign_scenario(id).unwrap());
        assert_eq!(run_out(id, &[], &format!("{id}.json")), expected, "{id}");
    }
}

#[test]
fn run_writes_the_library_report_for_a_scenario_toml() {
    let path = example("extension_packet_latency.toml");
    let doc = std::fs::read_to_string(&path).unwrap();
    let expected = pretty_report(&Scenario::from_toml(&doc).unwrap());
    assert_eq!(run_out(&path, &[], "toml.json"), expected);
}

#[test]
fn set_overrides_apply_the_params_in_order() {
    let id = "fig4-fattree-near";
    let mut scenario = campaign_scenario(id).unwrap();
    Param::NumPaths.apply(&mut scenario, 4.0);
    Param::Seed.apply(&mut scenario, 2.0);
    let sets = ["--set", "NumPaths=4", "--set", "Seed=2"];
    let got = run_out(id, &sets, "set.json");
    assert_eq!(got, pretty_report(&scenario));
    assert_ne!(got, pretty_report(&campaign_scenario(id).unwrap()));
}

#[test]
fn trace_writes_the_traced_run_lines() {
    let scenario = campaign_scenario("fig7-click-adaptation").unwrap();
    let resolved = ecp_scenario::resolve(&scenario).unwrap();
    let (_, trace) = ecp_scenario::run_resolved_traced(&scenario, &resolved).unwrap();
    let path = scratch("fig7.jsonl");
    let result = ecp(&[
        "run",
        "fig7-click-adaptation",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(result.status.success());
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(!trace.lines.is_empty());
    assert_eq!(written.lines().collect::<Vec<_>>(), trace.lines);
}

/// One `spans` row of `ecp trace summarize --json`.
#[derive(Debug, Deserialize)]
struct SpanRow {
    name: String,
    count: u64,
    total_s: f64,
    self_s: f64,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
}

#[derive(Debug, Deserialize)]
struct Summary {
    spans: Vec<SpanRow>,
}

/// `trace summarize` folds the `Span` lines through the profiling
/// sink's own aggregate: for every span that writes lines, its row
/// equals the sink's `TimingSnapshot` entry exactly.
#[test]
fn trace_summarize_spans_match_the_profiling_sink() {
    use ecp_scenario::{resolve_with_sink, run_resolved_with_sink, FakeClock, SpanSink};
    use ecp_telemetry::SpanName;

    let scenario = campaign_scenario("te-stability-undamped").unwrap();
    let mut sink = SpanSink::with_clock(FakeClock::new(1e-4));
    let resolved = resolve_with_sink(&scenario, &mut sink).unwrap();
    let (_, trace, mut sink) = run_resolved_with_sink(&scenario, &resolved, sink).unwrap();
    let timing = sink.timing();
    let path = scratch("profiled.jsonl");
    std::fs::write(&path, trace.to_jsonl()).unwrap();

    let result = ecp(&["trace", "summarize", path.to_str().unwrap(), "--json"]);
    assert!(result.status.success());
    let summary: Summary = serde_json::from_str(&String::from_utf8_lossy(&result.stdout)).unwrap();
    let writes_line = |name: &str| {
        SpanName::ALL
            .iter()
            .any(|s| s.name() == name && s.writes_line())
    };
    let expected: Vec<_> = timing
        .spans
        .iter()
        .filter(|t| writes_line(&t.name))
        .collect();
    assert!(expected.len() >= 3, "{expected:?}");
    assert_eq!(summary.spans.len(), expected.len(), "{:?}", summary.spans);
    for t in expected {
        let row = summary.spans.iter().find(|r| r.name == t.name);
        let row = row.unwrap_or_else(|| panic!("no row for {}", t.name));
        assert_eq!(
            (row.count, row.total_s, row.self_s),
            (t.count, t.total_s, t.self_s),
            "{}",
            t.name
        );
        assert_eq!(
            (row.p50_s, row.p95_s, row.p99_s),
            (t.p50_s, t.p95_s, t.p99_s),
            "{}",
            t.name
        );
    }
}

/// Values the scenario boundary rejects make `ecp run` exit 1 naming
/// the field: path counts outside the planner's range, load scales
/// whose offered volume or its gravity split overflows (on a simnet
/// and on a replay scenario), and load scales that put the base outside
/// the capacity probe's bracket.
#[test]
fn rejected_inputs_exit_1_naming_the_field() {
    let cases = [
        ("ablation-planner-base", "NumPaths=1", "planner.num_paths"),
        (
            "ablation-planner-base",
            "NumPaths=1e12",
            "planner.num_paths",
        ),
        ("te-stability-undamped", "LoadScale=1e308", "traffic.scale"),
        ("fig6-genuity-stress", "LoadScale=1e308", "traffic.scale"),
        // a finite volume whose gravity split overflows
        ("te-stability-undamped", "LoadScale=1e278", "traffic.scale"),
        // bases more than six decades from capacity: the probe's bracket
        ("text-alwayson-response", "LoadScale=1e10", "traffic.scale"),
        ("text-alwayson-response", "LoadScale=1e-7", "traffic.scale"),
        ("fig5-geant-replay", "LoadScale=1e10", "traffic.scale"),
        ("fig5-geant-replay", "LoadScale=1e-7", "traffic.scale"),
    ];
    for (id, set, field) in cases {
        let result = ecp(&["run", id, "--set", set]);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{id} {set}: {stderr}");
        assert!(
            stderr.contains("invalid scenario") && stderr.contains(field),
            "{id} {set}: {stderr}"
        );
    }
}

/// In-process campaigns are one pass over every run, so an explicit
/// `--shards` without subprocess workers would do nothing: it is a
/// usage error that says why.
#[test]
fn shards_without_subprocess_workers_exit_2() {
    let smoke = example("campaign_smoke.toml");
    for workers in [&[][..], &["--workers", "inprocess"][..]] {
        let mut args = vec!["campaign", "run", smoke.as_str(), "--shards", "2"];
        args.extend(workers);
        let result = ecp(&args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "ecp {args:?}: {stderr}");
        assert!(
            stderr.contains("--shards is the number of worker subprocesses"),
            "ecp {args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "ecp {args:?}: {stderr}");
    }
}

#[test]
fn malformed_command_lines_exit_2_without_a_panic() {
    let smoke = example("campaign_smoke.toml");
    let cases: &[&[&str]] = &[
        &["run", "no-such-scenario"],
        &["run", "fig7-click-adaptation", "--set", "NumPaths"],
        &["run", "fig7-click-adaptation", "--set", "NoSuchParam=1"],
        &["run", "fig7-click-adaptation", "--set", "Seed=x"],
        &["run", "fig7-click-adaptation", "--set", "LoadScale=inf"],
        &["run", "fig7-click-adaptation", "--set", "LoadScale=NaN"],
        &["run", "fig7-click-adaptation", "--forse"],
        &["run", "fig7-click-adaptation", "--out"],
        &["run", "fig7-click-adaptation", "--snapshot", "s.json"],
        &["run"],
        &["campaign", "run", &smoke, "--shards", "abc"],
        &["campaign", "run", &smoke, "--threads", "zz"],
        &["campaign", "run", &smoke, "--forse"],
        &["campaign", "run", &smoke, "--workers", "threads"],
        &["campaign", "watch", &smoke, "--timeout-s", "abc"],
        &["campaign", "worker", &smoke],
        &["trace", "diff", "a.jsonl"],
        &["trace", "chrome", "a.jsonl", "--json"],
        &["nope"],
        &[],
    ];
    for args in cases {
        let result = ecp(args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "ecp {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "ecp {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "ecp {args:?}: {stderr}");
    }
}

#[test]
fn unknown_id_lists_the_registry() {
    let result = ecp(&["run", "no-such-scenario"]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    for (id, _) in campaign_registry() {
        assert!(stderr.contains(id), "{id} listed");
    }
}

/// The full-registry campaign names exactly the registry ids (CI runs
/// `ecp run` on every id it reads from this file).
#[test]
fn full_registry_campaign_names_every_registry_id() {
    let spec =
        ecp_campaign::CampaignSpec::from_path(example("campaign_full_registry.toml").as_ref())
            .unwrap();
    let mut in_file: Vec<String> = spec
        .entries
        .into_iter()
        .filter_map(|e| e.registry)
        .collect();
    in_file.sort();
    in_file.dedup();
    let mut registry: Vec<String> = campaign_registry()
        .into_iter()
        .map(|(id, _)| id.to_string())
        .collect();
    registry.sort();
    assert_eq!(in_file, registry);
}

/// The simnet planner grid is one campaign of 2 x 2 x 2 runs.
#[test]
fn planner_grid_campaign_expands_to_eight_runs() {
    let spec = example("campaign_planner_grid.toml");
    let out = scratch("planner-grid");
    let result = ecp(&["campaign", "list", &spec, "--out", out.to_str().unwrap()]);
    assert!(result.status.success());
    assert_eq!(String::from_utf8_lossy(&result.stdout).lines().count(), 8);
}
