//! The `ecp` binary end to end: `ecp run` writes the same report, trace
//! and overrides as the library calls it wraps, a profiled trace is the
//! traced run's byte for byte, `ecp trace summarize` prints the pinned
//! summary, a closed stdout is not a crash, inputs the scenario boundary
//! rejects exit 1 naming the field, and malformed command lines exit 2
//! without a panic.

use ecp_bench::scenarios::{campaign_registry, campaign_scenario};
use ecp_scenario::{run_scenario, Param, Scenario};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

/// A trace line of 200,000 nested arrays is a malformed line, not a
/// stack overflow: `ecp trace validate` and `ecp trace summarize` exit
/// 1 naming it.
#[test]
fn a_deeply_nested_trace_line_is_named_not_an_abort() {
    let path = scratch("nested.jsonl");
    let event = r#"{"ArcLoads":{"max_util":0.5,"mean_util":0.25,"overloaded":0,"t":1.0}}"#;
    let doc = format!("{event}\n{}\n{event}\n", "[".repeat(200_000));
    std::fs::write(&path, doc).unwrap();
    for cmd in ["validate", "summarize"] {
        let result = ecp(&["trace", cmd, path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains("nested.jsonl:2:"), "{cmd}: {stderr}");
    }
}

/// `ecp trace summarize` of te-stability-undamped's trace, as text and
/// as `--json`.
const UNDAMPED_SUMMARY: &str = "\
events: 672   span: 0.500s .. 150.000s
  ControlRound     300
  ArcLoads         300
  PowerTransition  72
control: rounds=300 immediate=0 decided=13200 skipped_clean=0 share_changes=13200 waterfill_iters=25725
settle: last share change at 150.000s
peaks: max_util=3.7331 overloaded_arcs=30
power: sleeps=4 wakes=34 mean_idle_drain=2.000s
";
const UNDAMPED_SUMMARY_JSON: &str = "\
{\"control\":{\"decided\":13200,\"immediate\":0,\"rounds\":300,\"settle_s\":150.0,\
\"share_changes\":13200,\"skipped_clean\":0,\"waterfill_iters\":25725},\"events\":672,\
\"kinds\":{\"ArcLoads\":300,\"ControlRound\":300,\"PowerTransition\":72},\
\"peaks\":{\"max_util\":3.7330820934002182,\"overloaded_arcs\":30},\
\"power\":{\"mean_idle_drain_s\":2.0,\"sleeps\":4,\"wakes\":34},\
\"span_s\":{\"end\":150.0,\"start\":0.5}}
";

/// Spans never enter the trace: `--profile --trace P` writes the bytes
/// `--trace T` writes, and `trace summarize` prints the pinned summary.
#[test]
fn profiled_trace_is_the_traced_run_and_summarizes_as_pinned() {
    let (p, t, timing) = (
        scratch("undamped.profiled.jsonl"),
        scratch("undamped.trace.jsonl"),
        scratch("undamped.timing.json"),
    );
    let id = "te-stability-undamped";
    let profiled = ecp(&[
        "run",
        id,
        "--profile",
        "--trace",
        p.to_str().unwrap(),
        "--timing",
        timing.to_str().unwrap(),
    ]);
    assert!(profiled.status.success());
    assert!(ecp(&["run", id, "--trace", t.to_str().unwrap()])
        .status
        .success());
    let traced = std::fs::read(&t).unwrap();
    assert!(!traced.is_empty());
    assert_eq!(std::fs::read(&p).unwrap(), traced);
    // The profile is printed and written, per-agent spans included.
    assert!(String::from_utf8_lossy(&profiled.stdout).contains("round_decide"));
    assert!(std::fs::read_to_string(&timing)
        .unwrap()
        .contains("\"round_decide\""));

    let summarize = |extra: &[&str]| {
        let mut args = vec!["trace", "summarize", t.to_str().unwrap()];
        args.extend(extra);
        let result = ecp(&args);
        assert!(result.status.success());
        String::from_utf8(result.stdout).unwrap()
    };
    assert_eq!(summarize(&[]), UNDAMPED_SUMMARY);
    assert_eq!(summarize(&["--json"]), UNDAMPED_SUMMARY_JSON);
}

/// `ecp` with its stdout already closed, as under `| head -1`.
fn ecp_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_ecp"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("ecp starts")
}

/// Every file under `dir`, by path relative to it.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// A reader that stops early is not a crash: `ecp run` and `ecp
/// campaign run` (progress events included) exit 0 with their stdout
/// closed, without a panic, and write every file an open-stdout run
/// writes, byte for byte.
#[test]
fn a_closed_stdout_is_not_a_crash() {
    let (open, closed) = (scratch("open.fig7.jsonl"), scratch("closed.fig7.jsonl"));
    let run = |path: &Path, invoke: fn(&[&str]) -> Output| {
        invoke(&[
            "run",
            "fig7-click-adaptation",
            "--trace",
            path.to_str().unwrap(),
        ])
    };
    assert!(run(&open, ecp).status.success());
    let result = run(&closed, ecp_closed_stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        std::fs::read(&closed).unwrap(),
        std::fs::read(&open).unwrap()
    );

    let smoke = example("campaign_smoke.toml");
    let (open, closed) = (scratch("open-smoke"), scratch("closed-smoke"));
    for dir in [&open, &closed] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let campaign = |dir: &Path, invoke: fn(&[&str]) -> Output| {
        let args = ["campaign", "run", &smoke, "--progress", "jsonl", "--out"];
        invoke(&[&args[..], &[dir.to_str().unwrap()]].concat())
    };
    assert!(campaign(&open, ecp).status.success());
    let result = campaign(&closed, ecp_closed_stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let written = files(&closed);
    assert!(
        written.contains_key(Path::new("report.md")),
        "{:?}",
        written.keys()
    );
    assert_eq!(written, files(&open));
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
