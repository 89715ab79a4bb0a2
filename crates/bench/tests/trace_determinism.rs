//! Telemetry-trace determinism.
//!
//! A trace is a pure function of the scenario: re-running it or tracing
//! it from another rayon pool must produce byte-identical JSONL, a
//! campaign's stored runs (which carry each simnet run's telemetry
//! snapshot) must not depend on the thread count, and a traced run must
//! leave the report byte-identical to an untraced one (the no-op sink is
//! the default; golden hashes are pinned on it). One small registry
//! scenario is additionally pinned against a full golden trace file.
//!
//! Regenerate the golden (only when the event schema deliberately
//! changes):
//!
//! ```text
//! ECP_WRITE_TE_GOLDENS=1 cargo test -p ecp-bench --test trace_determinism
//! ```

use ecp_campaign::{exec, CampaignSpec, EntrySpec, ResultStore, Workers};
use ecp_scenario::{resolve, run_resolved_traced, Param, Scenario, ScenarioReport, TraceOutput};
use proptest::prelude::*;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_fig7.jsonl")
}

/// The Fig. 7 Click-adaptation trace, event for event. Pins the event
/// schema itself (names, field sets, float rendering), not just
/// self-consistency: any serialization change must regenerate this
/// file deliberately.
#[test]
fn fig7_trace_matches_golden() {
    let scenario = ecp_bench::scenarios::campaign_scenario("fig7-click-adaptation").unwrap();
    let (_, trace) = traced_run(&scenario);
    let body = trace.to_jsonl();
    assert!(!trace.lines.is_empty(), "fig7 must trace events");

    if std::env::var_os("ECP_WRITE_TE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), &body).unwrap();
        return;
    }
    let want = std::fs::read_to_string(golden_path())
        .expect("golden trace missing; generate with ECP_WRITE_TE_GOLDENS=1");
    assert_eq!(
        body, want,
        "fig7 trace drifted from the golden event stream"
    );
}

fn traced_run(scenario: &Scenario) -> (ScenarioReport, TraceOutput) {
    run_resolved_traced(scenario, &resolve(scenario).unwrap()).unwrap()
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "ecp-trace-test-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The trace lines of each of `scenarios`, traced in a rayon pool of
/// `threads` workers.
fn traces_in_pool(scenarios: &[Scenario], threads: usize) -> Vec<Vec<String>> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| {
            scenarios
                .par_iter()
                .map(|s| traced_run(s).1.lines)
                .collect()
        })
}

/// Every file in a store subdirectory, name → bytes.
fn dir_files(dir: &Path, sub: &str) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join(sub)).expect("store dir exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Re-running a traced scenario reproduces the identical trace and
    /// snapshot, and tracing leaves the report byte-identical to the
    /// untraced run (with `metrics.telemetry` unset).
    #[test]
    fn traced_runs_are_deterministic_and_report_invariant(
        which in 0usize..3,
        seed in 1u64..500,
        load in 0.6f64..1.2,
    ) {
        let ids = [
            "fig7-click-adaptation",
            "fig8a-pop-access",
            "te-stability-damped-step",
        ];
        let mut scenario = ecp_bench::scenarios::campaign_scenario(ids[which]).unwrap();
        Param::Seed.apply(&mut scenario, seed as f64);
        Param::LoadScale.apply(&mut scenario, load);

        let (report_a, trace_a) = traced_run(&scenario);
        let (report_b, trace_b) = traced_run(&scenario);
        prop_assert_eq!(&trace_a.lines, &trace_b.lines, "{}: trace not deterministic", ids[which]);
        prop_assert_eq!(&trace_a.snapshot, &trace_b.snapshot);
        prop_assert!(!trace_a.lines.is_empty());

        let untraced = serde_json::to_string(&ecp_scenario::run_scenario(&scenario).unwrap()).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&report_a).unwrap(),
            untraced,
            "{}: tracing perturbed the report", ids[which]
        );
        prop_assert_eq!(serde_json::to_string(&report_a).unwrap(), serde_json::to_string(&report_b).unwrap());
    }

    /// The in-process campaign executor's stored runs (with their
    /// telemetry snapshots), timeseries sidecars and stats are invariant
    /// under the rayon worker-thread count, and the store holds no event
    /// traces. The event streams of the same runs, traced from pools of
    /// 1 and N threads, are byte-identical.
    #[test]
    fn campaign_traces_are_thread_count_invariant(
        seed in 1u64..200,
        threads in 2usize..5,
    ) {
        let spec = CampaignSpec::new("trace-threads")
            .entry(
                EntrySpec::registry("fig7", "fig7-click-adaptation")
                    .with_seeds([seed, seed + 1]),
            )
            .entry(EntrySpec::registry("stability", "te-stability-damped-step"));
        let resolver = |id: &str| ecp_bench::scenarios::campaign_scenario(id);

        let dir_1 = fresh_dir("t1");
        let store_1 = ResultStore::open(&dir_1).unwrap();
        let opts_1 = exec::ExecOptions { threads: Some(1), ..Default::default() };
        let stats_1 = exec::execute(&spec, &resolver, &store_1, 1, &opts_1, &Workers::InProcess).unwrap();
        prop_assert_eq!(stats_1.failed, 0);

        let dir_n = fresh_dir("tn");
        let store_n = ResultStore::open(&dir_n).unwrap();
        let opts_n = exec::ExecOptions { threads: Some(threads), ..Default::default() };
        let stats_n = exec::execute(&spec, &resolver, &store_n, 1, &opts_n, &Workers::InProcess).unwrap();
        prop_assert_eq!(stats_n, stats_1);

        let runs = dir_files(&dir_1, "runs");
        prop_assert_eq!(&runs, &dir_files(&dir_n, "runs"));
        prop_assert_eq!(dir_files(&dir_1, "timeseries"), dir_files(&dir_n, "timeseries"));
        let snapshots = runs
            .values()
            .filter(|b| String::from_utf8_lossy(b).contains("\"events_processed\""))
            .count();
        prop_assert_eq!(snapshots, runs.len(), "every simnet run stores its snapshot");
        for d in [&dir_1, &dir_n] {
            prop_assert!(!d.join("traces").exists(), "a campaign stores no traces");
        }

        let scenarios: Vec<Scenario> = exec::expand(&spec, &resolver)
            .unwrap()
            .into_iter()
            .map(|u| u.scenario)
            .collect();
        let traces_1 = traces_in_pool(&scenarios, 1);
        prop_assert!(traces_1.iter().all(|t| !t.is_empty()), "simnet runs trace events");
        prop_assert_eq!(
            &traces_1,
            &traces_in_pool(&scenarios, threads),
            "event streams depend on the thread count"
        );

        for d in [dir_1, dir_n] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
