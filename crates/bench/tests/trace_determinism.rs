//! Telemetry-trace determinism.
//!
//! A trace is a pure function of the scenario: re-running, changing the
//! rayon thread count, or re-sharding a campaign must all produce
//! byte-identical JSONL, and a traced run must leave the report
//! byte-identical to an untraced one (the no-op sink is the default;
//! golden hashes are pinned on it). One small registry scenario is
//! additionally pinned against a full golden trace file.
//!
//! Regenerate the golden (only when the event schema deliberately
//! changes):
//!
//! ```text
//! ECP_WRITE_TE_GOLDENS=1 cargo test -p ecp-bench --test trace_determinism
//! ```

use ecp_campaign::{exec, CampaignSpec, EntrySpec, ResultStore};
use ecp_scenario::{resolve, run_resolved_traced, Param, Scenario, ScenarioReport, TraceOutput};
use proptest::prelude::*;
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

    /// The campaign executor's stored trace artifacts are invariant
    /// under the rayon worker-thread count.
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
        let stats_1 = exec::run_campaign(&spec, &resolver, &store_1, 1, &opts_1).unwrap();
        prop_assert_eq!(stats_1.failed, 0);

        let dir_n = fresh_dir("tn");
        let store_n = ResultStore::open(&dir_n).unwrap();
        let opts_n = exec::ExecOptions { threads: Some(threads), ..Default::default() };
        exec::run_campaign(&spec, &resolver, &store_n, 1, &opts_n).unwrap();

        prop_assert_eq!(
            dir_files(&dir_1, "traces"),
            dir_files(&dir_n, "traces"),
            "trace artifacts depend on the thread count"
        );
        prop_assert_eq!(dir_files(&dir_1, "runs"), dir_files(&dir_n, "runs"));
        prop_assert!(!dir_files(&dir_1, "traces").is_empty(), "simnet runs must leave traces");

        for d in [dir_1, dir_n] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
