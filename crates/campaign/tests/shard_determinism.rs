//! Shard-layout invariance: executing a campaign in-process (one pass),
//! as N in-process shards, or across N subprocess workers must leave
//! byte-identical run files (each carrying its run's telemetry
//! snapshot) AND byte-identical timeseries sidecars in the store, no
//! event traces, and byte-identical comparison summaries (including
//! `report.html`). Plus cache/resume, torn-file and failure-recording
//! behavior.

use ecp_campaign::{exec, report, CampaignSpec, EntrySpec, ResultStore, Workers, CODE_SALT};
use ecp_scenario::{
    resolve, run_resolved_traced, EngineSpec, EventSpec, MatrixSpec, MetricsSpec, PairsSpec, Param,
    ScaleSpec, Scenario, ScenarioBuilder,
};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use proptest::prelude::*;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn no_registry(_: &str) -> Option<Scenario> {
    None
}

/// A fast, fully-seeded simnet scenario on a small random WAN.
fn tiny_scenario(name: &str, nodes: usize, seed: u64, level: f64) -> Scenario {
    ScenarioBuilder::new(name)
        .seed(seed)
        .duration_s(2.0)
        .topology(TopoSpec::small_waxman(nodes, seed))
        .pairs(PairsSpec::Random { count: 4 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.7 },
            Program::from_shape(
                2.0,
                0.5,
                Shape::Steps {
                    levels: vec![level, 1.0],
                    step_s: 1.0,
                },
            ),
        )
        .metrics(MetricsSpec {
            power_series: true,
            delivered_series: true,
            per_path_rates: false,
            // Observatory capture rides every run so the sidecars join
            // the layout-invariance contract below.
            timeseries: true,
            timeseries_interval_s: Some(0.5),
            ..Default::default()
        })
        .build()
}

/// Two inline entries (one swept over threshold × seeds, one plain)
/// with the plain one as baseline.
fn tiny_campaign(nodes: usize, seed: u64, thresholds: &[f64]) -> CampaignSpec {
    CampaignSpec::new("shard-determinism")
        .entry(
            EntrySpec::inline("swept", tiny_scenario("swept", nodes, seed, 0.5))
                .with_sweep(Param::Threshold, thresholds.iter().copied())
                .with_seeds([seed, seed + 1]),
        )
        .entry(EntrySpec::inline(
            "plain",
            tiny_scenario("plain", nodes, seed ^ 0xBEEF, 0.8),
        ))
        .with_baseline("plain")
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "ecp-campaign-test-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every run file in a store, name → bytes.
fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let runs = dir.join("runs");
    for entry in std::fs::read_dir(&runs).expect("store exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".json"),
            "no temp or stray files in the store, found {name}"
        );
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// Whether the store at `dir` holds an event-trace directory (campaigns
/// store counter snapshots, never traces).
fn has_traces(dir: &Path) -> bool {
    dir.join("traces").exists()
}

/// The event trace of every run of `spec`, in expansion order, traced
/// in a rayon pool of `threads` workers.
fn traces_in_pool(spec: &CampaignSpec, threads: usize) -> Vec<Vec<String>> {
    let units = exec::expand(spec, &no_registry).unwrap();
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| {
            units
                .par_iter()
                .map(|u| {
                    let resolved = resolve(&u.scenario).unwrap();
                    run_resolved_traced(&u.scenario, &resolved).unwrap().1.lines
                })
                .collect()
        })
}

/// Every timeseries sidecar in a store, name → bytes.
fn timeseries_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("timeseries")).expect("timeseries dir exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".jsonl"),
            "no temp or stray files among timeseries sidecars, found {name}"
        );
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

/// Execute the whole campaign in-process.
fn run_in_process(
    spec: &CampaignSpec,
    store: &ResultStore,
    opts: &exec::ExecOptions,
) -> exec::ExecStats {
    exec::execute(spec, &no_registry, store, 1, opts, &Workers::InProcess).unwrap()
}

/// Registry-less worker subprocesses writing into the store at `dir`
/// (the spec is saved next to the store for them to read).
fn subprocess_workers(spec: &CampaignSpec, dir: &Path) -> Workers {
    std::fs::create_dir_all(dir).unwrap();
    let spec_path = dir.join("campaign.toml");
    std::fs::write(&spec_path, spec.to_toml()).unwrap();
    Workers::Subprocess(exec::WorkerCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_campaign_worker")),
        args: vec![
            spec_path.display().to_string(),
            "--out".into(),
            dir.display().to_string(),
        ],
    })
}

/// Summarize a store and render every artifact.
fn artifacts(spec: &CampaignSpec, dir: &Path) -> (String, String, String) {
    let store = ResultStore::open(dir).unwrap();
    let summary = report::summarize(spec, &no_registry, &store).unwrap();
    (summary.to_markdown(), summary.to_csv(), summary.to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// One in-process pass, N in-process shards (executed in reverse
    /// order), and N subprocess shards all yield byte-identical stored
    /// runs and byte-identical Markdown/CSV/JSON summaries.
    #[test]
    fn shard_layout_is_invisible(
        nodes in 8usize..12,
        seed in 0u64..500,
        shards in 2usize..4,
        t0 in 0.6f64..0.8,
    ) {
        let spec = tiny_campaign(nodes, seed, &[t0, 0.9]);
        let opts = exec::ExecOptions::default();

        // A: one in-process pass.
        let dir_a = fresh_dir("a");
        let store_a = ResultStore::open(&dir_a).unwrap();
        let stats_a = run_in_process(&spec, &store_a, &opts);
        prop_assert_eq!(stats_a.executed, stats_a.unique);
        prop_assert_eq!(stats_a.failed, 0);

        // B: N shards, in-process, executed highest-first.
        let dir_b = fresh_dir("b");
        let store_b = ResultStore::open(&dir_b).unwrap();
        for k in (0..shards).rev() {
            exec::run_shard(&spec, &no_registry, &store_b, (k, shards), &opts).unwrap();
        }

        // C: N shards, one worker subprocess each.
        let dir_c = fresh_dir("c");
        let store_c = ResultStore::open(&dir_c).unwrap();
        let workers = subprocess_workers(&spec, &dir_c);
        let stats_c = exec::execute(&spec, &no_registry, &store_c, shards, &opts, &workers).unwrap();
        prop_assert_eq!(stats_c, stats_a, "subprocess stats differ from in-process stats");

        let files_a = store_files(&dir_a);
        let files_b = store_files(&dir_b);
        let files_c = store_files(&dir_c);
        prop_assert_eq!(&files_a, &files_b, "in-process shard layouts diverged");
        prop_assert_eq!(&files_a, &files_c, "subprocess shards diverged");

        // The run files carry every run's telemetry snapshot, and no
        // layout stores an event trace. The runs' event streams, traced
        // from a pool of one thread and of `shards` threads, are
        // byte-identical.
        for (name, bytes) in &files_a {
            prop_assert!(
                String::from_utf8_lossy(bytes).contains("\"events_processed\""),
                "run {} stores its telemetry snapshot", name
            );
        }
        for d in [&dir_a, &dir_b, &dir_c] {
            prop_assert!(!has_traces(d), "a campaign stores no traces");
        }
        let traces = traces_in_pool(&spec, 1);
        prop_assert!(traces.iter().all(|t| !t.is_empty()), "simnet runs trace events");
        prop_assert_eq!(&traces, &traces_in_pool(&spec, shards), "event streams diverged");

        // So are the observatory timeseries sidecars: one JSONL per
        // timeseries-enabled run, sampling t ∈ [0, 2] s at 0.5 s (5
        // points), byte-identical across every shard layout.
        let ts_a = timeseries_files(&dir_a);
        prop_assert_eq!(ts_a.len(), files_a.len(), "every run leaves a sidecar");
        for (name, bytes) in &ts_a {
            let lines = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
            prop_assert_eq!(lines, 5, "sidecar {} should hold 5 samples", name);
        }
        prop_assert_eq!(&ts_a, &timeseries_files(&dir_b), "in-process timeseries diverged");
        prop_assert_eq!(&ts_a, &timeseries_files(&dir_c), "subprocess timeseries diverged");

        let (md_a, csv_a, json_a) = artifacts(&spec, &dir_a);
        let (md_b, csv_b, json_b) = artifacts(&spec, &dir_b);
        let (md_c, csv_c, json_c) = artifacts(&spec, &dir_c);
        prop_assert_eq!(&md_a, &md_b);
        prop_assert_eq!(&md_a, &md_c);
        prop_assert_eq!(&csv_a, &csv_b);
        prop_assert_eq!(&csv_a, &csv_c);
        prop_assert_eq!(&json_a, &json_b);
        prop_assert_eq!(&json_a, &json_c);

        for d in [dir_a, dir_b, dir_c] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

#[test]
fn rerun_serves_everything_from_cache() {
    let spec = tiny_campaign(9, 7, &[0.7]);
    let dir = fresh_dir("cache");
    let store = ResultStore::open(&dir).unwrap();
    let opts = exec::ExecOptions::default();

    let first = run_in_process(&spec, &store, &opts);
    assert_eq!(first.cached, 0);
    assert_eq!(first.executed, first.unique);

    let second = run_in_process(&spec, &store, &opts);
    assert_eq!(second.executed, 0, "second run must be a full cache hit");
    assert_eq!(second.cached, second.unique);

    // --force recomputes but leaves identical bytes behind, and no
    // event traces.
    let before = store_files(&dir);
    assert!(!has_traces(&dir), "a campaign stores no traces");
    let ts_before = timeseries_files(&dir);
    assert!(
        !ts_before.is_empty(),
        "timeseries-enabled runs leave sidecars"
    );
    let forced = run_in_process(
        &spec,
        &store,
        &exec::ExecOptions {
            force: true,
            ..Default::default()
        },
    );
    assert_eq!(forced.executed, forced.unique);
    assert_eq!(
        before,
        store_files(&dir),
        "forced rerun changed stored bytes"
    );
    assert!(!has_traces(&dir), "a forced rerun stores no traces");
    assert_eq!(
        ts_before,
        timeseries_files(&dir),
        "forced rerun changed timeseries sidecar bytes"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A stored run cut short after its salt head reads as a cache miss:
/// the rerun executes it again and counts it, in-process and with
/// subprocess workers alike, and the store comes back byte-identical.
#[test]
fn truncated_run_is_executed_again_and_counted() {
    let spec = tiny_campaign(9, 13, &[0.7]);
    let opts = exec::ExecOptions::default();
    for subprocess in [false, true] {
        let dir = fresh_dir("torn");
        let store = ResultStore::open(&dir).unwrap();
        let workers = match subprocess {
            false => Workers::InProcess,
            true => subprocess_workers(&spec, &dir),
        };
        let first = exec::execute(&spec, &no_registry, &store, 2, &opts, &workers).unwrap();
        assert_eq!(first.executed, first.unique);
        let clean = store_files(&dir);

        let (victim, bytes) = clean.iter().next().unwrap();
        let head = &bytes[..300];
        assert!(
            String::from_utf8_lossy(head).contains(CODE_SALT),
            "the cut keeps the salt head"
        );
        std::fs::write(dir.join("runs").join(victim), head).unwrap();

        let again = exec::execute(&spec, &no_registry, &store, 2, &opts, &workers).unwrap();
        assert_eq!(
            (again.executed, again.cached, again.failed),
            (1, first.unique - 1, 0),
            "subprocess={subprocess}: {again}"
        );
        assert_eq!(
            store_files(&dir),
            clean,
            "subprocess={subprocess}: the rerun must restore the run byte for byte"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn scenario_failures_are_recorded_not_fatal() {
    // A replay engine with scripted events is a typed `Unsupported`
    // rejection; the campaign must store it and keep going.
    let bad = ScenarioBuilder::new("bad-replay")
        .duration_s(1800.0)
        .topology(TopoSpec::Geant)
        .pairs(PairsSpec::Random { count: 6 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::TotalBps { bps: 1e9 },
            Program::from_shape(1800.0, 900.0, Shape::Constant { level: 1.0 }),
        )
        .engine(EngineSpec::replay_over_always_on(1.1))
        .event(EventSpec::SetWakeTime {
            at: 1.0,
            wake_time_s: 1.0,
        })
        .build();
    let spec = CampaignSpec::new("with-failure")
        .entry(EntrySpec::inline("bad", bad))
        .entry(EntrySpec::inline("good", tiny_scenario("good", 9, 3, 0.6)));

    let dir = fresh_dir("fail");
    let store = ResultStore::open(&dir).unwrap();
    let stats = run_in_process(&spec, &store, &exec::ExecOptions::default());
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.executed, 2);

    let summary = report::summarize(&spec, &no_registry, &store).unwrap();
    assert_eq!(summary.entries[0].failed, 1);
    assert_eq!(summary.entries[1].ok, 1);
    let failed_row = &summary.runs[0];
    assert_eq!(failed_row.status, "failed");
    let failure = failed_row.failure.as_ref().expect("failure recorded");
    assert_eq!(failure.kind, "unsupported");
    assert!(failure.message.contains("events"), "{}", failure.message);
    // The failure also survives a cache hit.
    let again = run_in_process(&spec, &store, &exec::ExecOptions::default());
    assert_eq!(again.executed, 0);
    assert_eq!(again.failed, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn report_html_is_byte_deterministic_and_escaped() {
    // Entry names are raw user strings; a hostile one must come out
    // entity-escaped, and two renders of the same store must be
    // byte-identical (the report is a pure function of summary bytes
    // plus sidecar bytes — no timestamps, no map iteration order).
    let hostile = r#"swept<&"arm"#;
    let spec = CampaignSpec::new("observatory-html")
        .entry(EntrySpec::inline(
            hostile,
            tiny_scenario("swept", 9, 5, 0.6),
        ))
        .entry(EntrySpec::inline(
            "plain",
            tiny_scenario("plain", 9, 6, 0.8),
        ))
        .with_baseline("plain");
    let dir = fresh_dir("html");
    let store = ResultStore::open(&dir).unwrap();
    run_in_process(&spec, &store, &exec::ExecOptions::default());

    let render = |tag: &str| {
        let out = fresh_dir(tag);
        let summary = report::summarize(&spec, &no_registry, &store).unwrap();
        let path = ecp_campaign::write_html(&summary, &store, &out).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(out);
        bytes
    };
    let first = render("html-out1");
    let second = render("html-out2");
    assert_eq!(first, second, "report.html must be byte-deterministic");

    let html = String::from_utf8(first).unwrap();
    assert!(
        html.contains("swept&lt;&amp;&quot;arm"),
        "entry labels must be entity-escaped"
    );
    assert!(
        !html.contains(hostile),
        "raw entry name must never reach the markup"
    );
    assert!(
        html.contains("<svg") && html.contains("polyline"),
        "timeseries sidecars must render as inline SVG timelines"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn campaign_toml_round_trips() {
    let spec = tiny_campaign(10, 11, &[0.65, 0.85]);
    let doc = spec.to_toml();
    let back = CampaignSpec::from_toml(&doc).unwrap();
    assert_eq!(spec, back, "campaign TOML round trip:\n{doc}");
    // Expansion (and therefore hashing/sharding) is preserved exactly.
    let a = exec::expand(&spec, &no_registry).unwrap();
    let b = exec::expand(&back, &no_registry).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            ecp_campaign::run_hash(&x.scenario),
            ecp_campaign::run_hash(&y.scenario)
        );
    }
}

#[test]
fn spec_validation_catches_structural_mistakes() {
    let base = tiny_scenario("s", 8, 1, 0.5);
    let dup = CampaignSpec::new("c")
        .entry(EntrySpec::inline("a", base.clone()))
        .entry(EntrySpec::inline("a", base.clone()));
    assert!(dup.validate().is_err(), "duplicate entry names");

    let both = CampaignSpec::new("c").entry(EntrySpec {
        scenario: Some(base.clone()),
        ..EntrySpec::registry("a", "some-id")
    });
    assert!(
        both.validate().is_err(),
        "registry and inline are exclusive"
    );

    let neither = CampaignSpec::new("c").entry(EntrySpec {
        registry: None,
        ..EntrySpec::registry("a", "some-id")
    });
    assert!(neither.validate().is_err(), "an entry needs a base");

    let bad_baseline = CampaignSpec::new("c")
        .entry(EntrySpec::inline("a", base.clone()))
        .with_baseline("nope");
    assert!(bad_baseline.validate().is_err(), "baseline must exist");

    let unknown = CampaignSpec::new("c").entry(EntrySpec::registry("a", "no-such-id"));
    assert!(
        exec::expand(&unknown, &no_registry).is_err(),
        "unknown registry ids fail expansion"
    );

    let both_axes = CampaignSpec::new("c").entry(EntrySpec {
        repeats: Some(2),
        ..EntrySpec::inline("a", base.clone()).with_seeds([1, 2])
    });
    assert!(
        both_axes.validate().is_err(),
        "seeds and repeats are mutually exclusive replication axes"
    );

    let huge_seed = CampaignSpec::new("c")
        .entry(EntrySpec::inline("a", base.clone()).with_seeds([(1u64 << 53) + 1]));
    assert!(
        huge_seed.validate().is_err(),
        "seeds above 2^53 cannot replicate exactly"
    );
}
