//! A damaged campaign store reads as cache misses, never as a crash or
//! a false hit, and the next campaign run rebuilds it byte for byte:
//!
//! * sampled strict prefixes (every 997th cut and the last 64) and
//!   single-byte flips of stored runs read as `None` from
//!   [`ResultStore::load`] exactly when the tree path rejects them, and
//!   none panics; intact files read equal through both paths;
//! * a run file replaced by deeply nested arrays reads as `None`, and a
//!   rerun executes it again and restores it;
//! * a timeseries sidecar cut mid-line or at a line boundary is a miss
//!   as well, and comes back byte for byte; an intact store stays a
//!   full cache hit.

use ecp_bench::scenarios::campaign_scenario;
use ecp_campaign::exec::{self, ExecOptions, ExecStats};
use ecp_campaign::{CampaignSpec, ResultStore, StoredRun, Workers, CODE_SALT};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap()
}

/// An empty scratch directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecp-store-damage-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Execute `spec` in-process into the store at `dir`.
fn run(spec: &CampaignSpec, dir: &Path) -> ExecStats {
    let store = ResultStore::open(dir).unwrap();
    let resolver = |id: &str| campaign_scenario(id);
    let opts = ExecOptions::default();
    exec::execute(spec, &resolver, &store, 1, &opts, &Workers::InProcess).unwrap()
}

/// Every file under `dir/sub`, by name.
fn files(dir: &Path, sub: &str) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join(sub))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// The oracle: what the tree path makes of a run file's bytes (parse a
/// `Value`, convert it, check the salt), which `ResultStore::load`,
/// reading typed runs straight from the text, must agree with.
fn tree_load(bytes: &[u8]) -> Option<StoredRun> {
    let text = std::str::from_utf8(bytes).ok()?;
    let value: serde_json::Value = serde_json::from_str(text).ok()?;
    let run: StoredRun = serde_json::from_value(value).ok()?;
    (run.code_salt == CODE_SALT).then_some(run)
}

/// Write `bytes` as run `hash` and check that `load` agrees with the
/// tree path; returns whether it read as a hit.
fn agrees(store: &ResultStore, hash: &str, bytes: &[u8], what: &str) -> bool {
    std::fs::write(store.path(hash), bytes).unwrap();
    let loaded = store.load(hash);
    assert!(loaded == tree_load(bytes), "{hash}: {what}");
    loaded.is_some()
}

/// The damage check of one stored run: every 997th strict prefix and
/// the last 64, then one byte flipped at `flips` spread offsets.
fn damage(store: &ResultStore, hash: &str, flips: usize) {
    let intact = std::fs::read(store.path(hash)).unwrap();
    let run = store.load(hash).expect("the intact file loads");
    assert_eq!(tree_load(&intact).as_ref(), Some(&run), "{hash}: intact");

    let n = intact.len();
    let cuts = (0..n).step_by(997).chain(n.saturating_sub(64)..n);
    for cut in cuts {
        let hit = agrees(store, hash, &intact[..cut], &format!("prefix {cut}"));
        assert!(!hit, "{hash}: a strict prefix is never a hit");
    }
    // Flips to the bytes that steer a parser: structure, quotes,
    // digits and signs, letters and whitespace.
    const INTO: &[u8] = b"{}[]\",:0-.eExn 9";
    for i in 0..flips {
        let at = (i * n) / flips + i % 7;
        let mut bytes = intact.clone();
        bytes[at.min(n - 1)] = INTO[i % INTO.len()];
        agrees(store, hash, &bytes, &format!("byte {at} flipped"));
    }
    std::fs::write(store.path(hash), &intact).unwrap();
}

/// The stored runs of `examples/campaign_smoke.toml`.
#[test]
fn damaged_smoke_runs_read_as_misses() {
    let dir = fresh_dir("smoke");
    let spec = CampaignSpec::from_toml(&example("campaign_smoke.toml")).unwrap();
    run(&spec, &dir);
    let store = ResultStore::open(&dir).unwrap();
    let runs = files(&dir, "runs");
    assert_eq!(runs.len(), 4);
    for name in runs.keys() {
        damage(&store, name.trim_end_matches(".json"), 200);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The largest file the registry stores: a te-stability run, 1.5 MB of
/// per-path samples. Its ~1,600 prefixes are 1.2 GB of text, which only
/// an optimized build reads in test time.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: 1.2 GB of prefixes")]
fn a_damaged_te_stability_run_reads_as_a_miss() {
    let dir = fresh_dir("te");
    let spec = CampaignSpec::from_toml(
        "name = \"te\"\n[[entries]]\nname = \"te\"\nregistry = \"te-stability-undamped\"\n",
    )
    .unwrap();
    run(&spec, &dir);
    let store = ResultStore::open(&dir).unwrap();
    let runs = files(&dir, "runs");
    let (name, bytes) = runs.iter().next().unwrap();
    assert!(bytes.len() > 1_000_000, "{}", bytes.len());
    damage(&store, name.trim_end_matches(".json"), 400);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run file replaced by 100,000 nested arrays reads as a miss (the
/// reader refuses such depth instead of overflowing its stack), and the
/// rerun executes that run again and restores its file.
#[test]
fn a_deeply_nested_run_file_is_executed_again() {
    let dir = fresh_dir("nested");
    let spec = CampaignSpec::from_toml(&example("campaign_smoke.toml")).unwrap();
    run(&spec, &dir);
    let before = files(&dir, "runs");
    let store = ResultStore::open(&dir).unwrap();
    let name = before.keys().next().unwrap();
    let hash = name.trim_end_matches(".json");
    std::fs::write(store.path(hash), "[".repeat(100_000)).unwrap();
    assert!(store.load(hash).is_none());

    let stats = run(&spec, &dir);
    assert_eq!((stats.executed, stats.cached), (1, 3), "{stats}");
    assert_eq!(files(&dir, "runs"), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sidecar of `examples/campaign_observatory.toml` cut mid-line, or
/// at a line boundary, makes its run a miss: the rerun executes it
/// again and rewrites the sidecar byte for byte. An intact store stays
/// a full hit.
#[test]
fn a_cut_timeseries_sidecar_is_a_cache_miss() {
    let dir = fresh_dir("sidecar");
    let spec = CampaignSpec::from_toml(&example("campaign_observatory.toml")).unwrap();
    let stats = run(&spec, &dir);
    assert_eq!(stats.executed, 2, "{stats}");
    let runs = files(&dir, "runs");
    let sidecars = files(&dir, "timeseries");
    assert_eq!(sidecars.len(), 2);
    assert_eq!(run(&spec, &dir).executed, 0, "an intact store is a hit");

    let (name, intact) = sidecars.iter().next().unwrap();
    let path = dir.join("timeseries").join(name);
    let text = std::str::from_utf8(intact).unwrap();
    let line_end = text.match_indices('\n').nth(40).unwrap().0 + 1;
    for cut in [line_end + 25, line_end] {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let stats = run(&spec, &dir);
        assert_eq!(
            (stats.executed, stats.cached),
            (1, 1),
            "cut at {cut}: {stats}"
        );
        assert_eq!(&std::fs::read(&path).unwrap(), intact, "cut at {cut}");
    }
    assert_eq!(files(&dir, "runs"), runs);
    assert_eq!(run(&spec, &dir).executed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
