//! The content-addressed result store.
//!
//! Every run is stored as `runs/<hash>.json` under the campaign's
//! output directory, where the hash covers the fully-resolved scenario
//! (the seed and every expanded parameter are part of the scenario
//! document) plus [`CODE_SALT`]. Properties this buys:
//!
//! * **Resume** — re-running a campaign skips every run whose file
//!   [`ResultStore::load`] reads (scenarios are deterministic, so the
//!   cached report is the report); a missing, truncated or
//!   salt-mismatched file is executed again.
//! * **Shard independence** — workers never coordinate: a run's file
//!   name is a pure function of its content, so any shard layout
//!   produces the same file set, byte for byte.
//! * **Invalidation** — bump [`CODE_SALT`] when engine semantics
//!   change; stale files (salt mismatch) are treated as misses and
//!   overwritten in place.
//!
//! Beside `runs/`, the store keeps `timeseries/<hash>.jsonl` for runs
//! that ask for an observatory timeline and, for profiled campaigns,
//! `timings/<hash>.json` wall-time sidecars. A run's telemetry is the
//! counter snapshot inside its run file; the store holds no event
//! trace (`ecp run <id> --trace FILE` traces a single run).
//!
//! Writes go through a unique temp file renamed into place, so
//! concurrent writers of the same hash (two entries sharing a scenario,
//! or a re-run racing a stale shard) are safe: both write identical
//! bytes and the last rename wins atomically.

use crate::CampaignError;
use ecp_scenario::ScenarioReport;
use serde::{Deserialize, JsonWriter, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Code-version salt mixed into every run hash. Bump when scenario
/// execution semantics change so cached reports are recomputed.
/// v2: runs execute through the traced entry points and store a
/// telemetry sidecar + per-run trace artifact.
/// v3: `MetricsSpec` gained the campaign-observatory timeseries fields
/// (every scenario's canonical JSON rendering changed, so every v2
/// hash is unreachable anyway; the bump makes the invalidation
/// explicit).
pub const CODE_SALT: &str = "ecp-campaign-v3";

/// 64-bit FNV-1a over `bytes` from an explicit basis.
fn fnv1a64(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// 128 hex-encoded bits of FNV-1a over `bytes` (two independent bases)
/// — the content-hash construction behind run-file names, exposed for
/// other golden/content-addressing uses (e.g. the bench parity tests).
pub fn content_hash(bytes: &[u8]) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a64(0xcbf2_9ce4_8422_2325, bytes),
        fnv1a64(0x6c62_272e_07bb_0142, bytes)
    )
}

/// Content hash of one run: [`content_hash`] over the salt plus the
/// scenario's canonical JSON rendering (field order is declaration
/// order, so the rendering is stable).
pub fn run_hash(scenario: &ecp_scenario::Scenario) -> String {
    let json = serde_json::to_string(scenario).expect("scenario serializes");
    let payload = format!("{CODE_SALT}\n{json}");
    content_hash(payload.as_bytes())
}

/// A recorded scenario failure (kind from
/// [`ecp_scenario::ScenarioError::kind`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFailure {
    /// Stable failure kind (`"unsupported"`, `"invalid"`, `"parse"`).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// One stored run: outcome plus enough identity to read the store
/// without re-expanding the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredRun {
    /// [`CODE_SALT`] at write time; mismatches read as cache misses.
    pub code_salt: String,
    /// The run's content hash (also the file name).
    pub hash: String,
    /// Expanded scenario name.
    pub name: String,
    /// The seed the run used.
    pub seed: u64,
    /// Sweep/seed parameter assignment that produced the scenario.
    pub params: Vec<(String, f64)>,
    /// The report, if the scenario ran.
    #[serde(default)]
    pub report: Option<ScenarioReport>,
    /// The failure, if it did not.
    #[serde(default)]
    pub failure: Option<RunFailure>,
    /// Telemetry snapshot the executor's counting sink aggregated
    /// (simnet engine only; `None` for other engines and failed runs):
    /// the same snapshot a traced run of the scenario returns. The store
    /// keeps no event trace.
    #[serde(default)]
    pub telemetry: Option<ecp_scenario::TelemetrySnapshot>,
}

/// Per-run wall-time sidecar written by profiled executions
/// (`--profile`). Deliberately *outside* the content-addressed
/// determinism contract: wall time varies run to run, so it lives in
/// its own `timings/` directory that report tooling treats as
/// best-effort (missing sidecars render as `-`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTiming {
    /// Wall seconds the run unit took (resolve + simulate + store).
    pub wall_s: f64,
    /// Top spans by self time: `(span name, self seconds)`, largest
    /// first. Empty when the engine has no span support.
    pub phases: Vec<(String, f64)>,
}

impl RunTiming {
    /// The slowest phase's name, if any phases were recorded.
    pub fn slowest_phase(&self) -> Option<&str> {
        self.phases.first().map(|(name, _)| name.as_str())
    }
}

/// A campaign's on-disk run store.
#[derive(Debug, Clone)]
pub struct ResultStore {
    runs: PathBuf,
    /// Sibling directory for [`RunTiming`] sidecars (profiled runs
    /// only). Not content-addressed-deterministic — see [`RunTiming`].
    timings: PathBuf,
    /// Sibling directory for campaign-observatory timeseries sidecars
    /// (`metrics.timeseries` runs only). Byte-deterministic like run
    /// files, but outside the run-hash contract.
    timeseries: PathBuf,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write one artifact through `write` into a unique temp file next to
/// `path`, then rename it to `path`. `what` names the artifact in
/// errors.
fn publish(
    path: &Path,
    what: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), CampaignError> {
    let hash = path.file_stem().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{hash}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let io = |e: std::io::Error, step: &str| CampaignError::Io(format!("{step} {what}: {e}"));
    let mut w = BufWriter::new(File::create(&tmp).map_err(|e| io(e, "write"))?);
    write(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| io(e, "write"))?;
    std::fs::rename(&tmp, path).map_err(|e| io(e, "publish"))
}

impl ResultStore {
    /// Open (creating if needed) the store under a campaign output
    /// directory. A `traces/` directory, which stores kept before
    /// campaigns stopped tracing and nothing reads, is removed.
    pub fn open(output_dir: &Path) -> Result<Self, CampaignError> {
        let traces = output_dir.join("traces");
        if traces.is_dir() {
            std::fs::remove_dir_all(&traces)
                .map_err(|e| CampaignError::Io(format!("remove {}: {e}", traces.display())))?;
        }
        let runs = output_dir.join("runs");
        std::fs::create_dir_all(&runs)
            .map_err(|e| CampaignError::Io(format!("create {}: {e}", runs.display())))?;
        let timings = output_dir.join("timings");
        std::fs::create_dir_all(&timings)
            .map_err(|e| CampaignError::Io(format!("create {}: {e}", timings.display())))?;
        let timeseries = output_dir.join("timeseries");
        std::fs::create_dir_all(&timeseries)
            .map_err(|e| CampaignError::Io(format!("create {}: {e}", timeseries.display())))?;
        Ok(ResultStore {
            runs,
            timings,
            timeseries,
        })
    }

    /// The directory run files live in.
    pub fn runs_dir(&self) -> &Path {
        &self.runs
    }

    /// The file a hash is stored at.
    pub fn path(&self, hash: &str) -> PathBuf {
        self.runs.join(format!("{hash}.json"))
    }

    /// Load a stored run; `None` on missing, unparsable, or
    /// salt-mismatched files (all of which read as cache misses).
    pub fn load(&self, hash: &str) -> Option<StoredRun> {
        let doc = std::fs::read_to_string(self.path(hash)).ok()?;
        let run: StoredRun = serde_json::from_str(&doc).ok()?;
        (run.code_salt == CODE_SALT).then_some(run)
    }

    /// Persist a run (unique temp file + atomic rename).
    pub fn save(&self, run: &StoredRun) -> Result<(), CampaignError> {
        let body = serde_json::to_string_pretty(run).expect("stored run serializes");
        publish(&self.path(&run.hash), "run", |w| {
            w.write_all(body.as_bytes())
        })
    }

    /// The file a run's timing sidecar is stored at.
    pub fn timing_path(&self, hash: &str) -> PathBuf {
        self.timings.join(format!("{hash}.json"))
    }

    /// Persist a profiled run's timing sidecar (same temp-rename
    /// discipline; last writer wins, which is fine for best-effort
    /// wall-time data).
    pub fn save_timing(&self, hash: &str, timing: &RunTiming) -> Result<(), CampaignError> {
        let body = serde_json::to_string_pretty(timing).expect("run timing serializes");
        publish(&self.timing_path(hash), "timing", |w| {
            w.write_all(body.as_bytes())
        })
    }

    /// Load a run's timing sidecar, if a profiled execution wrote one.
    pub fn load_timing(&self, hash: &str) -> Option<RunTiming> {
        let doc = std::fs::read_to_string(self.timing_path(hash)).ok()?;
        serde_json::from_str(&doc).ok()
    }

    /// The directory timeseries sidecars live in.
    pub fn timeseries_dir(&self) -> &Path {
        &self.timeseries
    }

    /// The file a run's timeseries sidecar is stored at.
    pub fn timeseries_path(&self, hash: &str) -> PathBuf {
        self.timeseries.join(format!("{hash}.jsonl"))
    }

    /// Persist a run's observatory timeseries (same temp-rename
    /// discipline as [`ResultStore::save`]: the sidecar is a pure
    /// function of the run content, so concurrent writers publish
    /// identical bytes).
    pub fn save_timeseries(
        &self,
        hash: &str,
        points: &[ecp_scenario::TimeseriesPoint],
    ) -> Result<(), CampaignError> {
        // The sidecar format: one serialized point per line,
        // newline-terminated.
        publish(&self.timeseries_path(hash), "timeseries", |w| {
            let mut line = String::new();
            points.iter().try_for_each(|p| {
                line.clear();
                p.write_json(&mut JsonWriter::compact(&mut line));
                line.push('\n');
                w.write_all(line.as_bytes())
            })
        })
    }

    /// Load a run's timeseries points, if a `metrics.timeseries` run
    /// wrote a sidecar; `None` also when a line fails to parse, as in a
    /// sidecar cut short (which is a cache miss, so the run is executed
    /// again and rewrites it).
    pub fn load_timeseries(&self, hash: &str) -> Option<Vec<ecp_scenario::TimeseriesPoint>> {
        let doc = std::fs::read_to_string(self.timeseries_path(hash)).ok()?;
        doc.lines().map(|l| serde_json::from_str(l).ok()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_removes_the_traces_of_an_old_store() {
        let dir = std::env::temp_dir().join(format!("ecp-store-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = StoredRun {
            code_salt: CODE_SALT.to_string(),
            hash: "0123456789abcdef".into(),
            name: "old".into(),
            seed: 1,
            params: vec![("seed".into(), 1.0)],
            report: None,
            failure: Some(RunFailure {
                kind: "invalid".into(),
                message: "kept".into(),
            }),
            telemetry: None,
        };
        ResultStore::open(&dir).unwrap().save(&run).unwrap();
        std::fs::create_dir_all(dir.join("traces")).unwrap();
        std::fs::write(dir.join("traces/x.jsonl"), "{}\n").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert!(!dir.join("traces").exists());
        assert_eq!(store.load(&run.hash), Some(run));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
