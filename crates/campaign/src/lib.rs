//! # ecp-campaign — whole-evaluation orchestration over scenarios
//!
//! `ecp-scenario` made one experiment a declarative value; this crate
//! makes a **set** of experiments one reproducible unit. A
//! [`CampaignSpec`] (TOML or built in code) names its scenarios — by
//! registry id resolved through a caller-supplied [`Resolver`], as an
//! inline `Scenario` document, or as a sweep-grid expansion — with
//! per-entry overrides (parameter sets, seed lists, replicate counts)
//! and campaign-level settings (worker-subprocess count, output
//! directory, a designated baseline entry). Campaign entries are the
//! one way to run a set of scenarios: an entry is a base scenario plus
//! the axes [`ecp_scenario::grid`] expands it over.
//!
//! The **executor** ([`exec`]) expands every entry into concrete runs
//! in a deterministic order and runs them either in-process, as one
//! rayon pass over every unique run, or across worker subprocesses
//! (`ecp campaign worker --shard k/N` re-invoking the same binary),
//! each taking the runs whose global index is `k` modulo `N`. Each
//! finished run is streamed to a content-addressed
//! **result store** ([`store`]): `runs/<hash>.json` where the hash
//! covers the fully-resolved scenario (seed included) plus a
//! code-version salt — so interrupted or repeated campaigns resume by
//! skipping cached runs, and two identical scenarios share one cached
//! result no matter which entry or shard produced it. A scenario that
//! fails (e.g. an unsupported spec combination,
//! [`ecp_scenario::ScenarioError`]) is recorded in the store as a
//! failed run instead of aborting the campaign.
//!
//! The **report generator** ([`report`]) folds the stored reports back
//! into comparison artifacts: per-metric tables across entries, deltas
//! against the baseline entry (entry-level and, when run counts line
//! up, run-by-run), written as Markdown, CSV, and machine-readable
//! JSON. Because the summary is derived purely from the spec order and
//! the stored files, it is byte-identical regardless of worker mode,
//! subprocess count, or thread count — a property pinned by proptests.
//!
//! ```no_run
//! use ecp_campaign::{exec, report, CampaignSpec, ResultStore, Workers};
//!
//! let spec = CampaignSpec::from_path("examples/campaign_smoke.toml".as_ref()).unwrap();
//! let store = ResultStore::open(&spec.resolved_output_dir(None)).unwrap();
//! let resolver = |_id: &str| None; // inline entries only
//! let opts = exec::ExecOptions::default();
//! let stats = exec::execute(&spec, &resolver, &store, 1, &opts, &Workers::InProcess).unwrap();
//! println!("{stats}");
//! let summary = report::summarize(&spec, &resolver, &store).unwrap();
//! report::write_artifacts(&summary, &spec.resolved_output_dir(None)).unwrap();
//! ```

pub mod exec;
pub mod html;
pub mod report;
pub mod spec;
pub mod store;
pub mod watch;

pub use exec::{
    execute, expand, run_shard, ExecOptions, ExecStats, ProgressEvent, RunUnit, WorkerCommand,
    Workers,
};
pub use html::{escape_html, render_html, write_html};
pub use report::{
    generate, summarize, write_artifacts, BaselineDelta, CampaignSummary, EntrySummary, RunMetrics,
    RunRow,
};
pub use spec::{CampaignSpec, EntrySpec, SetSpec};
pub use store::{content_hash, run_hash, ResultStore, RunFailure, StoredRun, CODE_SALT};
pub use watch::{EntryProgress, WatchState};

/// A registry lookup: maps an entry's `registry = "..."` id to a
/// scenario. `ecp-bench` supplies its experiment registry here; workers
/// without one resolve nothing (inline entries still work).
pub type Resolver<'a> = &'a dyn Fn(&str) -> Option<ecp_scenario::Scenario>;

/// Campaign-level failures (the spec itself, the file system, or a
/// worker process). Per-run scenario failures are *data*, recorded in
/// the result store — they never surface here.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The campaign spec is invalid (unknown registry id, duplicate
    /// entry names, missing baseline, unparsable TOML, ...).
    Spec(String),
    /// Reading or writing the result store or spec file failed.
    Io(String),
    /// A worker subprocess failed to run or left its shard incomplete.
    Worker(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Spec(s) => write!(f, "campaign spec error: {s}"),
            CampaignError::Io(s) => write!(f, "campaign io error: {s}"),
            CampaignError::Worker(s) => write!(f, "campaign worker error: {s}"),
        }
    }
}

impl std::error::Error for CampaignError {}
