//! Campaign execution: entry expansion, deterministic sharding, and
//! the in-process / subprocess executors.

use crate::spec::CampaignSpec;
use crate::store::{run_hash, ResultStore, RunFailure, RunTiming, StoredRun};
use crate::{CampaignError, Resolver};
use ecp_scenario::{
    run_resolved_traced, run_resolved_with_sink, Axis, Param, ResolveCache, Scenario,
    ScenarioReport, SpanSink, SweepRunner,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// One concrete run of a campaign.
#[derive(Debug, Clone)]
pub struct RunUnit {
    /// Entry the run belongs to.
    pub entry: String,
    /// Index within the entry's expansion.
    pub index: usize,
    /// Global run index across the campaign — the shard partition key.
    pub global: usize,
    /// Sweep/seed parameter assignment of this run.
    pub params: Vec<(String, f64)>,
    /// The fully-resolved scenario.
    pub scenario: Scenario,
}

impl RunUnit {
    /// Which of `shards` this run belongs to.
    pub fn shard(&self, shards: usize) -> usize {
        self.global % shards.max(1)
    }
}

/// Expand a campaign into its runs, in deterministic order: entries in
/// spec order, instances in row-major grid order (sweep axes outermost,
/// then the `seeds` axis, then `repeats`). Every worker expands the
/// same spec to the same list, which is what makes sharding by global
/// index coordination-free.
pub fn expand(spec: &CampaignSpec, resolver: Resolver) -> Result<Vec<RunUnit>, CampaignError> {
    spec.validate()?;
    let mut out: Vec<RunUnit> = Vec::new();
    for e in &spec.entries {
        let mut base = match (&e.registry, &e.scenario) {
            (Some(id), None) => resolver(id).ok_or_else(|| {
                CampaignError::Spec(format!(
                    "entry `{}`: unknown registry id `{id}` (this worker may resolve no registry)",
                    e.name
                ))
            })?,
            (None, Some(s)) => s.clone(),
            _ => unreachable!("validated: exactly one base source"),
        };
        for s in &e.set {
            s.param.apply(&mut base, s.value);
        }
        let mut axes: Vec<Axis> = e.sweep.clone();
        if !e.seeds.is_empty() {
            axes.push(Axis::new(Param::Seed, e.seeds.iter().map(|&s| s as f64)));
        }
        let mut runner = SweepRunner::new(base, axes);
        if let Some(n) = e.repeats {
            runner = runner.replicates(n);
        }
        let instances = if runner.axes.is_empty() {
            vec![(Vec::new(), runner.base.clone())]
        } else {
            runner.instances()
        };
        for (index, (params, scenario)) in instances.into_iter().enumerate() {
            out.push(RunUnit {
                entry: e.name.clone(),
                index,
                global: out.len(),
                params,
                scenario,
            });
        }
    }
    Ok(out)
}

/// Parse a `k/N` shard designator (`k < N`, `N ≥ 1`).
pub fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (k, n) = s.split_once('/')?;
    let (k, n) = (k.parse().ok()?, n.parse().ok()?);
    (n >= 1 && k < n).then_some((k, n))
}

/// Execution options shared by the executors.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker-thread count for the in-process rayon pool (`None` = all
    /// cores).
    pub threads: Option<usize>,
    /// Ignore cached runs and recompute everything.
    pub force: bool,
    /// Stream one [`ProgressEvent`] JSON line to stdout per run
    /// start/finish (the `--progress jsonl` live feed; subprocess
    /// workers inherit stdout, so their events stream through the
    /// parent). Event *order* follows completion and is not
    /// deterministic; the stored artifacts are.
    pub progress: bool,
    /// Execute runs through the span-profiled entry point and write a
    /// wall-time sidecar per run (`timings/<hash>.json`). Off by
    /// default: profiling reads the wall clock, so its outputs live
    /// outside the deterministic `runs/` + `traces/` contract (span
    /// lines are stripped from stored traces; reports are unaffected —
    /// pinned by the scenario profiling-parity proptest).
    pub profile: bool,
}

/// One live executor progress event. Serialized as a single JSON line
/// on stdout when [`ExecOptions::progress`] is set — the stream a
/// future `campaign serve` would push to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// A run is about to execute (never emitted for cache hits).
    RunStarted {
        /// Shard executing the run.
        shard: u64,
        /// The run's content hash.
        hash: String,
        /// Campaign entry name.
        entry: String,
        /// Expanded scenario name.
        name: String,
    },
    /// A run's outcome is in the store.
    RunFinished {
        /// Shard that handled the run.
        shard: u64,
        /// The run's content hash.
        hash: String,
        /// Campaign entry name.
        entry: String,
        /// Expanded scenario name.
        name: String,
        /// Whether the outcome was served from the result store.
        cached: bool,
        /// Whether the stored outcome is a scenario failure.
        failed: bool,
        /// Mean power fraction, when the run produced a report.
        mean_power_frac: Option<f64>,
        /// Delivered ÷ offered, when the run produced a report.
        mean_delivered_fraction: Option<f64>,
        /// Wall seconds the run took (`None` for cache hits).
        wall_s: Option<f64>,
        /// Top-3 phases by self time, `(span name, self seconds)` —
        /// empty unless the run executed with profiling on.
        phases: Vec<(String, f64)>,
        /// Settle time (seconds) from the telemetry sidecar, when the
        /// run recorded one (`campaign watch`'s settle column).
        #[serde(default)]
        settle_time_s: Option<f64>,
        /// Delivery-shortfall fraction from the stability analysis,
        /// when the run recorded one.
        #[serde(default)]
        shortfall_fraction: Option<f64>,
    },
}

/// Emit one progress event as a JSON line on stdout. `println!` locks
/// stdout per call, so concurrent rayon workers emit whole lines.
fn emit_progress(ev: &ProgressEvent) {
    println!(
        "{}",
        serde_json::to_string(ev).expect("progress event serializes")
    );
}

/// The `RunFinished` event for a stored outcome.
#[allow(clippy::too_many_arguments)]
fn finished_event(
    shard: u64,
    hash: &str,
    u: &RunUnit,
    cached: bool,
    report: Option<&ScenarioReport>,
    telemetry: Option<&ecp_scenario::TelemetrySnapshot>,
    failed: bool,
    timing: Option<&RunTiming>,
) -> ProgressEvent {
    ProgressEvent::RunFinished {
        shard,
        hash: hash.to_string(),
        entry: u.entry.clone(),
        name: u.scenario.name.clone(),
        cached,
        failed,
        mean_power_frac: report.map(|r| r.mean_power_frac),
        mean_delivered_fraction: report.map(|r| r.mean_delivered_fraction),
        wall_s: timing.map(|t| t.wall_s),
        phases: timing.map(|t| t.phases.clone()).unwrap_or_default(),
        settle_time_s: telemetry.and_then(|t| t.settle_time_s),
        shortfall_fraction: report
            .and_then(|r| r.stability.as_ref())
            .map(|s| s.shortfall_fraction),
    }
}

/// What an executor did. `failed` counts runs whose *stored* outcome is
/// a scenario failure (cached or fresh) — failures are campaign data,
/// not executor errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Runs considered (shard-local for [`run_shard`]).
    pub runs: usize,
    /// Distinct run hashes among them.
    pub unique: usize,
    /// Hashes actually executed this invocation.
    pub executed: usize,
    /// Hashes served from the result store.
    pub cached: usize,
    /// Hashes whose stored outcome is a failure.
    pub failed: usize,
}

impl ExecStats {
    /// Accumulate another shard's stats.
    pub fn merge(&mut self, other: ExecStats) {
        self.runs += other.runs;
        self.unique += other.unique;
        self.executed += other.executed;
        self.cached += other.cached;
        self.failed += other.failed;
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runs={} unique={} executed={} cached={} failed={}",
            self.runs, self.unique, self.executed, self.cached, self.failed
        )
    }
}

/// Execute shard `k` of `n` in-process. Runs are deduplicated by hash,
/// cached results are skipped (unless `force`), and each fresh result —
/// report or typed scenario failure — is streamed to the store as it
/// completes.
pub fn run_shard(
    spec: &CampaignSpec,
    resolver: Resolver,
    store: &ResultStore,
    shard: (usize, usize),
    opts: &ExecOptions,
) -> Result<ExecStats, CampaignError> {
    let (k, n) = shard;
    if n == 0 || k >= n {
        return Err(CampaignError::Spec(format!("invalid shard {k}/{n}")));
    }
    let units = expand(spec, resolver)?;
    let mine: Vec<&RunUnit> = units.iter().filter(|u| u.shard(n) == k).collect();
    let mut jobs: Vec<(String, &RunUnit)> = Vec::new();
    for u in &mine {
        let hash = run_hash(&u.scenario);
        if !jobs.iter().any(|(h, _)| *h == hash) {
            jobs.push((hash, u));
        }
    }

    // Shard-wide memo of planner/routing artifacts: grid points that
    // only vary engine-side knobs (threshold, load, control policy,
    // seed with non-sampled pairs) plan once instead of per run.
    let resolve_cache = ResolveCache::new();
    let execute = || -> Vec<Result<(usize, usize, usize), CampaignError>> {
        jobs.par_iter()
            .map(|(hash, u)| {
                if !opts.force {
                    if let Some(cached) = store.load(hash) {
                        let failed = cached.failure.is_some();
                        if opts.progress {
                            emit_progress(&finished_event(
                                k as u64,
                                hash,
                                u,
                                true,
                                cached.report.as_ref(),
                                cached.telemetry.as_ref(),
                                failed,
                                None,
                            ));
                        }
                        return Ok((0, 1, failed as usize));
                    }
                }
                if opts.progress {
                    emit_progress(&ProgressEvent::RunStarted {
                        shard: k as u64,
                        hash: hash.clone(),
                        entry: u.entry.clone(),
                        name: u.scenario.name.clone(),
                    });
                }
                let t_run = Instant::now();
                let outcome = if opts.profile {
                    let mut sink = SpanSink::new();
                    resolve_cache
                        .resolve_with_sink(&u.scenario, &mut sink)
                        .and_then(|resolved| run_resolved_with_sink(&u.scenario, &resolved, sink))
                        .map(|(r, mut trace, mut sink)| {
                            // Span lines carry wall-clock durations;
                            // strip them so the stored trace artifact
                            // stays the deterministic event stream.
                            trace.lines.retain(|l| !l.starts_with("{\"Span\""));
                            (r, trace, sink.timing().top_phases(3))
                        })
                } else {
                    resolve_cache
                        .resolve(&u.scenario)
                        .and_then(|resolved| run_resolved_traced(&u.scenario, &resolved))
                        .map(|(r, trace)| (r, trace, Vec::new()))
                };
                let (report, telemetry, failure, phases) = match outcome {
                    Ok((r, trace, phases)) => {
                        if !trace.lines.is_empty() {
                            store.save_trace(hash, &trace.lines)?;
                        }
                        if let Some(ts) = &trace.timeseries {
                            store.save_timeseries(hash, ts)?;
                        }
                        (Some(r), trace.snapshot, None, phases)
                    }
                    Err(e) => (
                        None,
                        None,
                        Some(RunFailure {
                            kind: e.kind().into(),
                            message: e.to_string(),
                        }),
                        Vec::new(),
                    ),
                };
                let timing = RunTiming {
                    wall_s: t_run.elapsed().as_secs_f64(),
                    phases,
                };
                if opts.profile {
                    store.save_timing(hash, &timing)?;
                }
                let failed = failure.is_some();
                let run = StoredRun {
                    code_salt: crate::CODE_SALT.into(),
                    hash: hash.clone(),
                    name: u.scenario.name.clone(),
                    seed: u.scenario.seed,
                    params: u.params.clone(),
                    report,
                    failure,
                    telemetry,
                };
                store.save(&run)?;
                if opts.progress {
                    emit_progress(&finished_event(
                        k as u64,
                        hash,
                        u,
                        false,
                        run.report.as_ref(),
                        run.telemetry.as_ref(),
                        failed,
                        Some(&timing),
                    ));
                }
                Ok((1, 0, failed as usize))
            })
            .collect()
    };
    let results = match opts.threads {
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .map_err(|e| CampaignError::Spec(e.to_string()))?
            .install(execute),
        None => execute(),
    };

    let mut stats = ExecStats {
        runs: mine.len(),
        unique: jobs.len(),
        ..Default::default()
    };
    for r in results {
        let (executed, cached, failed) = r?;
        stats.executed += executed;
        stats.cached += cached;
        stats.failed += failed;
    }
    Ok(stats)
}

/// The campaign's distinct run hashes, in expansion order.
fn unique_hashes(units: &[RunUnit]) -> Vec<String> {
    let mut hashes: Vec<String> = Vec::new();
    for u in units {
        let h = run_hash(&u.scenario);
        if !hashes.contains(&h) {
            hashes.push(h);
        }
    }
    hashes
}

/// Campaign-level stats computed from the store after execution —
/// identical no matter which shard layout or worker mode ran (a hash
/// duplicated across shards is still one unique run).
fn audit_stats(
    store: &ResultStore,
    hashes: &[String],
    runs: usize,
    cached_before: usize,
) -> Result<ExecStats, CampaignError> {
    let mut failed = 0;
    let mut present = 0;
    for h in hashes {
        if let Some(run) = store.load(h) {
            present += 1;
            failed += run.failure.is_some() as usize;
        }
    }
    if present < hashes.len() {
        return Err(CampaignError::Worker(format!(
            "{} of {} runs missing from the store after execution",
            hashes.len() - present,
            hashes.len()
        )));
    }
    Ok(ExecStats {
        runs,
        unique: hashes.len(),
        executed: hashes.len() - cached_before,
        cached: cached_before,
        failed,
    })
}

/// Execute a whole campaign in-process: every shard of `shards`, in
/// order. (The shard walk is observationally identical to one pass over
/// all runs — it exists so in-process and subprocess execution share
/// the exact same partition.) Stats are audited globally from the
/// store, so they match the subprocess path exactly even when one hash
/// appears in several shards.
pub fn run_campaign(
    spec: &CampaignSpec,
    resolver: Resolver,
    store: &ResultStore,
    shards: usize,
    opts: &ExecOptions,
) -> Result<ExecStats, CampaignError> {
    let shards = shards.max(1);
    let units = expand(spec, resolver)?;
    let hashes = unique_hashes(&units);
    let cached_before = if opts.force {
        0
    } else {
        hashes.iter().filter(|h| store.contains(h)).count()
    };
    for k in 0..shards {
        run_shard(spec, resolver, store, (k, shards), opts)?;
    }
    audit_stats(store, &hashes, units.len(), cached_before)
}

/// Worker selection for [`execute`].
#[derive(Debug, Clone)]
pub enum Workers {
    /// Shards run in this process via rayon.
    InProcess,
    /// One subprocess per shard, launched from this command.
    Subprocess(WorkerCommand),
}

/// Execute a campaign with the chosen worker mode (the shared body of
/// the `campaign` CLI and `run_all`). `ExecOptions::force` is
/// in-process only — subprocess workers are spawned without it, so
/// combining the two is an error rather than a silent no-op.
pub fn execute(
    spec: &CampaignSpec,
    resolver: Resolver,
    store: &ResultStore,
    shards: usize,
    opts: &ExecOptions,
    workers: &Workers,
) -> Result<ExecStats, CampaignError> {
    match workers {
        Workers::InProcess => run_campaign(spec, resolver, store, shards, opts),
        Workers::Subprocess(cmd) => {
            if opts.force {
                return Err(CampaignError::Spec(
                    "force is in-process only; use in-process workers".into(),
                ));
            }
            run_campaign_subprocess(spec, resolver, store, shards, cmd)
        }
    }
}

/// How to launch a worker subprocess: `program args... --shard k/N`.
/// The bench `campaign` CLI re-invokes itself (`campaign worker <spec>
/// --out <dir>`); tests use the registry-less `campaign_worker` binary.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Worker executable.
    pub program: PathBuf,
    /// Arguments before the `--shard k/N` pair.
    pub args: Vec<String>,
}

/// Execute a campaign across `shards` worker subprocesses, one per
/// shard, then audit the store: every expanded run must be present.
/// The returned stats are computed by the parent from the store (so
/// they are exact even though workers share nothing but the directory).
pub fn run_campaign_subprocess(
    spec: &CampaignSpec,
    resolver: Resolver,
    store: &ResultStore,
    shards: usize,
    worker: &WorkerCommand,
) -> Result<ExecStats, CampaignError> {
    let shards = shards.max(1);
    let units = expand(spec, resolver)?;
    let hashes = unique_hashes(&units);
    let cached_before = hashes.iter().filter(|h| store.contains(h)).count();

    let mut children: Vec<(usize, Child)> = Vec::new();
    for k in 0..shards {
        let child = Command::new(&worker.program)
            .args(&worker.args)
            .arg("--shard")
            .arg(format!("{k}/{shards}"))
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| {
                CampaignError::Worker(format!("spawn {}: {e}", worker.program.display()))
            })?;
        children.push((k, child));
    }
    // Wait for every worker before reporting failures, so no child is
    // left running detached against the store.
    let mut worker_errors: Vec<String> = Vec::new();
    for (k, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => worker_errors.push(format!("shard {k}/{shards} exited with {status}")),
            Err(e) => worker_errors.push(format!("wait for shard {k}: {e}")),
        }
    }
    if !worker_errors.is_empty() {
        return Err(CampaignError::Worker(worker_errors.join("; ")));
    }
    audit_stats(store, &hashes, units.len(), cached_before)
}
