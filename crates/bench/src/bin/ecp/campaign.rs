//! `ecp campaign`: run, shard-work, inspect, and report whole
//! evaluation campaigns (`ecp-campaign`), with the experiment registry
//! resolving `registry = "<id>"` entries.
//!
//! `run` executes every entry (in-process by default, as one rayon pass
//! over every unique run, or across `--shards N` `--workers subprocess`
//! re-invocations of `ecp campaign worker`, each taking one shard),
//! streams each `ScenarioReport` into the content-addressed result
//! store under the output directory, prints `stats: runs=...
//! executed=... cached=...`, and writes the comparison artifacts. A
//! second `run` of the same campaign reports `executed=0`: every run is
//! served from the store. Scenario failures (e.g. unsupported spec
//! combinations) are recorded as failed runs, not aborts; the process
//! exits 0 unless the campaign itself cannot run.
//!
//! `--only SUB` restricts every command to the entries whose name
//! contains `SUB` — iterate on one A/B entry without re-expanding the
//! whole TOML. Results land in the same store, so a later full run
//! reuses them.
//!
//! `--progress jsonl` streams one [`ecp_campaign::ProgressEvent`] JSON
//! line to stdout per run start/finish (delivered fraction and power on
//! finish). With subprocess workers the flag is forwarded, and worker
//! stdout is inherited, so events from every shard interleave on the
//! parent's stdout — whole lines, arbitrary order.
//!
//! `watch` is the live half of the observatory: it consumes the
//! `--progress jsonl` stream of a concurrently-running campaign —
//! piped on stdin (`ecp campaign run ... --progress jsonl | ecp
//! campaign watch ...`) or tailed from a growing file via `--file` —
//! and re-renders a per-entry dashboard (progress, in-flight runs,
//! cache hits, latest delivered/power/settle/shortfall, rolling
//! wall-clock). On a terminal it redraws in place; on a pipe it prints
//! throttled snapshots (CI friendly). `--html` additionally rewrites
//! `report.html` from the store as runs land. It exits when every
//! expected run has finished, the stream ends, or `--timeout-s`
//! elapses.
//!
//! Every run records into a counting sink: its telemetry snapshot rides
//! in `runs/<hash>.json` and no event trace is stored (`ecp run <id>
//! --trace FILE` traces one run).
//!
//! `--profile` runs every freshly-executed scenario through a counting
//! span-profiled sink: per-run wall time and the top phases land in
//! `timings/<hash>.json` sidecars, outside the deterministic `runs/` +
//! `timeseries/` contract, surface in the report's `wall (s)` /
//! `slowest phase` columns, and ride `RunFinished` progress events.
//! Stored runs and summaries stay byte-identical to an unprofiled
//! campaign.

use crate::args::{Args, Failure, Flags};
use crate::out::{self, outln};
use ecp_campaign::{exec, report, CampaignError, CampaignSpec, ResultStore, Workers};
use std::path::Path;

/// The flags each campaign command accepts.
fn flags(cmd: &str) -> Result<Flags, Failure> {
    let (values, switches): (&'static [&'static str], &'static [&'static str]) = match cmd {
        "run" => (
            &[
                "--shards",
                "--workers",
                "--out",
                "--threads",
                "--only",
                "--progress",
            ],
            &["--force", "--profile"],
        ),
        "worker" => (
            &["--shard", "--out", "--threads", "--only", "--progress"],
            &["--profile"],
        ),
        "report" | "list" => (&["--out", "--only"], &[]),
        "watch" => (
            &["--file", "--out", "--only", "--interval-ms", "--timeout-s"],
            &["--html"],
        ),
        other => {
            return Err(Failure::Usage(format!(
                "unknown campaign command `{other}`"
            )))
        }
    };
    Ok(Flags { values, switches })
}

pub fn main(argv: &[String]) -> Result<(), Failure> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(Failure::Usage("missing campaign command".into()));
    };
    let args = Args::parse(rest, &flags(cmd)?)?;
    let spec_path = &args.positionals(1, "campaign TOML")?[0];
    // Parse every flag before anything runs; a flag this command does
    // not take was rejected above, so it reads as absent here.
    let opts = exec::ExecOptions {
        threads: args.parsed("--threads")?,
        force: args.has("--force"),
        progress: match args.value("--progress") {
            None => false,
            Some("jsonl") => true,
            Some(other) => {
                return Err(Failure::Usage(format!(
                    "--progress: unknown format `{other}` (expected `jsonl`)"
                )))
            }
        },
        profile: args.has("--profile"),
    };
    let subprocess = match args.value("--workers") {
        None | Some("inprocess") => false,
        Some("subprocess") => true,
        Some(other) => {
            return Err(Failure::Usage(format!(
                "--workers: unknown mode `{other}` (expected inprocess or subprocess)"
            )))
        }
    };
    let shards: Option<usize> = args.parsed("--shards")?;
    if shards.is_some() && !subprocess {
        // In-process runs are one pass over every run: a shard count
        // would silently do nothing.
        return Err(Failure::Usage(
            "--shards is the number of worker subprocesses; it needs --workers subprocess".into(),
        ));
    }
    let shard = match cmd.as_str() {
        "worker" => Some(
            args.value("--shard")
                .and_then(exec::parse_shard)
                .ok_or_else(|| Failure::Usage("worker needs a valid --shard k/N".into()))?,
        ),
        _ => None,
    };
    let interval = std::time::Duration::from_millis(args.parsed("--interval-ms")?.unwrap_or(500));
    let timeout_s: Option<f64> = args.parsed("--timeout-s")?;
    let (out, only) = (args.value("--out"), args.value("--only"));

    let resolver = |id: &str| ecp_bench::scenarios::campaign_scenario(id);
    let result = || -> Result<(), CampaignError> {
        let mut spec = CampaignSpec::from_path(Path::new(spec_path))?;
        // The store location never depends on the filter: partial runs
        // share their cache with full runs.
        let out_dir = spec.resolved_output_dir(out);
        let store = ResultStore::open(&out_dir)?;
        if let Some(filter) = only {
            spec.retain_matching(filter)?;
        }
        let write_report = || -> Result<(), CampaignError> {
            let (_, paths) = report::generate(&spec, &resolver, &store, &out_dir)?;
            for p in paths {
                outln!("[campaign] wrote {}", p.display());
            }
            Ok(())
        };
        match (cmd.as_str(), shard) {
            (_, Some(shard)) => {
                let stats = exec::run_shard(&spec, &resolver, &store, shard, &opts)?;
                outln!("shard {}/{}: {stats}", shard.0, shard.1);
                Ok(())
            }
            ("run", _) => {
                let workers = match subprocess {
                    false => Workers::InProcess,
                    true => Workers::Subprocess(worker_command(spec_path, &out_dir, only, &opts)?),
                };
                let shards = shards.unwrap_or_else(|| spec.shard_count());
                let stats = exec::execute(&spec, &resolver, &store, shards, &opts, &workers)?;
                outln!("stats: {stats}");
                write_report()
            }
            ("report", _) => write_report(),
            ("list", _) => {
                let units = exec::expand(&spec, &resolver)?;
                let shards = spec.shard_count();
                for u in &units {
                    let hash = ecp_campaign::run_hash(&u.scenario);
                    let state = if store.load(&hash).is_some() {
                        "cached"
                    } else {
                        "pending"
                    };
                    outln!(
                        "{:>4}  shard {}  {:7}  {}  {} [{}]",
                        u.global,
                        u.shard(shards),
                        state,
                        hash,
                        u.entry,
                        u.scenario.name
                    );
                }
                Ok(())
            }
            _ => {
                let (file, html) = (args.value("--file"), args.has("--html"));
                watch(&spec, &store, &out_dir, file, html, interval, timeout_s)
            }
        }
    };
    result().map_err(|e| Failure::Failed(e.to_string()))
}

/// The `ecp campaign worker` command a subprocess shard runs, with
/// this run's options forwarded (`--shard k/N` is appended per shard).
fn worker_command(
    spec_path: &str,
    out_dir: &Path,
    only: Option<&str>,
    opts: &exec::ExecOptions,
) -> Result<exec::WorkerCommand, CampaignError> {
    let program =
        std::env::current_exe().map_err(|e| CampaignError::Worker(format!("locate self: {e}")))?;
    let mut args: Vec<String> = ["campaign", "worker", spec_path, "--out"]
        .map(String::from)
        .to_vec();
    args.push(out_dir.display().to_string());
    if let Some(t) = opts.threads {
        args.extend(["--threads".into(), t.to_string()]);
    }
    if let Some(o) = only {
        args.extend(["--only".into(), o.into()]);
    }
    if opts.progress {
        args.extend(["--progress".into(), "jsonl".into()]);
    }
    if opts.profile {
        args.push("--profile".into());
    }
    Ok(exec::WorkerCommand { program, args })
}

/// The live dashboard: fold a `--progress jsonl` stream (stdin pipe or
/// a growing `--file`) into a per-entry table, redrawn in place on a
/// terminal and printed as throttled snapshots on a pipe.
fn watch(
    spec: &CampaignSpec,
    store: &ResultStore,
    out_dir: &Path,
    file: Option<&str>,
    html: bool,
    interval: std::time::Duration,
    timeout_s: Option<f64>,
) -> Result<(), CampaignError> {
    use std::io::{BufRead, IsTerminal};

    let resolver = |id: &str| ecp_bench::scenarios::campaign_scenario(id);
    // Expected per-entry run counts, in spec order.
    let units = exec::expand(spec, &resolver)?;
    let mut expected: Vec<(String, usize)> = Vec::new();
    for u in &units {
        match expected.iter_mut().find(|(n, _)| n == &u.entry) {
            Some((_, c)) => *c += 1,
            None => expected.push((u.entry.clone(), 1)),
        }
    }
    let mut state = ecp_campaign::WatchState::new(&spec.name, &expected);

    let start = std::time::Instant::now();
    let tty = std::io::stdout().is_terminal();
    let mut last_render: Option<std::time::Instant> = None;

    let refresh = |state: &ecp_campaign::WatchState,
                   last: &mut Option<std::time::Instant>,
                   force: bool|
     -> Result<(), CampaignError> {
        if !force && !tty && last.is_some_and(|t| t.elapsed() < interval) {
            return Ok(());
        }
        *last = Some(std::time::Instant::now());
        let table = state.render(start.elapsed().as_secs_f64());
        if tty {
            out::print(format_args!("\x1b[H\x1b[2J{table}"));
        } else {
            outln!("{table}");
        }
        if html {
            let summary = report::summarize(spec, &resolver, store)?;
            ecp_campaign::write_html(&summary, store, out_dir)?;
        }
        Ok(())
    };

    match file {
        Some(path) => {
            // Tail a growing file: consume complete lines only, poll
            // for more until done / timeout.
            let mut pos = 0usize;
            loop {
                let content = std::fs::read_to_string(path).unwrap_or_default();
                if content.len() > pos {
                    let new = &content[pos..];
                    if let Some(nl) = new.rfind('\n') {
                        let mut saw_event = false;
                        for line in new[..=nl].lines() {
                            saw_event |= state.apply_line(line);
                        }
                        pos += nl + 1;
                        if saw_event {
                            refresh(&state, &mut last_render, false)?;
                        }
                    }
                }
                if state.done() {
                    break;
                }
                if timeout_s.is_some_and(|t| start.elapsed().as_secs_f64() >= t) {
                    break;
                }
                std::thread::sleep(interval);
            }
        }
        None => {
            // Drain to EOF even once all expected runs have finished:
            // breaking early would close the pipe under a producer that
            // still has its stats/report trailer to print (SIGPIPE).
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line =
                    line.map_err(|e| CampaignError::Io(format!("read progress stream: {e}")))?;
                if state.apply_line(&line) {
                    refresh(&state, &mut last_render, false)?;
                }
            }
        }
    }
    refresh(&state, &mut last_render, true)?;
    outln!(
        "watch: done finished={} expected={} cached={} failed={}",
        state.finished(),
        state.expected(),
        state.cached(),
        state.failed()
    );
    Ok(())
}
