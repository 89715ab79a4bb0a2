//! `ecp` — the experiment CLI over the scenario registry
//! (`ecp_bench::scenarios::campaign_registry`).
//!
//! ```text
//! ecp run      <registry-id | scenario.toml> [--set Param=value]... [--out report.json]
//!              [--trace FILE [--snapshot FILE]] [--profile [--timing FILE]]
//! ecp campaign <run|worker|report|list|watch> <campaign.toml> [flags]
//! ecp trace    <summarize|validate|diff|chrome> <trace.jsonl> [flags]
//! ```
//!
//! `run` runs one scenario once and prints one table per block its
//! report carries (see `render`); `campaign` runs, shards, reports and
//! watches whole campaigns; `trace` inspects the JSONL traces `run
//! --trace` and campaigns write. A malformed command line exits 2 with
//! the reason and this usage; a command that runs and fails exits 1.

mod args;
mod campaign;
mod out;
mod render;
mod run;
mod trace;

use args::Failure;

const USAGE: &str = "\
usage:
  ecp run <registry-id | scenario.toml> [--set Param=value]... [--out report.json]
          [--trace FILE [--snapshot FILE]] [--profile [--timing FILE]]
      Param: Threshold NumPaths Beta Margin ExcludeFraction WakeTime Seed LoadScale
             EwmaAlpha AdaptiveAlpha HystGap StepDamp Timeseries
  ecp campaign <run|worker|report|list|watch> <campaign.toml> [--out DIR] [--only SUB]
      run:    [--workers inprocess | --workers subprocess [--shards N]] [--threads T]
              [--force] [--progress jsonl] [--profile]
              (--shards N: worker subprocesses; in-process runs are one pass)
      worker: --shard k/N [--threads T] [--progress jsonl] [--profile]
      watch:  [--file PATH] [--html] [--interval-ms N] [--timeout-s S]
  ecp trace <summarize [--json] | validate | chrome [--out FILE]> <trace.jsonl>
  ecp trace diff <a.jsonl> <b.jsonl>";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let result = match cmd {
        "run" => run::main(rest),
        "campaign" => campaign::main(rest),
        "trace" => trace::main(rest),
        "" => Err(Failure::Usage("missing subcommand".into())),
        other => Err(Failure::Usage(format!("unknown subcommand `{other}`"))),
    };
    match result {
        Ok(()) => {}
        Err(Failure::Usage(reason)) => {
            eprintln!("ecp: {reason}\n{USAGE}");
            std::process::exit(2);
        }
        Err(Failure::Failed(reason)) => {
            eprintln!("ecp {cmd}: {reason}");
            std::process::exit(1);
        }
    }
}
