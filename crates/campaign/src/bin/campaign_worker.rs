//! Registry-less campaign shard worker.
//!
//! Executes one shard of a campaign whose entries are all **inline**
//! scenarios (entries referencing a registry id fail — this worker
//! resolves none). The full-featured worker with the experiment
//! registry is `ecp campaign worker` in `ecp-bench`; this binary exists
//! so `ecp-campaign`'s own tests (and inline-only campaigns) can
//! exercise subprocess sharding without depending on the bench crate.
//!
//! Usage: `campaign_worker <campaign.toml> --shard k/N [--out DIR]
//!         [--threads T]`

use ecp_campaign::{exec, CampaignSpec, ResultStore};
use std::process::exit;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(spec_path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: campaign_worker <campaign.toml> --shard k/N [--out DIR] [--threads T]");
        exit(2);
    };
    let shard = match flag(&args, "--shard")
        .as_deref()
        .and_then(exec::parse_shard)
    {
        Some(s) => s,
        None => {
            eprintln!("campaign_worker: missing or malformed --shard k/N");
            exit(2);
        }
    };
    let out = flag(&args, "--out");
    let threads = flag(&args, "--threads").and_then(|t| t.parse().ok());

    let run = || -> Result<exec::ExecStats, ecp_campaign::CampaignError> {
        let spec = CampaignSpec::from_path(spec_path.as_ref())?;
        let store = ResultStore::open(&spec.resolved_output_dir(out.as_deref()))?;
        let resolver = |_: &str| None;
        exec::run_shard(
            &spec,
            &resolver,
            &store,
            shard,
            &exec::ExecOptions {
                threads,
                ..Default::default()
            },
        )
    };
    match run() {
        Ok(stats) => println!("shard {}/{}: {stats}", shard.0, shard.1),
        Err(e) => {
            eprintln!("campaign_worker: {e}");
            exit(1);
        }
    }
}
