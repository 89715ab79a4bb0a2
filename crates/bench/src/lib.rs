//! # ecp-bench — the experiment harness
//!
//! The library is the scenario registry ([`scenarios`]): every figure,
//! in-text analysis, ablation and extension of the evaluation as a
//! declarative [`ecp_scenario::Scenario`] value under a stable id. The
//! one binary, `ecp`, runs them:
//!
//! ```text
//! ecp run <registry-id | scenario.toml> [--set Param=value]...   # one scenario, one table per report block
//! ecp campaign run examples/campaign_full_registry.toml         # the whole evaluation
//! ecp trace summarize <trace.jsonl>                              # inspect a run's telemetry
//! ```
//!
//! The Criterion micro-benchmarks live under `benches/`.

pub mod scenarios;
