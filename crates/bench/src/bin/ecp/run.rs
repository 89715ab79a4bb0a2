//! `ecp run`: run one scenario — a registry id or a scenario TOML —
//! once, print one table per block of its report, and optionally write
//! the report, the telemetry trace, its snapshot and the span timing.
//!
//! `--set Param=value` applies a [`Param`] (the knob set campaign
//! entries `set` and sweep) in command-line order before the run.
//! `--trace FILE` runs through [`ecp_scenario::run_resolved_traced`]
//! and writes the JSONL event trace; traces are a pure function of the
//! scenario, so two runs `ecp trace diff` clean. `--snapshot FILE`
//! writes the trace's counter/histogram snapshot. `--profile` resolves
//! and runs into one [`SpanSink`] instead (a counting one without
//! `--trace`): the per-span wall-clock profile is printed, and
//! `--timing FILE` writes it as pretty JSON. Spans never enter the
//! trace, so `--profile --trace FILE` writes the same bytes as
//! `--trace FILE`. The report is the same whichever way the scenario
//! runs.

use crate::args::{Args, Failure, Flags};
use crate::out::outln;
use crate::render;
use ecp_scenario::{
    Param, Scenario, ScenarioError, ScenarioReport, SpanSink, TimingSnapshot, TraceOutput,
};

const FLAGS: Flags = Flags {
    values: &["--set", "--out", "--trace", "--snapshot", "--timing"],
    switches: &["--profile"],
};

pub fn main(argv: &[String]) -> Result<(), Failure> {
    let args = Args::parse(argv, &FLAGS)?;
    let input = &args.positionals(1, "registry id or scenario TOML")?[0];
    let sets = args
        .all("--set")
        .into_iter()
        .map(parse_set)
        .collect::<Result<Vec<_>, _>>()?;
    let (trace_out, snapshot_out) = (args.value("--trace"), args.value("--snapshot"));
    let (profile, timing_out) = (args.has("--profile"), args.value("--timing"));
    if snapshot_out.is_some() && trace_out.is_none() {
        return Err(Failure::Usage("--snapshot needs --trace".into()));
    }
    if timing_out.is_some() && !profile {
        return Err(Failure::Usage("--timing needs --profile".into()));
    }

    let (key, mut scenario) = load(input)?;
    for &(param, value) in &sets {
        param.apply(&mut scenario, value);
    }
    let (report, trace, timing) = execute(&scenario, trace_out.is_some(), profile)
        .map_err(|e| Failure::Failed(format!("run `{}`: {e}", scenario.name)))?;

    if !sets.is_empty() {
        let set: Vec<String> = sets.iter().map(|(p, v)| format!("{p:?}={v}")).collect();
        outln!("set: {}", set.join(" "));
    }
    render::report(&report, &key);
    if let Some(t) = &timing {
        render::timing(t);
    }

    if let Some(path) = args.value("--out") {
        write(path, &pretty(&report))?;
        outln!("wrote {path}");
    }
    if let (Some(path), Some(trace)) = (trace_out, &trace) {
        write(path, &trace.to_jsonl())?;
        outln!("wrote {path} ({} events)", trace.lines.len());
        if let Some(path) = snapshot_out {
            let snap = trace.snapshot.as_ref().ok_or_else(|| {
                Failure::Failed(
                    "scenario produced no telemetry snapshot (non-simnet engine?)".into(),
                )
            })?;
            write(path, &pretty(snap))?;
            outln!("wrote {path}");
        }
    }
    if let (Some(path), Some(t)) = (timing_out, &timing) {
        write(path, &pretty(t))?;
        outln!("wrote {path} ({} spans)", t.spans.len());
    }
    Ok(())
}

/// One `--set Param=value` override.
fn parse_set(arg: &str) -> Result<(Param, f64), Failure> {
    let bad = |why: String| Failure::Usage(format!("--set {arg}: {why}"));
    let (name, value) = arg
        .split_once('=')
        .ok_or_else(|| bad("expected Param=value".into()))?;
    // `Param` parses from its variant name, as in campaign TOML.
    let param: Param = serde_json::from_value(serde_json::Value::Str(name.into()))
        .map_err(|_| bad(format!("unknown Param `{name}`")))?;
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok((param, v)),
        Ok(_) => Err(bad("the value must be finite".into())),
        Err(_) => Err(bad(format!("cannot parse `{value}`"))),
    }
}

/// The scenario behind `input` (a registry id, else a scenario TOML
/// path) and the key of its paper claim: the id, or the TOML's name.
fn load(input: &str) -> Result<(String, Scenario), Failure> {
    if let Some(s) = ecp_bench::scenarios::campaign_scenario(input) {
        return Ok((input.to_string(), s));
    }
    if !std::path::Path::new(input).is_file() {
        let ids: Vec<&str> = ecp_bench::scenarios::campaign_registry()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        return Err(Failure::Usage(format!(
            "`{input}` is neither a registry id nor a scenario TOML file; registry ids:\n  {}",
            ids.join("\n  ")
        )));
    }
    let doc = std::fs::read_to_string(input)
        .map_err(|e| Failure::Failed(format!("read {input}: {e}")))?;
    let scenario =
        Scenario::from_toml(&doc).map_err(|e| Failure::Failed(format!("parse {input}: {e}")))?;
    Ok((scenario.name.clone(), scenario))
}

/// Run once: plain, traced (`trace`), span-profiled (`profile`), or
/// both.
fn execute(
    scenario: &Scenario,
    trace: bool,
    profile: bool,
) -> Result<(ScenarioReport, Option<TraceOutput>, Option<TimingSnapshot>), ScenarioError> {
    if profile {
        let mut sink = if trace {
            SpanSink::new()
        } else {
            SpanSink::counting()
        };
        let resolved = ecp_scenario::resolve_with_sink(scenario, &mut sink)?;
        let (report, trace, mut sink) =
            ecp_scenario::run_resolved_with_sink(scenario, &resolved, sink)?;
        return Ok((report, Some(trace), Some(sink.timing())));
    }
    let resolved = ecp_scenario::resolve(scenario)?;
    if trace {
        let (report, trace) = ecp_scenario::run_resolved_traced(scenario, &resolved)?;
        return Ok((report, Some(trace), None));
    }
    Ok((ecp_scenario::run_resolved(scenario, &resolved)?, None, None))
}

fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializes")
}

fn write(path: &str, body: &str) -> Result<(), Failure> {
    std::fs::write(path, body).map_err(|e| Failure::Failed(format!("write {path}: {e}")))
}
