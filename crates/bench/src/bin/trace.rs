//! The trace CLI: capture, inspect, validate, and convert telemetry
//! traces (`ecp-telemetry` JSONL) produced by the traced scenario entry
//! points and the campaign executor.
//!
//! ```text
//! trace run       <registry-id|scenario.toml> [--out FILE] [--snapshot FILE]
//!                                             [--profile] [--timing FILE]
//! trace summarize <trace.jsonl> [--json]
//! trace validate  <trace.jsonl>
//! trace diff      <a.jsonl> <b.jsonl>
//! trace chrome    <trace.jsonl> [--out FILE]
//! ```
//!
//! `run` executes a scenario (experiment-registry id, or a scenario
//! TOML path) through [`ecp_scenario::run_resolved_traced`] and writes
//! the JSONL event trace to stdout or `--out`; `--snapshot` also writes
//! the counter/histogram snapshot as pretty JSON. Traces are
//! deterministic — a pure function of the scenario — so two `run`s of
//! the same id `diff` clean. With `--profile` the scenario is resolved
//! and run into one [`ecp_scenario::SpanSink`] instead: wall-clock
//! `Span` lines ride the trace (event lines stay byte-identical), and
//! `--timing FILE` writes the per-phase
//! [`ecp_scenario::TimingSnapshot`] (count, total/self time,
//! p50/p95/p99) as pretty JSON.
//!
//! `summarize` prints per-kind event counts, the control/power headline
//! numbers, and — when the trace carries `Span` lines — a per-span
//! profile table with percentiles; `--json` emits the same summary as
//! one machine-readable JSON object (text stays the default, so
//! existing greps keep working); `validate` checks every line parses
//! as a [`TelemetryEvent`] and that event times never go backwards;
//! `diff` compares two traces line by line (exit 1 on divergence);
//! `chrome` converts a trace to the chrome://tracing JSON format
//! (load it at `chrome://tracing` or in Perfetto). Instants and
//! counters render in simulation-time microseconds under pid 1;
//! profiling spans render as duration (`ph: "X"`) events in wall-clock
//! microseconds under pid 2, so the two timebases never share a track.

use ecp_simnet::{PowerKind, TelemetryEvent};
use serde_json::{Map, Value};
use std::path::Path;
use std::process::exit;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn usage() -> ! {
    eprintln!(
        "usage: trace <run|summarize|validate|diff|chrome> <input> \
         [second-input] [--out FILE] [--snapshot FILE] [--profile] [--timing FILE] [--json]"
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("trace: {msg}");
    exit(1)
}

fn read_lines(path: &str) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(doc) => doc.lines().map(str::to_string).collect(),
        Err(e) => fail(&format!("read {path}: {e}")),
    }
}

/// Parse every JSONL line; returns the events or the 1-based line
/// number and message of the first malformed line.
fn parse_events(lines: &[String]) -> Result<Vec<TelemetryEvent>, (usize, String)> {
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<TelemetryEvent>(line) {
            Ok(ev) => out.push(ev),
            Err(e) => return Err((i + 1, e.to_string())),
        }
    }
    Ok(out)
}

/// Resolve the `run` input: an experiment-registry id, or a path to a
/// scenario TOML document.
fn resolve_scenario(input: &str) -> ecp_scenario::Scenario {
    if let Some(s) = ecp_bench::scenarios::campaign_scenario(input) {
        return s;
    }
    if Path::new(input).is_file() {
        let doc = match std::fs::read_to_string(input) {
            Ok(d) => d,
            Err(e) => fail(&format!("read {input}: {e}")),
        };
        match ecp_scenario::Scenario::from_toml(&doc) {
            Ok(s) => return s,
            Err(e) => fail(&format!("parse {input}: {e}")),
        }
    }
    fail(&format!(
        "`{input}` is neither a registry id nor a scenario TOML file"
    ))
}

fn cmd_run(
    input: &str,
    out: Option<&str>,
    snapshot_out: Option<&str>,
    profile: bool,
    timing_out: Option<&str>,
) {
    if timing_out.is_some() && !profile {
        fail("--timing requires --profile");
    }
    let scenario = resolve_scenario(input);
    let outcome = if profile {
        let mut sink = ecp_scenario::SpanSink::new();
        ecp_scenario::resolve_with_sink(&scenario, &mut sink)
            .and_then(|resolved| ecp_scenario::run_resolved_with_sink(&scenario, &resolved, sink))
            .map(|(_, trace, mut sink)| (trace, Some(sink.timing())))
    } else {
        ecp_scenario::resolve(&scenario)
            .and_then(|resolved| ecp_scenario::run_resolved_traced(&scenario, &resolved))
            .map(|(_, trace)| (trace, None))
    };
    let (trace, timing) = match outcome {
        Ok(out) => out,
        Err(e) => fail(&format!("run `{}`: {e}", scenario.name)),
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
                fail(&format!("write {path}: {e}"));
            }
            println!("wrote {path} ({} events)", trace.lines.len());
        }
        None => {
            for line in &trace.lines {
                println!("{line}");
            }
        }
    }
    if let Some(path) = snapshot_out {
        let Some(snap) = &trace.snapshot else {
            fail("scenario produced no telemetry snapshot (non-simnet engine?)");
        };
        let body = serde_json::to_string_pretty(snap).expect("snapshot serializes");
        if let Err(e) = std::fs::write(path, body) {
            fail(&format!("write {path}: {e}"));
        }
        println!("wrote {path}");
    }
    if let Some(path) = timing_out {
        let t = timing.as_ref().expect("profiled run produced a timing");
        let body = serde_json::to_string_pretty(t).expect("timing serializes");
        if let Err(e) = std::fs::write(path, body) {
            fail(&format!("write {path}: {e}"));
        }
        println!("wrote {path} ({} spans)", t.spans.len());
    }
}

fn cmd_summarize(path: &str, json: bool) {
    let lines = read_lines(path);
    let events = match parse_events(&lines) {
        Ok(ev) => ev,
        Err((n, e)) => fail(&format!("{path}:{n}: {e}")),
    };
    if events.is_empty() {
        if json {
            println!(
                "{}",
                serde_json::to_string(&obj(vec![("events", Value::U64(0))]))
                    .expect("summary serializes")
            );
        } else {
            println!("events: 0");
        }
        return;
    }
    let (t0, t1) = (events[0].time(), events[events.len() - 1].time());
    let kinds: Vec<(&str, u64)> = [
        "ControlRound",
        "ArcLoads",
        "PowerTransition",
        "TeReconfig",
        "Failure",
        "Repair",
        "Span",
    ]
    .iter()
    .map(|&kind| {
        (
            kind,
            events.iter().filter(|e| e.kind() == kind).count() as u64,
        )
    })
    .filter(|&(_, n)| n > 0)
    .collect();
    let mut rounds = 0u64;
    let mut immediate_n = 0u64;
    let mut decided_n = 0u64;
    let mut skipped = 0u64;
    let mut changes = 0u64;
    let mut wf = 0u64;
    let mut settle: Option<f64> = None;
    let mut peak_util = 0.0f64;
    let mut peak_ol = 0u32;
    let mut sleeps = 0u64;
    let mut wakes = 0u64;
    let mut idle_sum = 0.0f64;
    for ev in &events {
        match *ev {
            TelemetryEvent::ControlRound {
                t,
                immediate,
                decided,
                skipped_clean,
                share_changes,
                waterfill_iters,
                ..
            } => {
                rounds += 1;
                immediate_n += immediate as u64;
                decided_n += decided as u64;
                skipped += skipped_clean as u64;
                changes += share_changes as u64;
                wf += waterfill_iters;
                if share_changes > 0 {
                    settle = Some(t);
                }
            }
            TelemetryEvent::ArcLoads {
                max_util,
                overloaded,
                ..
            } => {
                peak_util = peak_util.max(max_util);
                peak_ol = peak_ol.max(overloaded);
            }
            TelemetryEvent::PowerTransition { kind, idle_s, .. } => match kind {
                PowerKind::Sleep => {
                    sleeps += 1;
                    idle_sum += idle_s;
                }
                PowerKind::WakeDone => wakes += 1,
                PowerKind::WakeStart => {}
            },
            _ => {}
        }
    }
    let mean_idle = if sleeps > 0 {
        idle_sum / sleeps as f64
    } else {
        0.0
    };
    let spans = span_profile(&events);

    if json {
        let mut doc = vec![
            ("events", Value::U64(events.len() as u64)),
            (
                "span_s",
                obj(vec![("start", Value::F64(t0)), ("end", Value::F64(t1))]),
            ),
            (
                "kinds",
                obj(kinds.iter().map(|&(k, n)| (k, Value::U64(n))).collect()),
            ),
        ];
        if rounds > 0 {
            doc.push((
                "control",
                obj(vec![
                    ("rounds", Value::U64(rounds)),
                    ("immediate", Value::U64(immediate_n)),
                    ("decided", Value::U64(decided_n)),
                    ("skipped_clean", Value::U64(skipped)),
                    ("share_changes", Value::U64(changes)),
                    ("waterfill_iters", Value::U64(wf)),
                    ("settle_s", settle.map(Value::F64).unwrap_or(Value::Null)),
                ]),
            ));
            doc.push((
                "peaks",
                obj(vec![
                    ("max_util", Value::F64(peak_util)),
                    ("overloaded_arcs", Value::U64(peak_ol as u64)),
                ]),
            ));
        }
        if sleeps + wakes > 0 {
            doc.push((
                "power",
                obj(vec![
                    ("sleeps", Value::U64(sleeps)),
                    ("wakes", Value::U64(wakes)),
                    ("mean_idle_drain_s", Value::F64(mean_idle)),
                ]),
            ));
        }
        if !spans.is_empty() {
            doc.push((
                "spans",
                Value::Array(
                    spans
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("name", Value::Str(s.name.clone())),
                                ("count", Value::U64(s.count)),
                                ("total_s", Value::F64(s.total_s)),
                                ("self_s", Value::F64(s.self_s)),
                                ("p50_s", Value::F64(s.p50)),
                                ("p95_s", Value::F64(s.p95)),
                                ("p99_s", Value::F64(s.p99)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        println!(
            "{}",
            serde_json::to_string(&obj(doc)).expect("summary serializes")
        );
        return;
    }

    println!("events: {}   span: {t0:.3}s .. {t1:.3}s", events.len());
    for (kind, n) in &kinds {
        println!("  {kind:<16} {n}");
    }
    if rounds > 0 {
        println!(
            "control: rounds={rounds} immediate={immediate_n} decided={decided_n} \
             skipped_clean={skipped} share_changes={changes} waterfill_iters={wf}"
        );
        match settle {
            Some(t) => println!("settle: last share change at {t:.3}s"),
            None => println!("settle: no share changes"),
        }
        println!("peaks: max_util={peak_util:.4} overloaded_arcs={peak_ol}");
    }
    if sleeps + wakes > 0 {
        println!("power: sleeps={sleeps} wakes={wakes} mean_idle_drain={mean_idle:.3}s");
    }
    if !spans.is_empty() {
        println!("spans:");
        println!(
            "  {:<18} {:>7} {:>11} {:>11} {:>10} {:>10} {:>10}",
            "name", "count", "total (s)", "self (s)", "p50 (s)", "p95 (s)", "p99 (s)"
        );
        for s in &spans {
            println!(
                "  {:<18} {:>7} {:>11.6} {:>11.6} {:>10.6} {:>10.6} {:>10.6}",
                s.name, s.count, s.total_s, s.self_s, s.p50, s.p95, s.p99,
            );
        }
    }
}

/// One row of the per-span profile (percentiles interpolated from the
/// same `SPAN_DUR_BOUNDS` buckets the profiling sink uses).
struct SpanRow {
    name: String,
    count: u64,
    total_s: f64,
    self_s: f64,
    p50: f64,
    p95: f64,
    p99: f64,
}

/// Fold the trace's `Span` lines into per-span profile rows with
/// interpolated percentiles (same `SPAN_DUR_BOUNDS` buckets the
/// profiling sink uses). Empty when the trace was not profiled.
fn span_profile(events: &[TelemetryEvent]) -> Vec<SpanRow> {
    use ecp_telemetry::{HistogramSnapshot, SPAN_DUR_BOUNDS};
    use std::collections::BTreeMap;

    struct Agg {
        count: u64,
        total_s: f64,
        self_s: f64,
        min: f64,
        max: f64,
        buckets: Vec<u64>,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for ev in events {
        let TelemetryEvent::Span {
            name,
            dur_s,
            self_s,
            ..
        } = ev
        else {
            continue;
        };
        let a = by_name.entry(name.as_str()).or_insert_with(|| Agg {
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
            min: f64::INFINITY,
            max: 0.0,
            buckets: vec![0; SPAN_DUR_BOUNDS.len() + 1],
        });
        a.count += 1;
        a.total_s += dur_s;
        a.self_s += self_s;
        a.min = a.min.min(*dur_s);
        a.max = a.max.max(*dur_s);
        let slot = SPAN_DUR_BOUNDS
            .iter()
            .position(|&b| *dur_s <= b)
            .unwrap_or(SPAN_DUR_BOUNDS.len());
        a.buckets[slot] += 1;
    }
    by_name
        .iter()
        .map(|(name, a)| {
            let mut buckets: Vec<(f64, u64)> = SPAN_DUR_BOUNDS
                .iter()
                .zip(&a.buckets)
                .map(|(&b, &n)| (b, n))
                .collect();
            buckets.push((-1.0, a.buckets[SPAN_DUR_BOUNDS.len()]));
            let hist = HistogramSnapshot {
                name: name.to_string(),
                count: a.count,
                sum: a.total_s,
                min: a.min,
                max: a.max,
                buckets,
            };
            SpanRow {
                name: name.to_string(),
                count: a.count,
                total_s: a.total_s,
                self_s: a.self_s,
                p50: hist.p50(),
                p95: hist.p95(),
                p99: hist.p99(),
            }
        })
        .collect()
}

fn cmd_validate(path: &str) {
    let lines = read_lines(path);
    let events = match parse_events(&lines) {
        Ok(ev) => ev,
        Err((n, e)) => fail(&format!("{path}:{n}: {e}")),
    };
    let mut last = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let t = ev.time();
        if t < last {
            fail(&format!(
                "{path}:{}: time goes backwards ({t} after {last})",
                i + 1
            ));
        }
        last = t;
    }
    println!("ok: {} events, times monotone", events.len());
}

fn cmd_diff(a_path: &str, b_path: &str) {
    let a = read_lines(a_path);
    let b = read_lines(b_path);
    if a == b {
        println!("identical: {} events", a.len());
        return;
    }
    if a.len() != b.len() {
        eprintln!("lengths differ: {} vs {} events", a.len(), b.len());
    }
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        if la != lb {
            eprintln!("first divergence at line {}:", i + 1);
            eprintln!("  - {la}");
            eprintln!("  + {lb}");
            break;
        }
    }
    exit(1)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// One chrome://tracing event: instants (`ph: "i"`) for discrete
/// happenings, counter tracks (`ph: "C"`) for the per-round load and
/// waterfill series — microseconds of simulation time, pid 1. Profiling
/// spans become duration events (`ph: "X"`) in wall-clock microseconds
/// under pid 2, so sim-time and wall-time never share a timeline.
fn chrome_event(ev: &TelemetryEvent) -> Value {
    let ts = Value::F64(ev.time() * 1e6);
    let base = |name: &str, ph: &str, args: Value| {
        obj(vec![
            ("name", Value::Str(name.into())),
            ("ph", Value::Str(ph.into())),
            ("s", Value::Str("g".into())),
            ("ts", ts.clone()),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(1)),
            ("args", args),
        ])
    };
    match *ev {
        TelemetryEvent::ControlRound {
            immediate,
            agents,
            decided,
            skipped_clean,
            deferred_phased,
            share_changes,
            waterfill_iters,
            ..
        } => base(
            "control-round",
            "i",
            obj(vec![
                ("immediate", Value::Bool(immediate)),
                ("agents", Value::U64(agents as u64)),
                ("decided", Value::U64(decided as u64)),
                ("skipped_clean", Value::U64(skipped_clean as u64)),
                ("deferred_phased", Value::U64(deferred_phased as u64)),
                ("share_changes", Value::U64(share_changes as u64)),
                ("waterfill_iters", Value::U64(waterfill_iters)),
            ]),
        ),
        TelemetryEvent::ArcLoads {
            max_util,
            mean_util,
            overloaded,
            ..
        } => base(
            "arc-loads",
            "C",
            obj(vec![
                ("max_util", Value::F64(max_util)),
                ("mean_util", Value::F64(mean_util)),
                ("overloaded", Value::U64(overloaded as u64)),
            ]),
        ),
        TelemetryEvent::PowerTransition {
            link, kind, idle_s, ..
        } => base(
            match kind {
                PowerKind::Sleep => "power-sleep",
                PowerKind::WakeStart => "power-wake-start",
                PowerKind::WakeDone => "power-wake-done",
            },
            "i",
            obj(vec![
                ("link", Value::U64(link as u64)),
                ("idle_s", Value::F64(idle_s)),
            ]),
        ),
        TelemetryEvent::TeReconfig {
            threshold,
            step,
            min_share,
            ..
        } => base(
            "te-reconfig",
            "i",
            obj(vec![
                ("threshold", Value::F64(threshold)),
                ("step", Value::F64(step)),
                ("min_share", Value::F64(min_share)),
            ]),
        ),
        TelemetryEvent::Failure {
            element,
            id,
            detected,
            ..
        } => base(
            if detected {
                "failure-detected"
            } else {
                "failure"
            },
            "i",
            obj(vec![
                ("element", Value::Str(format!("{element:?}"))),
                ("id", Value::U64(id as u64)),
            ]),
        ),
        TelemetryEvent::Span {
            ref name,
            start_s,
            dur_s,
            self_s,
            depth,
            ..
        } => obj(vec![
            ("name", Value::Str(name.clone())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::F64(start_s * 1e6)),
            ("dur", Value::F64(dur_s * 1e6)),
            ("pid", Value::U64(2)),
            ("tid", Value::U64(1)),
            (
                "args",
                obj(vec![
                    ("self_s", Value::F64(self_s)),
                    ("depth", Value::U64(depth as u64)),
                ]),
            ),
        ]),
        TelemetryEvent::Repair {
            element,
            id,
            detected,
            ..
        } => base(
            if detected {
                "repair-detected"
            } else {
                "repair"
            },
            "i",
            obj(vec![
                ("element", Value::Str(format!("{element:?}"))),
                ("id", Value::U64(id as u64)),
            ]),
        ),
    }
}

fn cmd_chrome(path: &str, out: Option<&str>) {
    let lines = read_lines(path);
    let events = match parse_events(&lines) {
        Ok(ev) => ev,
        Err((n, e)) => fail(&format!("{path}:{n}: {e}")),
    };
    let doc = obj(vec![
        (
            "traceEvents",
            Value::Array(events.iter().map(chrome_event).collect()),
        ),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    let body = serde_json::to_string(&doc).expect("chrome trace serializes");
    match out {
        Some(p) => {
            if let Err(e) = std::fs::write(p, body) {
                fail(&format!("write {p}: {e}"));
            }
            println!("wrote {p} ({} events)", events.len());
        }
        None => println!("{body}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(input)) = (args.first(), args.get(1)) else {
        usage()
    };
    let out = flag(&args, "--out");
    match cmd.as_str() {
        "run" => cmd_run(
            input,
            out.as_deref(),
            flag(&args, "--snapshot").as_deref(),
            args.iter().any(|a| a == "--profile"),
            flag(&args, "--timing").as_deref(),
        ),
        "summarize" => cmd_summarize(input, args.iter().any(|a| a == "--json")),
        "validate" => cmd_validate(input),
        "diff" => match args.get(2) {
            Some(b) if !b.starts_with("--") => cmd_diff(input, b),
            _ => usage(),
        },
        "chrome" => cmd_chrome(input, out.as_deref()),
        _ => usage(),
    }
}
