//! `ecp trace`: inspect, validate, and convert the telemetry traces
//! (`ecp-telemetry` JSONL) that `ecp run --trace` writes. A trace holds
//! simulation events only; a `--profile` run's wall-clock span profile
//! is printed by `ecp run` and written by its `--timing FILE`, never
//! into the trace.
//!
//! `summarize` prints per-kind event counts and the control/power
//! headline numbers; `--json` emits the same summary as one
//! machine-readable JSON object (text stays the default, so existing
//! greps keep working); `validate` checks every line parses as a
//! [`TelemetryEvent`] and that event times never go backwards; `diff`
//! compares two traces line by line (exit 1 on divergence); `chrome`
//! converts a trace to the chrome://tracing JSON format (load it at
//! `chrome://tracing` or in Perfetto): instants and counters in
//! simulation-time microseconds.

use crate::args::{Args, Failure, Flags};
use crate::out::outln;
use ecp_simnet::{JsonlSink, PowerKind, TelemetryEvent, TelemetrySink};
use serde_json::{Map, Value};

pub fn main(argv: &[String]) -> Result<(), Failure> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(Failure::Usage("missing trace command".into()));
    };
    let (values, switches): (&'static [&'static str], &'static [&'static str]) = match cmd.as_str()
    {
        "summarize" => (&[], &["--json"]),
        "validate" | "diff" => (&[], &[]),
        "chrome" => (&["--out"], &[]),
        other => return Err(Failure::Usage(format!("unknown trace command `{other}`"))),
    };
    let args = Args::parse(rest, &Flags { values, switches })?;
    let files = args.positionals(if cmd == "diff" { 2 } else { 1 }, "trace file")?;
    match cmd.as_str() {
        "summarize" => cmd_summarize(&files[0], args.has("--json")),
        "validate" => cmd_validate(&files[0]),
        "diff" => cmd_diff(&files[0], &files[1]),
        _ => cmd_chrome(&files[0], args.value("--out")),
    }
}

fn read_lines(path: &str) -> Result<Vec<String>, Failure> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| Failure::Failed(format!("read {path}: {e}")))?;
    Ok(doc.lines().map(str::to_string).collect())
}

/// Parse every JSONL line of `path`; fails naming the 1-based line
/// number of the first malformed line.
fn read_events(path: &str) -> Result<Vec<TelemetryEvent>, Failure> {
    let lines = read_lines(path)?;
    let parse = |(i, line): (usize, &String)| {
        serde_json::from_str(line).map_err(|e| Failure::Failed(format!("{path}:{}: {e}", i + 1)))
    };
    lines.iter().enumerate().map(parse).collect()
}

fn cmd_summarize(path: &str, json: bool) -> Result<(), Failure> {
    let events = read_events(path)?;
    if events.is_empty() {
        if json {
            outln!(
                "{}",
                serde_json::to_string(&obj(vec![("events", Value::U64(0))]))
                    .expect("summary serializes")
            );
        } else {
            outln!("events: 0");
        }
        return Ok(());
    }
    let (t0, t1) = (events[0].time(), events[events.len() - 1].time());
    let kinds: Vec<(&str, u64)> = [
        "ControlRound",
        "ArcLoads",
        "PowerTransition",
        "TeReconfig",
        "Failure",
        "Repair",
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
    // Settle time and peaks are the recording sink's own aggregates.
    let mut sink = JsonlSink::counting();
    let mut rounds = 0u64;
    let mut immediate_n = 0u64;
    let mut decided_n = 0u64;
    let mut skipped = 0u64;
    let mut changes = 0u64;
    let mut wf = 0u64;
    let mut sleeps = 0u64;
    let mut wakes = 0u64;
    let mut idle_sum = 0.0f64;
    for ev in &events {
        sink.emit(ev);
        match *ev {
            TelemetryEvent::ControlRound {
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
    let snapshot = sink.snapshot().expect("a recording sink keeps a snapshot");
    let (settle, peak_util, peak_ol) = (
        snapshot.settle_time_s,
        snapshot.peak_max_util,
        snapshot.peak_overloaded_arcs,
    );

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
        outln!(
            "{}",
            serde_json::to_string(&obj(doc)).expect("summary serializes")
        );
        return Ok(());
    }

    outln!("events: {}   span: {t0:.3}s .. {t1:.3}s", events.len());
    for (kind, n) in &kinds {
        outln!("  {kind:<16} {n}");
    }
    if rounds > 0 {
        outln!(
            "control: rounds={rounds} immediate={immediate_n} decided={decided_n} \
             skipped_clean={skipped} share_changes={changes} waterfill_iters={wf}"
        );
        match settle {
            Some(t) => outln!("settle: last share change at {t:.3}s"),
            None => outln!("settle: no share changes"),
        }
        outln!("peaks: max_util={peak_util:.4} overloaded_arcs={peak_ol}");
    }
    if sleeps + wakes > 0 {
        outln!("power: sleeps={sleeps} wakes={wakes} mean_idle_drain={mean_idle:.3}s");
    }
    Ok(())
}

fn cmd_validate(path: &str) -> Result<(), Failure> {
    let events = read_events(path)?;
    let mut last = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let t = ev.time();
        if t < last {
            return Err(Failure::Failed(format!(
                "{path}:{}: time goes backwards ({t} after {last})",
                i + 1
            )));
        }
        last = t;
    }
    outln!("ok: {} events, times monotone", events.len());
    Ok(())
}

fn cmd_diff(a_path: &str, b_path: &str) -> Result<(), Failure> {
    let a = read_lines(a_path)?;
    let b = read_lines(b_path)?;
    if a == b {
        outln!("identical: {} events", a.len());
        return Ok(());
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
    Err(Failure::Failed(format!("{a_path} and {b_path} differ")))
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
/// waterfill series — microseconds of simulation time, pid 1.
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

fn cmd_chrome(path: &str, out: Option<&str>) -> Result<(), Failure> {
    let events = read_events(path)?;
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
            std::fs::write(p, body).map_err(|e| Failure::Failed(format!("write {p}: {e}")))?;
            outln!("wrote {p} ({} events)", events.len());
        }
        None => outln!("{body}"),
    }
    Ok(())
}
