//! Byte identity of the streamed JSON.
//!
//! `Serialize::write_json` writes JSON without building a `Value` tree.
//! For every input here it must give exactly the bytes of printing the
//! tree, `JsonWriter::value(&to_value(x))`, compact and pretty. The tree
//! printer itself is pinned against `reference`, the tree printer the
//! crate had before the streaming writer, kept here as the oracle.

use ecp_scenario::{EngineSpec, FakeClock, SpanSink, TelemetrySnapshot};
use ecp_simnet::{Element, PowerKind, TelemetryEvent};
use proptest::prelude::*;
use proptest::TestRng;
use serde::{JsonWriter, Map, Serialize, Value};
use std::collections::BTreeMap;

/// The pre-streaming tree printer, verbatim in behaviour.
mod reference {
    use serde::Value;

    pub fn print(v: &Value, pretty: bool) -> String {
        let mut out = String::new();
        write_value(&mut out, v, pretty.then_some(2), 0);
        out
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::I64(i) => out.push_str(&i.to_string()),
            Value::U64(u) => out.push_str(&u.to_string()),
            Value::F64(f) => {
                if f.is_finite() {
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_value(out, item, indent, level + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, level + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..(w * level) {
                out.push(' ');
            }
        }
    }

    fn write_json_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

fn writer(out: &mut String, pretty: bool) -> JsonWriter<'_> {
    if pretty {
        JsonWriter::pretty(out)
    } else {
        JsonWriter::compact(out)
    }
}

/// `x.write_json` in one layout.
fn streamed<T: Serialize + ?Sized>(x: &T, pretty: bool) -> String {
    let mut out = String::new();
    x.write_json(&mut writer(&mut out, pretty));
    out
}

/// `JsonWriter::value(&to_value(x))` in one layout.
fn via_tree<T: Serialize + ?Sized>(x: &T, pretty: bool) -> String {
    let mut out = String::new();
    writer(&mut out, pretty).value(&serde::to_value(x));
    out
}

/// Both layouts: streamed == tree printed == reference printed, and
/// `serde_json` hands out the streamed bytes.
fn check<T: Serialize + ?Sized>(x: &T) -> Result<(), String> {
    for pretty in [false, true] {
        let (s, t) = (streamed(x, pretty), via_tree(x, pretty));
        if s != t {
            return Err(format!("pretty={pretty}: streamed\n{s}\nvs tree\n{t}"));
        }
        let r = reference::print(&serde::to_value(x), pretty);
        if t != r {
            return Err(format!("pretty={pretty}: tree\n{t}\nvs reference\n{r}"));
        }
    }
    let api = (
        serde_json::to_string(x).unwrap(),
        serde_json::to_string_pretty(x).unwrap(),
    );
    if api != (streamed(x, false), streamed(x, true)) {
        return Err("serde_json disagrees with write_json".into());
    }
    Ok(())
}

// ---- random inputs --------------------------------------------------------

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.usize_in(0, items.len())]
}

fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.usize_in(0, 3) {
        0 => pick(
            rng,
            &[
                0.0,
                -0.0,
                1.0,
                0.5,
                5e-324,
                1e300,
                -1e300,
                1e-7,
                -3.0,
                1e15,
                9_007_199_254_740_991.0,
                -9_007_199_254_740_991.0,
                9_007_199_254_740_992.0,
                1e16,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
        ),
        1 => (rng.unit() - 0.5) * 10f64.powi(rng.usize_in(0, 40) as i32 - 20),
        _ => (rng.unit() * 1e6).round(),
    }
}

fn arb_i64(rng: &mut TestRng) -> i64 {
    match rng.usize_in(0, 3) {
        0 => pick(rng, &[0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX]),
        1 => ((rng.unit() - 0.5) * 2e18) as i64,
        _ => rng.usize_in(0, 1000) as i64 - 500,
    }
}

/// Integers above `i64::MAX`, which only `Value::U64` holds.
fn arb_big_u64(rng: &mut TestRng) -> u64 {
    match rng.usize_in(0, 2) {
        0 => pick(rng, &[i64::MAX as u64 + 1, u64::MAX]),
        _ => i64::MAX as u64 + 1 + (rng.unit() * 9e18) as u64,
    }
}

/// Strings mixing plain text with everything the writer escapes and
/// with multi-byte characters.
fn arb_string(rng: &mut TestRng) -> String {
    const PIECES: &[&str] = &[
        "", "a", "key", "t", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}", "\u{c}",
        "\u{1f}", "\u{7f}", "é", "€", "😀", "/", " ",
    ];
    (0..rng.usize_in(0, 6)).map(|_| pick(rng, PIECES)).collect()
}

fn arb_value(rng: &mut TestRng, depth: usize) -> Value {
    let kinds = if depth == 0 { 7 } else { 9 };
    match rng.usize_in(0, kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.unit() < 0.5),
        2 => Value::I64(arb_i64(rng)),
        3 => Value::U64(arb_big_u64(rng)),
        4 | 5 => Value::F64(arb_f64(rng)),
        6 => Value::Str(arb_string(rng)),
        7 => Value::Array(
            (0..rng.usize_in(0, 4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.usize_in(0, 4))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect::<Map>(),
        ),
    }
}

/// Random [`Value`] trees up to four levels deep.
struct ValueTrees;

impl Strategy for ValueTrees {
    type Value = Value;
    fn new_value(&self, rng: &mut TestRng) -> Value {
        arb_value(rng, 4)
    }
}

/// Typed std containers, so the std impls' `write_json` is exercised.
type StdMix = (
    Vec<(String, f64)>,
    BTreeMap<String, Vec<Option<i64>>>,
    (u8, i16, u32, u64, char, bool),
    Option<Box<usize>>,
    [f32; 3],
    (),
);

struct StdMixes;

impl Strategy for StdMixes {
    type Value = StdMix;
    fn new_value(&self, rng: &mut TestRng) -> StdMix {
        let pairs = (0..rng.usize_in(0, 4))
            .map(|_| (arb_string(rng), arb_f64(rng)))
            .collect();
        let map = (0..rng.usize_in(0, 4))
            .map(|_| {
                let items = (0..rng.usize_in(0, 3))
                    .map(|_| (rng.unit() < 0.7).then(|| arb_i64(rng)))
                    .collect();
                (arb_string(rng), items)
            })
            .collect();
        let scalars = (
            rng.usize_in(0, 256) as u8,
            arb_i64(rng) as i16,
            arb_i64(rng) as u32,
            arb_big_u64(rng),
            pick(rng, &['a', '"', '\\', '\n', '\u{1}', 'é', '😀']),
            rng.unit() < 0.5,
        );
        let boxed = (rng.unit() < 0.5).then(|| Box::new(rng.usize_in(0, 1 << 20)));
        let floats = [0.1f32, arb_f64(rng) as f32, -0.0];
        (pairs, map, scalars, boxed, floats, ())
    }
}

/// Every [`TelemetryEvent`] variant, with adversarial floats and names.
struct Events;

impl Strategy for Events {
    type Value = TelemetryEvent;
    fn new_value(&self, rng: &mut TestRng) -> TelemetryEvent {
        let t = arb_f64(rng);
        let n = |rng: &mut TestRng| arb_i64(rng) as u32;
        let element = pick(rng, &[Element::Link, Element::Node]);
        match rng.usize_in(0, 6) {
            0 => TelemetryEvent::ControlRound {
                t,
                immediate: rng.unit() < 0.5,
                agents: n(rng),
                decided: n(rng),
                skipped_clean: n(rng),
                deferred_phased: n(rng),
                share_changes: n(rng),
                waterfill_iters: arb_big_u64(rng),
            },
            1 => TelemetryEvent::ArcLoads {
                t,
                max_util: arb_f64(rng),
                mean_util: arb_f64(rng),
                overloaded: n(rng),
            },
            2 => TelemetryEvent::PowerTransition {
                t,
                link: n(rng),
                kind: pick(
                    rng,
                    &[PowerKind::Sleep, PowerKind::WakeStart, PowerKind::WakeDone],
                ),
                idle_s: arb_f64(rng),
            },
            3 => TelemetryEvent::TeReconfig {
                t,
                threshold: arb_f64(rng),
                step: arb_f64(rng),
                min_share: arb_f64(rng),
            },
            4 => TelemetryEvent::Failure {
                t,
                element,
                id: n(rng),
                detected: rng.unit() < 0.5,
            },
            _ => TelemetryEvent::Repair {
                t,
                element,
                id: n(rng),
                detected: rng.unit() < 0.5,
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_trees_stream_like_the_reference_printer(v in ValueTrees) {
        check(&v).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn std_containers_stream_like_their_tree(x in StdMixes) {
        check(&x).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn every_event_variant_streams_like_its_tree(ev in Events) {
        check(&ev).map_err(TestCaseError::fail)?;
    }
}

// ---- derived types on real data ------------------------------------------

#[test]
fn one_scenario_per_engine_streams_like_its_tree() {
    let mut engines = std::collections::BTreeSet::new();
    for (id, scenario) in ecp_bench::scenarios::campaign_registry() {
        if let Err(e) = check(&scenario) {
            panic!("{id}: {e}");
        }
        engines.insert(match scenario.engine {
            EngineSpec::Simnet => "simnet",
            EngineSpec::Replay(_) => "replay",
            EngineSpec::Packet(_) => "packet",
            EngineSpec::App(_) => "app",
        });
    }
    assert_eq!(engines.len(), 4, "{engines:?}");
}

/// A fig7 run with per-path samples and a telemetry snapshot, its trace
/// and profile, and the stored run a campaign writes for it.
#[test]
fn reports_traces_and_stored_runs_stream_like_their_tree() {
    let mut scenario = ecp_bench::scenarios::fig7(8.0);
    scenario.metrics.telemetry = true;
    let resolved = ecp_scenario::resolve(&scenario).unwrap();
    let (report, trace) = ecp_scenario::run_resolved_traced(&scenario, &resolved).unwrap();
    assert!(report.per_path_samples.is_some() && report.telemetry.is_some());
    check(&report).unwrap();
    let snapshot: TelemetrySnapshot = trace.snapshot.clone().unwrap();
    check(&snapshot).unwrap();

    // Every trace line is its event's tree, printed.
    assert!(!trace.lines.is_empty());
    for line in &trace.lines {
        let ev: TelemetryEvent = serde_json::from_str(line).unwrap();
        assert_eq!(*line, via_tree(&ev, false));
    }

    let mut sink = SpanSink::with_clock(FakeClock::new(1e-6));
    let resolved = ecp_scenario::resolve_with_sink(&scenario, &mut sink).unwrap();
    let (_, _, mut sink) =
        ecp_scenario::run_resolved_with_sink(&scenario, &resolved, sink).unwrap();
    check(&sink.timing()).unwrap();

    let hash = ecp_campaign::run_hash(&scenario);
    let stored = ecp_campaign::StoredRun {
        code_salt: ecp_campaign::CODE_SALT.to_string(),
        hash: hash.clone(),
        name: scenario.name.clone(),
        seed: scenario.seed,
        params: vec![("load".into(), 0.7), ("seed".into(), 1.0)],
        report: Some(report),
        failure: None,
        telemetry: Some(snapshot),
    };
    check(&stored).unwrap();
    let failed = ecp_campaign::StoredRun {
        report: None,
        failure: Some(ecp_campaign::RunFailure {
            kind: "invalid".into(),
            message: "bad \"field\"\n".into(),
        }),
        telemetry: None,
        ..stored
    };
    check(&failed).unwrap();
}
