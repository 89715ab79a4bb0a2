//! The streaming JSON reader against its oracle, the tree path: for
//! every text `s` and target `T`, `serde_json::from_str::<T>(s)` gives
//! what `from_value::<T>(from_str::<Value>(s)?)` gives, or both fail.
//!
//! The texts are documents of the store's and the streams' types
//! (`StoredRun`, `TelemetryEvent`, `ProgressEvent`, `TimeseriesPoint`,
//! `RunTiming`), then mutated: members dropped, duplicated or
//! reordered, unknown members with nested (valid or broken) content
//! added, integer text put for floats and float text for integers,
//! `null` or another kind of value put in place of a value, extra
//! whitespace, and truncation.

use ecp_campaign::store::RunTiming;
use ecp_campaign::{run_hash, ProgressEvent, RunFailure, StoredRun, CODE_SALT};
use ecp_scenario::{
    resolve, run_resolved_traced, MatrixSpec, MetricsSpec, PairsSpec, ScaleSpec, Scenario,
    ScenarioBuilder, TimeseriesPoint,
};
use ecp_simnet::{Element, PowerKind, TelemetryEvent};
use ecp_topo::gen::TopoSpec;
use ecp_traffic::{Program, Shape};
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::Value;
use std::sync::OnceLock;

/// A JSON document with its object members in order, so members can be
/// duplicated and reordered, and its scalars as text.
#[derive(Debug, Clone)]
enum Doc {
    Atom(String),
    Array(Vec<Doc>),
    Object(Vec<(String, Doc)>),
}

fn doc(v: &Value) -> Doc {
    match v {
        Value::Array(items) => Doc::Array(items.iter().map(doc).collect()),
        Value::Object(m) => Doc::Object(m.iter().map(|(k, v)| (k.clone(), doc(v))).collect()),
        scalar => Doc::Atom(serde_json::to_string(scalar).unwrap()),
    }
}

fn count(d: &Doc) -> usize {
    1 + match d {
        Doc::Atom(_) => 0,
        Doc::Array(items) => items.iter().map(count).sum(),
        Doc::Object(members) => members.iter().map(|(_, v)| count(v)).sum(),
    }
}

/// The `n`-th node in preorder.
fn nth(d: &mut Doc, n: usize) -> &mut Doc {
    fn go<'a>(d: &'a mut Doc, n: &mut usize) -> Option<&'a mut Doc> {
        if *n == 0 {
            return Some(d);
        }
        *n -= 1;
        match d {
            Doc::Atom(_) => None,
            Doc::Array(items) => items.iter_mut().find_map(|it| go(it, n)),
            Doc::Object(members) => members.iter_mut().find_map(|(_, v)| go(v, n)),
        }
    }
    let mut n = n;
    go(d, &mut n).expect("n is below the node count")
}

/// Unknown members' contents: valid ones the readers must skip, broken
/// ones both must refuse.
const EXTRAS: &[&str] = &[
    r#"{"a": [1, 2.5, {"b": null, "c": [[], {}]}], "s": "xé\n\"q\""}"#,
    r#"[[[["deep"]]], -0.0, 1e300, 18446744073709551616]"#,
    r#""😀 \ud83d""#,
    "1e",
    "1.2.3",
    "[1,]",
    r#"{"k" 1}"#,
    "tru",
    r#""\q""#,
    r#"{"k": [1, 2}"#,
];

const WHITESPACE: &[&str] = &["", "", "", " ", "\n  ", "\t", "\r\n"];

/// Print `d`, with a random run of whitespace between tokens when
/// `spaced`.
fn print(d: &Doc, spaced: bool, rng: &mut TestRng, out: &mut String) {
    let ws = |rng: &mut TestRng, out: &mut String| {
        if spaced {
            out.push_str(WHITESPACE[rng.usize_in(0, WHITESPACE.len())]);
        }
    };
    match d {
        Doc::Atom(s) => out.push_str(s),
        Doc::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                print(item, spaced, rng, out);
                ws(rng, out);
            }
            out.push(']');
        }
        Doc::Object(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&serde_json::to_string(k).unwrap());
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                print(v, spaced, rng, out);
                ws(rng, out);
            }
            out.push('}');
        }
    }
}

/// A value of another kind, for a member or element.
fn replacement(rng: &mut TestRng) -> Doc {
    match rng.usize_in(0, 6) {
        0 => Doc::Atom("null".into()),
        1 => Doc::Atom("\"text\"".into()),
        2 => Doc::Atom("true".into()),
        3 => Doc::Array(vec![]),
        4 => Doc::Object(vec![]),
        _ => Doc::Atom("-7".into()),
    }
}

/// Apply one mutation at a random node; a mutation that does not fit
/// the node it lands on changes nothing.
fn mutate(d: &mut Doc, rng: &mut TestRng) {
    let at = rng.usize_in(0, count(d));
    let node = nth(d, at);
    let pick = |rng: &mut TestRng, n: usize| rng.usize_in(0, n.max(1));
    match (rng.usize_in(0, 8), node) {
        // Drop a member.
        (0, Doc::Object(members)) if !members.is_empty() => {
            let i = pick(rng, members.len());
            members.remove(i);
        }
        // Duplicate a member, its copy holding the same value or
        // another, before or after it.
        (1, Doc::Object(members)) if !members.is_empty() => {
            let i = pick(rng, members.len());
            let mut copy = members[i].clone();
            if rng.unit() < 0.5 {
                copy.1 = replacement(rng);
            }
            let j = pick(rng, members.len() + 1);
            members.insert(j, copy);
        }
        // Reorder the members.
        (2, Doc::Object(members)) => {
            let k = pick(rng, members.len());
            members.rotate_left(k);
            if rng.unit() < 0.5 {
                members.reverse();
            }
        }
        // An unknown member with nested, maybe broken, content.
        (3, Doc::Object(members)) => {
            let extra = EXTRAS[pick(rng, EXTRAS.len())];
            let j = pick(rng, members.len() + 1);
            members.insert(j, ("zz_unknown".into(), Doc::Atom(extra.into())));
        }
        // Integer text for a float, float text for an integer.
        (4, Doc::Atom(text)) => {
            if let Some(int) = text.strip_suffix(".0") {
                *text = int.to_string();
            } else if text.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
                text.push_str(".0");
            }
        }
        // `null` in place of a value.
        (5, node) => *node = Doc::Atom("null".into()),
        // Another kind of value in its place.
        (6, node) => *node = replacement(rng),
        // An element dropped or repeated.
        (7, Doc::Array(items)) if !items.is_empty() => {
            let i = pick(rng, items.len());
            if rng.unit() < 0.5 {
                items.remove(i);
            } else {
                items.insert(i, items[i].clone());
            }
        }
        _ => {}
    }
}

/// One mutated text of `value`'s document.
fn mutated<T: serde::Serialize>(value: &T, rng: &mut TestRng) -> String {
    let mut d = doc(&serde_json::to_value(value).unwrap());
    for _ in 0..rng.usize_in(0, 4) {
        mutate(&mut d, rng);
    }
    let mut text = String::new();
    print(&d, rng.unit() < 0.3, rng, &mut text);
    if rng.unit() < 0.15 && !text.is_empty() {
        // Truncated, on a character boundary.
        let mut cut = rng.usize_in(0, text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    }
    text
}

/// The two paths agree on `text`: the same value, or both fail.
fn agree<T>(text: &str) -> Result<(), TestCaseError>
where
    T: for<'de> serde::Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let typed = serde_json::from_str::<T>(text).ok();
    let tree = serde_json::from_str::<Value>(text)
        .and_then(serde_json::from_value::<T>)
        .ok();
    prop_assert!(
        typed == tree,
        "paths disagree on {text}: {typed:?} vs {tree:?}"
    );
    Ok(())
}

/// A few floats of each kind the writer and reader see: integral ones
/// (written with `.0`), fractions, large and tiny magnitudes.
fn float(rng: &mut TestRng) -> f64 {
    match rng.usize_in(0, 5) {
        0 => rng.usize_in(0, 1000) as f64,
        1 => rng.unit(),
        2 => rng.unit() * 1e10,
        3 => -rng.unit() * 1e-7,
        _ => (rng.usize_in(0, 1 << 20) as f64) * 1e15,
    }
}

fn name(rng: &mut TestRng) -> String {
    [
        "plain",
        "with \"quotes\"",
        "tab\there",
        "é ünïcödé",
        "line\nbreak",
        "",
    ][rng.usize_in(0, 6)]
    .to_string()
}

fn telemetry_event(rng: &mut TestRng) -> TelemetryEvent {
    let t = float(rng);
    let n = rng.usize_in(0, 1 << 16) as u32;
    let element = if rng.unit() < 0.5 {
        Element::Link
    } else {
        Element::Node
    };
    match rng.usize_in(0, 6) {
        0 => TelemetryEvent::ControlRound {
            t,
            immediate: rng.unit() < 0.5,
            agents: n,
            decided: n / 2,
            skipped_clean: n / 3,
            deferred_phased: 0,
            share_changes: n / 4,
            waterfill_iters: rng.usize_in(0, 1 << 30) as u64,
        },
        1 => TelemetryEvent::ArcLoads {
            t,
            max_util: float(rng),
            mean_util: float(rng),
            overloaded: n,
        },
        2 => TelemetryEvent::PowerTransition {
            t,
            link: n,
            kind: [PowerKind::Sleep, PowerKind::WakeStart, PowerKind::WakeDone][n as usize % 3],
            idle_s: float(rng),
        },
        3 => TelemetryEvent::TeReconfig {
            t,
            threshold: float(rng),
            step: float(rng),
            min_share: float(rng),
        },
        4 => TelemetryEvent::Failure {
            t,
            element,
            id: n,
            detected: rng.unit() < 0.5,
        },
        _ => TelemetryEvent::Repair {
            t,
            element,
            id: n,
            detected: rng.unit() < 0.5,
        },
    }
}

fn phases(rng: &mut TestRng) -> Vec<(String, f64)> {
    (0..rng.usize_in(0, 4))
        .map(|_| (name(rng), float(rng)))
        .collect()
}

fn maybe(rng: &mut TestRng) -> Option<f64> {
    (rng.unit() < 0.7).then(|| float(rng))
}

fn progress_event(rng: &mut TestRng) -> ProgressEvent {
    if rng.unit() < 0.3 {
        ProgressEvent::RunStarted {
            shard: rng.usize_in(0, 8) as u64,
            hash: "0123456789abcdef".into(),
            entry: name(rng),
            name: name(rng),
        }
    } else {
        ProgressEvent::RunFinished {
            shard: rng.usize_in(0, 8) as u64,
            hash: "0123456789abcdef".into(),
            entry: name(rng),
            name: name(rng),
            cached: rng.unit() < 0.5,
            failed: rng.unit() < 0.2,
            mean_power_frac: maybe(rng),
            mean_delivered_fraction: maybe(rng),
            wall_s: maybe(rng),
            phases: phases(rng),
            settle_time_s: maybe(rng),
            shortfall_fraction: maybe(rng),
        }
    }
}

fn timeseries_point(rng: &mut TestRng) -> TimeseriesPoint {
    TimeseriesPoint {
        t: float(rng),
        delivered_fraction: float(rng),
        power_frac: float(rng),
        max_util: float(rng),
        overloaded_arcs: rng.usize_in(0, 100) as u32,
        reconfig_count: rng.usize_in(0, 1 << 20) as u64,
    }
}

/// A small simnet scenario whose report carries every block a stored
/// run can: per-path rates (a `Series`), stability, table metrics and
/// the telemetry snapshot.
fn small_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(format!("json-read-{seed}"))
        .seed(seed)
        .duration_s(3.0)
        .topology(TopoSpec::small_waxman(9, seed))
        .pairs(PairsSpec::Random { count: 4 })
        .traffic(
            MatrixSpec::Gravity,
            ScaleSpec::MaxFeasibleFraction { fraction: 0.8 },
            Program::from_shape(
                3.0,
                0.5,
                Shape::Steps {
                    levels: vec![0.4, 1.0, 0.7],
                    step_s: 1.0,
                },
            ),
        )
        .metrics(MetricsSpec {
            per_path_rates: true,
            table_stats: true,
            failover_coverage: true,
            stability: true,
            telemetry: true,
            ..Default::default()
        })
        .build()
}

/// Stored runs as the executor writes them: two reports and a failure.
fn stored_runs() -> &'static [StoredRun] {
    static RUNS: OnceLock<Vec<StoredRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs: Vec<StoredRun> = [3, 4]
            .into_iter()
            .map(|seed| {
                let scenario = small_scenario(seed);
                let resolved = resolve(&scenario).unwrap();
                let (report, trace) = run_resolved_traced(&scenario, &resolved).unwrap();
                assert!(report.per_path_samples.is_some());
                StoredRun {
                    code_salt: CODE_SALT.into(),
                    hash: run_hash(&scenario),
                    name: scenario.name.clone(),
                    seed,
                    params: vec![("seed".into(), seed as f64), ("load".into(), 0.5)],
                    report: Some(report),
                    failure: None,
                    telemetry: trace.snapshot,
                }
            })
            .collect();
        runs.push(StoredRun {
            code_salt: CODE_SALT.into(),
            hash: "00ff00ff00ff00ff".into(),
            name: "failed \"run\"".into(),
            seed: 9,
            params: vec![],
            report: None,
            failure: Some(RunFailure {
                kind: "invalid".into(),
                message: "sim te_step must be finite".into(),
            }),
            telemetry: None,
        });
        runs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn small_types_read_alike_on_both_paths(pick in 0usize..4, seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_name(&seed.to_string());
        match pick {
            0 => agree::<TelemetryEvent>(&mutated(&telemetry_event(&mut rng), &mut rng))?,
            1 => agree::<ProgressEvent>(&mutated(&progress_event(&mut rng), &mut rng))?,
            2 => agree::<TimeseriesPoint>(&mutated(&timeseries_point(&mut rng), &mut rng))?,
            _ => {
                let timing = RunTiming { wall_s: float(&mut rng), phases: phases(&mut rng) };
                agree::<RunTiming>(&mutated(&timing, &mut rng))?
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn stored_runs_read_alike_on_both_paths(pick in 0usize..3, seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_name(&seed.to_string());
        let run = &stored_runs()[pick];
        agree::<StoredRun>(&mutated(run, &mut rng))?;
    }
}

#[test]
fn intact_documents_read_back_equal() {
    for run in stored_runs() {
        for text in [
            serde_json::to_string(run).unwrap(),
            serde_json::to_string_pretty(run).unwrap(),
        ] {
            let typed: StoredRun = serde_json::from_str(&text).unwrap();
            assert_eq!(&typed, run);
            agree::<StoredRun>(&text).unwrap();
        }
    }
}
