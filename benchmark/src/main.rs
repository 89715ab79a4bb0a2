//! The benchmark of the REsPoNse reproduction: four closed-loop
//! workloads driven through the program's public functions, end-to-end
//! metrics measured with tracing off, and per-layer metrics from a
//! traced run. See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload te-family --seed 1 --seconds 25 --trace 0 [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare BASE.json... -- NEW.json...
//! ```
//!
//! A run prints every metric as `name value unit`, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It writes the full record (samples, output hashes,
//! failures) to `--out` (default `target/benchmark/run.json`) and, when
//! traced, its spans to `spans.jsonl` beside it. It exits 1 when an
//! operation failed or an output hash did not match.

mod probe;
mod stats;
mod trace;
mod workloads;

use probe::{probe, Probe, COUNTERS};
use serde_json::{Map, Value};
use stats::{median, minimum, regressed, tail, Better};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{self_times_ns, Span, Tracer};
use workloads::{setup, Bench, Shape, StoreStats, Workload};

/// The benchmark's declaration: workloads, metrics, units, bounds.
const DECLARED: &str = include_str!("../../BENCHMARK.json");
/// Output hashes of every workload at the pinned seed.
const EXPECTED: &str = include_str!("../expected.json");

const USAGE: &str =
    "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n       \
                     benchmark compare BASE.json... -- NEW.json...";

/// Failures recorded in full; later ones are only counted.
const MAX_FAILURE_MESSAGES: usize = 20;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().is_some_and(|a| a == "compare") {
        match compare(&args[1..]) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("benchmark compare: {e}\n{USAGE}");
                2
            }
        }
    } else {
        match measure(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let known = ["--workload", "--seed", "--seconds", "--trace", "--out"];
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`\n{USAGE}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let get = |flag: &str| {
            flags
                .get(flag)
                .copied()
                .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
        };
        let workload = get("--workload")?;
        let workload = Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let seed = get("--seed")?;
        let seed = seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?;
        let seconds = get("--seconds")?;
        let seconds = seconds
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| format!("bad --seconds `{seconds}`"))?;
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0 or 1)")),
        };
        let out = flags
            .get("--out")
            .copied()
            .unwrap_or("target/benchmark/run.json");
        Ok(Options {
            workload,
            seed,
            seconds,
            trace,
            out: PathBuf::from(out),
        })
    }
}

fn measure(args: &[String]) -> Result<i32, String> {
    let opts = Options::parse(args)?;
    let work_dir = match opts.out.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let mut outcome = run(
        opts.workload,
        &Shape::FULL,
        opts.seed,
        opts.seconds,
        opts.trace,
        &work_dir,
    )?;
    check_pins(opts.workload, opts.seed, &mut outcome)?;

    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    let record = run_record(&opts, &outcome);
    std::fs::write(&opts.out, record + "\n")
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    if opts.trace {
        let path = work_dir.join("spans.jsonl");
        trace::write_jsonl(&outcome.spans, &path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let line = serde_json::to_string(&result(&outcome)).expect("result serializes");
    println!("{line}");
    Ok(if outcome.correct() { 0 } else { 1 })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Output hashes of the first operation, by label.
    hashes: BTreeMap<String, String>,
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    spans: Vec<Span>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Share of the timed loop spent repeating the workload's set-up.
const SETUP_SHARE: f64 = 0.1;

/// The timed loop of one workload and what it has seen so far.
struct Loop<'a> {
    set_up: &'a dyn Fn() -> Result<Box<dyn Bench>, String>,
    bench: Box<dyn Bench>,
    tr: Tracer,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    hashes: Option<BTreeMap<String, String>>,
    store: Option<StoreStats>,
    setup_s: Vec<f64>,
}

impl Loop<'_> {
    /// Run operations back to back until `seconds` have passed (at least
    /// one). Returns the wall time of each successful one, in ms. Every
    /// operation's outputs must hash the same as the first operation's.
    ///
    /// Between operations the workload is set up again, discarding the
    /// result, for [`SETUP_SHARE`] of the time: the host's speed drifts
    /// over seconds, and set-up samples spread over the whole run see the
    /// same drift as the operations do.
    fn run_for(&mut self, seconds: f64) -> Vec<f64> {
        let start = Instant::now();
        let mut setup_busy = 0.0;
        let mut ms = Vec::new();
        loop {
            self.attempted += 1;
            self.tr.set_op(self.attempted);
            let bench = &mut self.bench;
            let t = Instant::now();
            let outputs = self.tr.span("op", |tr| bench.op(tr));
            let elapsed = t.elapsed();
            match outputs.and_then(|outs| self.digest(outs)) {
                Ok(()) => ms.push(elapsed.as_secs_f64() * 1e3),
                Err(e) => self.fail(format!("operation {}: {e}", self.attempted)),
            }
            while setup_busy < SETUP_SHARE * start.elapsed().as_secs_f64() {
                let t = Instant::now();
                if let Err(e) = (self.set_up)() {
                    self.fail(format!("set-up after operation {}: {e}", self.attempted));
                    break;
                }
                let dt = t.elapsed().as_secs_f64();
                setup_busy += dt;
                self.setup_s.push(dt);
            }
            if start.elapsed() >= Duration::from_secs_f64(seconds) {
                return ms;
            }
        }
    }

    fn digest(&mut self, outputs: Vec<(String, workloads::Output)>) -> Result<(), String> {
        let mut hashes = BTreeMap::new();
        for (label, output) in outputs {
            let (hash, store) = output.digest()?;
            self.store = store.or(self.store);
            hashes.insert(label, hash);
        }
        match &self.hashes {
            None => self.hashes = Some(hashes),
            Some(first) if *first != hashes => {
                let changed: Vec<&String> = hashes
                    .iter()
                    .filter(|(l, h)| first.get(*l) != Some(*h))
                    .map(|(l, _)| l)
                    .collect();
                return Err(format!(
                    "outputs differ from the first operation's: {changed:?}"
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }
}

/// Set `workload` up from `seed` and measure it for `seconds`: with
/// tracing off, the end-to-end metrics; with tracing on, the per-layer
/// metrics, from an untraced half, a traced half and a probe pass.
fn run(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
) -> Result<Outcome, String> {
    let set_up = || setup(workload, shape, seed, work_dir);
    let t = Instant::now();
    let bench = set_up()?;
    let mut lp = Loop {
        set_up: &set_up,
        bench,
        tr: Tracer::new(false),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        hashes: None,
        store: None,
        setup_s: vec![t.elapsed().as_secs_f64()],
    };

    let (metrics, op_ms) = if !traced {
        // Every operation repeats the same deterministic work, so the
        // spread of its wall time is the host's interference. The fastest
        // operation and set-up estimate the cost without it; medians
        // follow the host's slow stretches, which last minutes.
        let op_ms = lp.run_for(seconds);
        let metrics = vec![
            metric("op_min_ms", minimum(&op_ms), "ms"),
            metric("setup_s", minimum(&lp.setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mib()?, "MiB"),
        ];
        (metrics, op_ms)
    } else {
        let untraced = lp.run_for(seconds / 2.0);
        lp.tr.set_enabled(true);
        let traced = lp.run_for(seconds / 2.0);
        lp.tr.set_op(0);
        let items = lp.bench.probe_set();
        let first = lp.hashes.clone().unwrap_or_default();
        let found = lp
            .tr
            .span("probe", |tr| probe(&items, tr, &first, &mut lp.failures))?;
        let layers = Layers {
            spans: lp.tr.spans(),
            probe: &found,
            untraced_ms: &untraced,
            traced_ms: &traced,
            store: lp.store,
            ops: lp.attempted,
        };
        let metrics = layers.metrics();
        (metrics, [untraced, traced].concat())
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        failures: lp.failures,
        metrics,
        hashes: lp.hashes.unwrap_or_default(),
        setup_s: lp.setup_s,
        op_ms,
        spans: lp.tr.spans().to_vec(),
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The inputs of the per-layer metrics of a traced run.
struct Layers<'a> {
    spans: &'a [Span],
    probe: &'a Probe,
    untraced_ms: &'a [f64],
    traced_ms: &'a [f64],
    store: Option<StoreStats>,
    ops: u64,
}

impl Layers<'_> {
    /// Span-derived times are self times: `op.*` per traced operation,
    /// the others summed over the probe pass (spans tagged operation 0).
    fn metrics(&self) -> Vec<Metric> {
        let ms = |ns: u64| ns as f64 / 1e6;
        let selfs = self_times_ns(self.spans);
        let (mut in_ops, mut in_probe) = (BTreeMap::new(), BTreeMap::new());
        let (mut longest_run, mut plan_max) = (0, 0);
        for (s, &self_ns) in self.spans.iter().zip(&selfs) {
            let by_name: &mut BTreeMap<&str, u64> = if s.op == 0 {
                let dur = s.end_ns - s.start_ns;
                if s.name.ends_with(".run_resolved") {
                    longest_run = longest_run.max(dur);
                }
                if s.name == "core.plan" {
                    plan_max = plan_max.max(dur);
                }
                &mut in_probe
            } else {
                &mut in_ops
            };
            *by_name.entry(s.name).or_default() += self_ns;
        }
        let traced_ops = self.spans.iter().filter(|s| s.name == "op").count().max(1) as f64;
        let per_op = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|n| ms(in_ops.get(n).copied().unwrap_or(0)))
                .sum::<f64>()
                / traced_ops
        };
        let probe_ms = |name: &str| ms(in_probe.get(name).copied().unwrap_or(0));
        let runs = [
            "simnet.run_resolved",
            "replay.run_resolved",
            "packet.run_resolved",
            "app.run_resolved",
        ];
        let counter = |name: &str| self.probe.counters.get(name).copied().unwrap_or(0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        // How much slower `with` ran than `without`; 0 when neither ran.
        let overhead = |with: f64, without: f64| {
            if without > 0.0 {
                with / without - 1.0
            } else {
                0.0
            }
        };

        let simnet_ms = probe_ms("simnet.run_resolved");
        let serial_ms: f64 = runs.iter().map(|n| probe_ms(n)).sum();
        let store = self.store.unwrap_or_default();
        let execute_ms = per_op(&["campaign.execute"]);
        let all_ms = [self.untraced_ms, self.traced_ms].concat();
        let (tail_pct, tail_ms) = tail(&all_ms).unwrap_or((0.0, 0.0));
        let mut out = vec![
            metric("op.resolve_ms", per_op(&["scenario.resolve"]), "ms"),
            metric(
                "op.oracle_ms",
                per_op(&["routing.max_feasible_volume"]),
                "ms",
            ),
            metric("op.run_ms", per_op(&runs), "ms"),
            metric("op.execute_ms", execute_ms, "ms"),
            metric("op.report_ms", per_op(&["campaign.report"]), "ms"),
            metric("op.bench_ms", per_op(&["op"]), "ms"),
            metric("topo.build_ms", probe_ms("topo.build"), "ms"),
            metric("scenario.resolve_ms", probe_ms("scenario.resolve"), "ms"),
            metric("core.plan_ms", probe_ms("core.plan"), "ms"),
            metric("core.plan_max_ms", ms(plan_max), "ms"),
            metric(
                "routing.oracle_ms",
                probe_ms("routing.max_feasible_volume"),
                "ms",
            ),
            metric("simnet.run_ms", simnet_ms, "ms"),
            metric("replay.run_ms", probe_ms("replay.run_resolved"), "ms"),
            metric("packet.run_ms", probe_ms("packet.run_resolved"), "ms"),
            metric("app.run_ms", probe_ms("app.run_resolved"), "ms"),
            metric("run.longest_ms", ms(longest_run), "ms"),
            metric(
                "simnet.ns_per_event",
                ratio(simnet_ms * 1e6, counter("events_processed") as f64),
                "ns",
            ),
        ];
        for (counter_name, metric_name) in COUNTERS {
            out.push(metric(metric_name, counter(counter_name) as f64, "count"));
        }
        out.extend([
            metric(
                "control.useful_frac",
                ratio(
                    counter("share_changes") as f64,
                    counter("agent_decisions") as f64,
                ),
                "frac",
            ),
            metric(
                "telemetry.trace_lines",
                self.probe.trace_lines as f64,
                "count",
            ),
            metric(
                "telemetry.jsonl_overhead_frac",
                overhead(probe_ms("telemetry.run_resolved_traced"), simnet_ms),
                "frac",
            ),
            metric(
                "telemetry.span_overhead_frac",
                overhead(probe_ms("telemetry.run_resolved_profiled"), simnet_ms),
                "frac",
            ),
            metric("campaign.executed", store.executed as f64, "count"),
            metric("campaign.store_files", store.files as f64, "count"),
            metric("campaign.store_bytes", store.bytes as f64, "bytes"),
            metric("campaign.run_frac", ratio(serial_ms, execute_ms), "frac"),
            metric("bench.ops", self.ops as f64, "ops"),
            metric(
                "bench.trace_overhead_frac",
                overhead(median(self.traced_ms), median(self.untraced_ms)),
                "frac",
            ),
            metric("bench.op_median_ms", median(&all_ms), "ms"),
            metric("bench.op_tail_ms", tail_ms, "ms"),
            metric("bench.op_tail_pct", tail_pct, "pct"),
        ]);
        out
    }
}

/// At the pinned seed, every output hash must equal `expected.json`'s.
/// Every operation hashed like the first, so on a mismatch every one of
/// them produced a wrong output and counts as failed.
fn check_pins(workload: Workload, seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let expected: Value =
        serde_json::from_str(EXPECTED).map_err(|e| format!("parse expected.json: {e}"))?;
    if field(&expected, "seed")?.as_u64() != Some(seed) {
        return Ok(());
    }
    let pinned = match field(&expected, workload.name()) {
        Ok(Value::Object(pinned)) => pinned.clone(),
        Ok(_) => {
            return Err(format!(
                "expected.json: `{}` is not an object",
                workload.name()
            ))
        }
        Err(_) => Map::new(),
    };
    let labels: BTreeSet<&String> = pinned.keys().chain(outcome.hashes.keys()).collect();
    for label in labels {
        let want = pinned.get(label).and_then(Value::as_str);
        let got = outcome.hashes.get(label).map(String::as_str);
        if want != got {
            outcome.failed = outcome.attempted;
            outcome.failures.push(format!(
                "{label}: output hash {} does not match the pinned {}",
                got.unwrap_or("(none)"),
                want.unwrap_or("(none)")
            ));
        }
    }
    Ok(())
}

/// The driver-facing result, printed as the last line of standard output.
fn result(outcome: &Outcome) -> Value {
    let mut metrics = Map::new();
    for m in &outcome.metrics {
        let mut entry = Map::new();
        entry.insert("value".into(), Value::F64(m.value));
        entry.insert("unit".into(), Value::Str(m.unit.into()));
        metrics.insert(m.name.clone(), Value::Object(entry));
    }
    let mut top = Map::new();
    top.insert("correct".into(), Value::Bool(outcome.correct()));
    top.insert("attempted".into(), Value::U64(outcome.attempted));
    top.insert("failed".into(), Value::U64(outcome.failed));
    top.insert("metrics".into(), Value::Object(metrics));
    Value::Object(top)
}

/// The full record of a run, for `--out`.
fn run_record(opts: &Options, outcome: &Outcome) -> String {
    let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::F64(x)).collect());
    let strings = |xs: &[String]| Value::Array(xs.iter().map(|s| Value::Str(s.clone())).collect());
    let mut top = Map::new();
    top.insert("workload".into(), Value::Str(opts.workload.name().into()));
    top.insert("seed".into(), Value::U64(opts.seed));
    top.insert("seconds".into(), Value::F64(opts.seconds));
    top.insert("trace".into(), Value::Bool(opts.trace));
    top.insert("result".into(), result(outcome));
    top.insert("failures".into(), strings(&outcome.failures));
    let hashes = outcome.hashes.iter();
    let hashes = hashes.map(|(l, h)| (l.clone(), Value::Str(h.clone())));
    top.insert("hashes".into(), Value::Object(hashes.collect()));
    top.insert("setup_s".into(), floats(&outcome.setup_s));
    top.insert("op_ms".into(), floats(&outcome.op_ms));
    serde_json::to_string_pretty(&Value::Object(top)).expect("record serializes")
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(m) => m.get(key).ok_or_else(|| format!("missing `{key}`")),
        _ => Err(format!("expected an object holding `{key}`")),
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct EndToEnd {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

struct Declared {
    workloads: Vec<String>,
    end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics: name and unit.
    per_layer: Vec<(String, String)>,
}

fn declared() -> Result<Declared, String> {
    let doc: Value =
        serde_json::from_str(DECLARED).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let workloads = array_field(&doc, "workloads")?
        .iter()
        .map(|w| str_field(w, "name").map(str::to_string))
        .collect::<Result<_, _>>()?;
    let end_to_end = array_field(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            let better = str_field(m, "better")?;
            Ok(EndToEnd {
                name: str_field(m, "name")?.to_string(),
                unit: str_field(m, "unit")?.to_string(),
                better: Better::parse(better).ok_or_else(|| format!("bad `better` {better}"))?,
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or("`bound` is not a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = array_field(&doc, "per_layer")?
        .iter()
        .map(|m| {
            Ok((
                str_field(m, "name")?.to_string(),
                str_field(m, "unit")?.to_string(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Declared {
        workloads,
        end_to_end,
        per_layer,
    })
}

/// One `--out` record, as `compare` reads it.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let Value::Object(metrics) = field(field(&doc, "result")?, "metrics")? else {
        return Err(format!("{path}: `metrics` is not an object"));
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), field(m, "value").ok()?.as_f64()?)))
        .collect();
    Ok(Record {
        workload: str_field(&doc, "workload")?.to_string(),
        seed: field(&doc, "seed")?
            .as_u64()
            .ok_or("`seed` is not a number")?,
        trace: field(&doc, "trace")?
            .as_bool()
            .ok_or("`trace` is not a bool")?,
        metrics,
    })
}

/// `compare BASE... -- NEW...`: per workload, is any end-to-end median of
/// the new runs worse than the base runs' by more than its declared
/// bound? And does every count of a traced run repeat exactly across all
/// runs of the same workload and seed? Returns whether both hold.
fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("separate the base and new records with `--`")?;
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| read_record(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (base, new) = (load(&args[..split])?, load(&args[split + 1..])?);
    let declared = declared()?;
    let values = |records: &[Record], workload: &str, name: &str| -> Vec<f64> {
        let matching = records
            .iter()
            .filter(|r| r.workload == workload && !r.trace);
        matching
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    };
    let mut ok = true;
    for workload in &declared.workloads {
        for m in &declared.end_to_end {
            let (a, b) = (
                values(&base, workload, &m.name),
                values(&new, workload, &m.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let bad = regressed(ma, mb, m.bound, m.better);
            ok &= !bad;
            println!(
                "{} {workload} {}: {ma:.6} -> {mb:.6} {} ({:+.1}%, bound {:.0}%, n={}/{})",
                if bad { "REGRESSED" } else { "ok" },
                m.name,
                m.unit,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                a.len(),
                b.len()
            );
        }
    }
    let mut counts: BTreeMap<(&str, u64, &str), Vec<f64>> = BTreeMap::new();
    for r in base.iter().chain(&new).filter(|r| r.trace) {
        let declared_counts = declared
            .per_layer
            .iter()
            .filter(|(_, unit)| unit == "count");
        for (name, _) in declared_counts {
            if let Some(&v) = r.metrics.get(name) {
                counts
                    .entry((&r.workload, r.seed, name))
                    .or_default()
                    .push(v);
            }
        }
    }
    for ((workload, seed, name), vs) in counts {
        if vs.iter().any(|&v| v != vs[0]) {
            ok = false;
            println!("MISMATCH {workload} seed {seed} {name}: {vs:?}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_metric_is_declared_and_every_declared_metric_is_emitted() {
        let declared = declared().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared.workloads, names);
        let unit_map = |pairs: Vec<(String, String)>| pairs.into_iter().collect::<BTreeMap<_, _>>();
        let end_to_end = unit_map(
            declared
                .end_to_end
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect(),
        );
        let per_layer = unit_map(declared.per_layer.clone());
        let dir = std::env::temp_dir().join(format!("ecp-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the test directory");
        for workload in Workload::ALL {
            for traced in [false, true] {
                let outcome = run(workload, &Shape::SMALL, 1, 0.0, traced, &dir)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert!(
                    outcome.correct(),
                    "{} (trace {traced}): {:?}",
                    workload.name(),
                    outcome.failures
                );
                let emitted = unit_map(
                    outcome
                        .metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.unit.to_string()))
                        .collect(),
                );
                assert_eq!(
                    emitted.len(),
                    outcome.metrics.len(),
                    "a metric is emitted twice"
                );
                let want = if traced { &per_layer } else { &end_to_end };
                assert_eq!(&emitted, want, "{} (trace {traced})", workload.name());
                assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
        std::fs::remove_dir_all(&dir).expect("remove the test directory");
    }

    #[test]
    fn options_need_every_driver_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Options::parse(&args(
            "--workload plan-scale --seed 3 --seconds 2.5 --trace 1",
        ))
        .expect("valid options");
        assert_eq!(ok.workload, Workload::PlanScale);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.5, true));
        assert!(Options::parse(&args("--workload plan-scale --seed 3 --seconds 2")).is_err());
        assert!(Options::parse(&args("--workload nope --seed 3 --seconds 2 --trace 0")).is_err());
        assert!(Options::parse(&args(
            "--workload plan-scale --seed 3 --seconds -1 --trace 0"
        ))
        .is_err());
    }
}
