//! Profiling spans: where does the wall-clock time go?
//!
//! The event/counter layer in the crate root records *what happened*;
//! this module records *where time went* without perturbing it:
//!
//! * [`Clock`] — the time source. [`MonoClock`] reads a monotonic wall
//!   clock; [`FakeClock`] advances a fixed tick per read so span trees
//!   are deterministic under test.
//! * [`SpanSink`] — a [`TelemetrySink`] that wraps a [`JsonlSink`] and
//!   additionally times `span_enter`/`span_exit` pairs. Spans are
//!   aggregates only: every event, counter and line goes to the inner
//!   sink untouched, so the lines and the [`TelemetrySnapshot`] equal an
//!   unprofiled traced run's, and a closed span only updates its
//!   per-name aggregate. Over a counting sink ([`SpanSink::counting`])
//!   nothing is formatted at all.
//! * [`TimingSnapshot`] — per-span count / total / self time plus
//!   p50/p95/p99 interpolated from fixed log-spaced duration buckets.
//!
//! Instrumentation sites guard with `if S::SPANS { ... }`, the same
//! static-dispatch discipline as `S::ENABLED`: for [`NoopSink`] and
//! [`JsonlSink`] (`SPANS = false`) every span call compiles out, so
//! golden trace hashes and the zero-alloc decision path are untouched
//! when profiling is off.
//!
//! [`NoopSink`]: crate::NoopSink

use crate::{
    Counter, Hist, HistState, JsonlSink, SpanName, TelemetryEvent, TelemetrySink, TelemetrySnapshot,
};
use serde::{Deserialize, Serialize};

/// A time source for [`SpanSink`]. `now_s` takes `&mut self` so fake
/// clocks can advance on read; implementations must be monotone
/// non-decreasing.
pub trait Clock {
    /// Seconds elapsed on this clock (origin is arbitrary — spans only
    /// use differences).
    fn now_s(&mut self) -> f64;
}

/// Monotonic wall clock (the default).
#[derive(Debug, Clone)]
pub struct MonoClock {
    origin: std::time::Instant,
}

impl Default for MonoClock {
    fn default() -> Self {
        MonoClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Clock for MonoClock {
    fn now_s(&mut self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Deterministic clock for tests: every read advances by a fixed tick,
/// so a given instrumentation path always produces the same span tree
/// (names, nesting, durations, self-times).
#[derive(Debug, Clone)]
pub struct FakeClock {
    now: f64,
    tick: f64,
}

impl FakeClock {
    /// Clock starting at 0 that advances `tick` seconds per read.
    pub fn new(tick: f64) -> Self {
        FakeClock { now: 0.0, tick }
    }
}

impl Clock for FakeClock {
    fn now_s(&mut self) -> f64 {
        let t = self.now;
        self.now += self.tick;
        t
    }
}

/// Bucket bounds for span durations (seconds), log-spaced from 100 ns
/// to 10 s: the histogram every [`SpanStat`] keeps.
const SPAN_DUR_BOUNDS: &[f64] = &[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Aggregated timing for one span name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTiming {
    /// Span name ([`SpanName::name`]).
    pub name: String,
    /// Times the span closed.
    pub count: u64,
    /// Total wall seconds the span was open.
    pub total_s: f64,
    /// Wall seconds not attributed to child spans.
    pub self_s: f64,
    /// Median span duration (interpolated; see
    /// [`HistogramSnapshot::quantile`](crate::HistogramSnapshot::quantile)).
    pub p50_s: f64,
    /// 95th-percentile span duration.
    pub p95_s: f64,
    /// 99th-percentile span duration.
    pub p99_s: f64,
    /// Full duration histogram (log-spaced buckets from 100 ns to 10 s).
    pub durations: crate::HistogramSnapshot,
}

/// Per-span wall-time profile of one run. Spans appear in
/// [`SpanName::ALL`] order; names that never closed are omitted.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimingSnapshot {
    /// Wall seconds from sink construction to the snapshot call.
    pub wall_s: f64,
    /// Per-span timings (zero-count spans omitted).
    pub spans: Vec<SpanTiming>,
}

impl TimingSnapshot {
    /// Look up one span's timing by name.
    pub fn span(&self, name: &str) -> Option<&SpanTiming> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The `k` spans with the most self time, largest first (ties
    /// break by `ALL` order, so the result is deterministic).
    pub fn top_phases(&self, k: usize) -> Vec<(String, f64)> {
        let mut ranked: Vec<(String, f64)> = self
            .spans
            .iter()
            .map(|s| (s.name.clone(), s.self_s))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(k);
        ranked
    }
}

/// One span name's running aggregate: count, total and self time, and
/// the [`SPAN_DUR_BOUNDS`] duration histogram. [`SpanSink`] keeps one
/// per span name.
#[derive(Debug, Clone)]
struct SpanStat {
    count: u64,
    total_s: f64,
    self_s: f64,
    durations: HistState,
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat {
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
            durations: HistState::with_bounds(SPAN_DUR_BOUNDS),
        }
    }
}

impl SpanStat {
    /// Record one closed span of `dur_s` seconds, `self_s` of them not
    /// spent in child spans.
    fn observe(&mut self, dur_s: f64, self_s: f64) {
        self.count += 1;
        self.total_s += dur_s;
        self.self_s += self_s;
        self.durations.observe(SPAN_DUR_BOUNDS, dur_s);
    }

    /// The aggregate so far, as the timing of the span `name`.
    fn timing(&self, name: &str) -> SpanTiming {
        let durations = self.durations.snapshot_named(name, SPAN_DUR_BOUNDS);
        SpanTiming {
            name: name.to_string(),
            count: self.count,
            total_s: self.total_s,
            self_s: self.self_s,
            p50_s: durations.p50(),
            p95_s: durations.p95(),
            p99_s: durations.p99(),
            durations,
        }
    }
}

#[derive(Debug, Clone)]
struct Frame {
    name: SpanName,
    start_s: f64,
    child_s: f64,
}

/// A recording sink with profiling spans: wraps a [`JsonlSink`] (all
/// events/counters/histograms/lines behave identically) and times
/// `span_enter`/`span_exit` pairs against a [`Clock`] into per-span
/// aggregates.
#[derive(Debug, Clone)]
pub struct SpanSink<C: Clock = MonoClock> {
    inner: JsonlSink,
    clock: C,
    origin_s: f64,
    stack: Vec<Frame>,
    stats: Vec<SpanStat>,
}

impl SpanSink<MonoClock> {
    /// Profiling sink on the monotonic wall clock.
    pub fn new() -> Self {
        SpanSink::with_clock(MonoClock::default())
    }

    /// Profiling sink on the monotonic wall clock over a counting
    /// [`JsonlSink`]: the same snapshot and timing as [`SpanSink::new`],
    /// and no line is formatted.
    pub fn counting() -> Self {
        SpanSink::wrapping(MonoClock::default(), JsonlSink::counting())
    }
}

impl Default for SpanSink<MonoClock> {
    fn default() -> Self {
        SpanSink::new()
    }
}

impl<C: Clock> SpanSink<C> {
    /// Profiling sink on an explicit clock (e.g. [`FakeClock`]).
    pub fn with_clock(clock: C) -> Self {
        SpanSink::wrapping(clock, JsonlSink::new())
    }

    fn wrapping(mut clock: C, inner: JsonlSink) -> Self {
        let origin_s = clock.now_s();
        SpanSink {
            inner,
            clock,
            origin_s,
            stack: Vec::new(),
            stats: vec![SpanStat::default(); SpanName::ALL.len()],
        }
    }

    /// Per-span timing profile so far. Reads the clock once for
    /// `wall_s`; open spans are not included until they close.
    pub fn timing(&mut self) -> TimingSnapshot {
        let wall_s = (self.clock.now_s() - self.origin_s).max(0.0);
        TimingSnapshot {
            wall_s,
            spans: SpanName::ALL
                .iter()
                .filter(|s| self.stats[s.index()].count > 0)
                .map(|&s| self.stats[s.index()].timing(s.name()))
                .collect(),
        }
    }
}

impl<C: Clock> TelemetrySink for SpanSink<C> {
    const ENABLED: bool = true;
    const SPANS: bool = true;

    fn emit(&mut self, ev: &TelemetryEvent) {
        self.inner.emit(ev);
    }

    fn add(&mut self, c: Counter, n: u64) {
        self.inner.add(c, n);
    }

    fn observe(&mut self, h: Hist, v: f64) {
        self.inner.observe(h, v);
    }

    fn span_enter(&mut self, name: SpanName) {
        let start_s = self.clock.now_s();
        self.stack.push(Frame {
            name,
            start_s,
            child_s: 0.0,
        });
    }

    fn span_exit(&mut self, name: SpanName) {
        let now = self.clock.now_s();
        let Some(frame) = self.stack.pop() else {
            debug_assert!(false, "span_exit({name:?}) without matching span_enter");
            return;
        };
        debug_assert_eq!(
            frame.name, name,
            "span_exit({name:?}) does not match the innermost open span"
        );
        let dur_s = (now - frame.start_s).max(0.0);
        let self_s = (dur_s - frame.child_s).max(0.0);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur_s;
        }
        self.stats[frame.name.index()].observe(dur_s, self_s);
    }

    fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.snapshot()
    }

    /// The inner sink's event lines (none over a counting sink).
    fn take_lines(&mut self) -> Vec<String> {
        self.inner.take_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_produces_deterministic_nested_spans() {
        // Each clock read advances 1 ms. Sequence:
        //   enter(ScenarioRun)   read -> 1ms (origin consumed 0ms)
        //   enter(RoundDecide)   read -> 2ms
        //   exit(RoundDecide)    read -> 3ms   dur = 1ms, self = 1ms
        //   exit(ScenarioRun)    read -> 4ms   dur = 3ms, self = 2ms
        let mut s = SpanSink::with_clock(FakeClock::new(1e-3));
        s.span_enter(SpanName::ScenarioRun);
        s.span_enter(SpanName::RoundDecide);
        s.span_exit(SpanName::RoundDecide);
        s.span_exit(SpanName::ScenarioRun);
        let timing = s.timing();
        let decide = timing.span("round_decide").unwrap();
        assert_eq!(decide.count, 1);
        assert!((decide.total_s - 1e-3).abs() < 1e-12);
        assert!((decide.self_s - 1e-3).abs() < 1e-12);
        let run = timing.span("scenario_run").unwrap();
        assert_eq!(run.count, 1);
        assert!((run.total_s - 3e-3).abs() < 1e-12);
        assert!((run.self_s - 2e-3).abs() < 1e-12);
        // timing() is the 6th clock read (origin consumed the 1st):
        // wall = 5ms - 0ms.
        assert!((timing.wall_s - 5e-3).abs() < 1e-12);
    }

    fn arc_loads(t: f64) -> TelemetryEvent {
        TelemetryEvent::ArcLoads {
            t,
            max_util: 0.5,
            mean_util: 0.2,
            overloaded: 1,
        }
    }

    #[test]
    fn span_sink_writes_a_plain_sinks_lines_and_snapshot() {
        let events = [
            arc_loads(2.0),
            TelemetryEvent::ControlRound {
                t: 2.0,
                immediate: false,
                agents: 3,
                decided: 2,
                skipped_clean: 1,
                deferred_phased: 0,
                share_changes: 1,
                waterfill_iters: 5,
            },
            arc_loads(3.0),
        ];
        let mut s = SpanSink::with_clock(FakeClock::new(1.0));
        let mut plain = JsonlSink::new();
        for ev in &events {
            s.span_enter(SpanName::EventDrain);
            s.span_enter(SpanName::RoundSnapshot);
            s.emit(ev);
            s.span_exit(SpanName::RoundSnapshot);
            s.add(Counter::ControlRounds, 1);
            s.span_exit(SpanName::EventDrain);
            plain.emit(ev);
            plain.add(Counter::ControlRounds, 1);
        }
        // Spans write nothing into the stream: the lines and the
        // snapshot are exactly a plain sink's over the same events.
        assert_eq!(s.snapshot(), plain.snapshot());
        assert_eq!(s.take_lines(), plain.take_lines());
        let timing = s.timing();
        assert_eq!(timing.span("event_drain").map(|t| t.count), Some(3));
        assert_eq!(timing.span("round_snapshot").map(|t| t.count), Some(3));
    }

    #[test]
    fn per_agent_spans_are_timed_without_lines() {
        let mut s = SpanSink::with_clock(FakeClock::new(1.0));
        s.span_enter(SpanName::RoundApply);
        for name in [SpanName::RoundObserve, SpanName::RoundDecide] {
            s.span_enter(name);
            s.span_exit(name);
        }
        s.span_exit(SpanName::RoundApply);

        // No span writes a line, and the enclosing span's self time
        // still excludes the two per-agent children.
        assert!(s.take_lines().is_empty());
        let timing = s.timing();
        let apply = timing.span("round_apply").unwrap();
        assert_eq!((apply.count, apply.total_s, apply.self_s), (1, 5.0, 3.0));
        for name in ["round_observe", "round_decide"] {
            let span = timing.span(name).unwrap();
            assert_eq!((span.count, span.total_s), (1, 1.0));
        }
    }

    #[test]
    fn counting_span_sink_times_spans_without_lines() {
        let run = |mut s: SpanSink<FakeClock>| {
            s.span_enter(SpanName::EventDrain);
            s.emit(&arc_loads(2.0));
            s.span_exit(SpanName::EventDrain);
            let lines = s.take_lines();
            (s.snapshot(), s.timing(), lines)
        };
        let (snap, timing, lines) = run(SpanSink::with_clock(FakeClock::new(1.0)));
        let counting = SpanSink::wrapping(FakeClock::new(1.0), JsonlSink::counting());
        let (snap_c, timing_c, lines_c) = run(counting);
        let mut plain = JsonlSink::new();
        plain.emit(&arc_loads(2.0));
        assert_eq!(lines, plain.take_lines());
        assert!(lines_c.is_empty());
        assert_eq!(snap_c, snap);
        assert_eq!(timing_c, timing);
    }

    #[test]
    fn top_phases_rank_by_self_time() {
        let mut s = SpanSink::with_clock(FakeClock::new(1.0));
        // RoundDecide open for 3 reads (3s), RoundApply for 1 read.
        s.span_enter(SpanName::RoundDecide);
        let _ = s.clock.now_s();
        let _ = s.clock.now_s();
        s.span_exit(SpanName::RoundDecide);
        s.span_enter(SpanName::RoundApply);
        s.span_exit(SpanName::RoundApply);
        let timing = s.timing();
        let top = timing.top_phases(2);
        assert_eq!(top[0].0, "round_decide");
        assert_eq!(top[1].0, "round_apply");
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn timing_snapshot_round_trips_through_json() {
        let mut s = SpanSink::with_clock(FakeClock::new(0.5));
        s.span_enter(SpanName::ResolveTopo);
        s.span_exit(SpanName::ResolveTopo);
        let timing = s.timing();
        let json = serde_json::to_string(&timing).unwrap();
        let back: TimingSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, timing);
    }

    #[test]
    fn span_names_are_unique_and_ordered() {
        let names: Vec<&str> = SpanName::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for (i, s) in SpanName::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
