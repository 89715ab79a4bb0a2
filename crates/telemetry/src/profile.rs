//! Profiling spans: where does the wall-clock time go?
//!
//! The event/counter layer in the crate root records *what happened*;
//! this module records *where time went* without perturbing it:
//!
//! * [`Clock`] — the time source. [`MonoClock`] reads a monotonic wall
//!   clock; [`FakeClock`] advances a fixed tick per read so span trees
//!   are deterministic under test.
//! * [`SpanSink`] — a [`TelemetrySink`] that wraps a [`JsonlSink`] and
//!   additionally times `span_enter`/`span_exit` pairs. Span close
//!   events ride in the same ordered line stream as the inner sink's
//!   events (as [`TelemetryEvent::Span`] lines) but bypass its
//!   aggregation, so the embedded [`TelemetrySnapshot`] is identical
//!   to an unprofiled traced run.
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
/// to 10 s. Shared by [`SpanSink`] and the `trace summarize` CLI so
/// percentiles agree.
pub const SPAN_DUR_BOUNDS: &[f64] = &[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

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
    /// Full duration histogram ([`SPAN_DUR_BOUNDS`] buckets).
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

#[derive(Debug, Clone)]
struct SpanStat {
    count: u64,
    total_s: f64,
    self_s: f64,
    durations: HistState,
}

#[derive(Debug, Clone)]
struct Frame {
    name: usize,
    start_s: f64,
    child_s: f64,
}

/// A recording sink with profiling spans: wraps a [`JsonlSink`] (all
/// events/counters/histograms behave identically) and times
/// `span_enter`/`span_exit` pairs against a [`Clock`].
#[derive(Debug, Clone)]
pub struct SpanSink<C: Clock = MonoClock> {
    inner: JsonlSink,
    clock: C,
    origin_s: f64,
    /// Simulation time of the last emitted event — stamped onto Span
    /// lines so the combined trace stays monotone in `t`.
    last_t: f64,
    stack: Vec<Frame>,
    stats: Vec<SpanStat>,
}

impl SpanSink<MonoClock> {
    /// Profiling sink on the monotonic wall clock.
    pub fn new() -> Self {
        SpanSink::with_clock(MonoClock::default())
    }
}

impl Default for SpanSink<MonoClock> {
    fn default() -> Self {
        SpanSink::new()
    }
}

impl<C: Clock> SpanSink<C> {
    /// Profiling sink on an explicit clock (e.g. [`FakeClock`]).
    pub fn with_clock(mut clock: C) -> Self {
        let origin_s = clock.now_s();
        SpanSink {
            inner: JsonlSink::new(),
            clock,
            origin_s,
            last_t: 0.0,
            stack: Vec::new(),
            stats: SpanName::ALL
                .iter()
                .map(|_| SpanStat {
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                    durations: HistState::with_bounds(SPAN_DUR_BOUNDS),
                })
                .collect(),
        }
    }

    /// The wrapped recording sink.
    pub fn inner(&self) -> &JsonlSink {
        &self.inner
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
                .map(|&s| {
                    let st = &self.stats[s.index()];
                    let durations = st.durations.snapshot_named(s.name(), SPAN_DUR_BOUNDS);
                    SpanTiming {
                        name: s.name().to_string(),
                        count: st.count,
                        total_s: st.total_s,
                        self_s: st.self_s,
                        p50_s: durations.p50(),
                        p95_s: durations.p95(),
                        p99_s: durations.p99(),
                        durations,
                    }
                })
                .collect(),
        }
    }
}

impl<C: Clock> TelemetrySink for SpanSink<C> {
    const ENABLED: bool = true;
    const SPANS: bool = true;

    fn emit(&mut self, ev: &TelemetryEvent) {
        self.last_t = ev.time();
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
            name: name.index(),
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
            frame.name,
            name.index(),
            "span_exit({name:?}) does not match the innermost open span"
        );
        let dur_s = (now - frame.start_s).max(0.0);
        let self_s = (dur_s - frame.child_s).max(0.0);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur_s;
        }
        let st = &mut self.stats[frame.name];
        st.count += 1;
        st.total_s += dur_s;
        st.self_s += self_s;
        st.durations.observe(SPAN_DUR_BOUNDS, dur_s);
        let ev = TelemetryEvent::Span {
            t: self.last_t,
            name: SpanName::ALL[frame.name].name().to_string(),
            start_s: frame.start_s - self.origin_s,
            dur_s,
            self_s,
            depth: self.stack.len() as u32,
        };
        // Pushed directly (not through `inner.emit`) so the inner
        // event count / settle / peak aggregation — and therefore the
        // embedded TelemetrySnapshot — match an unprofiled traced run.
        self.inner
            .lines
            .push(serde_json::to_string(&ev).expect("telemetry events always serialize"));
    }

    fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.snapshot()
    }

    /// The combined trace: inner events interleaved with Span lines.
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

    #[test]
    fn span_lines_ride_the_stream_without_touching_the_snapshot() {
        let mut s = SpanSink::with_clock(FakeClock::new(1.0));
        let ev = TelemetryEvent::ArcLoads {
            t: 2.0,
            max_util: 0.5,
            mean_util: 0.2,
            overloaded: 1,
        };
        s.span_enter(SpanName::EventDrain);
        s.emit(&ev);
        s.span_exit(SpanName::EventDrain);

        // A plain JsonlSink seeing the same events must produce the
        // identical snapshot (span lines bypass aggregation).
        let mut plain = JsonlSink::new();
        plain.emit(&ev);
        assert_eq!(s.snapshot(), plain.snapshot());

        let lines = s.take_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ArcLoads\":"));
        assert!(lines[1].starts_with("{\"Span\":"));
        // Span line parses back and carries the last sim time.
        let back: TelemetryEvent = serde_json::from_str(&lines[1]).unwrap();
        match back {
            TelemetryEvent::Span { t, name, depth, .. } => {
                assert_eq!(t, 2.0);
                assert_eq!(name, "event_drain");
                assert_eq!(depth, 0);
            }
            other => panic!("expected Span, got {other:?}"),
        }
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
