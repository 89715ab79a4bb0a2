//! Exact limit-cycle fast-forward of the control loop.
//!
//! Between two exogenous events (anything but a control round or a
//! sample), a control round under a memoryless policy is a function of
//! the end state of the round before it alone: every share's bits,
//! every agent's observation-dirty flag and every link's power state.
//! Offered rates, failures and the configuration change only through
//! other events; rates, readiness, loads and the assigned counts derive
//! from the shares and the link states; a sample reads the state and
//! changes none of it. So when round r ends in the state round r − p
//! ended in, rounds r + 1 … r + p repeat rounds r − p + 1 … r, and so on
//! until the next pending event.
//!
//! [`CycleRing`] keeps the end states of the last [`MAX_PERIOD`] rounds,
//! each with the share changes it made and, when the sink records, the
//! telemetry calls it made, so the simulator can jump over whole
//! periods and replay what the skipped rounds would have recorded. A
//! 64-bit hash is the first test of a repeat; an exact comparison of the
//! states decides it.

use ecp_telemetry::{Counter, Hist, TelemetryEvent, TelemetrySink};

/// The longest period looked for, in control rounds.
pub(crate) const MAX_PERIOD: usize = 12;

/// Ring slots: the round being closed and the [`MAX_PERIOD`] before it.
const SLOTS: usize = MAX_PERIOD + 1;

/// One telemetry call a recorded control round made.
#[derive(Debug)]
pub(crate) enum SinkCall {
    Add(Counter, u64),
    Observe(Hist, f64),
    Emit(TelemetryEvent),
}

/// One closed control round.
#[derive(Default)]
struct Round {
    /// [`hash_words`] of `state`.
    hash: u64,
    /// The round's end state, in the words the simulator captured.
    state: Vec<u64>,
    /// Share changes the round applied.
    share_changes: u64,
    /// The round's telemetry calls, in order (empty unless the ring was
    /// armed and the sink records when the round began).
    calls: Vec<SinkCall>,
}

/// The last rounds of the current quiet stretch: consecutive control
/// rounds with nothing but samples between them, each of which pushed
/// no event but its successor and left no link newly idle.
pub(crate) struct CycleRing {
    rounds: Vec<Round>,
    /// Slot of the newest closed round.
    newest: usize,
    /// Closed rounds held, newest first; 0 when disarmed.
    len: usize,
    /// Slot of the round in progress.
    cur: usize,
    /// Whether the round in progress records its telemetry calls.
    recording: bool,
    /// Event sequence number when the round in progress began.
    seq_at_start: u64,
    /// Share-change tally when the round in progress began.
    reconfig_at_start: u64,
    /// Whether a link's assigned-traffic count dropped to zero during
    /// the round in progress (which starts a time-stamped drain clock).
    pub(crate) went_idle: bool,
    /// Control rounds fast-forwarded so far.
    fast_forwarded: u64,
}

impl CycleRing {
    pub(crate) fn new() -> Self {
        CycleRing {
            rounds: (0..SLOTS).map(|_| Round::default()).collect(),
            newest: 0,
            len: 0,
            cur: 0,
            recording: false,
            seq_at_start: 0,
            reconfig_at_start: 0,
            went_idle: false,
            fast_forwarded: 0,
        }
    }

    /// Forget every round: the quiet stretch is over.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.recording = false;
    }

    /// Whether the ring holds a round to compare the next one with.
    pub(crate) fn armed(&self) -> bool {
        self.len > 0
    }

    /// Control rounds fast-forwarded so far.
    pub(crate) fn fast_forwarded(&self) -> u64 {
        self.fast_forwarded
    }

    /// Start a control round. Its telemetry calls are kept when the
    /// sink records and the ring is armed: only then can the round
    /// become part of a replayed period.
    pub(crate) fn begin_round(&mut self, sink_records: bool, seq: u64, reconfig: u64) {
        self.cur = (self.newest + 1) % SLOTS;
        self.rounds[self.cur].calls.clear();
        self.recording = sink_records && self.armed();
        self.seq_at_start = seq;
        self.reconfig_at_start = reconfig;
        self.went_idle = false;
    }

    /// Whether the round in progress keeps its telemetry calls.
    pub(crate) fn recording(&self) -> bool {
        self.recording
    }

    /// Keep one telemetry call of the round in progress.
    pub(crate) fn record(&mut self, call: SinkCall) {
        self.rounds[self.cur].calls.push(call);
    }

    /// Whether the round in progress pushed nothing (its successor is
    /// pushed after this check) and left no link newly idle.
    pub(crate) fn round_was_quiet(&self, seq: u64) -> bool {
        seq == self.seq_at_start && !self.went_idle
    }

    /// The buffer the round in progress writes its end state into.
    pub(crate) fn state_mut(&mut self) -> &mut Vec<u64> {
        &mut self.rounds[self.cur].state
    }

    /// Close the round in progress, whose end state is in
    /// [`CycleRing::state_mut`], as the newest round, and return the
    /// shortest period `p` such that the round `p` rounds back ended in
    /// the same state.
    pub(crate) fn close_round(&mut self, reconfig: u64) -> Option<usize> {
        let cur = self.cur;
        let hash = hash_words(&self.rounds[cur].state);
        self.rounds[cur].hash = hash;
        self.rounds[cur].share_changes = reconfig - self.reconfig_at_start;
        let period = (1..=self.len.min(MAX_PERIOD)).find(|&p| {
            let back = &self.rounds[(cur + SLOTS - p) % SLOTS];
            back.hash == hash && back.state == self.rounds[cur].state
        });
        self.newest = cur;
        self.len = (self.len + 1).min(SLOTS);
        self.recording = false;
        period
    }

    /// The slot of round `i` (0-based) of the period of `p` rounds that
    /// ends with the newest round.
    fn period_slot(&self, p: usize, i: usize) -> usize {
        (self.newest + SLOTS + 1 + i - p) % SLOTS
    }

    /// Share changes over the period of `p` rounds ending with the
    /// newest round.
    pub(crate) fn period_share_changes(&self, p: usize) -> u64 {
        (0..p)
            .map(|i| self.rounds[self.period_slot(p, i)].share_changes)
            .sum()
    }

    /// Issue on `sink` the telemetry calls of round `i` of the period of
    /// `p` rounds ending with the newest round, each emitted event moved
    /// to time `t`.
    pub(crate) fn replay_round<S: TelemetrySink>(&self, p: usize, i: usize, t: f64, sink: &mut S) {
        for call in &self.rounds[self.period_slot(p, i)].calls {
            match call {
                SinkCall::Add(c, n) => sink.add(*c, *n),
                SinkCall::Observe(h, v) => sink.observe(*h, *v),
                SinkCall::Emit(ev) => {
                    let mut ev = ev.clone();
                    ev.set_time(t);
                    sink.emit(&ev);
                }
            }
        }
    }

    /// Count `rounds` control rounds as fast-forwarded.
    pub(crate) fn add_fast_forwarded(&mut self, rounds: u64) {
        self.fast_forwarded += rounds;
    }
}

/// A 64-bit multiplicative hash of a word sequence: the cheap first test
/// of a repeated state.
fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(
        ring: &mut CycleRing,
        state: &[u64],
        changes: u64,
        reconfig: &mut u64,
    ) -> Option<usize> {
        ring.begin_round(true, 0, *reconfig);
        if ring.recording() {
            ring.record(SinkCall::Add(Counter::ShareChanges, changes));
        }
        *reconfig += changes;
        ring.state_mut().clear();
        ring.state_mut().extend_from_slice(state);
        ring.close_round(*reconfig)
    }

    #[test]
    fn finds_the_shortest_period_and_its_share_changes() {
        let mut ring = CycleRing::new();
        let mut reconfig = 0;
        // The anchor round is not recorded: the ring was empty.
        assert_eq!(close(&mut ring, &[9], 1, &mut reconfig), None);
        assert_eq!(close(&mut ring, &[1], 2, &mut reconfig), None);
        assert_eq!(close(&mut ring, &[2], 3, &mut reconfig), None);
        assert_eq!(close(&mut ring, &[1], 4, &mut reconfig), Some(2));
        assert_eq!(ring.period_share_changes(2), 3 + 4);
        assert_eq!(close(&mut ring, &[2], 5, &mut reconfig), Some(2));
        assert_eq!(ring.period_share_changes(2), 4 + 5);
        let mut sink = ecp_telemetry::JsonlSink::counting();
        ring.replay_round(2, 0, 1.0, &mut sink);
        assert_eq!(sink.counter(Counter::ShareChanges), 4);
        ring.clear();
        assert!(!ring.armed());
        assert_eq!(close(&mut ring, &[2], 0, &mut reconfig), None);
    }

    #[test]
    fn periods_longer_than_the_ring_are_not_found() {
        let mut ring = CycleRing::new();
        let mut reconfig = 0;
        let period = MAX_PERIOD as u64 + 1;
        for r in 0..3 * period {
            assert_eq!(close(&mut ring, &[r % period], 0, &mut reconfig), None);
        }
        let mut ring = CycleRing::new();
        let found: Vec<_> = (0..3 * MAX_PERIOD as u64)
            .filter_map(|r| close(&mut ring, &[r % MAX_PERIOD as u64], 0, &mut reconfig))
            .collect();
        assert_eq!(found, vec![MAX_PERIOD; 2 * MAX_PERIOD]);
    }
}
