//! The `campaign watch` dashboard: fold a `--progress jsonl` event
//! stream into per-entry progress and render it as a fixed-width
//! terminal table.
//!
//! This is the state-machine half of live watching — pure and
//! synchronous, so tests can drive it line by line. The CLI owns the
//! I/O loop (stdin pipe or growing file, ANSI redraw vs plain
//! snapshots, optional `report.html` rewrites); a future `campaign
//! serve` swaps the line source for a socket and keeps this fold.

use crate::exec::ProgressEvent;
use std::collections::HashMap;

/// Rolling progress of one campaign entry.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryProgress {
    /// Entry name.
    pub entry: String,
    /// Expanded run count (0 for entries discovered from the stream).
    pub expected: usize,
    /// Runs currently executing (started, not yet finished).
    pub running: usize,
    /// Finished runs (cached or executed).
    pub finished: usize,
    /// Finished runs served from the result store.
    pub cached: usize,
    /// Finished runs whose stored outcome is a scenario failure.
    pub failed: usize,
    /// Latest delivered fraction seen for this entry.
    pub delivered: Option<f64>,
    /// Latest mean power fraction.
    pub power: Option<f64>,
    /// Latest settle time (seconds), when runs record telemetry.
    pub settle_s: Option<f64>,
    /// Latest delivery-shortfall fraction, when runs record stability.
    pub shortfall: Option<f64>,
    /// Total executor wall seconds attributed to this entry.
    pub wall_s: f64,
}

impl EntryProgress {
    fn new(entry: &str, expected: usize) -> Self {
        EntryProgress {
            entry: entry.to_string(),
            expected,
            running: 0,
            finished: 0,
            cached: 0,
            failed: 0,
            delivered: None,
            power: None,
            settle_s: None,
            shortfall: None,
            wall_s: 0.0,
        }
    }
}

/// The dashboard fold over a progress stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchState {
    /// Campaign name (display only).
    pub campaign: String,
    entries: Vec<EntryProgress>,
    index: HashMap<String, usize>,
    /// Stream lines that failed to parse as progress events.
    pub skipped_lines: usize,
}

impl WatchState {
    /// A dashboard expecting `(entry, run count)` in spec order (from
    /// `expand`). Entries seen in the stream but not declared here are
    /// appended with `expected = 0`.
    pub fn new(campaign: &str, expected: &[(String, usize)]) -> Self {
        let mut entries = Vec::with_capacity(expected.len());
        let mut index = HashMap::new();
        for (name, count) in expected {
            index.insert(name.clone(), entries.len());
            entries.push(EntryProgress::new(name, *count));
        }
        WatchState {
            campaign: campaign.to_string(),
            entries,
            index,
            skipped_lines: 0,
        }
    }

    fn slot(&mut self, entry: &str) -> &mut EntryProgress {
        let i = *self.index.entry(entry.to_string()).or_insert_with(|| {
            self.entries.push(EntryProgress::new(entry, 0));
            self.entries.len() - 1
        });
        &mut self.entries[i]
    }

    /// Fold one stream line; returns whether it parsed as an event.
    /// Non-event lines (executor chatter like `stats: ...`) are counted
    /// and otherwise ignored — the stream stays greppable.
    pub fn apply_line(&mut self, line: &str) -> bool {
        match serde_json::from_str::<ProgressEvent>(line) {
            Ok(ev) => {
                self.apply(&ev);
                true
            }
            Err(_) => {
                if !line.trim().is_empty() {
                    self.skipped_lines += 1;
                }
                false
            }
        }
    }

    /// Fold one event.
    pub fn apply(&mut self, ev: &ProgressEvent) {
        match ev {
            ProgressEvent::RunStarted { entry, .. } => {
                self.slot(entry).running += 1;
            }
            ProgressEvent::RunFinished {
                entry,
                cached,
                failed,
                mean_power_frac,
                mean_delivered_fraction,
                wall_s,
                settle_time_s,
                shortfall_fraction,
                ..
            } => {
                let e = self.slot(entry);
                e.running = e.running.saturating_sub(1);
                e.finished += 1;
                if *cached {
                    e.cached += 1;
                }
                if *failed {
                    e.failed += 1;
                }
                if let Some(d) = mean_delivered_fraction {
                    e.delivered = Some(*d);
                }
                if let Some(p) = mean_power_frac {
                    e.power = Some(*p);
                }
                if let Some(s) = settle_time_s {
                    e.settle_s = Some(*s);
                }
                if let Some(s) = shortfall_fraction {
                    e.shortfall = Some(*s);
                }
                if let Some(w) = wall_s {
                    e.wall_s += w;
                }
            }
        }
    }

    /// Per-entry progress in declaration order.
    pub fn entries(&self) -> &[EntryProgress] {
        &self.entries
    }

    /// Total expected runs (0 when watching without a spec).
    pub fn expected(&self) -> usize {
        self.entries.iter().map(|e| e.expected).sum()
    }

    /// Total finished runs.
    pub fn finished(&self) -> usize {
        self.entries.iter().map(|e| e.finished).sum()
    }

    /// Total cache hits.
    pub fn cached(&self) -> usize {
        self.entries.iter().map(|e| e.cached).sum()
    }

    /// Total failures.
    pub fn failed(&self) -> usize {
        self.entries.iter().map(|e| e.failed).sum()
    }

    /// Whether every expected run has finished (never true without an
    /// expectation, so stream-only watches end on EOF instead).
    pub fn done(&self) -> bool {
        let expected = self.expected();
        expected > 0 && self.finished() >= expected
    }

    /// Render the dashboard as a plain-text table. `elapsed_s` is the
    /// watcher's wall clock (rolling, so it is the caller's input — the
    /// fold itself never reads the clock).
    pub fn render(&self, elapsed_s: f64) -> String {
        let opt = |v: Option<f64>| v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into());
        let mut out = String::new();
        out.push_str(&format!(
            "campaign {} — {}/{} runs finished, {} cached, {} failed, {:.1}s elapsed\n",
            self.campaign,
            self.finished(),
            self.expected(),
            self.cached(),
            self.failed(),
            elapsed_s,
        ));
        out.push_str(&format!(
            "{:<28} {:>9} {:>4} {:>6} {:>6} {:>10} {:>8} {:>9} {:>9} {:>8}\n",
            "entry",
            "done",
            "run",
            "cached",
            "failed",
            "delivered",
            "power",
            "settle(s)",
            "shortfall",
            "wall(s)"
        ));
        for e in &self.entries {
            let done = if e.expected > 0 {
                format!("{}/{}", e.finished, e.expected)
            } else {
                format!("{}", e.finished)
            };
            out.push_str(&format!(
                "{:<28} {:>9} {:>4} {:>6} {:>6} {:>10} {:>8} {:>9} {:>9} {:>8}\n",
                truncate(&e.entry, 28),
                done,
                e.running,
                e.cached,
                e.failed,
                opt(e.delivered),
                opt(e.power).trim_end_matches('0').trim_end_matches('.'),
                opt(e.settle_s),
                opt(e.shortfall),
                format!("{:.2}", e.wall_s),
            ));
        }
        if self.skipped_lines > 0 {
            out.push_str(&format!(
                "({} non-event lines skipped)\n",
                self.skipped_lines
            ));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished_line(entry: &str, cached: bool, delivered: f64) -> String {
        serde_json::to_string(&ProgressEvent::RunFinished {
            shard: 0,
            hash: "h".into(),
            entry: entry.into(),
            name: format!("{entry}-run"),
            cached,
            failed: false,
            mean_power_frac: Some(0.5),
            mean_delivered_fraction: Some(delivered),
            wall_s: Some(0.25),
            phases: vec![],
            settle_time_s: Some(6.0),
            shortfall_fraction: Some(0.01),
        })
        .unwrap()
    }

    #[test]
    fn folds_a_stream_into_progress() {
        let mut w = WatchState::new("demo", &[("a".into(), 2), ("b".into(), 1)]);
        assert!(!w.done());
        assert!(w.apply_line(&finished_line("a", true, 0.9)));
        assert!(!w.apply_line("stats: runs=3 unique=3"));
        assert!(w.apply_line(&finished_line("a", false, 0.95)));
        assert!(!w.done());
        // A line nested too deep to read is skipped like any other
        // non-event line, not a stack overflow.
        assert!(!w.apply_line(&"[".repeat(200_000)));
        assert!(w.apply_line(&finished_line("b", false, 0.8)));
        assert!(w.done());
        assert_eq!(w.finished(), 3);
        assert_eq!(w.cached(), 1);
        assert_eq!(w.skipped_lines, 2);
        let a = &w.entries()[0];
        assert_eq!((a.finished, a.cached, a.failed), (2, 1, 0));
        assert_eq!(a.delivered, Some(0.95));
        assert_eq!(a.settle_s, Some(6.0));
        let table = w.render(1.5);
        assert!(table.contains("3/3 runs finished"));
        assert!(table.contains("0.9500"));
    }

    #[test]
    fn unknown_entries_are_appended() {
        let mut w = WatchState::new("demo", &[]);
        w.apply_line(&finished_line("surprise", false, 1.0));
        assert_eq!(w.entries().len(), 1);
        assert_eq!(w.entries()[0].expected, 0);
        // No expectation -> EOF is the only terminator.
        assert!(!w.done());
    }

    #[test]
    fn run_started_tracks_in_flight() {
        let mut w = WatchState::new("demo", &[("a".into(), 1)]);
        let started = serde_json::to_string(&ProgressEvent::RunStarted {
            shard: 0,
            hash: "h".into(),
            entry: "a".into(),
            name: "a-run".into(),
        })
        .unwrap();
        w.apply_line(&started);
        assert_eq!(w.entries()[0].running, 1);
        w.apply_line(&finished_line("a", false, 1.0));
        assert_eq!(w.entries()[0].running, 0);
        assert!(w.done());
    }
}
