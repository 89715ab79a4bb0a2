//! Packet-level simulation engine.
//!
//! The fluid simulator in [`crate::sim`] captures rates and power but
//! not *queueing*: the paper's application experiments (Fig. 9's +5%
//! block latency, the +9% web latency) ran real packets through Click /
//! ModelNet, where consolidating traffic onto fewer, busier links adds
//! store-and-forward and queueing delay. This module is a compact
//! event-per-packet engine for exactly those measurements:
//!
//! * per-arc FIFO output queues with finite capacity (tail-drop),
//! * serialization delay `bytes·8 / C` plus propagation delay per hop,
//! * constant-bit-rate sources pinned to explicit paths,
//! * per-flow delay/drop/throughput statistics.
//!
//! Deterministic: ties are broken by event sequence numbers; CBR sources
//! have deterministic emission times (a per-flow phase offset avoids
//! pathological synchronization).

use ecp_topo::{ArcId, MinEntry, Path, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Packet-level engine configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PacketSimConfig {
    /// Packet size in bytes (default 1500, Ethernet MTU).
    pub packet_bytes: f64,
    /// Output-queue capacity per arc, in packets (tail drop beyond).
    pub queue_packets: usize,
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        PacketSimConfig {
            packet_bytes: 1500.0,
            queue_packets: 100,
        }
    }
}

/// A constant-bit-rate flow pinned to a path.
#[derive(Debug, Clone)]
pub struct CbrFlow {
    /// The path every packet follows.
    pub path: Path,
    /// Offered rate in bits/s.
    pub rate_bps: f64,
    /// First emission time (seconds).
    pub start: f64,
    /// Emission stops at this time.
    pub stop: f64,
}

/// Per-flow outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketStats {
    /// Packets emitted by the source.
    pub sent: usize,
    /// Packets that reached the destination.
    pub delivered: usize,
    /// Packets dropped at full queues.
    pub dropped: usize,
    /// Mean end-to-end delay of delivered packets, seconds.
    pub mean_delay: f64,
    /// 99th-percentile delay, seconds.
    pub p99_delay: f64,
    /// Mean queueing component (total minus propagation and
    /// serialization), seconds.
    pub mean_queue_delay: f64,
    /// Delivered throughput over the emission window, bits/s.
    pub throughput_bps: f64,
}

#[derive(Debug)]
enum Ev {
    /// Source of `flow` emits packet number `seq`.
    Emit { flow: usize, seq: u64 },
    /// Packet of `flow` arrives at hop `hop` (0 = first transit node),
    /// having been emitted at `born`.
    Arrive { flow: usize, hop: usize, born: f64 },
}

/// A queued event: ordered by its time, then by push order. The time
/// also rides in the item with its sign, since a flow may start at
/// `-0.0`, which the key orders (and reads back) as `+0.0`.
type QEv = MinEntry<(f64, Ev)>;

/// Per-arc activity record from a packet run, for sleep-opportunity
/// analysis (§2.1.1: opportunistic sleeping in inter-packet gaps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArcActivity {
    /// Total transmit (busy) time per arc, seconds.
    pub busy_s: Vec<f64>,
    /// Per-arc idle gaps between consecutive transmissions, seconds
    /// (arcs that never transmitted have no entries).
    pub gaps: Vec<Vec<f64>>,
    /// Simulated horizon (time of the last event processed).
    pub horizon: f64,
}

impl ArcActivity {
    /// Fraction of the horizon a given arc could sleep if it can only
    /// use gaps of at least `min_gap` seconds (each usable gap also pays
    /// `wake_s` of wake-up during which it cannot forward or sleep).
    pub fn opportunistic_sleep_fraction(&self, arc: usize, min_gap: f64, wake_s: f64) -> f64 {
        if self.horizon <= 0.0 {
            return 0.0;
        }
        let usable: f64 = self.gaps[arc]
            .iter()
            .filter(|&&g| g >= min_gap)
            .map(|&g| (g - wake_s).max(0.0))
            .sum();
        (usable / self.horizon).clamp(0.0, 1.0)
    }
}

/// Run the packet engine until all sources stop and queues drain (or
/// `t_max` as a hard stop).
pub fn run_packet_sim(
    topo: &Topology,
    flows: &[CbrFlow],
    cfg: &PacketSimConfig,
    t_max: f64,
) -> Vec<PacketStats> {
    run_packet_sim_full(topo, flows, cfg, t_max).0
}

/// Like [`run_packet_sim`] but also returns per-arc activity (busy time
/// and inter-transmission gaps).
pub fn run_packet_sim_full(
    topo: &Topology,
    flows: &[CbrFlow],
    cfg: &PacketSimConfig,
    t_max: f64,
) -> (Vec<PacketStats>, ArcActivity) {
    // Resolve paths to arc lists once.
    let paths: Vec<Vec<ArcId>> = flows
        .iter()
        .map(|f| {
            f.path
                .arcs(topo)
                .expect("flow path must resolve in topology")
        })
        .collect();
    let bits = cfg.packet_bytes * 8.0;

    // Transmitter state per arc: time the output link frees up, total
    // busy time, and inter-transmission gaps.
    let mut busy_until = vec![0.0_f64; topo.arc_count()];
    let mut busy_total = vec![0.0_f64; topo.arc_count()];
    let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); topo.arc_count()];
    let mut horizon = 0.0_f64;

    let mut sent = vec![0usize; flows.len()];
    let mut dropped = vec![0usize; flows.len()];
    let mut delays: Vec<Vec<f64>> = vec![Vec::new(); flows.len()];
    // Base (uncongested) delay per flow: serialization + propagation per
    // hop, for the queue-delay decomposition.
    let base_delay: Vec<f64> = paths
        .iter()
        .map(|arcs| {
            arcs.iter()
                .map(|&a| bits / topo.arc(a).capacity + topo.arc(a).latency)
                .sum()
        })
        .collect();

    let mut heap: BinaryHeap<QEv> = BinaryHeap::new();
    let mut ord = 0u64;
    let push = |heap: &mut BinaryHeap<QEv>, ord: &mut u64, t: f64, ev: Ev| {
        *ord += 1;
        heap.push(MinEntry::new(t, *ord, (t, ev)));
    };
    for (i, f) in flows.iter().enumerate() {
        if f.rate_bps > 0.0 && f.start < f.stop {
            push(&mut heap, &mut ord, f.start, Ev::Emit { flow: i, seq: 0 });
        }
    }

    while let Some(MinEntry { item: (t, ev), .. }) = heap.pop() {
        if t > t_max {
            break;
        }
        horizon = horizon.max(t);
        match ev {
            Ev::Emit { flow, seq } => {
                let f = &flows[flow];
                sent[flow] += 1;
                // Transmit on the first arc.
                transmit(
                    topo,
                    &mut busy_until,
                    &mut busy_total,
                    &mut gaps,
                    &paths[flow],
                    0,
                    flow,
                    t,
                    t,
                    bits,
                    cfg.queue_packets,
                    &mut dropped,
                    &mut heap,
                    &mut ord,
                );
                // Next emission.
                let interval = bits / f.rate_bps;
                let next = f.start + (seq + 1) as f64 * interval;
                if next < f.stop {
                    push(&mut heap, &mut ord, next, Ev::Emit { flow, seq: seq + 1 });
                }
            }
            Ev::Arrive { flow, hop, born } => {
                if hop >= paths[flow].len() {
                    delays[flow].push(t - born);
                } else {
                    transmit(
                        topo,
                        &mut busy_until,
                        &mut busy_total,
                        &mut gaps,
                        &paths[flow],
                        hop,
                        flow,
                        t,
                        born,
                        bits,
                        cfg.queue_packets,
                        &mut dropped,
                        &mut heap,
                        &mut ord,
                    );
                }
            }
        }
    }

    let stats: Vec<PacketStats> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut d = delays[i].clone();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let delivered = d.len();
            let mean = if delivered > 0 {
                d.iter().sum::<f64>() / delivered as f64
            } else {
                0.0
            };
            let p99 = if delivered > 0 {
                d[(delivered - 1) * 99 / 100]
            } else {
                0.0
            };
            // Drain-aware throughput window: queued backlog drains past
            // `stop`, so we extend the window by the worst observed delay
            // (an upper bound on drain time) — otherwise an overloaded
            // flow would appear to exceed link capacity.
            let window = (f.stop - f.start).max(1e-9) + d.last().copied().unwrap_or(0.0);
            PacketStats {
                sent: sent[i],
                delivered,
                dropped: dropped[i],
                mean_delay: mean,
                p99_delay: p99,
                mean_queue_delay: (mean - base_delay[i]).max(0.0),
                throughput_bps: delivered as f64 * bits / window,
            }
        })
        .collect();
    (
        stats,
        ArcActivity {
            busy_s: busy_total,
            gaps,
            horizon,
        },
    )
}

/// Enqueue one packet on `path[hop]`: FIFO service at the arc's rate,
/// tail drop when the backlog exceeds the queue capacity.
#[allow(clippy::too_many_arguments)]
fn transmit(
    topo: &Topology,
    busy_until: &mut [f64],
    busy_total: &mut [f64],
    gaps: &mut [Vec<f64>],
    path: &[ArcId],
    hop: usize,
    flow: usize,
    now: f64,
    born: f64,
    bits: f64,
    queue_packets: usize,
    dropped: &mut [usize],
    heap: &mut BinaryHeap<QEv>,
    ord: &mut u64,
) {
    let a = path[hop];
    let arc = topo.arc(a);
    let service = bits / arc.capacity;
    let backlog = (busy_until[a.idx()] - now).max(0.0);
    if backlog > queue_packets as f64 * service {
        dropped[flow] += 1;
        return;
    }
    let start = busy_until[a.idx()].max(now);
    if start > busy_until[a.idx()] && busy_total[a.idx()] > 0.0 {
        // The transmitter idled between the previous packet and this one.
        gaps[a.idx()].push(start - busy_until[a.idx()]);
    }
    busy_total[a.idx()] += service;
    let done = start + service;
    busy_until[a.idx()] = done;
    *ord += 1;
    let t = done + arc.latency;
    let ev = Ev::Arrive {
        flow,
        hop: hop + 1,
        born,
    };
    heap.push(MinEntry::new(t, *ord, (t, ev)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_topo::gen::line;
    use ecp_topo::{NodeId, MBPS, MS};

    fn flow(path: Vec<u32>, rate: f64, start: f64, stop: f64) -> CbrFlow {
        CbrFlow {
            path: Path::new(path.into_iter().map(NodeId).collect()),
            rate_bps: rate,
            start,
            stop,
        }
    }

    #[test]
    fn uncongested_cbr_delivers_everything() {
        let t = line(3, 10.0 * MBPS, MS);
        let stats = run_packet_sim(
            &t,
            &[flow(vec![0, 1, 2], 1.0 * MBPS, 0.0, 2.0)],
            &PacketSimConfig::default(),
            10.0,
        );
        let s = &stats[0];
        assert_eq!(s.dropped, 0);
        assert_eq!(s.sent, s.delivered);
        // ~ rate * window / packet_bits packets.
        let expect = (1.0 * MBPS * 2.0 / 12000.0) as usize;
        assert!(
            (s.sent as i64 - expect as i64).abs() <= 1,
            "{} vs {expect}",
            s.sent
        );
        // Delay = 2 hops x (serialization 1.2 ms + prop 1 ms) = 4.4 ms.
        assert!((s.mean_delay - 2.0 * (12000.0 / (10.0 * MBPS) + MS)).abs() < 1e-4);
        assert!(s.mean_queue_delay < 1e-4, "no queueing when alone");
        assert!((s.throughput_bps - 1.0 * MBPS).abs() < 0.05 * MBPS);
    }

    #[test]
    fn overload_drops_and_caps_throughput() {
        let t = line(2, 10.0 * MBPS, MS);
        let stats = run_packet_sim(
            &t,
            &[flow(vec![0, 1], 20.0 * MBPS, 0.0, 1.0)],
            &PacketSimConfig::default(),
            10.0,
        );
        let s = &stats[0];
        assert!(s.dropped > 0, "offered 2x capacity must drop");
        assert!(s.throughput_bps <= 10.5 * MBPS, "{}", s.throughput_bps);
        assert!(s.delivered + s.dropped == s.sent);
    }

    #[test]
    fn sharing_a_link_adds_queueing_delay() {
        // Two flows share 0->1 at combined 90% utilization: queueing
        // appears; alone at 45% it is negligible.
        let t = line(2, 10.0 * MBPS, MS);
        let shared = run_packet_sim(
            &t,
            &[
                flow(vec![0, 1], 4.5 * MBPS, 0.0, 2.0),
                flow(vec![0, 1], 4.5 * MBPS, 0.0001, 2.0),
            ],
            &PacketSimConfig::default(),
            10.0,
        );
        let alone = run_packet_sim(
            &t,
            &[flow(vec![0, 1], 4.5 * MBPS, 0.0, 2.0)],
            &PacketSimConfig::default(),
            10.0,
        );
        // With deterministic interleaving the phase-late flow absorbs
        // the queueing; the pair's mean must exceed the solo delay.
        let pair_mean = 0.5 * (shared[0].mean_delay + shared[1].mean_delay);
        assert!(
            pair_mean > alone[0].mean_delay,
            "sharing adds delay: {} vs {}",
            pair_mean,
            alone[0].mean_delay
        );
        assert!(shared[1].mean_queue_delay > 1e-4, "late flow queues");
        assert_eq!(
            shared[0].dropped + shared[1].dropped,
            0,
            "90% load: no drops"
        );
    }

    #[test]
    fn queue_capacity_bounds_backlog_delay() {
        let t = line(2, 10.0 * MBPS, MS);
        let cfg = PacketSimConfig {
            queue_packets: 5,
            ..Default::default()
        };
        let stats = run_packet_sim(&t, &[flow(vec![0, 1], 30.0 * MBPS, 0.0, 1.0)], &cfg, 10.0);
        let s = &stats[0];
        // Max queueing = 6 service times (5 queued + 1 in service).
        let service = 12000.0 / (10.0 * MBPS);
        assert!(s.p99_delay <= 7.0 * service + MS + 1e-6, "{}", s.p99_delay);
        assert!(s.dropped > 0);
    }

    #[test]
    fn deterministic() {
        let t = line(3, 10.0 * MBPS, MS);
        let flows = [
            flow(vec![0, 1, 2], 3.0 * MBPS, 0.0, 1.0),
            flow(vec![2, 1, 0], 5.0 * MBPS, 0.1, 1.0),
        ];
        let a = run_packet_sim(&t, &flows, &PacketSimConfig::default(), 10.0);
        let b = run_packet_sim(&t, &flows, &PacketSimConfig::default(), 10.0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sent, y.sent);
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.mean_delay.to_bits(), y.mean_delay.to_bits());
        }
    }

    #[test]
    fn empty_and_stopped_flows() {
        let t = line(2, 10.0 * MBPS, MS);
        let stats = run_packet_sim(
            &t,
            &[
                flow(vec![0, 1], 0.0, 0.0, 1.0),
                flow(vec![0, 1], 1e6, 5.0, 5.0),
            ],
            &PacketSimConfig::default(),
            10.0,
        );
        assert_eq!(stats[0].sent, 0);
        assert_eq!(stats[1].sent, 0);
    }
}
