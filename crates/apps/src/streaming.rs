//! BulletMedia-like live streaming over the simulated network (§5.4).
//!
//! "We start 50 participants, with the source streaming a file at
//! 600 kbps. [...] after 300 s, we let 50 additional clients join the
//! system [...]. Figure 9 depicts the percentage of users that can play
//! the video (i.e., media blocks are arriving before their corresponding
//! play deadlines)."

use ecp_power::PowerModel;
use ecp_simnet::{FlowId, SimConfig, Simulation};
use ecp_topo::{NodeId, Topology};
use respons_core::PathTables;
use serde::{Deserialize, Serialize};

/// Streaming workload parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Stream bitrate in bits/s (paper: 600 kbps).
    pub bitrate: f64,
    /// Media block length in seconds of content.
    pub block_duration: f64,
    /// Startup buffering before playback begins, seconds.
    pub startup_delay: f64,
    /// Total experiment duration, seconds.
    pub duration: f64,
    /// Integration step for the client loop, seconds.
    pub dt: f64,
    /// A client is "able to play" if at least this fraction of its
    /// blocks met their deadlines.
    pub playable_threshold: f64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            bitrate: 600e3,
            block_duration: 1.0,
            startup_delay: 3.0,
            duration: 60.0,
            dt: 0.1,
            playable_threshold: 0.99,
        }
    }
}

/// Per-client outcome.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClientStats {
    /// Node the client sits on.
    pub node: NodeId,
    /// When it joined, seconds.
    pub joined_at: f64,
    /// Fraction of its blocks delivered before their play deadline.
    pub on_time_fraction: f64,
    /// Mean retrieval latency per block: completion time minus the
    /// block's availability time at the source, seconds.
    pub mean_block_latency: f64,
    /// Whether the client could play
    /// (`on_time_fraction ≥ playable_threshold`).
    pub playable: bool,
}

/// Whole-run outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingResult {
    /// Per-client stats.
    pub clients: Vec<ClientStats>,
    /// Mean network power fraction over the run.
    pub mean_power_fraction: f64,
}

impl StreamingResult {
    /// Percentage (0–100) of clients able to play — the Fig. 9 metric.
    pub fn playable_percent(&self) -> f64 {
        if self.clients.is_empty() {
            return 100.0;
        }
        100.0 * self.clients.iter().filter(|c| c.playable).count() as f64
            / self.clients.len() as f64
    }

    /// Mean block retrieval latency across clients, seconds.
    pub fn mean_block_latency(&self) -> f64 {
        if self.clients.is_empty() {
            return 0.0;
        }
        self.clients
            .iter()
            .map(|c| c.mean_block_latency)
            .sum::<f64>()
            / self.clients.len() as f64
    }

    /// Playable percentage over a subset of clients (e.g. only the
    /// late joiners).
    pub fn playable_percent_where<F: Fn(&ClientStats) -> bool>(&self, pred: F) -> f64 {
        let sel: Vec<&ClientStats> = self.clients.iter().filter(|c| pred(c)).collect();
        if sel.is_empty() {
            return 100.0;
        }
        100.0 * sel.iter().filter(|c| c.playable).count() as f64 / sel.len() as f64
    }
}

struct ClientRun {
    node: NodeId,
    joined_at: f64,
    flow: Option<FlowId>,
    delivered_bits: f64,
    blocks_done: usize,
    on_time: usize,
    latency_sum: f64,
}

/// Run the streaming workload.
///
/// * `server` — the streaming source node.
/// * `clients` — `(node, join_time)` per client; multiple clients may
///   share a node (each gets its own flow).
pub fn run_streaming(
    topo: &Topology,
    power: &PowerModel,
    tables: &PathTables,
    server: NodeId,
    clients: &[(NodeId, f64)],
    cfg: &StreamingConfig,
    sim_cfg: &SimConfig,
) -> StreamingResult {
    let mut sim = Simulation::new(topo, power, tables, *sim_cfg);
    let mut runs: Vec<ClientRun> = clients
        .iter()
        .map(|&(node, joined_at)| ClientRun {
            node,
            joined_at,
            flow: None,
            delivered_bits: 0.0,
            blocks_done: 0,
            on_time: 0,
            latency_sum: 0.0,
        })
        .collect();

    let block_bits = cfg.bitrate * cfg.block_duration;
    // One-way propagation latency per client (always-on path of its OD
    // pair) — added to block retrieval latency; this is what separates
    // REsPoNse-lat from InvCap at the application level.
    let prop: Vec<f64> = runs
        .iter()
        .map(|r| {
            tables
                .get(server, r.node)
                .map(|od| od.always_on.latency(topo))
                .unwrap_or(0.0)
        })
        .collect();
    let mut t = 0.0;
    while t < cfg.duration {
        let t_next = (t + cfg.dt).min(cfg.duration);
        // Join clients whose time has come.
        for run in runs.iter_mut() {
            if run.flow.is_none() && run.joined_at <= t + 1e-9 {
                run.flow = Some(sim.add_flow(tables, server, run.node, cfg.bitrate));
            }
        }
        sim.run_until(t_next);
        // Integrate delivery and account blocks.
        for (ri, run) in runs.iter_mut().enumerate() {
            let f = match run.flow {
                Some(f) => f,
                None => continue,
            };
            let rate = sim.delivered_rate(f);
            run.delivered_bits += rate * (t_next - t);
            while run.delivered_bits >= (run.blocks_done + 1) as f64 * block_bits {
                run.blocks_done += 1;
                let k = run.blocks_done as f64;
                // Block k becomes available at the source when its
                // content has been produced (live stream).
                let available = run.joined_at + k * cfg.block_duration;
                let deadline = run.joined_at + cfg.startup_delay + k * cfg.block_duration;
                // Completion as observed by the client: last bit leaves
                // the source at t_next and propagates down the path.
                let done = t_next + prop[ri];
                if done <= deadline + 1e-9 {
                    run.on_time += 1;
                }
                run.latency_sum += (done - available).max(0.0);
            }
        }
        t = t_next;
    }

    let clients_out: Vec<ClientStats> = runs
        .iter()
        .map(|r| {
            // Blocks the client *should* have played by the end.
            let expected = (((cfg.duration - r.joined_at - cfg.startup_delay) / cfg.block_duration)
                .floor() as usize)
                .max(1);
            let on_time_fraction = r.on_time.min(expected) as f64 / expected as f64;
            ClientStats {
                node: r.node,
                joined_at: r.joined_at,
                on_time_fraction,
                mean_block_latency: if r.blocks_done > 0 {
                    r.latency_sum / r.blocks_done as f64
                } else {
                    f64::INFINITY
                },
                playable: on_time_fraction >= cfg.playable_threshold,
            }
        })
        .collect();
    StreamingResult {
        clients: clients_out,
        mean_power_fraction: sim.series().mean_power_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_power::PowerModel;
    use ecp_topo::gen::fig3_click;
    use respons_core::{Planner, PlannerConfig};

    fn setup() -> (Topology, PathTables, ecp_topo::gen::Fig3Nodes) {
        let (t, n) = fig3_click();
        let pm = PowerModel::cisco12000();
        let tables =
            Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &[(n.k, n.a), (n.k, n.c)]);
        (t, tables, n)
    }

    #[test]
    fn uncongested_clients_all_play() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let cfg = StreamingConfig {
            duration: 30.0,
            ..Default::default()
        };
        // Two clients, 600 kbps each: trivially fits 10 Mbps paths.
        let res = run_streaming(
            &t,
            &pm,
            &tables,
            n.k,
            &[(n.a, 0.0), (n.c, 0.0)],
            &cfg,
            &SimConfig::default(),
        );
        assert_eq!(res.playable_percent(), 100.0, "{:?}", res.clients);
        assert!(res.mean_block_latency() < 2.0 * cfg.block_duration);
        assert!(res.mean_power_fraction < 1.0, "parts of the net sleep");
    }

    #[test]
    fn overload_degrades_playability() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let cfg = StreamingConfig {
            duration: 30.0,
            bitrate: 8e6,
            ..Default::default()
        };
        // Three 8 Mbps streams toward A exceed every path combination
        // (A reachable via 2 disjoint 10 Mbps paths only).
        let res = run_streaming(
            &t,
            &pm,
            &tables,
            n.k,
            &[(n.a, 0.0), (n.a, 0.0), (n.a, 0.0)],
            &cfg,
            &SimConfig::default(),
        );
        assert!(res.playable_percent() < 100.0);
    }

    #[test]
    fn late_joiners_tracked_separately() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let cfg = StreamingConfig {
            duration: 20.0,
            ..Default::default()
        };
        let res = run_streaming(
            &t,
            &pm,
            &tables,
            n.k,
            &[(n.a, 0.0), (n.c, 10.0)],
            &cfg,
            &SimConfig::default(),
        );
        assert_eq!(res.clients.len(), 2);
        assert_eq!(res.clients[1].joined_at, 10.0);
        let late = res.playable_percent_where(|c| c.joined_at > 5.0);
        assert_eq!(late, 100.0);
    }

    #[test]
    fn empty_client_list() {
        let (t, tables, n) = setup();
        let pm = PowerModel::cisco12000();
        let cfg = StreamingConfig {
            duration: 5.0,
            ..Default::default()
        };
        let res = run_streaming(&t, &pm, &tables, n.k, &[], &cfg, &SimConfig::default());
        assert_eq!(res.playable_percent(), 100.0);
        assert_eq!(res.mean_block_latency(), 0.0);
    }
}
