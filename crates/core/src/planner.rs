//! The off-line path computation (§4.1–4.3).
//!
//! * **Always-on** (§4.1): a *minimal power tree* — with ε demands the
//!   capacity constraints are non-binding and the min-power connectivity
//!   problem reduces to a minimum-power spanning structure. We build a
//!   Kruskal MST on link power and prune non-required leaf subtrees
//!   (Steiner refinement). With a traffic estimate
//!   ([`PlannerConfig::offpeak`]) the planner instead solves the §2.2
//!   optimization on `d_low` via the `ecp-routing` ensemble.
//!   REsPoNse-lat ([`PlannerConfig::beta`]) enforces
//!   `delay(O,D) ≤ (1+β)·delay_OSPF(O,D)` (constraint 4) by rerouting
//!   violating pairs over a delay-bounded minimum-new-power path.
//! * **On-demand** (§4.2): computed `N − 2` times with elements already
//!   activated carried over (`X_i`, `Y(i→j)` fixed to 1). Four
//!   strategies mirror the paper's variants: stress-factor exclusion
//!   (demand-oblivious, the baseline "REsPoNse"), peak-matrix
//!   (demand-aware), OSPF (REsPoNse-ospf), and GreenTE-like
//!   (REsPoNse-heuristic).
//! * **Failover** (§4.3): a single link-disjoint (where possible) path
//!   per OD pair, chosen by [`DisjointSearch::failover`].

use crate::tables::{OdPaths, PathTables};
use ecp_power::PowerModel;
use ecp_routing::oracle::OracleConfig;
use ecp_routing::ospf::invcap_weight;
use ecp_routing::subset::{greente_like, optimal_subset};
use ecp_topo::algo::{shortest_path, shortest_path_bounded, DisjointSearch, ShortestPathTrees};
use ecp_topo::{ActiveSet, ArcId, NodeId, Path, Topology};
use ecp_traffic::TrafficMatrix;
use std::collections::{HashMap, HashSet};

/// How on-demand tables are computed (§4.2).
#[derive(Debug, Clone)]
pub enum OnDemandStrategy {
    /// Demand-oblivious stress-factor construction: exclude the given
    /// fraction of highest-stress links and route around them. Paper
    /// default: 0.2 ("excluding 20% of the links with the highest stress
    /// is sufficient").
    StressFactor {
        /// Fraction of links (by count) to exclude, in `[0, 1)`.
        exclude_fraction: f64,
    },
    /// Demand-aware: minimize incremental power while fitting the
    /// peak-hour matrix `d_peak` (capacity-checked greedy).
    PeakMatrix(TrafficMatrix),
    /// Reuse the existing OSPF-InvCap routing table (REsPoNse-ospf).
    Ospf,
    /// GreenTE-like k-shortest-paths heuristic on a peak matrix
    /// (REsPoNse-heuristic).
    Heuristic {
        /// Paths explored per OD pair.
        k: usize,
        /// Peak traffic matrix driving the heuristic.
        peak: TrafficMatrix,
    },
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Total number of energy-critical paths `N` per OD pair (paper: 3;
    /// always-on and failover take two, on-demand gets `N − 2`).
    pub num_paths: usize,
    /// REsPoNse-lat latency slack β (e.g. `Some(0.25)`); `None` disables
    /// constraint (4).
    pub beta: Option<f64>,
    /// On-demand construction strategy.
    pub strategy: OnDemandStrategy,
    /// Off-peak matrix `d_low` for demand-aware always-on planning;
    /// `None` uses the ε-demand minimal power tree (the evaluation
    /// default: "assuming no knowledge of the traffic matrix, as we do
    /// for our evaluation").
    pub offpeak: Option<TrafficMatrix>,
    /// Feasibility-oracle settings for demand-aware modes.
    pub oracle: OracleConfig,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            num_paths: 3,
            beta: None,
            strategy: OnDemandStrategy::StressFactor {
                exclude_fraction: 0.2,
            },
            offpeak: None,
            oracle: OracleConfig::default(),
        }
    }
}

impl PlannerConfig {
    /// Builder-style `num_paths` override (grid sweeps).
    pub fn with_num_paths(mut self, num_paths: usize) -> Self {
        self.num_paths = num_paths;
        self
    }

    /// Builder-style latency-slack override; `None` disables the bound.
    pub fn with_beta(mut self, beta: Option<f64>) -> Self {
        self.beta = beta;
        self
    }

    /// Builder-style oracle safety-margin override (the paper's `sm`).
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.oracle.margin = margin;
        self
    }

    /// Builder-style stress-exclusion override; only meaningful with the
    /// stress-factor on-demand strategy.
    pub fn with_exclude_fraction(mut self, exclude_fraction: f64) -> Self {
        self.strategy = OnDemandStrategy::StressFactor { exclude_fraction };
        self
    }
}

/// The off-line REsPoNse planner.
pub struct Planner<'a> {
    topo: &'a Topology,
    power: &'a PowerModel,
}

impl<'a> Planner<'a> {
    /// Bind a planner to a topology and power model.
    pub fn new(topo: &'a Topology, power: &'a PowerModel) -> Self {
        Planner { topo, power }
    }

    /// Plan tables for every ordered pair of edge nodes.
    pub fn plan(&self, cfg: &PlannerConfig) -> PathTables {
        let nodes = self.topo.edge_nodes();
        let mut pairs = Vec::new();
        for &o in &nodes {
            for &d in &nodes {
                if o != d {
                    pairs.push((o, d));
                }
            }
        }
        self.plan_pairs(cfg, &pairs)
    }

    /// Plan tables for the given OD pairs. Unreachable pairs are skipped.
    pub fn plan_pairs(&self, cfg: &PlannerConfig, od_pairs: &[(NodeId, NodeId)]) -> PathTables {
        assert!(cfg.num_paths >= 2, "need at least always-on + failover");
        let topo = self.topo;

        // ---- 1. always-on -------------------------------------------
        let mut always_on: Vec<(NodeId, NodeId, Path)> = Vec::new();
        match &cfg.offpeak {
            Some(dlow) => {
                // Demand-aware: minimal subset for d_low, then route every
                // requested pair on that subset (ε additions when a pair is
                // not in d_low).
                if let Some(r) = optimal_subset(topo, self.power, dlow, &cfg.oracle) {
                    for &(o, d) in od_pairs {
                        let p = r
                            .routes
                            .get(o, d)
                            .cloned()
                            .or_else(|| shortest_path(topo, o, d, &|_| 1.0, Some(&r.active)));
                        if let Some(p) = p {
                            always_on.push((o, d, p));
                        }
                    }
                } else {
                    // d_low itself infeasible: fall back to the ε tree.
                    always_on = self.epsilon_tree_paths(od_pairs);
                }
            }
            None => {
                always_on = self.epsilon_tree_paths(od_pairs);
            }
        }

        // REsPoNse-lat: enforce the delay bound by rerouting violators.
        if let Some(beta) = cfg.beta {
            let mut ospf = ShortestPathTrees::new(topo, &invcap_weight(topo), None);
            let mut on = elements_of(topo, always_on.iter().map(|(_, _, p)| p));
            for entry in always_on.iter_mut() {
                let (o, d, ref p) = *entry;
                let ospf_delay = match ospf.path(topo, o, d) {
                    Some(sp) => sp.latency(topo),
                    None => continue,
                };
                let bound = (1.0 + beta) * ospf_delay;
                if p.latency(topo) <= bound + 1e-12 {
                    continue;
                }
                let np = {
                    let w = self.new_power_weight(&on, None);
                    shortest_path_bounded(topo, o, d, &w, bound, None)
                };
                if let Some(np) = np {
                    add_elements(topo, &mut on, &np);
                    entry.2 = np;
                }
                // If even the bounded search fails, keep the tree path —
                // mirrors the paper falling back when constraint (4) is
                // unsatisfiable.
            }
        }

        // ---- 2. on-demand --------------------------------------------
        // Elements already on are carried forward between rounds
        // (X_i = Y = 1 fixed, §4.2).
        let mut on = elements_of(topo, always_on.iter().map(|(_, _, p)| p));
        let rounds = cfg.num_paths - 2;
        // Each pair's slot: the index of its first always-on entry. A
        // pair listed twice reads and extends its first entry's paths.
        let mut first = HashMap::new();
        let slot: Vec<usize> = always_on
            .iter()
            .enumerate()
            .map(|(i, &(o, d, _))| *first.entry((o, d)).or_insert(i))
            .collect();
        // Per round, each slot's on-demand path: the first the round
        // routed for the pair.
        let mut on_demand: Vec<Vec<Option<Path>>> = Vec::new();
        // Path sets accumulated so far (per slot), used for stress.
        let mut assigned: Vec<Vec<Path>> =
            always_on.iter().map(|(_, _, p)| vec![p.clone()]).collect();

        for _ in 0..rounds {
            let table: Vec<(NodeId, NodeId, Path)> = match &cfg.strategy {
                OnDemandStrategy::StressFactor { exclude_fraction } => {
                    let excluded =
                        self.top_stress_links(assigned.iter().flatten(), *exclude_fraction);
                    let mut avoiding = ShortestPathTrees::new(
                        topo,
                        &self.new_power_weight(&on, Some(&excluded)),
                        None,
                    );
                    let mut free =
                        ShortestPathTrees::new(topo, &self.new_power_weight(&on, None), None);
                    always_on
                        .iter()
                        .filter_map(|&(o, d, _)| {
                            // Fall back to the unexcluded search when the
                            // exclusion disconnects the pair (the paper
                            // keeps full connectivity in every table).
                            avoiding
                                .path(topo, o, d)
                                .or_else(|| free.path(topo, o, d))
                                .map(|p| (o, d, p))
                        })
                        .collect()
                }
                OnDemandStrategy::PeakMatrix(peak) => {
                    // Route d_peak with min incremental power and capacity
                    // checks; prefer already-on elements.
                    self.route_peak_incremental(peak, &on, od_pairs, &cfg.oracle)
                }
                OnDemandStrategy::Ospf => {
                    let mut ospf = ShortestPathTrees::new(topo, &invcap_weight(topo), None);
                    always_on
                        .iter()
                        .filter_map(|&(o, d, _)| ospf.path(topo, o, d).map(|p| (o, d, p)))
                        .collect()
                }
                OnDemandStrategy::Heuristic { k, peak } => {
                    match greente_like(topo, self.power, peak, *k, &cfg.oracle) {
                        Some(r) => always_on
                            .iter()
                            .filter_map(|&(o, d, _)| {
                                r.routes
                                    .get(o, d)
                                    .cloned()
                                    .or_else(|| shortest_path(topo, o, d, &|_| 1.0, None))
                                    .map(|p| (o, d, p))
                            })
                            .collect(),
                        None => Vec::new(),
                    }
                }
            };
            let mut by_slot = vec![None; always_on.len()];
            for (o, d, p) in table {
                add_elements(topo, &mut on, &p);
                if let Some(&k) = first.get(&(o, d)) {
                    assigned[k].push(p.clone());
                    by_slot[k].get_or_insert(p);
                }
            }
            on_demand.push(by_slot);
        }

        // ---- 3. failover ----------------------------------------------
        let mut tables = PathTables::new();
        let mut disjoint = DisjointSearch::new(topo, |_| 1.0, None);
        for (&(o, d, ref aon), &k) in always_on.iter().zip(&slot) {
            let installed: Vec<&Path> = std::iter::once(aon)
                .chain(on_demand.iter().filter_map(|t| t[k].as_ref()))
                .collect();
            let failover = disjoint.failover(o, d, &installed);
            tables.insert(
                o,
                d,
                OdPaths {
                    always_on: aon.clone(),
                    on_demand: installed[1..].iter().map(|&p| p.clone()).collect(),
                    failover,
                },
            );
        }
        tables
    }

    /// ε-demand minimal power routing (§4.1, demand-oblivious): "one can
    /// set all flows d(O,D) equal to a small value ε (e.g., 1 bit/s) to
    /// obtain a minimal-power routing with full connectivity between any
    /// (O,D) pair". We feed the ε matrix to the subset optimizer (exact
    /// on tiny nets, ensemble greedy otherwise); with ε demands the
    /// capacity constraints are non-binding and the result is a
    /// minimal-power spanning structure — the *minimal power tree* of
    /// Fig. 2a. The MST construction below remains as a fast fallback.
    fn epsilon_tree_paths(&self, od_pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId, Path)> {
        let eps_tm = TrafficMatrix::new(
            od_pairs
                .iter()
                .map(|&(o, d)| ecp_traffic::Demand {
                    origin: o,
                    dst: d,
                    rate: 1.0,
                })
                .collect(),
        );
        if let Some(r) = optimal_subset(self.topo, self.power, &eps_tm, &OracleConfig::default()) {
            let mut out = Vec::with_capacity(od_pairs.len());
            for &(o, d) in od_pairs {
                let p = r
                    .routes
                    .get(o, d)
                    .cloned()
                    .or_else(|| shortest_path(self.topo, o, d, &|_| 1.0, Some(&r.active)));
                if let Some(p) = p {
                    out.push((o, d, p));
                }
            }
            return out;
        }
        self.mst_tree_paths(od_pairs)
    }

    /// Kruskal-MST fallback: minimum link-power spanning tree pruned to
    /// the required endpoints, with every OD pair routed on its unique
    /// tree path. Used only if the subset optimizer fails.
    fn mst_tree_paths(&self, od_pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId, Path)> {
        let topo = self.topo;
        let mut required = vec![false; topo.node_count()];
        for &(o, d) in od_pairs {
            required[o.idx()] = true;
            required[d.idx()] = true;
        }

        // Kruskal on physical links, weight = link power (ports +
        // amplifiers). Chassis power is handled by the leaf pruning.
        let mut links: Vec<ArcId> = topo.link_ids().collect();
        links.sort_by(|&a, &b| {
            self.power
                .link_full(topo, a)
                .partial_cmp(&self.power.link_full(topo, b))
                .unwrap()
                .then(a.cmp(&b))
        });
        let mut dsu: Vec<usize> = (0..topo.node_count()).collect();
        fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
            if dsu[x] != x {
                let r = find(dsu, dsu[x]);
                dsu[x] = r;
            }
            dsu[x]
        }
        let mut tree_adj: Vec<Vec<(NodeId, ArcId)>> = vec![Vec::new(); topo.node_count()];
        for l in links {
            let arc = topo.arc(l);
            let (ru, rv) = (find(&mut dsu, arc.src.idx()), find(&mut dsu, arc.dst.idx()));
            if ru != rv {
                dsu[ru] = rv;
                tree_adj[arc.src.idx()].push((arc.dst, l));
                // reverse arc for the other direction
                let rl = topo.reverse(l).unwrap_or(l);
                tree_adj[arc.dst.idx()].push((arc.src, rl));
            }
        }
        // Steiner refinement: drop leaves that are not required.
        loop {
            let mut removed = false;
            for n in 0..topo.node_count() {
                if !required[n] && tree_adj[n].len() == 1 {
                    let (peer, _) = tree_adj[n][0];
                    tree_adj[n].clear();
                    tree_adj[peer.idx()].retain(|&(q, _)| q.idx() != n);
                    removed = true;
                }
            }
            if !removed {
                break;
            }
        }

        // Unique tree path per OD pair via BFS.
        let mut out = Vec::with_capacity(od_pairs.len());
        for &(o, d) in od_pairs {
            if let Some(p) = tree_path(&tree_adj, o, d) {
                out.push((o, d, p));
            }
        }
        out
    }

    /// Weight preferring already-on elements: 1 per hop plus a scaled
    /// power term for elements that would have to be woken, plus
    /// `INFINITY` for excluded links.
    fn new_power_weight<'w>(
        &'w self,
        on: &'w ActiveSet,
        excluded: Option<&[ArcId]>,
    ) -> impl Fn(ArcId) -> f64 + 'w {
        let topo = self.topo;
        let pmax = topo
            .link_ids()
            .map(|l| {
                self.power.link_full(topo, l)
                    + self.power.chassis(topo, topo.arc(l).src)
                    + self.power.chassis(topo, topo.arc(l).dst)
            })
            .fold(1.0, f64::max);
        let excluded = excluded.map(|ex| {
            let mut mask = vec![false; topo.arc_count()];
            for l in ex {
                mask[l.idx()] = true;
            }
            mask
        });
        move |a: ArcId| {
            if excluded
                .as_ref()
                .is_some_and(|mask| mask[topo.link_of(a).idx()])
            {
                return f64::INFINITY;
            }
            let mut new_power = 0.0;
            if !on.link_bit(topo, a) {
                new_power += self.power.link_full(topo, a);
            }
            let arc = topo.arc(a);
            if !on.node_on(arc.src) {
                new_power += self.power.chassis(topo, arc.src);
            }
            if !on.node_on(arc.dst) {
                new_power += self.power.chassis(topo, arc.dst);
            }
            1.0 + 4.0 * new_power / pmax
        }
    }

    /// Stress factor per physical link (§4.2): flows routed over the link
    /// in the given assignments, divided by capacity. Returns the top
    /// `fraction` of links by stress (only links with non-zero stress are
    /// excluded — idle links are exactly the ones on-demand paths should
    /// use).
    pub fn top_stress_links<'p>(
        &self,
        paths: impl Iterator<Item = &'p Path>,
        fraction: f64,
    ) -> Vec<ArcId> {
        let topo = self.topo;
        let mut count = vec![0usize; topo.arc_count()];
        for p in paths {
            if let Some(arcs) = p.arcs(topo) {
                for a in arcs {
                    count[topo.link_of(a).idx()] += 1;
                }
            }
        }
        let mut stressed: Vec<(ArcId, f64)> = topo
            .link_ids()
            .map(|l| (l, count[l.idx()] as f64 / topo.arc(l).capacity))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        stressed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let take = ((topo.link_count() as f64) * fraction).floor() as usize;
        stressed.into_iter().take(take).map(|(l, _)| l).collect()
    }

    /// Demand-aware on-demand routing: place `d_peak` flows largest-first
    /// on min-incremental-power admissible paths (capacities respected).
    fn route_peak_incremental(
        &self,
        peak: &TrafficMatrix,
        on: &ActiveSet,
        od_pairs: &[(NodeId, NodeId)],
        oracle: &OracleConfig,
    ) -> Vec<(NodeId, NodeId, Path)> {
        let topo = self.topo;
        let mut demands = peak.demands().to_vec();
        demands.sort_by(|a, b| b.rate.partial_cmp(&a.rate).unwrap());
        let cap: Vec<f64> = topo
            .arc_ids()
            .map(|a| topo.arc(a).capacity * oracle.margin)
            .collect();
        let mut load = vec![0.0; topo.arc_count()];
        let mut grown = on.clone();
        let mut out: Vec<(NodeId, NodeId, Path)> = Vec::new();
        let wanted: HashSet<(NodeId, NodeId)> = od_pairs.iter().copied().collect();
        let mut routed = HashSet::new();
        for d in &demands {
            if !wanted.contains(&(d.origin, d.dst)) {
                continue;
            }
            let p = {
                let base = self.new_power_weight(&grown, None);
                let w = |a: ArcId| {
                    if load[a.idx()] + d.rate > cap[a.idx()] + 1e-6 {
                        f64::INFINITY
                    } else {
                        base(a)
                    }
                };
                shortest_path(topo, d.origin, d.dst, &w, None)
                    .or_else(|| shortest_path(topo, d.origin, d.dst, &base, None))
            };
            if let Some(p) = p {
                if let Some(arcs) = p.arcs(topo) {
                    for a in &arcs {
                        load[a.idx()] += d.rate;
                    }
                }
                add_elements(topo, &mut grown, &p);
                routed.insert((d.origin, d.dst));
                out.push((d.origin, d.dst, p));
            }
        }
        // Pairs not in the peak matrix still get a table entry.
        for &(o, d) in od_pairs {
            if !routed.contains(&(o, d)) {
                let p = {
                    let base = self.new_power_weight(&grown, None);
                    shortest_path(topo, o, d, &base, None)
                };
                if let Some(p) = p {
                    add_elements(topo, &mut grown, &p);
                    routed.insert((o, d));
                    out.push((o, d, p));
                }
            }
        }
        out
    }
}

/// Active set touching exactly the given paths.
fn elements_of<'p>(topo: &Topology, paths: impl Iterator<Item = &'p Path>) -> ActiveSet {
    let mut used = Vec::new();
    for p in paths {
        if let Some(arcs) = p.arcs(topo) {
            used.extend(arcs);
        }
    }
    ActiveSet::from_used_arcs(topo, used)
}

fn add_elements(topo: &Topology, on: &mut ActiveSet, p: &Path) {
    if let Some(arcs) = p.arcs(topo) {
        for a in arcs {
            on.set_link(topo, a, true);
            on.set_node(topo.arc(a).src, true);
            on.set_node(topo.arc(a).dst, true);
        }
    }
}

/// BFS through a tree adjacency to extract the unique path.
fn tree_path(adj: &[Vec<(NodeId, ArcId)>], o: NodeId, d: NodeId) -> Option<Path> {
    if o == d {
        return Some(Path::trivial(o));
    }
    let n = adj.len();
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[o.idx()] = true;
    queue.push_back(o);
    while let Some(u) = queue.pop_front() {
        if u == d {
            break;
        }
        for &(v, _) in &adj[u.idx()] {
            if !seen[v.idx()] {
                seen[v.idx()] = true;
                prev[v.idx()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    if !seen[d.idx()] {
        return None;
    }
    let mut rev = vec![d];
    let mut cur = d;
    while let Some(p) = prev[cur.idx()] {
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    Path::try_new(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecp_topo::gen::{fig3, geant};
    use ecp_topo::{MBPS, MS};
    use ecp_traffic::{gravity_matrix, random_od_pairs};

    fn fig3_pairs() -> (Topology, Vec<(NodeId, NodeId)>, ecp_topo::gen::Fig3Nodes) {
        let (t, n) = fig3(10.0 * MBPS, 16.67 * MS, false);
        (t, vec![(n.a, n.k), (n.c, n.k)], n)
    }

    #[test]
    fn fig3_plan_matches_paper_example() {
        let (t, pairs, n) = fig3_pairs();
        let pm = PowerModel::cisco12000();
        let tables = Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables.validate(&t), Ok(()));
        // Both sources share a common always-on path through E (tree).
        let pa = tables.get(n.a, n.k).unwrap();
        let pc = tables.get(n.c, n.k).unwrap();
        assert!(pa.always_on.visits(n.e) || pa.always_on.visits(n.d) || pa.always_on.visits(n.f));
        // Always-on active set must be strictly smaller than full net.
        let s = tables.always_on_active(&t);
        assert!(s.nodes_on_count() < t.node_count());
        // On-demand and failover exist.
        assert_eq!(pa.on_demand.len(), 1);
        assert_eq!(pc.on_demand.len(), 1);
        // Failover is link-disjoint from always-on here (theta shape).
        assert!(!pa.failover.shares_link_with(&pa.always_on, &t));
    }

    #[test]
    fn always_on_is_a_tree_routing() {
        // On GÉANT the ε always-on paths must be consistent (each OD pair
        // routed, paths valid).
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 100, 3);
        let tables = Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
        assert_eq!(tables.len(), pairs.len());
        assert_eq!(tables.validate(&t), Ok(()));
        // Tree property: always-on active link count <= nodes - 1.
        let s = tables.always_on_active(&t);
        assert!(s.links_on_count(&t) < t.node_count());
    }

    #[test]
    fn always_on_saves_power_vs_full() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let tables = Planner::new(&t, &pm).plan(&PlannerConfig::default());
        let s = tables.always_on_active(&t);
        // With every GÉANT PoP an endpoint, all chassis stay on; savings
        // come from sleeping line cards (ports are ~35% of full power).
        let frac = pm.network_power(&t, &s) / pm.full_power(&t);
        assert!(frac < 0.85, "always-on subset should save >15%, got {frac}");
    }

    #[test]
    fn beta_bounds_latency() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 120, 5);
        let beta = 0.25;
        let cfg = PlannerConfig {
            beta: Some(beta),
            ..Default::default()
        };
        let tables = Planner::new(&t, &pm).plan_pairs(&cfg, &pairs);
        let w = invcap_weight(&t);
        let mut violations = 0;
        for (&(o, d), paths) in tables.iter() {
            let ospf = shortest_path(&t, o, d, &w, None).unwrap().latency(&t);
            if paths.always_on.latency(&t) > (1.0 + beta) * ospf + 1e-9 {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "REsPoNse-lat must satisfy constraint (4)");
    }

    #[test]
    fn lat_variant_uses_no_fewer_elements() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 120, 5);
        let plain = Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
        let lat = Planner::new(&t, &pm).plan_pairs(
            &PlannerConfig {
                beta: Some(0.25),
                ..Default::default()
            },
            &pairs,
        );
        let p_plain = pm.network_power(&t, &plain.always_on_active(&t));
        let p_lat = pm.network_power(&t, &lat.always_on_active(&t));
        assert!(
            p_lat >= p_plain - 1e-6,
            "latency bound can only add elements"
        );
    }

    #[test]
    fn stress_factor_exclusion_changes_on_demand() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 100, 7);
        let tables = Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
        // At least some pairs must get an on-demand path different from
        // always-on (that is the whole point of extra capacity).
        let distinct = tables
            .iter()
            .filter(|(_, p)| {
                p.on_demand
                    .first()
                    .map(|od| od != &p.always_on)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            distinct as f64 > 0.3 * tables.len() as f64,
            "only {distinct}/{} pairs have distinct on-demand paths",
            tables.len()
        );
    }

    #[test]
    fn more_paths_more_tables() {
        let (t, pairs, n) = fig3_pairs();
        let pm = PowerModel::cisco12000();
        let cfg = PlannerConfig {
            num_paths: 4,
            ..Default::default()
        };
        let tables = Planner::new(&t, &pm).plan_pairs(&cfg, &pairs);
        assert_eq!(tables.get(n.a, n.k).unwrap().on_demand.len(), 2);
        assert_eq!(tables.get(n.a, n.k).unwrap().num_paths(), 4);
    }

    #[test]
    fn ospf_strategy_uses_invcap_paths() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 60, 11);
        let cfg = PlannerConfig {
            strategy: OnDemandStrategy::Ospf,
            ..Default::default()
        };
        let tables = Planner::new(&t, &pm).plan_pairs(&cfg, &pairs);
        let w = invcap_weight(&t);
        for (&(o, d), p) in tables.iter() {
            let ospf = shortest_path(&t, o, d, &w, None).unwrap();
            assert_eq!(p.on_demand[0], ospf);
        }
    }

    #[test]
    fn heuristic_strategy_plans() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 60, 13);
        let peak = gravity_matrix(&t, &pairs, 3e9);
        let cfg = PlannerConfig {
            strategy: OnDemandStrategy::Heuristic { k: 4, peak },
            ..Default::default()
        };
        let tables = Planner::new(&t, &pm).plan_pairs(&cfg, &pairs);
        assert_eq!(tables.len(), pairs.len());
        assert_eq!(tables.validate(&t), Ok(()));
    }

    #[test]
    fn peak_matrix_strategy_plans() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 60, 17);
        let peak = gravity_matrix(&t, &pairs, 3e9);
        let cfg = PlannerConfig {
            strategy: OnDemandStrategy::PeakMatrix(peak),
            ..Default::default()
        };
        let tables = Planner::new(&t, &pm).plan_pairs(&cfg, &pairs);
        assert_eq!(tables.len(), pairs.len());
        assert_eq!(tables.validate(&t), Ok(()));
    }

    #[test]
    fn offpeak_aware_always_on() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 60, 19);
        let dlow = gravity_matrix(&t, &pairs, 5e8);
        let cfg = PlannerConfig {
            offpeak: Some(dlow.clone()),
            ..Default::default()
        };
        let tables = Planner::new(&t, &pm).plan_pairs(&cfg, &pairs);
        assert_eq!(tables.len(), pairs.len());
        // The always-on subset must actually carry d_low.
        let mut rs = ecp_routing::RouteSet::new();
        for (_, p) in tables.iter() {
            rs.insert(p.always_on.clone());
        }
        assert!(rs.is_feasible(&t, &dlow, 1.0));
    }

    #[test]
    fn failover_mostly_disjoint_on_geant() {
        let t = geant();
        let pm = PowerModel::cisco12000();
        let pairs = random_od_pairs(&t, 100, 23);
        let tables = Planner::new(&t, &pm).plan_pairs(&PlannerConfig::default(), &pairs);
        let frac = tables.failover_disjoint_fraction(&t);
        assert!(
            frac > 0.6,
            "GEANT redundancy allows mostly-disjoint failover: {frac}"
        );
    }

    #[test]
    fn stress_links_ordering() {
        let (t, pairs, n) = fig3_pairs();
        let pm = PowerModel::cisco12000();
        let planner = Planner::new(&t, &pm);
        let tables = planner.plan_pairs(&PlannerConfig::default(), &pairs);
        let paths: Vec<&Path> = tables.iter().map(|(_, p)| &p.always_on).collect();
        let top = planner.top_stress_links(paths.clone().into_iter(), 0.2);
        // 11 links * 0.2 = 2 links; the shared middle links must rank top.
        assert_eq!(top.len(), 2);
        for l in &top {
            let arc = t.arc(*l);
            let on_middle =
                [n.e, n.h, n.k].contains(&arc.src) || [n.e, n.h, n.k].contains(&arc.dst);
            assert!(on_middle, "stressed links lie on the shared middle path");
        }
    }
}
