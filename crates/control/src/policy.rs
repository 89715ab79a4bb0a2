//! The control-policy interface and its implementations.
//!
//! Every policy reuses the two halves of the original REsPoNseTE
//! decision ([`respons_core::te`]): the priority water-filling target
//! (`waterfill_target_into`) and the bounded-step tracking with share
//! hygiene (`apply_step_into`). Damping variants modulate what flows into
//! those halves — the observed headroom (EWMA), the target choice
//! (hysteresis), the gain (damped step), or the observation instant
//! (desynchronization) — never the hygiene itself, so every policy
//! keeps the invariants the simulator relies on (shares in `[0, 1]`,
//! summing to 1 when a path is available, failed paths vacated in one
//! round).
//!
//! A policy's parameters are described once, by `ControlSpec` in
//! `ecp-scenario`, which validates them; the constructors here take the
//! values directly.

use respons_core::te::{
    apply_step_into, decide_shares_into, waterfill_target_into, PathView, TeConfig,
};

/// Everything one agent knows at decision time.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// The agent's stable index (flow order in the simulation).
    pub agent: usize,
    /// Current time (seconds) — the instant the observation was taken.
    pub t: f64,
    /// The agent's offered rate (bits/s).
    pub offered: f64,
    /// Per-installed-path view in priority order (always-on first).
    pub paths: &'a [PathView],
    /// Current share vector.
    pub current: &'a [f64],
    /// The TE configuration in force (threshold / step / min-share;
    /// reconfigurable mid-run via `SimEvent::SetTeConfig`).
    pub te: &'a TeConfig,
}

/// An online TE control policy: per-agent share decisions, optionally
/// at per-agent staggered instants.
pub trait ControlPolicy: Send {
    /// The agent's observation phase offset within one control
    /// interval, in `[0, interval)`. `0` means the agent decides at the
    /// round boundary, batched with every other phase-0 agent on one
    /// simultaneous load snapshot — the original behavior. A positive
    /// phase makes the simulator re-observe loads at `round start +
    /// phase` for this agent alone, which is what breaks simultaneous
    /// observation.
    fn phase(&self, agent: usize, interval: f64) -> f64 {
        let _ = (agent, interval);
        0.0
    }

    /// Write the agent's new share vector into `out`. `out` is cleared
    /// first: its previous contents and capacity never change the
    /// result (the `decide_into_parity` proptest pins a dirty reused
    /// buffer against a fresh one). The built-in policies keep their
    /// scratch per policy, so once the buffers are warm a decision
    /// allocates nothing.
    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>);

    /// Whether [`ControlPolicy::decide`] is a **pure function of the
    /// observation's** `(offered, paths, current, te)` — independent of
    /// `t`, call count, and any internal state. When true, the
    /// simulator may skip an agent's decision entirely while its
    /// observation is unchanged (the skipped call would have returned
    /// the shares already in place), which with incremental load
    /// accounting turns quiescent control rounds into no-ops.
    /// Policies with memory (EWMA estimates, cooldown counters) must
    /// return `false`: their state evolves on every call even under
    /// identical observations.
    fn memoryless(&self) -> bool {
        false
    }
}

// ---- Undamped (the baseline) ----------------------------------------------

/// The original REsPoNseTE decision, unchanged: water-fill + bounded
/// step on the raw snapshot. Bit-identical to the pre-policy TE path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Undamped;

impl ControlPolicy for Undamped {
    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        decide_shares_into(obs.offered, obs.paths, obs.current, obs.te, out);
    }

    fn memoryless(&self) -> bool {
        true
    }
}

// ---- EWMA-smoothed headroom -----------------------------------------------

/// Per-agent smoothed-headroom memory in one flat buffer: all agents'
/// per-path `(smoothed headroom, availability-it-was-built-under)`
/// records live contiguously in `state`, addressed by a per-agent
/// `(offset, len)` span — no `Vec<Vec<…>>`, so decisions touch one
/// cache-friendly allocation that stops growing once every agent has
/// decided once.
#[derive(Debug, Clone, Default)]
struct FlatViewState {
    /// All agents' per-path records, region per agent.
    state: Vec<(f64, bool)>,
    /// Per agent: `(offset, len)` into `state`; `len == 0` means the
    /// agent has no region yet.
    spans: Vec<(u32, u32)>,
}

impl FlatViewState {
    /// The agent's region, (re)initialized from the raw observation
    /// when absent or when its path count changed (a changed count
    /// appends a fresh region at the tail; the old one is abandoned —
    /// path sets are fixed for a simulation's lifetime, this is pure
    /// robustness).
    fn region(&mut self, agent: usize, paths: &[PathView]) -> &mut [(f64, bool)] {
        if self.spans.len() <= agent {
            self.spans.resize(agent + 1, (0, 0));
        }
        let (off, len) = self.spans[agent];
        if len as usize != paths.len() {
            let off = self.state.len() as u32;
            self.state
                .extend(paths.iter().map(|p| (p.headroom, p.available)));
            self.spans[agent] = (off, paths.len() as u32);
            return &mut self.state[off as usize..];
        }
        &mut self.state[off as usize..(off + len) as usize]
    }
}

/// The shared EWMA core of [`Ewma`] and [`AdaptiveEwma`]: fold one
/// observation into the per-agent smoothed-headroom memory at gain
/// `alpha`, then decide on the smoothed views. The views live in
/// `views`, a scratch buffer reused across decisions.
///
/// Availability is never smoothed — failure reaction stays immediate —
/// and a path's estimate resets to the raw observation whenever its
/// availability flips (stale pre-failure values must not linger). The
/// multiplicative update form gives exact pass-through at `alpha = 1`
/// (bit-parity with [`Undamped`]).
fn ewma_decide(
    state: &mut FlatViewState,
    views: &mut Vec<PathView>,
    obs: &Observation<'_>,
    alpha: f64,
    out: &mut Vec<f64>,
) {
    let mem = state.region(obs.agent, obs.paths);
    views.clear();
    views.extend(obs.paths.iter().zip(mem.iter_mut()).map(|(p, m)| {
        if p.available != m.1 {
            *m = (p.headroom, p.available);
        } else {
            m.0 = alpha * p.headroom + (1.0 - alpha) * m.0;
        }
        PathView {
            headroom: m.0,
            available: p.available,
        }
    }));
    decide_shares_into(obs.offered, views, obs.current, obs.te, out);
}

/// Exponentially-smoothed headroom estimation: the agent decides
/// against the trend of each path's headroom instead of one round's
/// transient, so a single round of collectively-freed headroom no
/// longer triggers a collective re-aggregation. (Smoothing semantics:
/// see [`ewma_decide`].)
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    /// All agents' smoothed-headroom memory, flat.
    state: FlatViewState,
    /// Smoothed-view scratch, reused across decisions.
    views: Vec<PathView>,
}

impl Ewma {
    /// A policy with smoothing gain `alpha` in `(0, 1]`: the smoothed
    /// headroom moves `alpha` of the way to each new observation.
    /// `1.0` disables smoothing (identical to [`Undamped`]).
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha,
            state: FlatViewState::default(),
            views: Vec::new(),
        }
    }
}

impl ControlPolicy for Ewma {
    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        ewma_decide(&mut self.state, &mut self.views, obs, self.alpha, out);
    }
}

// ---- Adaptive-alpha EWMA ----------------------------------------------------

/// Load-dependent smoothing (the ROADMAP's adaptive-alpha follow-up to
/// [`Ewma`]): the effective gain interpolates between `alpha_max` and
/// `alpha_min` with the agent's *raw* overload pressure — the fraction
/// of its offered rate that does not fit the first available path's
/// observed headroom. Lightly-loaded agents track observations almost
/// raw (no added latency where the fixed-alpha EWMA pays some), while
/// agents in the collective spill/re-aggregate regime smooth heavily
/// exactly where the oscillation lives.
///
/// Like [`Ewma`], availability is never smoothed and a path's estimate
/// resets to the raw observation when its availability flips, so
/// failure reaction stays immediate (the shared [`ewma_decide`] core).
#[derive(Debug, Clone)]
pub struct AdaptiveEwma {
    alpha_min: f64,
    alpha_max: f64,
    /// All agents' smoothed-headroom memory, flat.
    state: FlatViewState,
    /// Smoothed-view scratch, reused across decisions.
    views: Vec<PathView>,
}

impl AdaptiveEwma {
    /// A policy whose gain runs from `alpha_max` in `(0, 1]`, used when
    /// the agent's demand fits its first available path (`1.0` makes
    /// light load exactly [`Undamped`], keeping the Fig.-7 adaptation
    /// latency), down to `alpha_min` in `(0, alpha_max]`, used at full
    /// overload pressure (the oscillation-prone regime).
    pub fn new(alpha_min: f64, alpha_max: f64) -> Self {
        AdaptiveEwma {
            alpha_min,
            alpha_max,
            state: FlatViewState::default(),
            views: Vec::new(),
        }
    }
}

impl ControlPolicy for AdaptiveEwma {
    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        let pressure = spill_fraction(obs);
        let alpha = self.alpha_max - (self.alpha_max - self.alpha_min) * pressure;
        ewma_decide(&mut self.state, &mut self.views, obs, alpha, out);
    }
}

/// The agent's overload pressure in `[0, 1]` from the raw observation:
/// the fraction of its offered rate that does not fit the first
/// available path's headroom (0 when it fits or nothing is offered).
fn spill_fraction(obs: &Observation<'_>) -> f64 {
    match obs.paths.iter().position(|p| p.available) {
        Some(first) if obs.offered > 0.0 => {
            ((obs.offered - obs.paths[first].headroom.max(0.0)) / obs.offered).clamp(0.0, 1.0)
        }
        _ => 0.0,
    }
}

// ---- Hysteresis -------------------------------------------------------------

/// Asymmetric spill / re-aggregate thresholds. Spilling to on-demand
/// paths stays eager (SLO protection, full headroom); re-aggregating
/// back requires the demand to fit within `1 - gap` of the observed
/// headroom, so the collective "everyone saw the freed headroom"
/// pull-back only happens when there is genuine margin. A dead-band
/// suppresses moves too small to matter.
#[derive(Debug, Clone)]
pub struct Hysteresis {
    gap: f64,
    dead_band: f64,
    /// Scratch: eager (full-headroom) water-fill target.
    t_spill: Vec<f64>,
    /// Scratch: conservative (shrunk-headroom) water-fill target.
    t_reagg: Vec<f64>,
    /// Scratch: the shrunk-headroom views.
    shrunk: Vec<PathView>,
}

impl Hysteresis {
    /// A policy with re-aggregation margin `gap` in `[0, 1)` — traffic
    /// only moves *back* toward higher-priority paths if it still fits
    /// with every headroom shrunk by this fraction; spilling uses full
    /// headroom — and `dead_band` ≥ 0: target moves with an L1 distance
    /// below it are ignored (the agent holds), suppressing dribble
    /// reconfigurations.
    pub fn new(gap: f64, dead_band: f64) -> Self {
        Hysteresis {
            gap,
            dead_band,
            t_spill: Vec::new(),
            t_reagg: Vec::new(),
            shrunk: Vec::new(),
        }
    }

    /// Share mass beyond the first available (highest-priority usable)
    /// path — the "spill measure" mode transitions are defined on.
    fn spill_mass(paths: &[PathView], shares: &[f64]) -> f64 {
        match paths.iter().position(|p| p.available) {
            Some(first) => shares
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != first)
                .map(|(_, &s)| s)
                .sum(),
            None => 0.0,
        }
    }
}

impl ControlPolicy for Hysteresis {
    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        const EPS: f64 = 1e-9;
        waterfill_target_into(obs.offered, obs.paths, &mut self.t_spill);
        self.shrunk.clear();
        self.shrunk.extend(obs.paths.iter().map(|p| PathView {
            headroom: p.headroom * (1.0 - self.gap),
            available: p.available,
        }));
        waterfill_target_into(obs.offered, &self.shrunk, &mut self.t_reagg);

        let cur = Self::spill_mass(obs.paths, obs.current);
        let target: &[f64] = if Self::spill_mass(obs.paths, &self.t_spill) > cur + EPS {
            // The SLO needs more spill: act on the raw observation.
            &self.t_spill
        } else if Self::spill_mass(obs.paths, &self.t_reagg) < cur - EPS {
            // Re-aggregation fits even under shrunk headroom: pull back,
            // but only as far as the conservative target.
            &self.t_reagg
        } else {
            // Inside the hysteresis band: hold.
            obs.current
        };
        let moved: f64 = target
            .iter()
            .zip(obs.current)
            .map(|(&t, &c)| (t - c).abs())
            .sum();
        let target = if moved < self.dead_band {
            obs.current
        } else {
            target
        };
        apply_step_into(
            obs.paths,
            obs.current,
            target,
            obs.te.step,
            obs.te.min_share,
            out,
        );
    }

    fn memoryless(&self) -> bool {
        true
    }
}

// ---- Damped step ------------------------------------------------------------

/// Load-proportional gain scaling with a per-flow cooldown: the closer
/// an agent is to overload, the smaller its tracking step — heavily
/// loaded agents stop slamming their full gain into the same freed
/// headroom at once — and each reconfiguration is followed by a few
/// quiet rounds in which the network's reaction can be observed.
#[derive(Debug, Clone)]
pub struct DampedStep {
    damp: f64,
    cooldown_rounds: u32,
    /// Remaining cooldown rounds per agent.
    cool: Vec<u32>,
    /// Scratch: the water-fill target.
    target: Vec<f64>,
}

impl DampedStep {
    /// A policy with gain damping `damp` in `[0, 1)` — the effective
    /// step shrinks by up to this fraction as the agent's spill
    /// fraction (share of offered rate that does not fit the first
    /// available path) approaches 1; `0.0` leaves the gain untouched —
    /// and a hold of `cooldown_rounds` control rounds after any actual
    /// share move (`0` disables it; with `damp = 0` too the policy is
    /// [`Undamped`]).
    pub fn new(damp: f64, cooldown_rounds: u32) -> Self {
        DampedStep {
            damp,
            cooldown_rounds,
            cool: Vec::new(),
            target: Vec::new(),
        }
    }
}

impl ControlPolicy for DampedStep {
    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        if self.cool.len() <= obs.agent {
            self.cool.resize(obs.agent + 1, 0);
        }
        if self.cool[obs.agent] > 0 {
            self.cool[obs.agent] -= 1;
            // Hold: no tracking move, but hygiene still runs so failed
            // paths are vacated immediately.
            apply_step_into(
                obs.paths,
                obs.current,
                obs.current,
                obs.te.step,
                obs.te.min_share,
                out,
            );
            return;
        }
        let step = obs.te.step * (1.0 - self.damp * spill_fraction(obs));
        waterfill_target_into(obs.offered, obs.paths, &mut self.target);
        apply_step_into(
            obs.paths,
            obs.current,
            &self.target,
            step,
            obs.te.min_share,
            out,
        );
        let moved: f64 = out
            .iter()
            .zip(obs.current)
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        if moved > 1e-6 {
            self.cool[obs.agent] = self.cooldown_rounds;
        }
    }
}

// ---- Desynchronization ------------------------------------------------------

/// Seeded per-agent phase jitter: agent `i` observes at `round start +
/// uᵢ · interval` with `uᵢ ∈ [0, 1)` derived deterministically from the
/// salt, so agents see each other's fresh moves instead of a shared
/// stale snapshot. The decision itself is the undamped one.
#[derive(Debug, Clone, Copy)]
pub struct Desync {
    salt: u64,
}

impl Desync {
    /// A policy with the given phase salt.
    pub fn new(salt: u64) -> Self {
        Desync { salt }
    }

    /// The agent's deterministic phase fraction in `[0, 1)`.
    pub fn phase_fraction(&self, agent: usize) -> f64 {
        splitmix64(self.salt ^ (agent as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as f64
            / (u64::MAX as f64 + 1.0)
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ControlPolicy for Desync {
    fn phase(&self, agent: usize, interval: f64) -> f64 {
        self.phase_fraction(agent) * interval
    }

    fn decide(&mut self, obs: &Observation<'_>, out: &mut Vec<f64>) {
        decide_shares_into(obs.offered, obs.paths, obs.current, obs.te, out);
    }

    fn memoryless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(headroom: f64) -> PathView {
        PathView {
            headroom,
            available: true,
        }
    }

    fn down() -> PathView {
        PathView {
            headroom: 0.0,
            available: false,
        }
    }

    /// One decision into a fresh buffer.
    fn decide<P: ControlPolicy + ?Sized>(p: &mut P, o: &Observation<'_>) -> Vec<f64> {
        let mut out = Vec::new();
        p.decide(o, &mut out);
        out
    }

    fn obs<'a>(
        offered: f64,
        paths: &'a [PathView],
        current: &'a [f64],
        te: &'a TeConfig,
    ) -> Observation<'a> {
        Observation {
            agent: 0,
            t: 0.0,
            offered,
            paths,
            current,
            te,
        }
    }

    #[test]
    fn undamped_equals_decide_shares() {
        let te = TeConfig::default();
        let paths = [up(4e6), up(20e6)];
        let cur = [1.0, 0.0];
        let mut want = Vec::new();
        decide_shares_into(10e6, &paths, &cur, &te, &mut want);
        assert_eq!(decide(&mut Undamped, &obs(10e6, &paths, &cur, &te)), want);
    }

    #[test]
    fn ewma_alpha_one_equals_undamped() {
        let te = TeConfig::default();
        let mut e = Ewma::new(1.0);
        let mut u = Undamped;
        let mut cur = vec![0.5, 0.5];
        // Several rounds with varying headroom: alpha = 1 keeps no
        // memory, so the trajectory matches the baseline exactly.
        for (h0, rate) in [(4e6, 10e6), (8e6, 6e6), (1e6, 9e6), (6e6, 2e6)] {
            let paths = [up(h0), up(20e6)];
            let a = decide(&mut e, &obs(rate, &paths, &cur, &te));
            let b = decide(&mut u, &obs(rate, &paths, &cur, &te));
            assert_eq!(a, b);
            cur = a;
        }
    }

    #[test]
    fn ewma_smooths_transient_headroom_collapse() {
        let te = TeConfig::default();
        let mut e = Ewma::new(0.2);
        let paths_ok = [up(10e6), up(20e6)];
        let cur = vec![1.0, 0.0];
        // Warm the estimate up on comfortable headroom.
        for _ in 0..10 {
            decide(&mut e, &obs(5e6, &paths_ok, &cur, &te));
        }
        // One transiently terrible observation must not evacuate the
        // always-on path the way the raw decision would.
        let paths_bad = [up(-5e6), up(20e6)];
        let smoothed = decide(&mut e, &obs(5e6, &paths_bad, &cur, &te));
        let raw = decide(&mut Undamped, &obs(5e6, &paths_bad, &cur, &te));
        assert!(
            smoothed[0] > raw[0] + 0.3,
            "smoothed keeps traffic aggregated: {smoothed:?} vs raw {raw:?}"
        );
    }

    #[test]
    fn ewma_failure_reaction_is_immediate() {
        let te = TeConfig::default();
        let mut e = Ewma::new(0.1);
        let cur = vec![1.0, 0.0];
        for _ in 0..5 {
            decide(&mut e, &obs(5e6, &[up(10e6), up(20e6)], &cur, &te));
        }
        let shares = decide(&mut e, &obs(5e6, &[down(), up(20e6)], &cur, &te));
        assert_eq!(shares[0], 0.0, "failed path vacated in one round");
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_ewma_degenerate_config_equals_undamped() {
        let te = TeConfig::default();
        let mut a = AdaptiveEwma::new(1.0, 1.0);
        let mut u = Undamped;
        let mut cur = vec![0.5, 0.5];
        for (h0, rate) in [(4e6, 10e6), (8e6, 6e6), (1e6, 9e6), (6e6, 2e6)] {
            let paths = [up(h0), up(20e6)];
            let got = decide(&mut a, &obs(rate, &paths, &cur, &te));
            let want = decide(&mut u, &obs(rate, &paths, &cur, &te));
            assert_eq!(got, want);
            cur = got;
        }
    }

    #[test]
    fn adaptive_ewma_is_raw_at_light_load_and_smooth_under_pressure() {
        let te = TeConfig::default();

        // Light load (offered well within the first path's headroom):
        // pressure is 0, alpha is alpha_max = 1, so the decision equals
        // the raw undamped one even after a history of different
        // observations.
        let mut a = AdaptiveEwma::new(0.1, 1.0);
        let cur = vec![0.6, 0.4];
        for _ in 0..5 {
            decide(&mut a, &obs(2e6, &[up(3e6), up(20e6)], &cur, &te));
        }
        let paths = [up(9e6), up(20e6)];
        let light = decide(&mut a, &obs(2e6, &paths, &cur, &te));
        let raw = decide(&mut Undamped, &obs(2e6, &paths, &cur, &te));
        assert_eq!(light, raw, "no smoothing without overload pressure");

        // Overload pressure: after warming the estimate on comfortable
        // headroom, one transiently terrible overloaded observation is
        // heavily smoothed (like the fixed-alpha EWMA would).
        let mut a = AdaptiveEwma::new(0.1, 1.0);
        let cur = vec![1.0, 0.0];
        for _ in 0..10 {
            decide(&mut a, &obs(5e6, &[up(10e6), up(20e6)], &cur, &te));
        }
        let paths_bad = [up(-5e6), up(20e6)];
        let smoothed = decide(&mut a, &obs(5e6, &paths_bad, &cur, &te));
        let raw = decide(&mut Undamped, &obs(5e6, &paths_bad, &cur, &te));
        assert!(
            smoothed[0] > raw[0] + 0.3,
            "pressure engages the smoothing: {smoothed:?} vs raw {raw:?}"
        );
    }

    #[test]
    fn adaptive_ewma_failure_reaction_is_immediate() {
        let te = TeConfig::default();
        let mut a = AdaptiveEwma::new(0.05, 0.5);
        let cur = vec![1.0, 0.0];
        for _ in 0..5 {
            decide(&mut a, &obs(5e6, &[up(10e6), up(20e6)], &cur, &te));
        }
        let shares = decide(&mut a, &obs(5e6, &[down(), up(20e6)], &cur, &te));
        assert_eq!(shares[0], 0.0, "failed path vacated in one round");
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hysteresis_spills_eagerly_but_reaggregates_with_margin() {
        let te = TeConfig::default();
        let mut h = Hysteresis::new(0.2, 0.0);
        // Overload: spill must act like the baseline.
        let paths = [up(4e6), up(20e6)];
        let cur = vec![1.0, 0.0];
        let spill = decide(&mut h, &obs(10e6, &paths, &cur, &te));
        let base = decide(&mut Undamped, &obs(10e6, &paths, &cur, &te));
        assert_eq!(spill, base, "spilling is not delayed");

        // Borderline: 5 Mbps offered, 2.2 Mbps headroom. The raw target
        // would pull back a little (spill 0.56 < current 0.6), but the
        // 20 %-shrunk headroom supports even less (spill 0.648), so the
        // agent is inside the hysteresis band and holds.
        let paths = [up(2.2e6), up(20e6)];
        let cur = vec![0.4, 0.6];
        let held = decide(&mut h, &obs(5e6, &paths, &cur, &te));
        assert_eq!(held, cur, "inside the hysteresis band: hold");

        // Partial margin: re-aggregation proceeds, but only toward the
        // conservative (shrunk-headroom) target, not the raw one.
        let paths = [up(5.5e6), up(20e6)];
        let back = decide(&mut h, &obs(5e6, &paths, &cur, &te));
        let raw = decide(&mut Undamped, &obs(5e6, &paths, &cur, &te));
        assert!(back[0] > cur[0] + 0.2, "re-aggregates: {back:?}");
        assert!(
            back[0] < raw[0] - 0.05,
            "conservative target: {back:?} vs raw {raw:?}"
        );

        // Ample margin: pulls everything back like the baseline.
        let paths = [up(9e6), up(20e6)];
        let back = decide(&mut h, &obs(5e6, &paths, &cur, &te));
        assert!(
            back[0] > cur[0] + 0.3,
            "re-aggregates with margin: {back:?}"
        );
    }

    #[test]
    fn hysteresis_dead_band_suppresses_dribbles() {
        let te = TeConfig::default();
        let mut h = Hysteresis::new(0.0, 0.05);
        let paths = [up(10e6), up(10e6)];
        // Target is [1, 0]; current is within the dead band of it.
        let cur = vec![0.98, 0.02];
        assert_eq!(decide(&mut h, &obs(5e6, &paths, &cur, &te)), cur);
        // Far from target: moves normally.
        let cur = vec![0.5, 0.5];
        let moved = decide(&mut h, &obs(5e6, &paths, &cur, &te));
        assert!(moved[0] > 0.8, "{moved:?}");
    }

    #[test]
    fn hysteresis_vacates_failed_paths_even_when_holding() {
        let te = TeConfig::default();
        let mut h = Hysteresis::new(0.9, 0.5);
        let paths = [down(), up(20e6)];
        let shares = decide(&mut h, &obs(5e6, &paths, &[1.0, 0.0], &te));
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn damped_step_zero_config_equals_undamped() {
        let te = TeConfig::default();
        let mut d = DampedStep::new(0.0, 0);
        let mut u = Undamped;
        let mut cur = vec![0.0, 1.0];
        for _ in 0..6 {
            let paths = [up(10e6), up(10e6)];
            let a = decide(&mut d, &obs(5e6, &paths, &cur, &te));
            let b = decide(&mut u, &obs(5e6, &paths, &cur, &te));
            assert_eq!(a, b);
            cur = a;
        }
    }

    #[test]
    fn damped_step_shrinks_gain_under_load() {
        let te = TeConfig::default();
        // Fully damped at full spill: offered 10 M, headroom 0 on the
        // priority path -> spill_frac 1 -> step scaled by (1 - damp).
        let mut d = DampedStep::new(0.5, 0);
        let paths = [up(0.0), up(20e6)];
        let cur = vec![1.0, 0.0];
        let damped = decide(&mut d, &obs(10e6, &paths, &cur, &te));
        let raw = decide(&mut Undamped, &obs(10e6, &paths, &cur, &te));
        assert!(
            damped[1] < raw[1] - 0.1,
            "half the gain moves less: {damped:?} vs {raw:?}"
        );
    }

    #[test]
    fn damped_step_cooldown_holds_after_a_move() {
        let te = TeConfig::default();
        let mut d = DampedStep::new(0.0, 2);
        let paths = [up(10e6), up(10e6)];
        let s1 = decide(&mut d, &obs(5e6, &paths, &[0.0, 1.0], &te));
        assert!(s1[0] > 0.5, "first round moves");
        let s2 = decide(&mut d, &obs(5e6, &paths, &s1, &te));
        assert_eq!(s2, s1, "cooldown round 1 holds");
        let s3 = decide(&mut d, &obs(5e6, &paths, &s2, &te));
        assert_eq!(s3, s2, "cooldown round 2 holds");
        let s4 = decide(&mut d, &obs(5e6, &paths, &s3, &te));
        assert!(s4[0] > s3[0], "moves again after the cooldown");
    }

    #[test]
    fn desync_phases_are_deterministic_spread_and_bounded() {
        let d = Desync::new(7);
        let interval = 0.5;
        let phases: Vec<f64> = (0..64).map(|i| d.phase(i, interval)).collect();
        assert_eq!(
            phases,
            (0..64).map(|i| d.phase(i, interval)).collect::<Vec<_>>()
        );
        assert!(phases.iter().all(|&p| (0.0..interval).contains(&p)));
        // Jitter actually spreads agents out.
        let distinct = {
            let mut v = phases.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup();
            v.len()
        };
        assert!(distinct > 48, "phases are spread: {distinct} distinct");
        // A different salt jitters differently.
        assert_ne!(
            phases,
            (0..64)
                .map(|i| Desync::new(8).phase(i, interval))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_policies_keep_share_invariants() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let te = TeConfig::default();
        let mut rng = StdRng::seed_from_u64(17);
        let mut policies: Vec<(&str, Box<dyn ControlPolicy>)> = vec![
            ("undamped", Box::new(Undamped)),
            ("ewma", Box::new(Ewma::new(0.3))),
            ("adaptive-ewma", Box::new(AdaptiveEwma::new(0.2, 1.0))),
            ("hysteresis", Box::new(Hysteresis::new(0.15, 0.02))),
            ("damped-step", Box::new(DampedStep::new(0.5, 2))),
            ("desync", Box::new(Desync::new(3))),
        ];
        for _ in 0..300 {
            let n = rng.gen_range(1..5);
            let paths: Vec<PathView> = (0..n)
                .map(|_| PathView {
                    headroom: rng.gen_range(-5e6..20e6),
                    available: rng.gen_bool(0.8),
                })
                .collect();
            let mut cur: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let s: f64 = cur.iter().sum();
            if s > 0.0 {
                cur.iter_mut().for_each(|v| *v /= s);
            }
            let rate = rng.gen_range(0.0..20e6);
            let agent = rng.gen_range(0..4);
            for (name, p) in policies.iter_mut() {
                let o = Observation {
                    agent,
                    t: 0.0,
                    offered: rate,
                    paths: &paths,
                    current: &cur,
                    te: &te,
                };
                let new = decide(p.as_mut(), &o);
                let sum: f64 = new.iter().sum();
                assert!(
                    new.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)),
                    "{name}: {new:?}"
                );
                assert!(
                    (sum - 1.0).abs() < 1e-6 || sum == 0.0,
                    "{name}: sum {sum} {new:?}"
                );
                for (i, pv) in paths.iter().enumerate() {
                    if !pv.available {
                        assert_eq!(new[i], 0.0, "{name}: failed path vacated");
                    }
                }
            }
        }
    }
}
