//! REsPoNseTE decision logic (§4.4) — pure functions, actuated by
//! `ecp-simnet`.
//!
//! "Agents aggregate the traffic on the always-on paths as long as the
//! target SLO is achieved, and start activating the on-demand paths when
//! that is no longer the case. [...] Just as in TeXCP, we implement a
//! stable controller to prevent oscillations."
//!
//! The agent of an OD pair holds a share vector over its installed paths
//! (priority order: always-on, on-demand…, failover). Each control round
//! it computes a *target* allocation by water-filling its offered rate
//! into the paths' headroom in priority order, then moves the live
//! shares a bounded step toward the target (bounded-gain first-order
//! tracking).
//!
//! What that mechanism guarantees, and what it does not:
//!
//! * One agent against a fixed target converges: with step ≤ 1 the
//!   shares close a fixed fraction of the gap each round and reach a
//!   fixed point (the `controller_converges` proptest pins this).
//! * Agents that water-fill into shared headroom in the same round do
//!   not face a fixed target: each claims the headroom the others
//!   observe too. Such coupled agents can lag or cycle —
//!   `fig8a-pop-access` shows a 59.5 s tracking lag, and the rolling
//!   maintenance day sits in exact limit cycles of period 1 to 12
//!   rounds (see ROADMAP). The simulator does not simulate those cycles
//!   round by round: `ecp_simnet::Simulation::run_until` detects a
//!   loop whose whole state repeats and fast-forwards it to the next
//!   event, replaying the skipped rounds' effects and telemetry bit for
//!   bit (71,737 of the rolling day's 86,402 rounds). The cycles
//!   themselves are a property of this law, not of the simulator.

use serde::{Deserialize, Serialize};
use std::cell::Cell;

thread_local! {
    static WATERFILL_ITERS: Cell<u64> = const { Cell::new(0) };
}

/// Monotonic count of waterfill inner-loop iterations executed on the
/// calling thread. Telemetry sinks read the delta around a control
/// round; sound under rayon because one simulation runs wholly on one
/// worker thread. Always on — a thread-local increment per path is
/// noise next to the arithmetic it counts.
pub fn waterfill_iterations() -> u64 {
    WATERFILL_ITERS.with(|c| c.get())
}

/// What an agent knows about one of its paths at decision time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathView {
    /// Headroom in bits/s: `min over arcs (threshold·C − load_others)`,
    /// i.e. how much of *this agent's* traffic the path can absorb
    /// without violating the utilization SLO. May be negative.
    pub headroom: f64,
    /// Whether the path is usable (no failed element). Sleeping elements
    /// count as available — sending share to them is what triggers
    /// wake-up.
    pub available: bool,
}

/// REsPoNseTE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TeConfig {
    /// Target maximum link utilization (the ISP's SLO knob; activating
    /// on-demand paths *sooner* than saturation, §4.4).
    pub threshold: f64,
    /// Gain toward the target per control round, in `(0, 1]`. 1.0 jumps
    /// immediately; smaller values converge geometrically (stable).
    pub step: f64,
    /// Shares below this fraction are zeroed (lets idle paths drain and
    /// sleep instead of carrying dribbles).
    pub min_share: f64,
}

impl Default for TeConfig {
    fn default() -> Self {
        TeConfig {
            threshold: 0.9,
            step: 0.7,
            min_share: 1e-3,
        }
    }
}

/// Compute the new share vector for one OD agent into `out`.
///
/// * `offered_rate` — the agent's current demand (bits/s).
/// * `paths` — per-installed-path view, in priority order (always-on
///   first, failover last).
/// * `current` — current shares (fractions of `offered_rate`, summing to
///   ≈ 1 when the agent is sending).
///
/// Writes the updated shares (same length, non-negative, summing to 1
/// when any path is available). `out` is cleared first, so its previous
/// contents are irrelevant; the one buffer holds the water-filled
/// target and is then stepped and hygiened in place. `out` only ever
/// grows to `paths.len()`, so a reused buffer reaches a fixed capacity
/// and the decision allocates nothing.
pub fn decide_shares_into(
    offered_rate: f64,
    paths: &[PathView],
    current: &[f64],
    cfg: &TeConfig,
    out: &mut Vec<f64>,
) {
    assert_eq!(paths.len(), current.len());
    assert!(!paths.is_empty());
    waterfill_target_into(offered_rate, paths, out);
    step_hygiene_in_place(paths, current, cfg.step, cfg.min_share, out);
}

/// The target allocation of one control round: the offered rate
/// water-filled into the paths' headroom in priority order (the first
/// half of [`decide_shares_into`], exposed so alternative control
/// policies — `ecp-control` — can reuse it against modified path
/// views). Clears `out` and fills it, allocating nothing once the
/// buffer's capacity has reached `paths.len()`.
pub fn waterfill_target_into(offered_rate: f64, paths: &[PathView], out: &mut Vec<f64>) {
    let n = paths.len();
    out.clear();
    out.resize(n, 0.0);
    let target = &mut out[..];
    let mut iters = 0u64;
    if offered_rate <= 0.0 {
        // Nothing to send: target everything to the always-on path so the
        // rest can sleep.
        if let Some(first_up) = paths.iter().position(|p| p.available) {
            target[first_up] = 1.0;
        }
    } else {
        let mut remaining = offered_rate;
        for (i, p) in paths.iter().enumerate() {
            iters += 1;
            if !p.available {
                continue;
            }
            let take = remaining.min(p.headroom.max(0.0));
            if take > 0.0 {
                target[i] = take / offered_rate;
                remaining -= take;
            }
            if remaining <= 1e-9 {
                break;
            }
        }
        if remaining > 1e-9 {
            // Overload: no headroom anywhere for the excess. Spill it on
            // the last available path (congestion is reported by the
            // simulator; the paper's REsPoNse is "no worse than existing
            // approaches under unexpected peaks").
            if let Some(last_up) = paths.iter().rposition(|p| p.available) {
                target[last_up] += remaining / offered_rate;
            }
        }
    }
    WATERFILL_ITERS.with(|c| c.set(c.get() + iters));
}

/// Bounded-step tracking toward a target plus share hygiene (the second
/// half of [`decide_shares_into`]): move `step` of the gap, vacate
/// unavailable paths immediately, drop dust below `min_share`, clamp,
/// and renormalize. Exposed for `ecp-control` policies that modulate
/// the target or the gain but keep the stability mechanism. Clears
/// `out`, copies `target` in and steps it in place — no allocation
/// once the buffer's capacity has reached `target.len()`.
pub fn apply_step_into(
    paths: &[PathView],
    current: &[f64],
    target: &[f64],
    step: f64,
    min_share: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend_from_slice(target);
    step_hygiene_in_place(paths, current, step, min_share, out);
}

/// The shared tail of [`apply_step_into`] / [`decide_shares_into`]:
/// `new` holds the target on entry and the stepped, hygiened share
/// vector on exit. One loop steps (`c + step * (t - c)`), vacates,
/// drops dust, clamps and sums each share, then the vector is
/// renormalized. Every share goes through the same operations in the
/// same order as the original four passes, and the sum starts at
/// `-0.0` as `Iterator::sum` does, so results are bit-identical (the
/// four-pass form is the test oracle).
fn step_hygiene_in_place(
    paths: &[PathView],
    current: &[f64],
    step: f64,
    min_share: f64,
    new: &mut [f64],
) {
    let n = new.len();
    assert!(paths.len() == n && current.len() == n);
    let mut sum = -0.0_f64;
    for i in 0..n {
        let c = current[i];
        let mut v = c + step * (new[i] - c);
        // Unavailable paths are vacated immediately (failure reaction is
        // not rate-limited; the paper shifts traffic off failed paths
        // promptly).
        if !paths[i].available {
            v = 0.0;
        }
        // Hygiene: drop dust, clamp.
        if v < min_share {
            v = 0.0;
        }
        v = v.clamp(0.0, 1.0);
        new[i] = v;
        sum += v;
    }
    if sum > 0.0 {
        for v in new.iter_mut() {
            *v /= sum;
        }
    } else if let Some(first_up) = paths.iter().position(|p| p.available) {
        new[first_up] = 1.0;
    }
}

/// Convergence helper: apply [`decide_shares_into`] against a *fixed*
/// environment until shares stop moving — the fixed-target convergence
/// check of the tests.
pub fn converge_shares(
    offered_rate: f64,
    paths: &[PathView],
    start: &[f64],
    cfg: &TeConfig,
    max_rounds: usize,
) -> (Vec<f64>, usize) {
    let mut cur = start.to_vec();
    let mut next = Vec::with_capacity(paths.len());
    for round in 0..max_rounds {
        decide_shares_into(offered_rate, paths, &cur, cfg, &mut next);
        let delta: f64 = next.iter().zip(&cur).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut cur, &mut next);
        if delta < 1e-6 {
            return (cur, round + 1);
        }
    }
    (cur, max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn decide(rate: f64, paths: &[PathView], current: &[f64], cfg: &TeConfig) -> Vec<f64> {
        let mut out = Vec::new();
        decide_shares_into(rate, paths, current, cfg, &mut out);
        out
    }

    #[test]
    fn aggregates_on_always_on_when_it_fits() {
        let cfg = TeConfig::default();
        let paths = [up(10e6), up(10e6)];
        // Start spread 50/50; demand 5 Mbps fits entirely on always-on.
        let (shares, rounds) = converge_shares(5e6, &paths, &[0.5, 0.5], &cfg, 50);
        assert!(
            (shares[0] - 1.0).abs() < 1e-3,
            "all traffic on always-on: {shares:?}"
        );
        assert!(shares[1] < 1e-3);
        assert!(rounds < 30, "geometric convergence");
    }

    #[test]
    fn spills_to_on_demand_when_overloaded() {
        let cfg = TeConfig::default();
        // Always-on can absorb 4 Mbps, demand is 10 Mbps.
        let paths = [up(4e6), up(20e6)];
        let (shares, _) = converge_shares(10e6, &paths, &[1.0, 0.0], &cfg, 50);
        assert!(
            (shares[0] - 0.4).abs() < 0.02,
            "always-on filled to headroom: {shares:?}"
        );
        assert!((shares[1] - 0.6).abs() < 0.02, "excess on on-demand");
    }

    #[test]
    fn failure_vacates_immediately() {
        let cfg = TeConfig::default();
        let paths = [down(), up(20e6)];
        let shares = decide(5e6, &paths, &[1.0, 0.0], &cfg);
        assert_eq!(shares[0], 0.0, "failed path vacated in one round");
        assert!((shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn total_overload_still_sends() {
        let cfg = TeConfig::default();
        let paths = [up(1e6), up(1e6)];
        let (shares, _) = converge_shares(10e6, &paths, &[1.0, 0.0], &cfg, 50);
        let sum: f64 = shares.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "shares always sum to 1: {shares:?}"
        );
        // Both paths filled; excess lands on the last one.
        assert!(shares[1] > shares[0]);
    }

    #[test]
    fn zero_demand_parks_on_always_on() {
        let cfg = TeConfig::default();
        let shares = decide(0.0, &[up(1e6), up(1e6)], &[0.3, 0.7], &cfg);
        let (conv, _) = converge_shares(0.0, &[up(1e6), up(1e6)], &shares, &cfg, 50);
        assert!((conv[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn no_path_available_keeps_sane_output() {
        let cfg = TeConfig::default();
        let shares = decide(5e6, &[down(), down()], &[0.5, 0.5], &cfg);
        assert_eq!(shares, vec![0.0, 0.0]);
    }

    #[test]
    fn negative_headroom_treated_as_zero() {
        let cfg = TeConfig::default();
        let paths = [up(-5e6), up(20e6)];
        let (shares, _) = converge_shares(5e6, &paths, &[1.0, 0.0], &cfg, 50);
        assert!(
            shares[0] < 1e-3,
            "overloaded always-on evacuated: {shares:?}"
        );
    }

    #[test]
    fn step_bounds_movement() {
        let cfg = TeConfig {
            step: 0.5,
            ..Default::default()
        };
        let paths = [up(10e6), up(10e6)];
        let s1 = decide(5e6, &paths, &[0.0, 1.0], &cfg);
        // Target is [1, 0]; one round with step .5 moves halfway.
        assert!((s1[0] - 0.5).abs() < 1e-9, "{s1:?}");
    }

    #[test]
    fn convergence_within_two_rounds_at_high_gain() {
        // The paper reports ~2 RTTs to shift traffic; with step 0.7 two
        // rounds cover 91% of the gap.
        let cfg = TeConfig::default();
        let paths = [up(10e6), up(10e6)];
        let s1 = decide(5e6, &paths, &[0.0, 1.0], &cfg);
        let s2 = decide(5e6, &paths, &s1, &cfg);
        assert!(s2[0] > 0.9, "two rounds shift >90% of traffic: {s2:?}");
    }

    #[test]
    fn shares_stay_normalized_under_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let cfg = TeConfig::default();
        for _ in 0..200 {
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
            let new = decide(rate, &paths, &cur, &cfg);
            let sum: f64 = new.iter().sum();
            assert!(new.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
            assert!(
                (sum - 1.0).abs() < 1e-6 || sum == 0.0,
                "sum must be 1 (or 0 if nothing available): {new:?}"
            );
        }
    }

    /// The four-pass form of [`step_hygiene_in_place`] — step, vacate,
    /// dust and clamp, `Iterator::sum` — kept as the oracle of the
    /// one-loop kernel.
    fn step_hygiene_four_pass(
        paths: &[PathView],
        current: &[f64],
        step: f64,
        min_share: f64,
        new: &mut [f64],
    ) {
        for (v, &c) in new.iter_mut().zip(current) {
            *v = c + step * (*v - c);
        }
        for (i, p) in paths.iter().enumerate() {
            if !p.available {
                new[i] = 0.0;
            }
        }
        for v in new.iter_mut() {
            if *v < min_share {
                *v = 0.0;
            }
            *v = v.clamp(0.0, 1.0);
        }
        let sum: f64 = new.iter().sum();
        if sum > 0.0 {
            for v in new.iter_mut() {
                *v /= sum;
            }
        } else if let Some(first_up) = paths.iter().position(|p| p.available) {
            new[first_up] = 1.0;
        }
    }

    /// A share, target, step or dust floor: signed zeros, 1, NaN, ±∞
    /// or a value in [-2, 3), so inputs fall outside [0, 1] too.
    fn edgy() -> impl Strategy<Value = f64> {
        (0usize..9, -2.0f64..3.0).prop_map(|(k, x)| match k {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The one-loop kernel is bit-identical to the four passes. The
        /// `shape` forces the corners every few cases: no dust floor,
        /// no available path, an all-zero target, and all `-0.0`
        /// shares with no dust floor.
        #[test]
        fn one_loop_hygiene_is_bit_identical_to_four_passes(
            cells in proptest::collection::vec(
                (edgy(), edgy(), proptest::bool::weighted(0.7)),
                1..6,
            ),
            step in edgy(),
            min_share in edgy(),
            shape in 0usize..6,
        ) {
            let mut target: Vec<f64> = cells.iter().map(|c| c.0).collect();
            let mut current: Vec<f64> = cells.iter().map(|c| c.1).collect();
            let mut paths: Vec<PathView> = cells
                .iter()
                .map(|c| PathView { headroom: 0.0, available: c.2 })
                .collect();
            let mut min_share = min_share;
            match shape {
                0 => min_share = 0.0,
                1 => paths.iter_mut().for_each(|p| p.available = false),
                2 => target.iter_mut().for_each(|t| *t = 0.0),
                3 => {
                    min_share = 0.0;
                    target.iter_mut().for_each(|t| *t = -0.0);
                    current.iter_mut().for_each(|c| *c = -0.0);
                }
                _ => {}
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let mut want = target.clone();
            step_hygiene_four_pass(&paths, &current, step, min_share, &mut want);
            let mut got = target;
            step_hygiene_in_place(&paths, &current, step, min_share, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
