//! Buffer independence of [`ControlPolicy::decide`] for every policy.
//!
//! The zero-alloc decision path rides on a contract: `decide` clears
//! the caller's buffer first, so what the buffer held on entry — a
//! reused, dirty, wrong-length scratch vector — never changes the
//! result. This drives two fresh instances of each policy through the
//! same random trajectory — one deciding into a fresh buffer every
//! round, one into a dirty buffer carried across rounds — and compares
//! `f64::to_bits` on every round's output. Internal state (EWMA
//! memories, cooldown counters) must therefore evolve identically too,
//! or the trajectories diverge on a later round.

use ecp_control::{
    AdaptiveEwma, ControlPolicy, DampedStep, Desync, Ewma, Hysteresis, Observation, Undamped,
};
use proptest::prelude::*;
use respons_core::te::{PathView, TeConfig};

/// One observation round: which agent observes, its offered rate, and
/// the raw per-path (headroom, available) readings.
type Round = (usize, f64, Vec<(f64, bool)>);

/// A trajectory plus a fixed path count `n` (1..=4) shared by all
/// agents, so per-agent policy state persists across rounds instead of
/// being reset by a path-count change every time. Each round carries 4
/// raw readings; the test uses the first `n`.
fn arb_trajectory() -> impl Strategy<Value = (usize, Vec<Round>)> {
    let round = (
        0usize..3,
        0.0f64..25e6,
        proptest::collection::vec(((-5e6f64..20e6), proptest::bool::weighted(0.8)), 4usize),
    );
    (1usize..5, proptest::collection::vec(round, 1..16))
}

/// Drives `a` with a fresh buffer per round and `b` with one dirty
/// reused buffer through the same trajectory and asserts bit-identical
/// shares on every round.
fn check_parity<P: ControlPolicy>(
    mut a: P,
    mut b: P,
    n: usize,
    rounds: &[Round],
) -> Result<(), TestCaseError> {
    let te = TeConfig::default();
    let mut current: Vec<Vec<f64>> = vec![vec![1.0 / n as f64; n]; 3];
    // Deliberately dirty and wrong-length on entry, then reused across
    // rounds exactly like the simulator's scratch buffer.
    let mut out = vec![-7.25; n + 3];
    for (i, (agent, rate, raw)) in rounds.iter().enumerate() {
        let views: Vec<PathView> = raw[..n]
            .iter()
            .map(|&(headroom, available)| PathView {
                headroom,
                available,
            })
            .collect();
        let obs = Observation {
            agent: *agent,
            t: i as f64 * 0.5,
            offered: *rate,
            paths: &views,
            current: &current[*agent],
            te: &te,
        };
        let mut want = Vec::new();
        a.decide(&obs, &mut want);
        b.decide(&obs, &mut out);
        let got_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_bits, want_bits, "round {} diverged", i);
        current[*agent] = want;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decide_into_parity((n, rounds) in arb_trajectory()) {
        check_parity(Undamped, Undamped, n, &rounds)?;
        check_parity(Ewma::new(0.3), Ewma::new(0.3), n, &rounds)?;
        check_parity(AdaptiveEwma::new(0.2, 1.0), AdaptiveEwma::new(0.2, 1.0), n, &rounds)?;
        check_parity(Hysteresis::new(0.15, 0.02), Hysteresis::new(0.15, 0.02), n, &rounds)?;
        check_parity(DampedStep::new(0.5, 2), DampedStep::new(0.5, 2), n, &rounds)?;
        check_parity(Desync::new(1), Desync::new(1), n, &rounds)?;
    }
}
