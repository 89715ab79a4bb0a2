//! Property-based tests for REsPoNseTE decision logic and the planner.

use ecp_power::PowerModel;
use ecp_topo::gen::random_waxman;
use ecp_topo::{NodeId, MBPS};
use proptest::prelude::*;
use respons_core::te::{
    apply_step_into, converge_shares, decide_shares_into, waterfill_target_into, PathView, TeConfig,
};
use respons_core::{Planner, PlannerConfig};

/// One decision into a fresh buffer.
fn decide(rate: f64, views: &[PathView], current: &[f64], cfg: &TeConfig) -> Vec<f64> {
    let mut out = Vec::new();
    decide_shares_into(rate, views, current, cfg, &mut out);
    out
}

fn arb_views() -> impl Strategy<Value = Vec<PathView>> {
    proptest::collection::vec(
        ((-5e6f64..20e6), proptest::bool::weighted(0.85)).prop_map(|(headroom, available)| {
            PathView {
                headroom,
                available,
            }
        }),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shares are always a probability vector (or all-zero when nothing
    /// is available).
    #[test]
    fn shares_form_probability_vector(
        views in arb_views(),
        start in proptest::collection::vec(0.0f64..1.0, 1..5),
        rate in 0.0f64..30e6,
        step in 0.05f64..1.0,
    ) {
        prop_assume!(views.len() == start.len());
        let mut cur = start.clone();
        let s: f64 = cur.iter().sum();
        if s > 0.0 {
            cur.iter_mut().for_each(|v| *v /= s);
        }
        let cfg = TeConfig { step, ..Default::default() };
        let new = decide(rate, &views, &cur, &cfg);
        prop_assert_eq!(new.len(), views.len());
        let sum: f64 = new.iter().sum();
        let any_up = views.iter().any(|p| p.available);
        if any_up {
            prop_assert!((sum - 1.0).abs() < 1e-6, "{new:?}");
        } else {
            prop_assert_eq!(sum, 0.0);
        }
        for (i, v) in new.iter().enumerate() {
            prop_assert!(*v >= 0.0 && *v <= 1.0 + 1e-9);
            if !views[i].available {
                prop_assert_eq!(*v, 0.0, "share on failed path");
            }
        }
    }

    /// Iterating the controller against a fixed environment converges
    /// (no oscillation — the TeXCP-style stability claim).
    #[test]
    fn controller_converges(views in arb_views(), rate in 0.0f64..30e6) {
        let n = views.len();
        let start = vec![1.0 / n as f64; n];
        let cfg = TeConfig::default();
        let (fixed, rounds) = converge_shares(rate, &views, &start, &cfg, 200);
        prop_assert!(rounds < 200, "no fixpoint in 200 rounds");
        // A fixpoint: one more application changes nothing.
        let again = decide(rate, &views, &fixed, &cfg);
        let delta: f64 = again.iter().zip(&fixed).map(|(a, b)| (a - b).abs()).sum();
        prop_assert!(delta < 1e-4, "not a fixpoint: {fixed:?} -> {again:?}");
    }

    /// When the first (always-on) path can absorb the whole rate, the
    /// converged allocation aggregates everything there — the energy
    /// objective.
    #[test]
    fn aggregation_when_first_path_fits(extra in 0.0f64..10e6, rate in 1e5f64..10e6) {
        let views = [
            PathView { headroom: rate + extra, available: true },
            PathView { headroom: 20e6, available: true },
        ];
        let (fixed, _) = converge_shares(rate, &views, &[0.5, 0.5], &TeConfig::default(), 100);
        prop_assert!(fixed[0] > 0.99, "not aggregated: {fixed:?}");
    }

    /// The in-place kernels give the same bits into a dirty buffer
    /// (non-empty, wrong length, arbitrary garbage) — the reuse pattern
    /// of the zero-alloc decision path — as into a fresh one.
    #[test]
    fn into_kernels_bit_identical_even_with_dirty_buffers(
        views in arb_views(),
        start in proptest::collection::vec(0.0f64..1.0, 1..5),
        rate in 0.0f64..30e6,
        step in 0.05f64..1.0,
        dirty in proptest::collection::vec(-3.0f64..3.0, 0..8),
    ) {
        prop_assume!(views.len() == start.len());
        let mut cur = start.clone();
        let s: f64 = cur.iter().sum();
        if s > 0.0 {
            cur.iter_mut().for_each(|v| *v /= s);
        }
        let cfg = TeConfig { step, ..Default::default() };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

        let mut want_target = Vec::new();
        waterfill_target_into(rate, &views, &mut want_target);
        let mut out = dirty.clone();
        waterfill_target_into(rate, &views, &mut out);
        prop_assert_eq!(bits(&out), bits(&want_target));

        let mut want_step = Vec::new();
        apply_step_into(&views, &cur, &want_target, cfg.step, cfg.min_share, &mut want_step);
        let mut out = dirty.clone();
        apply_step_into(&views, &cur, &want_target, cfg.step, cfg.min_share, &mut out);
        prop_assert_eq!(bits(&out), bits(&want_step));

        // The decision is its two halves, whatever the buffer held.
        let mut out = dirty;
        decide_shares_into(rate, &views, &cur, &cfg, &mut out);
        prop_assert_eq!(bits(&out), bits(&want_step));
        prop_assert_eq!(bits(&out), bits(&decide(rate, &views, &cur, &cfg)));
    }
}

proptest! {
    // Planner property tests run fewer cases (each plans a full network).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Planner output is always structurally valid and complete for
    /// connected topologies, for any number of paths.
    #[test]
    fn planner_output_valid(seed in 0u64..50, num_paths in 2usize..5) {
        let topo = random_waxman(10, 0.6, 0.3, 10.0 * MBPS, seed);
        let pm = PowerModel::cisco12000();
        let pairs: Vec<(NodeId, NodeId)> =
            vec![(NodeId(0), NodeId(5)), (NodeId(3), NodeId(8)), (NodeId(9), NodeId(1))];
        let cfg = PlannerConfig { num_paths, ..Default::default() };
        let tables = Planner::new(&topo, &pm).plan_pairs(&cfg, &pairs);
        prop_assert_eq!(tables.len(), pairs.len());
        prop_assert_eq!(tables.validate(&topo), Ok(()));
        for (_, od) in tables.iter() {
            prop_assert_eq!(od.on_demand.len(), num_paths - 2);
        }
        // The always-on active set powers every always-on path.
        let s = tables.always_on_active(&topo);
        for (_, od) in tables.iter() {
            for a in od.always_on.arcs(&topo).unwrap() {
                prop_assert!(s.arc_on(&topo, a));
            }
        }
    }
}
