//! Property-based tests on the aggregation rules (cross-crate, via the facade).
//!
//! These encode the invariants the paper's definitions imply:
//! * Krum always returns one of its inputs and never an obvious outlier when
//!   the honest majority is clustered;
//! * Krum is equivariant under translation and permutation-stable up to ties;
//! * mixing rules (average, median, trimmed mean) stay inside the coordinate
//!   envelope of their inputs;
//! * exact score ties break towards the smallest index (the paper's
//!   footnote 3), for Krum's choice and Multi-Krum's selection order alike.

use krum::aggregation::{
    Aggregator, Average, ClosestToBarycenter, CoordinateWiseMedian, Krum, MultiKrum, TrimmedMean,
};
use krum::tensor::Vector;
use krum_core::naive;
use proptest::prelude::*;

/// Strategy: a cluster of `honest` vectors near a random centre plus `byz`
/// large outliers, with dimension `dim`.
fn clustered_proposals(
    honest: usize,
    byz: usize,
    dim: usize,
) -> impl Strategy<Value = (Vec<Vector>, usize)> {
    let centre = prop::collection::vec(-5.0f64..5.0, dim);
    let noise = prop::collection::vec(prop::collection::vec(-0.5f64..0.5, dim), honest);
    let outliers = prop::collection::vec(prop::collection::vec(50.0f64..500.0, dim), byz);
    (centre, noise, outliers).prop_map(move |(centre, noise, outliers)| {
        let mut proposals: Vec<Vector> = noise
            .into_iter()
            .map(|n| {
                let v: Vec<f64> = centre.iter().zip(&n).map(|(c, x)| c + x).collect();
                Vector::from(v)
            })
            .collect();
        for o in outliers {
            // Outliers are pushed far away from the centre with random signs.
            let v: Vec<f64> = centre
                .iter()
                .zip(&o)
                .enumerate()
                .map(|(i, (c, x))| if i % 2 == 0 { c + x } else { c - x })
                .collect();
            proposals.push(Vector::from(v));
        }
        (proposals, honest)
    })
}

/// Strategy: `distinct` vectors of small integer coordinates, each proposed
/// twice, plus `extra` further copies of them, in a random order. Every
/// vector has a twin, so the best Krum score is always shared by at least
/// two indices, and integer coordinates keep every squared distance and
/// score exact in `f64`: a tie is an exact tie on every path.
fn tied_proposals(distinct: usize, extra: usize, dim: usize) -> impl Strategy<Value = Vec<Vector>> {
    let n = 2 * distinct + extra;
    let pool = prop::collection::vec(prop::collection::vec(-3i32..=3, dim), distinct);
    let extras = prop::collection::vec(0..distinct, extra);
    let order = prop::collection::vec(0u64..u64::MAX, n);
    (pool, extras, order).prop_map(move |(pool, extras, order)| {
        let mut slots: Vec<(u64, usize)> = (0..distinct)
            .flat_map(|k| [k, k])
            .chain(extras)
            .zip(order)
            .map(|(k, key)| (key, k))
            .collect();
        slots.sort_unstable();
        slots
            .into_iter()
            .map(|(_, k)| Vector::from(pool[k].iter().map(|&x| f64::from(x)).collect::<Vec<_>>()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn krum_breaks_exact_ties_towards_the_smallest_index(proposals in tied_proposals(4, 3, 3)) {
        let n = proposals.len();
        let f = 3;
        let scores = naive::krum_scores(&proposals, n - f - 2);
        let krum = Krum::new(n, f).unwrap();
        prop_assert_eq!(krum.scores(&proposals).unwrap(), scores.clone());
        let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let tied: Vec<usize> = (0..n).filter(|&i| scores[i] == best).collect();
        prop_assert!(tied.len() >= 2, "the best vector's twin shares its score");
        let got = krum.aggregate_detailed(&proposals).unwrap().selected_index().unwrap();
        prop_assert_eq!(got, tied[0]);
        prop_assert_eq!(got, naive::krum_choose(&proposals, f));
    }

    #[test]
    fn multi_krum_orders_exact_ties_by_index(proposals in tied_proposals(4, 3, 3), m in 1usize..=8) {
        let n = proposals.len();
        let f = 3;
        let scores = naive::krum_scores(&proposals, n - f - 2);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        order.truncate(m);
        let selected = MultiKrum::new(n, f, m).unwrap().aggregate_detailed(&proposals).unwrap().selected;
        prop_assert_eq!(selected, order);
    }

    #[test]
    fn krum_selects_one_of_the_inputs((proposals, honest) in clustered_proposals(8, 3, 6)) {
        let n = proposals.len();
        let krum = Krum::new(n, 3).unwrap();
        let result = krum.aggregate_detailed(&proposals).unwrap();
        let idx = result.selected_index().unwrap();
        prop_assert!(idx < n);
        prop_assert_eq!(&result.value, &proposals[idx]);
        // With a tight honest cluster and far outliers, the selection is honest.
        prop_assert!(idx < honest, "Krum selected outlier {}", idx);
    }

    #[test]
    fn krum_is_translation_equivariant((proposals, _) in clustered_proposals(7, 2, 5),
                                        shift in prop::collection::vec(-10.0f64..10.0, 5)) {
        let n = proposals.len();
        let krum = Krum::new(n, 2).unwrap();
        let shift = Vector::from(shift);
        let shifted: Vec<Vector> = proposals.iter().map(|v| v + &shift).collect();
        let a = krum.aggregate_detailed(&proposals).unwrap();
        let b = krum.aggregate_detailed(&shifted).unwrap();
        // Same index selected, and the value shifts by exactly `shift`.
        prop_assert_eq!(a.selected_index(), b.selected_index());
        prop_assert!((&a.value + &shift).distance(&b.value) < 1e-9);
    }

    #[test]
    fn krum_scores_are_nonnegative_and_finite((proposals, _) in clustered_proposals(9, 2, 4)) {
        let krum = Krum::new(proposals.len(), 2).unwrap();
        let scores = krum.scores(&proposals).unwrap();
        prop_assert_eq!(scores.len(), proposals.len());
        prop_assert!(scores.iter().all(|s| *s >= 0.0 && s.is_finite()));
    }

    #[test]
    fn multi_krum_selected_set_excludes_far_outliers((proposals, honest) in clustered_proposals(9, 3, 5)) {
        let n = proposals.len();
        let mk = MultiKrum::new(n, 3, n - 3).unwrap();
        let result = mk.aggregate_detailed(&proposals).unwrap();
        prop_assert_eq!(result.selected.len(), n - 3);
        // At most the honest count can be selected from honest indices, but no
        // outlier should be among the selected set when outliers are extreme.
        prop_assert!(result.selected.iter().all(|&i| i < honest));
    }

    #[test]
    fn average_is_permutation_invariant((proposals, _) in clustered_proposals(6, 2, 4),
                                        seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let avg = Average::new();
        let a = avg.aggregate(&proposals).unwrap();
        let mut shuffled = proposals.clone();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        shuffled.shuffle(&mut rng);
        let b = avg.aggregate(&shuffled).unwrap();
        prop_assert!(a.distance(&b) < 1e-9);
    }

    #[test]
    fn mixing_rules_stay_in_the_coordinate_envelope((proposals, _) in clustered_proposals(7, 2, 3)) {
        let rules: Vec<Box<dyn Aggregator>> = vec![
            Box::new(Average::new()),
            Box::new(CoordinateWiseMedian::new()),
            Box::new(TrimmedMean::new(2)),
        ];
        for rule in rules {
            let out = rule.aggregate(&proposals).unwrap();
            for c in 0..out.dim() {
                let lo = proposals.iter().map(|v| v[c]).fold(f64::INFINITY, f64::min);
                let hi = proposals.iter().map(|v| v[c]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(out[c] >= lo - 1e-9 && out[c] <= hi + 1e-9,
                    "rule {} left the envelope on coordinate {}", rule.name(), c);
            }
        }
    }

    #[test]
    fn median_and_trimmed_mean_ignore_extreme_outliers((proposals, honest) in clustered_proposals(9, 2, 4)) {
        // The honest centre coordinate-wise range is within [-5.5, 5.5]; the
        // robust mixing rules must stay close to it despite the outliers.
        let median = CoordinateWiseMedian::new().aggregate(&proposals).unwrap();
        let trimmed = TrimmedMean::new(2).aggregate(&proposals).unwrap();
        let honest_mean = Vector::mean_of(&proposals[..honest]).unwrap();
        prop_assert!(median.distance(&honest_mean) < 10.0);
        prop_assert!(trimmed.distance(&honest_mean) < 10.0);
    }

    #[test]
    fn closest_to_barycenter_picks_an_input((proposals, _) in clustered_proposals(6, 2, 4)) {
        let rule = ClosestToBarycenter::new();
        let result = rule.aggregate_detailed(&proposals).unwrap();
        let idx = result.selected_index().unwrap();
        prop_assert_eq!(&result.value, &proposals[idx]);
    }

    #[test]
    fn krum_agrees_with_definition_on_random_inputs(
        raw in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 4), 9)
    ) {
        // Independent re-implementation of Section 4's definition.
        let proposals: Vec<Vector> = raw.into_iter().map(Vector::from).collect();
        let n = proposals.len();
        let f = 2;
        let krum = Krum::new(n, f).unwrap();
        let got = krum.aggregate_detailed(&proposals).unwrap().selected_index().unwrap();
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for i in 0..n {
            let mut dists: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| proposals[i].squared_distance(&proposals[j]))
                .collect();
            dists.sort_by(f64::total_cmp);
            let score: f64 = dists.iter().take(n - f - 2).sum();
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        prop_assert_eq!(got, best);
    }
}

#[test]
fn krum_and_multikrum_reject_invalid_configurations() {
    assert!(Krum::new(6, 2).is_err());
    assert!(Krum::new(7, 2).is_ok());
    assert!(MultiKrum::new(7, 2, 0).is_err());
    assert!(MultiKrum::new(7, 2, 6).is_err());
    assert!(MultiKrum::new(7, 2, 5).is_ok());
}
