//! The strongest correctness statement in the repository, as a
//! property test: on arbitrary random data, for arbitrary k, T,
//! metric and priors, the dynamic TSF-ordered search returns *exactly*
//! the set of subspaces the brute-force oracle returns — pruning never
//! loses an answer and never invents one.

use hos_miner::baselines::{exhaustive_search, ExhaustiveMode};
use hos_miner::core::od::OdMode;
use hos_miner::core::priors::Priors;
use hos_miner::core::search::dynamic_search;
use hos_miner::data::{Dataset, Metric};
use hos_miner::index::{KnnEngine, LinearScan};
use hos_miner::Subspace;
use proptest::prelude::*;

const D: usize = 5;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-20.0f64..20.0, D), 5..60)
        .prop_map(|rows| Dataset::from_rows(&rows).unwrap())
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![Just(Metric::L1), Just(Metric::L2), Just(Metric::LInf)]
}

fn arb_priors() -> impl Strategy<Value = Priors> {
    // Arbitrary valid per-level probabilities: the search result must
    // not depend on the priors (only its cost may).
    (
        prop::collection::vec(0.0f64..1.0, D + 1),
        prop::collection::vec(0.0f64..1.0, D + 1),
    )
        .prop_map(|(up, down)| Priors::from_values(up, down).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dynamic_equals_oracle(ds in arb_dataset(),
                             query in prop::collection::vec(-25.0f64..25.0, D),
                             k in 1usize..6,
                             threshold in 0.5f64..60.0,
                             metric in arb_metric(),
                             priors in arb_priors(),
                             threads in 1usize..4) {
        let engine = LinearScan::new(ds, metric);
        let dynamic = dynamic_search(&engine, &query, None, k, threshold, &priors, threads);
        let oracle = exhaustive_search(
            &engine, &query, None, k, threshold, ExhaustiveMode::Full, OdMode::Raw);
        prop_assert_eq!(dynamic.subspaces(), oracle.subspaces(),
            "metric {:?} k {} T {}", metric, k, threshold);
        // Cost accounting is complete in both.
        let s = &dynamic.stats;
        prop_assert_eq!(s.od_evals + s.pruned_outlier + s.pruned_non_outlier, s.lattice_size);
        // And the dynamic search never does more OD work than the oracle.
        prop_assert!(s.od_evals <= oracle.stats.od_evals);
    }

    /// Membership exclusion: excluding the queried member can only
    /// grow OD values, hence the answer set can only grow.
    #[test]
    fn exclusion_grows_answers(ds in arb_dataset(),
                               k in 1usize..5,
                               threshold in 0.5f64..40.0,
                               metric in arb_metric()) {
        prop_assume!(ds.len() > k + 1);
        let engine = LinearScan::new(ds, metric);
        let query: Vec<f64> = engine.dataset().row(0).to_vec();
        let priors = Priors::uniform(D);
        let with_self = dynamic_search(&engine, &query, None, k, threshold, &priors, 1);
        let without_self = dynamic_search(&engine, &query, Some(0), k, threshold, &priors, 1);
        for s in with_self.subspaces() {
            prop_assert!(without_self.contains(s),
                "answer {} vanished when the query excluded itself", s);
        }
    }

    /// The minimal frontier is always an antichain that covers the
    /// whole answer set.
    #[test]
    fn minimal_frontier_invariants(ds in arb_dataset(),
                                   query in prop::collection::vec(-25.0f64..25.0, D),
                                   k in 1usize..5,
                                   threshold in 0.5f64..40.0) {
        let engine = LinearScan::new(ds, Metric::L2);
        let out = dynamic_search(&engine, &query, None, k, threshold,
                                 &Priors::uniform(D), 1);
        let subspaces: Vec<Subspace> = out.subspaces();
        let minimal = hos_miner::core::minimal_subspaces(&subspaces);
        for a in &minimal {
            for b in &minimal {
                prop_assert!(a == b || !a.is_subset_of(*b));
            }
            prop_assert!(subspaces.contains(a));
        }
        for s in &subspaces {
            prop_assert!(minimal.iter().any(|m| m.is_subset_of(*s)));
        }
        // By upward closure, every superset of an answer is an answer.
        for s in &subspaces {
            for sup in s.supersets(D) {
                prop_assert!(subspaces.contains(&sup),
                    "{} outlying but its superset {} is not", s, sup);
            }
        }
    }

    /// The minimal set computed from the directly evaluated outliers
    /// alone equals the filter over the whole answer set, whatever
    /// order the priors make the search evaluate and prune in.
    #[test]
    fn minimal_from_evaluated_outliers_equals_filter(ds in arb_dataset(),
                                                     query in prop::collection::vec(-25.0f64..25.0, D),
                                                     k in 1usize..5,
                                                     threshold in 0.5f64..40.0,
                                                     metric in arb_metric(),
                                                     priors in arb_priors()) {
        let engine = LinearScan::new(ds, metric);
        let out = dynamic_search(&engine, &query, None, k, threshold, &priors, 1);
        prop_assert_eq!(out.minimal(), hos_miner::core::minimal_subspaces(&out.subspaces()));
        // The answer set comes out ascending by mask, without repeats.
        for w in out.outlying.windows(2) {
            prop_assert!(w[0].subspace.mask() < w[1].subspace.mask());
        }
    }
}
