//! Keeps the README's quickstart snippet honest: this is the same
//! code, compiled and asserted.

use hos_miner::core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_miner::{Dataset, Subspace};

#[test]
fn readme_quickstart() -> Result<(), Box<dyn std::error::Error>> {
    let mut rows: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            let x = (i as f64) / 200.0;
            vec![x, x]
        })
        .collect();
    rows.push(vec![0.1, 0.9]); // breaks the x==y structure
    let data = Dataset::from_rows(&rows)?;

    let miner = HosMiner::fit(
        data,
        HosMinerConfig {
            k: 5,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 200,
            },
            ..HosMinerConfig::default()
        },
    )?;

    let result = miner.query_id(200)?;
    assert_eq!(result.minimal, vec![Subspace::from_dims(&[0, 1])]);
    assert_eq!(result.minimal[0].to_string(), "[1,2]");

    // README "Batch queries" section: the batch API answers like the
    // single-query API, in input order.
    use hos_miner::core::QuerySpec;
    let specs = [
        QuerySpec::Member(200),
        QuerySpec::Member(7),
        QuerySpec::Point(vec![0.5, 0.5]),
    ];
    let outcomes = miner.query_each(&specs);
    assert_eq!(outcomes.len(), 3);
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    assert_eq!(outcomes[0].minimal, vec![Subspace::from_dims(&[0, 1])]);
    assert!(!outcomes[1].is_outlier());
    Ok(())
}
