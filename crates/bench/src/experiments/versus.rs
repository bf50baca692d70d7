//! E5–E7: comparisons against the evolutionary method and the X-tree
//! vs linear-scan index question.

use crate::workloads::standard_planted;
use crate::{emit, ms, timed};
use hos_baselines::evolutionary::EvolutionarySearch;
use hos_baselines::{exhaustive_search, EvoConfig, ExhaustiveMode};
use hos_core::od::OdMode;
use hos_core::{minimal_subspaces, HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::table::{fmt_f64, Table};
use hos_data::{Metric, Subspace};
use hos_index::{KnnEngine, LinearScan, XTree, XTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Precision/recall of a detected set against a ground-truth set.
fn precision_recall(detected: &[Subspace], truth: &[Subspace]) -> (f64, f64) {
    if detected.is_empty() {
        return (
            if truth.is_empty() { 1.0 } else { 0.0 },
            if truth.is_empty() { 1.0 } else { 0.0 },
        );
    }
    let hit = detected.iter().filter(|s| truth.contains(s)).count() as f64;
    let p = hit / detected.len() as f64;
    let r = if truth.is_empty() {
        1.0
    } else {
        hit / truth.len() as f64
    };
    (p, r)
}

/// E5 — effectiveness: exact minimal outlying subspaces (oracle) vs
/// HOS-Miner vs the evolutionary method's subspace attribution.
pub fn e5_effectiveness(dir: &Path) {
    let d = 8;
    let k = 5;
    let mut t = Table::new(vec![
        "seed",
        "point",
        "truth (minimal)",
        "HOS P",
        "HOS R",
        "evo P",
        "evo R",
    ]);
    let mut hos_p_sum = 0.0;
    let mut hos_r_sum = 0.0;
    let mut evo_p_sum = 0.0;
    let mut evo_r_sum = 0.0;
    let mut rows = 0.0;
    for seed in [1u64, 2, 3] {
        let w = standard_planted(1200, d, 300 + seed);
        let miner = HosMiner::fit(
            w.dataset.clone(),
            HosMinerConfig {
                k,
                threshold: ThresholdPolicy::FullSpaceQuantile {
                    q: 0.95,
                    sample: 200,
                },
                sample_size: 12,
                ..HosMinerConfig::default()
            },
        )
        .expect("fit");
        // Evolutionary search on the same data; cube_dim 2 gives it
        // the best shot at the planted pair structures.
        let es = EvolutionarySearch::fit(
            &w.dataset,
            EvoConfig {
                phi: 8,
                cube_dim: 2,
                population: 120,
                generations: 80,
                best_m: 40,
                seed,
                ..EvoConfig::default()
            },
        );
        let cubes = es.run();
        for o in &w.outliers {
            let row: Vec<f64> = w.dataset.row(o.id).to_vec();
            // Exact ground truth from the oracle.
            let oracle = exhaustive_search(
                miner.engine(),
                &row,
                Some(o.id),
                k,
                miner.threshold(),
                ExhaustiveMode::Full,
                OdMode::Raw,
            );
            let truth = minimal_subspaces(&oracle.subspaces());
            let hos = miner.query_id(o.id).expect("query").minimal;
            let evo = minimal_subspaces(&es.outlying_subspaces_of(&cubes, &row));
            let (hp, hr) = precision_recall(&hos, &truth);
            let (ep, er) = precision_recall(&evo, &truth);
            hos_p_sum += hp;
            hos_r_sum += hr;
            evo_p_sum += ep;
            evo_r_sum += er;
            rows += 1.0;
            t.push(vec![
                seed.to_string(),
                format!("#{}", o.id),
                truth
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
                fmt_f64(hp),
                fmt_f64(hr),
                fmt_f64(ep),
                fmt_f64(er),
            ]);
        }
    }
    t.push(vec![
        "avg".into(),
        "-".into(),
        "-".into(),
        fmt_f64(hos_p_sum / rows),
        fmt_f64(hos_r_sum / rows),
        fmt_f64(evo_p_sum / rows),
        fmt_f64(evo_r_sum / rows),
    ]);
    emit(
        "e5_effectiveness",
        "effectiveness vs evolutionary search (precision/recall on exact minimal subspaces)",
        &t,
        dir,
    );
}

/// E6 — efficiency: HOS-Miner per-query cost vs a full evolutionary run
/// (the evolutionary method has no per-query mode: it searches the
/// whole space once and answers from the discovered cubes).
pub fn e6_vs_evo_time(dir: &Path) {
    let d = 10;
    let k = 5;
    let mut t = Table::new(vec![
        "N",
        "HOS fit ms",
        "HOS query ms",
        "evo run ms",
        "evo/query ratio",
    ]);
    for n in [1000usize, 2000, 4000] {
        let w = standard_planted(n, d, 400 + n as u64);
        let (miner, fit_s) = timed(|| {
            HosMiner::fit(
                w.dataset.clone(),
                HosMinerConfig {
                    k,
                    threshold: ThresholdPolicy::FullSpaceQuantile {
                        q: 0.95,
                        sample: 200,
                    },
                    sample_size: 12,
                    ..HosMinerConfig::default()
                },
            )
            .expect("fit")
        });
        let ids = w.outlier_ids();
        let (_, query_s) = timed(|| {
            for &id in &ids {
                let _ = miner.query_id(id).expect("query");
            }
        });
        let query_avg = query_s / ids.len() as f64;
        let (_, evo_s) = timed(|| {
            let es = EvolutionarySearch::fit(
                &w.dataset,
                EvoConfig {
                    phi: 8,
                    cube_dim: 2,
                    population: 100,
                    generations: 60,
                    best_m: 15,
                    seed: 9,
                    ..EvoConfig::default()
                },
            );
            es.run()
        });
        t.push(vec![
            n.to_string(),
            ms(fit_s),
            ms(query_avg),
            ms(evo_s),
            format!("{:.0}x", evo_s / query_avg.max(1e-12)),
        ]);
    }
    emit(
        "e6_vs_evo_time",
        "efficiency vs evolutionary search (d=10; evo amortises over all points, HOS per query)",
        &t,
        dir,
    );
}

/// E7 — the index question: X-tree vs linear scan for subspace k-NN.
pub fn e7_index(dir: &Path) {
    let k = 5;
    let mut t = Table::new(vec![
        "N",
        "d",
        "|s|",
        "xtree evals/q",
        "xtree ms/q",
        "linear evals/q",
        "linear ms/q",
    ]);
    for (n, d) in [(4000usize, 8usize), (16000, 8), (16000, 16)] {
        let w = standard_planted(n, d, 500 + n as u64 + d as u64);
        let xtree = XTree::build(w.dataset.clone(), Metric::L2, XTreeConfig::default());
        let linear = LinearScan::new(w.dataset.clone(), Metric::L2);
        let mut rng = StdRng::seed_from_u64(7);
        for sub_dim in [2usize, d / 2, d] {
            let queries: Vec<(Vec<f64>, Subspace)> = (0..20)
                .map(|_| {
                    let id = rng.gen_range(0..w.dataset.len());
                    let mut dims: Vec<usize> = (0..d).collect();
                    for i in 0..sub_dim {
                        let j = rng.gen_range(i..d);
                        dims.swap(i, j);
                    }
                    (
                        w.dataset.row(id).to_vec(),
                        Subspace::from_dims(&dims[..sub_dim]),
                    )
                })
                .collect();
            let run = |engine: &dyn KnnEngine| -> (f64, f64) {
                let before = engine.distance_evals();
                let (_, secs) = timed(|| {
                    for (q, s) in &queries {
                        let _ = engine.knn(q, k, *s, None);
                    }
                });
                let evals = (engine.distance_evals() - before) as f64 / queries.len() as f64;
                (evals, secs / queries.len() as f64)
            };
            let (xe, xt_s) = run(&xtree);
            let (le, lt_s) = run(&linear);
            t.push(vec![
                n.to_string(),
                d.to_string(),
                sub_dim.to_string(),
                format!("{xe:.0}"),
                ms(xt_s),
                format!("{le:.0}"),
                ms(lt_s),
            ]);
        }
    }
    emit(
        "e7_index",
        "X-tree vs linear scan for subspace k-NN (20 queries each, k=5)",
        &t,
        dir,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_recall_cases() {
        let a = Subspace::from_dims(&[0]);
        let b = Subspace::from_dims(&[1]);
        let c = Subspace::from_dims(&[2]);
        assert_eq!(precision_recall(&[a, b], &[a, b]), (1.0, 1.0));
        assert_eq!(precision_recall(&[a, c], &[a, b]), (0.5, 0.5));
        assert_eq!(precision_recall(&[], &[a]), (0.0, 0.0));
        assert_eq!(precision_recall(&[], &[]), (1.0, 1.0));
        let (p, r) = precision_recall(&[a], &[]);
        assert_eq!(p, 0.0);
        assert_eq!(r, 1.0);
    }
}
