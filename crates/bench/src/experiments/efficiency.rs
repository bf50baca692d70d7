//! F1 (Figure 1 reproduction) and the efficiency experiments E1–E4.

use crate::workloads::{query_mix, standard_planted};
use crate::{emit, ms, timed};
use hos_baselines::{exhaustive_search, ExhaustiveMode};
use hos_core::od::OdMode;
use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::synth::correlated::{figure1_views, CorrelatedSpec};
use hos_data::table::{fmt_f64, Table};
use hos_data::Metric;
use hos_index::{KnnEngine, LinearScan};
use std::path::Path;

fn fit(dataset: hos_data::Dataset, k: usize, samples: usize) -> HosMiner {
    HosMiner::fit(
        dataset,
        HosMinerConfig {
            k,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 200,
            },
            sample_size: samples,
            ..HosMinerConfig::default()
        },
    )
    .expect("fit")
}

/// F1 — Figure 1: the same point has very different outlying degrees
/// in different 2-d views.
pub fn f1_figure1(dir: &Path) {
    let fig = figure1_views(&CorrelatedSpec {
        n: 300,
        pairs: 3,
        correlated_pairs: vec![0],
        band_noise: 0.03,
        seed: 42,
    })
    .expect("figure 1 data");
    let engine = LinearScan::new(fig.dataset.clone(), Metric::L2);
    let mut t = Table::new(vec!["view", "kind", "OD(p view)", "outlier in view"]);
    let miner = fit(fig.dataset.clone(), 5, 10);
    for (view, kind) in fig
        .outlying_views
        .iter()
        .map(|&v| (v, "correlated"))
        .chain(fig.inlying_views.iter().map(|&v| (v, "blob")))
    {
        let od = engine.od(&fig.query, 5, view, None);
        t.push(vec![
            view.to_string(),
            kind.to_string(),
            fmt_f64(od),
            (od >= miner.threshold()).to_string(),
        ]);
    }
    emit(
        "f1_views",
        "Figure 1 — per-view outlying degree of p",
        &t,
        dir,
    );
    let out = miner.query_point(&fig.query).expect("query");
    println!(
        "HOS-Miner minimal answer for p: {}",
        out.minimal
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
}

/// E1 — efficiency vs dataset size N at fixed d.
pub fn e1_scale_n(dir: &Path) {
    let d = 10;
    let k = 5;
    let mut t = Table::new(vec![
        "N",
        "dyn evals",
        "dyn ms",
        "static evals",
        "static ms",
        "exh evals",
        "exh ms",
        "speedup",
    ]);
    for n in [1000usize, 2000, 4000, 8000] {
        let w = standard_planted(n, d, 100 + n as u64);
        let miner = fit(w.dataset.clone(), k, 16);
        let queries = query_mix(&w);
        let mut dyn_evals = 0.0;
        let mut dyn_time = 0.0;
        let mut st_evals = 0.0;
        let mut st_time = 0.0;
        let mut ex_evals = 0.0;
        let mut ex_time = 0.0;
        for &id in &queries {
            let row: Vec<f64> = w.dataset.row(id).to_vec();
            let (out, s) = timed(|| miner.query_id(id).expect("query"));
            dyn_evals += out.stats.od_evals as f64;
            dyn_time += s;
            let (st, s) = timed(|| {
                exhaustive_search(
                    miner.engine(),
                    &row,
                    Some(id),
                    k,
                    miner.threshold(),
                    ExhaustiveMode::BothStatic,
                    OdMode::Raw,
                )
            });
            st_evals += st.stats.od_evals as f64;
            st_time += s;
            let (ex, s) = timed(|| {
                exhaustive_search(
                    miner.engine(),
                    &row,
                    Some(id),
                    k,
                    miner.threshold(),
                    ExhaustiveMode::Full,
                    OdMode::Raw,
                )
            });
            ex_evals += ex.stats.od_evals as f64;
            ex_time += s;
        }
        let q = queries.len() as f64;
        t.push(vec![
            n.to_string(),
            format!("{:.0}", dyn_evals / q),
            ms(dyn_time / q),
            format!("{:.0}", st_evals / q),
            ms(st_time / q),
            format!("{:.0}", ex_evals / q),
            ms(ex_time / q),
            format!("{:.1}x", ex_time / dyn_time.max(1e-12)),
        ]);
    }
    emit(
        "e1_scale_n",
        "efficiency vs dataset size (d=10, k=5, per-query averages)",
        &t,
        dir,
    );
}

/// E2 + E3 — efficiency and pruning power vs dimensionality.
pub fn e2_e3_scale_d(dir: &Path) {
    let n = 2000;
    let k = 5;
    let mut e2 = Table::new(vec![
        "d",
        "lattice",
        "dyn evals",
        "dyn ms",
        "exh evals",
        "exh ms",
        "speedup",
    ]);
    let mut e3 = Table::new(vec![
        "d",
        "lattice",
        "evaluated frac",
        "pruned-in frac",
        "pruned-out frac",
    ]);
    for d in [6usize, 8, 10, 12, 14, 16] {
        let w = standard_planted(n, d, 200 + d as u64);
        let miner = fit(w.dataset.clone(), k, 16);
        let queries = query_mix(&w);
        let mut dyn_evals = 0.0;
        let mut dyn_time = 0.0;
        let mut ex_evals = 0.0;
        let mut ex_time = 0.0;
        let mut pruned_in = 0.0;
        let mut pruned_out = 0.0;
        let lattice = (1u64 << d) - 1;
        for &id in &queries {
            let row: Vec<f64> = w.dataset.row(id).to_vec();
            let (out, s) = timed(|| miner.query_id(id).expect("query"));
            dyn_evals += out.stats.od_evals as f64;
            pruned_in += out.stats.pruned_outlier as f64;
            pruned_out += out.stats.pruned_non_outlier as f64;
            dyn_time += s;
            // Cap exhaustive at d <= 14: beyond that a single query
            // needs 2^d * N distance sums and the point is made.
            if d <= 14 {
                let (ex, s) = timed(|| {
                    exhaustive_search(
                        miner.engine(),
                        &row,
                        Some(id),
                        k,
                        miner.threshold(),
                        ExhaustiveMode::Full,
                        OdMode::Raw,
                    )
                });
                ex_evals += ex.stats.od_evals as f64;
                ex_time += s;
            }
        }
        let q = queries.len() as f64;
        let (ex_evals_s, ex_ms_s, speedup) = if d <= 14 {
            (
                format!("{:.0}", ex_evals / q),
                ms(ex_time / q),
                format!("{:.1}x", ex_time / dyn_time.max(1e-12)),
            )
        } else {
            ("(skipped)".into(), "-".into(), "-".into())
        };
        e2.push(vec![
            d.to_string(),
            lattice.to_string(),
            format!("{:.0}", dyn_evals / q),
            ms(dyn_time / q),
            ex_evals_s,
            ex_ms_s,
            speedup,
        ]);
        e3.push(vec![
            d.to_string(),
            lattice.to_string(),
            fmt_f64(dyn_evals / q / lattice as f64),
            fmt_f64(pruned_in / q / lattice as f64),
            fmt_f64(pruned_out / q / lattice as f64),
        ]);
    }
    emit(
        "e2_scale_d",
        "efficiency vs dimensionality (N=2000, k=5, per-query averages)",
        &e2,
        dir,
    );
    emit(
        "e3_pruning",
        "pruning power vs dimensionality (fractions of the lattice)",
        &e3,
        dir,
    );
}

/// E4 — effect of the learning sample size S on query cost.
pub fn e4_sampling(dir: &Path) {
    let n = 2000;
    let d = 12;
    let k = 5;
    let w = standard_planted(n, d, 77);
    // Learned priors encode "how likely is pruning at each level for a
    // typical point", so their payoff differs sharply between inlier
    // queries (the common case the priors describe) and outlier
    // queries; report both regimes separately. The WholeLevel rows
    // reproduce the paper's literal fraction definition, whose
    // near-zero p_up degrades outlier queries (learning module docs).
    use hos_core::learning::{learn, FractionMode};
    use hos_core::priors::Priors;
    use hos_core::search::dynamic_search;
    use hos_index::LinearScan;

    let engine = LinearScan::new(w.dataset.clone(), hos_data::Metric::L2);
    let threshold = hos_core::ThresholdPolicy::FullSpaceQuantile {
        q: 0.95,
        sample: 200,
    }
    .resolve(&engine, k, 0, 1)
    .expect("threshold");
    let outlier_ids = w.outlier_ids();
    let inlier_ids: Vec<usize> = (0..outlier_ids.len()).collect();

    let mut t = Table::new(vec![
        "priors",
        "S",
        "learn evals",
        "inlier query evals",
        "inlier ms",
        "outlier query evals",
        "outlier ms",
    ]);
    let mut row = |label: &str, s: usize, priors: &Priors, learn_evals: u64| {
        let avg = |ids: &[usize]| -> (f64, f64) {
            let mut evals = 0.0;
            let mut time = 0.0;
            for &id in ids {
                let q: Vec<f64> = w.dataset.row(id).to_vec();
                let (out, secs) =
                    timed(|| dynamic_search(&engine, &q, Some(id), k, threshold, priors, 1));
                evals += out.stats.od_evals as f64;
                time += secs;
            }
            (evals / ids.len() as f64, time / ids.len() as f64)
        };
        let (in_evals, in_time) = avg(&inlier_ids);
        let (out_evals, out_time) = avg(&outlier_ids);
        t.push(vec![
            label.to_string(),
            s.to_string(),
            learn_evals.to_string(),
            format!("{in_evals:.0}"),
            ms(in_time),
            format!("{out_evals:.0}"),
            ms(out_time),
        ]);
    };
    row("uniform (no learning)", 0, &Priors::uniform(d), 0);
    for s in [16usize, 64] {
        for (mode, label) in [
            (FractionMode::EvaluatedOnly, "learned, evaluated-only"),
            (
                FractionMode::WholeLevel,
                "learned, whole-level (paper literal)",
            ),
        ] {
            let model = learn(&engine, k, threshold, s, 1, 1, 1.0, mode).expect("learn");
            row(label, s, &model.priors, model.total_stats.od_evals);
        }
    }
    emit(
        "e4_sampling",
        "prior variants vs query cost (N=2000, d=12, k=5)",
        &t,
        dir,
    );
}
