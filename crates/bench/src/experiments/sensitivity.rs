//! E8–E10: parameter sensitivity, the normalised-OD ablation, the
//! refinement filter, and the full-space detector context.

use crate::workloads::standard_planted;
use crate::{emit, ms, timed};
use hos_baselines::loci::{loci_outliers, LociConfig};
use hos_baselines::{db_outlier, exhaustive_search, intensional, knn_outlier, lof, ExhaustiveMode};
use hos_core::od::OdMode;
use hos_core::{minimal_subspaces, HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::table::{fmt_f64, Table};
use hos_data::Subspace;
use std::path::Path;

fn fit_with(dataset: hos_data::Dataset, k: usize, q: f64) -> HosMiner {
    HosMiner::fit(
        dataset,
        HosMinerConfig {
            k,
            threshold: ThresholdPolicy::FullSpaceQuantile { q, sample: 200 },
            sample_size: 12,
            ..HosMinerConfig::default()
        },
    )
    .expect("fit")
}

/// E8 — sensitivity to k and the threshold quantile.
///
/// Uses a *moderately* displaced outlier (6 sigma instead of the 12 of
/// the standard workload): an extreme outlier crosses every plausible
/// threshold in the same subspaces, which would make the sweep flat.
pub fn e8_k_and_t(dir: &Path) {
    use hos_data::synth::planted::{generate, PlantedSpec};
    let d = 10;
    let w = generate(&PlantedSpec {
        n_background: 1500,
        d,
        n_clusters: 3,
        cluster_sigma: 1.0,
        extent: 100.0,
        targets: vec![Subspace::from_dims(&[1, 2])],
        shift_sigmas: 6.0,
        seed: 600,
    })
    .expect("spec");
    let qid = w.outlier_ids()[0];
    let mut t = Table::new(vec![
        "k",
        "T quantile",
        "T",
        "answer size",
        "minimal size",
        "OD evals",
        "query ms",
    ]);
    for k in [1usize, 5, 10, 20] {
        for q in [0.80f64, 0.90, 0.95, 0.99] {
            let miner = fit_with(w.dataset.clone(), k, q);
            let (out, secs) = timed(|| miner.query_id(qid).expect("query"));
            t.push(vec![
                k.to_string(),
                format!("{q:.2}"),
                fmt_f64(miner.threshold()),
                out.outlying.len().to_string(),
                out.minimal.len().to_string(),
                out.stats.od_evals.to_string(),
                ms(secs),
            ]);
        }
    }
    emit(
        "e8_kt",
        "sensitivity to k and threshold quantile (N=1500, d=10, one 6-sigma planted outlier)",
        &t,
        dir,
    );
}

/// E8b — ablation: the paper's raw OD vs the dimension-normalised
/// extension, evaluated exhaustively (the normalised OD is not
/// monotone, so no pruning is allowed).
pub fn e8b_normalized_od(dir: &Path) {
    let d = 8;
    let k = 5;
    let w = standard_planted(1200, d, 700);
    // A *low* threshold quantile exposes the bias: with raw OD and a
    // global T, ordinary points whose full-space OD just clears T are
    // declared outlying in many high-dimensional subspaces purely
    // because OD grows with dimension.
    let miner = fit_with(w.dataset.clone(), k, 0.80);
    let engine = miner.engine();
    let full = w.dataset.full_space();

    // Query points: the planted pair-outlier plus the three background
    // points closest above the threshold (the borderline cases).
    let mut borderline: Vec<(usize, f64)> = (0..200)
        .map(|i| (i, engine.od(w.dataset.row(i), k, full, Some(i))))
        .filter(|&(_, od)| od >= miner.threshold())
        .collect();
    borderline.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let mut queries: Vec<(usize, String)> = borderline
        .iter()
        .take(3)
        .map(|&(id, _)| (id, "background".to_string()))
        .collect();
    queries.push((w.outlier_ids()[1], "planted [2,3]".to_string()));

    let mut t = Table::new(vec![
        "point",
        "kind",
        "raw: answers/level (1..d)",
        "raw minimal",
        "norm: answers/level (1..d)",
        "norm minimal",
    ]);
    for (id, kind) in queries {
        let row: Vec<f64> = w.dataset.row(id).to_vec();
        let run = |mode: OdMode, threshold: f64| {
            exhaustive_search(
                engine,
                &row,
                Some(id),
                k,
                threshold,
                ExhaustiveMode::Full,
                mode,
            )
        };
        let raw = run(OdMode::Raw, miner.threshold());
        // The normalised OD needs a comparably normalised threshold:
        // divide the full-space-quantile T by the full-space scale so
        // the full-space decision is identical by construction.
        let norm_threshold = miner.threshold() / engine.metric().dim_scale(d);
        let norm = run(OdMode::DimNormalized, norm_threshold);
        let per_level = |out: &hos_core::SearchOutcome| -> String {
            (1..=d)
                .map(|m| {
                    out.outlying
                        .iter()
                        .filter(|s| s.subspace.dim() == m)
                        .count()
                        .to_string()
                })
                .collect::<Vec<_>>()
                .join("/")
        };
        let fmt_min = |spaces: Vec<Subspace>| -> String {
            let m = minimal_subspaces(&spaces);
            if m.is_empty() {
                "(none)".into()
            } else if m.len() > 4 {
                format!("{} sets, e.g. {}", m.len(), m[0])
            } else {
                m.iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        };
        t.push(vec![
            format!("#{id}"),
            kind,
            per_level(&raw),
            fmt_min(raw.subspaces()),
            per_level(&norm),
            fmt_min(norm.subspaces()),
        ]);
    }
    emit(
        "e8b_norm",
        "ablation: raw OD (paper) vs dimension-normalised OD (extension); T at the 0.80 quantile",
        &t,
        dir,
    );
}

/// E9 — the refinement filter: raw answer-set size vs minimal frontier.
pub fn e9_filter(dir: &Path) {
    let d = 10;
    let w = standard_planted(1500, d, 800);
    let miner = fit_with(w.dataset.clone(), 5, 0.95);
    let mut t = Table::new(vec!["point", "outlying subspaces", "minimal", "reduction"]);
    for o in &w.outliers {
        let out = miner.query_id(o.id).expect("query");
        let raw = out.outlying.len();
        let min = out.minimal.len();
        t.push(vec![
            format!("#{}", o.id),
            raw.to_string(),
            min.to_string(),
            if raw == 0 {
                "-".into()
            } else {
                format!("{:.1}x", raw as f64 / min.max(1) as f64)
            },
        ]);
    }
    // The paper's §3.4 worked example as a sanity row.
    let worked: Vec<Subspace> = [
        "[1,3]",
        "[2,4]",
        "[1,2,3]",
        "[1,2,4]",
        "[1,3,4]",
        "[2,3,4]",
        "[1,2,3,4]",
    ]
    .iter()
    .map(|s| s.parse().expect("valid"))
    .collect();
    let minimal = minimal_subspaces(&worked);
    t.push(vec![
        "paper §3.4".into(),
        worked.len().to_string(),
        minimal.len().to_string(),
        format!("{:.1}x", worked.len() as f64 / minimal.len() as f64),
    ]);
    emit(
        "e9_filter",
        "result refinement: answer set vs minimal frontier (N=1500, d=10)",
        &t,
        dir,
    );
}

/// E10 — context: do classic full-space detectors flag the same points
/// HOS-Miner's full-space OD flags? (They say *whether*, not *where*.)
pub fn e10_detectors(dir: &Path) {
    let d = 8;
    let k = 5;
    let w = standard_planted(1200, d, 900);
    let miner = fit_with(w.dataset.clone(), k, 0.95);
    let engine = miner.engine();
    let full = w.dataset.full_space();
    let planted = w.outlier_ids();
    let top_n = 10;

    // Rank by full-space OD.
    let mut od_rank: Vec<(usize, f64)> = (0..w.dataset.len())
        .map(|i| (i, engine.od(w.dataset.row(i), k, full, Some(i))))
        .collect();
    od_rank.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    od_rank.truncate(top_n);
    let od_top: Vec<usize> = od_rank.iter().map(|x| x.0).collect();

    let lof_top: Vec<usize> = lof::top_lof(engine, 10, full, top_n)
        .iter()
        .map(|x| x.0)
        .collect();
    let knn_top: Vec<usize> = knn_outlier::top_knn_outliers(engine, k, full, top_n)
        .iter()
        .map(|x| x.0)
        .collect();
    // DB outliers with dmin tied to the threshold scale.
    let dmin = miner.threshold() / k as f64;
    let db: Vec<usize> = db_outlier::db_outliers(engine, 0.995, dmin, full);

    let jaccard = |a: &[usize], b: &[usize]| -> f64 {
        let sa: std::collections::BTreeSet<_> = a.iter().collect();
        let sb: std::collections::BTreeSet<_> = b.iter().collect();
        let inter = sa.intersection(&sb).count() as f64;
        let uni = sa.union(&sb).count() as f64;
        if uni == 0.0 {
            1.0
        } else {
            inter / uni
        }
    };
    let hits = |ids: &[usize]| planted.iter().filter(|p| ids.contains(p)).count();

    let mut t = Table::new(vec![
        "detector",
        "top-set size",
        "planted found",
        "Jaccard vs OD top-10",
    ]);
    t.push(vec![
        "full-space OD (ours)".into(),
        od_top.len().to_string(),
        format!("{}/{}", hits(&od_top), planted.len()),
        "1".into(),
    ]);
    t.push(vec![
        "LOF".into(),
        lof_top.len().to_string(),
        format!("{}/{}", hits(&lof_top), planted.len()),
        fmt_f64(jaccard(&lof_top, &od_top)),
    ]);
    t.push(vec![
        "kth-NN distance".into(),
        knn_top.len().to_string(),
        format!("{}/{}", hits(&knn_top), planted.len()),
        fmt_f64(jaccard(&knn_top, &od_top)),
    ]);
    t.push(vec![
        "DB(0.995, T/k)".into(),
        db.len().to_string(),
        format!("{}/{}", hits(&db), planted.len()),
        fmt_f64(jaccard(&db, &od_top)),
    ]);
    let loci = loci_outliers(engine, full, LociConfig::default());
    t.push(vec![
        "LOCI (3-sigma MDEF)".into(),
        loci.len().to_string(),
        format!("{}/{}", hits(&loci), planted.len()),
        fmt_f64(jaccard(&loci, &od_top)),
    ]);
    emit(
        "e10_detectors",
        "full-space detector context (N=1200, d=8, 3 planted outliers)",
        &t,
        dir,
    );
}

/// E12 — extension: the frontier (Apriori-style) search at
/// dimensionalities far beyond the materialised lattice's d <= 26
/// limit, with `max_dim`-bounded exploration.
pub fn e12_frontier(dir: &Path) {
    use hos_core::frontier::frontier_search;
    use hos_data::synth::planted::{generate, PlantedSpec};
    use hos_data::Metric;
    use hos_index::LinearScan;

    let mut t = Table::new(vec![
        "d",
        "max_dim",
        "minimal count",
        "planted covered",
        "complete",
        "OD evals",
        "query ms",
        "inlier evals",
    ]);
    for d in [16usize, 24, 32, 48] {
        let w = generate(&PlantedSpec {
            n_background: 1000,
            d,
            n_clusters: 3,
            cluster_sigma: 1.0,
            extent: 100.0,
            targets: vec![Subspace::from_dims(&[0]), Subspace::from_dims(&[1, 2])],
            shift_sigmas: 12.0,
            seed: 1200 + d as u64,
        })
        .expect("spec");
        let engine = LinearScan::new(w.dataset.clone(), Metric::L2);
        let threshold = hos_core::ThresholdPolicy::FullSpaceQuantile {
            q: 0.95,
            sample: 200,
        }
        .resolve(&engine, 5, 0, 1)
        .expect("threshold");
        let qid = w.outlier_ids()[1];
        let q: Vec<f64> = w.dataset.row(qid).to_vec();
        for max_dim in [2usize, 3] {
            let ((out, inlier_evals), secs) = crate::timed(|| {
                let out = frontier_search(&engine, &q, Some(qid), 5, threshold, max_dim, 1);
                let iq: Vec<f64> = w.dataset.row(0).to_vec();
                let inl = frontier_search(&engine, &iq, Some(0), 5, threshold, max_dim, 1);
                (out, inl.stats.od_evals)
            });
            // The planted deviation is "covered" when some reported
            // minimal subspace is comparable with the target: a subset
            // (the injected shift already outlying in fewer dims) or a
            // superset (outlying only with a borderline companion dim
            // at high d, where the global threshold grows with
            // dimensionality).
            let target = Subspace::from_dims(&[1, 2]);
            let covered = out
                .minimal
                .iter()
                .any(|s| s.is_subset_of(target) || s.is_superset_of(target));
            t.push(vec![
                d.to_string(),
                max_dim.to_string(),
                out.minimal.len().to_string(),
                covered.to_string(),
                out.complete.to_string(),
                out.stats.od_evals.to_string(),
                ms(secs),
                inlier_evals.to_string(),
            ]);
        }
    }
    emit(
        "e12_frontier",
        "extension: frontier search beyond the lattice limit (N=1000, k=5, planted [1] and [2,3])",
        &t,
        dir,
    );
}

/// E11 — the "space → outliers" contrast made concrete: Knorr & Ng's
/// intensional knowledge (strongest outlying spaces + strongest/weak
/// outliers) side by side with HOS-Miner's per-point answers for the
/// same points.
pub fn e11_intensional(dir: &Path) {
    let d = 6;
    let w = standard_planted(600, d, 1100);
    let miner = fit_with(w.dataset.clone(), 5, 0.95);
    // DB predicate tuned to the workload scale: dmin of one OD "hop".
    let dmin = miner.threshold() / 5.0;
    let ik = intensional::intensional_knowledge(miner.engine(), 0.995, dmin);

    let mut t = Table::new(vec!["quantity", "value"]);
    t.push(vec![
        "strongest outlying spaces".to_string(),
        ik.strongest_spaces
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" "),
    ]);
    t.push(vec![
        "strongest outliers".to_string(),
        format!("{:?}", ik.strongest_outliers),
    ]);
    t.push(vec![
        "weak outliers".to_string(),
        format!("{:?}", ik.weak_outliers),
    ]);
    for &id in ik.strongest_outliers.iter().take(4) {
        let out = miner.query_id(id).expect("query");
        t.push(vec![
            format!("HOS-Miner minimal subspaces of #{id}"),
            out.minimal
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    emit(
        "e11_intensional",
        "space->outliers (Knorr-Ng intensional knowledge) vs outlier->spaces (HOS-Miner), d=6",
        &t,
        dir,
    );
}
