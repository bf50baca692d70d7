//! Dataset-wide outlying-subspace scans.
//!
//! The demo's interactive flow is "pick a suspicious point, ask where
//! it is outlying". This module automates the first half: by OD
//! monotonicity the full-space OD is every point's *maximum* OD over
//! all subspaces, so ranking by it immediately separates points that
//! have at least one outlying subspace (full-space OD ≥ T) from points
//! that have none — the latter need no search at all.

use crate::miner::{HosMiner, QueryOutcome, QuerySpec};
use crate::Result;
use hos_data::PointId;

/// One scan hit: a point with at least one outlying subspace.
#[derive(Clone, Debug)]
pub struct ScanHit {
    /// The point.
    pub id: PointId,
    /// Its full-space OD (the maximum over all subspaces).
    pub full_od: f64,
    /// The full per-point query result.
    pub outcome: QueryOutcome,
}

/// Summary of a dataset scan.
#[derive(Clone, Debug)]
pub struct ScanReport {
    /// Points with a non-empty answer set, descending by full-space OD.
    pub hits: Vec<ScanHit>,
    /// Points above the threshold that were not searched because the
    /// hit `limit` was reached (each *would* be a hit).
    pub truncated: usize,
    /// How many points were skipped without any subspace search
    /// because their full-space OD fell below the threshold.
    pub skipped: usize,
    /// The threshold used.
    pub threshold: f64,
    /// Exact pair folds the ranking kernel performed — the blocked
    /// counterpart of engine `distance_evals`, reported here because
    /// the kernel reads the dataset directly and engine counters never
    /// observe the ranking pass.
    pub ranking_evals: u64,
    /// Live pairs the ranking kernel rejected via quantized admission
    /// bounds without an exact fold. Together the two counters cover
    /// every live ordered pair:
    /// `ranking_evals + ranking_filtered == live * (live - 1)`.
    pub ranking_filtered: u64,
}

impl ScanReport {
    /// Ids of all hits, descending by full-space OD.
    pub fn hit_ids(&self) -> Vec<PointId> {
        self.hits.iter().map(|h| h.id).collect()
    }
}

/// Scans every **live** dataset point (tombstoned rows neither rank
/// nor search — after streaming removals they must never surface in
/// [`ScanReport::hit_ids`]), running the subspace search only for
/// points whose full-space OD reaches the threshold, and reporting at
/// most `limit` hits (use `usize::MAX` for all).
///
/// The ranking phase runs the **blocked all-points kernel**
/// ([`hos_index::all_points_full_od`]): one SoA transpose, then
/// block-of-queries × column streaming with reused top-k heaps,
/// instead of `n` independent engine queries. The kernel folds
/// per-dimension terms in the same ascending order and selects/sums in
/// the same `(distance, id)` order as the engines, so on linear and
/// X-tree miners, range-split or not, the ranked ODs are bit-identical
/// to the per-point path; only the cost changes. The ranking stays on
/// one thread: the worker pool is a single FIFO queue, so a fanned scan
/// would queue concurrent query batches behind it.
///
/// The hits are then searched as one [`HosMiner::query_each`] batch,
/// one hit per worker (a lone hit gets every worker for its range
/// walks), and reported in ranking order; the first hit whose search
/// fails, in that order, fails the scan.
/// Engine `distance_evals` counters never observe the ranking pass —
/// its work (exact folds plus quantized-admission rejects) is reported
/// in [`ScanReport::ranking_evals`] / [`ScanReport::ranking_filtered`].
///
/// Every ranked OD self-excludes, so the window must hold more than
/// `k` live points: the kernel returns the same typed
/// `InsufficientPoints` error the per-point query paths do, instead of
/// silently understating every OD.
pub fn scan_outliers(miner: &HosMiner, limit: usize) -> Result<ScanReport> {
    let engine = miner.engine();
    let ds = engine.dataset();
    let k = miner.config().k;
    let t = miner.threshold();

    let scan = hos_index::all_points_full_od_counted(ds, engine.metric(), k)?;
    let mut ranked: Vec<(PointId, f64)> = scan.ods;
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));

    // Monotonicity: no subspace of a point below T can reach T, and
    // the ranking is descending, so the points to search are a prefix
    // and everything after it is skipped without a search.
    let above = ranked.partition_point(|&(_, od)| od >= t);
    let searched = above.min(limit);
    let specs: Vec<QuerySpec> = ranked[..searched]
        .iter()
        .map(|&(id, _)| QuerySpec::Member(id))
        .collect();
    let mut hits = Vec::with_capacity(searched);
    for (&(id, full_od), outcome) in ranked.iter().zip(miner.query_each(&specs)) {
        let outcome = outcome?;
        debug_assert!(
            outcome.is_outlier(),
            "full OD >= T implies non-empty answer"
        );
        hits.push(ScanHit {
            id,
            full_od,
            outcome,
        });
    }
    Ok(ScanReport {
        hits,
        truncated: above - searched,
        skipped: ranked.len() - above,
        threshold: t,
        ranking_evals: scan.distance_evals,
        ranking_filtered: scan.filtered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::HosMinerConfig;
    use crate::od::ThresholdPolicy;
    use hos_data::synth::planted::{generate, PlantedSpec};
    use hos_data::Subspace;

    fn miner() -> (HosMiner, Vec<PointId>) {
        let w = generate(&PlantedSpec {
            n_background: 400,
            d: 6,
            n_clusters: 2,
            cluster_sigma: 1.0,
            extent: 60.0,
            targets: vec![Subspace::from_dims(&[0]), Subspace::from_dims(&[2, 3])],
            shift_sigmas: 12.0,
            seed: 5,
        })
        .unwrap();
        let ids = w.outlier_ids();
        let m = HosMiner::fit(
            w.dataset,
            HosMinerConfig {
                k: 5,
                threshold: ThresholdPolicy::FullSpaceQuantile {
                    q: 0.98,
                    sample: 200,
                },
                sample_size: 5,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        (m, ids)
    }

    #[test]
    fn scan_finds_planted_points_first() {
        let (m, planted) = miner();
        let report = scan_outliers(&m, 10).unwrap();
        assert!(!report.hits.is_empty());
        // The two planted outliers dominate the full-space OD ranking.
        let top2: Vec<PointId> = report.hit_ids().into_iter().take(2).collect();
        for id in planted {
            assert!(top2.contains(&id), "planted {id} not in top hits {top2:?}");
        }
        // Descending order by full OD.
        for w in report.hits.windows(2) {
            assert!(w[0].full_od >= w[1].full_od);
        }
        // Every hit crosses the threshold and has a non-empty answer.
        for h in &report.hits {
            assert!(h.full_od >= report.threshold);
            assert!(h.outcome.is_outlier());
        }
    }

    #[test]
    fn blocked_ranking_bit_identical_to_per_point_engine_ods() {
        // The ranking phase now runs the blocked all-points kernel;
        // every reported full_od must still equal a per-point engine
        // query bit for bit — across engines, since
        // the scan serves whichever engine the miner was fitted with.
        use hos_index::Engine;
        let (m, _) = miner();
        let ds = m.engine().dataset().clone();
        let report = scan_outliers(&m, usize::MAX).unwrap();
        let full = ds.full_space();
        for engine_kind in [Engine::Linear, Engine::XTree] {
            let cfg = HosMinerConfig {
                k: 5,
                threshold: ThresholdPolicy::Fixed(m.threshold()),
                sample_size: 0,
                engine: engine_kind,
                ..HosMinerConfig::default()
            };
            let other = HosMiner::fit(ds.clone(), cfg).unwrap();
            for h in &report.hits {
                assert_eq!(
                    h.full_od,
                    other.engine().od(ds.row(h.id), 5, full, Some(h.id)),
                    "{engine_kind} point {}",
                    h.id
                );
            }
        }
    }

    /// The hits are searched as one `query_each` batch: the report at
    /// 1 and 2 threads is identical, hit for hit, to running
    /// `query_id` on each hit alone.
    #[test]
    fn batched_hit_searches_equal_per_hit_queries() {
        let (mut m, _) = miner();
        let mut reports = Vec::new();
        for threads in [1, 2] {
            m.set_threads(threads);
            let report = scan_outliers(&m, usize::MAX).unwrap();
            assert!(
                report.hits.len() > 1,
                "need a batch, got {}",
                report.hits.len()
            );
            for h in &report.hits {
                let alone = m.query_id(h.id).unwrap();
                assert_eq!(
                    h.outcome.outlying, alone.outlying,
                    "threads {threads} point {}",
                    h.id
                );
                assert_eq!(
                    h.outcome.minimal, alone.minimal,
                    "threads {threads} point {}",
                    h.id
                );
                assert_eq!(h.outcome.stats.od_evals, alone.stats.od_evals);
                assert_eq!(h.outcome.stats.nodes_visited, alone.stats.nodes_visited);
            }
            let summary: Vec<_> = report
                .hits
                .iter()
                .map(|h| (h.id, h.full_od.to_bits(), h.outcome.outlying.clone()))
                .collect();
            reports.push((summary, report.truncated, report.skipped));
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn skip_accounting() {
        let (m, _) = miner();
        let report = scan_outliers(&m, usize::MAX).unwrap();
        let ds_len = m.engine().dataset().len();
        assert_eq!(
            report.hits.len() + report.truncated + report.skipped,
            ds_len
        );
        assert_eq!(report.truncated, 0);
        // With a 0.98-quantile threshold, the vast majority is skipped
        // without a search.
        assert!(report.skipped > ds_len * 9 / 10);
    }

    #[test]
    fn tombstoned_rows_never_appear_in_hits() {
        let (mut m, planted) = miner();
        let before = scan_outliers(&m, usize::MAX).unwrap();
        for id in &planted {
            assert!(before.hit_ids().contains(id), "planted {id} missing");
        }
        // Retire the planted outliers: they must vanish from ranking,
        // hits and accounting — a tombstone must never resurface.
        for &id in &planted {
            m.retire_point(id).unwrap();
        }
        let after = scan_outliers(&m, usize::MAX).unwrap();
        let ds = m.engine().dataset();
        for &id in &planted {
            assert!(!after.hit_ids().contains(&id), "tombstone {id} in hits");
        }
        for h in &after.hits {
            assert!(ds.is_live(h.id));
        }
        assert_eq!(
            after.hits.len() + after.truncated + after.skipped,
            ds.live_len(),
            "accounting must cover exactly the live points"
        );
        // Limit semantics after mutation: the cap limits searches, not
        // ranking, and the skip count is unchanged by the cap.
        let capped = scan_outliers(&m, 1).unwrap();
        assert_eq!(capped.hits.len(), 1.min(after.hits.len()));
        assert_eq!(capped.skipped, after.skipped);
        assert!(capped.hit_ids().iter().all(|&id| ds.is_live(id)));
        // A freshly inserted extreme point becomes the top hit.
        let far = m.insert_point(&[500.0; 6]).unwrap();
        let re = scan_outliers(&m, 3).unwrap();
        assert_eq!(re.hit_ids().first(), Some(&far));
    }

    #[test]
    fn scan_errors_once_window_shrinks_below_k() {
        use crate::error::HosError;
        use hos_index::IndexError;
        let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let mut m = HosMiner::fit(
            hos_data::Dataset::from_rows(&rows).unwrap(),
            HosMinerConfig {
                k: 4,
                threshold: ThresholdPolicy::Fixed(5.0),
                sample_size: 0,
                ..HosMinerConfig::default()
            },
        )
        .unwrap();
        assert!(scan_outliers(&m, 3).is_ok());
        for id in 0..5 {
            m.retire_point(id).unwrap();
        }
        // 4 live, each scan OD self-excludes → only 3 candidates for
        // k = 4: typed error, not silently understated ODs.
        assert!(matches!(
            scan_outliers(&m, 3),
            Err(HosError::Index(IndexError::InsufficientPoints {
                available: 3,
                k: 4
            }))
        ));
    }

    /// Satellite pin: the ranking pass's work accounting is complete —
    /// exact folds plus quantized rejects cover every ordered live
    /// pair, before and after churn, and the counters actually move
    /// (the kernel no longer does its work invisibly).
    #[test]
    fn ranking_eval_accounting_covers_every_live_pair() {
        let (mut m, planted) = miner();
        let report = scan_outliers(&m, usize::MAX).unwrap();
        let live = m.engine().dataset().live_len() as u64;
        assert_eq!(
            report.ranking_evals + report.ranking_filtered,
            live * (live - 1)
        );
        assert!(
            report.ranking_evals >= live * 5,
            "at least k folds per query"
        );
        for &id in &planted {
            m.retire_point(id).unwrap();
        }
        let after = scan_outliers(&m, usize::MAX).unwrap();
        let live = m.engine().dataset().live_len() as u64;
        assert_eq!(
            after.ranking_evals + after.ranking_filtered,
            live * (live - 1),
            "accounting must track the live set through churn"
        );
    }

    #[test]
    fn limit_caps_searches_not_ranking() {
        let (m, _) = miner();
        let all = scan_outliers(&m, usize::MAX).unwrap();
        let one = scan_outliers(&m, 1).unwrap();
        assert_eq!(one.hits.len(), 1.min(all.hits.len()));
        if !all.hits.is_empty() {
            assert_eq!(one.hits[0].id, all.hits[0].id);
            assert_eq!(one.truncated, all.hits.len() - 1);
            assert_eq!(one.skipped, all.skipped);
        }
    }
}
