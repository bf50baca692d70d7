//! Property test: deciding against a threshold is exact. For arbitrary
//! grid data (duplicate rows, ties at the kth distance), tombstones,
//! every metric and 1..=4 row ranges, `decide_batch` returns the same
//! OD bits as the plain scan wherever it computes one, and settles a
//! subspace below `T` only where the exact OD is below `T` — with `T`
//! set to a query's exact OD and to a few ulps either side of it,
//! where any rounding slack in the settling sum would show.

use hos_data::{Dataset, Metric, Subspace};
use hos_index::{Decision, KnnEngine, LazyContextEvaluator, LinearScan};
use proptest::prelude::*;

const D: usize = 5;

/// Rows on a coarse grid, then copies of the first few: exact ties at
/// every rank, the kth distance included.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        prop::collection::vec(prop::collection::vec(0u8..6, D), 8..70),
        0usize..8,
    )
        .prop_map(|(grid, copies)| {
            let mut rows: Vec<Vec<f64>> = grid
                .iter()
                .map(|r| r.iter().map(|&v| f64::from(v) * 0.5).collect())
                .collect();
            for i in 0..copies {
                rows.push(rows[i % rows.len()].clone());
            }
            rows
        })
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::L1),
        Just(Metric::L2),
        Just(Metric::LInf),
        Just(Metric::Lp(3.0)),
    ]
}

/// `x` moved by `steps` ulps (toward zero for negative steps, never
/// below zero).
fn ulps(x: f64, steps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + steps).max(0) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decide_batch_is_exact_at_and_around_the_threshold(
        rows in arb_rows(),
        metric in arb_metric(),
        k in 1usize..6,
        ranges in 1usize..=4,
        threads in 1usize..=2,
        dead in prop::collection::vec(0usize..80, 0..6),
        member in 0u8..2,
        qrow in 0usize..80,
        tmask in 1u64..(1 << D),
        level_keys in prop::collection::vec(0u32..1000, D),
    ) {
        // The levels in a random order, like a search's rounds.
        let mut levels: Vec<usize> = (1..=D).collect();
        levels.sort_by_key(|&m| level_keys[m - 1]);
        let mut ds = Dataset::from_rows(&rows).unwrap();
        let qid = qrow % ds.len();
        for id in dead {
            let id = id % ds.len();
            if id != qid && ds.is_live(id) && ds.live_len() > k + 2 {
                ds.remove_row(id).unwrap();
            }
        }
        let lin = LinearScan::new(ds.clone(), metric);
        let split = LinearScan::with_ranges(ds.clone(), metric, ranges);
        let (q, exclude) = if member == 1 {
            (ds.row(qid).to_vec(), Some(qid))
        } else {
            (ds.row(qid).iter().map(|x| x + 0.25).collect(), None)
        };
        let exact_t = lin.od(&q, k, Subspace::from_mask(tmask), exclude);
        for steps in [-3i64, -1, 0, 1, 3] {
            let t = ulps(exact_t, steps);
            // Whole levels, one evaluator across them.
            let mut ev = LazyContextEvaluator::new(&split, &q, k, exclude);
            for &m in &levels {
                let level: Vec<Subspace> = Subspace::all_of_dim(D, m).collect();
                let decisions = ev.decide_batch(&level, t, threads);
                prop_assert_eq!(decisions.len(), level.len());
                for (&s, decision) in level.iter().zip(decisions) {
                    let od = lin.od(&q, k, s, exclude);
                    match decision {
                        Decision::Od(got) => prop_assert_eq!(
                            got.to_bits(), od.to_bits(),
                            "{} {:?} T={} ranges={}", s, metric, t, ranges
                        ),
                        Decision::Below => prop_assert!(
                            od < t,
                            "settled {} with OD {} >= T={} ({:?}, ranges={})",
                            s, od, t, metric, ranges
                        ),
                    }
                }
            }
            // The plain OD walk is the same walk against -inf: every
            // subspace computed, bit-identical.
            let lattice: Vec<Subspace> = Subspace::all_nonempty(D).collect();
            let ods = LazyContextEvaluator::new(&split, &q, k, exclude).od_batch(&lattice, threads);
            for (&s, got) in lattice.iter().zip(ods) {
                prop_assert_eq!(got.to_bits(), lin.od(&q, k, s, exclude).to_bits(), "{}", s);
            }
        }
    }
}
