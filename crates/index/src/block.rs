//! Blocked full-space OD kernel over a list of member queries.
//!
//! Dataset-wide scans (`hos-core`'s `scan_outliers`) need the
//! full-space OD of **every** live point, and threshold quantile
//! estimation that of a sample of members — many independent queries
//! that the per-query engines answer one at a time, re-striding the
//! row-major matrix and allocating a neighbour list each.
//! [`full_space_ods`] computes them together, in one of two modes:
//!
//! * **Quantized admission** (`L1`/`L2`/`L∞` with sane magnitudes) —
//!   the half-width companion columns
//!   ([`hos_data::Dataset::to_column_major_f32`]) are streamed once
//!   per `(block, dim)` to build a conservative *lower bound* on every
//!   pre-distance; per query, a candidate whose bound already exceeds
//!   the top-k admission bound (`TopK::bound`) is rejected without
//!   ever touching the exact `f64` data, and only the survivors run
//!   the exact ascending-dimension fold. See `DESIGN.md` §9 for the
//!   conservativeness proof; [`quantized_lower_bounds`] exposes the
//!   bound computation for the property tests that pin it.
//! * **Exact fallback** (`Lp`, or magnitudes past the overflow
//!   guards) — the original blocked layout: the matrix is transposed
//!   once into column-major form ([`hos_data::Dataset::to_column_major`]),
//!   queries are processed in blocks of `BLOCK`, and for each
//!   dimension (ascending) each query folds the whole column into its
//!   accumulator row. The inner loops are chunked `LANES` wide over
//!   *points* (each point's own dimension fold stays sequential), so
//!   they auto-vectorize without changing any per-pair op sequence.
//!
//! # Bit-identity
//!
//! Per `(query, point)` pair the fold is `accumulate(acc, |q_j - p_j|)`
//! over dimensions in ascending order starting from `0.0` — precisely
//! [`Metric::pre_dist_sub`] on the full space, the op sequence every
//! exact engine's scan performs (and every exact engine is pinned
//! bit-identical to `LinearScan`). Chunking lanes span points, never
//! dimensions, and thread chunks span queries, so each pair's
//! accumulator sequence is untouched; the quantized path only *skips*
//! pairs that `TopK::offer`'s fast path would provably reject
//! (`lb > bound()` strict — a pair *at* the bound still folds, because
//! a smaller id ties into the heap). Selection and summation
//! go through the shared `(pre, id)` order, so the ODs equal per-point
//! [`crate::knn::KnnEngine::od`] calls on the exact engines **bit for
//! bit**; the tests here assert that with `assert_eq!` across metrics,
//! tombstones, query subsets and thread counts.
//!
//! # Errors and accounting
//!
//! Every ranked OD self-excludes, so fewer than `k` live candidates is
//! [`IndexError::InsufficientPoints`] — the same typed error the
//! checked per-point path (`try_od`) returns, instead of silently
//! understating every OD. [`BlockedScan`] additionally reports
//! `distance_evals` (exact pair folds) and `filtered` (quantized-bound
//! rejects); they always satisfy
//! `distance_evals + filtered == queries * (live - 1)`.

use crate::batch::parallel_map;
use crate::error::IndexError;
use crate::topk::TopK;
use hos_data::{Dataset, Metric, PointId, QuantizedColumns};

/// Queries per block: big enough to amortise each column stream,
/// small enough that a block of accumulator rows stays cache-resident.
const BLOCK: usize = 32;

/// Chunk width of the point-lane inner loops (`f64` exact fold). Four
/// 64-bit lanes fill a 256-bit vector; the `f32` quantized fold uses
/// twice as many.
const LANES: usize = 4;

/// Per-term slack subtracted from a quantized gap, in units of the
/// column's magnitude scale: `2^-19`, a 32x margin over the worst-case
/// `~2^-24`-relative rounding of the two narrowing conversions and the
/// `f32` subtraction between them.
const QUANT_SLACK: f64 = 1.9073486328125e-6;

/// Multiplicative guard on a finished lower bound, per dimension:
/// covers the relative error of the `f32` square/accumulate arithmetic
/// (`~3 * 2^-24` per term, so `1e-6` per dimension is a wide margin).
const QUANT_GUARD_PER_DIM: f64 = 1e-6;

/// Magnitude ceiling for the quantized path: squaring must stay far
/// from `f32::MAX` (`~3.4e38`), so columns whose absolute values reach
/// `1e15` fall back to the exact kernel.
const QUANT_MAX_SCALE: f64 = 1e15;

/// Result of [`full_space_ods`] (and [`all_points_full_od_counted`]):
/// the ODs plus the kernel's work accounting.
#[derive(Clone, Debug)]
pub struct BlockedScan {
    /// `(id, full-space OD)` per query, in query order.
    pub ods: Vec<(PointId, f64)>,
    /// Exact `f64` pair folds performed (live pairs only; the exact
    /// fallback folds every live pair, the quantized path only the
    /// admission survivors).
    pub distance_evals: u64,
    /// Live pairs rejected by the quantized lower bound without an
    /// exact fold. `distance_evals + filtered == queries * (live - 1)`.
    pub filtered: u64,
}

/// Full-space OD of every **live** point against the live remainder of
/// the dataset (each query excludes itself), as `(id, od)` pairs in
/// ascending id order. Bit-identical to
/// `engine.od(ds.row(i), k, full, Some(i))` per live `i` on any of the
/// exact engines.
///
/// # Errors
///
/// [`IndexError::InsufficientPoints`] when fewer than `k` live
/// candidates remain after self-exclusion (`available = live - 1`) —
/// aligned with the checked per-point path, which a caller mixing both
/// relies on.
pub fn all_points_full_od(
    ds: &Dataset,
    metric: Metric,
    k: usize,
) -> Result<Vec<(PointId, f64)>, IndexError> {
    all_points_full_od_counted(ds, metric, k).map(|scan| scan.ods)
}

/// [`all_points_full_od`] with work accounting — see [`BlockedScan`].
/// Single-threaded: [`full_space_ods`] over every live id.
pub fn all_points_full_od_counted(
    ds: &Dataset,
    metric: Metric,
    k: usize,
) -> Result<BlockedScan, IndexError> {
    let live: Vec<PointId> = ds.live_ids().collect();
    full_space_ods(ds, metric, k, &live, 1)
}

/// Full-space OD of each live member in `queries` (any order, each
/// self-excluded) against the live dataset, as `(id, od)` pairs in
/// query order — bit-identical to
/// `engine.od(ds.row(q), k, full, Some(q))` on any exact engine.
///
/// The transposed columns are built once and shared; the queries split
/// into `threads` contiguous chunks on
/// [`crate::batch::parallel_map`], each chunk with its own accumulator
/// rows and `TopK`. Every per-query computation is independent of
/// the chunking, so the result is the same at any thread count.
///
/// # Errors
///
/// [`IndexError::InsufficientPoints`] when fewer than `k` live
/// candidates remain after self-exclusion (`available = live - 1`);
/// [`IndexError::OutOfBounds`] / [`IndexError::DeadPoint`] for a query
/// id that is not a live member.
pub fn full_space_ods(
    ds: &Dataset,
    metric: Metric,
    k: usize,
    queries: &[PointId],
    threads: usize,
) -> Result<BlockedScan, IndexError> {
    let available = ds.live_len().saturating_sub(1);
    if available < k {
        return Err(IndexError::InsufficientPoints { available, k });
    }
    for &q in queries {
        if q >= ds.len() {
            return Err(IndexError::OutOfBounds {
                id: q,
                len: ds.len(),
            });
        }
        if !ds.is_live(q) {
            return Err(IndexError::DeadPoint(q));
        }
    }
    if queries.is_empty() {
        return Ok(BlockedScan {
            ods: Vec::new(),
            distance_evals: 0,
            filtered: 0,
        });
    }
    let chunks: Vec<&[PointId]> = queries
        .chunks(queries.len().div_ceil(threads.max(1)))
        .collect();
    let parts = if quantized_admissible(metric, ds) {
        let qcols = ds.to_column_major_f32();
        let dead: Vec<PointId> = (0..ds.len()).filter(|&i| !ds.is_live(i)).collect();
        parallel_map(&chunks, threads, |chunk| {
            scan_quantized(ds, metric, k, &qcols, &dead, chunk)
        })
    } else {
        let cols = ds.to_column_major();
        parallel_map(&chunks, threads, |chunk| {
            scan_exact(ds, metric, k, &cols, chunk)
        })
    };
    let mut scan = BlockedScan {
        ods: Vec::with_capacity(queries.len()),
        distance_evals: 0,
        filtered: 0,
    };
    for part in parts {
        scan.ods.extend(part.ods);
        scan.distance_evals += part.distance_evals;
        scan.filtered += part.filtered;
    }
    Ok(scan)
}

/// Whether the quantized admission path is sound for this metric and
/// dataset: `Lp` is excluded (`powf` admits no cheap order-safe lower
/// bound), as are magnitudes past [`QUANT_MAX_SCALE`].
fn quantized_admissible(metric: Metric, ds: &Dataset) -> bool {
    match metric {
        Metric::L1 | Metric::L2 | Metric::LInf => (0..ds.dim())
            .all(|j| ds.column(j).fold(0.0f64, |m, v| m.max(v.abs())) < QUANT_MAX_SCALE),
        Metric::Lp(_) => false,
    }
}

/// Conservative lower bounds on the full-space pre-distance from live
/// point `q` to every *physical* row (tombstoned slots included
/// positionally; callers filter), computed exactly as the quantized
/// admission path computes them — or `None` when that path is
/// inadmissible (`quantized_admissible`) and the kernel runs exact.
///
/// Guarantee (pinned by the property tests): for every row `i`,
/// `bounds[i] <= metric.pre_dist_sub(ds.row(q), ds.row(i), full)`.
pub fn quantized_lower_bounds(ds: &Dataset, metric: Metric, q: PointId) -> Option<Vec<f64>> {
    if !quantized_admissible(metric, ds) || q >= ds.len() {
        return None;
    }
    let n = ds.len();
    let qcols = ds.to_column_major_f32();
    let mut acc = vec![0.0f32; n];
    fold_quantized_rows(metric, &qcols, n, ds.dim(), &[q], &mut acc);
    let guard = quant_guard(ds.dim());
    Some(acc.iter().map(|&lb| f64::from(lb) * guard).collect())
}

#[inline]
fn quant_guard(d: usize) -> f64 {
    (1.0 - d as f64 * QUANT_GUARD_PER_DIM).max(0.0)
}

/// Exact blocked kernel over one chunk of queries, reading the shared
/// column-major transpose `cols`: every live pair is folded.
fn scan_exact(
    ds: &Dataset,
    metric: Metric,
    k: usize,
    cols: &[f64],
    queries: &[PointId],
) -> BlockedScan {
    let n = ds.len();
    let d = ds.dim();
    let mut ods = Vec::with_capacity(queries.len());
    let mut acc = vec![0.0f64; BLOCK.min(queries.len()) * n];
    let mut top = TopK::new(k);
    for block in queries.chunks(BLOCK) {
        let acc = &mut acc[..block.len() * n];
        acc.fill(0.0);
        // Ascending dimensions, exactly the pre_dist_sub fold order.
        for j in 0..d {
            let col = &cols[j * n..(j + 1) * n];
            for (row, &q) in acc.chunks_exact_mut(n).zip(block) {
                fold_exact_column(metric, row, col, col[q]);
            }
        }
        for (row, &q) in acc.chunks_exact(n).zip(block) {
            top.reset(k);
            for (i, &pre) in row.iter().enumerate() {
                if i == q || !ds.is_live(i) {
                    continue;
                }
                top.offer(pre, i);
            }
            // Ascending (pre, id) summation — the shared OD order.
            let od: f64 = top.sorted().iter().map(|c| metric.finish(c.pre)).sum();
            ods.push((q, od));
        }
    }
    BlockedScan {
        ods,
        distance_evals: queries.len() as u64 * (ds.live_len() as u64 - 1),
        filtered: 0,
    }
}

/// Folds one exact `f64` column into a block-row of accumulators:
/// `row[i] = accumulate(row[i], |qv - col[i]|)`. Chunked `LANES`
/// wide over points — each slot's own dimension sequence is untouched,
/// so this is bit-identical to the scalar loop in any chunk order.
#[inline]
fn fold_exact_column(metric: Metric, row: &mut [f64], col: &[f64], qv: f64) {
    match metric {
        Metric::L1 => {
            let mut rc = row.chunks_exact_mut(LANES);
            let mut cc = col.chunks_exact(LANES);
            for (r, c) in (&mut rc).zip(&mut cc) {
                r[0] += (qv - c[0]).abs();
                r[1] += (qv - c[1]).abs();
                r[2] += (qv - c[2]).abs();
                r[3] += (qv - c[3]).abs();
            }
            for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                *r += (qv - p).abs();
            }
        }
        Metric::L2 => {
            // `g * g == |g| * |g|` bit for bit (IEEE multiplication is
            // sign-magnitude), so the abs is elided.
            let mut rc = row.chunks_exact_mut(LANES);
            let mut cc = col.chunks_exact(LANES);
            for (r, c) in (&mut rc).zip(&mut cc) {
                r[0] += (qv - c[0]) * (qv - c[0]);
                r[1] += (qv - c[1]) * (qv - c[1]);
                r[2] += (qv - c[2]) * (qv - c[2]);
                r[3] += (qv - c[3]) * (qv - c[3]);
            }
            for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                *r += (qv - p) * (qv - p);
            }
        }
        Metric::LInf => {
            let mut rc = row.chunks_exact_mut(LANES);
            let mut cc = col.chunks_exact(LANES);
            for (r, c) in (&mut rc).zip(&mut cc) {
                r[0] = r[0].max((qv - c[0]).abs());
                r[1] = r[1].max((qv - c[1]).abs());
                r[2] = r[2].max((qv - c[2]).abs());
                r[3] = r[3].max((qv - c[3]).abs());
            }
            for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                *r = r.max((qv - p).abs());
            }
        }
        Metric::Lp(p) => {
            // powf dominates; chunking buys nothing here.
            for (r, &pv) in row.iter_mut().zip(col) {
                *r += (qv - pv).abs().powf(p);
            }
        }
    }
}

/// Chunk width of the lower-bound sweep's min-tree: wide enough that
/// one rejected chunk retires 16 candidates on a single compare.
const SWEEP_LANES: usize = 16;

/// Quantized-admission kernel over one chunk of queries, reading the
/// shared `f32` companion columns `qcols` and the tombstoned ids
/// `dead_ids`: per query, half-width lower bounds for every row, then
/// an exact scalar fold only for candidates the bound cannot reject.
///
/// The per-query sweep never branches on liveness: tombstoned slots
/// and the query's own slot are overwritten with `+inf` lower bounds,
/// which every admission compare rejects, so the hot loop reduces to a
/// chunked min-tree over the bound row — one compare retires a whole
/// chunk once the top-k bound has tightened. `filtered` is then the
/// arithmetic complement `live - 1 - evals` per query.
fn scan_quantized(
    ds: &Dataset,
    metric: Metric,
    k: usize,
    qcols: &QuantizedColumns,
    dead_ids: &[PointId],
    queries: &[PointId],
) -> BlockedScan {
    let n = ds.len();
    let d = ds.dim();
    let guard = quant_guard(d);
    let candidates = ds.live_len() as u64 - 1;
    let mut ods = Vec::with_capacity(queries.len());
    let mut acc = vec![0.0f32; n];
    let mut top = TopK::new(k);
    let mut evals = 0u64;
    let mut filtered = 0u64;
    // One query at a time, unlike the exact path's query blocks: the
    // f32 bound row stays L1-resident across the whole dimension loop
    // (the exact path's f64 accumulator block is re-streamed once per
    // dimension instead), and the f32 columns are small enough to stay
    // cache-resident across queries.
    for &q in queries {
        let row = &mut acc[..];
        fold_quantized_rows(metric, qcols, n, d, &[q], row);
        for &i in dead_ids {
            row[i] = f32::INFINITY;
        }
        row[q] = f32::INFINITY;
        top.reset(k);
        let qrow = ds.row(q);
        let mut q_evals = 0u64;
        // Fill: the first k live candidates go straight to exact
        // folds — the bound is +inf until the heap is full.
        let mut i = 0usize;
        while i < n && !top.is_full() {
            if row[i].is_finite() {
                let pre = exact_pre(metric, qrow, ds.row(i));
                q_evals += 1;
                top.offer(pre, i);
            }
            i += 1;
        }
        // Sweep: strict reject only — `offer` provably drops any
        // pre above the bound, and `lb * guard <= pre`; a pair
        // *at* the bound can still tie in on a smaller id.
        let mut w = top.bound();
        while i + SWEEP_LANES <= n {
            let c = &row[i..i + SWEEP_LANES];
            let mut m = [0.0f32; SWEEP_LANES / 2];
            for j in 0..SWEEP_LANES / 2 {
                m[j] = if c[j] < c[j + SWEEP_LANES / 2] {
                    c[j]
                } else {
                    c[j + SWEEP_LANES / 2]
                };
            }
            let mut width = SWEEP_LANES / 2;
            while width > 1 {
                width /= 2;
                for j in 0..width {
                    m[j] = if m[j] < m[j + width] {
                        m[j]
                    } else {
                        m[j + width]
                    };
                }
            }
            if f64::from(m[0]) * guard <= w {
                for (j, &lb) in c.iter().enumerate() {
                    if f64::from(lb) * guard <= w {
                        let pre = exact_pre(metric, qrow, ds.row(i + j));
                        q_evals += 1;
                        top.offer(pre, i + j);
                    }
                }
                w = top.bound();
            }
            i += SWEEP_LANES;
        }
        for (j, &lb) in row[i..].iter().enumerate() {
            if f64::from(lb) * guard <= w {
                let pre = exact_pre(metric, qrow, ds.row(i + j));
                q_evals += 1;
                top.offer(pre, i + j);
                w = top.bound();
            }
        }
        let od: f64 = top.sorted().iter().map(|c| metric.finish(c.pre)).sum();
        ods.push((q, od));
        evals += q_evals;
        filtered += candidates - q_evals;
    }
    BlockedScan {
        ods,
        distance_evals: evals,
        filtered,
    }
}

/// Chunk width of the `f32` lower-bound fold: eight 32-bit lanes fill
/// a 256-bit vector.
const QLANES: usize = 8;

/// Streams the `f32` companion columns (ascending dimensions) into a
/// block of lower-bound accumulator rows. Per term the rounding slack
/// `scale[j] * 2^-19` is subtracted and the result floored at zero, so
/// each accumulated term under-estimates the exact `f64` gap term; the
/// caller applies the multiplicative [`quant_guard`] to also cover the
/// `f32` square/accumulate rounding. The metric dispatch sits outside
/// the streaming loops so each inner body is a branch-free chunked
/// loop the compiler can vectorize.
fn fold_quantized_rows(
    metric: Metric,
    qcols: &QuantizedColumns,
    n: usize,
    d: usize,
    block: &[PointId],
    acc: &mut [f32],
) {
    debug_assert_eq!(acc.len(), block.len() * n);
    acc.fill(0.0);
    macro_rules! stream {
        ($lane:expr, $tail:expr) => {
            for j in 0..d {
                let col = &qcols.cols[j * n..(j + 1) * n];
                let slack = (qcols.scale[j] * QUANT_SLACK) as f32;
                for (row, &q) in acc.chunks_exact_mut(n).zip(block) {
                    let qv = col[q];
                    let mut rc = row.chunks_exact_mut(QLANES);
                    let mut cc = col.chunks_exact(QLANES);
                    for (r, c) in (&mut rc).zip(&mut cc) {
                        for l in 0..QLANES {
                            let t = ((qv - c[l]).abs() - slack).max(0.0);
                            $lane(&mut r[l], t);
                        }
                    }
                    for (r, &p) in rc.into_remainder().iter_mut().zip(cc.remainder()) {
                        let t = ((qv - p).abs() - slack).max(0.0);
                        $tail(r, t);
                    }
                }
            }
        };
    }
    match metric {
        Metric::L1 => {
            stream!(|r: &mut f32, t: f32| *r += t, |r: &mut f32, t: f32| *r += t)
        }
        Metric::L2 => {
            stream!(|r: &mut f32, t: f32| *r += t * t, |r: &mut f32, t: f32| {
                *r += t * t
            })
        }
        Metric::LInf => {
            stream!(
                |r: &mut f32, t: f32| *r = r.max(t),
                |r: &mut f32, t: f32| *r = r.max(t)
            )
        }
        Metric::Lp(_) => unreachable!("Lp never takes the quantized path"),
    }
}

/// Exact full-space pre-distance of one pair: the ascending-dimension
/// `accumulate` fold from `0.0` — the shared op sequence (row-major
/// here, column-major in [`scan_exact`]; same values, same order).
#[inline]
fn exact_pre(metric: Metric, q: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (a, b) in q.iter().zip(p) {
        acc = metric.accumulate(acc, (a - b).abs());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::LazyContextEvaluator;
    use crate::knn::{build_engine, Engine, KnnEngine};
    use crate::linear::LinearScan;
    use hos_data::Subspace;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        // Coarse grid: exact distance ties exercise the (pre, id)
        // tie-break through the blocked selection too.
        let flat: Vec<f64> = (0..n * d)
            .map(|_| (rng.gen_range(0..9) as f64) * 0.5)
            .collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn bit_identical_to_per_point_engine_queries() {
        // 70 points spans multiple blocks (BLOCK = 32), so block
        // boundaries are exercised; L1/L2/LInf run the quantized
        // admission path, Lp the exact fallback.
        let ds = dataset(70, 4, 1);
        let full = Subspace::full(4);
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let blocked = all_points_full_od(&ds, metric, 5).unwrap();
            assert_eq!(blocked.len(), 70);
            for kind in [Engine::Linear, Engine::XTree] {
                let engine = build_engine(kind, ds.clone(), metric, 1);
                for &(i, od) in &blocked {
                    assert_eq!(
                        od,
                        engine.od(ds.row(i), 5, full, Some(i)),
                        "{metric:?} {kind} point {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn tombstones_skip_both_sides() {
        let mut ds = dataset(40, 3, 2);
        for id in [0usize, 13, 39] {
            ds.remove_row(id).unwrap();
        }
        let blocked = all_points_full_od(&ds, Metric::L2, 4).unwrap();
        // Dead rows neither rank nor serve as neighbours.
        assert_eq!(blocked.len(), 37);
        assert!(blocked.iter().all(|&(i, _)| ds.is_live(i)));
        let engine = LinearScan::with_ranges(ds.clone(), Metric::L2, 3);
        for &(i, od) in &blocked {
            let mut ev = LazyContextEvaluator::new(&engine, ds.row(i), 4, Some(i));
            assert_eq!(od, ev.od(Subspace::full(3)), "point {i}");
        }
    }

    /// Too few live candidates is the same typed error — with the
    /// same `available` accounting — that every engine's checked
    /// per-point path returns, not a silently short-k OD.
    #[test]
    fn insufficient_points_aligns_with_engines() {
        let empty = Dataset::empty();
        assert_eq!(
            all_points_full_od(&empty, Metric::L2, 3).unwrap_err(),
            IndexError::InsufficientPoints { available: 0, k: 3 }
        );
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(
            all_points_full_od(&one, Metric::L2, 3).unwrap_err(),
            IndexError::InsufficientPoints { available: 0, k: 3 }
        );
        let mut ds = dataset(8, 2, 3);
        for id in [1usize, 4, 6] {
            ds.remove_row(id).unwrap();
        }
        // 5 live, self-excluding queries see 4 candidates.
        let err = all_points_full_od(&ds, Metric::L2, 5).unwrap_err();
        assert_eq!(err, IndexError::InsufficientPoints { available: 4, k: 5 });
        for kind in [Engine::Linear, Engine::XTree] {
            let engine = build_engine(kind, ds.clone(), Metric::L2, 1);
            let per_point = engine
                .try_od(ds.row(0), 5, Subspace::full(2), Some(0))
                .unwrap_err();
            assert_eq!(err, per_point, "{kind}");
        }
        // k == available is the boundary that still succeeds.
        assert_eq!(all_points_full_od(&ds, Metric::L2, 4).unwrap().len(), 5);
    }

    #[test]
    fn small_and_zero_k_edges() {
        // k = 0 stays OD 0 for every live point, never an error.
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(
            all_points_full_od(&one, Metric::L2, 0).unwrap(),
            vec![(0, 0.0)]
        );
        let two = Dataset::from_rows(&[vec![0.0], vec![3.0]]).unwrap();
        assert_eq!(
            all_points_full_od(&two, Metric::L1, 1).unwrap(),
            vec![(0, 3.0), (1, 3.0)]
        );
    }

    /// The counted kernel's accounting is exact on both paths:
    /// `distance_evals + filtered == live * (live - 1)`, and the
    /// quantized path actually filters on clustered data.
    #[test]
    fn counted_accounting_covers_every_live_pair() {
        let mut rng = StdRng::seed_from_u64(9);
        // Two tight clusters far apart: most cross-cluster pairs lose
        // to within-cluster neighbours, so admission has real rejects.
        let flat: Vec<f64> = (0..90 * 3)
            .map(|i| {
                let base = if (i / 3) < 45 { 0.0 } else { 1000.0 };
                base + rng.gen_range(0..100) as f64 * 0.01
            })
            .collect();
        let mut ds = Dataset::from_flat(flat, 3).unwrap();
        ds.remove_row(7).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::LInf, Metric::Lp(3.0)] {
            let scan = all_points_full_od_counted(&ds, metric, 4).unwrap();
            let live = ds.live_len() as u64;
            assert_eq!(
                scan.distance_evals + scan.filtered,
                live * (live - 1),
                "{metric:?}"
            );
            match metric {
                Metric::Lp(_) => assert_eq!(scan.filtered, 0, "exact fallback never filters"),
                _ => assert!(
                    scan.filtered > scan.distance_evals,
                    "{metric:?}: clustered data should reject most pairs, \
                     got evals={} filtered={}",
                    scan.distance_evals,
                    scan.filtered
                ),
            }
            // Counting never changes the answer.
            assert_eq!(scan.ods, all_points_full_od(&ds, metric, 4).unwrap());
        }
    }

    /// The single-threaded all-points entry point is the `(&live, 1)`
    /// call. Its answers and accounting are pinned to fixed values, so
    /// any change to what scans rank and report shows here
    /// (`fingerprint` folds every `(id, od)` bit pattern in order).
    #[test]
    fn all_points_counted_is_the_live_single_thread_call() {
        let mut rng = StdRng::seed_from_u64(9);
        let flat: Vec<f64> = (0..90 * 3)
            .map(|i| {
                let base = if (i / 3) < 45 { 0.0 } else { 1000.0 };
                base + rng.gen_range(0..100) as f64 * 0.01
            })
            .collect();
        let mut ds = Dataset::from_flat(flat, 3).unwrap();
        ds.remove_row(7).unwrap();
        let live: Vec<PointId> = ds.live_ids().collect();
        let pinned = [
            (Metric::L1, 2536, 5296, 0xad5f_2879_6938_3277u64),
            (Metric::L2, 2515, 5317, 0x9062_29c7_4055_d347),
            (Metric::LInf, 2576, 5256, 0x688f_37cb_ebc3_21d5),
            (Metric::Lp(3.0), 7832, 0, 0x8224_e8ff_c37e_2a5b),
        ];
        for (metric, evals, filtered, fingerprint) in pinned {
            let scan = all_points_full_od_counted(&ds, metric, 4).unwrap();
            let got = scan.ods.iter().fold(0u64, |h, &(i, od)| {
                h.rotate_left(5) ^ od.to_bits() ^ i as u64
            });
            assert_eq!(
                (scan.distance_evals, scan.filtered, got),
                (evals, filtered, fingerprint),
                "{metric:?}"
            );
            let direct = full_space_ods(&ds, metric, 4, &live, 1).unwrap();
            assert_eq!(scan.ods, direct.ods, "{metric:?}");
        }
    }

    /// Any subset of live ids, in any order and at any thread count:
    /// the ODs equal per-point engine queries bit for bit, come back in
    /// query order, and the accounting covers every (query, live
    /// candidate) pair — identically at every thread count, since each
    /// query's admission is independent of how the list is chunked.
    #[test]
    fn subset_queries_bit_identical_to_engine_ods_at_any_thread_count() {
        let tombstones = [3usize, 20, 41, 58, 74];
        let mut grid = dataset(75, 4, 6);
        // Column 0 scaled past QUANT_MAX_SCALE: L2 must fall back to
        // the exact kernel.
        let mut huge = Dataset::from_rows(
            &(0..75)
                .map(|i| {
                    let mut r = grid.row(i).to_vec();
                    r[0] *= 1e16;
                    r
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for &id in &tombstones {
            grid.remove_row(id).unwrap();
            huge.remove_row(id).unwrap();
        }
        assert!(quantized_lower_bounds(&huge, Metric::L2, 0).is_none());
        let cases = [
            (&grid, Metric::L1),
            (&grid, Metric::L2),
            (&grid, Metric::LInf),
            (&grid, Metric::Lp(3.0)),
            (&huge, Metric::L2),
        ];
        let k = 5;
        let mut rng = StdRng::seed_from_u64(17);
        for (ds, metric) in cases {
            let full = Subspace::full(4);
            let live = ds.live_len() as u64;
            let engines: [Box<dyn KnnEngine>; 3] = [
                build_engine(Engine::Linear, ds.clone(), metric, 1),
                build_engine(Engine::XTree, ds.clone(), metric, 1),
                build_engine(Engine::Linear, ds.clone(), metric, 3),
            ];
            for size in [31usize, 32, 33, 70] {
                let mut ids: Vec<PointId> = ds.live_ids().collect();
                ids.shuffle(&mut rng);
                ids.truncate(size);
                let serial = full_space_ods(ds, metric, k, &ids, 1).unwrap();
                for threads in [1usize, 2, 3, 7] {
                    let scan = full_space_ods(ds, metric, k, &ids, threads).unwrap();
                    let order: Vec<PointId> = scan.ods.iter().map(|&(i, _)| i).collect();
                    assert_eq!(order, ids, "{metric:?} size {size} threads {threads}");
                    for &(i, od) in &scan.ods {
                        for engine in &engines {
                            let want =
                                LazyContextEvaluator::new(engine.as_ref(), ds.row(i), k, Some(i))
                                    .od(full);
                            assert_eq!(
                                od.to_bits(),
                                want.to_bits(),
                                "{metric:?} size {size} threads {threads} point {i}"
                            );
                        }
                    }
                    assert_eq!(
                        scan.distance_evals + scan.filtered,
                        size as u64 * (live - 1),
                        "{metric:?} size {size} threads {threads}"
                    );
                    assert_eq!(
                        (scan.distance_evals, scan.filtered),
                        (serial.distance_evals, serial.filtered),
                        "{metric:?} size {size} threads {threads}"
                    );
                }
            }
        }
    }

    /// Query ids must be live members; an empty list is no work.
    #[test]
    fn subset_queries_reject_non_members() {
        let mut ds = dataset(20, 2, 8);
        ds.remove_row(4).unwrap();
        assert_eq!(
            full_space_ods(&ds, Metric::L2, 3, &[1, 4], 2).unwrap_err(),
            IndexError::DeadPoint(4)
        );
        assert_eq!(
            full_space_ods(&ds, Metric::L2, 3, &[20], 1).unwrap_err(),
            IndexError::OutOfBounds { id: 20, len: 20 }
        );
        let none = full_space_ods(&ds, Metric::L2, 3, &[], 4).unwrap();
        assert!(none.ods.is_empty());
        assert_eq!((none.distance_evals, none.filtered), (0, 0));
    }

    /// The public bound API: conservative against the exact pre-fold
    /// on every physical row, and `None` exactly when the kernel runs
    /// the exact fallback.
    #[test]
    fn quantized_bounds_are_conservative() {
        let ds = dataset(60, 5, 4);
        let full = Subspace::full(5);
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let lb = quantized_lower_bounds(&ds, metric, 11).unwrap();
            assert_eq!(lb.len(), 60);
            for (i, &b) in lb.iter().enumerate() {
                let exact = metric.pre_dist_sub(ds.row(11), ds.row(i), full);
                assert!(b <= exact, "{metric:?} i={i}: lb {b} > exact {exact}");
            }
        }
        assert!(quantized_lower_bounds(&ds, Metric::Lp(3.0), 11).is_none());
        let huge = Dataset::from_rows(&[vec![0.0], vec![2.0e15]]).unwrap();
        assert!(quantized_lower_bounds(&huge, Metric::L2, 0).is_none());
        // The kernel's fallback on such data is still bit-exact.
        let scan = all_points_full_od_counted(&huge, Metric::L2, 1).unwrap();
        assert_eq!(scan.filtered, 0);
        assert_eq!(scan.ods, vec![(0, 2.0e15), (1, 2.0e15)]);
    }
}
