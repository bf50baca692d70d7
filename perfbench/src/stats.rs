//! The benchmark's own arithmetic: percentile selection, the tail rule,
//! and the capacity ladder's search and pass test.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`-th percentile among `n`
/// samples: the smallest rank with at least that share of the samples
/// at or below it. Integer arithmetic, so p99 of 1000 samples is rank
/// 990 exactly.
pub fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 500)
}

/// p99, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn p99(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, 990) >= MIN_BEYOND).then(|| percentile(sorted, 990))
}

/// p99 robust to rare whole-system stalls: the time-ordered samples
/// are cut into as many consecutive chunks of at least 1000 as they
/// fill (at most 16), each chunk's p99 is taken (each has at least
/// [`MIN_BEYOND`] samples beyond it), and the median of those is
/// reported. One chunk is plain [`p99`].
pub fn chunked_p99(by_time: &[f64]) -> Option<f64> {
    let chunks = (by_time.len() / 1000).min(16);
    if chunks == 0 {
        return None;
    }
    let size = by_time.len() / chunks;
    let per_chunk = sorted(
        by_time
            .chunks(size)
            .take(chunks)
            .map(|c| p99(&sorted(c.iter().copied())).expect("chunks hold at least 1000 samples")),
    );
    Some(median(&per_chunk))
}

/// The highest percentile, at most p99, that still has [`MIN_BEYOND`]
/// samples beyond it; `None` when that would fall to the median or
/// below.
pub fn tail(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    let r = rank(n, 990).min(n.checked_sub(MIN_BEYOND)?);
    (r > rank(n, 500)).then(|| sorted[r - 1])
}

/// Sorts a copy ascending (NaN-free input).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    v
}

/// Mean of the middle half of an ascending slice, a quarter (rounded
/// down) dropped from each end: robust to outliers like the median, but
/// when the samples fall in two clusters it blends them where the
/// median picks one.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether the generator's backlog grew over a rung: `by_time` holds
/// the rung's latencies in scheduled order, in seconds. A stable queue
/// keeps its lag stationary; an overloaded one makes every later
/// request wait longer. The backlog grows when the median lag of the
/// rung's last quarter exceeds the median lag of its first quarter by
/// more than half the latency limit. Medians, so that one short stall
/// inside a quarter does not read as growth.
pub fn backlog_grows(by_time: &[f64], limit_s: f64) -> bool {
    let q = by_time.len() / 4;
    if q == 0 {
        return false;
    }
    let head = median(&sorted(by_time[..q].iter().copied()));
    let tail = median(&sorted(by_time[by_time.len() - q..].iter().copied()));
    tail - head > 0.5 * limit_s
}

/// The tail reported for a set of latencies in scheduled order:
/// [`chunked_p99`] when there are at least 1000 samples, otherwise the
/// highest percentile with [`MIN_BEYOND`] samples beyond it ([`tail`]).
pub fn robust_tail(by_time: &[f64]) -> Option<f64> {
    chunked_p99(by_time).or_else(|| tail(&sorted(by_time.iter().copied())))
}

/// One rung's verdict.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Tail latency per [`robust_tail`], seconds (infinite without one).
    pub tail_s: f64,
    pub failed: usize,
    pub growing: bool,
}

impl Verdict {
    /// Judges a rung from its query latencies in scheduled order
    /// (seconds; a failed request is infinite) and its failure count.
    pub fn judge(by_time: &[f64], failed: usize, limit_s: f64) -> Verdict {
        Verdict {
            tail_s: robust_tail(by_time).unwrap_or(f64::INFINITY),
            failed,
            growing: backlog_grows(by_time, limit_s),
        }
    }

    /// A rung passes when its tail stays under the limit, nothing
    /// failed, and the backlog did not grow.
    pub fn pass(&self, limit_s: f64) -> bool {
        self.tail_s < limit_s && self.failed == 0 && !self.growing
    }
}

/// Steps of the fixed geometric ladder per doubling of the rate: rung
/// `g` offers `base × 2^(g / LADDER_STEPS)`.
pub const LADDER_STEPS: i32 = 16;
/// Coarse search stride in rungs (a factor of √2).
const COARSE: i32 = LADDER_STEPS / 2;
/// Highest and lowest rung the search visits (32× and 1/16× the base).
const MAX_RUNG: i32 = 5 * LADDER_STEPS;
const MIN_RUNG: i32 = -4 * LADDER_STEPS;
/// First rung the search tries: 4× the base, since the fixed offered
/// rates sit far below capacity and the ladder has only a few rungs.
pub const LADDER_FROM: i32 = 2 * LADDER_STEPS;

/// Offered rate of rung `g`.
pub fn rung_rate(base: f64, g: i32) -> f64 {
    base * 2f64.powf(g as f64 / LADDER_STEPS as f64)
}

/// The next rung to try given `(rung, passed)` history: coarse √2
/// strides up from the highest pass (or down from the lowest failure
/// when nothing passed yet), then bisection on the fine grid between
/// the highest pass and the lowest failure above it. `None` once the
/// bracket is one rung wide or the search hits its range limits.
pub fn next_rung(history: &[(i32, bool)]) -> Option<i32> {
    let best = history.iter().filter(|h| h.1).map(|h| h.0).max();
    let Some(best) = best else {
        let lowest = history.iter().map(|h| h.0).min()?;
        return (lowest > MIN_RUNG).then_some(lowest - COARSE);
    };
    match history
        .iter()
        .filter(|h| !h.1 && h.0 > best)
        .map(|h| h.0)
        .min()
    {
        None => (best < MAX_RUNG).then_some(best + COARSE),
        Some(fail) if fail - best > 1 => Some(best + (fail - best) / 2),
        Some(_) => None,
    }
}

/// The highest rung that passed.
pub fn best_rung(history: &[(i32, bool)]) -> Option<i32> {
    history.iter().filter(|h| h.1).map(|h| h.0).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(1000);
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(median(&v), 500.0);
        assert_eq!(median(&ramp(3)), 2.0);
        assert_eq!(percentile(&ramp(1), 990), 1.0);
        // 0.99 * 101 = 99.99 rounds up to rank 100.
        assert_eq!(percentile(&ramp(101), 990), 100.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 4.0, 100.0]), 3.0);
        // Two clusters of five: the median picks one, the mean of the
        // middle six blends them.
        let two = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(median(&two), 1.0);
        assert_eq!(interquartile_mean(&two), 1.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(p99(&ramp(1000)), Some(990.0));
        // 999 samples: rank 990 (989.01 rounds up), only 9 beyond.
        assert_eq!(p99(&ramp(999)), None);
        assert_eq!(p99(&ramp(200)), None);
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn chunked_p99_takes_the_median_chunk() {
        assert_eq!(chunked_p99(&ramp(999)), None);
        // One chunk: plain p99.
        assert_eq!(chunked_p99(&ramp(1500)), p99(&ramp(1500)));
        // Three chunks of 1000; a stall spoils only the middle one.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(chunked_p99(&v), Some(989.0));
        // Below 1000 samples the tail falls back to the highest
        // supported percentile.
        assert_eq!(robust_tail(&ramp(200)), Some(190.0));
        assert_eq!(robust_tail(&ramp(1500)), p99(&ramp(1500)));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(1000)), Some(990.0));
        assert_eq!(tail(&ramp(5000)), Some(4950.0));
        // 200 samples: p99 would leave 2 beyond; rank 190 leaves 10.
        assert_eq!(tail(&ramp(200)), Some(190.0));
        // 20 samples: rank 10 is the median itself, so no tail.
        assert_eq!(tail(&ramp(20)), None);
        assert_eq!(tail(&ramp(5)), None);
    }

    #[test]
    fn steady_lag_is_not_a_growing_backlog() {
        let lags: Vec<f64> = (0..400)
            .map(|i| 0.002 + 0.001 * ((i * 7) % 5) as f64)
            .collect();
        assert!(!backlog_grows(&lags, 0.010));
        // A 30 ms stall over the last 20 requests is not growth.
        let mut stalled = lags.clone();
        for x in &mut stalled[380..] {
            *x += 0.030;
        }
        assert!(!backlog_grows(&stalled, 0.010));
    }

    #[test]
    fn linearly_growing_lag_is_a_growing_backlog() {
        // Arrivals every 1 ms, service every 1.25 ms: request i
        // completes at 1.25 ms * (i + 1), so its lag grows by 0.25 ms
        // per request.
        let lags: Vec<f64> = (0..400)
            .map(|i| 0.00125 * (i + 1) as f64 - i as f64 * 0.001)
            .collect();
        assert!(backlog_grows(&lags, 0.010));
        // The same growth is not flagged against a limit it cannot
        // reach within the rung.
        assert!(!backlog_grows(&lags, 1.0));
        // A limit the tail (98.5 ms) stays under but the growth (75 ms
        // between first and last quarter) exceeds half of.
        let v = Verdict::judge(&lags, 0, 0.12);
        assert!(v.growing && v.tail_s < 0.12 && !v.pass(0.12));
    }

    #[test]
    fn verdict_fails_on_tail_or_failures() {
        let lags = vec![0.001; 1000];
        assert!(Verdict::judge(&lags, 0, 0.005).pass(0.005));
        assert!(!Verdict::judge(&lags, 1, 0.005).pass(0.005));
        assert!(!Verdict::judge(&lags, 0, 0.001).pass(0.001));
        // With several chunks, one stalled chunk does not fail the rung.
        let mut stalled = vec![0.001; 4000];
        for x in &mut stalled[100..200] {
            *x = 0.5;
        }
        assert!(Verdict::judge(&stalled, 0, 0.005).pass(0.005));
    }

    #[test]
    fn ladder_search_strides_then_bisects() {
        assert_eq!(next_rung(&[(0, true)]), Some(8));
        assert_eq!(next_rung(&[(0, true), (8, true)]), Some(16));
        // Bracket (8, 16): bisect to 12, 10 or 14, then 9, 11, 13 or 15.
        assert_eq!(next_rung(&[(0, true), (8, true), (16, false)]), Some(12));
        let h = [(0, true), (8, true), (16, false), (12, false)];
        assert_eq!(next_rung(&h), Some(10));
        let h = [(0, true), (8, true), (16, false), (12, true), (14, false)];
        assert_eq!(next_rung(&h), Some(13));
        let h = [
            (0, true),
            (8, true),
            (16, false),
            (12, true),
            (14, false),
            (13, false),
        ];
        assert_eq!(next_rung(&h), None);
        assert_eq!(best_rung(&h), Some(12));
        // Nothing passes: walk down in coarse strides.
        assert_eq!(next_rung(&[(0, false)]), Some(-8));
        assert_eq!(next_rung(&[(0, false), (-8, true)]), Some(-4));
        assert_eq!(next_rung(&[(MIN_RUNG, false)]), None);
        assert_eq!(next_rung(&[(MAX_RUNG, true)]), None);
        assert!((rung_rate(100.0, 16) - 200.0).abs() < 1e-9);
    }
}
