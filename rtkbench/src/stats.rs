//! Order statistics for latency samples and per-round figures.

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it, so that it rests on more than a few outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` of ascending `sorted`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), p) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank(sorted.len(), p)])
}

/// Ops per block for [`blocked_p99`]: the fewest that leave
/// [`MIN_TAIL_SAMPLES`] beyond the 99th percentile.
pub const P99_BLOCK: usize = 1000;

/// Median over consecutive blocks of [`P99_BLOCK`] samples (a short last
/// block is dropped) of each block's 99th percentile; 0 with no full block.
pub fn blocked_p99(samples: &[f64]) -> f64 {
    let p99s: Vec<f64> = samples
        .chunks_exact(P99_BLOCK)
        .filter_map(|b| {
            let mut b = b.to_vec();
            b.sort_by(f64::total_cmp);
            percentile(&b, 99.0)
        })
        .collect();
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        // 999 samples leave only 9 beyond p99.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn blocked_p99_is_robust_to_one_bad_block() {
        let mut v: Vec<f64> = (0..3 * P99_BLOCK).map(|i| (i % P99_BLOCK) as f64).collect();
        assert_eq!(blocked_p99(&v), 989.0);
        // Blow up the whole tail of the middle block: the median holds.
        v[P99_BLOCK..2 * P99_BLOCK]
            .iter_mut()
            .for_each(|x| *x *= 100.0);
        assert_eq!(blocked_p99(&v), 989.0);
        assert_eq!(blocked_p99(&v[..P99_BLOCK - 1]), 0.0);
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(rank(10, 0.0), 0);
        assert_eq!(rank(10, 100.0), 9);
        assert_eq!(rank(10, 50.0), 4);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }
}
