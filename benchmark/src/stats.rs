//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The tolerance keeps float error (99.9% of 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` that leaves at least `min_beyond` of `n`
/// samples beyond it, if any does.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && beyond(n, p) >= min_beyond)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Median rate over `windows` consecutive stretches of a timed phase.
/// `done` holds the ascending completion times (seconds since the phase
/// began) of requests that each carry `per` items; every stretch covers
/// the same number of completions, and a remainder is left out. Unlike
/// items over the whole phase, the median ignores a short stall.
///
/// # Panics
///
/// Panics on an empty `done` or zero `windows`.
pub fn windowed_rate(done: &[f64], per: f64, windows: usize) -> f64 {
    assert!(!done.is_empty() && windows > 0, "rate of an empty phase");
    let c = (done.len() / windows).max(1);
    let mut start = 0.0;
    let rates: Vec<f64> = done
        .chunks_exact(c)
        .map(|w| {
            let end = w[c - 1];
            let r = c as f64 * per / (end - start);
            start = end;
            r
        })
        .collect();
    median(&rates)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Ranks round up: the 50th percentile of 3 samples is the 2nd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 90.0), 4.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn highest_percentile_with_ten_beyond() {
        let ladder = [90.0, 95.0, 99.0, 99.9];
        assert_eq!(highest_supported(99, &ladder, 10), None);
        assert_eq!(highest_supported(100, &ladder, 10), Some(90.0));
        assert_eq!(highest_supported(200, &ladder, 10), Some(95.0));
        assert_eq!(highest_supported(999, &ladder, 10), Some(95.0));
        assert_eq!(highest_supported(1000, &ladder, 10), Some(99.0));
        assert_eq!(highest_supported(10_000, &ladder, 10), Some(99.9));
        assert_eq!(highest_supported(0, &ladder, 10), None);
    }

    #[test]
    fn windowed_rate_ignores_a_short_stall() {
        // 100 completions, one every 10 ms, 8 items each: 800 items/s.
        let steady: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.01).collect();
        assert!((windowed_rate(&steady, 8.0, 10) - 800.0).abs() < 1e-6);
        // A 0.5 s stall before the 50th completion cuts the whole-run
        // rate by a third but moves only one of ten windows.
        let stalled: Vec<f64> = steady
            .iter()
            .enumerate()
            .map(|(i, t)| if i >= 49 { t + 0.5 } else { *t })
            .collect();
        assert!((windowed_rate(&stalled, 8.0, 10) - 800.0).abs() < 1e-6);
        assert!(100.0 * 8.0 / stalled[99] < 600.0);
        // Fewer completions than windows: one completion per window.
        assert!((windowed_rate(&[0.5, 1.0, 1.5], 1.0, 10) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
