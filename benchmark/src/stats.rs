//! Estimators: percentiles, the supported tail percentile, medians of
//! per-slice rates.

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

pub fn sort(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    values
}

/// Nearest-rank percentile of an ascending slice, `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sort(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// A tail latency with the percentile it really is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported: 0.99 when the sample supports it.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The 99th percentile, or — when fewer than [`TAIL_SUPPORT`] samples lie
/// beyond it — the highest percentile that has that many beyond it. With
/// too few samples for any tail, the median.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    let p99_index = ((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = if n > TAIL_SUPPORT {
        p99_index.min(n - 1 - TAIL_SUPPORT)
    } else {
        n / 2
    };
    Tail {
        percentile: if index == p99_index {
            0.99
        } else {
            (index + 1) as f64 / n as f64
        },
        value: sorted[index],
        samples: n,
    }
}

/// Number of equal slices a window of `window_ns` is cut into: one per
/// whole second, at least one.
pub fn slice_count(window_ns: u64) -> usize {
    ((window_ns / 1_000_000_000) as usize).max(1)
}

/// Events per second in each of `slices` equal slices of
/// `[start_ns, end_ns)`; events outside the window are ignored.
pub fn slice_rates(
    event_ns: impl IntoIterator<Item = u64>,
    start_ns: u64,
    end_ns: u64,
    slices: usize,
) -> Vec<f64> {
    assert!(end_ns > start_ns && slices > 0);
    let width = (end_ns - start_ns) as f64 / slices as f64;
    let mut counts = vec![0u64; slices];
    for t in event_ns {
        if t >= start_ns && t < end_ns {
            let i = (((t - start_ns) as f64 / width) as usize).min(slices - 1);
            counts[i] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 * 1e9 / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_arrays() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p99_only_when_ten_samples_lie_beyond_it() {
        // 2000 samples: p99 is rank 1980, 20 beyond — supported.
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.percentile, t.value, t.samples), (0.99, 1980.0, 2000));
        // 500 samples: p99 would be rank 495 with 5 beyond; the highest
        // supported rank is 490 (10 beyond) = p98.
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 490.0);
        assert!((t.percentile - 0.98).abs() < 1e-12);
        // 1000 samples: exactly 10 beyond p99.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s).value, 990.0);
        assert_eq!(tail(&s).percentile, 0.99);
        // Too few for any tail: the median, labelled as such.
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!(t.value, 5.0);
        assert!(t.percentile < 0.99);
    }

    #[test]
    fn slice_median_ignores_a_stalled_slice() {
        // 5 one-second slices at 100/s, except slice 3, which stalls at 10/s.
        let mut events = Vec::new();
        for slice in 0..5u64 {
            let n = if slice == 3 { 10 } else { 100 };
            for i in 0..n {
                events.push(1_000 + slice * 1_000_000_000 + i * 1_000_000);
            }
        }
        // Out-of-window events are not counted.
        events.push(0);
        events.push(1_000 + 5_000_000_000);
        let rates = slice_rates(events, 1_000, 1_000 + 5_000_000_000, 5);
        assert_eq!(rates, vec![100.0, 100.0, 100.0, 10.0, 100.0]);
        assert_eq!(median(&rates), 100.0);
        let mean = rates.iter().sum::<f64>() / 5.0;
        assert_eq!(mean, 82.0);
    }

    #[test]
    fn slices_are_whole_seconds_and_at_least_one() {
        assert_eq!(slice_count(150_000_000), 1);
        assert_eq!(slice_count(3_000_000_000), 3);
        assert_eq!(slice_count(9_500_000_000), 9);
        let rates = slice_rates([0, 100_000_000, 999_999_999], 0, 1_000_000_000, 5);
        assert_eq!(rates, vec![10.0, 0.0, 0.0, 0.0, 5.0]);
    }
}
