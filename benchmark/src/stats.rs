//! Order statistics over small sample sets.

/// Median of `values` (mean of the middle pair for even counts). Sorts in
/// place. Panics on an empty slice or a NaN — both are bugs in the caller.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of integer-tick samples, interpolated inside the tick that
/// holds it: the nearest-rank value `v` stands for the interval
/// `[v, v + 1)`, and the result moves through it in proportion to how far
/// the target rank reaches into the samples tied at `v` (the grouped-data
/// percentile). On a clock that ticks in whole microseconds a tie of many
/// thousand samples is the normal case; the plain nearest-rank percentile
/// would then read the same on every seed however the distribution under
/// it shifted.
pub fn percentile_in_tick(sorted: &[u64], q: f64) -> f64 {
    let v = percentile(sorted, q);
    let below = sorted.partition_point(|&x| x < v);
    let tied = sorted.partition_point(|&x| x <= v) - below;
    let reach = (q * sorted.len() as f64 - below as f64) / tied as f64;
    v as f64 + reach.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_in_tick_moves_with_the_tie() {
        // 10 samples at 5, then 10 at 6: the median sits at the top of
        // the 5-tick; shift two samples down and it moves inside the tick.
        let mut s = vec![5u64; 10];
        s.extend([6u64; 10]);
        assert_eq!(percentile_in_tick(&s, 0.5), 6.0);
        let mut s = vec![4u64; 2];
        s.extend([5u64; 10]);
        s.extend([6u64; 8]);
        assert_eq!(percentile_in_tick(&s, 0.5), 5.8);
        assert_eq!(percentile_in_tick(&[7], 0.99), 7.99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
