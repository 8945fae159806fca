//! Order statistics over raw samples.
//!
//! Every quantile the benchmark reports comes from here, computed from
//! the raw observations — never from the program's octave-bucket
//! histograms, whose `quantile_us` returns a bucket's upper bound.

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// the closest ranks (the "type 7" definition). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Arithmetic mean, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// The number of samples strictly above quantile `q` — a percentile is
/// only worth reporting when at least ten samples lie beyond it.
pub fn beyond(samples: usize, q: f64) -> usize {
    ((1.0 - q) * samples as f64).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert!((quantile(&v, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&v), Some(5.0));
        assert_eq!(quantile(&v, 0.75), Some(7.0));
    }

    #[test]
    fn p99_of_a_ramp_is_not_a_power_of_two() {
        // 1..=1000 µs: an octave histogram would report 1024.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn empty_and_single_samples() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(quantile(&[3.5], 0.99), Some(3.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
    }
}
