//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// the two closest ranks (the "type 7" definition). `None` when `xs` is
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The quantile of a run's repeated calls or passes that a timed
/// end-to-end metric reports: the 90th percentile of a time, the 10th of
/// a rate. On a shared 2-vCPU virtual machine, every run of tens of
/// seconds visits a slow phase, and fast phases differ in length and
/// speed from run to run; the slow-phase value repeats across runs where
/// a median or mean does not (see "Steadiness" in `perfbench/README.md`).
pub const SLOW: f64 = 0.9;

/// The slow-phase value of repeated times: their `SLOW` quantile.
pub fn slow_time(xs: &[f64]) -> Option<f64> {
    quantile(xs, SLOW)
}

/// The slow-phase value of repeated rates: their `1 - SLOW` quantile.
pub fn slow_rate(xs: &[f64]) -> Option<f64> {
    quantile(xs, 1.0 - SLOW)
}

/// Samples left strictly above the `q`-quantile: a percentile is reported
/// only when this is at least ten.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(11.0));
        assert_eq!(quantile(&xs, 0.9), Some(10.0));
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&ys, 0.5), Some(25.0));
        assert!((quantile(&ys, 0.9).unwrap() - 37.0).abs() < 1e-12);
        assert_eq!(quantile(&ys, 0.25), Some(17.5));
    }

    #[test]
    fn slow_phase_values_are_the_slow_decile() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(slow_time(&xs), Some(10.0));
        assert!((slow_rate(&xs).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(slow_time(&[4.0]), Some(4.0));
        assert_eq!(slow_rate(&[]), None);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(101, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(10, 0.5), 5);
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
