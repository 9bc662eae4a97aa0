//! Order statistics over per-iteration samples.

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail of `xs`: the nearest-rank 80th percentile, with the number of
/// samples beyond it. A run holds about 5 to 15 samples, too few for a
/// percentile with ten samples beyond it that lies above the median, so the
/// tail is fixed at p80: it has one sample beyond it from five samples on
/// and two from ten on, so one slow outlier in a run does not set it.
pub fn tail(xs: &[f64]) -> (f64, usize) {
    let s = sorted(xs);
    if s.is_empty() {
        return (0.0, 0);
    }
    let rank = (s.len() * 4).div_ceil(5);
    (s[rank - 1], s.len() - rank)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_nearest_rank_p80() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), (16.0, 4));
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&twelve), (10.0, 2));
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&five), (4.0, 1));
        assert_eq!(tail(&[5.0, 9.0, 7.0]), (9.0, 0));
        assert_eq!(tail(&[]), (0.0, 0));
    }
}
