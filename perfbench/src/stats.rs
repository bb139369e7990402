//! Order statistics over timing samples.

/// A timing summary: the median, the highest percentile that still has at
/// least ten samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    /// The tail value and the percentile it sits at.
    pub tail: f64,
    pub tail_pct: f64,
    pub count: usize,
}

/// Samples beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The element with exactly ten samples above it; with fewer than
    // eleven samples the maximum is the best tail there is.
    let at = n.saturating_sub(TAIL_BEYOND + 1);
    Summary {
        median: median_sorted(&v),
        tail: v[at],
        tail_pct: 100.0 * (at + 1) as f64 / n as f64,
        count: n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at quantile `q` (0..=1), nearest rank.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.median, 50.5);
        assert_eq!(sum.tail, 90.0);
        assert_eq!(sum.tail_pct, 90.0);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&s).tail, 990.0);
        assert_eq!(quantile(&s, 0.99), 990.0);
    }
}
