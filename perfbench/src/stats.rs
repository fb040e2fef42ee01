//! Order statistics of request timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Arithmetic mean of `xs`; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing sample: the highest nearest-rank percentile with
/// at least [`TAIL_BEYOND`] samples ranked beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile it is (`100·rank/n`).
    pub percentile: f64,
    /// The sample count `n`.
    pub samples: usize,
}

/// The highest nearest-rank percentile of `xs` with at least
/// [`TAIL_BEYOND`] samples beyond it: rank `n − 10` of `n` sorted samples,
/// i.e. percentile `100·(n−10)/n`. `None` when `n ≤ 10`, where no
/// percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted(xs)[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
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
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: rank 30 is p75, and exactly ten samples rank beyond.
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // A higher percentile would leave only nine samples beyond.
        assert_eq!(xs.iter().filter(|&&x| x > 31.0).count(), TAIL_BEYOND - 1);

        // 100 samples: p90.
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile), (89.0, 90.0));

        // Eleven samples: the minimum that has a tail, at the lowest rank.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 0.0);
        assert_eq!(tail(&xs[..10]), None);
    }
}
