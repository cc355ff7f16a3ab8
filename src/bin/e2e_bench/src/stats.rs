//! Order statistics. Quantiles follow Python's
//! `statistics.quantiles(values, n=…)` (the default "exclusive"
//! method), so a spread computed here equals the one the acceptance
//! harness computes from the same values.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The `i`-th of `n` cut points of ascending `data` (`0 < i < n`).
fn cut_point(data: &[f64], i: usize, n: usize) -> f64 {
    let len = data.len();
    if len == 1 {
        return data[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

/// Median, quartiles and extremes. Panics on an empty slice: every
/// caller measures at least once.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let data = sorted(values);
    Summary {
        n: data.len(),
        min: data[0],
        q1: cut_point(&data, 1, 4),
        median: cut_point(&data, 2, 4),
        q3: cut_point(&data, 3, 4),
        max: data[data.len() - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The `p`-th percentile (`0 < p < 100`), clamped to the sample range.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    assert!(!values.is_empty(), "no samples for a percentile");
    let data = sorted(values);
    cut_point(&data, p, 100).clamp(data[0], data[data.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));

        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));

        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 8.0, 4.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));

        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn percentiles_by_hand() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // statistics.quantiles(range(1,101), n=100)[94] -> 95.95
        assert!((percentile(&v, 95) - 95.95).abs() < 1e-9);
        assert!((percentile(&v, 50) - 50.5).abs() < 1e-9);
        // Exclusive interpolation would extrapolate past the sample
        // range on tiny inputs; the result is clamped instead.
        assert_eq!(percentile(&[1.0, 2.0], 95), 2.0);
        assert_eq!(percentile(&[5.0], 95), 5.0);
    }
}
